"""edge-lab benchmark: each workload runs as fresh edge-lab CLI processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src``.
Before the workload, a few set-up probes run the command only up to the end
of its build step. Then the command runs end to end, one process at a time,
until ``--seconds`` have passed (at least once), and each process's outputs
are checked by the workload's gate. A probe or a process that exits
non-zero or fails its gate counts as a failed operation.

``--trace 0`` reports the end-to-end metrics, each the median over the
run's processes: ``wall_s`` (launch to exit), ``setup_s`` (launch to the
end of the build step), ``cpu_s`` (user + system) and ``peak_rss_mb``.
``--trace 1`` then runs the command once more under the outside-in tracer
and reports the per-layer metrics of ``spans.summarize``, plus
``cli.import_s``, ``cli.output_bytes`` and ``trace.overhead_s``.

The last line of standard output is the JSON result; the line before it
records the environment. Children get BLAS pinned to one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 3
RUN_BUDGET_S = 170.0    # one invocation must end within 180 s
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "EDGE_LAB_THREADS": "1"}


@dataclass
class Sample:
    workdir: Path
    mode: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    setup_s: float | None = None
    import_s: float | None = None
    errors: list[str] = field(default_factory=list)


def _child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONHASHSEED="0", **THREAD_ENV)
    prior = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + prior if prior else "")
    return env


def launch(workdir: Path, mode: str, run_id: str, cli_args: list[str],
           timeout: float) -> Sample:
    """Run one child to completion; rusage comes from ``wait4``."""
    workdir.mkdir(parents=True)
    record = workdir / "record.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(record), mode, run_id,
           "--", *cli_args]
    with open(workdir / "stdout.txt", "wb") as out, \
            open(workdir / "stderr.txt", "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(),
                                stdout=out, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        try:
            if not select.select([pidfd], [], [], max(timeout, 1.0))[0]:
                os.kill(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    sample = Sample(workdir, mode, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0, proc.returncode)
    try:
        rec = json.loads(record.read_text())
        sample.import_s = rec["import_s"]
        if "setup_done" in rec:
            sample.setup_s = rec["setup_done"] - t0
    except (OSError, ValueError, KeyError):
        pass
    if proc.returncode != 0:
        sample.errors.append(f"exit code {proc.returncode}: "
                             + (workdir / "stderr.txt").read_text()[-2000:])
    elif sample.setup_s is None:
        sample.errors.append("no set-up mark recorded")
    return sample


def environment(seed: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas.get("name"),
        "blas_version": blas.get("version"), "blas_threads": THREAD_ENV,
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "seed": seed,
    }


def measure(name: str, seed: int, seconds: float, trace: bool,
            small: bool = False) -> dict:
    """Run one workload and return the result object (see module doc)."""
    command, cfg = workloads.config(name, seed, small)
    base = OUT / name
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    cfg_path = base / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=2))
    run_id = f"{name}-seed{seed}-{os.getpid()}-{time.time_ns()}"
    start = time.monotonic()
    samples: list[Sample] = []

    def run(mode: str) -> Sample:
        workdir = base / f"p{len(samples):03d}"
        left = RUN_BUDGET_S - (time.monotonic() - start)
        s = launch(workdir, mode, run_id, [command, "--config", str(cfg_path),
                                           "--out", str(workdir / "cli")],
                   left)
        if mode != "setup" and not s.errors:
            s.errors = workloads.gate(name, cfg, workdir / "cli")
        samples.append(s)
        for err in s.errors:
            print(f"{name} {workdir.name} FAILED: {err}", file=sys.stderr)
        return s

    for _ in range(SETUP_PROBES):
        run("setup")
    runs: list[Sample] = []
    while True:
        runs.append(run("run"))
        elapsed = time.monotonic() - start
        reserve = (2.5 if trace else 1.2) * max(s.wall_s for s in runs)
        if elapsed >= seconds or elapsed + reserve > RUN_BUDGET_S:
            break

    if trace:
        traced = run("trace")
        try:
            recorded = spans.load(traced.workdir / "record.json.spans")
        except (OSError, ValueError):
            recorded = []    # the traced run failed; it is counted below
        metrics = spans.summarize(recorded, cfg.get("steps", 0))
        cli_out = traced.workdir / "cli"
        imports = [s.import_s for s in samples if s.import_s is not None]
        metrics["cli.import_s"] = (
            statistics.median(imports) if imports else 0.0, "s")
        metrics["cli.output_bytes"] = (
            sum(p.stat().st_size for p in cli_out.rglob("*") if p.is_file()),
            "B")
        metrics["trace.overhead_s"] = (
            traced.wall_s - statistics.median(s.wall_s for s in runs), "s")
    else:
        # A run whose every process failed before its build step ended
        # has no set-up sample; it reports 0 and is counted as failed.
        setups = [s.setup_s for s in samples if s.setup_s is not None]
        metrics = {
            "wall_s": (statistics.median(s.wall_s for s in runs), "s"),
            "setup_s": (statistics.median(setups) if setups else 0.0, "s"),
            "cpu_s": (statistics.median(s.cpu_s for s in runs), "s"),
            "peak_rss_mb": (statistics.median(s.peak_rss_mb for s in runs),
                            "MiB"),
        }
    failed = sum(1 for s in samples if s.errors)
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (base / "result.json").write_text(json.dumps({
        "environment": environment(seed), "workload": name, "config": cfg,
        "samples": [dict(vars(s), workdir=s.workdir.name) for s in samples],
        **result}, indent=2))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "edge_lab" / "cli.py").is_file():
        print(f"edge-lab sources not found under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"environment": environment(args.seed)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
