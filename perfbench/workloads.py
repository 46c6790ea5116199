"""The benchmark's workloads: one edge-lab CLI config each, plus its output gate.

Every workload fixes its config here. ``--seed n`` shifts the config's
dataset and init seeds by ``n``, so seed 0 reproduces the configs below
verbatim. A gate reads the command's output files and returns one message
per violated check, using the acceptance tolerances unchanged; an empty
list means the outputs are correct.
"""

from __future__ import annotations

import copy
import csv
import json
import math
from pathlib import Path

_README_MLP = {
    "kind": "mlp", "widths": [10, 16, 16, 5], "activation": "tanh",
    "dataset": {"seed": 0, "n": 200, "d_in": 10, "d_out": 5,
                "teacher_rank": 3, "noise": 0.1},
}

# The strain gate's 1e-6 is the acceptance tolerance for an accurately
# integrated segment Hessian (the acceptance check integrates adaptively
# from order 8). The recurrence residual is exactly the quadrature error of
# A_k delta_k: with the CLI's default order 4 it reaches 1e-5..1e-2 on one
# seed in five or six, where the leave-one-out strain grows to |delta| > 1,
# while order 16 stays below 1e-10 up to |delta| = 1.85 (60 seeds checked).
# A fixed order keeps the work, and so the timings, the same on every seed.
STRAIN_QUADRATURE_ORDER = 16

def _linear_bifurcate_etas(count: int) -> list[float]:
    lo, hi = math.log10(0.005), math.log10(0.2)
    return [0.5 * (1.0 + 10.0 ** (lo + (hi - lo) * i / (count - 1)))
            for i in range(count)]


def config(name: str, seed: int, small: bool = False) -> tuple[str, dict]:
    """(edge-lab subcommand, JSON config) of a workload at ``seed``.

    ``small`` shrinks the step counts for the benchmark's self-test; the
    gates that need a long run (edge-of-stability saturation) may then fail.
    """
    if name in ("mlp_run", "mlp_localize"):
        model = copy.deepcopy(_README_MLP)
        model["dataset"]["seed"] += seed
        cfg = {"model": model, "init": {"mode": "gaussian", "seed": 1 + seed},
               "eta": 0.5}
        if name == "mlp_run":
            cfg.update(steps=40 if small else 4000, localize=False)
        else:
            cfg.update(steps=3 if small else 200, localize=True)
        return "run", cfg
    if name == "mlp_strain":
        return "strain", {
            "model": {"kind": "mlp", "widths": [6, 8, 4], "activation": "tanh",
                      "dataset": {"seed": 3 + seed, "n": 60, "d_in": 6,
                                  "d_out": 4, "teacher_rank": 2,
                                  "noise": 0.05}},
            "init": {"mode": "gaussian", "seed": 7 + seed},
            "eta": 0.3, "steps": 5 if small else 200, "leave_one_out": 0,
            "quadrature_order": STRAIN_QUADRATURE_ORDER,
        }
    if name == "linear_bifurcate":
        return "bifurcate", {
            "model": {"kind": "two_layer_linear", "hidden": 6, "rank": 3,
                      "dataset": {"seed": 11 + seed, "n": 200, "d_in": 20,
                                  "d_out": 10,
                                  "teacher_spectrum": [2.0, 1.0, 0.5]}},
            "etas": _linear_bifurcate_etas(4 if small else 16),
            "modes": ["continuation", "empirical"],
            "run_steps": 400 if small else 4000,
        }
    raise KeyError(f"unknown workload {name!r}")


def _read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _gate_mlp_run(cfg: dict, out: Path) -> list[str]:
    rep = _read_json(out / "balance_report.json")
    summary = _read_json(out / "summary.json")
    errors = []
    rel = rep["identity_residual"] / max(1.0, abs(2.0 * rep["loss_drop"]))
    if not rel <= 1e-5:
        errors.append(f"relative identity_residual {rel:.3e} > 1e-5")
    thr = 2.0 / cfg["eta"]
    dev = abs(rep["weighted_mean"] - thr) / thr
    if not dev <= 0.05:
        errors.append(f"weighted_mean {rep['weighted_mean']:.6g} is "
                      f"{dev:.2%} from 2/eta = {thr:g} (limit 5%)")
    if summary["diverged"] or summary["num_steps"] != cfg["steps"]:
        errors.append(f"run stopped after {summary['num_steps']} of "
                      f"{cfg['steps']} steps (diverged={summary['diverged']})")
    return errors


def _gate_mlp_strain(cfg: dict, out: Path) -> list[str]:
    summary = _read_json(out / "strain_summary.json")
    errors = []
    resid = summary["max_recurrence_residual"]
    if not resid <= 1e-6:
        errors.append(f"max_recurrence_residual {resid:.3e} > 1e-6")
    if summary["diverged"] or summary["steps"] != cfg["steps"]:
        errors.append(f"strain run has {summary['steps']} of {cfg['steps']} "
                      f"steps (diverged={summary['diverged']})")
    return errors


def _gate_linear_bifurcate(cfg: dict, out: Path) -> list[str]:
    summary = _read_json(out / "sweep_summary.json")
    errors = []
    if not abs(summary["quartic_u"] + 4.0) <= 1e-4:
        errors.append(f"quartic_u {summary['quartic_u']!r} not within 1e-4 of -4")
    if not abs(summary["eta_c"] - 0.5) <= 1e-10:
        errors.append(f"eta_c {summary['eta_c']!r} not within 1e-10 of 0.5")
    for mode in cfg["modes"]:
        expo = summary["exponents"].get(mode)
        if expo is None or not abs(expo - 0.5) <= 0.05:
            errors.append(f"{mode} exponent {expo!r} not within 0.05 of 0.5")
        if summary[f"{mode}_branch_lost"]:
            errors.append(f"{mode} branch lost")
    return errors


def _gate_mlp_localize(cfg: dict, out: Path) -> list[str]:
    with open(out / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    errors = []
    if len(rows) != cfg["steps"]:
        errors.append(f"metrics.csv has {len(rows)} rows, expected {cfg['steps']}")
    for row in rows:
        try:
            xi, zeta = float(row["xi"]), float(row["zeta"])
            lam, rtilde = float(row["lambda_max_xi"]), float(row["rtilde"])
        except ValueError:
            errors.append(f"step {row['k']}: missing localization fields")
            continue
        if not (0.0 < xi < 1.0 and 0.0 < zeta < 1.0):
            errors.append(f"step {row['k']}: xi={xi!r} zeta={zeta!r} outside (0,1)")
        if not lam >= rtilde - 1e-8:
            errors.append(f"step {row['k']}: lambda_max_xi {lam!r} < "
                          f"rtilde {rtilde!r} - 1e-8")
    return errors


_GATES = {
    "mlp_run": _gate_mlp_run,
    "mlp_strain": _gate_mlp_strain,
    "linear_bifurcate": _gate_linear_bifurcate,
    "mlp_localize": _gate_mlp_localize,
}
NAMES = tuple(_GATES)    # BENCHMARK.json records why each workload exists


def gate(name: str, cfg: dict, out: Path) -> list[str]:
    """Violated checks of one finished command; missing or unreadable
    outputs count as a violation too."""
    try:
        return _GATES[name](cfg, Path(out))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
