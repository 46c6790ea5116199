"""Self-test of the benchmark at reduced workload sizes.

    python3 -m pytest perfbench -q

Checks that every metric BENCHMARK.json names is emitted with its unit, in
both the plain and the traced run, and that a tampered output counts as a
failed operation.
"""

import csv
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAMES = sorted(workloads.NAMES)


@pytest.fixture(autouse=True)
def scratch_out(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


def test_workload_list_matches_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == NAMES


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_emitted_with_unit(name, trace, section):
    result = run.measure(name, 0, 0.0, bool(trace), small=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())
    assert result["attempted"] >= 2


def _edit_json(path: Path, key: str, value) -> None:
    obj = json.loads(path.read_text())
    obj[key] = value
    path.write_text(json.dumps(obj))


def _edit_metrics_csv(path: Path) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[0]["xi"] = "1.5"
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


TAMPER = {
    "mlp_run": lambda out: _edit_json(out / "balance_report.json",
                                      "identity_residual", 1.0),
    "mlp_strain": lambda out: _edit_json(out / "strain_summary.json",
                                         "max_recurrence_residual", 1e-3),
    "linear_bifurcate": lambda out: _edit_json(out / "sweep_summary.json",
                                               "quartic_u", -3.9),
    "mlp_localize": lambda out: _edit_metrics_csv(out / "metrics.csv"),
}


@pytest.mark.parametrize("name", NAMES)
def test_tampered_output_counts_as_failed(name, monkeypatch):
    real_gate = workloads.gate
    seen = []

    def tampering_gate(wname, cfg, out):
        before = real_gate(wname, cfg, out)
        TAMPER[wname](out)
        after = real_gate(wname, cfg, out)
        seen.append((before, after))
        return after

    monkeypatch.setattr(run.workloads, "gate", tampering_gate)
    result = run.measure(name, 0, 0.0, False, small=True)
    assert seen
    for before, after in seen:
        assert len(after) > len(before), after
    assert result["failed"] == len(seen)
    assert result["correct"] is False


def test_small_strain_passes_untampered():
    result = run.measure("mlp_strain", 0, 0.0, False, small=True)
    assert result["correct"] is True and result["failed"] == 0


def test_nonzero_exit_counts_as_failed(monkeypatch):
    real_config = workloads.config

    def broken(name, seed, small=False):
        command, cfg = real_config(name, seed, small)
        cfg["eta"] = -1.0
        return command, cfg

    monkeypatch.setattr(run.workloads, "config", broken)
    result = run.measure("mlp_strain", 0, 0.0, False, small=True)
    assert result["failed"] == result["attempted"] - run.SETUP_PROBES
    assert result["correct"] is False
