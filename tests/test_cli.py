"""Config validation, output determinism, and the verify integrity checks."""

import collections
import copy
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import edge_lab
from edge_lab import (_procmap, bifurcation, cli, edge_metrics as em, loss_models, numerics,
                      stability_kv)
from edge_lab.cli import _RESOLVERS, ConfigError, main
from edge_lab.loss_models import make_mlp, make_synthetic_dataset
from edge_lab.trajectory import run_gd
from edge_lab.verify import telescoping_tolerance


def _write_config(path, cfg):
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return str(path)


def _with(cfg, key, value):
    """A deep copy of ``cfg`` with the value at the dotted path ``key`` set."""
    cfg = copy.deepcopy(cfg)
    *parents, last = key.split(".")
    obj = cfg
    for name in parents:
        obj = obj[name]
    obj[last] = value
    return cfg


def _csv_rows(path):
    lines = path.read_bytes().decode().strip().split("\r\n")
    return [row.split(",") for row in lines[1:]]


def _edit_cell(path, line, column, edit):
    """Replace the cell of the CSV file ``path`` at ``line`` (the header is
    line 1) and ``column`` by ``edit`` of it."""
    lines = path.read_bytes().decode().split("\r\n")
    cells = lines[line - 1].split(",")
    col = lines[0].split(",").index(column)
    cells[col] = edit(cells[col])
    lines[line - 1] = ",".join(cells)
    path.write_bytes("\r\n".join(lines).encode())


def _quad_run_config(out_dir, eta=0.5, steps=40):
    return {
        "model": {"kind": "quadratic", "diag": [3.0]},
        "init": {"mode": "vector", "values": [1.0]},
        "eta": eta,
        "steps": steps,
        "localize": True,
        "out_dir": str(out_dir),
    }


class TestConfigValidation:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        """Includes the removed top-level seed, which drove nothing."""
        for key in ("unknown_option", "seed"):
            cfg = _quad_run_config(tmp_path / "out")
            cfg[key] = 1
            rc = main(["run", "--config", _write_config(tmp_path / "c.json", cfg)])
            assert rc == 2
            assert "unknown key" in capsys.readouterr().err

    def test_nested_unknown_key_path(self, tmp_path, capsys):
        cfg = _quad_run_config(tmp_path / "out")
        cfg["model"]["typo"] = True
        rc = main(["run", "--config", _write_config(tmp_path / "c.json", cfg)])
        assert rc == 2
        assert "model.typo" in capsys.readouterr().err

    def test_missing_required(self, tmp_path, capsys):
        cfg = _quad_run_config(tmp_path / "out")
        del cfg["eta"]
        rc = main(["run", "--config", _write_config(tmp_path / "c.json", cfg)])
        assert rc == 2
        assert "eta" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["run", "--config", "/nonexistent/cfg.json"]) == 2

    def test_resolved_config_written_with_defaults(self, tmp_path):
        out = tmp_path / "out"
        cfg = _quad_run_config(out)
        assert main(["run", "--config", _write_config(tmp_path / "c.json", cfg)]) == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert sorted(resolved) == ["command", "deltas", "eta", "init",
                                    "localize", "model", "out_dir", "steps"]


# A localized tanh MLP (dim 26) whose 150 steps make three chunks of the
# curvature table.
_SMALL_MLP_RUN = {
    "model": {"kind": "mlp", "widths": [3, 4, 2], "activation": "tanh",
              "dataset": {"seed": 0, "n": 12, "d_in": 3, "d_out": 2}},
    "init": {"mode": "gaussian", "seed": 1}, "eta": 0.5, "steps": 150,
    "localize": True}


class TestRunCommand:
    def test_outputs_and_determinism(self, tmp_path):
        cfg = _quad_run_config(tmp_path / "a")
        c1 = _write_config(tmp_path / "c1.json", cfg)
        assert main(["run", "--config", c1]) == 0
        cfg2 = dict(cfg, out_dir=str(tmp_path / "b"))
        c2 = _write_config(tmp_path / "c2.json", cfg2)
        assert main(["run", "--config", c2]) == 0
        for name in ("trajectory.csv", "metrics.csv", "balance_report.json",
                     "summary.json"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, f"{name} not byte-identical"

    def test_constant_curvature_column(self, tmp_path):
        out = tmp_path / "out"
        cfg = _quad_run_config(out)
        main(["run", "--config", _write_config(tmp_path / "c.json", cfg)])
        lines = (out / "metrics.csv").read_bytes().decode().strip().split("\r\n")
        rtildes = [float(row.split(",")[3]) for row in lines[1:]]
        np.testing.assert_allclose(rtildes, 3.0, atol=1e-11)

    def test_one_value_per_quantity(self, tmp_path):
        """metrics.csv and balance_report.json hold the same rtilde, and
        rbar matches the exact gradient-difference route."""
        out = tmp_path / "out"
        dataset = {"seed": 0, "n": 60, "d_in": 5, "d_out": 3,
                   "teacher_rank": 2, "noise": 0.1}
        cfg = {
            "model": {"kind": "mlp", "widths": [5, 8, 3], "activation": "tanh",
                      "dataset": dataset},
            "init": {"mode": "gaussian", "seed": 1},
            "eta": 0.5, "steps": 120, "out_dir": str(out),
        }
        assert main(["run", "--config", _write_config(tmp_path / "c.json", cfg)]) == 0
        rows = _csv_rows(out / "metrics.csv")
        weights = np.array([float(r[1]) for r in rows])
        rtildes = np.array([float(r[3]) for r in rows])
        report = json.loads((out / "balance_report.json").read_text())
        mean = float(np.sum(weights * rtildes) / np.sum(weights))
        assert abs(mean - report["weighted_mean"]) <= 1e-14 * abs(report["weighted_mean"])

        ds = make_synthetic_dataset(0, 60, 5, 3, teacher_rank=2, noise=0.1)
        model = make_mlp([5, 8, 3], "tanh", ds)
        log = run_gd(model, model.init_params(seed=1), 0.5, 120)
        table = em.curvature_table(model, log)
        assert [int(r[0]) for r in rows] == list(table.k)
        # Within the table's bound, which must not exceed 1e-9 relative.
        for r, exact, bound in zip(rows, table.rbar_exact, table.rbar_bound):
            assert abs(float(r[2]) - exact) <= bound <= 1e-9 * abs(exact)

    def test_onset_after_degenerate_steps(self, tmp_path):
        """Steps 0-5 are too short to have a direction; the onset is step 6."""
        out = tmp_path / "out"
        cfg = {
            "model": {"kind": "quadratic", "diag": [3.0]},
            "init": {"mode": "vector", "values": [1e-16]},
            "eta": 1.0, "steps": 40, "out_dir": str(out),
        }
        assert main(["run", "--config", _write_config(tmp_path / "c.json", cfg)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["onset_step"] == 6

    def test_localized_work_counts(self, tmp_path):
        """timings.json counts the profile nodes localization evaluated
        beyond the curvature table's and the Lanczos products of its
        sharpness estimates (dim 98 > 64), which the table's processes
        tally: the sums of what ``localize`` and ``localized_sharpness``
        count when each step is localized in turn, from the targets of a
        table built without localization and the final nodes of the
        step's quadrature."""
        out = tmp_path / "out"
        model_cfg = {"kind": "mlp", "widths": [3, 16, 2], "activation": "tanh",
                     "dataset": {"seed": 0, "n": 12, "d_in": 3, "d_out": 2}}
        cfg = {"model": model_cfg, "init": {"mode": "gaussian", "seed": 1},
               "eta": 0.5, "steps": 4, "localize": True, "out_dir": str(out)}
        assert main(["run", "--config", _write_config(tmp_path / "c.json", cfg)]) == 0
        timings = json.loads((out / "timings.json").read_text())
        resolved = json.loads((out / "resolved_config.json").read_text())
        model = cli._build_model(resolved["model"])
        log = run_gd(model, model.init_params(seed=1), 0.5, 4)
        table = em.curvature_table(model, log)
        work = collections.Counter()
        for i, k in enumerate(table.k):
            *_, profile, taus, qs = em._segment_averages(model, log.w(k), log.step(k))
            rec, _ = em.localize(profile, int(k), (table.rtilde[i], table.rbar[i]),
                                 taus, qs, work=work)
            em.localized_sharpness(model, log.w(k), log.step(k), rec, work)
        assert timings["localization_profile_nodes"] == work["localization_profile_nodes"]
        assert timings["lanczos_products"] == work["lanczos_products"] > 4 * 2
        assert work["localization_profile_nodes"] > 0

    def test_outputs_identical_for_any_cpu_count(self, tmp_path, monkeypatch):
        """With one CPU and with two, the curvature table of a localized
        150-step MLP run takes one process and two: every output but
        timings.json is byte-identical, and both runs replay."""
        outs = {}
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            out = outs[cpus] = tmp_path / f"cpus{cpus}"
            cfg = dict(_SMALL_MLP_RUN, out_dir=str(out))
            assert main(["run", "--config", _write_config(tmp_path / "c.json", cfg)]) == 0
            timings = json.loads((out / "timings.json").read_text())
            assert timings["curvature_table_workers"] == cpus
            assert main(["verify", "--run-dir", str(out), "--out", str(tmp_path)]) == 0
        names = sorted(p.name for p in outs[1].iterdir())
        assert names == sorted(p.name for p in outs[2].iterdir())
        for name in names:
            if name not in ("timings.json", "resolved_config.json"):
                assert (outs[1] / name).read_bytes() == (outs[2] / name).read_bytes(), name
        resolved = [json.loads((outs[c] / "resolved_config.json").read_text()) for c in (1, 2)]
        assert resolved[0] == dict(resolved[1], out_dir=str(outs[1]))

    def test_divergence_exit_code(self, tmp_path):
        out = tmp_path / "out"
        cfg = {
            "model": {"kind": "scalar_poly", "lam": 5.0},
            "init": {"mode": "vector", "values": [1000.0]},
            "eta": 1.0, "steps": 100,
            "out_dir": str(out),
        }
        rc = main(["run", "--config", _write_config(tmp_path / "c.json", cfg)])
        assert rc == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["diverged"] is True

    def test_run_holds_no_log(self, tmp_path):
        """``run`` reads each step into the curvature table as the runner
        takes it: the traced peak of this process over a 1,500-step MLP
        run of dim 389 stays below the bytes of one (K + 1, dim) float64
        array (4.7 MB), where holding the iterates and the gradients of
        the run took 2.4 times that."""
        steps = 1500
        cfg = {"model": {"kind": "mlp", "widths": [10, 24, 5], "activation": "tanh",
                         "dataset": {"seed": 0, "n": 16, "d_in": 10, "d_out": 5}},
               "init": {"mode": "gaussian", "seed": 1}, "eta": 0.5, "steps": steps}
        resolved = {"command": "run", **cli._resolve_run(cfg)}
        dim = cli._build_model(resolved["model"]).dim
        tracemalloc.start()
        try:
            code, _ = cli.cmd_run(resolved, tmp_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0 and len(_csv_rows(tmp_path / "trajectory.csv")) == steps + 1
        assert peak < (steps + 1) * dim * 8, peak / ((steps + 1) * dim * 8)


class TestBalanceCommand:
    def _config(self, out):
        return {
            "model": {"kind": "quadratic", "diag": [3.0]},
            "init": {"mode": "vector", "values": [1.0]},
            "etas": [0.4, 0.5],
            "steps": 30,
            "out_dir": str(out),
        }

    def test_outputs(self, tmp_path):
        out = tmp_path / "out"
        cfg = self._config(out)
        assert main(["balance", "--config", _write_config(tmp_path / "c.json", cfg)]) == 0
        summary = json.loads((out / "balance_summary.json").read_text())
        assert len(summary["runs"]) == 2
        for entry in summary["runs"]:
            # constant curvature: the weighted mean equals the top eigenvalue
            assert entry["weighted_mean"] == pytest.approx(3.0, abs=1e-11)
        assert (out / "balance_eta0.csv").exists()
        assert (out / "scatter_eta1.csv").exists()

    def test_timings_file(self, tmp_path):
        """timings.json: the wall seconds of each phase summed over the
        step sizes, the nodes of their curvature tables, and the most
        processes one of them took (one: 30 steps are a single chunk)."""
        out = tmp_path / "out"
        cfg = self._config(out)
        assert main(["balance", "--config", _write_config(tmp_path / "c.json", cfg)]) == 0
        timings = json.loads((out / "timings.json").read_text())
        assert sorted(timings) == ["curvature_table_nodes", "curvature_table_workers",
                                   "wall_s"]
        assert sorted(timings["wall_s"]) == ["curvature_table", "reports", "runner"]
        assert all(v > 0 for v in timings["wall_s"].values())
        # Constant curvature settles every step on its first 9 nodes.
        assert timings["curvature_table_nodes"] == sum(
            9 * len(_csv_rows(out / f"balance_eta{i}.csv")) for i in (0, 1))
        assert timings["curvature_table_workers"] == 1

    def test_k_column_is_trajectory_step(self, tmp_path):
        """Degenerate steps 0-5 have no row; the first row is step 6."""
        out = tmp_path / "out"
        cfg = dict(self._config(out), etas=[1.0], steps=40,
                   init={"mode": "vector", "values": [1e-16]})
        assert main(["balance", "--config", _write_config(tmp_path / "c.json", cfg)]) == 0
        ks = [int(r[0]) for r in _csv_rows(out / "balance_eta0.csv")]
        assert ks == list(range(6, 40))

    def test_forcing_bound_empty_without_infimum(self, tmp_path):
        """A loss unbounded below has no forcing bound: the column is
        empty on every row instead of a bound the run violates."""
        out = tmp_path / "out"
        cfg = dict(self._config(out), etas=[0.5], steps=20,
                   model={"kind": "quadratic", "diag": [1.0, -0.5]},
                   init={"mode": "vector", "values": [1.0, 1.0]})
        assert main(["balance", "--config", _write_config(tmp_path / "c.json", cfg)]) == 0
        rows = _csv_rows(out / "balance_eta0.csv")
        assert len(rows) == 20
        assert all(len(r) == 3 and r[2] == "" for r in rows)


class TestBifurcateCommand:
    def test_scalar_quartic_sweep(self, tmp_path):
        out = tmp_path / "out"
        etas = list(2.0 + np.logspace(np.log10(0.002), np.log10(0.2), 10))
        cfg = {
            "model": {"kind": "scalar_poly", "lam": 1.0, "beta": -1.0},
            "etas": etas,
            "modes": ["continuation", "empirical"],
            "run_steps": 3000,
            "out_dir": str(out),
        }
        assert main(["bifurcate", "--config", _write_config(tmp_path / "c.json", cfg)]) == 0
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert summary["eta_c"] == pytest.approx(2.0, abs=1e-10)
        assert summary["quartic_u"] == pytest.approx(-1.0, abs=1e-6)
        assert summary["exponents"]["continuation"] == pytest.approx(0.5, abs=0.02)
        lines = (out / "branch.csv").read_bytes().decode().strip().split("\r\n")
        assert lines[0] == "eta,amp,residual,mode"
        assert len(lines) == 1 + 2 * len(etas)
        # An empirical run has no residual: its cell is empty, not "nan".
        rows = [line.split(",") for line in lines[1:]]
        assert {(mode, resid == "") for _, _, resid, mode in rows} == {
            ("continuation", False), ("empirical", True)}

    def test_wrong_side_empty_branch(self, tmp_path):
        out = tmp_path / "out"
        cfg = {
            "model": {"kind": "scalar_poly", "lam": 1.0, "beta": -1.0},
            "etas": [1.6, 1.8],
            "modes": ["continuation"],
            "out_dir": str(out),
        }
        assert main(["bifurcate", "--config", _write_config(tmp_path / "c.json", cfg)]) == 0
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert summary["continuation_branch_lost"] is True
        lines = (out / "branch.csv").read_bytes().decode().strip().split("\r\n")
        assert len(lines) == 1  # header only

    @pytest.mark.parametrize("beta, etas, side, quartic_u", [
        (-1.0, [2.05, 2.1], "above", -1.0),
        (1.0, [1.8, 1.9], "below", 1.0),
    ], ids=["supercritical", "subcritical"])
    def test_branch_side(self, tmp_path, beta, etas, side, quartic_u):
        """The summary states on which side of eta_c the branch lies: above
        it when Q_u < 0, below it when Q_u > 0; continuation finds the
        orbits there."""
        out = tmp_path / "out"
        cfg = {"model": {"kind": "scalar_poly", "lam": 1.0, "beta": beta},
               "etas": etas, "modes": ["continuation"], "out_dir": str(out)}
        assert main(["bifurcate", "--config", _write_config(tmp_path / "c.json", cfg)]) == 0
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert summary["branch_side"] == side
        assert summary["quartic_u"] == quartic_u
        assert summary["continuation_branch_lost"] is False
        assert len(_csv_rows(out / "branch.csv")) == len(etas)

    def test_subcritical_exponent(self, tmp_path):
        """A subcritical branch (Q_u > 0) lies below eta_c = 2, and its
        exponent is fitted against log(eta_c - eta) on that side."""
        out = tmp_path / "out"
        cfg = {"model": {"kind": "scalar_poly", "lam": 1, "beta": 1},
               "etas": [1.8, 1.9, 1.95, 1.995], "modes": ["continuation"],
               "out_dir": str(out)}
        assert main(["bifurcate", "--config", _write_config(tmp_path / "c.json", cfg)]) == 0
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert summary["branch_side"] == "below"
        assert summary["continuation_branch_lost"] is False
        assert summary["exponents"]["continuation"] == pytest.approx(0.5, abs=0.02)

    def test_diverged_runs_leave_amp_empty(self, tmp_path):
        """The hardening scalar model diverges above eta_c = 2 after 790,
        108 and 34 steps: no run has an orbit, so every amp cell is empty,
        no exponent is fitted, the step sizes are listed as diverged and
        the empirical branch is lost."""
        out = tmp_path / "out"
        cfg = {"model": {"kind": "scalar_poly", "lam": 1, "beta": 1},
               "etas": [2.005, 2.05, 2.2], "modes": ["empirical"],
               "out_dir": str(out)}
        assert main(["bifurcate", "--config", _write_config(tmp_path / "c.json", cfg)]) == 0
        assert [row[1] for row in _csv_rows(out / "branch.csv")] == ["", "", ""]
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert summary["exponents"]["empirical"] is None
        assert summary["empirical_diverged_etas"] == [2.005, 2.05, 2.2]
        assert summary["empirical_branch_lost"] is True

    @pytest.mark.parametrize("beta, etas, run_offset", [
        (1.0, [1.8, 1.9, 1.95, 1.995], 1e-3),
        (-1.0, [1.9, 1.99], 1e-3),
        (-1.0, [2.05, 2.1], 0.0),
    ], ids=["subcritical", "below_supercritical", "no_offset"])
    def test_decayed_runs_leave_amp_empty(self, tmp_path, beta, etas, run_offset):
        """A run that settles to the fixed point observes no orbit: the
        hardening model's orbits below eta_c = 2 are unstable, the softening
        one has none there, and a run from the fixed point itself never
        leaves it. Every amp cell is empty, no exponent is fitted, the step
        sizes are listed as decayed and the empirical branch is lost."""
        out = tmp_path / "out"
        cfg = {"model": {"kind": "scalar_poly", "lam": 1, "beta": beta},
               "etas": etas, "modes": ["empirical"], "run_offset": run_offset,
               "out_dir": str(out)}
        assert main(["bifurcate", "--config", _write_config(tmp_path / "c.json", cfg)]) == 0
        assert [row[1] for row in _csv_rows(out / "branch.csv")] == [""] * len(etas)
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert summary["exponents"]["empirical"] is None
        assert summary["empirical_decayed_etas"] == etas
        assert summary["empirical_diverged_etas"] == []
        assert summary["empirical_branch_lost"] is True

    def test_timings_file(self, tmp_path):
        """``bifurcate`` writes the wall seconds of its phases and counts
        the empirical sweep's stacked ``value_and_grad`` calls and rows:
        each run is a row at every iterate its ``run_gd`` evaluates."""
        out = tmp_path / "out"
        etas, steps = [1.9, 2.05, 2.2], 500
        cfg = {"model": {"kind": "scalar_poly", "lam": 1, "beta": 1},
               "etas": etas, "modes": ["continuation", "empirical"],
               "run_steps": steps, "out_dir": str(out)}
        assert main(["bifurcate", "--config", _write_config(tmp_path / "c.json", cfg)]) == 0
        timings = json.loads((out / "timings.json").read_text())
        assert sorted(timings) == ["lockstep_row_steps",
                                   "lockstep_value_and_grad_calls", "wall_s"]
        assert sorted(timings["wall_s"]) == ["continuation", "empirical", "normal_form"]
        assert all(isinstance(v, float) and v > 0 for v in timings["wall_s"].values())
        model = loss_models.make_scalar_poly(1.0, 0.0, 1.0)
        logs = [run_gd(model, np.array([1e-3]), eta, steps) for eta in etas]
        rows = [log.divergence_step + 1 if log.diverged else steps + 1 for log in logs]
        assert rows == [steps + 1, 110, 36]
        assert timings["lockstep_value_and_grad_calls"] == max(rows)
        assert timings["lockstep_row_steps"] == sum(rows)

    def test_fit_skips_diverged_runs(self, tmp_path):
        """The soft quartic orbits at 2.05 to 2.2 and diverges at 4.5; the
        exponent is the fit over the three orbits alone."""
        out = tmp_path / "out"
        etas = [2.05, 2.1, 2.2, 4.5]
        cfg = {"model": {"kind": "scalar_poly", "lam": 1.0, "beta": -1.0},
               "etas": etas, "modes": ["empirical"], "run_steps": 3000,
               "out_dir": str(out)}
        assert main(["bifurcate", "--config", _write_config(tmp_path / "c.json", cfg)]) == 0
        amps = [row[1] for row in _csv_rows(out / "branch.csv")]
        assert amps[3] == "" and all(amps[:3])
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert summary["empirical_diverged_etas"] == [4.5]
        assert summary["empirical_decayed_etas"] == []
        assert summary["empirical_branch_lost"] is False
        want = bifurcation.fit_scaling_exponent(etas[:3], [float(a) for a in amps[:3]], 2.0)
        assert summary["exponents"]["empirical"] == want
        assert want == pytest.approx(0.5, abs=0.05)


# The benchmark's mlp_strain model at seed shift 109817480, without its
# quadrature order.
_STRAIN_PROBE = {
    "model": {"kind": "mlp", "widths": [6, 8, 4], "activation": "tanh",
              "dataset": {"seed": 109817483, "n": 60, "d_in": 6, "d_out": 4,
                          "teacher_rank": 2, "noise": 0.05}},
    "init": {"mode": "gaussian", "seed": 109817487},
    "eta": 0.3, "leave_one_out": 0,
}


class TestStrainCommand:
    def test_outputs_identical_for_any_cpu_count(self, tmp_path, monkeypatch):
        """With one CPU and with two, the segment Hessians of a 30-step
        leave-one-out MLP pair take one process and two: every output but
        timings.json is byte-identical, and so is the Hessian count."""
        outs, timings = {}, {}
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            out = outs[cpus] = tmp_path / f"cpus{cpus}"
            cfg = {
                "model": {"kind": "mlp", "widths": [4, 5, 2], "activation": "tanh",
                          "dataset": {"seed": 3, "n": 20, "d_in": 4, "d_out": 2,
                                      "teacher_rank": 2, "noise": 0.05}},
                "init": {"mode": "gaussian", "seed": 1},
                "eta": 0.3, "steps": 30, "leave_one_out": 0,
                "quadrature_order": 6, "out_dir": str(out),
            }
            assert main(["strain", "--config", _write_config(tmp_path / "c.json", cfg)]) == 0
            timings[cpus] = json.loads((out / "timings.json").read_text())
            assert timings[cpus]["strain_workers"] == cpus
            assert timings[cpus]["strain_dense_hessians"] == 30 * 6
        names = sorted(p.name for p in outs[1].iterdir())
        assert names == sorted(p.name for p in outs[2].iterdir())
        for name in names:
            if name not in ("timings.json", "resolved_config.json"):
                assert (outs[1] / name).read_bytes() == (outs[2] / name).read_bytes(), name
        resolved = [json.loads((outs[c] / "resolved_config.json").read_text()) for c in (1, 2)]
        assert resolved[0] == dict(resolved[1], out_dir=str(outs[1]))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_identical_datasets_zero_strain(self, tmp_path):
        out = tmp_path / "out"
        cfg = {
            "model": {"kind": "mlp", "widths": [4, 5, 2], "activation": "tanh",
                      "dataset": {"seed": 3, "n": 20, "d_in": 4, "d_out": 2,
                                  "teacher_rank": 2}},
            "init": {"mode": "gaussian", "seed": 1},
            "eta": 0.3, "steps": 10,
            "second_dataset_seed": 3,
            "out_dir": str(out),
        }
        assert main(["strain", "--config", _write_config(tmp_path / "c.json", cfg)]) == 0
        summary = json.loads((out / "strain_summary.json").read_text())
        assert summary["final_strain_norm"] == 0.0

    def test_leave_one_out_residual(self, tmp_path):
        out = tmp_path / "out"
        cfg = {
            "model": {"kind": "mlp", "widths": [4, 5, 2], "activation": "tanh",
                      "dataset": {"seed": 3, "n": 20, "d_in": 4, "d_out": 2,
                                  "teacher_rank": 2, "noise": 0.05}},
            "init": {"mode": "gaussian", "seed": 1},
            "eta": 0.3, "steps": 15,
            "leave_one_out": 0,
            "quadrature_order": 8,
            "out_dir": str(out),
        }
        assert main(["strain", "--config", _write_config(tmp_path / "c.json", cfg)]) == 0
        summary = json.loads((out / "strain_summary.json").read_text())
        assert summary["max_recurrence_residual"] <= 1e-6
        assert summary["final_strain_norm"] > 0
        timings = json.loads((out / "timings.json").read_text())
        assert sorted(timings) == ["strain_dense_hessians", "strain_workers", "wall_s"]
        assert sorted(timings["wall_s"]) == ["reports", "runner", "strain"]
        assert all(v > 0 for v in timings["wall_s"].values())
        # 15 steps make 4 chunks; every step settles at order 8.
        assert timings["strain_workers"] == min(_procmap.cpu_count(), 4)
        assert timings["strain_dense_hessians"] == 15 * 8
        assert summary["unsettled_steps"] == []

    def test_default_order_doubles_where_it_misses(self, tmp_path):
        """The benchmark's strain model at a seed where order 4, the default,
        misses the settle tolerance at steps 34-40 and 75-88 (residuals up
        to 1.1e-3 over 200 steps): those steps double their order, and the
        run exits 0 with every residual within 1e-10 (|delta_k| < 1)."""
        out = tmp_path / "out"
        cfg = dict(_STRAIN_PROBE, steps=89, out_dir=str(out))
        assert main(["strain", "--config", _write_config(tmp_path / "c.json", cfg)]) == 0
        summary = json.loads((out / "strain_summary.json").read_text())
        assert summary["unsettled_steps"] == []
        assert summary["max_recurrence_residual"] <= 1e-10
        assert summary["final_strain_norm"] < 1
        assert json.loads((out / "timings.json").read_text())[
            "strain_dense_hessians"] > 89 * 4

    def test_unsettled_steps_named(self, tmp_path, capsys, monkeypatch):
        """With the largest order set to the start order, the steps that
        miss the tolerance stay unsettled: listed in strain_summary.json,
        named on one stderr line, exit 1; ``verify --run-dir`` replays the
        directory and fails only ``recurrence_residual``, which lists them."""
        monkeypatch.setattr(stability_kv, "STRAIN_MAX_ORDER", 4)
        out = tmp_path / "out"
        cfg = dict(_STRAIN_PROBE, steps=41, out_dir=str(out))
        assert main(["strain", "--config", _write_config(tmp_path / "c.json", cfg)]) == 1
        missed = list(range(34, 41))
        assert capsys.readouterr().err.splitlines() == [
            f"unsettled strain quadrature at steps {', '.join(map(str, missed))}: "
            "not within 1e-10 max(1, |delta_k|) at order 4 or above"]
        summary = json.loads((out / "strain_summary.json").read_text())
        assert summary["unsettled_steps"] == missed
        assert summary["max_recurrence_residual"] > 1e-10
        assert main(["verify", "--run-dir", str(out), "--out", str(tmp_path)]) == 1
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert [(c["name"], c["passed"]) for c in report["checks"]] == [
            ("replay", True), ("recurrence_residual", False)]
        assert report["checks"][1]["details"] == {
            "max_recurrence_residual": summary["max_recurrence_residual"],
            "tolerance": 1e-10, "unsettled_steps": missed}

    def test_leave_one_out_rank_limited_linear(self, tmp_path):
        """The left-out objective keeps the model's rank limit: a width-6
        linear net on a noisy dataset, whose rank-8 least-squares target
        is truncated to rank 3."""
        out = tmp_path / "out"
        cfg = {
            "model": {"kind": "two_layer_linear", "hidden": 6, "rank": 3,
                      "dataset": {"seed": 2, "n": 40, "d_in": 10, "d_out": 8,
                                  "teacher_rank": 3, "noise": 0.1}},
            "init": {"mode": "minimizer_offset", "scale": 0.01},
            "eta": 0.1, "steps": 10, "leave_one_out": 0,
            "out_dir": str(out),
        }
        assert main(["strain", "--config", _write_config(tmp_path / "c.json", cfg)]) == 0
        summary = json.loads((out / "strain_summary.json").read_text())
        assert summary["max_recurrence_residual"] <= 1e-10
        assert summary["final_strain_norm"] > 0

    def test_model_above_dense_limit_rejected(self, tmp_path, capsys):
        """The README MLP (dim 533) is a config error, not a traceback."""
        out = tmp_path / "out"
        cfg = {
            "model": {"kind": "mlp", "widths": [10, 16, 16, 5], "activation": "tanh",
                      "dataset": {"seed": 0, "n": 200, "d_in": 10, "d_out": 5,
                                  "teacher_rank": 3, "noise": 0.1}},
            "init": {"mode": "gaussian", "seed": 1},
            "eta": 0.5, "steps": 5, "leave_one_out": 0,
            "out_dir": str(out),
        }
        rc = main(["strain", "--config", _write_config(tmp_path / "c.json", cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "512" in err and "533" in err
        assert not (out / "resolved_config.json").exists()

    def test_second_model_dimension_mismatch_rejected(self, tmp_path, capsys):
        """A 1-D and a 2-D quadratic cannot be paired: a one-line config
        error naming both dimensions, before anything is written."""
        out = tmp_path / "out"
        cfg = {
            "model": {"kind": "quadratic", "diag": [3.0]},
            "second_model": {"kind": "quadratic", "diag": [3.0, 1.0]},
            "init": {"mode": "vector", "values": [1.0]},
            "eta": 0.5, "steps": 5,
            "out_dir": str(out),
        }
        rc = main(["strain", "--config", _write_config(tmp_path / "c.json", cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "dim 1" in err and "dim 2" in err
        assert not (out / "resolved_config.json").exists()

    def test_variant_must_be_unique(self, tmp_path, capsys):
        cfg = {
            "model": {"kind": "quadratic", "diag": [3.0]},
            "init": {"mode": "vector", "values": [1.0]},
            "eta": 0.3, "steps": 5,
            "out_dir": str(tmp_path / "out"),
        }
        rc = main(["strain", "--config", _write_config(tmp_path / "c.json", cfg)])
        assert rc == 2

    def test_diverged_at_first_step(self, tmp_path):
        """A pair whose first model diverges at its first step keeps no
        step: exit 3, a null recurrence residual, and the directory
        replays."""
        out = tmp_path / "out"
        cfg = {"model": {"kind": "quadratic", "diag": [1e7, 1.0]},
               "second_model": {"kind": "quadratic", "diag": [1e7, 2.0]},
               "init": {"mode": "vector", "values": [1.0, 1.0]},
               "eta": 1.0, "steps": 5, "out_dir": str(out)}
        assert main(["strain", "--config", _write_config(tmp_path / "c.json", cfg)]) == 3
        summary = json.loads((out / "strain_summary.json").read_text())
        assert summary["steps"] == 0 and summary["diverged"] is True
        assert summary["max_recurrence_residual"] is None
        assert _csv_rows(out / "strain.csv") == []
        assert main(["verify", "--run-dir", str(out), "--out", str(tmp_path)]) == 0

    def test_quadratic_pair_via_second_model(self, tmp_path):
        out = tmp_path / "out"
        cfg = {
            "model": {"kind": "quadratic", "diag": [3.0, 1.0],
                      "center": [0.2, -0.1]},
            "second_model": {"kind": "quadratic", "diag": [3.0, 1.0],
                             "center": [-0.3, 0.4]},
            "init": {"mode": "vector", "values": [1.0, 1.0]},
            "eta": 0.5, "steps": 12,
            "out_dir": str(out),
        }
        assert main(["strain", "--config", _write_config(tmp_path / "c.json", cfg)]) == 0
        summary = json.loads((out / "strain_summary.json").read_text())
        assert summary["max_recurrence_residual"] <= 1e-12


def _strict_json(path):
    """The JSON file at ``path``, which must hold no NaN or Infinity token."""
    def reject(token):
        raise ValueError(f"{path.name} holds {token}")
    return json.loads(path.read_text(), parse_constant=reject)


@pytest.mark.parametrize("diag, values, rc, nulls", [
    ([-1.0, 2.0], [1.0, 1.0], 0, ["forcing_bound"]),
    ([3.0, 1.0], [1e150, 1.0], 3, ["forcing_bound", "max_rtilde", "weighted_mean"]),
], ids=["unbounded_below", "diverged_at_first_step"])
def test_non_finite_values_written_as_null(tmp_path, diag, values, rc, nulls):
    """A quadratic with a negative eigenvalue has no known infimum, and a
    run that diverges at its first step has no curvature mass: the values
    these leave undefined are null, and every JSON output is strict JSON."""
    base = {"model": {"kind": "quadratic", "diag": diag},
            "init": {"mode": "vector", "values": values}, "steps": 10}
    for command, step_sizes in (("run", {"eta": 0.5}), ("balance", {"etas": [0.5]})):
        cfg = dict(base, **step_sizes, out_dir=str(tmp_path / command))
        assert main([command, "--config", _write_config(tmp_path / "c.json", cfg)]) == rc
    outputs = {f"{path.parent.name}/{path.name}": _strict_json(path)
               for path in sorted(tmp_path.glob("*/*.json"))}
    assert len(outputs) == 7
    report = outputs["run/balance_report.json"]
    assert [key for key, value in report.items() if value is None] == nulls
    [entry] = outputs["balance/balance_summary.json"]["runs"]
    assert (entry["weighted_mean"] is None) == ("weighted_mean" in nulls)


def test_two_step_cells_are_table_columns(tmp_path):
    """A run's metrics.csv and a balance's scatter_eta0.csv at the same
    step size write the curvature table's columns: the proxy, the return
    ratio ||d_k + d_{k+1}|| / ||d_k|| and both exact routes, each cell
    equal to its column after the round trip through 17 digits; the last
    step, which has no d_{k+1}, leaves its two-step cells empty."""
    dataset = {"seed": 0, "n": 60, "d_in": 5, "d_out": 3,
               "teacher_rank": 2, "noise": 0.1}
    base = {"model": {"kind": "mlp", "widths": [5, 8, 3], "activation": "tanh",
                      "dataset": dataset},
            "init": {"mode": "gaussian", "seed": 1}, "steps": 60}
    for command, extra in (("run", {"eta": 0.5, "localize": False}),
                           ("balance", {"etas": [0.5]})):
        cfg = dict(base, **extra, out_dir=str(tmp_path / command))
        assert main([command, "--config", _write_config(tmp_path / "c.json", cfg)]) == 0
    model = make_mlp([5, 8, 3], "tanh", make_synthetic_dataset(0, 60, 5, 3,
                                                              teacher_rank=2, noise=0.1))
    log = run_gd(model, model.init_params(seed=1), 0.5, 60)
    table = em.curvature_table(model, log)
    assert list(table.k) == list(range(60))

    def column(rows, index):
        return [float(r[index]) if r[index] else None for r in rows]

    def expected(values):
        return [float(v) for v in values[:-1]] + [None]

    metrics = _csv_rows(tmp_path / "run" / "metrics.csv")
    assert column(metrics, 8) == expected(table.proxy)
    assert column(metrics, 9) == expected(table.two_step_norm
                                          / np.sqrt(table.step_norm_sq))
    assert column(metrics, 10) == list(table.rbar_exact)
    assert column(metrics, 11) == list(table.rtilde_exact)
    scatter = _csv_rows(tmp_path / "balance" / "scatter_eta0.csv")
    assert [int(r[0]) for r in scatter] == list(table.k[:-1])
    assert column(scatter, 2) == expected(table.proxy)[:-1]


class TestVerifyCommand:
    def test_quadratic_suite_passes(self, tmp_path):
        assert main(["verify", "--suite", "quadratic", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["passed"] is True
        assert {c["name"] for c in report["checks"]} == \
            {"quadratic_exactness", "mechanisms", "stochastic_balance"}

    _CHECKS = ["replay", "telescoping_balance", "route_agreement"]

    @staticmethod
    def _quad_run(tmp_path):
        out = tmp_path / "run"
        assert main(["run", "--config", _write_config(tmp_path / "c.json",
                                                      _quad_run_config(out))]) == 0
        return out

    @staticmethod
    def _replay_fails(run_dir, out, capsys) -> dict:
        """``verify --run-dir``, which must exit 1 naming its failed
        checks: the details of each failed check, by name."""
        capsys.readouterr()
        assert main(["verify", "--run-dir", str(run_dir), "--out", str(out)]) == 1
        report = json.loads((out / "verify_report.json").read_text())
        failed = {c["name"]: c["details"] for c in report["checks"] if not c["passed"]}
        assert capsys.readouterr().err.splitlines() == [f"FAILED: {', '.join(failed)}"]
        return failed

    def test_run_dir_integrity_pass(self, tmp_path):
        """The rerun reproduces every output byte for byte, and its
        telescoping residual is the run's. The run is localized, so
        ``localization`` is checked too, from the replayed table."""
        out = self._quad_run(tmp_path)
        assert main(["verify", "--run-dir", str(out), "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert [c["name"] for c in report["checks"]] == self._CHECKS + ["localization"]
        reported = json.loads((out / "balance_report.json").read_text())["identity_residual"]
        assert report["checks"][0]["details"] == {"mismatches": []}
        assert report["checks"][1]["details"]["residual"] == reported
        assert report["checks"][-1]["details"] == {
            "steps": 40, "localized_fraction": 1.0, "sharpness_bound_ok": True,
            "failed_steps": {}}

    def test_wide_mlp_run_replays(self, tmp_path):
        """The README MLP (dim 533), localized for 40 steps, replays from
        its resolved config alone: trajectory.csv holds no iterate."""
        out = tmp_path / "run"
        cfg = {"model": {"kind": "mlp", "widths": [10, 16, 16, 5], "activation": "tanh",
                         "dataset": {"seed": 0, "n": 200, "d_in": 10, "d_out": 5,
                                     "teacher_rank": 3, "noise": 0.1}},
               "init": {"mode": "gaussian", "seed": 1}, "eta": 0.5, "steps": 40,
               "localize": True, "out_dir": str(out)}
        assert main(["run", "--config", _write_config(tmp_path / "c.json", cfg)]) == 0
        assert (out / "trajectory.csv").read_bytes().startswith(
            b"k,loss,grad_norm,step_norm\r\n")
        assert main(["verify", "--run-dir", str(out), "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert [c["name"] for c in report["checks"] if c["passed"]] == \
            self._CHECKS + ["localization"]

    @pytest.mark.parametrize("value", ["nextafter", "string", "absent"])
    def test_edited_identity_residual_detected(self, tmp_path, capsys, value):
        """An edit of balance_report.json's identity_residual, by one ulp,
        to another type or away, fails exactly replay, which names the
        field's line."""
        out = self._quad_run(tmp_path)
        path = out / "balance_report.json"
        [line] = [i for i, text in enumerate(path.read_text().split("\n"), 1)
                  if '"identity_residual"' in text]
        rep = json.loads(path.read_text())
        if value == "nextafter":
            rep["identity_residual"] = float(np.nextafter(rep["identity_residual"], 1.0))
        elif value == "string":
            rep["identity_residual"] = str(rep["identity_residual"])
        else:
            del rep["identity_residual"]
        cli._write_json(path, rep)
        assert self._replay_fails(out, tmp_path, capsys) == {"replay": {
            "mismatches": [{"file": "balance_report.json", "line": line}]}}

    @pytest.mark.parametrize("column", ["rtilde", "rtilde_exact"])
    def test_edited_metrics_cell_detected(self, tmp_path, capsys, column):
        """A cell of metrics.csv moved by one ulp fails exactly replay,
        which names its line and column."""
        out = self._quad_run(tmp_path)
        _edit_cell(out / "metrics.csv", 6, column,
                   lambda cell: f"{np.nextafter(float(cell), 4.0):.17g}")
        assert self._replay_fails(out, tmp_path, capsys) == {"replay": {
            "mismatches": [{"file": "metrics.csv", "line": 6, "column": column}]}}

    @pytest.mark.parametrize("column", ["grad_norm", "step_norm"])
    def test_edited_trajectory_cell_detected(self, tmp_path, capsys, column):
        """A grad_norm or step_norm cell of trajectory.csv moved by one ulp
        fails exactly replay, which names its line and column."""
        out = self._quad_run(tmp_path)
        _edit_cell(out / "trajectory.csv", 6, column,
                   lambda cell: f"{np.nextafter(float(cell), np.inf):.17g}")
        assert self._replay_fails(out, tmp_path, capsys) == {"replay": {
            "mismatches": [{"file": "trajectory.csv", "line": 6, "column": column}]}}

    def test_tampered_reports_detected(self, tmp_path, capsys):
        """weighted_mean set to 123 in balance_report.json and onset_step
        to 7777 in summary.json: replay fails and names the line of each
        edit; the other outputs replay byte for byte."""
        out = tmp_path / "run"
        cfg = {"model": {"kind": "mlp", "widths": [3, 4, 2], "activation": "tanh",
                         "dataset": {"seed": 0, "n": 12, "d_in": 3, "d_out": 2}},
               "init": {"mode": "gaussian", "seed": 1}, "eta": 0.5, "steps": 60,
               "deltas": [0.25, 1.0], "out_dir": str(out)}
        assert main(["run", "--config", _write_config(tmp_path / "c.json", cfg)]) == 0
        assert main(["verify", "--run-dir", str(out), "--out", str(tmp_path)]) == 0
        mismatches = []
        for name, key, value in (("balance_report.json", "weighted_mean", 123),
                                  ("summary.json", "onset_step", 7777)):
            path = out / name
            [line] = [i for i, text in enumerate(path.read_text().split("\n"), 1)
                      if f'"{key}"' in text]
            cli._write_json(path, dict(json.loads(path.read_text()), **{key: value}))
            mismatches.append({"file": name, "line": line})
        assert self._replay_fails(out, tmp_path, capsys) == {
            "replay": {"mismatches": mismatches}}

    def test_diverged_run_replays(self, tmp_path):
        """A run that diverged at step 5 keeps 4 steps; the rerun diverges
        at the same step and replays."""
        out = tmp_path / "run"
        cfg = {"model": {"kind": "scalar_poly", "lam": 5.0},
               "init": {"mode": "vector", "values": [1000.0]},
               "eta": 1.0, "steps": 100, "out_dir": str(out)}
        assert main(["run", "--config", _write_config(tmp_path / "c.json", cfg)]) == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["divergence_step"] == 5 and summary["num_steps"] == 4
        assert main(["verify", "--run-dir", str(out), "--out", str(tmp_path)]) == 0

    def test_corrupted_loss_detected(self, tmp_path, capsys):
        out = self._quad_run(tmp_path)
        _edit_cell(out / "trajectory.csv", 4, "loss",
                   lambda cell: f"{float(cell) + 1e-3:.17g}")
        assert self._replay_fails(out, tmp_path, capsys) == {"replay": {
            "mismatches": [{"file": "trajectory.csv", "line": 4, "column": "loss"}]}}

    @staticmethod
    def _run_dir_config_error(run_dir, out, capsys) -> str:
        """The one stderr line of ``verify --run-dir``, which must exit 2
        (config error), not 1 (a failed check) through a traceback."""
        rc = main(["verify", "--run-dir", str(run_dir), "--out", str(out)])
        lines = capsys.readouterr().err.splitlines()
        assert rc == 2 and len(lines) == 1, lines
        return lines[0]

    def test_run_dir_missing(self, tmp_path, capsys):
        run_dir = tmp_path / "absent"
        line = self._run_dir_config_error(run_dir, tmp_path, capsys)
        assert line.startswith(f"config error at {run_dir / 'resolved_config.json'}:")

    def test_run_dir_config_without_model(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "resolved_config.json").write_text('{"command": "run"}')
        line = self._run_dir_config_error(run_dir, tmp_path, capsys)
        assert line.startswith("config error at model:")

    def test_run_dir_malformed_trajectory_row(self, tmp_path, capsys):
        """A cell that is no number is a differing cell like any other."""
        out = self._quad_run(tmp_path)
        _edit_cell(out / "trajectory.csv", 3, "loss", lambda cell: "abc")
        assert self._replay_fails(out, tmp_path, capsys) == {"replay": {
            "mismatches": [{"file": "trajectory.csv", "line": 3, "column": "loss"}]}}

    def test_run_dir_truncated_trajectory(self, tmp_path, capsys):
        """trajectory.csv without its last row fails replay at the line the
        row held."""
        out = self._quad_run(tmp_path)
        traj = out / "trajectory.csv"
        lines = traj.read_bytes().split(b"\r\n")
        traj.write_bytes(b"\r\n".join(lines[:-2] + lines[-1:]))
        assert self._replay_fails(out, tmp_path, capsys) == {"replay": {
            "mismatches": [{"file": "trajectory.csv", "line": len(lines) - 1,
                            "column": "k"}]}}

    def test_run_dir_header_only_trajectory(self, tmp_path, capsys):
        out = self._quad_run(tmp_path)
        traj = out / "trajectory.csv"
        traj.write_bytes(traj.read_bytes().split(b"\r\n")[0] + b"\r\n")
        assert self._replay_fails(out, tmp_path, capsys) == {"replay": {
            "mismatches": [{"file": "trajectory.csv", "line": 2, "column": "k"}]}}

    @pytest.mark.parametrize("name", ["trajectory.csv", "summary.json"])
    def test_run_dir_without_output(self, tmp_path, capsys, name):
        run_dir = self._quad_run(tmp_path)
        (run_dir / name).unlink()
        capsys.readouterr()
        line = self._run_dir_config_error(run_dir, tmp_path, capsys)
        assert line.startswith(f"config error at {run_dir / name}: cannot read")

    def test_run_dir_without_balance_report(self, tmp_path, capsys):
        run_dir = self._quad_run(tmp_path)
        (run_dir / "balance_report.json").unlink()
        capsys.readouterr()
        line = self._run_dir_config_error(run_dir, tmp_path, capsys)
        assert line.startswith(f"config error at {run_dir / 'balance_report.json'}:")

    def test_run_dir_without_metrics(self, tmp_path, capsys):
        run_dir = self._quad_run(tmp_path)
        (run_dir / "metrics.csv").unlink()
        capsys.readouterr()
        line = self._run_dir_config_error(run_dir, tmp_path, capsys)
        assert line.startswith(f"config error at {run_dir / 'metrics.csv'}: cannot read")

    def test_run_dir_with_route(self, tmp_path, capsys):
        """A run directory whose resolved config still holds the removed
        ``route`` key no longer replays."""
        run_dir = self._quad_run(tmp_path)
        path = run_dir / "resolved_config.json"
        path.write_text(json.dumps(dict(json.loads(path.read_text()), route="quadrature")))
        capsys.readouterr()
        line = self._run_dir_config_error(run_dir, tmp_path, capsys)
        assert line == "config error at route: unknown key"

    @pytest.mark.parametrize("value", [True, False])
    def test_run_dir_with_include_w(self, tmp_path, capsys, value):
        """Nor does one that holds the removed ``include_w`` key, which
        stored the iterates in trajectory.csv."""
        run_dir = self._quad_run(tmp_path)
        path = run_dir / "resolved_config.json"
        path.write_text(json.dumps(dict(json.loads(path.read_text()), include_w=value)))
        capsys.readouterr()
        line = self._run_dir_config_error(run_dir, tmp_path, capsys)
        assert line == "config error at include_w: unknown key"

    def test_run_dir_diverged_at_first_step(self, tmp_path, capsys):
        """A run that diverges at its first step logs no step; its
        one-row trajectory replays and every check passes."""
        out = tmp_path / "run"
        cfg = {"model": {"kind": "quadratic", "diag": [3.0, 1.0]},
               "init": {"mode": "vector", "values": [1e150, 1.0]},
               "eta": 0.5, "steps": 10, "out_dir": str(out)}
        assert main(["run", "--config", _write_config(tmp_path / "c.json", cfg)]) == 3
        assert len(_csv_rows(out / "trajectory.csv")) == 1
        capsys.readouterr()
        assert main(["verify", "--run-dir", str(out), "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert [c["name"] for c in report["checks"]] == self._CHECKS
        assert report["passed"] is True

    # A small config of each other command, and a CSV cell of its output
    # (file, column) at line 4.
    _OTHER_COMMANDS = {
        "balance": ({"model": {"kind": "mlp", "widths": [3, 4, 2], "activation": "tanh",
                               "dataset": {"seed": 0, "n": 12, "d_in": 3, "d_out": 2}},
                     "init": {"mode": "gaussian", "seed": 1}, "etas": [0.25, 0.5],
                     "steps": 30},
                    "balance_eta1.csv", "running_weighted_mean"),
        "strain": ({"model": {"kind": "mlp", "widths": [4, 5, 2], "activation": "tanh",
                              "dataset": {"seed": 3, "n": 20, "d_in": 4, "d_out": 2,
                                          "teacher_rank": 2, "noise": 0.05}},
                    "init": {"mode": "gaussian", "seed": 1}, "eta": 0.3, "steps": 10,
                    "leave_one_out": 0},
                   "strain.csv", "kappa"),
        "bifurcate": ({"model": {"kind": "scalar_poly", "lam": 1.0, "beta": -1.0},
                       "etas": [2.05, 2.1], "run_steps": 500},
                      "branch.csv", "amp"),
    }

    def _other_run(self, tmp_path, command):
        cfg, name, column = self._OTHER_COMMANDS[command]
        out = tmp_path / "out"
        assert main([command, "--config", _write_config(
            tmp_path / "c.json", dict(cfg, out_dir=str(out)))]) == 0
        return out, name, column

    # The checks of each other command's runs that follow replay.
    _OTHER_CHECKS = {"balance": ["telescoping_balance", "route_agreement"],
                     "strain": ["recurrence_residual"], "bifurcate": ["raw_orbit"]}

    @pytest.mark.parametrize("command", ["balance", "strain", "bifurcate"])
    def test_other_command_replays(self, tmp_path, capsys, command):
        """A directory of each other command replays byte for byte and
        passes the checks of its runs: telescoping and route agreement at
        each step size of a balance, the recurrence residual of a strain,
        the raw orbit of each continuation point of a sweep. A cell of its
        CSV output moved by one ulp fails replay, which names the file,
        line and column."""
        out, name, column = self._other_run(tmp_path, command)
        assert main(["verify", "--run-dir", str(out), "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert [(c["name"], c["details"]) for c in report["checks"]][0] == (
            "replay", {"mismatches": []})
        checks = report["checks"][1:]
        assert [c["name"] for c in checks] == self._OTHER_CHECKS[command]
        assert all(c["passed"] for c in checks)
        check = checks[0]
        if command == "balance":
            runs = json.loads((out / "balance_summary.json").read_text())["runs"]
            for c in checks:
                assert list(c["details"]) == ["etas[0]", "etas[1]"]
            assert [d["residual"] for d in check["details"].values()] == [
                run["identity_residual"] for run in runs]
        if command == "bifurcate":
            assert check["details"]["failed_etas"] == []
            assert check["details"]["max_raw_residual"] <= bifurcation.RAW_ORBIT_TOL
        _edit_cell(out / name, 4, column,
                   lambda cell: f"{np.nextafter(float(cell), np.inf):.17g}")
        assert self._replay_fails(out, tmp_path, capsys) == {"replay": {
            "mismatches": [{"file": name, "line": 4, "column": column}]}}

    @pytest.mark.parametrize("value", [True, False])
    def test_strain_dir_with_adaptive(self, tmp_path, capsys, value):
        """A strain directory whose resolved config still holds the removed
        ``adaptive`` key no longer replays."""
        out, _, _ = self._other_run(tmp_path, "strain")
        path = out / "resolved_config.json"
        path.write_text(json.dumps(dict(json.loads(path.read_text()), adaptive=value)))
        capsys.readouterr()
        line = self._run_dir_config_error(out, tmp_path, capsys)
        assert line == "config error at adaptive: unknown key"

    def test_raw_orbit_names_failed_points(self, tmp_path, capsys, monkeypatch):
        """With RAW_ORBIT_TOL at 0, which no output depends on, a sweep
        directory still replays, and raw_orbit fails, naming the step
        sizes whose raw two-step residual is not exactly 0."""
        out, _, _ = self._other_run(tmp_path, "bifurcate")
        monkeypatch.setattr(bifurcation, "RAW_ORBIT_TOL", 0.0)
        failed = self._replay_fails(out, tmp_path, capsys)
        assert list(failed) == ["raw_orbit"]
        details = failed["raw_orbit"]
        assert details["tolerance"] == 0.0 and details["max_raw_residual"] > 0.0
        assert details["failed_etas"] and set(details["failed_etas"]) <= {2.05, 2.1}

    def test_balance_dir_with_deltas(self, tmp_path, capsys):
        """A balance directory whose resolved config holds the removed
        ``deltas`` key, which changed no output of balance, no longer
        replays; one whose ``deltas`` is null reads back and reruns, and
        fails only replay, at that line of resolved_config.json."""
        out, _, _ = self._other_run(tmp_path, "balance")
        path = out / "resolved_config.json"
        stored = json.loads(path.read_text())
        cli._write_json(path, dict(stored, deltas=[0.1, 0.3]))
        capsys.readouterr()
        line = self._run_dir_config_error(out, tmp_path, capsys)
        assert line == "config error at deltas: unknown key"
        cli._write_json(path, dict(stored, deltas=None))
        assert self._replay_fails(out, tmp_path, capsys) == {"replay": {
            "mismatches": [{"file": "resolved_config.json", "line": 3}]}}

    def test_strain_dir_without_strain_csv(self, tmp_path, capsys):
        out, name, _ = self._other_run(tmp_path, "strain")
        (out / name).unlink()
        capsys.readouterr()
        line = self._run_dir_config_error(out, tmp_path, capsys)
        assert line.startswith(f"config error at {out / name}: cannot read")

    @pytest.mark.parametrize("stored, message", [
        ({}, "config error at command: required"),
        ({"command": "verify"}, "config error at command: must be one of 'run', "
                                "'balance', 'bifurcate', 'strain'"),
        ([], "config error at <root>: expected an object"),
    ], ids=["absent", "verify", "not_an_object"])
    def test_run_dir_of_no_command(self, tmp_path, capsys, stored, message):
        """A stored config must name the command that wrote the directory."""
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "resolved_config.json").write_text(json.dumps(stored))
        assert self._run_dir_config_error(run_dir, tmp_path, capsys) == message

    def test_out_not_creatable(self, tmp_path, capsys):
        """An --out below a file is a config error at --out, before any
        check runs."""
        blocker = tmp_path / "file"
        blocker.write_text("")
        rc = main(["verify", "--suite", "quadratic", "--out", str(blocker / "sub")])
        lines = capsys.readouterr().err.splitlines()
        assert rc == 2 and len(lines) == 1, lines
        assert lines[0].startswith(f"config error at --out: cannot create {blocker / 'sub'}: ")


# A GELU MLP whose first steps (|d| up to 69) have profiles no fixed Gauss
# order up to 64 integrates to 1e-9; 34 of its 300 steps need bisection.
_REPRO = {
    "model": {"kind": "mlp", "widths": [3, 2, 7, 3], "activation": "gelu",
              "dataset": {"seed": 628, "n": 36, "d_in": 3, "d_out": 3,
                          "noise": 0.1}},
    "init": {"mode": "gaussian", "seed": 268},
    "eta": 1.6168833663738404, "steps": 300,
}


@pytest.fixture(scope="module")
def repro_run(tmp_path_factory):
    """The repro run directory and the node count of each curvature-table
    row, at the default interval budget."""
    tmp = tmp_path_factory.mktemp("repro")
    out = tmp / "run"
    assert main(["run", "--config", _write_config(
        tmp / "c.json", dict(_REPRO, out_dir=str(out)))]) == 0
    ds = make_synthetic_dataset(628, 36, 3, 3, noise=0.1)
    model = make_mlp([3, 2, 7, 3], "gelu", ds)
    log = run_gd(model, model.init_params(268), _REPRO["eta"], _REPRO["steps"])
    return out, em.curvature_table(model, log)


class TestUnsettledQuadrature:
    def test_repro_settles_and_balances(self, repro_run, tmp_path):
        """Every step settles within the interval budget, the telescoping
        balance holds at 1e-5 of the loss drop, and run-directory replay
        passes."""
        out, table = repro_run
        rep = json.loads((out / "balance_report.json").read_text())
        assert rep["unsettled_steps"] == [] and table.unsettled == []
        assert json.loads((out / "summary.json").read_text())["num_unsettled_steps"] == 0
        assert rep["identity_residual"] <= 1e-5 * max(1.0, abs(2.0 * rep["loss_drop"]))
        assert np.any(table.nodes > 9)
        assert main(["verify", "--run-dir", str(out), "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "verify_report.json").read_text())
        [tele] = [c for c in report["checks"] if c["name"] == "telescoping_balance"]
        assert tele["details"]["unsettled_steps"] == []
        assert tele["details"]["residual"] == rep["identity_residual"]

    def test_timings_file(self, repro_run, tmp_path):
        """``run`` writes the wall seconds of its phases, the curvature
        table's node total and process count (one per CPU, at most one
        per chunk of its 300 steps), the unsettled count and the
        localization's work (none here) to timings.json, which
        ``verify --run-dir`` does not read."""
        out, table = repro_run
        timings = json.loads((out / "timings.json").read_text())
        assert sorted(timings) == ["curvature_table_nodes", "curvature_table_workers",
                                   "lanczos_products", "localization_profile_nodes",
                                   "unsettled_steps", "wall_s"]
        assert timings["curvature_table_workers"] == min(
            _procmap.cpu_count(), -(-300 // em._CHUNK_STEPS))
        assert timings["lanczos_products"] == timings["localization_profile_nodes"] == 0
        assert sorted(timings["wall_s"]) == ["curvature_table", "reports", "runner"]
        assert all(isinstance(v, float) and v > 0 for v in timings["wall_s"].values())
        assert timings["curvature_table_nodes"] == int(table.nodes.sum()) > 9 * len(table.k)
        assert timings["unsettled_steps"] == 0
        run_dir = tmp_path / "run"
        shutil.copytree(out, run_dir)
        (run_dir / "timings.json").write_text("not JSON")
        assert main(["verify", "--run-dir", str(run_dir), "--out", str(tmp_path)]) == 0

    def test_budget_exhausted_steps_named(self, repro_run, tmp_path, capsys,
                                          monkeypatch):
        """With a budget of one interval, exactly the steps that bisect at
        the default budget are unsettled: ``run`` writes every file, names
        them in one stderr line and exits 1, and replay names them too."""
        bisected = [int(k) for k, n in zip(repro_run[1].k, repro_run[1].nodes) if n > 9]
        monkeypatch.setattr(em, "QUADRATURE_MAX_INTERVALS", 1)
        out = tmp_path / "run"
        rc = main(["run", "--config", _write_config(
            tmp_path / "c.json", dict(_REPRO, out_dir=str(out)))])
        assert rc == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"unsettled curvature quadrature at steps "
                         f"{', '.join(map(str, bisected))}: not within 1e-09 "
                         f"after 1 intervals"]
        assert sorted(p.name for p in out.iterdir()) == [
            "balance_report.json", "metrics.csv", "resolved_config.json",
            "summary.json", "timings.json", "trajectory.csv"]
        assert json.loads((out / "balance_report.json").read_text())[
            "unsettled_steps"] == bisected
        timings = json.loads((out / "timings.json").read_text())
        assert timings["unsettled_steps"] == len(bisected)
        assert timings["curvature_table_nodes"] == 9 * len(repro_run[1].k)
        assert json.loads((out / "summary.json").read_text())[
            "num_unsettled_steps"] == len(bisected)
        assert main(["verify", "--run-dir", str(out), "--out", str(tmp_path)]) == 1
        report = json.loads((tmp_path / "verify_report.json").read_text())
        [tele] = [c for c in report["checks"] if c["name"] == "telescoping_balance"]
        assert tele["details"]["unsettled_steps"] == bisected

    def test_balance_names_unsettled_steps(self, tmp_path, capsys, monkeypatch):
        """``balance`` lists the unsettled steps of each step size in
        balance_summary.json and names them, per step size, in one line."""
        monkeypatch.setattr(em, "QUADRATURE_MAX_INTERVALS", 1)
        out = tmp_path / "out"
        cfg = {key: _REPRO[key] for key in ("model", "init")}
        cfg.update(etas=[_REPRO["eta"], 0.1], steps=10, out_dir=str(out))
        rc = main(["balance", "--config", _write_config(tmp_path / "c.json", cfg)])
        assert rc == 1
        runs = json.loads((out / "balance_summary.json").read_text())["runs"]
        assert runs[0]["unsettled_steps"] == list(range(9))
        assert runs[1]["unsettled_steps"] == [0]
        assert capsys.readouterr().err.splitlines() == [
            "unsettled curvature quadrature at steps 0, 1, 2, 3, 4, 5, 6, 7, 8 "
            "of etas[0]; 0 of etas[1]: not within 1e-09 after 1 intervals"]


def test_telescoping_tolerance():
    """One tolerance for the telescoping residual, in the suite and in
    run-directory replay: relative to the loss drop on an MLP, to the
    initial loss otherwise."""
    assert telescoping_tolerance(np.array([3.0, 1.0]), is_mlp=True) == 4e-5
    assert telescoping_tolerance(np.array([0.3, 0.2]), is_mlp=True) == 1e-5
    assert telescoping_tolerance(np.array([-5.0, 1.0]), is_mlp=False) == 5e-8
    assert telescoping_tolerance(np.array([0.5, 0.1]), is_mlp=False) == 1e-8


class TestInitModes:
    def test_minimizer_offset(self, tmp_path):
        out = tmp_path / "out"
        cfg = {
            "model": {"kind": "two_layer_linear", "hidden": 2,
                      "target": [[2.0, 0.0], [0.0, 1.0]]},
            "init": {"mode": "minimizer_offset", "scale": 0.01},
            "eta": 0.55, "steps": 50,
            "out_dir": str(out),
        }
        assert main(["run", "--config", _write_config(tmp_path / "c.json", cfg)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["final_loss"] < 1.0

    def test_wrong_dimension_vector(self, tmp_path, capsys):
        cfg = _quad_run_config(tmp_path / "out")
        cfg["init"]["values"] = [1.0, 2.0]
        rc = main(["run", "--config", _write_config(tmp_path / "c.json", cfg)])
        assert rc == 2


_MLP_DATASET = {"seed": 0, "n": 10, "d_in": 4, "d_out": 2}


class TestFailureContract:
    """Bad configs end in one config-error line and exit 2, never a traceback."""

    @pytest.mark.parametrize("command, cfg", [
        ("bifurcate", {"model": {"kind": "scalar_poly", "lam": -1},
                       "etas": [2.1]}),
        ("bifurcate", {"model": {"kind": "scalar_poly", "lam": 1, "gamma": 0,
                                 "beta": 0}, "etas": [2.1, 2.2]}),
        ("run", {"model": {"kind": "mlp", "widths": [3, 4, 2],
                           "dataset": _MLP_DATASET},
                 "init": {"mode": "gaussian"}, "eta": 0.1, "steps": 3}),
        ("run", {"model": {"kind": "mlp", "widths": [4, 4, 2],
                           "activation": "relu", "dataset": _MLP_DATASET},
                 "init": {"mode": "gaussian"}, "eta": 0.1, "steps": 3}),
        ("run", {"model": {"kind": "quadratic", "diag": [1.0]},
                 "init": {"mode": "vector", "values": [1.0]},
                 "eta": "abc", "steps": 3}),
    ], ids=["no_positive_curvature", "degenerate_branch", "widths_mismatch",
            "unknown_activation", "non_numeric_eta"])
    def test_config_error_exit(self, tmp_path, command, cfg):
        path = _write_config(tmp_path / "c.json", cfg)
        src = str(Path(edge_lab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "edge_lab.cli", command, "--config", path,
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error"), lines

    # A base's first word is its command.
    _BASES = {
        "run": {"model": {"kind": "quadratic", "diag": [3.0]},
                "init": {"mode": "vector", "values": [1.0]},
                "eta": 0.5, "steps": 5},
        "balance": {"model": {"kind": "quadratic", "diag": [3.0]},
                    "init": {"mode": "vector", "values": [1.0]},
                    "etas": [0.5], "steps": 5},
        "strain": {"model": {"kind": "quadratic", "diag": [3.0, 1.0]},
                   "second_model": {"kind": "quadratic", "diag": [3.0, 1.0],
                                    "center": [0.1, 0.0]},
                   "init": {"mode": "vector", "values": [1.0, 1.0]},
                   "eta": 0.5, "steps": 5},
        "bifurcate": {"model": {"kind": "scalar_poly", "lam": 1.0, "beta": -1.0},
                      "etas": [2.1], "modes": ["empirical"], "run_steps": 50},
        "bifurcate linear": {
            "model": {"kind": "two_layer_linear", "hidden": 2, "rank": 1,
                      "dataset": {"seed": 0, "n": 10, "d_in": 2, "d_out": 2,
                                  "teacher_rank": 1}},
            "etas": [0.6], "modes": ["empirical"], "run_steps": 50},
    }

    @pytest.mark.parametrize("base, key, value", [
        ("strain", "quadrature_order", 0),
        ("strain", "quadrature_order", -3),
        ("strain", "quadrature_order", 2.5),
        ("strain", "quadrature_order", "4"),
        ("strain", "adaptive", True),
        ("strain", "adaptive", False),
        ("run", "deltas", "abc"),
        ("run", "deltas", []),
        ("run", "deltas", [0.1, -1.0]),
        ("run", "deltas", [0.1, "x"]),
        ("run", "deltas", [True]),
        ("balance", "deltas", [0.1]),
        ("run", "include_w", "no"),
        ("run", "include_w", 1),
        ("run", "include_w", True),
        ("run", "localize", "yes"),
        ("run", "localize", None),
        ("run", "steps", 2.5),
        ("run", "steps", True),
        ("run", "thin_stride", 0),
        ("run", "thin_stride", 2.7),
        ("run", "eta", "0.5"),
        ("run", "eta", float("nan")),
        ("run", "eta", 10 ** 400),
        ("run", "out_dir", 5),
        ("run", "out_dir", None),
        ("run", "model.diag", [3.0, float("inf")]),
        ("run", "init.values", ["1"]),
        ("run", "route", "quadrature"),
        ("balance", "route", "quadrature"),
        ("balance", "steps", 0),
        ("bifurcate", "model.lam", "3"),
        ("bifurcate", "etas", [float("nan")]),
        ("bifurcate", "etas", [0]),
        ("bifurcate", "etas", [-2.1]),
        ("bifurcate", "etas", 0.5),
        ("bifurcate", "discard_frac", 1.5),
        ("bifurcate", "run_steps", 0),
        ("bifurcate", "run_offset", "x"),
        ("bifurcate", "modes", ["empirical", "other"]),
        ("bifurcate", "modes", ["empirical", "continuation", "empirical"]),
        ("bifurcate linear", "model.hidden", 2.5),
        ("bifurcate linear", "model.rank", 0),
        ("bifurcate linear", "model.dataset.teacher_rank", 1.5),
        ("bifurcate linear", "model.dataset.teacher_spectrum", [1.0, -1.0]),
        ("bifurcate linear", "model.dataset.noise", -0.1),
        ("balance", "deltas", None),
    ], ids=lambda v: "10**400" if v == 10 ** 400 else None)
    def test_bad_value_rejected_before_running(self, tmp_path, capsys,
                                               base, key, value):
        """Each bad value is one config-error line naming its key path,
        exit 2, and nothing is written."""
        out = tmp_path / "out"
        cfg = _with(dict(self._BASES[base], out_dir=str(out)), key, value)
        command = base.split()[0]
        rc = main([command, "--config", _write_config(tmp_path / "c.json", cfg)])
        assert rc == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"config error at {key}:"), lines
        assert not any(out.glob("*"))

    @pytest.mark.parametrize("base, key", [
        ("run", "steps"), ("balance", "steps"), ("strain", "steps"),
        ("bifurcate", "run_steps"), ("bifurcate linear", "run_steps")])
    def test_count_too_large_to_allocate(self, tmp_path, capsys, base, key):
        """A step count whose logs cannot be allocated is one config-error
        line at its key and exit 2. numpy refuses the allocation before
        touching memory; the run has written only its resolved config. The
        empirical sweep's (run_steps + 1, len(etas)) projections are such a
        log."""
        out = tmp_path / "out"
        cfg = _with(dict(self._BASES[base], out_dir=str(out)), key, 10 ** 15)
        if base == "bifurcate linear":
            cfg["etas"] = [0.55, 0.6, 0.65]
        rc = main([base.split()[0], "--config",
                   _write_config(tmp_path / "c.json", cfg)])
        assert rc == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"config error at {key}:"), lines
        assert [p.name for p in out.iterdir()] == ["resolved_config.json"]

    @pytest.mark.parametrize("base", ["run mlp", "bifurcate linear"])
    def test_dataset_too_large_to_allocate(self, tmp_path, capsys, base):
        """A dataset whose arrays cannot be allocated is one config-error
        line at its ``n`` and exit 2; numpy refuses before touching memory,
        and nothing is written."""
        bases = dict(self._BASES, **{"run mlp": dict(
            self._BASES["run"], model={"kind": "mlp", "widths": [4, 3, 2],
                                       "dataset": _MLP_DATASET},
            init={"mode": "gaussian"})})
        out = tmp_path / "out"
        cfg = _with(dict(bases[base], out_dir=str(out)), "model.dataset.n", 10 ** 15)
        rc = main([base.split()[0], "--config", _write_config(tmp_path / "c.json", cfg)])
        assert rc == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(
            "config error at model.dataset.n: too large"), lines
        assert not any(out.glob("*"))

    @pytest.mark.parametrize("command, cfg, key", [
        ("run", {"model": {"kind": "mlp", "widths": [10, 10 ** 11, 5],
                           "dataset": {"seed": 0, "n": 10, "d_in": 10, "d_out": 5}},
                 "init": {"mode": "gaussian"}, "eta": 0.1, "steps": 3},
         "model.widths"),
        ("run", {"model": {"kind": "two_layer_linear", "hidden": 10 ** 11,
                           "target": [[2.0, 0.0], [0.0, 1.0]]},
                 "init": {"mode": "gaussian"}, "eta": 0.1, "steps": 3},
         "model.hidden"),
        ("bifurcate", {"model": {"kind": "two_layer_linear", "hidden": 10 ** 11,
                                 "target": [[2.0, 0.0], [0.0, 1.0]]},
                       "etas": [0.6], "modes": ["empirical"]},
         "model.hidden"),
        ("strain", dict(_BASES["strain"], quadrature_order=10 ** 6),
         "quadrature_order"),
    ], ids=["mlp_init", "linear_init", "linear_geometry", "strain_rule"])
    def test_model_too_large_to_allocate(self, tmp_path, capsys, command, cfg, key):
        """A model whose parameter vector or geometry cannot be allocated,
        or a strain start order whose Gauss rule cannot be built (a 7.28 TiB
        companion matrix), is one config-error line at the key that sizes
        it and exit 2; numpy refuses before touching memory, and nothing is
        written."""
        out = tmp_path / "out"
        rc = main([command, "--config",
                   _write_config(tmp_path / "c.json", dict(cfg, out_dir=str(out)))])
        assert rc == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(
            f"config error at {key}: too large"), lines
        assert not any(out.glob("*"))

    _LOCALIZED_MLP = {
        "model": {"kind": "mlp", "widths": [3, 16, 2], "activation": "tanh",
                  "dataset": {"seed": 0, "n": 12, "d_in": 3, "d_out": 2}},
        "init": {"mode": "gaussian", "seed": 1}, "eta": 0.5, "steps": 3,
        "localize": True}

    def _localized_run_fails(self, tmp_path, capsys) -> str:
        """Run the localized MLP in-process: exit 1 and one stderr line."""
        cfg = dict(self._LOCALIZED_MLP, out_dir=str(tmp_path / "out"))
        rc = main(["run", "--config", _write_config(tmp_path / "c.json", cfg)])
        err = capsys.readouterr().err
        assert rc == 1 and "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1, lines
        return lines[0]

    def test_non_finite_profile_in_a_worker(self, tmp_path, capsys, monkeypatch):
        """A NaN profile at step 70, in the second chunk of the curvature
        table, which a forked process computes: exit 1, one stderr line
        naming the step, and no process left behind."""
        model = cli._build_model(cli._resolve_run(_SMALL_MLP_RUN)["model"])
        bad = run_gd(model, model.init_params(seed=1), 0.5, 150).w(70).tobytes()
        profile = loss_models.MlpModel.segment_profile

        def failing(self, w, d):
            if w.tobytes() == bad:
                return lambda taus: np.full(len(taus), np.nan)
            return profile(self, w, d)
        monkeypatch.setattr(loss_models.MlpModel, "segment_profile", failing)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        cfg = dict(_SMALL_MLP_RUN, out_dir=str(tmp_path / "out"))
        rc = main(["run", "--config", _write_config(tmp_path / "c.json", cfg)])
        lines = capsys.readouterr().err.splitlines()
        assert rc == 1 and len(lines) == 1, lines
        assert lines[0].startswith("curvature table, step 70: non-finite profile "
                                   "value nan at tau "), lines
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_localization_without_crossing(self, tmp_path, capsys, monkeypatch):
        """Profile values above every target at the final nodes of each
        step's quadrature (the curvatures are integrated before the values
        are shifted)."""
        averages = em._segment_averages

        def above(model, w, d):
            *head, taus, _ = averages(model, w, d)
            return (*head, taus, 1e6 + taus)
        monkeypatch.setattr(em, "_segment_averages", above)
        line = self._localized_run_fails(tmp_path, capsys)
        assert line.startswith("no interior point found for step 0"), line

    @pytest.mark.parametrize("budget, value, message", [
        ("LANCZOS_MAX_VECTORS", 3, "within 3 Lanczos vectors"),
        ("BRENT_MAX_ITER", 1, "after 1 iterations")])
    def test_localization_nonconvergence(self, tmp_path, capsys, monkeypatch,
                                         budget, value, message):
        monkeypatch.setattr(numerics, budget, value)
        line = self._localized_run_fails(tmp_path, capsys)
        assert line.startswith("localization of step 0: ") and message in line, line

    @pytest.mark.parametrize("error, force, message", [
        # Brent sees a non-finite profile value.
        ("EvaluationError", lambda f, lo, hi, tol: (lambda t: float("nan"), lo, hi, tol),
         "non-finite function value nan in brent_root"),
        # Brent is handed its bracket reversed.
        ("BracketError", lambda f, lo, hi, tol: (f, hi, lo, tol), "empty bracket")],
        ids=["EvaluationError", "BracketError"])
    def test_localization_brent_errors(self, tmp_path, capsys, monkeypatch,
                                       error, force, message):
        brent = em.brent_root
        raised = []

        def forced(f, lo, hi, tol=1e-12):
            try:
                return brent(*force(f, lo, hi, tol))
            except ValueError as exc:    # both errors are ValueErrors
                raised.append(type(exc).__name__)
                raise

        monkeypatch.setattr(em, "brent_root", forced)
        line = self._localized_run_fails(tmp_path, capsys)
        assert raised == [error] * 3    # once in each of the 3 steps
        assert line.startswith("localization of step 0: ") and message in line, line

    def test_singular_jacobian(self, tmp_path, capsys, monkeypatch):
        """A restricted Hessian taken for singular stops ``bifurcate`` with
        one stderr line and exit 1."""
        monkeypatch.setattr(bifurcation, "KERNEL_THRESHOLD", 2.0)
        cfg = {"model": {"kind": "scalar_poly", "lam": 1.0, "beta": -1.0},
               "etas": [2.01, 2.02], "modes": ["continuation"],
               "out_dir": str(tmp_path / "out")}
        rc = main(["bifurcate", "--config", _write_config(tmp_path / "c.json", cfg)])
        err = capsys.readouterr().err
        assert rc == 1 and "Traceback" not in err
        assert err.splitlines() == ["restricted Hessian is singular; pass the "
                                    "normal-space basis of the minimum manifold "
                                    "as `subspace`"]

    def test_linear_net_above_dense_limit(self, tmp_path):
        """Continuation on a linear net above the dense-Hessian limit (dim
        600) runs on the normal slice and exits 0, no traceback."""
        cfg = {"model": {"kind": "two_layer_linear", "hidden": 20, "rank": 3,
                         "dataset": {"seed": 11, "n": 200, "d_in": 20, "d_out": 10,
                                     "teacher_spectrum": [2.0, 1.0, 0.5]}},
               "etas": [0.502, 0.51], "modes": ["continuation"]}
        assert numerics.DENSE_DIM_LIMIT < 20 * (20 + 10)
        out = tmp_path / "out"
        src = str(Path(edge_lab.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "edge_lab.cli", "bifurcate", "--config",
             _write_config(tmp_path / "c.json", cfg), "--out", str(out)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
            timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert summary["eta_c"] == pytest.approx(0.5, abs=1e-10)
        assert summary["quartic_u"] == pytest.approx(-4.0, abs=1e-4)
        assert _csv_rows(out / "branch.csv")[0][0] == "0.502"

    def test_bad_second_model_reported_at_second_model(self, tmp_path, capsys):
        """A second model its constructor rejects is a config error at
        ``second_model``, not at ``model``."""
        out = tmp_path / "out"
        cfg = dict(self._BASES["strain"], out_dir=str(out),
                   second_model={"kind": "quadratic",
                                 "matrix": [[3.0, 1.0], [0.0, 1.0]]})
        rc = main(["strain", "--config", _write_config(tmp_path / "c.json", cfg)])
        assert rc == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(
            "config error at second_model:"), lines
        assert not any(out.glob("*"))

    @pytest.mark.parametrize("base, key, value", [
        ("strain", "quadrature_order", 1),
        ("run", "deltas", [1, 0.5]),
        ("run", "deltas", None),
        ("run", "localize", False),
        ("bifurcate", "discard_frac", 0),
        ("bifurcate", "etas", [2, 2.2]),
        ("bifurcate linear", "model.rank", None),
        ("bifurcate linear", "model.dataset.teacher_spectrum", [1.0]),
    ])
    def test_good_value_accepted(self, tmp_path, base, key, value):
        cfg = _with(dict(self._BASES[base], out_dir=str(tmp_path / "out")),
                    key, value)
        command = base.split()[0]
        assert main([command, "--config", _write_config(tmp_path / "c.json", cfg)]) == 0

    _STRAIN_PAIR = {"model": {"kind": "mlp", "widths": [4, 3, 2],
                              "dataset": _MLP_DATASET},
                    "init": {"mode": "gaussian", "seed": 1},
                    "eta": 0.1, "steps": 3}

    def _strain_pair(self, tmp_path, key, value):
        """The dataset-backed strain base with one value set; the pairing
        key defaults to leave_one_out 0."""
        cfg = dict(self._STRAIN_PAIR, out_dir=str(tmp_path / "out"))
        if key != "second_dataset_seed":
            cfg["leave_one_out"] = 0
        return _write_config(tmp_path / "c.json", _with(cfg, key, value))

    @pytest.mark.parametrize("key, value", [
        ("leave_one_out", "abc"),
        ("leave_one_out", None),
        ("leave_one_out", 1.5),
        ("leave_one_out", True),
        ("leave_one_out", -1),
        ("leave_one_out", 10),
        ("second_dataset_seed", "abc"),
        ("second_dataset_seed", None),
        ("second_dataset_seed", 1.5),
        ("second_dataset_seed", True),
        ("eta", 0),
        ("eta", -0.1),
        ("eta", "abc"),
        ("eta", float("nan")),
        ("steps", 0),
        ("steps", 2.5),
        ("steps", True),
        ("model.widths", [4.9, 3, 2]),
        ("model.dataset.n", 10.5),
        ("model.dataset.seed", -1),
        ("model.activation", None),
        ("init.seed", True),
        ("init.scale", float("nan")),
    ])
    def test_bad_strain_value_rejected_before_running(self, tmp_path, capsys,
                                                      key, value):
        rc = main(["strain", "--config", self._strain_pair(tmp_path, key, value)])
        assert rc == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"config error at {key}:"), lines
        assert not any((tmp_path / "out").glob("*"))

    @pytest.mark.parametrize("key, value", [
        ("leave_one_out", 9),
        ("second_dataset_seed", 5),
        ("eta", 1),
        ("steps", 1),
    ])
    def test_good_strain_value_accepted(self, tmp_path, key, value):
        assert main(["strain", "--config", self._strain_pair(tmp_path, key, value)]) == 0

    def test_leave_one_out_of_one_row(self, tmp_path, capsys):
        """Leaving out the only row of a one-row dataset leaves no data: a
        config error at leave_one_out, not a traceback."""
        cfg = _with(json.loads(Path(self._strain_pair(tmp_path, "leave_one_out", 0))
                               .read_text()), "model.dataset.n", 1)
        rc = main(["strain", "--config", _write_config(tmp_path / "c.json", cfg)])
        assert rc == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error at leave_one_out:"), lines
        assert not any((tmp_path / "out").glob("*"))


# Values that a lax reader lets through: booleans for numbers, numbers
# beyond the float range, non-finite floats, wrong shapes.
_HOSTILE = [None, True, False, 0, -1, 2.5, 10 ** 400, -10 ** 400, float("nan"),
            float("inf"), "", "1", [], [float("nan")], [[float("inf")]],
            [10 ** 400], [True], {}, {"kind": "mlp"}]
_JSON_VALUES = st.one_of(st.sampled_from(_HOSTILE), st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["kind", "mode", "seed", "n", "x"]), inner,
                      max_size=3),
    max_leaves=6))

# Bases reaching every reader: each command, each model kind and init mode.
_PROPERTY_BASES = [
    ("run", {"model": {"kind": "mlp", "widths": [4, 3, 2], "activation": "gelu",
                       "dataset": {"seed": 0, "n": 10, "d_in": 4, "d_out": 2,
                                   "teacher_rank": 1, "noise": 0.1}},
             "init": {"mode": "gaussian", "seed": 1, "scale": 0.5},
             "eta": 0.5, "steps": 5, "localize": True,
             "deltas": [0.1], "out_dir": "out"}),
    ("balance", {"model": {"kind": "quadratic", "matrix": [[3.0, 0.0], [0.0, 1.0]],
                           "center": [0.1, 0.0]},
                 "init": {"mode": "vector", "values": [1.0, 1.0]},
                 "etas": [0.5], "steps": 5, "out_dir": "out"}),
    ("bifurcate", {"model": {"kind": "two_layer_linear", "hidden": 3, "rank": 2,
                             "dataset": {"seed": 0, "n": 10, "d_in": 3, "d_out": 2,
                                         "teacher_spectrum": [2.0, 1.0]}},
                   "etas": [0.6], "modes": ["empirical"], "run_steps": 50,
                   "run_offset": 1e-3, "discard_frac": 0.5, "out_dir": "out"}),
    ("bifurcate", {"model": {"kind": "scalar_poly", "lam": 1.0, "gamma": 0.5,
                             "beta": -1.0}, "etas": [2.1]}),
    ("strain", {"model": {"kind": "two_layer_linear", "hidden": 2,
                          "target": [[2.0, 0.0], [0.0, 1.0]]},
                "init": {"mode": "minimizer_offset", "scale": 0.01},
                "second_model": {"kind": "quadratic", "diag": [1.0] * 8,
                                 "center": 0.5},
                "eta": 0.5, "steps": 5, "quadrature_order": 4, "out_dir": "out"}),
    ("strain", {"model": {"kind": "mlp", "widths": [4, 3, 2],
                          "dataset": _MLP_DATASET},
                "init": {"mode": "gaussian"}, "eta": 0.1, "steps": 3,
                "leave_one_out": 9}),
    ("strain", {"model": {"kind": "mlp", "widths": [4, 3, 2],
                          "dataset": _MLP_DATASET},
                "init": {"mode": "gaussian"}, "eta": 0.1, "steps": 3,
                "second_dataset_seed": 1}),
]


def _key_paths(obj, prefix=""):
    """Dotted paths of every key at any depth of nested objects."""
    for key, value in obj.items():
        path = f"{prefix}{key}"
        yield path
        if isinstance(value, dict):
            yield from _key_paths(value, f"{path}.")


@pytest.mark.parametrize("command, base", _PROPERTY_BASES)
def test_property_bases_resolve(command, base):
    json.dumps(_RESOLVERS[command](copy.deepcopy(base)), allow_nan=False)


def _resolves_or_is_config_error(command, cfg):
    try:
        resolved = _RESOLVERS[command](cfg)
    except ConfigError:
        return
    json.dumps(resolved, allow_nan=False)


@pytest.mark.parametrize("command, base", _PROPERTY_BASES)
def test_every_key_takes_every_hostile_value(command, base):
    for key in _key_paths(base):
        for value in _HOSTILE:
            _resolves_or_is_config_error(command, _with(base, key, value))


@pytest.mark.parametrize("command", sorted(_RESOLVERS))
def test_root_not_an_object(command):
    for value in _HOSTILE:
        if not isinstance(value, dict):
            with pytest.raises(ConfigError, match="config error at <root>:"):
                _RESOLVERS[command](value)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=st.data())
def test_any_value_resolves_or_is_config_error(data):
    """Any JSON value at any key of a valid config either resolves to a
    config that is strict JSON again, or raises ConfigError; nothing else."""
    command, base = data.draw(st.sampled_from(_PROPERTY_BASES))
    key = data.draw(st.sampled_from(sorted(_key_paths(base))))
    _resolves_or_is_config_error(command, _with(base, key, data.draw(_JSON_VALUES)))



class TestImportPath:
    """scipy is imported only by GELU's erf: not by the CLI, and not by
    a localized ``run``, whose Brent roots and Lanczos sharpness are
    numpy-only; a ``run`` or ``strain`` imports neither ``fractions`` nor
    ``decimal``."""

    _SCRIPT = """
import json, sys
def watched_modules():
    return [m for m in sys.modules if m.split('.')[0] in ('scipy', 'fractions', 'decimal')]
import edge_lab.cli
from edge_lab.cli import main
seen = {"import": watched_modules()}
for name in ("run", "strain", "run_localized"):
    rc = main([name.split("_")[0], "--config", sys.argv[1] + "/" + name + ".json"])
    seen[name] = watched_modules() if rc == 0 else f"exit {rc}"
print(json.dumps(seen))
"""

    def test_no_scipy_on_tanh_paths(self, tmp_path):
        """The localized run's MLP has 98 parameters, above the dense
        limit of ``localized_sharpness``, so it takes the Lanczos route."""
        mlp = {"kind": "mlp", "widths": [3, 4, 2], "activation": "tanh",
               "dataset": {"seed": 0, "n": 12, "d_in": 3, "d_out": 2}}
        run = {"model": mlp, "init": {"mode": "gaussian", "seed": 1},
               "eta": 0.5, "steps": 20, "localize": False}
        configs = {
            "run": dict(run, out_dir=str(tmp_path / "run")),
            "strain": {"model": mlp, "init": {"mode": "gaussian", "seed": 1},
                       "eta": 0.5, "steps": 5, "leave_one_out": 0,
                       "out_dir": str(tmp_path / "strain")},
            "run_localized": dict(run, localize=True,
                                  model=dict(mlp, widths=[3, 16, 2]),
                                  out_dir=str(tmp_path / "localized")),
        }
        for name, cfg in configs.items():
            _write_config(tmp_path / f"{name}.json", cfg)
        src = str(Path(edge_lab.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", self._SCRIPT, str(tmp_path)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
            timeout=120)
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stdout.splitlines()[-1])
        assert seen["import"] == [] and seen["run"] == [] and seen["strain"] == [], seen
        assert seen["run_localized"] == [], seen
