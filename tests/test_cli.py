"""Config validation, output determinism, and the verify integrity checks."""

import collections
import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import edge_lab
from edge_lab import _procmap, bifurcation, cli, edge_metrics as em, loss_models, numerics
from edge_lab.cli import _RESOLVERS, ConfigError, _mismatches, main
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


def _quad_run_config(out_dir, eta=0.5, steps=40):
    return {
        "model": {"kind": "quadratic", "diag": [3.0]},
        "init": {"mode": "vector", "values": [1.0]},
        "eta": eta,
        "steps": steps,
        "localize": True,
        "include_w": True,
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
        assert sorted(resolved) == ["command", "deltas", "eta", "include_w", "init",
                                    "localize", "model", "out_dir", "steps"]


# A localized tanh MLP (dim 26) whose 150 steps make three chunks of the
# curvature table.
_SMALL_MLP_RUN = {
    "model": {"kind": "mlp", "widths": [3, 4, 2], "activation": "tanh",
              "dataset": {"seed": 0, "n": 12, "d_in": 3, "d_out": 2}},
    "init": {"mode": "gaussian", "seed": 1}, "eta": 0.5, "steps": 150,
    "localize": True, "include_w": True}


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
        for r in rows:
            exact = em.step_mean_curvature_exact(log, int(r[0]))
            assert abs(float(r[2]) - exact) <= 1e-9 * abs(exact)

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
        sharpness estimates (dim 98 > 64), as ``write_metrics_csv`` tallies
        them."""
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
        work = collections.Counter()
        em.write_metrics_csv(model, log, em.curvature_table(model, log),
                             tmp_path / "m.csv", work=work)
        assert (tmp_path / "m.csv").read_bytes() == (out / "metrics.csv").read_bytes()
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
            "eta": 1.0, "steps": 100, "include_w": True,
            "out_dir": str(out),
        }
        rc = main(["run", "--config", _write_config(tmp_path / "c.json", cfg)])
        assert rc == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["diverged"] is True


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
        assert summary["empirical_branch_lost"] is False
        want = bifurcation.fit_scaling_exponent(etas[:3], [float(a) for a in amps[:3]], 2.0)
        assert summary["exponents"]["empirical"] == want
        assert want == pytest.approx(0.5, abs=0.05)


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
            "adaptive": True,
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
        # 15 steps make 4 chunks; adaptive from order 8 takes order 16 too.
        assert timings["strain_workers"] == min(_procmap.cpu_count(), 4)
        assert timings["strain_dense_hessians"] >= 15 * (8 + 16)

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


class TestVerifyCommand:
    def test_quadratic_suite_passes(self, tmp_path):
        assert main(["verify", "--suite", "quadratic", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["passed"] is True
        assert {c["name"] for c in report["checks"]} == \
            {"quadratic_exactness", "mechanisms", "stochastic_balance"}

    def test_run_dir_integrity_pass(self, tmp_path):
        """Replay reproduces the run's telescoping residual bit for bit."""
        out = tmp_path / "run"
        cfg = _quad_run_config(out)
        assert main(["run", "--config", _write_config(tmp_path / "c.json", cfg)]) == 0
        assert main(["verify", "--run-dir", str(out), "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "verify_report.json").read_text())
        [replay] = [c for c in report["checks"] if c["name"] == "identity_residual_replay"]
        reported = json.loads((out / "balance_report.json").read_text())["identity_residual"]
        assert replay["details"] == {"replayed": reported, "reported": reported}

    @pytest.mark.parametrize("value", ["nextafter", "string", "absent"])
    def test_edited_identity_residual_detected(self, tmp_path, capsys, value):
        """An edit of balance_report.json's identity_residual, by one ulp,
        to another type or away, fails exactly the two replay checks that
        read it."""
        out = tmp_path / "run"
        main(["run", "--config", _write_config(tmp_path / "c.json", _quad_run_config(out))])
        path = out / "balance_report.json"
        rep = json.loads(path.read_text())
        if value == "nextafter":
            rep["identity_residual"] = float(np.nextafter(rep["identity_residual"], 1.0))
        elif value == "string":
            rep["identity_residual"] = str(rep["identity_residual"])
        else:
            del rep["identity_residual"]
        path.write_text(json.dumps(rep))
        assert main(["verify", "--run-dir", str(out), "--out", str(tmp_path)]) == 1
        assert "FAILED: identity_residual_replay, report_replay" in capsys.readouterr().err
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert [c["name"] for c in report["checks"] if not c["passed"]] == [
            "identity_residual_replay", "report_replay"]
        [replay] = [c for c in report["checks"] if c["name"] == "report_replay"]
        assert replay["details"]["mismatched_fields"] == [
            "balance_report.json.identity_residual"]

    @pytest.mark.parametrize("column", ["rtilde", "rtilde_exact"])
    def test_edited_metrics_cell_detected(self, tmp_path, capsys, column):
        """A cell of metrics.csv moved by one ulp fails exactly
        metrics_replay, which names its line and column."""
        out = tmp_path / "run"
        main(["run", "--config", _write_config(tmp_path / "c.json", _quad_run_config(out))])
        path = out / "metrics.csv"
        lines = path.read_bytes().decode().split("\r\n")
        cells = lines[5].split(",")
        col = lines[0].split(",").index(column)
        cells[col] = f"{np.nextafter(float(cells[col]), 4.0):.17g}"
        lines[5] = ",".join(cells)
        path.write_bytes("\r\n".join(lines).encode())
        capsys.readouterr()
        assert main(["verify", "--run-dir", str(out), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.splitlines() == ["FAILED: metrics_replay"]
        report = json.loads((tmp_path / "verify_report.json").read_text())
        [replay] = [c for c in report["checks"] if c["name"] == "metrics_replay"]
        assert replay["details"] == {"first_mismatch": {"line": 6, "column": column},
                                     "localized": True}

    def test_tampered_reports_detected(self, tmp_path, capsys):
        """weighted_mean set to 123 in balance_report.json and onset_step
        to 7777 in summary.json: the replayed reports differ in exactly
        those two fields, so report_replay fails and the command exits 1;
        the untouched files replay bit for bit."""
        out = tmp_path / "run"
        cfg = {"model": {"kind": "mlp", "widths": [3, 4, 2], "activation": "tanh",
                         "dataset": {"seed": 0, "n": 12, "d_in": 3, "d_out": 2}},
               "init": {"mode": "gaussian", "seed": 1}, "eta": 0.5, "steps": 60,
               "include_w": True, "deltas": [0.25, 1.0], "out_dir": str(out)}
        assert main(["run", "--config", _write_config(tmp_path / "c.json", cfg)]) == 0
        assert main(["verify", "--run-dir", str(out), "--out", str(tmp_path)]) == 0
        for name, key, value in (("balance_report.json", "weighted_mean", 123),
                                  ("summary.json", "onset_step", 7777)):
            path = out / name
            path.write_text(json.dumps(dict(json.loads(path.read_text()), **{key: value})))
        capsys.readouterr()
        assert main(["verify", "--run-dir", str(out), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.splitlines() == ["FAILED: report_replay"]
        report = json.loads((tmp_path / "verify_report.json").read_text())
        [replay] = [c for c in report["checks"] if c["name"] == "report_replay"]
        assert replay["details"]["mismatched_fields"] == [
            "balance_report.json.weighted_mean", "summary.json.onset_step"]

    def test_diverged_run_replays(self, tmp_path):
        """A run that diverged at step 5 keeps 4 steps; the replay takes
        the fifth again to find the divergence its summary.json states."""
        out = tmp_path / "run"
        cfg = {"model": {"kind": "scalar_poly", "lam": 5.0},
               "init": {"mode": "vector", "values": [1000.0]},
               "eta": 1.0, "steps": 100, "include_w": True, "out_dir": str(out)}
        assert main(["run", "--config", _write_config(tmp_path / "c.json", cfg)]) == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["divergence_step"] == 5 and summary["num_steps"] == 4
        assert main(["verify", "--run-dir", str(out), "--out", str(tmp_path)]) == 0

    def test_report_fields_compare_bit_for_bit(self):
        """NaN equals NaN; 0.0 and -0.0, 1 and 1.0, a missing key or a
        list of another length differ."""
        nan = float("nan")
        assert _mismatches({"a": nan, "b": [1, 2.5]}, {"a": nan, "b": [1, 2.5]}, "r") == []
        assert _mismatches({"a": 0.0, "b": 1, "c": [1], "d": 2},
                           {"a": -0.0, "b": 1.0, "c": [1, 2]}, "r") == [
            "r.a", "r.b", "r.c", "r.d"]

    def test_corrupted_loss_detected(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = _quad_run_config(out)
        main(["run", "--config", _write_config(tmp_path / "c.json", cfg)])
        traj = out / "trajectory.csv"
        raw = traj.read_bytes().decode()
        lines = raw.split("\r\n")
        parts = lines[3].split(",")
        parts[1] = f"{float(parts[1]) + 1e-3:.17g}"  # tamper with one loss
        lines[3] = ",".join(parts)
        traj.write_bytes("\r\n".join(lines).encode())
        rc = main(["verify", "--run-dir", str(out), "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "loss_replay" in err
        report = json.loads((tmp_path / "verify_report.json").read_text())
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        assert "loss_replay" in failed

    def test_corrupted_iterate_detected(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = _quad_run_config(out)
        main(["run", "--config", _write_config(tmp_path / "c.json", cfg)])
        traj = out / "trajectory.csv"
        lines = traj.read_bytes().decode().split("\r\n")
        parts = lines[5].split(",")
        parts[4] = f"{float(parts[4]) + 1e-4:.17g}"  # tamper with one iterate
        lines[5] = ",".join(parts)
        traj.write_bytes("\r\n".join(lines).encode())
        rc = main(["verify", "--run-dir", str(out), "--out", str(tmp_path)])
        assert rc == 1
        report = json.loads((tmp_path / "verify_report.json").read_text())
        failed = {c["name"] for c in report["checks"] if not c["passed"]}
        assert failed & {"loss_replay", "gradient_replay", "update_consistency"}

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
        run_dir = tmp_path / "run"
        main(["run", "--config", _write_config(tmp_path / "c.json",
                                               _quad_run_config(run_dir))])
        traj = run_dir / "trajectory.csv"
        lines = traj.read_bytes().decode().split("\r\n")
        lines[2] = lines[2].replace(lines[2].split(",")[1], "abc", 1)
        traj.write_bytes("\r\n".join(lines).encode())
        capsys.readouterr()
        line = self._run_dir_config_error(run_dir, tmp_path, capsys)
        assert line.startswith(f"config error at {traj} line 3:")

    def test_run_dir_without_balance_report(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        main(["run", "--config", _write_config(tmp_path / "c.json",
                                               _quad_run_config(run_dir))])
        (run_dir / "balance_report.json").unlink()
        capsys.readouterr()
        line = self._run_dir_config_error(run_dir, tmp_path, capsys)
        assert line.startswith(f"config error at {run_dir / 'balance_report.json'}:")

    def test_run_dir_without_metrics(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        main(["run", "--config", _write_config(tmp_path / "c.json",
                                               _quad_run_config(run_dir))])
        (run_dir / "metrics.csv").unlink()
        capsys.readouterr()
        line = self._run_dir_config_error(run_dir, tmp_path, capsys)
        assert line.startswith(f"config error at {run_dir / 'metrics.csv'}: cannot read")

    def test_run_dir_with_route(self, tmp_path, capsys):
        """A run directory whose resolved config still holds the removed
        ``route`` key no longer replays."""
        run_dir = tmp_path / "run"
        main(["run", "--config", _write_config(tmp_path / "c.json",
                                               _quad_run_config(run_dir))])
        path = run_dir / "resolved_config.json"
        path.write_text(json.dumps(dict(json.loads(path.read_text()), route="quadrature")))
        capsys.readouterr()
        line = self._run_dir_config_error(run_dir, tmp_path, capsys)
        assert line == "config error at route: unknown key"

    def test_run_dir_header_only_trajectory(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        main(["run", "--config", _write_config(tmp_path / "c.json",
                                               _quad_run_config(run_dir))])
        traj = run_dir / "trajectory.csv"
        traj.write_bytes(traj.read_bytes().split(b"\r\n")[0] + b"\r\n")
        capsys.readouterr()
        line = self._run_dir_config_error(run_dir, tmp_path, capsys)
        assert line == f"config error at {traj}: no rows"

    def test_run_dir_iterate_width_mismatch(self, tmp_path, capsys):
        """The model of the resolved config, edited to dimension 3, does
        not fit the logged one-dimensional iterates."""
        run_dir = tmp_path / "run"
        main(["run", "--config", _write_config(tmp_path / "c.json",
                                               _quad_run_config(run_dir))])
        path = run_dir / "resolved_config.json"
        path.write_text(json.dumps(_with(json.loads(path.read_text()),
                                         "model.diag", [3.0, 1.0, 1.0])))
        capsys.readouterr()
        line = self._run_dir_config_error(run_dir, tmp_path, capsys)
        assert line == (f"config error at {run_dir / 'trajectory.csv'}: "
                        "1 iterate columns, the model has dimension 3")

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
        assert len(report["checks"]) == 7 and report["passed"] is True

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
    "eta": 1.6168833663738404, "steps": 300, "include_w": True,
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
        [replay] = [c for c in report["checks"] if c["name"] == "identity_residual_replay"]
        assert replay["details"]["replayed"] == rep["identity_residual"]

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
            "eta": 0.55, "steps": 50, "include_w": True,
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
        ("strain", "adaptive", "no"),
        ("strain", "adaptive", None),
        ("run", "deltas", "abc"),
        ("run", "deltas", []),
        ("run", "deltas", [0.1, -1.0]),
        ("run", "deltas", [0.1, "x"]),
        ("run", "deltas", [True]),
        ("balance", "deltas", [float("inf")]),
        ("run", "include_w", "no"),
        ("run", "include_w", 1),
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
        ("bifurcate linear", "model.hidden", 2.5),
        ("bifurcate linear", "model.rank", 0),
        ("bifurcate linear", "model.dataset.teacher_rank", 1.5),
        ("bifurcate linear", "model.dataset.teacher_spectrum", [1.0, -1.0]),
        ("bifurcate linear", "model.dataset.noise", -0.1),
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
        """Profile values above every target at the table's nodes (the
        curvatures are computed before the patched values are read)."""
        profile = em.CurvatureTable.profile

        def above(self, i):
            taus, _ = profile(self, i)
            return taus, 1e6 + taus
        monkeypatch.setattr(em.CurvatureTable, "profile", above)
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
        assert raised == [error]
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
        ("run", "include_w", None),
        ("run", "include_w", False),
        ("run", "localize", False),
        ("balance", "deltas", [2.0]),
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
             "include_w": None, "deltas": [0.1], "out_dir": "out"}),
    ("balance", {"model": {"kind": "quadratic", "matrix": [[3.0, 0.0], [0.0, 1.0]],
                           "center": [0.1, 0.0]},
                 "init": {"mode": "vector", "values": [1.0, 1.0]},
                 "etas": [0.5], "steps": 5, "deltas": None, "out_dir": "out"}),
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
                "eta": 0.5, "steps": 5, "quadrature_order": 4, "adaptive": True,
                "out_dir": "out"}),
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
