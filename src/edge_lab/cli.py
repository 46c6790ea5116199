"""Configuration-driven experiment runner.

Subcommands: run (single trajectory with per-step metrics), balance
(running weighted-mean curvature across a step-size grid), bifurcate
(period-two branch sweeps), strain (two-trajectory runs), verify
(invariant suites, or integrity re-checks of a finished run directory).

Configs are JSON, one file per experiment; unknown keys are rejected
and the fully resolved configuration is written next to the outputs.
Exit codes: 0 ok, 1 assertion failure, 2 config error, 3 divergence.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import bifurcation, edge_metrics, loss_models, trajectory, verify
from .numerics import DENSE_DIM_LIMIT, uniform_rule
from .stability_kv import strain_run, write_strain_csv
from .trajectory import write_csv

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3


class ConfigError(ValueError):
    """Invalid experiment configuration; message carries the key path."""


def _fail(path: str, message: str):
    raise ConfigError(f"config error at {path or '<root>'}: {message}")


@contextlib.contextmanager
def _config_values(path: str):
    """Report a ValueError or TypeError raised while turning config values
    into a resolved config, model or initial point as a config error."""
    try:
        yield
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        _fail(path, str(exc))


def _check_keys(obj: dict, allowed, path: str):
    if not isinstance(obj, dict):
        _fail(path, "expected an object")
    for key in obj:
        if key not in allowed:
            _fail(f"{path}.{key}" if path else key, "unknown key")


def _flag(cfg: dict, key: str, default: bool | None) -> bool | None:
    """A JSON boolean; null too where the default (None) is derived later."""
    value = cfg.get(key, default)
    if not isinstance(value, bool) and not (value is None and default is None):
        _fail(key, "must be true or false" if default is not None
              else "must be true, false or null")
    return value


def _integer(cfg: dict, key: str, minimum: int | None,
             default: int | None = None) -> int | None:
    """A JSON integer (not a boolean) of at least ``minimum``, or the default
    when the key is absent."""
    if key not in cfg:
        return default
    value = cfg[key]
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(key, "must be an integer")
    if minimum is not None and value < minimum:
        _fail(key, f"must be an integer >= {minimum}")
    return value


def _deltas(cfg: dict) -> list | None:
    """Window half-widths: null (the defaults) or positive finite numbers."""
    deltas = cfg.get("deltas")
    if deltas is not None and not (
            isinstance(deltas, list) and deltas
            and all(isinstance(x, (int, float)) and not isinstance(x, bool)
                    and math.isfinite(x) and x > 0 for x in deltas)):
        _fail("deltas", "must be null or a non-empty list of positive finite numbers")
    return deltas


def _resolve_dataset(cfg: dict, path: str) -> dict:
    _check_keys(cfg, {"seed", "n", "d_in", "d_out", "teacher_rank", "noise",
                      "teacher_spectrum"}, path)
    for key in ("seed", "n", "d_in", "d_out"):
        if key not in cfg:
            _fail(f"{path}.{key}", "required")
    return {
        "seed": int(cfg["seed"]), "n": int(cfg["n"]),
        "d_in": int(cfg["d_in"]), "d_out": int(cfg["d_out"]),
        "teacher_rank": cfg.get("teacher_rank"),
        "noise": float(cfg.get("noise", 0.0)),
        "teacher_spectrum": cfg.get("teacher_spectrum"),
    }


def _build_dataset(res: dict) -> loss_models.Dataset:
    return loss_models.make_synthetic_dataset(
        res["seed"], res["n"], res["d_in"], res["d_out"],
        teacher_rank=res["teacher_rank"], noise=res["noise"],
        teacher_spectrum=res["teacher_spectrum"])


def _resolve_model(cfg: dict, path: str = "model") -> dict:
    if not isinstance(cfg, dict) or "kind" not in cfg:
        _fail(path, "model requires a 'kind'")
    kind = cfg["kind"]
    if kind == "quadratic":
        _check_keys(cfg, {"kind", "matrix", "diag", "center"}, path)
        if ("matrix" in cfg) == ("diag" in cfg):
            _fail(path, "give exactly one of 'matrix' or 'diag'")
        return {"kind": kind,
                "matrix": cfg.get("matrix"), "diag": cfg.get("diag"),
                "center": cfg.get("center", 0.0)}
    if kind == "scalar_poly":
        _check_keys(cfg, {"kind", "lam", "gamma", "beta"}, path)
        if "lam" not in cfg:
            _fail(f"{path}.lam", "required")
        return {"kind": kind, "lam": float(cfg["lam"]),
                "gamma": float(cfg.get("gamma", 0.0)),
                "beta": float(cfg.get("beta", 0.0))}
    if kind == "two_layer_linear":
        _check_keys(cfg, {"kind", "hidden", "target", "dataset", "rank"}, path)
        if "hidden" not in cfg:
            _fail(f"{path}.hidden", "required")
        if ("target" in cfg) == ("dataset" in cfg):
            _fail(path, "give exactly one of 'target' or 'dataset'")
        out = {"kind": kind, "hidden": int(cfg["hidden"]),
               "target": cfg.get("target"), "rank": cfg.get("rank")}
        out["dataset"] = (_resolve_dataset(cfg["dataset"], f"{path}.dataset")
                          if "dataset" in cfg else None)
        return out
    if kind == "mlp":
        _check_keys(cfg, {"kind", "widths", "activation", "dataset"}, path)
        for key in ("widths", "dataset"):
            if key not in cfg:
                _fail(f"{path}.{key}", "required")
        return {"kind": kind, "widths": [int(v) for v in cfg["widths"]],
                "activation": cfg.get("activation", "tanh"),
                "dataset": _resolve_dataset(cfg["dataset"], f"{path}.dataset")}
    _fail(f"{path}.kind", f"unknown model kind {kind!r}")


def _linear_target(res: dict) -> np.ndarray:
    if res["target"] is not None:
        return np.asarray(res["target"], dtype=float)
    ds = _build_dataset(res["dataset"])
    M = np.linalg.lstsq(ds.X, ds.Y, rcond=None)[0].T
    if res["rank"] is not None:
        U, s, Vt = np.linalg.svd(M, full_matrices=False)
        r = int(res["rank"])
        M = (U[:, :r] * s[:r]) @ Vt[:r]
    return M


@_config_values("model")
def _build_model(res: dict) -> loss_models.LossModel:
    kind = res["kind"]
    if kind == "quadratic":
        H = np.diag(np.asarray(res["diag"], float)) if res["diag"] is not None \
            else np.asarray(res["matrix"], float)
        center = res["center"]
        return loss_models.make_quadratic(H, np.asarray(center, float)
                                          if isinstance(center, list) else center)
    if kind == "scalar_poly":
        return loss_models.make_scalar_poly(res["lam"], res["gamma"], res["beta"])
    if kind == "two_layer_linear":
        return loss_models.make_two_layer_linear(_linear_target(res), res["hidden"])
    if kind == "mlp":
        return loss_models.make_mlp(res["widths"], res["activation"],
                                    _build_dataset(res["dataset"]))
    raise AssertionError(kind)


def _resolve_init(cfg: dict) -> dict:
    if not isinstance(cfg, dict) or "mode" not in cfg:
        _fail("init", "init requires a 'mode'")
    mode = cfg["mode"]
    if mode == "vector":
        _check_keys(cfg, {"mode", "values"}, "init")
        if "values" not in cfg:
            _fail("init.values", "required")
        return {"mode": mode, "values": [float(v) for v in cfg["values"]]}
    if mode == "gaussian":
        _check_keys(cfg, {"mode", "seed", "scale"}, "init")
        return {"mode": mode, "seed": int(cfg.get("seed", 0)),
                "scale": float(cfg.get("scale", 1.0))}
    if mode == "minimizer_offset":
        _check_keys(cfg, {"mode", "scale"}, "init")
        return {"mode": mode, "scale": float(cfg.get("scale", 1e-3))}
    _fail("init.mode", f"unknown init mode {mode!r}")


@_config_values("init")
def _build_init(res_init: dict, model: loss_models.LossModel,
                model_res: dict) -> np.ndarray:
    mode = res_init["mode"]
    if mode == "vector":
        w0 = np.asarray(res_init["values"], dtype=float)
        if w0.shape != (model.dim,):
            raise ConfigError(
                f"config error at init.values: expected {model.dim} entries")
        return w0
    if mode == "gaussian":
        if isinstance(model, loss_models.MlpModel):
            return model.init_params(res_init["seed"], res_init["scale"])
        rng = np.random.default_rng(res_init["seed"])
        return res_init["scale"] * rng.standard_normal(model.dim)
    if mode == "minimizer_offset":
        if model_res["kind"] != "two_layer_linear":
            raise ConfigError("config error at init.mode: minimizer_offset "
                              "applies to two_layer_linear models")
        w_bar, geom = loss_models.balanced_minimizer(
            _linear_target(model_res), model_res["hidden"],
            rank=model_res["rank"])
        return w_bar + res_init["scale"] * geom.sharp_direction()
    raise AssertionError(mode)


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config error: file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config error: invalid JSON: {exc}")


def _write_json(path: Path, obj: dict) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _out_dir(resolved: dict, args) -> Path:
    out = Path(args.out) if args.out else Path(resolved["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

_RUN_KEYS = {"model", "init", "eta", "steps", "route", "localize", "include_w",
             "thin_stride", "deltas", "out_dir"}


def _resolve_run(cfg: dict) -> dict:
    _check_keys(cfg, _RUN_KEYS, "")
    for key in ("model", "init", "eta", "steps"):
        if key not in cfg:
            _fail(key, "required")
    model_res = _resolve_model(cfg["model"])
    resolved = {
        "command": "run",
        "model": model_res,
        "init": _resolve_init(cfg["init"]),
        "eta": float(cfg["eta"]),
        "steps": int(cfg["steps"]),
        "route": cfg.get("route", "quadrature"),
        "localize": _flag(cfg, "localize", False),
        "include_w": _flag(cfg, "include_w", None),
        "thin_stride": int(cfg.get("thin_stride", 1)),
        "deltas": _deltas(cfg),
        "out_dir": cfg.get("out_dir", "."),
    }
    if resolved["route"] not in ("quadrature", "loss"):
        _fail("route", "must be 'quadrature' or 'loss'")
    if resolved["eta"] <= 0 or resolved["steps"] < 1:
        _fail("eta", "eta must be positive and steps >= 1")
    return resolved


def cmd_run(resolved: dict, out: Path) -> int:
    model = _build_model(resolved["model"])
    w0 = _build_init(resolved["init"], model, resolved["model"])
    if resolved["include_w"] is None:
        resolved["include_w"] = model.dim <= 32
    _write_json(out / "resolved_config.json", resolved)

    log = trajectory.run_gd(model, w0, resolved["eta"], resolved["steps"],
                            thin_stride=resolved["thin_stride"])
    trajectory.write_trajectory_csv(log, out / "trajectory.csv",
                                    include_w=resolved["include_w"])
    table = edge_metrics.curvature_table(model, log, resolved["route"])
    report = edge_metrics.edge_balance_report(model, log, table,
                                              deltas=resolved["deltas"])
    edge_metrics.write_metrics_csv(model, log, table, out / "metrics.csv",
                                   with_localization=resolved["localize"])
    _write_json(out / "balance_report.json", report.to_dict())
    summary = trajectory.run_summary(log)
    summary["onset_step"] = edge_metrics.eos_onset(table, log.eta)
    _write_json(out / "summary.json", summary)
    return EXIT_DIVERGENCE if log.diverged else EXIT_OK


# ---------------------------------------------------------------------------
# balance
# ---------------------------------------------------------------------------

_BALANCE_KEYS = {"model", "init", "etas", "steps", "route", "deltas", "out_dir"}


def _resolve_balance(cfg: dict) -> dict:
    _check_keys(cfg, _BALANCE_KEYS, "")
    for key in ("model", "init", "etas", "steps"):
        if key not in cfg:
            _fail(key, "required")
    etas = [float(e) for e in cfg["etas"]]
    if not etas or any(e <= 0 for e in etas):
        _fail("etas", "must be a non-empty list of positive step sizes")
    return {
        "command": "balance",
        "model": _resolve_model(cfg["model"]),
        "init": _resolve_init(cfg["init"]),
        "etas": etas,
        "steps": int(cfg["steps"]),
        "route": cfg.get("route", "quadrature"),
        "deltas": _deltas(cfg),
        "out_dir": cfg.get("out_dir", "."),
    }


def _balance_one(model, w0, eta, resolved, out: Path, idx: int) -> dict:
    log = trajectory.run_gd(model, w0, eta, resolved["steps"])
    table = edge_metrics.curvature_table(model, log, resolved["route"])
    report = edge_metrics.edge_balance_report(model, log, table,
                                              deltas=resolved["deltas"])
    w, r = table.step_norm_sq, table.rtilde
    cum_w = np.cumsum(w)
    running = np.cumsum(w * r) / cum_w
    forcing = 2.0 / eta - 2.0 * float(log.losses[0]) / cum_w
    rows = ["k,running_weighted_mean,forcing_bound"]
    for i, k in enumerate(table.k):
        rows.append(f"{k},{running[i]:.17g},{forcing[i]:.17g}")
    write_csv(out / f"balance_eta{idx}.csv", rows)

    rows = ["k,actual_delta_L,proxy"]
    for k in range(log.num_steps - 1):
        if float(np.linalg.norm(log.steps[k])) < edge_metrics.DEGENERATE_STEP:
            continue
        proxy, actual = edge_metrics.loss_change_proxy(log, k)
        rows.append(f"{k},{actual:.17g},{proxy:.17g}")
    write_csv(out / f"scatter_eta{idx}.csv", rows)
    return {"eta": eta, "weighted_mean": report.weighted_mean,
            "threshold": 2.0 / eta,
            "identity_residual": report.identity_residual,
            "diverged": log.diverged}


def cmd_balance(resolved: dict, out: Path) -> int:
    model = _build_model(resolved["model"])
    w0 = _build_init(resolved["init"], model, resolved["model"])
    _write_json(out / "resolved_config.json", resolved)
    entries = [_balance_one(model, w0, eta, resolved, out, i)
               for i, eta in enumerate(resolved["etas"])]
    _write_json(out / "balance_summary.json", {"runs": entries})
    return EXIT_DIVERGENCE if any(e["diverged"] for e in entries) else EXIT_OK


# ---------------------------------------------------------------------------
# bifurcate
# ---------------------------------------------------------------------------

_BIF_KEYS = {"model", "etas", "modes", "run_steps", "run_offset",
             "discard_frac", "out_dir"}


def _resolve_bifurcate(cfg: dict) -> dict:
    _check_keys(cfg, _BIF_KEYS, "")
    for key in ("model", "etas"):
        if key not in cfg:
            _fail(key, "required")
    model_res = _resolve_model(cfg["model"])
    if model_res["kind"] not in ("scalar_poly", "two_layer_linear"):
        _fail("model.kind", "bifurcate supports scalar_poly and two_layer_linear")
    modes = cfg.get("modes", ["continuation", "empirical"])
    for m in modes:
        if m not in ("continuation", "empirical"):
            _fail("modes", f"unknown mode {m!r}")
    return {
        "command": "bifurcate",
        "model": model_res,
        "etas": [float(e) for e in cfg["etas"]],
        "modes": list(modes),
        "run_steps": int(cfg.get("run_steps", 2000)),
        "run_offset": float(cfg.get("run_offset", 1e-3)),
        "discard_frac": float(cfg.get("discard_frac", 0.8)),
        "out_dir": cfg.get("out_dir", "."),
    }


def cmd_bifurcate(resolved: dict, out: Path) -> int:
    model_res = resolved["model"]
    model = _build_model(model_res)
    if model_res["kind"] == "two_layer_linear":
        w_bar, geom = loss_models.balanced_minimizer(
            _linear_target(model_res), model_res["hidden"], rank=model_res["rank"])
        subspace, _ = geom.normal_basis()
        u = geom.sharp_direction()
    else:
        w_bar = bifurcation.find_critical_point(model, np.zeros(1))
        subspace = None
        u = np.array([1.0])
    _write_json(out / "resolved_config.json", resolved)

    eta_c, _ = bifurcation.critical_eta(model, w_bar, subspace)
    Q_u = bifurcation.quartic_coefficient(model, w_bar, u, subspace)

    rows = ["eta,amp,residual,mode"]
    summary = {"eta_c": eta_c, "quartic_u": Q_u, "exponents": {}}
    etas = resolved["etas"]
    for mode in resolved["modes"]:
        points, lost = bifurcation.branch_sweep(
            model, w_bar, etas, mode, u=u, subspace=subspace,
            run_steps=resolved["run_steps"], run_offset=resolved["run_offset"],
            discard_frac=resolved["discard_frac"])
        for p in points:
            resid = p.residual if isinstance(p, bifurcation.BranchPoint) else float("nan")
            rows.append(f"{p.eta:.17g},{p.amplitude:.17g},{resid:.17g},{mode}")
        amps = [p.amplitude for p in points]
        try:
            expo = bifurcation.fit_scaling_exponent(
                [p.eta for p in points], amps, eta_c)
        except ValueError:
            expo = None
        summary["exponents"][mode] = expo
        summary[f"{mode}_branch_lost"] = bool(lost)
    write_csv(out / "branch.csv", rows)
    _write_json(out / "sweep_summary.json", summary)
    return EXIT_OK


# ---------------------------------------------------------------------------
# strain
# ---------------------------------------------------------------------------

_STRAIN_KEYS = {"model", "init", "eta", "steps", "leave_one_out",
                "second_dataset_seed", "second_model", "quadrature_order",
                "adaptive", "out_dir"}


def _resolve_strain(cfg: dict) -> dict:
    _check_keys(cfg, _STRAIN_KEYS, "")
    for key in ("model", "init", "eta", "steps"):
        if key not in cfg:
            _fail(key, "required")
    variants = [k for k in ("leave_one_out", "second_dataset_seed", "second_model")
                if k in cfg]
    if len(variants) != 1:
        _fail("", "give exactly one of leave_one_out / second_dataset_seed / "
                  "second_model")
    eta = cfg["eta"]
    if (isinstance(eta, bool) or not isinstance(eta, (int, float))
            or not (math.isfinite(eta) and eta > 0)):
        _fail("eta", "must be a positive finite number")
    return {
        "command": "strain",
        "model": _resolve_model(cfg["model"]),
        "init": _resolve_init(cfg["init"]),
        "eta": float(eta),
        "steps": _integer(cfg, "steps", 1),
        "leave_one_out": _integer(cfg, "leave_one_out", 0),
        "second_dataset_seed": _integer(cfg, "second_dataset_seed", None),
        "second_model": (_resolve_model(cfg["second_model"], "second_model")
                         if "second_model" in cfg else None),
        "quadrature_order": _integer(cfg, "quadrature_order", 1, default=4),
        "adaptive": _flag(cfg, "adaptive", False),
        "out_dir": cfg.get("out_dir", "."),
    }


def _second_model(resolved: dict, model_s) -> loss_models.LossModel:
    res = resolved["model"]
    if resolved["second_model"] is not None:
        return _build_model(resolved["second_model"])
    if res["kind"] not in ("mlp", "two_layer_linear") or res.get("dataset") is None:
        raise ConfigError("config error: leave_one_out / second_dataset_seed "
                          "need a dataset-backed model")
    if resolved["second_dataset_seed"] is not None:
        res2 = dict(res)
        res2["dataset"] = dict(res["dataset"], seed=resolved["second_dataset_seed"])
        return _build_model(res2)
    idx = resolved["leave_one_out"]
    ds = _build_dataset(res["dataset"])
    if not 0 <= idx < ds.n:
        raise ConfigError("config error at leave_one_out: index out of range")
    keep = np.array([i for i in range(ds.n) if i != idx])
    ds2 = loss_models.Dataset(X=ds.X[keep], Y=ds.Y[keep], seed=ds.seed,
                              teacher_rank=ds.teacher_rank)
    if res["kind"] == "mlp":
        return loss_models.make_mlp(res["widths"], res["activation"], ds2)
    M = np.linalg.lstsq(ds2.X, ds2.Y, rcond=None)[0].T
    return loss_models.make_two_layer_linear(M, res["hidden"])


def cmd_strain(resolved: dict, out: Path) -> int:
    model_s = _build_model(resolved["model"])
    if model_s.dim > DENSE_DIM_LIMIT:
        raise ConfigError(
            f"config error at model: strain needs dense Hessians, available for "
            f"dim <= {DENSE_DIM_LIMIT} (model has dim {model_s.dim})")
    model_sp = _second_model(resolved, model_s)
    if model_sp.dim != model_s.dim:
        raise ConfigError(
            f"config error at second_model: paired models must share the "
            f"parameter dimension (model has dim {model_s.dim}, second_model "
            f"has dim {model_sp.dim})")
    w0 = _build_init(resolved["init"], model_s, resolved["model"])
    _write_json(out / "resolved_config.json", resolved)
    pair = trajectory.run_pair_gd(model_s, model_sp, w0, resolved["eta"],
                                  resolved["steps"])
    strain = strain_run(pair, model_s,
                        rule=uniform_rule(resolved["quadrature_order"]),
                        adaptive=resolved["adaptive"])
    write_strain_csv(strain, out / "strain.csv")
    _write_json(out / "strain_summary.json", {
        "eta": resolved["eta"], "steps": strain.num_steps,
        "max_recurrence_residual": float(strain.residual.max()),
        "final_strain_norm": float(np.linalg.norm(strain.delta[-1])),
        "diverged": pair.log_s.diverged or pair.log_sp.diverged,
    })
    if pair.log_s.diverged or pair.log_sp.diverged:
        return EXIT_DIVERGENCE
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _parse_trajectory_csv(path: Path):
    with open(path, newline="") as fh:
        lines = [ln for ln in fh.read().split("\r\n") if ln]
    header = lines[0].split(",")
    if header[:4] != ["k", "loss", "grad_norm", "step_norm"]:
        raise ConfigError("config error: unrecognized trajectory CSV header")
    has_w = len(header) > 4
    losses, gnorms, ws = [], [], []
    for ln in lines[1:]:
        parts = ln.split(",")
        losses.append(float(parts[1]))
        gnorms.append(float(parts[2]))
        if has_w:
            ws.append([float(v) for v in parts[4:]])
    return (np.array(losses), np.array(gnorms),
            np.array(ws) if has_w else None)


def verify_run_dir(run_dir: Path) -> list[verify.CheckResult]:
    """Re-check a finished run directory against its own model.

    Replays the loss and gradient at every logged iterate, re-derives
    the update consistency, and recomputes the telescoping balance from
    the quadrature-route curvature table of the logged iterates. Any
    edit to the logs breaks at least one of these named identities.
    """
    import time as _time
    t0 = _time.perf_counter()
    resolved = json.loads((run_dir / "resolved_config.json").read_text())
    if resolved.get("command") != "run":
        raise ConfigError("config error: directory does not hold a 'run' output")
    model = _build_model(resolved["model"])
    losses, gnorms, ws = _parse_trajectory_csv(run_dir / "trajectory.csv")
    results = []
    if ws is None:
        raise ConfigError("config error: trajectory.csv has no iterate columns "
                          "(rerun with include_w)")

    values, grads = zip(*(model.value_and_grad(w) for w in ws))
    worst_loss = float(max(abs(v - l) / max(1.0, abs(l))
                           for v, l in zip(values, losses)))
    results.append(verify.CheckResult(
        "loss_replay", bool(worst_loss <= 1e-12), _time.perf_counter() - t0,
        {"max_relative_error": worst_loss, "tolerance": 1e-12}))

    t1 = _time.perf_counter()
    worst_g = float(max(abs(float(np.linalg.norm(g)) - gn) / max(1.0, gn)
                        for g, gn in zip(grads, gnorms)))
    results.append(verify.CheckResult(
        "gradient_replay", bool(worst_g <= 1e-12), _time.perf_counter() - t1,
        {"max_relative_error": worst_g, "tolerance": 1e-12}))

    t2 = _time.perf_counter()
    eta = resolved["eta"]
    worst_u = float(max(
        float(np.linalg.norm(ws[k + 1] - (ws[k] - eta * grads[k])))
        / (1.0 + float(np.linalg.norm(ws[k])))
        for k in range(len(ws) - 1)))
    results.append(verify.CheckResult(
        "update_consistency", bool(worst_u <= 1e-12), _time.perf_counter() - t2,
        {"max_relative_error": worst_u, "tolerance": 1e-12}))

    t3 = _time.perf_counter()
    log = trajectory.TrajectoryLog(
        eta=eta, model_id=model.name, losses=losses, grads=np.array(grads),
        steps=np.diff(ws, axis=0), w_stored=ws)
    table = edge_metrics.curvature_table(model, log)
    resid = edge_metrics.edge_balance_report(model, log, table).identity_residual
    is_mlp = resolved["model"]["kind"] == "mlp"
    tol = 1e-5 * max(1.0, abs(2.0 * (losses[0] - losses[-1]))) if is_mlp \
        else 1e-8 * max(1.0, abs(losses[0]))
    results.append(verify.CheckResult(
        "telescoping_balance", bool(resid <= tol), _time.perf_counter() - t3,
        {"residual": resid, "tolerance": float(tol)}))
    return results


def cmd_verify(args) -> int:
    out = Path(args.out) if args.out else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    if args.run_dir:
        results = verify_run_dir(Path(args.run_dir))
        for r in results:
            print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}")
    else:
        results = verify.run_suite(args.suite, echo=print)
    report = {"suite": args.run_dir or args.suite,
              "passed": all(r.passed for r in results),
              "checks": [r.to_dict() for r in results]}
    _write_json(out / "verify_report.json", report)
    if not report["passed"]:
        failed = [r.name for r in results if not r.passed]
        print(f"FAILED: {', '.join(failed)}", file=sys.stderr)
        return EXIT_ASSERTION
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_RESOLVERS = {"run": _resolve_run, "balance": _resolve_balance,
              "bifurcate": _resolve_bifurcate, "strain": _resolve_strain}
_COMMANDS = {"run": cmd_run, "balance": cmd_balance,
             "bifurcate": cmd_bifurcate, "strain": cmd_strain}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="edge-lab",
        description="Gradient-descent edge-of-stability experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "balance", "bifurcate", "strain"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
    pv = sub.add_parser("verify")
    pv.add_argument("--suite", default="full", choices=sorted(verify.SUITES))
    pv.add_argument("--run-dir", default=None,
                    help="re-check a finished run directory instead")
    pv.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    try:
        if args.command == "verify":
            return cmd_verify(args)
        with _config_values(""):
            resolved = _RESOLVERS[args.command](_load_config(args.config))
        out = _out_dir(resolved, args)
        return _COMMANDS[args.command](resolved, out)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    except bifurcation.NoBranchError as exc:
        print(f"config error at model: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
