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
import collections
import contextlib
import dataclasses
import itertools
import json
import math
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from . import bifurcation, edge_metrics, loss_models, stability_kv, trajectory, verify
from .numerics import (DENSE_DIM_LIMIT, BracketError, EvaluationError,
                       NonConvergenceError, SingularJacobianError, uniform_rule)
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
    """Report a ValueError or TypeError raised while building a model or an
    initial point from a resolved config as a config error."""
    try:
        yield
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        _fail(path, str(exc))


@contextlib.contextmanager
def _allocation(path: str):
    """Report logs or per-step buffers too large to allocate, which only a
    run can find out, as a config error at ``path``, the count that sizes
    them."""
    try:
        yield
    except MemoryError as exc:
        _fail(path, f"too large: {exc}")


# Config readers. Each reads one key, named by its full path
# ("model.dataset.n"), from the object ``cfg`` that holds it, and returns
# the value or raises ConfigError naming that path. A key whose reader has
# no default is required; null is accepted only where the default is null.
# Numbers are finite JSON numbers, counts JSON integers, flags JSON
# booleans; nothing is coerced from strings or booleans. A key that no
# reader takes is unknown.

_REQUIRED = object()


def _read(cfg, path: str, ok, what: str, default=_REQUIRED):
    parent, _, key = path.rpartition(".")
    if not isinstance(cfg, dict):
        _fail(parent, "expected an object")
    if key not in cfg:
        if default is _REQUIRED:
            _fail(path, "required")
        return default
    value = cfg[key]
    if not (ok(value) or (value is None and default is None)):
        _fail(path, f"must be {what}" + (" or null" if default is None else ""))
    return value


def _object(cfg: dict, path: str, resolved: dict) -> dict:
    """``resolved``, once ``cfg`` (the object at ``path`` it was read from)
    holds no key beyond it."""
    for key in cfg:
        if key not in resolved:
            _fail(f"{path}.{key}" if path else key, "unknown key")
    return resolved


def _finite(x, positive: bool = False) -> bool:
    # The bound rejects NaN, infinities and integers beyond the float range.
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max and (x > 0 or not positive))


def _whole(x, minimum: int) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= minimum


def _number(cfg, path: str, positive: bool = False, default=_REQUIRED) -> float:
    return float(_read(cfg, path, lambda x: _finite(x, positive),
                       f"a {'positive ' if positive else ''}finite number", default))


def _numbers(cfg, path: str, positive: bool = False,
             default=_REQUIRED) -> list | None:
    values = _read(cfg, path, lambda v: isinstance(v, list) and v != [] and all(
        _finite(x, positive) for x in v),
        f"a non-empty list of {'positive ' if positive else ''}finite numbers",
        default)
    return None if values is None else [float(x) for x in values]


def _matrix(cfg, path: str) -> list:
    rows = _read(cfg, path, lambda v: isinstance(v, list) and v != [] and all(
        isinstance(r, list) and r != [] and all(map(_finite, r)) for r in v),
        "a non-empty list of non-empty rows of finite numbers")
    return [[float(x) for x in row] for row in rows]


def _integer(cfg, path: str, minimum: int, default=_REQUIRED) -> int | None:
    return _read(cfg, path, lambda x: _whole(x, minimum),
                 f"an integer >= {minimum}", default)


def _flag(cfg, path: str, default=_REQUIRED) -> bool | None:
    return _read(cfg, path, lambda x: isinstance(x, bool), "true or false", default)


def _choice(cfg, path: str, choices, default=_REQUIRED) -> str:
    return _read(cfg, path, lambda x: isinstance(x, str) and x in choices,
                 "one of " + ", ".join(map(repr, choices)), default)


def _string(cfg, path: str, default=_REQUIRED) -> str:
    return _read(cfg, path, lambda x: isinstance(x, str) and x != "",
                 "a non-empty string", default)


def _resolve_dataset(cfg: dict, path: str) -> dict:
    ds = _read(cfg, path, lambda v: isinstance(v, dict), "an object")
    noise = _number(ds, f"{path}.noise", default=0.0)
    if noise < 0:
        _fail(f"{path}.noise", "must be a finite number >= 0")
    return _object(ds, path, {
        "seed": _integer(ds, f"{path}.seed", 0), "n": _integer(ds, f"{path}.n", 1),
        "d_in": _integer(ds, f"{path}.d_in", 1),
        "d_out": _integer(ds, f"{path}.d_out", 1),
        "teacher_rank": _integer(ds, f"{path}.teacher_rank", 1, default=None),
        "noise": noise,
        "teacher_spectrum": _numbers(ds, f"{path}.teacher_spectrum",
                                     positive=True, default=None),
    })


def _build_dataset(res: dict, path: str) -> loss_models.Dataset:
    """The dataset of the resolved entry at ``path``; an entry given a
    ``leave_one_out`` index (the strain pairing) lacks that row. A dataset
    too large to allocate is a config error at its ``n``."""
    with _allocation(f"{path}.n"):
        ds = loss_models.make_synthetic_dataset(
            res["seed"], res["n"], res["d_in"], res["d_out"],
            teacher_rank=res["teacher_rank"], noise=res["noise"],
            teacher_spectrum=res["teacher_spectrum"])
    if res.get("leave_one_out") is None:
        return ds
    return dataclasses.replace(ds, X=np.delete(ds.X, res["leave_one_out"], axis=0),
                               Y=np.delete(ds.Y, res["leave_one_out"], axis=0))


def _resolve_model(cfg: dict, path: str) -> dict:
    model = _read(cfg, path, lambda v: isinstance(v, dict), "an object")
    kind = _choice(model, f"{path}.kind",
                   ("quadratic", "scalar_poly", "two_layer_linear", "mlp"))
    if kind == "quadratic":
        if ("matrix" in model) == ("diag" in model):
            _fail(path, "give exactly one of 'matrix' or 'diag'")
        center = (_numbers if isinstance(model.get("center"), list) else _number)(
            model, f"{path}.center", default=0.0)
        return _object(model, path, {
            "kind": kind, "center": center,
            "matrix": _matrix(model, f"{path}.matrix") if "matrix" in model else None,
            "diag": _numbers(model, f"{path}.diag") if "diag" in model else None})
    if kind == "scalar_poly":
        return _object(model, path, {
            "kind": kind, "lam": _number(model, f"{path}.lam"),
            "gamma": _number(model, f"{path}.gamma", default=0.0),
            "beta": _number(model, f"{path}.beta", default=0.0)})
    if kind == "two_layer_linear":
        if ("target" in model) == ("dataset" in model):
            _fail(path, "give exactly one of 'target' or 'dataset'")
        return _object(model, path, {
            "kind": kind, "hidden": _integer(model, f"{path}.hidden", 1),
            "target": _matrix(model, f"{path}.target") if "target" in model else None,
            "rank": _integer(model, f"{path}.rank", 1, default=None),
            "dataset": (_resolve_dataset(model, f"{path}.dataset")
                        if "dataset" in model else None)})
    return _object(model, path, {
        "kind": kind,
        "widths": _read(model, f"{path}.widths", lambda v: isinstance(v, list)
                        and len(v) >= 2 and all(_whole(x, 1) for x in v),
                        "a list of at least two integers >= 1"),
        "activation": _choice(model, f"{path}.activation", ("tanh", "gelu"), "tanh"),
        "dataset": _resolve_dataset(model, f"{path}.dataset")})


def _linear_target(res: dict, path: str = "model") -> np.ndarray:
    if res["target"] is not None:
        return np.asarray(res["target"], dtype=float)
    ds = _build_dataset(res["dataset"], f"{path}.dataset")
    M = np.linalg.lstsq(ds.X, ds.Y, rcond=None)[0].T
    if res["rank"] is not None:
        U, s, Vt = np.linalg.svd(M, full_matrices=False)
        r = res["rank"]
        M = (U[:, :r] * s[:r]) @ Vt[:r]
    return M


def _build_model(res: dict, path: str = "model") -> loss_models.LossModel:
    """The model of the resolved entry at ``path``; a value the model
    rejects is a config error at that path."""
    kind = res["kind"]
    with _config_values(path):
        if kind == "quadratic":
            H = np.diag(res["diag"]) if res["diag"] is not None else res["matrix"]
            return loss_models.make_quadratic(H, res["center"])
        if kind == "scalar_poly":
            return loss_models.make_scalar_poly(res["lam"], res["gamma"], res["beta"])
        if kind == "two_layer_linear":
            return loss_models.make_two_layer_linear(_linear_target(res, path),
                                                     res["hidden"])
        if kind == "mlp":
            return loss_models.make_mlp(res["widths"], res["activation"],
                                        _build_dataset(res["dataset"], f"{path}.dataset"))
    raise AssertionError(kind)


def _resolve_init(cfg: dict) -> dict:
    init = _read(cfg, "init", lambda v: isinstance(v, dict), "an object")
    mode = _choice(init, "init.mode", ("vector", "gaussian", "minimizer_offset"))
    if mode == "vector":
        return _object(init, "init", {"mode": mode,
                                      "values": _numbers(init, "init.values")})
    if mode == "gaussian":
        return _object(init, "init", {
            "mode": mode, "seed": _integer(init, "init.seed", 0, default=0),
            "scale": _number(init, "init.scale", default=1.0)})
    return _object(init, "init", {
        "mode": mode, "scale": _number(init, "init.scale", default=1e-3)})


# The key that sizes the parameter vector of a model kind, named when a
# vector of that size cannot be allocated.
_SIZE_KEYS = {"two_layer_linear": "model.hidden", "mlp": "model.widths"}


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
    with _allocation(_SIZE_KEYS.get(model_res["kind"], "model")):
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
    except OSError as exc:
        _fail(path, f"cannot read: {exc.strerror}")
    except ValueError as exc:  # malformed JSON or UTF-8, an over-long integer
        _fail(path, f"invalid JSON: {exc}")


def _strict(obj):
    """``obj`` with every NaN or infinite float replaced by None."""
    if isinstance(obj, dict):
        return {key: _strict(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return list(map(_strict, obj))
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def _write_json(path: Path, obj: dict) -> None:
    """Write ``obj`` as strict JSON: a non-finite float is written as null."""
    with open(path, "w") as fh:
        json.dump(_strict(obj), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _out_dir(args, default: str) -> Path:
    """The output directory, ``--out`` or else ``default``, created."""
    out = Path(args.out or default)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:
        _fail("--out" if args.out else "out_dir", f"cannot create {out}: {exc}")
    return out


# A command writes resolved_config.json (its first ``_write_json`` call)
# right after its build step, then its outputs, and returns its exit code and
# the contents of timings.json, which ``main`` writes.

# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _resolve_run(cfg: dict) -> dict:
    return _object(cfg, "", {
        "model": _resolve_model(cfg, "model"),
        "init": _resolve_init(cfg),
        "eta": _number(cfg, "eta", positive=True),
        "steps": _integer(cfg, "steps", 1),
        "localize": _flag(cfg, "localize", False),
        "deltas": _numbers(cfg, "deltas", positive=True, default=None),
        "out_dir": _string(cfg, "out_dir", "."),
    })


@contextlib.contextmanager
def _timed(wall: dict, phase: str):
    """Add the wall seconds of the block to ``wall[phase]``."""
    start = time.perf_counter()
    try:
        yield
    finally:
        wall[phase] += time.perf_counter() - start


def cmd_run(resolved: dict, out: Path, sink=None) -> tuple[int, dict]:
    model = _build_model(resolved["model"])
    w0 = _build_init(resolved["init"], model, resolved["model"])
    _write_json(out / "resolved_config.json", resolved)

    wall = {"runner": 0.0, "curvature_table": 0.0, "reports": 0.0}
    work = collections.Counter(localization_profile_nodes=0, lanczos_products=0,
                               curvature_table_workers=0)
    run, table = _run_table(model, w0, resolved["eta"], resolved["steps"], wall, work,
                            localize=resolved["localize"])
    with _timed(wall, "reports"):
        trajectory.write_trajectory_csv(run, out / "trajectory.csv")
        edge_metrics.write_metrics_csv(run, table, out / "metrics.csv")
        report = edge_metrics.edge_balance_report(model, run, table,
                                                  deltas=resolved["deltas"])
        summary = trajectory.run_summary(run)
        summary["onset_step"] = edge_metrics.eos_onset(table, run.eta)
        summary["num_unsettled_steps"] = len(table.unsettled)
        _write_json(out / "balance_report.json", report.to_dict())
        _write_json(out / "summary.json", summary)
    if sink is not None:
        sink(model, run, table)
    timings = {"wall_s": wall, "curvature_table_nodes": int(table.nodes.sum()),
               "unsettled_steps": len(table.unsettled), **work}
    unsettled = _unsettled_exit(_steps(table.unsettled))
    return EXIT_DIVERGENCE if run.diverged else unsettled, timings


def _run_table(model, w0, eta: float, steps: int, wall: dict,
               work: collections.Counter, localize: bool = False):
    """(the finished ``StepStream`` of a GD run, its curvature table),
    the table read from the stream as the runner takes the steps, so no
    (steps + 1, dim) log is held. ``wall["runner"]`` gets the runner's
    seconds and ``wall["curvature_table"]`` the rest. Per-step buffers
    too large to allocate are a config error at ``steps``."""
    with _allocation("steps"), _timed(wall, "curvature_table"):
        run = trajectory.StepStream(model, w0, eta, steps)
        table = edge_metrics.curvature_table(model, run, work, localize=localize)
    wall["runner"] += run.seconds
    wall["curvature_table"] -= run.seconds
    return run, table


def _steps(ks) -> str:
    return ", ".join(map(str, ks))


def _unsettled_exit(named: str) -> int:
    """Exit 1 with one stderr line naming the steps whose curvature
    quadrature did not settle (``named``, empty if none), else 0. Called
    once every output is written; divergence (exit 3) takes precedence."""
    if not named:
        return EXIT_OK
    print(f"unsettled curvature quadrature at steps {named}: not within "
          f"{edge_metrics.QUADRATURE_RTOL:g} after "
          f"{edge_metrics.QUADRATURE_MAX_INTERVALS} intervals", file=sys.stderr)
    return EXIT_ASSERTION


# ---------------------------------------------------------------------------
# balance
# ---------------------------------------------------------------------------

def _resolve_balance(cfg: dict) -> dict:
    return _object(cfg, "", {
        "model": _resolve_model(cfg, "model"),
        "init": _resolve_init(cfg),
        "etas": _numbers(cfg, "etas", positive=True),
        "steps": _integer(cfg, "steps", 1),
        "out_dir": _string(cfg, "out_dir", "."),
    })


def _balance_one(model, w0, eta, resolved, out: Path, idx: int,
                 wall: dict, work: collections.Counter, sink) -> dict:
    run, table = _run_table(model, w0, eta, resolved["steps"], wall, work)
    work["curvature_table_nodes"] += int(table.nodes.sum())
    with _timed(wall, "reports"):
        report = edge_metrics.edge_balance_report(model, run, table)
        running, forcing = edge_metrics.running_balance(model, run, table)
        rows = ([k, mean, None if np.isnan(bound) else bound]
                for k, mean, bound in zip(table.k, running, forcing))
        write_csv(out / f"balance_eta{idx}.csv",
                  ["k", "running_weighted_mean", "forcing_bound"], rows)

        rows = ([k, delta_l, proxy]
                for k, delta_l, proxy in zip(table.k, table.delta_L, table.proxy)
                if k + 1 < run.num_steps)
        write_csv(out / f"scatter_eta{idx}.csv", ["k", "actual_delta_L", "proxy"], rows)
    if sink is not None:
        sink(model, run, table)
    return {"eta": eta, "weighted_mean": report.weighted_mean,
            "threshold": 2.0 / eta,
            "identity_residual": report.identity_residual,
            "unsettled_steps": table.unsettled,
            "diverged": run.diverged}


def cmd_balance(resolved: dict, out: Path, sink=None) -> tuple[int, dict]:
    model = _build_model(resolved["model"])
    w0 = _build_init(resolved["init"], model, resolved["model"])
    _write_json(out / "resolved_config.json", resolved)
    wall = {"runner": 0.0, "curvature_table": 0.0, "reports": 0.0}
    work = collections.Counter(curvature_table_nodes=0, curvature_table_workers=0)
    entries = [_balance_one(model, w0, eta, resolved, out, i, wall, work, sink)
               for i, eta in enumerate(resolved["etas"])]
    _write_json(out / "balance_summary.json", {"runs": entries})
    unsettled = _unsettled_exit("; ".join(
        f"{_steps(e['unsettled_steps'])} of etas[{i}]"
        for i, e in enumerate(entries) if e["unsettled_steps"]))
    diverged = any(e["diverged"] for e in entries)
    return EXIT_DIVERGENCE if diverged else unsettled, {"wall_s": wall, **work}


# ---------------------------------------------------------------------------
# bifurcate
# ---------------------------------------------------------------------------

_MODES = ("continuation", "empirical")


def _resolve_bifurcate(cfg: dict) -> dict:
    model_res = _resolve_model(cfg, "model")
    if model_res["kind"] not in ("scalar_poly", "two_layer_linear"):
        _fail("model.kind", "bifurcate supports scalar_poly and two_layer_linear")
    discard_frac = _number(cfg, "discard_frac", default=0.8)
    if not 0 <= discard_frac < 1:
        _fail("discard_frac", "must be a number in [0, 1)")
    return _object(cfg, "", {
        "model": model_res,
        "etas": _numbers(cfg, "etas", positive=True),
        "modes": _read(cfg, "modes", lambda v: isinstance(v, list) and v != []
                       and all(isinstance(m, str) and m in _MODES for m in v)
                       and len(set(v)) == len(v),
                       "a non-empty list of 'continuation' and 'empirical', "
                       "each at most once", list(_MODES)),
        "run_steps": _integer(cfg, "run_steps", 1, 2000),
        "run_offset": _number(cfg, "run_offset", default=1e-3),
        "discard_frac": discard_frac,
        "out_dir": _string(cfg, "out_dir", "."),
    })


def cmd_bifurcate(resolved: dict, out: Path, sink=None) -> tuple[int, dict]:
    model_res = resolved["model"]
    model = _build_model(model_res)
    if model_res["kind"] == "two_layer_linear":
        with _allocation("model.hidden"):
            w_bar, geom = loss_models.balanced_minimizer(
                _linear_target(model_res), model_res["hidden"], rank=model_res["rank"])
            subspace, _ = geom.normal_basis()
            u = geom.sharp_direction()
    else:
        w_bar = bifurcation.find_critical_point(model, np.zeros(1))
        subspace = None
        u = np.array([1.0])
    _write_json(out / "resolved_config.json", resolved)

    wall = {"normal_form": 0.0, "continuation": 0.0, "empirical": 0.0}
    with _timed(wall, "normal_form"):
        eta_c, _ = bifurcation.critical_eta(model, w_bar, subspace)
        Q_u = bifurcation.quartic_coefficient(model, w_bar, u, subspace)

    rows = []
    # The branch lies where (2/eta - 2/eta_c) / Q_u > 0 (``branch_predict``);
    # a zero Q_u predicts none.
    side = "above" if Q_u < 0 else "below" if Q_u > 0 else None
    summary = {"eta_c": eta_c, "quartic_u": Q_u, "branch_side": side,
               "exponents": {}}
    etas = resolved["etas"]
    evaluations = []
    for mode in resolved["modes"]:
        with _timed(wall, mode), _allocation("run_steps"):
            points, lost = bifurcation.branch_sweep(
                model, w_bar, etas, mode, u=u, subspace=subspace,
                run_steps=resolved["run_steps"], run_offset=resolved["run_offset"],
                discard_frac=resolved["discard_frac"], eta_c=eta_c, Q_u=Q_u)
        if sink is not None and mode == "continuation":
            sink(points)
        fitted = []
        for p in points:
            resid = p.residual if isinstance(p, bifurcation.BranchPoint) else None
            # An empirical run has no residual, and one that diverged or
            # decayed has no orbit: empty cells, and it stays out of the fit.
            orbit = isinstance(p, bifurcation.BranchPoint) or p.orbit
            rows.append([p.eta, p.amplitude if orbit else None, resid, mode])
            if orbit:
                fitted.append(p)
        try:
            expo = bifurcation.fit_scaling_exponent(
                [p.eta for p in fitted], [p.amplitude for p in fitted], eta_c, side)
        except ValueError:
            expo = None
        summary["exponents"][mode] = expo
        summary[f"{mode}_branch_lost"] = bool(lost)
        if mode == "empirical":
            summary["empirical_diverged_etas"] = [p.eta for p in points if p.diverged]
            summary["empirical_decayed_etas"] = [p.eta for p in points if p.decayed]
            evaluations = [p.evaluations for p in points]
    write_csv(out / "branch.csv", ["eta", "amp", "residual", "mode"], rows)
    _write_json(out / "sweep_summary.json", summary)
    # Every run of the empirical sweep is a row of the stacked call at each
    # of its evaluated iterates, so the longest run counts the calls.
    return EXIT_OK, {
        "wall_s": wall, "lockstep_value_and_grad_calls": max(evaluations, default=0),
        "lockstep_row_steps": sum(evaluations)}


# ---------------------------------------------------------------------------
# strain
# ---------------------------------------------------------------------------

def _resolve_strain(cfg: dict) -> dict:
    model_res = _resolve_model(cfg, "model")
    variants = [k for k in ("leave_one_out", "second_dataset_seed", "second_model")
                if k in cfg]
    if len(variants) != 1:
        _fail("", "give exactly one of leave_one_out / second_dataset_seed / "
                  "second_model")
    resolved = _object(cfg, "", {
        "model": model_res,
        "init": _resolve_init(cfg),
        "eta": _number(cfg, "eta", positive=True),
        "steps": _integer(cfg, "steps", 1),
        "leave_one_out": (_integer(cfg, "leave_one_out", 0)
                          if "leave_one_out" in cfg else None),
        "second_dataset_seed": (_integer(cfg, "second_dataset_seed", 0)
                                if "second_dataset_seed" in cfg else None),
        "second_model": (_resolve_model(cfg, "second_model")
                         if "second_model" in cfg else None),
        "quadrature_order": _integer(cfg, "quadrature_order", 1, default=4),
        "out_dir": _string(cfg, "out_dir", "."),
    })
    dataset = model_res.get("dataset")
    if variants != ["second_model"] and dataset is None:
        _fail(variants[0], "needs a model with a dataset")
    if "leave_one_out" in cfg and dataset["n"] < 2:
        _fail("leave_one_out", "needs model.dataset.n >= 2: no row would be left")
    if "leave_one_out" in cfg and resolved["leave_one_out"] >= dataset["n"]:
        _fail("leave_one_out", f"must be below model.dataset.n = {dataset['n']}")
    return resolved


def _second_model(resolved: dict) -> loss_models.LossModel:
    """The second objective: ``second_model``, or the model on its dataset
    with another seed or with one row left out."""
    if resolved["second_model"] is not None:
        return _build_model(resolved["second_model"], "second_model")
    res = resolved["model"]
    edit = ({"seed": resolved["second_dataset_seed"]}
            if resolved["leave_one_out"] is None
            else {"leave_one_out": resolved["leave_one_out"]})
    return _build_model(dict(res, dataset=dict(res["dataset"], **edit)))


def cmd_strain(resolved: dict, out: Path, sink=None) -> tuple[int, dict]:
    model_s = _build_model(resolved["model"])
    if model_s.dim > DENSE_DIM_LIMIT:
        raise ConfigError(
            f"config error at model: strain needs dense Hessians, available for "
            f"dim <= {DENSE_DIM_LIMIT} (model has dim {model_s.dim})")
    model_sp = _second_model(resolved)
    if model_sp.dim != model_s.dim:
        raise ConfigError(
            f"config error at second_model: paired models must share the "
            f"parameter dimension (model has dim {model_s.dim}, second_model "
            f"has dim {model_sp.dim})")
    w0 = _build_init(resolved["init"], model_s, resolved["model"])
    # The start rule is built (and cached for strain_run) before any write,
    # so that an order too large to build is a config error.
    with _allocation("quadrature_order"):
        uniform_rule(resolved["quadrature_order"])
    _write_json(out / "resolved_config.json", resolved)
    wall = {"runner": 0.0, "strain": 0.0, "reports": 0.0}
    work = collections.Counter(strain_workers=0, strain_dense_hessians=0)
    with _timed(wall, "runner"), _allocation("steps"):
        pair = trajectory.run_pair_gd(model_s, model_sp, w0, resolved["eta"], resolved["steps"])
    with _timed(wall, "strain"):
        strain = strain_run(pair, model_s, resolved["quadrature_order"], work=work)
    with _timed(wall, "reports"):
        write_strain_csv(strain, out / "strain.csv")
        diverged = pair.log_s.diverged or pair.log_sp.diverged
        # A pair that diverged at its first step has no recurrence residual.
        _write_json(out / "strain_summary.json", {
            "eta": resolved["eta"], "steps": strain.num_steps,
            "max_recurrence_residual": (float(strain.residual.max())
                                        if strain.num_steps else None),
            "unsettled_steps": strain.unsettled,
            "final_strain_norm": float(np.linalg.norm(strain.delta[-1])),
            "diverged": diverged,
        })
    if sink is not None:
        sink(strain)
    if strain.unsettled:
        print(f"unsettled strain quadrature at steps {_steps(strain.unsettled)}: "
              f"not within {stability_kv.STRAIN_RTOL:g} max(1, |delta_k|) at order "
              f"{stability_kv.STRAIN_MAX_ORDER} or above", file=sys.stderr)
    code = EXIT_DIVERGENCE if diverged else EXIT_ASSERTION if strain.unsettled else EXIT_OK
    return code, {"wall_s": wall, **work}


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _without_nulls(cfg):
    if isinstance(cfg, dict):
        return {k: _without_nulls(v) for k, v in cfg.items() if v is not None}
    return cfg


def _first_mismatch(name: str, stored: bytes, replayed: bytes) -> dict | None:
    """Where the stored output ``name`` first differs from its replay: the
    file, the line (the first is line 1) and, for a CSV file, the name of
    the column; None if the two are byte-identical."""
    csv = name.endswith(".csv")
    # Decoding with surrogateescape loses no byte, so equal lines mean equal files.
    old, new = (text.decode(errors="surrogateescape").split("\r\n" if csv else "\n")
                for text in (stored, replayed))
    for line, (a, b) in enumerate(itertools.zip_longest(old, new), 1):
        if a == b:
            continue
        where = {"file": name, "line": line}
        if csv:
            cells = ([] if text is None else text.split(",") for text in (a, b))
            col = next(i for i, (x, y) in enumerate(itertools.zip_longest(*cells))
                       if x != y)
            header = new[0].split(",")
            where["column"] = header[col] if col < len(header) else None
        return where
    return None


# The checks of ``verify --run-dir`` by command, applied to what the command
# hands to its sink: the model, finished step stream and table of a run or
# of each step size of a balance, the continuation points of a sweep, a
# strain's StrainLog. A localized run adds ``localization``.
_GD_CHECKS = {name: verify.THEOREMS[name]
              for name in ("telescoping_balance", "route_agreement")}
_RUN_DIR_CHECKS = {
    "run": _GD_CHECKS,
    "balance": _GD_CHECKS,
    "bifurcate": {"raw_orbit": verify.raw_orbit},
    "strain": {"recurrence_residual": verify.recurrence_residual},
}


def verify_run_dir(run_dir: Path) -> list[verify.CheckResult]:
    """Re-check a finished directory of any command by running it again.

    The stored ``resolved_config.json`` names the command, is read back
    through its strict readers and fixes every output, bit for bit on one
    host and BLAS. The command runs again into a temporary directory, and
    ``replay`` compares each file it wrote with the stored one, naming for
    each that differs the first differing line (and column, in a CSV
    file). The command hands each run it holds to a sink as it finishes
    it, where the checks of its command in ``_RUN_DIR_CHECKS`` apply; a
    ``balance`` reports them per ``etas[i]``. A config that a reader
    rejects, or a missing output, is a config error naming key or file.
    """
    t0 = time.perf_counter()
    stored = _load_config(str(run_dir / "resolved_config.json"))
    command = _choice(stored, "command", tuple(_COMMANDS))
    del stored["command"]
    # The readers take an absent key for null wherever they accept null, so a
    # stored config resolves to itself and a damaged one fails at its key.
    resolved = {"command": command, **_RESOLVERS[command](_without_nulls(stored))}
    checks = _RUN_DIR_CHECKS[command]
    if command == "run" and resolved["localize"]:
        checks = dict(checks, localization=verify.THEOREMS["localization"])
    outcomes = {name: [] for name in checks}  # (passed, seconds, details) per run

    def sink(*run):
        for name, check in checks.items():
            start = time.perf_counter()
            passed, details = check(*run)
            outcomes[name].append((passed, time.perf_counter() - start, details))

    with tempfile.TemporaryDirectory() as tmp:
        _COMMANDS[command](resolved, Path(tmp), sink)
        replayed = {p.name: p.read_bytes() for p in sorted(Path(tmp).iterdir())}
    mismatches = []
    for name, new in replayed.items():
        try:
            old = (run_dir / name).read_bytes()
        except OSError as exc:
            _fail(str(run_dir / name), f"cannot read: {exc.strerror}")
        if mismatch := _first_mismatch(name, old, new):
            mismatches.append(mismatch)
    checked = []
    for name, runs in outcomes.items():
        if runs:
            passed, seconds, details = zip(*runs)
            checked.append(verify.CheckResult(name, all(passed), sum(seconds), (
                {f"etas[{i}]": d for i, d in enumerate(details)}
                if command == "balance" else details[0])))
    replay_s = time.perf_counter() - t0 - sum(r.seconds for r in checked)
    return [verify.CheckResult("replay", not mismatches, replay_s,
                               {"mismatches": mismatches}), *checked]


def cmd_verify(args) -> int:
    out = _out_dir(args, ".")
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
        resolved = {"command": args.command,
                    **_RESOLVERS[args.command](_load_config(args.config))}
        out = _out_dir(args, resolved["out_dir"])
        code, timings = _COMMANDS[args.command](resolved, out)
        # Timings differ between identical runs, so they live in a file of
        # their own, which no check reads.
        _write_json(out / "timings.json", timings)
        return code
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    except bifurcation.NoBranchError as exc:
        print(f"config error at model: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (edge_metrics.LocalizationError, NonConvergenceError,
            SingularJacobianError, EvaluationError, BracketError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_ASSERTION


if __name__ == "__main__":
    sys.exit(main())
