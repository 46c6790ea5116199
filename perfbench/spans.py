"""Outside-in tracer for edge-lab and the per-layer metrics derived from it.

``Tracer.install`` wraps, from outside the package, every public function of
the layer modules and the ``LossModel`` interface methods, then rebinds the
names the modules imported from each other (``edge_metrics.triangular_rule``,
``bifurcation.run_gd``, ``cli.strain_run``, ...) to the wrappers, so that
every call crossing a layer boundary opens a span. A span is
``[name, parent, start, end]``, ``parent`` being the index of the enclosing
span (-1 at the root). Spans stay in memory until ``dump``. The package runs
single-threaded under the benchmark, so one stack of open spans suffices.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("loss_models", "numerics", "trajectory", "edge_metrics",
          "stability_kv", "bifurcation")
MODEL_METHODS = ("value", "gradient", "hvp", "hessian_dense",
                 "directional_curvature")
HVP_PARENTS = ("directional_curvature", "hessian_dense", "lambda_max_iter")


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack = [-1]

    def wrap(self, name: str, fn, suffix_arg: tuple[int, str] | None = None):
        """``fn`` recording one span per call; ``suffix_arg`` = (position,
        keyword) of an argument whose value is appended to the span name."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name
            if suffix_arg is not None:
                pos, key = suffix_arg
                label = f"{name}.{kwargs.get(key, args[pos] if len(args) > pos else '')}"
            rec = [label, stack[-1], clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[3] = clock()
        return traced

    def install(self) -> None:
        """Wrap the imported ``edge_lab`` package in place."""
        from edge_lab import cli, loss_models

        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"edge_lab.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    suffix = (3, "mode") if (layer, attr) == (
                        "bifurcation", "branch_sweep") else None
                    wrapped[obj] = self.wrap(f"{layer}.{attr}", obj, suffix)
        for obj in vars(loss_models).values():
            if inspect.isclass(obj) and issubclass(obj, loss_models.LossModel):
                for meth in MODEL_METHODS:
                    if meth in vars(obj):
                        setattr(obj, meth, self.wrap(f"loss_models.{meth}",
                                                     vars(obj)[meth]))
        wrapped[cli.main] = self.wrap("cli.main", cli.main)
        for name, mod in list(sys.modules.items()):
            if name == "edge_lab" or name.startswith("edge_lab."):
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrapped:
                        setattr(mod, attr, wrapped[obj])

    def dump(self, path) -> None:
        names: dict[str, int] = {}
        rows = [[names.setdefault(n, len(names)), p, s, e]
                for n, p, s, e in self.spans]
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "names": list(names),
                       "spans": rows}, fh)


def load(path) -> list[tuple[str, int, float, float]]:
    """The spans ``dump`` wrote, as (name, parent, start, end)."""
    with open(path) as fh:
        data = json.load(fh)
    names = data["names"]
    return [(names[n], p, s, e) for n, p, s, e in data["spans"]]


def _quantile(sorted_vals: list[float], q: float) -> float:
    if not sorted_vals:
        return 0.0
    return sorted_vals[min(len(sorted_vals) - 1, int(q * len(sorted_vals)))]


def summarize(spans, steps: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics {name: (value, unit)} from one traced run.

    ``steps`` is the workload's step count, the base of ``hvp_per_step``.
    A span's self time is its duration minus its direct children's.
    Metrics of a layer the workload never reaches read 0.
    """
    n = len(spans)
    dur = [e - s for _, _, s, e in spans]
    child = [0.0] * n
    for i, (_, p, _, _) in enumerate(spans):
        if p >= 0:
            child[p] += dur[i]
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    durs: dict[str, list[float]] = {}
    for i, (name, _, _, _) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + dur[i] - child[i]
        durs.setdefault(name, []).append(dur[i])

    def ancestor(i: int, names) -> int:
        """Index of the nearest enclosing span named in ``names``, or -1."""
        p = spans[i][1]
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][1]
        return p

    def count_under(name: str, ancestors) -> int:
        return sum(1 for i in range(n)
                   if spans[i][0] == name and ancestor(i, ancestors) >= 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, tuple[float, str]] = {}

    def layer(name: str, *fields: str) -> None:
        for f in fields:
            if f == "calls":
                out[f"{name}.calls"] = (calls.get(name, 0), "count")
            elif f == "self_s":
                out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
            else:
                q = {"us_p50": 0.5, "us_p99": 0.99}[f]
                out[f"{name}.{f}"] = (
                    1e6 * _quantile(sorted(durs.get(name, [])), q), "us")

    hvp = "loss_models.hvp"
    layer(hvp, "calls", "self_s", "us_p50", "us_p99")
    by_parent = dict.fromkeys(HVP_PARENTS + ("other",), 0)
    for i in range(n):
        if spans[i][0] == hvp:
            p = spans[i][1]
            short = spans[p][0].rsplit(".", 1)[-1] if p >= 0 else "other"
            by_parent[short if short in by_parent else "other"] += 1
    for short, c in by_parent.items():
        out[f"{hvp}.calls_by_parent.{short}"] = (c, "count")
    layer("loss_models.directional_curvature", "calls", "self_s")
    layer("loss_models.value", "calls", "self_s")
    layer("loss_models.gradient", "calls", "self_s")
    layer("loss_models.hessian_dense", "calls", "self_s")

    rules = ("numerics.uniform_rule", "numerics.triangular_rule")
    out["numerics.rule_builds"] = (sum(calls.get(r, 0) for r in rules), "count")
    out["numerics.rule_builds.self_s"] = (
        sum(self_s.get(r, 0.0) for r in rules), "s")
    lmi = "numerics.lambda_max_iter"
    layer(lmi, "calls", "self_s")
    out[f"{lmi}.hvp_per_call"] = (
        ratio(count_under(hvp, {lmi}), calls.get(lmi, 0)), "count/call")
    layer("numerics.brent_root", "calls", "self_s")
    layer("numerics.dense_eigh", "calls", "self_s")

    gd = "trajectory.run_gd"
    layer(gd, "calls", "self_s")
    gd_steps = count_under("loss_models.value", {gd}) - calls.get(gd, 0)
    out[f"{gd}.steps"] = (gd_steps, "count")
    out[f"{gd}.us_per_step"] = (
        ratio(1e6 * sum(durs.get(gd, [])), gd_steps), "us/step")
    layer("trajectory.run_pair_gd", "self_s")
    layer("trajectory.write_trajectory_csv", "self_s")

    quads = ("edge_metrics.effective_curvature_quadrature",
             "edge_metrics.step_mean_curvature_quadrature")
    layer(quads[0], "calls", "self_s", "us_p50", "us_p99")
    layer(quads[1], "calls", "self_s")
    # A node is useful when it belongs to the rule the quadrature call
    # returned: the evaluations after the call's last rule build.
    rule_names = set(rules)
    attempted = 0
    evals_after: dict[int, int] = {}
    for i in range(n):
        name = spans[i][0]
        if name in rule_names or name == "loss_models.directional_curvature":
            q = ancestor(i, quads)
            if q < 0:
                continue
            if name in rule_names:
                evals_after[q] = 0
            else:
                attempted += 1
                evals_after[q] = evals_after.get(q, 0) + 1
    useful = sum(evals_after.values())
    out["edge_metrics.quadrature.nodes_per_step"] = (
        ratio(attempted, sum(calls.get(q, 0) for q in quads)), "count/call")
    out["edge_metrics.quadrature.useful_node_share"] = (
        ratio(useful, attempted), "ratio")
    layer("edge_metrics.edge_balance_report", "self_s")
    layer("edge_metrics.write_metrics_csv", "self_s")
    loc = "edge_metrics.localize"
    layer(loc, "calls", "self_s")
    out[f"{loc}.curvature_evals_per_call"] = (
        ratio(count_under("loss_models.directional_curvature", {loc}),
              calls.get(loc, 0)), "count/call")
    layer("edge_metrics.localized_sharpness", "calls", "self_s")

    sr = "stability_kv.strain_run"
    layer(sr, "self_s")
    out[f"{sr}.hvp_per_step"] = (
        ratio(count_under(hvp, {sr}), steps) if calls.get(sr) else 0.0,
        "count/step")
    layer("stability_kv.excursion_kappa", "calls", "self_s")
    layer("stability_kv.write_strain_csv", "self_s")

    sweep = "bifurcation.branch_sweep"
    modes = ("continuation", "empirical")
    out[f"{sweep}.self_s"] = (
        sum(self_s.get(f"{sweep}.{m}", 0.0) for m in modes), "s")
    for m in modes:
        layer(f"{sweep}.{m}", "self_s")
    p2 = "bifurcation.period_two_solve"
    layer(p2, "calls", "self_s")
    out[f"{p2}.hessian_dense_per_call"] = (
        ratio(count_under("loss_models.hessian_dense", {p2}),
              calls.get(p2, 0)), "count/call")
    layer("bifurcation.quartic_coefficient", "self_s")
    layer("bifurcation.critical_eta", "self_s")
    layer("cli.main", "self_s")
    return out
