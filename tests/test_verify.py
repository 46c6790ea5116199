"""The per-run theorems of ``verify``: each has the power to fail."""

import dataclasses

import numpy as np
import pytest

from edge_lab import edge_metrics as em, verify
from edge_lab.loss_models import make_quadratic
from edge_lab.trajectory import run_gd


def _moved_iterate(run):
    """The run with its logged iterate w_100 moved by 1e-6, and the
    localized curvature table of the moved log."""
    model, log, _ = run
    w = log.w_stored.copy()
    w[100] += 1e-6
    moved = dataclasses.replace(log, w_stored=w)
    return model, moved, em.curvature_table(model, moved, localize=True)


def _failed_localization(run):
    """The run with its table's rows 0 and 2 marked as failed to localize:
    NaN points and a LocalizationError each."""
    model, log, table = run
    errors = {int(k): em.LocalizationError(f"step {k} failed") for k in table.k[[0, 2]]}
    cells = {name: getattr(table, name).copy()
             for name in ("xi", "zeta", "q_xi", "lambda_max_xi")}
    for col in cells.values():
        col[[0, 2]] = float("nan")
    return model, log, dataclasses.replace(table, localization_errors=errors, **cells)


class _ScaledProfile:
    """A model whose profile kernel ``segment_profile`` reads 1 + eps times
    the wrapped model's; every other attribute is the wrapped model's."""

    def __init__(self, model, eps):
        self.model, self.eps = model, eps

    def __getattr__(self, name):
        return getattr(self.model, name)

    def segment_profile(self, w, d):
        profile = self.model.segment_profile(w, d)
        return lambda taus: profile(taus) * (1.0 + self.eps)


def _telescoping_fails(details):
    assert details["residual"] > details["tolerance"]


def _names_step_100(details):
    assert details["failed_steps"] == [100]


def _names_failed_steps(details):
    assert list(details["failed_steps"]) == [0, 2]


# Per theorem: (bundled run, a mutation of it that fails the theorem, what
# the failure's details must show).
MUTATIONS = {
    "telescoping_balance": ("quartic_eos", _moved_iterate, _telescoping_fails),
    "route_agreement": ("quartic_eos", _moved_iterate, _names_step_100),
    "localization": ("cubic1d", _failed_localization, _names_failed_steps),
}


@pytest.mark.parametrize("name", list(verify.THEOREMS))
def test_every_theorem_fails_on_its_mutation(name):
    """Every theorem has a named mutation: it passes on the bundled run
    and fails once the run is mutated, so an inert check cannot come
    back. On the quartic, w_100 moved by 1e-6 fails telescoping, and
    route agreement at step 100 only, the one step that starts from the
    moved iterate."""
    assert name in MUTATIONS, f"theorem {name} has no mutation that fails it"
    bundled, mutate, shows = MUTATIONS[name]
    run = verify._bundle()[bundled]
    passed, _ = verify.THEOREMS[name](*run)
    assert passed
    passed, details = verify.THEOREMS[name](*mutate(run))
    assert not passed
    shows(details)


_BUNDLED = ["quad1d", "quad_nd", "cubic1d", "quartic_eos", "linear_net_eos", "mlp_eos"]


@pytest.mark.parametrize("name", _BUNDLED)
def test_route_agreement_holds_on_bundled_run(name):
    """Every bundled run agrees with its exact routes at every step: no
    step fails, and each route's largest gap is at most its bound."""
    bundle = verify._bundle()
    assert list(bundle) == _BUNDLED
    passed, details = verify.THEOREMS["route_agreement"](*bundle[name])
    assert passed and details["failed_steps"] == []
    assert details["max_rbar_gap_over_bound"] <= 1.0
    assert details["max_rtilde_gap_over_bound"] <= 1.0


def test_route_agreement_names_step_before_zeroed_gradient():
    """On 5 w^2 / 2 at eta 0.5 with the logged gradient g_3 zeroed, step 3
    is degenerate and has no row, and step 2 alone fails route agreement:
    its exact rbar reads 1/eta = 2 from the zeroed gradient, while its
    profile integrates to 5. Its loss route, which reads no gradient,
    still agrees."""
    model = make_quadratic([[5.0]], 0.0)
    log = run_gd(model, np.array([1.0]), 0.5, 8)
    log.grads[3] = 0.0
    table = em.curvature_table(model, log)
    assert table.skipped == [3]
    passed, details = verify.THEOREMS["route_agreement"](model, log, table)
    assert not passed and details["failed_steps"] == [2]
    i = list(table.k).index(2)
    assert table.rbar_exact[i] == pytest.approx(2.0)
    assert table.rbar[i] == pytest.approx(5.0)
    assert abs(table.rtilde[i] - table.rtilde_exact[i]) <= table.rtilde_bound[i]


def test_moved_iterate_keeps_localization():
    """Localization holds on the moved quartic run: the mean-value theorem
    puts each step's averages inside the segment it integrates, wherever
    that segment starts."""
    passed, details = verify.THEOREMS["localization"](
        *_moved_iterate(verify._bundle()["quartic_eos"]))
    assert passed and details["localized_fraction"] == 1.0


def test_route_agreement_catches_scaled_kernel():
    """On the bundled MLP run, a profile kernel off by a factor 1 + 1e-11
    fails route agreement, while telescoping still passes: its tolerance
    is four orders of magnitude looser than the shift it makes."""
    model, log, _ = verify._bundle()["mlp_eos"]
    scaled = _ScaledProfile(model, 1e-11)
    table = em.curvature_table(scaled, log)
    passed, details = verify.THEOREMS["route_agreement"](scaled, log, table)
    assert not passed and details["failed_steps"]
    passed, _ = verify.THEOREMS["telescoping_balance"](model, log, table)
    assert passed


def test_localization_reports_failed_steps():
    """A table whose steps 0 and 2 failed to localize fails the theorem
    without raising, names both steps with their messages, and counts
    them out of the localized fraction; a table built without
    localization localizes no step."""
    model, log, table = run = verify._bundle()["cubic1d"]
    passed, details = verify.THEOREMS["localization"](*_failed_localization(run))
    steps = len(table.k)
    assert not passed and details["localized_fraction"] == (steps - 2) / steps
    assert details["failed_steps"] == {k: f"step {k} failed" for k in table.k[[0, 2]]}
    passed, details = verify.THEOREMS["localization"](
        model, log, em.curvature_table(model, log))
    assert not passed and details["localized_fraction"] == 0.0
