"""The per-run theorems of ``verify``: each has the power to fail."""

import dataclasses

import pytest

from edge_lab import edge_metrics as em, verify


@pytest.mark.parametrize("name", list(verify.THEOREMS))
def test_theorem_fails_on_moved_iterate(name):
    """Each theorem passes on the bundled quartic run and fails once its
    logged iterate w_100 is moved by 1e-6, with the localized curvature
    table of the moved log; it names step 99, the first whose iterate no
    longer follows its step. The telescoping residual also exceeds its
    tolerance."""
    model, log, _ = run = verify._bundle()["quartic_eos"]
    theorem = verify.THEOREMS[name]
    passed, details = theorem(run)
    assert passed and details["first_off_step"] is None
    w = log.w_stored.copy()
    w[100] += 1e-6
    moved = dataclasses.replace(log, w_stored=w)
    passed, details = theorem(verify.GdRun(
        model, moved, em.curvature_table(model, moved, localize=True)))
    assert not passed and details["first_off_step"] == 99
    if name == "telescoping_balance":
        assert details["residual"] > details["tolerance"]


def test_localization_reports_failed_steps():
    """A table whose steps 0 and 2 failed to localize fails the theorem
    without raising, names both steps with their messages, and counts
    them out of the localized fraction; a table built without
    localization localizes no step."""
    model, log, table = verify._bundle()["cubic1d"]
    errors = {int(k): em.LocalizationError(f"step {k} failed") for k in table.k[[0, 2]]}
    cells = {name: getattr(table, name).copy()
             for name in ("xi", "zeta", "q_xi", "lambda_max_xi")}
    for col in cells.values():
        col[[0, 2]] = float("nan")
    failed = dataclasses.replace(table, localization_errors=errors, **cells)
    passed, details = verify.THEOREMS["localization"](verify.GdRun(model, log, failed))
    steps = len(table.k)
    assert not passed and details["localized_fraction"] == (steps - 2) / steps
    assert details["failed_steps"] == {k: f"step {k} failed" for k in errors}
    passed, details = verify.THEOREMS["localization"](
        verify.GdRun(model, log, em.curvature_table(model, log)))
    assert not passed and details["localized_fraction"] == 0.0
