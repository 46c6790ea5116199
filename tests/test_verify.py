"""The per-run theorems of ``verify``: each has the power to fail."""

import dataclasses

import pytest

from edge_lab import edge_metrics as em, verify


@pytest.mark.parametrize("name", list(verify.THEOREMS))
def test_theorem_fails_on_moved_iterate(name):
    """Each theorem passes on the bundled quartic run and fails once its
    logged iterate w_100 is moved by 1e-6, with the curvature table of the
    moved log; it names step 99, the first whose iterate no longer follows
    its step. The telescoping residual also exceeds its tolerance."""
    model, log, table = verify._bundle()["quartic_eos"]
    theorem = verify.THEOREMS[name]
    passed, details = theorem(model, log, table)
    assert passed and details["first_off_step"] is None
    w = log.w_stored.copy()
    w[100] += 1e-6
    moved = dataclasses.replace(log, w_stored=w)
    passed, details = theorem(model, moved, em.curvature_table(model, moved))
    assert not passed and details["first_off_step"] == 99
    if name == "telescoping_balance":
        assert details["residual"] > details["tolerance"]
