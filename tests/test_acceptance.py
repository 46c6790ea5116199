"""Acceptance gate: every criterion at its pinned tolerance.

Each test runs one named check from the verification suite, prints a
pass/fail line (visible with ``pytest -s``), and asserts both the check
outcome and its runtime budget. Run with::

    pytest tests/test_acceptance.py -v -s
"""

import sys

from edge_lab import verify

_RESULTS: dict = {}


def _run(name: str, budget_seconds: float | None = None):
    if name not in _RESULTS:
        _RESULTS[name] = verify.CHECKS[name]()
    res = _RESULTS[name]
    line = f"[{'PASS' if res.passed else 'FAIL'}] {name} ({res.seconds:.1f}s)"
    print(line, file=sys.stderr)
    assert res.passed, f"{name} failed: {res.details}"
    if budget_seconds is not None:
        assert res.seconds < budget_seconds, \
            f"{name} took {res.seconds:.1f}s, budget {budget_seconds}s"
    return res


class TestAcceptance:
    def test_criterion_01_quadratic_exactness(self):
        """Curvature routes, propagator and telescoping exact on quadratics."""
        res = _run("quadratic_exactness", budget_seconds=1.0)
        assert res.details["route_agreement"] <= 1e-10
        assert res.details["propagator"] <= 1e-10
        assert res.details["telescoping"] <= 1e-10

    def test_criterion_02_independent_edge_balance(self):
        """Quadrature-route telescoping balance on quartic, linear-net, MLP."""
        res = _run("edge_balance_independent", budget_seconds=30.0)
        assert res.details["quartic_residual"] <= res.details["quartic_tolerance"]
        assert res.details["linear_net_residual"] <= res.details["linear_net_tolerance"]
        assert res.details["mlp_residual"] <= res.details["mlp_tolerance"]

    def test_criterion_03_eos_saturation(self):
        """Weighted-mean curvature within 5% of 2/eta over the final quarter."""
        res = _run("mlp_saturation", budget_seconds=180.0)
        assert res.details["initial_sharpness"] < res.details["threshold"]
        assert res.details["tail_relative_deviation"] <= 0.05
        assert res.details["forcing_bound_everywhere"]

    def test_criterion_04_localization(self):
        """Interior curvature points found at every step, sharpness
        dominates at all of them."""
        res = _run("localization", budget_seconds=30.0)
        for name, entry in res.details.items():
            assert entry["localized_fraction"] == 1.0, name
            assert entry["failed_steps"] == {}, name
            assert entry["sharpness_bound_ok"], name

    def test_criterion_05_scalar_pitchfork(self):
        """Continuation matches the closed-form amplitude; exponent 0.5."""
        res = _run("scalar_pitchfork", budget_seconds=5.0)
        assert res.details["amplitude_relative_error"] <= 1e-8
        assert abs(res.details["exponent"] - 0.5) <= 0.02

    def test_criterion_06_linear_net_normal_form(self):
        """Transverse spectrum, quartic coefficient -4, critical step size,
        width invariance, empirical branch exponent."""
        res = _run("linear_net_normal_form", budget_seconds=120.0)
        assert res.details["spectrum_error"] <= 1e-8
        assert abs(res.details["quartic_u_c"] + 4.0) <= 1e-4
        assert res.details["eta_c_error"] <= 1e-10
        assert res.details["width_invariance"] <= 1e-13
        assert abs(res.details["empirical_exponent"] - 0.5) <= 0.05

    def test_criterion_07_near_periodicity(self):
        """MLP return ratio below 0.3 past onset."""
        res = _run("near_periodicity", budget_seconds=10.0)
        assert res.details["mlp_post_onset_median_ratio"] < 0.3

    def test_criterion_08_mechanism_suites(self):
        """Oscillatory cancellation, propagator bound."""
        res = _run("mechanisms", budget_seconds=10.0)
        assert res.details["oscillatory_violations"] == 0
        assert res.details["propagator_violations"] == 0

    def test_criterion_09_kelvin_voigt(self):
        """Strain recurrence, propagator formula, quadratic closed form."""
        res = _run("kelvin_voigt", budget_seconds=30.0)
        assert res.details["quadratic_recurrence_residual"] <= 1e-10
        assert res.details["linear_net_recurrence_residual"] <= 1e-10
        assert res.details["mlp_recurrence_residual"] <= 1e-10
        assert res.details["propagator_formula"] <= 1e-10
        assert res.details["quadratic_closed_form"] <= 1e-10

    def test_criterion_10_stochastic_balance(self):
        """Noisy balance exact on quadratics; mini-batch cross term unbiased."""
        res = _run("stochastic_balance", budget_seconds=180.0)
        assert res.details["quadratic_identity_residual"] <= 1e-9
        assert abs(res.details["z_score"]) <= 3.0

    def test_criterion_12_route_agreement(self):
        """Each step's quadrature averages within their bounds of the exact
        routes, on every bundled and long run."""
        res = _run("route_agreement", budget_seconds=30.0)
        for name, entry in res.details.items():
            assert entry["failed_steps"] == [], name
            assert entry["max_rbar_gap_over_bound"] <= 1.0, name
            assert entry["max_rtilde_gap_over_bound"] <= 1.0, name

    def test_criterion_11_full_suite(self):
        """The complete verification suite passes within its wall budget."""
        for name in verify.SUITES["full"]:
            _run(name)
        total = sum(r.seconds for r in _RESULTS.values())
        print(f"[INFO] full suite wall time {total:.1f}s", file=sys.stderr)
        assert all(r.passed for r in _RESULTS.values())
        assert total < 600.0
