"""Acceptance suite: every stated guarantee at its stated tolerance.

Runs the same checks as `smoothgan verify --suite all`, one test per check
group, printing the PASS/FAIL line for each record.  The trainer checks run
the full 12-configuration grid at 10^4 steps twice and are the slow part of
the suite, most of the whole tier-1 run of about 80 s on two cores.
"""

import math

import pytest

import smoothgan.verify as verify_mod
from smoothgan.verify import (CheckResult, check_beta2_certificate, check_bregman_identity,
                              check_cross_hessian, check_envelopes, check_gan2d_equilibrium,
                              check_gradient_oracles, check_instability_contrast,
                              check_network_bounds, check_rkhs_series,
                              check_stationarity_and_descent, check_w1_oracle_equivalence)


def _assert_all(results):
    for r in results:
        print(r.line())
    failed = [r.name for r in results if not r.passed]
    assert not failed, f"failed checks: {failed}"


def test_criterion_stationarity_and_descent():
    # stationarity bound and per-step descent at the prescribed step size
    _assert_all(check_stationarity_and_descent())


def test_criterion_instability_contrast():
    _assert_all(check_instability_contrast())


def test_criterion_beta2_certificate():
    _assert_all(check_beta2_certificate())


def test_criterion_bregman_identity():
    _assert_all(check_bregman_identity())


def test_criterion_cross_hessian():
    _assert_all(check_cross_hessian())


def test_criterion_w1_oracle_and_ratio():
    _assert_all(check_w1_oracle_equivalence())


def test_criterion_envelopes():
    _assert_all(check_envelopes())


def test_criterion_network_bounds():
    _assert_all(check_network_bounds())


def test_criterion_rkhs_series():
    _assert_all(check_rkhs_series())


def test_criterion_gradient_oracles():
    _assert_all(check_gradient_oracles())


def test_criterion_gan2d_equilibrium():
    _assert_all(check_gan2d_equilibrium())


@pytest.mark.parametrize("observed, lo, hi, passed", [
    (1.0, -math.inf, 1.0, True), (1.0 + 1e-12, -math.inf, 1.0, False),
    (math.nan, -math.inf, 1.0, False),
    (0.1, 0.1, math.inf, True), (0.1 - 1e-12, 0.1, math.inf, False),
    (math.nan, 0.1, math.inf, False),
    (2.0, 1.0, 2.0, True), (2.5, 1.0, 2.0, False), (0.5, 1.0, 2.0, False),
    (math.nan, 1.0, 2.0, False),
], ids=["upper-on", "upper-past", "upper-nan", "lower-on", "lower-past", "lower-nan",
        "two-sided-on", "two-sided-above", "two-sided-below", "two-sided-nan"])
def test_check_result_passed(observed, lo, hi, passed):
    r = CheckResult("x", observed, lo, hi)
    assert r.passed is passed
    assert r.line().startswith("PASS" if passed else "FAIL")


def test_line_tells_observed_from_bound_in_the_7th_digit():
    line = CheckResult("operator norm", 1.0, hi=1.0 + 1e-6).line()
    assert "observed 1, bound <= 1.000001 " in line


def test_nan_transport_lp_fails_its_record(monkeypatch):
    monkeypatch.setattr(verify_mod, "w1_lp", lambda mu, nu: math.nan)
    rec = {r.name: r for r in check_w1_oracle_equivalence()}
    assert not rec["w1 closed form vs transport LP (100 pairs)"].passed


def test_nan_kr_norm_fails_both_mmd_records(monkeypatch):
    monkeypatch.setattr(verify_mod, "kr_norm_1d", lambda m: math.nan)
    failed = [r.name for r in check_cross_hessian() if not r.passed]
    assert len(failed) == 2 and all(name.startswith("MMD^2") for name in failed)
