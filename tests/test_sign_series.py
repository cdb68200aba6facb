"""Sign-function Hermite series: coefficients, dual forms, decay, asymptotics."""

import math

import numpy as np
import pytest
from scipy.special import sici

from gaussl1.errors import ValidationError
from gaussl1.hermite import GAUSS_CUTOFF, hermite_eval, hermite_zero
from gaussl1.quadrature1d import fixed_panels, integrate_adaptive
from gaussl1.sign_series import (
    _TAYLOR_CUT,
    _hermite_over_t,
    christoffel_darboux_residual,
    parseval_residual,
    plancherel_rotach_remainder,
    remainder_grid,
    sign_coefficient,
    sine_integral,
    truncation,
    truncation_eval_direct,
    truncation_eval_integral,
    truncation_integral_envelopes,
    truncation_l1_error,
)


# -- coefficients -------------------------------------------------------------


def test_coefficient_values():
    assert sign_coefficient(2) == 0.0
    assert sign_coefficient(1) == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-15)
    assert sign_coefficient(3) == pytest.approx(-1.0 / math.sqrt(3.0 * math.pi), abs=1e-15)


def test_coefficient_validation():
    with pytest.raises(ValidationError):
        sign_coefficient(-1)


def test_coefficients_match_quadrature_inner_product():
    # <sign, H_k> via a piecewise Gauss-Legendre rule split at the jump
    def weighted(k, t):
        return hermite_eval(k, t) * np.exp(-0.5 * t * t) / math.sqrt(2 * math.pi)

    for k in range(1, 26, 2):
        plus = fixed_panels(lambda t, k=k: weighted(k, t), 0.0, 12.0, 500, 4)
        minus = fixed_panels(lambda t, k=k: weighted(k, -t), 0.0, 12.0, 500, 4)
        assert abs((plus - minus) - sign_coefficient(k)) <= 1e-8


def test_truncation_structure():
    t = truncation(9)
    assert t.degree == 9
    assert t.odd_coefficients.shape == (5,)
    assert t.coefficient(1) == sign_coefficient(1)
    assert t.coefficient(4) == 0.0
    assert t.coefficient(11) == 0.0
    with pytest.raises(ValidationError):
        truncation(10)
    with pytest.raises(ValidationError):
        truncation(-3)


# -- evaluation: direct and integral forms ------------------------------------


def test_direct_eval_examples():
    t1 = truncation(1)
    assert truncation_eval_direct(t1, 0.0) == 0.0
    assert truncation_eval_direct(t1, 1.0) == pytest.approx(
        math.sqrt(2.0 / math.pi), abs=1e-15
    )


def test_direct_eval_antisymmetry_exact():
    t = truncation(21)
    xs = np.linspace(0.1, 4.0, 17)
    np.testing.assert_array_equal(
        truncation_eval_direct(t, -xs), -truncation_eval_direct(t, xs)
    )


def test_integral_form_examples():
    assert truncation_eval_integral(11, 0.0) == 0.0
    a = truncation_eval_direct(truncation(11), 1.0)
    b = truncation_eval_integral(11, 1.0, tol=1e-10)
    assert abs(a - b) <= 1e-8
    a = truncation_eval_direct(truncation(101), 0.3)
    b = truncation_eval_integral(101, 0.3, tol=1e-8)
    assert abs(a - b) <= 1e-6


def test_integral_form_negative_x_antisymmetric():
    a = truncation_eval_integral(11, -1.3)
    b = truncation_eval_integral(11, 1.3)
    assert a == -b


def test_dual_form_agreement_grid():
    for d in (11, 101, 501):
        t = truncation(d)
        for x in np.linspace(0.05, 3.0, 20):
            direct = truncation_eval_direct(t, float(x))
            integral = truncation_eval_integral(d, float(x), tol=1e-7)
            assert abs(direct - integral) <= 10 * 1e-7


# the loops the shared recurrence replaced, kept as plain references


def _plain_direct(t, x):
    prev, cur, total = np.zeros_like(x), np.ones_like(x), np.zeros_like(x)
    for k in range(1, t.degree + 1):
        prev, cur = cur, (x * cur - math.sqrt(k - 1) * prev) / math.sqrt(k)
        if k % 2 == 1:
            total = total + t.odd_coefficients[(k - 1) // 2] * cur
    return total


def _plain_last(d, x, start):
    prev, cur = np.zeros_like(x), start.copy()
    for k in range(d):
        prev, cur = cur, (x * cur - math.sqrt(k) * prev) / math.sqrt(k + 1)
    return cur


def _plain_over_t(d, t):
    out = np.empty_like(t)
    small = np.abs(t) < _TAYLOR_CUT
    c0 = math.sqrt(d) * hermite_zero(d - 1)
    c2 = math.sqrt(d * (d - 1) * (d - 2)) * hermite_zero(d - 3) / 6.0
    out[small] = c0 + c2 * t[small] ** 2
    ts = t[~small]
    out[~small] = _plain_last(d, ts, np.ones_like(ts)) / ts
    return out


def test_direct_eval_bit_identical_to_plain_recurrence():
    x = np.concatenate([np.linspace(-6.0, 6.0, 1001), [0.0, -0.0, 1e-300]])
    for d in (1, 21, 101, 1001):
        t = truncation(d)
        assert np.array_equal(truncation_eval_direct(t, x), _plain_direct(t, x))
        assert truncation_eval_direct(t, 0.3) == float(_plain_direct(t, np.float64(0.3)))


def test_remainder_grid_bit_identical_to_plain_recurrence():
    for d in (11, 101, 201):
        x = np.linspace(-math.sqrt(d), math.sqrt(d), 2001)
        scaled = _plain_last(d, x, np.exp(-0.25 * x * x)) * (math.pi * d / 2.0) ** 0.25
        remainder, _ = remainder_grid(d, x)
        want = scaled - np.sin((1 - d) * math.pi / 2.0 + math.sqrt(d) * x)
        assert np.array_equal(remainder, want)


def test_integral_form_bit_identical_to_plain_recurrence():
    d, tol = 101, 1e-9
    prefactor = math.sqrt(2.0 * d / math.pi) * hermite_zero(d - 1)
    seen = []

    def integrand(t):
        seen.append(np.abs(t) < _TAYLOR_CUT)
        return _plain_over_t(d, t)

    for x in (5e-5, 1.5e-4, 0.8, -2.3):
        pieces = max(4, int(math.ceil(abs(x) * math.sqrt(d) / math.pi)) + 1)
        integral = integrate_adaptive(
            integrand,
            0.0,
            abs(x),
            abs_tol=tol / max(1.0, abs(prefactor)),
            initial_intervals=pieces,
        )
        want = math.copysign(prefactor * integral, x)
        assert truncation_eval_integral(d, x, tol=tol) == want
    # the Taylor branch, the recurrence branch, and both in one batch
    assert any(s.all() for s in seen) and any(not s.any() for s in seen)
    assert any(s.any() and not s.all() for s in seen)


def test_integral_form_validation():
    with pytest.raises(ValidationError):
        truncation_eval_integral(10, 1.0)


# -- L1 error and Parseval ----------------------------------------------------


def test_l1_error_positive_and_decreasing():
    errors = {d: truncation_l1_error(d) for d in (3, 11, 41)}
    assert all(e > 0 for e in errors.values())
    assert errors[3] > errors[11] > errors[41]


def test_l1_error_against_composite_panel_oracle():
    # independent route: brute-force composite Gauss-Legendre with panels far
    # smaller than the kink spacing of |1 - trunc| (GH itself converges too
    # slowly here because of the kinks)
    d = 11
    t = truncation(d)

    def integrand(x):
        dens = np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
        return np.abs(1.0 - truncation_eval_direct(t, x)) * dens

    oracle = 2.0 * fixed_panels(integrand, 0.0, 12.0, 20, 3200)
    assert truncation_l1_error(d) == pytest.approx(oracle, abs=1e-6)


def test_parseval_residual_decreasing_positive():
    values = [parseval_residual(d) for d in (1, 9, 99, 999)]
    assert values[0] == pytest.approx(1.0 - 2.0 / math.pi, abs=1e-14)
    assert all(v > 0 for v in values)
    assert all(a > b for a, b in zip(values, values[1:]))


# -- oscillatory asymptotics ---------------------------------------------------


def test_remainder_zero_at_origin_odd_degree():
    # H_d(0) vanishes exactly in the recurrence; the sin((1-d)pi/2) term
    # carries ~d ulp from reducing the huge phase argument, hence the scale
    sample = plancherel_rotach_remainder(2001, 0.0)
    assert sample.remainder == pytest.approx(0.0, abs=1e-12)


def test_remainder_within_constant_times_envelope():
    sample = plancherel_rotach_remainder(2001, 0.5)
    assert abs(sample.remainder) <= 20.0 * sample.envelope


def test_remainder_shrinks_by_decade():
    r201 = plancherel_rotach_remainder(201, 0.5).remainder
    r2001 = plancherel_rotach_remainder(2001, 0.5).remainder
    assert abs(r201) / abs(r2001) >= 2.0


def test_remainder_domain_validation():
    with pytest.raises(ValidationError):
        plancherel_rotach_remainder(100, 11.0)


def test_remainder_grid_matches_definition():
    # re-derive the remainder from its definition at moderate degree where
    # H_d is still computable without scaling tricks
    d, x = 45, 0.8
    r, _ = remainder_grid(d, np.array([x]))
    direct = hermite_eval(d, x) * math.exp(-x * x / 4.0) * (math.pi * d / 2.0) ** 0.25
    direct -= math.sin((1 - d) * math.pi / 2.0 + math.sqrt(d) * x)
    assert float(r[0]) == pytest.approx(direct, abs=1e-12)


def test_christoffel_darboux_small_degrees():
    assert christoffel_darboux_residual(1, 1.0) <= 1e-15
    for d in range(1, 51):
        for x in (-3.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 3.0):
            assert christoffel_darboux_residual(d, x) <= 1e-8


def test_christoffel_darboux_near_origin():
    assert christoffel_darboux_residual(50, 0.01) <= 1e-6


def test_christoffel_darboux_validation():
    with pytest.raises(ValidationError):
        christoffel_darboux_residual(50, 0.0)
    with pytest.raises(ValidationError):
        christoffel_darboux_residual(0, 1.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: truncation_eval_integral(101, math.inf),
        lambda: truncation_eval_integral(101, -math.inf),
        lambda: truncation_eval_integral(101, math.nan),
        lambda: plancherel_rotach_remainder(101, math.nan),
        lambda: remainder_grid(101, np.array([0.5, math.nan])),
        lambda: christoffel_darboux_residual(50, math.inf),
        lambda: christoffel_darboux_residual(50, math.nan),
    ],
    ids=["integral-inf", "integral-neg-inf", "integral-nan", "remainder-nan", "grid-nan",
         "darboux-inf", "darboux-nan"],
)
def test_non_finite_arguments_raise_validation_error(call):
    # a bare OverflowError or ValueError, or a NaN result, is no answer
    with pytest.raises(ValidationError):
        call()


# -- sine integral -------------------------------------------------------------


def test_sine_integral_values():
    assert sine_integral(0.0) == 0.0
    assert sine_integral(math.pi) == pytest.approx(1.8519370519824661, abs=1e-10)
    # Dirichlet limit pi/2
    assert (2.0 / math.pi) * sine_integral(1e4) == pytest.approx(1.0, abs=1e-3)


def test_sine_integral_against_scipy():
    for z in (0.1, 1.0, 3.9, 4.0, 4.1, 10.0, 50.0, 200.0):
        assert sine_integral(z) == pytest.approx(float(sici(z)[0]), abs=1e-10)


def test_sine_integral_series_vs_quadrature_consistency():
    # the z=4 series/quadrature handoff must be seamless
    direct = integrate_adaptive(
        lambda t: np.sin(t) / t, 1e-12, 6.0, abs_tol=1e-12, initial_intervals=4
    )
    assert sine_integral(6.0) == pytest.approx(direct, abs=1e-10)


def test_sine_integral_limit_envelope():
    # |1 - (2/pi) Si(z)| <= C min(1, 1/z) holds with C = 1 (measured sup 0.994)
    for z in np.concatenate([np.linspace(0.01, 4, 40), np.linspace(4, 120, 40)]):
        dev = abs(1.0 - (2.0 / math.pi) * sine_integral(float(z)))
        assert dev <= 1.0 * min(1.0, 1.0 / float(z)) + 1e-12


def test_sine_integral_validation():
    with pytest.raises(ValidationError):
        sine_integral(-1.0)
    with pytest.raises(ValidationError):
        sine_integral(1.0, tol=0.0)


# -- envelope integrals ---------------------------------------------------------


def test_envelopes_at_calibration_point():
    report = truncation_integral_envelopes(101, 1.0)
    assert report.small_t_passed
    assert report.large_t_passed
    assert report.passed


def test_envelope_large_t_tau3():
    report = truncation_integral_envelopes(101, 3.0)
    # tau = 3 exceeds 101^{1/6}, so only the large-t branch applies
    assert report.small_t_value is None
    assert report.large_t_value <= math.exp(-9.0 / 4.0)


def test_envelope_large_t_matches_scipy_erfc_integrand():
    from scipy.special import erfc

    # the same tail integral with scipy's erfc as the Gaussian upper tail
    reference = integrate_adaptive(
        lambda t: _hermite_over_t(101, t, absolute=True) * 0.5 * erfc(t / math.sqrt(2.0)),
        3.0,
        GAUSS_CUTOFF,
        abs_tol=1e-9,
        initial_intervals=max(8, int(math.ceil(GAUSS_CUTOFF * math.sqrt(101) / math.pi))),
    )
    report = truncation_integral_envelopes(101, 3.0)
    assert report.large_t_value == pytest.approx(reference, rel=1e-12, abs=0.0)


def test_envelope_small_t_degree_scaling():
    v101 = truncation_integral_envelopes(101, 1.0).small_t_value
    v401 = truncation_integral_envelopes(401, 1.0).small_t_value
    # measured integrals stay within a factor 2 of d^{1/4} scaling
    ratio = (v401 / v101) / (401.0 / 101.0) ** 0.25
    assert 0.5 <= ratio <= 2.0


def test_envelope_validation():
    with pytest.raises(ValidationError):
        truncation_integral_envelopes(100, 1.0)
    with pytest.raises(ValidationError):
        truncation_integral_envelopes(101, 0.5)


@pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf, 0.5])
def test_envelope_tau_must_be_finite_and_at_least_one(tau):
    with pytest.raises(ValidationError, match="tau must be finite and >= 1"):
        truncation_integral_envelopes(11, tau)


@pytest.mark.parametrize("tau", [GAUSS_CUTOFF, 12.5, 40.0])
def test_envelope_large_t_value_is_zero_past_the_cutoff(tau):
    # every Gaussian-weighted integral is cut at GAUSS_CUTOFF: nothing is left
    report = truncation_integral_envelopes(11, tau)
    assert report.large_t_value == 0.0
    assert report.large_t_bound == math.exp(-tau * tau / 4.0)
    assert report.small_t_value is None and report.passed


def test_envelope_report_serialization():
    d = truncation_integral_envelopes(101, 1.0).to_dict()
    assert d["pass"] is True
    assert d["degree"] == 101


@pytest.mark.parametrize(
    "call",
    [
        lambda: remainder_grid(2.5, np.linspace(0.0, 1.0, 5)),
        lambda: plancherel_rotach_remainder(2.5, 0.5),
    ],
    ids=["grid", "point"],
)
def test_fractional_degrees_raise(call):
    with pytest.raises(ValidationError, match="integer"):
        call()
