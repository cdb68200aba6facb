"""Adaptive Gauss-Legendre quadrature against closed-form integrals."""

import math
import warnings

import numpy as np
import pytest

from gaussl1 import quadrature1d
from gaussl1.errors import EvaluationError, ToleranceError, ValidationError
from gaussl1.quadrature1d import fixed_panels, integrate_adaptive
from gaussl1.sign_series import (
    sine_integral,
    truncation_eval_integral,
    truncation_integral_envelopes,
    truncation_l1_error,
)


def test_polynomial_exactness():
    got = integrate_adaptive(lambda t: 3 * t**2, 0.0, 2.0, abs_tol=1e-12)
    assert got == pytest.approx(8.0, abs=1e-12)


def test_smooth_transcendental():
    got = integrate_adaptive(np.exp, -1.0, 1.0, abs_tol=1e-12)
    assert got == pytest.approx(math.e - 1.0 / math.e, abs=1e-12)


def test_oscillatory():
    # int_0^{20 pi} sin(t) dt = 0; needs subdivision to resolve
    got = integrate_adaptive(np.sin, 0.0, 20 * math.pi, abs_tol=1e-10, initial_intervals=8)
    assert got == pytest.approx(0.0, abs=1e-10)


def test_abs_kink_with_breakpoint():
    got = integrate_adaptive(np.abs, -1.0, 2.0, abs_tol=1e-12, breakpoints=[0.0])
    assert got == pytest.approx(2.5, abs=1e-12)


def test_abs_kink_without_breakpoint_still_converges():
    got = integrate_adaptive(np.abs, -1.0, 2.0, abs_tol=1e-9)
    assert got == pytest.approx(2.5, abs=1e-9)


def test_breakpoints_outside_interval_ignored():
    got = integrate_adaptive(np.exp, 0.0, 1.0, abs_tol=1e-12, breakpoints=[-5.0, 7.0])
    assert got == pytest.approx(math.e - 1.0, abs=1e-12)


def test_gaussian_mass():
    def dens(t):
        return np.exp(-0.5 * t * t) / math.sqrt(2 * math.pi)

    got = integrate_adaptive(dens, -12.0, 12.0, abs_tol=1e-13)
    assert got == pytest.approx(1.0, abs=1e-13)


def test_validation():
    with pytest.raises(ValidationError):
        integrate_adaptive(np.exp, 1.0, 1.0)
    with pytest.raises(ValidationError):
        integrate_adaptive(np.exp, 2.0, 1.0)
    with pytest.raises(ValidationError):
        integrate_adaptive(np.exp, 0.0, 1.0, abs_tol=0.0)


def _never_called(t):
    raise AssertionError("the integrand was evaluated")


@pytest.mark.parametrize(
    "call",
    [
        lambda: integrate_adaptive(_never_called, 0.0, 1.0, abs_tol=math.nan),
        lambda: integrate_adaptive(_never_called, 0.0, 1.0, abs_tol=math.inf),
        lambda: integrate_adaptive(_never_called, 0.0, math.inf),
        lambda: integrate_adaptive(_never_called, -math.inf, 1.0),
        lambda: integrate_adaptive(_never_called, math.nan, 1.0),
        lambda: sine_integral(6.0, tol=math.nan),
        lambda: sine_integral(6.0, tol=math.inf),
        lambda: truncation_l1_error(101, abs_tol=math.nan),
        lambda: truncation_eval_integral(101, 0.5, tol=math.nan),
        lambda: truncation_integral_envelopes(101, 1.0, abs_tol=math.nan),
    ],
    ids=[
        "nan-tol", "inf-tol", "inf-b", "inf-a", "nan-a", "sine-nan-tol", "sine-inf-tol",
        "l1-error-nan-tol", "eval-integral-nan-tol", "envelopes-nan-tol",
    ],
)
def test_non_finite_tolerance_or_endpoint_fails_fast(call):
    # a NaN tolerance used to pass the `<= 0` test and bisect to the
    # 200,000-interval cap before a ToleranceError; an infinite endpoint
    # evaluated the integrand at NaN nodes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="finite"):
            call()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_integrand():
    def f(t):
        return 1.0 / t  # pole inside the interval

    with pytest.raises((EvaluationError, ToleranceError)):
        integrate_adaptive(f, -1.0, 1.0, abs_tol=1e-12)


def test_budget_exhaustion():
    rng_offsets = np.linspace(0, 1, 5)

    def nasty(t):
        # rapidly oscillating, far beyond a 16-interval budget
        return np.sin(1e6 * t)

    with pytest.raises(ToleranceError):
        integrate_adaptive(nasty, 0.0, 1.0, abs_tol=1e-13, max_intervals=16)
    assert rng_offsets.shape == (5,)
    # a jump off every dyadic point bisects to the width floor, whose
    # accepted error (about 1.8e-15) is past the tolerance
    with pytest.raises(ToleranceError, match="unreachable"):
        integrate_adaptive(lambda t: np.where(t < 1 / 3, 0.0, 1.0), 0.0, 1.0, abs_tol=1e-16)


def test_fixed_panels():
    got = fixed_panels(np.exp, 0.0, 1.0, 20, 4)
    assert got == pytest.approx(math.e - 1.0, abs=1e-13)
    with pytest.raises(ValidationError):
        fixed_panels(np.exp, 0.0, 1.0, 0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_fixed_panels_non_finite_integrand():
    # the same panel builder as integrate_adaptive, so the same error
    with pytest.raises(EvaluationError) as err:
        fixed_panels(lambda t: np.log(t - 0.3), 0.0, 1.0, 20, 4)  # nan below 0.3
    assert 0.0 < err.value.point < 0.3


def test_fixed_panels_equals_fresh_legendre_rule():
    def f(t):
        return np.cos(3.0 * t) * np.exp(-t)

    for points, panels in ((120, 10), (20, 3), (7, 1)):
        x, w = np.polynomial.legendre.leggauss(points)
        edges = np.linspace(-1.0, 2.5, panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        nodes = mid[:, None] + half[:, None] * x[None, :]
        expected = float(((f(nodes.reshape(-1)).reshape(nodes.shape) @ w) * half).sum())
        assert fixed_panels(f, -1.0, 2.5, points, panels) == expected
        cached = quadrature1d._panel(points)
        assert not any(a.flags.writeable for a in cached)
        assert np.array_equal(cached[0], x) and np.array_equal(cached[1], w)


@pytest.mark.parametrize("points, panels", [(2.5, 1), (3, 2.5)])
def test_fixed_panels_takes_counts_as_given(points, panels):
    with pytest.raises(ValidationError, match="integer"):
        fixed_panels(np.cos, 0.0, 1.0, points, panels)


@pytest.mark.parametrize("count", [2.5, 2.0, 0, -1], ids=["fraction", "float", "zero", "negative"])
def test_initial_intervals_is_a_count_taken_as_given(count):
    with pytest.raises(ValidationError, match="initial_intervals"):
        integrate_adaptive(np.cos, 0.0, 1.0, initial_intervals=count)


def test_initial_intervals_accepts_numpy_integers():
    want = integrate_adaptive(np.cos, 0.0, 1.0, initial_intervals=3)
    assert integrate_adaptive(np.cos, 0.0, 1.0, initial_intervals=np.int64(3)) == want


def test_seed_intervals_past_the_budget_raise_before_any_evaluation(monkeypatch):
    def no_sweep(*args):
        raise AssertionError("a sweep was evaluated")

    monkeypatch.setattr(quadrature1d, "_batch_estimates", no_sweep)
    with pytest.raises(ToleranceError, match="exceeded 1000 intervals"):
        integrate_adaptive(_never_called, 0.0, 1.0, initial_intervals=300_000, max_intervals=1000)
    # two seed intervals of 501 pieces each
    with pytest.raises(ToleranceError, match="exceeded 1000 intervals"):
        integrate_adaptive(_never_called, 0.0, 1.0, breakpoints=[0.5], initial_intervals=501,
                           max_intervals=1000)
    # sine_integral(1e6) seeds 318,310 half periods, past the default 200,000
    with pytest.raises(ToleranceError, match="exceeded 200000 intervals"):
        sine_integral(1e6)
