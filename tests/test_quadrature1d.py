"""Adaptive Gauss-Legendre quadrature against closed-form integrals."""

import math

import numpy as np
import pytest

from gaussl1 import quadrature1d
from gaussl1.errors import EvaluationError, ToleranceError, ValidationError
from gaussl1.quadrature1d import fixed_panels, integrate_adaptive


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
