"""Hermite series of the sign function and its truncation error.

With the orthonormal basis of :mod:`gaussl1.hermite`, the sign function has
the odd series

    <sign, H_k> = sqrt(2 / (k pi)) H_{k-1}(0)   (k odd; zero for k even),

and the degree-``d`` truncation admits, for odd ``d`` and ``x >= 0``, the
integral form

    sign_{<=d}(x) = sqrt(2 d / pi) H_{d-1}(0) * int_0^x H_d(t) / t dt,

whose integrand extends continuously through ``t = 0`` with value
``sqrt(d) H_{d-1}(0)``.  The module evaluates truncations both directly and
through the integral form, measures the Gaussian L1 truncation error, and
provides the asymptotic ingredients used to explain its decay rate: the
oscillatory (Plancherel-Rotach style) approximation of ``H_d`` with an
explicit remainder envelope, a Christoffel-Darboux identity at the origin,
the sine integral, and envelope checks for the integrals
``int |H_d(t)|/t dt`` that control the truncation error split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .hermite import (
    GAUSS_CUTOFF,
    _recurrence,
    gauss_density,
    hermite_upto,
    hermite_zero,
    hermite_zeros_upto,
)
from .mc import check_integer
from .quadrature1d import _check_first_sweeps, integrate_adaptive

# Small-t switchover for the removable singularity of H_d(t)/t.
_TAYLOR_CUT = 1e-4

# Envelope constant for int_0^tau |H_d(t)|/t dt <= C1 d^{1/4} tau e^{tau^2/4},
# calibrated once at (d, tau) = (101, 1) with a 15% margin and frozen.  The
# measured integral shrinks with d while the bound grows, so the calibration
# point is the tight one for d >= 101.
SMALL_T_CONSTANT = 0.2101


def _check_odd_degree(d: int) -> int:
    if check_integer("degree", d, 1) % 2 == 0:
        raise ValidationError(f"degree must be an odd integer >= 1, got {d!r}")
    return int(d)


def sign_coefficient(k: int) -> float:
    """Hermite coefficient ``<sign, H_k>`` for an integer ``k >= 0``; zero for even ``k``."""
    if check_integer("k", k, 0) % 2 == 0:
        return 0.0
    return truncation(k).coefficient(k)


@dataclass(frozen=True)
class SignTruncation:
    """Degree-``d`` truncation of the sign series (odd coefficients only)."""

    degree: int
    odd_coefficients: np.ndarray  # entry m is <sign, H_{2m+1}>

    def coefficient(self, k: int) -> float:
        if k % 2 == 0 or k > self.degree:
            return 0.0
        return float(self.odd_coefficients[(k - 1) // 2])


def truncation(d: int) -> SignTruncation:
    """All coefficients of the degree-``d`` truncation, ``d`` odd."""
    d = _check_odd_degree(d)
    zeros = hermite_zeros_upto(d - 1)
    ks = np.arange(1, d + 1, 2)
    coeffs = np.sqrt(2.0 / (ks * math.pi)) * zeros[ks - 1]
    coeffs.setflags(write=False)
    return SignTruncation(d, coeffs)


def truncation_eval_direct(t: SignTruncation, x):
    """Evaluate the truncation by one upward recurrence sweep.

    Accepts scalar or ndarray ``x``; exactly antisymmetric in ``x`` because
    the recurrence commutes with the sign flip in floating point.
    """
    weights = np.zeros(t.degree + 1)
    weights[1::2] = t.odd_coefficients
    total = _recurrence(t.degree, np.asarray(x, dtype=np.float64), weights=weights)
    return float(total) if total.ndim == 0 else total


def _hermite_over_t(d: int, t: np.ndarray, absolute: bool = False) -> np.ndarray:
    """``H_d(t)/t`` (optionally ``|H_d(t)|/t``) with the removable singularity
    expanded below ``t = 1e-4`` via ``sqrt(d) H_{d-1}(0) + O(t^2)``."""
    t = np.asarray(t, dtype=np.float64)
    out = np.empty_like(t)
    small = np.abs(t) < _TAYLOR_CUT
    if np.any(small):
        c0 = math.sqrt(d) * hermite_zero(d - 1)
        c2 = 0.0
        if d >= 3:
            c2 = math.sqrt(d * (d - 1) * (d - 2)) * hermite_zero(d - 3) / 6.0
        out[small] = c0 + c2 * t[small] ** 2
    if np.any(~small):
        ts = t[~small]
        out[~small] = _recurrence(d, ts) / ts
    if absolute:
        out = np.abs(out)
    return out


def truncation_eval_integral(d: int, x: float, tol: float = 1e-9) -> float:
    """Evaluate the truncation through its integral form (``d`` odd).

    Extended to negative ``x`` by antisymmetry.  ``tol`` is an absolute
    tolerance on the returned value, prefactor included.  A first sweep past
    the work budget of :func:`quadrature1d._check_first_sweeps` raises
    :class:`NodeBudgetError` before it.
    """
    d = _check_odd_degree(d)
    x = float(x)
    if not math.isfinite(x):
        raise ValidationError(f"x must be finite, got {x}")
    if x == 0.0:
        return 0.0
    # one initial interval per half oscillation of H_d
    pieces = max(4, int(math.ceil(abs(x) * math.sqrt(d) / math.pi)) + 1)
    _check_first_sweeps(f"the integral form of the degree-{d} sign truncation", [(pieces, d)])
    prefactor = math.sqrt(2.0 * d / math.pi) * hermite_zero(d - 1)
    inner_tol = tol / max(1.0, abs(prefactor))
    integral = integrate_adaptive(
        lambda t: _hermite_over_t(d, t),
        0.0,
        abs(x),
        abs_tol=inner_tol,
        initial_intervals=pieces,
    )
    return math.copysign(prefactor * integral, x)


def truncation_l1_error(d: int, abs_tol: float = 1e-8) -> float:
    """Gaussian L1 error ``E|sign(X) - sign_{<=d}(X)|`` of the truncation.

    By symmetry equals ``2 int_0^inf |1 - sign_{<=d}(x)| phi(x) dx``; the
    integral is cut at ``x = 12`` where the Gaussian weight is negligible.
    A first sweep past the work budget of
    :func:`quadrature1d._check_first_sweeps` (``d`` past 10855) raises
    :class:`NodeBudgetError` before it.
    """
    d = _check_odd_degree(d)
    sweep = _l1_error_sweep(d)
    _check_first_sweeps(f"the L1 error of the degree-{d} sign truncation", [sweep])
    t = truncation(d)

    def integrand(x: np.ndarray) -> np.ndarray:
        return np.abs(1.0 - truncation_eval_direct(t, x)) * gauss_density(x)

    return 2.0 * integrate_adaptive(
        integrand, 0.0, GAUSS_CUTOFF, abs_tol=abs_tol / 2.0, initial_intervals=sweep[0]
    )


def _l1_error_sweep(d: int) -> tuple[int, int]:
    # the seed intervals and degree of the first sweep of truncation_l1_error(d)
    return max(16, int(math.ceil(GAUSS_CUTOFF * math.sqrt(d) / math.pi))), d


def parseval_residual(d: int) -> float:
    """L2 mass of sign missing below degree ``d``: ``1 - sum_{k<=d} c_k^2``."""
    return 1.0 - math.fsum((truncation(d).odd_coefficients ** 2).tolist())


# ---------------------------------------------------------------------------
# oscillatory asymptotics


@dataclass(frozen=True)
class RemainderSample:
    """Deviation of ``H_d`` from its oscillatory approximation at one point:

    ``remainder = H_d(x) e^{-x^2/4} (pi d / 2)^{1/4} - sin((1-d) pi/2 + sqrt(d) x)``

    with the known envelope ``max(|x|^3, |x|) / sqrt(d), x^2/d, 1/d)`` up to
    an absolute constant.
    """

    degree: int
    x: float
    remainder: float
    envelope: float


def remainder_grid(d: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized remainders and envelopes over a grid (see RemainderSample);
    ``d`` must be an integer >= 1."""
    d = check_integer("degree", d, 1)
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.abs(x) <= math.sqrt(d)):  # NaN fails too
        raise ValidationError("remainder is only tracked for |x| <= sqrt(d)")
    # the damped start row keeps H_d(x) e^{-x^2/4} finite for |x| up to ~sqrt(d)
    scaled = _recurrence(d, x, start=np.exp(-0.25 * x * x)) * (math.pi * d / 2.0) ** 0.25
    phase = np.sin((1 - d) * math.pi / 2.0 + math.sqrt(d) * x)
    remainder = scaled - phase
    ax = np.abs(x)
    envelope = np.maximum.reduce(
        [ax**3 / math.sqrt(d), ax / math.sqrt(d), x**2 / d, np.full_like(ax, 1.0 / d)]
    )
    return remainder, envelope


def plancherel_rotach_remainder(d: int, x: float) -> RemainderSample:
    """Remainder of the oscillatory approximation of ``H_d`` at ``x``."""
    r, env = remainder_grid(d, np.asarray([float(x)]))
    return RemainderSample(int(d), float(x), float(r[0]), float(env[0]))


def christoffel_darboux_residual(d: int, x: float) -> float:
    """Absolute defect of the Christoffel-Darboux identity anchored at 0:

    ``sum_{k<d} H_k(x) H_k(0) = sqrt(d) (H_d(x) H_{d-1}(0) - H_{d-1}(x) H_d(0)) / x``
    for an integer ``d >= 1``.
    """
    d = check_integer("degree", d, 1)
    x = float(x)
    if not math.isfinite(x):
        raise ValidationError(f"x must be finite, got {x}")
    if x == 0.0:
        raise ValidationError("the identity is anchored at 0; x must be non-zero")
    values = hermite_upto(d, x)
    zeros = hermite_zeros_upto(d)
    lhs = math.fsum(float(values[k]) * float(zeros[k]) for k in range(d))
    rhs = (
        math.sqrt(d)
        * (float(values[d]) * float(zeros[d - 1]) - float(values[d - 1]) * float(zeros[d]))
        / x
    )
    return abs(lhs - rhs)


def sine_integral(z: float, tol: float = 1e-12) -> float:
    """``Si(z) = int_0^z sin(t)/t dt`` for ``z >= 0``.

    Alternating series for ``z <= 4``; beyond that the series value at 4 is
    extended by adaptive quadrature with one seed interval per half period.
    """
    z = float(z)
    if z < 0.0 or not math.isfinite(z):
        raise ValidationError(f"z must be finite and >= 0, got {z}")
    if not 0 < tol < math.inf:
        raise ValidationError(f"tol must be finite and > 0, got {tol}")
    if z == 0.0:
        return 0.0
    head = min(z, 4.0)
    # sum_{m>=0} (-1)^m z^(2m+1) / ((2m+1) (2m+1)!); u tracks the sin-series
    # term (-1)^m z^(2m+1) / (2m+1)!
    u = head
    total = head
    m = 0
    while abs(u) > tol * 1e-3:
        m += 1
        u *= -head * head / ((2 * m) * (2 * m + 1))
        total += u / (2 * m + 1)
    if z <= 4.0:
        return total
    pieces = int(math.ceil((z - 4.0) / math.pi)) + 1
    tail = integrate_adaptive(
        lambda t: np.sin(t) / t,
        4.0,
        z,
        abs_tol=tol * 0.5,
        initial_intervals=pieces,
    )
    return total + tail


@dataclass(frozen=True)
class IntegralEnvelopeReport:
    """Checks of the two integral envelopes behind the truncation error rate.

    small-t:  int_0^tau |H_d(t)|/t dt           <= C1 d^{1/4} tau e^{tau^2/4}
    large-t:  int_tau^inf |H_d(t)|/t P[X>t] dt  <= e^{-tau^2/4}

    The large-t integral is the Fubini form of the Gaussian-averaged double
    integral of the same kernel beyond ``tau``.
    """

    degree: int
    tau: float
    small_t_value: float | None
    small_t_bound: float | None
    large_t_value: float
    large_t_bound: float

    @property
    def small_t_passed(self) -> bool | None:
        if self.small_t_value is None:
            return None
        return self.small_t_value <= self.small_t_bound

    @property
    def large_t_passed(self) -> bool:
        return self.large_t_value <= self.large_t_bound

    @property
    def passed(self) -> bool:
        ok_small = self.small_t_passed is None or self.small_t_passed
        return ok_small and self.large_t_passed

    def to_dict(self) -> dict:
        return {
            "degree": self.degree,
            "tau": self.tau,
            "small_t_value": self.small_t_value,
            "small_t_bound": self.small_t_bound,
            "large_t_value": self.large_t_value,
            "large_t_bound": self.large_t_bound,
            "pass": self.passed,
        }


def truncation_integral_envelopes(
    d: int, tau: float, abs_tol: float = 1e-9
) -> IntegralEnvelopeReport:
    """Evaluate both envelope integrals for odd ``d`` and a finite ``tau >= 1``.

    The small-t branch applies only for ``tau <= d^{1/6}`` and is reported as
    ``None`` outside that range.  The large-t integral is cut at
    ``GAUSS_CUTOFF``, so from ``tau >= GAUSS_CUTOFF`` on it is 0.0.  First
    sweeps past the work budget of :func:`quadrature1d._check_first_sweeps`
    raise :class:`NodeBudgetError` before the first.
    """
    d = _check_odd_degree(d)
    tau = float(tau)
    if not (math.isfinite(tau) and tau >= 1.0):
        raise ValidationError(f"tau must be finite and >= 1, got {tau}")
    pieces = max(8, int(math.ceil(GAUSS_CUTOFF * math.sqrt(d) / math.pi)))
    sweeps = [(pieces, d)] if tau < GAUSS_CUTOFF else []
    small = tau <= d ** (1.0 / 6.0) + 1e-12
    if small:
        small_pieces = max(4, int(math.ceil(tau * math.sqrt(d) / math.pi)) + 1)
        sweeps.append((small_pieces, d))
    _check_first_sweeps(f"the envelope integrals of degree {d}", sweeps)

    small_value = small_bound = None
    if small:
        small_value = integrate_adaptive(
            lambda t: _hermite_over_t(d, t, absolute=True),
            0.0,
            tau,
            abs_tol=abs_tol,
            initial_intervals=small_pieces,
        )
        small_bound = SMALL_T_CONSTANT * d**0.25 * tau * math.exp(tau * tau / 4.0)

    def tail_integrand(t: np.ndarray) -> np.ndarray:
        upper = 0.5 * np.array([math.erfc(v) for v in (t / math.sqrt(2.0)).tolist()])
        return _hermite_over_t(d, t, absolute=True) * upper

    large_value = 0.0
    if tau < GAUSS_CUTOFF:
        large_value = integrate_adaptive(
            tail_integrand, tau, GAUSS_CUTOFF, abs_tol=abs_tol, initial_intervals=pieces
        )
    large_bound = math.exp(-tau * tau / 4.0)
    return IntegralEnvelopeReport(d, tau, small_value, small_bound, large_value, large_bound)
