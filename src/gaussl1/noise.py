"""Gaussian smoothing operator.

For noise level ``rho`` in [0, 1] the operator replaces ``f`` by

    (T_rho f)(x) = E_Y[ f(rho x + sqrt(1 - rho^2) Y) ],   Y ~ N(0, I_n),

which acts diagonally on the orthonormal Hermite basis:
``T_rho H_alpha = rho^{|alpha|} H_alpha``.  The module provides the exact
action on sparse expansions, a pointwise Monte-Carlo evaluation, and checks
of the eigenvalue relation and of the truncation tail bound

    || T_rho f - (T_rho f)_{<=d} ||_2^2  <=  rho^{2(d+1)} ||f||_2^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ValidationError
from .hermite import HermiteExpansion, expansion, hermite_eval, l2_norm
from .mc import EstimateWithError, check_integer, check_probability, mc_mean
from . import mc


def validate_noise_level(rho: float) -> float:
    """Check ``rho`` lies in [0, 1]; out-of-range values are never clamped."""
    return check_probability("noise level rho", rho)


def apply_to_expansion(p: HermiteExpansion, rho: float) -> HermiteExpansion:
    """Exact action on an expansion: scale each coefficient by rho^|alpha|.

    At ``rho = 0`` every non-constant term vanishes and is dropped from the
    canonical form; degrees are never increased.
    """
    rho = validate_noise_level(rho)
    return expansion(
        p.dimension, {a: c * rho ** sum(a) for a, c in p.terms.items()}
    )


def apply_pointwise_mc(
    f: Callable[[np.ndarray], np.ndarray],
    rho: float,
    x,
    samples: int,
    seed: int,
) -> EstimateWithError:
    """Monte-Carlo estimate of ``(T_rho f)(x)``.

    ``f`` must map an ``(N, n)`` array of points to ``(N,)`` values; ``x`` is
    a scalar or length-``n`` point.  At ``rho = 1`` the operator is the
    identity and the exact value ``f(x)`` is returned with stderr 0.  ``f``
    is called on one block of points (:func:`mc.normal_blocks`) at a time,
    so the pass holds one block of points and one chunk's values.
    """
    rho = validate_noise_level(rho)
    samples = mc.check_samples(samples)  # on the exact route too
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    n = x.shape[0]
    if rho == 1.0:
        value = float(np.asarray(f(x[None, :])).reshape(-1)[0])
        return EstimateWithError(value, 0.0, 1, mc.check_seed(seed), note="exact at rho=1")
    spread = math.sqrt(1.0 - rho * rho)

    def sampler(rng: np.random.Generator, m: int) -> np.ndarray:
        return np.concatenate([
            np.atleast_1d(np.asarray(f(rho * x[None, :] + spread * y), dtype=np.float64))
            for _, y in mc.normal_blocks(rng, m, n)
        ])

    return mc_mean(sampler, samples, seed)


@dataclass(frozen=True)
class EigenCheckRow:
    x: float
    estimate: float
    stderr: float
    target: float

    @property
    def deviation(self) -> float:
        return self.estimate - self.target

    @property
    def stderr_units(self) -> float:
        if self.stderr == 0.0:
            return 0.0 if self.deviation == 0.0 else math.inf
        return abs(self.deviation) / self.stderr


@dataclass(frozen=True)
class EigenCheckReport:
    """Per-grid-point comparison of MC smoothing of ``H_k`` against
    ``rho^k H_k``; passes when every deviation is within 4 stderr."""

    degree: int
    rho: float
    samples: int
    seed: int
    rows: tuple[EigenCheckRow, ...]

    @property
    def max_abs_deviation(self) -> float:
        return max(abs(r.deviation) for r in self.rows)

    @property
    def max_stderr_units(self) -> float:
        return max(r.stderr_units for r in self.rows)

    @property
    def passed(self) -> bool:
        return all(abs(r.deviation) <= 4.0 * r.stderr for r in self.rows)


def eigen_check(
    k: int,
    rho: float,
    grid: Sequence[float],
    samples: int,
    seed: int,
) -> EigenCheckReport:
    """Verify ``T_rho H_k = rho^k H_k`` (integer ``k >= 0``) by Monte Carlo on a grid."""
    rho = validate_noise_level(rho)
    k = check_integer("degree", k, 0)
    grid = [float(g) for g in grid]
    if not grid:
        raise ValidationError("grid must be non-empty")

    def f(points: np.ndarray) -> np.ndarray:
        return hermite_eval(k, points[:, 0])

    rows = []
    for i, x in enumerate(grid):
        est = apply_pointwise_mc(f, rho, x, samples, mc.derive_seed(seed, i))
        target = rho**k * hermite_eval(k, x)
        rows.append(EigenCheckRow(x, est.mean, est.stderr, target))
    return EigenCheckReport(k, rho, int(samples), mc.check_seed(seed), tuple(rows))


@dataclass(frozen=True)
class TailBoundReport:
    """Exact check of the smoothing tail bound on one expansion."""

    lhs: float
    rhs: float
    rho: float
    degree: int

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs + 1e-12

    def to_dict(self) -> dict:
        # seed/samples are 0: this check is exact, not sampled
        return {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "pass": self.passed,
            "seed": 0,
            "samples": 0,
        }


def tail_bound_check(p: HermiteExpansion, rho: float, d: int) -> TailBoundReport:
    """Compare ``||T_rho p - (T_rho p)_{<=d}||^2`` with ``rho^{2(d+1)} ||p||^2``;
    ``d`` must be an integer >= 0."""
    rho = validate_noise_level(rho)
    d = check_integer("degree", d, 0)
    tail = {a: c * rho**k for a, c in p.terms.items() if (k := sum(a)) > d}
    lhs = l2_norm(expansion(p.dimension, tail)) ** 2
    rhs = rho ** (2 * d + 2) * l2_norm(p) ** 2
    return TailBoundReport(lhs, rhs, rho, d)
