"""Adaptive one-dimensional quadrature on finite intervals.

Each interval is evaluated with two Gauss-Legendre rules (21 and 10
points).  They are not nested, so f is evaluated at 31 points per interval;
the difference between the two estimates serves as the local error
indicator, and intervals failing their proportional share of the absolute
tolerance are bisected.  Integrands must accept ndarray arguments and are
evaluated in batched sweeps, so oscillatory integrands with thousands of
subintervals stay cheap.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import EvaluationError, NodeBudgetError, ToleranceError, ValidationError
from .hermite import MC_CHUNK_CELLS
from .mc import check_integer

_HI = 21
_LO = 10


@lru_cache(maxsize=8)
def _panel(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _check_first_sweeps(what: str, sweeps: Iterable[tuple[int, int]]) -> None:
    """Refuse quadratures before their work: each sweep is ``(intervals,
    degree)``, the seed intervals of one :func:`integrate_adaptive` call whose
    integrand runs a degree-``degree`` Hermite recurrence at each of an
    interval's nodes.  First sweeps of more than ``MC_CHUNK_CELLS`` cells in
    all (intervals x nodes per interval x (degree + 1) steps) raise
    :class:`NodeBudgetError` naming ``what``."""
    cells = sum(intervals * (_HI + _LO) * (degree + 1) for intervals, degree in sweeps)
    if cells > MC_CHUNK_CELLS:
        raise NodeBudgetError(f"{what} needs {cells} cells in its first sweep, more than the "
                              f"budget of {MC_CHUNK_CELLS}")


def _batch_estimates(f, lo, hi, n):
    x, w = _panel(n)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * x[None, :]
    values = np.asarray(f(nodes.reshape(-1)), dtype=np.float64).reshape(nodes.shape)
    if not np.all(np.isfinite(values)):
        bad = nodes.reshape(-1)[~np.isfinite(values.reshape(-1))][0]
        raise EvaluationError(f"integrand non-finite at t={bad}", point=bad)
    return (values @ w) * half


def integrate_adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    *,
    abs_tol: float = 1e-10,
    breakpoints: Sequence[float] = (),
    initial_intervals: int = 1,
    max_intervals: int = 200_000,
) -> float:
    """Integrate ``f`` over ``[a, b]`` to absolute tolerance ``abs_tol``.

    ``breakpoints`` seeds the subdivision at known kinks or discontinuities;
    ``initial_intervals``, an integer >= 1, additionally splits every seed
    interval uniformly (useful for integrands with a known oscillation
    scale).  Raises :class:`ToleranceError` if the interval budget is
    exhausted first (at once when the seed intervals alone exceed it), and
    :class:`ValidationError` at once unless ``a < b`` are finite and
    ``abs_tol > 0`` is finite.
    """
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValidationError(f"integration endpoints must be finite, got [{a}, {b}]")
    if not b > a:
        raise ValidationError(f"empty integration interval [{a}, {b}]")
    if not 0 < abs_tol < math.inf:
        raise ValidationError(f"abs_tol must be finite and > 0, got {abs_tol}")
    edges = [a]
    for t in sorted(set(float(t) for t in breakpoints)):
        if a < t < b:
            edges.append(t)
    edges.append(b)
    lo_list, hi_list = [], []
    pieces = check_integer("initial_intervals", initial_intervals, 1)
    processed = (len(edges) - 1) * pieces
    exceeded = f"adaptive quadrature exceeded {max_intervals} intervals for abs_tol={abs_tol}"
    if processed > max_intervals:  # before f is evaluated on any seed interval
        raise ToleranceError(exceeded)
    for left, right in zip(edges[:-1], edges[1:]):
        cuts = np.linspace(left, right, pieces + 1)
        lo_list.extend(cuts[:-1])
        hi_list.extend(cuts[1:])
    lo = np.asarray(lo_list)
    hi = np.asarray(hi_list)

    span = b - a
    total = 0.0
    # width floor: below this an interval is accepted regardless (fp limit)
    width_floor = span * 1e-13
    floor_error = 0.0

    while lo.size:
        est_hi = _batch_estimates(f, lo, hi, _HI)
        est_lo = _batch_estimates(f, lo, hi, _LO)
        err = np.abs(est_hi - est_lo)
        width = hi - lo
        share = abs_tol * width / span
        accept = (err <= share) | (width <= width_floor)
        floor_error += float(err[accept & (err > share)].sum())
        total += float(est_hi[accept].sum())
        lo, hi = lo[~accept], hi[~accept]
        if lo.size:
            mid = 0.5 * (lo + hi)
            lo = np.concatenate([lo, mid])
            hi = np.concatenate([mid, hi])
            processed += lo.size
            if processed > max_intervals:
                raise ToleranceError(exceeded)
    if floor_error > abs_tol:
        raise ToleranceError(
            f"requested abs_tol={abs_tol} unreachable (floor error {floor_error:.3e})"
        )
    return total


def fixed_panels(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    points: int,
    panels: int = 1,
) -> float:
    """Composite Gauss-Legendre rule with ``panels`` panels of ``points`` nodes.

    ``points`` and ``panels`` must be integers >= 1; a non-finite integrand
    value raises :class:`EvaluationError`.
    """
    points = check_integer("points", points, 1)
    panels = check_integer("panels", panels, 1)
    edges = np.linspace(float(a), float(b), panels + 1)
    return float(_batch_estimates(f, edges[:-1], edges[1:], points).sum())
