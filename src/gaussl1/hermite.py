"""Orthonormal Hermite basis under the standard Gaussian measure.

Throughout the package ``H_k`` denotes the probabilists' Hermite polynomial
normalized so that ``E[H_j(X) H_k(X)] = delta_{jk}`` for ``X ~ N(0, 1)``:

    H_0(x) = 1,  H_1(x) = x,
    sqrt(k+1) H_{k+1}(x) = x H_k(x) - sqrt(k) H_{k-1}(x).

Multivariate basis functions are products ``H_alpha(x) = prod_i H_{alpha_i}(x_i)``
indexed by multi-indices ``alpha`` (tuples of non-negative ints).  Sparse
expansions ``f = sum_alpha c_alpha H_alpha`` carry an explicit dimension and
store only non-zero coefficients.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import (
    DimensionMismatchError,
    EvaluationError,
    NodeBudgetError,
    ValidationError,
)

MultiIndex = tuple[int, ...]

NODE_BUDGET = 2_000_000

# Float64 cells that one point block of the batch kernels holds at once: the
# stacked table of every axis plus one prefix chunk's intermediate
# (expansion_eval_batch) or the basis block (basis_matrix).  2^17 cells are
# 1 MiB, so a block stays in a core's L2 cache.
BLOCK_CELLS = 1 << 17


# ---------------------------------------------------------------------------
# the standard Gaussian measure

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Upper limit for Gaussian-weighted integrals; the excluded tail is far
# below every tolerance used in the package.
GAUSS_CUTOFF = 12.0


def gauss_density(x):
    """Standard normal density ``phi(x)`` of a float or an ndarray."""
    if isinstance(x, np.ndarray):
        return np.exp(-0.5 * x * x) / _SQRT_2PI
    return math.exp(-0.5 * x * x) / _SQRT_2PI


# ---------------------------------------------------------------------------
# univariate evaluation


def _check_degree(k: int) -> int:
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise ValidationError(f"degree must be a non-negative integer, got {k!r}")
    return int(k)


def _recurrence(k: int, x: np.ndarray, start=None, weights=None, table=False):
    """The three-term recurrence over a float64 array ``x``:
    ``h_0 = start`` (default 1), ``h_1 = x h_0`` and
    ``h_{j+1} = (x h_j - sqrt(j) h_{j-1}) / sqrt(j + 1)``, so ``h_j = start H_j(x)``.

    Returns the ``(k + 1,) + x.shape`` table of ``h_0 .. h_k`` with ``table``;
    otherwise, holding three rows at a time, ``h_k`` or, given ``weights``
    (length ``k + 1``), ``sum_j weights[j] h_j`` over the non-zero weights.
    """
    shape = x.shape
    if shape or table:
        # arrays step in place: row j goes into its table row, or else into
        # the buffer that h_{j-3} leaves in a ring of three
        x = np.ascontiguousarray(x).reshape(-1)
        rows = np.empty((k + 1, x.size)) if table else [np.empty(x.size) for _ in range(3)]
        scaled = np.empty(x.size)
        mul = np.multiply
    else:
        # a 0-d x steps as a numpy scalar: the same operations without the
        # fixed cost of a ufunc call, which dominates at one point
        x, rows, scaled = x[()], [None] * 3, None

        def mul(a, b, out):
            return a * b

    total = None if weights is None else np.zeros_like(x)
    prev, cur = None, 1.0 if start is None else np.reshape(start, np.shape(x))
    for j in range(k + 1):
        new = mul(x if j else 1.0, cur, rows[j % len(rows)])  # h_0 = 1 * start
        if j > 1:
            new -= mul(prev, math.sqrt(j - 1), scaled)
            new /= math.sqrt(j)
        if total is not None and weights[j] != 0.0:
            total += mul(new, weights[j], scaled)
        prev, cur = cur, new
    if table:
        return rows.reshape((k + 1,) + shape)
    return np.reshape(cur if total is None else total, shape)


def hermite_upto(k: int, x) -> np.ndarray:
    """Values ``H_0(x) .. H_k(x)`` in one upward recurrence pass.

    ``x`` may be a scalar or an ndarray; the result has shape
    ``(k + 1,) + shape(x)``.
    """
    k = _check_degree(k)
    return _recurrence(k, np.asarray(x, dtype=np.float64), table=True)


def hermite_eval(k: int, x):
    """``H_k(x)`` by the three-term recurrence (scalar or ndarray ``x``)."""
    k = _check_degree(k)
    value = _recurrence(k, np.asarray(x, dtype=np.float64))
    return float(value) if value.ndim == 0 else value


def hermite_zero(k: int) -> float:
    """``H_k(0)``: zero for odd k, otherwise a stable alternating product.

    For even ``k = 2m`` the recurrence at the origin telescopes to
    ``H_{2m}(0) = -sqrt((2m-1)/(2m)) H_{2m-2}(0)``, which evaluates the exact
    value ``(-1)^m (2m-1)!! / sqrt((2m)!)`` without forming factorials.
    """
    return float(hermite_zeros_upto(k)[k])


def hermite_zeros_upto(k: int) -> np.ndarray:
    """Array ``[H_0(0), ..., H_k(0)]`` via the same product recurrence."""
    k = _check_degree(k)
    out = np.zeros(k + 1)
    value = 1.0
    out[0] = value
    for m in range(1, k // 2 + 1):
        value *= -math.sqrt((2 * m - 1) / (2 * m))
        out[2 * m] = value
    return out


# ---------------------------------------------------------------------------
# multi-indices


def check_multi_index(alpha) -> MultiIndex:
    entries = tuple(alpha)
    if any(a != int(a) for a in entries):
        raise ValidationError(f"multi-index entries must be integers, got {entries}")
    alpha = tuple(int(a) for a in entries)
    if any(a < 0 for a in alpha):
        raise ValidationError(f"multi-index entries must be >= 0, got {alpha}")
    return alpha


def multi_indices_upto(dimension: int, degree: int) -> list[MultiIndex]:
    """All multi-indices of total degree <= ``degree``, degree-major then
    lexicographic (a deterministic basis ordering with nested prefixes).
    More than ``NODE_BUDGET`` of them raise :class:`NodeBudgetError` at once."""
    if dimension < 1:
        raise ValidationError(f"dimension must be >= 1, got {dimension}")
    degree = _check_degree(degree)
    if math.comb(dimension + degree, degree) > NODE_BUDGET:
        raise NodeBudgetError(f"more than {NODE_BUDGET} multi-indices up to degree {degree}")
    return [alpha for d in range(degree + 1) for alpha in _compositions(d, dimension)]


def _compositions(total: int, n: int) -> list[MultiIndex]:
    # the n-tuples of non-negative ints summing to total, in ascending order
    if n == 1:
        return [(total,)]
    return [(a,) + rest for a in range(total + 1) for rest in _compositions(total - a, n - 1)]


def hermite_multi_eval(alpha, x) -> float:
    """``H_alpha(x) = prod_i H_{alpha_i}(x_i)`` at a single point."""
    alpha = check_multi_index(alpha)
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if x.shape != (len(alpha),):
        raise DimensionMismatchError(
            f"point of dimension {x.shape} does not match multi-index of length {len(alpha)}"
        )
    return float(basis_matrix(x[None, :], [alpha])[0, 0])


# ---------------------------------------------------------------------------
# sparse expansions


@dataclass(frozen=True)
class HermiteExpansion:
    """Sparse expansion ``sum_alpha c_alpha H_alpha`` in ``dimension`` variables.

    Canonical form: keys are multi-indices of length ``dimension``, stored
    coefficients are finite and non-zero.  Use :func:`expansion` to build one.
    """

    dimension: int
    terms: dict[MultiIndex, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.dimension < 1:
            raise ValidationError(f"dimension must be >= 1, got {self.dimension}")
        for alpha, c in self.terms.items():
            if len(alpha) != self.dimension:
                raise DimensionMismatchError(
                    f"term {alpha} has length {len(alpha)}, expected {self.dimension}"
                )
            if any(not isinstance(a, int) or a < 0 for a in alpha):
                raise ValidationError(f"invalid multi-index {alpha}")
            if not math.isfinite(c):
                raise ValidationError(f"non-finite coefficient at {alpha}")
            if c == 0.0:
                raise ValidationError(f"zero coefficient stored at {alpha}")

    @property
    def degree_bound(self) -> int:
        """Maximum total degree of a stored term (0 for the empty expansion)."""
        return max((sum(a) for a in self.terms), default=0)

    def coefficient(self, alpha) -> float:
        return self.terms.get(check_multi_index(alpha), 0.0)

    def __add__(self, other: "HermiteExpansion") -> "HermiteExpansion":
        if other.dimension != self.dimension:
            raise DimensionMismatchError("cannot add expansions of different dimension")
        merged = dict(self.terms)
        for alpha, c in other.terms.items():
            merged[alpha] = merged.get(alpha, 0.0) + c
        return expansion(self.dimension, merged)

    def __sub__(self, other: "HermiteExpansion") -> "HermiteExpansion":
        return self + (-1.0) * other

    def __rmul__(self, scalar: float) -> "HermiteExpansion":
        scalar = float(scalar)
        return expansion(
            self.dimension, {a: scalar * c for a, c in self.terms.items()}
        )

    def __call__(self, x):
        return expansion_eval(self, x)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "terms": [
                {"alpha": list(alpha), "coeff": self.terms[alpha]}
                for alpha in sorted(self.terms)
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, data: Mapping) -> "HermiteExpansion":
        try:
            dimension = int(data["dimension"])
            terms = {
                check_multi_index(item["alpha"]): float(item["coeff"])
                for item in data["terms"]
            }
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed expansion payload: {exc}") from exc
        if len(terms) != len(data["terms"]):
            raise ValidationError("duplicate multi-index in expansion payload")
        # the wire format is the canonical form; explicit zeros are rejected
        # by the constructor below rather than silently dropped
        return cls(dimension, terms)

    @classmethod
    def from_json(cls, text: str) -> "HermiteExpansion":
        return cls.from_dict(json.loads(text))


def expansion(dimension: int, terms: Mapping | Iterable) -> HermiteExpansion:
    """Build a canonical :class:`HermiteExpansion`, dropping exact zeros."""
    items = terms.items() if isinstance(terms, Mapping) else terms
    canon: dict[MultiIndex, float] = {}
    for alpha, c in items:
        alpha = check_multi_index(alpha)
        c = float(c)
        if not math.isfinite(c):
            raise ValidationError(f"non-finite coefficient at {alpha}")
        if c != 0.0:
            canon[alpha] = canon.get(alpha, 0.0) + c
            if canon[alpha] == 0.0:
                del canon[alpha]
    return HermiteExpansion(dimension, canon)


def expansion_eval(p: HermiteExpansion, x) -> float:
    """Evaluate ``p`` at a single point ``x`` (length ``p.dimension``)."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if x.shape != (p.dimension,):
        raise DimensionMismatchError(
            f"point shape {x.shape} does not match dimension {p.dimension}"
        )
    return float(expansion_eval_batch(p, x[None, :])[0])


def _block_length(cells_per_point: int) -> int:
    # points per block so that one block's buffers hold BLOCK_CELLS cells
    return max(1, BLOCK_CELLS // max(1, cells_per_point))


def expansion_eval_batch(p: HermiteExpansion, points: np.ndarray) -> np.ndarray:
    """Evaluate ``p`` at ``points`` of shape ``(N, dimension)`` -> ``(N,)``.

    Blocked per-axis contraction.  The terms are grouped by their prefix
    ``alpha[:-1]`` into a dense matrix ``C`` (prefixes x last-axis degree),
    whose rows are taken in chunks of at most as many rows as the table has.
    Per block of points one recurrence pass builds the stacked table
    ``H_j(x_i)`` for every axis ``i`` up to the largest per-axis degree
    ``k``, ``n (k + 1)`` rows; an expansion whose axes reach unequal degrees
    pays for the rows above each axis' own.  The blocks are sized so that the
    table and one chunk's prefixes x points intermediate hold
    :data:`BLOCK_CELLS` cells, whatever the number of terms.  Per block and
    chunk, one matrix product ``C @ H_last`` contracts the last axis; each
    prefix row is then multiplied by its table row on every leading axis in
    axis order (degree 0 gathers ``H_0 = 1``) and the rows are summed.
    Values are deterministic for a given input array; they may differ from
    the term-by-term sum in the last bits (about 1e-15 relative).
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != p.dimension:
        raise DimensionMismatchError(
            f"points shape {points.shape} does not match dimension {p.dimension}"
        )
    values = np.zeros(points.shape[0])
    if not p.terms:
        return values
    n = p.dimension
    dmax = [max(alpha[i] for alpha in p.terms) for i in range(n)]
    k = max(dmax)
    rows: dict[MultiIndex, int] = {}
    for alpha in p.terms:
        rows.setdefault(alpha[:-1], len(rows))
    coef = np.zeros((len(rows), dmax[-1] + 1))
    for alpha, c in p.terms.items():
        coef[rows[alpha[:-1]], alpha[-1]] = c
    # row of H_{alpha_i}(x_i) in the stacked table viewed as (k + 1) n rows
    prefix_rows = np.array(list(rows), dtype=np.intp).reshape(len(rows), n - 1) * n
    prefix_rows += np.arange(n - 1)
    table_rows = n * (k + 1)
    chunk = min(len(rows), table_rows)
    chunks = [
        (coef[lo : lo + chunk], prefix_rows[lo : lo + chunk].T.copy())
        for lo in range(0, len(rows), chunk)
    ]
    block = _block_length(table_rows + chunk)
    for start in range(0, points.shape[0], block):
        table = hermite_upto(k, points[start : start + block].T)
        last = table[: dmax[-1] + 1, -1]
        table = table.reshape(table_rows, -1)
        out = values[start : start + block]
        for chunk_coef, axis_rows in chunks:
            partial = chunk_coef @ last
            for rows_i in axis_rows:
                partial *= np.take(table, rows_i, axis=0)
            out += partial.sum(axis=0)
    return values


def basis_matrix(points: np.ndarray, alphas: list[MultiIndex]) -> np.ndarray:
    """Design matrix ``M[i, j] = H_{alphas[j]}(points[i])``.

    Rows are built in blocks of :data:`BLOCK_CELLS` cells: per block, one
    recurrence pass for the stacked table of every axis up to the largest
    per-axis degree ``k`` (``n (k + 1)`` rows, so unequal per-axis degrees pay
    for the rows above each axis' own), then the columns in a transposed
    (basis x points) scratch buffer, whose rows are contiguous, copied into
    the output.  Each distinct prefix ``alpha[:i + 1]`` is formed once per
    block, as its parent prefix times ``H_{alpha_i}(x_i)``, and the last axis
    extends the prefixes to every column.  Each entry is thus the product of
    its table values in axis order, so the matrix is bit-identical to the
    column-by-column construction and deterministic for a given input array.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise DimensionMismatchError("points must have shape (N, dimension)")
    n = points.shape[1]
    if any(len(a) != n for a in alphas):
        raise DimensionMismatchError("multi-index length does not match points")
    k = max((max(a, default=0) for a in alphas), default=0)
    # H_{alpha_i}(x_i) is row alpha_i n + i of the stacked table viewed as
    # (k + 1) n rows.  A prefix alpha[:i + 1] has the key (number of
    # alpha[:i]) (k + 1) + alpha_i; the distinct keys of each leading axis
    # are numbered in order, and on the last axis every column keeps its own
    # key.  Each level after the first gathers its parent prefix rows and
    # multiplies them by its rows of the table.
    index = np.array(alphas, dtype=np.intp).reshape(len(alphas), n)
    prefix, count = np.zeros(len(alphas), dtype=np.intp), 1
    levels = []
    for i in range(n):
        key = prefix * (k + 1) + index[:, i]
        if i < n - 1:
            seen = np.zeros(count * (k + 1), dtype=bool)
            seen[key] = True
            prefix = (np.cumsum(seen) - 1)[key]
            key = np.flatnonzero(seen)
            count = key.size
        levels.append((key // (k + 1), key % (k + 1) * n + i))
    (_, rows_0), *steps = levels
    out = np.empty((points.shape[0], len(alphas)))
    block = _block_length(len(alphas) + n * (k + 1))
    for start in range(0, points.shape[0], block):
        table = hermite_upto(k, points[start : start + block].T).reshape(n * (k + 1), -1)
        scratch = np.take(table, rows_0, axis=0)
        for parents, rows_i in steps:
            scratch = np.take(scratch, parents, axis=0)
            scratch *= np.take(table, rows_i, axis=0)
        out[start : start + block] = scratch.T
    return out


def truncate(p: HermiteExpansion, degree: int) -> HermiteExpansion:
    """Keep the terms of total degree <= ``degree``."""
    degree = _check_degree(degree)
    return expansion(
        p.dimension, {a: c for a, c in p.terms.items() if sum(a) <= degree}
    )


def l2_norm(p: HermiteExpansion) -> float:
    """Gaussian L2 norm; by orthonormality the root sum of squared coefficients."""
    return math.sqrt(math.fsum(c * c for c in p.terms.values()))


# ---------------------------------------------------------------------------
# Gauss-Hermite quadrature for the standard normal


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes/weights integrating against the N(0, I_n) density.

    ``nodes`` has shape ``(N, dimension)``; weights are positive and sum to 1.
    """

    dimension: int
    nodes: np.ndarray
    weights: np.ndarray

    @property
    def size(self) -> int:
        return self.nodes.shape[0]


@lru_cache(maxsize=64)
def _gauss_hermite_1d(m: int) -> tuple[np.ndarray, np.ndarray]:
    # Golub-Welsch: nodes are eigenvalues of the Jacobi matrix of the
    # orthonormal basis (zero diagonal, off-diagonal sqrt(k)); the weight of
    # node i is the squared first component of its unit eigenvector.
    if m == 1:
        return np.zeros(1), np.ones(1)
    offdiag = np.sqrt(np.arange(1.0, m))
    nodes, vectors = np.linalg.eigh(np.diag(offdiag, 1) + np.diag(offdiag, -1))
    weights = vectors[0, :] ** 2
    # enforce the exact +/- symmetry of the rule
    nodes = 0.5 * (nodes - nodes[::-1])
    weights = 0.5 * (weights + weights[::-1])
    weights = weights / weights.sum()
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


@lru_cache(maxsize=8)
def _christoffel_ratio(m: int) -> tuple[np.ndarray, np.ndarray]:
    # The weight of node x is 1 / sum_{j<m} H_j(x)^2 (Christoffel).  With the
    # damped g_j = e^{-x^2/4} H_j(x) of the recurrence, w H_k = g_k r for the
    # ratio r = e^{-x^2/4} / sum_{j<m} g_j^2: every factor is accurate in
    # relative terms, where the Golub-Welsch weights are so only in absolute
    # terms.  Where the damping underflows (m >= 1000) r is 0, which is w H_k
    # to double precision there.
    x = _gauss_hermite_1d(m)[0]
    damp = np.exp(-0.25 * x * x)
    g = _recurrence(m - 1, x, start=damp, table=True)
    total = np.einsum("ji,ji->i", g, g)
    ratio = np.divide(damp, total, out=np.zeros(m), where=total > 0.0)
    damp.setflags(write=False)
    ratio.setflags(write=False)
    return damp, ratio


def gauss_hermite_products(points_per_axis: int, degree: int) -> np.ndarray:
    """``B[k, i] = w_i H_k(x_i)`` for ``k <= degree`` over the nodes and
    weights of the 1-D :func:`gauss_hermite_rule`, the matrix that contracts
    node values into Hermite coefficients.

    It is formed from the damped recurrence and the Christoffel numbers, so
    that ``B H^T = I`` holds to rounding for ``degree < points_per_axis``;
    the product of the weights with ``H_k`` would multiply their absolute
    rounding error by ``|H_k(x_i)|``, past 1e100 at the outer nodes.
    """
    gauss_hermite_nodes(points_per_axis)  # validates first
    degree = _check_degree(degree)
    damp, ratio = _christoffel_ratio(points_per_axis)
    x = _gauss_hermite_1d(points_per_axis)[0]
    return _recurrence(degree, x, start=damp, table=True) * ratio


def gauss_hermite_nodes(points_per_axis: int, dimension: int = 1) -> np.ndarray:
    """The nodes of :func:`gauss_hermite_rule`, shape ``(m^n, n)``, without
    building its ``m^n`` weights; the same checks and budget."""
    if points_per_axis < 1:
        raise ValidationError(f"points_per_axis must be >= 1, got {points_per_axis}")
    if dimension < 1:
        raise ValidationError(f"dimension must be >= 1, got {dimension}")
    power = max(dimension, 2)
    if points_per_axis**power > NODE_BUDGET:
        raise NodeBudgetError(
            f"{points_per_axis}^{power} cells exceed the budget of "
            f"{NODE_BUDGET}; use a Monte-Carlo estimator instead"
        )
    axes = [_gauss_hermite_1d(points_per_axis)[0]] * dimension
    return np.stack(np.meshgrid(*axes, indexing="ij", copy=False), axis=-1).reshape(-1, dimension)


def gauss_hermite_rule(points_per_axis: int, dimension: int = 1) -> QuadratureRule:
    """Tensorized Gauss-Hermite rule for the standard normal on R^n.

    Exact for polynomials of per-axis degree <= ``2 * points_per_axis - 1``.
    Nodes are in "ij" order (last axis fastest); weights multiply in axis
    order.  Raises :class:`NodeBudgetError` when the tensor grid, or in 1-D the
    ``m x m`` Jacobi matrix the nodes are computed from, would exceed
    ``NODE_BUDGET`` cells (use the Monte-Carlo paths instead).
    """
    nodes = gauss_hermite_nodes(points_per_axis, dimension)  # validates first
    weights = reduce(np.multiply.outer, [_gauss_hermite_1d(points_per_axis)[1]] * dimension, 1.0)
    return QuadratureRule(dimension, nodes, weights.reshape(-1))


def expectation(f: Callable, rule: QuadratureRule) -> float:
    """Quadrature expectation ``E[f(X)]`` for ``X ~ N(0, I_n)``.

    ``f`` receives a scalar when ``rule.dimension == 1`` and a 1D array of
    length ``dimension`` otherwise.  Non-finite values raise
    :class:`EvaluationError` carrying the offending node.
    """
    total = 0.0
    scalar_arg = rule.dimension == 1
    for node, w in zip(rule.nodes, rule.weights):
        value = f(float(node[0])) if scalar_arg else f(node)
        value = float(value)
        if not math.isfinite(value):
            raise EvaluationError(
                f"integrand returned non-finite value at node {node}", point=node
            )
        total += w * value
    return total


def sqrt_factorial(alpha: MultiIndex) -> float:
    """``sqrt(alpha!)`` computed in log-space to avoid overflow."""
    return math.exp(0.5 * math.fsum(math.lgamma(a + 1) for a in alpha))


def coeff_via_derivatives(g_derivatives: Callable, beta, rule: QuadratureRule) -> float:
    """Hermite coefficient from the Gaussian integration-by-parts identity.

    For smooth ``g`` with derivatives of moderate growth,
    ``<g, H_beta> = E[(d^beta g)(X)] / sqrt(beta!)``; ``g_derivatives(beta, x)``
    must return the mixed partial derivative of order ``beta`` at ``x``.
    """
    beta = check_multi_index(beta)
    if len(beta) != rule.dimension:
        raise DimensionMismatchError(
            f"multi-index length {len(beta)} does not match rule dimension {rule.dimension}"
        )
    mean = expectation(lambda x: g_derivatives(beta, x), rule)
    return mean / sqrt_factorial(beta)
