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
from functools import lru_cache
from typing import Callable, Iterable, Mapping

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import (
    DimensionMismatchError,
    EvaluationError,
    NodeBudgetError,
    ValidationError,
)

MultiIndex = tuple[int, ...]

NODE_BUDGET = 2_000_000

# Float64 cells that one point block of the batch kernels holds at once: the
# per-axis tables plus one prefix chunk's intermediate (expansion_eval_batch)
# or the basis block (basis_matrix).  2^17 cells are 1 MiB, so a block stays
# in a core's L2 cache.
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


def total_degree(alpha: MultiIndex) -> int:
    return sum(alpha)


def multi_indices_upto(dimension: int, degree: int) -> list[MultiIndex]:
    """All multi-indices of total degree <= ``degree``, degree-major then
    lexicographic (a deterministic basis ordering with nested prefixes).
    More than ``NODE_BUDGET`` of them raise :class:`ValidationError` at once."""
    if dimension < 1:
        raise ValidationError(f"dimension must be >= 1, got {dimension}")
    degree = _check_degree(degree)
    if math.comb(dimension + degree, degree) > NODE_BUDGET:
        raise ValidationError(f"more than {NODE_BUDGET} multi-indices up to degree {degree}")
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
    value = 1.0
    for a, xi in zip(alpha, x):
        value *= hermite_eval(a, float(xi))
    return value


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


def _axis_tables(p: HermiteExpansion, x: np.ndarray) -> list[np.ndarray]:
    # One recurrence pass per axis up to the largest per-axis degree used.
    tables = []
    for i in range(p.dimension):
        dmax = max((alpha[i] for alpha in p.terms), default=0)
        tables.append(hermite_upto(dmax, x[..., i]))
    return tables


def expansion_eval(p: HermiteExpansion, x) -> float:
    """Evaluate ``p`` at a single point ``x`` (length ``p.dimension``)."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if x.shape != (p.dimension,):
        raise DimensionMismatchError(
            f"point shape {x.shape} does not match dimension {p.dimension}"
        )
    tables = _axis_tables(p, x)
    value = 0.0
    for alpha, c in p.terms.items():
        term = c
        for i, a in enumerate(alpha):
            term *= tables[i][a]
        value += term
    return float(value)


def _block_length(cells_per_point: int) -> int:
    # points per block so that one block's buffers hold BLOCK_CELLS cells
    return max(1, BLOCK_CELLS // max(1, cells_per_point))


def expansion_eval_batch(p: HermiteExpansion, points: np.ndarray) -> np.ndarray:
    """Evaluate ``p`` at ``points`` of shape ``(N, dimension)`` -> ``(N,)``.

    Blocked per-axis contraction.  The terms are grouped by their prefix
    ``alpha[:-1]`` into a dense matrix ``C`` (prefixes x last-axis degree),
    whose rows are taken in chunks of at most as many rows as the per-axis
    tables have.  The points are taken in blocks sized so that the tables and
    one chunk's prefixes x points intermediate hold :data:`BLOCK_CELLS`
    cells, whatever the number of terms.  Per block and chunk, one matrix
    product ``C @ H_last`` contracts the last axis; each prefix row is then
    multiplied by its table rows of non-zero degree (``H_0 = 1``) and the
    rows are summed.  Values are deterministic for a given input array; they
    may differ from the term-by-term sum in the last bits (about 1e-15
    relative).
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
    rows: dict[MultiIndex, int] = {}
    for alpha in p.terms:
        rows.setdefault(alpha[:-1], len(rows))
    coef = np.zeros((len(rows), dmax[-1] + 1))
    for alpha, c in p.terms.items():
        coef[rows[alpha[:-1]], alpha[-1]] = c
    prefixes = np.array(list(rows), dtype=np.intp).reshape(len(rows), n - 1)
    table_rows = sum(d + 1 for d in dmax)
    chunk = min(len(rows), table_rows)
    chunks = []
    for lo in range(0, len(rows), chunk):
        part = prefixes[lo : lo + chunk]
        # per leading axis, the chunk's rows of non-zero degree there
        factors = []
        for i in range(n - 1):
            nonzero = np.flatnonzero(part[:, i])
            if nonzero.size:
                factors.append((i, nonzero, part[nonzero, i]))
        chunks.append((coef[lo : lo + chunk], factors))
    block = _block_length(table_rows + chunk)
    for start in range(0, points.shape[0], block):
        x = points[start : start + block]
        tables = [hermite_upto(dmax[i], x[:, i]) for i in range(n)]
        out = values[start : start + block]
        for chunk_coef, factors in chunks:
            partial = chunk_coef @ tables[-1]
            for i, nonzero, degrees in factors:
                partial[nonzero] *= tables[i][degrees]
            out += partial.sum(axis=0)
    return values


def basis_matrix(points: np.ndarray, alphas: list[MultiIndex]) -> np.ndarray:
    """Design matrix ``M[i, j] = H_{alphas[j]}(points[i])``.

    Rows are built in blocks of :data:`BLOCK_CELLS` cells: per block, one
    recurrence table per axis, then all columns at once in a transposed
    (basis x points) scratch buffer, whose rows are contiguous, copied into
    the output.  Each entry is the product of its table values in axis
    order, so the matrix is bit-identical to the column-by-column
    construction and deterministic for a given input array.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise DimensionMismatchError("points must have shape (N, dimension)")
    n = points.shape[1]
    if any(len(a) != n for a in alphas):
        raise DimensionMismatchError("multi-index length does not match points")
    dmax = [max((a[i] for a in alphas), default=0) for i in range(n)]
    index = np.array(alphas, dtype=np.intp).reshape(len(alphas), n)
    out = np.empty((points.shape[0], len(alphas)))
    block = _block_length(len(alphas) + sum(d + 1 for d in dmax))
    for start in range(0, points.shape[0], block):
        x = points[start : start + block]
        tables = [hermite_upto(dmax[i], x[:, i]) for i in range(n)]
        scratch = tables[0][index[:, 0]]
        for i in range(1, n):
            scratch *= tables[i][index[:, i]]
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
    nodes, vectors = eigh_tridiagonal(np.zeros(m), offdiag)
    weights = vectors[0, :] ** 2
    # enforce the exact +/- symmetry of the rule
    nodes = 0.5 * (nodes - nodes[::-1])
    weights = 0.5 * (weights + weights[::-1])
    weights = weights / weights.sum()
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def gauss_hermite_rule(points_per_axis: int, dimension: int = 1) -> QuadratureRule:
    """Tensorized Gauss-Hermite rule for the standard normal on R^n.

    Exact for polynomials of per-axis degree <= ``2 * points_per_axis - 1``.
    Raises :class:`NodeBudgetError` when the tensor grid would exceed
    ``NODE_BUDGET`` nodes (use the Monte-Carlo paths instead).
    """
    if points_per_axis < 1:
        raise ValidationError(f"points_per_axis must be >= 1, got {points_per_axis}")
    if dimension < 1:
        raise ValidationError(f"dimension must be >= 1, got {dimension}")
    if points_per_axis**dimension > NODE_BUDGET:
        raise NodeBudgetError(
            f"{points_per_axis}^{dimension} nodes exceed the budget of "
            f"{NODE_BUDGET}; use a Monte-Carlo estimator instead"
        )
    x1, w1 = _gauss_hermite_1d(points_per_axis)
    # "ij" order (last axis fastest); weights multiply in axis order
    grid = (points_per_axis,) * dimension
    nodes = np.empty(grid + (dimension,))
    weights = np.ones(grid)
    for i in range(dimension):
        along = (-1,) + (1,) * (dimension - i - 1)  # broadcasts onto axis i
        nodes[..., i] = x1.reshape(along)
        weights *= w1.reshape(along)
    return QuadratureRule(dimension, nodes.reshape(-1, dimension), weights.reshape(-1))


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
