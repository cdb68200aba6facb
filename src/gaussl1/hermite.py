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
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from .errors import (
    DimensionMismatchError,
    EvaluationError,
    NodeBudgetError,
    ValidationError,
)
# BLOCK_CELLS, the cells of one point block, is defined in mc with the list
# of every pass that blocks by it
from .mc import BLOCK_CELLS, block_rows, check_dimension, check_integer, check_numeric

MultiIndex = tuple[int, ...]

NODE_BUDGET = 2_000_000

# Cells of samples x terms that one call may cover: the learner's basis, one
# whole buffer (2^27 cells are 1 GiB), or one Monte-Carlo coefficient chunk,
# which basis_sums passes through in blocks, so the limit bounds its work.
MC_CHUNK_CELLS = 1 << 27


# ---------------------------------------------------------------------------
# the standard Gaussian measure

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Upper limit for Gaussian-weighted integrals with one power of phi, such as
# |f - p| phi: their excluded tail is far below every tolerance used in the
# package.  It is not safe for (f - p)^2 phi, whose mass at degree d reaches
# out to |x| ~ 2 sqrt(d), past 12 from d = 36 on.
GAUSS_CUTOFF = 12.0


def gauss_density(x):
    """Standard normal density ``phi(x)`` of a float or an ndarray."""
    if isinstance(x, np.ndarray):
        return np.exp(-0.5 * x * x) / _SQRT_2PI
    return math.exp(-0.5 * x * x) / _SQRT_2PI


# ---------------------------------------------------------------------------
# univariate evaluation


def _recurrence(k: int, x: np.ndarray, start=None, weights=None, table=False):
    """The three-term recurrence over a float64 array ``x``:
    ``h_0 = start`` (default 1), ``h_1 = x h_0`` and
    ``h_{j+1} = (x h_j - sqrt(j) h_{j-1}) / sqrt(j + 1)``, so ``h_j = start H_j(x)``.

    Returns the ``(k + 1,) + x.shape`` table of ``h_0 .. h_k`` with ``table``;
    otherwise, holding three rows at a time, ``h_k`` or, given ``weights``
    (length ``k + 1``), ``sum_j weights[j] h_j`` over the non-zero weights.
    """
    shape = x.shape
    # x steps in place as a flat array: row j goes into its table row, or
    # else into the buffer that h_{j-3} leaves in a ring of three
    x = np.ascontiguousarray(x).reshape(-1)
    rows = np.empty((k + 1, x.size)) if table else [np.empty(x.size) for _ in range(3)]
    scaled = np.empty(x.size)
    total = None if weights is None else np.zeros_like(x)
    prev, cur = None, 1.0 if start is None else np.reshape(start, x.shape)
    for j in range(k + 1):
        new = np.multiply(x if j else 1.0, cur, rows[j % len(rows)])  # h_0 = 1 * start
        if j > 1:
            new -= np.multiply(prev, math.sqrt(j - 1), scaled)
            new /= math.sqrt(j)
        if total is not None and weights[j] != 0.0:
            total += np.multiply(new, weights[j], scaled)
        prev, cur = cur, new
    if table:
        return rows.reshape((k + 1,) + shape)
    return np.reshape(cur if total is None else total, shape)


def hermite_upto(k: int, x) -> np.ndarray:
    """Values ``H_0(x) .. H_k(x)`` in one upward recurrence pass.

    ``x`` may be a scalar or an ndarray; the result has shape
    ``(k + 1,) + shape(x)``.  ``k`` must be an integer >= 0 (numpy's too).
    """
    k = check_integer("degree", k, 0)
    return _recurrence(k, np.asarray(x, dtype=np.float64), table=True)


def hermite_eval(k: int, x):
    """``H_k(x)``, integer ``k >= 0``, by the three-term recurrence (scalar or ndarray ``x``)."""
    k = check_integer("degree", k, 0)
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
    k = check_integer("degree", k, 0)
    out = np.zeros(k + 1)
    value = 1.0
    out[0] = value
    for m in range(1, k // 2 + 1):
        value *= -math.sqrt((2 * m - 1) / (2 * m))
        out[2 * m] = value
    return out


# ---------------------------------------------------------------------------
# multi-indices


def _entries(alpha) -> tuple:
    # the entries of a multi-index key as given; 2 or None is no sequence at all
    try:
        return tuple(alpha)
    except TypeError:
        raise ValidationError(f"multi-index entries must be integers, got {alpha!r}") from None


def check_multi_index(alpha) -> MultiIndex:
    entries = _entries(alpha)
    try:
        alpha = tuple(int(a) for a in entries)
    except (TypeError, ValueError, OverflowError):  # NaN, infinities, strings
        alpha = None
    if alpha != entries:
        raise ValidationError(f"multi-index entries must be integers, got {entries}")
    if any(a < 0 for a in alpha):
        raise ValidationError(f"multi-index entries must be >= 0, got {alpha}")
    return alpha


def multi_indices_upto(dimension: int, degree: int) -> list[MultiIndex]:
    """All multi-indices of total degree <= ``degree``, degree-major then
    lexicographic (a deterministic basis ordering with nested prefixes).
    A bad ``dimension`` or ``degree`` raises :class:`ValidationError`, and more
    than ``NODE_BUDGET`` indices raise :class:`NodeBudgetError`, at once."""
    dimension = check_dimension(dimension)
    degree = check_integer("degree", degree, 0)
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
    coefficients are non-zero finite floats.  Use :func:`expansion` to build one.
    ``dimension`` must be a whole number >= 1 and is stored as an ``int``.
    A key passes :func:`check_multi_index` and is stored as a tuple of
    ``int``: ``(2.0,)`` and ``(np.int64(2),)`` are ``(2,)``, as in
    :func:`expansion` and :meth:`from_dict`.
    """

    dimension: int
    terms: dict[MultiIndex, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "dimension", check_dimension(self.dimension))
        terms = {check_multi_index(alpha): c for alpha, c in self.terms.items()}
        object.__setattr__(self, "terms", terms)
        for alpha, c in terms.items():
            if len(alpha) != self.dimension:
                raise DimensionMismatchError(
                    f"term {alpha} has length {len(alpha)}, expected {self.dimension}"
                )
            c = terms[alpha] = check_numeric("coefficient", c, at=alpha)
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
            dimension = data["dimension"]
            terms = {tuple(item["alpha"]): item["coeff"] for item in data["terms"]}
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed expansion payload: {exc}") from exc
        if len(terms) != len(data["terms"]):
            raise ValidationError("duplicate multi-index in expansion payload")
        # the wire format is the canonical form: the constructor checks every
        # term and rejects explicit zeros rather than silently dropping them
        return cls(dimension, terms)

    @classmethod
    def from_json(cls, text: str) -> "HermiteExpansion":
        return cls.from_dict(json.loads(text))


def expansion(dimension: int, terms: Mapping | Iterable) -> HermiteExpansion:
    """Build a canonical :class:`HermiteExpansion`, dropping exact zeros."""
    items = terms.items() if isinstance(terms, Mapping) else terms
    canon: dict[MultiIndex, float] = {}
    for alpha, c in items:
        # equal keys such as (2,) and (2.0,) merge; the constructor checks the
        # kept terms, a non-finite sum included
        alpha = _entries(alpha)
        c = check_numeric("coefficient", c, at=alpha)
        if c != 0.0:
            canon[alpha] = canon.get(alpha, 0.0) + c
            if canon[alpha] != 0.0:
                continue
            del canon[alpha]
        check_multi_index(alpha)  # a dropped key obeys the same rule
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


def _prefix_rows(index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct prefixes ``alpha[:-1]`` of the ``(terms, n)`` multi-index
    array ``index``, in order of first appearance, as their rows of the
    stacked table viewed as ``(k + 1) n`` rows, where ``H_{alpha_i}(x_i)`` is
    row ``alpha_i n + i``: shape ``(prefixes, n - 1)``, one prefix (the empty
    one) when ``n = 1``.  Also returns each term's prefix number."""
    n = index.shape[1]
    numbers: dict[tuple, int] = {}
    prefix = [numbers.setdefault(key, len(numbers)) for key in map(tuple, index[:, :-1].tolist())]
    rows = np.array(list(numbers), dtype=np.intp).reshape(len(numbers), n - 1)
    return rows * n + np.arange(n - 1), np.array(prefix, dtype=np.intp)


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
    index = np.array(list(p.terms), dtype=np.intp)
    prefix_rows, prefix = _prefix_rows(index)
    k, top = int(index.max()), int(index[:, -1].max())
    coef = np.zeros((len(prefix_rows), top + 1))
    coef[prefix, index[:, -1]] = list(p.terms.values())
    table_rows = n * (k + 1)
    chunk = min(len(prefix_rows), table_rows)
    chunks = [
        (coef[lo : lo + chunk], prefix_rows[lo : lo + chunk].T.copy())
        for lo in range(0, len(prefix_rows), chunk)
    ]
    block = _block_length(table_rows + chunk)
    for start in range(0, points.shape[0], block):
        table = hermite_upto(k, points[start : start + block].T)
        last = table[: top + 1, -1]
        table = table.reshape(table_rows, -1)
        out = values[start : start + block]
        for chunk_coef, axis_rows in chunks:
            partial = chunk_coef @ last
            for rows_i in axis_rows:
                partial *= np.take(table, rows_i, axis=0)
            out += partial.sum(axis=0)
    return values


def _check_basis_args(points, alphas) -> tuple[np.ndarray, np.ndarray, int]:
    # points as (N, n) float64, alphas as a (terms, n) array, and their largest entry
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise DimensionMismatchError("points must have shape (N, dimension)")
    n = points.shape[1]
    if any(len(a) != n for a in alphas):
        raise DimensionMismatchError("multi-index length does not match points")
    k = max((max(a, default=0) for a in alphas), default=0)
    return points, np.array(alphas, dtype=np.intp).reshape(len(alphas), n), k


def basis_matrix(points: np.ndarray, alphas: list[MultiIndex]) -> np.ndarray:
    """Design matrix ``M[i, j] = H_{alphas[j]}(points[i])``.

    Rows are built in blocks of :data:`BLOCK_CELLS` cells: per block, one
    recurrence pass for the stacked table of every axis up to the largest
    per-axis degree ``k`` (``n (k + 1)`` rows, so unequal per-axis degrees pay
    for the rows above each axis' own), then the columns in a transposed
    (basis x points) scratch buffer, whose rows are contiguous, copied into
    the output.  The scratch starts as every column's table row on axis 0
    and is multiplied by its row on each next axis in turn, so each entry is
    the product of its table values in axis order: the matrix is
    bit-identical to the column-by-column construction and deterministic for
    a given input array.
    """
    points, index, k = _check_basis_args(points, alphas)
    n = points.shape[1]
    rows = (index * n + np.arange(n)).T.copy()
    out = np.empty((points.shape[0], len(alphas)))
    block = _block_length(len(alphas) + n * (k + 1))
    for start in range(0, points.shape[0], block):
        table = hermite_upto(k, points[start : start + block].T).reshape(n * (k + 1), -1)
        scratch = np.take(table, rows[0], axis=0)
        for rows_i in rows[1:]:
            scratch *= np.take(table, rows_i, axis=0)
        out[start : start + block] = scratch.T
    return out


def basis_sums(
    points: np.ndarray, alphas: list[MultiIndex], weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``sum_i w_i H_alpha(x_i)`` and ``sum_i (w_i H_alpha(x_i))^2`` for each
    ``alpha`` in ``alphas``, over ``points`` of shape ``(N, n)`` and
    ``weights`` of shape ``(N,)``, without the ``N x terms`` basis.

    The points go in blocks of about :data:`BLOCK_CELLS` cells, so the pass
    holds one block whatever ``N`` and the number of terms are.  Per block
    the stacked table is built as in :func:`basis_matrix`, and the row of
    each distinct prefix ``alpha[:-1]`` is ``w`` times its table values on
    the leading ``n - 1`` axes, multiplied in axis order.  Two matrix
    products with the last axis' rows then give every prefix's sums at every
    last-axis degree: one of the prefix rows with ``H_j``, one of their
    squares with ``H_j^2``.  The sums are deterministic for given input
    arrays; they differ from the sums of the basis matrix's columns in the
    last bits (about 1e-15 relative).
    """
    points, index, k = _check_basis_args(points, alphas)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != points.shape[:1]:
        raise DimensionMismatchError(
            f"weights shape {weights.shape} does not match {points.shape[0]} points"
        )
    n = points.shape[1]
    prefix_rows, prefix = _prefix_rows(index)
    count = len(prefix_rows)
    last = index[:, -1]
    top = int(last.max(initial=0))
    sums = np.zeros((count, top + 1))
    sumsq = np.zeros((count, top + 1))
    # per point: the table and three rows per prefix, which hold the prefixes
    # with a gathered table row or with their squares; the squared last-axis
    # rows go uncounted
    block = _block_length(n * (k + 1) + 3 * count)
    for start in range(0, points.shape[0], block):
        table = hermite_upto(k, points[start : start + block].T)
        last_rows = table[: top + 1, -1]
        table = table.reshape(n * (k + 1), -1)
        scratch = np.repeat(weights[None, start : start + block], count, axis=0)
        for rows_i in prefix_rows.T:
            scratch *= np.take(table, rows_i, axis=0)
        sums += scratch @ last_rows.T
        sumsq += np.square(scratch) @ np.square(last_rows).T
    return sums[prefix, last], sumsq[prefix, last]


def truncate(p: HermiteExpansion, degree: int) -> HermiteExpansion:
    """Keep the terms of total degree <= ``degree``, an integer >= 0."""
    degree = check_integer("degree", degree, 0)
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

    ``nodes`` has shape ``(N, dimension)``; weights are non-negative, 0 where
    they fall below the double range, and sum to 1.
    """

    dimension: int
    nodes: np.ndarray
    weights: np.ndarray

    @property
    def size(self) -> int:
        return self.nodes.shape[0]


@lru_cache(maxsize=64)
def _gauss_hermite_1d(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # The nodes are the eigenvalues of the Jacobi matrix of the orthonormal
    # basis (zero diagonal, off-diagonal sqrt(k)), refined by one Newton step
    # x -= H_m / (sqrt(m) H_{m-1}) on the damped recurrence, skipped where
    # H_{m-1} e^{-x^2/4} underflows to 0, then made exactly +/- symmetric.
    # The weight of node x is 1 / sum_{j<m} H_j(x)^2 (Christoffel).  With the
    # damped g_j = e^{-x^2/4} H_j(x), w H_k = g_k r for the ratio
    # r = e^{-x^2/4} / sum_{j<m} g_j^2, and w = damp * r: every factor is
    # accurate in relative terms.  Where the damping underflows (m >= 1000)
    # r is 0, which is w H_k to double precision there.
    offdiag = np.sqrt(np.arange(1.0, m))
    x = np.linalg.eigvalsh(np.diag(offdiag, 1) + np.diag(offdiag, -1))
    damp = np.exp(-0.25 * x * x)
    below = math.sqrt(m) * _recurrence(m - 1, x, start=damp)
    x -= np.divide(_recurrence(m, x, start=damp), below, out=np.zeros(m), where=below != 0.0)
    nodes = 0.5 * (x - x[::-1])
    damp = np.exp(-0.25 * nodes * nodes)
    g = _recurrence(m - 1, nodes, start=damp, table=True)
    total = np.einsum("ji,ji->i", g, g)
    ratio = np.divide(damp, total, out=np.zeros(m), where=total > 0.0)
    for array in (nodes, damp, ratio):
        array.setflags(write=False)
    return nodes, damp, ratio


def gauss_hermite_products(points_per_axis: int, degree: int) -> np.ndarray:
    """``B[k, i] = w_i H_k(x_i)`` for ``k <= degree`` over the nodes and
    weights of the 1-D :func:`gauss_hermite_rule`, the matrix that contracts
    node values into Hermite coefficients.  Row 0 is the rule's weights, bit
    for bit.

    It is formed from the damped recurrence and the Christoffel ratio, so
    that ``B H^T = I`` holds to rounding for ``degree < points_per_axis``;
    the weights times a separately computed ``H_k`` would lose the outer
    nodes, where the weights underflow and ``H_k^2`` passes 1e300.
    """
    x = _node_axes(points_per_axis, 1)[0]  # validates first
    degree = check_integer("degree", degree, 0)
    _, damp, ratio = _gauss_hermite_1d(points_per_axis)
    return _recurrence(degree, x, start=damp, table=True) * ratio


def gauss_hermite_nodes(points_per_axis: int, dimension: int = 1) -> np.ndarray:
    """The nodes of :func:`gauss_hermite_rule`, shape ``(m^n, n)``, without
    building its ``m^n`` weights; the same checks and budget."""
    return _grid(_node_axes(points_per_axis, dimension))


def gauss_hermite_slabs(points_per_axis: int, dimension: int = 1) -> Iterator[np.ndarray]:
    """The rows of :func:`gauss_hermite_nodes` in order, in slabs of whole
    rows of the leading axis (``m^(n-1)`` nodes each), grouped to about
    :func:`mc.block_rows` nodes a slab; so the ``m^n x n`` grid is never
    built.  The checks and budget of :func:`gauss_hermite_nodes` run at the
    call, before any slab is."""
    axes = _node_axes(points_per_axis, dimension)
    m = axes[0].size
    step = max(1, block_rows(dimension) // m ** (dimension - 1))
    return (_grid([axes[0][i : i + step]] + axes[1:]) for i in range(0, m, step))


def _node_axes(points_per_axis: int, dimension: int) -> list[np.ndarray]:
    # the 1-D nodes of each axis, once the m^n grid is within the budget
    points_per_axis = check_integer("points_per_axis", points_per_axis, 1)
    dimension = check_dimension(dimension)
    power = max(dimension, 2)
    if points_per_axis**power > NODE_BUDGET:
        raise NodeBudgetError(
            f"{points_per_axis}^{power} cells exceed the budget of "
            f"{NODE_BUDGET}; use a Monte-Carlo estimator instead"
        )
    return [_gauss_hermite_1d(points_per_axis)[0]] * dimension


def _grid(axes: list[np.ndarray]) -> np.ndarray:
    # the tensor grid of the axes in "ij" order, one node a row
    return np.stack(np.meshgrid(*axes, indexing="ij", copy=False), axis=-1).reshape(-1, len(axes))


def gauss_hermite_rule(points_per_axis: int, dimension: int = 1) -> QuadratureRule:
    """Tensorized Gauss-Hermite rule for the standard normal on R^n.

    Exact for polynomials of per-axis degree <= ``2 * points_per_axis - 1``.
    Nodes are in "ij" order (last axis fastest); weights multiply in axis
    order.  The 1-D weights are the Christoffel numbers
    ``1 / sum_{j<m} H_j(x_i)^2``, row 0 of :func:`gauss_hermite_products` bit
    for bit: accurate in relative terms, and 0 where they fall below the
    double range (the outer nodes from ``m`` about 400).
    ``points_per_axis`` must be an integer >= 1 and ``dimension`` integral
    and >= 1, else :class:`ValidationError`; a float such as ``2.5`` is never
    truncated.  Raises :class:`NodeBudgetError` when the tensor
    grid, or in 1-D the ``m x m`` Jacobi matrix the nodes are computed from,
    would exceed ``NODE_BUDGET`` cells (use the Monte-Carlo paths instead).
    """
    nodes = gauss_hermite_nodes(points_per_axis, dimension)  # validates first
    _, damp, ratio = _gauss_hermite_1d(points_per_axis)
    axes = [damp * ratio] * nodes.shape[1]
    return QuadratureRule(nodes.shape[1], nodes, reduce(np.multiply.outer, axes, 1.0).reshape(-1))


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
