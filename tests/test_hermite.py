"""Basis-layer tests: recurrence values, orthonormality, quadrature, expansions."""

import itertools
import json
import math
import re
import time
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from conftest import traced_peak

from gaussl1 import (
    DimensionMismatchError,
    EvaluationError,
    HermiteExpansion,
    NodeBudgetError,
    ValidationError,
    coeff_via_derivatives,
    expansion_eval,
    expectation,
    gauss_hermite_rule,
    hermite_eval,
    hermite_multi_eval,
    hermite_upto,
    hermite_zero,
    l2_norm,
    multi_indices_upto,
    truncate,
)
from gaussl1.hermite import (
    _block_length,
    _gauss_hermite_1d,
    basis_matrix,
    basis_sums,
    expansion,
    expansion_eval_batch,
    gauss_hermite_nodes,
    gauss_hermite_products,
    hermite_zeros_upto,
    sqrt_factorial,
)

SQRT2 = math.sqrt(2.0)


# -- pointwise values against hand-derived oracles --------------------------


def test_low_degree_values():
    assert hermite_eval(0, 3.7) == 1.0
    assert hermite_eval(1, 1.5) == 1.5
    assert hermite_eval(2, 0.0) == pytest.approx(-1.0 / SQRT2, abs=1e-15)
    # H_2(x) = (x^2 - 1)/sqrt(2), H_3(x) = (x^3 - 3x)/sqrt(6)
    for x in (-1.7, 0.4, 2.2):
        assert hermite_eval(2, x) == pytest.approx((x * x - 1) / SQRT2, abs=1e-14)
        assert hermite_eval(3, x) == pytest.approx(
            (x**3 - 3 * x) / math.sqrt(6.0), abs=1e-13
        )


def test_hermite_upto_table_matches_pointwise():
    xs = np.linspace(-3, 3, 7)
    table = hermite_upto(12, xs)
    for k in range(13):
        for i, x in enumerate(xs):
            assert table[k][i] == pytest.approx(hermite_eval(k, float(x)), abs=1e-12)


def test_hermite_zero_exact_values():
    assert hermite_zero(0) == 1.0
    assert hermite_zero(1) == 0.0
    assert hermite_zero(4) == pytest.approx(3.0 / math.sqrt(24.0), abs=1e-15)
    # (-1)^m (2m-1)!!/sqrt((2m)!) for k = 2m
    for m in range(1, 8):
        dfact = math.prod(range(1, 2 * m, 2))
        expected = (-1.0) ** m * dfact / math.sqrt(math.factorial(2 * m))
        assert hermite_zero(2 * m) == pytest.approx(expected, rel=1e-13)


def test_hermite_zero_matches_recurrence_to_k200():
    for k in range(201):
        assert abs(hermite_zero(k) - hermite_eval(k, 0.0)) <= 1e-12


def test_hermite_zero_asymptotics_at_large_even_degree():
    # |H_d(0)| (pi d / 2)^{1/4} -> 1 with a 1/d-scale correction
    for d in (100, 400, 1600):
        scaled = abs(hermite_zero(d)) * (math.pi * d / 2.0) ** 0.25
        assert 1 - 5.0 / d <= scaled <= 1 + 5.0 / d


def test_orthonormality_under_quadrature():
    rule = gauss_hermite_rule(13)
    for i in range(13):
        for j in range(13):
            inner = expectation(
                lambda x: hermite_eval(i, x) * hermite_eval(j, x), rule
            )
            assert inner == pytest.approx(1.0 if i == j else 0.0, abs=1e-10)


def test_derivative_identity_by_central_difference():
    # H_k' = sqrt(k) H_{k-1}.  The h = 1e-5 central difference carries its own
    # O(h^2 |H_k'''|) truncation error, about 2e-8 at k = 50, |x| = 3, so the
    # tolerance sits just above that floor (a wrong scale factor would show
    # up at the 1e-2 level).
    h = 1e-5
    for k in range(1, 51):
        for x in np.linspace(-3, 3, 25):
            fd = (hermite_eval(k, x + h) - hermite_eval(k, x - h)) / (2 * h)
            assert abs(fd - math.sqrt(k) * hermite_eval(k - 1, x)) <= 3e-8


def test_generating_function():
    t = 0.3
    for x in np.linspace(-2, 2, 9):
        series = math.fsum(
            hermite_eval(k, float(x)) * t**k / sqrt_factorial((k,)) for k in range(41)
        )
        assert abs(series - math.exp(x * t - t * t / 2.0)) <= 1e-10


def _phi(x):
    return np.exp(-0.5 * np.asarray(x) ** 2) / math.sqrt(2 * math.pi)


def _phi_kth_derivative(k, x):
    # iterated central differences at three step sizes, two Richardson rounds
    def iterated(h):
        vals = _phi(x + np.arange(-k, k + 1) * h)
        for _ in range(k):
            vals = (vals[2:] - vals[:-2]) / (2 * h)
        return float(vals[0])

    d1, d2, d3 = iterated(0.1), iterated(0.05), iterated(0.025)
    r1, r2 = (4 * d2 - d1) / 3, (4 * d3 - d2) / 3
    return (16 * r2 - r1) / 15


def test_density_derivative_identity():
    # H_k(x) phi(x) = (-1)^k phi^{(k)}(x) / sqrt(k!)
    for k in range(7):
        for x in (-1.5, -0.3, 0.0, 0.8, 2.0):
            lhs = hermite_eval(k, x) * float(_phi(x))
            rhs = (-1.0) ** k * _phi_kth_derivative(k, x) / sqrt_factorial((k,))
            assert abs(lhs - rhs) <= 1e-5


# -- batch kernels against independent references ---------------------------


def _indices(dimension, degree):
    # total degree <= degree, from multisets of axes: an enumeration
    # independent of multi_indices_upto, in a different order
    out = []
    for d in range(degree + 1):
        for axes in itertools.combinations_with_replacement(range(dimension), d):
            alpha = [0] * dimension
            for i in axes:
                alpha[i] += 1
            out.append(tuple(alpha))
    return out


def _random_expansion(rng, alphas, dimension):
    return expansion(dimension, {a: rng.standard_normal() for a in alphas})


def _term_by_term(p, points):
    # sum_alpha c_alpha prod_i H_{alpha_i}(x_i) from hermite_eval's recurrence,
    # with the per-point scale sum_alpha |c_alpha H_alpha(x)| for the tolerance
    column = {}
    total = np.zeros(points.shape[0])
    scale = np.zeros(points.shape[0])
    for alpha, c in p.terms.items():
        term = np.full(points.shape[0], c)
        for i, a in enumerate(alpha):
            if (i, a) not in column:
                column[(i, a)] = hermite_eval(a, points[:, i])
            term *= column[(i, a)]
        total += term
        scale += np.abs(term)
    return total, scale


def _plain_recurrence(k, x):
    out = np.empty((k + 1,) + np.shape(x))
    out[0] = 1.0
    if k >= 1:
        out[1] = x
    for j in range(1, k):
        out[j + 1] = (x * out[j] - math.sqrt(j) * out[j - 1]) / math.sqrt(j + 1)
    return out


def _column_products(points, alphas):
    n = points.shape[1]
    tables = [
        _plain_recurrence(max(a[i] for a in alphas), points[:, i]) for i in range(n)
    ]
    out = np.empty((points.shape[0], len(alphas)))
    for j, alpha in enumerate(alphas):
        col = tables[0][alpha[0]].copy()
        for i in range(1, n):
            col *= tables[i][alpha[i]]
        out[:, j] = col
    return out


def test_expansion_eval_batch_matches_term_by_term():
    rng = np.random.default_rng(11)
    ten = _indices(10, 3)
    kept = [a for a, drop in zip(ten, rng.random(len(ten)) < 1 / 3) if not drop]
    # one point past a block: P prefixes plus the table rows per point
    small = _random_expansion(rng, _indices(1, 3), 1)
    past_block = _block_length(1 + 4) + 1
    cases = [
        (_random_expansion(rng, _indices(2, 15), 2), 1 << 17),
        (_random_expansion(rng, _indices(4, 4), 4), 5000),
        (_random_expansion(rng, kept, 10), 3000),
        (_random_expansion(rng, _indices(1, 100), 1), 4000),
        (small, past_block),
        (expansion(3, {}), 100),
        (_random_expansion(rng, _indices(3, 2), 3), 0),
    ]
    assert len(cases[0][0].terms) == 136
    for p, size in cases:
        points = rng.standard_normal((size, p.dimension))
        got = expansion_eval_batch(p, points)
        want, scale = _term_by_term(p, points)
        assert got.shape == (size,)
        assert np.all(np.abs(got - want) <= 1e-13 * scale)
        assert np.array_equal(got, expansion_eval_batch(p, points.copy()))


def _per_axis_eval_batch(p, points):
    # the kernel before the stacked table: one recurrence per axis on a
    # strided column, and products over the prefix rows of non-zero degree
    values = np.zeros(points.shape[0])
    n = p.dimension
    dmax = [max(alpha[i] for alpha in p.terms) for i in range(n)]
    rows = {}
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


@pytest.mark.parametrize(
    "dimension, degree, size",
    [(2, 15, (1 << 17) + 5), (3, 6, 50000), (4, 4, 40000), (1, 30, 20000)],
)
def test_expansion_eval_batch_bit_identical_to_per_axis_kernel(dimension, degree, size):
    # every axis reaches the same degree, so the stacked table holds the same
    # rows and the blocks split where the per-axis kernel's did
    rng = np.random.default_rng(16 + dimension)
    p = _random_expansion(rng, _indices(dimension, degree), dimension)
    points = rng.standard_normal((size, dimension))
    assert np.array_equal(expansion_eval_batch(p, points), _per_axis_eval_batch(p, points))


def test_lopsided_expansion_pays_the_stacked_rows_and_stays_in_tolerance():
    # per-axis degrees (12, 0, 3): the stacked table holds 3 x 13 rows
    rng = np.random.default_rng(17)
    alphas = [(a, 0, c) for a in range(13) for c in range(4)]
    p = _random_expansion(rng, alphas, 3)
    assert [max(alpha[i] for alpha in p.terms) for i in range(3)] == [12, 0, 3]
    points = rng.standard_normal((_block_length(3 * 13 + 13) * 2 + 7, 3))
    got = expansion_eval_batch(p, points)
    want, scale = _term_by_term(p, points)
    assert np.all(np.abs(got - want) <= 1e-13 * scale)
    assert np.array_equal(basis_matrix(points, alphas), _column_products(points, alphas))


def test_basis_matrix_bit_identical_to_column_products():
    rng = np.random.default_rng(12)
    for dimension, degree, size in ((4, 4, 1 << 15), (1, 30, 20000)):
        alphas = multi_indices_upto(dimension, degree)
        points = rng.standard_normal((size, dimension))
        got = basis_matrix(points, alphas)
        assert got.shape == (size, len(alphas))
        assert np.array_equal(got, _column_products(points, alphas))


@pytest.mark.parametrize(
    "dimension, alphas",
    [
        (1, _indices(1, 9)),
        (2, _indices(2, 6)),
        (3, _indices(3, 4)),
        (6, _indices(6, 3)),
        # per-axis degrees (7, 0, 2) and (0, 5): the stacked table pays for rows
        # no axis uses, and the last axis has fewer degrees than the table
        (3, [(a, 0, c) for a in range(8) for c in range(3)]),
        (2, [(0, 5), (0, 0), (0, 2)]),
    ],
    ids=["1d", "2d", "3d", "6d", "lopsided-3d", "one-prefix-2d"],
)
def test_basis_sums_are_the_basis_matrix_contractions(dimension, alphas):
    rng = np.random.default_rng(19 + dimension)
    k = max(max(a) for a in alphas)
    # three blocks and a short fourth one, whatever the block is
    size = 3 * _block_length(dimension * (k + 1) + 3 * len(alphas)) + 11
    points = rng.standard_normal((size, dimension))
    weights = rng.standard_normal(size)
    weights[::5] = 0.0
    weights[1::5] = -1.0
    before = weights.copy()
    sums, sumsq = basis_sums(points, alphas, weights)
    B = basis_matrix(points, alphas)
    # sums of terms of either sign are checked against the sum of magnitudes
    assert np.all(np.abs(sums - B.T @ weights) <= 1e-13 * (np.abs(B).T @ np.abs(weights)))
    assert np.allclose(sumsq, (B**2).T @ weights**2, rtol=1e-13, atol=0)
    assert np.array_equal(weights, before)  # read, never written


def _level_tree_sums(points, alphas, weights):
    # the kernel before flat prefix products: the prefixes alpha[:i + 1] of
    # each leading axis numbered in sorted order, each formed once per block
    # as its parent prefix times one table row
    n = points.shape[1]
    index = np.array(alphas, dtype=np.intp).reshape(len(alphas), n)
    k = int(index.max())
    prefix, count, levels = np.zeros(len(alphas), dtype=np.intp), 1, []
    for i in range(n - 1):
        key = prefix * (k + 1) + index[:, i]
        seen = np.zeros(count * (k + 1), dtype=bool)
        seen[key] = True
        prefix = (np.cumsum(seen) - 1)[key]
        key = np.flatnonzero(seen)
        count = key.size
        levels.append((key // (k + 1), key % (k + 1) * n + i))
    last = index[:, -1]
    top = int(last.max())
    sums = np.zeros((count, top + 1))
    sumsq = np.zeros((count, top + 1))
    block = _block_length(n * (k + 1) + 3 * count)
    for start in range(0, points.shape[0], block):
        table = hermite_upto(k, points[start : start + block].T)
        last_rows = table[: top + 1, -1]
        table = table.reshape(n * (k + 1), -1)
        scratch = weights[None, start : start + block]
        for parents, rows_i in levels:
            scratch = np.take(scratch, parents, axis=0)
            scratch *= np.take(table, rows_i, axis=0)
        sums += scratch @ last_rows.T
        sumsq += np.square(scratch) @ np.square(last_rows).T
    return sums[prefix, last], sumsq[prefix, last]


@pytest.mark.parametrize("signs", [True, False], ids=["signs", "gaussian"])
@pytest.mark.parametrize(
    "dimension, alphas",
    [
        (1, _indices(1, 30)),
        (4, multi_indices_upto(4, 4)),
        (3, [(a, 0, c) for a in range(8) for c in range(3)]),
        (2, [(0, 5), (0, 0), (0, 2)]),
    ],
    ids=["1d", "4d", "lopsided-3d", "one-prefix-2d"],
)
def test_basis_sums_bit_identical_to_level_tree_kernel(dimension, alphas, signs):
    # the Monte-Carlo coefficients pass the +-1 values of a concept as the
    # weights; the prefix rows are w times their table values in axis order
    # either way, so the sums keep every bit for any weights
    rng = np.random.default_rng(26 + dimension)
    k = max(max(a) for a in alphas)
    prefixes = len({a[:-1] for a in alphas})
    size = 2 * _block_length(dimension * (k + 1) + 3 * prefixes) + 13  # three blocks
    points = rng.standard_normal((size, dimension))
    weights = rng.standard_normal(size)
    if signs:
        weights = np.sign(weights)
    got = basis_sums(points, alphas, weights)
    want = _level_tree_sums(points, alphas, weights)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_basis_sums_check_their_shapes():
    points = np.zeros((4, 2))
    with pytest.raises(DimensionMismatchError):
        basis_sums(points, [(1, 0)], np.ones(3))
    with pytest.raises(DimensionMismatchError):
        basis_sums(points, [(1,)], np.ones(4))


def test_hermite_upto_bit_identical_to_plain_recurrence():
    rng = np.random.default_rng(13)
    x = 3.0 * rng.standard_normal(10000)
    for k in (0, 1, 2, 15, 30, 100):
        assert np.array_equal(hermite_upto(k, x), _plain_recurrence(k, x))
        assert np.array_equal(hermite_upto(k, x[::2]), _plain_recurrence(k, x[::2]))
        grid = x[:60].reshape(6, 10)
        assert np.array_equal(hermite_upto(k, grid), _plain_recurrence(k, grid))
        assert np.array_equal(hermite_upto(k, 0.7), _plain_recurrence(k, 0.7))


def test_hermite_eval_bit_identical_to_plain_recurrence():
    rng = np.random.default_rng(15)
    x = 3.0 * rng.standard_normal(10000)
    x[:3] = (0.0, -0.0, 1e-300)
    column = np.stack([x, -x], axis=1)[:, 1]  # a strided view
    for k in (0, 1, 2, 30, 101):
        assert np.array_equal(hermite_eval(k, x), _plain_recurrence(k, x)[k])
        assert np.array_equal(hermite_eval(k, column), _plain_recurrence(k, column)[k])
        assert hermite_eval(k, -1.3) == float(_plain_recurrence(k, -1.3)[k])


def test_hermite_zero_is_the_origin_product():
    value, want = 1.0, [1.0]
    for k in range(1, 202):
        if k % 2 == 0:
            value *= -math.sqrt((k - 1) / k)
        want.append(value if k % 2 == 0 else 0.0)
    assert [hermite_zero(k) for k in range(202)] == want
    assert hermite_zeros_upto(201).tolist() == want


def test_expansion_eval_batch_memory_is_bounded_by_blocks():
    # 8008 terms on 2^16 points: the prefixes x points intermediate alone
    # would be 5005 x 2^16 doubles (2.6 GB); blocking keeps it to a few MB
    rng = np.random.default_rng(14)
    p = _random_expansion(rng, _indices(10, 6), 10)
    assert len(p.terms) == 8008
    points = rng.standard_normal((1 << 16, 10))
    assert traced_peak(lambda: expansion_eval_batch(p, points)) < 64 * 2**20


# -- multivariate evaluation -------------------------------------------------


def test_multi_eval():
    assert hermite_multi_eval((0, 0, 0), np.array([1.0, 2.0, 3.0])) == 1.0
    assert hermite_multi_eval((1, 1), np.array([2.0, 3.0])) == pytest.approx(6.0)
    assert hermite_multi_eval((2, 0), np.array([0.0, 9.9])) == pytest.approx(
        -1.0 / SQRT2
    )


def test_multi_eval_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        hermite_multi_eval((1, 2), np.array([1.0, 2.0, 3.0]))


def test_multi_index_validation():
    with pytest.raises(ValidationError):
        hermite_multi_eval((1, -2), np.array([1.0, 2.0]))
    with pytest.raises(ValidationError):
        hermite_multi_eval((1.5, 0), np.array([1.0, 2.0]))


def test_multi_indices_upto_counts_and_order():
    idx = multi_indices_upto(2, 3)
    # C(2+3, 3) total-degree <= 3 indices in dimension 2
    assert len(idx) == 10
    degrees = [sum(a) for a in idx]
    assert degrees == sorted(degrees)
    assert idx[0] == (0, 0)
    assert set(idx) == {
        (i, j) for i in range(4) for j in range(4) if i + j <= 3
    }
    # prefix property: degree <= 2 indices come first
    assert all(sum(a) <= 2 for a in idx[:6])


def _filtered_indices(dimension, degree):
    # per degree, every tuple with entries <= d kept if it sums to d, sorted
    out = []
    for d in range(degree + 1):
        level = itertools.product(range(d + 1), repeat=dimension)
        out.extend(sorted(a for a in level if sum(a) == d))
    return out


def test_multi_indices_upto_matches_filtered_product():
    for dimension in range(1, 5):
        for degree in range(7):
            got = multi_indices_upto(dimension, degree)
            assert got == _filtered_indices(dimension, degree)
            assert len(got) == math.comb(dimension + degree, degree)
    assert multi_indices_upto(10, 3) == _filtered_indices(10, 3)


def test_multi_indices_upto_budget():
    assert len(multi_indices_upto(10, 6)) == 8008
    start = time.perf_counter()
    with pytest.raises(ValidationError):
        multi_indices_upto(1000, 10)
    assert time.perf_counter() - start < 1.0
    with pytest.raises(ValidationError):
        multi_indices_upto(10, 15)  # 3 268 760 indices


# -- expansions ---------------------------------------------------------------


def test_expansion_validation():
    with pytest.raises(ValidationError):
        HermiteExpansion(1, {(0,): 0.0})  # explicit zero forbidden
    with pytest.raises(ValidationError):
        HermiteExpansion(2, {(0,): 1.0})  # key length mismatch
    with pytest.raises(ValidationError):
        HermiteExpansion(1, {(-1,): 1.0})
    with pytest.raises(ValidationError):
        HermiteExpansion(1, {(0,): math.inf})
    with pytest.raises(ValidationError):
        HermiteExpansion(0, {})


@pytest.mark.parametrize(
    "dimension, items, error, message",
    [
        (2, [((1,), 1.0)], DimensionMismatchError, "term (1,) has length 1, expected 2"),
        (0, [], ValidationError, "dimension must be >= 1, got 0"),
        (1, [((1.5,), 1.0)], ValidationError, "multi-index entries must be integers"),
        (1, [((-1,), 1.0)], ValidationError, "multi-index entries must be >= 0"),
        (1, [((1,), math.nan)], ValidationError, "non-finite coefficient at (1,)"),
        # two finite terms whose sum overflows
        (1, [((1,), 1e308), ((1,), 1e308)], ValidationError, "non-finite coefficient at (1,)"),
        # every entry is checked before the lengths are
        (2, [((1,), 1.0), ((0, -1), 1.0)], ValidationError, "multi-index entries must be >= 0"),
        (2, [((1, 0), 1.0), ((1,), 1.0)], DimensionMismatchError, "term (1,) has length 1"),
    ],
)
def test_expansion_errors_name_the_bad_term(
    dimension, items, error, message
):
    with pytest.raises(error, match=re.escape(message)) as info:
        expansion(dimension, items)
    assert type(info.value) is error


@pytest.mark.parametrize(
    "coefficient", ["a", None, [1.0], "1.5", b"1.5"], ids=["str", "none", "list", "numeric-str", "bytes"]
)
@pytest.mark.parametrize("build", [expansion, HermiteExpansion], ids=["expansion", "class"])
def test_non_numeric_coefficient_raises_validation_error(build, coefficient):
    message = f"coefficient at (0, 2) must be numeric, got {coefficient!r}"
    with pytest.raises(ValidationError, match=re.escape(message)):
        build(2, {(1, 0): 1.0, (0, 2): coefficient})


def test_expansion_deletes_a_merged_sum_that_cancels():
    assert expansion(1, [((1,), 0.5), ((1,), -0.5)]).terms == {}
    # the deleted key is still checked
    with pytest.raises(ValidationError, match="multi-index entries must be integers"):
        expansion(1, [((1.5,), 1.0), ((1.5,), -1.0)])


def test_constructor_stores_float_coefficients():
    p = HermiteExpansion(2, {(1, 0): np.float32(0.5), (0, 1): 2, (0, 0): np.int64(-3)})
    assert p.terms == {(1, 0): 0.5, (0, 1): 2.0, (0, 0): -3.0}
    assert all(type(c) is float for c in p.terms.values())
    q = HermiteExpansion.from_dict({"dimension": 1, "terms": [{"alpha": [1.0], "coeff": 1}]})
    assert q.terms == {(1,): 1.0} and type(q.terms[(1,)]) is float


def test_expansion_is_the_constructed_expansion():
    p = expansion(2, [((1, 0), 2.0), ((0, 3), -1.0), ((1, 0), 0.5), (np.array([2, 2]), 0.0)])
    q = HermiteExpansion(2, {(1, 0): 2.5, (0, 3): -1.0})
    assert p == q and list(p.terms) == list(q.terms)
    assert all(type(a) is int for alpha in p.terms for a in alpha)
    with pytest.raises(AttributeError):
        p.dimension = 3  # frozen like a constructed one


def test_expansion_constructor_drops_zeros():
    p = expansion(1, {(0,): 1.0, (2,): 0.0})
    assert (2,) not in p.terms
    assert p.degree_bound == 0


def test_degree_bound():
    assert expansion(1, {}).degree_bound == 0
    assert expansion(2, {(3, 4): 1.0, (0, 0): 2.0}).degree_bound == 7


def test_expansion_eval_examples():
    assert expansion_eval(expansion(1, {}), np.array([7.0])) == 0.0
    assert expansion_eval(expansion(1, {(0,): 2.5}), np.array([7.0])) == 2.5
    p = expansion(1, {(1,): 1.0, (3,): 1.0})
    assert expansion_eval(p, np.array([1.0])) == pytest.approx(
        1.0 - 2.0 / math.sqrt(6.0), abs=1e-14
    )


def test_expansion_algebra():
    p = expansion(1, {(0,): 1.0, (2,): 2.0})
    q = expansion(1, {(2,): -2.0, (5,): 1.0})
    s = p + q
    assert s.terms == {(0,): 1.0, (5,): 1.0}  # (2,) cancels exactly
    assert (p - p).terms == {}
    assert (0.5 * q).terms == {(2,): -1.0, (5,): 0.5}


def test_truncate():
    p = expansion(1, {(2,): 1.0, (5,): 3.0})
    assert truncate(p, 3).terms == {(2,): 1.0}
    assert truncate(p, p.degree_bound).terms == p.terms
    with pytest.raises(ValidationError):
        truncate(p, -1)


def test_truncation_pythagoras():
    rng = np.random.default_rng(5)
    for _ in range(10):
        alphas = [tuple(a) for a in rng.integers(0, 9, size=(6, 2))]
        p = expansion(2, {a: float(rng.standard_normal()) for a in alphas})
        for d in (0, 3, 6, 10):
            head = truncate(p, d)
            tail = p - head
            assert l2_norm(head) ** 2 + l2_norm(tail) ** 2 == pytest.approx(
                l2_norm(p) ** 2, abs=1e-12
            )


def test_l2_norm_examples_and_quadrature_oracle():
    assert l2_norm(expansion(1, {})) == 0.0
    assert l2_norm(expansion(1, {(3,): -2.0})) == 2.0
    rng = np.random.default_rng(11)
    alphas = [tuple(a) for a in rng.integers(0, 6, size=(5, 2))]
    p = expansion(2, {a: float(rng.standard_normal()) for a in alphas})
    rule = gauss_hermite_rule(12, 2)
    second_moment = expectation(lambda x: expansion_eval(p, x) ** 2, rule)
    assert second_moment == pytest.approx(l2_norm(p) ** 2, abs=1e-10)


def test_serialization_round_trip():
    p = expansion(2, {(3, 1): 0.1 + 0.2, (0, 0): -1.0 / 3.0, (1, 2): 1e-300})
    blob = p.to_json()
    q = HermiteExpansion.from_json(blob)
    assert q == p
    assert q.to_json() == blob
    terms = json.loads(blob)["terms"]
    assert [t["alpha"] for t in terms] == sorted(t["alpha"] for t in terms)


def test_deserialization_validation():
    with pytest.raises(ValidationError):
        HermiteExpansion.from_dict({"dimension": 1, "terms": [{"alpha": [0], "coeff": 0.0}]})
    with pytest.raises(ValidationError):
        HermiteExpansion.from_dict({"dimension": 2, "terms": [{"alpha": [1], "coeff": 1.0}]})


# -- quadrature ---------------------------------------------------------------


def test_rule_single_point():
    rule = gauss_hermite_rule(1)
    assert rule.nodes.shape == (1, 1)
    assert rule.nodes[0, 0] == 0.0
    assert rule.weights[0] == 1.0


def test_rule_moments():
    for m in (2, 5, 8, 20):
        rule = gauss_hermite_rule(m)
        assert math.fsum(rule.weights.tolist()) == pytest.approx(1.0, abs=1e-12)
        assert expectation(lambda x: x, rule) == pytest.approx(0.0, abs=1e-14)
        assert expectation(lambda x: x * x, rule) == pytest.approx(1.0, abs=1e-12)
    # degree 2m-1 exactness: E[x^{2m-2}] = (2m-3)!! at m = 5
    rule = gauss_hermite_rule(5)
    assert expectation(lambda x: x**8, rule) == pytest.approx(105.0, rel=1e-12)
    assert expectation(lambda x: x**9, rule) == pytest.approx(0.0, abs=1e-9)


def test_rule_orthogonality_example():
    rule = gauss_hermite_rule(8)
    inner = expectation(lambda x: hermite_eval(3, x) * hermite_eval(5, x), rule)
    assert inner == pytest.approx(0.0, abs=1e-12)


def test_rule_node_symmetry():
    rule = gauss_hermite_rule(9)
    nodes = rule.nodes[:, 0]
    np.testing.assert_array_equal(nodes, -nodes[::-1])
    np.testing.assert_array_equal(rule.weights, rule.weights[::-1])


def test_rule_tensorization():
    rule = gauss_hermite_rule(4, 2)
    assert rule.nodes.shape == (16, 2)
    assert math.fsum(rule.weights.tolist()) == pytest.approx(1.0, abs=1e-12)
    mixed = expectation(lambda x: x[0] ** 2 * x[1] ** 2, rule)
    assert mixed == pytest.approx(1.0, abs=1e-12)


def test_rule_budget_and_validation():
    with pytest.raises(NodeBudgetError):
        gauss_hermite_rule(1000, 3)
    with pytest.raises(ValidationError):
        gauss_hermite_rule(0)
    with pytest.raises(ValidationError):
        gauss_hermite_rule(4, 0)


def test_rule_tensor_grid_matches_meshgrid():
    for m, n in ((1, 1), (7, 1), (13, 2), (9, 3), (5, 4)):
        rule = gauss_hermite_rule(m, n)
        line = gauss_hermite_rule(m)
        x1, w1 = line.nodes[:, 0], line.weights
        grids = np.meshgrid(*([x1] * n), indexing="ij")
        assert np.array_equal(rule.nodes, np.stack([g.reshape(-1) for g in grids], axis=1))
        weights = np.ones(m**n)
        for g in np.meshgrid(*([w1] * n), indexing="ij"):
            weights *= g.reshape(-1)
        assert np.array_equal(rule.weights, weights)


def test_gauss_hermite_nodes_are_the_rule_nodes():
    for m, n in ((1, 1), (7, 1), (13, 2), (9, 3)):
        assert np.array_equal(gauss_hermite_nodes(m, n), gauss_hermite_rule(m, n).nodes)
    with pytest.raises(NodeBudgetError):
        gauss_hermite_nodes(1000, 3)
    with pytest.raises(ValidationError):
        gauss_hermite_nodes(0)


def _exact_gauss_hermite_half(m: int) -> tuple[list[Decimal], list[Decimal]]:
    # the non-negative nodes and their weights at 40 digits: two Newton steps
    # x -= H_m / (sqrt(m) H_{m-1}) on the orthonormal recurrence from the
    # Jacobi matrix's eigenvalues, then the Christoffel weight 1 / sum_{j<m} H_j^2
    offdiag = np.sqrt(np.arange(1.0, m))
    start = np.linalg.eigvalsh(np.diag(offdiag, 1) + np.diag(offdiag, -1))[m // 2 :]
    with localcontext() as ctx:
        ctx.prec = 40
        roots = [Decimal(j).sqrt() for j in range(m + 1)]

        def table(x):
            h = [Decimal(1), x]
            for j in range(1, m):
                h.append((x * h[j] - roots[j] * h[j - 1]) / roots[j + 1])
            return h

        nodes, weights = [], []
        for x in map(Decimal, start.tolist()):
            for _ in range(2):
                h = table(x)
                x -= h[m] / (roots[m] * h[m - 1])
            nodes.append(x)
            weights.append(1 / sum(v * v for v in table(x)[:m]))
    return nodes, weights


@pytest.mark.parametrize("m", [2, 3, 13, 60, 150, 400])
def test_gauss_hermite_rule_matches_an_exact_reference(m):
    # the Golub-Welsch weights, the squared first components of the
    # eigenvectors, were off by 63x at m = 60 and by 1e181 at m = 400
    want_nodes, want_weights = _exact_gauss_hermite_half(m)
    rule = gauss_hermite_rule(m)
    nodes, weights = rule.nodes[m // 2 :, 0], rule.weights[m // 2 :]
    np.testing.assert_allclose(nodes, [float(x) for x in want_nodes], rtol=0.0, atol=1e-14)
    kept = [w > Decimal("1e-300") for w in want_weights]
    assert kept[0]
    np.testing.assert_allclose(
        weights[kept], [float(w) for w, k in zip(want_weights, kept) if k], rtol=1e-12, atol=0.0
    )


@pytest.mark.parametrize("m", [50, 100, 200])
def test_gauss_hermite_rule_weights_satisfy_the_gram_identity(m):
    # (H w) H^T = I through degree m - 1; the Golub-Welsch weights missed by
    # 2e-3 at m = 50, 7e25 at m = 100 and 4e81 at m = 200.  Not m = 400: its
    # outer weights (1e-330) underflow and H_k^2 passes 1e300 there, so no
    # separate w and H meet it; the products test covers that size.
    rule = gauss_hermite_rule(m)
    H = hermite_upto(m - 1, rule.nodes[:, 0])
    gram = (H * rule.weights) @ H.T
    assert np.abs(gram - np.eye(m)).max() <= 1e-13


@pytest.mark.parametrize("m", [1, 2, 13, 400, 1414])
def test_gauss_hermite_rule_weights_are_row_0_of_the_products(m):
    weights = gauss_hermite_rule(m).weights
    for degree in (0, 5):
        assert np.array_equal(weights, gauss_hermite_products(m, degree)[0])


def test_gauss_hermite_rule_at_the_1d_budget_edge():
    # m = 1414: H_{m-1} e^{-x^2/4} underflows at the outer nodes, where the
    # Newton step is skipped instead of dividing by 0
    m = 1414
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fresh = _gauss_hermite_1d.__wrapped__(m)
    rule = gauss_hermite_rule(m)
    nodes = rule.nodes[:, 0]
    for got, want in zip(fresh, _gauss_hermite_1d(m)):
        assert np.array_equal(got, want)
    assert np.all(np.isfinite(nodes))
    assert np.array_equal(nodes, -nodes[::-1])
    assert np.all(np.diff(nodes) > 0.0)
    assert np.all(rule.weights >= 0.0)
    assert math.fsum(rule.weights.tolist()) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("m", [50, 100, 200, 400])
def test_gauss_hermite_products_satisfy_the_gram_identity(m):
    # B H^T = I for every degree below m: the rule is exact through 2m - 1.
    # The Golub-Welsch weights times H_k miss it by 2e-3 at m = 50 and by
    # 1e180 at m = 400.
    x = gauss_hermite_rule(m).nodes[:, 0]
    B = gauss_hermite_products(m, m - 1)
    assert B.shape == (m, m)
    gram = B @ hermite_upto(m - 1, x).T
    assert np.abs(gram - np.eye(m)).max() <= 1e-13
    # a lower degree reads the leading rows of the same matrix
    assert np.array_equal(gauss_hermite_products(m, 7), B[:8])


def test_gauss_hermite_products_at_the_1d_budget_edge():
    # m = 1414 is the largest 1-D rule (m^2 <= NODE_BUDGET); the damping
    # e^{-x^2/4} underflows at its outer nodes, where B is 0
    m = 1414
    x = gauss_hermite_rule(m).nodes[:, 0]
    B = gauss_hermite_products(m, 200)
    assert np.all(np.isfinite(B))
    assert np.any(B[:, 0] == 0.0)
    gram = B @ hermite_upto(200, x).T
    assert np.abs(gram - np.eye(201)).max() <= 1e-13
    assert gauss_hermite_products(1, 0).tolist() == [[1.0]]
    with pytest.raises(NodeBudgetError):
        gauss_hermite_products(1415, 3)
    with pytest.raises(ValidationError):
        gauss_hermite_products(10, -1)


def test_expectation_error_carries_node():
    rule = gauss_hermite_rule(3)
    with pytest.raises(EvaluationError) as err:
        expectation(lambda x: math.inf if x > 0 else 0.0, rule)
    assert err.value.point is not None


# -- coefficients via derivatives --------------------------------------------


def test_coeff_via_derivatives_exponential():
    # g(x) = e^{x - 1/2} has all derivatives equal to itself and E[g] = 1,
    # so the coefficient for beta = (k) is exactly 1/sqrt(k!)
    rule = gauss_hermite_rule(60)

    def derivs(beta, x):
        return math.exp(x - 0.5)

    for k in (0, 1, 2, 5):
        got = coeff_via_derivatives(derivs, (k,), rule)
        assert got == pytest.approx(1.0 / sqrt_factorial((k,)), abs=1e-10)
    assert coeff_via_derivatives(derivs, (2,), rule) == pytest.approx(
        1.0 / SQRT2, abs=1e-10
    )


def test_coeff_via_derivatives_constant():
    rule = gauss_hermite_rule(8)

    def derivs(beta, x):
        return 4.2 if sum(beta) == 0 else 0.0

    assert coeff_via_derivatives(derivs, (0,), rule) == pytest.approx(4.2)
    assert coeff_via_derivatives(derivs, (1,), rule) == 0.0


def test_sqrt_factorial_log_space():
    assert sqrt_factorial((0,)) == 1.0
    assert sqrt_factorial((4,)) == pytest.approx(math.sqrt(24.0), rel=1e-14)
    assert sqrt_factorial((3, 2)) == pytest.approx(math.sqrt(12.0), rel=1e-14)
    # beyond naive factorial range but fine in log space
    assert math.isfinite(sqrt_factorial((170, 170)))


@pytest.mark.parametrize(
    "call",
    [
        lambda: gauss_hermite_rule(2.5),
        lambda: gauss_hermite_rule(3, 2.5),
        lambda: gauss_hermite_nodes(3.5, 2),
        lambda: multi_indices_upto(2.5, 3),
        lambda: HermiteExpansion.from_dict({"dimension": 2.5, "terms": []}),
        lambda: HermiteExpansion.from_dict({"dimension": 1, "terms": [{"alpha": [1], "coeff": "x"}]}),
    ],
    ids=["rule-points", "rule-dimension", "nodes-points", "indices-dimension",
         "payload-dimension", "payload-coeff"],
)
def test_fractional_counts_and_malformed_payloads_raise(call):
    # a count, degree or dimension is never truncated, and a payload never
    # fails with a bare TypeError or ValueError
    with pytest.raises(ValidationError):
        call()


def test_numpy_integer_counts_equal_their_int_counterparts():
    a, b = gauss_hermite_rule(np.int64(5)), gauss_hermite_rule(5)
    assert np.array_equal(a.nodes, b.nodes) and np.array_equal(a.weights, b.weights)
    x = np.linspace(-2.0, 2.0, 7)
    assert np.array_equal(hermite_upto(np.int32(3), x), hermite_upto(3, x))
    assert type(HermiteExpansion(2.0, {}).dimension) is int


@pytest.mark.parametrize(
    "alpha",
    [(math.nan,), ("x",), (math.inf,), (1.5,), ("1",), 2, None],
    ids=["nan", "str", "inf", "half", "digit", "int", "none"],
)
def test_non_integer_multi_index_entries_raise_validation_error(alpha):
    # a key that is no sequence at all, such as 2 or None, is refused too
    with pytest.raises(ValidationError, match="multi-index entries must be integers"):
        expansion(1, {alpha: 1.0})
    wire = list(alpha) if isinstance(alpha, tuple) else alpha
    with pytest.raises(ValidationError):
        HermiteExpansion.from_dict({"dimension": 1, "terms": [{"alpha": wire, "coeff": 1.0}]})
    with pytest.raises(ValidationError, match="multi-index entries must be integers"):
        HermiteExpansion(1, {alpha: 1.0})
    want = expansion(1, {(2,): 1.0})
    assert expansion(1, {(np.int64(2),): 1.0}) == expansion(1, {(2.0,): 1.0}) == want
    # one rule for every way in: the constructor stores the same int tuple
    for key in ((2.0,), (np.int64(2),)):
        got = HermiteExpansion(1, {key: 1.0})
        assert got == want and type(next(iter(got.terms))[0]) is int
