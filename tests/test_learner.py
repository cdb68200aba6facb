"""Tests for agnostic L1 regression learning."""

import itertools
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from gaussl1 import (
    FitConfig,
    Hypothesis,
    ValidationError,
    choose_threshold,
    constant_concept,
    evaluate,
    fit_l1,
    generate_agnostic_data,
    halfspace,
    learn,
    learner,
)
from gaussl1.errors import DimensionMismatchError, NodeBudgetError
from gaussl1.hermite import basis_matrix, expansion, expansion_eval_batch, multi_indices_upto
from gaussl1.learner import LabeledData, l1_fit_oracle

SEED = 987123


def test_fit_l1_on_a_singular_basis_raises_validation_error():
    # all-zero samples, and a constant second coordinate, leave the degree-2
    # basis rank deficient: the QR set-up fails, as a typed error
    y = np.where(np.arange(10) % 2, 1.0, -1.0)
    x = np.random.default_rng(SEED).standard_normal(10)
    for samples in (np.zeros((10, 1)), np.column_stack([x, np.full(10, 0.7)])):
        with pytest.raises(ValidationError, match="degree-2 basis is singular"):
            fit_l1(LabeledData(samples, y), 2)


# ---------------------------------------------------------------------------
# data generation


def test_noiseless_labels_match_concept():
    c = halfspace([0.6, 0.8], 0.3)
    data = generate_agnostic_data(c, 0.0, 500, SEED)
    assert data.x.shape == (500, 2)
    assert np.array_equal(data.y, c.batch(data.x))


def test_flip_fraction_matches_eta():
    c = halfspace([1.0], 0.0)
    eta, m = 0.3, 20_000
    data = generate_agnostic_data(c, eta, m, SEED)
    flipped = float(np.mean(data.y != c.batch(data.x)))
    assert abs(flipped - eta) <= 4.0 * math.sqrt(eta * (1.0 - eta) / m)


def test_data_generation_deterministic():
    c = halfspace([1.0], 0.2)
    a = generate_agnostic_data(c, 0.25, 1000, SEED)
    b = generate_agnostic_data(c, 0.25, 1000, SEED)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.y, b.y)


def test_data_generation_validation():
    c = halfspace([1.0], 0.0)
    for eta in (-0.1, 1.0, 1.5, math.nan):
        with pytest.raises(ValidationError):
            generate_agnostic_data(c, eta, 10, SEED)
    with pytest.raises(ValidationError):
        generate_agnostic_data(c, 0.1, 0, SEED)


def test_data_generation_rejects_non_integral_sizes():
    # a size is taken as given, never truncated: 2.5 samples raise
    c = halfspace([1.0], 0.0)
    for m in (2.5, 2.0, "2"):
        with pytest.raises(ValidationError, match="integer"):
            generate_agnostic_data(c, 0.1, m, SEED)
    a = generate_agnostic_data(c, 0.1, np.int64(5), SEED)
    b = generate_agnostic_data(c, 0.1, 5, SEED)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)


def test_labeled_data_validation():
    x = np.zeros((4, 2))
    with pytest.raises(ValidationError):
        LabeledData(x, np.array([1.0, -1.0]))  # length mismatch
    with pytest.raises(ValidationError):
        LabeledData(x, np.array([1.0, -1.0, 0.5, 1.0]))  # not +-1
    with pytest.raises(ValidationError):
        LabeledData(np.zeros((0, 2)), np.zeros(0))  # empty
    d = LabeledData(x, np.array([1.0, -1.0, 1.0, 1.0]))
    assert d.size == 4 and d.dimension == 2


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_labeled_data_rejects_non_finite_samples(bad):
    # a NaN sample used to run a whole fit before failing on a non-finite
    # coefficient, and choose_threshold returned a threshold from NaN scores
    x = np.zeros((4, 2))
    x[2, 1] = bad
    with pytest.raises(ValidationError, match="x must be finite"):
        LabeledData(x, np.array([1.0, -1.0, 1.0, 1.0]))


# ---------------------------------------------------------------------------
# the L1 fit


def _toy_data(m, dimension, seed, labeler=None):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((m, dimension))
    if labeler is None:
        y = np.where(rng.random(m) < 0.5, 1.0, -1.0)
    else:
        y = labeler(x)
    return LabeledData(x, y)


def test_degree_zero_fit_is_median():
    x = np.zeros((5, 1))
    all_plus = fit_l1(LabeledData(x, np.ones(5)), 0)
    assert all_plus.expansion.terms == {(0,): 1.0}
    assert all_plus.train_loss == 0.0
    balanced = fit_l1(LabeledData(np.zeros((4, 1)), np.array([1.0, 1.0, -1.0, -1.0])), 0)
    # the median interval is [-1, 1]; ties resolve toward zero
    assert balanced.expansion.terms == {}
    assert balanced.train_loss == 1.0
    mostly_minus = fit_l1(LabeledData(x, np.array([-1.0, -1.0, -1.0, 1.0, 1.0])), 0)
    assert mostly_minus.expansion.terms == {(0,): -1.0}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # stalling is fine here
def test_fit_loss_at_most_one():
    # +-1 labels make the zero polynomial a loss-1 fallback
    for seed in range(5):
        data = _toy_data(60, 2, seed)
        for degree in (0, 1, 2):
            assert fit_l1(data, degree).train_loss <= 1.0 + 1e-12


def test_fit_loss_monotone_in_degree():
    data = _toy_data(
        200, 1, SEED, labeler=lambda x: np.where(x[:, 0] ** 3 - x[:, 0] > 0, 1.0, -1.0)
    )
    losses = [fit_l1(data, d).train_loss for d in range(6)]
    for lo, hi in zip(losses[1:], losses[:-1]):
        # larger bases contain smaller ones; the solver tolerance is the
        # only wiggle room
        assert lo <= hi + 1e-4


def test_fit_label_negation_equivariance():
    data = _toy_data(150, 2, SEED)
    flipped = LabeledData(data.x, -data.y)
    a = fit_l1(data, 2)
    b = fit_l1(flipped, 2)
    assert np.array_equal(b.coefficients, -a.coefficients)
    assert b.train_loss == a.train_loss


def test_fit_perfect_linear_labels():
    # labels equal to a degree-1 polynomial are fit with zero loss
    rng = np.random.default_rng(SEED)
    x = rng.standard_normal((80, 1))
    y = np.where(np.abs(x[:, 0]) > 2.0, 1.0, -1.0)
    y[:] = 1.0
    data = LabeledData(x, y)
    fit = fit_l1(data, 1)
    assert fit.train_loss <= 1e-10
    assert fit.expansion.terms[(0,)] == pytest.approx(1.0, abs=1e-8)


def test_fit_nonconvergence_warns():
    data = _toy_data(50, 1, SEED)
    with pytest.warns(RuntimeWarning):
        fit = fit_l1(data, 2, FitConfig(max_iters=1))
    assert not fit.converged


def test_fit_validation():
    data = _toy_data(10, 1, SEED)
    with pytest.raises(ValidationError):
        fit_l1(data, -1)


def test_fit_matches_enumeration_oracle():
    # the vertex-enumeration oracle gives the exact L1 optimum on tiny
    # instances; the iterative fit must land within its smoothing tolerance
    rng = np.random.default_rng(SEED)
    for trial in range(8):
        m = int(rng.integers(8, 26))
        dimension = int(rng.integers(1, 3))
        degree = 1 if dimension == 2 else int(rng.integers(1, 4))
        data = _toy_data(m, dimension, 1000 + trial)
        alphas = multi_indices_upto(dimension, degree)
        A = basis_matrix(data.x, alphas)
        opt = l1_fit_oracle(A, data.y)
        fit = fit_l1(data, degree)
        assert fit.train_loss >= opt - 1e-9
        assert fit.train_loss <= opt + 1e-4, (trial, m, dimension, degree)


def test_fit_degree_zero_gap_is_zero():
    fit = fit_l1(_toy_data(9, 1, SEED), 0)
    assert fit.gap == 0.0 and fit.converged and fit.iterations == 0


def test_fit_needs_as_many_samples_as_terms():
    with pytest.raises(ValidationError):
        fit_l1(_toy_data(5, 1, SEED), 5)  # 6 basis terms


def test_fit_gap_certifies_against_highs():
    # an independent LP solver at realistic size: min mean(u + v) subject to
    # A beta + u - v = y, u, v >= 0
    sparse = pytest.importorskip("scipy.sparse")
    linprog = pytest.importorskip("scipy.optimize").linprog
    data = generate_agnostic_data(halfspace([0.6, 0.8], 0.25), 0.1, 2000, SEED)
    fit = fit_l1(data, 10)
    A = basis_matrix(data.x, multi_indices_upto(2, 10))
    m, B = A.shape
    lp = linprog(
        np.concatenate([np.zeros(B), np.full(2 * m, 1.0 / m)]),
        A_eq=sparse.hstack([sparse.csr_matrix(A), sparse.identity(m), -sparse.identity(m)]),
        b_eq=data.y,
        bounds=[(None, None)] * B + [(0.0, None)] * (2 * m),
        method="highs",
    )
    assert lp.status == 0, lp.message
    assert fit.converged and 0.0 <= fit.gap <= FitConfig().tol
    assert fit.train_loss == pytest.approx(lp.fun, rel=1e-7)
    assert fit.train_loss - fit.gap <= lp.fun <= fit.train_loss


@pytest.mark.parametrize("dimension, degree, m", [(5, 4, 1000), (10, 3, 400)])
def test_fit_gap_certifies_against_highs_at_learn_pool_size(dimension, degree, m):
    # the learn benchmark's largest normal equations, 126 and 286 terms
    sparse = pytest.importorskip("scipy.sparse")
    linprog = pytest.importorskip("scipy.optimize").linprog
    w = np.random.default_rng(SEED).standard_normal(dimension)
    data = generate_agnostic_data(halfspace(w / np.linalg.norm(w), 0.2), 0.1, m, SEED)
    fit = fit_l1(data, degree)
    A = basis_matrix(data.x, multi_indices_upto(dimension, degree))
    B = A.shape[1]
    lp = linprog(
        np.concatenate([np.zeros(B), np.full(2 * m, 1.0 / m)]),
        A_eq=sparse.hstack([sparse.csr_matrix(A), sparse.identity(m), -sparse.identity(m)]),
        b_eq=data.y,
        bounds=[(None, None)] * B + [(0.0, None)] * (2 * m),
        method="highs",
    )
    assert lp.status == 0, lp.message
    assert fit.converged and 0.0 <= fit.gap <= FitConfig().tol
    assert fit.train_loss == pytest.approx(lp.fun, rel=1e-7)
    # HiGHS stops within its own tolerances: at 286 terms its optimum reads
    # 1.6e-14 above this fit's loss, so only the certified side is exact
    assert fit.train_loss - fit.gap <= lp.fun <= fit.train_loss + 1e-12


def test_fit_loss_independent_of_blas_threads():
    # the learn benchmark's 1-D degree-30 class (cond(A) ~ 1e12) in fresh
    # interpreters: the thread count changes the rounding of every BLAS call
    code = (
        "from gaussl1 import fit_l1, generate_agnostic_data, halfspace\n"
        "c = halfspace([-1.0], -0.4097547736217526)\n"
        "data = generate_agnostic_data(c, 0.1, 20000, 1289360436062027116)\n"
        "fit = fit_l1(data, 30)\n"
        "print(repr(fit.train_loss), fit.converged)\n"
    )
    src = Path(fit_l1.__code__.co_filename).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    losses = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        loss, converged = proc.stdout.split()
        assert converged == "True"
        losses.append(float(loss))
    assert losses[1] == pytest.approx(losses[0], rel=1e-7)


def test_fit_ill_conditioned_basis_is_not_certified():
    # at 1-D degree 30 on 2000 samples the optimal coefficients are so large
    # that evaluating them loses digits: the certificate must say so
    data = generate_agnostic_data(halfspace([1.0], 0.25), 0.1, 2000, 7)
    with pytest.warns(RuntimeWarning, match="certified gap"):
        fit = fit_l1(data, 30)
    assert not fit.converged
    assert fit.gap > FitConfig().tol
    A = basis_matrix(data.x, multi_indices_upto(1, 30))
    # the loss and the gap are those of the returned coefficients
    assert fit.train_loss == pytest.approx(np.abs(data.y - A @ fit.coefficients).mean(), rel=1e-12)


def test_oracle_validation():
    rng = np.random.default_rng(SEED)
    with pytest.raises(ValidationError):
        l1_fit_oracle(rng.standard_normal((100, 2)), np.ones(100))  # too big
    with pytest.raises(ValidationError):
        l1_fit_oracle(np.ones((10, 2)), np.ones(10))  # rank deficient


@pytest.mark.parametrize("shape", [(9,), (11,), (10, 1)])
def test_oracle_rejects_labels_of_the_wrong_shape(shape):
    A = np.random.default_rng(SEED).standard_normal((10, 2))
    with pytest.raises(DimensionMismatchError, match=r"do not match 10 design rows"):
        l1_fit_oracle(A, np.ones(shape))


def _oracle_by_loop(A, y):
    """Vertex enumeration one subset at a time; also counts singular subsets."""
    best, skipped = float(np.abs(y).mean()), 0
    for subset in itertools.combinations(range(A.shape[0]), A.shape[1]):
        sub = A[list(subset)]
        if abs(np.linalg.det(sub)) < 1e-12:
            skipped += 1
            continue
        c = np.linalg.solve(sub, y[list(subset)])
        best = min(best, float(np.abs(y - A @ c).mean()))
    return best, skipped


@pytest.mark.parametrize(
    "m, dimension, degree", [(12, 1, 1), (30, 1, 2), (15, 2, 1), (25, 1, 4), (50, 2, 1)]
)
def test_oracle_blocks_match_subset_loop(m, dimension, degree):
    # 25 x 5 and 50 x 3 span several blocks of subsets
    data = _toy_data(m, dimension, 4000 + 10 * m + dimension)
    A = basis_matrix(data.x, multi_indices_upto(dimension, degree))
    expected, _ = _oracle_by_loop(A, data.y)
    assert abs(l1_fit_oracle(A, data.y) - expected) <= 1e-15


def test_oracle_skips_singular_subsets():
    rng = np.random.default_rng(SEED)
    x = rng.standard_normal((9, 1))
    x = np.concatenate([x, x[:5], x[:3]])  # duplicated samples
    y = np.where(rng.random(len(x)) < 0.5, 1.0, -1.0)
    A = basis_matrix(x, multi_indices_upto(1, 2))
    expected, skipped = _oracle_by_loop(A, y)
    assert skipped > 0
    assert abs(l1_fit_oracle(A, y) - expected) <= 1e-15
    # determinants near 1e-9 are above the singular threshold and scored
    small, _ = _oracle_by_loop(1e-3 * A, y)
    assert small < float(np.abs(y).mean())
    assert abs(l1_fit_oracle(1e-3 * A, y) - small) <= 1e-15


def test_oracle_scores_the_optimal_subset_at_every_position(monkeypatch):
    # blocks of 5 subsets; the unique optimal vertex is moved through every
    # lexicographic position, block boundaries and the short last block included
    monkeypatch.setattr(learner, "BLOCK_CELLS", 5 * 2 * 12)
    rng = np.random.default_rng(SEED)
    A = basis_matrix(rng.standard_normal((12, 1)), multi_indices_upto(1, 1))
    y = rng.standard_normal(12)
    losses = {}
    for subset in itertools.combinations(range(12), 2):
        c = np.linalg.solve(A[list(subset)], y[list(subset)])
        losses[subset] = float(np.abs(y - A @ c).mean())
    best, second = sorted(losses.values())[:2]
    assert second - best > 1e-6
    optimal = min(losses, key=losses.get)
    for target in itertools.combinations(range(12), 2):
        rows = [i for i in range(12) if i not in optimal]
        for new, old in sorted(zip(target, optimal)):
            rows.insert(new, old)
        assert abs(l1_fit_oracle(A[rows], y[rows]) - best) <= 1e-15, target


def test_oracle_rejects_over_budget_before_enumerating():
    A = np.random.default_rng(SEED).standard_normal((60, 6))  # C(60, 6) = 5e7
    start = time.perf_counter()
    with pytest.raises(NodeBudgetError):
        l1_fit_oracle(A, np.ones(60))
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# thresholding


def test_threshold_separated_scores():
    p = expansion(1, {(1,): 1.0})
    x = np.array([[-2.0], [-1.0], [1.0], [2.0]])
    data = LabeledData(x, np.array([-1.0, -1.0, 1.0, 1.0]))
    t = choose_threshold(p, data)
    assert t == 0.0  # zero-error interval (-1, 1] contains the preferred 0


def test_threshold_zero_polynomial():
    p = expansion(1, {})
    data = LabeledData(np.zeros((3, 1)), np.array([1.0, 1.0, -1.0]))
    # all scores are 0: predicting +1 everywhere errs once, -1 twice
    assert choose_threshold(p, data) == 0.0


def test_threshold_all_negative_labels():
    # needs a candidate above the top score
    p = expansion(1, {(1,): 1.0})
    x = np.array([[-1.0], [0.5], [2.0]])
    data = LabeledData(x, np.array([-1.0, -1.0, -1.0]))
    t = choose_threshold(p, data)
    assert t > 2.0
    h = Hypothesis(p, t, 1)
    assert np.array_equal(h.predict(x), data.y)


def _exhaustive_best_error(scores, y):
    # error of every achievable labeling: thresholds below the minimum,
    # between consecutive distinct scores, and above the maximum
    order = np.argsort(scores)
    s = scores[order]
    ys = y[order]
    cuts = [s[0] - 1.0] + [0.5 * (a + b) for a, b in zip(s[:-1], s[1:])] + [s[-1] + 1.0]
    best = len(y)
    for t in cuts + list(s):
        pred = np.where(scores >= t, 1.0, -1.0)
        best = min(best, int(np.count_nonzero(pred != y)))
    return best


def test_threshold_is_exact_argmin():
    rng = np.random.default_rng(SEED)
    for trial in range(10):
        m = int(rng.integers(2, 1001))
        p = expansion(1, {(0,): float(rng.normal()), (1,): float(rng.normal())})
        x = rng.standard_normal((m, 1))
        y = np.where(rng.random(m) < 0.4, 1.0, -1.0)
        data = LabeledData(x, y)
        t = choose_threshold(p, data)
        scores = expansion_eval_batch(p, x)
        achieved = int(np.count_nonzero(np.where(scores >= t, 1.0, -1.0) != y))
        assert achieved == _exhaustive_best_error(scores, y), trial


def test_threshold_tie_prefers_small_magnitude():
    p = expansion(1, {(1,): 1.0})
    # both labels correct for any t in (-3, 5]: pick 0
    data = LabeledData(np.array([[-3.0], [5.0]]), np.array([-1.0, 1.0]))
    assert choose_threshold(p, data) == 0.0


def _lexsort_threshold(scores, y):
    # the rule by a full sort of the candidates: errors, then |t|, then t
    s = np.sort(scores)
    candidates = np.concatenate([s, 0.5 * (s[1:] + s[:-1]), [0.0, s[-1] + 1.0]])
    preds = np.where(scores[None, :] >= candidates[:, None], 1.0, -1.0)
    errs = np.count_nonzero(preds != y[None, :], axis=1)
    return float(candidates[np.lexsort((candidates, np.abs(candidates), errs))[0]])


def test_threshold_tie_order_matches_a_full_sort():
    p = expansion(1, {(1,): 1.0})  # the score is x itself
    # -0.5 and 0.5 both err once, 0 twice: the tie goes to the smaller t
    x = np.array([[-2.0], [-0.5], [0.25], [0.75]])
    data = LabeledData(x, np.array([-1.0, 1.0, -1.0, 1.0]))
    assert choose_threshold(p, data) == -0.5 == _lexsort_threshold(x[:, 0], data.y)
    rng = np.random.default_rng(SEED)
    for trial in range(200):
        m = int(rng.integers(1, 40))
        k = int(rng.integers(1, 4))
        x = rng.integers(-k, k + 1, m).astype(np.float64)  # integer scores, heavy ties
        if trial % 2:
            x = np.concatenate([x, -x])  # symmetric: +-t candidates err alike more often
        y = np.where(rng.random(x.size) < 0.5, 1.0, -1.0)
        got = choose_threshold(p, LabeledData(x[:, None], y))
        assert got == _lexsort_threshold(x, y), trial


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_exact_hypothesis_noiseless():
    c = halfspace([-1.0], 0.0)  # +1 iff x >= 0
    h = Hypothesis(expansion(1, {(1,): 1.0}), 0.0, 1)
    est = evaluate(h, c, 0.0, 10_000, SEED)
    assert est.mean == 0.0
    assert est.stderr == 0.0


def test_evaluate_exact_hypothesis_noisy():
    c = halfspace([-1.0], 0.0)
    h = Hypothesis(expansion(1, {(1,): 1.0}), 0.0, 1)
    est = evaluate(h, c, 0.1, 100_000, SEED)
    assert abs(est.mean - 0.1) <= 4.0 * est.stderr


def test_evaluate_constant_hypothesis_balanced():
    c = halfspace([1.0], 0.0)
    h = Hypothesis(expansion(1, {}), 0.0, 0)  # predicts +1 everywhere
    est = evaluate(h, c, 0.0, 100_000, SEED)
    assert abs(est.mean - 0.5) <= 4.0 * est.stderr


# ---------------------------------------------------------------------------
# the full pipeline


def test_learn_halfspace_noiseless():
    c = halfspace([1.0], 0.0)
    gamma = 1.0 / math.sqrt(2.0 * math.pi)
    with pytest.warns(RuntimeWarning):  # planned degree exceeds the cap
        result = learn(c, 0.3, gamma, 0.0, 4000, 40_000, SEED)
    assert result.plan.degree == 168
    assert result.degree == 30
    assert result.capped
    assert result.opt_upper_bound == 0.0
    assert result.test_error.mean <= 0.1
    assert result.excess == result.test_error.mean


def test_learn_halfspace_noisy():
    c = halfspace([1.0], 0.0)
    gamma = 1.0 / math.sqrt(2.0 * math.pi)
    with pytest.warns(RuntimeWarning):
        result = learn(c, 0.3, gamma, 0.1, 4000, 40_000, SEED)
    slack = 4.0 * result.test_error.stderr
    assert result.test_error.mean <= 0.1 + 0.3 + slack
    assert result.excess <= 0.3 + slack


def test_learn_zero_gamma_gives_constant():
    # gamma = 0 plans degree 0: the hypothesis is the best constant sign
    c = constant_concept(1, 1)
    result = learn(c, 0.5, 0.0, 0.1, 2000, 20_000, SEED)
    assert result.degree == 0
    assert not result.capped
    assert result.hypothesis.p.degree_bound == 0
    assert result.test_error.mean <= 0.1 + 4.0 * result.test_error.stderr + 0.01


def test_learn_bit_identical_reruns():
    c = halfspace([0.8, -0.6], 0.1)
    a = learn(c, 0.8, 0.2, 0.05, 1500, 10_000, SEED)
    b = learn(c, 0.8, 0.2, 0.05, 1500, 10_000, SEED)
    assert a.to_dict() == b.to_dict()


def test_learn_rejects_non_integral_sizes():
    # 200.7 training samples or a degree cap of 3.9 raise, not truncate
    args = (halfspace([0.6, 0.8], 0.1), 0.8, 0.2, 0.05)
    sizes = {"m_train": 200, "m_test": 100, "degree_cap": 3}
    for bad in ({"m_train": 200.7}, {"m_test": 100.2}, {"degree_cap": 3.9}, {"m_test": 0}):
        with pytest.raises(ValidationError, match="integer"):
            learn(*args, seed=SEED, **{**sizes, **bad})
    a = learn(*args, m_train=np.int64(200), m_test=np.int32(100), seed=SEED, degree_cap=np.int64(3))
    assert a.to_dict() == learn(*args, seed=SEED, **sizes).to_dict()


def test_learn_validation():
    c = halfspace([1.0], 0.0)
    with pytest.raises(ValidationError):
        learn(c, 0.5, 0.1, 1.0, 100, 100, SEED)
    with pytest.raises(ValidationError):
        learn(c, 0.0, 0.1, 0.1, 100, 100, SEED)


def test_fit_refuses_a_basis_past_the_cell_budget_before_building_it(monkeypatch):
    # a 2-D fit at degree 278 has 39 060 terms: 10^5 samples would ask for
    # about 31 GB each for the basis and its orthonormal factor
    def no_basis(*args):
        raise AssertionError("the basis was built")

    monkeypatch.setattr(learner, "basis_matrix", no_basis)
    data = LabeledData(np.zeros((10**5, 2)), np.ones(10**5))
    start = time.perf_counter()
    with pytest.raises(NodeBudgetError, match="39060 terms"):
        fit_l1(data, 278)
    assert time.perf_counter() - start < 5.0  # about 0.05 s on a 2-vCPU host
    # the budget bounds samples x terms: 10 x 10 cells reach the basis, 11 x 10 do not
    monkeypatch.setattr(learner, "MC_CHUNK_CELLS", 100)
    with pytest.raises(NodeBudgetError, match="110 cells"):
        fit_l1(LabeledData(np.zeros((11, 2)), np.ones(11)), 3)
    with pytest.raises(AssertionError, match="the basis was built"):
        fit_l1(LabeledData(np.zeros((10, 2)), np.ones(10)), 3)
