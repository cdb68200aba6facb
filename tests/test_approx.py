"""Tests for the plan / coefficient / build / error-measurement pipeline."""

import math
import time
import tracemalloc

import numpy as np
import pytest

from gaussl1 import (
    ApproximationPlan,
    CapabilityError,
    NodeBudgetError,
    ToleranceError,
    ValidationError,
    ball,
    bound_check,
    build,
    constant_concept,
    estimate_coefficients,
    halfspace,
    halfspace_expansion,
    intersection,
    l1_error,
    l1_error_quad_1d,
    plan,
    profile_coefficients,
    ptf,
    sign_coefficient,
)
from gaussl1 import approx
from gaussl1.approx import l2_error, l2_error_quad_1d
from gaussl1.concepts import gns_ball_closed_form, gns_halfspace_closed_form
from gaussl1.hermite import (
    basis_matrix,
    expansion,
    gauss_density,
    gauss_hermite_rule,
    hermite_upto,
    l2_norm,
    multi_indices_upto,
)
from gaussl1.mc import CHUNK_SIZE, chunk_rngs, derive_seed
from gaussl1.quadrature1d import integrate_adaptive

SEED = 424242


# ---------------------------------------------------------------------------
# the plan


def test_plan_worked_example():
    # epsilon = 1/2 and gamma = phi(0): scale = 16 pi / (2 pi) = 8, so
    # rho = 1 - (1/4)/8 = 31/32 and d = ceil(32 ln 4 - 1) = 44
    p = plan(0.5, 1.0 / math.sqrt(2.0 * math.pi))
    assert p.rho == 0.96875
    assert p.degree == 44
    assert p.epsilon == 0.5


def test_plan_zero_gamma():
    p = plan(0.25, 0.0)
    assert p.rho == 0.0
    assert p.degree == 0


def test_plan_large_epsilon_gives_rho_zero():
    # epsilon >= 4 sqrt(pi) gamma makes the subtracted term >= 1
    gamma = 0.05
    eps = 4.0 * math.sqrt(math.pi) * gamma
    assert plan(eps, gamma).rho == 0.0
    assert plan(eps * 1.5, gamma).rho == 0.0


def test_plan_formula_spot_check():
    eps, gamma = 0.3, 0.7
    p = plan(eps, gamma)
    scale = 16.0 * math.pi * gamma * gamma
    assert p.rho == pytest.approx(1.0 - eps * eps / scale, abs=1e-15)
    assert p.degree == math.ceil(scale * math.log(2.0 / eps) / eps**2 - 1.0)


def test_plan_validation():
    with pytest.raises(ValidationError):
        plan(0.0, 1.0)
    with pytest.raises(ValidationError):
        plan(-0.1, 1.0)
    with pytest.raises(ValidationError):
        plan(math.nan, 1.0)
    with pytest.raises(ValidationError):
        plan(0.5, -1.0)
    with pytest.raises(ValidationError):
        plan(0.5, math.inf)


def test_plan_monotonicity():
    # shrinking epsilon or growing gamma never loosens the plan
    rng = np.random.default_rng(SEED)
    for _ in range(50):
        eps = float(rng.uniform(0.05, 1.5))
        gamma = float(rng.uniform(0.01, 2.0))
        base = plan(eps, gamma)
        tighter = plan(eps * float(rng.uniform(0.3, 0.999)), gamma)
        assert tighter.degree >= base.degree
        assert tighter.rho >= base.rho
        bigger = plan(eps, gamma * float(rng.uniform(1.001, 3.0)))
        assert bigger.degree >= base.degree
        assert bigger.rho >= base.rho


def test_plan_serialization():
    p = plan(0.5, 1.0)
    d = p.to_dict()
    assert set(d) == {"epsilon", "gamma", "rho", "degree"}
    assert d["degree"] == p.degree


# ---------------------------------------------------------------------------
# exact halfspace coefficients


def test_halfspace_expansion_origin_matches_sign_series():
    # f(x) = +1 iff x <= 0 equals -sign(x) off a null set, so its
    # coefficients are the negated sign-function coefficients
    d = 9
    e = halfspace_expansion([1.0], 0.0, d)
    for k in range(d + 1):
        want = -sign_coefficient(k) if k % 2 == 1 else 0.0
        got = e.terms.get((k,), 0.0)
        assert got == pytest.approx(want, abs=1e-14)


def test_halfspace_expansion_mean_term():
    # constant coefficient is E sign(c - x) = erf(c / sqrt 2)
    for c in (-1.0, 0.3, 2.0):
        e = halfspace_expansion([1.0], c, 0)
        assert e.terms[(0,)] == pytest.approx(math.erf(c / math.sqrt(2.0)), abs=1e-15)


def test_halfspace_expansion_matches_adaptive_oracle():
    # independent check of the closed form: integrate sign(c - x) H_k phi
    # directly with a breakpoint at the jump
    c = 0.4
    exact = halfspace_expansion([1.0], c, 6)
    for k in range(7):

        def integrand(x, k=k):
            s = np.where(x <= c, 1.0, -1.0)
            return s * hermite_upto(k, x)[k] * np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)

        val = integrate_adaptive(
            integrand, -12.0, 12.0, abs_tol=1e-12, breakpoints=[c], initial_intervals=16
        )
        assert exact.terms.get((k,), 0.0) == pytest.approx(val, abs=1e-12)


def test_halfspace_expansion_matches_quadrature_2d():
    w = [0.6, 0.8]
    c = 0.25
    exact = halfspace_expansion(w, c, 4)
    est = estimate_coefficients(halfspace(w, c), 4, method="quadrature", budget=400)
    alphas = set(exact.terms) | set(est.expansion.terms)
    for alpha in alphas:
        a = exact.terms.get(alpha, 0.0)
        b = est.expansion.terms.get(alpha, 0.0)
        assert b == pytest.approx(a, abs=2e-3), alpha


def test_halfspace_expansion_parseval():
    # coefficients of a +-1 function have total mass at most 1
    e = halfspace_expansion([0.6, 0.8], -0.5, 12)
    assert l2_norm(e) <= 1.0 + 1e-12


def test_halfspace_expansion_validation():
    with pytest.raises(ValidationError):
        halfspace_expansion([1.0, 1.0], 0.0, 3)  # not unit norm
    with pytest.raises(ValidationError):
        halfspace_expansion([1.0], 0.0, -1)
    with pytest.raises(ValidationError):
        halfspace_expansion([], 0.0, 3)


def test_halfspace_expansion_past_index_budget_fails_fast():
    # 10-D degree 15 has C(25, 15) = 3 268 760 terms, past NODE_BUDGET
    start = time.perf_counter()
    with pytest.raises(ValidationError):
        halfspace_expansion(np.full(10, 1.0 / math.sqrt(10.0)), 0.0, 15)
    assert time.perf_counter() - start < 1.0


def _per_degree_halfspace_expansion(w, c, degree):
    # the closed form as one loop over the degrees, lifted term by term
    w = np.asarray(w, dtype=np.float64)
    n = w.size
    density = math.exp(-0.5 * c * c) / math.sqrt(2.0 * math.pi)
    hc = hermite_upto(max(degree - 1, 0), c)
    g = np.empty(degree + 1)
    g[0] = math.erf(c / math.sqrt(2.0))
    for k in range(1, degree + 1):
        g[k] = -2.0 * float(hc[k - 1]) * density / math.sqrt(k)
    terms = {}
    lg = [math.lgamma(a + 1) for a in range(degree + 1)]
    for alpha in multi_indices_upto(n, degree):
        k = sum(alpha)
        if g[k] == 0.0:
            continue
        wpow = 1.0
        for wi, ai in zip(w, alpha):
            wpow *= wi**ai
        if wpow == 0.0:
            continue
        ratio = math.exp(0.5 * (math.lgamma(k + 1) - sum(lg[a] for a in alpha)))
        terms[alpha] = g[k] * ratio * wpow
    return expansion(n, terms)


def test_halfspace_expansion_bit_identical_to_the_per_degree_loop():
    rng = np.random.default_rng(SEED)
    for trial in range(120):
        n = 1 + trial % 3
        if n == 1:
            w = [float(rng.choice([-1.0, 1.0]))]
        else:
            v = rng.standard_normal(n)
            w = list(v / np.linalg.norm(v))
        c = 0.0 if trial % 10 == 0 else float(rng.normal(0.0, 1.5))
        degree = int(rng.integers(0, 66 if n == 1 else 13))
        got = halfspace_expansion(w, c, degree)
        want = _per_degree_halfspace_expansion(w, c, degree)
        assert list(got.terms) == list(want.terms)
        assert np.array_equal(list(got.terms.values()), list(want.terms.values()))


# ---------------------------------------------------------------------------
# exact piecewise-constant profiles


@pytest.mark.parametrize(
    "breakpoints, values",
    [([-0.7, 1.2], [-1.0, 1.0, -1.0]), ([-2.0, 0.3, 0.9], [0.5, -2.0, 3.0, 1.0])],
)
def test_profile_coefficients_match_adaptive_oracle_through_degree_65(breakpoints, values):
    # integrate g H_k phi directly, cut at the jumps, out to |x| = 20 where
    # H_65 phi is below 1e-40
    got = profile_coefficients(breakpoints, values, 65)
    assert got.shape == (66,)

    def profile(x):
        return np.asarray(values)[np.searchsorted(breakpoints, x)]

    for k in range(66):

        def integrand(x, k=k):
            return profile(x) * hermite_upto(k, x)[k] * gauss_density(x)

        want = integrate_adaptive(
            integrand, -20.0, 20.0, abs_tol=1e-13, breakpoints=breakpoints, initial_intervals=32
        )
        assert got[k] == pytest.approx(want, abs=1e-12), k


def test_profile_coefficients_of_a_constant_and_of_a_halfspace():
    assert np.array_equal(profile_coefficients([], [-1.0], 4), [-1.0, 0.0, 0.0, 0.0, 0.0])
    # sign(c - u) is the halfspace profile, bit for bit
    g = profile_coefficients([0.4], [1.0, -1.0], 30)
    want = halfspace_expansion([1.0], 0.4, 30)
    assert np.array_equal(g, [want.coefficient((k,)) for k in range(31)])


@pytest.mark.parametrize(
    "breakpoints, values, degree",
    [
        ([0.0], [1.0], 3),  # one value short
        ([0.0], [1.0, -1.0, 1.0], 3),  # one value too many
        ([0.5, 0.5], [1.0, -1.0, 1.0], 3),  # not strictly increasing
        ([0.5, -0.5], [1.0, -1.0, 1.0], 3),  # decreasing
        ([math.inf], [1.0, -1.0], 3),
        ([math.nan], [1.0, -1.0], 3),
        ([0.0], [1.0, math.nan], 3),
        ([0.0], [1.0, -1.0], -1),
    ],
)
def test_profile_coefficients_validation(breakpoints, values, degree):
    with pytest.raises(ValidationError):
        profile_coefficients(breakpoints, values, degree)


# ---------------------------------------------------------------------------
# estimated coefficients


def test_quadrature_coefficients_constant():
    est = estimate_coefficients(constant_concept(2, 1), 4, method="quadrature", budget=40)
    assert est.expansion.terms[(0, 0)] == pytest.approx(1.0, abs=1e-13)
    for alpha, v in est.expansion.terms.items():
        if alpha != (0, 0):
            assert abs(v) < 1e-10
    assert est.method == "quadrature"
    assert est.stderr is None


def test_quadrature_coefficients_sign_values():
    # spot values of the 1d sign profile at the default budget
    est = estimate_coefficients(ptf(expansion(1, {(1,): 1.0})), 5)
    assert est.expansion.terms[(1,)] == pytest.approx(math.sqrt(2.0 / math.pi), abs=2e-3)
    assert est.expansion.terms.get((2,), 0.0) == pytest.approx(0.0, abs=2e-3)
    assert est.budget == 400


def test_mc_coefficients_match_exact_within_stderr():
    c = halfspace([1.0], 0.4)
    exact = halfspace_expansion([1.0], 0.4, 4)
    est = estimate_coefficients(c, 4, method="monte_carlo", budget=200_000, seed=SEED)
    assert est.stderr is not None
    for k in range(5):
        a = exact.terms.get((k,), 0.0)
        b = est.expansion.terms.get((k,), 0.0)
        se = est.stderr[(k,)]
        assert abs(b - a) <= 4.0 * se + 1e-12, k


def test_mc_coefficients_constant_exact():
    est = estimate_coefficients(
        constant_concept(1, -1), 0, method="monte_carlo", budget=1000, seed=SEED
    )
    assert est.expansion.terms[(0,)] == -1.0
    assert est.stderr[(0,)] == 0.0


def test_mc_coefficients_deterministic():
    c = ball(1.2, 2)
    a = estimate_coefficients(c, 3, method="monte_carlo", budget=50_000, seed=7)
    b = estimate_coefficients(c, 3, method="monte_carlo", budget=50_000, seed=7)
    assert a.expansion.terms == b.expansion.terms
    assert a.stderr == b.stderr


def _mc_coefficients_reference(c, degree, samples, seed):
    """Per-chunk moments with three temporaries (f H, deviations, squares)."""
    alphas = multi_indices_upto(c.dimension, degree)
    count, mean, m2 = 0, np.zeros(len(alphas)), np.zeros(len(alphas))
    for rng, m in chunk_rngs(seed, samples):
        x = rng.standard_normal((m, c.dimension))
        vals = np.asarray(c.batch(x), dtype=np.float64)[:, None] * basis_matrix(x, alphas)
        c_mean = vals.mean(axis=0)
        c_m2 = ((vals - c_mean) ** 2).sum(axis=0)
        delta = c_mean - mean
        total = count + m
        mean += delta * m / total
        m2 += c_m2 + delta * delta * count * m / total
        count = total
    return alphas, mean, np.sqrt(np.maximum(m2, 0.0) / (count - 1) / count)


@pytest.mark.parametrize(
    "concept, degree, samples",
    [
        (ball(2.2, 4), 4, 1 << 15),  # the audit's 4-D ball
        (ball(1.3, 2), 5, 2 * CHUNK_SIZE + 1000),  # three chunks, the last short
        (constant_concept(3, -1), 3, 5000),
    ],
)
def test_mc_coefficients_in_place_pass_is_bit_identical(concept, degree, samples):
    alphas, mean, stderr = _mc_coefficients_reference(concept, degree, samples, SEED)
    est = estimate_coefficients(concept, degree, "monte_carlo", samples, SEED)
    got = np.array([est.expansion.terms.get(a, 0.0) for a in alphas])
    assert np.array_equal(got, mean)
    assert np.array_equal(np.array([est.stderr[a] for a in alphas]), stderr)


def test_mc_coefficients_chunk_holds_about_one_basis_matrix():
    # 70 terms on 2^15 points: the basis matrix is 17.5 MB, and the
    # per-chunk moments reuse it instead of allocating copies beside it
    c = ball(2.2, 4)
    samples = 1 << 15
    matrix_bytes = samples * len(multi_indices_upto(4, 4)) * 8
    estimate_coefficients(c, 4, "monte_carlo", 1000, SEED)  # warm caches
    tracemalloc.start()
    try:
        estimate_coefficients(c, 4, "monte_carlo", samples, SEED)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * matrix_bytes


def test_mc_coefficients_refuse_an_over_budget_chunk_before_allocating():
    # a 4-D ball at its epsilon = 0.5 plan degree: 58,905 coefficients x 2^17
    # samples would be a 57.5 GiB chunk buffer
    tracemalloc.start()
    try:
        with pytest.raises(NodeBudgetError):
            estimate_coefficients(ball(2.2, 4), 32, "monte_carlo", CHUNK_SIZE, SEED)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_estimate_coefficients_validation():
    c = halfspace([1.0], 0.0)
    with pytest.raises(ValidationError):
        estimate_coefficients(c, -1)
    with pytest.raises(ValidationError):
        estimate_coefficients(c, 2, method="bogus")
    with pytest.raises(ValidationError):
        estimate_coefficients(c, 2, method="monte_carlo", budget=100)  # no seed
    with pytest.raises(CapabilityError):
        estimate_coefficients(ball(2.0, 4), 2, method="quadrature")
    with pytest.raises(ValidationError):
        # 2000^2 tensor nodes blow the node budget
        estimate_coefficients(ball(1.0, 2), 2, method="quadrature", budget=2000)


def test_quadrature_degree_at_least_points_per_axis_fails_fast():
    # H_m vanishes at every node of the m-point rule, so coefficient m would
    # read 0 and higher ones alias lower ones
    with pytest.raises(ValidationError, match="quadrature points per axis"):
        estimate_coefficients(ball(1.0, 1), 16, "quadrature", budget=8)
    with pytest.raises(ValidationError, match="quadrature points per axis"):
        estimate_coefficients(ball(1.0, 1), 8, "quadrature", budget=8)
    start = time.perf_counter()
    with pytest.raises(ValidationError, match="quadrature points per axis"):
        # raised before the 3000^2 grid could blow the node budget
        estimate_coefficients(ball(1.0, 2), 3000, "quadrature", budget=2000)
    assert time.perf_counter() - start < 1.0
    est = estimate_coefficients(ball(1.0, 1), 7, "quadrature", budget=8)
    assert est.expansion.degree_bound <= 7


def test_estimate_coefficients_1d_rule_past_budget_fails_fast():
    start = time.perf_counter()
    with pytest.raises(NodeBudgetError):
        estimate_coefficients(ball(1.0, 1), 2, "quadrature", budget=100_000)
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# the construction


def test_build_identity_at_rho_one():
    fhat = expansion(1, {(0,): 0.25, (1,): -0.5, (3,): 0.125})
    p = build(fhat, ApproximationPlan(0.5, 1.0, 1.0, 3))
    assert p.terms == fhat.terms


def test_build_rho_zero_keeps_only_mean():
    fhat = expansion(1, {(0,): 0.25, (1,): -0.5, (3,): 0.125})
    p = build(fhat, ApproximationPlan(0.5, 1.0, 0.0, 3))
    assert p.terms == {(0,): 0.25}


def test_build_scales_and_truncates():
    fhat = expansion(1, {(1,): 1.0, (5,): 1.0})
    p = build(fhat, ApproximationPlan(0.5, 1.0, 0.5, 3), complete_through=5)
    assert p.terms == {(1,): 0.5}


def test_build_degree_never_exceeds_plan():
    rng = np.random.default_rng(SEED)
    for _ in range(20):
        d_have = int(rng.integers(0, 9))
        terms = {(k,): float(rng.normal()) for k in range(d_have + 1)}
        fhat = expansion(1, terms)
        d_plan = int(rng.integers(0, d_have + 1))
        aplan = ApproximationPlan(0.5, 1.0, float(rng.uniform(0.0, 1.0)), d_plan)
        p = build(fhat, aplan)
        assert p.degree_bound <= aplan.degree


@pytest.mark.parametrize("degree", [-1, 2.5])
def test_build_rejects_a_plan_degree_that_is_not_a_non_negative_integer(degree):
    fhat = halfspace_expansion([0.6, -0.8], 0.4, 15)
    with pytest.raises(ValidationError, match="degree"):
        build(fhat, ApproximationPlan(0.5, 1.0, 0.9, degree), complete_through=15)


def test_build_requires_known_coverage():
    fhat = expansion(1, {(1,): 0.8})  # degree bound 1
    aplan = ApproximationPlan(0.5, 1.0, 0.9, 5)
    with pytest.raises(ValidationError):
        build(fhat, aplan)
    # an estimate that really covered degree 5 can declare it
    p = build(fhat, aplan, complete_through=5)
    assert p.terms == {(1,): 0.8 * 0.9}


def test_build_validates_noise_level():
    fhat = expansion(1, {(0,): 1.0})
    with pytest.raises(ValidationError):
        build(fhat, ApproximationPlan(0.5, 1.0, 1.5, 0))


# ---------------------------------------------------------------------------
# error measurement


def test_l1_error_zero_polynomial():
    # |f - 0| = 1 for a +-1 concept, so the estimate is exact with stderr 0
    c = halfspace([1.0], 0.3)
    est = l1_error(c, expansion(1, {}), 1000, SEED)
    assert est.mean == 1.0
    assert est.stderr == 0.0
    est2 = l2_error(c, expansion(1, {}), 1000, SEED)
    assert est2.mean == 1.0
    assert est2.stderr == 0.0


def test_l1_error_mc_matches_quadrature():
    c = halfspace([1.0], 0.0)
    # the degree-10 coefficient of the origin halfspace is an exact zero, so
    # the expansion's stored degree is 9 and coverage must be declared
    p = build(
        halfspace_expansion([1.0], 0.0, 10),
        ApproximationPlan(0.5, 1.0, 0.9, 10),
        complete_through=10,
    )
    quad = l1_error_quad_1d(c, p)
    mc = l1_error(c, p, 400_000, SEED)
    assert abs(mc.mean - quad) <= 4.0 * mc.stderr + 1e-6


def test_l2_error_matches_parseval():
    # for the truncated smoothed halfspace the L2 error is computable from
    # coefficients: ||f - p||^2 = 1 - 2<f, p> + ||p||^2 with <f, p> read off
    # the exact expansion
    c = halfspace([1.0], 0.0)
    full = halfspace_expansion([1.0], 0.0, 60)
    aplan = ApproximationPlan(0.5, 1.0, 0.9, 10)
    p = build(full, aplan)
    inner = sum(full.terms.get(a, 0.0) * v for a, v in p.terms.items())
    want = math.sqrt(1.0 - 2.0 * inner + l2_norm(p) ** 2)
    got = l2_error_quad_1d(c, p)
    assert got == pytest.approx(want, abs=1e-6)
    mc = l2_error(c, p, 400_000, SEED)
    assert abs(mc.mean - want) <= 4.0 * mc.stderr + 1e-6


def test_l1_at_most_l2():
    # Cauchy-Schwarz, checked on measured values with MC allowances
    c = ball(1.5, 2)
    est = estimate_coefficients(c, 6, method="quadrature", budget=200)
    p = build(est.expansion, ApproximationPlan(0.5, 1.0, 0.8, 6), complete_through=6)
    a = l1_error(c, p, 200_000, SEED)
    b = l2_error(c, p, 200_000, SEED + 1)
    assert a.mean <= b.mean + 4.0 * math.hypot(a.stderr, b.stderr)


def test_error_dimension_mismatch():
    c = halfspace([1.0], 0.0)
    p2 = expansion(2, {(1, 0): 1.0})
    with pytest.raises(ValidationError):
        l1_error(c, p2, 100, SEED)
    with pytest.raises(ValidationError):
        l1_error_quad_1d(c, p2)


def test_quad_error_needs_breakpoints_for_unknown_kinds():
    f = ptf(expansion(1, {(1,): 1.0, (0,): -0.2}))
    p = expansion(1, {(1,): 0.7})
    with pytest.raises(CapabilityError):
        l1_error_quad_1d(f, p)
    # sign(x - 0.2 / c1) flips where the polynomial crosses zero
    root = 0.2 / 1.0
    value = l1_error_quad_1d(f, p, breakpoints=[root])
    mc = l1_error(f, p, 400_000, SEED)
    assert abs(mc.mean - value) <= 4.0 * mc.stderr + 1e-6


def test_quad_error_rejects_multivariate():
    c = ball(2, 1.0)
    p = expansion(2, {(0, 0): 0.5})
    with pytest.raises(ValidationError):
        l1_error_quad_1d(c, p)


# ---------------------------------------------------------------------------
# the bound check


def test_bound_check_halfspace_example():
    # rho = 0.9, d = 10 on the origin halfspace: the proved budget is
    # 2 arccos(0.9) / pi + 0.9^11 and the measured error sits well inside it
    c = halfspace([1.0], 0.0)
    aplan = ApproximationPlan(epsilon=0.7, gamma=0.4, rho=0.9, degree=10)
    report = bound_check(c, aplan, seed=SEED)
    assert report.coeff_method == "exact"
    assert report.error_method == "quadrature"
    assert report.gns_term == pytest.approx(2.0 * math.acos(0.9) / math.pi, abs=1e-15)
    assert report.tail_term == pytest.approx(0.9**11, abs=1e-15)
    assert report.slack == 0.0
    assert report.measured_l1.mean <= report.bound
    assert report.passed


def test_bound_check_2d_matches_1d():
    # the construction is rotation invariant: a tilted origin halfspace in
    # two dimensions has the same error as the axis one in one dimension
    aplan = ApproximationPlan(epsilon=0.7, gamma=0.4, rho=0.9, degree=10)
    r1 = bound_check(halfspace([1.0], 0.0), aplan, seed=SEED)
    s = 1.0 / math.sqrt(2.0)
    r2 = bound_check(halfspace([s, s], 0.0), aplan, error_budget=10**6, seed=SEED)
    assert r2.error_method == "monte_carlo"
    gap = abs(r2.measured_l1.mean - r1.measured_l1.mean)
    assert gap <= 4.0 * r2.measured_l1.stderr + 1e-6
    assert r2.passed


def test_bound_check_one_pass_l2_matches_l2_error():
    # the Monte-Carlo branch takes L1 and L2 from one pass over the
    # derive_seed(seed, 3) stream: each equals its own estimator on it
    c = halfspace([0.6, 0.8], 0.2)
    aplan = ApproximationPlan(epsilon=0.7, gamma=0.4, rho=0.9, degree=8)
    report = bound_check(c, aplan, error_budget=150_000, seed=SEED)
    assert report.error_method == "monte_carlo"
    fhat = halfspace_expansion(c.params["w"], c.params["c"], aplan.degree)
    p = build(fhat, aplan, complete_through=aplan.degree)
    stream = derive_seed(SEED, 3)
    assert report.measured_l1 == l1_error(c, p, 150_000, stream)
    assert report.measured_l2 == l2_error(c, p, 150_000, stream)
    assert report.measured_l2.seed == stream


def test_bound_check_offset_halfspace_gns_is_exact():
    # every halfspace carries its closed-form GNS, so none is sampled
    c = halfspace([0.6, 0.8], 0.2)
    aplan = ApproximationPlan(epsilon=0.7, gamma=0.4, rho=0.9, degree=8)
    report = bound_check(c, aplan, error_budget=100_000, seed=SEED)
    assert report.gns_stderr == 0.0
    assert report.gns_term == 2.0 * gns_halfspace_closed_form(1.0 - aplan.rho, 0.2)
    assert report.gns_term < 2.0 * math.acos(0.9) / math.pi
    assert report.passed


def test_bound_check_ball_gns_is_exact():
    # every ball carries its closed-form GNS, so none is sampled
    aplan = ApproximationPlan(epsilon=0.9, gamma=0.3, rho=0.6, degree=2)
    for c, budget in ((ball(1.4, 2), 40), (ball(2.0, 4), 20_000)):
        report = bound_check(c, aplan, coeff_budget=budget, error_budget=50_000, seed=SEED)
        trusted = bound_check(
            c, aplan, coeff_budget=budget, error_budget=50_000, seed=SEED,
            gns_value=c.gns_closed_form(1.0 - aplan.rho),
        )
        assert report.gns_stderr == 0.0
        assert report == trusted
        radius, n = c.params["radius"], c.params["dimension"]
        assert report.gns_term == 2.0 * gns_ball_closed_form(1.0 - aplan.rho, radius, n)


def test_bound_check_constant_concept():
    c = constant_concept(1, 1)
    aplan = ApproximationPlan(epsilon=0.5, gamma=0.1, rho=0.5, degree=2)
    report = bound_check(c, aplan, coeff_budget=60, seed=SEED)
    assert report.gns_term == 0.0
    assert report.measured_l1.mean <= 1e-10
    assert report.passed


def test_bound_check_end_to_end_accuracy():
    # the planned construction meets its epsilon target for the worst
    # gamma = phi(0) case, at both a coarse and a finer accuracy
    c = halfspace([1.0], 0.0)
    gamma = 1.0 / math.sqrt(2.0 * math.pi)
    for eps in (0.5, 0.3):
        aplan = plan(eps, gamma)
        report = bound_check(c, aplan, seed=SEED)
        assert report.bound <= eps + 1e-12
        assert report.measured_l1.mean <= eps
        assert report.passed


def test_bound_check_gns_override():
    # a trusted external GNS value replaces the closed form / MC estimate
    c = halfspace([1.0], 0.0)
    aplan = ApproximationPlan(epsilon=0.7, gamma=0.4, rho=0.9, degree=10)
    report = bound_check(c, aplan, seed=SEED, gns_value=0.25)
    assert report.gns_term == 0.5
    assert report.gns_stderr == 0.0


def test_bound_check_mc_coefficient_slack():
    # above dimension 3 coefficients are Monte Carlo and the report carries
    # a positive coefficient-noise slack
    c = ball(2.0, 4)
    aplan = ApproximationPlan(epsilon=0.9, gamma=0.3, rho=0.6, degree=2)
    report = bound_check(c, aplan, coeff_budget=100_000, error_budget=200_000, seed=SEED)
    assert report.coeff_method == "monte_carlo"
    assert report.slack > 0.0
    assert report.passed


def test_bound_check_1d_profiles_are_exact():
    # a 1-D ball, constant and intersection leave the tensor quadrature: their
    # coefficients are the exact profile series, whatever the coefficient budget
    aplan = ApproximationPlan(epsilon=0.7, gamma=0.4, rho=0.9, degree=12)
    interval = intersection([halfspace([1.0], 0.5), halfspace([-1.0], 0.3)])
    for c in (ball(1.0, 1), constant_concept(1, -1), interval):
        report = bound_check(c, aplan, coeff_budget=20, error_budget=20_000, seed=SEED)
        assert report.coeff_method == "exact"
        assert report.error_method == "quadrature"
        assert report.slack == 0.0
        assert report.passed
    # ball(1, 1) and the interval [-0.3, 0.5]: E|f - p| of the series itself
    for c, t in ((ball(1.0, 1), [-1.0, 1.0]), (interval, [-0.3, 0.5])):
        g = profile_coefficients(t, [-1.0, 1.0, -1.0], aplan.degree)
        p = build(expansion(1, {(k,): v for k, v in enumerate(g)}), aplan)
        report = bound_check(c, aplan, error_budget=20_000, seed=SEED)
        assert report.measured_l1.mean == l1_error_quad_1d(c, p, abs_tol=1e-6)
    # a repeated breakpoint, and one with no jump, give the halfspace series
    # (the error quadrature is cut at 1.0 too, so it agrees to its tolerance)
    same = intersection([halfspace([1.0], 0.5), halfspace([1.0], 0.5), halfspace([1.0], 1.0)])
    got = bound_check(same, aplan, error_budget=20_000, seed=SEED).measured_l1.mean
    want = bound_check(halfspace([1.0], 0.5), aplan, seed=SEED).measured_l1.mean
    assert got == pytest.approx(want, abs=2e-6)


def test_parseval_guard_rejects_the_weight_times_hermite_products(monkeypatch):
    # the Golub-Welsch weights times H_k: at the plan degree 66 of a 2-D ball
    # their rounding error, multiplied by |H_k| at the outer nodes, makes
    # coefficients of mass ~1e27
    def unstable(m, degree):
        rule = gauss_hermite_rule(m)
        return hermite_upto(degree, rule.nodes[:, 0]) * rule.weights[None, :]

    c = ball(1.5, 2)
    aplan = plan(0.5, c.gsa_closed_form)
    assert aplan.degree == 66
    monkeypatch.setattr(approx, "gauss_hermite_products", unstable)
    with pytest.raises(ToleranceError, match="Parseval"):
        bound_check(c, aplan, seed=SEED)
    with pytest.raises(ToleranceError):
        estimate_coefficients(c, 66, "quadrature")


def test_parseval_guard_exempts_monte_carlo():
    # 100 samples for 70 coefficients: the mass is biased up by sum stderr^2
    est = estimate_coefficients(ball(1.0, 4), 4, "monte_carlo", budget=100, seed=SEED)
    assert l2_norm(est.expansion) > 1.0


def test_quadrature_coefficients_at_the_plan_degree_keep_parseval():
    # the 2-D ball at its plan degree 66 with the default 400-point rule
    est = estimate_coefficients(ball(1.5, 2), 66, "quadrature")
    assert l2_norm(est.expansion) ** 2 <= 1.0 + 1e-12
    mean = 2.0 * (1.0 - math.exp(-1.125)) - 1.0  # 2 P(|X| <= 1.5) - 1
    assert est.expansion.coefficient((0, 0)) == pytest.approx(mean, abs=1e-2)


def test_bound_check_report_serialization():
    c = halfspace([1.0], 0.0)
    aplan = ApproximationPlan(epsilon=0.7, gamma=0.4, rho=0.9, degree=10)
    d = bound_check(c, aplan, seed=SEED).to_dict()
    assert d["pass"] is True
    assert d["bound"] == pytest.approx(d["gns_term"] + d["tail_term"], abs=1e-15)
    assert d["plan"]["degree"] == 10
    assert d["measured_l1"]["note"] == "quadrature"
