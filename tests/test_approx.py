"""Tests for the plan / coefficient / build / error-measurement pipeline."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import count_constructions, traced_peak

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
from gaussl1 import approx, concepts, hermite, mc
from gaussl1.approx import l2_error
from gaussl1.concepts import Concept, gns_ball_closed_form, gns_halfspace_closed_form
from gaussl1.hermite import (
    basis_matrix,
    expansion,
    gauss_density,
    hermite_upto,
    l2_norm,
    multi_indices_upto,
)
from gaussl1.mc import CHUNK_SIZE, chunk_rngs, derive_seed, mc_means
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


@pytest.mark.parametrize("epsilon, gamma", [(1e-300, 1.0), (0.5, 1e200), (0.5, 1e-300)])
def test_plan_outside_the_float_range_raises(epsilon, gamma):
    # epsilon^2 underflows, the degree overflows, 16 pi gamma^2 underflows
    with pytest.raises(ValidationError, match="epsilon = .* and gamma = "):
        plan(epsilon, gamma)


def test_plan_keeps_a_huge_epsilon_and_a_huge_degree():
    # epsilon^2 = inf still makes the trivial plan, and a degree past 2^63
    # still plans: the budgets of its consumers refuse it
    assert plan(1e200, 1.0) == ApproximationPlan(1e200, 1.0, 0.0, 0)
    assert plan(1e-9, 0.4).degree == 172241013253229510656


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


@pytest.mark.parametrize("degree", [hermite.NODE_BUDGET, 10**20])
def test_profile_coefficients_past_the_node_budget_raise_before_allocating(degree):
    # degree + 1 coefficients past NODE_BUDGET, as multi_indices_upto(1, degree)
    with pytest.raises(NodeBudgetError, match="coefficients"):
        profile_coefficients([0.0], [1.0, -1.0], degree)


def test_bound_check_on_a_ridge_past_the_node_budget_raises():
    # epsilon = 1e-9 plans degree 1.7e20 for a halfspace: the exact route
    # refuses it before it allocates the series
    for w in ([1.0], [0.6, 0.8]):
        with pytest.raises(NodeBudgetError):
            bound_check(halfspace(w, 0.0), plan(1e-9, 0.4), seed=SEED)


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
def test_mc_coefficients_match_the_two_pass_reference(concept, degree, samples):
    # the pass sums f H and its square by contraction, not row by row, so
    # the bits differ; the tolerances sit far below the stderr (~1e-3)
    alphas, mean, stderr = _mc_coefficients_reference(concept, degree, samples, SEED)
    est = estimate_coefficients(concept, degree, "monte_carlo", samples, SEED)
    got = np.array([est.expansion.terms.get(a, 0.0) for a in alphas])
    assert np.allclose(got, mean, rtol=0, atol=1e-14)
    assert np.allclose(np.array([est.stderr[a] for a in alphas]), stderr, rtol=1e-12, atol=0)


@pytest.mark.parametrize(
    "concept, degree, samples",
    [
        (ball(2.2, 4), 4, 1 << 15),  # the audit's 4-D ball: 70 terms
        (ball(2.2, 6), 4, CHUNK_SIZE),  # one full chunk of 210 terms
    ],
    ids=["ball4", "6d-degree-4"],
)
def test_mc_coefficients_hold_a_few_mib_whatever_samples_x_terms(concept, degree, samples):
    # a samples x terms buffer would be 17.5 MB and 210 MB; besides the
    # chunk's points and values of f the pass holds a few point blocks
    estimate_coefficients(concept, degree, "monte_carlo", 1000, SEED)  # warm caches
    peak = traced_peak(lambda: estimate_coefficients(concept, degree, "monte_carlo", samples, SEED))
    assert peak < samples * (concept.dimension + 1) * 8 + 4 * 2**20


def test_mc_coefficients_independent_of_blas_threads():
    # the contractions are BLAS products: fresh interpreters with one and two
    # BLAS threads must give the same bits
    code = (
        "from gaussl1 import ball, estimate_coefficients\n"
        f"est = estimate_coefficients(ball(2.2, 4), 4, 'monte_carlo', 1 << 15, {SEED})\n"
        "print(repr(sorted(est.expansion.terms.items())), repr(sorted(est.stderr.items())))\n"
    )
    src = Path(estimate_coefficients.__code__.co_filename).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_mc_coefficients_refuse_an_over_budget_chunk_before_allocating():
    # a 4-D ball at its epsilon = 0.5 plan degree: 58,905 coefficients x 2^17
    # samples would be a 57.5 GiB chunk buffer
    def refused():
        with pytest.raises(NodeBudgetError):
            estimate_coefficients(ball(2.2, 4), 32, "monte_carlo", CHUNK_SIZE, SEED)

    assert traced_peak(refused) < 16 * 2**20


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


def test_quadrature_default_rule_fits_the_node_budget():
    # the largest m <= 400 with m^max(n, 2) <= NODE_BUDGET: 400 in 1-D and
    # 2-D, 125 in 3-D, where 400^3 nodes would be refused
    assert estimate_coefficients(halfspace([1.0], 0.3), 4, "quadrature").budget == 400
    assert estimate_coefficients(ball(1.0, 2), 4, "quadrature").budget == 400
    c = intersection([halfspace([1.0, 0.0, 0.0], 0.3), halfspace([0.0, 1.0, 0.0], 0.2),
                      halfspace([0.0, 0.0, 1.0], 0.1)])
    est = estimate_coefficients(c, 2, "quadrature")
    assert est.budget == 125
    assert est.expansion == estimate_coefficients(c, 2, "quadrature", budget=125).expansion
    with pytest.raises(NodeBudgetError):
        estimate_coefficients(c, 2, "quadrature", budget=126)


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


def test_build_constructs_one_expansion(monkeypatch):
    # p = (T_rho fhat)_{<=d} is one coefficient-wise map: scale, keep, build once
    fhat = halfspace_expansion([0.6, -0.8], 0.4, 15)
    aplan = ApproximationPlan(0.5, 1.0, 0.9, 10)
    made = count_constructions(monkeypatch)
    p = build(fhat, aplan, complete_through=15)
    assert made == [p] and made[0] is p
    want = {a: c * 0.9 ** sum(a) for a, c in fhat.terms.items() if sum(a) <= 10}
    assert p.terms == want and list(p.terms) == list(want)


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
    # a 2-D concept with a 2-D p passes the dimension match and meets the 1-D rule
    with pytest.raises(ValidationError, match="dimension 1 only"):
        l1_error_quad_1d(ball(1.0, 2), p)


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
    # two dimensions has the same error as the axis one in one dimension.
    # The 2-D error is its profile's 1-D integral ("quadrature"), so the
    # reports are equal; a Monte-Carlo pass of the lifted p in 2-D is the
    # independent cross-check
    aplan = ApproximationPlan(epsilon=0.7, gamma=0.4, rho=0.9, degree=10)
    r1 = bound_check(halfspace([1.0], 0.0), aplan, seed=SEED)
    s = 1.0 / math.sqrt(2.0)
    c2 = halfspace([s, s], 0.0)
    r2 = bound_check(c2, aplan, error_budget=10**6, seed=SEED)
    assert r2.error_method == "quadrature"
    assert r2.to_dict() == r1.to_dict()
    p = build(approx.profile_expansion(c2.profile, aplan.degree), aplan,
              complete_through=aplan.degree)
    sampled = l1_error(c2, p, 10**6, derive_seed(SEED, 3))
    gap = abs(sampled.mean - r1.measured_l1.mean)
    assert gap <= 4.0 * sampled.stderr + 1e-6
    assert r2.passed


def test_quad_error_cuts_at_the_profile_breakpoints_in_x():
    # a profile's cuts are in u = <w, x>: for w = (-1,) the cut moves to -c
    p = expansion(1, {(1,): -0.6, (3,): 0.2, (0,): 0.1})
    interval = intersection([halfspace([1.0], 0.5), halfspace([-1.0], 0.3)])
    cases = ((halfspace([-1.0], 0.3), [-0.3]), (ball(1.2, 1), [-1.2, 1.2]), (interval, [-0.3, 0.5]))
    for c, cuts in cases:
        assert l1_error_quad_1d(c, p) == l1_error_quad_1d(c, p, breakpoints=cuts)


def test_bound_check_one_pass_l2_matches_l2_error():
    # the Monte-Carlo branch takes L1 and L2 from one pass over the
    # derive_seed(seed, 3) stream: each equals its own estimator on it.  A 2-D
    # ball has no profile, so its pass evaluates the n-D quadrature p
    c = ball(1.4, 2)
    aplan = ApproximationPlan(epsilon=0.7, gamma=0.4, rho=0.9, degree=8)
    report = bound_check(c, aplan, coeff_budget=40, error_budget=150_000, seed=SEED)
    assert report.error_method == "monte_carlo"
    est = estimate_coefficients(c, aplan.degree, "quadrature", 40)
    p = build(est.expansion, aplan, complete_through=aplan.degree)
    stream = derive_seed(SEED, 3)
    assert report.measured_l1 == l1_error(c, p, 150_000, stream)
    assert report.measured_l2 == l2_error(c, p, 150_000, stream)
    assert report.measured_l2.seed == stream


@pytest.mark.parametrize("w", [[0.6, 0.8], [2 / 3, -1 / 3, 2 / 3], [0.0, -0.8, 0.6]])
def test_bound_check_ridge_pass_matches_the_lifted_polynomial(w):
    # an n-D ridge's error is its profile's 1-D integral ("quadrature"), so
    # the Monte-Carlo pass of p = q(<w, x>) is run directly here.  The lifted
    # n-D expansion is the same polynomial, so over the same stream both give
    # the same estimates up to rounding, and those agree with the integral
    c = halfspace(w, 0.2)
    aplan = plan(0.6, 0.3)
    report = bound_check(c, aplan, error_budget=150_000, seed=SEED)
    assert (report.coeff_method, report.error_method) == ("exact", "quadrature")
    q = build(c.profile.coefficients(aplan.degree), aplan, complete_through=aplan.degree)
    lifted = approx.profile_expansion(c.profile, aplan.degree)
    p = build(lifted, aplan, complete_through=aplan.degree)
    stream = derive_seed(SEED, 3)
    ridge_pass = approx._mc_errors(c, c.profile.lift(q), 150_000, stream)
    for got, want in zip(
        ridge_pass, (l1_error(c, p, 150_000, stream), l2_error(c, p, 150_000, stream))
    ):
        assert got.mean == pytest.approx(want.mean, rel=1e-14, abs=0.0)
        assert got.stderr == pytest.approx(want.stderr, rel=1e-14, abs=0.0)
        assert (got.samples, got.seed) == (want.samples, want.seed) == (150_000, stream)
    for exact, sampled in zip((report.measured_l1, report.measured_l2), ridge_pass):
        assert abs(exact.mean - sampled.mean) <= 4.0 * sampled.stderr


def test_bound_check_flipped_1d_ridge_equals_the_lifted_polynomial():
    # a 1-D ridge along w = (1,) is measured on its reduced line, which is its
    # own x, so it reports what the lifted 1-D expansion measures, bit for
    # bit, its L2 by Parseval in the lifted coefficients: the ball, interval
    # and constant.  A halfspace with w = -1 reports
    # what its w = +1 twin reports (test_bound_check_on_an_nd_halfspace_...)
    degree12 = ApproximationPlan(epsilon=0.7, gamma=0.4, rho=0.9, degree=12)
    interval = intersection([halfspace([1.0], 0.5), halfspace([-1.0], 0.3)])
    for f, aplan in (
        (ball(1.2, 1), plan(0.6, 0.3)),
        (interval, degree12),
        (constant_concept(1, -1), plan(0.6, 0.3)),
    ):
        report = bound_check(f, aplan, seed=SEED)
        fhat = approx.profile_expansion(f.profile, aplan.degree)
        p = build(fhat, aplan, complete_through=aplan.degree)
        assert report.measured_l1.mean == l1_error_quad_1d(f, p, abs_tol=1e-6)
        msq = math.fsum([1.0, *(-2.0 * fhat.terms.get(a, 0.0) * v for a, v in p.terms.items()),
                         *(v * v for v in p.terms.values())])
        assert report.measured_l2.mean == math.sqrt(max(0.0, msq))
        assert (report.measured_l2.stderr, report.measured_l2.note) == (0.0, "exact")


@pytest.mark.parametrize("concept, aplan", [
    (halfspace([1.0], 0.0), plan(0.5, 1.0 / math.sqrt(2.0 * math.pi))),
    (intersection([halfspace([1.0], 0.5), halfspace([-1.0], 0.3)]), plan(0.5, 0.6)),
])
def test_bound_check_l2_is_the_whole_line_integral(concept, aplan):
    # at degrees 44 and 100 the mass of (g - q)^2 phi reaches past |u| = 12,
    # so the check integrates the whole line [-40, 40], on which phi(40)
    # underflows; the report's Parseval value agrees to rounding
    assert aplan.degree in (44, 100)
    report = bound_check(concept, aplan, seed=SEED)
    p = build(concept.profile.coefficients(aplan.degree), aplan, complete_through=aplan.degree)
    msq = integrate_adaptive(
        lambda u: (concept.batch(u[:, None]) - hermite.expansion_eval_batch(p, u[:, None])) ** 2
        * gauss_density(u),
        -40.0, 40.0, abs_tol=1e-13, breakpoints=concept.profile.cuts(),
        initial_intervals=int(math.ceil(80.0 * math.sqrt(aplan.degree + 1) / math.pi)),
    )
    assert abs(report.measured_l2.mean - math.sqrt(msq)) <= 1e-12
    assert (report.measured_l2.stderr, report.measured_l2.samples) == (0.0, 0)
    assert report.measured_l2.note == "exact"


def test_bound_check_refuses_an_error_quadrature_past_its_budget():
    # a one-cut profile admits degrees up to 4311: plan(0.1, 0.4), degree
    # 2409, runs, and plan(0.01, 0.4), degree 426115 and inside NODE_BUDGET,
    # is refused before any coefficient is computed
    c = halfspace([1.0], 0.0)
    assert plan(0.1, 0.4).degree == 2409
    assert bound_check(c, plan(0.1, 0.4), seed=SEED).passed
    assert plan(0.01, 0.4).degree == 426115
    start = time.perf_counter()
    with pytest.raises(NodeBudgetError, match="budget of 134217728"):
        bound_check(c, plan(0.01, 0.4), seed=SEED)
    assert time.perf_counter() - start < 1.0
    with pytest.raises(NodeBudgetError):
        l1_error_quad_1d(c, expansion(1, {(4312,): 1e-3}))


@pytest.mark.parametrize("w", [[1.0], [0.6, 0.8]], ids=["1d", "2d"])
def test_bound_check_at_the_largest_admitted_one_cut_degree(w):
    # degree 4311 fills the L1 quadrature's work budget; the ridge line's p
    # is one weighted recurrence a node, so the audit is linear in the degree
    c = halfspace(w, 0.0)
    aplan = ApproximationPlan(0.1, 0.4, plan(0.1, 0.4).rho, 4311)
    start = time.perf_counter()
    report = bound_check(c, aplan, seed=SEED)
    assert time.perf_counter() - start < 10.0
    assert report.passed
    assert (report.coeff_method, report.error_method) == ("exact", "quadrature")
    assert report.measured_l1.mean == pytest.approx(0.0318, abs=1e-4)
    with pytest.raises(NodeBudgetError, match="budget of 134217728"):
        bound_check(c, dataclasses.replace(aplan, degree=4312), seed=SEED)


@pytest.mark.parametrize("n", [10, 100])
@pytest.mark.parametrize("epsilon, gamma, offset", [(0.6, 0.3, 0.4), (0.5, None, 0.0)])
def test_bound_check_high_dimensional_halfspaces(n, epsilon, gamma, offset):
    # degree 15, and degree 44 at epsilon = 0.5 with Gamma = phi(0): the n-D
    # lift has more than NODE_BUDGET terms, and E|f - p| is that of the same
    # profile in 1-D, which the report integrates ("quadrature").  A
    # Monte-Carlo pass of q(<w, x>) in n-D, O(samples (n + d)) work, is the
    # independent cross-check
    w = np.random.default_rng([SEED, n]).standard_normal(n)
    c = halfspace(w / np.linalg.norm(w), offset)
    aplan = plan(epsilon, gauss_density(0.0) if gamma is None else gamma)
    assert aplan.degree == (15 if gamma else 44)
    with pytest.raises(NodeBudgetError):
        approx.profile_expansion(c.profile, aplan.degree)
    report = bound_check(c, aplan, error_budget=200_000, seed=SEED)
    assert (report.coeff_method, report.error_method) == ("exact", "quadrature")
    assert report.passed
    p1 = build(halfspace_expansion([1.0], offset, aplan.degree), aplan,
               complete_through=aplan.degree)
    reference = l1_error_quad_1d(halfspace([1.0], offset), p1)
    assert abs(report.measured_l1.mean - reference) <= 4.0 * report.measured_l1.stderr
    sampled, _ = approx._mc_errors(c, c.profile.lift(p1), 200_000, derive_seed(SEED, 3))
    assert abs(sampled.mean - reference) <= 4.0 * sampled.stderr


def test_bound_check_on_a_ridge_enumerates_no_multi_indices(monkeypatch):
    # a ridge's polynomial is built in one dimension, whatever n is
    real = hermite.multi_indices_upto

    def one_dimensional(dimension, degree):
        assert dimension == 1, f"multi-indices enumerated in dimension {dimension}"
        return real(dimension, degree)

    monkeypatch.setattr(approx, "multi_indices_upto", one_dimensional)
    monkeypatch.setattr(concepts, "multi_indices_upto", one_dimensional)
    monkeypatch.setattr(hermite, "multi_indices_upto", one_dimensional)
    w = np.full(6, 1.0 / math.sqrt(6.0))
    report = bound_check(halfspace(w, 0.1), plan(0.6, 0.3), error_budget=20_000, seed=SEED)
    assert report.coeff_method == "exact"
    with pytest.raises(AssertionError, match="dimension 6"):
        halfspace_expansion(w, 0.1, 4)


def test_bound_check_on_a_ridge_draws_no_samples(monkeypatch):
    # a ridge's error is its profile's 1-D integral in any dimension: no
    # stream is split into chunks and no normal block is drawn
    def no_draws(*args, **kwargs):
        raise AssertionError("a ridge's bound check drew samples")

    for module in (approx, concepts, mc):
        monkeypatch.setattr(module, "normal_blocks", no_draws)
        monkeypatch.setattr(module, "chunk_rngs", no_draws)
    rng = np.random.default_rng([SEED, 3])
    for n in (2, 20, 100):
        w = rng.standard_normal(n)
        report = bound_check(halfspace(w / np.linalg.norm(w), 0.3), plan(0.6, 0.3), seed=SEED)
        assert (report.error_method, report.measured_l1.samples) == ("quadrature", 0)
        assert report.passed
    report = bound_check(constant_concept(4, 1), plan(0.6, 0.3), seed=SEED)
    assert (report.error_method, report.measured_l1.mean) == ("quadrature", 0.0)


@pytest.mark.parametrize("n", [1, 2, 10, 100])
def test_bound_check_on_an_nd_halfspace_reports_the_1d_one(n):
    # smoothing, truncation and the Gaussian law commute with rotations, so a
    # halfspace along any unit w reports what the axis one in 1-D reports; in
    # 1-D that is the flipped halfspace w = (-1,)
    if n == 1:
        w = np.array([-1.0])
    else:
        w = np.random.default_rng([SEED, 4, n]).standard_normal(n)
        w /= np.linalg.norm(w)
    for offset, aplan in ((0.3, plan(0.6, 0.3)), (-0.45, plan(0.5, gauss_density(0.0)))):
        got = bound_check(halfspace(w, offset), aplan, seed=SEED).to_dict()
        assert got == bound_check(halfspace([1.0], offset), aplan, seed=SEED).to_dict()


def test_bound_check_on_a_slab_reports_its_interval(monkeypatch):
    # |<w, x>| <= 1/2 is the ridge of the interval [-1/2, 1/2], in any order of
    # its faces and with a face repeated: no tensor rule, index set or sample
    real = hermite.multi_indices_upto

    def one_dimensional(dimension, degree):
        assert dimension == 1, f"multi-indices enumerated in dimension {dimension}"
        return real(dimension, degree)

    def no_draws(*args, **kwargs):
        raise AssertionError("a slab's bound check drew samples")

    for module in (approx, concepts, hermite):
        monkeypatch.setattr(module, "multi_indices_upto", one_dimensional)
    for module in (approx, concepts, mc):
        monkeypatch.setattr(module, "normal_blocks", no_draws)
        monkeypatch.setattr(module, "chunk_rngs", no_draws)
    interval = intersection([halfspace([1.0], 0.5), halfspace([-1.0], 0.5)])
    slabs = []
    for w in (np.ones(2), np.array([0.1, -0.3, 0.5, 0.7, -0.1])):
        w /= np.linalg.norm(w)
        faces = [halfspace(w, 0.5), halfspace(-w, 0.5)]
        slabs += [intersection(faces), intersection(faces[::-1]),
                  intersection([*faces, faces[0]])]
    for aplan in (plan(0.6, 0.3), plan(0.5, 2.0 * gauss_density(0.5))):
        want = json.dumps(bound_check(interval, aplan, seed=SEED).to_dict())
        for c in slabs:
            report = bound_check(c, aplan, seed=SEED)
            assert (report.coeff_method, report.measured_l1.samples) == ("exact", 0)
            assert json.dumps(report.to_dict()) == want, (c.dimension, aplan.degree)


@pytest.mark.parametrize(
    "concept",
    [halfspace([1.0], math.inf), halfspace([1.0], -math.inf), halfspace([-1.0], math.inf),
     halfspace([-1.0], -math.inf), halfspace([0.6, 0.8], math.inf),
     halfspace([0.6, 0.8], -math.inf)],
    ids=["1d-inf", "1d-minus-inf", "1d-flipped-inf", "1d-flipped-minus-inf", "2d-inf",
         "2d-minus-inf"],
)
def test_bound_check_on_a_halfspace_at_an_infinite_offset(concept):
    # a constant: an infinite offset leaves no cut in the profile, so p is
    # that constant exactly; in 2-D too the error is the profile's 1-D integral
    report = bound_check(concept, plan(0.5, 0.3), error_budget=20_000, seed=SEED)
    assert report.coeff_method == "exact"
    assert report.error_method == "quadrature"
    assert report.measured_l1.mean == 0.0 and report.measured_l2.mean == 0.0
    assert report.gns_term == 0.0 and report.verdict == "pass"


def test_bound_check_on_an_interval_with_one_infinite_end():
    # {x <= 0.5} written as an intersection with {-x <= inf}: the same report
    one_sided = intersection([halfspace([1.0], 0.5), halfspace([-1.0], math.inf)])
    aplan = plan(0.5, 0.3)
    report = bound_check(one_sided, aplan, seed=SEED)
    assert (report.coeff_method, report.error_method, report.verdict) == (
        "exact", "quadrature", "pass")
    assert report.to_dict() == bound_check(halfspace([1.0], 0.5), aplan, seed=SEED).to_dict()


def test_halfspace_expansion_at_an_infinite_offset_is_a_constant():
    assert halfspace_expansion([1.0], math.inf, 4) == expansion(1, {(0,): 1.0})
    assert halfspace_expansion([0.6, 0.8], -math.inf, 3) == expansion(2, {(0, 0): -1.0})


def test_monte_carlo_budgets_must_be_integers():
    # a budget is checked as given, never truncated first: 2.5 samples or a
    # 60.7-point rule raise, and numpy integers count as integers
    hs2 = halfspace([0.6, 0.8], 0.0)
    aplan = ApproximationPlan(epsilon=0.7, gamma=0.4, rho=0.9, degree=4)
    for c in (hs2, halfspace([1.0], 0.0), ball(2.0, 4)):
        with pytest.raises(ValidationError, match="integer"):
            bound_check(c, aplan, coeff_budget=1000, error_budget=2.5, seed=SEED)
    with pytest.raises(ValidationError, match="integer"):
        estimate_coefficients(ball(1.0, 2), 4, "quadrature", budget=60.7)
    with pytest.raises(ValidationError, match="integer"):
        estimate_coefficients(ball(1.0, 4), 2, "monte_carlo", budget=600.7, seed=SEED)
    assert estimate_coefficients(ball(1.0, 2), 4, "quadrature", budget=np.int64(60)) == (
        estimate_coefficients(ball(1.0, 2), 4, "quadrature", budget=60)
    )
    got = estimate_coefficients(ball(1.0, 4), 2, "monte_carlo", budget=np.int32(600), seed=SEED)
    assert got == estimate_coefficients(ball(1.0, 4), 2, "monte_carlo", budget=600, seed=SEED)
    assert bound_check(hs2, aplan, error_budget=np.int64(2000), seed=SEED) == (
        bound_check(hs2, aplan, error_budget=2000, seed=SEED)
    )


def test_bound_check_checks_coeff_budget_on_every_route():
    # a ridge's exact route uses no coefficient budget, but a malformed one
    # still raises there, as it does on the quadrature and Monte-Carlo routes
    aplan = ApproximationPlan(epsilon=0.7, gamma=0.4, rho=0.9, degree=4)
    for c in (halfspace([0.6, 0.8], 0.0), halfspace([1.0], 0.0), halfspace([-1.0], 0.3)):
        for budget in (2.5, -7, 0, "x"):
            with pytest.raises(ValidationError, match="coeff_budget"):
                bound_check(c, aplan, coeff_budget=budget, error_budget=2000, seed=SEED)
        assert bound_check(c, aplan, coeff_budget=np.int64(7), error_budget=2000, seed=SEED) == (
            bound_check(c, aplan, error_budget=2000, seed=SEED)
        )
    # the routes' own checks stay: a one-sample Monte-Carlo budget is too small
    with pytest.raises(ValidationError, match="samples"):
        bound_check(ball(1.0, 4), aplan, coeff_budget=1, error_budget=2000, seed=SEED)
    with pytest.raises(ValidationError, match="coeff_budget"):
        bound_check(ball(1.0, 2), aplan, coeff_budget=60.0, error_budget=2000, seed=SEED)


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
        assert report.gns_stderr == 0.0
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


def test_bound_check_mc_coefficient_slack():
    # above dimension 3 coefficients are Monte Carlo and the report carries
    # a positive coefficient-noise slack
    c = ball(2.0, 4)
    aplan = ApproximationPlan(epsilon=0.9, gamma=0.3, rho=0.6, degree=2)
    report = bound_check(c, aplan, coeff_budget=100_000, error_budget=200_000, seed=SEED)
    assert report.coeff_method == "monte_carlo"
    assert report.slack > 0.0
    assert report.passed


def test_bound_check_error_within_only_the_slack_is_inconclusive():
    # 200 samples leave the degree-15 Monte-Carlo coefficients noisy: the L1
    # error misses bound + allowance, and only the coefficient-noise slack
    # (about 4e6) covers it, so the verdict is undecided rather than a pass
    report = bound_check(ball(2.2, 4), plan(0.6, 0.3), coeff_budget=200,
                         error_budget=100_000, seed=7)
    allowance = 4.0 * math.hypot(report.measured_l1.stderr, 2.0 * report.gns_stderr)
    assert report.bound + allowance < report.measured_l1.mean
    assert report.measured_l1.mean <= report.bound + allowance + report.slack
    assert report.verdict == "inconclusive"
    assert not report.passed
    d = report.to_dict()
    assert (d["pass"], d["verdict"]) == (False, "inconclusive")


def test_bound_check_verdict_is_pass_or_fail_without_slack():
    # deterministic coefficients have no slack: within the allowance is a
    # pass, past it (here: a closed-form GNS far below the true one) a fail
    c = halfspace([1.0], 0.0)
    aplan = plan(0.6, 0.3)
    report = bound_check(c, aplan, seed=SEED)
    assert (report.slack, report.verdict, report.passed) == (0.0, "pass", True)
    report = bound_check(dataclasses.replace(c, gns_closed_form=lambda delta: 0.0), aplan,
                         seed=SEED)
    assert report.measured_l1.mean > report.bound + 4.0 * report.measured_l1.stderr
    assert (report.verdict, report.passed) == ("fail", False)


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


def test_bound_check_rejects_a_gns_value_outside_its_range():
    # GNS at delta <= 1 lies in [0, 1/2]: a concept whose closed form returns
    # a larger value would inflate the bound
    aplan = ApproximationPlan(epsilon=0.9, gamma=0.3, rho=0.6, degree=2)

    def with_gns(value):
        return dataclasses.replace(ball(1.4, 2), gns_closed_form=lambda delta: value)

    for bad in (10.0, 0.5000001, -1e-12, float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="GNS closed form"):
            bound_check(with_gns(bad), aplan, coeff_budget=40, error_budget=1000, seed=SEED)
    for ok in (0.0, 0.5):
        report = bound_check(with_gns(ok), aplan, coeff_budget=40, error_budget=1000, seed=SEED)
        assert report.gns_term == 2.0 * ok


def test_bound_check_routes_on_the_profile_not_the_kind():
    # a custom concept that carries a ridge profile takes the exact route,
    # and reports what the halfspace with the same profile reports; from 2-D
    # on, its error too is the profile's 1-D integral, on its reduced line
    aplan = ApproximationPlan(epsilon=0.7, gamma=0.4, rho=0.9, degree=10)
    for w in ([1.0], [0.6, -0.8]):
        hs = halfspace(w, 0.3)
        custom = Concept(
            len(w), hs.evaluator, gns_closed_form=hs.gns_closed_form, profile=hs.profile
        )
        got = bound_check(custom, aplan, error_budget=20_000, seed=SEED)
        want = bound_check(hs, aplan, error_budget=20_000, seed=SEED)
        assert got.coeff_method == "exact"
        assert got.error_method == "quadrature"
        assert got == want
        if len(w) == 1:
            p = build(halfspace_expansion(w, 0.3, 10), aplan)
            assert l1_error_quad_1d(custom, p, abs_tol=1e-6) == got.measured_l1.mean
        else:
            q = build(halfspace_expansion([1.0], 0.3, 10), aplan)
            line = custom.profile.reduced()
            assert l1_error_quad_1d(line, q, abs_tol=1e-6) == got.measured_l1.mean


def test_bound_check_constant_in_four_dimensions_is_exact():
    # the tensor and Monte-Carlo routes cannot reach degree 20 in 4-D
    c = constant_concept(4, -1)
    aplan = ApproximationPlan(epsilon=0.5, gamma=0.1, rho=0.9, degree=20)
    with pytest.raises(NodeBudgetError):
        estimate_coefficients(c, 20, "monte_carlo", seed=SEED)
    report = bound_check(c, aplan, error_budget=20_000, seed=SEED)
    assert report.coeff_method == "exact"
    assert report.measured_l1.mean == 0.0
    assert report.slack == 0.0
    assert report.gns_term == 0.0
    assert report.passed


def test_flipped_1d_halfspace_coefficients_equal_the_midpoint_profile_route():
    # the 1-D route before profiles: cut at c / w, values read between cuts
    for c, degree in ((0.3, 15), (-0.45, 44), (0.0, 65)):
        f = halfspace([-1.0], c)
        t = [c / -1.0]
        values = f.batch(np.array([[t[0] - 0.5], [t[0] + 0.5]]))
        want = profile_coefficients(t, values, degree)
        got = approx.profile_expansion(f.profile, degree)
        assert np.array_equal([got.coefficient((k,)) for k in range(degree + 1)], want)
        assert got == halfspace_expansion([-1.0], c, degree)


def test_bound_check_1d_interval_gns_is_exact():
    interval = intersection([halfspace([1.0], 0.5), halfspace([-1.0], 0.3)])
    aplan = plan(0.5, gauss_density(0.5) + gauss_density(0.3))  # its surface area
    report = bound_check(interval, aplan, seed=SEED)
    assert report.gns_stderr == 0.0
    assert report.gns_term == 2.0 * interval.gns_closed_form(1.0 - aplan.rho)
    assert report.coeff_method == "exact"
    assert report.passed


def test_parseval_guard_rejects_the_weight_times_hermite_products(monkeypatch):
    # the Golub-Welsch weights times H_k: at the plan degree 66 of a 2-D ball
    # their rounding error, multiplied by |H_k| at the outer nodes, makes
    # coefficients of mass ~1e27
    def unstable(m, degree):
        offdiag = np.sqrt(np.arange(1.0, m))
        nodes, vectors = np.linalg.eigh(np.diag(offdiag, 1) + np.diag(offdiag, -1))
        weights = vectors[0, :] ** 2
        nodes = 0.5 * (nodes - nodes[::-1])
        weights = 0.5 * (weights + weights[::-1])
        weights = weights / weights.sum()
        return hermite_upto(degree, nodes) * weights[None, :]

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


@pytest.mark.parametrize(
    "call",
    [
        lambda: profile_coefficients((0.0,), (1.0, -1.0), 2.5),
        lambda: halfspace_expansion([0.6, -0.8], 0.4, 2.5),
        lambda: bound_check(halfspace([1.0], 0.3), ApproximationPlan(0.5, 1.0, 0.9, 2.5)),
    ],
    ids=["profile", "halfspace-expansion", "bound-check"],
)
def test_fractional_degrees_raise(call):
    with pytest.raises(ValidationError, match="degree"):
        call()


@pytest.mark.parametrize(
    "through", [2.5, 5.0, -1, "5"], ids=["fraction", "float", "negative", "str"]
)
def test_build_takes_complete_through_as_a_count(through):
    # 2.5 was read as 2: a plan of degree 2 then passed the completeness test
    fhat = expansion(1, {(1,): 1.0, (5,): 1.0})
    with pytest.raises(ValidationError, match="complete_through"):
        build(fhat, ApproximationPlan(0.5, 1.0, 0.5, 2), complete_through=through)
    want = build(fhat, ApproximationPlan(0.5, 1.0, 0.5, 3), complete_through=5)
    assert build(fhat, ApproximationPlan(0.5, 1.0, 0.5, 3), complete_through=np.int64(5)) == want


# ---------------------------------------------------------------------------
# streamed passes: blocks of points, slabs of the grid
#
# The references are the passes as they were before they went through their
# points in blocks: the whole m^n grid at once, and one (m, n) draw per chunk.

_INT3 = intersection(
    [halfspace([1.0, 0.0, 0.0], 0.3), halfspace([0.0, 0.6, 0.8], 0.1),
     halfspace([-0.48, 0.64, -0.6], 0.5)]
)


def _quadrature_whole_grid(c, degree, m):
    n = c.dimension
    B = hermite.gauss_hermite_products(m, degree)
    tensor = np.asarray(c.batch(hermite.gauss_hermite_nodes(m, n)), dtype=np.float64)
    tensor = tensor.reshape((m,) * n)
    for _ in range(n):
        tensor = np.tensordot(tensor, B, axes=([0], [1]))
    return {a: float(tensor[a]) for a in multi_indices_upto(n, degree) if tensor[a] != 0.0}


@pytest.mark.parametrize(
    "concept, degree, m",
    [(ball(1.5, 2), 66, 400), (_INT3, 20, 60), (halfspace([1.0], 0.3), 30, 400)],
    ids=["ball-2d", "intersection-3d", "halfspace-1d"],
)
def test_quadrature_slabs_give_the_whole_grid_coefficients(concept, degree, m):
    est = estimate_coefficients(concept, degree, "quadrature", m)
    assert est.expansion.terms == _quadrature_whole_grid(concept, degree, m)


def _errors_whole_chunks(c, p_values, samples, seed):
    def values(rng, m):
        x = rng.standard_normal((m, c.dimension))
        diff = c.batch(x) - p_values(x)
        return np.abs(diff), diff**2

    l1, msq = mc_means(values, samples, seed)
    root = math.sqrt(max(0.0, msq.mean))
    return l1.mean, l1.stderr, root, msq.stderr / (2.0 * root)


def _built_p_values(name):
    # p's evaluator as bound_check builds it, at the audit's plans
    if name == "ridge-2d":
        c = halfspace([0.6, 0.8], 0.2)
        aplan = plan(0.6, 0.3)
        q = build(halfspace_expansion([1.0], 0.2, aplan.degree), aplan)
        return c, c.profile.lift(q)
    if name == "ball-2d":
        c, aplan, route = ball(1.5, 2), plan(0.6, 0.3), {}
    elif name == "intersection-3d":
        c, aplan, route = _INT3, plan(0.7, 0.25), {"budget": 60}
    else:
        c, aplan = ball(2.2, 4), plan(0.9, 0.3)
        route = {"method": "monte_carlo", "budget": 1 << 15, "seed": 1}
    fhat = estimate_coefficients(c, aplan.degree, **route)
    return c, approx._p_values(c, build(fhat.expansion, aplan, complete_through=aplan.degree))


@pytest.mark.parametrize("name", ["ridge-2d", "ball-2d", "intersection-3d", "ball-4d"])
def test_streamed_error_pass_matches_the_whole_chunk_draws(name):
    # p is evaluated a block at a time, and expansion_eval_batch may round a
    # split input differently in the last bits
    c, p_values = _built_p_values(name)
    samples = CHUNK_SIZE + 3001  # several blocks a chunk, and a short last chunk
    l1, l2 = approx._mc_errors(c, p_values, samples, SEED)
    got = (l1.mean, l1.stderr, l2.mean, l2.stderr)
    want = _errors_whole_chunks(c, p_values, samples, SEED)
    assert np.allclose(got, want, rtol=1e-15, atol=0), (got, want)
    assert (l1.samples, l2.samples) == (samples, samples)


def test_bound_check_in_100_dimensions_holds_a_few_mib():
    # one 2^17 x 100 chunk of points would be 100 MiB; in blocks the error
    # pass holds a block of points and the chunk's values (1 MiB a quantity).
    # A ridge's bound check draws no samples, so this runs the Monte-Carlo
    # pass of concepts without a profile directly: a 1-D q on the last axis
    aplan = ApproximationPlan(epsilon=0.7, gamma=0.4, rho=0.9, degree=2)
    q = build(halfspace_expansion([1.0], 0.1, 2), aplan)
    p = expansion(100, {(0,) * 99 + alpha: a for alpha, a in q.terms.items()})
    c = halfspace([0.0] * 99 + [1.0], 0.1)
    l1_error(c, p, 1000, SEED)  # warm caches
    assert traced_peak(lambda: l1_error(c, p, 1 << 18, SEED)) < 8 * 2**20


def test_quadrature_coefficients_hold_the_value_tensor_and_one_slab():
    # 125^3 = 1.95M nodes: the grid and its projection would be 47 MB each;
    # the pass holds the m^n values (15.6 MB) and one slab
    estimate_coefficients(_INT3, 6, "quadrature", 125)  # warm caches
    peak = traced_peak(lambda: estimate_coefficients(_INT3, 6, "quadrature", 125))
    assert peak < 125**3 * 8 + 4 * 2**20


def test_quadrature_refuses_an_over_budget_grid_before_evaluating_f():
    calls = []

    def evaluator(points):
        calls.append(points.shape)
        return np.ones(points.shape[0])

    c = Concept(3, evaluator)
    with pytest.raises(NodeBudgetError):
        estimate_coefficients(c, 4, "quadrature", 200)  # 200^3 nodes
    assert calls == []
    estimate_coefficients(c, 4, "quadrature", 20)
    assert sum(shape[0] for shape in calls) == 20**3


def test_bound_check_estimates_gns_by_monte_carlo_without_a_closed_form():
    # a 3-D intersection has no GNS closed form: bound_check samples GNS with
    # the error budget and the seed's child stream 2
    c = intersection([halfspace([1.0, 0.0, 0.0], 0.3), halfspace([0.0, 0.6, 0.8], 0.2),
                      halfspace([0.0, -0.8, 0.6], 0.5)])
    assert c.gns_closed_form is None and c.profile is None
    aplan = plan(0.7, 0.25)
    report = bound_check(c, aplan, coeff_budget=20, error_budget=20000, seed=SEED)
    g = concepts.gns_mc(c, 1.0 - aplan.rho, 20000, derive_seed(SEED, 2))
    assert report.gns_stderr > 0.0 and report.gns_stderr == g.stderr
    assert report.gns_term == 2 * g.mean


@pytest.mark.parametrize(
    "concept",
    [constant_concept(1, 1.0), constant_concept(3, -1.0), halfspace([1.0], math.inf),
     halfspace([0.6, 0.8], -math.inf)],
    ids=["constant", "constant-3d", "halfspace-inf", "halfspace-2d-minus-inf"],
)
def test_bound_check_passes_a_constant_ridge_past_the_quadrature_budget(concept):
    # plan degree 11867 is past a one-cut profile's L1 quadrature budget, but
    # a profile without cuts gives a p of degree 0, whose L1 error is 0
    aplan = plan(0.05, 0.4)
    assert aplan.degree == 11867
    report = bound_check(concept, aplan, seed=SEED)
    assert report.verdict == "pass"
    assert report.measured_l1.mean == 0.0 and report.measured_l2.mean == 0.0
