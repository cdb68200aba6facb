"""Concept classes, their geometric functionals, and the MC estimators."""

import math
import warnings

import numpy as np
import pytest
from conftest import traced_peak

from gaussl1 import (
    CapabilityError,
    DimensionMismatchError,
    NodeBudgetError,
    ValidationError,
    ball,
    constant_concept,
    gns_ball_closed_form,
    gns_halfspace_closed_form,
    gns_mc,
    gns_profile_closed_form,
    gsa_mc,
    halfspace,
    intersection,
    load_concept,
    noise_distance_check,
    gns_gsa_bound_check,
    profile_coefficients,
    ptf,
)
from gaussl1.concepts import (
    Concept,
    Profile,
    concept_from_dict,
    concept_to_dict,
    eval_concept,
    gauss_density,
)
from gaussl1.hermite import expansion, expansion_eval_batch
from gaussl1.mc import CHUNK_SIZE, chunk_rngs, derive_seed, mc_fraction, mc_mean
from gaussl1.quadrature1d import fixed_panels

SEED = 20240229


# -- evaluators ----------------------------------------------------------------


def test_halfspace_eval():
    hs = halfspace([1.0, 0.0], 0.0)
    assert eval_concept(hs, [2.0, 0.0]) == -1
    assert eval_concept(hs, [-2.0, 5.0]) == 1
    assert eval_concept(hs, [0.0, 0.0]) == 1  # boundary ties to +1


def test_halfspace_unit_norm_required():
    with pytest.raises(ValidationError):
        halfspace([1.0, 1.0], 0.0)
    with pytest.raises(ValidationError):
        halfspace([], 0.0)


def test_ball_eval():
    b = ball(1.0, 2)
    assert eval_concept(b, [0.0, 0.0]) == 1
    assert eval_concept(b, [1.0, 0.0]) == 1  # boundary counts as inside
    assert eval_concept(b, [1.1, 0.0]) == -1
    with pytest.raises(ValidationError):
        ball(0.0, 2)


def test_ptf_eval():
    # x^2 - 1 = sqrt(2) H_2(x)
    p = expansion(1, {(2,): math.sqrt(2.0)})
    c = ptf(p)
    assert eval_concept(c, [0.0]) == -1
    assert eval_concept(c, [2.0]) == 1
    assert eval_concept(c, [1.0]) == 1  # p = 0 ties to +1


@pytest.mark.parametrize("degree", [200_000, 10**9])
def test_ptf_past_one_block_a_point_fails_before_any_evaluation(degree):
    # one point's stacked table, dimension x (per-axis degree + 1) cells, must
    # fit the block of every Hermite kernel; 10^9 would ask 7.45 GiB a point
    p = expansion(1, {(degree,): 1.0})
    with pytest.raises(NodeBudgetError, match=f"needs {degree + 1} table cells a point"):
        ptf(p)
    with pytest.raises(NodeBudgetError, match="131072"):
        concept_from_dict({"kind": "ptf", "dimension": 1,
                           "terms": [{"alpha": [degree], "coeff": 1.0}]})
    # a table of exactly one block builds
    assert ptf(expansion(2, {(65535, 0): 1.0, (0, 0): -0.5})).dimension == 2


def test_constant_concept():
    c = constant_concept(3, -1)
    pts = np.zeros((4, 3))
    assert (c.batch(pts) == -1).all()
    assert c.gns_closed_form(0.7) == 0.0
    assert c.gsa_closed_form == 0.0
    with pytest.raises(ValidationError):
        constant_concept(2, 0)


def test_intersection_eval():
    quad = intersection([halfspace([1.0, 0.0], 0.0), halfspace([0.0, 1.0], 0.0)])
    assert eval_concept(quad, [-1.0, -1.0]) == 1
    assert eval_concept(quad, [-1.0, 0.5]) == -1
    assert eval_concept(quad, [0.5, -1.0]) == -1
    with pytest.raises(ValidationError):
        intersection([])
    with pytest.raises(ValidationError):
        intersection([ball(1.0, 2)])
    with pytest.raises(DimensionMismatchError):
        intersection([halfspace([1.0], 0.0), halfspace([1.0, 0.0], 0.0)])


def test_evaluators_return_only_plus_minus_one():
    rng = np.random.default_rng(SEED)
    pts2 = rng.standard_normal((256, 2))
    concepts = [
        halfspace([0.6, 0.8], 0.5),
        ball(1.3, 2),
        intersection([halfspace([1.0, 0.0], 0.3), halfspace([0.0, 1.0], -0.2)]),
        ptf(expansion(2, {(2, 0): 1.0, (0, 1): -0.5})),
        constant_concept(2, 1),
    ]
    for c in concepts:
        values = c.batch(pts2)
        assert set(np.unique(values)) <= {-1.0, 1.0}


def test_batch_shape_validation():
    hs = halfspace([1.0], 0.0)
    with pytest.raises(DimensionMismatchError):
        hs.batch(np.zeros((4, 2)))
    with pytest.raises(DimensionMismatchError):
        hs.batch(np.zeros(4))


def test_ball_rejects_a_non_integer_dimension():
    # a 2.5-D ball would be built in 2-D with the surface area of a 2.5-D sphere
    for dimension in (2.5, 0, -1, 0.5):
        with pytest.raises(ValidationError, match="dimension"):
            ball(1.0, dimension)
    c = ball(1.0, 2.0)
    assert c.dimension == 2 and c.params["dimension"] == 2
    assert c.gsa_closed_form == ball(1.0, 2).gsa_closed_form == math.exp(-0.5)


def test_ball_evaluator_matches_norm():
    # the column-wise row norm equals np.linalg.norm bit for bit up to 7
    # columns; points exactly on the sphere (and their sign flips) are +1
    rng = np.random.default_rng(SEED)
    for n in range(1, 8):
        points = rng.standard_normal((3000, n))
        radius = float(np.linalg.norm(points[0]))
        points[1:9] = points[0] * rng.choice([-1.0, 1.0], size=(8, n))
        points[9] = 0.0
        points[9, n - 1] = radius
        want = np.where(np.linalg.norm(points, axis=1) <= radius, 1.0, -1.0)
        got = ball(radius, n).batch(points)
        assert np.array_equal(got, want), n
        assert np.all(got[:10] == 1.0), n
        dist = ball(radius, n).distance_to_set(points)
        assert np.array_equal(dist, np.maximum(0.0, np.linalg.norm(points, axis=1) - radius))


def test_intersection_evaluator_matches_all_reduction():
    # the axis-aligned first face puts 50 points exactly on x_0 = 0.25,
    # where ties go to +1
    rng = np.random.default_rng(SEED + 1)
    for k in range(1, 11):
        normals = rng.standard_normal((k - 1, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        faces = [halfspace([1.0, 0.0, 0.0], 0.25)]
        faces += [halfspace(w, float(rng.uniform(-0.5, 0.5))) for w in normals]
        W = np.array([h.params["w"] for h in faces])
        cvec = np.array([h.params["c"] for h in faces])
        points = 0.5 * rng.standard_normal((4000, 3))
        points[:50, 0] = 0.25
        want = np.where((points @ W.T <= cvec).all(axis=1), 1.0, -1.0)
        assert np.array_equal(intersection(faces).batch(points), want), k
    assert np.all(intersection(faces[:1]).batch(points[:50]) == 1.0)
    # a tie on the last face counts as inside too
    corner = intersection([halfspace([1.0, 0.0, 0.0], 0.25), halfspace([0.0, 1.0, 0.0], -0.1)])
    points[:50, 1] = -0.1
    assert np.all(corner.batch(points[:50]) == 1.0)


# -- distance oracles ----------------------------------------------------------


def test_halfspace_distance():
    hs = halfspace([1.0, 0.0], 0.5)
    pts = np.array([[0.0, 3.0], [0.5, -1.0], [2.5, 0.0]])
    np.testing.assert_allclose(hs.distance_to_set(pts), [0.0, 0.0, 2.0])


def test_ball_distance():
    b = ball(2.0, 2)
    pts = np.array([[1.0, 0.0], [3.0, 4.0]])
    np.testing.assert_allclose(b.distance_to_set(pts), [0.0, 3.0])


def test_quadrant_distance_closed_form():
    quad = intersection([halfspace([1.0, 0.0], 0.0), halfspace([0.0, 1.0], 0.0)])
    rng = np.random.default_rng(SEED)
    pts = rng.standard_normal((200, 2)) * 2.0
    got = quad.distance_to_set(pts)
    expected = np.hypot(np.maximum(pts[:, 0], 0.0), np.maximum(pts[:, 1], 0.0))
    np.testing.assert_allclose(got, expected, atol=1e-10)


def _dykstra_distance(W, cvec, x, iters=4000):
    # independent oracle: Dykstra's alternating projections onto halfspaces
    k = W.shape[0]
    z = x.copy()
    corrections = np.zeros((k, x.size))
    for _ in range(iters):
        for i in range(k):
            y = z + corrections[i]
            viol = max(0.0, float(y @ W[i]) - cvec[i])
            z = y - viol * W[i]
            corrections[i] = y - z
    return float(np.linalg.norm(x - z))


def test_polyhedron_distance_against_dykstra():
    # non-orthogonal three-face polyhedron in 3D
    faces = [
        halfspace([1.0, 0.0, 0.0], 0.2),
        halfspace([0.0, 1 / math.sqrt(2), 1 / math.sqrt(2)], -0.1),
        halfspace([-0.6, 0.8, 0.0], 0.4),
    ]
    poly = intersection(faces)
    W = np.array([f.params["w"] for f in faces])
    cvec = np.array([f.params["c"] for f in faces])
    rng = np.random.default_rng(7)
    pts = rng.standard_normal((25, 3)) * 1.5
    got = poly.distance_to_set(pts)
    for i in range(25):
        ref = _dykstra_distance(W, cvec, pts[i])
        assert got[i] == pytest.approx(ref, abs=1e-6)


def test_intersection_distance_zero_inside():
    poly = intersection([halfspace([1.0, 0.0], 1.0), halfspace([0.0, 1.0], 1.0)])
    assert poly.distance_to_set(np.array([[0.0, 0.0]]))[0] == 0.0


# -- ridge profiles --------------------------------------------------------------


_RIDGES = {
    "hs1": halfspace([1.0], 0.3),
    "hs1-flipped": halfspace([-1.0], -0.2),
    "hs3": halfspace([0.48, 0.6, -0.64], 0.4),
    "ball1": ball(1.2, 1),
    "interval": intersection([halfspace([1.0], 0.5), halfspace([-1.0], 0.3)]),
    "empty": intersection([halfspace([1.0], -0.5), halfspace([-1.0], -0.5)]),
    "repeated": intersection(
        [halfspace([1.0], 0.5), halfspace([1.0], 0.5), halfspace([1.0], 1.0)]
    ),
    "right": intersection([halfspace([-1.0], 0.7), halfspace([-1.0], -0.1)]),
    **{f"const{n}{v:+d}": constant_concept(n, v) for n in (1, 2, 3, 4) for v in (1, -1)},
}


@pytest.mark.parametrize("name", sorted(_RIDGES))
def test_profile_read_at_w_x_is_the_concept(name):
    c = _RIDGES[name]
    prof = c.profile
    assert len(prof.w) == c.dimension
    assert list(prof.breakpoints) == sorted(set(prof.breakpoints))
    assert len(prof.values) == len(prof.breakpoints) + 1
    x = np.random.default_rng(SEED).standard_normal((20_000, c.dimension))
    u = x @ np.asarray(prof.w)
    g = np.asarray(prof.values)[np.searchsorted(prof.breakpoints, u)]
    assert np.array_equal(g, c.batch(x))


def test_profiles_of_the_constructors():
    assert halfspace([0.6, 0.8], 0.2).profile == Profile((0.6, 0.8), (0.2,), (1.0, -1.0))
    assert ball(1.2, 1).profile == Profile((1.0,), (-1.2, 1.2), (-1.0, 1.0, -1.0))
    assert constant_concept(3, -1).profile == Profile((1.0, 0.0, 0.0), (), (-1.0,))
    assert _RIDGES["interval"].profile == Profile((1.0,), (-0.3, 0.5), (-1.0, 1.0, -1.0))
    assert _RIDGES["empty"].profile.values == (-1.0, -1.0, -1.0)
    assert _RIDGES["repeated"].profile == Profile((1.0,), (0.5, 1.0), (1.0, -1.0, -1.0))


def test_a_profile_validates_itself():
    # both exact routes read u = <w, x> as N(0, 1) and g as +-1: a w of
    # norm 2 would get exact numbers for the wrong law
    with pytest.raises(ValidationError, match=r"w must be a unit vector; got \|w\| = 2.0"):
        Profile((2.0,), (0.0,), (1.0, -1.0))
    for w in ((), (0.6, 0.8 + 1e-11), (math.nan, 1.0)):
        with pytest.raises(ValidationError, match="unit vector"):
            Profile(w, (0.0,), (1.0, -1.0))
    for breakpoints, values in (
        ((0.1,), (1.0, 0.5)),  # not +-1
        ((0.1,), (1.0,)),  # one value short
        ((), (1.0, -1.0)),  # one value too many
        ((0.5, 0.1), (1.0, -1.0, 1.0)),  # decreasing
        ((0.1, 0.1), (1.0, -1.0, 1.0)),  # repeated
        ((math.inf,), (1.0, -1.0)),  # not finite
        ((math.nan,), (1.0, -1.0)),
    ):
        with pytest.raises(ValidationError, match="finite increasing breakpoints"):
            Profile((0.6, 0.8), breakpoints, values)
    assert Profile((0.6, 0.8 + 1e-13), (), (-1.0,)).values == (-1.0,)


@pytest.mark.parametrize("name", sorted(_RIDGES))
def test_a_ridge_reduces_to_its_profile_on_the_line(name):
    # g(u) with w = (1,): the same profile, read at u itself
    c = _RIDGES[name]
    line = c.profile.reduced()
    assert line.dimension == 1
    assert line.profile == Profile((1.0,), c.profile.breakpoints, c.profile.values)
    assert line.gns_closed_form(0.3) == c.gns_closed_form(0.3)
    u = np.random.default_rng(SEED).standard_normal((20_000, 1))
    g = np.asarray(c.profile.values)[np.searchsorted(c.profile.breakpoints, u[:, 0])]
    assert np.array_equal(line.batch(u), g)


def test_only_ridges_carry_a_profile():
    poly = intersection([halfspace([1.0, 0.0], 1.0), halfspace([0.0, 1.0], 1.0)])
    square = ptf(expansion(1, {(2,): 1.0, (0,): -0.5}))
    for c in (ball(1.0, 2), ball(2.0, 4), poly, square, Concept(1, lambda p: p[:, 0])):
        assert c.profile is None


# -- noise sensitivity -----------------------------------------------------------


def test_gns_closed_form_values():
    assert gns_halfspace_closed_form(0.0) == 0.0
    assert gns_halfspace_closed_form(1.0) == pytest.approx(0.5, abs=1e-15)
    assert gns_halfspace_closed_form(0.1) == pytest.approx(
        math.acos(0.9) / math.pi, abs=1e-15
    )
    with pytest.raises(ValidationError):
        gns_halfspace_closed_form(-0.1)
    with pytest.raises(ValidationError):
        gns_halfspace_closed_form(1.5)


def _phi_cdf(x):
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def test_gns_halfspace_origin_is_arccos():
    for delta in (0.0, 1e-9, 0.01, 0.1, 0.37, 0.5, 0.9, 1.0):
        want = math.acos(1.0 - delta) / math.pi
        assert gns_halfspace_closed_form(delta, 0.0) == want
        assert gns_halfspace_closed_form(delta) == want
        assert halfspace([0.6, 0.8], 0.0).gns_closed_form(delta) == want


def test_gns_halfspace_full_noise_is_product_of_tails():
    # at delta = 1, X and Y are independent: P[f(X) != f(Y)] = 2 Phi(c) Phi(-c)
    for c in (0.3, 1.2, 4.0):
        want = 2.0 * _phi_cdf(c) * _phi_cdf(-c)
        assert gns_halfspace_closed_form(1.0, c) == pytest.approx(want, rel=1e-14, abs=0.0)


def test_gns_halfspace_symmetric_monotone_and_zero_at_no_noise():
    deltas = np.linspace(0.0, 1.0, 41)
    for c in (0.05, 0.4, 1.5, 3.0):
        values = [gns_halfspace_closed_form(d, c) for d in deltas]
        assert values == [gns_halfspace_closed_form(d, -c) for d in deltas]
        assert values[0] == 0.0
        assert all(b > a for a, b in zip(values, values[1:])), c
        # an off-centre cut is crossed less often than the central one
        assert all(v < gns_halfspace_closed_form(d) for v, d in zip(values[1:], deltas[1:]))


def test_gns_halfspace_offset_matches_mc():
    s = 1.0 / math.sqrt(2.0)
    for i, offset in enumerate((-0.3, 0.7, 1.6)):
        hs = halfspace([s, -s], offset)
        for j, delta in enumerate((0.05, 0.3, 1.0)):
            est = gns_mc(hs, delta, 400_000, derive_seed(SEED, 10 * i + j))
            closed = hs.gns_closed_form(delta)
            assert closed == gns_halfspace_closed_form(delta, offset)
            assert abs(est.mean - closed) <= 4.0 * est.stderr, (offset, delta)


def _ball_gns_reference(delta, radius, dimension):
    # 2 P[|X| <= r, |Y| > r]: given |X| = t, |Y|^2 / sigma^2 is noncentral
    # chi-square with n degrees of freedom and noncentrality rho^2 t^2 / sigma^2;
    # the smooth integrand over [0, r] takes a 100-point Gauss-Legendre rule
    stats = pytest.importorskip("scipy.stats")
    integrate = pytest.importorskip("scipy.integrate")
    rho = 1.0 - delta
    var = 1.0 - rho * rho
    cut = radius * radius / var

    def integrand(t):
        if rho == 0.0:
            return stats.chi.pdf(t, dimension) * stats.chi2.sf(cut, dimension)
        nc = rho * rho * t * t / var
        return stats.chi.pdf(t, dimension) * stats.ncx2.sf(cut, dimension, nc)

    value, _ = integrate.fixed_quad(integrand, 0.0, radius, n=100)
    return 2.0 * value


def test_gns_ball_matches_noncentral_chi_square_reference():
    worst = 0.0
    for n in (1, 2, 3, 4, 10):
        for radius in (1.0, 2.2, 3.0):
            for delta in (0.05, 0.1, 0.3, 0.7, 1.0):
                got = gns_ball_closed_form(delta, radius, n)
                worst = max(worst, abs(got - _ball_gns_reference(delta, radius, n)))
    assert worst <= 1e-13


def test_gns_ball_matches_mc():
    for i, (radius, n, delta) in enumerate(((1.5, 2, 0.1), (2.2, 4, 0.3), (0.8, 3, 0.05))):
        c = ball(radius, n)
        closed = c.gns_closed_form(delta)
        assert closed == gns_ball_closed_form(delta, radius, n)
        est = gns_mc(c, delta, 400_000, derive_seed(SEED, 40 + i))
        assert abs(est.mean - closed) <= 4.0 * est.stderr, (radius, n, delta)


def test_gns_ball_end_points():
    # at delta = 1, X and Y are independent: 2 P (1 - P) with P = P[|X| <= r]
    for radius in (0.4, 1.3, 3.5):
        p1 = math.erf(radius / math.sqrt(2.0))
        p2 = -math.expm1(-0.5 * radius * radius)
        for n, p in ((1, p1), (2, p2)):
            assert gns_ball_closed_form(0.0, radius, n) == 0.0
            assert gns_ball_closed_form(1.0, radius, n) == pytest.approx(
                2.0 * p * (1.0 - p), rel=1e-14, abs=1e-16
            )


def test_gns_ball_strictly_increasing_in_delta():
    deltas = np.linspace(0.0, 1.0, 41)
    for radius, n in ((0.9, 1), (2.2, 4), (3.0, 10)):
        values = [gns_ball_closed_form(d, radius, n) for d in deltas]
        assert all(b > a for a, b in zip(values, values[1:])), (radius, n)


def test_gns_ball_refuses_a_series_past_the_budget():
    with pytest.raises(NodeBudgetError):
        gns_ball_closed_form(1e-7, 2.2, 4)
    with pytest.raises(ValidationError):
        gns_ball_closed_form(0.1, 0.0, 2)
    with pytest.raises(ValidationError):
        gns_ball_closed_form(0.1, 1.0, 0)


def _interval_gns_reference(lo, hi, delta):
    # GNS of 1[lo <= u <= hi] is 2 (P[U in I] - P[U in I, V in I]) for
    # (1 - delta)-correlated standard normals (U, V)
    stats = pytest.importorskip("scipy.stats")
    rho = 1.0 - delta
    both = stats.multivariate_normal.cdf(
        [hi, hi], cov=[[1.0, rho], [rho, 1.0]], lower_limit=[lo, lo],
        abseps=1e-14, releps=1e-14, maxpts=10**7,
    )
    return 2.0 * (stats.norm.cdf(hi) - stats.norm.cdf(lo) - both)


@pytest.mark.parametrize(
    "lo, hi",
    [(0.2, 0.25), (-1e-3, 1e-3), (-0.3, 0.5), (-2.0, 1.5), (-math.inf, 0.4), (0.7, math.inf)],
)
def test_gns_profile_matches_the_bivariate_normal_reference(lo, hi):
    parts = []
    if math.isfinite(hi):
        parts.append(halfspace([1.0], hi))
    if math.isfinite(lo):
        parts.append(halfspace([-1.0], -lo))
    c = intersection(parts)
    for delta in (1e-4, 1e-2, 0.1, 0.5, 1.0):
        want = _interval_gns_reference(lo, hi, delta)
        assert c.gns_closed_form(delta) == pytest.approx(want, abs=1e-10), (delta, want)


def test_gns_profile_with_one_jump_is_the_one_panel_halfspace_formula():
    # the halfspace formula before it became the one-jump profile case
    def one_panel(delta, c):
        top = math.acos(1.0 - delta)
        if c == 0.0:
            return top / math.pi
        return fixed_panels(lambda t: np.exp(-c * c / (1.0 + np.cos(t))), 0.0, top, 20) / math.pi

    for c in (0.0, -0.3, 0.5, 1.7, -4.0):
        for delta in (0.0, 1e-4, 0.05, 0.3, 0.77, 1.0):
            want = one_panel(delta, c)
            assert gns_halfspace_closed_form(delta, c) == want
            assert gns_profile_closed_form(delta, (c,), (-1.0, 1.0)) == want
            assert gns_profile_closed_form(delta, (c, c + 1.0), (1.0, -1.0, -1.0)) == want
    # the half-line u >= 0.1 (its cut at -0.7 has no jump) is its halfspace, bit for bit
    right = intersection([halfspace([-1.0], 0.7), halfspace([-1.0], -0.1)])
    for delta in (1e-4, 0.3, 1.0):
        assert right.gns_closed_form(delta) == gns_halfspace_closed_form(delta, 0.1)


def test_gns_profile_trivial_cases_and_validation():
    empty = intersection([halfspace([1.0], -0.5), halfspace([-1.0], -0.5)])
    assert empty.gns_closed_form(0.5) == 0.0
    assert gns_profile_closed_form(0.5, (), (1.0,)) == 0.0
    assert gns_profile_closed_form(0.0, (-0.3, 0.5), (-1.0, 1.0, -1.0)) == 0.0
    assert intersection([halfspace([1.0, 0.0], 0.5)]).gns_closed_form is None
    assert gns_halfspace_closed_form(0.3, math.inf) == 0.0  # a cut at infinity never flips
    for breakpoints, values in (
        ((0.1,), (1.0, 0.5)),  # not +-1
        ((0.1,), (1.0,)),  # one value short
        ((0.5, 0.1), (1.0, -1.0, 1.0)),  # decreasing
        ((0.1, 0.1), (1.0, -1.0, 1.0)),  # repeated
        ((-math.inf, 0.5), (-1.0, 1.0, -1.0)),  # an infinite cut, either end
        ((0.5, math.inf), (-1.0, 1.0, -1.0)),
        ((math.nan,), (1.0, -1.0)),
    ):
        with pytest.raises(ValidationError, match="finite increasing breakpoints"):
            gns_profile_closed_form(0.5, breakpoints, values)
    with pytest.raises(ValidationError):
        gns_profile_closed_form(1.5, (0.1,), (1.0, -1.0))


def test_gns_mc_delta_zero_exact():
    hs = halfspace([1.0], 0.0)
    est = gns_mc(hs, 0.0, 10_000, SEED)
    assert est.mean == 0.0
    assert est.stderr == 0.0


def test_gns_mc_constant_concept():
    c = constant_concept(2, 1)
    est = gns_mc(c, 0.5, 10_000, SEED)
    assert est.mean == 0.0


def test_gns_mc_matches_closed_form():
    hs = halfspace([1.0], 0.0)
    for delta in (0.05, 0.2):
        est = gns_mc(hs, delta, 10**6, derive_seed(SEED, int(delta * 100)))
        assert abs(est.mean - gns_halfspace_closed_form(delta)) <= 4.0 * est.stderr


def test_gns_mc_deterministic():
    hs = halfspace([0.6, 0.8], 0.0)
    assert gns_mc(hs, 0.3, 10**5, SEED) == gns_mc(hs, 0.3, 10**5, SEED)


def test_gns_symmetry_under_negation():
    hs = halfspace([1.0, 0.0], 0.0)
    neg = Concept(2, lambda pts: -hs.evaluator(pts), kind="custom")
    a = gns_mc(hs, 0.15, 10**5, derive_seed(SEED, 1))
    b = gns_mc(neg, 0.15, 10**5, derive_seed(SEED, 2))
    assert abs(a.mean - b.mean) <= 4.0 * math.hypot(a.stderr, b.stderr)


def test_gns_monotone_in_delta():
    hs = halfspace([1.0], 0.0)
    a = gns_mc(hs, 0.05, 10**5, derive_seed(SEED, 3))
    b = gns_mc(hs, 0.25, 10**5, derive_seed(SEED, 4))
    assert a.mean <= b.mean + 4.0 * math.hypot(a.stderr, b.stderr)


def test_gns_rotation_invariance():
    a = gns_mc(halfspace([1.0, 0.0], 0.0), 0.1, 10**5, derive_seed(SEED, 5))
    w = [1 / math.sqrt(2), -1 / math.sqrt(2)]
    b = gns_mc(halfspace(w, 0.0), 0.1, 10**5, derive_seed(SEED, 6))
    assert abs(a.mean - b.mean) <= 4.0 * math.hypot(a.stderr, b.stderr)


# -- surface area -----------------------------------------------------------------


def test_gsa_closed_forms():
    assert halfspace([1.0], 0.0).gsa_closed_form == pytest.approx(
        1.0 / math.sqrt(2 * math.pi)
    )
    assert halfspace([1.0], 1.0).gsa_closed_form == pytest.approx(gauss_density(1.0))
    # ball in n=2: boundary measure r e^{-r^2/2}
    b = ball(1.5, 2)
    assert b.gsa_closed_form == pytest.approx(1.5 * math.exp(-1.125), rel=1e-12)


def test_gsa_mc_halfspace():
    hs = halfspace([1.0], 0.0)
    est = gsa_mc(hs, [0.04, 0.02], 2 * 10**6, SEED)
    target = gauss_density(0.0)
    assert abs(est.mean - target) <= 0.05 * target


def test_gsa_mc_full_space_zero():
    c = constant_concept(2, 1)
    est = gsa_mc(c, [0.04, 0.02], 10**4, SEED)
    assert est.mean == 0.0


def test_gsa_mc_requires_distance_oracle():
    c = ptf(expansion(1, {(1,): 1.0}))
    with pytest.raises(CapabilityError):
        gsa_mc(c, [0.04, 0.02], 100, SEED)


def test_gsa_mc_validation_and_low_hit_warning():
    hs = halfspace([1.0], 0.0)
    with pytest.raises(ValidationError):
        gsa_mc(hs, [0.02], 100, SEED)
    with pytest.raises(ValidationError):
        gsa_mc(hs, [0.02, 0.02], 100, SEED)
    with pytest.raises(ValidationError):
        gsa_mc(hs, [-0.01, 0.02], 100, SEED)
    est = gsa_mc(hs, [0.002, 0.001], 1000, SEED)
    assert est.note is not None  # far fewer than 100 shell hits


@pytest.mark.parametrize(
    "deltas", [[math.nan, 0.02], [0.02, math.inf], [0.04, 0.02, math.nan], [0.02, -math.inf]]
)
def test_gsa_mc_rejects_non_finite_deltas(deltas):
    with pytest.raises(ValidationError, match="finite"):
        gsa_mc(halfspace([1.0], 0.0), deltas, 100, SEED)


def test_gsa_mc_rejects_deltas_that_leave_the_float_range():
    # d1 (d2 - d1) underflows to 0, or d2 / (d1 (d2 - d1)) overflows
    for deltas in ([1e-200, 2e-200], [1e-310, 1.0]):
        with pytest.raises(ValidationError, match="deltas"):
            gsa_mc(halfspace([1.0], 0.0), deltas, 1000, SEED)


def test_gsa_mc_rejects_deltas_whose_second_moment_overflows():
    # the weight a = d2 / (d1 (d2 - d1)) is about 2e160, finite, but a * a
    # overflows: the stderr would read 0, so the deltas are refused up front
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="1e-160 and 2e-160"):
            gsa_mc(halfspace([1.0], 0.0), [1e-160, 2e-160], 1000, 3)


def test_gsa_mc_reads_only_the_two_smallest_deltas():
    # larger shells do not enter the estimate, its stderr or its note
    hs = halfspace([1.0], 0.0)
    for samples in (1000, 10**5):
        want = gsa_mc(hs, [0.02, 0.04], samples, SEED)
        assert gsa_mc(hs, [0.5, 0.04, 0.02, 0.3], samples, SEED) == want


def test_gsa_mc_deterministic():
    hs = halfspace([1.0], 0.0)
    assert gsa_mc(hs, [0.04, 0.02], 10**5, SEED) == gsa_mc(hs, [0.04, 0.02], 10**5, SEED)


# -- identity checks ---------------------------------------------------------------


def test_noise_distance_identity_trivial_cases():
    hs = halfspace([1.0], 0.0)
    rep = noise_distance_check(hs, 1.0, 1000, SEED)
    assert rep.lhs.mean == 0.0 and rep.rhs.mean == 0.0 and rep.passed
    rep = noise_distance_check(constant_concept(2, 1), 0.5, 1000, SEED)
    assert rep.lhs.mean == 0.0 and rep.rhs.mean == 0.0 and rep.passed


def test_noise_distance_identity_halfspace():
    hs = halfspace([1.0], 0.0)
    rep = noise_distance_check(hs, 0.9, 10**5, SEED)
    assert rep.passed
    assert rep.closed_form == pytest.approx(2.0 * math.acos(0.9) / math.pi)
    assert abs(rep.lhs.mean - rep.closed_form) <= 4.0 * rep.lhs.stderr


def test_noise_distance_identity_compares_with_the_exact_side():
    # with a closed form, rhs is the exact 2 GNS: a closed form 0.05 too
    # large fails, where a second sampled 2 GNS would agree with lhs anyway
    hs = halfspace([1.0], 0.0)
    wrong = Concept(1, hs.evaluator, gns_closed_form=lambda d: hs.gns_closed_form(d) + 0.05)
    rep = noise_distance_check(wrong, 0.9, 10**5, SEED)
    assert (rep.rhs.mean, rep.rhs.stderr, rep.rhs.samples) == (rep.closed_form, 0.0, 0)
    assert not rep.passed
    rep = noise_distance_check(hs, 0.9, 10**5, SEED)
    assert rep.rhs.mean == rep.closed_form and rep.passed
    # without one, rhs is sampled
    rep = noise_distance_check(Concept(1, hs.evaluator), 0.9, 10**5, SEED)
    assert rep.closed_form is None and rep.rhs.samples == 10**5 and rep.passed


def test_gns_gsa_bound_halfspace():
    hs = halfspace([1.0], 0.0)
    rep = gns_gsa_bound_check(hs, [1.0, 0.99, 0.9, 0.5], 10**5, SEED)
    assert rep.passed


def test_gns_gsa_bound_ball():
    b = ball(math.sqrt(2.0), 2)
    rep = gns_gsa_bound_check(b, [0.99], 10**6, SEED)
    assert rep.passed


def test_gns_gsa_bound_needs_gsa():
    c = ptf(expansion(1, {(1,): 1.0}))
    with pytest.raises(CapabilityError):
        gns_gsa_bound_check(c, [0.9], 100, SEED)
    rep = gns_gsa_bound_check(c, [0.9], 10**5, SEED, gsa=gauss_density(0.0))
    assert rep.passed  # sign(H_1) is the origin halfspace in disguise


def test_sample_counts_must_be_integers():
    # a count is checked as given, never truncated first; numpy integers pass
    hs = halfspace([1.0], 0.0)
    for run in (
        lambda n: gsa_mc(hs, [0.04, 0.02], n, SEED),
        lambda n: noise_distance_check(hs, 0.9, n, SEED),
        lambda n: gns_gsa_bound_check(hs, [0.9], n, SEED),
    ):
        with pytest.raises(ValidationError, match="integer"):
            run(1000.5)
        with pytest.raises(ValidationError, match="integer"):
            run(1000.0)
        assert run(np.int64(1000)) == run(1000)


# -- serialization ------------------------------------------------------------------


@pytest.mark.parametrize(
    "concept",
    [
        halfspace([0.6, 0.8], -0.3),
        ball(1.7, 3),
        constant_concept(2, -1),
        intersection([halfspace([1.0, 0.0], 0.1), halfspace([0.0, 1.0], 0.7)]),
        ptf(expansion(2, {(1, 0): 1.0, (0, 2): -0.25})),
    ],
)
def test_round_trip_preserves_evaluation(concept):
    clone = concept_from_dict(concept_to_dict(concept))
    assert clone.kind == concept.kind
    assert clone.dimension == concept.dimension
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((128, concept.dimension))
    np.testing.assert_array_equal(clone.batch(pts), concept.batch(pts))


def test_load_concept(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"kind": "halfspace", "w": [1.0], "c": 0.25}')
    c = load_concept(path)
    assert c.kind == "halfspace"
    assert eval_concept(c, [0.0]) == 1


def test_concept_from_dict_validation():
    with pytest.raises(ValidationError):
        concept_from_dict({"w": [1.0], "c": 0.0})
    with pytest.raises(ValidationError):
        concept_from_dict({"kind": "moebius"})
    with pytest.raises(ValidationError):
        concept_from_dict({"kind": "ball", "radius": 1.0})


@pytest.mark.parametrize(
    "call",
    [
        lambda: constant_concept(2.5, 1),
        lambda: Concept(2.5, lambda points: np.ones(points.shape[0])),
        lambda: halfspace([1.0], math.nan),
        lambda: halfspace([math.nan], 0.0),
        lambda: ball(math.nan, 2),
        lambda: ball(math.inf, 2),
        lambda: concept_from_dict({"kind": "halfspace", "w": [1.0], "c": "x"}),
        lambda: concept_from_dict({"kind": "halfspace", "w": "ab", "c": 0.0}),
        lambda: concept_from_dict({"kind": "intersection", "halfspaces": [5]}),
        lambda: concept_from_dict(
            {"kind": "ptf", "dimension": 1, "terms": [{"alpha": [1], "coeff": "x"}]}
        ),
        lambda: concept_from_dict(
            {"kind": "ptf", "dimension": 1, "terms": [{"alpha": [1], "coeff": "0.5"}]}
        ),
    ],
    ids=["constant-dimension", "concept-dimension", "nan-offset", "nan-normal", "nan-radius",
         "inf-radius", "payload-c", "payload-w", "payload-halfspaces", "payload-coeff",
         "payload-coeff-text"],
)
def test_malformed_concept_arguments_raise(call):
    with pytest.raises(ValidationError):
        call()


def test_infinite_offset_and_integral_float_dimension_stay_legal():
    points = np.array([[-5.0], [0.0], [5.0]])
    assert np.array_equal(halfspace([1.0], math.inf).batch(points), np.ones(3))
    assert np.array_equal(halfspace([1.0], -math.inf).batch(points), -np.ones(3))
    a, b = ball(1.0, 2.0), ball(1.0, 2)
    assert type(a.dimension) is int and a.params == b.params
    assert a.gns_closed_form(0.3) == b.gns_closed_form(0.3)
    x = np.random.default_rng(SEED).standard_normal((100, 2))
    assert np.array_equal(a.batch(x), b.batch(x))


# -- every ridge is built from its profile -------------------------------------


def _closures_before_the_profile_builder(kind, *args):
    """Copies of the evaluator, distance and GNS each constructor wrote by hand."""
    if kind == "halfspace":
        w, c = np.asarray(args[0], dtype=np.float64), float(args[1])
        return (
            lambda p: np.where(p @ w <= c, 1.0, -1.0),
            lambda p: np.maximum(0.0, p @ w - c),
            lambda delta: gns_halfspace_closed_form(delta, c),
            gauss_density(c),
        )
    if kind == "constant":
        value = args[1]
        return (
            lambda p: np.full(p.shape[0], float(value)),
            lambda p: np.full(p.shape[0], 0.0 if value == 1 else np.inf),
            lambda delta: 0.0,
            0.0,
        )
    W, cvec = np.asarray(args[0]), np.asarray(args[1])  # a 1-D intersection

    def evaluator(p):
        proj = p @ W.T
        inside = proj[:, 0] <= cvec[0]
        for j in range(1, cvec.size):
            inside &= proj[:, j] <= cvec[j]
        return np.where(inside, 1.0, -1.0)

    from gaussl1.concepts import _polyhedron_distance

    return evaluator, lambda p: _polyhedron_distance(W, cvec, p), None, None


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _ridge_cases():
    rng = np.random.default_rng(SEED)
    for n in (1, 2, 10):
        normals = [np.array([1.0]), np.array([-1.0])] if n == 1 else []
        w = rng.standard_normal(n)
        normals.append(w / np.linalg.norm(w))
        for w in normals:
            for c in (0.0, 0.7, -0.7, math.inf, -math.inf):
                yield halfspace(w, c), ("halfspace", w, c), [c] if math.isfinite(c) else []
    for n in (1, 3):
        for value in (1, -1):
            yield constant_concept(n, value), ("constant", n, value), []
    for lo, hi in ((-0.3, 0.5), (0.2, 0.25), (-2.0, 1.5), (0.4, -0.4)):
        c = intersection([halfspace([1.0], hi), halfspace([-1.0], -lo)])
        yield c, ("intersection", [[1.0], [-1.0]], [hi, -lo]), [lo, hi]
    right = intersection([halfspace([-1.0], 0.7), halfspace([-1.0], -0.1)])
    yield right, ("intersection", [[-1.0], [-1.0]], [0.7, -0.1]), [-0.7, 0.1]


def test_ridge_constructors_keep_the_bits_of_their_hand_written_closures():
    for concept, old, cuts in _ridge_cases():
        evaluator, distance, gns, gsa = _closures_before_the_profile_builder(*old)
        n = concept.dimension
        x = np.random.default_rng(SEED + n).standard_normal((4000, n))
        w = np.asarray(concept.profile.w)
        if n == 1:  # exactly on each cut
            on_cut = [np.array([[t]]) for t in cuts]
        else:  # on each cut up to rounding, so on both sides of it
            on_cut = [t * w + (x - np.outer(x @ w, w)) for t in cuts]
        points = np.vstack([x, *on_cut, np.zeros((1, n)), -np.zeros((1, n))])
        assert _same_bits(concept.batch(points), evaluator(points)), old
        if concept.profile.values != (-1.0, -1.0, -1.0):  # the old projection of an
            # empty interval raised; the empty case has its own test
            assert _same_bits(concept.distance_to_set(points), distance(points)), old
        if gns is not None:
            for delta in (0.0, 1e-4, 0.1, 0.5, 1.0):
                assert concept.gns_closed_form(delta) == gns(delta), (old, delta)
            assert concept.gsa_closed_form == gsa, old


def _interval(lo, hi):
    return intersection([halfspace([1.0], hi), halfspace([-1.0], -lo)])


def test_interval_gsa_is_the_density_at_both_ends():
    assert _interval(-0.3, 0.5).gsa_closed_form == gauss_density(-0.3) + gauss_density(0.5)
    assert _interval(-0.3, 0.5).gsa_closed_form == pytest.approx(0.73345314, abs=1e-8)
    right = intersection([halfspace([-1.0], 0.7), halfspace([-1.0], -0.1)])
    assert right.gsa_closed_form == gauss_density(0.1)  # the cut at -0.7 has no jump
    assert _interval(0.4, -0.4).gsa_closed_form == 0.0  # empty
    est = gsa_mc(_interval(-0.3, 0.5), [0.04, 0.02], 10**6, SEED)
    assert abs(est.mean - _interval(-0.3, 0.5).gsa_closed_form) <= 0.05 * est.mean


def test_interval_passes_the_surface_area_bound():
    rep = gns_gsa_bound_check(_interval(-0.3, 0.5), [0.5, 0.9, 0.99], 10**5, SEED)
    assert rep.passed and rep.gsa == _interval(-0.3, 0.5).gsa_closed_form


def test_many_faced_and_empty_intervals_have_a_distance():
    # eleven faces: one past the polyhedron projection's limit in n >= 2
    faces = [halfspace([1.0], 0.5 + 0.1 * k) for k in range(10)] + [halfspace([-1.0], 0.3)]
    many = intersection(faces)
    x = np.random.default_rng(SEED).standard_normal((1000, 1))
    want = np.maximum(0.0, np.maximum(-0.3 - x[:, 0], x[:, 0] - 0.5))
    assert np.array_equal(many.distance_to_set(x), want)
    est = gsa_mc(many, [0.04, 0.02], 10**5, SEED)
    assert abs(est.mean - many.gsa_closed_form) <= 0.1 * many.gsa_closed_form
    empty = intersection([halfspace([1.0], -0.5), halfspace([-1.0], -0.5)])
    assert np.all(np.isposinf(empty.distance_to_set(x)))
    assert gsa_mc(empty, [0.04, 0.02], 1000, SEED).mean == 0.0


def test_ball_surface_area_is_the_chi_density_without_overflow():
    stats = pytest.importorskip("scipy.stats")
    for n in (1, 2, 3, 10, 100, 300, 1000):
        for r in (0.5, 1.0, math.sqrt(n), 17.0):
            want = stats.chi.pdf(r, n)
            got = ball(r, n).gsa_closed_form
            assert got == pytest.approx(want, rel=1e-12, abs=1e-300), (n, r)
    # r^(n-1) alone overflows here
    assert ball(17.0, 300).gsa_closed_form == pytest.approx(stats.chi.pdf(17.0, 300), rel=1e-12)
    assert ball(1.0, 2).gsa_closed_form == math.exp(-0.5)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: halfspace("ab", 0.0), "w"),
        (lambda: halfspace([1.0], "x"), "c"),
        (lambda: halfspace([1.0], None), "c"),
        (lambda: ball("x", 2), "radius"),
        (lambda: ball([1.0, 2.0], 2), "radius"),
        # numeric text is refused as the expansion coefficients refuse it
        (lambda: halfspace(["1.0"], "0.5"), "w"),
        (lambda: halfspace([1.0], "0.5"), "c"),
        (lambda: ball("1.5", 2), "radius"),
        (lambda: concept_from_dict({"kind": "halfspace", "w": [1.0], "c": "0.5"}), "c"),
    ],
    ids=[
        "w", "c", "c-none", "radius", "radius-list",
        "w-text", "c-text", "radius-text", "file-c-text",
    ],
)
def test_non_numeric_constructor_arguments_raise_validation_error(call, name):
    with pytest.raises(ValidationError, match=rf"^{name} must be numeric"):
        call()


def test_a_1d_intersection_reads_an_infinite_offset_as_everywhere_or_nowhere():
    # {x <= inf} holds for every x and {x <= -inf} for none; each piece is read
    # at a finite point, so no cut at +-inf enters the profile
    x = np.array([[-3.0], [0.0], [0.4], [3.0]])
    line = intersection([halfspace([1.0], math.inf), halfspace([-1.0], math.inf)])
    assert line.profile == constant_concept(1, 1).profile
    assert np.array_equal(line.batch(x), np.ones(4)) and line.gns_closed_form(0.3) == 0.0
    empty = intersection([halfspace([1.0], -math.inf), halfspace([1.0], 0.5)])
    assert empty.profile.values == (-1.0, -1.0)
    assert np.array_equal(empty.batch(x), -np.ones(4)) and empty.gns_closed_form(0.3) == 0.0
    one_sided = intersection([halfspace([1.0], 0.5), halfspace([-1.0], math.inf)])
    assert one_sided.profile == halfspace([1.0], 0.5).profile


def test_empty_intersection_in_two_dimensions_is_infinitely_far():
    empty = intersection([halfspace([1.0, 0.0], -0.5), halfspace([-1.0, 0.0], -0.5)])
    x = np.random.default_rng(SEED).standard_normal((1000, 2))
    assert np.all(np.isposinf(empty.distance_to_set(x)))
    assert np.all(empty.batch(x) == -1.0)
    assert gsa_mc(empty, [0.04, 0.02], 1000, SEED).mean == 0.0
    # a point of the set gives the projection away: a non-empty one still measures
    wedge = intersection([halfspace([1.0, 0.0], -0.5), halfspace([0.0, 1.0], -0.5)])
    assert wedge.distance_to_set(np.zeros((1, 2)))[0] == pytest.approx(math.sqrt(0.5))


def test_a_constant_ignores_its_input():
    rows = np.array([[math.nan, 0.0, 1.0], [math.inf, -math.inf, math.nan], [0.0, 0.0, 0.0]])
    for value, far in ((1, 0.0), (-1, math.inf)):
        c = constant_concept(3, value)
        assert np.array_equal(c.batch(rows), np.full(3, float(value)))
        assert np.array_equal(c.distance_to_set(rows), np.full(3, far))


# -- the ridge reduction: Profile's methods ----------------------------------------
#
# The references are copies of the code each method replaced in approx: the
# p evaluator q(<w, x>), the 1-D wrap of the profile series, and the x-space
# cuts w[0] t of the 1-D error pass.


def _ridge_values_before_lift(q, w):
    w = np.asarray(w, dtype=np.float64)
    return lambda x: expansion_eval_batch(q, (x @ w)[:, None])


@pytest.mark.parametrize("n", [1, -1, 2, 3, 100], ids=["1d", "1d-flipped", "2d", "3d", "100d"])
def test_profile_lift_keeps_the_bits_of_the_ridge_evaluator(n):
    rng = np.random.default_rng(SEED + abs(n))
    if abs(n) == 1:
        w = [float(n)]
    else:
        w = rng.standard_normal(n)
        w /= np.linalg.norm(w)
    c = halfspace(w, 0.3)
    q = expansion(1, {(k,): a for k, a in enumerate(rng.standard_normal(16))})
    x = rng.standard_normal((300, len(w)))
    got = c.profile.lift(q)(x)
    assert _same_bits(got, _ridge_values_before_lift(q, c.profile.w)(x))


@pytest.mark.parametrize(
    "concept",
    [halfspace([0.6, 0.8], -0.4), intersection([halfspace([1.0], 0.5), halfspace([-1.0], 0.3)]),
     ball(1.3, 1), constant_concept(2, -1)],
    ids=["halfspace", "interval", "ball-1d", "constant"],
)
def test_profile_coefficients_keep_the_bits_of_the_series(concept):
    ridge = concept.profile
    for degree in (0, 1, 7, 60):
        series = profile_coefficients(ridge.breakpoints, ridge.values, degree)
        want = expansion(1, {(k,): a for k, a in enumerate(series)})
        got = ridge.coefficients(degree)
        assert got == want and all(type(a[0]) is int for a in got.terms), (concept.kind, degree)


def test_profile_cuts_are_the_flipped_breakpoints():
    ridges = [halfspace([-1.0], 0.4), halfspace([1.0], -0.4), ball(1.3, 1),
              intersection([halfspace([-1.0], 0.7), halfspace([-1.0], -0.1)]),
              intersection([halfspace([1.0], 0.5), halfspace([-1.0], 0.3)])]
    for c in ridges:
        ridge = c.profile
        assert ridge.cuts() == [ridge.w[0] * t for t in ridge.breakpoints], c.params
    assert constant_concept(1, 1).profile.cuts() == []


def test_a_halfspace_at_an_infinite_offset_has_a_profile_without_cuts():
    # sign(c - u) is +1 for every u at c = inf and -1 at c = -inf: no cut
    for w in ([1.0], [-1.0], [0.6, 0.8]):
        for c, value in ((math.inf, 1.0), (-math.inf, -1.0)):
            h = halfspace(w, c)
            ridge = h.profile
            assert ridge == Profile(tuple(w), (), (value,)), (w, c)
            assert h.params["c"] == c and h.gsa_closed_form == 0.0 and h.gns_closed_form(0.3) == 0.0
            assert ridge.coefficients(9) == expansion(1, {(0,): value})
            if len(w) == 1:
                assert ridge.cuts() == []
    with pytest.raises(ValidationError, match="finite increasing breakpoints"):
        profile_coefficients([math.inf], [1.0, -1.0], 3)  # the raw series still refuses it


# -- streamed passes: the values of whole-chunk draws ------------------------------
#
# The references below are the whole-chunk passes as they were before the
# passes drew and evaluated their points in blocks: one (m, n) draw of X and
# one of Z per chunk.  The blocked passes evaluate only f, so they must give
# the same bits.


def _whole_chunk_pair(rng, m, n, rho):
    x = rng.standard_normal((m, n))
    z = rng.standard_normal((m, n))
    return x, rho * x + math.sqrt(max(0.0, 1.0 - rho * rho)) * z


def _gns_whole_chunks(c, delta, samples, seed):
    def hits(rng, m):
        x, y = _whole_chunk_pair(rng, m, c.dimension, 1.0 - delta)
        return int(np.count_nonzero(c.batch(x) != c.batch(y)))

    return mc_fraction(hits, samples, seed)


def _distance_lhs_whole_chunks(c, rho, samples, seed):
    def distance_values(rng, m):
        x, y = _whole_chunk_pair(rng, m, c.dimension, rho)
        return np.abs(c.batch(x) - c.batch(y))

    return mc_mean(distance_values, samples, derive_seed(seed, 0))


def _gsa_whole_chunks(c, ds, samples, seed):
    counts = np.zeros(len(ds), dtype=np.int64)
    for rng, m in chunk_rngs(seed, samples):
        x = rng.standard_normal((m, c.dimension))
        dist = np.asarray(c.distance_to_set(x), dtype=np.float64)
        positive = dist > 0.0
        for j, d in enumerate(ds):
            counts[j] += int(np.count_nonzero(positive & (dist <= d)))
    d1, d2 = ds
    p = counts / samples
    a = d2 / (d1 * (d2 - d1))
    b = -d1 / (d2 * (d2 - d1))
    mean = a * p[0] + b * p[1]
    second_moment = a * a * p[0] + b * b * p[1] + 2 * a * b * p[0]
    return mean, math.sqrt(max(0.0, second_moment - mean * mean) / samples)


_STREAMED = {
    "halfspace-2d": halfspace([0.6, 0.8], 0.2),
    "intersection-3d": intersection(
        [halfspace([1.0, 0.0, 0.0], 0.3), halfspace([0.0, 0.6, 0.8], 0.1),
         halfspace([-0.48, 0.64, -0.6], 0.5)]
    ),
    "ball-4d": ball(2.2, 4),
    "halfspace-20d": halfspace(list(np.full(20, 1.0 / math.sqrt(20.0))), -0.2),
}


@pytest.mark.parametrize("name", sorted(_STREAMED))
def test_streamed_pair_passes_equal_the_whole_chunk_draws(name):
    # a full chunk of several blocks and a short last chunk
    c, samples = _STREAMED[name], CHUNK_SIZE + 3001
    got = gns_mc(c, 0.1, samples, SEED)
    assert got == _gns_whole_chunks(c, 0.1, samples, SEED)
    lhs = noise_distance_check(c, 0.8, samples, SEED).lhs
    assert lhs == _distance_lhs_whole_chunks(c, 0.8, samples, SEED)
    est = gsa_mc(c, [0.02, 0.01], samples, SEED + 1)
    assert (est.mean, est.stderr) == _gsa_whole_chunks(c, (0.01, 0.02), samples, SEED + 1)


def test_gns_mc_holds_one_chunk_of_x_and_a_block_of_pairs():
    # a whole-chunk pair would hold x, z, rho x and y: four 20 MiB arrays
    c = ball(4.5, 20)
    gns_mc(c, 0.1, 1000, SEED)  # warm caches
    x_bytes = CHUNK_SIZE * 20 * 8
    assert traced_peak(lambda: gns_mc(c, 0.1, CHUNK_SIZE, SEED)) < x_bytes + 4 * 2**20
