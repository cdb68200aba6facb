"""Concept classes, their geometric functionals, and the MC estimators."""

import math

import numpy as np
import pytest

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
    gsa_mc,
    halfspace,
    intersection,
    load_concept,
    noise_distance_check,
    gns_gsa_bound_check,
    ptf,
)
from gaussl1.concepts import (
    Concept,
    concept_from_dict,
    concept_to_dict,
    eval_concept,
    gauss_density,
)
from gaussl1.hermite import expansion
from gaussl1.mc import derive_seed

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
