"""Boolean concepts on Gaussian space and their geometric functionals.

A concept is a measurable ``f: R^n -> {-1, +1}`` with the tie convention
``sign(0) = +1`` used everywhere in the package.  Alongside the evaluator a
concept may carry:

- a closed form for its Gaussian noise sensitivity
  ``GNS_delta(f) = P[f(X) != f(Y)]`` where ``(X, Y)`` are standard Gaussian
  vectors with coordinatewise correlation ``1 - delta``;
- a closed form for its Gaussian surface area (GSA), the ``delta -> 0`` limit
  of ``P[0 < dist(X, K) <= delta] / delta`` for ``K = {f = +1}``;
- an exact distance oracle ``x -> dist(x, K)`` enabling the GSA estimator.

Monte-Carlo estimators for both functionals and the checks tying them
together (the smoothing-distance identity and the sensitivity-vs-surface
bound ``GNS_{1-rho}(f) <= sqrt(pi) sqrt(1-rho) GSA(f)``) live here too.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import (
    CapabilityError,
    DimensionMismatchError,
    GaussL1Error,
    NodeBudgetError,
    ValidationError,
)
from .hermite import (
    NODE_BUDGET,
    HermiteExpansion,
    MultiIndex,
    expansion,
    expansion_eval_batch,
    gauss_density,
    hermite_upto,
    multi_indices_upto,
)
from .mc import (
    BLOCK_CELLS,
    EstimateWithError,
    check_dimension,
    check_integer,
    check_numeric,
    check_probability,
    check_samples,
    check_seed,
    chunk_rngs,
    derive_seed,
    mc_fraction,
    mc_mean,
    normal_blocks,
)
from .noise import validate_noise_level
from .quadrature1d import fixed_panels, integrate_adaptive


@dataclass(frozen=True)
class Profile:
    """A ridge ``f(x) = g(<w, x>)`` with a piecewise-constant profile ``g``:
    ``values[i]`` between ``breakpoints[i - 1]`` and ``breakpoints[i]``, the
    outer pieces running to -inf and +inf.

    Smoothing and truncation commute with rotations, so a ridge reduces to
    ``g`` under ``u = <w, x> ~ N(0, 1)``: its ``p = (T_rho f)_{<=d}`` is
    ``q(<w, x>)`` for the 1-D ``q = (T_rho g)_{<=d}``.  Code outside this
    module reads a ridge through the methods below, not through its fields.
    """

    w: tuple[float, ...]
    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        # both exact routes read u = <w, x> as N(0, 1): a w of any other norm
        # would get exact numbers for the wrong law
        norm = float(np.linalg.norm(np.asarray(self.w, dtype=np.float64)))
        if not abs(norm - 1.0) <= 1e-12:  # a NaN entry fails too
            raise ValidationError(f"w must be a unit vector; got |w| = {norm!r}")
        _check_sign_profile(self.breakpoints, self.values)

    def coefficients(self, degree: int) -> HermiteExpansion:
        """The exact 1-D series ``sum_k <g, H_k> H_k`` through ``degree``
        (:func:`profile_coefficients`)."""
        series = profile_coefficients(self.breakpoints, self.values, degree)
        return expansion(1, {(k,): a for k, a in enumerate(series)})

    def lift(self, q: HermiteExpansion) -> Callable[[np.ndarray], np.ndarray]:
        """``x -> q(<w, x>)`` at ``(N, len(w))`` points for a 1-D ``q``: one
        projection, then the 1-D recurrence."""
        w = np.asarray(self.w, dtype=np.float64)
        return lambda x: expansion_eval_batch(q, (x @ w)[:, None])

    def cuts(self) -> list[float]:
        """The jumps of a 1-D ridge in ``x``: ``u = w[0] x`` with ``w[0] = +-1``."""
        return [self.w[0] * t for t in self.breakpoints]

    def reduced(self) -> Concept:
        """The profile's own 1-D ridge ``g(u)``, ``w = (1,)``: with ``u = <w, x>
        ~ N(0, 1)``, any norm of ``g(<w, x>) - q(<w, x>)`` is that of ``g(u) - q(u)``."""
        return _ridge(Profile((1.0,), self.breakpoints, self.values), "ridge", {})


def _check_sign_profile(breakpoints, values) -> tuple[list[float], list[float]]:
    """Finite, strictly increasing breakpoints and one +-1 value more, as floats."""
    t = [float(b) for b in breakpoints]
    v = [float(a) for a in values]
    if (len(v) != len(t) + 1 or any(abs(a) != 1.0 for a in v)
            or not all(map(math.isfinite, t)) or sorted(set(t)) != t):
        raise ValidationError(
            f"need finite increasing breakpoints and one +-1 value more: {t}, {v}"
        )
    return t, v


def profile_coefficients(breakpoints, values, degree: int) -> np.ndarray:
    """Exact ``<g, H_k>`` for ``k <= degree`` of a piecewise-constant profile.

    ``g`` equals ``values[i]`` between ``breakpoints[i - 1]`` and
    ``breakpoints[i]``, the outer pieces running to -inf and +inf.  With the
    jump ``J_j = values[j + 1] - values[j]`` at ``t_j``, integrating by parts
    against ``H_k phi = -(H_{k-1} phi)' / sqrt(k)`` gives
    ``<g, H_k> = sum_j J_j H_{k-1}(t_j) phi(t_j) / sqrt(k)`` for ``k >= 1``, and
    ``<g, H_0> = (values[0] + values[-1]) / 2 - sum_j J_j erf(t_j / sqrt 2) / 2``.
    ``degree`` must be an integer >= 0, and more than ``NODE_BUDGET``
    coefficients raise :class:`NodeBudgetError` before any is allocated.
    """
    t = [float(b) for b in breakpoints]
    v = [float(a) for a in values]
    degree = check_integer("degree", degree, 0)
    if len(v) != len(t) + 1 or not all(map(math.isfinite, t + v)) or sorted(set(t)) != t:
        raise ValidationError(f"need finite increasing breakpoints and one value more: {t}, {v}")
    if degree + 1 > NODE_BUDGET:
        raise NodeBudgetError(f"more than {NODE_BUDGET} coefficients up to degree {degree}")
    jumps = [b - a for a, b in zip(v, v[1:])]
    g = np.zeros(degree + 1)
    steps = sum(J * math.erf(a / math.sqrt(2.0)) / 2.0 for J, a in zip(jumps, t))
    g[0] = (v[0] + v[-1]) / 2.0 - steps
    if degree and t:
        terms = np.array(jumps) * hermite_upto(degree - 1, np.array(t))
        terms *= [gauss_density(a) for a in t]
        g[1:] = (terms / np.sqrt(np.arange(1.0, degree + 1))[:, None]).sum(axis=1)
    return g


def profile_expansion(profile: Profile, degree: int) -> HermiteExpansion:
    """Exact Hermite coefficients of the ridge ``g(<w, x>)`` up to ``degree``.

    The profile ``g`` has the coefficients :func:`profile_coefficients`
    gives; for a unit ``w`` the multivariate coefficients follow from
    ``H_k(<w, x>) = sum_{|alpha| = k} sqrt(k! / alpha!) w^alpha H_alpha(x)``.
    """
    g = profile_coefficients(profile.breakpoints, profile.values, degree)
    lg = [math.lgamma(a + 1) for a in range(degree + 1)]
    terms: dict[MultiIndex, float] = {}
    for alpha in multi_indices_upto(len(profile.w), degree):
        k = sum(alpha)
        ratio = math.exp(0.5 * (math.lgamma(k + 1) - sum(lg[a] for a in alpha)))
        terms[alpha] = g[k] * ratio * math.prod(wi**ai for wi, ai in zip(profile.w, alpha))
    return expansion(len(profile.w), terms)


@dataclass(frozen=True, eq=False)
class Concept:
    """A +/-1 valued function with optional geometric metadata.

    ``evaluator`` maps an ``(N, dimension)`` array to an ``(N,)`` array of
    +/-1 values.  ``distance_to_set`` (when present) maps the same input to
    Euclidean distances to ``K = {f = +1}`` (0 inside).  A ridge concept
    carries its :class:`Profile`, which makes its Hermite coefficients exact.
    ``dimension`` must be a whole number >= 1 and is stored as an ``int``.
    """

    dimension: int
    evaluator: Callable[[np.ndarray], np.ndarray]
    kind: str = "custom"
    gsa_closed_form: float | None = None
    gns_closed_form: Callable[[float], float] | None = None
    distance_to_set: Callable[[np.ndarray], np.ndarray] | None = None
    params: dict = field(default_factory=dict)
    profile: Profile | None = None

    def __post_init__(self):
        object.__setattr__(self, "dimension", check_dimension(self.dimension))

    def batch(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != self.dimension:
            raise DimensionMismatchError(
                f"points shape {points.shape} does not match dimension {self.dimension}"
            )
        return self.evaluator(points)


def _signs(mask: np.ndarray) -> np.ndarray:
    """+1.0 where ``mask`` is true and -1.0 elsewhere: one cast and two passes
    in place, several times cheaper than ``np.where(mask, 1.0, -1.0)``."""
    out = mask.astype(np.float64)
    out *= 2.0
    out -= 1.0
    return out


def eval_concept(c: Concept, x) -> int:
    """Evaluate a concept at a single point, returning +1 or -1."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    return int(c.batch(x[None, :])[0])


# ---------------------------------------------------------------------------
# constructors


def halfspace(w, c: float) -> Concept:
    """``f(x) = sign(c - <w, x>)`` for a unit ``w`` and a non-NaN ``c`` (ties to +1)."""
    w = check_numeric("w", w, lambda a: np.asarray(a, dtype=np.float64))
    if w.ndim != 1 or w.size < 1:
        raise ValidationError("w must be a non-empty vector")
    offset = check_numeric("c", c)
    if math.isnan(offset):
        raise ValidationError("offset c must not be NaN")
    # an infinite offset holds everywhere or nowhere, so it leaves no cut
    cut = ((offset,), (1.0, -1.0)) if math.isfinite(offset) else ((), (math.copysign(1.0, offset),))
    profile = Profile(tuple(float(v) for v in w), *cut)
    return _ridge(profile, "halfspace", {"w": list(profile.w), "c": offset})


def _ridge(profile: Profile, kind: str, params: dict) -> Concept:
    """The ridge ``g(<w, x>)``, its evaluator, distance, GNS and GSA read off ``g``.

    ``K = {f = +1}`` is the closure of ``{g = +1}``: a cut is in ``K`` iff a
    piece next to it is +1.  So ``K`` is a union of closed intervals
    ``lo <= u <= hi`` of ``u = <w, x>``, and an infinite ``lo`` is not tested.
    """
    w = np.asarray(profile.w, dtype=np.float64)  # fresh from the tuple: no caller holds it
    t, v = profile.breakpoints, profile.values
    ends = (-math.inf, *t, math.inf)
    pieces = [(lo, hi) for lo, hi, value in zip(ends, ends[1:], v) if value == 1.0]

    def inside(u: np.ndarray) -> np.ndarray:  # lo <= u <= hi on some +1 piece
        tests = ((u <= hi) if lo == -math.inf else (u >= lo) & (u <= hi) for lo, hi in pieces)
        return functools.reduce(np.logical_or, tests)

    def gap(u: np.ndarray) -> np.ndarray:  # least max(0, lo - u, u - hi) over the +1 pieces
        def one(lo: float, hi: float) -> np.ndarray:
            g = u - hi
            np.maximum(0.0, g, out=g)
            return g if lo == -math.inf else np.maximum(g, lo - u, out=g)
        return functools.reduce(np.minimum, (one(lo, hi) for lo, hi in pieces))

    level = {value for lo, hi, value in zip(ends, ends[1:], v) if lo < hi}
    if len(level) == 1:  # g takes one value on every finite u: <w, x> is not formed
        value = level.pop()

        def evaluator(points: np.ndarray) -> np.ndarray:
            return np.full(len(points), value)

        def distance(points: np.ndarray) -> np.ndarray:
            return np.full(len(points), 0.0 if value == 1.0 else np.inf)

    else:
        # u = <w, x> is freed before the +-1 buffer is allocated: a fresh one costs page faults
        def evaluator(points: np.ndarray) -> np.ndarray:
            return _signs(inside(points @ w))

        def distance(points: np.ndarray) -> np.ndarray:
            return gap(points @ w)

    gsa = sum((abs(b - a) / 2.0 * gauss_density(s) for s, a, b in zip(t, v, v[1:])), 0.0)
    return Concept(
        w.size, evaluator, kind, gsa_closed_form=gsa, distance_to_set=distance, params=params,
        gns_closed_form=lambda delta: gns_profile_closed_form(delta, t, v), profile=profile,
    )


def ball(radius: float, dimension: int) -> Concept:
    """``f(x) = +1`` iff ``|x| <= radius`` (boundary counts as +1) for a finite
    ``radius > 0`` and a whole ``dimension >= 1``; others raise :class:`ValidationError`."""
    radius = check_numeric("radius", radius)
    if not (math.isfinite(radius) and radius > 0):
        raise ValidationError(f"radius must be finite and > 0, got {radius}")
    dimension = check_dimension(dimension)

    def evaluator(points: np.ndarray) -> np.ndarray:
        return _signs(_row_norms(points) <= radius)

    def distance(points: np.ndarray) -> np.ndarray:
        return np.maximum(0.0, _row_norms(points) - radius)

    def gns(delta: float) -> float:
        return gns_ball_closed_form(delta, radius, dimension)

    # sphere area x Gaussian density at radius r, the chi density, in logs:
    # r^(n-1) and Gamma(n/2) overflow on their own from n of about 300
    gsa = math.exp(
        (dimension - 1) * math.log(radius)
        - 0.5 * radius * radius
        + (1.0 - dimension / 2.0) * math.log(2.0)
        - math.lgamma(dimension / 2.0)
    )
    return Concept(
        dimension=dimension,
        evaluator=evaluator,
        kind="ball",
        gsa_closed_form=gsa,
        gns_closed_form=gns,
        distance_to_set=distance,
        params={"radius": radius, "dimension": dimension},
        profile=Profile((1.0,), (-radius, radius), (-1.0, 1.0, -1.0)) if dimension == 1 else None,
    )


def _row_norms(points: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, summing the squares column by column.

    Equal to ``np.linalg.norm(points, axis=1)`` bit for bit up to 7 columns;
    from 8 on numpy sums each row pairwise, so the last bit may differ.
    """
    total = np.square(points[:, 0])
    for j in range(1, points.shape[1]):
        total += np.square(points[:, j])
    return np.sqrt(total, out=total)


_MAX_INTERSECTION_FACES = 10


def intersection(halfspaces: Sequence[Concept]) -> Concept:
    """Intersection of halfspaces: +1 iff every component is +1.

    In one dimension the intersection is a ridge (an interval, a half-line, the
    line or empty) and carries its profile with everything derived from it.  From two
    dimensions on, an exact distance oracle (projection onto the polyhedron
    by active-set enumeration) is attached for up to 10 faces.
    """
    if not halfspaces:
        raise ValidationError("intersection needs at least one halfspace")
    if any(h.kind != "halfspace" for h in halfspaces):
        raise ValidationError("intersection components must be halfspaces")
    dims = {h.dimension for h in halfspaces}
    if len(dims) != 1:
        raise DimensionMismatchError("halfspaces of mixed dimension")
    n = dims.pop()
    W = np.asarray([h.params["w"] for h in halfspaces], dtype=np.float64)
    cvec = np.asarray([h.params["c"] for h in halfspaces], dtype=np.float64)
    W.setflags(write=False)
    cvec.setflags(write=False)

    params = {"halfspaces": [{"w": h.params["w"], "c": h.params["c"]} for h in halfspaces]}
    if n == 1:  # read one finite point a piece; an infinite offset holds everywhere or nowhere
        t = sorted(set(float(v) for v in cvec / W[:, 0] if math.isfinite(v)))
        ends = [t[0] - 1.0, *t, t[-1] + 1.0] if t else [-1.0, 1.0]
        mids = [(a + b) / 2.0 for a, b in zip(ends, ends[1:])]
        inside = (np.outer(mids, W[:, 0]) <= cvec).all(axis=1)
        values = tuple(1.0 if a else -1.0 for a in inside)
        return _ridge(Profile((1.0,), tuple(t), values), "intersection", params)

    def evaluator(points: np.ndarray) -> np.ndarray:
        # column by column: numpy's all() over the short length-k axis
        # costs far more than k elementwise passes over the rows
        proj = points @ W.T
        inside = proj[:, 0] <= cvec[0]
        for j in range(1, cvec.size):
            inside &= proj[:, j] <= cvec[j]
        return _signs(inside)

    distance = None
    if len(halfspaces) <= _MAX_INTERSECTION_FACES:
        distance = functools.partial(_polyhedron_distance, W, cvec)
        # a non-empty K has a projection of 0 with independent active faces, which
        # the enumeration visits; with none, K is empty and everything is at inf
        if math.isinf(_projection_lengths(W, cvec, np.zeros((1, n)))[0]):
            distance = _infinitely_far
    return Concept(n, evaluator, "intersection", distance_to_set=distance, params=params)


def _infinitely_far(points: np.ndarray) -> np.ndarray:
    return np.full(len(points), np.inf)


def _polyhedron_distance(W: np.ndarray, cvec: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Exact distance to the non-empty ``{x : W x <= c}``; a point whose
    projection no active set gives raises :class:`GaussL1Error`."""
    dist = _projection_lengths(W, cvec, points)
    if np.any(np.isinf(dist)):
        raise GaussL1Error("polyhedron projection failed (degenerate face set)")
    return dist


def _projection_lengths(W: np.ndarray, cvec: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Distance to ``{x : W x <= c}`` by KKT active-set enumeration, ``inf``
    where no active set qualifies.

    For each candidate active set S the projection is ``x - W_S^T lambda``
    with ``lambda = (W_S W_S^T)^{-1} (W_S x - c_S)``; it is the true
    projection iff ``lambda >= 0`` and the projected point is feasible.
    """
    k = W.shape[0]
    slack = points @ W.T - cvec  # (N, k); feasible iff all <= 0
    infeasible = (slack > 0.0).any(axis=1)
    dist = np.zeros(points.shape[0])
    if not np.any(infeasible):
        return dist
    best = np.full(points.shape[0], np.inf)
    for size in range(1, k + 1):
        for subset in itertools.combinations(range(k), size):
            Ws = W[list(subset)]
            M = Ws @ Ws.T
            try:
                Minv = np.linalg.inv(M)
            except np.linalg.LinAlgError:
                continue
            if not np.all(np.isfinite(Minv)):
                continue
            lam = slack[:, list(subset)] @ Minv.T  # (N, size)
            ok = (lam >= -1e-12).all(axis=1)
            moved = lam @ Ws  # (N, n)
            newslack = slack - moved @ W.T
            ok &= (newslack <= 1e-9).all(axis=1)
            d2 = np.einsum("ij,ij->i", lam, lam @ M)
            cand = np.where(ok, np.sqrt(np.maximum(d2, 0.0)), np.inf)
            best = np.minimum(best, cand)
    dist[infeasible] = best[infeasible]
    return dist


def constant_concept(dimension: int, value: int) -> Concept:
    """The constant concept ``f = value`` with trivial closed forms; a
    ``dimension`` that is not a whole number >= 1 raises :class:`ValidationError`."""
    dimension = check_dimension(dimension)
    if value not in (-1, 1):
        raise ValidationError(f"value must be +1 or -1, got {value}")
    profile = Profile((1.0,) + (0.0,) * (dimension - 1), (), (float(value),))
    return _ridge(profile, "constant", {"value": int(value), "dimension": dimension})


def ptf(p: HermiteExpansion) -> Concept:
    """Polynomial threshold function ``sign(p(x))`` (ties to +1).

    ``p`` is evaluated in blocks whose stacked table holds ``dimension x
    (largest per-axis degree + 1)`` cells a point; a ``p`` whose one point
    needs more than :data:`mc.BLOCK_CELLS` raises :class:`NodeBudgetError`
    before any evaluation.
    """
    top = max((max(alpha) for alpha in p.terms), default=0)
    cells = p.dimension * (top + 1)
    if cells > BLOCK_CELLS:
        raise NodeBudgetError(
            f"a PTF of dimension {p.dimension} and per-axis degree {top} needs {cells} "
            f"table cells a point, more than the block size of {BLOCK_CELLS}"
        )

    def evaluator(points: np.ndarray) -> np.ndarray:
        return _signs(expansion_eval_batch(p, points) >= 0.0)

    return Concept(
        dimension=p.dimension,
        evaluator=evaluator,
        kind="ptf",
        params={
            "dimension": p.dimension,
            "degree": p.degree_bound,
            "terms": p.to_dict()["terms"],
        },
    )


# ---------------------------------------------------------------------------
# serialization


def concept_to_dict(c: Concept) -> dict:
    return {"kind": c.kind, **c.params}


def concept_from_dict(data: dict) -> Concept:
    """Inverse of :func:`concept_to_dict`; a missing or malformed field raises ValidationError."""
    try:
        kind = data["kind"]
    except (KeyError, TypeError):
        raise ValidationError("concept payload must carry a 'kind' field")
    try:
        if kind == "halfspace":
            return halfspace(data["w"], data["c"])
        if kind == "ball":
            return ball(data["radius"], data["dimension"])
        if kind == "constant":
            return constant_concept(data["dimension"], data["value"])
        if kind == "intersection":
            parts = [halfspace(h["w"], h["c"]) for h in data["halfspaces"]]
            return intersection(parts)
        if kind == "ptf":
            p = HermiteExpansion.from_dict(
                {"dimension": data["dimension"], "terms": data["terms"]}
            )
            return ptf(p)
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"concept kind {kind!r}: missing or malformed field {exc}") from exc
    raise ValidationError(f"unknown concept kind {kind!r}")


def load_concept(path) -> Concept:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: not valid JSON ({exc})") from exc
    return concept_from_dict(data)


# ---------------------------------------------------------------------------
# noise sensitivity


def gns_halfspace_closed_form(delta: float, offset: float = 0.0) -> float:
    """Noise sensitivity of the halfspace ``sign(c - <w, x>)`` with ``c = offset``:
    the one-jump case of :func:`gns_profile_closed_form`,

        GNS_delta = (1 / pi) int_0^{arccos(1 - delta)} exp(-c^2 / (1 + cos t)) dt.

    At ``delta = 1`` the value is ``2 Phi(c) Phi(-c)``, and an infinite ``c``
    leaves no cut: a constant, 0 at every ``delta``.
    """
    if math.isinf(offset):
        return gns_profile_closed_form(delta, (), (1.0,))
    return gns_profile_closed_form(delta, (offset,), (1.0, -1.0))


def gns_profile_closed_form(delta: float, breakpoints, values) -> float:
    """Noise sensitivity of a ridge ``g(<w, x>)`` with a +-1 profile ``g``.

    With the half-jumps ``h_j = (values[j + 1] - values[j]) / 2`` at the
    breakpoints ``t_j``, differentiating ``E g(U) g(V)`` in the correlation
    ``cos t`` of ``(U, V)`` gives the bivariate-normal density at the jumps:

        GNS_delta = (1 / pi) int_0^{arccos(1 - delta)} sum_{j, l} h_j h_l
                    exp(-(t_j^2 - 2 t_j t_l cos t + t_l^2) / (2 sin^2 t)) dt.

    A diagonal term ``exp(-t_j^2 / (1 + cos t))`` is smooth: one 20-point
    Gauss-Legendre panel evaluates it (within a few 1e-15 relative of a
    200-point rule for ``|t_j| <= 8``).  A cross term vanishes to all orders
    at ``t = 0`` and turns on near ``t ~ |t_j - t_l|``, so it is integrated
    adaptively, its exponent written with ``u = sin^2(t / 2)`` as
    ``((t_j - t_l)^2 + 4 t_j t_l u) / (8 u (1 - u))`` to keep its digits.  A
    single jump at the origin gives ``arccos(1 - delta) / pi``.
    """
    delta = check_probability("delta", delta)
    t, v = _check_sign_profile(breakpoints, values)
    jumps = [(a, (y - x) / 2.0) for a, x, y in zip(t, v, v[1:]) if x != y]
    if not jumps:
        return 0.0
    top = math.acos(1.0 - delta)
    if len(jumps) == 1 and jumps[0][0] == 0.0:
        return top / math.pi

    def diagonal(s: np.ndarray) -> np.ndarray:
        return sum(h * h * np.exp(-a * a / (1.0 + np.cos(s))) for a, h in jumps)

    def cross(s: np.ndarray) -> np.ndarray:
        u = np.sin(s / 2.0) ** 2
        return sum(
            2.0 * h * k * np.exp(-((a - b) ** 2 + 4.0 * a * b * u) / (8.0 * u * (1.0 - u)))
            for (a, h), (b, k) in itertools.combinations(jumps, 2)
        )

    total = fixed_panels(diagonal, 0.0, top, 20)
    if len(jumps) > 1 and top > 0.0:
        total += integrate_adaptive(cross, 0.0, top, abs_tol=1e-13)
    return total / math.pi


# the radial series stops once rho^(2J) <= this; since sum_j a_j^2 <= 1 it
# also bounds every term left out
_BALL_SERIES_TAIL = 1e-17


def gns_ball_closed_form(delta: float, radius: float, dimension: int) -> float:
    """Noise sensitivity of the ball ``|x| <= radius`` in ``R^dimension``.

    With ``s = |x|^2 / 2 ~ Gamma(beta)``, ``beta = dimension / 2``, the ball
    is ``2 1[s <= s0] - 1`` for ``s0 = radius^2 / 2``, and the normalised
    Laguerre functions ``l_j(s)`` are eigenfunctions of ``T_rho`` with
    eigenvalue ``rho^(2j)``.  So, with ``rho = 1 - delta``,

        GNS_delta = (1 - a_0^2 - sum_{j >= 1} rho^(2j) a_j^2) / 2,

    where ``a_0 = 2 P(beta, s0) - 1`` (``P`` the regularised lower incomplete
    gamma) and, by ``d/ds[s^beta e^-s L_{j-1}^(beta)] = j s^(beta-1) e^-s
    L_j^(beta-1)``,

        a_j = 2 s0^beta e^-s0 L_{j-1}^(beta)(s0) / (j Gamma(beta) sqrt(h_j)),
        h_j = Gamma(j + beta) / (j! Gamma(beta)).

    ``L^(beta)`` runs by its orthonormal three-term recurrence, started at
    the Gamma(beta + 1) density factor so that no term overflows.  The sum
    stops once ``rho^(2J) <= 1e-17``, about ``20 / delta`` terms; more than
    ``NODE_BUDGET`` terms (``delta`` below about 1e-5) raise
    :class:`NodeBudgetError` before any is summed.  ``delta = 0`` gives 0 and
    ``delta = 1`` gives ``2 P (1 - P)``; arguments :func:`ball` rejects, or a
    ``delta`` outside ``[0, 1]``, raise :class:`ValidationError`.
    """
    delta = check_probability("delta", delta)
    radius = float(radius)
    if not (math.isfinite(radius) and radius > 0):
        raise ValidationError(f"radius must be finite and > 0, got {radius}")
    dimension = check_dimension(dimension)
    if delta == 0.0:
        return 0.0
    rho = 1.0 - delta
    terms = 0
    if rho > 0.0:
        terms = math.ceil(math.log(_BALL_SERIES_TAIL) / (2.0 * math.log(rho)))
        if terms > NODE_BUDGET:
            raise NodeBudgetError(
                f"the ball's GNS series needs {terms} terms at delta = {delta!r}, "
                f"more than the budget of {NODE_BUDGET}"
            )
    beta = dimension / 2.0
    s0 = 0.5 * radius * radius
    upper = _gamma_q(beta, s0)
    total = 4.0 * (1.0 - upper) * upper  # 1 - a_0^2
    # v_k = K l_k(s0) for the orthonormal Laguerre l_k of parameter beta and
    # K = 2 s0^beta e^-s0 / Gamma(beta + 1); then a_j^2 = (beta / j) v_{j-1}^2
    prev = 0.0
    cur = 2.0 * math.exp(beta * math.log(s0) - s0 - math.lgamma(beta + 1.0))
    for j in range(1, terms + 1):
        total -= rho ** (2 * j) * (beta / j) * cur * cur
        k = j - 1
        prev, cur = cur, (
            ((2 * k + 1 + beta - s0) * cur - math.sqrt(k * (k + beta)) * prev)
            / math.sqrt((k + 1) * (k + 1 + beta))
        )
    return 0.5 * total


def _gamma_q(beta: float, s: float) -> float:
    """Regularised upper incomplete gamma ``Q(beta, s)`` for ``beta`` in N/2:
    ``Q(1, s) = e^-s`` or ``Q(1/2, s) = erfc(sqrt(s))``, raised one by one with
    ``Q(a + 1, s) = Q(a, s) + s^a e^-s / Gamma(a + 1)``."""
    if beta == int(beta):
        a, q = 1.0, math.exp(-s)
    else:
        a, q = 0.5, math.erfc(math.sqrt(s))
    while a < beta:
        q += math.exp(a * math.log(s) - s - math.lgamma(a + 1.0))
        a += 1.0
    return q


def gns_mc(c: Concept, delta: float, samples: int, seed: int) -> EstimateWithError:
    """Monte-Carlo estimate of ``P[f(X) != f(Y)]`` for ``(1-delta)``-correlated
    Gaussian pairs, with binomial standard error.  It holds one chunk's ``X``
    and one block of pairs (:func:`_correlated_pair`) at a time."""
    rho = 1.0 - check_probability("delta", delta)

    def hits(rng: np.random.Generator, m: int) -> int:
        pairs = _correlated_pair(rng, m, c.dimension, rho)
        return sum(int(np.count_nonzero(c.batch(x) != c.batch(y))) for x, y in pairs)

    return mc_fraction(hits, samples, seed)


def _correlated_pair(
    rng: np.random.Generator, m: int, n: int, rho: float
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``m`` draws of ``(X, rho X + sqrt(1 - rho^2) Z)`` for independent
    standard Gaussian ``X`` and ``Z`` in ``R^n``, in blocks of
    :func:`mc.block_rows` pairs.  All of ``X`` is drawn first, as one
    ``(m, n)`` draw, then ``Z`` in :func:`mc.normal_blocks`, so the pairs are
    those of one draw of each."""
    x = rng.standard_normal((m, n))
    spread = math.sqrt(max(0.0, 1.0 - rho * rho))
    for start, z in normal_blocks(rng, m, n):
        xb = x[start : start + z.shape[0]]
        z *= spread
        z += rho * xb  # y = rho x + spread z, in z's buffer
        yield xb, z


# ---------------------------------------------------------------------------
# Gaussian surface area


def gsa_mc(
    c: Concept, deltas: Sequence[float], samples: int, seed: int
) -> EstimateWithError:
    """Shell-volume estimate of the Gaussian surface area of ``{f = +1}``.

    For the two smallest ``delta`` the shell mass ``P[0 < dist(X, K) <=
    delta] / delta`` is estimated with common samples; their linear
    (Richardson-style) extrapolation to ``delta -> 0`` is returned, with the
    standard error propagated through the extrapolation.  Deltas so small that
    the extrapolation or its variance leaves the float range raise
    :class:`ValidationError` before any sample is drawn.  A low hit count
    (< 100 in the smallest shell) is flagged in ``note``.  The points are drawn and measured one
    block (:func:`mc.normal_blocks`) at a time, so the pass holds one block
    of points and distances.
    """
    if c.distance_to_set is None:
        raise CapabilityError(
            f"concept kind {c.kind!r} has no distance oracle; gsa_mc needs one"
        )
    ds = [float(d) for d in deltas]
    if not all(math.isfinite(d) and d > 0 for d in ds):
        raise ValidationError(f"deltas must be finite and > 0, got {ds}")
    ds.sort()
    if len(ds) < 2 or len(set(ds)) != len(ds):
        raise ValidationError("need at least two distinct deltas")

    d1, d2 = ds[0], ds[1]
    # line through (d1, p1/d1), (d2, p2/d2) extrapolated to delta = 0; deltas
    # near the bottom of the float range underflow a denominator or overflow
    # a weight or a second-moment weight
    den1, den2 = d1 * (d2 - d1), d2 * (d2 - d1)
    a = d2 / den1 if den1 else math.inf
    b = -d1 / den2 if den2 else math.inf
    if not all(math.isfinite(v) for v in (a, b, a * a, b * b, 2 * a * b)):
        raise ValidationError(
            f"deltas {d1!r} and {d2!r} take the extrapolation out of the float range"
        )

    n = check_samples(samples)
    # only the two smallest shells enter the estimate
    counts = np.zeros(2, dtype=np.int64)
    for rng, m in chunk_rngs(seed, n):
        for _, x in normal_blocks(rng, m, c.dimension):
            dist = np.asarray(c.distance_to_set(x), dtype=np.float64)
            positive = dist > 0.0
            for j, d in enumerate((d1, d2)):
                counts[j] += int(np.count_nonzero(positive & (dist <= d)))

    p = counts / n
    mean = a * p[0] + b * p[1]
    # shells are nested, so E[I1 I2] = p1
    second_moment = a * a * p[0] + b * b * p[1] + 2 * a * b * p[0]
    var = max(0.0, second_moment - mean * mean)
    stderr = math.sqrt(var / n)
    note = None
    if counts[0] < 100:  # shells are nested, so the smallest holds the fewest
        note = f"low shell hit count (min {int(counts[0])}); estimate is imprecise"
    return EstimateWithError(mean, stderr, n, check_seed(seed), note=note)


# ---------------------------------------------------------------------------
# consistency checks


@dataclass(frozen=True)
class NoiseDistanceReport:
    """Two-route check of ``E|f - T_rho f| = 2 GNS_{1 - rho}(f)``.

    ``lhs`` is the mean of ``|f(X) - f(Y)|`` over ``rho``-correlated pairs.
    For a +-1 valued ``f`` it equals ``E|f - T_rho f|``, since
    ``|f - T_rho f| = 1 - f T_rho f``; no ``T_rho f`` is computed.  When
    the concept has a GNS closed form, ``rhs`` is the exact ``2 GNS_{1-rho}``
    (stderr 0, ``samples`` 0, also carried as ``closed_form``), so a closed
    form that disagrees with the sampled side fails :attr:`passed`.
    Otherwise ``rhs`` is twice a :func:`gns_mc` estimate on another stream;
    per sample that is the statistic behind ``lhs``, so the two routes then
    agree whatever the identity or the concept.
    """

    rho: float
    lhs: EstimateWithError
    rhs: EstimateWithError
    closed_form: float | None

    @property
    def combined_stderr(self) -> float:
        return math.hypot(self.lhs.stderr, self.rhs.stderr)

    @property
    def passed(self) -> bool:
        return abs(self.lhs.mean - self.rhs.mean) <= 4.0 * self.combined_stderr


def noise_distance_check(
    c: Concept, rho: float, samples: int, seed: int
) -> NoiseDistanceReport:
    """Sample ``E|f - T_rho f|`` and compare it with ``2 GNS_{1-rho}(f)``,
    exact when the concept has a closed form and sampled otherwise.  A
    sampled side holds one chunk's ``X``, its values and one block of pairs
    (:func:`_correlated_pair`) at a time."""
    rho = validate_noise_level(rho)

    def distance_values(rng: np.random.Generator, m: int) -> np.ndarray:
        pairs = _correlated_pair(rng, m, c.dimension, rho)
        return np.concatenate([np.abs(c.batch(x) - c.batch(y)) for x, y in pairs])

    lhs = mc_mean(distance_values, samples, derive_seed(seed, 0))
    if c.gns_closed_form is not None:
        closed = 2.0 * c.gns_closed_form(1.0 - rho)
        rhs = EstimateWithError(closed, 0.0, 0, check_seed(seed), note="closed form")
        return NoiseDistanceReport(rho, lhs, rhs, closed)
    g = gns_mc(c, 1.0 - rho, samples, derive_seed(seed, 1))
    rhs = EstimateWithError(2.0 * g.mean, 2.0 * g.stderr, g.samples, g.seed)
    return NoiseDistanceReport(rho, lhs, rhs, None)


@dataclass(frozen=True)
class GnsGsaRow:
    rho: float
    gns: EstimateWithError
    bound: float

    @property
    def passed(self) -> bool:
        return self.gns.mean <= self.bound + 4.0 * self.gns.stderr


@dataclass(frozen=True)
class GnsGsaReport:
    """Check of ``GNS_{1-rho}(f) <= sqrt(pi) sqrt(1-rho) GSA(f)`` on a rho grid."""

    gsa: float
    rows: tuple[GnsGsaRow, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)


def gns_gsa_bound_check(
    c: Concept,
    rho_list: Sequence[float],
    samples: int,
    seed: int,
    gsa: float | None = None,
) -> GnsGsaReport:
    """Estimate GNS at each rho and compare against the surface-area bound.

    ``gsa`` overrides the concept's closed form (for example with a trusted
    ``gsa_mc`` value); one of the two must be available.
    """
    if gsa is None:
        gsa = c.gsa_closed_form
    if gsa is None:
        raise CapabilityError("no GSA value available; pass gsa= or use gsa_mc")
    rows = []
    for i, rho in enumerate(rho_list):
        rho = validate_noise_level(rho)
        est = gns_mc(c, 1.0 - rho, samples, derive_seed(seed, i))
        bound = math.sqrt(math.pi) * math.sqrt(1.0 - rho) * gsa
        rows.append(GnsGsaRow(rho, est, bound))
    return GnsGsaReport(float(gsa), tuple(rows))
