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

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    CapabilityError,
    DimensionMismatchError,
    GaussL1Error,
    NodeBudgetError,
    ValidationError,
)
from .hermite import NODE_BUDGET, HermiteExpansion, expansion_eval_batch, gauss_density
from .mc import EstimateWithError, chunk_rngs, mc_fraction, mc_mean, derive_seed, check_seed
from .noise import validate_noise_level
from .quadrature1d import fixed_panels

@dataclass(frozen=True, eq=False)
class Concept:
    """A +/-1 valued function with optional geometric metadata.

    ``evaluator`` maps an ``(N, dimension)`` array to an ``(N,)`` array of
    +/-1 values.  ``distance_to_set`` (when present) maps the same input to
    Euclidean distances to ``K = {f = +1}`` (0 inside).
    """

    dimension: int
    evaluator: Callable[[np.ndarray], np.ndarray]
    kind: str = "custom"
    gsa_closed_form: float | None = None
    gns_closed_form: Callable[[float], float] | None = None
    distance_to_set: Callable[[np.ndarray], np.ndarray] | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.dimension < 1:
            raise ValidationError(f"dimension must be >= 1, got {self.dimension}")

    def batch(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != self.dimension:
            raise DimensionMismatchError(
                f"points shape {points.shape} does not match dimension {self.dimension}"
            )
        return self.evaluator(points)


def eval_concept(c: Concept, x) -> int:
    """Evaluate a concept at a single point, returning +1 or -1."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    return int(c.batch(x[None, :])[0])


# ---------------------------------------------------------------------------
# constructors


def halfspace(w, c: float) -> Concept:
    """``f(x) = sign(c - <w, x>)`` for a unit normal ``w`` (ties to +1)."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 1 or w.size < 1:
        raise ValidationError("w must be a non-empty vector")
    norm = float(np.linalg.norm(w))
    if abs(norm - 1.0) > 1e-12:
        raise ValidationError(f"w must be a unit vector; got |w| = {norm!r}")
    offset = float(c)
    w = w.copy()
    w.setflags(write=False)

    def evaluator(points: np.ndarray) -> np.ndarray:
        return np.where(points @ w <= offset, 1.0, -1.0)

    def distance(points: np.ndarray) -> np.ndarray:
        return np.maximum(0.0, points @ w - offset)

    def gns(delta: float) -> float:
        return gns_halfspace_closed_form(delta, offset)

    return Concept(
        dimension=w.size,
        evaluator=evaluator,
        kind="halfspace",
        gsa_closed_form=gauss_density(offset),
        gns_closed_form=gns,
        distance_to_set=distance,
        params={"w": [float(v) for v in w], "c": offset},
    )


def ball(radius: float, dimension: int) -> Concept:
    """``f(x) = +1`` iff ``|x| <= radius`` (boundary counts as +1)."""
    radius = float(radius)
    if radius <= 0:
        raise ValidationError(f"radius must be > 0, got {radius}")
    if int(dimension) != dimension or dimension < 1:
        raise ValidationError(f"dimension must be an integer >= 1, got {dimension}")
    dimension = int(dimension)

    def evaluator(points: np.ndarray) -> np.ndarray:
        return np.where(_row_norms(points) <= radius, 1.0, -1.0)

    def distance(points: np.ndarray) -> np.ndarray:
        return np.maximum(0.0, _row_norms(points) - radius)

    def gns(delta: float) -> float:
        return gns_ball_closed_form(delta, radius, dimension)

    # sphere area x Gaussian density at radius r
    gsa = (
        radius ** (dimension - 1)
        * math.exp(-0.5 * radius * radius)
        * 2.0 ** (1.0 - dimension / 2.0)
        / math.gamma(dimension / 2.0)
    )
    return Concept(
        dimension=dimension,
        evaluator=evaluator,
        kind="ball",
        gsa_closed_form=gsa,
        gns_closed_form=gns,
        distance_to_set=distance,
        params={"radius": radius, "dimension": dimension},
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

    An exact distance oracle (projection onto the polyhedron by active-set
    enumeration) is attached for up to 10 faces.
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

    def evaluator(points: np.ndarray) -> np.ndarray:
        # column by column: numpy's all() over the short length-k axis
        # costs far more than k elementwise passes over the rows
        proj = points @ W.T
        inside = proj[:, 0] <= cvec[0]
        for j in range(1, cvec.size):
            inside &= proj[:, j] <= cvec[j]
        return np.where(inside, 1.0, -1.0)

    distance = None
    if len(halfspaces) <= _MAX_INTERSECTION_FACES:
        def distance(points: np.ndarray) -> np.ndarray:
            return _polyhedron_distance(W, cvec, points)

    return Concept(
        dimension=n,
        evaluator=evaluator,
        kind="intersection",
        distance_to_set=distance,
        params={"halfspaces": [{"w": h.params["w"], "c": h.params["c"]} for h in halfspaces]},
    )


def _polyhedron_distance(W: np.ndarray, cvec: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Exact distance to ``{x : W x <= c}`` by KKT active-set enumeration.

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
    if np.any(np.isinf(best[infeasible])):
        raise GaussL1Error("polyhedron projection failed (degenerate face set)")
    dist[infeasible] = best[infeasible]
    return dist


def constant_concept(dimension: int, value: int) -> Concept:
    """The constant concept ``f = value`` with trivial closed forms."""
    if value not in (-1, 1):
        raise ValidationError(f"value must be +1 or -1, got {value}")

    def evaluator(points: np.ndarray) -> np.ndarray:
        return np.full(points.shape[0], float(value))

    def distance(points: np.ndarray) -> np.ndarray:
        fill = 0.0 if value == 1 else np.inf
        return np.full(points.shape[0], fill)

    return Concept(
        dimension=int(dimension),
        evaluator=evaluator,
        kind="constant",
        gsa_closed_form=0.0,
        gns_closed_form=lambda delta: 0.0,
        distance_to_set=distance,
        params={"value": int(value), "dimension": int(dimension)},
    )


def ptf(p: HermiteExpansion) -> Concept:
    """Polynomial threshold function ``sign(p(x))`` (ties to +1)."""

    def evaluator(points: np.ndarray) -> np.ndarray:
        return np.where(expansion_eval_batch(p, points) >= 0.0, 1.0, -1.0)

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
    except KeyError as exc:
        raise ValidationError(f"concept kind {kind!r} is missing field {exc}") from exc
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


def _check_delta(delta: float) -> float:
    delta = float(delta)
    if not (math.isfinite(delta) and 0.0 <= delta <= 1.0):
        raise ValidationError(f"delta must lie in [0, 1], got {delta}")
    return delta


def gns_halfspace_closed_form(delta: float, offset: float = 0.0) -> float:
    """Noise sensitivity of the halfspace ``sign(c - <w, x>)`` with ``c = offset``:

        GNS_delta = (1 / pi) int_0^{arccos(1 - delta)} exp(-c^2 / (1 + cos t)) dt.

    Through the origin this is ``arccos(1 - delta) / pi``, returned as such;
    otherwise one 20-point Gauss-Legendre panel evaluates the smooth
    integrand (within a few 1e-15 relative of a 200-point rule for
    ``|c| <= 8``).  At ``delta = 1`` the value is ``2 Phi(c) Phi(-c)``.
    """
    delta = _check_delta(delta)
    top = math.acos(1.0 - delta)
    offset = float(offset)
    if offset == 0.0:
        return top / math.pi
    c2 = offset * offset

    def integrand(t: np.ndarray) -> np.ndarray:
        return np.exp(-c2 / (1.0 + np.cos(t)))

    return fixed_panels(integrand, 0.0, top, 20) / math.pi


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
    ``delta = 1`` gives ``2 P (1 - P)``.
    """
    delta = _check_delta(delta)
    radius = float(radius)
    if not (math.isfinite(radius) and radius > 0):
        raise ValidationError(f"radius must be > 0, got {radius}")
    if int(dimension) != dimension or dimension < 1:
        raise ValidationError(f"dimension must be an integer >= 1, got {dimension}")
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
    Gaussian pairs, with binomial standard error."""
    delta = _check_delta(delta)
    rho = 1.0 - delta
    spread = math.sqrt(max(0.0, 1.0 - rho * rho))

    def hits(rng: np.random.Generator, m: int) -> int:
        x = rng.standard_normal((m, c.dimension))
        z = rng.standard_normal((m, c.dimension))
        y = rho * x + spread * z
        return int(np.count_nonzero(c.batch(x) != c.batch(y)))

    return mc_fraction(hits, samples, seed)


# ---------------------------------------------------------------------------
# Gaussian surface area


def gsa_mc(
    c: Concept, deltas: Sequence[float], samples: int, seed: int
) -> EstimateWithError:
    """Shell-volume estimate of the Gaussian surface area of ``{f = +1}``.

    For each ``delta`` the shell mass ``P[0 < dist(X, K) <= delta] / delta``
    is estimated with common samples; a linear (Richardson-style)
    extrapolation of the two smallest deltas to ``delta -> 0`` is returned,
    with the standard error propagated through the extrapolation.  A low hit
    count (< 100 in the smallest shell) is flagged in ``note``.
    """
    if c.distance_to_set is None:
        raise CapabilityError(
            f"concept kind {c.kind!r} has no distance oracle; gsa_mc needs one"
        )
    ds = sorted(float(d) for d in deltas)
    if len(ds) < 2 or len(set(ds)) != len(ds):
        raise ValidationError("need at least two distinct deltas")
    if ds[0] <= 0:
        raise ValidationError("deltas must be positive")

    counts = np.zeros(len(ds), dtype=np.int64)
    n = 0

    for rng, m in chunk_rngs(seed, int(samples)):
        x = rng.standard_normal((m, c.dimension))
        dist = np.asarray(c.distance_to_set(x), dtype=np.float64)
        positive = dist > 0.0
        for j, d in enumerate(ds):
            counts[j] += int(np.count_nonzero(positive & (dist <= d)))
        n += m
    if n < 2:
        raise ValidationError("samples must be >= 2")

    d1, d2 = ds[0], ds[1]
    p = counts / n
    # line through (d1, p1/d1), (d2, p2/d2) extrapolated to delta = 0
    a = d2 / (d1 * (d2 - d1))
    b = -d1 / (d2 * (d2 - d1))
    mean = a * p[0] + b * p[1]
    # shells are nested, so E[I1 I2] = p1
    second_moment = a * a * p[0] + b * b * p[1] + 2 * a * b * p[0]
    var = max(0.0, second_moment - mean * mean)
    stderr = math.sqrt(var / n)
    note = None
    if counts.min() < 100:
        note = f"low shell hit count (min {int(counts.min())}); estimate is imprecise"
    return EstimateWithError(mean, stderr, n, check_seed(seed), note=note)


# ---------------------------------------------------------------------------
# consistency checks


@dataclass(frozen=True)
class NoiseDistanceReport:
    """Two-route check of ``E|f - T_rho f| = 2 GNS_{1 - rho}(f)``.

    ``lhs`` samples the smoothing distance directly; ``rhs`` is twice an
    independent sensitivity estimate.  ``closed_form`` carries
    ``2 GNS_{1-rho}`` when the concept has a closed form.
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

    def to_dict(self) -> dict:
        return {
            "rho": self.rho,
            "lhs": self.lhs.to_dict(),
            "rhs": self.rhs.to_dict(),
            "closed_form": self.closed_form,
            "combined_stderr": self.combined_stderr,
            "pass": self.passed,
        }


def noise_distance_check(
    c: Concept, rho: float, samples: int, seed: int
) -> NoiseDistanceReport:
    """Sample both sides of the smoothing-distance identity."""
    rho = validate_noise_level(rho)
    spread = math.sqrt(max(0.0, 1.0 - rho * rho))

    def distance_values(rng: np.random.Generator, m: int) -> np.ndarray:
        x = rng.standard_normal((m, c.dimension))
        z = rng.standard_normal((m, c.dimension))
        y = rho * x + spread * z
        return np.abs(c.batch(x) - c.batch(y))

    lhs = mc_mean(distance_values, int(samples), derive_seed(seed, 0))
    g = gns_mc(c, 1.0 - rho, int(samples), derive_seed(seed, 1))
    rhs = EstimateWithError(2.0 * g.mean, 2.0 * g.stderr, g.samples, g.seed)
    closed = None
    if c.gns_closed_form is not None:
        closed = 2.0 * c.gns_closed_form(1.0 - rho)
    return NoiseDistanceReport(rho, lhs, rhs, closed)


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

    def to_dict(self) -> dict:
        return {
            "gsa": self.gsa,
            "pass": self.passed,
            "rows": [
                {
                    "rho": r.rho,
                    "gns": r.gns.to_dict(),
                    "bound": r.bound,
                    "pass": r.passed,
                }
                for r in self.rows
            ],
        }


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
        est = gns_mc(c, 1.0 - rho, int(samples), derive_seed(seed, i))
        bound = math.sqrt(math.pi) * math.sqrt(1.0 - rho) * gsa
        rows.append(GnsGsaRow(rho, est, bound))
    return GnsGsaReport(float(gsa), tuple(rows))
