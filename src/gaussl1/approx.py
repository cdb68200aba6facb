"""Low-degree L1 approximation of concepts by smoothing and truncation.

Given a target accuracy ``epsilon`` and a surface-area budget ``gamma`` the
plan picks a noise level and degree

    rho = max(0, 1 - epsilon^2 / (16 pi gamma^2)),
    d   = max(0, ceil(16 pi gamma^2 ln(2 / epsilon) / epsilon^2 - 1)),

and the approximating polynomial is the degree-``d`` truncation of the
smoothed concept, ``p = (T_rho f)_{<= d}``.  Its Gaussian L1 error obeys

    E|f - p| <= 2 GNS_{1 - rho}(f) + rho^{d + 1},

which with the surface-area bound on GNS yields error <= epsilon whenever
``GSA(f) <= gamma``.  The module provides the plan, several coefficient
estimators (exact for ridge concepts with a piecewise-constant profile,
tensor quadrature, Monte Carlo), the construction itself, L1/L2
error measurement, and a bound check that ties everything together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .errors import CapabilityError, NodeBudgetError, ToleranceError, ValidationError
from .concepts import Concept, gns_mc, halfspace, profile_expansion
from .concepts import profile_coefficients  # noqa: F401  (approx.profile_coefficients stays)
from .hermite import (
    GAUSS_CUTOFF,
    MC_CHUNK_CELLS,
    NODE_BUDGET,
    HermiteExpansion,
    MultiIndex,
    basis_sums,
    expansion,
    expansion_eval_batch,
    gauss_density,
    gauss_hermite_products,
    gauss_hermite_slabs,
    hermite_upto,
    multi_indices_upto,
)
from .mc import (
    CHUNK_SIZE,
    EstimateWithError,
    Moments,
    check_integer,
    check_samples,
    check_seed,
    chunk_rngs,
    derive_seed,
    mc_means,
    normal_blocks,
)
from .noise import validate_noise_level
from .quadrature1d import integrate_adaptive


@dataclass(frozen=True)
class ApproximationPlan:
    """Accuracy target and the derived smoothing/truncation parameters."""

    epsilon: float
    gamma: float
    rho: float
    degree: int

    def to_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "gamma": self.gamma,
            "rho": self.rho,
            "degree": self.degree,
        }


def plan(epsilon: float, gamma: float) -> ApproximationPlan:
    """Choose the noise level and degree for a surface-area budget ``gamma``;
    an ``epsilon^2`` that underflows, or a ``16 pi gamma^2`` or degree outside
    the float range, raises :class:`ValidationError`."""
    epsilon = float(epsilon)
    gamma = float(gamma)
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ValidationError(f"epsilon must be positive, got {epsilon}")
    if not (math.isfinite(gamma) and gamma >= 0.0):
        raise ValidationError(f"gamma must be >= 0, got {gamma}")
    if gamma == 0.0:
        return ApproximationPlan(epsilon, gamma, 0.0, 0)
    scale, square = 16.0 * math.pi * gamma * gamma, epsilon * epsilon
    degree = scale * math.log(2.0 / epsilon) / square - 1.0 if square > 0.0 else math.inf
    if not (0.0 < scale < math.inf and math.isfinite(degree)):
        raise ValidationError(
            f"epsilon = {epsilon!r} and gamma = {gamma!r} take the plan out of the float range"
        )
    rho = max(0.0, 1.0 - square / scale)
    return ApproximationPlan(epsilon, gamma, rho, max(0, math.ceil(degree)))


# ---------------------------------------------------------------------------
# coefficient estimation


def halfspace_expansion(w, c: float, degree: int) -> HermiteExpansion:
    """Exact Hermite coefficients of ``sign(c - <w, x>)`` up to ``degree``:
    the one-jump profile ``sign(c - u)`` lifted along the unit normal ``w``."""
    return profile_expansion(halfspace(w, c).profile, degree)


@dataclass(frozen=True)
class CoefficientEstimate:
    """Estimated coefficients ``<f, H_alpha>`` for all ``|alpha| <= degree``.

    ``stderr`` is the per-coefficient standard error sidecar for the
    Monte-Carlo method and ``None`` for deterministic methods.  The estimate
    is complete through ``degree``: absent terms are genuine (within-method)
    zeros, not unexplored coordinates.  A deterministic estimate whose
    squared coefficients sum past ``1 + 1e-9`` raises :class:`ToleranceError`.
    """

    expansion: HermiteExpansion
    degree: int
    method: str
    budget: int
    seed: int | None = None
    stderr: dict[MultiIndex, float] | None = None

    def __post_init__(self):
        # Parseval: every concept is +-1, so E f^2 = 1 bounds the coefficient
        # mass.  Monte-Carlo means are exempt: their mass is biased up by
        # sum stderr^2.
        if self.stderr is None:
            mass = math.fsum(v * v for v in self.expansion.terms.values())
            if mass > 1.0 + 1e-9:
                raise ToleranceError(
                    f"{self.method} coefficients have mass {mass:.6g} > 1 = E f^2 (Parseval)"
                )


def estimate_coefficients(
    c: Concept,
    degree: int,
    method: str = "quadrature",
    budget: int | None = None,
    seed: int | None = None,
) -> CoefficientEstimate:
    """Estimate all coefficients of ``c`` up to total degree ``degree``.

    ``method="quadrature"`` uses a tensorized Gauss-Hermite rule with
    ``budget > degree`` points per axis (default 400; dimensions above 3 are
    rejected -- the tensor grid would be astronomically large; a rule past
    ``NODE_BUDGET`` raises :class:`NodeBudgetError` before ``f`` is
    evaluated).  ``f`` is evaluated on one slab of the grid at a time
    (:func:`gauss_hermite_slabs`), so the pass holds the ``m^n`` value tensor
    plus one slab, not the ``m^n x n`` grid.
    ``method="monte_carlo"`` averages ``f(X) H_alpha(X)`` over ``budget``
    common samples (default 10^6) and records per-coefficient stderr.  Each
    chunk of samples is summed by :func:`basis_sums`, which holds one block
    of points whatever the samples and coefficients; a chunk of more than
    ``MC_CHUNK_CELLS`` cells of work (chunk samples x coefficients) raises
    :class:`NodeBudgetError` before any is done.
    A budget or ``degree`` that is not an integer raises :class:`ValidationError`.
    """
    degree = check_integer("degree", degree, 0)
    if method == "quadrature":
        m = 400 if budget is None else check_integer("quadrature budget", budget, 1)
        if degree >= m:  # H_m vanishes at every node of the m-point rule
            raise ValidationError(f"degree {degree} needs more than {m} quadrature points per axis")
        if c.dimension > 3:
            raise CapabilityError(
                "tensor quadrature is limited to dimension <= 3; use monte_carlo"
            )
        return _coefficients_quadrature(c, degree, m)
    if method == "monte_carlo":
        n_samples = 10**6 if budget is None else budget
        if seed is None:
            raise ValidationError("monte_carlo coefficient estimation needs a seed")
        return _coefficients_mc(c, degree, n_samples, seed)
    raise ValidationError(f"unknown method {method!r}")


def _coefficients_quadrature(c: Concept, degree: int, m: int) -> CoefficientEstimate:
    n = c.dimension
    slabs = gauss_hermite_slabs(m, n)  # the node budget is checked before f is evaluated
    # per-axis contraction matrices B[k, i] = w_i H_k(x_i)
    B = gauss_hermite_products(m, degree)
    # f at node (i_0, i_1, ...) goes to values[(i_1, ...), i_0]: the first
    # tensordot moves axis i_0 last, which then is this array itself, not a
    # copy of the m^n tensor
    values = np.empty((m ** (n - 1), m))
    start = 0
    for slab in slabs:
        f_slab = np.asarray(c.batch(slab), dtype=np.float64).reshape(-1, m ** (n - 1))
        values[:, start : start + f_slab.shape[0]] = f_slab.T
        start += f_slab.shape[0]
    tensor = values.T.reshape((m,) * n)
    for _ in range(n):
        tensor = np.tensordot(tensor, B, axes=([0], [1]))
    terms = {a: tensor[a] for a in multi_indices_upto(n, degree)}
    return CoefficientEstimate(expansion(n, terms), degree, "quadrature", m)


def _coefficients_mc(
    c: Concept, degree: int, samples: int, seed: int
) -> CoefficientEstimate:
    samples = check_samples(samples)
    alphas = multi_indices_upto(c.dimension, degree)
    cells = min(samples, CHUNK_SIZE) * len(alphas)
    if cells > MC_CHUNK_CELLS:
        raise NodeBudgetError(
            f"one Monte-Carlo chunk of {min(samples, CHUNK_SIZE)} samples x {len(alphas)} "
            f"coefficients needs {cells} cells, more than the budget of {MC_CHUNK_CELLS}"
        )
    moments = Moments()
    for rng, m in chunk_rngs(seed, samples):
        x = rng.standard_normal((m, c.dimension))
        sums, sumsq = basis_sums(x, alphas, c.batch(x))
        mean = sums / m
        # m2 = sumsq - m mean^2, which rounding can take below 0; a constant
        # f = +-1 sums its degree-0 term exactly, so that m2 is exactly 0
        moments.merge(m, mean, np.maximum(sumsq - m * mean * mean, 0.0))
    stderr = {a: float(s) for a, s in zip(alphas, moments.stderr())}
    p = expansion(c.dimension, zip(alphas, moments.mean))
    return CoefficientEstimate(p, degree, "monte_carlo", samples, check_seed(seed), stderr)


# ---------------------------------------------------------------------------
# construction and error measurement


def build(
    fhat: HermiteExpansion,
    aplan: ApproximationPlan,
    complete_through: int | None = None,
) -> HermiteExpansion:
    """Form ``p = (T_rho fhat)_{<= degree}`` from estimated coefficients.

    ``fhat`` must be known complete through the plan degree; canonical
    expansions drop exact zeros, so callers whose estimate genuinely covered
    all terms declare it via ``complete_through``, an integer >= 0.
    """
    rho = validate_noise_level(aplan.rho)
    if complete_through is None:
        known = fhat.degree_bound
    else:
        known = check_integer("complete_through", complete_through, 0)
    if known < aplan.degree:
        raise ValidationError(
            f"coefficients known only through degree {known}, plan needs {aplan.degree}"
        )
    degree = check_integer("degree", aplan.degree, 0)
    kept = {a: c * rho**k for a, c in fhat.terms.items() if (k := sum(a)) <= degree}
    return expansion(fhat.dimension, kept)


def l1_error(c: Concept, p: HermiteExpansion, samples: int, seed: int) -> EstimateWithError:
    """Monte-Carlo estimate of ``E|f(X) - p(X)|``."""
    return _mc_errors(c, _p_values(c, p), samples, seed)[0]


def l2_error(c: Concept, p: HermiteExpansion, samples: int, seed: int) -> EstimateWithError:
    """Monte-Carlo estimate of ``E[(f - p)^2]^(1/2)`` (delta-method stderr)."""
    return _mc_errors(c, _p_values(c, p), samples, seed)[1]


def _mc_errors(
    c: Concept, p_values: Callable[[np.ndarray], np.ndarray], samples: int, seed: int
) -> tuple[EstimateWithError, EstimateWithError]:
    # L1 and L2 error from one pass: each chunk's f - p gives both moments,
    # with p's values at (block, dimension) points from p_values; a chunk is
    # drawn and evaluated one block at a time, so the pass holds one block of
    # points and the chunk's two value arrays

    def values(rng: np.random.Generator, m: int) -> tuple[np.ndarray, np.ndarray]:
        l1, sq = np.empty(m), np.empty(m)
        for start, x in normal_blocks(rng, m, c.dimension):
            diff = c.batch(x) - p_values(x)
            np.abs(diff, out=l1[start : start + x.shape[0]])
            np.square(diff, out=sq[start : start + x.shape[0]])
        return l1, sq

    l1, msq = mc_means(values, samples, seed)
    root = math.sqrt(max(0.0, msq.mean))
    stderr = msq.stderr / (2.0 * root) if root > 0 else 0.0
    return l1, EstimateWithError(root, stderr, msq.samples, msq.seed)


def _p_values(c: Concept, p: HermiteExpansion) -> Callable[[np.ndarray], np.ndarray]:
    # p's values at points of c's dimension, which must be p's
    if c.dimension != p.dimension:
        raise ValidationError(
            f"concept dimension {c.dimension} != polynomial dimension {p.dimension}"
        )
    return partial(expansion_eval_batch, p)


L1_QUAD_TOL = 1e-6  # absolute tolerance of the dense-quadrature L1 error pass


def l1_error_quad_1d(
    c: Concept,
    p: HermiteExpansion,
    breakpoints: Sequence[float] | None = None,
    abs_tol: float = L1_QUAD_TOL,
) -> float:
    """Dense-quadrature Gaussian L1 error ``E|f - p|`` for one-dimensional concepts.

    The integral straddles the concept's discontinuities (its profile's
    :meth:`Profile.cuts`, or else ``breakpoints`` supplied by the caller) and is cut
    at ``|x| = GAUSS_CUTOFF``, where ``|f - p| phi`` is negligible.  A first
    sweep past its work budget (:func:`_quad_pieces`) raises
    :class:`NodeBudgetError` before ``f`` or ``p`` is evaluated.
    """
    p_values = _p_values(c, p)
    if c.dimension != 1:
        raise ValidationError("quadrature error path applies to dimension 1 only")
    if breakpoints is None:
        if c.profile is None:
            raise CapabilityError("no profile gives the discontinuities; pass breakpoints")
        breakpoints = c.profile.cuts()
    breakpoints = list(breakpoints)
    pieces = _quad_pieces(p.degree_bound, breakpoints)

    def integrand(x: np.ndarray) -> np.ndarray:
        return np.abs(c.batch(x[:, None]) - p_values(x[:, None])) * gauss_density(x)

    return integrate_adaptive(
        integrand, -GAUSS_CUTOFF, GAUSS_CUTOFF,
        abs_tol=abs_tol, breakpoints=breakpoints, initial_intervals=pieces,
    )


def _quad_pieces(degree: int, breakpoints: list[float]) -> int:
    # initial pieces per seed interval of the L1 quadrature of a degree-`degree`
    # p; a first sweep of more than MC_CHUNK_CELLS cells (seed intervals x
    # pieces x 31 nodes x (degree + 1) Hermite values) raises NodeBudgetError
    pieces = max(8, int(math.ceil(2 * GAUSS_CUTOFF * math.sqrt(degree + 1) / math.pi)))
    seeds = 1 + len({float(t) for t in breakpoints if -GAUSS_CUTOFF < float(t) < GAUSS_CUTOFF})
    cells = seeds * pieces * 31 * (degree + 1)
    if cells > MC_CHUNK_CELLS:
        raise NodeBudgetError(f"the L1 quadrature of a degree-{degree} polynomial needs {cells} "
                              f"cells in its first sweep, more than the budget of {MC_CHUNK_CELLS}")
    return pieces


# ---------------------------------------------------------------------------
# the bound check


_SUP_GRID = np.linspace(-4.0, 4.0, 41)


def _coefficient_slack(est: CoefficientEstimate) -> float:
    """Worst-case pointwise wobble of the built polynomial from coefficient
    noise: ``sum_alpha stderr(c_alpha) sup_grid |H_alpha|`` on ``[-4, 4]^n``."""
    if est.stderr is None:
        return 0.0
    table = np.abs(hermite_upto(est.degree, _SUP_GRID)).max(axis=1)
    total = 0.0
    for alpha, se in est.stderr.items():
        sup = 1.0
        for a in alpha:
            sup *= float(table[a])
        total += abs(se) * sup
    return total


@dataclass(frozen=True)
class ApproxReport:
    """Measured error of the construction against its proved budget.

    ``bound = gns_term + tail_term`` where ``gns_term`` is twice the noise
    sensitivity at ``delta = 1 - rho`` and ``tail_term = rho^(degree + 1)``.
    The verdict is ``pass`` when the measured L1 error is within the bound
    plus the sampling allowance (four combined stderrs of the measured L1
    and ``gns_term``).  ``slack``, the worst-case wobble of ``p`` from
    Monte-Carlo coefficient noise, is a diagnostic: an error past the
    allowance but within ``slack`` of it is ``inconclusive``, and anything
    else ``fail``.  Only ``pass`` counts as :attr:`passed`.
    """

    plan: ApproximationPlan
    coeff_method: str
    error_method: str
    measured_l1: EstimateWithError
    measured_l2: EstimateWithError
    gns_term: float
    gns_stderr: float
    tail_term: float
    slack: float
    seed: int

    @property
    def bound(self) -> float:
        return self.gns_term + self.tail_term

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    @property
    def verdict(self) -> str:
        allowance = 4.0 * math.hypot(self.measured_l1.stderr, 2.0 * self.gns_stderr)
        if self.measured_l1.mean <= self.bound + allowance:
            return "pass"
        if self.measured_l1.mean <= self.bound + allowance + self.slack:
            return "inconclusive"
        return "fail"

    def to_dict(self) -> dict:
        return {
            "plan": self.plan.to_dict(),
            "coeff_method": self.coeff_method,
            "error_method": self.error_method,
            "measured_l1": self.measured_l1.to_dict(),
            "measured_l2": self.measured_l2.to_dict(),
            "gns_term": self.gns_term,
            "gns_stderr": self.gns_stderr,
            "tail_term": self.tail_term,
            "bound": self.bound,
            "slack": self.slack,
            "seed": self.seed,
            "pass": self.passed,
            "verdict": self.verdict,
        }


def bound_check(
    c: Concept,
    aplan: ApproximationPlan,
    coeff_budget: int | None = None,
    error_budget: int = 10**6,
    seed: int = 0,
) -> ApproxReport:
    """Build ``p = (T_rho f)_{<=d}`` and test its L1 error against the bound.

    A concept with a ridge profile ``f = g(<w, x>)`` has exact coefficients:
    since smoothing and truncation commute with rotations, ``p = q(<w, x>)``
    where ``q = (T_rho g)_{<=d}`` is built in one dimension from
    :meth:`Profile.coefficients`, in any dimension (:func:`profile_expansion`
    is the n-D export of the same coefficients).  Other concepts take tensor
    quadrature up to dimension 3 and Monte Carlo beyond (whose
    coefficient-noise ``slack`` can make the verdict ``inconclusive``).
    A ridge's L1 error, 1-D included, is the integral of ``|g(u) - q(u)|``
    against ``u ~ N(0, 1)`` on its :meth:`Profile.reduced` line
    (:func:`l1_error_quad_1d`, stderr ``L1_QUAD_TOL``), and its L2 error is
    exact by Parseval, ``||f - p||^2 = 1 - 2 <f, p> + ||p||^2`` (stderr 0).
    So a ridge's report draws no samples and depends only on the profile; a
    plan degree past the L1 quadrature's work budget raises
    :class:`NodeBudgetError` before any coefficient is computed.  Otherwise
    one Monte-Carlo pass of ``error_budget`` samples gives both the L1 and
    the L2 error, drawing and evaluating one block of points
    (:func:`mc.normal_blocks`) at a time, so it holds one block and a chunk's
    two value arrays, whatever the dimension.  GNS is the
    concept's closed form when present (every halfspace, ball and 1-D
    intersection has one; ``dataclasses.replace(c, gns_closed_form=...)``
    supplies another), whose value outside ``[0, 1/2]`` raises
    :class:`ValidationError`, or else a Monte-Carlo estimate.
    A non-integral or smaller than 2 ``error_budget``, or a ``coeff_budget``
    that is neither ``None`` nor an integer >= 1, raises
    :class:`ValidationError` on every route.
    """
    seed = check_seed(seed)
    check_samples(error_budget)
    if coeff_budget is not None:
        check_integer("coeff_budget", coeff_budget, 1)
    validate_noise_level(aplan.rho)
    delta = 1.0 - aplan.rho

    if c.gns_closed_form is not None:
        gns, gns_stderr = c.gns_closed_form(delta), 0.0
        if not 0.0 <= gns <= 0.5:  # GNS at delta <= 1 lies in [0, 1/2]; NaN fails too
            raise ValidationError(f"the GNS closed form must lie in [0, 1/2], got {gns!r}")
    else:
        g = gns_mc(c, delta, error_budget, derive_seed(seed, 2))
        gns, gns_stderr = g.mean, g.stderr

    ridge = c.profile
    if ridge is not None:  # p is built as the profile's 1-D q, standing for q(<w, x>)
        line = ridge.reduced()
        cuts = line.profile.cuts()
        # a plan past the L1 quadrature's budget is refused before its coefficients
        # are made; one past NODE_BUDGET is refused by the coefficients themselves.
        # A profile without cuts is constant, so its p has degree 0 at any plan
        if cuts and aplan.degree < NODE_BUDGET:
            _quad_pieces(aplan.degree, cuts)
        est = CoefficientEstimate(ridge.coefficients(aplan.degree), aplan.degree, "exact", 0)
    elif c.dimension <= 3:
        est = estimate_coefficients(c, aplan.degree, "quadrature", coeff_budget)
    else:
        est = estimate_coefficients(
            c, aplan.degree, "monte_carlo", coeff_budget, derive_seed(seed, 1)
        )
    p = build(est.expansion, aplan, complete_through=est.degree)
    if ridge is not None:
        # |g(<w, x>) - q(<w, x>)| has the law of |g(u) - q(u)|, u ~ N(0, 1)
        l1 = l1_error_quad_1d(line, p)
        measured_l1 = EstimateWithError(l1, L1_QUAD_TOL, 0, seed, note="quadrature")
        # Parseval, E f^2 = 1: ||f - p||^2 = 1 - 2 <f, p> + ||p||^2 in exact coefficients
        cross = [-2.0 * est.expansion.terms.get(a, 0.0) * v for a, v in p.terms.items()]
        msq = math.fsum([1.0, *cross, *(v * v for v in p.terms.values())])
        measured_l2 = EstimateWithError(math.sqrt(max(0.0, msq)), 0.0, 0, seed, note="exact")
        error_method = "quadrature"
    else:
        p_values = _p_values(c, p)
        measured_l1, measured_l2 = _mc_errors(c, p_values, error_budget, derive_seed(seed, 3))
        error_method = "monte_carlo"

    return ApproxReport(
        plan=aplan,
        coeff_method=est.method,
        error_method=error_method,
        measured_l1=measured_l1,
        measured_l2=measured_l2,
        gns_term=2.0 * gns,
        gns_stderr=gns_stderr,
        tail_term=aplan.rho ** (aplan.degree + 1),
        slack=_coefficient_slack(est),
        seed=seed,
    )
