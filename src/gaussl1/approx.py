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
estimators (exact closed forms for 1-D piecewise-constant profiles and for
halfspaces, tensor quadrature, Monte Carlo), the construction itself, L1/L2
error measurement, and a bound check that ties everything together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import CapabilityError, NodeBudgetError, ToleranceError, ValidationError
from .concepts import Concept, gns_mc
from .hermite import (
    GAUSS_CUTOFF,
    HermiteExpansion,
    MultiIndex,
    basis_matrix,
    expansion,
    expansion_eval_batch,
    gauss_density,
    gauss_hermite_nodes,
    gauss_hermite_products,
    hermite_upto,
    multi_indices_upto,
    truncate,
)
from .mc import CHUNK_SIZE, EstimateWithError, chunk_rngs, derive_seed, mc_means, check_seed
from .noise import apply_to_expansion, validate_noise_level
from .quadrature1d import integrate_adaptive


# cells of the (chunk x coefficients) float64 buffer one Monte-Carlo
# coefficient chunk may hold: 2^27 cells, 1 GiB
MC_CHUNK_CELLS = 1 << 27


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
    """Choose the noise level and degree for a surface-area budget ``gamma``."""
    epsilon = float(epsilon)
    gamma = float(gamma)
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ValidationError(f"epsilon must be positive, got {epsilon}")
    if not (math.isfinite(gamma) and gamma >= 0.0):
        raise ValidationError(f"gamma must be >= 0, got {gamma}")
    if gamma == 0.0:
        return ApproximationPlan(epsilon, gamma, 0.0, 0)
    scale = 16.0 * math.pi * gamma * gamma
    rho = max(0.0, 1.0 - epsilon * epsilon / scale)
    degree = max(0, math.ceil(scale * math.log(2.0 / epsilon) / (epsilon * epsilon) - 1.0))
    return ApproximationPlan(epsilon, gamma, rho, degree)


# ---------------------------------------------------------------------------
# coefficient estimation


def profile_coefficients(breakpoints, values, degree: int) -> np.ndarray:
    """Exact ``<g, H_k>`` for ``k <= degree`` of a piecewise-constant profile.

    ``g`` equals ``values[i]`` between ``breakpoints[i - 1]`` and
    ``breakpoints[i]``, the outer pieces running to -inf and +inf.  With the
    jump ``J_j = values[j + 1] - values[j]`` at ``t_j``, integrating by parts
    against ``H_k phi = -(H_{k-1} phi)' / sqrt(k)`` gives
    ``<g, H_k> = sum_j J_j H_{k-1}(t_j) phi(t_j) / sqrt(k)`` for ``k >= 1``, and
    ``<g, H_0> = (values[0] + values[-1]) / 2 - sum_j J_j erf(t_j / sqrt 2) / 2``.
    """
    t = [float(b) for b in breakpoints]
    v = [float(a) for a in values]
    if degree < 0:
        raise ValidationError(f"degree must be >= 0, got {degree}")
    if len(v) != len(t) + 1 or not all(map(math.isfinite, t + v)) or sorted(set(t)) != t:
        raise ValidationError(f"need finite increasing breakpoints and one value more: {t}, {v}")
    jumps = [b - a for a, b in zip(v, v[1:])]
    g = np.zeros(degree + 1)
    steps = sum(J * math.erf(a / math.sqrt(2.0)) / 2.0 for J, a in zip(jumps, t))
    g[0] = (v[0] + v[-1]) / 2.0 - steps
    if degree and t:
        terms = np.array(jumps) * hermite_upto(degree - 1, np.array(t))
        terms *= [gauss_density(a) for a in t]
        g[1:] = (terms / np.sqrt(np.arange(1.0, degree + 1))[:, None]).sum(axis=1)
    return g


def halfspace_expansion(w, c: float, degree: int) -> HermiteExpansion:
    """Exact Hermite coefficients of ``sign(c - <w, x>)`` up to ``degree``.

    The one-dimensional profile ``g(u) = sign(c - u)`` has the coefficients
    :func:`profile_coefficients` gives; for a unit normal the multivariate
    coefficients follow from
    ``H_k(<w, x>) = sum_{|alpha| = k} sqrt(k! / alpha!) w^alpha H_alpha(x)``.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 1 or w.size < 1:
        raise ValidationError("w must be a non-empty vector")
    if abs(float(np.linalg.norm(w)) - 1.0) > 1e-12:
        raise ValidationError("w must be a unit vector")
    g = profile_coefficients([c], [1.0, -1.0], degree)
    lg = [math.lgamma(a + 1) for a in range(degree + 1)]
    terms: dict[MultiIndex, float] = {}
    for alpha in multi_indices_upto(w.size, degree):
        k = sum(alpha)
        ratio = math.exp(0.5 * (math.lgamma(k + 1) - sum(lg[a] for a in alpha)))
        terms[alpha] = g[k] * ratio * math.prod(wi**ai for wi, ai in zip(w, alpha))
    return expansion(w.size, terms)


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
    ``NODE_BUDGET`` raises :class:`NodeBudgetError`).
    ``method="monte_carlo"`` averages ``f(X) H_alpha(X)`` over ``budget``
    common samples (default 10^6) and records per-coefficient stderr; a
    chunk buffer of more than ``MC_CHUNK_CELLS`` cells (chunk samples x
    coefficients) raises :class:`NodeBudgetError` before it is allocated.
    """
    if degree < 0:
        raise ValidationError(f"degree must be >= 0, got {degree}")
    if method == "quadrature":
        m = 400 if budget is None else int(budget)
        if m < 1:
            raise ValidationError("quadrature budget must be >= 1")
        if degree >= m:  # H_m vanishes at every node of the m-point rule
            raise ValidationError(f"degree {degree} needs more than {m} quadrature points per axis")
        if c.dimension > 3:
            raise CapabilityError(
                "tensor quadrature is limited to dimension <= 3; use monte_carlo"
            )
        return _coefficients_quadrature(c, degree, m)
    if method == "monte_carlo":
        n_samples = 10**6 if budget is None else int(budget)
        if seed is None:
            raise ValidationError("monte_carlo coefficient estimation needs a seed")
        return _coefficients_mc(c, degree, n_samples, seed)
    raise ValidationError(f"unknown method {method!r}")


def _coefficients_quadrature(c: Concept, degree: int, m: int) -> CoefficientEstimate:
    n = c.dimension
    # per-axis contraction matrices B[k, i] = w_i H_k(x_i)
    B = gauss_hermite_products(m, degree)
    tensor = np.asarray(c.batch(gauss_hermite_nodes(m, n)), dtype=np.float64).reshape((m,) * n)
    for _ in range(n):
        tensor = np.tensordot(tensor, B, axes=([0], [1]))
    terms = {a: float(tensor[a]) for a in multi_indices_upto(n, degree) if tensor[a] != 0.0}
    return CoefficientEstimate(expansion(n, terms), int(degree), "quadrature", int(m))


def _coefficients_mc(
    c: Concept, degree: int, samples: int, seed: int
) -> CoefficientEstimate:
    if samples < 2:
        raise ValidationError("samples must be >= 2")
    alphas = multi_indices_upto(c.dimension, degree)
    cells = min(samples, CHUNK_SIZE) * len(alphas)
    if cells > MC_CHUNK_CELLS:
        raise NodeBudgetError(
            f"one Monte-Carlo chunk of {min(samples, CHUNK_SIZE)} samples x {len(alphas)} "
            f"coefficients needs {cells} cells, more than the budget of {MC_CHUNK_CELLS}"
        )
    count = 0
    mean = np.zeros(len(alphas))
    m2 = np.zeros(len(alphas))
    for rng, m in chunk_rngs(seed, samples):
        x = rng.standard_normal((m, c.dimension))
        # one (m x terms) buffer, reused in place for f H, its deviations and their squares
        vals = basis_matrix(x, alphas)
        vals *= np.asarray(c.batch(x), dtype=np.float64)[:, None]
        c_mean = vals.mean(axis=0)
        vals -= c_mean
        c_m2 = np.square(vals, out=vals).sum(axis=0)
        delta = c_mean - mean
        total = count + m
        mean += delta * m / total
        m2 += c_m2 + delta * delta * count * m / total
        count = total
    stderr_vec = np.sqrt(np.maximum(m2, 0.0) / (count - 1) / count)
    terms = {}
    stderr = {}
    for j, alpha in enumerate(alphas):
        stderr[alpha] = float(stderr_vec[j])
        if mean[j] != 0.0:
            terms[alpha] = float(mean[j])
    return CoefficientEstimate(
        expansion(c.dimension, terms),
        int(degree),
        "monte_carlo",
        int(samples),
        check_seed(seed),
        stderr,
    )


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
    all terms declare it via ``complete_through``.
    """
    validate_noise_level(aplan.rho)
    known = fhat.degree_bound if complete_through is None else int(complete_through)
    if known < aplan.degree:
        raise ValidationError(
            f"coefficients known only through degree {known}, plan needs {aplan.degree}"
        )
    return truncate(apply_to_expansion(fhat, aplan.rho), aplan.degree)


def l1_error(c: Concept, p: HermiteExpansion, samples: int, seed: int) -> EstimateWithError:
    """Monte-Carlo estimate of ``E|f(X) - p(X)|``."""
    return _mc_errors(c, p, samples, seed)[0]


def l2_error(c: Concept, p: HermiteExpansion, samples: int, seed: int) -> EstimateWithError:
    """Monte-Carlo estimate of ``E[(f - p)^2]^(1/2)`` (delta-method stderr)."""
    return _mc_errors(c, p, samples, seed)[1]


def _mc_errors(
    c: Concept, p: HermiteExpansion, samples: int, seed: int
) -> tuple[EstimateWithError, EstimateWithError]:
    # L1 and L2 error from one pass: each chunk's f - p gives both moments
    _check_same_dimension(c, p)

    def values(rng: np.random.Generator, m: int) -> tuple[np.ndarray, np.ndarray]:
        x = rng.standard_normal((m, c.dimension))
        diff = c.batch(x) - expansion_eval_batch(p, x)
        return np.abs(diff), diff**2

    l1, msq = mc_means(values, int(samples), seed)
    root = math.sqrt(max(0.0, msq.mean))
    stderr = msq.stderr / (2.0 * root) if root > 0 else 0.0
    return l1, EstimateWithError(root, stderr, msq.samples, msq.seed)


def _check_same_dimension(c: Concept, p: HermiteExpansion) -> None:
    if c.dimension != p.dimension:
        raise ValidationError(
            f"concept dimension {c.dimension} != polynomial dimension {p.dimension}"
        )


def _known_breakpoints(c: Concept) -> list[float] | None:
    if c.dimension != 1:
        return None
    if c.kind == "halfspace":
        return [c.params["c"] / c.params["w"][0]]
    if c.kind == "ball":
        return [-c.params["radius"], c.params["radius"]]
    if c.kind == "constant":
        return []
    if c.kind == "intersection":
        return [h["c"] / h["w"][0] for h in c.params["halfspaces"]]
    return None


def l1_error_quad_1d(
    c: Concept,
    p: HermiteExpansion,
    breakpoints: Sequence[float] | None = None,
    abs_tol: float = 1e-6,
) -> float:
    """Dense-quadrature Gaussian L1 error for one-dimensional concepts.

    The integral straddles the concept's discontinuities (known for
    halfspaces/balls/constants, otherwise supplied by the caller) and is cut
    at ``|x| = GAUSS_CUTOFF`` where the Gaussian weight is negligible.
    """
    return _quad_error_1d(c, p, breakpoints, abs_tol, np.abs)


def l2_error_quad_1d(
    c: Concept,
    p: HermiteExpansion,
    breakpoints: Sequence[float] | None = None,
    abs_tol: float = 1e-8,
) -> float:
    """Dense-quadrature Gaussian L2 error, same conventions as the L1 path."""
    return math.sqrt(max(0.0, _quad_error_1d(c, p, breakpoints, abs_tol, np.square)))


def _quad_error_1d(
    c: Concept,
    p: HermiteExpansion,
    breakpoints: Sequence[float] | None,
    abs_tol: float,
    norm: Callable[[np.ndarray], np.ndarray],
) -> float:
    # int norm(f - p) phi over [-GAUSS_CUTOFF, GAUSS_CUTOFF]
    _check_same_dimension(c, p)
    if c.dimension != 1:
        raise ValidationError("quadrature error path applies to dimension 1 only")
    if breakpoints is None:
        breakpoints = _known_breakpoints(c)
        if breakpoints is None:
            raise CapabilityError(
                f"no known discontinuities for kind {c.kind!r}; pass breakpoints"
            )

    def integrand(x: np.ndarray) -> np.ndarray:
        f = c.batch(x[:, None])
        q = expansion_eval_batch(p, x[:, None])
        return norm(f - q) * gauss_density(x)

    pieces = max(8, int(math.ceil(2 * GAUSS_CUTOFF * math.sqrt(p.degree_bound + 1) / math.pi)))
    return integrate_adaptive(
        integrand,
        -GAUSS_CUTOFF,
        GAUSS_CUTOFF,
        abs_tol=abs_tol,
        breakpoints=list(breakpoints),
        initial_intervals=pieces,
    )


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
    sensitivity at ``delta = 1 - rho`` and ``tail_term = rho^(degree + 1)``;
    ``slack`` adds the coefficient-noise allowance for Monte-Carlo
    coefficients and is reported separately from the bound itself.
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
        allowance = 4.0 * math.hypot(self.measured_l1.stderr, 2.0 * self.gns_stderr)
        return self.measured_l1.mean <= self.bound + allowance + self.slack

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
        }


def bound_check(
    c: Concept,
    aplan: ApproximationPlan,
    coeff_budget: int | None = None,
    error_budget: int = 10**6,
    seed: int = 0,
    gns_value: float | None = None,
) -> ApproxReport:
    """Build ``p = (T_rho f)_{<=d}`` and test its L1 error against the bound.

    A 1-D concept with known breakpoints is a piecewise-constant profile: its
    coefficients are exact (:func:`profile_coefficients`) and its error is
    measured by dense quadrature (stderr then reflects the quadrature
    tolerance).  Otherwise the coefficients come from the exact halfspace
    closed form, tensor quadrature up to dimension 3, or Monte Carlo beyond
    (adding the coefficient-noise slack), and one Monte-Carlo pass gives both
    the L1 and the L2 error.  GNS uses a supplied trusted value, the concept's
    closed form when present (every halfspace and ball has one), or a
    Monte-Carlo estimate.
    """
    check_seed(seed)
    validate_noise_level(aplan.rho)
    delta = 1.0 - aplan.rho

    if gns_value is not None:
        gns, gns_stderr = float(gns_value), 0.0
    elif c.gns_closed_form is not None:
        gns, gns_stderr = c.gns_closed_form(delta), 0.0
    else:
        g = gns_mc(c, delta, error_budget, derive_seed(seed, 2))
        gns, gns_stderr = g.mean, g.stderr

    breakpoints = _known_breakpoints(c)
    if breakpoints is not None:
        # a 1-D profile: exact coefficients and the dense-quadrature error
        t = sorted(set(breakpoints))
        ends = np.array([min(t, default=0.0) - 1.0, *t, max(t, default=0.0) + 1.0])
        values = c.batch((ends[:-1, None] + ends[1:, None]) / 2.0)  # one point a piece
        g = profile_coefficients(t, values, aplan.degree)
        fhat = expansion(1, {(k,): v for k, v in enumerate(g)})
        est = CoefficientEstimate(fhat, aplan.degree, "exact", 0)
        p = build(est.expansion, aplan, complete_through=est.degree)
        quad_tol = 1e-6
        value = l1_error_quad_1d(c, p, abs_tol=quad_tol)
        measured_l1 = EstimateWithError(value, quad_tol, 0, check_seed(seed), note="quadrature")
        measured_l2 = EstimateWithError(
            l2_error_quad_1d(c, p), 0.0, 0, check_seed(seed), note="quadrature"
        )
        error_method = "quadrature"
    else:
        if c.kind == "halfspace":
            fhat = halfspace_expansion(c.params["w"], c.params["c"], aplan.degree)
            est = CoefficientEstimate(fhat, aplan.degree, "exact", 0)
        elif c.dimension <= 3:
            est = estimate_coefficients(c, aplan.degree, "quadrature", coeff_budget)
        else:
            est = estimate_coefficients(
                c, aplan.degree, "monte_carlo", coeff_budget, derive_seed(seed, 1)
            )
        p = build(est.expansion, aplan, complete_through=est.degree)
        measured_l1, measured_l2 = _mc_errors(c, p, error_budget, derive_seed(seed, 3))
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
        seed=int(seed),
    )
