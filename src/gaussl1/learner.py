"""Agnostic learning of concepts by L1 polynomial regression.

The learner fits a low-degree polynomial to noisy +/-1 labels in empirical L1
norm (a Frisch-Newton interior point that certifies its optimality gap), then
thresholds the fitted score to produce a +/-1 hypothesis.  For
concept classes approximated within ``epsilon`` by the planned degree, the
hypothesis' error exceeds the label noise rate by at most ``epsilon`` plus a
sampling term.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .approx import ApproximationPlan, plan
from .concepts import Concept, _signs
from .errors import DimensionMismatchError, NodeBudgetError, ValidationError
from .hermite import (
    BLOCK_CELLS,
    MC_CHUNK_CELLS,
    NODE_BUDGET,
    HermiteExpansion,
    basis_matrix,
    expansion,
    expansion_eval_batch,
    multi_indices_upto,
)
from .mc import EstimateWithError, check_integer, check_probability, check_seed, derive_seed


@dataclass(frozen=True)
class LabeledData:
    """Finite samples ``x`` of shape ``(m, n)`` with labels ``y`` in {-1, +1}."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        if x.ndim != 2 or y.shape != (x.shape[0],):
            raise ValidationError(
                f"inconsistent sample shapes x={x.shape}, y={y.shape}"
            )
        if x.shape[0] < 1:
            raise ValidationError("need at least one sample")
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValidationError("labels must be +1 or -1")
        if not np.all(np.isfinite(x)):
            raise ValidationError("samples x must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def size(self) -> int:
        return self.x.shape[0]

    @property
    def dimension(self) -> int:
        return self.x.shape[1]


def _check_eta(eta: float) -> float:
    if check_probability("noise rate eta", eta) == 1.0:
        raise ValidationError("noise rate eta must lie in [0, 1), got 1.0")
    return float(eta)


def generate_agnostic_data(c: Concept, eta: float, m: int, seed: int) -> LabeledData:
    """Draw ``m`` Gaussian samples labeled by ``c`` with each label flipped
    independently with probability ``eta``; ``m`` must be an integer >= 1."""
    eta = _check_eta(eta)
    m = check_integer("m", m, 1)
    rng = np.random.default_rng(check_seed(seed))
    x = rng.standard_normal((m, c.dimension))
    labels = c.batch(x)
    flips = rng.random(m) < eta
    return LabeledData(x, np.where(flips, -labels, labels))


@dataclass(frozen=True)
class FitConfig:
    """Solver knobs: at most ``max_iters`` steps; ``converged`` iff the certified gap <= ``tol``."""

    max_iters: int = 200
    tol: float = 1e-6


@dataclass(frozen=True)
class FitResult:
    """``gap`` bounds ``train_loss`` minus the optimum; ``iterations`` counts solver steps."""

    expansion: HermiteExpansion
    alphas: tuple
    coefficients: np.ndarray
    train_loss: float
    converged: bool
    iterations: int
    gap: float


def _median_toward_zero(y: np.ndarray) -> float:
    """Exact L1-optimal constant; ties inside the median interval resolve to
    the value closest to 0."""
    s = np.sort(y)
    m = s.size
    if m % 2 == 1:
        return float(s[m // 2])
    lo, hi = float(s[m // 2 - 1]), float(s[m // 2])
    return float(min(max(0.0, lo), hi))


# Steps cover this share of the way to the boundary; the iteration stops at a
# duality gap of _GAP_SHARE * tol, so rounding limits the reported loss.
_STEP_BACK, _GAP_SHARE = 0.99995, 1e-3


def fit_l1(data: LabeledData, degree: int, config: FitConfig | None = None) -> FitResult:
    """Fit ``argmin_p mean |y_i - p(x_i)|`` over polynomials of total degree
    <= ``degree`` by a Frisch-Newton interior point (Portnoy & Koenker 1997).

    With ``A = QR``, a Mehrotra predictor-corrector solves the dual ``max y.a
    s.t. Q^T a = Q^T 1 / 2, 0 <= a <= 1`` from ``a = 1/2``; ``z`` and ``w``
    price ``a >= 0`` and ``s = 1 - a >= 0``, with ``w - z = r = y - Q lam``, and
    the coefficients are ``R^-1 lam``.  Each step makes one blocked pass over
    ``[sqrt(q) Q | sqrt(q) r]``, whose Gram matrix is both ``G = Q^T diag(q) Q``
    and the predictor's right-hand side ``Q^T (q r)``; the corrector's
    right-hand side takes a second pass.  A Cholesky of ``G`` only probes
    definiteness, which ends the path when lost; both directions solve on
    ``G`` itself, one LU each, since numpy has no triangular solve to use the
    factor with.  Deterministic: the labels are solved as ``y[0] * y``, so
    negating them negates the coefficients exactly.  ``degree`` must be an
    integer >= 0; a basis of more than ``MC_CHUNK_CELLS`` cells (samples x
    terms) raises :class:`NodeBudgetError` before it is allocated, and one
    that the set-up finds singular on the samples raises
    :class:`ValidationError`.
    """
    config = config or FitConfig()
    degree = check_integer("degree", degree, 0)
    alphas = multi_indices_upto(data.dimension, degree)
    if degree == 0:
        c0 = _median_toward_zero(data.y)
        coeffs = np.asarray([c0])
        p = expansion(data.dimension, {alphas[0]: c0})
        return FitResult(p, tuple(alphas), coeffs, float(np.abs(data.y - c0).mean()), True, 0, 0.0)
    m, n_terms = data.size, len(alphas)
    if m < n_terms:
        raise ValidationError(f"{n_terms} basis terms need as many samples, got {m}")
    if m * n_terms > MC_CHUNK_CELLS:  # A and Q would each hold m x terms cells
        raise NodeBudgetError(
            f"a basis of {m} samples x {n_terms} terms needs {m * n_terms} cells, "
            f"more than the budget of {MC_CHUNK_CELLS}"
        )

    A = basis_matrix(data.x, alphas)
    step = max(1, BLOCK_CELLS // n_terms)  # row blocks bound the scratch of passes over A
    blocks = [slice(i, min(i + step, m)) for i in range(0, m, step)]
    # Q = A R^-1, R from a blocked Householder QR (TSQR: a lone block's R is
    # already triangular, which a second QR would leave as it is); one
    # Cholesky pass in place restores orthogonality (CholeskyQR2).
    # Column-major for the solver
    R = [np.linalg.qr(A[b], mode="r") for b in blocks]
    R = R[0] if len(R) == 1 else np.linalg.qr(np.vstack(R), mode="r")
    try:  # a rank-deficient basis leaves R singular or Q^T Q indefinite
        Q = np.matmul(A, np.linalg.inv(R), out=np.empty(A.shape, order="F"))
        C = np.linalg.cholesky(Q.T @ Q).T
    except np.linalg.LinAlgError as exc:
        raise ValidationError(f"the degree-{degree} basis is singular on these samples") from exc
    R = C @ R
    C = np.linalg.inv(C)
    for b in blocks:
        Q[b] = Q[b] @ C
    y = data.y[0] * data.y
    a, s = np.full(m, 0.5), np.full(m, 0.5)
    lam = Q.T @ y
    r = y - Q @ lam
    w = np.maximum(r, 0.0) + np.abs(r).mean()
    z = w - r
    steps, gap = 0, float(a @ z + s @ w)
    # one row block of [sqrt(q) Q | sqrt(q) r], refilled block by block: its
    # Gram matrix holds G = Q^T diag(q) Q and, in its last column, the
    # predictor's right-hand side Q^T (q r), so a step reads Q once for both
    S = np.empty((min(step, m), n_terms + 1), order="F")
    def direction(rho, rhs=None):  # the Newton step for residual rho; rhs = Q^T (q rho)
        if rhs is None:
            rhs = Q.T @ (q * rho)
        # one LU on the SPD G costs less than two on its Cholesky factors,
        # which numpy would solve as general matrices
        dlam = np.linalg.solve(G, rhs)
        Qdlam = Q @ dlam
        return dlam, Qdlam, q * (rho - Qdlam)
    def longest(da, dz, dw):  # steps <= 1 keeping a, s and z, w nonnegative
        tp = 1.0 / max(1.0, -(da / a).min(), (da / s).max())
        return tp, 1.0 / max(1.0, -(dz / z).min(), -(dw / w).min())
    while steps < config.max_iters and 2.0 * gap / m > _GAP_SHARE * config.tol:
        q = 1.0 / (z / a + w / s)
        for i, b in enumerate(blocks):
            Sb = S[: b.stop - b.start]
            last = np.sqrt(q[b], out=Sb[:, n_terms])  # sqrt(q), then sqrt(q) r
            np.multiply(Q[b], last[:, None], out=Sb[:, :n_terms])
            last *= r[b]
            if i == 0:  # the first block starts the sum: a lone block needs no temporary
                gram = Sb.T @ Sb
            else:
                gram += Sb.T @ Sb
        G = gram[:n_terms, :n_terms]
        try:  # only the definiteness probe: the solves run on G itself
            np.linalg.cholesky(G)
        except np.linalg.LinAlgError:  # definiteness lost at the end of the path
            break
        steps += 1
        # predictor: the affine direction's gap sets the centring target mu
        da = direction(r, gram[:n_terms, n_terms])[2]
        dz, dw = -z * (1.0 + da / a), -w * (1.0 - da / s)
        tp, td = longest(da, dz, dw)
        gap_aff = float((a + tp * da) @ (z + td * dz) + (s - tp * da) @ (w + td * dw))
        mu = (gap_aff / gap) ** 3 * gap / (2 * m)
        # corrector: the same G, centred on mu with second-order terms; its
        # right-hand side depends on the predictor, so it takes its own pass
        cz, cw = mu - da * dz, mu + da * dw
        dlam, Qdlam, da = direction(r - cw / s + cz / a)
        dz, dw = (cz - z * da) / a - z, (cw + w * da) / s - w
        tp, td = longest(da, dz, dw)
        a += _STEP_BACK * tp * da
        s -= _STEP_BACK * tp * da
        z += _STEP_BACK * td * dz
        w += _STEP_BACK * td * dw
        lam += _STEP_BACK * td * dlam
        r -= _STEP_BACK * td * Qdlam
        gap = float(a @ z + s @ w)
    coeffs = np.linalg.solve(R, lam)
    loss = float(np.abs(y - A @ coeffs).mean())
    # d = 2a - 1 projected onto Q^T d = 0 and scaled into [-1, 1] is dual
    # feasible: mean |y - A c| >= y.d / m for every c
    d = 2.0 * a - 1.0
    d -= Q @ (Q.T @ d)
    gap = loss - float(y @ d) / (m * max(1.0, float(np.abs(d).max())))
    if gap > config.tol:
        msg = f"L1 fit certified gap {gap:.2e} > tol {config.tol:.1e} after {steps} steps"
        warnings.warn(msg, RuntimeWarning, stacklevel=2)
    coeffs *= data.y[0]
    p = expansion(data.dimension, zip(alphas, coeffs))
    return FitResult(p, tuple(alphas), coeffs, loss, gap <= config.tol, steps, gap)


def l1_fit_oracle(A: np.ndarray, y: np.ndarray) -> float:
    """Exact optimal L1 loss by vertex enumeration (tiny instances only).

    Some optimal L1 fit interpolates ``B = rank(A)`` points, so scanning all
    size-B sample subsets with invertible submatrices finds the optimum.
    Intended as a test oracle: it scores C(m, B) subsets, raising
    :class:`NodeBudgetError` before any work when that exceeds
    ``NODE_BUDGET``.  Subsets are taken in lexicographic blocks of about
    ``BLOCK_CELLS`` float64 cells, each scored by one batched determinant,
    solve and residual mean.
    """
    A = np.asarray(A, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    m, B = A.shape
    if y.shape != (m,):
        raise DimensionMismatchError(f"labels of shape {y.shape} do not match {m} design rows")
    if m > 60 or B > 6:
        raise ValidationError("oracle is restricted to m <= 60, B <= 6")
    count = math.comb(m, B)
    if count > NODE_BUDGET:
        raise NodeBudgetError(f"C({m}, {B}) = {count} subsets exceed the budget of {NODE_BUDGET}")
    if np.linalg.matrix_rank(A) < B:
        raise ValidationError("design matrix must have full column rank")

    best = float(np.abs(y).mean())  # the zero fit is always available
    subsets = itertools.combinations(range(m), B)
    block = BLOCK_CELLS // (B * max(B, m))  # >= 364 under the guards above
    for _ in range(0, count, block):
        idx = np.fromiter(itertools.islice(subsets, block), (np.intp, B))
        sub = A[idx]
        keep = np.abs(np.linalg.det(sub)) >= 1e-12
        if keep.any():
            c = np.linalg.solve(sub[keep], y[idx[keep]][..., None])[..., 0]
            best = min(best, float(np.abs(y - c @ A.T).mean(axis=1).min()))
    return best


def choose_threshold(p: HermiteExpansion, data: LabeledData) -> float:
    """Threshold minimizing the empirical error of ``sign(p(x) - t)``.

    Candidates are all observed scores, midpoints of consecutive sorted
    scores, 0, and a value above the top score; together these realize
    every achievable labeling, so the empirical argmin is exact.  Ties
    prefer the smallest ``|t|``, then the smallest ``t``.  Predictions use
    ``sign(0) = +1``, i.e. predict +1 iff ``p(x) >= t``.
    """
    scores = expansion_eval_batch(p, data.x)
    # counts are read only between runs of equal scores, so ties need no order
    order = np.argsort(scores)
    s = scores[order]
    pos = (data.y[order] > 0).astype(np.int64)
    prefix_pos = np.concatenate([[0], np.cumsum(pos)])
    total_pos = int(prefix_pos[-1])
    m = data.size

    mids = 0.5 * (s[1:] + s[:-1]) if m > 1 else np.empty(0)
    # s[-1] + 1 admits the all-negative classifier, which no score or
    # midpoint candidate can reach
    candidates = np.concatenate([s, mids, [0.0, s[-1] + 1.0]])
    k = np.searchsorted(s, candidates, side="left")
    # errors: +1 labels below the threshold plus -1 labels at or above it
    errs = prefix_pos[k] + (m - k) - (total_pos - prefix_pos[k])
    # the least error, then the least |t|, then the least t: one pass each
    best = errs == errs.min()
    mags = np.abs(candidates)
    best &= mags == mags[best].min()
    return float(candidates[best].min())


@dataclass(frozen=True)
class Hypothesis:
    """Thresholded polynomial classifier ``x -> sign(p(x) - threshold)``."""

    p: HermiteExpansion
    threshold: float
    degree: int

    def predict(self, points: np.ndarray) -> np.ndarray:
        scores = expansion_eval_batch(self.p, np.asarray(points, dtype=np.float64))
        return _signs(scores >= self.threshold)

    def to_dict(self) -> dict:
        return {
            "p": self.p.to_dict(),
            "threshold": self.threshold,
            "degree": self.degree,
        }


def evaluate(h: Hypothesis, c: Concept, eta: float, m_test: int, seed: int) -> EstimateWithError:
    """Misclassification rate of ``h`` on fresh noisy samples from ``c``."""
    data = generate_agnostic_data(c, eta, m_test, seed)
    wrong = int(np.count_nonzero(h.predict(data.x) != data.y))
    p = wrong / data.size
    return EstimateWithError(
        p, math.sqrt(p * (1.0 - p) / data.size), data.size, check_seed(seed)
    )


@dataclass(frozen=True)
class LearnResult:
    """Everything produced by one learning run.

    ``opt_upper_bound`` is the noise rate (the error of the best possible
    predictor is at least ``eta``); ``excess`` is measured test error minus
    that floor.
    """

    hypothesis: Hypothesis
    plan: ApproximationPlan
    degree: int
    capped: bool
    train_l1_loss: float
    fit_converged: bool
    test_error: EstimateWithError
    opt_upper_bound: float
    seed: int

    @property
    def excess(self) -> float:
        return self.test_error.mean - self.opt_upper_bound

    def to_dict(self) -> dict:
        return {
            "hypothesis": self.hypothesis.to_dict(),
            "plan": self.plan.to_dict(),
            "degree": self.degree,
            "capped": self.capped,
            "train_l1_loss": self.train_l1_loss,
            "fit_converged": self.fit_converged,
            "test_error": self.test_error.to_dict(),
            "opt_upper_bound": self.opt_upper_bound,
            "excess": self.excess,
            "seed": self.seed,
        }


DEGREE_CAP = 30


def learn(
    c: Concept,
    epsilon: float,
    gamma: float,
    eta: float,
    m_train: int,
    m_test: int,
    seed: int,
    degree_cap: int = DEGREE_CAP,
) -> LearnResult:
    """Full pipeline: plan a degree, fit in L1, threshold, and test.

    The planned degree is capped at ``degree_cap`` (with a warning) to keep
    the regression tractable; training and testing use child seeds derived
    from ``seed``.  Sizes and the cap are taken as given: a non-integral
    ``m_train``, ``m_test`` or ``degree_cap`` raises :class:`ValidationError`.
    """
    eta = _check_eta(eta)
    aplan = plan(epsilon, gamma)
    degree = min(aplan.degree, check_integer("degree_cap", degree_cap, 0))
    check_integer("m_test", m_test, 1)  # before the fit; m_train is checked as drawn
    capped = degree < aplan.degree
    if capped:
        warnings.warn(
            f"planned degree {aplan.degree} capped at {degree}",
            RuntimeWarning,
            stacklevel=2,
        )
    train = generate_agnostic_data(c, eta, m_train, derive_seed(seed, 0))
    fit = fit_l1(train, degree)
    threshold = choose_threshold(fit.expansion, train)
    hypothesis = Hypothesis(fit.expansion, threshold, degree)
    test_error = evaluate(hypothesis, c, eta, m_test, derive_seed(seed, 1))
    return LearnResult(
        hypothesis=hypothesis,
        plan=aplan,
        degree=degree,
        capped=capped,
        train_l1_loss=fit.train_loss,
        fit_converged=fit.converged,
        test_error=test_error,
        opt_upper_bound=eta,
        seed=check_seed(seed),
    )
