"""Self-contained invariant suite behind ``gaussl1 check``.

Each check is deterministic (fixed seeds), runs in seconds, and returns a
pass flag plus a one-line detail.  The suite exercises every layer: basis
orthonormality, smoothing eigenvalues, sensitivity/surface identities, the
construction bound, the sign-series dual forms, and the learner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import approx, concepts, hermite, learner, noise, sign_series
from .mc import derive_seed

_SEED = 20260814


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _orthonormality() -> CheckResult:
    rule = hermite.gauss_hermite_rule(13)
    worst = 0.0
    for i in range(13):
        for j in range(13):
            inner = hermite.expectation(
                lambda x: hermite.hermite_eval(i, x) * hermite.hermite_eval(j, x), rule
            )
            worst = max(worst, abs(inner - (1.0 if i == j else 0.0)))
    return CheckResult("hermite-orthonormality", worst <= 1e-10, f"max defect {worst:.2e}")


def _zero_values() -> CheckResult:
    worst = max(
        abs(hermite.hermite_zero(k) - hermite.hermite_eval(k, 0.0)) for k in range(201)
    )
    return CheckResult("hermite-origin-values", worst <= 1e-12, f"max defect {worst:.2e}")


def _serialization() -> CheckResult:
    p = hermite.expansion(2, {(0, 0): 0.125, (3, 1): -0.7071067811865476, (1, 0): 1e-17})
    q = hermite.HermiteExpansion.from_json(p.to_json())
    ok = q == p and q.to_json() == p.to_json()
    return CheckResult("expansion-round-trip", ok, "bit-exact JSON round trip")


def _smoothing_algebra() -> CheckResult:
    p = hermite.expansion(2, {(0, 0): 0.6, (2, 1): -1.2, (4, 4): 0.31})
    a = noise.apply_to_expansion(noise.apply_to_expansion(p, 0.9), 0.7)
    b = noise.apply_to_expansion(p, 0.63)
    worst = max(
        abs(a.coefficient(alpha) - b.coefficient(alpha)) / abs(c)
        for alpha, c in p.terms.items()
    )
    contract = hermite.l2_norm(noise.apply_to_expansion(p, 0.77)) <= hermite.l2_norm(p)
    return CheckResult(
        "smoothing-semigroup", worst <= 1e-13 and contract, f"max rel defect {worst:.2e}"
    )


def _tail_bound() -> CheckResult:
    p = hermite.expansion(1, {(0,): 0.2, (3,): -0.5, (7,): 0.9, (11,): 0.1})
    ok = all(
        noise.tail_bound_check(p, rho, d).passed
        for rho in (0.0, 0.5, 0.9, 1.0)
        for d in (0, 3, 7, 11)
    )
    return CheckResult("smoothing-tail-bound", ok, "rho grid x degree grid")


def _eigen() -> CheckResult:
    report = noise.eigen_check(4, 0.5, np.linspace(-2, 2, 9), 10**5, _SEED)
    return CheckResult(
        "smoothing-eigenvalue",
        report.passed,
        f"max |dev| {report.max_abs_deviation:.2e} ({report.max_stderr_units:.2f} se)",
    )


def _noise_distance() -> CheckResult:
    hs = concepts.halfspace([1.0], 0.0)
    rep = concepts.noise_distance_check(hs, 0.9, 10**5, _SEED)
    ok = rep.passed
    if rep.closed_form is not None:
        ok = ok and abs(rep.lhs.mean - rep.closed_form) <= 4.0 * rep.lhs.stderr
    return CheckResult(
        "noise-distance-identity", ok, f"lhs {rep.lhs.mean:.5f} vs rhs {rep.rhs.mean:.5f}"
    )


def _gns_gsa_closed_forms() -> CheckResult:
    rhos = np.linspace(0.0, 1.0, 50)
    worst = max(
        math.acos(r) / math.pi - math.sqrt((1.0 - r) / 2.0) for r in rhos
    )
    return CheckResult(
        "sensitivity-surface-inequality", worst <= 1e-12, f"max lhs-rhs {worst:.2e}"
    )


def _gsa_estimator() -> CheckResult:
    hs = concepts.halfspace([1.0], 0.0)
    est = concepts.gsa_mc(hs, [0.04, 0.02], 10**6, _SEED)
    target = concepts.gauss_density(0.0)
    ok = abs(est.mean - target) <= 0.05 * target
    return CheckResult(
        "gsa-shell-estimator", ok, f"estimate {est.mean:.5f} vs {target:.5f}"
    )


def _sign_coefficients() -> CheckResult:
    from .quadrature1d import fixed_panels

    worst = 0.0
    for k in range(10):
        def integrand(x, k=k):
            h = hermite.hermite_eval(k, x)
            return h * hermite.gauss_density(x)

        cutoff = hermite.GAUSS_CUTOFF
        quad = fixed_panels(integrand, 0.0, cutoff, 120, 10) - fixed_panels(
            lambda x, k=k: integrand(-x, k), 0.0, cutoff, 120, 10
        )
        worst = max(worst, abs(quad - sign_series.sign_coefficient(k)))
    return CheckResult("sign-coefficients", worst <= 1e-10, f"max defect {worst:.2e}")


def _dual_form() -> CheckResult:
    worst = 0.0
    for d in (11, 101):
        t = sign_series.truncation(d)
        for x in np.linspace(0.15, 3.0, 8):
            a = sign_series.truncation_eval_direct(t, x)
            b = sign_series.truncation_eval_integral(d, float(x), tol=1e-9)
            worst = max(worst, abs(a - b))
    return CheckResult("sign-series-dual-form", worst <= 1e-7, f"max gap {worst:.2e}")


def _christoffel_darboux() -> CheckResult:
    worst = max(
        sign_series.christoffel_darboux_residual(50, x) for x in (-3.0, -1.0, 0.5, 2.0)
    )
    return CheckResult("christoffel-darboux", worst <= 1e-8, f"max residual {worst:.2e}")


def _oscillatory_magnitude() -> CheckResult:
    d = 201
    t = np.linspace(0.0, d ** (1.0 / 6.0), 64)
    scaled = np.abs(hermite._recurrence(d, t, start=np.exp(-0.25 * t * t))) * d**0.25
    worst = float(scaled.max())
    return CheckResult("hermite-scaled-magnitude", worst <= 2.0, f"sup {worst:.3f}")


def _sine_integral() -> CheckResult:
    from scipy.special import sici

    worst = max(
        abs(sign_series.sine_integral(z) - float(sici(z)[0]))
        for z in (0.5, math.pi, 10.0, 100.0)
    )
    return CheckResult("sine-integral", worst <= 1e-9, f"max defect {worst:.2e}")


def _plan_example() -> CheckResult:
    p = approx.plan(0.5, hermite.gauss_density(0.0))
    ok = p.degree == 44 and abs(p.rho - 0.96875) <= 1e-12
    return CheckResult("plan-worked-example", ok, f"rho {p.rho!r}, degree {p.degree}")


def _construction_bound() -> CheckResult:
    hs = concepts.halfspace([1.0], 0.0)
    aplan = approx.ApproximationPlan(0.5, 0.0, 0.9, 10)
    rep = approx.bound_check(hs, aplan, seed=_SEED)
    return CheckResult(
        "construction-bound",
        rep.passed,
        f"error {rep.measured_l1.mean:.5f} <= bound {rep.bound:.5f}",
    )


def _learner_small() -> CheckResult:
    rng = np.random.default_rng(_SEED)
    x = rng.standard_normal((40, 1))
    y = np.where(rng.random(40) < 0.5, 1.0, -1.0)
    data = learner.LabeledData(x, y)
    fit = learner.fit_l1(data, 2)
    A = hermite.basis_matrix(data.x, list(fit.alphas))
    opt = learner.l1_fit_oracle(A, data.y)
    gap = fit.train_loss - opt
    return CheckResult("l1-fit-vs-oracle", abs(gap) <= 1e-4, f"loss gap {gap:.2e}")


def _determinism() -> CheckResult:
    hs = concepts.halfspace([1.0], 0.0)
    a = concepts.gns_mc(hs, 0.1, 10**5, derive_seed(_SEED, 9))
    b = concepts.gns_mc(hs, 0.1, 10**5, derive_seed(_SEED, 9))
    ok = a == b
    return CheckResult("seeded-determinism", ok, "identical estimates on rerun")


ALL_CHECKS: tuple[Callable[[], CheckResult], ...] = (
    _orthonormality,
    _zero_values,
    _serialization,
    _smoothing_algebra,
    _tail_bound,
    _eigen,
    _noise_distance,
    _gns_gsa_closed_forms,
    _gsa_estimator,
    _sign_coefficients,
    _dual_form,
    _christoffel_darboux,
    _oscillatory_magnitude,
    _sine_integral,
    _plan_example,
    _construction_bound,
    _learner_small,
    _determinism,
)


def run_all() -> list[CheckResult]:
    return [check() for check in ALL_CHECKS]
