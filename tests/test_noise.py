"""Smoothing operator: exact expansion action, MC action, eigenvalue and tail checks."""

import math

import numpy as np
import pytest
from conftest import count_constructions

from gaussl1 import ValidationError, apply_pointwise_mc, apply_to_expansion
from gaussl1.hermite import expansion, hermite_eval, l2_norm, truncate
from gaussl1.mc import CHUNK_SIZE, derive_seed, mc_mean
from gaussl1.noise import EigenCheckRow, eigen_check, tail_bound_check, validate_noise_level

SEED = 613


def test_noise_level_validation():
    assert validate_noise_level(0.0) == 0.0
    assert validate_noise_level(1) == 1.0
    for bad in (-0.1, 1.1, math.nan, math.inf):
        with pytest.raises(ValidationError):
            validate_noise_level(bad)


def test_apply_identity_and_averaging():
    p = expansion(2, {(0, 0): 0.5, (2, 1): -3.0})
    assert apply_to_expansion(p, 1.0) == p
    assert apply_to_expansion(p, 0.0).terms == {(0, 0): 0.5}


def test_apply_scales_by_total_degree():
    p = expansion(1, {(2,): 4.0})
    assert apply_to_expansion(p, 0.5).terms == {(2,): 1.0}


def test_semigroup():
    # T_{r1} T_{r2} = T_{r1 r2}; float rounding is a few ulp per coefficient
    p = expansion(2, {(0, 0): 0.6, (3, 2): -1.25, (5, 5): 0.07})
    a = apply_to_expansion(apply_to_expansion(p, 0.9), 0.7)
    b = apply_to_expansion(p, 0.9 * 0.7)
    assert a.terms.keys() == b.terms.keys()
    for alpha in a.terms:
        assert a.terms[alpha] == pytest.approx(b.terms[alpha], rel=1e-14)


def test_contraction():
    rng = np.random.default_rng(3)
    alphas = [tuple(a) for a in rng.integers(0, 7, size=(6, 2))]
    p = expansion(2, {a: float(rng.standard_normal()) for a in alphas})
    for rho in (0.0, 0.3, 0.8, 1.0):
        assert l2_norm(apply_to_expansion(p, rho)) <= l2_norm(p) + 1e-15


def test_commutation_with_truncation():
    rng = np.random.default_rng(4)
    alphas = [tuple(a) for a in rng.integers(0, 9, size=(8, 2))]
    p = expansion(2, {a: float(rng.standard_normal()) for a in alphas})
    for d in (0, 4, 9):
        a = truncate(apply_to_expansion(p, 0.77), d)
        b = apply_to_expansion(truncate(p, d), 0.77)
        assert a == b


def test_pointwise_mc_exact_at_rho_one():
    est = apply_pointwise_mc(lambda pts: pts[:, 0] ** 3, 1.0, 1.7, 100, SEED)
    assert est.mean == 1.7**3
    assert est.stderr == 0.0


def test_pointwise_mc_constant():
    est = apply_pointwise_mc(lambda pts: np.ones(pts.shape[0]), 0.5, 0.3, 1000, SEED)
    assert est.mean == 1.0
    assert est.stderr == 0.0


def test_pointwise_mc_matches_eigenvalue():
    x = 1.2
    est = apply_pointwise_mc(
        lambda pts: hermite_eval(3, pts[:, 0]), 0.7, x, 10**6, SEED
    )
    target = 0.7**3 * hermite_eval(3, x)
    assert abs(est.mean - target) <= 4.0 * est.stderr


def test_pointwise_mc_deterministic():
    f = lambda pts: np.tanh(pts[:, 0] + 0.5 * pts[:, 1])
    a = apply_pointwise_mc(f, 0.6, [0.1, -0.4], 50_000, SEED)
    b = apply_pointwise_mc(f, 0.6, [0.1, -0.4], 50_000, SEED)
    assert a == b


def test_eigen_check_constant_is_exact():
    report = eigen_check(0, 0.5, np.linspace(-2, 2, 5), 100, SEED)
    assert report.max_abs_deviation == 0.0
    assert report.passed
    # with stderr 0 only an exact estimate is within any number of stderr
    assert EigenCheckRow(0.0, 1.0, 0.0, 1.0).stderr_units == 0.0
    assert EigenCheckRow(0.0, 1.0, 0.0, 0.5).stderr_units == math.inf


def test_eigen_check_rho_zero():
    report = eigen_check(2, 0.0, np.linspace(-2, 2, 5), 10**5, SEED)
    assert report.passed  # target 0, MC mean within 4 stderr of 0


def test_eigen_check_k4():
    report = eigen_check(4, 0.5, [1.0], 10**6, SEED)
    assert report.passed
    assert report.max_stderr_units <= 4.0


def test_eigen_check_pooled_zscore():
    # unbiasedness proxy: pooled z over a 20-point grid stays in [-4, 4]
    grid = np.linspace(-2, 2, 20)
    report = eigen_check(3, 0.8, grid, 20_000, SEED)
    num = sum(r.deviation for r in report.rows)
    den = math.sqrt(sum(r.stderr**2 for r in report.rows))
    assert abs(num / den) <= 4.0


def test_eigen_check_validation():
    with pytest.raises(ValidationError):
        eigen_check(-1, 0.5, [0.0], 100, SEED)
    with pytest.raises(ValidationError):
        eigen_check(2, 0.5, [], 100, SEED)


def test_tail_bound_supported_below_degree():
    p = expansion(1, {(2,): 1.5})
    report = tail_bound_check(p, 0.8, 2)
    assert report.lhs == 0.0
    assert report.passed


def test_tail_bound_equality_case():
    p = expansion(1, {(3,): 1.0})
    report = tail_bound_check(p, 1.0, 2)
    assert report.lhs == pytest.approx(1.0)
    assert report.rhs == pytest.approx(1.0)
    assert report.passed


def test_tail_bound_random_sweep():
    rng = np.random.default_rng(9)
    for _ in range(20):
        alphas = [tuple(a) for a in rng.integers(0, 13, size=(7, 1))]
        p = expansion(1, {a: float(rng.standard_normal()) for a in alphas})
        rho = float(rng.uniform(0, 1))
        d = int(rng.integers(0, 13))
        assert tail_bound_check(p, rho, d).passed


def test_tail_bound_report_serialization():
    report = tail_bound_check(expansion(1, {(5,): 2.0}), 0.8, 3)
    d = report.to_dict()
    assert d["pass"] is True
    assert set(d) == {"lhs", "rhs", "pass", "seed", "samples"}


def test_derive_seed_distinct_streams():
    seeds = {derive_seed(SEED, tag) for tag in range(16)}
    assert len(seeds) == 16


def _pointwise_whole_chunks(f, rho, x, samples, seed):
    # apply_pointwise_mc as it was before it drew its points in blocks: one
    # (m, n) draw and one call of f per chunk
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    spread = math.sqrt(1.0 - rho * rho)

    def sampler(rng, m):
        y = rng.standard_normal((m, x.shape[0]))
        return np.asarray(f(rho * x[None, :] + spread * y), dtype=np.float64)

    return mc_mean(sampler, samples, seed)


@pytest.mark.parametrize(
    "f, x",
    [
        (lambda pts: hermite_eval(3, pts[:, 0]), 0.4),
        (lambda pts: np.sign(pts @ np.array([0.6, -0.8]) + 0.1), [0.3, -0.2]),
    ],
    ids=["1-d", "2-d"],
)
def test_apply_pointwise_mc_equals_the_whole_chunk_draws(f, x):
    calls = []

    def counted(pts):
        calls.append(pts.shape[0])
        return f(pts)

    samples = CHUNK_SIZE + 3001  # several blocks a chunk, and a short last chunk
    got = apply_pointwise_mc(counted, 0.7, x, samples, SEED)
    assert got == _pointwise_whole_chunks(f, 0.7, x, samples, SEED)
    assert sum(calls) == samples and max(calls) < CHUNK_SIZE  # f saw blocks


def test_tail_bound_check_constructs_one_expansion(monkeypatch):
    p = expansion(2, {(0, 0): 0.5, (1, 0): -1.0, (2, 1): 0.75, (0, 4): 0.25})
    made = count_constructions(monkeypatch)
    report = tail_bound_check(p, 0.8, 2)
    assert len(made) == 1 and made[0].terms == {(2, 1): 0.75 * 0.8**3, (0, 4): 0.25 * 0.8**4}
    assert report.lhs == l2_norm(made[0]) ** 2


@pytest.mark.parametrize("rho", [1.0, 0.5])
@pytest.mark.parametrize("samples", [0, 1, 2.5, "10"])
def test_apply_pointwise_mc_checks_samples_on_both_routes(rho, samples):
    # rho = 1 returns f(x) exactly, but a bad sample count is still refused
    with pytest.raises(ValidationError, match="samples"):
        apply_pointwise_mc(lambda pts: pts[:, 0], rho, 0.3, samples, SEED)
