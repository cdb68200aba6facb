"""Monte-Carlo accumulation tests: pooled moments and input checks."""

import math

import numpy as np
import pytest

from gaussl1 import ValidationError
from gaussl1.mc import CHUNK_SIZE, Moments, chunk_rngs, mc_mean, mc_means


def _sampler(rng, m):
    x = rng.standard_normal(m)
    return np.abs(x) ** 3 * 1e3, x * x, np.full(m, 0.25)


def _pooled_reference(samples, seed):
    # per chunk: mean, ((v - mean) ** 2).sum(), then the Welford merge
    stats = [[0, 0.0, 0.0] for _ in range(3)]
    for rng, m in chunk_rngs(seed, samples):
        for acc, v in zip(stats, _sampler(rng, m)):
            c_mean = float(v.mean())
            c_m2 = float(((v - c_mean) ** 2).sum())
            delta = c_mean - acc[1]
            total = acc[0] + m
            acc[1] += delta * m / total
            acc[2] += c_m2 + delta * delta * acc[0] * m / total
            acc[0] = total
    return [(mean, math.sqrt(max(0.0, m2 / (n - 1)) / n)) for n, mean, m2 in stats]


@pytest.mark.parametrize("samples", [2, 1000, 2 * CHUNK_SIZE + 17])
def test_mc_means_match_the_pooled_chunk_moments(samples):
    got = mc_means(_sampler, samples, 7)
    want = _pooled_reference(samples, 7)
    assert [(e.mean, e.stderr) for e in got[:2]] == want[:2]
    assert (got[2].mean, got[2].stderr) == (0.25, 0.0)  # every value equal
    assert all(e.samples == samples and e.seed == 7 for e in got)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [0, 499, 999])
def test_mc_means_reject_non_finite_values(bad, where):
    def sampler(rng, m):
        values = rng.standard_normal(m)
        values[where] = bad
        return rng.standard_normal(m), values

    with pytest.raises(ValidationError, match="non-finite"):
        mc_means(sampler, 1000, 3)
    with pytest.raises(ValidationError, match="non-finite"):
        mc_mean(lambda rng, m: sampler(rng, m)[1], 1000, 3)


@pytest.mark.parametrize("shape", [(1000,), (1000, 3)])
def test_moments_pool_chunks_into_the_whole_sample_statistics(shape):
    values = np.random.default_rng(5).standard_normal(shape) * 3.0 + 1.5
    acc = Moments()
    for lo, hi in ((0, 1), (1, 400), (400, 1000)):
        acc.add(values[lo:hi].copy())
    assert acc.n == 1000
    assert np.allclose(acc.mean, values.mean(axis=0), rtol=0, atol=1e-13)
    want = values.std(axis=0, ddof=1) / math.sqrt(1000)
    assert np.allclose(acc.stderr(), want, rtol=1e-12, atol=0)
