"""Monte-Carlo accumulation tests: pooled moments and input checks."""

import math

import numpy as np
import pytest
from conftest import traced_peak

from gaussl1 import ValidationError
from gaussl1.mc import (
    CHUNK_SIZE,
    Moments,
    block_rows,
    chunk_rngs,
    mc_mean,
    mc_means,
    normal_blocks,
)


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


@pytest.mark.parametrize(
    "dimension, samples",
    [
        (1, CHUNK_SIZE + 3 * block_rows(1) + 5),  # a short last chunk of 3 blocks and 5 rows
        (3, CHUNK_SIZE + block_rows(3) // 2),  # a short last chunk of half a block
        (100, 2 * block_rows(100) + 7),  # one short chunk, a short last block
    ],
)
def test_normal_blocks_are_the_one_draw(dimension, samples):
    for index, (rng, count) in enumerate(chunk_rngs(11, samples)):
        blocks = list(normal_blocks(rng, count, dimension))
        assert [start for start, _ in blocks] == list(range(0, count, block_rows(dimension)))
        one = np.random.default_rng(np.random.SeedSequence((11, index)))
        whole = one.standard_normal((count, dimension))
        assert np.array_equal(np.concatenate([x for _, x in blocks]), whole)
        assert rng.random() == one.random()  # the streams end in the same state
    assert count < CHUNK_SIZE  # the last chunk is short, and so is its last block
    assert blocks[-1][1].shape[0] < block_rows(dimension)


def test_block_rows_hold_about_one_block_of_cells():
    assert block_rows(1) == block_rows(8) == 1 << 14
    assert block_rows(100) == (1 << 17) // 100
    assert block_rows(10**6) == 1


def test_mc_means_hold_one_chunk_at_a_time():
    # the sampler returns two fresh 1 MiB arrays a chunk, and mc_means copies
    # one quantity at a time: about 3 MiB, not a second chunk's 3 MiB more
    def sampler(rng, m):
        x = rng.standard_normal(m)
        return x, x * x

    mc_means(sampler, 1000, 5)  # warm caches
    chunk = CHUNK_SIZE * 8
    assert traced_peak(lambda: mc_means(sampler, 4 * CHUNK_SIZE, 5)) < 3 * chunk + 2**19
