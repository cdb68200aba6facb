"""Seeded Monte-Carlo accumulation with reproducible chunked streams.

Sampling is split into fixed-size chunks; the RNG for chunk ``i`` is seeded
from ``(master_seed, i)``, so a given ``(seed, samples)`` pair always
consumes identical random streams no matter how the chunks are scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ValidationError

# Chunk size fixes the stream layout; changing it changes sampled values.
CHUNK_SIZE = 1 << 17

# Float64 cells that one point block holds at once, in every pass that goes
# through its points in blocks.  Per-point passes draw and evaluate one block
# of normal_blocks() at a time: the L1/L2 error (approx._mc_errors), the GNS
# and noise-distance pairs (concepts._correlated_pair), the GSA shells
# (concepts.gsa_mc) and the pointwise T_rho f (noise.apply_pointwise_mc);
# tensor-quadrature coefficients evaluate f on slabs of the grid of about as
# many points (hermite.gauss_hermite_slabs).  The Hermite kernels size their
# blocks by it too: the stacked table of every axis plus one prefix chunk's
# intermediate (hermite.expansion_eval_batch), the basis block
# (hermite.basis_matrix) or the prefixes and their squares
# (hermite.basis_sums).  2^17 cells are 1 MiB, so a block stays in a core's
# L2 cache.  Block sizes never change sampled values, only their rounding
# where a kernel sums across points.
BLOCK_CELLS = 1 << 17

_MAX_SEED = 2**64


def check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)) or not 0 <= seed < _MAX_SEED:
        raise ValidationError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    return int(seed)


def derive_seed(master: int, tag: int) -> int:
    """Deterministically derive an independent child seed from a master seed."""
    ss = np.random.SeedSequence((check_seed(master), int(tag)))
    return int(ss.generate_state(1, np.uint64)[0])


def chunk_rngs(seed: int, samples: int) -> Iterator[tuple[np.random.Generator, int]]:
    """Yield ``(rng, count)`` pairs covering ``samples`` draws in order."""
    check_seed(seed)
    done = 0
    index = 0
    while done < samples:
        count = min(CHUNK_SIZE, samples - done)
        rng = np.random.default_rng(np.random.SeedSequence((seed, index)))
        yield rng, count
        done += count
        index += 1


def block_rows(dimension: int) -> int:
    """Points per block in ``dimension``: about :data:`BLOCK_CELLS` cells,
    counting a point as its coordinates and, in few dimensions, at least the
    handful of per-point values that a pass makes of it (8 cells in all)."""
    return max(1, BLOCK_CELLS // max(dimension, 8))


def normal_blocks(
    rng: np.random.Generator, count: int, dimension: int
) -> Iterator[tuple[int, np.ndarray]]:
    """``rng.standard_normal((count, dimension))`` in order, as ``(start,
    rows)`` pairs of :func:`block_rows` rows each (the last may be short);
    the rows concatenated equal the one draw, bit for bit."""
    step = block_rows(dimension)
    for start in range(0, count, step):
        yield start, rng.standard_normal((min(step, count - start), dimension))


@dataclass(frozen=True)
class EstimateWithError:
    """A Monte-Carlo (or quadrature) estimate with a standard error."""

    mean: float
    stderr: float
    samples: int
    seed: int
    note: str | None = None

    def to_dict(self) -> dict:
        d = {
            "mean": self.mean,
            "stderr": self.stderr,
            "samples": self.samples,
            "seed": self.seed,
        }
        if self.note is not None:
            d["note"] = self.note
        return d


def check_integer(name: str, value: int, least: int) -> int:
    """``value`` as an ``int``, if it is an integer (numpy's too) >= ``least``;
    anything else, a non-integral float included, raises :class:`ValidationError`."""
    if not isinstance(value, (int, np.integer)) or value < least:
        raise ValidationError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def check_dimension(value: int) -> int:
    """``value`` as an ``int``, if it is a whole number >= 1 (``2.0`` counts);
    anything else, NaN and infinities included, raises :class:`ValidationError`."""
    if isinstance(value, (float, np.floating)) and value.is_integer():
        value = int(value)
    if not isinstance(value, (int, np.integer)):
        raise ValidationError(f"dimension must be an integer, got {value!r}")
    if value < 1:
        raise ValidationError(f"dimension must be >= 1, got {value}")
    return int(value)


def check_numeric(name: str, value, convert: Callable = float, at=None):
    """``convert(value)``; text (a ``str`` or ``bytes``, or a list, tuple or
    array holding one, such as ``"1.5"``), or a ``TypeError`` or
    ``ValueError`` from ``convert`` (``None``), raises
    :class:`ValidationError` naming ``name``, and ``at`` if given (formatted
    only on failure)."""
    try:
        if isinstance(value, (str, bytes)) or (
            isinstance(value, (list, tuple, np.ndarray)) and np.asarray(value).dtype.kind in "SU"
        ):
            raise TypeError("text is not a number")
        return convert(value)
    except (TypeError, ValueError) as exc:
        where = "" if at is None else f" at {at}"
        raise ValidationError(f"{name}{where} must be numeric, got {value!r}") from exc


def check_probability(name: str, value: float) -> float:
    """``value`` as a ``float`` in the closed interval ``[0, 1]``; anything
    outside, NaN included, raises :class:`ValidationError`."""
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValidationError(f"{name} must lie in [0, 1], got {value}")
    return value


def check_samples(samples: int) -> int:
    return check_integer("samples", samples, 2)


def mc_mean(
    sample_values: Callable[[np.random.Generator, int], np.ndarray], samples: int, seed: int
) -> EstimateWithError:
    """Mean and standard error of ``sample_values(rng, m)`` over ``samples`` draws.

    Variances are pooled across chunks by :class:`Moments`.  If every
    sampled value is identical the estimate is that value with stderr exactly
    0 (covers degenerate cases such as constant integrands).
    """
    return mc_means(lambda rng, m: (sample_values(rng, m),), samples, seed)[0]


class Moments:
    """Count, mean and sum of squared deviations along axis 0, pooled chunk by
    chunk with Welford's merge; ``mean`` and ``m2`` take the shape of one row."""

    def __init__(self) -> None:
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0

    def add(self, values: np.ndarray) -> None:
        """Merge the ``(m, ...)`` chunk ``values``, overwriting it in place."""
        c_mean = values.mean(axis=0)
        values -= c_mean
        self.merge(values.shape[0], c_mean, np.square(values, out=values).sum(axis=0))

    def merge(self, count: int, mean, m2) -> None:
        """Merge a chunk of ``count`` rows summarised by its ``mean`` and its
        sum of squared deviations ``m2``."""
        delta = mean - self.mean
        total = self.n + count
        self.mean = self.mean + delta * count / total
        # the chunk's terms are summed first: bits depend on this order
        self.m2 = self.m2 + (m2 + delta * delta * self.n * count / total)
        self.n = total

    def stderr(self):
        """Standard error of the mean, ``sqrt(m2 / (n - 1) / n)``."""
        return np.sqrt(np.maximum(self.m2 / (self.n - 1), 0.0) / self.n)


def mc_means(
    sample_values: Callable[[np.random.Generator, int], Sequence[np.ndarray]],
    samples: int,
    seed: int,
) -> list[EstimateWithError]:
    """:func:`mc_mean` of several quantities sampled from one stream.

    ``sample_values(rng, m)`` returns one ``(m,)`` array per quantity, all
    computed from the same ``m`` draws; each estimate equals what
    :func:`mc_mean` gives for that quantity alone.
    """
    samples = check_samples(samples)
    moments: list[Moments] = []
    ranges: list[tuple[float, float]] = []
    for rng, count in chunk_rngs(seed, samples):
        batch = sample_values(rng, count)
        if not moments:
            moments = [Moments() for _ in batch]
            ranges = [(math.inf, -math.inf)] * len(batch)
        if len(batch) != len(moments):
            raise ValidationError(
                f"sampler returned {len(batch)} quantities, expected {len(moments)}"
            )
        for j, values in enumerate(batch):
            values = np.array(values, dtype=np.float64)  # a copy: add() overwrites it
            if values.shape != (count,):
                raise ValidationError(
                    f"sampler returned shape {values.shape}, expected ({count},)"
                )
            # a NaN or an infinity shows in the range
            vmin, vmax = float(values.min()), float(values.max())
            if not (math.isfinite(vmin) and math.isfinite(vmax)):
                raise ValidationError("sampler produced non-finite values")
            ranges[j] = (min(ranges[j][0], vmin), max(ranges[j][1], vmax))
            moments[j].add(values)
        # hold one chunk at a time: drop it and its copy before the next is sampled
        batch = values = None
    seed = int(seed)
    return [
        EstimateWithError(lo, 0.0, acc.n, seed)
        if lo == hi
        else EstimateWithError(float(acc.mean), float(acc.stderr()), acc.n, seed)
        for acc, (lo, hi) in zip(moments, ranges)
    ]


def mc_fraction(
    hit_count: Callable[[np.random.Generator, int], int], samples: int, seed: int
) -> EstimateWithError:
    """Binomial fraction estimate: ``hit_count(rng, m)`` hits out of ``samples``.

    Uses the exact integer hit count, so reruns are bit-identical, and the
    binomial standard error sqrt(p(1-p)/n).
    """
    samples = check_samples(samples)
    hits = 0
    n = 0
    for rng, count in chunk_rngs(seed, samples):
        h = int(hit_count(rng, count))
        if not 0 <= h <= count:
            raise ValidationError(f"hit count {h} outside [0, {count}]")
        hits += h
        n += count
    p = hits / n
    stderr = math.sqrt(p * (1.0 - p) / n)
    return EstimateWithError(p, stderr, n, int(seed))
