"""Deterministic seeding and uniform streams.

Seeds derive from SplitMix64 (gamma = 0x9E3779B97F4A7C15):

    scramble(z): z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
                 z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) mod 2^64
                 return z ^ (z >> 31)
    mix(s, r) = scramble(s ^ ((r + 1) * gamma mod 2^64))

Replica r of base seed s draws from the stream seeded by mix(s, r). The scalar
stream is SplitMix64 started at that state (state += gamma, output
scramble(state)); `ScalarRng` computes it in numpy uint64 blocks, where draw k
of a block starting at state s0 scrambles s0 + k * gamma. Bulk vectorized
sampling delegates to numpy's PCG64 seeded with the same mixed seed.

A batch replay of n_runs runs draws every uniform as one `random(n_runs)`
batch from that PCG64 stream, so batch d for runs [lo, hi) sits at stream
offset d * n_runs + lo. `run_chunks` replays runs CHUNK_RUNS at a time through
a `ChunkStream`, which jumps to those offsets with `PCG64.advance`: a chunked
replay draws the same uniforms for every run as the unchunked one, and a
replay that skips whole batches draws the same uniforms in the batches it
keeps. `touch_marks` tells a replay kernel, before its first chunk, where a
node's per-run state is still all zero and where nothing reads it again.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

from .errors import DomainError, InvariantBreach

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# runs per chunk of a batch replay: per-run state is O(CHUNK_RUNS x n)
CHUNK_RUNS = 1 << 14

# scalar draws per block, and k * gamma mod 2^64 for k = 1.._BLOCK (uint64
# array arithmetic wraps)
_BLOCK = 4096
_STEPS = np.arange(1, _BLOCK + 1, dtype=np.uint64) * np.uint64(_GAMMA)


def _scramble(z):
    """SplitMix64's output function of a 64-bit int, or elementwise of a
    uint64 array (whose products wrap, so the masks leave it unchanged)."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def mix(base_seed: int, stream: int) -> int:
    """64-bit mixing of a base seed with a replica/stream index."""
    return _scramble((base_seed & _MASK64) ^ ((stream + 1) * _GAMMA & _MASK64))


def _uniform_blocks(state: int):
    """Lists of _BLOCK SplitMix64 uniforms each, continuing the chain after
    `state`."""
    state = np.uint64(state)
    while True:
        states = state + _STEPS
        state = states[-1]
        # the top 53 bits fit a float64 exactly, so each entry equals the
        # scalar (out >> 11) * 2**-53
        yield ((_scramble(states) >> 11) * 2.0**-53).tolist()


class ScalarRng:
    """SplitMix64-backed scalar uniform stream (stream 0 of the seed) for the
    reference samplers.

    `uniform()` is one SplitMix64 step per call, its top 53 bits as a uniform
    on [0, 1); the steps are computed in numpy blocks and served one by one."""

    def __init__(self, seed: int):
        self.uniform = chain.from_iterable(_uniform_blocks(mix(seed, 0))).__next__


def generator(seed: int, stream: int = 0) -> np.random.Generator:
    """numpy Generator for vectorized sampling, seeded via mix()."""
    return np.random.Generator(np.random.PCG64(mix(seed, stream)))


class ChunkStream:
    """Runs [lo, hi) of the batch stream `generator(seed, stream)` that draws
    n_runs uniforms per batch: each `random(hi - lo)` returns those runs'
    entries of the next `random(n_runs)` batch, and `skip(k)` passes over the
    next k batches without drawing them."""

    def __init__(self, seed: int, stream: int, n_runs: int, lo: int, hi: int):
        self._bits = np.random.PCG64(mix(seed, stream))
        self._bits.advance(lo)
        self._gen = np.random.Generator(self._bits)
        self.size = hi - lo
        self._n_runs = n_runs
        self._skip = n_runs - self.size

    def random(self, size: int) -> np.ndarray:
        if size != self.size:
            raise InvariantBreach(f"chunk of {self.size} runs asked for {size} uniforms")
        out = self._gen.random(size)
        self._bits.advance(self._skip)
        return out

    def skip(self, batches: int):
        self._bits.advance(batches * self._n_runs)


def run_chunks(n_runs: int, seed: int, stream: int):
    """(lo, hi, ChunkStream) for each slice of at most CHUNK_RUNS runs, in
    order. Rejects n_runs < 1 when called, before any chunk is drawn."""
    if n_runs < 1:
        raise DomainError(f"need at least one run, got {n_runs}")
    bounds = [(lo, min(lo + CHUNK_RUNS, n_runs)) for lo in range(0, n_runs, CHUNK_RUNS)]
    return ((lo, hi, ChunkStream(seed, stream, n_runs, lo, hi)) for lo, hi in bounds)


def touch_marks(touched) -> list[list[tuple[bool, bool]]]:
    """(first, last) per entry of `touched`, a list per replayed arrival of
    the nodes whose per-run state the arrival reads or writes, in order:
    first when no earlier entry names the node (its state is still all
    zero), last when no later one does (nothing reads the state again)."""
    first_at, last_at, k = {}, {}, 0
    for nodes in touched:
        for i in nodes:
            first_at.setdefault(i, k)
            last_at[i] = k
            k += 1
    marks, k = [], 0
    for nodes in touched:
        marks.append([(first_at[i] == k + j, last_at[i] == k + j) for j, i in enumerate(nodes)])
        k += len(nodes)
    return marks


def mean_and_se(v: np.ndarray) -> tuple[float, float]:
    """(mean, standard error) of the n >= 2 per-run values v, bit for bit
    `v.mean()` and `v.std(ddof=1) / sqrt(n)`; v is overwritten with the squared
    deviations, so no second vector of n floats is allocated."""
    n = len(v)
    mean = float(v.mean())
    np.subtract(v, mean, out=v)
    np.multiply(v, v, out=v)
    return mean, math.sqrt(float(v.sum()) / (n - 1)) / math.sqrt(n)
