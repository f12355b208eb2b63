"""Deterministic RNG stream derivation.

Every stochastic component draws from a numpy PCG64 generator whose seed is
derived from (run seed, purpose tag, indices) through SeedSequence. Streams
are therefore independent of execution order and can be re-created anywhere,
which is what makes checkpoint resume and worker-count invariance exact.
"""

from __future__ import annotations

from numpy.random import PCG64, Generator, SeedSequence

# Purpose tags. Values are frozen; changing them changes every derived stream.
TAG_EXPLORE = 1
TAG_SELECT = 2
TAG_BASELINE = 3
TAG_ATTEMPT = 4
TAG_EVAL = 5
TAG_WRAPPER = 6
TAG_CHECKPOINT = 7


def stream(seed: int, tag: int, *indices: int) -> Generator:
    """Return the generator for (seed, tag, indices)."""
    entropy = (int(seed) & 0xFFFFFFFFFFFFFFFF, int(tag)) + tuple(
        int(i) & 0xFFFFFFFFFFFFFFFF for i in indices
    )
    return Generator(PCG64(SeedSequence(entropy=entropy)))

