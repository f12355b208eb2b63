"""Deterministic RNG stream derivation.

Every stochastic component draws from a numpy PCG64 generator whose seed is
derived from (run seed, purpose tag, indices) through SeedSequence. Streams
are therefore independent of execution order and can be re-created anywhere,
which is what makes checkpoint resume and worker-count invariance exact.
:class:`RawDraws` serves a generator's scalar ``random()`` and
``integers(n)`` draws in Python, with the values numpy would give, for loops
that draw once per frame.
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


# Raw 64-bit words RawDraws takes from the bit generator per refill.
_RAW_BLOCK = 256
_TO_UNIT = 2.0**-53


class RawDraws:
    """``random()`` and ``integers(n)`` of a PCG64 :class:`Generator`,
    computed in Python from blocks of its raw 64-bit words.

    They give the same values, in the same order, as the Generator's own
    calls would from where it stands: ``random()`` is ``(word >> 11) *
    2**-53``, and ``integers(n)`` for ``1 <= n <= 2**32`` is Lemire's method
    over 32-bit halves (low half first, the high half kept for the next
    call), with numpy's rejection threshold ``(2**32 - n) % n``. A half the
    Generator already buffered is served first. Once a reader has taken
    over a Generator, draw only from the reader.
    """

    def __init__(self, rng: Generator) -> None:
        self._bit_generator = rng.bit_generator
        state = self._bit_generator.state
        self._half: int | None = state["uinteger"] if state["has_uint32"] else None
        self._words = iter(())

    def _refill(self) -> int:
        self._words = iter(self._bit_generator.random_raw(_RAW_BLOCK).tolist())
        return next(self._words)

    def random(self) -> float:
        word = next(self._words, None)
        if word is None:
            word = self._refill()
        return (word >> 11) * _TO_UNIT

    def _uint32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        word = next(self._words, None)
        if word is None:
            word = self._refill()
        self._half = word >> 32
        return word & 0xFFFFFFFF

    def integers(self, n: int) -> int:
        if n == 1:
            return 0  # numpy draws nothing for a one-value range
        m = self._uint32() * n
        if m & 0xFFFFFFFF < n:
            threshold = (0x100000000 - n) % n
            while m & 0xFFFFFFFF < threshold:
                m = self._uint32() * n
        return m >> 32
