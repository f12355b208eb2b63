"""Stochasticity wrappers used for robustification and evaluation.

The base environments are deterministic; test-time stochasticity is layered
on through :class:`StickyActions`. Wrapper randomness is reseeded by ``reset(seed)``
and is *not* part of snapshots: restoring a snapshot rewinds the world, not
the noise stream, so repeated restores see fresh perturbations. Random
no-op starts have no wrapper: evaluation and robustification draw the count
from their own streams and step :func:`force_noops`.
"""

from __future__ import annotations

from typing import Iterator

from numpy.random import Generator

from ..errors import ConfigError
from ..seeding import TAG_WRAPPER, stream
from .base import EnvSnapshot, Observation, StepResult
from .gridworld import GridWorld

_SALT_STICKY = 1
# Uniforms drawn per refill of StickyActions' block; Generator.random(n)
# yields the same values as n successive Generator.random() calls.
_STICKY_BLOCK = 256


class StickyActions:
    """With probability ``p`` per training frame, repeat the last executed
    action instead of the submitted one. The first action after a reset or a
    restore is never replaced.

    The uniforms come from a private stream reseeded by :meth:`reset`, drawn
    in blocks: the draw sequence is the same as one ``random()`` call per
    decision, and the unused rest of a block is dropped at the next reset.
    The stream's generator is built at the first refill after a reset, so
    an episode that draws nothing (any episode at ``p == 0``) builds none.

    It forwards only ``noop_action`` to ``inner``, the environment
    underneath; read anything else there, snapshots included. A ``__getattr__``
    forward would make :meth:`step` about a quarter slower: CPython stops
    specializing attribute loads on a class that defines one.

    ``archex.robustify.backward_run`` applies :meth:`step`'s rule inline:
    it reads ``_prev`` and ``_uniforms``, calls :meth:`_refill` on an empty
    block and writes ``_prev`` back at the end of an attempt.
    """

    def __init__(self, inner: GridWorld, p: float) -> None:
        if not 0.0 <= p < 1.0:
            raise ConfigError("sticky probability must satisfy 0 <= p < 1")
        self.inner = inner
        self.p = p
        self._prev: int | None = None
        self._seed = 0
        self._rng: Generator | None = None  # built by _refill
        self._uniforms: Iterator[float] = iter(())

    @property
    def noop_action(self) -> int:
        return self.inner.noop_action

    def reset(self, seed: int) -> tuple[Observation, EnvSnapshot]:
        self._seed = seed
        self._rng = None
        self._uniforms = iter(())
        self._prev = None
        return self.inner.reset(seed)

    def restore(self, snap: EnvSnapshot) -> None:
        self._prev = None
        self.inner.restore(snap)

    def step(self, action: int) -> StepResult:
        executed = action
        if self._prev is not None and self.p > 0.0:
            u = next(self._uniforms, None)
            if u is None:
                u = self._refill()
            if u < self.p:
                executed = self._prev
        self._prev = executed
        return self.inner.step(executed)

    def _refill(self) -> float:
        """Draw the next block of uniforms and return its first."""
        if self._rng is None:
            self._rng = stream(self._seed, TAG_WRAPPER, _SALT_STICKY)
        self._uniforms = iter(self._rng.random(_STICKY_BLOCK).tolist())
        return next(self._uniforms)


def force_noops(env: GridWorld | StickyActions, n: int) -> int:
    """Step ``n`` no-ops on a live episode, fewer if the episode ends first,
    and return how many were stepped."""
    for i in range(n):
        if env.step(env.noop_action).done:
            return i + 1
    return n
