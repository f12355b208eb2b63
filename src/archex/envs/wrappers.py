"""Sticky actions and random no-op starts, the stochasticity of robustification
and evaluation (Machado et al. 2018).

The base environments are deterministic. With probability ``p`` per training
frame the last executed action is repeated instead of the submitted one; the
first action after a reset or a restore is never replaced.
:func:`archex.evaluation.evaluate_policy` and
:func:`archex.robustify.backward_run` apply the rule in their own episode
loops, each on one world. ``prev``, the last executed action, is ``None``
after a reset or a restore and ``noop_action`` after one or more forced
no-ops, and each decision while ``prev`` is set and ``p > 0`` takes one
uniform of :func:`sticky_uniforms`.
The uniforms are not part of snapshots: restoring a snapshot rewinds the
world, not the noise. No-op starts draw their count from the caller's own
stream and step :func:`force_noops`.
"""

from __future__ import annotations

from typing import Iterator

from ..seeding import TAG_WRAPPER, stream
from .gridworld import GridWorld

_SALT_STICKY = 1
# Uniforms drawn per block; Generator.random(n) yields the same values as n
# successive Generator.random() calls.
_STICKY_BLOCK = 256


def sticky_uniforms(seed: int) -> Iterator[float]:
    """Endless uniforms of the episode seeded ``seed``, drawn in blocks of
    ``_STICKY_BLOCK``: the values one ``random()`` call per decision would
    give. The generator is built at the first draw, so an episode that
    draws nothing (any episode at ``p == 0``) builds none."""
    rng = stream(seed, TAG_WRAPPER, _SALT_STICKY)
    while True:
        yield from rng.random(_STICKY_BLOCK).tolist()


def force_noops(world: GridWorld, n: int, p: float, uniforms: Iterator[float]) -> int:
    """Step ``n`` no-ops on a live episode, fewer if the episode ends first,
    and return how many were stepped. Every no-op after the first is a
    sticky decision and draws one of ``uniforms`` when ``p > 0``; a
    repeated no-op is still a no-op."""
    noop = world.noop_action
    for i in range(n):
        if i and p > 0.0:
            next(uniforms)
        if world.step(noop).done:
            return i + 1
    return n
