"""Deterministic, snapshot-restorable grid worlds; sticky-action uniforms and
forced no-ops."""

from .base import (
    ACTION_COUNT,
    ACTION_DOWN,
    ACTION_LEFT,
    ACTION_NOOP,
    ACTION_RIGHT,
    ACTION_UP,
    DomainInfo,
    EnvSnapshot,
    Observation,
    StepResult,
)
from .gridworld import GridWorld
from .suite import DeceptiveCorridor, KeyDoorWorld, TwoMaze
from .wrappers import force_noops, sticky_uniforms

__all__ = [
    "ACTION_COUNT",
    "ACTION_DOWN",
    "ACTION_LEFT",
    "ACTION_NOOP",
    "ACTION_RIGHT",
    "ACTION_UP",
    "DeceptiveCorridor",
    "DomainInfo",
    "EnvSnapshot",
    "GridWorld",
    "KeyDoorWorld",
    "Observation",
    "StepResult",
    "TwoMaze",
    "force_noops",
    "sticky_uniforms",
]
