"""Deterministic, snapshot-restorable grid worlds and stochastic wrappers."""

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
from .wrappers import StickyActions, force_noops

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
    "StickyActions",
    "TwoMaze",
    "force_noops",
]
