"""Shared fixtures and independent oracles used across the suite."""

from __future__ import annotations

from collections import deque

import pytest

from archex.envs import DeceptiveCorridor, KeyDoorWorld, TwoMaze
from archex.robustify import GreedyTabularPolicy


def small_twomaze(**kwargs):
    kwargs.setdefault("arm_rows", 3)
    kwargs.setdefault("arm_cols", 6)
    return TwoMaze(**kwargs)


def small_keydoor(**kwargs):
    """2x2 rooms, one key, one locked door, no hazards."""
    kwargs.setdefault("rooms_rows", 2)
    kwargs.setdefault("rooms_cols", 2)
    kwargs.setdefault("room_w", 5)
    kwargs.setdefault("room_h", 5)
    kwargs.setdefault("keys", ((1, 4, 1),))
    kwargs.setdefault("locked_doors", ((2, 3), (1, 3)))
    kwargs.setdefault("hazards", ())
    kwargs.setdefault("treasure_room", 3)
    return KeyDoorWorld(**kwargs)


def small_corridor(**kwargs):
    kwargs.setdefault("n_rooms", 4)
    kwargs.setdefault("room_w", 8)
    kwargs.setdefault("room_h", 5)
    kwargs.setdefault("treasures", ((2, 2000.0), (3, 3000.0)))
    return DeceptiveCorridor(**kwargs)


ENV_FACTORIES = {
    "twomaze": small_twomaze,
    "keydoor": small_keydoor,
    "corridor": small_corridor,
}


@pytest.fixture(params=sorted(ENV_FACTORIES))
def any_env(request):
    return ENV_FACTORIES[request.param]()


class CountingPolicy(GreedyTabularPolicy):
    """Counts the frames whose state the table knows and those it lacks."""

    known = unknown = 0

    def act(self, env, actions):
        if env.discrete_state() in self.greedy:
            self.known += 1
        else:
            self.unknown += 1
        return super().act(env, actions)


def bfs_reachable_states(env, limit: int | None = None, max_level: int = 1):
    """Exhaustive oracle: all discrete states reachable as post-step states,
    found by breadth-first search over snapshot/restore. Levels repeat the
    layout forever, so expansion stops beyond ``max_level``."""
    _, snap = env.reset(0)
    start = env.discrete_state()
    seen = {start: snap}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        if state[2] > max_level:  # state[2] is the level
            continue
        snap = seen[state]
        for action in range(env.action_count):
            env.restore(snap)
            env.step(action)
            if env.done:
                continue
            s2 = env.discrete_state()
            if s2 not in seen:
                seen[s2] = env.snapshot()
                queue.append(s2)
                if limit is not None and len(seen) > limit:
                    raise AssertionError("state space larger than expected")
    return seen


def drive(env, actions):
    """Step a list of actions, returning (rewards, dones)."""
    rewards, dones = [], []
    for action in actions:
        result = env.step(action)
        rewards.append(result.reward)
        dones.append(result.done)
    return rewards, dones


def step_and_render(env, action):
    """Step, then render the state the step led to; (frame bytes, reward,
    done). Stepping itself draws no frame."""
    result = env.step(action)
    return env.render().tobytes(), result.reward, result.done
