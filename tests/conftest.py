"""Shared fixtures and independent oracles used across the suite."""

from __future__ import annotations

import struct
from collections import deque

import pytest

from archex.envs import ACTION_NOOP, DeceptiveCorridor, KeyDoorWorld, TwoMaze
from archex.envs.base import EnvSnapshot, pack_snapshot, peek_config_hash, unpack_snapshot
from archex.evaluation import evaluate_policy
from archex.robustify import GreedyTabularPolicy

from oracle import evaluate_scalar_draws


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


def scored(snap, score):
    """``snap`` with ``score`` written into its payload head, the one place
    a snapshot keeps its score."""
    config_hash = peek_config_hash(snap.state_bytes)
    payload = unpack_snapshot(snap.state_bytes, config_hash)
    return EnvSnapshot(pack_snapshot(config_hash, struct.pack("<d", score) + payload[8:]))


ENV_FACTORIES = {
    "twomaze": small_twomaze,
    "keydoor": small_keydoor,
    "corridor": small_corridor,
}


@pytest.fixture(params=sorted(ENV_FACTORIES))
def any_env(request):
    return ENV_FACTORIES[request.param]()


class CountingPolicy(GreedyTabularPolicy):
    """Counts the frames whose state the table knows and those it lacks, and
    keeps the distinct states, in the loops that call :meth:`act` per frame
    (the scalar reference)."""

    def __init__(self, q, n_actions):
        super().__init__(q, n_actions)
        self.known = self.unknown = 0
        self.states = set()

    def act(self, env, actions):
        state = env.discrete_state()
        self.states.add(state)
        if state in self.greedy:
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


def noop_policy(env):
    """A policy greedy in ``ACTION_NOOP`` on every state reachable in ``env``."""
    row = [0.0] * env.action_count
    row[ACTION_NOOP] = 1.0
    return GreedyTabularPolicy(dict.fromkeys(bfs_reachable_states(env), row), env.action_count)


class LoggedReads(list):
    """A transition table's ``_next`` list that appends each index read
    from it to ``log``."""

    def __init__(self, entries, log):
        super().__init__(entries)
        self.log = log

    def __getitem__(self, at):
        self.log.append(at)
        return super().__getitem__(at)


def logging_reads(make_env, log):
    """``make_env`` whose worlds append to ``log`` each index their
    transition table's ``_next`` is read at, state id x ``ACTION_COUNT`` +
    action: one per frame, whether :meth:`step` takes it or a loop reads
    the table inline. A table clear replaces ``_next``, so the new one is
    wrapped too."""
    def make():
        env = make_env()
        intern = env._intern

        def logged_intern(state):
            sid = intern(state)
            if type(env._next) is not LoggedReads:
                env._next = LoggedReads(env._next, log)
            return sid

        env._intern = logged_intern
        env._next = LoggedReads(env._next, log)
        return env
    return make


def assert_matches_scalar_draws(q, make_env, protocol, seed):
    """Scores, and every table read of every frame, equal the
    one-draw-per-frame oracle's (TwoMaze has no rewards, so its scores alone
    prove nothing). Returns the policy, whose counts are the oracle's, and
    the oracle's (noop, episode, score, training_frames) rows."""
    policy = CountingPolicy(q, 5)
    expected, read = [], []
    rows = evaluate_scalar_draws(policy, logging_reads(make_env, expected), protocol, seed=seed)
    outcome = evaluate_policy(policy, logging_reads(make_env, read), protocol, seed=seed)
    assert outcome.scores == [row[:3] for row in rows]
    assert read == expected
    assert len(expected) == sum(frames for *_, frames in rows)
    return policy, rows


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
