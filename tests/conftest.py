"""Shared fixtures and independent oracles used across the suite."""

from __future__ import annotations

import struct
from collections import deque

import pytest

from archex.envs import ACTION_NOOP, DeceptiveCorridor, KeyDoorWorld, TwoMaze
from archex.envs.base import (
    ACTION_COUNT,
    EnvSnapshot,
    pack_snapshot,
    peek_config_hash,
    unpack_snapshot,
)
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
    """A transition table's ``_next`` list that hands each index read from
    it to ``note``."""

    def __init__(self, entries, note):
        super().__init__(entries)
        self.note = note

    def __getitem__(self, at):
        self.note(at)
        return super().__getitem__(at)


def note_clears(patch) -> list:
    """Patch ``GridWorld._intern`` so that each transition-table clear
    appends its world to the returned list. A clear is the one way a new
    state leaves a table of two or more states no larger: it empties the
    table in place and interns the state left again before the new one, so
    the lists are the same objects after it, and at a limit of 2 the table
    goes from 2 states to 2. (At a limit of 1, the first clear, from 1
    state to 2, goes unseen.)"""
    from archex.envs.gridworld import GridWorld

    intern, clears = GridWorld._intern, []

    def noting_intern(self, state):
        new, count = state not in self._ids, len(self._states)
        sid = intern(self, state)
        if new and len(self._states) <= count:
            clears.append(self)
        return sid

    patch.setattr(GridWorld, "_intern", noting_intern)
    return clears


class ReadLog:
    """A factory of ``make_env``'s worlds that log, per episode (from one
    reset to the next), each read of the transition table's ``_next`` as
    ``(at, state)``: the index read, state id x ``ACTION_COUNT`` + action,
    and the tuple of that state id. Every stepped frame reads once, whether
    :meth:`step` takes it or a loop reads the table inline. A table clear
    empties ``_next`` in place, so the wrapper stays."""

    def __init__(self, make_env):
        self.make_env = make_env
        self.reads: list[list] = []  # per episode
        self.ends: list[tuple[int, bool]] = []  # per ended episode: (training frames, done)
        self.world = None

    def __call__(self):
        env = self.world = self.make_env()
        reset = env.reset

        def note(at):
            self.reads[-1].append((at, env._states[at // ACTION_COUNT]))

        def logged_reset(seed=0):
            if self.reads:
                self.ends.append((env._training_frames, env.done))
            self.reads.append([])
            return reset(seed)

        env.reset = logged_reset
        env._next = LoggedReads(env._next, note)
        return env

    def episodes(self) -> list[tuple[list, tuple[int, bool]]]:
        """Each episode's reads and its (training frames, done) at its end."""
        ends = self.ends + [(self.world._training_frames, self.world.done)]
        return list(zip(self.reads, ends, strict=True))


def assert_matches_scalar_draws(q, make_env, protocol, seed):
    """Scores, each episode's training frames and done flag, and every
    table read the loop makes equal the one-draw-per-frame oracle's
    (TwoMaze has no rewards, so its scores alone prove nothing). The loop
    reads a prefix of each episode's oracle reads, at the same frames: it
    ends an episode at a greedy self-loop, so each run of oracle reads it
    skips must repeat the read just before it, as a step under the state's
    greedy action that returns the state with no reward and not done.
    Returns the policy, whose counts are the oracle's, the oracle's
    (noop, episode, score, training_frames) rows, and the number of
    frames the loop skipped."""
    policy = CountingPolicy(q, 5)
    expected, read = ReadLog(make_env), ReadLog(make_env)
    rows = evaluate_scalar_draws(policy, expected, protocol, seed=seed)
    outcome = evaluate_policy(policy, read, protocol, seed=seed)
    assert outcome.scores == [row[:3] for row in rows]
    world = make_env()
    skipped_frames = 0
    for (want, want_end), (got, got_end), row in zip(expected.episodes(), read.episodes(), rows,
                                                     strict=True):
        assert got_end == want_end and len(want) == want_end[0] == row[3]
        assert got == want[:len(got)]
        skipped = want[len(got):]
        if skipped:
            at, state = got[-1]
            action = at % ACTION_COUNT
            assert skipped == [got[-1]] * len(skipped)
            assert policy.greedy.get(state) == action
            assert world._tick(state, action) == (state, 0.0, False)
            skipped_frames += len(skipped)
    return policy, rows, skipped_frames


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
