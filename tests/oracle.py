"""Scalar reference implementations that production code is checked against.

:func:`cell_score` scores one cell as the selection formula is written;
:func:`archex.selection.cell_probs` must give the same floats for the whole
archive at once. :func:`explore_from` and :func:`merge_results` are the
per-visit rollout and merge: every visit builds its own trajectory node and
is folded into the archive on its own, where :mod:`archex.explore` merges
once per (rollout, cell); both must leave the same archive bytes.
:func:`myopic_greedy_baseline` is the reward-greedy control of the
deceptive-reward milestone. :func:`evaluate_scalar_draws` is the no-op
sweep with one ``rng.integers(n_actions)`` call per unknown-state frame,
where :func:`archex.evaluation.evaluate_policy` draws fallback actions in
blocks; both must give the same scores.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from archex.archive import Archive, CellRecord, UpdateOutcome, beats
from archex.cells import CellKey, CellMapper, DomainKey
from archex.envs.gridworld import GridWorld
from archex.envs.wrappers import StickyActions, force_noops
from archex.evaluation import EvalProtocol
from archex.explore import ExploreConfig, IterationStats
from archex.robustify import GreedyTabularPolicy
from archex.seeding import TAG_EVAL, stream
from archex.trajectory import Trajectory
from archex.selection import (
    COUNT_POWER,
    EPS1,
    EPS2,
    LEVEL_DECAY,
    SelectionConfig,
    count_subscores,
    level_weight,
    neigh_subscore,
)


def count_subscore(v: int, w: float, p: float, eps1: float, eps2: float) -> float:
    """:func:`count_subscores` of a single counter value. numpy's array power
    differs from Python's ``**`` in the last bit for some inputs, so both
    paths share the array formula."""
    return float(count_subscores(np.array([v], np.float64), w, p, eps1, eps2)[0])


def cell_score(record: CellRecord, key: CellKey, archive: Archive,
               cfg: SelectionConfig) -> float:
    cnt = (
        count_subscore(record.times_chosen, cfg.w_chosen, COUNT_POWER, EPS1, EPS2)
        + count_subscore(record.times_chosen_since_new, cfg.w_chosen_since_new,
                         COUNT_POWER, EPS1, EPS2)
        + count_subscore(record.times_seen, cfg.w_seen, COUNT_POWER, EPS1, EPS2)
    )
    lw = 1.0
    if cfg.domain_mode and isinstance(key, DomainKey):
        lw = level_weight(key.level, archive.max_level, LEVEL_DECAY)
    return lw * (neigh_subscore(key, archive, cfg) + cnt + 1.0)


class VisitedCell(NamedTuple):
    key: CellKey
    score: float
    trajectory: Trajectory
    snapshot: object  # EnvSnapshot, or None for a visit that cannot win the merge


class VisitResult(NamedTuple):
    origin: CellKey
    visited: list[VisitedCell]
    frames: int
    terminated: bool
    rooms: set[int]
    max_level: int


_NO_BAR = (float("-inf"), float("inf"))  # what a visit to an unarchived cell must beat


def explore_from(env: GridWorld, origin: CellKey, archive: Archive, rng,
                 cfg: ExploreConfig, mapper: CellMapper) -> VisitResult:
    """One rollout with one :class:`VisitedCell` per stepped frame, on the
    same RNG contract as :func:`archex.explore.explore_from`. A visit gets a
    snapshot only if it beats its cell's archive record and the cell's
    earlier visits in this rollout."""
    record = archive.cells[origin]
    env.restore(record.snapshot)

    repeats = rng.random(cfg.k)
    fresh = rng.integers(0, env.action_count, cfg.k)
    best: dict[CellKey, tuple[float, float]] = {}  # key -> (score, length) to beat
    trajectory = record.trajectory
    visited: list[VisitedCell] = []
    rooms: set[int] = set()
    max_level = 0
    prev_action = -1
    frames = 0
    terminated = False
    for i in range(cfg.k):
        if i > 0 and repeats[i] < cfg.repeat_p:
            action = prev_action
        else:
            action = int(fresh[i])
        result = env.step(action)
        frames += 1
        prev_action = action
        if result.done:
            terminated = True
            break
        trajectory = trajectory.extend(action)
        info = env.features()
        key = mapper(env, info)
        score = env.cum_score
        bar = best.get(key)
        if bar is None:
            held = archive.cells.get(key)
            bar = _NO_BAR if held is None else (held.score, held.traj_len)
        if beats(score, trajectory.length, *bar):
            snapshot = env.snapshot()
            best[key] = (score, trajectory.length)
        else:
            snapshot = None
            best[key] = bar
        visited.append(VisitedCell(key, score, trajectory, snapshot))
        rooms.add(info.room)
        max_level = max(max_level, info.level)
    return VisitResult(origin, visited, frames, terminated, rooms, max_level)


def merge_results(archive: Archive, results: list[VisitResult]) -> IterationStats:
    """Fold every visit into the archive on its own, in worker order; a
    snapshot-less visit must lose, and only counts as seen."""
    stats = IterationStats()
    for result in results:
        discovered = False
        for key, score, trajectory, snapshot in result.visited:
            if snapshot is None:
                record = archive.record(key)
                assert not beats(score, trajectory.length, record.score, record.traj_len)
                record.times_seen += 1
                continue
            outcome = archive.insert_or_update(key, trajectory, snapshot)
            if outcome is UpdateOutcome.ADDED:
                stats.added += 1
                discovered = True
            elif outcome is UpdateOutcome.IMPROVED:
                stats.improved += 1
                discovered = True
        if discovered:
            archive.credit_discovery(result.origin)
        stats.frames += result.frames
        stats.rooms |= result.rooms
        stats.max_level = max(stats.max_level, result.max_level)
    return stats


def myopic_greedy_baseline(
    env_factory: Callable[[], GridWorld],
    budget_training_frames: int,
    seed: int = 0,
) -> float:
    """Reward-greedy control: pick the action with the best immediate reward
    via one-step lookahead, preferring no-op on ties.

    In deceptive-reward worlds every action from most states looks no better
    than doing nothing, so this baseline settles into the stand-still local
    optimum. Returns the best episode score achieved within the budget.
    """
    env = env_factory()
    env.reset(seed)
    best = env.cum_score
    frames = 0
    while frames < budget_training_frames:
        if env.done:
            best = max(best, env.cum_score)
            env.reset(seed)
        here = env.snapshot()
        # Evaluate no-op first so ties keep it.
        order = [env.noop_action] + [
            a for a in range(env.action_count) if a != env.noop_action
        ]
        choice, choice_reward = env.noop_action, float("-inf")
        for action in order:
            env.restore(here)
            result = env.step(action)
            if result.reward > choice_reward:
                choice, choice_reward = action, result.reward
        env.restore(here)
        env.step(choice)
        frames += 1
        best = max(best, env.cum_score)
    return best


def evaluate_scalar_draws(
    policy: GreedyTabularPolicy,
    env_factory: Callable[[], GridWorld],
    protocol: EvalProtocol,
    seed: int = 0,
) -> list[tuple[int, int, float, int]]:
    """:func:`archex.evaluation.evaluate_policy`'s sweep, drawing each
    unknown state's action with its own ``rng.integers(n_actions)`` call on
    the episode stream. Returns one ``(noop, episode, score,
    training_frames)`` row per episode."""
    base = env_factory()
    env = StickyActions(base, protocol.sticky_p)
    frame_cap = protocol.time_limit_game_frames // base.frame_skip
    rows = []
    for noop in range(protocol.max_noop + 1):
        for episode in range(protocol.min_episodes):
            rng = stream(seed, TAG_EVAL, noop, episode)
            env.reset(int(rng.integers(2**63)))
            force_noops(env, noop)
            frames = base.frame_counters()[1]
            while not base.done and frames < frame_cap:
                action = policy.greedy.get(base.discrete_state())
                if action is None:
                    action = int(rng.integers(policy.n_actions))
                env.step(action)
                frames += 1
            rows.append((noop, episode, base.cum_score, frames))
    return rows
