"""Scalar reference implementations that production code is checked against.

:func:`cell_score` scores one cell as the selection formula is written;
:func:`archex.selection.cell_probs` must give the same floats for the whole
archive at once. :func:`myopic_greedy_baseline` is the reward-greedy control
of the deceptive-reward milestone.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from archex.archive import Archive, CellRecord
from archex.cells import CellKey, DomainKey
from archex.envs.gridworld import GridWorld
from archex.selection import SelectionConfig, count_subscores, level_weight, neigh_subscore


def count_subscore(v: int, w: float, p: float, eps1: float, eps2: float) -> float:
    """:func:`count_subscores` of a single counter value. numpy's array power
    differs from Python's ``**`` in the last bit for some inputs, so both
    paths share the array formula."""
    return float(count_subscores(np.array([v], np.float64), w, p, eps1, eps2)[0])


def cell_score(record: CellRecord, key: CellKey, archive: Archive,
               cfg: SelectionConfig) -> float:
    cnt = (
        count_subscore(record.times_chosen, cfg.w_chosen, cfg.p_chosen,
                       cfg.eps1, cfg.eps2)
        + count_subscore(record.times_chosen_since_new, cfg.w_chosen_since_new,
                         cfg.p_chosen_since_new, cfg.eps1, cfg.eps2)
        + count_subscore(record.times_seen, cfg.w_seen, cfg.p_seen,
                         cfg.eps1, cfg.eps2)
    )
    lw = 1.0
    if cfg.domain_mode and isinstance(key, DomainKey):
        lw = level_weight(key.level, archive.max_level, cfg.level_decay)
    return lw * (neigh_subscore(key, archive, cfg) + cnt + 1.0)


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
