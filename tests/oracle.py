"""Scalar reference implementations that production code is checked against.

:func:`cell_score` scores one cell as the selection formula is written;
:func:`archex.selection.cell_probs` must give the same floats for the whole
archive at once. :func:`explore_from` and :func:`merge_results` are the
per-visit rollout and merge: every visit is mapped, builds its own
trajectory node and is folded into the archive on its own, where
:mod:`archex.explore` maps each state id once through the world's column
and merges once per (rollout, cell); both must leave the same
archive bytes.
:func:`myopic_greedy_baseline` is the reward-greedy control of the
deceptive-reward milestone. :class:`ScalarSticky` is the sticky-action
rule with one ``rng.random()`` call per decision, where the episode loops
of :mod:`archex.evaluation` and :mod:`archex.robustify` apply it inline
with uniforms drawn in blocks (:func:`archex.envs.wrappers.sticky_uniforms`)
and step no-op starts through :func:`archex.envs.wrappers.force_noops`.
:func:`evaluate_scalar_draws` is the no-op
sweep with one ``rng.integers(n_actions)`` call per unknown-state frame,
where :func:`archex.evaluation.evaluate_policy` draws fallback actions in
blocks; both must give the same scores. :class:`ScalarQLearner` and
:func:`backward_run_scalar` are the backward run stepping through
:class:`ScalarSticky`, with numpy's scalar ``random()`` and
``integers(n)`` calls on the attempt stream, a Q table keyed by state and
a ``max`` over the Q row wherever a greedy action or value is needed,
where :func:`archex.robustify.backward_run` reads the world's table inline,
the same draws through :class:`archex.seeding.RawDraws`, and
:class:`archex.robustify.TabularQLearner`'s rows by row id with each row's
greedy action cached; both must give the same Q tables, progress rows and
checkpoints (the reference keeps every checkpoint, ``backward_run`` the
pool). :func:`plain_downscale_mapper` downscales every frame it is handed,
rendering an environment on every call; explore's downscaled keys, read
from the world's column, must equal its keys.
:func:`extend` grows a trajectory by one action, as only tests do; the
package links nodes itself.
:func:`resample_means_oneshot` draws and gathers a bootstrap's whole index
matrix at once, where :func:`archex.evaluation.bootstrap_ci` and
:func:`archex.evaluation.percentile_band` do it in blocks of rows; both
must give the same bytes.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, NamedTuple, Sequence

import numpy as np

from archex.archive import Archive, CellRecord, UpdateOutcome, beats
from archex.cells import (
    CellKey,
    CellMapper,
    DomainKey,
    DownscaleParams,
    FrameSource,
    downscale_cell,
)
from archex.envs.base import DomainInfo, EnvSnapshot, Observation, frame_limit
from archex.envs.gridworld import GridWorld
from archex.evaluation import EvalProtocol
from archex.explore import ExploreConfig, IterationStats
from archex.robustify import (
    BackwardConfig,
    BackwardResult,
    DemoProgress,
    Demonstration,
    GreedyTabularPolicy,
    PolicyCheckpoint,
    ProgressRow,
    TabularQConfig,
    early_terminate,
)
from archex.seeding import TAG_ATTEMPT, TAG_EVAL, TAG_WRAPPER, stream
from archex.trajectory import Node, Trajectory
from archex.selection import (
    COUNT_POWER,
    EPS1,
    EPS2,
    LEVEL_DECAY,
    SelectionConfig,
    count_subscores,
    level_weight,
)


def extend(trajectory: Trajectory, action: int) -> Trajectory:
    """``trajectory`` with ``action`` appended: one new node on its tail,
    every earlier node shared."""
    return Trajectory(Node(action, trajectory.tail), trajectory.length + 1)


def count_subscore(v: int, w: float, p: float, eps1: float, eps2: float) -> float:
    """:func:`count_subscores` of a single counter value. numpy's array power
    differs from Python's ``**`` in the last bit for some inputs, so both
    paths share the array formula."""
    return float(count_subscores(np.array([v], np.float64), w, p, eps1, eps2)[0])


def missing_slots(archive: Archive, key: DomainKey) -> int:
    """The missing-neighbor mask of ``key``, found by scanning every archived
    key. Bits 0-3 are the grid slots x-1, x+1, y-1 and y+1: the key moved
    one bin, all else equal. Bit 4 is the more-keys slot: a key at the same
    position whose key multiset strictly contains this one's."""
    grid = ((-1, 0), (1, 0), (0, -1), (0, 1))
    mask = 0b11111
    for other in archive.cells:
        if not isinstance(other, DomainKey) or (other.room, other.level) != (key.room, key.level):
            continue
        delta = (other.x_bin - key.x_bin, other.y_bin - key.y_bin)
        if other.key_rooms == key.key_rooms and delta in grid:
            mask &= ~(1 << grid.index(delta))
        if (delta == (0, 0) and len(other.key_rooms) > len(key.key_rooms)
                and not Counter(key.key_rooms) - Counter(other.key_rooms)):
            mask &= ~(1 << 4)
    return mask


def slot_weights(cfg: SelectionConfig) -> tuple[float, ...]:
    """The weight of each :func:`missing_slots` bit, in bit order."""
    return (cfg.w_horizontal, cfg.w_horizontal, cfg.w_vertical, cfg.w_vertical,
            cfg.w_more_keys)


def cell_score(record: CellRecord, key: CellKey, archive: Archive,
               cfg: SelectionConfig) -> float:
    cnt = (
        count_subscore(record.times_chosen, cfg.w_chosen, COUNT_POWER, EPS1, EPS2)
        + count_subscore(record.times_chosen_since_new, cfg.w_chosen_since_new,
                         COUNT_POWER, EPS1, EPS2)
        + count_subscore(record.times_seen, cfg.w_seen, COUNT_POWER, EPS1, EPS2)
    )
    lw, neigh = 1.0, 0.0
    if cfg.domain_mode and isinstance(key, DomainKey):
        lw = level_weight(key.level, archive.max_level, LEVEL_DECAY)
        mask = missing_slots(archive, key)
        for bit, w in enumerate(slot_weights(cfg)):
            if mask >> bit & 1:
                neigh += w
    return lw * (neigh + cnt + 1.0)


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
        trajectory = extend(trajectory, action)
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


def frame_of(source: FrameSource) -> np.ndarray:
    """An observation's frame, or a fresh render of an environment."""
    if isinstance(source, Observation):
        return source.frame
    return source.render()


def plain_downscale_mapper(params: DownscaleParams) -> CellMapper:
    """The downscaled representation without a memo."""
    def mapper(source: FrameSource, info: DomainInfo) -> CellKey:
        del info
        return downscale_cell(frame_of(source), params)

    return mapper


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


class ScalarSticky:
    """Sticky actions on ``world`` (Machado et al. 2018): with probability
    ``p`` a step executes the last executed action instead of the submitted
    one, deciding with one ``random()`` call on ``stream(seed, TAG_WRAPPER,
    1)``; the first step after :meth:`reset` is never replaced. Call
    :meth:`reset` at every reset or restore of the world."""

    def __init__(self, world: GridWorld, p: float) -> None:
        self.world, self.p = world, p

    def reset(self, seed: int) -> None:
        self.rng = stream(seed, TAG_WRAPPER, 1)
        self.prev: int | None = None

    def step(self, action: int):
        if self.prev is not None and self.rng.random() < self.p:
            action = self.prev
        self.prev = action
        return self.world.step(action)

    def noops(self, n: int) -> int:
        """Step up to ``n`` no-ops, stopping when the episode ends; return
        how many were stepped."""
        for i in range(n):
            if self.step(self.world.noop_action).done:
                return i + 1
        return n


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
    world = env_factory()
    sticky = ScalarSticky(world, protocol.sticky_p)
    frame_cap = frame_limit(protocol.time_limit_game_frames, world.frame_skip)
    rows = []
    for noop in range(protocol.max_noop + 1):
        for episode in range(protocol.min_episodes):
            rng = stream(seed, TAG_EVAL, noop, episode)
            reset_seed = int(rng.integers(2**63))
            world.reset(reset_seed)
            sticky.reset(reset_seed)
            sticky.noops(noop)
            frames = world.frame_counters()[1]
            while not world.done and frames < frame_cap:
                action = policy.greedy.get(world.discrete_state())
                if action is None:
                    action = int(rng.integers(policy.n_actions))
                sticky.step(action)
                frames += 1
            rows.append((noop, episode, world.cum_score, frames))
    return rows


def resample_means_oneshot(samples: np.ndarray, n_resamples: int,
                           rng: np.random.Generator) -> np.ndarray:
    """The means of ``n_resamples`` resamples of ``samples``, from one
    ``integers(0, n, (n_resamples, n))`` draw gathered whole."""
    n = len(samples)
    idx = rng.integers(0, n, size=(n_resamples, n))
    return samples[idx].mean(axis=1)


class ScalarQLearner:
    """:class:`archex.robustify.TabularQLearner` keyed by state tuple, with
    one dict for its Q table and a ``max`` over the row wherever a greedy
    action or value is needed, and a row made only when a transition from
    its state is updated."""

    def __init__(self, n_actions: int, cfg: TabularQConfig = TabularQConfig()) -> None:
        self.n_actions = n_actions
        self.cfg = cfg
        self.q: dict[tuple, list[float]] = {}

    def act(self, state: tuple, rng: np.random.Generator) -> int:
        if rng.random() < self.cfg.epsilon:
            return int(rng.integers(self.n_actions))
        row = self.q.get(state)
        if row is None:
            return int(rng.integers(self.n_actions))
        return max(range(self.n_actions), key=row.__getitem__)

    def update(self, transitions: list[tuple]) -> None:
        alpha, gamma = self.cfg.alpha, self.cfg.gamma
        for state, action, reward, next_state, done in transitions:
            row = self.q.setdefault(state, [0.0] * self.n_actions)
            target = reward
            if not done:
                nxt = self.q.get(next_state)
                if nxt is not None:
                    target += gamma * max(nxt)
            row[action] += alpha * (target - row[action])


def backward_run_scalar(
    demos: Sequence[Demonstration],
    learner: ScalarQLearner,
    env_factory: Callable[[], GridWorld],
    cfg: BackwardConfig,
    seed: int = 0,
) -> BackwardResult:
    """:func:`archex.robustify.backward_run` through
    :meth:`ScalarSticky.step`, with the learner drawing from the attempt
    stream itself, one numpy call per draw, and every checkpoint kept."""
    interval = cfg.advance_interval or 200 * len(demos)
    world = env_factory()
    sticky = ScalarSticky(world, cfg.sticky_p)
    # Each demo's (max_starting_point, snapshot there): the start changes
    # only at an advance, so the replay fill-in runs once per start.
    starts: list[tuple[int, EnvSnapshot] | None] = [None] * len(demos)

    progress = [DemoProgress(max_starting_point=d.length) for d in demos]
    rows: list[ProgressRow] = []
    checkpoints: list[PolicyCheckpoint] = []
    attempts = 0
    frames = 0

    def take_checkpoint() -> None:
        checkpoints.append(
            PolicyCheckpoint(
                q={s: list(r) for s, r in learner.q.items()},
                n_actions=learner.n_actions,
                min_msp=min(p.max_starting_point for p in progress),
                attempts=attempts,
            )
        )

    def emit_row(last_score: float) -> None:
        rows.append(
            ProgressRow(
                attempts=attempts,
                max_starting_points=tuple(p.max_starting_point for p in progress),
                success_rates=tuple(p.last_rate for p in progress),
                last_score=last_score,
            )
        )

    while attempts < cfg.max_attempts:
        if cfg.frame_budget is not None and frames >= cfg.frame_budget:
            break
        if all(p.zero_confirmed for p in progress):
            break
        rng = stream(seed, TAG_ATTEMPT, attempts)
        demo_idx = int(rng.integers(len(demos)))
        demo = demos[demo_idx]
        prog = progress[demo_idx]
        start = prog.max_starting_point

        if starts[demo_idx] is None or starts[demo_idx][0] != start:
            starts[demo_idx] = (start, demo.snapshot_at(start, world))
        sticky.reset(int(rng.integers(2**63)))
        world.restore(starts[demo_idx][1])
        if start == 0 and cfg.max_noops > 0:
            frames += sticky.noops(int(rng.integers(0, cfg.max_noops + 1)))

        score_at_start = world.cum_score
        demo_score = demo.score
        gain = 0.0
        transitions: list[tuple] = []  # one per frame stepped
        success = score_at_start >= demo_score
        state = None if success else world.discrete_state()
        while not success:
            elapsed = len(transitions)
            if world.done:
                break
            if cfg.rollout_frame_cap is not None and elapsed >= cfg.rollout_frame_cap:
                break
            if early_terminate(gain, demo.cum_rewards, start, elapsed,
                               cfg.window, cfg.allowed_deficit):
                break
            action = learner.act(state, rng)
            result = sticky.step(action)
            frames += 1
            score = world.cum_score
            gain = score - score_at_start
            next_state = world.discrete_state()
            transitions.append(
                (state, action, cfg.shaping(result.reward), next_state, result.done)
            )
            state = next_state
            success = score >= demo_score
        learner.update(transitions)

        attempts += 1
        prog.attempts_since_check += 1
        prog.successes += success

        if prog.attempts_since_check >= interval:
            rate = prog.successes / interval
            prog.attempts_since_check = prog.successes = 0
            prog.last_rate = rate
            if rate >= cfg.success_threshold:
                if prog.max_starting_point > 0:
                    prog.max_starting_point = max(0, prog.max_starting_point - cfg.delta)
                    take_checkpoint()
                elif not prog.zero_confirmed:
                    prog.zero_confirmed = True
                    take_checkpoint()
            emit_row(world.cum_score)

    take_checkpoint()
    emit_row(world.cum_score if attempts else float("nan"))
    return BackwardResult(
        progress=rows,
        demo_progress=progress,
        checkpoints=checkpoints,
        attempts=attempts,
        frames=frames,
    )
