"""Backward-curriculum robustification of a tabular Q-learner.

Demonstrations exported from archives are replayed, and checked by
:func:`archex.explore.require_replayed`, into per-frame cumulative rewards plus
periodic snapshots. Training starts rollouts at each demonstration's
``max_starting_point`` (initially its end), counts an attempt as a success when
the rollout's final unshaped score reaches the demonstration's, and walks the
starting point toward 0 whenever the windowed success rate clears the
threshold. Sticky actions throughout and random no-ops once the start
reaches frame 0 (the rule of :mod:`archex.envs.wrappers`, applied in the
attempt loop) force the learned policy to be robust rather than a replay.

The learner is :class:`TabularQLearner`, action values over the
environment's discrete state, kept as rows by row id. :func:`backward_run`
finds a state's row id through its world's column for the learner (see
:meth:`GridWorld.column`), which is dropped with the world's transition
table, calls the learner's ``act`` and ``update`` with row ids, and copies
its ``q`` table, keyed by state tuple, into each policy checkpoint. Its
attempt loop reads the world's table inline instead of calling
``GridWorld.step`` per frame.

Each attempt has one stream, from (seed, attempt index). With numpy calls it
draws the demonstration index, the seed of the attempt's sticky uniforms
(:func:`archex.envs.wrappers.sticky_uniforms`) and, at frame 0, the no-op
count. The learner's exploration draws then come from the same stream
through :class:`archex.seeding.RawDraws`, which gives the values that
numpy's scalar ``random()`` and ``integers(n)`` calls would.
``tests/oracle.py`` keeps the loop with those scalar calls, one scalar
sticky draw per decision and a learner that scans its Q rows, as the
reference.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .archive import Archive, CellRecord, read_checksummed, require_layout, write_checksummed
from .cells import CellKey, DomainKey
from .envs.base import ACTION_COUNT, EnvSnapshot
from .envs.gridworld import GridWorld
from .errors import (
    CheckpointError,
    ConfigError,
    ContractError,
    IntegrityError,
    ShortfallError,
)
from .explore import require_replayed
from .seeding import TAG_ATTEMPT, RawDraws, stream
from .envs.wrappers import force_noops, sticky_uniforms

POLICY_MAGIC = b"AXPOLC\x00\x01"
POLICY_VERSION = 1
NEAR = 50        # the checkpoint pool: within NEAR of the lowest max_starting_point
MAX_TESTED = 10  # best_checkpoint scores at most this many of the pool
REWARD_SCALE = 0.001  # the factor of the "scale" reward mode


# -- demonstrations -------------------------------------------------------------

@dataclass(slots=True)
class Demonstration:
    """A materialized high-scoring trajectory with per-frame bookkeeping.

    ``cum_rewards[t]`` is the cumulative unshaped reward after t actions
    (``cum_rewards[0] == 0``), and the last one is the score. Snapshots are
    stored at some frames, always including 0; the others are materialized
    by deterministic replay fill-in.
    """

    actions: list[int]
    cum_rewards: list[float]
    snapshots: dict[int, EnvSnapshot]
    level: int

    @property
    def length(self) -> int:
        return len(self.actions)

    @property
    def score(self) -> float:
        return self.cum_rewards[-1]

    def reward_at(self, frame: int) -> float:
        return self.cum_rewards[frame] - self.cum_rewards[frame - 1]

    def snapshot_at(self, frame: int, env: GridWorld) -> EnvSnapshot:
        """Snapshot at an arbitrary frame, replaying from the nearest stored
        one on a *deterministic* environment."""
        if not 0 <= frame <= self.length:
            raise ContractError(f"frame {frame} outside demonstration")
        stored = max(f for f in self.snapshots if f <= frame)
        if stored == frame:
            return self.snapshots[stored]
        env.restore(self.snapshots[stored])
        for action in self.actions[stored:frame]:
            env.step(action)
        return env.snapshot()


def build_demonstration(
    env: GridWorld,
    record: CellRecord,
    stride: int = 25,
) -> Demonstration:
    """Replay a record from reset into a Demonstration, verifying integrity;
    its level is the replayed end state's, which is the record's."""
    if stride < 1:
        raise ConfigError("snapshot stride must be >= 1")
    actions = record.trajectory.actions()
    _, snap = env.reset(0)
    cum = [0.0]
    snaps = {0: snap}
    for i, action in enumerate(actions, start=1):
        if env.step(action).done:
            raise IntegrityError("demonstration steps through an episode end")
        cum.append(env.cum_score)
        if i % stride == 0:
            snaps[i] = env.snapshot()
    require_replayed(env, record)
    return Demonstration(actions, cum, snaps, env.features().level)


def select_demonstrations(
    archives: Sequence[Archive],
    n: int,
    env: GridWorld,
    stride: int = 25,
) -> list[Demonstration]:
    """Best record per qualifying archive, highest-level archives only.

    Archives whose max level is below the maximum across all given archives
    are excluded entirely, and each demonstration is taken at that level.
    """
    if not archives:
        raise ShortfallError("no archives given")
    top = max(a.max_level for a in archives)
    qualifying = [a for a in archives if a.max_level == top]
    if len(qualifying) < n:
        raise ShortfallError(
            f"need {n} demonstrations at level {top}, "
            f"only {len(qualifying)} of {len(archives)} archives qualify"
        )

    def at_top(key: CellKey, record: CellRecord) -> bool:
        return not isinstance(key, DomainKey) or key.level == top

    demos = []
    for archive in qualifying[:n]:
        _, record = archive.best_record(at_top)
        demos.append(build_demonstration(env, record, stride))
    return demos


def truncate_demo(
    demo: Demonstration,
    max_frames: int | None = None,
    to_last_reward: bool = False,
) -> Demonstration:
    """Prefix a demonstration, optionally ending right after its last
    strictly positive reward."""
    length = demo.length
    if max_frames is not None:
        if max_frames < 1:
            raise ConfigError("max_frames must be >= 1")
        length = min(length, max_frames)
    if to_last_reward:
        while length > 0 and demo.reward_at(length) <= 0:
            length -= 1
        if length == 0:
            raise ContractError("no positive reward in the demonstration prefix")
    return Demonstration(
        actions=demo.actions[:length],
        cum_rewards=demo.cum_rewards[:length + 1],
        snapshots={f: s for f, s in demo.snapshots.items() if f <= length},
        level=demo.level,
    )


# -- reward shaping and early termination -----------------------------------------

def shape_reward(reward: float, mode: str) -> float:
    """The learner's reward: ``reward`` clipped to [-1, 1] in mode ``"clip"``,
    or multiplied by ``REWARD_SCALE`` in mode ``"scale"``."""
    if mode == "clip":
        return max(-1.0, min(1.0, reward))
    return reward * REWARD_SCALE


def early_terminate(
    gain: float,
    demo_cum: Sequence[float],
    start: int,
    elapsed: int,
    window: float,
    deficit: float,
) -> bool:
    """Sliding-window laggard check of a rollout that started at frame
    ``start`` of a demonstration with cumulative rewards ``demo_cum`` and
    has gained ``gain`` in ``elapsed`` frames.

    True iff the window has fully elapsed and ``gain`` is more than
    ``deficit`` below the demonstration's gain over the first
    ``elapsed - window`` frames from ``start`` (clamped to its end), so an
    infinite window or deficit never terminates.
    """
    if elapsed < window:
        return False
    frame = min(start + int(elapsed - window), len(demo_cum) - 1)
    return gain < demo_cum[frame] - demo_cum[start] - deficit


# -- learners -------------------------------------------------------------------

@dataclass(frozen=True)
class TabularQConfig:
    alpha: float = 0.2
    gamma: float = 0.99
    epsilon: float = 0.1

    def __post_init__(self) -> None:
        if not 0 < self.alpha <= 1:
            raise ConfigError("alpha must be in (0, 1]")
        if not (0 <= self.gamma <= 1 and 0 <= self.epsilon <= 1):
            raise ConfigError("gamma and epsilon must be in [0, 1]")


class TabularQLearner:
    """Q-learning over the environment's discrete state tuple.

    Each state the learner has acted from has a Q row: ``rows[r]`` is the
    row of the state whose ``row_ids`` entry is ``r``, and ``row_ids`` keeps
    the states in the order their rows were made. ``greedy[r]`` is the
    first maximum of ``rows[r]`` (``max(range(n_actions),
    key=row.__getitem__)``), or ``None`` while the row has not been updated
    yet; :meth:`update` keeps it current, so neither :meth:`act` nor the
    update target scans a row. :func:`backward_run` finds a state's row id
    through its world's column (:meth:`GridWorld.column`), so a frame reads
    no dict keyed by a state tuple.
    """

    def __init__(self, n_actions: int, cfg: TabularQConfig = TabularQConfig()) -> None:
        self.n_actions = n_actions
        self.cfg = cfg
        self.rows: list[list[float]] = []
        self.greedy: list[int | None] = []
        self.row_ids: dict[tuple, int] = {}

    @property
    def q(self) -> dict[tuple, list[float]]:
        """The Q table by state, in the order its rows were made; the rows
        are the learner's own lists."""
        rows = self.rows
        return {state: rows[r] for state, r in self.row_ids.items()}

    def row(self, state: tuple) -> int:
        """The id of ``state``'s row, made with zeros (and no greedy action
        until its first update) if the state has none."""
        r = self.row_ids.get(state)
        if r is None:
            r = self.row_ids[state] = len(self.rows)
            self.rows.append([0.0] * self.n_actions)
            self.greedy.append(None)
        return r

    def act(self, row: int, rng: np.random.Generator | RawDraws) -> int:
        """Epsilon-greedy in the state of ``row``; a row not updated yet
        acts at random. ``rng`` is any source of numpy's ``random()`` and
        ``integers(n)`` draws; :func:`backward_run` passes a
        :class:`archex.seeding.RawDraws`."""
        if rng.random() < self.cfg.epsilon:
            return int(rng.integers(self.n_actions))
        action = self.greedy[row]
        if action is None:
            return int(rng.integers(self.n_actions))
        return action

    def update(self, transitions: list[tuple]) -> None:
        """One Q-learning step per ``(row, action, reward, next_row, done)``
        transition, in order. ``next_row`` is ``None`` for a state without
        a row when it was reached; a next row not updated yet, like a
        missing one, adds nothing to the target. So rows may be made as an
        episode acts (:meth:`row`) and its transitions updated at its end,
        with the targets they would have if each row were made at its first
        update."""
        alpha, gamma = self.cfg.alpha, self.cfg.gamma
        rows, greedy = self.rows, self.greedy
        for r, action, reward, next_r, done in transitions:
            row = rows[r]
            best = greedy[r]
            if best is None:
                best = greedy[r] = 0
            target = reward
            if not done and next_r is not None:
                nxt = greedy[next_r]
                if nxt is not None:
                    target += gamma * rows[next_r][nxt]
            old = row[action]
            row[action] = value = old + alpha * (target - old)
            if action == best:
                if value < old:
                    greedy[r] = max(range(self.n_actions), key=row.__getitem__)
            elif value > row[best] or (value == row[best] and action < best):
                greedy[r] = action

    def policy(self) -> "GreedyTabularPolicy":
        return GreedyTabularPolicy(self.q, self.n_actions)


class GreedyTabularPolicy:
    """Greedy in a fixed Q table; states it has not seen take the next
    uniformly random action from ``actions``, the episode's fallback stream
    (:func:`archex.evaluation.uniform_actions`).

    The greedy action of each state (the first maximum of its row) is
    computed once, here: later changes to ``q`` do not reach the policy.
    :func:`archex.evaluation.evaluate_policy` reads ``greedy`` through the
    world's column and draws from ``actions`` itself; :meth:`act` is the
    same rule one frame at a time, as the scalar reference calls it.
    """

    def __init__(self, q: dict[tuple, list[float]], n_actions: int) -> None:
        self.n_actions = n_actions
        actions = range(n_actions)
        self.greedy = {state: max(actions, key=row.__getitem__) for state, row in q.items()}

    def act(self, env: GridWorld, actions: Iterator[int]) -> int:
        action = self.greedy.get(env.discrete_state())
        if action is None:
            return next(actions)
        return action


# -- the control loop --------------------------------------------------------------

@dataclass(frozen=True)
class BackwardConfig:
    success_threshold: float = 0.1
    advance_interval: int | None = None     # None -> 200 * n_demos
    delta: int = 1                          # starting-point shift per advance
    window: int = 50                        # early-termination window, frames
    allowed_deficit: float = 0.0
    reward_mode: str = "clip"               # shape_reward's mode: "clip" | "scale"
    sticky_p: float = 0.25
    max_noops: int = 30
    max_attempts: int = 1_000_000
    frame_budget: int | None = None
    rollout_frame_cap: int | None = None

    def __post_init__(self) -> None:
        if not 0 < self.success_threshold <= 1:
            raise ConfigError("success_threshold must be in (0, 1]")
        if self.delta < 1:
            raise ConfigError("delta must be >= 1")
        if self.window < 1:
            raise ConfigError("window must be >= 1")
        if not self.allowed_deficit >= 0:
            raise ConfigError("allowed_deficit must be >= 0")
        if self.advance_interval is not None and self.advance_interval < 1:
            raise ConfigError("advance_interval must be >= 1")
        if self.reward_mode not in ("clip", "scale"):
            raise ConfigError(f"unknown reward_mode {self.reward_mode!r}")
        if not 0 <= self.sticky_p < 1:
            raise ConfigError("sticky_p must satisfy 0 <= p < 1")
        # backward_run draws the no-op count as an int64 below max_noops + 1.
        if not 0 <= self.max_noops < 2**63 or self.max_attempts < 1:
            raise ConfigError("max_noops must be in [0, 2**63) and max_attempts >= 1")
        if any(v is not None and v < 1 for v in (self.frame_budget, self.rollout_frame_cap)):
            raise ConfigError("frame_budget and rollout_frame_cap must be >= 1 when set")


@dataclass(slots=True)
class DemoProgress:
    max_starting_point: int
    successes: int = 0                      # since the last advance check
    attempts_since_check: int = 0
    last_rate: float = float("nan")
    zero_confirmed: bool = False


@dataclass(slots=True)
class ProgressRow:
    attempts: int
    max_starting_points: tuple[int, ...]
    success_rates: tuple[float, ...]
    last_score: float


@dataclass(slots=True)
class PolicyCheckpoint:
    q: dict[tuple, list[float]]
    n_actions: int
    min_msp: int
    attempts: int


@dataclass(slots=True)
class BackwardResult:
    progress: list[ProgressRow]
    demo_progress: list[DemoProgress]
    checkpoints: list[PolicyCheckpoint]  # the pool (see backward_run), in order
    attempts: int
    frames: int

    def min_starting_point(self) -> int:
        return min(p.max_starting_point for p in self.demo_progress)


def backward_run(
    demos: Sequence[Demonstration],
    learner: TabularQLearner,
    env_factory: Callable[[], GridWorld],
    cfg: BackwardConfig,
    seed: int = 0,
) -> BackwardResult:
    """Train a learner along the demonstrations' backward curriculum.

    An attempt restores its world to the demo's start and steps it by
    reading the transition table inline, as :meth:`GridWorld.step` would,
    with the sticky-action rule applied in the loop, and finds each state's
    Q row through the world's column for ``learner``; it settles the world
    at its end. A checkpoint is taken
    whenever a demo's start moves or its start at frame 0 is first
    confirmed, and at the end; the pool keeps those whose total of the
    demos' starts is within :data:`NEAR` of the lowest total."""
    if not demos:
        raise ShortfallError("backward_run needs at least one demonstration")
    interval = cfg.advance_interval or 200 * len(demos)
    world = env_factory()
    # Each demo's (max_starting_point, snapshot there): the start changes
    # only at an advance, so the replay fill-in runs once per start.
    starts: list[tuple[int, EnvSnapshot] | None] = [None] * len(demos)

    progress = [DemoProgress(max_starting_point=d.length) for d in demos]
    rows: list[ProgressRow] = []
    pool: list[tuple[int, PolicyCheckpoint]] = []  # (total of the starts, checkpoint)
    attempts = 0
    frames = 0
    reward_mode, window, deficit = cfg.reward_mode, cfg.window, cfg.allowed_deficit
    frame_cap = math.inf if cfg.rollout_frame_cap is None else cfg.rollout_frame_cap
    sticky_p = cfg.sticky_p

    def take_checkpoint() -> None:
        total = sum(p.max_starting_point for p in progress)
        # The total never rises, so a checkpoint above total + NEAR never re-enters the pool.
        pool[:] = [(t, c) for t, c in pool if t <= total + NEAR]
        pool.append((total, PolicyCheckpoint(
            q={s: list(r) for s, r in learner.q.items()},
            n_actions=learner.n_actions,
            min_msp=min(p.max_starting_point for p in progress),
            attempts=attempts,
        )))

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
        uniforms = sticky_uniforms(int(rng.integers(2**63)))
        world.restore(starts[demo_idx][1])
        prev = None  # the last executed action
        if start == 0 and cfg.max_noops > 0:
            noops = force_noops(world, int(rng.integers(0, cfg.max_noops + 1)), sticky_p, uniforms)
            frames += noops
            if noops:
                prev = world.noop_action
        draws = RawDraws(rng)  # the learner's draws: the same values, without numpy calls

        score_at_start = world.cum_score
        demo_score = demo.score
        transitions: list[tuple] = []  # one (row, action, reward, next row, done) per frame
        success = score_at_start >= demo_score
        if not success and not world.done:
            # GridWorld.step inline: the world's id, score and frame count
            # live in locals until the attempt ends.
            column = world.column(learner)
            states, table_next, table_result = world._states, world._next, world._result
            sid, score, start_frames = world.state_id, score_at_start, world._training_frames
            frames_left = world._frame_limit - start_frames
            r = column[sid]
            elapsed = 0
            while True:
                if r is None:
                    r = column[sid] = learner.row(states[sid])
                action = executed = learner.act(r, draws)
                if prev is not None and sticky_p > 0.0 and next(uniforms) < sticky_p:
                    executed = prev
                prev = executed
                at = sid * ACTION_COUNT + executed
                nid = table_next[at]
                if nid is None:
                    sid, nid, result = world._miss(sid, executed)
                else:
                    result = table_result[at]
                sid = nid
                elapsed += 1
                reward = result.reward
                score += reward
                done = result.done or elapsed >= frames_left
                next_r = column[sid]
                if next_r is None:
                    next_r = column[sid] = learner.row_ids.get(states[sid])
                # Both shaping modes map a zero reward to itself.
                shaped = shape_reward(reward, reward_mode) if reward else reward
                transitions.append((r, action, shaped, next_r, done))
                success = score >= demo_score
                if success or done or elapsed >= frame_cap:
                    break
                # early_terminate is False until the window has elapsed.
                if elapsed >= window and early_terminate(score - score_at_start,
                                                         demo.cum_rewards, start, elapsed,
                                                         window, deficit):
                    break
                r = next_r
            world._settle(sid, score, start_frames + elapsed, done)
        frames += len(transitions)
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
        checkpoints=[c for _, c in pool],
        attempts=attempts,
        frames=frames,
    )


# -- policy checkpoint files -------------------------------------------------------

def _pack_state(state: tuple) -> bytes:
    return struct.pack(f"<H{len(state)}q", len(state), *state)


# version, config hash, min_msp, attempts, n_actions, number of Q rows
_POLICY_HEADER = struct.Struct("<HQQQIQ")


def _q_row(n_actions: int) -> struct.Struct:
    return struct.Struct(f"<{n_actions}d")


def _policy_layout(checkpoint: PolicyCheckpoint, config_hash: int) -> Iterator[bytes]:
    """The policy checkpoint body: header, then one piece per Q row in
    encoded-state order."""
    yield POLICY_MAGIC + _POLICY_HEADER.pack(
        POLICY_VERSION, config_hash, checkpoint.min_msp,
        checkpoint.attempts, checkpoint.n_actions, len(checkpoint.q),
    )
    row = _q_row(checkpoint.n_actions)
    for enc, state in sorted((_pack_state(s), s) for s in checkpoint.q):
        yield struct.pack("<I", len(enc)) + enc + row.pack(*checkpoint.q[state])


def save_policy(checkpoint: PolicyCheckpoint, path, config_hash: int) -> None:
    """Write a policy checkpoint atomically (:func:`write_checksummed`)."""
    write_checksummed(path, _policy_layout(checkpoint, config_hash))


def load_policy(path, expected_config_hash: int | None = None) -> PolicyCheckpoint:
    """The checkpoint :func:`save_policy` wrote to ``path``; a body other
    than :func:`_policy_layout`'s bytes for what it holds is rejected."""
    body = read_checksummed(path, POLICY_MAGIC, "policy checkpoint")
    try:
        _, chash, msp, attempts, n_actions, n_states = _POLICY_HEADER.unpack_from(
            body, len(POLICY_MAGIC))
        if n_actions < 1:
            raise CheckpointError(f"policy checkpoint has {n_actions} actions")
        if expected_config_hash is not None and chash != expected_config_hash:
            raise CheckpointError("policy checkpoint is from a different env config")
        offset = len(POLICY_MAGIC) + _POLICY_HEADER.size
        row = _q_row(n_actions)
        q: dict[tuple, list[float]] = {}
        for _ in range(n_states):
            # A row: state length (derived, not read), value count, values, Q row.
            (n_ints,) = struct.unpack_from("<H", body, offset + 4)
            state = struct.unpack_from(f"<{n_ints}q", body, offset + 6)
            offset += 6 + 8 * n_ints
            values = row.unpack_from(body, offset)
            if not all(map(math.isfinite, values)):
                raise CheckpointError(f"policy checkpoint has a non-finite Q value at {state}")
            q[state] = list(values)
            offset += row.size
    except struct.error as exc:
        raise CheckpointError(f"policy checkpoint corrupt: {exc}") from exc
    checkpoint = PolicyCheckpoint(q=q, n_actions=n_actions, min_msp=msp, attempts=attempts)
    require_layout(body, _policy_layout(checkpoint, chash), "policy checkpoint")
    return checkpoint


def best_checkpoint(
    pool: Sequence[PolicyCheckpoint],
    evaluator: Callable[[PolicyCheckpoint, int], float],
    rng: np.random.Generator,
) -> tuple[PolicyCheckpoint, float, float]:
    """Pick from :func:`backward_run`'s pool: score a random subset of at
    most :data:`MAX_TESTED` with ``evaluator(checkpoint, eval_index)``, then
    re-evaluate the winner on a fresh index. That retest score is the one to
    report, correcting for the selection bias of picking the max."""
    if not pool:
        raise ShortfallError("no policy checkpoints to choose from")
    if len(pool) > MAX_TESTED:
        idx = sorted(rng.choice(len(pool), size=MAX_TESTED, replace=False).tolist())
        pool = [pool[i] for i in idx]
    scores = [evaluator(c, i) for i, c in enumerate(pool)]
    best_i = max(range(len(pool)), key=scores.__getitem__)
    retest = evaluator(pool[best_i], len(pool))
    return pool[best_i], scores[best_i], retest
