"""The exploration loop: select a batch of cells, return to each without
noise, explore with repeat-biased random actions, merge discoveries.

Rollouts within an iteration are logically parallel: they all read the archive
as it stood at selection time, and their results are merged in worker-index
order afterwards. The implementation executes them serially, which makes the
"identical results for any worker count" contract hold trivially. Every
stochastic draw comes from a stream derived from (seed, purpose, iteration,
worker), so runs are reproducible and resumable bit for bit. The module also
owns the metrics file (:class:`MetricsRow`, :func:`read_metrics`) and the
end-of-replay check (:func:`require_replayed`).

A rollout does only the work whose result is used: it snapshots a visit
only when the visit can still win the merge, it maps each interned state of
its world once (the world's column keeps the state's cell key, room and
level by state id, so a known state is neither featurised nor mapped, nor
rendered, again; see :meth:`GridWorld.column`), and it hands the merge one
aggregate per cell it visited (a visit count and the cell's last winning
visit; see :func:`explore_from`). It builds its actions up front, from the
two draws of its RNG contract, and steps its world by reading the
transition table inline rather than through :meth:`GridWorld.step`.
The merge then runs once per (rollout, cell), and gives the same records,
visit counts, discovery credit and order of added keys as folding in every
visit on its own.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, get_type_hints

import numpy as np

from .archive import Archive, CellRecord, RunMeta, UpdateOutcome, beats
from .cells import CellKey, CellMapper
from .envs.base import ACTION_COUNT, EnvSnapshot
from .envs.gridworld import GridWorld
from .errors import CheckpointError, ConfigError, ContractError, IntegrityError
from .seeding import TAG_BASELINE, TAG_EXPLORE, TAG_SELECT, stream
from .selection import SelectionConfig, cell_probs, sample_batch
from .trajectory import Node, Trajectory


# The largest rollout length and batch; each sizes an array of draws per
# iteration (see explore_from and sample_batch), checked before any work.
MAX_K = 1 << 20
MAX_BATCH = 1 << 20


@dataclass(frozen=True)
class ExploreConfig:
    k: int = 100                      # exploration budget per rollout, training frames
    repeat_p: float = 0.95            # action repeat probability per training frame
    batch_size: int = 100
    budget_training_frames: int = 1_000_000
    seed: int = 0
    metric_interval_game_frames: int = 4_000_000

    def __post_init__(self) -> None:
        if not 1 <= self.k <= MAX_K:
            raise ConfigError(f"k must be in [1, {MAX_K}]")
        if not 0.0 <= self.repeat_p < 1.0:
            raise ConfigError("repeat_p must satisfy 0 <= p < 1")
        if not 1 <= self.batch_size <= MAX_BATCH:
            raise ConfigError(f"batch_size must be in [1, {MAX_BATCH}]")
        if self.budget_training_frames < 0:
            raise ConfigError("budget must be >= 0")
        if not 0 <= self.seed < 2**64:  # checkpoints store it as an unsigned 64-bit integer
            raise ConfigError("seed must be in [0, 2**64)")
        if self.metric_interval_game_frames < 1:
            raise ConfigError("metric interval must be >= 1")


class CellVisits(NamedTuple):
    """A rollout's visits to one cell: how many, and the last visit that won
    (its trajectory, and its snapshot, which carries its score), or ``None``
    for both when none did."""

    visits: int
    trajectory: Trajectory | None
    snapshot: EnvSnapshot | None


_NO_BAR = (float("-inf"), float("inf"))  # what a visit to an unarchived cell must beat


@dataclass(slots=True)
class RolloutResult:
    origin: CellKey
    cells: dict[CellKey, CellVisits]  # in the order of their first visits
    frames: int
    terminated: bool
    rooms: set[int]
    max_level: int


def explore_from(
    env: GridWorld,
    origin: CellKey,
    archive: Archive,
    rng,
    cfg: ExploreConfig,
    mapper: CellMapper,
) -> RolloutResult:
    """Restore ``origin``'s archived snapshot, take up to ``k``
    repeat-biased random actions, and sum up the visits per cell.

    The RNG contract is fixed: one ``rng.random(k)`` call for the repeat
    decisions followed by one ``rng.integers(0, n_actions, k)`` call for the
    fresh actions; frame i repeats when ``repeats[i] < repeat_p`` (never on
    the first frame). Returning consumes no randomness at all. All ``k``
    actions are built from the two draws before the first step: a repeat
    takes the fresh action of the last frame that does not repeat. If the
    episode ends (:meth:`GridWorld.step`'s done rule), the rollout stops and
    the final transition is discarded: it has no destination cell.

    Each frame's cell key, room and level come from ``env``'s column for
    ``mapper``, indexed by the state id after the step; ``features()`` and
    ``mapper`` run only for an id the column lacks, and fill it in.

    ``archive`` must stand as it did at selection time: the caller merges
    only after all of a batch's rollouts. A visit wins if it beats, by the
    merge rule of :func:`archex.archive.beats`, both the archive record of
    its cell (when there is one) and the cell's earlier winner in this
    rollout; only winners are snapshotted, and each cell keeps its last
    winner, which is the best of its visits. A losing visit only counts.
    Trajectory nodes are built at the end, along the rollout's actions up
    to its last winning step, so every winner shares the one chain. This is
    all the merge needs: between selection and this rollout's merge,
    records only improve (by earlier rollouts of the batch), so no visit
    that loses here can be added or improve a record, and a cell's last
    winner beats its current record iff any of its visits does.
    """
    record = archive.cells[origin]
    env.restore(record.snapshot)
    env._require_live()

    k = cfg.k
    repeats = rng.random(k)
    fresh = rng.integers(0, env.action_count, k)
    # Frame i takes the fresh action of the last frame at or before it that
    # does not repeat; frame 0 never repeats.
    repeat = repeats < cfg.repeat_p
    repeat[0] = False
    actions = fresh[np.maximum.accumulate(np.where(repeat, 0, np.arange(k)))].tolist()

    column = env.column(mapper)
    cells = archive.cells
    found: dict[CellKey, list] = {}  # key -> [visits, score, length, snapshot] of its winner
    base = length = record.traj_len
    rooms: set[int] = set()
    max_level = 0
    # GridWorld.step inline: the world's id, score and frame count live in
    # locals, and go back to the world before it snapshots, maps or is left.
    table_next, table_result = env._next, env._result
    sid, score, start_frames = env.state_id, env._score, env._training_frames
    frames_left = env._frame_limit - start_frames
    frames = 0
    terminated = False
    for action in actions:
        at = sid * ACTION_COUNT + action
        nid = table_next[at]
        if nid is None:
            env.state_id = sid
            nid, result = env._miss(action)
            table_next, table_result = env._next, env._result  # a clear replaces them
        else:
            result = table_result[at]
        sid = nid
        frames += 1
        score += result.reward
        if result.done or frames >= frames_left:
            terminated = True
            break
        length += 1
        mapped = column[sid]
        if mapped is None:
            env.state_id = sid
            info = env.features()
            mapped = column[sid] = (mapper(env, info), info.room, info.level)
        key, room, level = mapped
        entry = found.get(key)
        if entry is None:
            held = cells.get(key)
            entry = found[key] = [0, *(_NO_BAR if held is None
                                       else (held.score, held.traj_len)), None]
        entry[0] += 1
        if beats(score, length, entry[1], entry[2]):
            entry[1] = score
            entry[2] = length
            env.state_id, env._score, env._training_frames = sid, score, start_frames + frames
            entry[3] = env.snapshot()
        rooms.add(room)
        if level > max_level:
            max_level = level
    env.state_id, env._score, env._training_frames = sid, score, start_frames + frames
    env._done = terminated

    last = max((entry[2] for entry in found.values() if entry[3] is not None), default=base)
    nodes = []  # nodes[i] ends the trajectory of length base + i + 1
    tail = record.tail
    for action in actions[:last - base]:
        tail = Node(action, tail)
        nodes.append(tail)
    visits = {
        key: CellVisits(n, Trajectory(nodes[won_len - base - 1], won_len), snapshot)
        if snapshot is not None else CellVisits(n, None, None)
        for key, (n, _, won_len, snapshot) in found.items()
    }
    return RolloutResult(origin, visits, frames, terminated, rooms, max_level)


@dataclass(slots=True)
class IterationStats:
    frames: int = 0
    added: int = 0
    improved: int = 0
    rooms: set[int] = field(default_factory=set)
    max_level: int = 0


def merge_results(archive: Archive, results: list[RolloutResult]) -> IterationStats:
    """Fold rollout results into the archive in worker-index order, once per
    (rollout, cell): a cell with a winner goes through the merge rule with
    its visit count, and one without only adds its visits to
    ``times_seen``."""
    stats = IterationStats()
    for result in results:
        discovered = False
        for key, (visits, trajectory, snapshot) in result.cells.items():
            if snapshot is None:
                archive.cells[key].times_seen += visits
                continue
            outcome = archive.insert_or_update(key, trajectory, snapshot, visits)
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


def run_iteration(
    archive: Archive,
    env: GridWorld,
    sel_cfg: SelectionConfig,
    cfg: ExploreConfig,
    iteration: int,
    mapper: CellMapper,
) -> IterationStats:
    """One batch: recompute probabilities once, sample b origins with
    replacement, roll out, merge."""
    table = cell_probs(archive, sel_cfg)
    origins = sample_batch(table, cfg.batch_size, stream(cfg.seed, TAG_SELECT, iteration))
    for key in origins:
        archive.record_chosen(key)
    return _roll_out(archive, env, cfg, mapper, origins, TAG_EXPLORE, iteration)


def _roll_out(
    archive: Archive,
    env: GridWorld,
    cfg: ExploreConfig,
    mapper: CellMapper,
    origins: list[CellKey],
    tag: int,
    iteration: int,
) -> IterationStats:
    """Explore from each origin on stream (seed, tag, iteration, worker),
    then merge the results in worker order."""
    results = []
    for worker, key in enumerate(origins):
        rng = stream(cfg.seed, tag, iteration, worker)
        results.append(explore_from(env, key, archive, rng, cfg, mapper))
    return merge_results(archive, results)


# -- metrics -------------------------------------------------------------------

class MetricsRow(NamedTuple):
    game_frames: int
    training_frames: int
    cells: int
    rooms: int
    max_score: float
    max_level: int
    wall_seconds: float


def read_metrics(path) -> list[MetricsRow]:
    """The rows of a ``metrics.csv`` that ``archex explore`` wrote with
    :func:`archex.archive.write_csv`, and nothing else: the header must be
    :class:`MetricsRow`'s fields, and each value must parse as its field's
    annotated type and read back through ``str()`` as the same text. Any
    other file raises :class:`ConfigError` naming ``file:line``."""
    try:
        fh = open(path, newline="", errors="replace")  # a bad byte fails as a value
    except OSError as exc:
        raise ConfigError(f"cannot read metrics CSV {path}: {exc}") from exc
    fields, kinds = list(MetricsRow._fields), get_type_hints(MetricsRow).values()
    rows = []
    with fh:
        reader = csv.reader(fh)
        try:
            if next(reader, None) != fields:
                raise ValueError("not a metrics CSV of archex explore")
            for row in reader:
                if len(row) != len(fields):
                    raise ValueError(f"expected {len(fields)} columns")
                values = [kind(text) for kind, text in zip(kinds, row)]
                for name, value, text in zip(fields, values, row):
                    if str(value) != text:
                        raise ValueError(f"{name} {text!r} reads back as {value}")
                rows.append(MetricsRow(*values))
        except (ValueError, csv.Error) as exc:
            raise ConfigError(f"{path}:{max(reader.line_num, 1)}: {exc}") from exc
    return rows


@dataclass(slots=True)
class Phase1Result:
    archive: Archive
    meta: RunMeta
    metrics: list[MetricsRow]


def _resumed_metrics(rows: list[MetricsRow], reached: int, interval: int) -> list[MetricsRow]:
    """A previous leg's ``rows`` cut to a straight run's at ``reached`` game
    frames: rows past it go, and rows at it stay only if they are sample
    rows, i.e. if a sample point lies between the last row before them (0
    if none) and ``reached``; otherwise they are the leg's final row."""
    kept = [row for row in rows if row.game_frames < reached]
    last = kept[-1].game_frames if kept else 0
    if reached // interval > last // interval:
        kept += [row for row in rows if row.game_frames == reached]
    return kept


def run_phase1(
    env_factory: Callable[[], GridWorld],
    cfg: ExploreConfig,
    sel_cfg: SelectionConfig | None,
    mapper: CellMapper,
    resume: Phase1Result | None = None,
    stop_condition: Callable[[Archive, RunMeta], bool] | None = None,
    on_iteration: Callable[[Phase1Result], None] | None = None,
) -> Phase1Result:
    """Run the exploration phase until the training-frame budget is spent.

    The metrics get a row each time the game frames cross a multiple of
    ``cfg.metric_interval_game_frames``, and a final row if the last
    iteration wrote none. ``resume`` continues a previous leg bit-exactly:
    streams are derived from the iteration index, so its archive and meta
    are all the state there is, and its metrics (cut by
    :func:`_resumed_metrics`) seed the series, whose ``wall_seconds`` carry
    on. Its archive must come from this environment config and name only
    its rooms (else :class:`CheckpointError`), and its run from ``cfg.seed``
    (else :class:`ConfigError`). The optional ``stop_condition`` is
    evaluated between iterations (milestone runs); ``on_iteration`` gets the
    run as it stands after each iteration, for periodic checkpointing.
    Without a selection config nothing is selected: every rollout starts
    from the start cell, the control of :func:`baseline_from_start`.
    """
    if sel_cfg is None and resume is not None:
        raise ContractError("the from-start control does not resume")
    env = env_factory()
    start = time.perf_counter()
    interval = cfg.metric_interval_game_frames

    if resume is not None:
        archive, meta = resume.archive, replace(resume.meta)
        if archive.config_hash != env.config_hash:
            raise CheckpointError("resume archive is from a different env config")
        if max(meta.rooms_seen, default=0) >= env.n_rooms:
            raise CheckpointError("resume checkpoint names a room its world lacks")
        if meta.seed != cfg.seed:
            raise ConfigError(f"resume checkpoint has seed {meta.seed}, config says {cfg.seed}")
        metrics = _resumed_metrics(resume.metrics, meta.game_frames, interval)
        if resume.metrics:
            start -= resume.metrics[-1].wall_seconds
    else:
        obs, snap = env.reset(cfg.seed)
        start_key = mapper(obs, obs.features)
        archive = Archive(env.config_hash)
        archive.insert_or_update(start_key, Trajectory(), snap)
        meta = RunMeta(cfg.seed, rooms_seen=frozenset({obs.features.room}))
        metrics = []
    run = Phase1Result(archive, meta, metrics)
    next_sample = (meta.game_frames // interval + 1) * interval

    def metric_row() -> MetricsRow:
        return MetricsRow(meta.game_frames, meta.training_frames, len(archive),
                          len(meta.rooms_seen), archive.max_score(), meta.max_level_seen,
                          time.perf_counter() - start)

    while meta.training_frames < cfg.budget_training_frames:
        if stop_condition is not None and stop_condition(archive, meta):
            break
        if sel_cfg is None:
            origins = [start_key] * cfg.batch_size
            stats = _roll_out(archive, env, cfg, mapper, origins, TAG_BASELINE, meta.iteration)
        else:
            stats = run_iteration(archive, env, sel_cfg, cfg, meta.iteration, mapper)
        meta.iteration += 1
        meta.training_frames += stats.frames
        meta.game_frames = meta.training_frames * env.frame_skip
        meta.rooms_seen |= stats.rooms
        meta.max_level_seen = max(meta.max_level_seen, stats.max_level, archive.max_level)
        while meta.game_frames >= next_sample:
            metrics.append(metric_row())
            next_sample += interval
        if on_iteration is not None:
            on_iteration(run)

    if not metrics or metrics[-1].game_frames != meta.game_frames:
        metrics.append(metric_row())
    return run


def baseline_from_start(
    env_factory: Callable[[], GridWorld],
    cfg: ExploreConfig,
    mapper: CellMapper,
    stop_condition: Callable[[Archive, RunMeta], bool] | None = None,
) -> Phase1Result:
    """Control condition: identical random exploration, but every rollout
    starts from the reset state, on its own ``TAG_BASELINE`` stream.
    Discoveries land in a shadow archive that is never used to pick starting
    points, so no cell is ever counted as chosen."""
    return run_phase1(env_factory, cfg, None, mapper, stop_condition=stop_condition)


# -- replay verification --------------------------------------------------------

def replay_record(
    env: GridWorld,
    record: CellRecord,
    key: CellKey,
    mapper: CellMapper,
) -> None:
    """Replay a record's trajectory from reset and verify it against the
    archive: :func:`require_replayed`, then the final cell."""
    env.reset()
    for action in record.trajectory.actions():
        if env.step(action).done:
            raise IntegrityError("stored trajectory ends an episode early")
    require_replayed(env, record)
    if mapper(env, env.features()) != key:
        raise IntegrityError("replayed trajectory lands in a different cell")


def require_replayed(env: GridWorld, record: CellRecord) -> None:
    """Raise :class:`IntegrityError` unless ``env``, at the end of a replay of
    ``record``'s trajectory, has the record's score and snapshot bytes."""
    if env.cum_score != record.score:
        raise IntegrityError(f"replayed score {env.cum_score} != stored {record.score}")
    if env.snapshot().state_bytes != record.snapshot.state_bytes:
        raise IntegrityError("replayed snapshot differs from stored snapshot")
