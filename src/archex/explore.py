"""The exploration loop: select a batch of cells, return to each without
noise, explore with random actions that repeat the previous one with
probability ``REPEAT_P`` (Go-Explore's 0.95), merge discoveries.

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
visit; see :func:`explore_from`). A batch's actions are planned up front,
a block of rollouts at a time, from the two draws of each rollout's RNG
contract (:func:`plan_rollouts`), and a rollout steps its world by reading
the transition table inline rather than through :meth:`GridWorld.step`.
Most exploring frames repeat the previous action into a wall or stand
still: once a step leaves the state as it was, with no reward, every
later frame of the same action is that step again, so the rollout counts
the rest of the run instead of stepping it.
The merge then runs once per (rollout, cell), and gives the same records,
visit counts, discovery credit and order of added keys as folding in every
visit on its own. Origins are cell ids, from selection to the discovery
credit. A batch's choices, and the visits of each cell a rollout met
without a winning visit, are each counted by id with one array operation
on the archive's counter columns (:meth:`Archive.record_chosen`,
:meth:`Archive.count_visits`).
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Callable, Iterable, Iterator, NamedTuple, get_type_hints

import numpy as np

from .archive import Archive, CellRecord, RunMeta, UpdateOutcome, beats
from .cells import CellKey, CellMapper
from .envs.base import ACTION_COUNT, EnvSnapshot
from .envs.gridworld import GridWorld
from .errors import CheckpointError, ConfigError, ContractError, IntegrityError
from .seeding import TAG_BASELINE, TAG_EXPLORE, TAG_SELECT, stream
from .selection import SelectionConfig, cell_probs, sample_batch
from .trajectory import Node, Trajectory


# The largest rollout length and batch, checked before any work. A batch
# is planned a block of rollouts at a time (see plan_rollouts), so its
# draws never sit in memory at once; sample_batch draws the origins whole.
MAX_K = 1 << 20
MAX_BATCH = 1 << 20
# Draws of each kind planned per block of rollouts: a block is as many
# rollouts as fit, and at least one, so it holds max(k, _PLAN_DRAWS) draws.
_PLAN_DRAWS = 1 << 16
# The most metrics rows a run may write, one per metric interval its game
# frames cross, each of which scans the archive; the shipped keydoor run writes 80.
MAX_METRIC_ROWS = 1 << 16
# The probability that an exploring frame repeats the previous action.
REPEAT_P = 0.95


@dataclass(frozen=True)
class ExploreConfig:
    k: int = 100                      # exploration budget per rollout, training frames
    batch: int = 100                  # rollouts per iteration
    budget_training_frames: int = 1_000_000
    seed: int = 0
    metric_interval_game_frames: int = 4_000_000
    checkpoint_interval_iterations: int = 0  # the CLI's checkpoint period; 0 = only at the end

    def __post_init__(self) -> None:
        if not 1 <= self.k <= MAX_K:
            raise ConfigError(f"k must be in [1, {MAX_K}]")
        if not 1 <= self.batch <= MAX_BATCH:
            raise ConfigError(f"batch must be in [1, {MAX_BATCH}]")
        if self.budget_training_frames < 0:
            raise ConfigError("budget must be >= 0")
        if not 0 <= self.seed < 2**64:  # checkpoints store it as an unsigned 64-bit integer
            raise ConfigError("seed must be in [0, 2**64)")
        if self.metric_interval_game_frames < 1:
            raise ConfigError("metric interval must be >= 1")
        if self.checkpoint_interval_iterations < 0:
            raise ConfigError("checkpoint_interval_iterations must be >= 0")


def check_metric_rows(cfg: ExploreConfig, frame_skip: int) -> None:
    """Raise :class:`ConfigError` if a run of ``cfg``, which ends below budget
    + batch * k training frames, could cross over ``MAX_METRIC_ROWS`` intervals."""
    rows = ((cfg.budget_training_frames + cfg.batch * cfg.k) * frame_skip
            // cfg.metric_interval_game_frames)
    if rows > MAX_METRIC_ROWS:
        raise ConfigError(f"metric_interval_game_frames {cfg.metric_interval_game_frames} gives "
                          f"{rows} metrics rows at frame_skip {frame_skip}, over {MAX_METRIC_ROWS}")


class CellVisits(NamedTuple):
    """A rollout's visits to one cell: how many, the last visit that won
    (its trajectory, and its snapshot, which carries its score), or ``None``
    for both when none did, and the cell's archive id at selection time, or
    ``None`` if it was not archived then."""

    visits: int
    trajectory: Trajectory | None
    snapshot: EnvSnapshot | None
    cell_id: int | None = None


_NO_BAR = (float("-inf"), float("inf"))  # what a visit to an unarchived cell must beat


@dataclass(slots=True)
class RolloutResult:
    origin: int  # the cell id the rollout started from
    cells: dict[CellKey, CellVisits]  # in the order of their first visits
    frames: int
    terminated: bool
    rooms: set[int]
    max_level: int


class RolloutPlan(NamedTuple):
    """A rollout's actions, one per frame, and where each run of equal
    actions in them ends (exclusive); the last end is the frame count."""

    actions: list[int]
    ends: list[int]


def plan_rollouts(
    rngs: Iterable[np.random.Generator],
    cfg: ExploreConfig,
    n_actions: int,
) -> Iterator[RolloutPlan]:
    """The plan of one rollout per generator of ``rngs``, in their order.

    The RNG contract is fixed: each generator makes one ``random(k)`` call
    for the repeat decisions followed by one ``integers(0, n_actions, k)``
    call for the fresh actions, and nothing else. Frame i repeats when
    ``repeats[i] < REPEAT_P`` (never on the first frame), and then takes
    the fresh action of the last frame before it that does not repeat.
    Returning to a cell consumes no randomness at all.

    Rollouts are planned a block at a time, with one set of array
    operations per block. A block holds ``max(k, _PLAN_DRAWS)`` draws of
    each kind, and ``rngs`` is read one generator at a time as the block
    fills, so a lazy iterable of streams is derived a block at a time too.
    """
    k = cfg.k
    block = max(1, _PLAN_DRAWS // k)
    frame = np.arange(k)
    repeats = np.empty((block, k))
    fresh = np.empty((block, k), np.int64)
    rngs = iter(rngs)
    while True:
        rows = 0
        for rng in islice(rngs, block):
            repeats[rows] = rng.random(k)
            fresh[rows] = rng.integers(0, n_actions, k)
            rows += 1
        if not rows:
            return
        # Each frame's source is its own index, or 0 where it repeats, and
        # the running maximum is the last frame that does not repeat; frame
        # 0 is its own source either way.
        source = np.where(repeats[:rows] < REPEAT_P, 0, frame)
        np.maximum.accumulate(source, axis=1, out=source)
        actions = np.take_along_axis(fresh[:rows], source, axis=1)
        row_of, col = np.nonzero(actions[:, 1:] != actions[:, :-1])
        cuts = np.bincount(row_of, minlength=rows).cumsum().tolist()
        ends = (col + 1).tolist()
        first = 0
        for row, cut in zip(actions.tolist(), cuts):
            yield RolloutPlan(row, ends[first:cut] + [k])
            first = cut


def explore_from(
    env: GridWorld,
    origin: int,
    archive: Archive,
    plan: RolloutPlan,
    mapper: CellMapper,
) -> RolloutResult:
    """Restore the archived snapshot of cell id ``origin``, take the
    actions of ``plan`` (see :func:`plan_rollouts`), and sum up the visits
    per cell. If the episode ends (:meth:`GridWorld.step`'s done rule), the
    rollout stops and the final transition is discarded: it has no
    destination cell.

    Each frame's cell key, room and level come from ``env``'s column for
    ``mapper``, indexed by the state id after the step; ``features()`` and
    ``mapper`` run only for an id the column lacks, and fill it in.

    ``archive`` must stand as it did at selection time: the caller merges
    only after all of a batch's rollouts. A visit wins if it beats, by the
    merge rule of :func:`archex.archive.beats`, both the archive record of
    its cell (when there is one, read from the archive's score and length
    columns) and the cell's earlier winner in this
    rollout; only winners are snapshotted, and each cell keeps its last
    winner, which is the best of its visits. A losing visit only counts.
    Trajectory nodes are built at the end, along the rollout's actions up
    to its last winning step, so every winner shares the one chain. This is
    all the merge needs: between selection and this rollout's merge,
    records only improve (by earlier rollouts of the batch), so no visit
    that loses here can be added or improve a record, and a cell's last
    winner beats its current record iff any of its visits does.

    A frame whose step returns the state it left, with no reward and not
    done, is processed in full, and then the rest of its run of equal
    actions is counted, not stepped: each of those frames is the same
    table entry (the table is a pure function of state and action), so it
    visits the same cell with the same score and a longer trajectory, which
    cannot win. They add visits, frames and length. The time limit still
    applies: a run that reaches it counts the frames before it as visits,
    and its limit frame ends the rollout as a stepped one would. A table
    clear hands ids out again, so after a miss the step is compared with
    the id ``GridWorld._miss`` returns for the state it left.
    """
    # The archive's columns, only read here: each cell's id, and its best
    # visit's score, length, tail node and state by id.
    ids, scores, lengths = archive._cell_ids, archive._scores, archive._lengths
    env.restore(EnvSnapshot(archive._state_bytes[origin]))
    env._require_live()

    actions, ends = plan
    column = env.column(mapper)
    found: dict[CellKey, list] = {}  # key -> [visits, score, length, snapshot, id]
    base = length = lengths[origin]
    rooms: set[int] = set()
    max_level = 0
    # GridWorld.step inline: the world's id, score and frame count live in
    # locals, and are settled into it before it snapshots, maps or is left.
    table_next, table_result = env._next, env._result
    sid, score, start_frames = env.state_id, env._score, env._training_frames
    frames_left = env._frame_limit - start_frames
    frames = 0
    terminated = False
    for end in ends:
        action = actions[frames]
        while frames < end:
            at = sid * ACTION_COUNT + action
            nid = table_next[at]
            if nid is None:
                sid, nid, result = env._miss(sid, action)
            else:
                result = table_result[at]
            frames += 1
            score += result.reward
            if result.done or frames >= frames_left:
                terminated = True
                break
            length += 1
            stays = nid == sid and not result.reward
            sid = nid
            mapped = column[sid]
            if mapped is None:
                env._settle(sid, score, start_frames + frames, False)
                info = env.features()
                mapped = column[sid] = (mapper(env, info), info.room, info.level)
            key, room, level = mapped
            entry = found.get(key)
            if entry is None:
                held = ids.get(key)
                entry = found[key] = [0, *(_NO_BAR if held is None
                                           else (scores[held], lengths[held])), None, held]
            entry[0] += 1
            if beats(score, length, entry[1], entry[2]):
                entry[1] = score
                entry[2] = length
                env._settle(sid, score, start_frames + frames, False)
                entry[3] = env.snapshot()
            rooms.add(room)
            if level > max_level:
                max_level = level
            if stays:
                # The rest of the run repeats this frame, up to the time limit.
                rest = min(end, frames_left - 1) - frames
                entry[0] += rest
                length += rest
                frames += rest
                if frames < end:  # the limit frame: counted, and it visits no cell
                    frames += 1
                    terminated = True
                    break
        if terminated:
            break
    env._settle(sid, score, start_frames + frames, terminated)

    last = max((entry[2] for entry in found.values() if entry[3] is not None), default=base)
    nodes = []  # nodes[i] ends the trajectory of length base + i + 1
    tail = archive._tails[origin]
    for action in actions[:last - base]:
        tail = Node(action, tail)
        nodes.append(tail)
    visits = {
        key: CellVisits(n, Trajectory(nodes[won_len - base - 1], won_len), snapshot, held)
        if snapshot is not None else CellVisits(n, None, None, held)
        for key, (n, _, won_len, snapshot, held) in found.items()
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
    its visit count, and the visits of the others, which were archived at
    selection time, are added to their ``times_seen`` by id at the end, all
    at once (:meth:`Archive.count_visits`): no merge decision reads a visit
    count."""
    stats = IterationStats()
    seen_ids: list[int] = []
    seen_visits: list[int] = []
    for result in results:
        discovered = False
        for key, (visits, trajectory, snapshot, cell_id) in result.cells.items():
            if snapshot is None:
                seen_ids.append(cell_id)
                seen_visits.append(visits)
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
    archive.count_visits(seen_ids, seen_visits)
    return stats


def run_iteration(
    archive: Archive,
    env: GridWorld,
    sel_cfg: SelectionConfig,
    cfg: ExploreConfig,
    iteration: int,
    mapper: CellMapper,
) -> IterationStats:
    """One batch: recompute probabilities once, sample b origin ids with
    replacement, roll out, merge."""
    table = cell_probs(archive, sel_cfg)
    origins = sample_batch(table, cfg.batch, stream(cfg.seed, TAG_SELECT, iteration))
    archive.record_chosen(origins)
    return _roll_out(archive, env, cfg, mapper, origins, TAG_EXPLORE, iteration)


def _roll_out(
    archive: Archive,
    env: GridWorld,
    cfg: ExploreConfig,
    mapper: CellMapper,
    origins: list[int],
    tag: int,
    iteration: int,
) -> IterationStats:
    """Explore from each origin id on the plan of stream (seed, tag,
    iteration, worker), then merge the results in worker order."""
    rngs = (stream(cfg.seed, tag, iteration, worker) for worker in range(len(origins)))
    plans = plan_rollouts(rngs, cfg, env.action_count)
    results = [explore_from(env, origin, archive, plan, mapper)
               for origin, plan in zip(origins, plans)]
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
    iteration wrote none; :func:`check_metric_rows` bounds them before any
    work. ``resume`` continues a previous leg bit-exactly: streams are
    derived from the iteration index, so its archive and meta are all the
    state there is, and its metrics (cut by :func:`_resumed_metrics`) seed
    the series, whose ``wall_seconds`` carry on. Its archive must come from this environment config and name only
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
    check_metric_rows(cfg, env.frame_skip)
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
            origins = [archive.id_of(start_key)] * cfg.batch
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
