"""Exploration loop semantics: rollouts, merging, budgets, reproducibility."""

import hashlib
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from archex.archive import Archive, CellRecord, deserialize_archive, serialize_archive
from archex.cells import domain_mapper
from archex.errors import ConfigError, ContractError
import archex.explore as X
from archex.explore import (
    CellVisits,
    ExploreConfig,
    Phase1Result,
    RolloutResult,
    baseline_from_start,
    explore_from,
    merge_results,
    plan_rollouts,
    run_iteration,
    run_phase1,
)
from archex.seeding import TAG_EXPLORE, stream
from archex.selection import SelectionConfig
from archex.trajectory import Trajectory

import oracle
from conftest import (
    ReadLog,
    drive,
    note_clears,
    small_corridor,
    small_keydoor,
    small_twomaze,
)
from oracle import extend, myopic_greedy_baseline

MAPPER = domain_mapper(1)


def seeded_archive(env, seed=0):
    obs, snap = env.reset(seed)
    archive = Archive(env.config_hash)
    key = MAPPER(obs, obs.features)
    archive.insert_or_update(key, Trajectory(), snap)
    return archive, key


def cfg_with(**kw):
    kw.setdefault("k", 20)
    kw.setdefault("batch", 5)
    kw.setdefault("budget_training_frames", 2000)
    kw.setdefault("seed", 0)
    kw.setdefault("metric_interval_game_frames", 10**9)
    return ExploreConfig(**kw)


# -- explore_from -----------------------------------------------------------------


def grown_archive(env, iterations=3):
    archive, _ = seeded_archive(env)
    for it in range(iterations):
        run_iteration(archive, env, SelectionConfig(), cfg_with(k=60), it, MAPPER)
    return archive


def roll(env, origin, archive, rng, cfg, mapper):
    """:func:`explore_from` from cell id ``origin`` on the plan of ``rng``,
    as a batch plans it."""
    plan = next(plan_rollouts([rng], cfg, env.action_count))
    return explore_from(env, origin, archive, plan, mapper)


def winners(result):
    return [c for c in result.cells.values() if c.snapshot is not None]


def test_rollout_consumes_k_frames():
    env = small_twomaze()
    archive, key = seeded_archive(env)
    result = roll(env, archive.id_of(key), archive, np.random.default_rng(0),
                  cfg_with(), MAPPER)
    assert result.frames == 20
    assert not result.terminated
    assert sum(c.visits for c in result.cells.values()) == 20


def test_rollout_stops_at_episode_end_and_discards_terminal():
    env = small_twomaze(time_limit_game_frames=10 * 4)  # 10 training frames
    archive, key = seeded_archive(env)
    result = roll(env, archive.id_of(key), archive, np.random.default_rng(0),
                  cfg_with(k=50), MAPPER)
    assert result.terminated
    assert result.frames == 10           # the fatal frame is counted
    assert sum(c.visits for c in result.cells.values()) == 9  # ... but visits no cell
    assert all(c.trajectory.length <= 9 for c in winners(result))


def test_rollout_repeat_zero_matches_enumeration(monkeypatch):
    """REPEAT_P = 0: every action is the fresh draw from the fixed stream.
    Stepping the drawn actions from the origin visits the rollout's cells as
    often as it counts them, and every winner's trajectory is a prefix of
    the drawn actions."""
    monkeypatch.setattr(X, "REPEAT_P", 0.0)
    env = small_twomaze()
    archive, key = seeded_archive(env)
    cfg = cfg_with()
    result = roll(env, archive.id_of(key), archive, stream(9, TAG_EXPLORE, 0, 0), cfg, MAPPER)
    rng = stream(9, TAG_EXPLORE, 0, 0)
    rng.random(cfg.k)  # repeat draws, unused at p=0
    expect = [int(a) for a in rng.integers(0, env.action_count, cfg.k)]
    env.restore(archive.record(key).snapshot)
    counts = Counter()
    for action in expect:
        env.step(action)
        counts[MAPPER(env, env.features())] += 1
    assert {k: c.visits for k, c in result.cells.items()} == counts
    for cell in winners(result):
        assert cell.trajectory.actions() == expect[:cell.trajectory.length]


def test_rollout_trajectories_extend_origin():
    """Winners' trajectories continue the origin's chain within the frames
    stepped, and all of them lie on one chain of the rollout's actions."""
    env = small_keydoor()
    archive = grown_archive(env, iterations=2)
    origin = max(archive.cells, key=lambda k: archive.record(k).traj_len)
    record = archive.record(origin)
    result = roll(env, archive.id_of(origin), archive, np.random.default_rng(2),
                  cfg_with(), MAPPER)
    found = winners(result)
    assert len(found) > 1 and record.traj_len > 0
    longest = max(found, key=lambda c: c.trajectory.length)
    chain = set()
    node = longest.trajectory.tail
    while node is not record.trajectory.tail:
        chain.add(node)
        node = node.parent
    for cell in found:
        assert record.traj_len < cell.trajectory.length <= record.traj_len + result.frames
        assert cell.trajectory.actions()[:record.traj_len] == record.trajectory.actions()
        assert cell.trajectory.tail in chain


def test_rollout_scores_track_env():
    """Each winner's score is the env's, restored from its snapshot or
    replayed from reset along its trajectory; a cell that only lost carries
    no trajectory or snapshot, and its archive id."""
    env = small_corridor()
    archive = grown_archive(env)
    origin = archive.sorted_ids().tolist()[len(archive) // 2]
    result = roll(env, origin, archive, np.random.default_rng(3), cfg_with(k=100), MAPPER)
    losers = {k: c for k, c in result.cells.items() if c.snapshot is None}
    assert losers and all(c[1:] == (None, None, archive.id_of(k)) for k, c in losers.items())
    for key, cell in result.cells.items():
        if cell.snapshot is None:
            continue
        env.restore(cell.snapshot)
        assert env.cum_score == cell.snapshot.cum_score
        env.reset(0)
        drive(env, cell.trajectory.actions())
        assert env.cum_score == cell.snapshot.cum_score
        assert MAPPER(env, env.features()) == key
        assert env.snapshot() == cell.snapshot


def test_rollout_snapshots_exactly_the_possible_winners():
    """A cell carries the snapshot of its last visit that beat its archived
    record and the cell's earlier winners in the rollout (higher score, or
    equal score and shorter trajectory), and none if no visit did. The
    visits are the per-visit oracle's, taken on the same stream. Here the
    hazards pay a point and send the agent back to the room's edge, so the
    rollout returns to cells with a higher score and some cells win twice."""
    env = small_corridor(hazard_penalty=1.0)
    archive = grown_archive(env)
    origin = archive.sorted_ids().tolist()[2]
    cfg = cfg_with(k=100)
    result = roll(env, origin, archive, np.random.default_rng(2), cfg, MAPPER)
    visited = oracle.explore_from(env, origin, archive, np.random.default_rng(2), cfg,
                                  MAPPER).visited
    best = {k: (r.score, r.traj_len) for k, r in archive.cells.items()}
    expect = {}
    wins = Counter()
    for visit in visited:
        n, win = expect.get(visit.key, (0, None))
        length = visit.trajectory.length
        bar = best.get(visit.key)
        if bar is None or visit.score > bar[0] or (visit.score == bar[0] and length < bar[1]):
            best[visit.key] = (visit.score, length)
            win = visit
            wins[visit.key] += 1
        expect[visit.key] = (n + 1, win)
    assert max(wins.values()) > 1
    assert list(result.cells) == list(expect)  # first-visit order
    for key, (n, win) in expect.items():
        cell = result.cells[key]
        assert cell.visits == n
        if win is None:
            assert cell.snapshot is None
        else:
            assert (cell.snapshot.cum_score, cell.trajectory.length, cell.snapshot) == (
                win.score, win.trajectory.length, win.snapshot)
            assert cell.trajectory.actions() == win.trajectory.actions()
    kept = len(winners(result))
    assert 0 < kept < len(result.cells)


# -- run_iteration ------------------------------------------------------------------


def test_first_iteration_chooses_start_b_times():
    env = small_twomaze()
    archive, key = seeded_archive(env)
    cfg = cfg_with(batch=7)
    run_iteration(archive, env, SelectionConfig(), cfg, 0, MAPPER)
    assert archive.record(key).times_chosen == 7


def test_discovery_resets_since_new_once():
    env = small_twomaze()
    archive, key = seeded_archive(env)
    cfg = cfg_with(batch=1, k=30)
    run_iteration(archive, env, SelectionConfig(), cfg, 0, MAPPER)
    record = archive.record(key)
    # the single rollout discovered multiple cells; credit once
    assert len(archive) > 2
    assert record.times_chosen == 1
    assert record.times_chosen_since_new == 0


def test_merge_order_deterministic():
    env = small_twomaze()
    cfg = cfg_with()
    fingerprints = []
    for _ in range(2):
        archive, key = seeded_archive(env)
        for it in range(3):
            run_iteration(archive, env, SelectionConfig(), cfg, it, MAPPER)
        fingerprints.append(serialize_archive(archive))
    assert fingerprints[0] == fingerprints[1]


def test_merge_credits_improvement():
    """An Improved outcome must also reset the origin's since-new counter,
    and the merge counts all of the rollout's visits to the cell."""
    env = small_twomaze()
    archive, key = seeded_archive(env)
    env.reset(0)
    env.step(3)
    other_key = MAPPER(env.observe(), env.observe().features)
    archive.insert_or_update(other_key, extend(extend(Trajectory(), 3), 0), env.snapshot())
    origin = archive.id_of(key)
    archive.record_chosen([origin])
    shorter = CellVisits(2, extend(Trajectory(), 3), env.snapshot())
    merge_results(archive, [RolloutResult(origin, {other_key: shorter}, 1, False, set(), 0)])
    assert archive.record(other_key).traj_len == 1
    assert archive.record(other_key).times_seen == 3
    assert archive.record(key).times_chosen_since_new == 0


# -- run_phase1 ----------------------------------------------------------------------


def test_budget_zero_start_cell_only():
    result = run_phase1(small_twomaze, cfg_with(budget_training_frames=0),
                        SelectionConfig(), MAPPER)
    assert len(result.archive) == 1
    assert result.meta.training_frames == 0
    assert len(result.metrics) == 1
    assert result.metrics[0].cells == 1


def test_phase1_deterministic_bit_exact():
    cfg = cfg_with(budget_training_frames=3000)
    a = run_phase1(small_twomaze, cfg, SelectionConfig(), MAPPER)
    b = run_phase1(small_twomaze, cfg, SelectionConfig(), MAPPER)
    assert serialize_archive(a.archive, a.meta) == serialize_archive(b.archive, b.meta)
    strip = [row._replace(wall_seconds=0.0) for row in a.metrics]
    strip_b = [row._replace(wall_seconds=0.0) for row in b.metrics]
    assert strip == strip_b


def test_phase1_frame_accounting():
    result = run_phase1(small_twomaze, cfg_with(budget_training_frames=1500),
                        SelectionConfig(), MAPPER)
    env = small_twomaze()
    assert result.meta.game_frames == result.meta.training_frames * env.frame_skip
    assert result.meta.training_frames >= 1500  # stops at first crossing


def test_phase1_bounds_its_metrics_rows_before_any_work():
    """A run whose game frames could cross more than ``MAX_METRIC_ROWS``
    metric intervals raises ``ConfigError`` before its first iteration; one
    at the bound passes the check."""
    cfg = cfg_with(k=20, batch=5, budget_training_frames=X.MAX_METRIC_ROWS // 4 - 100)
    X.check_metric_rows(replace(cfg, metric_interval_game_frames=1), 4)
    over = replace(cfg, budget_training_frames=cfg.budget_training_frames + 1,
                   metric_interval_game_frames=1)
    with pytest.raises(ConfigError, match="metric_interval_game_frames"):
        X.check_metric_rows(over, 4)
    iterations = []
    with pytest.raises(ConfigError):
        run_phase1(small_twomaze, over, SelectionConfig(), MAPPER,
                   on_iteration=lambda run: iterations.append(run.meta.iteration))
    assert iterations == []


def test_phase1_metrics_monotone():
    cfg = cfg_with(budget_training_frames=4000,
                   metric_interval_game_frames=800)
    result = run_phase1(small_twomaze, cfg, SelectionConfig(), MAPPER)
    cells = [row.cells for row in result.metrics]
    scores = [row.max_score for row in result.metrics]
    assert cells == sorted(cells)
    assert scores == sorted(scores)
    assert len(result.metrics) >= 3


def test_phase1_resume_equivalence():
    cfg_full = cfg_with(budget_training_frames=3000)
    full = run_phase1(small_twomaze, cfg_full, SelectionConfig(), MAPPER)

    cfg_half = cfg_with(budget_training_frames=1500)
    half = run_phase1(small_twomaze, cfg_half, SelectionConfig(), MAPPER)
    resumed = run_phase1(small_twomaze, cfg_full, SelectionConfig(), MAPPER, resume=half)
    assert serialize_archive(resumed.archive, resumed.meta) == serialize_archive(
        full.archive, full.meta
    )


def strip_wall(rows):
    return [row._replace(wall_seconds=0.0) for row in rows]


def test_phase1_resumed_metrics_sweep():
    """Each iteration steps 400 game frames against a sample interval of 150,
    so one iteration crosses two or three samples. From every resume point
    the series reads as the straight run's, wall_seconds aside: resuming the
    leg that ended there, resuming it with nothing left to run, and resuming
    the straight run's own checkpoint with all its rows (a crash after the
    metrics write and before the checkpoint)."""
    cfg = cfg_with(budget_training_frames=1500, metric_interval_game_frames=150)
    checkpoints = []
    full = run_phase1(small_twomaze, cfg, SelectionConfig(), MAPPER,
                      on_iteration=lambda run: checkpoints.append(
                          serialize_archive(run.archive, run.meta)))
    assert len(checkpoints) == 15 and len(full.metrics) > 2 * len(checkpoints)

    for budget in range(0, 1500, 100):
        leg = run_phase1(small_twomaze, replace(cfg, budget_training_frames=budget),
                         SelectionConfig(), MAPPER)
        first = list(leg.metrics)
        spent = run_phase1(small_twomaze, replace(cfg, budget_training_frames=budget),
                           SelectionConfig(), MAPPER, resume=leg)
        assert strip_wall(spent.metrics) == strip_wall(first)
        resumed = run_phase1(small_twomaze, cfg, SelectionConfig(), MAPPER, resume=leg)
        assert strip_wall(resumed.metrics) == strip_wall(full.metrics)
        assert resumed.metrics[:len(first) - 1] == first[:-1]
        wall = [row.wall_seconds for row in resumed.metrics]
        assert wall == sorted(wall)

    for blob in checkpoints:
        archive, meta = deserialize_archive(blob)
        resumed = run_phase1(small_twomaze, cfg, SelectionConfig(), MAPPER,
                             resume=Phase1Result(archive, meta, full.metrics))
        assert strip_wall(resumed.metrics) == strip_wall(full.metrics)


def test_phase1_stop_condition():
    hits = []

    def stop(archive, meta):
        hits.append(meta.training_frames)
        return len(archive) >= 10

    result = run_phase1(small_twomaze, cfg_with(budget_training_frames=10**6),
                        SelectionConfig(), MAPPER, stop_condition=stop)
    assert len(result.archive) >= 10
    assert result.meta.training_frames < 10**6


# -- baseline -------------------------------------------------------------------------


def test_baseline_budget_zero():
    result = baseline_from_start(small_twomaze, cfg_with(budget_training_frames=0), MAPPER)
    assert len(result.archive) == 1


def test_baseline_deterministic():
    cfg = cfg_with(budget_training_frames=2000)
    a = baseline_from_start(small_twomaze, cfg, MAPPER)
    b = baseline_from_start(small_twomaze, cfg, MAPPER)
    assert serialize_archive(a.archive) == serialize_archive(b.archive)
    strip = lambda rows: [r._replace(wall_seconds=0.0) for r in rows]
    assert strip(a.metrics) == strip(b.metrics)


def test_baseline_shadow_archive_untouched_by_selection():
    """The shadow archive records discoveries but never drives selection, so
    no cell ever accrues a chosen count."""
    cfg = cfg_with(budget_training_frames=2000)
    result = baseline_from_start(small_twomaze, cfg, MAPPER)
    assert len(result.archive) > 1
    assert all(r.times_chosen == 0 for _, r in result.archive.cells.items())


def test_baseline_does_not_resume():
    """The from-start control knows its start cell only from a fresh seed."""
    run = run_phase1(small_twomaze, cfg_with(budget_training_frames=200),
                     SelectionConfig(), MAPPER)
    with pytest.raises(ContractError):
        run_phase1(small_twomaze, cfg_with(), None, MAPPER,
                   resume=run)


BASELINE_GOLDEN = {
    # name: (factory, budget, metric interval, stop at this many cells,
    #        shadow archive sha256, metrics rows without wall_seconds, final meta)
    "twomaze": (
        small_twomaze, 2000, 3000, None,
        "5763723bb0fd273d561650ef54ab65e2b651cd87853f9b49dca85f11d864e68e",
        [(3200, 800, 17, 1, 0.0, 0), (6000, 1500, 19, 1, 0.0, 0),
         (8000, 2000, 19, 1, 0.0, 0)],
        (20, 2000, 8000, {0}, 0),
    ),
    "keydoor": (
        small_keydoor, 6000, 4000, 50,
        "c8dad60a631eedb339fabe40adf6e4cf1f66c887352eefe145cfcee971f254df",
        [(4000, 1000, 34, 3, 100.0, 0), (8000, 2000, 45, 3, 100.0, 0),
         (10000, 2500, 50, 3, 100.0, 0)],
        (25, 2500, 10000, {0, 1, 2}, 0),
    ),
}


@pytest.mark.parametrize("name", sorted(BASELINE_GOLDEN))
def test_baseline_golden(name):
    """Pinned shadow-archive bytes, metrics rows and final meta of the
    from-start control, computed before it shared the Phase-1 loop."""
    factory, budget, interval, stop_cells, digest, rows, meta = BASELINE_GOLDEN[name]
    cfg = cfg_with(budget_training_frames=budget, seed=3,
                   metric_interval_game_frames=interval)
    stop = None if stop_cells is None else (lambda archive, _: len(archive) >= stop_cells)
    result = baseline_from_start(factory, cfg, MAPPER, stop_condition=stop)
    assert hashlib.sha256(serialize_archive(result.archive)).hexdigest() == digest
    assert [tuple(r)[:-1] for r in result.metrics] == rows
    m = result.meta
    assert (m.seed, m.iteration, m.training_frames, m.game_frames,
            set(m.rooms_seen), m.max_level_seen) == (3, *meta)


# -- per-visit oracle ------------------------------------------------------------------


def per_iteration(monkeypatch, explore, merge, factory, cfg, sel_cfg, mapper):
    """Run Phase 1 with the given rollout and merge functions: the
    checkpoint bytes after every iteration, each iteration's merged frames,
    rooms and max level and each rollout's frames and termination, and the
    metrics rows without wall_seconds."""
    stats = []

    def merge_and_record(archive, results):
        merged = merge(archive, results)
        stats.append((merged.frames, sorted(merged.rooms), merged.max_level,
                      [(r.frames, r.terminated) for r in results]))
        return merged

    checkpoints = []
    with monkeypatch.context() as patch:
        if explore is oracle.explore_from:
            # The oracle takes each rollout's stream and draws per frame.
            patch.setattr(X, "plan_rollouts", lambda rngs, cfg, n_actions: rngs)
            patch.setattr(X, "explore_from", lambda env, origin, archive, rng, mapper:
                          oracle.explore_from(env, origin, archive, rng, cfg, mapper))
        else:
            patch.setattr(X, "explore_from", explore)
        patch.setattr(X, "merge_results", merge_and_record)
        run = run_phase1(factory, cfg, sel_cfg, mapper, on_iteration=lambda r: checkpoints.append(
            serialize_archive(r.archive, r.meta)))
    return checkpoints, stats, strip_wall(run.metrics)


def downscale():
    from archex.cells import DownscaleParams, downscale_mapper
    return downscale_mapper(DownscaleParams(width=8, height=6, depth=8))


KEYDOOR_SELECTION = SelectionConfig(domain_mode=True, w_horizontal=0.3, w_vertical=0.1,
                                    w_more_keys=10.0)
ORACLE_CASES = {
    # name: (env factory, mapper factory, selection config or None, explore settings)
    "keydoor": (small_keydoor, lambda: MAPPER, KEYDOOR_SELECTION, {}),
    "keydoor-time-limit": (lambda: small_keydoor(time_limit_game_frames=30 * 4),
                           lambda: MAPPER, KEYDOOR_SELECTION, {}),
    "corridor": (small_corridor, lambda: MAPPER, SelectionConfig(), {"k": 60}),
    # Hazards that pay and send the agent back: cells win more than once per rollout.
    "corridor-paying-hazards": (lambda: small_corridor(hazard_penalty=1.0), lambda: MAPPER,
                                SelectionConfig(), {}),
    "twomaze-downscale": (small_twomaze, downscale, SelectionConfig(), {}),
    "corridor-from-start": (small_corridor, lambda: MAPPER, None, {"k": 60}),
}


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_rollout_merge_matches_per_visit_oracle(monkeypatch, name):
    """Merging once per (rollout, cell) leaves the archive and run meta the
    per-visit fold leaves, byte for byte after every iteration, with the
    same frames, rooms and max level per iteration and the same metrics."""
    factory, mapper, sel_cfg, settings = ORACLE_CASES[name]
    cfg = cfg_with(budget_training_frames=6000, metric_interval_game_frames=1000,
                   seed=5, **settings)
    rollouts = []

    def spied(env, origin, archive, plan, mapper):
        snapshot = CellRecord(archive, origin).snapshot
        result = explore_from(env, origin, archive, plan, mapper)
        rollouts.append((snapshot, plan, result))
        return result

    got = per_iteration(monkeypatch, spied, merge_results, factory, cfg, sel_cfg, mapper())
    want = per_iteration(monkeypatch, oracle.explore_from, oracle.merge_results, factory,
                         cfg, sel_cfg, mapper())
    assert len(got[0]) >= 20
    assert got == want
    archive, _ = deserialize_archive(got[0][-1])
    assert len(archive) > 10
    assert any(r.times_seen > 1 for r in archive.cells.values())
    if name == "keydoor-time-limit":
        # No hazards: only the time limit ends an episode, here mid-rollout.
        ended = [frames for *_, rollouts in got[1] for frames, terminated in rollouts
                 if terminated]
        assert any(1 < frames < cfg.k for frames in ended)
        # Some rollout counts its limit frame without stepping it: an
        # earlier frame of its last run stays put with no reward.
        env = factory()
        assert any(limit_in_counted_run(env, snapshot, plan, result.frames)
                   for snapshot, plan, result in rollouts if result.terminated)


def limit_in_counted_run(env, snapshot, plan, frames):
    """Whether a rollout from ``snapshot`` along ``plan`` that the time
    limit ends at ``frames`` reaches its limit frame in a run of equal
    actions that an earlier frame of the run repeats in place: a step that
    returns the state it left, with no reward. Steps the frames before the
    limit frame."""
    limit = frames - 1
    run_start = max(end for end in [0, *plan.ends] if end <= limit)
    env.restore(snapshot)
    for i, action in enumerate(plan.actions[:limit]):
        state = env.discrete_state()
        result = env.step(action)
        if i >= run_start and not result.reward and env.discrete_state() == state:
            return True
    return False


# -- the world's column against the per-visit oracle -----------------------------------


DOWNSCALE_PARAMS = dict(width=8, height=6, depth=8)
MEMO_CASES = {
    # name: (env factory, budget); the keydoor run reaches level 1, where the
    # frames of level 0 come back under other states.
    "twomaze": (small_twomaze, 4000),
    "corridor": (small_corridor, 4000),
    "keydoor": (small_keydoor, 8000),
}


def spied_mapper(mapper, calls):
    """``mapper``, appending ``(world, state id, state)`` to ``calls`` each
    time it maps a world rather than an observation."""
    from archex.envs.gridworld import GridWorld

    def spied(source, info):
        if isinstance(source, GridWorld):
            calls.append((id(source), source.state_id, source.discrete_state()))
        return mapper(source, info)

    return spied


@pytest.mark.parametrize("name", sorted(MEMO_CASES))
def test_downscale_memo_matches_unmemoised_mapper(monkeypatch, name):
    """Keys read from the world's column leave the checkpoint bytes
    the per-visit oracle leaves with the un-memoised mapper, after every
    iteration, and explore calls the mapper, which renders, once per state
    id: the table never clears here, so once per distinct state."""
    from archex.cells import DownscaleParams, downscale_mapper
    from archex.envs.gridworld import GridWorld

    factory, budget = MEMO_CASES[name]
    params = DownscaleParams(**DOWNSCALE_PARAMS)
    cfg = cfg_with(budget_training_frames=budget, metric_interval_game_frames=1000, seed=5)
    calls = []
    render = GridWorld.render
    renders = []
    monkeypatch.setattr(GridWorld, "render", lambda env: renders.append(1) or render(env))
    got = per_iteration(monkeypatch, explore_from, merge_results, factory, cfg,
                        SelectionConfig(), spied_mapper(downscale_mapper(params), calls))
    states = {state for _, _, state in calls}
    assert len({sid for _, sid, _ in calls}) == len(calls) == len(states)
    assert len(renders) == 1 + len(states)  # one at construction, for the start observation
    monkeypatch.undo()
    want = per_iteration(monkeypatch, oracle.explore_from, oracle.merge_results, factory, cfg,
                         SelectionConfig(), oracle.plain_downscale_mapper(params))
    assert len(got[0]) >= 40
    assert got == want
    if name == "keydoor":
        assert max(level for _, _, level, _ in got[1]) >= 1


def visits_of(visited):
    """A per-visit oracle rollout's cells in first-visit order, with their
    visit counts."""
    return list(Counter(visit.key for visit in visited).items())


def test_downscale_memo_keeps_worlds_apart():
    """One mapper explores two worlds in turn whose start states are equal
    but whose frames differ (a hazard tile): each world keeps its own
    column, so each rollout gets its own world's keys, as the per-visit
    oracle maps them, and the mapper runs once per (world, state id)."""
    from archex.cells import DownscaleParams, downscale_cell, downscale_mapper

    params = DownscaleParams(**DOWNSCALE_PARAMS)
    worlds = [small_keydoor(), small_keydoor(hazards=((0, 0, 0),))]
    for env in worlds:
        env.reset(0)
    assert worlds[0].discrete_state() == worlds[1].discrete_state()
    assert worlds[0].config_hash != worlds[1].config_hash
    starts = [downscale_cell(env.render(), params) for env in worlds]
    assert starts[0] != starts[1]
    calls = []
    mapper = spied_mapper(downscale_mapper(params), calls)
    archives = [seeded_archive(env)[0] for env in worlds]
    plain = oracle.plain_downscale_mapper(params)
    cfg = cfg_with(k=40)
    for i in range(6):
        got = []
        for env, archive in zip(worlds, archives):
            origin = archive.sorted_ids().tolist()[0]
            result = roll(env, origin, archive, stream(0, TAG_EXPLORE, i, 0), cfg, mapper)
            want = oracle.explore_from(env, origin, archive, stream(0, TAG_EXPLORE, i, 0), cfg,
                                       plain)
            assert [(k, c.visits) for k, c in result.cells.items()] == visits_of(want.visited)
            got.append(set(result.cells))
        assert got[0] != got[1]
    assert len({(world, sid) for world, sid, _ in calls}) == len(calls) > 20


def clears_after_first_frame(patch) -> list:
    """Patch ``GridWorld`` so that each table clear made by a miss from a
    state other than the one the world last restored, so after a rollout's
    first frame, appends that state to the returned list."""
    from archex.envs.gridworld import GridWorld

    restore, miss = GridWorld.restore, GridWorld._miss
    restored, cleared, clears = {}, note_clears(patch), []

    def noting_restore(self, snap):
        restore(self, snap)
        restored[id(self)] = self.discrete_state()

    def noting_miss(self, sid, action):
        state, before = self._states[sid], len(cleared)
        entry = miss(self, sid, action)
        if len(cleared) > before and state != restored.get(id(self)):
            clears.append(state)
        return entry

    patch.setattr(GridWorld, "restore", noting_restore)
    patch.setattr(GridWorld, "_miss", noting_miss)
    return clears


COLUMN_WORLDS = {"twomaze": lambda: small_twomaze(arm_rows=5, arm_cols=10),
                 "corridor": small_corridor, "keydoor": small_keydoor}
COLUMN_MAPPERS = {"domain": lambda: MAPPER, "downscale": downscale}


@pytest.mark.parametrize("mapper_name", sorted(COLUMN_MAPPERS))
@pytest.mark.parametrize("world", sorted(COLUMN_WORLDS))
def test_column_matches_per_visit_oracle_across_table_clears(monkeypatch, world, mapper_name):
    """With a 20-state table, which clears mid-rollout and hands its ids out
    again, keys read from the column leave the archive bytes, frames, rooms
    and levels of the per-visit oracle, which maps every frame. Some state
    is mapped more than once: a clear emptied its entry."""
    import archex.envs.gridworld as gridworld

    monkeypatch.setattr(gridworld, "STATE_TABLE_LIMIT", 20)
    cfg = cfg_with(budget_training_frames=4000, metric_interval_game_frames=1000, seed=5)
    calls = []
    with monkeypatch.context() as patch:
        clears = clears_after_first_frame(patch)
        got = per_iteration(monkeypatch, explore_from, merge_results, COLUMN_WORLDS[world],
                            cfg, SelectionConfig(),
                            spied_mapper(COLUMN_MAPPERS[mapper_name](), calls))
    want = per_iteration(monkeypatch, oracle.explore_from, oracle.merge_results,
                         COLUMN_WORLDS[world], cfg, SelectionConfig(),
                         COLUMN_MAPPERS[mapper_name]())
    assert len(got[0]) >= 40
    assert got == want
    assert len(calls) > len({state for _, _, state in calls}) > 20
    assert clears



def per_cell(visited):
    """A per-visit oracle rollout's visits folded per cell, in first-visit
    order: the visit count and the last visit that won, or ``None``."""
    cells = {}
    for visit in visited:
        n, won = cells.get(visit.key, (0, None))
        cells[visit.key] = (n + 1, visit if visit.snapshot is not None else won)
    return cells


def world_state(env):
    return env.discrete_state(), env.cum_score, env.frame_counters(), env.done


@pytest.mark.parametrize("limit", [2, 3, 5, 8, 13])
@pytest.mark.parametrize("mapper_name", sorted(COLUMN_MAPPERS))
@pytest.mark.parametrize("world", sorted(COLUMN_WORLDS))
def test_counted_runs_match_per_visit_oracle_across_table_clears(monkeypatch, world,
                                                                 mapper_name, limit):
    """Rollouts that count the rest of a run in place of stepping it give
    the per-visit oracle's frames, termination, rooms, max level, visits
    per cell, winners' trajectory lengths and snapshot bytes, and leave the
    world as it does, under tables of ``limit`` states. Such a table clears
    on most misses and hands its ids out again, so a new state often gets
    the id the state left had: a step is a self-loop only if it returns
    the id the clear gave the state left. Most frames are counted, not
    stepped."""
    import archex.envs.gridworld as gridworld

    factory, mapper = COLUMN_WORLDS[world], COLUMN_MAPPERS[mapper_name]()
    archive = run_phase1(factory, cfg_with(budget_training_frames=1000), SelectionConfig(),
                         mapper).archive
    monkeypatch.setattr(gridworld, "STATE_TABLE_LIMIT", limit)
    reads = ReadLog(factory)
    env = reads()
    env.reset(0)
    cfg = cfg_with(k=100)
    origins = archive.sorted_ids().tolist()
    frames = stepped = 0
    with monkeypatch.context() as patch:
        clears = clears_after_first_frame(patch)
        for i in range(40):
            origin = origins[i % len(origins)]
            before = len(reads.reads[-1])
            got = roll(env, origin, archive, stream(2, TAG_EXPLORE, i, 0), cfg, mapper)
            stepped += len(reads.reads[-1]) - before
            got_world = world_state(env)
            want = oracle.explore_from(env, origin, archive, stream(2, TAG_EXPLORE, i, 0), cfg,
                                       mapper)
            assert got_world == world_state(env)
            assert (got.frames, got.terminated, got.rooms, got.max_level) == (
                want.frames, want.terminated, want.rooms, want.max_level)
            expect = per_cell(want.visited)
            assert list(got.cells) == list(expect)
            for key, (n, won) in expect.items():
                cell = got.cells[key]
                assert cell.visits == n
                if won is None:
                    assert cell.snapshot is None and cell.trajectory is None
                else:
                    assert cell.trajectory.length == won.trajectory.length
                    assert cell.snapshot.state_bytes == won.snapshot.state_bytes
            frames += got.frames
    assert clears
    assert stepped < frames / 2


def test_planning_holds_one_block_at_a_time():
    """Planning a batch of ``MAX_BATCH`` rollouts of ``MAX_K`` frames, 2^40
    draws of each kind, or of 100 frames, holds one block of draws, at most
    ``max(k, 65_536)`` of each kind, and derives the streams of one block
    at a time. Only the first blocks are planned; nothing is rolled out."""
    import tracemalloc
    from itertools import islice

    for k in (X.MAX_K, 100):
        cfg = ExploreConfig(k=k, batch=X.MAX_BATCH)
        block = max(1, X._PLAN_DRAWS // k)
        derived = []
        rngs = (derived.append(worker) or stream(0, TAG_EXPLORE, 0, worker)
                for worker in range(cfg.batch))
        tracemalloc.start()
        try:
            plans = plan_rollouts(rngs, cfg, 5)
            for i, (actions, ends) in enumerate(islice(plans, 3 * block)):
                assert len(derived) == (i // block + 1) * block
                assert len(actions) == ends[-1] == k
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 8 * max(k, X._PLAN_DRAWS)


def test_column_follows_the_mapper_it_is_handed(monkeypatch):
    """One world explored with three mappers in turn, under a 20-state
    table: every rollout visits the cells, in order and with the counts,
    that the per-visit oracle gives under the same mapper, so a column
    filled for one mapper never answers for another."""
    import archex.envs.gridworld as gridworld
    from archex.cells import domain_mapper

    monkeypatch.setattr(gridworld, "STATE_TABLE_LIMIT", 20)
    mappers = [MAPPER, domain_mapper(2), downscale()]
    archives = [run_phase1(small_keydoor, cfg_with(budget_training_frames=1000),
                           SelectionConfig(), mapper).archive for mapper in mappers]
    env = small_keydoor()
    cfg = cfg_with(k=60)
    for i in range(10):
        for mapper, archive in zip(mappers, archives):
            origin = archive.sorted_ids().tolist()[i % len(archive)]
            result = roll(env, origin, archive, stream(1, TAG_EXPLORE, i, 0), cfg, mapper)
            want = oracle.explore_from(env, origin, archive, stream(1, TAG_EXPLORE, i, 0), cfg,
                                       mapper)
            assert [(k, c.visits) for k, c in result.cells.items()] == visits_of(want.visited)


# -- myopic greedy baseline -------------------------------------------------------------


def test_phase1_downscale_representation_end_to_end(tmp_path):
    """The downscaled-frame representation drives the loop and survives a
    checkpoint round trip."""
    from archex.archive import checkpoint_load, checkpoint_save
    from archex.cells import DownscaledKey, DownscaleParams, downscale_mapper
    from archex.explore import replay_record

    mapper = downscale_mapper(DownscaleParams(width=8, height=6, depth=8))
    cfg = cfg_with(budget_training_frames=3000)
    result = run_phase1(small_twomaze, cfg, SelectionConfig(), mapper)
    assert len(result.archive) > 5
    assert all(isinstance(k, DownscaledKey) for k in result.archive.cells)

    path = tmp_path / "downscaled.ckpt"
    checkpoint_save(result.archive, path, result.meta)
    loaded, _ = checkpoint_load(path)
    assert loaded.sorted_keys() == result.archive.sorted_keys()

    env = small_twomaze()
    for key in loaded.sorted_keys()[:10]:
        replay_record(env, loaded.record(key), key, mapper)


def test_myopic_baseline_stalls_on_deceptive_corridor():
    best = myopic_greedy_baseline(small_corridor, 500, seed=0)
    assert best <= 0


def test_myopic_baseline_takes_positive_immediate_reward():
    """With a key one step away it must grab it."""
    env_factory = lambda: small_keydoor(keys=((0, 3, 2),))  # right of spawn
    best = myopic_greedy_baseline(env_factory, 5, seed=0)
    assert best >= 100.0
