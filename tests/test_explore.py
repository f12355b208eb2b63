"""Exploration loop semantics: rollouts, merging, budgets, reproducibility."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from archex.archive import Archive, deserialize_archive, serialize_archive
from archex.cells import domain_mapper
from archex.envs import ACTION_NOOP
from archex.errors import ContractError
from archex.explore import (
    ExploreConfig,
    Phase1Result,
    baseline_from_start,
    explore_from,
    merge_results,
    run_iteration,
    run_phase1,
)
from archex.seeding import TAG_EXPLORE, stream
from archex.selection import SelectionConfig
from archex.trajectory import Trajectory

from conftest import drive, small_corridor, small_keydoor, small_twomaze
from oracle import myopic_greedy_baseline

MAPPER = domain_mapper(1)


def seeded_archive(env, seed=0):
    obs, snap = env.reset(seed)
    archive = Archive(env.config_hash)
    key = MAPPER(obs, obs.features)
    archive.insert_or_update(key, Trajectory(), 0.0, 0, snap)
    return archive, key


def cfg_with(**kw):
    kw.setdefault("k", 20)
    kw.setdefault("batch_size", 5)
    kw.setdefault("budget_training_frames", 2000)
    kw.setdefault("seed", 0)
    kw.setdefault("metric_interval_game_frames", 10**9)
    return ExploreConfig(**kw)


# -- explore_from -----------------------------------------------------------------


def test_rollout_consumes_k_frames():
    env = small_twomaze()
    archive, key = seeded_archive(env)
    result = explore_from(env, key, archive, np.random.default_rng(0),
                          cfg_with(), MAPPER)
    assert result.frames == 20
    assert not result.terminated
    assert len(result.visited) == 20


def test_rollout_stops_at_episode_end_and_discards_terminal():
    env = small_twomaze(time_limit_game_frames=10 * 4)  # 10 training frames
    archive, key = seeded_archive(env)
    result = explore_from(env, key, archive, np.random.default_rng(0),
                          cfg_with(k=50), MAPPER)
    assert result.terminated
    assert result.frames == 10           # the fatal frame is counted
    assert len(result.visited) == 9      # ... but records no destination cell


def test_rollout_repeat_zero_matches_enumeration():
    """repeat_p=0: every action is the fresh draw from the fixed stream."""
    env = small_twomaze()
    archive, key = seeded_archive(env)
    cfg = cfg_with(repeat_p=0.0)
    result = explore_from(env, key, archive, stream(9, TAG_EXPLORE, 0, 0), cfg, MAPPER)
    rng = stream(9, TAG_EXPLORE, 0, 0)
    rng.random(cfg.k)  # repeat draws, unused at p=0
    expect = [int(a) for a in rng.integers(0, env.action_count, cfg.k)]
    got = [v.trajectory.actions()[-1] for v in result.visited]
    assert got == expect


def test_rollout_trajectories_extend_origin():
    env = small_twomaze()
    archive, key = seeded_archive(env)
    result = explore_from(env, key, archive, np.random.default_rng(1),
                          cfg_with(), MAPPER)
    origin_len = archive.record(key).traj_len
    for i, visit in enumerate(result.visited, start=1):
        assert visit.trajectory.length == origin_len + i
    for visit in result.visited:
        if visit.key != key:
            assert visit.trajectory.length > origin_len
            break


def test_rollout_scores_track_env():
    """Each visit's score is the env's: restored from its snapshot, or
    replayed from reset along its trajectory when it has none."""
    env = small_corridor()
    archive, key = seeded_archive(env)
    result = explore_from(env, key, archive, np.random.default_rng(3),
                          cfg_with(k=100), MAPPER)
    assert any(v.snapshot is None for v in result.visited)
    for visit in result.visited:
        if visit.snapshot is not None:
            env.restore(visit.snapshot)
        else:
            env.reset(0)
            drive(env, visit.trajectory.actions())
        assert env.cum_score == visit.score


def test_rollout_snapshots_exactly_the_possible_winners():
    """A visit carries a snapshot iff it beats its cell's archived record and
    the cell's earlier visits in the rollout: higher score, or equal score
    and shorter trajectory."""
    env = small_corridor()  # moving costs points, so scores fall and rise
    archive, key = seeded_archive(env)
    for it in range(3):
        run_iteration(archive, env, SelectionConfig(), cfg_with(k=60), it, MAPPER)
    origin = archive.sorted_keys()[len(archive) // 2]
    result = explore_from(env, origin, archive, np.random.default_rng(4),
                          cfg_with(k=100), MAPPER)
    best = {k: (r.score, r.traj_len) for k, r in archive.cells.items()}
    for visit in result.visited:
        length = visit.trajectory.length
        bar = best.get(visit.key)
        wins = bar is None or visit.score > bar[0] or (visit.score == bar[0] and length < bar[1])
        assert (visit.snapshot is not None) == wins
        if wins:
            best[visit.key] = (visit.score, length)
    kept = sum(v.snapshot is not None for v in result.visited)
    assert 0 < kept < len(result.visited)


# -- run_iteration ------------------------------------------------------------------


def test_first_iteration_chooses_start_b_times():
    env = small_twomaze()
    archive, key = seeded_archive(env)
    cfg = cfg_with(batch_size=7)
    run_iteration(archive, env, SelectionConfig(), cfg, 0, MAPPER)
    assert archive.record(key).times_chosen == 7


def test_discovery_resets_since_new_once():
    env = small_twomaze()
    archive, key = seeded_archive(env)
    cfg = cfg_with(batch_size=1, k=30)
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
    """An Improved outcome must also reset the origin's since-new counter."""
    env = small_twomaze()
    archive, key = seeded_archive(env)
    record = archive.record(key)
    from archex.explore import RolloutResult, VisitedCell

    env.restore(record.snapshot)
    env.step(ACTION_NOOP)
    snap = env.snapshot()
    better = VisitedCell(key, 0.0, Trajectory(), snap)  # same score, len 0 is not shorter
    # craft a strictly better candidate for an existing second cell instead
    env.reset(0)
    env.step(3)
    other_key = MAPPER(env.observe(), env.observe().features)
    first = VisitedCell(other_key, 0.0, Trajectory().extend(3).extend(0), env.snapshot())
    archive.insert_or_update(other_key, first.trajectory, 0.0, 2, first.snapshot)
    archive.record_chosen(key)
    shorter = VisitedCell(other_key, 0.0, Trajectory().extend(3), env.snapshot())
    merge_results(archive, [RolloutResult(key, [shorter], 1, False, set(), 0)])
    assert archive.record(other_key).traj_len == 1
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
