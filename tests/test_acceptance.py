"""Acceptance criteria, one test per criterion.

Each test prints a single "ACCEPTANCE n: PASS/FAIL" line (visible with
pytest -s or on failure) and asserts the criterion at its stated tolerance.
Runtimes are desk-scale: the full module runs in well under the per-criterion
caps.
"""

import csv
import functools
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable

import numpy as np
import pytest
from mpmath import mp, mpf
from scipy import stats as scipy_stats

from archex.archive import Archive
from archex.cells import DomainKey, domain_mapper
from archex.cli import main as cli_main
from archex.envs import DeceptiveCorridor, KeyDoorWorld, TwoMaze
from archex.evaluation import EvalProtocol, bootstrap_ci, evaluate_policy, grand_mean
from archex.explore import (
    ExploreConfig,
    baseline_from_start,
    replay_record,
    run_phase1,
)
from archex.robustify import (
    BackwardConfig,
    TabularQConfig,
    TabularQLearner,
    backward_run,
    early_terminate,
    select_demonstrations,
    truncate_demo,
)
from archex.seeding import TAG_EVAL, stream
from archex.selection import (
    COUNT_POWER,
    EPS1,
    EPS2,
    LEVEL_DECAY,
    SelectionConfig,
    cell_probs,
    count_subscores,
    sample_batch,
)
from archex.trajectory import Trajectory

from conftest import bfs_reachable_states, step_and_render
from oracle import missing_slots, myopic_greedy_baseline, set_counters, slot_weights

mp.dps = 50

pytestmark = pytest.mark.acceptance


# Criteria 4-7 run their ten seeds in this many processes.
SEED_WORKERS = min(os.cpu_count() or 1, 10)


def by_seed(run: Callable) -> list:
    """``run(seed)`` for seeds 0-9, spread over ``SEED_WORKERS`` spawned
    processes and gathered in seed order; ``run`` must be a module-level
    function (or a partial of one) so that it pickles."""
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=SEED_WORKERS, mp_context=spawn) as pool:
        return list(pool.map(run, range(10)))


def report(n: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {n:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n} failed: {detail}"


# ---------------------------------------------------------------------------
# 1. Formula oracle
# ---------------------------------------------------------------------------


def test_criterion_01_formula_oracle():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(10_000):
        v = int(rng.integers(0, 10**6))
        w = float(rng.uniform(0, 10))
        p = float(rng.uniform(0.1, 2.0))
        e1 = float(rng.uniform(1e-4, 1e-2))
        e2 = float(rng.uniform(1e-6, 1e-4))
        got = float(count_subscores(np.array([v], np.float64), w, p, e1, e2)[0])
        want = mpf(str(w)) * (1 / (mpf(v) + mpf(str(e1)))) ** mpf(str(p)) + mpf(str(e2))
        worst = max(worst, abs(got - float(want)) / float(want))

    env = TwoMaze(arm_rows=2, arm_cols=3)
    snap = env.reset(0)[1]
    for trial in range(50):
        trng = np.random.default_rng(trial)
        cfg = SelectionConfig(
            w_chosen=float(trng.uniform(0, 2)),
            w_chosen_since_new=float(trng.uniform(0, 2)),
            w_seen=float(trng.uniform(0, 2)),
            w_horizontal=float(trng.uniform(0, 1)),
            w_vertical=float(trng.uniform(0, 1)),
            w_more_keys=float(trng.uniform(0, 10)),
            domain_mode=bool(trng.integers(2)),
        )
        archive = Archive(env.config_hash)
        keys = []
        for i in range(40):
            key = DomainKey(int(trng.integers(0, 12)), int(trng.integers(0, 12)),
                            0, int(trng.integers(0, 3)), ())
            if key in archive:
                continue
            archive.insert_or_update(key, Trajectory(), snap)
            set_counters(archive, key, int(trng.integers(0, 100)), int(trng.integers(0, 30)),
                         int(trng.integers(1, 1000)))
            keys.append(key)
        table = cell_probs(archive, cfg)
        oracle_scores = []
        for key in archive.sorted_keys():
            record = archive.record(key)
            counts = mpf(0)
            for v, w in (
                (record.times_chosen, cfg.w_chosen),
                (record.times_chosen_since_new, cfg.w_chosen_since_new),
                (record.times_seen, cfg.w_seen),
            ):
                counts += (mpf(str(w)) * (1 / (mpf(v) + mpf(str(EPS1)))) ** mpf(str(COUNT_POWER))
                           + mpf(str(EPS2)))
            neigh = mpf(0)
            if cfg.domain_mode:
                mask = missing_slots(archive, key)
                for bit, w in enumerate(slot_weights(cfg)):
                    if mask >> bit & 1:
                        neigh += mpf(str(w))
            lw = mpf(str(LEVEL_DECAY)) ** (archive.max_level - key.level) if cfg.domain_mode else mpf(1)
            oracle_scores.append(lw * (neigh + counts + 1))
        total = sum(oracle_scores)
        for i, got_score in enumerate(table.scores):
            worst = max(worst, abs(got_score - float(oracle_scores[i])) / float(oracle_scores[i]))
            want_prob = float(oracle_scores[i] / total)
            worst = max(worst, abs(table.probs[i] - want_prob) / want_prob)
    report(1, worst <= 1e-9, f"max relative error vs oracle {worst:.2e} (<= 1e-9)")


# ---------------------------------------------------------------------------
# 2. Selection distribution
# ---------------------------------------------------------------------------


def test_criterion_02_selection_distribution():
    env = TwoMaze(arm_rows=2, arm_cols=3)
    snap = env.reset(0)[1]
    archive = Archive(env.config_hash)
    rng = np.random.default_rng(7)
    while len(archive) < 50:
        key = DomainKey(int(rng.integers(0, 40)), int(rng.integers(0, 40)), 0, 0, ())
        if key in archive:
            continue
        archive.insert_or_update(key, Trajectory(), snap)
        set_counters(archive, key, int(rng.integers(0, 40)), int(rng.integers(0, 10)),
                     int(rng.integers(1, 400)))
    table = cell_probs(archive, SelectionConfig())
    draws = 100_000
    picks = sample_batch(table, draws, stream(11, TAG_EVAL, 2))
    ids = table.ids.tolist()
    counts = {cell_id: 0 for cell_id in ids}
    for cell_id in picks:
        counts[cell_id] += 1
    observed = [counts[cell_id] for cell_id in ids]
    expected = [p * draws for p in table.probs]
    result = scipy_stats.chisquare(observed, expected)
    report(2, result.pvalue > 0.01,
           f"chi-square GOF over 50 cells, 1e5 draws: p = {result.pvalue:.4f} (> 0.01)")


# ---------------------------------------------------------------------------
# 3. Replay soundness
# ---------------------------------------------------------------------------


def _suite_archives():
    jobs = [
        (lambda: TwoMaze(arm_rows=6, arm_cols=14), domain_mapper(1), 40_000,
         SelectionConfig(domain_mode=True, w_horizontal=1.0, w_chosen=1.0,
                         w_chosen_since_new=0.5, w_seen=0.0)),
        (lambda: KeyDoorWorld(rooms_rows=2, rooms_cols=3, room_w=5, room_h=5,
                              keys=((1, 4, 1),), locked_doors=((4, 5), (2, 5)),
                              hazards=((3, 2, 2),), treasure_room=5),
         domain_mapper(1), 60_000,
         SelectionConfig(domain_mode=True, w_horizontal=0.3, w_vertical=0.1,
                         w_more_keys=10.0)),
        (lambda: DeceptiveCorridor(n_rooms=8, room_w=8, room_h=5,
                                   treasures=((2, 2000.0), (4, 3000.0), (6, 2500.0))),
         domain_mapper(1), 60_000,
         SelectionConfig(domain_mode=True, w_chosen=1.0, w_chosen_since_new=0.5,
                         w_seen=0.0, w_horizontal=1.0)),
    ]
    out = []
    for factory, mapper, budget, sel in jobs:
        cfg = ExploreConfig(k=60, batch=20, budget_training_frames=budget,
                            seed=3, metric_interval_game_frames=10**9)
        out.append((factory, mapper, run_phase1(factory, cfg, sel, mapper).archive))
    return out


def test_criterion_03_replay_soundness():
    rng = np.random.default_rng(17)
    checked = 0
    for factory, mapper, archive in _suite_archives():
        env, env2 = factory(), factory()
        for key in archive.sorted_keys():
            record = archive.record(key)
            replay_record(env, record, key, mapper)  # score/key/snapshot exact
            # continuation equivalence: restore vs replayed tail
            suffix = [int(a) for a in rng.integers(0, env.action_count, 15)]
            env.restore(record.snapshot)
            a_stream = []
            for action in suffix:
                if env.done:
                    break
                a_stream.append(step_and_render(env, action))
            env2.reset(0)
            for action in record.trajectory.actions():
                env2.step(action)
            b_stream = []
            for action in suffix:
                if env2.done:
                    break
                b_stream.append(step_and_render(env2, action))
            assert a_stream == b_stream
            checked += 1
    report(3, checked >= 1000, f"{checked} archived cells replay-verified (>= 1000)")


# ---------------------------------------------------------------------------
# 4. Detachment reproduction
# ---------------------------------------------------------------------------


def _detachment_seed(oracle: set, seed: int) -> tuple[bool, bool]:
    """One seed of criterion 4: (Phase 1 covers the oracle's states, the
    from-start baseline covers under 60% of them)."""
    factory = lambda: TwoMaze(arm_rows=6, arm_cols=14)
    mapper = domain_mapper(1)
    sel = SelectionConfig(domain_mode=True, w_horizontal=1.0, w_vertical=0.0,
                          w_chosen=1.0, w_chosen_since_new=0.5, w_seen=0.0)
    cfg = ExploreConfig(k=100, batch=50,
                        budget_training_frames=200_000, seed=seed,
                        metric_interval_game_frames=10**9)
    coverage = lambda a: len({(k.x_bin, k.y_bin) for k in a.cells} & oracle) / len(oracle)
    return (coverage(run_phase1(factory, cfg, sel, mapper).archive) == 1.0,
            coverage(baseline_from_start(factory, cfg, mapper).archive) < 0.60)


def test_criterion_04_detachment():
    oracle = {(s[0], s[1]) for s in
              bfs_reachable_states(TwoMaze(arm_rows=6, arm_cols=14), max_level=0)}
    results = by_seed(functools.partial(_detachment_seed, oracle))
    full = sum(covered for covered, _ in results)
    starved = sum(short for _, short in results)
    report(4, full >= 9 and starved >= 9,
           f"phase1 full coverage in {full}/10 seeds, baseline < 60% in {starved}/10")


# ---------------------------------------------------------------------------
# 5. Sparse-reward milestone
# ---------------------------------------------------------------------------


def _sparse_milestone_seed(final_room: int, seed: int) -> tuple[bool, bool]:
    """One seed of criterion 5: (the final room of level 1 is reached, the
    metrics' max score and room count never fall)."""
    factory = lambda: KeyDoorWorld()
    mapper = domain_mapper(2)
    sel = SelectionConfig(domain_mode=True, w_chosen=0.0, w_chosen_since_new=0.0,
                          w_seen=0.0, w_horizontal=0.3, w_vertical=0.1,
                          w_more_keys=10.0)

    def milestone(archive, meta):
        return any(
            isinstance(k, DomainKey) and k.level == 1 and k.room == final_room
            for k in archive.cells
        )

    cfg = ExploreConfig(k=100, batch=100,
                        budget_training_frames=5_000_000, seed=seed,
                        metric_interval_game_frames=250_000)
    result = run_phase1(factory, cfg, sel, mapper, stop_condition=milestone)
    scores = [row.max_score for row in result.metrics]
    rooms = [row.rooms for row in result.metrics]
    return (milestone(result.archive, result.meta),
            scores == sorted(scores) and rooms == sorted(rooms))


def test_criterion_05_sparse_milestone():
    env = KeyDoorWorld()  # 4x6 rooms, 2 keys, levels repeat
    rows, cols, _, _ = env.rooms
    assert rows * cols >= 24 and len(env.key_positions) == 2
    results = by_seed(functools.partial(_sparse_milestone_seed, rows * cols - 1))
    reached = sum(hit for hit, _ in results)
    monotone = all(rising for _, rising in results)
    report(5, reached >= 9 and monotone,
           f"final room of level 1 within 5M frames in {reached}/10 seeds; "
           f"metrics monotone: {monotone}")


# ---------------------------------------------------------------------------
# 6. Deceptive-reward milestone
# ---------------------------------------------------------------------------


def _deceptive_milestone_seed(seed: int) -> tuple[bool, bool]:
    """One seed of criterion 6: (the reward-greedy control ends at or below
    0, Phase 1 reaches 90% of the attainable total)."""
    factory = lambda: DeceptiveCorridor()
    attainable = sum(factory().treasure_values)
    mapper = domain_mapper(2)
    sel = SelectionConfig(domain_mode=True, w_chosen=1.0, w_chosen_since_new=0.5,
                          w_seen=0.0, w_horizontal=1.0, w_vertical=0.0)
    greedy_ok = myopic_greedy_baseline(factory, 2_000, seed=seed) <= 0

    def target(archive, meta):
        return archive.max_score() >= 0.9 * attainable

    cfg = ExploreConfig(k=100, batch=100,
                        budget_training_frames=4_000_000, seed=seed,
                        metric_interval_game_frames=10**9)
    result = run_phase1(factory, cfg, sel, mapper, stop_condition=target)
    return greedy_ok, result.archive.max_score() >= 0.9 * attainable


def test_criterion_06_deceptive_milestone():
    results = by_seed(_deceptive_milestone_seed)
    greedy_ok = sum(ok for ok, _ in results)
    reached = sum(hit for _, hit in results)
    report(6, greedy_ok == 10 and reached >= 9,
           f"greedy baseline <= 0 in {greedy_ok}/10 seeds; "
           f"phase1 >= 90% of attainable total in {reached}/10 seeds")


# ---------------------------------------------------------------------------
# 7. Robustification
# ---------------------------------------------------------------------------


def _robustify_once(seed: int) -> tuple[bool, float, float]:
    factory = lambda: KeyDoorWorld(
        rooms_rows=2, rooms_cols=2, room_w=5, room_h=5,
        keys=((1, 4, 1),), locked_doors=((2, 3), (1, 3)), hazards=(),
        treasure_room=3, time_limit_game_frames=4_000,
    )
    explore_cfg = ExploreConfig(k=40, batch=20, budget_training_frames=40_000,
                                seed=seed, metric_interval_game_frames=10**9)
    sel = SelectionConfig(domain_mode=True, w_horizontal=0.3, w_vertical=0.1,
                          w_more_keys=10.0)
    phase1 = run_phase1(factory, explore_cfg, sel, domain_mapper(1))
    demo = select_demonstrations([phase1.archive], 1, factory())[0]
    treasure_frame = next(
        i for i in range(1, demo.length + 1) if demo.reward_at(i) >= 1000.0
    )
    demo = truncate_demo(demo, max_frames=treasure_frame, to_last_reward=True)

    cfg = BackwardConfig(
        success_threshold=0.4, advance_interval=50, delta=8, window=50,
        allowed_deficit=0.0, sticky_p=0.25, max_noops=30,
        max_attempts=60_000, rollout_frame_cap=400,
    )
    learner = TabularQLearner(5, TabularQConfig(alpha=0.3, gamma=0.98, epsilon=0.1))
    result = backward_run([demo], learner, factory, cfg, seed=seed)
    anchored = result.min_starting_point() == 0

    protocol = EvalProtocol(max_noop=30, min_episodes=5, sticky_p=0.25,
                            time_limit_game_frames=4_000)
    outcome = evaluate_policy(learner.policy(), factory, protocol, seed=1000 + seed)
    return anchored, outcome.grand_mean, demo.score


def test_criterion_07_robustification():
    successes = 0
    details = []
    for anchored, gmean, demo_score in by_seed(_robustify_once):
        ok = anchored and gmean >= demo_score
        successes += ok
        details.append(f"{gmean:.0f}{'*' if ok else '!'}")
    report(7, successes >= 8,
           f"{successes}/10 runs anchored at 0 with grand mean >= demo score "
           f"(grand means: {' '.join(details)})")


# ---------------------------------------------------------------------------
# 8. Early-termination semantics
# ---------------------------------------------------------------------------


def test_criterion_08_early_termination_example():
    demo_cum = [0.0] * 20 + [100.0] * 181  # 100 points at step 20
    behind = 99.0  # a rollout from frame 0 stuck at 99 points
    kill_at_70 = (
        not early_terminate(behind, demo_cum, 0, 69, 50, 0.0)
        and early_terminate(behind, demo_cum, 0, 70, 50, 0.0)
    )
    survives = not any(
        early_terminate(behind, demo_cum, 0, t, 50, 250.0) for t in range(200)
    )
    report(8, kill_at_70 and survives,
           "A.7.3-style window example: deficit 0 terminates exactly at step 70, "
           "deficit 250 survives")


# ---------------------------------------------------------------------------
# 9. Evaluation protocol
# ---------------------------------------------------------------------------


def test_criterion_09_eval_protocol():
    rng = np.random.default_rng(0)
    table = {n: [float(rng.integers(0, 1000)) for _ in range(5)] for n in range(31)}
    scores = [(n, s) for n, row in table.items() for s in row]
    gmean, per_noop = grand_mean(scores)
    expect = sum(sum(v) / len(v) for v in table.values()) / 31
    arithmetic_ok = gmean == pytest.approx(expect, rel=1e-12) and len(per_noop) == 31

    trials = 2000
    covered = 0
    boot_rng = stream(99, TAG_EVAL, 9)
    sample_rng = np.random.default_rng(321)
    for _ in range(trials):
        samples = sample_rng.normal(0.0, 1.0, size=30)
        lo, hi = bootstrap_ci(samples, n_resamples=1000, rng=boot_rng)
        covered += lo <= 0.0 <= hi
    coverage = covered / trials
    report(9, arithmetic_ok and 0.93 <= coverage <= 0.97,
           f"grand-mean arithmetic exact; pivotal CI coverage {coverage:.3f} in [0.93, 0.97]")


# ---------------------------------------------------------------------------
# 10. Reproducibility and persistence
# ---------------------------------------------------------------------------


def _strip_wall(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return [row[:-1] for row in rows]


def test_criterion_10_reproducibility(tmp_path):
    config = tmp_path / "exp.cfg"
    config.write_text(
        "env.type = twomaze\nenv.arm_rows = 3\nenv.arm_cols = 6\n"
        "explore.k = 20\nexplore.batch = 5\nexplore.seed = 0\n"
        "explore.metric_interval_game_frames = 2000\n"
    )
    blobs, metrics = [], []
    for workers in ("1", "3", "8"):
        out = tmp_path / f"w{workers}"
        code = cli_main(["explore", "--config", str(config), "--workers", workers,
                         "--budget-frames", "2000", "--out", str(out)])
        assert code == 0
        blobs.append((out / "archive.ckpt").read_bytes())
        metrics.append(_strip_wall(out / "metrics.csv"))
    workers_ok = blobs[0] == blobs[1] == blobs[2] and metrics[0] == metrics[1] == metrics[2]

    straight = tmp_path / "straight"
    cli_main(["explore", "--config", str(config), "--budget-frames", "3000",
              "--out", str(straight)])
    part = tmp_path / "part"
    cli_main(["explore", "--config", str(config), "--budget-frames", "1500",
              "--out", str(part)])
    resumed = tmp_path / "resumed"
    cli_main(["explore", "--config", str(config), "--budget-frames", "3000",
              "--resume", str(part / "archive.ckpt"), "--out", str(resumed)])
    resume_ok = (straight / "archive.ckpt").read_bytes() == (resumed / "archive.ckpt").read_bytes()

    report(10, workers_ok and resume_ok,
           f"bit-identical across worker counts: {workers_ok}; "
           f"resume N+M equivalence: {resume_ok}")
