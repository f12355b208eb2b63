"""Evaluation protocol arithmetic and bootstrap statistics."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from archex.archive import write_csv
from archex.envs.base import ACTION_LEFT, frame_limit
from archex.errors import ConfigError, ContractError
from archex.evaluation import (
    EvalProtocol,
    _resample_means,
    bootstrap_ci,
    emit_report,
    evaluate_policy,
    grand_mean,
    percentile_band,
    uniform_actions,
)
from archex.explore import MetricsRow
from archex.robustify import GreedyTabularPolicy
from archex.seeding import TAG_EVAL, stream

from conftest import (
    ENV_FACTORIES,
    assert_matches_scalar_draws,
    bfs_reachable_states,
    noop_policy,
    note_clears,
    small_corridor,
    small_keydoor,
    small_twomaze,
)
from oracle import resample_means_oneshot


# -- grand mean ------------------------------------------------------------------


def test_grand_mean_constant_scores():
    scores = [(n, 7.5) for n in range(31) for _ in range(5)]
    gmean, per_noop = grand_mean(scores)
    assert gmean == 7.5
    assert len(per_noop) == 31


def test_grand_mean_constructed_table():
    """noop-0 episodes all zero, the rest all 31 -> grand mean 30."""
    scores = [(0, 0.0)] * 5 + [(n, 31.0) for n in range(1, 31) for _ in range(5)]
    gmean, per_noop = grand_mean(scores)
    assert gmean == pytest.approx((0 + 30 * 31) / 31)
    assert per_noop[0] == 0.0


def test_grand_mean_differs_from_pooled_mean():
    """Unequal episode counts: 6 episodes at noop 0, 1 at noop 1."""
    scores = [(0, 0.0)] * 6 + [(1, 10.0)]
    gmean, _ = grand_mean(scores)
    pooled = 10.0 / 7
    assert gmean == 5.0
    assert gmean != pytest.approx(pooled)


def test_grand_mean_invariant_to_duplication():
    scores = [(n, float(n)) for n in range(31) for _ in range(5)]
    gmean, _ = grand_mean(scores)
    doubled = scores + [(7, 7.0)] * 5
    gmean2, _ = grand_mean(doubled)
    assert gmean == pytest.approx(gmean2)


def test_grand_mean_of_a_sweep_table():
    """A constructed 31 x 5 score table reproduces the 31-mean average exactly."""
    rng = np.random.default_rng(0)
    table = {n: [float(rng.integers(0, 100)) for _ in range(5)] for n in range(31)}
    gmean, per_noop = grand_mean((n, score) for n, row in table.items() for score in row)
    expect_per_noop = {n: sum(v) / 5 for n, v in table.items()}
    assert per_noop == pytest.approx(expect_per_noop)
    assert gmean == pytest.approx(sum(expect_per_noop.values()) / 31)


# -- evaluate_policy ----------------------------------------------------------------


def test_evaluate_policy_grand_mean_arithmetic():
    """The paper's sweep on a real world: 5 episodes for each of the 31
    no-op counts, in order, and the grand mean of their raw scores."""
    protocol = EvalProtocol(max_noop=30, min_episodes=5, sticky_p=0.25,
                            time_limit_game_frames=400)
    result = evaluate_policy(GreedyTabularPolicy({}, 5), small_corridor, protocol, seed=0)
    assert len(result.scores) == 31 * 5
    assert [(n, e) for n, e, _ in result.scores] == [(n, e) for n in range(31) for e in range(5)]
    assert {n for n, _, _ in result.scores} == set(range(31))
    assert len({score for *_, score in result.scores}) > 1
    gmean, per_noop = grand_mean((n, score) for n, _, score in result.scores)
    assert (result.grand_mean, result.per_noop) == (gmean, per_noop)


@pytest.mark.parametrize("n_actions", [4, 6])
def test_evaluate_policy_rejects_another_action_count(n_actions):
    """A policy whose action count is not the world's raises before any
    frame is stepped: a 6-action policy's action 5 would read the next
    state's row of the table."""
    worlds = []

    def make_world():
        worlds.append(small_keydoor())
        return worlds[-1]

    start = small_keydoor().discrete_state()
    q = {start: [0.0] * (n_actions - 1) + [1.0]}
    protocol = EvalProtocol(max_noop=2, min_episodes=1, sticky_p=0.0,
                            time_limit_game_frames=200)
    with pytest.raises(ContractError, match="actions"):
        evaluate_policy(GreedyTabularPolicy(q, n_actions), make_world, protocol)
    assert worlds[0].frame_counters() == (0, 0)


def test_evaluate_policy_reproducible_on_real_env():
    policy = GreedyTabularPolicy({}, 5)  # acts uniformly at random
    protocol = EvalProtocol(max_noop=3, min_episodes=2, sticky_p=0.25,
                            time_limit_game_frames=400)
    a = evaluate_policy(policy, small_keydoor, protocol, seed=4)
    b = evaluate_policy(policy, small_keydoor, protocol, seed=4)
    assert a.scores == b.scores


def test_do_nothing_policy_scores_zero():
    protocol = EvalProtocol(max_noop=2, min_episodes=1, sticky_p=0.25,
                            time_limit_game_frames=200)
    result = evaluate_policy(noop_policy(small_keydoor()), small_keydoor, protocol, seed=0)
    assert result.grand_mean == 0.0


@pytest.mark.parametrize("limit_of", ["world", "evaluation"])
def test_time_limit_off_the_skip_grid_ends_evaluation_where_the_world_does(limit_of):
    """A limit of 9 game frames at frame_skip 4 ends an episode at the first
    step whose game frames reach it, at (12, 3), whether the world's own
    limit or the evaluation protocol's sets it (``frame_limit``)."""
    worlds = []

    def make_world():
        worlds.append(small_twomaze(frame_skip=4, time_limit_game_frames=9
                                    if limit_of == "world" else 400_000))
        return worlds[-1]

    protocol = EvalProtocol(max_noop=0, min_episodes=1, sticky_p=0.0,
                            time_limit_game_frames=9 if limit_of == "evaluation" else 400_000)
    evaluate_policy(noop_policy(small_twomaze()), make_world, protocol)
    assert worlds[0].frame_counters() == (12, 3)


# Raw scores of the sweep below at sticky_p 0.25, from when the sticky
# stream was built at every reset, before any uniform was drawn.
STICKY_SCORES = [-15.0, -17.0, -20.0, -16.0, -12.0, -13.0, -13.0, -10.0]


@pytest.mark.parametrize("sticky_p", [0.0, 0.25])
def test_sticky_stream_built_only_where_drawn(monkeypatch, sticky_p):
    """An episode's sticky uniforms build their stream at its first draw: a
    sweep at sticky_p 0 builds none, and one at 0.25 builds one per episode
    and keeps its scores."""
    import archex.envs.wrappers as W

    built = []
    real = W.stream
    monkeypatch.setattr(W, "stream", lambda *args: built.append(args) or real(*args))
    protocol = EvalProtocol(max_noop=3, min_episodes=2, sticky_p=sticky_p,
                            time_limit_game_frames=2_400)
    result = evaluate_policy(GreedyTabularPolicy({}, 5), small_corridor, protocol, seed=31)
    if sticky_p == 0.0:
        assert built == []
    else:
        assert len(built) == len(result.scores) == 8
        assert [score for *_, score in result.scores] == STICKY_SCORES


# -- fallback actions drawn in blocks -------------------------------------------------


@pytest.mark.parametrize("n", [2, 5, 7])
def test_block_integers_equal_scalar_integers(n):
    """The numpy property the evaluation's fallback blocks rest on: on an
    episode stream, after the reset-seed draw ``integers(2**63)``, blocks of
    ``integers(n, size=256)`` give the same values as one ``integers(n)``
    call each. A numpy release that breaks it fails here by name."""
    for noop, episode in [(0, 0), (3, 1), (30, 4)]:
        blocks, scalars = stream(9, TAG_EVAL, noop, episode), stream(9, TAG_EVAL, noop, episode)
        blocks.integers(2**63)
        scalars.integers(2**63)
        drawn = [v for _ in range(4) for v in blocks.integers(n, size=256).tolist()]
        assert drawn == [int(scalars.integers(n)) for _ in range(4 * 256)]


def test_uniform_actions_draws_one_block_at_a_time():
    rng, reference = stream(2, TAG_EVAL, 0, 0), stream(2, TAG_EVAL, 0, 0)
    state = rng.bit_generator.state
    actions = uniform_actions(rng, 5)
    assert rng.bit_generator.state == state  # nothing drawn before the first action
    first = [next(actions) for _ in range(256)]
    assert first == reference.integers(5, size=256).tolist()
    assert rng.bit_generator.state == reference.bit_generator.state
    assert next(actions) == int(reference.integers(5))


def checkerboard_table(make_env):
    """Q rows for the states on even squares (x + y even), each greedy in
    the action whose next state the breadth-first search from the start
    found last; staying put and dying rank below every move. Known and
    unknown frames then alternate, and the greedy actions carry the agent
    away from the start instead of holding it among a few states."""
    env = make_env()
    rng = np.random.default_rng(5)
    reachable = bfs_reachable_states(env)
    order = {state: i for i, state in enumerate(reachable)}
    q = {}
    for state, snap in reachable.items():
        if (state[0] + state[1]) % 2:
            continue
        ranks = []
        for action in range(env.action_count):
            env.restore(snap)
            env.step(action)
            moved = not env.done and env.discrete_state() != state
            ranks.append(order.get(env.discrete_state(), -1) if moved else -1)
        row = rng.random(env.action_count)
        row[ranks.index(max(ranks))] = 2.0
        q[state] = row.tolist()
    return q


def loop_clears_after_first_frame(patch) -> list:
    """Patch ``GridWorld`` so that each table clear made by a miss outside
    :meth:`GridWorld.step`, so by ``evaluate_policy``'s inline loop, from a
    state other than the one the world was last reset to, so after the
    episode's first frame, appends that state to the returned list. The
    clears of the per-frame oracle and of the forced no-ops, which step,
    are left out."""
    from archex.envs.gridworld import GridWorld

    reset, step, miss = GridWorld.reset, GridWorld.step, GridWorld._miss
    started, stepping, cleared, clears = {}, set(), note_clears(patch), []

    def noting_reset(self, seed=0):
        out = reset(self, seed)
        started[id(self)] = self.discrete_state()
        return out

    def noting_step(self, action):
        stepping.add(id(self))
        try:
            return step(self, action)
        finally:
            stepping.discard(id(self))

    def noting_miss(self, sid, action):
        state, before = self._states[sid], len(cleared)
        entry = miss(self, sid, action)
        if (len(cleared) > before and id(self) not in stepping
                and state != started.get(id(self))):
            clears.append(state)
        return entry

    patch.setattr(GridWorld, "reset", noting_reset)
    patch.setattr(GridWorld, "step", noting_step)
    patch.setattr(GridWorld, "_miss", noting_miss)
    return clears


# The fewest distinct states a checkerboard sweep below acts in, per world,
# of the 402, 715 and 41 states reachable (bfs_reachable_states). The sweeps
# act in 74 / 215 (corridor), 60 / 180 (keydoor) and 21 / 21 (twomaze) at
# sticky_p 0 / 0.25.
CHECKERBOARD_DISTINCT_FLOOR = {"corridor": 70, "keydoor": 50, "twomaze": 20}


@pytest.mark.parametrize("table", ["empty", "checkerboard", "checkerboard-cleared"])
@pytest.mark.parametrize("sticky_p", [0.0, 0.25])
@pytest.mark.parametrize("world", sorted(ENV_FACTORIES))
def test_evaluate_policy_matches_scalar_draws(monkeypatch, world, sticky_p, table):
    """Block-drawn fallback actions and greedy actions read through the
    world's column give the raw scores and the table reads of one
    ``policy.act`` and one ``rng.integers`` call per unknown-state frame.
    The 600-frame cap makes the empty table draw three blocks per episode,
    and the checkerboard tables carry the agent through many states. In the
    ``checkerboard-cleared`` case the world's transition table holds at
    most 4 states, and the inline loop itself must clear it within an
    episode, after the episode's first frame."""
    import archex.envs.gridworld as gridworld

    make_env = ENV_FACTORIES[world]
    q = checkerboard_table(make_env) if table != "empty" else {}
    clears = []
    if table == "checkerboard-cleared":
        monkeypatch.setattr(gridworld, "STATE_TABLE_LIMIT", 4)
        clears = loop_clears_after_first_frame(monkeypatch)
    protocol = EvalProtocol(max_noop=3, min_episodes=2, sticky_p=sticky_p,
                            time_limit_game_frames=2_400)
    policy, _, _ = assert_matches_scalar_draws(q, make_env, protocol, seed=31)
    assert policy.unknown > 256
    assert policy.known > 0 if q else policy.known == 0
    if q:
        assert len(policy.states) >= CHECKERBOARD_DISTINCT_FLOOR[world]
    assert bool(clears) == (table == "checkerboard-cleared")


def test_evaluate_policy_matches_scalar_draws_when_hazards_kill():
    """Episodes a hazard ends before the frame cap drop the rest of their
    block; the next episode starts a block of its own stream."""
    protocol = EvalProtocol(max_noop=4, min_episodes=3, sticky_p=0.25,
                            time_limit_game_frames=4_000)
    _, rows, _ = assert_matches_scalar_draws(
        {}, lambda: small_keydoor(hazards=((0, 3, 1), (0, 1, 3))), protocol, seed=8)
    cap = frame_limit(protocol.time_limit_game_frames, 4)
    assert any(frames < cap for *_, frames in rows)


def test_evaluate_policy_matches_scalar_draws_when_noops_end_the_episode():
    """A 3-frame world: no-op counts of 3 and more end the episode before
    the policy acts, so those episodes draw no fallback action."""
    protocol = EvalProtocol(max_noop=5, min_episodes=2, sticky_p=0.25,
                            time_limit_game_frames=2_400)
    policy, rows, _ = assert_matches_scalar_draws(
        {}, lambda: small_twomaze(time_limit_game_frames=12), protocol, seed=3)
    assert all(frames == 3 for *_, frames in rows)
    assert policy.unknown == (3 + 2 + 1) * 2  # noops 0, 1, 2 leave 3, 2, 1 frames


@pytest.mark.parametrize("sticky_p", [0.0, 0.25])
@pytest.mark.parametrize("limit_of", ["world", "evaluation"])
def test_greedy_self_loop_runs_to_the_time_limit(limit_of, sticky_p):
    """A policy greedy in moving left walks to the wall and pushes into it,
    a greedy self-loop: the episode ends at the nearer time limit without
    stepping the rest. Scores, each episode's training frames and done
    flag, and the table reads match the oracle's, whether the world's limit
    (done) or the protocol's (not done) is the nearer. After the forced
    no-ops, a sticky no-op stays put too, but it is not the greedy action,
    so it does not end the episode."""
    env = small_keydoor()
    row = [0.0] * env.action_count
    row[ACTION_LEFT] = 1.0
    q = dict.fromkeys(bfs_reachable_states(env), row)
    protocol = EvalProtocol(max_noop=4, min_episodes=2, sticky_p=sticky_p,
                            time_limit_game_frames=400 if limit_of == "evaluation" else 2_400)
    make_world = (small_keydoor if limit_of == "evaluation"
                  else lambda: small_keydoor(time_limit_game_frames=400))
    policy, rows, skipped = assert_matches_scalar_draws(q, make_world, protocol, seed=13)
    assert all(frames == 100 for *_, frames in rows)
    assert policy.unknown == 0
    assert skipped > 80 * len(rows)


# -- bootstrap -----------------------------------------------------------------------


def oracle_pivotal_ci(samples, n_resamples, alpha, seed_rng):
    """Independent implementation under the same RNG contract: one
    integers(0, n, (B, n)) call, means per row, sorted, linear interpolation
    at rank (B-1)*q, pivot around the sample mean."""
    n = len(samples)
    idx = seed_rng.integers(0, n, size=(n_resamples, n))
    stats = sorted(sum(samples[j] for j in row) / n for row in idx)

    def quantile(q):
        rank = (len(stats) - 1) * q
        lo = math.floor(rank)
        hi = math.ceil(rank)
        if lo == hi:
            return stats[lo]
        frac = rank - lo
        return stats[lo] * (1 - frac) + stats[hi] * frac

    center = sum(samples) / n
    q_lo, q_hi = quantile(alpha / 2), quantile(1 - alpha / 2)
    return (2 * center - q_hi, 2 * center - q_lo)


def test_bootstrap_constant_samples():
    lo, hi = bootstrap_ci([3.0, 3.0, 3.0, 3.0], n_resamples=500)
    assert lo == hi == 3.0


def test_bootstrap_needs_two_samples():
    with pytest.raises(ContractError):
        bootstrap_ci([1.0])


def test_bootstrap_matches_independent_oracle():
    samples = np.array([1.0, 2.0, 3.0])
    got = bootstrap_ci(samples, n_resamples=10_000, rng=stream(42, TAG_EVAL, 1))
    want = oracle_pivotal_ci(samples, 10_000, 0.05, stream(42, TAG_EVAL, 1))
    assert got[0] == pytest.approx(want[0], rel=1e-9, abs=1e-12)
    assert got[1] == pytest.approx(want[1], rel=1e-9, abs=1e-12)


def test_bootstrap_matches_oracle_random_samples():
    rng = np.random.default_rng(5)
    samples = rng.normal(10, 3, size=25)
    got = bootstrap_ci(samples, n_resamples=4000, rng=stream(7, TAG_EVAL, 2))
    want = oracle_pivotal_ci(samples, 4000, 0.05, stream(7, TAG_EVAL, 2))
    assert got == pytest.approx(want, rel=1e-9)


@settings(max_examples=20, deadline=None)
@given(shift=st.floats(-50, 50), seed=st.integers(0, 100))
def test_bootstrap_shift_equivariance(shift, seed):
    rng = np.random.default_rng(seed)
    samples = rng.normal(0, 1, size=12)
    a = bootstrap_ci(samples, n_resamples=400, rng=stream(seed, TAG_EVAL, 3))
    b = bootstrap_ci(samples + shift, n_resamples=400, rng=stream(seed, TAG_EVAL, 3))
    assert b[0] == pytest.approx(a[0] + shift, abs=1e-9)
    assert b[1] == pytest.approx(a[1] + shift, abs=1e-9)


def test_bootstrap_contains_center_for_symmetric_samples():
    samples = np.array([-2.0, -1.0, 0.0, 1.0, 2.0] * 6)
    lo, hi = bootstrap_ci(samples, n_resamples=2000, rng=stream(0, TAG_EVAL, 4))
    assert lo <= 0.0 <= hi


def test_bootstrap_coverage():
    """95% pivotal CI covers the true mean in 93..97% of normal trials."""
    rng = np.random.default_rng(123)
    covered = 0
    trials = 2000
    boot_rng = stream(99, TAG_EVAL, 5)
    for _ in range(trials):
        samples = rng.normal(0.0, 1.0, size=30)
        lo, hi = bootstrap_ci(samples, n_resamples=1000, rng=boot_rng)
        covered += lo <= 0.0 <= hi
    assert 0.93 * trials <= covered <= 0.97 * trials


# Sample counts and resample counts whose one-shot index matrix stays
# within 5M entries (80 MB with its gather): the oracle allocates it whole.
RESAMPLE_SIZES = [(n, b) for n in (2, 3, 7, 31, 155, 1000, 1705, 5000)
                  for b in (1, 999, 1000, 10_000) if n * b <= 5_000_000]


@pytest.mark.parametrize("n,n_resamples", RESAMPLE_SIZES)
def test_blocked_resample_means_equal_oneshot(n, n_resamples):
    """Drawing and gathering in blocks of rows gives the bytes of one draw
    of the whole index matrix, also where the last block is short."""
    samples = np.random.default_rng(n).normal(0, 1, size=n)
    got = _resample_means(samples, n_resamples, stream(n, TAG_EVAL, 6))
    want = resample_means_oneshot(samples, n_resamples, stream(n, TAG_EVAL, 6))
    assert got.tobytes() == want.tobytes()


def test_percentile_band_single_seed_collapses():
    assert percentile_band([4.2]) == (4.2, 4.2)


# -- report emission ---------------------------------------------------------------------


def rows_for_seed(seed):
    return [
        MetricsRow(1000 * i, 250 * i, 10 * i + seed, i, float(seed + i), 0, 0.1)
        for i in range(1, 4)
    ]


def test_emit_report(tmp_path):
    paths = []
    for seed in (1, 2):
        path = tmp_path / f"metrics_{seed}.csv"
        write_csv(path, MetricsRow._fields, rows_for_seed(seed))
        paths.append(path)
    written = emit_report(paths, tmp_path / "agg", n_resamples=200, seed=0)
    names = {p.name for p in written}
    assert names == {
        "cells_aggregate.csv",
        "rooms_aggregate.csv",
        "max_score_aggregate.csv",
        "max_level_aggregate.csv",
    }
    with open(tmp_path / "agg" / "max_score_aggregate.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["game_frames", "mean", "lo", "hi"]
    # seeds 1 and 2 at i=1: values 2.0 and 3.0 -> mean 2.5
    assert float(rows[1][1]) == pytest.approx(2.5)
    lo, hi = float(rows[1][2]), float(rows[1][3])
    assert lo <= 2.5 <= hi


def test_emit_report_single_seed_band_collapses(tmp_path):
    path = tmp_path / "metrics.csv"
    write_csv(path, MetricsRow._fields, rows_for_seed(3))
    written = emit_report([path], tmp_path / "agg", n_resamples=100, seed=0)
    with open(tmp_path / "agg" / "cells_aggregate.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    for row in rows:
        assert float(row[1]) == float(row[2]) == float(row[3])


def test_emit_report_malformed_csv(tmp_path):
    path = tmp_path / "metrics.csv"
    path.write_text("game_frames,training_frames,cells,rooms,max_score,max_level,wall_seconds\n1,2,3\n")
    with pytest.raises(ConfigError) as err:
        emit_report([path], tmp_path / "agg")
    assert ":2" in str(err.value)


def test_eval_csv_writers(tmp_path):
    from archex.evaluation import EvalResult

    result = EvalResult(
        grand_mean=5.0,
        per_noop={n: 5.0 for n in range(31)},
        scores=[(n, e, 5.0) for n in range(31) for e in range(5)],
    )
    write_csv(tmp_path / "raw.csv", ["noop", "episode", "score"], result.scores)
    write_csv(tmp_path / "per_noop.csv", ["noop", "mean_score"], result.per_noop.items())
    with open(tmp_path / "per_noop.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 32  # header + 31 noop rows
    with open(tmp_path / "raw.csv") as fh:
        assert len(list(csv.reader(fh))) == 1 + 31 * 5
