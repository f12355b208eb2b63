"""Evaluation protocol arithmetic and bootstrap statistics."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from archex.archive import write_csv
from archex.envs import ACTION_NOOP
from archex.envs.base import frame_limit
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
from archex.seeding import TAG_EVAL, stream

from conftest import (
    ENV_FACTORIES,
    CountingPolicy,
    bfs_reachable_states,
    small_corridor,
    small_keydoor,
    small_twomaze,
)
from oracle import evaluate_scalar_draws, resample_means_oneshot


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


# -- evaluate_policy over a scripted environment ------------------------------------


class ScriptedEnv:
    """Env stub: one agent step ends the episode with a table-driven score."""

    action_count = 2
    noop_action = 0
    frame_skip = 1
    config_hash = 0

    def __init__(self, table):
        self.table = table  # (noop, episode) -> score
        self.episode_of_noop = {}
        self._noops = 0
        self._score = 0.0
        self._done = True
        self._frames = 0

    @property
    def cum_score(self):
        return self._score

    @property
    def done(self):
        return self._done

    def reset(self, seed):
        self._noops = 0
        self._score = 0.0
        self._done = False
        self._frames = 0
        return None, None

    def step(self, action):
        from archex.envs.base import StepResult

        self._frames += 1
        if action == self.noop_action and self._score == 0.0:
            self._noops += 1
            return StepResult(0.0, False)
        episode = self.episode_of_noop.get(self._noops, 0)
        self.episode_of_noop[self._noops] = episode + 1
        self._score = float(self.table[self._noops][episode])
        self._done = True
        return StepResult(self._score, True)

    def frame_counters(self):
        return (self._frames, self._frames)

    def discrete_state(self):
        return (0,)

    def observe(self):
        return None

    def snapshot(self):
        raise NotImplementedError

    def restore(self, snap):
        raise NotImplementedError


class OneStepPolicy:
    def act(self, env, actions):
        return 1


def test_evaluate_policy_grand_mean_arithmetic():
    """Constructed score tables reproduce the 31-mean average exactly."""
    rng = np.random.default_rng(0)
    table = {n: [float(rng.integers(0, 100)) for _ in range(5)] for n in range(31)}
    env = ScriptedEnv(table)
    protocol = EvalProtocol(max_noop=30, min_episodes=5, sticky_p=0.0,
                            time_limit_game_frames=10_000)
    result = evaluate_policy(OneStepPolicy(), lambda: env, protocol, seed=0)
    expect_per_noop = {n: sum(v) / 5 for n, v in table.items()}
    expect_grand = sum(expect_per_noop.values()) / 31
    assert result.per_noop == pytest.approx(expect_per_noop)
    assert result.grand_mean == pytest.approx(expect_grand)
    assert len(result.scores) == 31 * 5
    assert {n for n, _, _ in result.scores} == set(range(31))


def test_evaluate_policy_reproducible_on_real_env():
    from archex.robustify import GreedyTabularPolicy

    policy = GreedyTabularPolicy({}, 5)  # acts uniformly at random
    protocol = EvalProtocol(max_noop=3, min_episodes=2, sticky_p=0.25,
                            time_limit_game_frames=400)
    a = evaluate_policy(policy, small_keydoor, protocol, seed=4)
    b = evaluate_policy(policy, small_keydoor, protocol, seed=4)
    assert a.scores == b.scores


def test_do_nothing_policy_scores_zero():
    class Noop:
        def act(self, env, actions):
            return ACTION_NOOP

    protocol = EvalProtocol(max_noop=2, min_episodes=1, sticky_p=0.25,
                            time_limit_game_frames=200)
    result = evaluate_policy(Noop(), small_keydoor, protocol, seed=0)
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

    class Noop:
        def act(self, env, actions):
            return ACTION_NOOP

    protocol = EvalProtocol(max_noop=0, min_episodes=1, sticky_p=0.0,
                            time_limit_game_frames=9 if limit_of == "evaluation" else 400_000)
    evaluate_policy(Noop(), make_world, protocol)
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
    from archex.robustify import GreedyTabularPolicy

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
    an action that leaves its state. Known and unknown frames then
    alternate, and no greedy loop holds the agent on known states."""
    env = make_env()
    rng = np.random.default_rng(5)
    q = {}
    for state, snap in bfs_reachable_states(env).items():
        if (state[0] + state[1]) % 2:
            continue
        moves = []
        for action in range(env.action_count):
            env.restore(snap)
            env.step(action)
            if env.done or env.discrete_state() != state:
                moves.append(action)
        row = rng.random(env.action_count)
        row[rng.choice(moves)] = 2.0
        q[state] = row.tolist()
    return q


def logging_actions(make_env, log):
    """``make_env`` whose worlds append each action they step to ``log``."""
    def make():
        env = make_env()
        step = env.step

        def logged_step(action):
            log.append(action)
            return step(action)

        env.step = logged_step
        return env
    return make


def assert_matches_scalar_draws(q, make_env, protocol, seed):
    """Scores, and every action the world steps, equal the one-draw-per-frame
    oracle's (TwoMaze has no rewards, so its scores alone prove nothing).
    Returns the policy and the oracle's (noop, episode, score,
    training_frames) rows."""
    policy = CountingPolicy(q, 5)
    expected, stepped = [], []
    rows = evaluate_scalar_draws(policy, logging_actions(make_env, expected), protocol, seed=seed)
    outcome = evaluate_policy(policy, logging_actions(make_env, stepped), protocol, seed=seed)
    assert outcome.scores == [row[:3] for row in rows]
    assert stepped == expected
    return policy, rows


@pytest.mark.parametrize("table", ["empty", "checkerboard", "checkerboard-cleared"])
@pytest.mark.parametrize("sticky_p", [0.0, 0.25])
@pytest.mark.parametrize("world", sorted(ENV_FACTORIES))
def test_evaluate_policy_matches_scalar_draws(monkeypatch, world, sticky_p, table):
    """Block-drawn fallback actions give the raw scores of one
    ``rng.integers`` call per unknown-state frame. The 600-frame cap makes
    the empty table draw three blocks per episode. In the
    ``checkerboard-cleared`` case the world's transition table holds at
    most 4 states, so it is cleared within episodes, after their first
    frame."""
    import archex.envs.gridworld as gridworld
    from archex.envs.gridworld import GridWorld

    make_env = ENV_FACTORIES[world]
    q = checkerboard_table(make_env) if table != "empty" else {}
    clears = []
    if table == "checkerboard-cleared":
        monkeypatch.setattr(gridworld, "STATE_TABLE_LIMIT", 4)
        miss = GridWorld._miss

        def noting_miss(self, action):
            table = self._next
            entry = miss(self, action)
            if self._next is not table and self._training_frames > 0:
                clears.append(self._training_frames)
            return entry

        monkeypatch.setattr(GridWorld, "_miss", noting_miss)
    protocol = EvalProtocol(max_noop=3, min_episodes=2, sticky_p=sticky_p,
                            time_limit_game_frames=2_400)
    policy, _ = assert_matches_scalar_draws(q, make_env, protocol, seed=31)
    assert policy.unknown > 256
    assert policy.known > 0 if q else policy.known == 0
    assert bool(clears) == (table == "checkerboard-cleared")


def test_evaluate_policy_matches_scalar_draws_when_hazards_kill():
    """Episodes a hazard ends before the frame cap drop the rest of their
    block; the next episode starts a block of its own stream."""
    protocol = EvalProtocol(max_noop=4, min_episodes=3, sticky_p=0.25,
                            time_limit_game_frames=4_000)
    _, rows = assert_matches_scalar_draws(
        {}, lambda: small_keydoor(hazards=((0, 3, 1), (0, 1, 3))), protocol, seed=8)
    cap = frame_limit(protocol.time_limit_game_frames, 4)
    assert any(frames < cap for *_, frames in rows)


def test_evaluate_policy_matches_scalar_draws_when_noops_end_the_episode():
    """A 3-frame world: no-op counts of 3 and more end the episode before
    the policy acts, so those episodes draw no fallback action."""
    protocol = EvalProtocol(max_noop=5, min_episodes=2, sticky_p=0.25,
                            time_limit_game_frames=2_400)
    policy, rows = assert_matches_scalar_draws(
        {}, lambda: small_twomaze(time_limit_game_frames=12), protocol, seed=3)
    assert all(frames == 3 for *_, frames in rows)
    assert policy.unknown == (3 + 2 + 1) * 2  # noops 0, 1, 2 leave 3, 2, 1 frames


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
