"""Backward-curriculum mechanics: demos, shaping, termination, the loop."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from archex.archive import Archive
from archex.cells import domain_mapper
from archex.envs import ACTION_COUNT, ACTION_NOOP
from archex.errors import CheckpointError, ContractError, IntegrityError, ShortfallError
from archex.explore import ExploreConfig, replay_record, run_phase1
from archex.robustify import (
    BackwardConfig,
    Demonstration,
    TabularQConfig,
    TabularQLearner,
    backward_run,
    best_checkpoint,
    build_demonstration,
    early_terminate,
    load_policy,
    save_policy,
    select_demonstrations,
    shape_reward,
    truncate_demo,
)
from archex.seeding import TAG_ATTEMPT, RawDraws, stream
from archex.selection import SelectionConfig
from archex.trajectory import Trajectory

from conftest import (
    assert_matches_scalar_draws,
    note_clears,
    scored,
    small_corridor,
    small_keydoor,
    small_twomaze,
)
from oracle import extend

MAPPER = domain_mapper(1)


def keydoor_archive(seed=0, budget=40_000, factory=small_keydoor):
    cfg = ExploreConfig(k=40, batch=20, budget_training_frames=budget,
                        seed=seed, metric_interval_game_frames=10**9)
    sel = SelectionConfig(domain_mode=True, w_horizontal=0.3, w_vertical=0.1,
                          w_more_keys=10.0)
    return run_phase1(factory, cfg, sel, MAPPER)


@pytest.fixture(scope="module")
def kd_result():
    result = keydoor_archive()
    assert result.archive.max_score() > 0
    return result


# -- demonstrations ----------------------------------------------------------------


def test_build_demonstration_verifies_replay(kd_result):
    env = small_keydoor()
    key, record = kd_result.archive.best_record()
    demo = build_demonstration(env, record, stride=10)
    assert demo.level == key.level  # the end state's level is the domain key's
    assert demo.length == record.traj_len
    assert demo.score == record.score
    assert demo.cum_rewards[0] == 0.0
    assert len(demo.cum_rewards) == demo.length + 1
    assert 0 in demo.snapshots


def test_demo_snapshot_fillin(kd_result):
    env = small_keydoor()
    _, record = kd_result.archive.best_record()
    demo = build_demonstration(env, record, stride=25)
    frame = min(demo.length - 1, 13)  # not on the stride grid
    snap = demo.snapshot_at(frame, env)
    env2 = small_keydoor()
    env2.reset(0)
    for action in demo.actions[:frame]:
        env2.step(action)
    assert env2.snapshot().state_bytes == snap.state_bytes


def test_demo_corruption_detected(kd_result):
    """A record whose stored score, or whose stored state at an equal score,
    is not where its trajectory ends fails the demonstration replay and
    ``replay_record`` with one message each (:func:`require_replayed`). The
    forged record is the only cell of an archive of its own."""
    archive = kd_result.archive
    key, record = archive.best_record()
    forged_score = (key, record, scored(record.snapshot, record.score + 1))
    # A score-0 record given the start cell's state: score 0, at frame 0.
    key = next(k for k in archive.sorted_keys()
               if archive.cells[k].score == 0 and archive.cells[k].traj_len > 0)
    start = next(r.snapshot for r in archive.cells.values() if r.traj_len == 0)
    forged_state = (key, archive.cells[key], start)
    for (key, record, snap), message in [(forged_score, "replayed score"),
                                         (forged_state, "replayed snapshot differs")]:
        forged = Archive(archive.config_hash)
        forged.insert_or_update(key, record.trajectory, snap)
        bad = forged.record(key)
        with pytest.raises(IntegrityError, match=message):
            build_demonstration(small_keydoor(), bad)
        with pytest.raises(IntegrityError, match=message):
            replay_record(small_keydoor(), bad, key, MAPPER)


def test_select_demonstrations_level_filter():
    env = small_twomaze()
    snap = env.reset(0)[1]
    from archex.cells import DomainKey

    env.reset(0)
    env.step(0)
    stepped = env.snapshot()

    def archive_with_level(level):
        archive = Archive(env.config_hash)
        archive.insert_or_update(DomainKey(0, 0, 0, 0, ()), Trajectory(), snap)
        if level:
            # records carry a replay-consistent snapshot; the level lives in
            # the key only, which is all the filter looks at
            archive.insert_or_update(DomainKey(1, 0, 0, level, ()), extend(Trajectory(), 0),
                                     stepped)
        return archive

    archives = [archive_with_level(2), archive_with_level(2), archive_with_level(1)]
    demos = select_demonstrations(archives, 2, env)
    # Both replay the level-2 records; a demo's level is its replayed end
    # state's, and a TwoMaze state is always at level 0.
    assert [d.length for d in demos] == [1, 1]
    assert all(d.level == 0 for d in demos)
    with pytest.raises(ShortfallError) as err:
        select_demonstrations(archives, 3, env)
    assert "2 of 3" in str(err.value)


def test_select_demonstrations_single(kd_result):
    env = small_keydoor()
    demos = select_demonstrations([kd_result.archive], 1, env)
    assert len(demos) == 1
    assert demos[0].score == kd_result.archive.best_record(
        lambda k, r: getattr(k, "level", 0) == kd_result.archive.max_level
    )[1].score


# -- truncation --------------------------------------------------------------------


def demo_with_rewards(rewards):
    """Synthetic demonstration: reward r at frame i+1."""
    cum, total = [0.0], 0.0
    for r in rewards:
        total += r
        cum.append(total)
    return Demonstration(
        actions=[0] * len(rewards),
        cum_rewards=cum,
        snapshots={},
        level=0,
    )


def test_truncate_to_last_reward_rule():
    rewards = [0.0] * 100
    rewards[9], rewards[49], rewards[79] = 5.0, 5.0, 5.0  # frames 10, 50, 80
    demo = demo_with_rewards(rewards)
    cut = truncate_demo(demo, max_frames=60, to_last_reward=True)
    assert cut.length == 50
    assert cut.score == 10.0
    assert len(cut.cum_rewards) == 51


def test_truncate_identity():
    demo = demo_with_rewards([1.0, 0.0, 2.0])
    same = truncate_demo(demo, max_frames=100, to_last_reward=False)
    assert same.length == demo.length
    assert same.cum_rewards == demo.cum_rewards


def test_truncate_no_positive_reward_errors():
    demo = demo_with_rewards([0.0, -1.0, 0.0])
    with pytest.raises(ContractError):
        truncate_demo(demo, to_last_reward=True)


# -- reward shaping -------------------------------------------------------------------


def test_shape_clip():
    assert shape_reward(-5.0, "clip") == -1.0
    assert shape_reward(0.5, "clip") == 0.5
    assert shape_reward(3000.0, "clip") == 1.0


def test_shape_scale():
    assert shape_reward(3000.0, "scale") == 3.0
    assert shape_reward(-1.0, "scale") == -0.001


@settings(max_examples=50, deadline=None)
@given(rewards=st.lists(st.floats(-1000, 1000, allow_nan=False), max_size=30))
def test_scale_commutes_with_sum(rewards):
    shaped_then_summed = sum(shape_reward(r, "scale") for r in rewards)
    summed_then_shaped = shape_reward(sum(rewards), "scale")
    assert shaped_then_summed == pytest.approx(summed_then_shaped, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(a=st.floats(-100, 100), b=st.floats(-100, 100))
def test_scale_preserves_order(a, b):
    if a < b:
        assert shape_reward(a, "scale") < shape_reward(b, "scale")


# -- early termination -----------------------------------------------------------------


def worked_example_series():
    """Demo cumulative rewards: it gains 100 at step 20, nothing else."""
    return [0.0] * 20 + [100.0] * 81


def test_early_termination_worked_example_deficit_zero():
    demo_cum = worked_example_series()
    # a rollout from frame 0 stuck at 99 points
    assert not early_terminate(99.0, demo_cum, 0, 69, 50, 0.0)
    assert early_terminate(99.0, demo_cum, 0, 70, 50, 0.0)


def test_early_termination_worked_example_deficit_250():
    demo_cum = worked_example_series()
    assert not early_terminate(99.0, demo_cum, 0, 70, 50, 250.0)
    # even far past the demo end the deficit keeps it alive
    assert not early_terminate(99.0, demo_cum, 0, 150, 50, 250.0)


def test_early_termination_window_not_elapsed():
    demo_cum = worked_example_series()
    assert not early_terminate(0.0, demo_cum, 0, 9, 50, 0.0)
    assert not early_terminate(0.0, demo_cum, 0, 48, 50, 0.0)


def test_early_termination_degenerate_guards():
    demo_cum = worked_example_series()
    assert not early_terminate(0.0, demo_cum, 0, 299, float("inf"), 0.0)
    assert not early_terminate(0.0, demo_cum, 0, 299, 50, float("inf"))


def test_early_termination_matching_pace_survives():
    demo_cum = worked_example_series()
    assert not early_terminate(demo_cum[80], demo_cum, 0, 80, 50, 0.0)


def test_early_termination_with_nonzero_start():
    # 3 points by the start at frame 100, then 7 more 10 frames after it
    demo_cum = [3.0] * 110 + [10.0] * 91
    assert early_terminate(0.0, demo_cum, 100, 60, 50, 0.0)
    assert not early_terminate(0.0, demo_cum, 100, 59, 50, 6.0)


# -- backward_run with the replay oracle ---------------------------------------------


class ReplayOracleLearner(TabularQLearner):
    """Replays the demonstration's own actions, then no-ops: it checks the
    curriculum mechanics on a deterministic environment. Its place in the
    demo is the training-frame counter of the world that ``backward_run``
    builds through :meth:`factory`: a demo snapshot at frame t holds t
    training frames, and these runs have no sticky actions and no no-ops.
    ``backward_run`` keeps the world's counter in a local during an
    attempt, so the fake reads it at an attempt's first action, and counts
    on from there until :meth:`update` ends the attempt. Its Q table still
    learns from the transitions, so ``backward_run`` checkpoints it."""

    def __init__(self, demos, make_env) -> None:
        super().__init__(ACTION_COUNT)
        (self._actions,) = {tuple(d.actions) for d in demos}  # one demo, or copies of it
        self._make_env = make_env
        self._env = None
        self._frame = None  # the attempt's place in the demo

    def factory(self):
        """``make_env``'s world, recorded for :meth:`act` to read."""
        self._env = self._make_env()
        return self._env

    def act(self, row, rng):
        del row, rng
        if self._frame is None:
            self._frame = self._env.frame_counters()[1]
        frame = self._frame
        self._frame += 1
        return self._actions[frame] if frame < len(self._actions) else ACTION_NOOP

    def update(self, transitions):
        self._frame = None
        super().update(transitions)


def replay_oracle_run(demos, make_env, cfg, seed):
    """``backward_run`` of a :class:`ReplayOracleLearner` on ``make_env``'s world."""
    learner = ReplayOracleLearner(demos, make_env)
    return backward_run(demos, learner, learner.factory, cfg, seed=seed)


def oracle_cfg(**kw):
    kw.setdefault("sticky_p", 0.0)
    kw.setdefault("max_noops", 0)
    kw.setdefault("delta", 10)
    kw.setdefault("advance_interval", 5)
    kw.setdefault("window", 50)
    return BackwardConfig(**kw)


def test_oracle_learner_reaches_zero(kd_result):
    env_factory = small_keydoor
    demos = select_demonstrations([kd_result.archive], 1, env_factory())
    cfg = oracle_cfg()
    result = replay_oracle_run(demos, env_factory, cfg, seed=1)
    assert result.min_starting_point() == 0
    assert result.demo_progress[0].zero_confirmed
    advances = math.ceil(demos[0].length / cfg.delta)
    assert result.attempts == cfg.advance_interval * (advances + 1)
    msps = [row.max_starting_points[0] for row in result.progress]
    assert msps == sorted(msps, reverse=True)


def test_oracle_learner_two_demos(kd_result):
    env_factory = small_keydoor
    demos = select_demonstrations([kd_result.archive, kd_result.archive], 2, env_factory())
    cfg = oracle_cfg(advance_interval=4)
    result = replay_oracle_run(demos, env_factory, cfg, seed=3)
    assert result.min_starting_point() == 0
    assert all(p.zero_confirmed for p in result.demo_progress)


def test_backward_respects_attempt_budget(kd_result):
    demos = select_demonstrations([kd_result.archive], 1, small_keydoor())
    cfg = oracle_cfg(max_attempts=7)
    result = replay_oracle_run(demos, small_keydoor, cfg, seed=0)
    assert result.attempts == 7
    assert result.min_starting_point() > 0


@pytest.mark.parametrize("max_noops", [30, 2**31])
def test_forced_noops_count_toward_the_frame_budget(max_noops):
    """The no-ops forced at start 0 are training frames, so the frame budget
    caps them: at a no-op count up to the time limit (1,000 training frames
    in the criterion-7 world), two attempts at start 0 spend a 2,000-frame
    budget, where uncounted no-ops would let all 300 attempts run."""
    from oracle import ScalarQLearner, backward_run_scalar

    factory = lambda: small_keydoor(time_limit_game_frames=4_000)
    demos = select_demonstrations([keydoor_archive(seed=5, factory=factory).archive], 1,
                                  factory())
    # One successful attempt from the demo end moves the start to 0.
    cfg = BackwardConfig(advance_interval=1, delta=100_000, frame_budget=2_000,
                         max_attempts=300, max_noops=max_noops)
    result = backward_run(demos, TabularQLearner(ACTION_COUNT), factory, cfg, seed=5)
    assert result.min_starting_point() == 0
    assert result.frames >= cfg.frame_budget
    assert result.attempts < (300 if max_noops == 30 else 4)
    scalar = backward_run_scalar(demos, ScalarQLearner(ACTION_COUNT), factory, cfg, seed=5)
    assert (scalar.attempts, scalar.frames) == (result.attempts, result.frames)


def test_backward_msp_monotone_and_bounded(kd_result):
    demos = select_demonstrations([kd_result.archive], 1, small_keydoor())
    cfg = oracle_cfg()
    result = replay_oracle_run(demos, small_keydoor, cfg, seed=0)
    L = demos[0].length
    series = [msp for row in result.progress for msp in row.max_starting_points]
    assert all(0 <= m <= L for m in series)
    assert series == sorted(series, reverse=True)


def test_backward_progress_rows_have_all_demos(kd_result):
    demos = select_demonstrations([kd_result.archive, kd_result.archive], 2, small_keydoor())
    result = replay_oracle_run(demos, small_keydoor,
                               oracle_cfg(advance_interval=4, max_attempts=40), seed=0)
    for row in result.progress:
        assert len(row.max_starting_points) == 2
        assert len(row.success_rates) == 2


def test_backward_needs_demos():
    with pytest.raises(ShortfallError):
        backward_run([], TabularQLearner(ACTION_COUNT), small_keydoor, BackwardConfig(), 0)


def scripted_demo(env, actions):
    """Demonstration built by driving an env through a fixed action list."""
    _, snap = env.reset(0)
    cum, snaps = [0.0], {0: snap}
    for i, action in enumerate(actions, start=1):
        env.step(action)
        cum.append(env.cum_score)
        if i % 25 == 0:
            snaps[i] = env.snapshot()
    return Demonstration(actions=list(actions), cum_rewards=cum, snapshots=snaps, level=0)


def corridor_demo_with_early_penalty(env=None):
    """A corridor run (in ``env``, else :func:`small_corridor`'s world) that
    clips one -1 hazard, idles for a full termination window, then collects
    a 2000-point treasure: the exact shape that makes a zero-deficit
    sliding window kill even perfect replays."""
    from archex.envs import ACTION_DOWN, ACTION_NOOP, ACTION_RIGHT, ACTION_UP

    actions = ([ACTION_RIGHT] * 13 + [ACTION_NOOP] * 60
               + [ACTION_UP] * 2 + [ACTION_RIGHT] * 7 + [ACTION_DOWN] * 2
               + [ACTION_RIGHT] * 2 + [ACTION_DOWN] + [ACTION_RIGHT] * 6
               + [ACTION_UP] + [ACTION_RIGHT])
    demo = scripted_demo(env or small_corridor(), actions)
    assert demo.reward_at(13) == -1.0 and demo.score == 1999.0
    return demo


def test_deficit_zero_strands_negative_reward_demo():
    """Without an allowed deficit, rollouts that faithfully reproduce the
    demo's own -1 get terminated once the window slides past it, so the
    curriculum can never back up over the penalty."""
    demo = corridor_demo_with_early_penalty()
    cfg = BackwardConfig(success_threshold=0.1, advance_interval=3, delta=10,
                         window=50, allowed_deficit=0.0, sticky_p=0.0,
                         max_noops=0, max_attempts=120)
    result = replay_oracle_run([demo], small_corridor, cfg, seed=0)
    assert result.min_starting_point() > 0
    assert not result.demo_progress[0].zero_confirmed


def test_allowed_deficit_unstrands_negative_reward_demo():
    demo = corridor_demo_with_early_penalty()
    cfg = BackwardConfig(success_threshold=0.1, advance_interval=3, delta=10,
                         window=50, allowed_deficit=250.0, sticky_p=0.0,
                         max_noops=0, max_attempts=120)
    result = replay_oracle_run([demo], small_corridor, cfg, seed=0)
    assert result.min_starting_point() == 0
    assert result.demo_progress[0].zero_confirmed


def test_scale_shaping_with_corridor_rewards():
    """Scaled rewards keep the -1 vs +2000 proportions; clipping destroys
    them. Checked on the actual demo reward stream."""
    demo = corridor_demo_with_early_penalty()
    per_frame = [demo.reward_at(i) for i in range(1, demo.length + 1)]
    assert sum(shape_reward(r, "scale") for r in per_frame) == pytest.approx(demo.score * 0.001)
    assert sum(shape_reward(r, "clip") for r in per_frame) == 0.0  # -1 and +1 cancel


# -- tabular learner end to end ---------------------------------------------------------


def test_tabular_robustification_under_stochasticity(kd_result):
    """Sticky actions + no-ops; the tabular learner should still anchor the
    curriculum at 0 and its greedy policy should reach the demo score from a
    deterministic replay of the evaluation protocol."""
    demo = select_demonstrations([kd_result.archive], 1, small_keydoor())[0]
    # keep the prefix that solves the first level (key + treasure)
    first_level = next(i for i, c in enumerate(demo.cum_rewards) if c >= 1100.0)
    demos = [truncate_demo(demo, max_frames=first_level, to_last_reward=True)]
    assert demos[0].score == 1100.0
    cfg = BackwardConfig(
        success_threshold=0.4,
        advance_interval=50,
        delta=8,
        window=50,
        sticky_p=0.25,
        max_noops=10,
        max_attempts=40_000,
        rollout_frame_cap=400,
    )
    learner = TabularQLearner(5, TabularQConfig(alpha=0.3, gamma=0.98, epsilon=0.1))
    result = backward_run(demos, learner, small_keydoor, cfg, seed=5)
    assert result.min_starting_point() == 0

    from archex.evaluation import EvalProtocol, evaluate_policy

    protocol = EvalProtocol(max_noop=5, min_episodes=2, sticky_p=0.25,
                            time_limit_game_frames=4_000)
    outcome = evaluate_policy(learner.policy(), small_keydoor, protocol, seed=11)
    assert outcome.grand_mean >= demos[0].score


def test_greedy_table_is_first_max_argmax():
    """Each state's frozen action is the first maximum of its row (ties
    included); unseen states take the next fallback action."""
    from archex.robustify import GreedyTabularPolicy

    rng = np.random.default_rng(2)
    q = {(i,): [float(v) for v in rng.integers(-2, 3, 5)] for i in range(300)}
    q[(300,)] = [0.0] * 5
    q[(301,)] = [-1.0, 4.0, 4.0, 0.0, 4.0]
    assert sum(len(set(row)) < 5 for row in q.values()) > 200  # ties are common
    policy = GreedyTabularPolicy(q, 5)

    class StateEnv:
        state = None

        def discrete_state(self):
            return self.state

    env = StateEnv()
    for state, row in q.items():
        env.state = state
        assert policy.act(env, None) == int(np.argmax(row)) == row.index(max(row))
    assert policy.greedy[(300,)] == 0 and policy.greedy[(301,)] == 1
    env.state = (999,)
    fallback = iter([4, 0, 3])
    assert [policy.act(env, fallback) for _ in range(3)] == [4, 0, 3]
    env.state = (301,)
    assert policy.act(env, fallback) == 1


# sticky_p -> (attempts, frames, min starting point), policy sha256, eval scores, grand mean
GOLDEN_ROBUSTIFY = {
    0.25: ((310, 15052, 63),
           "bc39a63118742b26fa02ac39052bf993086a889fa73b8d27369bf6c42cdf2fe8",
           [100.0, 100.0, 100.0, 100.0, 100.0, 100.0, 100.0, 0.0, 0.0, 100.0, 100.0,
            100.0, 0.0, 0.0, 0.0, 0.0, 0.0, 100.0, 100.0, 0.0, 0.0],
           57.142857142857146),
    0.0: ((309, 15022, 63),
          "a1e00392766f7c770082118f6ec2712bcbade1cb1b560e5e9aaabc757e4afb01",
          [100.0, 100.0, 0.0, 100.0, 100.0, 100.0, 0.0, 0.0, 0.0, 100.0, 100.0,
           0.0, 0.0, 0.0, 0.0, 100.0, 0.0, 100.0, 0.0, 100.0, 0.0],
          47.61904761904763),
}


@pytest.mark.parametrize("sticky_p", list(GOLDEN_ROBUSTIFY))
def test_robustify_and_evaluate_golden(kd_result, tmp_path, sticky_p):
    """Policy file bytes and evaluation scores of a small fixed run, pinned
    to the values the per-step implementation produced. The sticky_p 0 case
    pins the p = 0 path of the sticky-action rule, which draws nothing."""
    import hashlib

    from archex.evaluation import EvalProtocol, evaluate_policy

    counts, policy_sha, scores, gmean = GOLDEN_ROBUSTIFY[sticky_p]
    demo = select_demonstrations([kd_result.archive], 1, small_keydoor())[0]
    first_level = next(i for i, c in enumerate(demo.cum_rewards) if c >= 1100.0)
    demo = truncate_demo(demo, max_frames=first_level, to_last_reward=True)
    cfg = BackwardConfig(success_threshold=0.4, advance_interval=50, delta=8, window=50,
                         sticky_p=sticky_p, max_noops=30, frame_budget=15_000,
                         rollout_frame_cap=400)
    learner = TabularQLearner(5, TabularQConfig(alpha=0.3, gamma=0.98, epsilon=0.1))
    result = backward_run([demo], learner, small_keydoor, cfg, seed=3)
    assert (result.attempts, result.frames, result.min_starting_point()) == counts
    path = tmp_path / "policy.ckpt"
    save_policy(result.checkpoints[-1], path, small_keydoor().config_hash)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == policy_sha
    protocol = EvalProtocol(max_noop=6, min_episodes=3, sticky_p=sticky_p,
                            time_limit_game_frames=2_000)
    outcome = evaluate_policy(learner.policy(), small_keydoor, protocol, seed=17)
    assert [score for _, _, score in outcome.scores] == scores
    assert outcome.grand_mean == gmean


@pytest.mark.parametrize("sticky_p", [0.0, 0.25])
def test_learned_policy_evaluates_as_scalar_draws(kd_result, sticky_p):
    """A backward run's policy gets the same raw scores and table reads
    from block-drawn fallback actions as from one draw per unknown-state
    frame, also where an episode ends in a greedy self-loop."""
    from archex.evaluation import EvalProtocol

    demo = select_demonstrations([kd_result.archive], 1, small_keydoor())[0]
    first_level = next(i for i, c in enumerate(demo.cum_rewards) if c >= 1100.0)
    demo = truncate_demo(demo, max_frames=first_level, to_last_reward=True)
    cfg = BackwardConfig(success_threshold=0.4, advance_interval=50, delta=8, window=50,
                         sticky_p=sticky_p, max_noops=30, frame_budget=6_000,
                         rollout_frame_cap=400)
    learner = TabularQLearner(5, TabularQConfig(alpha=0.3, gamma=0.98, epsilon=0.1))
    backward_run([demo], learner, small_keydoor, cfg, seed=4)
    protocol = EvalProtocol(max_noop=6, min_episodes=2, sticky_p=sticky_p,
                            time_limit_game_frames=2_400)
    policy, _, skipped = assert_matches_scalar_draws(learner.q, small_keydoor, protocol, seed=29)
    assert policy.known > 0 and policy.unknown > 256
    assert skipped > 0  # some episode ends in a greedy self-loop


# -- the backward run against its scalar reference ------------------------------------


@pytest.mark.parametrize("n", [1, 2, 5, 7, 2**31 + 1])
def test_raw_draws_equal_scalar_generator_draws(n):
    """The numpy property the backward run's draws rest on: a RawDraws that
    takes over an attempt stream gives the same values as the Generator's
    own ``random()`` and ``integers(n)`` calls, interleaved in any order,
    also when the Generator holds a buffered 32-bit half (after
    ``integers(0, 31)``). n = 2**31 + 1 rejects about half its draws, and
    n = 1 draws nothing. A numpy release that breaks it fails here by name."""
    order = np.random.default_rng(n)
    for attempt in range(12):
        scalars, raw = stream(9, TAG_ATTEMPT, attempt), stream(9, TAG_ATTEMPT, attempt)
        for rng in (scalars, raw):
            rng.integers(2**63)
            if attempt % 2:
                rng.integers(0, 31)
        assert raw.bit_generator.state["has_uint32"] == attempt % 2
        draws = RawDraws(raw)
        for integer in order.random(700) < 0.5:
            if integer:
                assert draws.integers(n) == int(scalars.integers(n))
            else:
                assert draws.random() == scalars.random()


def update_by_state(learner, transitions) -> None:
    """``learner.update`` of ``(state, action, reward, next_state, done)``
    transitions, each from-state's row made as ``backward_run`` makes it,
    when the transition is taken, and each next state's looked up then."""
    learner.update([(learner.row(state), action, reward, learner.row_ids.get(next_state), done)
                    for state, action, reward, next_state, done in transitions])


def backward_facts(result, learner, path) -> dict:
    """Everything a backward run leaves that must not depend on how it draws."""
    save_policy(result.checkpoints[-1], path, 0)
    return {
        "counts": (result.attempts, result.frames, result.min_starting_point()),
        "q": repr(learner.q),  # repr tells -0.0 from 0.0 and keeps the insertion order
        "progress": repr(result.progress),
        "demo_progress": repr(result.demo_progress),
        "checkpoints": repr(result.checkpoints),
        "policy": path.read_bytes(),
    }


def reference_case(world, kd_result):
    """Demonstrations, env factory and settings for a differential run."""
    if world == "keydoor":
        # Two demos draw a demo index, so attempts start with a buffered half;
        # the short one reaches frame 0, where no-op counts are drawn.
        demo = select_demonstrations([kd_result.archive], 1, small_keydoor())[0]
        first_key = next(i for i in range(1, demo.length + 1) if demo.reward_at(i) > 0)
        first_level = next(i for i, c in enumerate(demo.cum_rewards) if c >= 1100.0)
        demos = [truncate_demo(demo, max_frames=first_key),
                 truncate_demo(demo, max_frames=first_level, to_last_reward=True)]
        return demos, small_keydoor, dict(window=20)
    if world == "corridor":
        # A -1 hazard, scaled rewards and an allowed deficit.
        return ([corridor_demo_with_early_penalty()], small_corridor,
                dict(reward_mode="scale", allowed_deficit=250.0))
    if world == "corridor-time-limit":
        # The 95-frame demo in a world whose time limit is 130 training
        # frames: an attempt from start s has 130 - s frames. Nothing kills,
        # so an attempt that ends done ended at the limit.
        factory = lambda: small_corridor(time_limit_game_frames=130 * 4)
        return ([corridor_demo_with_early_penalty(factory())], factory,
                dict(reward_mode="scale", allowed_deficit=250.0))
    # TwoMaze has no rewards: every Q value stays 0, so every greedy action
    # is a tie. The demo claims a score no rollout reaches.
    env = small_twomaze()
    demo = scripted_demo(env, [a % env.action_count for a in range(60)])
    demo.cum_rewards[-1] = 1.0
    return [demo], small_twomaze, dict(rollout_frame_cap=150)


def run_against_reference(world, sticky_p, kd_result, tmp_path):
    from oracle import ScalarQLearner, backward_run_scalar

    demos, factory, overrides = reference_case(world, kd_result)
    overrides = dict(dict(success_threshold=0.2, advance_interval=20, delta=8, window=50,
                          sticky_p=sticky_p, max_noops=30, frame_budget=12_000,
                          rollout_frame_cap=200), **overrides)
    cfg = BackwardConfig(**overrides)
    qcfg = TabularQConfig(alpha=0.3, gamma=0.98, epsilon=0.1)
    learner, scalar = TabularQLearner(5, qcfg), ScalarQLearner(5, qcfg)
    fast = backward_facts(backward_run(demos, learner, factory, cfg, seed=2),
                          learner, tmp_path / "fast.ckpt")
    slow = backward_facts(backward_run_scalar(demos, scalar, factory, cfg, seed=2),
                          scalar, tmp_path / "scalar.ckpt")
    return fast, slow


@pytest.mark.parametrize("sticky_p", [0.0, 0.25])
@pytest.mark.parametrize("world", ["keydoor", "corridor", "twomaze"])
def test_backward_run_equals_scalar_reference(kd_result, tmp_path, world, sticky_p):
    fast, slow = run_against_reference(world, sticky_p, kd_result, tmp_path)
    assert fast == slow
    assert fast["counts"][1] > 5_000  # the loop ran, not only the bookkeeping


def test_time_limit_ends_attempts_mid_loop(kd_result, tmp_path, monkeypatch):
    """backward_run applies the world's done rule in its own loop: where the
    time limit ends attempts after their first frame, it still leaves the
    scalar reference's facts, which steps through ``GridWorld.step``."""
    ended = []
    update = TabularQLearner.update

    def noting_update(self, transitions):
        if len(transitions) > 1 and transitions[-1][-1]:
            ended.append(len(transitions))
        update(self, transitions)

    monkeypatch.setattr(TabularQLearner, "update", noting_update)
    fast, slow = run_against_reference("corridor-time-limit", 0.25, kd_result, tmp_path)
    assert fast == slow
    assert len(ended) > 20 and fast["counts"][2] < 95  # the curriculum moved


@pytest.mark.parametrize("world", ["keydoor", "corridor", "twomaze"])
def test_backward_run_equals_scalar_reference_across_table_clears(kd_result, tmp_path,
                                                                  monkeypatch, world):
    """With a 20-state table, which clears inside attempts and hands its ids
    out again, backward_run still leaves the scalar reference's facts: its
    transitions hold Q-row ids, not world ids, and it finds rows through the
    world's column, which a clear empties. Some clear comes at an attempt's
    second frame or later, after transitions were recorded."""
    import archex.envs.gridworld as gridworld
    from archex.envs.gridworld import GridWorld

    monkeypatch.setattr(gridworld, "STATE_TABLE_LIMIT", 20)
    acts, clears = [0], []  # TabularQLearner.act calls in the current attempt
    act, update, miss = TabularQLearner.act, TabularQLearner.update, GridWorld._miss
    cleared = note_clears(monkeypatch)

    def counting_act(self, row, rng):
        acts[0] += 1
        return act(self, row, rng)

    def counting_update(self, transitions):
        acts[0] = 0
        update(self, transitions)

    def noting_miss(self, sid, action):
        before = len(cleared)
        entry = miss(self, sid, action)
        if len(cleared) > before and acts[0] >= 2:
            clears.append(acts[0])
        return entry

    monkeypatch.setattr(TabularQLearner, "act", counting_act)
    monkeypatch.setattr(TabularQLearner, "update", counting_update)
    monkeypatch.setattr(GridWorld, "_miss", noting_miss)
    # The reference's learner is no TabularQLearner, so its clears see no acts.
    fast, slow = run_against_reference(world, 0.25, kd_result, tmp_path)
    assert fast == slow
    assert clears


def pool_against_reference(kd_result, tmp_path, monkeypatch, cuts, frame_budget):
    """``backward_run`` and the unpruned scalar reference on keydoor demos,
    each cut to its first reward (``"first key"``) or to its last reward
    within 180 frames (``"last"``), walked to frame 0 in steps of 4. The pool
    must be the reference's checkpoints whose total of the demos' starts is
    within NEAR of the final total, field for field and in order; no more
    checkpoints may be alive at once, counted through a ``PolicyCheckpoint``
    subclass; and every other fact must be the reference's. Returns the
    pool's size and the reference's number of checkpoints."""
    import weakref

    import archex.robustify as robustify_module
    from archex.robustify import NEAR, PolicyCheckpoint
    from oracle import ScalarQLearner, backward_run_scalar

    live, peak = weakref.WeakSet(), [0]

    class Counted(PolicyCheckpoint):  # counts the checkpoints alive at each take
        __hash__ = object.__hash__

        def __init__(self, **fields):
            super().__init__(**fields)
            live.add(self)
            peak[0] = max(peak[0], len(live))

    monkeypatch.setattr(robustify_module, "PolicyCheckpoint", Counted)
    demo = select_demonstrations([kd_result.archive], 1, small_keydoor())[0]
    first_key = next(i for i in range(1, demo.length + 1) if demo.reward_at(i) > 0)
    demos = [truncate_demo(demo, max_frames=first_key) if cut == "first key"
             else truncate_demo(demo, max_frames=180, to_last_reward=True) for cut in cuts]
    cfg = BackwardConfig(success_threshold=0.1, advance_interval=10, delta=4,
                         allowed_deficit=math.inf, max_noops=30, frame_budget=frame_budget,
                         rollout_frame_cap=400)
    qcfg = TabularQConfig(alpha=0.3, gamma=0.98, epsilon=0.1)
    learner, scalar = TabularQLearner(5, qcfg), ScalarQLearner(5, qcfg)
    result = backward_run(demos, learner, small_keydoor, cfg, seed=2)
    reference = backward_run_scalar(demos, scalar, small_keydoor, cfg, seed=2)

    assert all(p.zero_confirmed for p in result.demo_progress)
    # A checkpoint is taken at a check, whose progress row has its attempts.
    totals = {row.attempts: sum(row.max_starting_points) for row in reference.progress}
    lowest = sum(p.max_starting_point for p in reference.demo_progress)
    pool = [c for c in reference.checkpoints if totals[c.attempts] <= lowest + NEAR]
    fields = lambda cs: repr([(c.q, c.n_actions, c.min_msp, c.attempts) for c in cs])
    assert fields(result.checkpoints) == fields(pool)
    assert peak[0] == len(pool)
    fast = backward_facts(result, learner, tmp_path / "fast.ckpt")
    slow = backward_facts(reference, scalar, tmp_path / "scalar.ckpt")
    del fast["checkpoints"], slow["checkpoints"]
    assert fast == slow
    return len(pool), len(reference.checkpoints)


def test_backward_run_keeps_only_checkpoints_near_the_floor(kd_result, tmp_path, monkeypatch):
    """A keydoor run that walks one demo to frame 0 takes checkpoints far
    above the floor. ``backward_run`` keeps the pool ``best_checkpoint``
    chooses from: the unpruned reference's checkpoints within NEAR of the
    floor, in order, and never more at once; learning is unchanged."""
    from archex.robustify import NEAR

    pool, taken = pool_against_reference(kd_result, tmp_path, monkeypatch, ["last"], 100_000)
    assert taken >= 2 * pool
    # One demo: the advances within NEAR of the floor, the step clamped to
    # frame 0, the zero confirmation and the end checkpoint.
    assert pool <= NEAR // 4 + 4


def test_backward_run_bounds_the_pool_of_two_demos(kd_result, tmp_path, monkeypatch):
    """Two keydoor demos, of 27 and 174 frames: once the short one is at
    frame 0, the floor stays there while the long one walks down. The pool
    is bounded by the total of the demos' starts, as one demo's is by its
    start, and a demo confirmed at frame 0 takes no further checkpoint, so
    fewer checkpoints are alive at once than the long demo's advances."""
    from archex.robustify import NEAR

    pool, taken = pool_against_reference(kd_result, tmp_path, monkeypatch,
                                         ["first key", "last"], 200_000)
    assert taken >= 3 * pool
    # Per demo, beside the advances within NEAR: a clamped step and a confirmation.
    assert pool <= NEAR // 4 + 2 + 2 * 2


def test_scalar_reference_catches_a_mutated_tie_rule(kd_result, tmp_path, monkeypatch):
    """The differential test fails when the greedy cache breaks ties by the
    last maximum instead of the first."""
    update = TabularQLearner.update

    def last_max_update(self, transitions):
        update(self, transitions)
        for r, *_ in transitions:
            row = self.rows[r]
            self.greedy[r] = max(reversed(range(self.n_actions)), key=row.__getitem__)

    monkeypatch.setattr(TabularQLearner, "update", last_max_update)
    for world in ("keydoor", "twomaze"):
        fast, slow = run_against_reference(world, 0.25, kd_result, tmp_path)
        assert fast["q"] != slow["q"] and fast["policy"] != slow["policy"]


REWARDS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 2.0])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n_actions=st.integers(1, 4),
       alpha=st.sampled_from([0.5, 1.0]),
       gamma=st.sampled_from([0.0, 0.5, 1.0]),
       transitions=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), REWARDS,
                                      st.integers(0, 4), st.booleans()),
                            min_size=1, max_size=60))
def test_greedy_cache_is_first_max_after_every_update(n_actions, alpha, gamma, transitions):
    """Ties, lowered greedy values and negative or zero rewards: after each
    transition every row's cached action is its first maximum."""
    learner = TabularQLearner(n_actions, TabularQConfig(alpha=alpha, gamma=gamma))
    for state, action, reward, next_state, done in transitions:
        update_by_state(learner, [((state,), action % n_actions, reward, (next_state,), done)])
        assert len(learner.greedy) == len(learner.rows) == len(learner.row_ids)
        for best, row in zip(learner.greedy, learner.rows):
            assert best == max(range(n_actions), key=row.__getitem__)
            assert row[best] == max(row)


# -- policy checkpoints -------------------------------------------------------------------


def test_policy_checkpoint_roundtrip(tmp_path):
    learner = TabularQLearner(5)
    update_by_state(learner, [((1, 2), 3, 1.0, (1, 3), False), ((1, 3), 0, -1.0, (1, 2), True)])
    from archex.robustify import PolicyCheckpoint

    ckpt = PolicyCheckpoint(q=learner.q, n_actions=5, min_msp=17, attempts=123)
    path = tmp_path / "p.ckpt"
    save_policy(ckpt, path, config_hash=99)
    loaded = load_policy(path, expected_config_hash=99)
    assert loaded.q == ckpt.q
    assert loaded.min_msp == 17 and loaded.attempts == 123
    with pytest.raises(CheckpointError):
        load_policy(path, expected_config_hash=1)
    bad = bytearray(path.read_bytes())
    bad[-5] ^= 1
    path.write_bytes(bytes(bad))
    with pytest.raises(CheckpointError):
        load_policy(path)


def test_policy_write_failing_partway_keeps_previous(tmp_path, monkeypatch):
    import archex.robustify as robustify_module
    from archex.robustify import PolicyCheckpoint

    q = {(i, i + 1): [float(i)] * 5 for i in range(50)}
    path = tmp_path / "p.ckpt"
    save_policy(PolicyCheckpoint(q=q, n_actions=5, min_msp=3, attempts=9), path, 7)
    before = path.read_bytes()

    layout = robustify_module._policy_layout

    def failing_layout(checkpoint, config_hash):
        pieces = layout(checkpoint, config_hash)
        yield next(pieces)
        yield next(pieces)
        raise OSError("disk full")

    monkeypatch.setattr(robustify_module, "_policy_layout", failing_layout)
    with pytest.raises(OSError):
        save_policy(PolicyCheckpoint(q={(1,): [0.0] * 5, (2,): [1.0] * 5}, n_actions=5,
                                     min_msp=0, attempts=10), path, 7)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["p.ckpt"]
    monkeypatch.undo()  # the loader re-lays out what it reads
    assert load_policy(path, 7).q == q


def test_best_checkpoint_retests_winner():
    from archex.robustify import MAX_TESTED, PolicyCheckpoint

    candidates = [PolicyCheckpoint(q={}, n_actions=5, min_msp=0, attempts=i)
                  for i in range(MAX_TESTED + 5)]
    calls = []

    def evaluator(ckpt, eval_index):
        calls.append((ckpt.attempts, eval_index))
        return float(ckpt.attempts)

    rng = np.random.default_rng(0)
    chosen, selection_score, retest = best_checkpoint(candidates, evaluator, rng)
    tested = [c for c, _ in calls[:-1]]
    assert len(set(tested)) == MAX_TESTED and tested == sorted(tested)  # a sample, in order
    assert [i for _, i in calls] == list(range(MAX_TESTED + 1))
    assert calls[-1][0] == chosen.attempts == max(tested)  # the retest call
    assert retest == selection_score         # deterministic stub evaluator


def test_single_candidate_selected_and_retested():
    from archex.robustify import PolicyCheckpoint

    counts = []

    def evaluator(ckpt, eval_index):
        counts.append(eval_index)
        return 1.0

    only = PolicyCheckpoint(q={}, n_actions=5, min_msp=3, attempts=0)
    chosen, _, _ = best_checkpoint([only], evaluator, np.random.default_rng(0))
    assert chosen is only
    assert len(counts) == 2  # selection + retest
