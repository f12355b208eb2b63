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
from archex.explore import ExploreConfig, run_phase1
from archex.robustify import (
    BackwardConfig,
    Demonstration,
    RewardShaping,
    TabularQConfig,
    TabularQLearner,
    backward_run,
    best_checkpoint,
    build_demonstration,
    early_terminate,
    load_policy,
    save_policy,
    select_demonstrations,
    truncate_demo,
)
from archex.seeding import TAG_ATTEMPT, RawDraws, stream
from archex.selection import SelectionConfig
from archex.trajectory import Trajectory

from conftest import CountingPolicy, scored, small_corridor, small_keydoor, small_twomaze
from oracle import extend

MAPPER = domain_mapper(1)


def keydoor_archive(seed=0, budget=40_000):
    cfg = ExploreConfig(k=40, batch_size=20, budget_training_frames=budget,
                        seed=seed, metric_interval_game_frames=10**9)
    sel = SelectionConfig(domain_mode=True, w_horizontal=0.3, w_vertical=0.1,
                          w_more_keys=10.0)
    return run_phase1(small_keydoor, cfg, sel, MAPPER)


@pytest.fixture(scope="module")
def kd_result():
    result = keydoor_archive()
    assert result.archive.max_score() > 0
    return result


# -- demonstrations ----------------------------------------------------------------


def test_build_demonstration_verifies_replay(kd_result):
    env = small_keydoor()
    key, record = kd_result.archive.best_record()
    demo = build_demonstration(env, key, record, stride=10)
    assert demo.length == record.traj_len
    assert demo.score == record.score
    assert demo.cum_rewards[0] == 0.0
    assert len(demo.cum_rewards) == demo.length + 1
    assert 0 in demo.snapshots


def test_demo_snapshot_fillin(kd_result):
    env = small_keydoor()
    key, record = kd_result.archive.best_record()
    demo = build_demonstration(env, key, record, stride=25)
    frame = min(demo.length - 1, 13)  # not on the stride grid
    snap = demo.snapshot_at(frame, env)
    env2 = small_keydoor()
    env2.reset(0)
    for action in demo.actions[:frame]:
        env2.step(action)
    assert env2.snapshot().state_bytes == snap.state_bytes


def test_demo_corruption_detected(kd_result):
    env = small_keydoor()
    key, record = kd_result.archive.best_record()
    import dataclasses

    forged = scored(record.snapshot, record.score + 1)
    bad = dataclasses.replace(record, state_bytes=forged.state_bytes)
    with pytest.raises(IntegrityError):
        build_demonstration(env, key, bad)


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
    assert len(demos) == 2
    assert all(d.level == 2 for d in demos)
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
    clip = RewardShaping("clip")
    assert clip(-5.0) == -1.0
    assert clip(0.5) == 0.5
    assert clip(3000.0) == 1.0


def test_shape_scale():
    scale = RewardShaping("scale", 0.001)
    assert scale(3000.0) == 3.0
    assert scale(-1.0) == -0.001


@settings(max_examples=50, deadline=None)
@given(rewards=st.lists(st.floats(-1000, 1000, allow_nan=False), max_size=30))
def test_scale_commutes_with_sum(rewards):
    scale = RewardShaping("scale", 0.001)
    shaped_then_summed = sum(scale(r) for r in rewards)
    summed_then_shaped = scale(sum(rewards))
    assert shaped_then_summed == pytest.approx(summed_then_shaped, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(a=st.floats(-100, 100), b=st.floats(-100, 100))
def test_scale_preserves_order(a, b):
    scale = RewardShaping("scale", 0.001)
    if a < b:
        assert scale(a) < scale(b)


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
    curriculum mechanics on a deterministic environment. Its Q table still
    learns from the transitions, so ``backward_run`` checkpoints it."""

    def __init__(self) -> None:
        super().__init__(ACTION_COUNT)
        self._actions: list[int] = []
        self._pos = 0

    def begin_rollout(self, demo, start):
        self._actions = demo.actions
        self._pos = start

    def act(self, state, rng):
        del state, rng
        if self._pos < len(self._actions):
            action = self._actions[self._pos]
            self._pos += 1
            return action
        return ACTION_NOOP


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
    result = backward_run(demos, ReplayOracleLearner(), env_factory, cfg, seed=1)
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
    result = backward_run(demos, ReplayOracleLearner(), env_factory, cfg, seed=3)
    assert result.min_starting_point() == 0
    assert all(p.zero_confirmed for p in result.demo_progress)


def test_backward_respects_attempt_budget(kd_result):
    demos = select_demonstrations([kd_result.archive], 1, small_keydoor())
    cfg = oracle_cfg(max_attempts=7)
    result = backward_run(demos, ReplayOracleLearner(), small_keydoor, cfg, seed=0)
    assert result.attempts == 7
    assert result.min_starting_point() > 0


def test_backward_msp_monotone_and_bounded(kd_result):
    demos = select_demonstrations([kd_result.archive], 1, small_keydoor())
    cfg = oracle_cfg()
    result = backward_run(demos, ReplayOracleLearner(), small_keydoor, cfg, seed=0)
    L = demos[0].length
    series = [msp for row in result.progress for msp in row.max_starting_points]
    assert all(0 <= m <= L for m in series)
    assert series == sorted(series, reverse=True)


def test_backward_progress_rows_have_all_demos(kd_result):
    demos = select_demonstrations([kd_result.archive, kd_result.archive], 2, small_keydoor())
    result = backward_run(demos, ReplayOracleLearner(), small_keydoor,
                          oracle_cfg(advance_interval=4, max_attempts=40), seed=0)
    for row in result.progress:
        assert len(row.max_starting_points) == 2
        assert len(row.success_rates) == 2


def test_backward_needs_demos():
    with pytest.raises(ShortfallError):
        backward_run([], ReplayOracleLearner(), small_keydoor, BackwardConfig(), 0)


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


def corridor_demo_with_early_penalty():
    """A corridor run that clips one -1 hazard, idles for a full termination
    window, then collects a 2000-point treasure: the exact shape that makes a
    zero-deficit sliding window kill even perfect replays."""
    from archex.envs import ACTION_DOWN, ACTION_NOOP, ACTION_RIGHT, ACTION_UP

    actions = ([ACTION_RIGHT] * 13 + [ACTION_NOOP] * 60
               + [ACTION_UP] * 2 + [ACTION_RIGHT] * 7 + [ACTION_DOWN] * 2
               + [ACTION_RIGHT] * 2 + [ACTION_DOWN] + [ACTION_RIGHT] * 6
               + [ACTION_UP] + [ACTION_RIGHT])
    env = small_corridor()
    demo = scripted_demo(env, actions)
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
    result = backward_run([demo], ReplayOracleLearner(), small_corridor, cfg, seed=0)
    assert result.min_starting_point() > 0
    assert not result.demo_progress[0].zero_confirmed


def test_allowed_deficit_unstrands_negative_reward_demo():
    demo = corridor_demo_with_early_penalty()
    cfg = BackwardConfig(success_threshold=0.1, advance_interval=3, delta=10,
                         window=50, allowed_deficit=250.0, sticky_p=0.0,
                         max_noops=0, max_attempts=120)
    result = backward_run([demo], ReplayOracleLearner(), small_corridor, cfg, seed=0)
    assert result.min_starting_point() == 0
    assert result.demo_progress[0].zero_confirmed


def test_scale_shaping_with_corridor_rewards():
    """Scaled rewards keep the -1 vs +2000 proportions; clipping destroys
    them. Checked on the actual demo reward stream."""
    demo = corridor_demo_with_early_penalty()
    per_frame = [demo.reward_at(i) for i in range(1, demo.length + 1)]
    scale = RewardShaping("scale", 0.001)
    clip = RewardShaping("clip")
    assert sum(scale(r) for r in per_frame) == pytest.approx(demo.score * 0.001)
    assert sum(clip(r) for r in per_frame) == 0.0  # -1 and +1 cancel


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
    pins the sticky-action wrapper's p = 0 path, which draws nothing."""
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
    """A backward run's policy gets the same raw scores from block-drawn
    fallback actions as from one draw per unknown-state frame."""
    from archex.evaluation import EvalProtocol, evaluate_policy
    from oracle import evaluate_scalar_draws

    demo = select_demonstrations([kd_result.archive], 1, small_keydoor())[0]
    first_level = next(i for i, c in enumerate(demo.cum_rewards) if c >= 1100.0)
    demo = truncate_demo(demo, max_frames=first_level, to_last_reward=True)
    cfg = BackwardConfig(success_threshold=0.4, advance_interval=50, delta=8, window=50,
                         sticky_p=sticky_p, max_noops=30, frame_budget=6_000,
                         rollout_frame_cap=400)
    learner = TabularQLearner(5, TabularQConfig(alpha=0.3, gamma=0.98, epsilon=0.1))
    backward_run([demo], learner, small_keydoor, cfg, seed=4)
    policy = CountingPolicy(learner.q, 5)
    protocol = EvalProtocol(max_noop=6, min_episodes=2, sticky_p=sticky_p,
                            time_limit_game_frames=2_400)
    rows = evaluate_scalar_draws(policy, small_keydoor, protocol, seed=29)
    outcome = evaluate_policy(policy, small_keydoor, protocol, seed=29)
    assert outcome.scores == [row[:3] for row in rows]
    assert policy.known > 0 and policy.unknown > 256


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
                dict(shaping=RewardShaping("scale"), allowed_deficit=250.0))
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


def test_scalar_reference_catches_a_mutated_tie_rule(kd_result, tmp_path, monkeypatch):
    """The differential test fails when the greedy cache breaks ties by the
    last maximum instead of the first."""
    update = TabularQLearner.update

    def last_max_update(self, transitions):
        update(self, transitions)
        for state, *_ in transitions:
            row = self.q[state]
            self.greedy[state] = max(reversed(range(self.n_actions)), key=row.__getitem__)

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
        learner.update([((state,), action % n_actions, reward, (next_state,), done)])
        assert learner.greedy.keys() == learner.q.keys()
        for key, row in learner.q.items():
            best = learner.greedy[key]
            assert best == max(range(n_actions), key=row.__getitem__)
            assert row[best] == max(row)


# -- policy checkpoints -------------------------------------------------------------------


def test_policy_checkpoint_roundtrip(tmp_path):
    learner = TabularQLearner(5)
    learner.update([((1, 2), 3, 1.0, (1, 3), False), ((1, 3), 0, -1.0, (1, 2), True)])
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
    from archex.robustify import PolicyCheckpoint

    candidates = [
        PolicyCheckpoint(q={}, n_actions=5, min_msp=msp, attempts=i)
        for i, msp in enumerate([0, 0, 0, 40, 300])
    ]
    calls = []

    def evaluator(ckpt, eval_index):
        calls.append((ckpt.attempts, eval_index))
        return float(ckpt.attempts)

    rng = np.random.default_rng(0)
    chosen, selection_score, retest = best_checkpoint(
        candidates, evaluator, rng, near=50, max_tested=3
    )
    assert chosen.min_msp <= 50          # candidates near the minimum only
    tested = {c for c, _ in calls[:-1]}
    assert 300 not in {candidates[i].attempts for i in range(5) if candidates[i].min_msp > 50} & tested
    assert calls[-1][0] == chosen.attempts  # the retest call
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
