"""The benchmark's workloads: generated configs, set-up, one timed
repetition, and the checks on what archex produced.

archex only ever receives a config file that the benchmark generates from
a shipped config (or, for robustify-eval, from the acceptance-criterion-7
world) with the workload seed written in. A repetition is a fixed amount of
work, so repeating it with the same seed must reproduce its fingerprint
bit for bit; every run checks that.

Imported only after ``src`` is on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import os
import shutil
import time
import types
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import archex.archive as A
import archex.cells as C
import archex.cli as CLI
import archex.config as CFG
import archex.evaluation as E
import archex.explore as X
import archex.robustify as R
import archex.selection as S
from archex.envs.gridworld import GridWorld
from archex.errors import ArchexError
from archex.seeding import TAG_ATTEMPT, TAG_EVAL, stream

from speed import SpeedClock
from tracer import Tracer, perf

REPLAY_SAMPLE = 16  # archived cells replay-verified per run, besides the best


@dataclass
class Context:
    root: Path   # checkout root
    work: Path   # per-run scratch directory inside the checkout
    seed: int


@dataclass
class Rep:
    """One timed repetition."""

    wall: float              # raw seconds, probe time left out
    cpu: float               # CPU seconds, probe time left out
    ref_wall: float          # wall rescaled to the reference speed (untraced only)
    frames: int              # training frames stepped in the timed part
    steps_s: list[float]     # rescaled durations of the workload's progress steps
    fingerprint: dict
    rates: dict[str, float] = field(default_factory=dict)   # per-phase throughput
    layer: dict[str, float] = field(default_factory=dict)   # values read from outputs
    keep: dict = field(default_factory=dict)                # outputs the checks read


def rewrite_config(text: str, values: dict[str, str]) -> str:
    """Set ``values`` in a config text, replacing lines that already name a
    key (the parser rejects duplicates) and appending the rest."""
    lines, seen = [], set()
    for line in text.splitlines():
        key = line.split("#", 1)[0].split("=", 1)[0].strip()
        if "=" in line.split("#", 1)[0] and key in values:
            line = f"{key} = {values[key]}"
            seen.add(key)
        lines.append(line)
    lines += [f"{k} = {v}" for k, v in values.items() if k not in seen]
    return "\n".join(lines) + "\n"


def run_cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = CLI.main(argv)
    if code != 0:
        raise RuntimeError(f"archex {' '.join(argv)} exited with code {code}")


def archive_facts(archive: A.Archive) -> dict[str, float]:
    nodes: set[int] = set()
    snapshot_bytes = 0
    for record in archive.cells.values():
        node = record.trajectory.tail
        while node is not None and id(node) not in nodes:
            nodes.add(id(node))
            node = node.parent
        snapshot_bytes += len(record.snapshot.state_bytes)
    return {
        "archive.cells": len(archive),
        "archive.trajectory_nodes": len(nodes),
        "archive.snapshot_bytes": snapshot_bytes,
    }


def archive_fingerprint(data: bytes, archive: A.Archive) -> dict:
    return {
        "archive_sha256": hashlib.sha256(data).hexdigest(),
        "cells": len(archive),
        "max_score": archive.max_score(),
        "max_level": archive.max_level,
    }


def replay_checks(config_path: Path, archive: A.Archive, seed: int) -> list[tuple[str, bool]]:
    """Replay the best cell and a seeded sample of cells from reset."""
    cfg = CFG.load_config(config_path)
    env = cfg.env_factory()()
    mapper = cfg.mapper()
    keys = archive.sorted_keys()
    rng = np.random.default_rng([seed, 0x5EED])
    picked = rng.choice(len(keys), size=min(REPLAY_SAMPLE, len(keys)), replace=False)
    targets = [("best", archive.best_record()[0])]
    targets += [(f"cell{int(i)}", keys[int(i)]) for i in sorted(picked)]
    checks = []
    for label, key in targets:
        try:
            X.replay_record(env, archive.cells[key], key, mapper)
            checks.append((f"replay {label}", True))
        except ArchexError:
            checks.append((f"replay {label}", False))
    return checks


def _marks(patcher: Tracer, owner, name: str, on_call, on_return=None) -> None:
    """Patch ``owner.name`` to call ``on_call(args)`` before the original and
    ``on_return()`` after it."""
    original = getattr(owner, name)

    def marked(*args, **kwargs):
        on_call(args)
        try:
            return original(*args, **kwargs)
        finally:
            if on_return is not None:
                on_return()

    patcher.patch(owner, name, marked)


def _timing(clock: SpeedClock | None, t0: float, c0: float) -> tuple[float, float, float]:
    """Raw wall and CPU seconds since (t0, c0) without probe time, and the
    wall rescaled to the reference speed (0 without a clock)."""
    t_end, c_end = perf(), time.process_time()
    if clock is None:
        return t_end - t0, c_end - c0, 0.0
    probe = clock.probe_seconds(t0, t_end)
    return t_end - t0 - probe, c_end - c0 - probe, clock.seconds(t0, t_end)


def _steps(clock: SpeedClock | None, starts: list[float], end: float) -> list[float]:
    """Rescaled durations between consecutive step starts, the last one
    ending at ``end``."""
    if clock is None:
        return []
    return [clock.seconds(a, b) for a, b in zip(starts, starts[1:] + [end])]


# -- explore workloads -----------------------------------------------------------


class ExploreWorkload:
    """``archex explore`` on a shipped config, in process, one fresh run per
    repetition with the config's periodic checkpoints."""

    # Set-up takes milliseconds, so its median needs many samples.
    setup_repeats = 11
    setup_repeats_per_rep = 11

    def __init__(self, name: str, shipped: str, overrides: dict[str, str]) -> None:
        self.name = name
        self.shipped = shipped
        self.overrides = overrides

    def setup(self, ctx: Context, index: int) -> Path:
        """Generate the config and build what the program builds before its
        loop: parsed config, environment, mapper, the start cell."""
        text = (ctx.root / self.shipped).read_text()
        values = dict(self.overrides)
        values["explore.seed"] = str(ctx.seed)
        path = ctx.work / f"{self.name}-{index}.cfg"
        path.write_text(rewrite_config(text, values))
        cfg = CFG.load_config(path)
        env = cfg.env_factory()()
        obs, _ = env.reset(cfg.explore.seed)
        cfg.mapper()(obs, obs.features)
        return path

    def same_setup(self, a: Path, b: Path) -> bool:
        return a.read_bytes() == b.read_bytes()

    def rep(self, ctx: Context, config_path: Path, index: int,
            tracer: Tracer | None, clock: SpeedClock | None) -> Rep:
        out = ctx.work / f"rep{index}"
        argv = ["explore", "--config", str(config_path), "--out", str(out)]
        starts: list[float] = []
        ends: list[float] = []
        marks = Tracer()
        if clock is not None:
            def on_iteration(args):
                starts.append(perf())
                clock.mark()

            _marks(marks, X, "run_iteration", on_iteration, lambda: ends.append(perf()))
        gc.collect()
        try:
            t0, c0 = perf(), time.process_time()
            if clock is not None:
                clock.mark()
            with tracer.span("workload", "other") if tracer else contextlib.nullcontext():
                run_cli(argv)
            wall, cpu, ref_wall = _timing(clock, t0, c0)
        finally:
            marks.uninstall()

        data = (out / "archive.ckpt").read_bytes()
        archive, meta = A.deserialize_archive(data)
        shutil.rmtree(out)
        return Rep(
            wall=wall,
            cpu=cpu,
            ref_wall=ref_wall,
            frames=meta.training_frames,
            steps_s=_steps(clock, starts, ends[-1]) if ends else [],
            fingerprint=archive_fingerprint(data, archive),
            rates={
                "explore_frames_per_s": meta.training_frames / wall,
                "explore_frames_per_cpu_s": meta.training_frames / cpu,
            },
            layer=archive_facts(archive),
            keep={"archive": archive, "meta": meta},
        )

    def verify(self, ctx: Context, config_path: Path, rep: Rep) -> list[tuple[str, bool]]:
        budget = CFG.load_config(config_path).explore.budget_training_frames
        checks = [("budget spent", rep.keep["meta"].training_frames >= budget)]
        return checks + replay_checks(config_path, rep.keep["archive"], ctx.seed)


# -- robustify + evaluate ----------------------------------------------------------

# Acceptance criterion 7's 2x2 key-door world and its robustify/eval settings,
# with backward_run stopped by a frame budget instead of criterion 7's attempt
# cap: every seed then spends the same robustify frames beside the fixed
# 155-episode evaluation, so the mix of the two phases does not vary with the
# seed. Of 18 seeds tried, one anchored at frame 0 and stopped sooner (34k
# frames); the others needed 55k-170k frames.
ROBUSTIFY_CONFIG = """\
env.type = keydoor
env.rooms_rows = 2
env.rooms_cols = 2
env.room_w = 5
env.room_h = 5
env.keys = 1:4,1
env.locked_doors = 2-3; 1-3
env.hazards =
env.treasure_room = 3
env.time_limit_game_frames = 4000
repr.mode = domain
repr.grid_size = 1
select.domain_mode = true
select.w_horizontal = 0.3
select.w_vertical = 0.1
select.w_more_keys = 10
explore.k = 40
explore.batch = 20
explore.budget_training_frames = 40000
explore.metric_interval_game_frames = 1000000000
robustify.success_threshold = 0.4
robustify.advance_interval = 50
robustify.delta = 8
robustify.window = 50
robustify.allowed_deficit = 0
robustify.sticky_p = 0.25
robustify.max_noops = 30
robustify.frame_budget = 40000
robustify.rollout_frame_cap = 400
robustify.alpha = 0.3
robustify.gamma = 0.98
robustify.epsilon = 0.1
eval.max_noop = 30
eval.min_episodes = 5
eval.sticky_p = 0.25
eval.time_limit_game_frames = 4000
"""
TREASURE_REWARD = 1000.0
EVAL_SEED_OFFSET = 1000  # criterion 7 evaluates seed s with seed 1000 + s


@dataclass
class RobustifyInput:
    config_path: Path
    checkpoint: Path


class RobustifyEvalWorkload:
    """Set-up explores and writes the archive checkpoint; the timed part
    loads it, builds the demonstration, runs the backward curriculum with
    the tabular learner, evaluates the policy over the no-op sweep and
    bootstraps a confidence interval of the raw scores."""

    name = "robustify-eval"
    setup_repeats = 3
    setup_repeats_per_rep = 0

    def setup(self, ctx: Context, index: int) -> RobustifyInput:
        path = ctx.work / f"{self.name}.cfg"
        path.write_text(rewrite_config(ROBUSTIFY_CONFIG, {"explore.seed": str(ctx.seed)}))
        out = ctx.work / f"setup{index}"
        run_cli(["explore", "--config", str(path), "--out", str(out)])
        return RobustifyInput(path, out / "archive.ckpt")

    def same_setup(self, a: RobustifyInput, b: RobustifyInput) -> bool:
        return a.checkpoint.read_bytes() == b.checkpoint.read_bytes()

    def rep(self, ctx: Context, given: RobustifyInput, index: int,
            tracer: Tracer | None, clock: SpeedClock | None) -> Rep:
        cfg = CFG.load_config(given.config_path)
        rcfg = cfg.robustify
        env_factory = cfg.env_factory()
        group_starts: list[float] = []
        episode_frames: list[int] = []
        eval_envs: list = []

        def eval_factory():
            env = env_factory()
            eval_envs.append(env)
            return env

        marks = Tracer()
        if clock is not None:
            def on_attempt(args):
                if args[1] == TAG_ATTEMPT and args[2] % rcfg.backward.advance_interval == 0:
                    clock.mark()

            def on_episode(args):
                if args[1] == TAG_EVAL and len(args) == 4:
                    if args[3] == 0:  # first episode of a no-op count
                        group_starts.append(perf())
                        clock.mark()
                    episode_frames.append(eval_envs[-1].frame_counters()[1])

            _marks(marks, R, "stream", on_attempt)
            _marks(marks, E, "stream", on_episode)
        gc.collect()
        try:
            t0, c0 = perf(), time.process_time()
            if clock is not None:
                clock.mark()
            with tracer.span("workload", "other") if tracer else contextlib.nullcontext():
                env = env_factory()
                archive, _ = A.checkpoint_load(given.checkpoint, env.config_hash)
                demo = R.select_demonstrations([archive], 1, env, rcfg.demo_stride)[0]
                treasure = next(
                    (i for i in range(1, demo.length + 1)
                     if demo.reward_at(i) >= TREASURE_REWARD),
                    None,
                )
                demo = R.truncate_demo(demo, max_frames=treasure, to_last_reward=True)
                learner = R.TabularQLearner(env.action_count, rcfg.q)
                t_rob = perf()
                result = R.backward_run(
                    [demo], learner, env_factory, rcfg.backward, seed=ctx.seed
                )
                t_eval = perf()
                outcome = E.evaluate_policy(
                    learner.policy(), eval_factory, cfg.protocol,
                    seed=EVAL_SEED_OFFSET + ctx.seed,
                )
                t_end = perf()
                ci = E.bootstrap_ci(
                    [score for _, _, score in outcome.scores],
                    rng=stream(ctx.seed, TAG_EVAL, 0xB005),
                )
            wall, cpu, ref_wall = _timing(clock, t0, c0)
        finally:
            marks.uninstall()

        policy_path = ctx.work / f"policy{index}.ckpt"
        R.save_policy(result.checkpoints[-1], policy_path, env.config_hash)
        fingerprint = archive_fingerprint(given.checkpoint.read_bytes(), archive)
        fingerprint.update(
            min_starting_point=result.min_starting_point(),
            grand_mean=outcome.grand_mean,
            bootstrap_ci=list(ci),
            policy_sha256=hashlib.sha256(policy_path.read_bytes()).hexdigest(),
        )
        episodes = len(outcome.scores)
        eval_frames = 0
        t_robustify, t_evaluate = t_eval - t_rob, t_end - t_eval
        if clock is not None:
            eval_frames = sum(episode_frames[1:]) + eval_envs[-1].frame_counters()[1]
            t_robustify -= clock.probe_seconds(t_rob, t_eval)
            t_evaluate -= clock.probe_seconds(t_eval, t_end)
        window_rates = [row.success_rates[0] for row in result.progress[:-1]]
        layer = archive_facts(archive)
        layer.update({
            "robustify.attempts": result.attempts,
            "robustify.min_starting_point": result.min_starting_point(),
            "robustify.success_ratio": (sum(window_rates) / len(window_rates)
                                        if window_rates else 0.0),
            "evaluation.episodes": episodes,
        })
        return Rep(
            wall=wall,
            cpu=cpu,
            ref_wall=ref_wall,
            frames=result.frames + eval_frames,
            # Eval no-op groups are the steps: their work does not depend on
            # the seed, unlike the attempts of a robustify window.
            steps_s=_steps(clock, group_starts, t_end),
            fingerprint=fingerprint,
            rates={
                "robustify_attempts_per_s": result.attempts / t_robustify,
                "robustify_frames_per_s": result.frames / t_robustify,
                "eval_episodes_per_s": episodes / t_evaluate,
                "eval_frames_per_s": eval_frames / t_evaluate,
            },
            layer=layer,
            keep={"archive": archive, "policy": policy_path,
                  "checkpoint": result.checkpoints[-1], "config_hash": env.config_hash},
        )

    def verify(self, ctx: Context, given: RobustifyInput, rep: Rep) -> list[tuple[str, bool]]:
        saved = rep.keep["checkpoint"]
        try:
            loaded = R.load_policy(rep.keep["policy"], rep.keep["config_hash"])
            same = (loaded.q == saved.q and loaded.n_actions == saved.n_actions
                    and loaded.min_msp == saved.min_msp and loaded.attempts == saved.attempts)
        except ArchexError:
            same = False
        checks = [("policy round trip", same)]
        return checks + replay_checks(given.config_path, rep.keep["archive"], ctx.seed)


WORKLOADS = {
    w.name: w
    for w in (
        # Domain cells with neighbor, more-keys and level scoring: selection
        # cost grows with the archive (~3k cells at this budget), snapshot
        # and render run on every step although the domain mapper never reads
        # the frame, and the periodic checkpoint grows with the archive.
        ExploreWorkload(
            "explore-keydoor",
            "configs/keydoor-domain.cfg",
            {"explore.budget_training_frames": "500000"},
        ),
        # Downscaled frames with the memoised mapper: render and the mapper
        # do real work, neighbor scoring is off and the archive stays small.
        # The no-change side for skip-render and neighbor-weight changes.
        ExploreWorkload(
            "explore-corridor-downscale",
            "configs/corridor-deceptive.cfg",
            {
                "repr.mode": "downscale",
                "select.domain_mode": "false",
                "explore.budget_training_frames": "300000",
            },
        ),
        # Reads the archive instead of writing it; the only workload where
        # robustify and evaluation do any work.
        RobustifyEvalWorkload(),
    )
}


# -- tracing -------------------------------------------------------------------------


def install_tracing(tr: Tracer) -> None:
    """Wrap the public functions of every archex layer the workloads reach.

    Per-step calls are aggregated only; iterations, rollouts, phases,
    attempts and episodes also record spans.
    """
    tr.wrap(GridWorld, "step", "envs.step", "envs")
    tr.wrap(GridWorld, "snapshot", "envs.snapshot", "envs",
            after=lambda r, a: tr.count("envs.snapshot.bytes", len(r.state_bytes)))
    tr.wrap(GridWorld, "restore", "envs.restore", "envs")
    tr.wrap(GridWorld, "render", "envs.render", "envs")
    tr.wrap(GridWorld, "discrete_state", "envs.discrete_state", "envs")

    for factory_name in ("domain_mapper", "downscale_mapper"):
        factory = getattr(CFG, factory_name)

        def traced_factory(*args, _factory=factory, **kwargs):
            holder = types.SimpleNamespace(map=_factory(*args, **kwargs))
            tr.wrap(holder, "map", "cells.map", "cells")
            return holder.map

        tr.patch(CFG, factory_name, traced_factory)
    tr.wrap(C, "downscale_cell", "cells.downscale_cell", "cells")

    tr.wrap(X, "cell_probs", "selection.cell_probs", "selection", span=True)
    tr.wrap(S, "neigh_subscore", "selection.neigh_subscore", "selection")
    tr.wrap(X, "sample_batch", "selection.sample_batch", "selection", span=True)

    tr.wrap(A.Archive, "insert_or_update", "archive.insert", "archive",
            after=lambda r, a: tr.count("archive." + r.value))
    tr.wrap(CLI, "checkpoint_save", "archive.checkpoint_save", "archive", span=True,
            after=lambda r, a: tr.count("archive.checkpoint_save.bytes", os.path.getsize(a[1])))
    tr.wrap(A, "checkpoint_load", "archive.checkpoint_load", "archive", span=True,
            after=lambda r, a: tr.count("archive.checkpoint_load.bytes", os.path.getsize(a[0])))

    def on_rollout(result, args):
        tr.count("explore.rollouts")
        tr.count("explore.terminated", result.terminated)

    tr.wrap(CLI, "run_phase1", "explore.run_phase1", "explore", span=True)
    tr.wrap(X, "run_iteration", "explore.iteration", "explore", span=True)
    tr.wrap(X, "explore_from", "explore.rollout", "explore", span=True, after=on_rollout)
    tr.wrap(X, "merge_results", "explore.merge", "explore", span=True)

    attempt: list[float] = []

    def on_attempt(args):
        if args[1] == TAG_ATTEMPT:
            attempt[:] = [perf()]

    def attempt_done(result, args):
        tr.add_span("robustify.attempt", attempt[0], perf())

    _marks(tr, R, "stream", on_attempt)
    tr.wrap(R, "select_demonstrations", "robustify.select_demonstrations", "robustify", span=True)
    tr.wrap(R, "truncate_demo", "robustify.truncate_demo", "robustify", span=True)
    tr.wrap(R, "backward_run", "robustify.backward_run", "robustify", span=True)
    tr.wrap(R.Demonstration, "snapshot_at", "robustify.snapshot_at", "robustify")
    tr.wrap(R.TabularQLearner, "act", "robustify.learner_act", "robustify")
    tr.wrap(R.TabularQLearner, "update", "robustify.learner_update", "robustify",
            after=attempt_done)
    tr.wrap(R, "early_terminate", "robustify.early_terminate", "robustify")

    episode: list = []  # [start, parent span]

    def close_episode():
        if episode:
            tr.add_span("evaluation.episode", episode[0], perf(), parent=episode[1])
            episode.clear()

    def on_episode(args):
        if args[1] == TAG_EVAL and len(args) == 4:
            close_episode()
            episode[:] = [perf(), tr.current_span()]

    _marks(tr, E, "stream", on_episode)
    tr.wrap(E, "evaluate_policy", "evaluation.evaluate_policy", "evaluation", span=True,
            after=lambda r, a: close_episode())
    tr.wrap(R.GreedyTabularPolicy, "act", "evaluation.policy_act", "evaluation")
    tr.wrap(E, "bootstrap_ci", "evaluation.bootstrap", "evaluation", span=True)


LAYERS = ("envs", "cells", "selection", "archive", "explore", "robustify", "evaluation", "other")


def layer_metrics(tr: Tracer, rep: Rep) -> dict[str, float]:
    """Per-layer metrics of one traced repetition."""
    out: dict[str, float] = {}
    for name in ("envs.step", "envs.snapshot", "envs.restore", "envs.render",
                 "envs.discrete_state", "cells.map", "selection.cell_probs",
                 "archive.insert", "archive.checkpoint_save", "robustify.learner_act",
                 "robustify.early_terminate", "evaluation.policy_act"):
        out[name + ".calls"] = tr.calls(name)
        out[name + ".s"] = tr.seconds(name)
    for name in ("selection.neigh_subscore", "selection.sample_batch",
                 "archive.checkpoint_load", "robustify.snapshot_at",
                 "robustify.learner_update", "evaluation.bootstrap"):
        out[name + ".s"] = tr.seconds(name)
    counter = tr.counters.get
    out["envs.snapshot.bytes"] = counter("envs.snapshot.bytes", 0)
    out["cells.downscale_cell.calls"] = tr.calls("cells.downscale_cell")
    downscaled = tr.calls("cells.downscale_cell")
    out["cells.memo_hit_ratio"] = 1 - downscaled / tr.calls("cells.map") if downscaled else 0.0
    probs = [e - s for _, _, _, n, s, e in tr.spans if n == "selection.cell_probs"]
    out["selection.cell_probs.ms_last"] = 1000 * probs[-1] if probs else 0.0

    added, improved = counter("archive.added", 0), counter("archive.improved", 0)
    out["archive.added"] = added
    out["archive.improved"] = improved
    snapshots = tr.calls("envs.snapshot")
    out["archive.snapshot_keep_ratio"] = (added + improved) / snapshots if snapshots else 0.0
    out["archive.checkpoint_save.bytes"] = counter("archive.checkpoint_save.bytes", 0)
    out["archive.checkpoint_load.bytes"] = counter("archive.checkpoint_load.bytes", 0)

    out["explore.iterations"] = tr.calls("explore.iteration")
    out["explore.select.s"] = (tr.seconds("selection.cell_probs")
                               + tr.seconds("selection.sample_batch"))
    out["explore.rollout.s"] = tr.seconds("explore.rollout")
    out["explore.merge.s"] = tr.seconds("explore.merge")
    rollouts = counter("explore.rollouts", 0)
    terminated = counter("explore.terminated", 0)
    out["explore.terminated_ratio"] = terminated / rollouts if rollouts else 0.0

    out["robustify.demo_build.s"] = (tr.seconds("robustify.select_demonstrations")
                                     + tr.seconds("robustify.truncate_demo"))

    for key in ("archive.cells", "archive.trajectory_nodes", "archive.snapshot_bytes",
                "robustify.attempts", "robustify.min_starting_point",
                "robustify.success_ratio", "evaluation.episodes"):
        out[key] = rep.layer.get(key, 0)

    by_layer = tr.self_seconds_by_layer()
    for layer in LAYERS:
        out[layer + ".self_share"] = by_layer.get(layer, 0.0) / rep.wall
    out["trace.spans"] = len(tr.spans)
    return out
