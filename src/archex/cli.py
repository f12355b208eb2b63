"""Command-line front end.

Subcommands: explore (Phase 1), robustify (Phase 2), evaluate, replay, and
report. Exit codes: 0 success, 2 config error, 3 integrity/checkpoint error,
4 shortfall or unmet precondition.

All commands honor --seed; identical invocations produce bit-identical
outputs apart from wall-clock columns. --workers (and the ``workers`` config
key) is accepted and must be >= 1, but has no effect yet: rollouts run
serially in worker order whatever its value.
"""

from __future__ import annotations

import argparse
import sys

from .archive import checkpoint_load, checkpoint_save, output_dir, write_csv
from .config import ExperimentConfig, load_config
from .errors import (
    ArchexError,
    CheckpointError,
    ConfigError,
    ContractError,
    IntegrityError,
    ShortfallError,
    SnapshotFormatError,
)
from .evaluation import emit_report, evaluate_policy
from .explore import MetricsRow, Phase1Result, read_metrics, replay_record, run_phase1
from .robustify import (
    NEAR,
    GreedyTabularPolicy,
    TabularQLearner,
    backward_run,
    best_checkpoint,
    load_policy,
    save_policy,
    select_demonstrations,
    truncate_demo,
)
from .seeding import TAG_CHECKPOINT, stream

ASCII_RAMP = " .:-=+*#%@"


def _load(args: argparse.Namespace) -> ExperimentConfig:
    overrides: dict[str, str] = {}
    if args.seed is not None:
        overrides["explore.seed"] = str(args.seed)
    if getattr(args, "budget_frames", None) is not None:
        overrides["explore.budget_training_frames"] = str(args.budget_frames)
    if getattr(args, "workers", None) is not None:
        overrides["workers"] = str(args.workers)
    if args.out is not None:
        overrides["out.dir"] = args.out
    return load_config(args.config, overrides)


def cmd_explore(args: argparse.Namespace) -> int:
    cfg = _load(args)
    out = output_dir(cfg.out_dir)
    archive_path = out / "archive.ckpt"
    metrics_path = out / "metrics.csv"
    resume = Phase1Result(*checkpoint_load(args.resume), []) if args.resume else None
    if resume is not None and metrics_path.exists():
        resume.metrics = read_metrics(metrics_path)

    def save(run: Phase1Result) -> None:
        # Metrics first: after a crash between the two writes, the resume
        # drops the rows past the checkpoint instead of missing some.
        write_csv(metrics_path, MetricsRow._fields, run.metrics)
        checkpoint_save(run.archive, archive_path, run.meta)

    interval = cfg.explore.checkpoint_interval_iterations

    def on_iteration(run: Phase1Result) -> None:
        if run.meta.iteration % interval == 0:
            save(run)

    result = run_phase1(
        cfg.env_factory(),
        cfg.explore,
        cfg.selection,
        cfg.mapper(),
        resume=resume,
        on_iteration=on_iteration if interval else None,
    )
    save(result)
    last = result.metrics[-1]
    print(
        f"explored {last.training_frames} training frames "
        f"({last.game_frames} game frames): {last.cells} cells, "
        f"{last.rooms} rooms, max score {last.max_score}, "
        f"max level {last.max_level}"
    )
    print(f"archive checkpoint: {archive_path}")
    return 0


def cmd_robustify(args: argparse.Namespace) -> int:
    cfg = _load(args)
    out = output_dir(cfg.out_dir)
    env = cfg.env_factory()()
    archives = []
    for path in args.demos:
        archive, _ = checkpoint_load(path, expected_config_hash=env.config_hash)
        archives.append(archive)

    rcfg = cfg.robustify
    demos = select_demonstrations(archives, rcfg.n_demos, env, rcfg.demo_stride)
    if rcfg.truncate_frames is not None or rcfg.truncate_to_last_reward:
        demos = [
            truncate_demo(d, rcfg.truncate_frames, rcfg.truncate_to_last_reward)
            for d in demos
        ]
    for i, demo in enumerate(demos):
        print(f"demo{i}: {demo.length} frames, score {demo.score}, level {demo.level}")

    learner = TabularQLearner(env.action_count, rcfg.q)
    result = backward_run(
        demos, learner, cfg.env_factory(), rcfg.backward, seed=cfg.explore.seed
    )
    n = len(demos)
    write_csv(
        out / "progress.csv",
        ["attempts", *(f"max_starting_point_{i}" for i in range(n)),
         *(f"success_rate_{i}" for i in range(n)), "last_score"],
        ([r.attempts, *r.max_starting_points, *r.success_rates, r.last_score]
         for r in result.progress),
    )
    print(
        f"{result.attempts} attempts, {result.frames} training frames, "
        f"min max_starting_point {result.min_starting_point()}"
    )
    print(f"reached within {NEAR} of frame 0: {result.min_starting_point() <= NEAR}")

    def evaluator(checkpoint, eval_index: int) -> float:
        policy = GreedyTabularPolicy(checkpoint.q, checkpoint.n_actions)
        outcome = evaluate_policy(
            policy, cfg.env_factory(), cfg.protocol,
            seed=int(stream(cfg.explore.seed, TAG_CHECKPOINT, eval_index).integers(2**63)),
        )
        return outcome.grand_mean

    rng = stream(cfg.explore.seed, TAG_CHECKPOINT, 0xC0DE)
    chosen, selection_score, retest = best_checkpoint(result.checkpoints, evaluator, rng)
    policy_path = out / "policy.ckpt"
    save_policy(chosen, policy_path, env.config_hash)
    print(
        f"best checkpoint: max_starting_point {chosen.min_msp}, "
        f"selection score {selection_score}, retest score {retest}"
    )
    print(f"policy checkpoint: {policy_path}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = _load(args)
    out = output_dir(cfg.out_dir)
    env = cfg.env_factory()()
    checkpoint = load_policy(args.policy, expected_config_hash=env.config_hash)
    if checkpoint.n_actions != env.action_count:
        raise CheckpointError(
            f"policy has {checkpoint.n_actions} actions, the environment {env.action_count}")
    policy = GreedyTabularPolicy(checkpoint.q, checkpoint.n_actions)
    result = evaluate_policy(policy, cfg.env_factory(), cfg.protocol, seed=cfg.explore.seed)
    write_csv(out / "raw_scores.csv", ["noop", "episode", "score"], result.scores)
    write_csv(out / "per_noop.csv", ["noop", "mean_score"], result.per_noop.items())
    print(f"grand mean: {result.grand_mean}")
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    cfg = _load(args)
    env = cfg.env_factory()()
    archive, _ = checkpoint_load(args.archive, expected_config_hash=env.config_hash)
    if args.cell == "best":
        key, record = archive.best_record()
    else:
        try:
            wanted = bytes.fromhex(args.cell)
        except ValueError:
            raise ConfigError(f'--cell: expected "best" or a hex key, got {args.cell!r}') from None
        key = archive.find_encoded(wanted)
        if key is None:
            raise ShortfallError(f"no cell with key {args.cell}")
        record = archive.record(key)
    replay_record(env, record, key, cfg.mapper())
    print(
        f"replay ok: score {record.score}, {record.traj_len} training frames, "
        f"key {key.encode().hex()}"
    )
    if args.render:
        ramp = ASCII_RAMP
        for row in env.render()[:: env.tile_px]:
            print("".join(ramp[int(v) * (len(ramp) - 1) // 255] for v in row[:: env.tile_px]))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    written = emit_report(args.csvs, args.out or "report",
                          seed=args.seed if args.seed is not None else 0)
    for path in written:
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="archex",
        description="archive-driven exploration, robustification, evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, config_required: bool = True) -> None:
        p.add_argument("--config", required=config_required, help="experiment config file")
        p.add_argument("--seed", type=int, default=None, help="override explore.seed")
        p.add_argument("--out", default=None, help="override out.dir")

    p = sub.add_parser("explore", help="run the exploration phase")
    common(p)
    p.add_argument("--budget-frames", type=int, default=None,
                   help="total training-frame budget (cumulative across resume)")
    p.add_argument("--resume", default=None, help="archive checkpoint to continue")
    p.add_argument("--workers", type=int, default=None,
                   help="accepted (>= 1) but has no effect yet: rollouts run serially")
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser("robustify", help="run the backward-curriculum phase")
    common(p)
    p.add_argument("demos", nargs="+", help="archive checkpoints to draw demonstrations from")
    p.set_defaults(func=cmd_robustify)

    p = sub.add_parser("evaluate", help="evaluate a policy checkpoint")
    common(p)
    p.add_argument("--policy", required=True, help="policy checkpoint path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("replay", help="replay an archived cell and verify it")
    common(p)
    p.add_argument("--archive", required=True, help="archive checkpoint path")
    p.add_argument("--cell", default="best", help='"best" or a hex-encoded cell key')
    p.add_argument("--render", action="store_true", help="print the final frame as text")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("report", help="aggregate metric CSVs into mean/CI files")
    p.add_argument("csvs", nargs="+", help="per-seed metrics.csv files")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (IntegrityError, CheckpointError, SnapshotFormatError) as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return 3
    except (ShortfallError, ContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ArchexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
