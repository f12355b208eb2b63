"""Stochastic evaluation protocol and summary statistics.

A policy is scored by running at least ``min_episodes`` episodes for every
forced no-op count in 0..30 under sticky actions (the rule of
:mod:`archex.envs.wrappers`, applied in the episode loop), each cut at the
time limit as a world cuts it (:func:`archex.envs.base.frame_limit`),
averaging per no-op, and reporting the grand mean of the 31 per-no-op
means. Uncertainty is reported with pivotal bootstrap intervals
``(2*stat - q_hi, 2*stat - q_lo)``; figure-style bands, and the report over
files that :func:`archex.explore.read_metrics` reads, use plain percentile
bootstrap.

Quantiles of resampled statistics use linear interpolation at rank
``(B - 1) * q`` over the sorted resamples (numpy's "linear" method); pivotal
endpoints depend on this convention, so it is fixed here.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .archive import output_dir, write_csv
from .envs.base import frame_limit
from .envs.gridworld import GridWorld
from .envs.wrappers import force_noops, sticky_uniforms
from .errors import ConfigError, ContractError
from .explore import MetricsRow, read_metrics
from .seeding import TAG_EVAL, stream

# Fallback actions drawn per refill of an episode's action block; on PCG64,
# Generator.integers(n, size=k) yields the same values as k successive
# Generator.integers(n) calls (both take one 32-bit bounded draw each).
_ACTION_BLOCK = 256
# Resample indices drawn and gathered per block of bootstrap rows. Blocks
# draw the same indices as one call for every row would: each index is one
# 32-bit bounded draw, and PCG64 keeps its spare 32-bit half-word in the
# generator state across calls.
_RESAMPLE_BLOCK = 1 << 16
# The most episodes one sweep may run. evaluate_policy runs min_episodes
# episodes for each of the max_noop + 1 no-op counts and keeps a score row
# for each, and nothing else bounds those loops: at max_noop = 2^31 a sweep
# would not end. The paper's protocol, and every shipped config, preset and
# benchmark workload, runs 31 x 5 = 155; the bound is over 400 times that.
MAX_EVAL_EPISODES = 1 << 16


@dataclass(frozen=True)
class EvalProtocol:
    max_noop: int = 30               # forced no-ops range over 0..max_noop
    min_episodes: int = 5
    sticky_p: float = 0.25
    time_limit_game_frames: int = 400_000

    def __post_init__(self) -> None:
        if self.max_noop < 0:
            raise ConfigError("max_noop must be >= 0")
        if self.min_episodes < 1:
            raise ConfigError("min_episodes must be >= 1")
        if (self.max_noop + 1) * self.min_episodes > MAX_EVAL_EPISODES:
            raise ConfigError(f"(max_noop + 1) * min_episodes must be at most "
                              f"{MAX_EVAL_EPISODES}")
        if not 0 <= self.sticky_p < 1:
            raise ConfigError("sticky_p must satisfy 0 <= p < 1")
        if self.time_limit_game_frames < 1:
            raise ConfigError("time_limit_game_frames must be >= 1")


def grand_mean(scores: Iterable[tuple[int, float]]) -> tuple[float, dict[int, float]]:
    """Mean of the per-no-op means; robust to unequal episode counts."""
    buckets: dict[int, list[float]] = {}
    for noop, score in scores:
        buckets.setdefault(noop, []).append(score)
    if not buckets:
        raise ContractError("no scores to aggregate")
    per_noop = {n: sum(v) / len(v) for n, v in sorted(buckets.items())}
    return sum(per_noop.values()) / len(per_noop), per_noop


@dataclass(slots=True)
class EvalResult:
    grand_mean: float
    per_noop: dict[int, float]
    scores: list[tuple[int, int, float]]  # (noop, episode, score)


def uniform_actions(rng: np.random.Generator, n: int) -> Iterator[int]:
    """Endless uniform actions in ``[0, n)`` from ``rng``, drawn lazily in
    blocks of ``_ACTION_BLOCK``."""
    while True:
        yield from rng.integers(n, size=_ACTION_BLOCK).tolist()


def evaluate_policy(
    policy,
    env_factory: Callable[[], GridWorld],
    protocol: EvalProtocol,
    seed: int = 0,
) -> EvalResult:
    """Run the full no-op sweep and return the grand mean and raw scores.

    Episode RNG streams are derived from (seed, noop, episode), so scores are
    reproducible and episodes are independent of evaluation order. Each
    episode's stream first draws the reset seed, which also seeds the
    episode's :func:`sticky_uniforms`; after that it only feeds
    ``policy.act(world, actions)``, whose ``actions`` iterator yields uniform
    fallback actions over ``world.action_count``, drawn from that stream in
    blocks of 256 (see :func:`uniform_actions`). Episodes run one after
    another on the one world ``env_factory`` makes. The loop applies the
    sticky-action rule itself: with ``prev`` the last executed action, a
    decision draws one uniform and, below ``sticky_p``, steps ``prev``
    instead of the policy's action.
    """
    world = env_factory()
    p = protocol.sticky_p
    frame_cap = frame_limit(protocol.time_limit_game_frames, world.frame_skip)
    scores: list[tuple[int, int, float]] = []
    for noop in range(protocol.max_noop + 1):
        for episode in range(protocol.min_episodes):
            rng = stream(seed, TAG_EVAL, noop, episode)
            reset_seed = int(rng.integers(2**63))
            world.reset(reset_seed)
            uniforms = sticky_uniforms(reset_seed)
            prev = world.noop_action if force_noops(world, noop, p, uniforms) else None
            actions = uniform_actions(rng, world.action_count)
            frames = world.frame_counters()[1]
            while not world.done and frames < frame_cap:
                action = policy.act(world, actions)
                if prev is not None and p > 0.0 and next(uniforms) < p:
                    action = prev
                world.step(action)
                prev = action
                frames += 1
            scores.append((noop, episode, world.cum_score))
    gmean, per_noop = grand_mean((n, s) for n, _, s in scores)
    return EvalResult(grand_mean=gmean, per_noop=per_noop, scores=scores)


# -- bootstrap ---------------------------------------------------------------

def _resample_means(
    samples: np.ndarray,
    n_resamples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """The means of ``n_resamples`` resamples of ``samples`` with
    replacement, drawn and gathered about ``_RESAMPLE_BLOCK`` indices at a
    time into one output array."""
    n = len(samples)
    rows = max(1, _RESAMPLE_BLOCK // n)
    means = np.empty(n_resamples)
    for start in range(0, n_resamples, rows):
        stop = min(start + rows, n_resamples)
        means[start:stop] = samples[rng.integers(0, n, size=(stop - start, n))].mean(axis=1)
    return means


def bootstrap_ci(
    samples: Sequence[float],
    n_resamples: int = 10_000,
    alpha: float = 0.05,
    rng: np.random.Generator | None = None,
) -> tuple[float, float]:
    """Pivotal (empirical) bootstrap confidence interval of the mean.

    With q_lo and q_hi the alpha/2 and 1-alpha/2 empirical quantiles of the
    resampled means, returns (2*mean - q_hi, 2*mean - q_lo).
    """
    data = np.asarray(samples, dtype=np.float64)
    if data.size < 2:
        raise ContractError("bootstrap_ci needs at least 2 samples")
    if rng is None:
        rng = stream(0, TAG_EVAL, 0xB005)
    center = float(data.mean())
    stats = _resample_means(data, n_resamples, rng)
    q_lo, q_hi = np.quantile(stats, [alpha / 2, 1 - alpha / 2], method="linear")
    return 2 * center - float(q_hi), 2 * center - float(q_lo)


def percentile_band(
    samples: Sequence[float],
    n_resamples: int = 1_000,
    alpha: float = 0.05,
    rng: np.random.Generator | None = None,
) -> tuple[float, float]:
    """Percentile bootstrap band of the mean, the plotting convention."""
    data = np.asarray(samples, dtype=np.float64)
    if data.size == 1:
        return float(data[0]), float(data[0])
    if rng is None:
        rng = stream(0, TAG_EVAL, 0xBA4D)
    stats = _resample_means(data, n_resamples, rng)
    q_lo, q_hi = np.quantile(stats, [alpha / 2, 1 - alpha / 2], method="linear")
    return float(q_lo), float(q_hi)


# -- report aggregation ---------------------------------------------------------

def emit_report(
    metric_csvs: Sequence[str | Path],
    out_dir: str | Path,
    n_resamples: int = 1_000,
    seed: int = 0,
) -> list[Path]:
    """Aggregate per-seed metric CSVs into plot-ready mean and band files.

    Seeds are aligned on the game_frames values present in every input file
    (the sampling-interval grid); each metric gets one output CSV with
    columns (game_frames, mean, lo, hi).
    """
    if not metric_csvs:
        raise ConfigError("no metric CSVs given")
    tables = []
    seen = set()
    for path in metric_csvs:
        rows = read_metrics(path)
        real = Path(path).resolve()
        if real in seen:
            raise ConfigError(f"{path}: given twice (each input is one seed)")
        seen.add(real)
        tables.append({r.game_frames: r for r in rows})
    shared = sorted(set.intersection(*(set(t) for t in tables)))
    if not shared:
        raise ConfigError("input CSVs share no game_frames samples")

    out_dir = output_dir(out_dir)
    skip = {"game_frames", "training_frames", "wall_seconds"}
    written = []
    for col, name in enumerate(MetricsRow._fields):
        if name in skip:
            continue
        rng = stream(seed, TAG_EVAL, 0xE307, col)
        rows = []
        for gf in shared:
            values = [t[gf][col] for t in tables]
            lo, hi = percentile_band(values, n_resamples, rng=rng)
            rows.append([gf, sum(values) / len(values), lo, hi])
        out_path = out_dir / f"{name}_aggregate.csv"
        write_csv(out_path, ["game_frames", "mean", "lo", "hi"], rows)
        written.append(out_path)
    return written
