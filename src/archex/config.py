"""Experiment configuration: plain-text "key = value" files with presets.

Format: one ``section.key = value`` per line, ``#`` starts a comment, blank
lines are ignored. An optional ``preset = <name>`` line applies a named
parameter set first; explicit keys override it. Unknown or malformed keys
are rejected with their field path before anything runs.

Placement syntaxes:
    env.keys / env.hazards   room:x,y pairs, e.g. "5:6,1; 18:1,4"
    env.locked_doors         room-room pairs, e.g. "17-23; 22-23"
    env.treasures            room:value pairs, e.g. "3:2000; 11:5000"
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .cells import CellMapper, DownscaleParams, domain_mapper, downscale_mapper
from .envs import DeceptiveCorridor, GridWorld, KeyDoorWorld, TwoMaze
from .errors import ConfigError
from .evaluation import EvalProtocol
from .explore import ExploreConfig
from .robustify import BackwardConfig, RewardShaping, TabularQConfig
from .selection import SelectionConfig

PRESETS: dict[str, dict[str, str]] = {
    # Downscaled-frame representation, sparse-reward weighting.
    "montezuma-like-nodomain": {
        "repr.mode": "downscale",
        "repr.width": "11",
        "repr.height": "8",
        "repr.depth": "8",
        "select.w_chosen": "0.1",
        "select.w_chosen_since_new": "0",
        "select.w_seen": "0.3",
        "explore.batch": "100",
    },
    # Domain features with neighbor and key weighting.
    "montezuma-like-domain": {
        "repr.mode": "domain",
        "repr.grid_size": "16",
        "select.w_chosen": "0",
        "select.w_chosen_since_new": "0",
        "select.w_seen": "0",
        "select.w_horizontal": "0.3",
        "select.w_vertical": "0.1",
        "select.w_more_keys": "10",
        "explore.batch": "1000",
    },
    # Domain features, count-driven, no key tracking.
    "pitfall-like-domain": {
        "repr.mode": "domain",
        "repr.grid_size": "16",
        "select.w_chosen": "1",
        "select.w_chosen_since_new": "0.5",
        "select.w_seen": "0",
        "select.w_horizontal": "1",
        "select.w_vertical": "0",
        "select.w_more_keys": "0",
        "select.track_keys": "false",
        "explore.batch": "1000",
    },
}


def parse_text(text: str, source: str = "<config>") -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"{source}:{lineno}: empty key")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        values[key] = value
    return values


class _Reader:
    """Typed access over flat config values, tracking consumed keys."""

    def __init__(self, values: dict[str, str]) -> None:
        self.values = values
        self.used: set[str] = set()

    def _raw(self, key: str) -> str | None:
        if key in self.values:
            self.used.add(key)
            return self.values[key]
        return None

    def string(self, key: str, default: str) -> str:
        raw = self._raw(key)
        return default if raw is None else raw

    def integer(self, key: str, default: int | None) -> int | None:
        raw = self._raw(key)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None

    def floating(self, key: str, default: float | None) -> float | None:
        raw = self._raw(key)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected a number, got {raw!r}") from None

    def boolean(self, key: str, default: bool) -> bool:
        raw = self._raw(key)
        if raw is None:
            return default
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"{key}: expected true/false, got {raw!r}")

    def items(self, key: str, default: tuple, parse: Callable[[str], tuple],
              form: str) -> tuple:
        """``;``-separated items, each read by ``parse``; a ValueError names
        the item's index and its expected ``form``."""
        raw = self._raw(key)
        if raw is None:
            return default
        out = []
        for i, item in enumerate(_items(raw)):
            try:
                out.append(parse(item))
            except ValueError:
                raise ConfigError(f"{key}[{i}]: expected {form}, got {item!r}") from None
        return tuple(out)

    def reject_unknown(self) -> None:
        unknown = sorted(set(self.values) - self.used)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")


def _items(raw: str) -> list[str]:
    return [part.strip() for part in raw.split(";") if part.strip()]


def _placement(item: str) -> tuple[int, int, int]:
    room, coords = item.split(":")
    x, y = coords.split(",")
    return int(room), int(x), int(y)


def _pair(item: str) -> tuple[int, int]:
    a, b = item.split("-")
    return int(a), int(b)


def _valued_room(item: str) -> tuple[int, float]:
    room, value = item.split(":")
    return int(room), float(value)


@dataclass(frozen=True)
class ReprConfig:
    mode: str = "domain"  # "domain" | "downscale"
    grid_size: int = 1
    downscale: DownscaleParams = DownscaleParams()

    def build_mapper(self) -> CellMapper:
        if self.mode == "domain":
            return domain_mapper(self.grid_size)
        return downscale_mapper(self.downscale)


@dataclass(frozen=True)
class RobustifyConfig:
    backward: BackwardConfig = field(default_factory=BackwardConfig)
    n_demos: int = 1
    q: TabularQConfig = field(default_factory=TabularQConfig)
    demo_stride: int = 25
    truncate_frames: int | None = None
    truncate_to_last_reward: bool = False
    near: int = 50
    max_tested: int = 10

    def validate(self) -> "RobustifyConfig":
        if self.n_demos < 1 or self.demo_stride < 1 or self.max_tested < 1:
            raise ConfigError("robustify: n_demos, demo_stride and max_tested must be >= 1")
        if self.near < 0:
            raise ConfigError("robustify.near must be >= 0")
        if self.truncate_frames is not None and self.truncate_frames < 1:
            raise ConfigError("robustify.truncate_frames must be >= 1")
        return self


@dataclass(frozen=True)
class ExperimentConfig:
    env_type: str
    env_kwargs: dict
    representation: ReprConfig
    selection: SelectionConfig
    explore: ExploreConfig
    robustify: RobustifyConfig
    protocol: EvalProtocol
    out_dir: str = "out"
    workers: int = 1
    checkpoint_interval_iterations: int = 0

    def env_factory(self) -> Callable[[], GridWorld]:
        ctor = {"twomaze": TwoMaze, "keydoor": KeyDoorWorld, "corridor": DeceptiveCorridor}[
            self.env_type
        ]
        kwargs = self.env_kwargs
        return lambda: ctor(**kwargs)

    def mapper(self) -> CellMapper:
        return self.representation.build_mapper()


def _env_section(r: _Reader) -> tuple[str, dict]:
    env_type = r.string("env.type", "twomaze")
    common = dict(
        frame_skip=r.integer("env.frame_skip", 4),
        tile_px=r.integer("env.tile_px", 4),
        time_limit_game_frames=r.integer("env.time_limit_game_frames", 400_000),
    )
    if env_type == "twomaze":
        return env_type, dict(
            arm_rows=r.integer("env.arm_rows", 5),
            arm_cols=r.integer("env.arm_cols", 12),
            **common,
        )
    if env_type == "keydoor":
        return env_type, dict(
            rooms_rows=r.integer("env.rooms_rows", 4),
            rooms_cols=r.integer("env.rooms_cols", 6),
            room_w=r.integer("env.room_w", 8),
            room_h=r.integer("env.room_h", 6),
            keys=r.items("env.keys", KeyDoorWorld.DEFAULT_KEYS, _placement, "room:x,y"),
            key_reward=r.floating("env.key_reward", 100.0),
            locked_doors=r.items("env.locked_doors", KeyDoorWorld.DEFAULT_DOORS, _pair, "a-b"),
            hazards=r.items("env.hazards", KeyDoorWorld.DEFAULT_HAZARDS, _placement, "room:x,y"),
            treasure_reward=r.floating("env.treasure_reward", 1000.0),
            treasure_room=r.integer("env.treasure_room", None),
            hazard_policy=r.string("env.hazard_policy", "kill"),
            key_capacity=r.integer("env.key_capacity", 4),
            **common,
        )
    if env_type == "corridor":
        return env_type, dict(
            n_rooms=r.integer("env.n_rooms", 12),
            room_w=r.integer("env.room_w", 10),
            room_h=r.integer("env.room_h", 7),
            treasures=r.items("env.treasures", DeceptiveCorridor.DEFAULT_TREASURES,
                              _valued_room, "room:value"),
            hazard_penalty=r.floating("env.hazard_penalty", -1.0),
            **common,
        )
    raise ConfigError(f"env.type: unknown environment {env_type!r}")


def build_config(values: dict[str, str]) -> ExperimentConfig:
    preset_name = values.pop("preset", None)
    if preset_name is not None:
        preset = PRESETS.get(preset_name.strip())
        if preset is None:
            raise ConfigError(
                f"preset: unknown preset {preset_name!r} "
                f"(available: {', '.join(sorted(PRESETS))})"
            )
        merged = dict(preset)
        merged.update(values)
        values = merged

    r = _Reader(values)
    env_type, env_kwargs = _env_section(r)

    mode = r.string("repr.mode", "domain")
    if mode not in ("domain", "downscale"):
        raise ConfigError(f"repr.mode: unknown representation {mode!r}")
    representation = ReprConfig(
        mode=mode,
        grid_size=r.integer("repr.grid_size", 1),
        downscale=DownscaleParams(
            width=r.integer("repr.width", 11),
            height=r.integer("repr.height", 8),
            depth=r.integer("repr.depth", 8),
        ).validate(),
    )

    selection = SelectionConfig(
        w_chosen=r.floating("select.w_chosen", 0.1),
        w_chosen_since_new=r.floating("select.w_chosen_since_new", 0.0),
        w_seen=r.floating("select.w_seen", 0.3),
        p_chosen=r.floating("select.p_chosen", 0.5),
        p_chosen_since_new=r.floating("select.p_chosen_since_new", 0.5),
        p_seen=r.floating("select.p_seen", 0.5),
        w_horizontal=r.floating("select.w_horizontal", 0.0),
        w_vertical=r.floating("select.w_vertical", 0.0),
        w_more_keys=r.floating("select.w_more_keys", 0.0),
        eps1=r.floating("select.eps1", 0.001),
        eps2=r.floating("select.eps2", 0.00001),
        level_decay=r.floating("select.level_decay", 0.1),
        domain_mode=r.boolean("select.domain_mode", mode == "domain"),
        track_keys=r.boolean("select.track_keys", True),
    ).validate()

    explore = ExploreConfig(
        k=r.integer("explore.k", 100),
        repeat_p=r.floating("explore.repeat_p", 0.95),
        batch_size=r.integer("explore.batch", 100),
        budget_training_frames=r.integer("explore.budget_training_frames", 1_000_000),
        seed=r.integer("explore.seed", 0),
        metric_interval_game_frames=r.integer(
            "explore.metric_interval_game_frames", 4_000_000
        ),
    ).validate()

    shaping_mode = r.string("robustify.reward_mode", "clip")
    backward = BackwardConfig(
        success_threshold=r.floating("robustify.success_threshold", 0.1),
        advance_interval=r.integer("robustify.advance_interval", None),
        delta=r.integer("robustify.delta", 1),
        window=r.integer("robustify.window", 50),
        allowed_deficit=r.floating("robustify.allowed_deficit", 0.0),
        shaping=RewardShaping(
            mode=shaping_mode,
            scale=r.floating("robustify.reward_scale", 0.001),
        ),
        sticky_p=r.floating("robustify.sticky_p", 0.25),
        max_noops=r.integer("robustify.max_noops", 30),
        max_attempts=r.integer("robustify.max_attempts", 1_000_000),
        frame_budget=r.integer("robustify.frame_budget", None),
        rollout_frame_cap=r.integer("robustify.rollout_frame_cap", None),
    ).validate()
    robustify = RobustifyConfig(
        backward=backward,
        n_demos=r.integer("robustify.n_demos", 1),
        q=TabularQConfig(
            alpha=r.floating("robustify.alpha", 0.2),
            gamma=r.floating("robustify.gamma", 0.99),
            epsilon=r.floating("robustify.epsilon", 0.1),
        ),
        demo_stride=r.integer("robustify.demo_stride", 25),
        truncate_frames=r.integer("robustify.truncate_frames", None),
        truncate_to_last_reward=r.boolean("robustify.truncate_to_last_reward", False),
        near=r.integer("robustify.near", 50),
        max_tested=r.integer("robustify.max_tested", 10),
    ).validate()

    protocol = EvalProtocol(
        max_noop=r.integer("eval.max_noop", 30),
        min_episodes=r.integer("eval.min_episodes", 5),
        sticky_p=r.floating("eval.sticky_p", 0.25),
        time_limit_game_frames=r.integer("eval.time_limit_game_frames", 400_000),
    ).validate()

    cfg = ExperimentConfig(
        env_type=env_type,
        env_kwargs=env_kwargs,
        representation=representation,
        selection=selection,
        explore=explore,
        robustify=robustify,
        protocol=protocol,
        out_dir=r.string("out.dir", "out"),
        workers=r.integer("workers", 1),
        checkpoint_interval_iterations=r.integer(
            "explore.checkpoint_interval_iterations", 0
        ),
    )
    r.reject_unknown()
    if cfg.workers < 1:
        raise ConfigError("workers must be >= 1")
    if cfg.checkpoint_interval_iterations < 0:
        raise ConfigError("explore.checkpoint_interval_iterations must be >= 0")
    cfg.env_factory()()  # constructing the env validates placements
    return cfg


def load_config(path: str | Path, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    values = parse_text(text, source=str(path))
    if overrides:
        values.update(overrides)
    return build_config(values)
