"""Experiment configuration: plain-text "key = value" files with presets.

Format: one ``section.key = value`` per line, ``#`` starts a comment, blank
lines are ignored. An optional ``preset = <name>`` line applies a named
parameter set first; explicit keys override it. Unknown or malformed keys
are rejected with their field path before anything runs.

Each key is ``section.<field>`` of its settings class, with that field's
type and default (``explore.batch``, ``robustify.reward_mode`` and
``robustify.reward_scale`` are the renamed ones, and ``out.dir``,
``workers`` and ``explore.checkpoint_interval_iterations`` are
``ExperimentConfig``'s run-level fields); ``env.*`` keys are the keyword
arguments of the chosen environment's constructor.

Placement syntaxes:
    env.keys / env.hazards   room:x,y pairs, e.g. "5:6,1; 18:1,4"
    env.locked_doors         room-room pairs, e.g. "17-23; 22-23"
    env.treasures            room:value pairs, e.g. "3:2000; 11:5000"
"""

from __future__ import annotations

import functools
import inspect
import math
import types
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, get_args, get_origin, get_type_hints

from .cells import CellMapper, DownscaleParams, domain_mapper, downscale_mapper
from .envs import DeceptiveCorridor, GridWorld, KeyDoorWorld, TwoMaze
from .errors import ConfigError
from .evaluation import EvalProtocol
from .explore import ExploreConfig, check_metric_rows
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
    # Domain features, count-driven.
    "pitfall-like-domain": {
        "repr.mode": "domain",
        "repr.grid_size": "16",
        "select.w_chosen": "1",
        "select.w_chosen_since_new": "0.5",
        "select.w_seen": "0",
        "select.w_horizontal": "1",
        "select.w_vertical": "0",
        "select.w_more_keys": "0",
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
            value = float(raw)
        except ValueError:
            value = math.nan
        if math.isnan(value):
            raise ConfigError(f"{key}: expected a number, got {raw!r}")
        return value

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
    room, score = int(room), float(value)
    if math.isnan(score):
        raise ValueError(item)
    return room, score


# The item lists among the environment settings: each one's item parser and
# the item form its errors name.
_ITEM_LISTS = {
    "keys": (_placement, "room:x,y"),
    "hazards": (_placement, "room:x,y"),
    "locked_doors": (_pair, "a-b"),
    "treasures": (_valued_room, "room:value"),
}


@functools.cache
def _settings(cls: type) -> tuple[tuple[str, type, object], ...]:
    """(name, type, default) of each setting of ``cls``: the fields of a
    settings class, or the keyword arguments of an environment constructor.
    ``int | None`` counts as ``int``; an item list's type is ``tuple``."""
    hints = get_type_hints(cls.__init__ if issubclass(cls, GridWorld) else cls)
    out = []
    for name, param in inspect.signature(cls).parameters.items():
        hint = hints[name]
        if isinstance(hint, types.UnionType):
            hint = get_args(hint)[0]
        out.append((name, get_origin(hint) or hint, param.default))
    return tuple(out)


def _values(r: _Reader, prefix: str, cls: type, keys: dict[str, str] | None = None,
            **given) -> dict:
    """Each setting of ``cls``: taken from ``given``, or read from the key
    ``prefix + name`` with the setting's type and default; ``keys`` maps the
    fields whose key is not their name."""
    read = {int: r.integer, float: r.floating, bool: r.boolean, str: r.string}
    keys = keys or {}
    out = {}
    for name, kind, default in _settings(cls):
        key = prefix + keys.get(name, name)
        if name in given:
            out[name] = given[name]
        elif kind is tuple:
            out[name] = r.items(key, default, *_ITEM_LISTS[name])
        else:
            out[name] = read[kind](key, default)
    return out


def _section(r: _Reader, prefix: str, cls: type, keys: dict[str, str] | None = None,
             **given):
    return cls(**_values(r, prefix, cls, keys, **given))


ENV_TYPES: dict[str, type[GridWorld]] = {
    "twomaze": TwoMaze, "keydoor": KeyDoorWorld, "corridor": DeceptiveCorridor,
}


@dataclass(frozen=True)
class ReprConfig:
    mode: str = "domain"  # "domain" | "downscale"
    grid_size: int = 1
    downscale: DownscaleParams = DownscaleParams()

    def __post_init__(self) -> None:
        if self.mode not in ("domain", "downscale"):
            raise ConfigError(f"repr.mode: unknown representation {self.mode!r}")
        if self.grid_size < 1:
            raise ConfigError("repr.grid_size must be >= 1")


@dataclass(frozen=True)
class RobustifyConfig:
    backward: BackwardConfig = field(default_factory=BackwardConfig)
    n_demos: int = 1
    q: TabularQConfig = field(default_factory=TabularQConfig)
    demo_stride: int = 25
    truncate_frames: int | None = None
    truncate_to_last_reward: bool = False

    def __post_init__(self) -> None:
        if self.n_demos < 1 or self.demo_stride < 1:
            raise ConfigError("robustify: n_demos and demo_stride must be >= 1")
        if self.truncate_frames is not None and self.truncate_frames < 1:
            raise ConfigError("robustify.truncate_frames must be >= 1")


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

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.checkpoint_interval_iterations < 0:
            raise ConfigError("explore.checkpoint_interval_iterations must be >= 0")

    def env_factory(self) -> Callable[[], GridWorld]:
        ctor = ENV_TYPES[self.env_type]
        kwargs = self.env_kwargs
        return lambda: ctor(**kwargs)

    def mapper(self) -> CellMapper:
        rep = self.representation
        if rep.mode == "domain":
            return domain_mapper(rep.grid_size)
        return downscale_mapper(rep.downscale)


def _env_section(r: _Reader) -> tuple[str, dict]:
    env_type = r.string("env.type", "twomaze")
    ctor = ENV_TYPES.get(env_type)
    if ctor is None:
        raise ConfigError(f"env.type: unknown environment {env_type!r}")
    return env_type, _values(r, "env.", ctor)


def build_config(values: dict[str, str]) -> ExperimentConfig:
    values = dict(values)  # the caller's dict keeps its preset
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
    representation = _section(
        r, "repr.", ReprConfig, downscale=_section(r, "repr.", DownscaleParams)
    )
    selection = _section(
        r, "select.", SelectionConfig,
        domain_mode=r.boolean("select.domain_mode", representation.mode == "domain"),
    )
    explore = _section(r, "explore.", ExploreConfig, keys={"batch_size": "batch"})
    shaping = _section(r, "robustify.", RewardShaping,
                       keys={"mode": "reward_mode", "scale": "reward_scale"})
    robustify = _section(
        r, "robustify.", RobustifyConfig,
        backward=_section(r, "robustify.", BackwardConfig, shaping=shaping),
        q=_section(r, "robustify.", TabularQConfig),
    )
    protocol = _section(r, "eval.", EvalProtocol)

    run = _values(
        r, "", ExperimentConfig,
        keys={"out_dir": "out.dir",
              "checkpoint_interval_iterations": "explore.checkpoint_interval_iterations"},
        env_type=env_type, env_kwargs=env_kwargs, representation=representation,
        selection=selection, explore=explore, robustify=robustify, protocol=protocol,
    )
    r.reject_unknown()
    cfg = ExperimentConfig(**run)
    check_metric_rows(cfg.explore, cfg.env_factory()().frame_skip)  # the env checks placements
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
