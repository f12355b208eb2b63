"""Config parsing, presets, and CLI command wiring."""

import csv
import hashlib
import inspect
import math
import os
import re
import signal
import struct
import subprocess
import sys
import time
from pathlib import Path
from typing import get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from archex.archive import (
    _HEADER,
    CHECKPOINT_MAGIC,
    checkpoint_load,
    checkpoint_save,
    write_checksummed,
)
from archex.cells import DownscaleParams
from archex.cli import main
from archex.config import (
    ENV_TYPES,
    ExperimentConfig,
    ReprConfig,
    RobustifyConfig,
    _Reader,
    _settings,
    build_config,
    load_config,
    parse_text,
)
from archex.envs import DeceptiveCorridor, KeyDoorWorld, TwoMaze
from archex.errors import ConfigError
from archex.evaluation import EvalProtocol
from archex.explore import ExploreConfig, MetricsRow
from archex.robustify import (
    BackwardConfig,
    PolicyCheckpoint,
    RewardShaping,
    TabularQConfig,
    _policy_layout,
)
from archex.selection import SelectionConfig


BASE = """
env.type = twomaze
env.arm_rows = 3
env.arm_cols = 6
explore.k = 20
explore.batch = 5
explore.budget_training_frames = 1000
explore.seed = 0
explore.metric_interval_game_frames = 1000000000
"""

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


# -- parsing --------------------------------------------------------------------


def test_parse_basics():
    values = parse_text("a.b = 1\n# comment\n\nc.d = x y  # trailing\n")
    assert values == {"a.b": "1", "c.d": "x y"}


def test_parse_errors():
    with pytest.raises(ConfigError) as err:
        parse_text("just some words\n", source="f")
    assert "f:1" in str(err.value)
    with pytest.raises(ConfigError) as err:
        parse_text("a = 1\na = 2\n", source="f")
    assert "f:2" in str(err.value)


def test_unknown_key_rejected():
    # select.batch_size is no key: explore.batch is the one batch-size key.
    # The last four were settings that no run changed from their default.
    for key in ("explore.bogus", "select.batch_size", "explore.return_mode",
                "robustify.learner", "robustify.start_offset",
                "robustify.checkpoint_interval_attempts"):
        with pytest.raises(ConfigError) as err:
            build_config(parse_text(BASE + f"{key} = 3\n"))
        assert key in str(err.value)


@pytest.mark.parametrize("line", [
    "select.p_chosen = 0.5", "select.p_chosen_since_new = 0.5", "select.p_seen = 0.5",
    "select.eps1 = 0.001", "select.eps2 = 0.00001", "select.level_decay = 0.1",
    "env.tile_px = 4", "robustify.near = 50", "robustify.max_tested = 10",
])
def test_constant_keys_exit_2_as_unknown(tmp_path, capsys, line):
    """The count power, epsilons, level decay, tile size and checkpoint
    choice have one value each and no key, even at that value."""
    path = write_config(tmp_path, BASE + line + "\n")
    assert run_cli("explore", "--config", str(path), "--out", str(tmp_path / "run")) == 2
    key = line.split("=")[0].strip()
    assert f"unknown config keys: {key}" in capsys.readouterr().err


@pytest.mark.parametrize("env_type, line, message", [
    ("twomaze", "explore.k = x", "explore.k: expected an integer, got 'x'"),
    ("twomaze", "select.w_seen = fast", "select.w_seen: expected a number, got 'fast'"),
    ("twomaze", "select.domain_mode = maybe",
     "select.domain_mode: expected true/false, got 'maybe'"),
    ("twomaze", "robustify.advance_interval = 1.5",
     "robustify.advance_interval: expected an integer, got '1.5'"),
    ("keydoor", "env.treasure_room = x", "env.treasure_room: expected an integer, got 'x'"),
    ("keydoor", "env.keys = 5:1", "env.keys[0]: expected room:x,y, got '5:1'"),
    ("twomaze", "robustify.alpha = nan", "robustify.alpha: expected a number, got 'nan'"),
    ("corridor", "env.treasures = 3:nan", "env.treasures[0]: expected room:value, got '3:nan'"),
], ids=["integer", "number", "boolean", "optional-integer", "env-integer", "item-list",
        "nan", "item-nan"])
def test_type_errors_name_the_field(env_type, line, message):
    with pytest.raises(ConfigError) as err:
        build_config(parse_text(f"env.type = {env_type}\n{line}\n"))
    assert str(err.value) == message


@pytest.mark.parametrize("env_type, ctor", [
    ("twomaze", TwoMaze), ("keydoor", KeyDoorWorld), ("corridor", DeceptiveCorridor)])
def test_unset_keys_take_the_class_defaults(env_type, ctor):
    cfg = build_config({"env.type": env_type})
    assert cfg.env_kwargs == {
        name: p.default for name, p in inspect.signature(ctor).parameters.items()}
    assert cfg.representation == ReprConfig()
    assert cfg.selection == SelectionConfig(domain_mode=True)
    assert cfg.explore == ExploreConfig()
    assert cfg.robustify == RobustifyConfig()
    assert cfg.protocol == EvalProtocol()


def test_infinite_allowed_deficit_loads():
    # early_terminate reads an infinite deficit as "never terminate".
    cfg = build_config(parse_text(BASE + "robustify.allowed_deficit = inf\n"))
    assert cfg.robustify.backward.allowed_deficit == float("inf")


def test_bad_placement_syntax():
    text = BASE.replace("twomaze", "keydoor") + "env.keys = 5:1\n"
    with pytest.raises(ConfigError) as err:
        build_config(parse_text(text))
    assert "env.keys[0]" in str(err.value)


def test_invalid_layout_rejected_before_running():
    text = BASE.replace("twomaze", "keydoor") + "env.keys = 99:1,1\n"
    with pytest.raises(ConfigError):
        build_config(parse_text(text))


def test_defaults_fill_in():
    cfg = build_config(parse_text(BASE))
    assert cfg.explore.k == 20
    assert cfg.explore.repeat_p == 0.95
    assert cfg.protocol.max_noop == 30
    assert cfg.robustify.backward.success_threshold == 0.1
    assert cfg.robustify.backward.window == 50


def test_preset_domain_loads_table_values():
    cfg = build_config(parse_text("preset = montezuma-like-domain\n" + BASE))
    assert cfg.selection.w_horizontal == 0.3
    assert cfg.selection.w_vertical == 0.1
    assert cfg.selection.w_more_keys == 10.0
    assert cfg.explore.batch_size == 5  # explicit keys beat the preset
    cfg2 = build_config(parse_text("preset = montezuma-like-domain\nenv.type = twomaze\n"))
    assert cfg2.explore.batch_size == 1000
    assert cfg2.representation.mode == "domain"
    assert cfg2.representation.grid_size == 16


def test_preset_nodomain_loads_table_values():
    cfg = build_config(parse_text("preset = montezuma-like-nodomain\nenv.type = twomaze\n"))
    assert cfg.selection.w_chosen == 0.1
    assert cfg.selection.w_chosen_since_new == 0.0
    assert cfg.selection.w_seen == 0.3
    assert cfg.explore.batch_size == 100
    assert cfg.representation.mode == "downscale"
    assert cfg.representation.downscale == DownscaleParams(11, 8, 8)
    assert not cfg.selection.domain_mode


def test_preset_pitfall_disables_keys():
    cfg = build_config(parse_text("preset = pitfall-like-domain\nenv.type = corridor\n"))
    assert cfg.selection.w_chosen == 1.0
    assert cfg.selection.w_chosen_since_new == 0.5
    assert cfg.selection.w_horizontal == 1.0
    assert cfg.selection.w_vertical == 0.0
    assert cfg.selection.w_more_keys == 0.0
    assert cfg.explore.batch_size == 1000


def test_readme_config_block_loads(monkeypatch):
    """The README's config reference loads once its placeholder (empty)
    lines are dropped, names every key build_config reads, and names no key
    it does not."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    documented = parse_text(block, source="README.md")
    read: set[str] = set()
    raw = _Reader._raw

    def recording_raw(self, key):
        read.add(key)
        return raw(self, key)

    monkeypatch.setattr(_Reader, "_raw", recording_raw)
    build_config({k: v for k, v in documented.items() if v})
    for env_type in ("twomaze", "corridor"):  # their keys are in comments
        build_config({"env.type": env_type})
    named = set(documented) | set(re.findall(r"\b[a-z]+\.[a-z_]+", block))
    assert sorted(read - named) == []
    assert sorted(set(documented) - read - {"preset"}) == []


def test_unknown_preset():
    with pytest.raises(ConfigError):
        build_config({"preset": "nope"})


def test_environment_does_not_change_config(tmp_path, monkeypatch):
    """(seed, config) alone determine a run: no environment variable
    overrides a config value."""
    path = write_config(tmp_path, BASE)
    plain = load_config(path)
    monkeypatch.setenv("ARCHEX_EXPLORE__SEED", "7")
    assert load_config(path) == plain


# -- CLI ---------------------------------------------------------------------------


def run_cli(*argv):
    return main(list(argv))


def test_cli_explore_smoke(tmp_path):
    path = write_config(tmp_path, BASE)
    out = tmp_path / "run"
    code = run_cli("explore", "--config", str(path), "--out", str(out))
    assert code == 0
    assert (out / "archive.ckpt").exists()
    assert (out / "metrics.csv").exists()
    with open(out / "metrics.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "game_frames"
    assert len(rows) >= 2


def test_cli_config_error_exit_2(tmp_path):
    path = write_config(tmp_path, BASE + "explore.bogus = 1\n")
    assert run_cli("explore", "--config", str(path)) == 2


@pytest.mark.parametrize("line", [
    "robustify.n_demos = 0",
    "robustify.demo_stride = 0",
    "robustify.truncate_frames = 0",
    "explore.checkpoint_interval_iterations = -1",
    "eval.time_limit_game_frames = 0",
    "robustify.frame_budget = -5",
    "robustify.max_attempts = -1",
    "robustify.max_noops = -1",
    # backward_run draws the no-op count below max_noops + 1 as an int64.
    f"robustify.max_noops = {2**63}",
    "robustify.rollout_frame_cap = 0",
    "robustify.sticky_p = 1.5",
    "select.w_seen = nan",
    "select.w_horizontal = nan",
    "select.w_seen = inf",
    # The sum of the cell scores would overflow to inf (SelectionConfig).
    "select.w_chosen = 1e308",
    "robustify.alpha = -5",
    "robustify.epsilon = 2",
    "robustify.gamma = 1.5",
    "robustify.allowed_deficit = nan",
    "robustify.allowed_deficit = -1",
    "robustify.allowed_deficit = -inf",
    "robustify.reward_scale = nan",
    *(pytest.param(f"robustify.reward_mode = scale\nrobustify.reward_scale = {v}",
                   id=f"robustify.reward_scale = {v} (scale mode)") for v in ("inf", "-1", "0")),
    "repr.grid_size = 0",
    "repr.width = 65536",  # past what a downscaled key's encoding holds
    "repr.height = 65536",
    # Each side fits its 16 bits, but a first key would be a 34 GB int64 array.
    pytest.param("repr.width = 65535\nrepr.height = 65535", id="repr.width = repr.height = 65535"),
    pytest.param("env.type = keydoor\nenv.key_capacity = -1", id="env.key_capacity = -1"),
    # Grids past MAX_TILES tiles: one past the index range, one within it.
    pytest.param("env.type = twomaze\nenv.arm_rows = 18446744073709551616",
                 id="env.arm_rows = 18446744073709551616"),
    pytest.param("env.type = keydoor\nenv.room_w = 10000", id="env.room_w = 10000"),
    # run_phase1 writes a metrics row per metric interval the game frames cross.
    f"env.frame_skip = {2**31}",
    # Each sizes an array of draws; numpy refuses 2**40 at once, so even
    # where the value got through, nothing would be allocated.
    f"explore.batch = {2**40}",
    f"explore.k = {2**40}",
    # evaluate_policy loops over every no-op count and episode.
    f"eval.max_noop = {2**31}",
    f"eval.min_episodes = {2**31}",
])
def test_cli_out_of_range_setting_exit_2(tmp_path, line):
    """Rejected when the config loads, not after a whole run, by a check of
    the value: the error names the setting of the last line and is no
    unknown-key error. A line that sets its own env.type replaces the base's
    twomaze, and one that sets a key of the base replaces the base's line."""
    base = BASE
    if line.startswith("env.type"):
        base = BASE.replace("env.type = twomaze\nenv.arm_rows = 3\nenv.arm_cols = 6\n", "")
    key = line.split("=")[0]
    base = "".join(f"{kept}\n" for kept in base.splitlines() if not kept.startswith(key))
    path = write_config(tmp_path, base + line + "\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    setting = line.splitlines()[-1].split("=")[0].strip().split(".")[-1]
    assert setting in str(err.value)
    assert "unknown config keys" not in str(err.value)
    assert run_cli("explore", "--config", str(path), "--out", str(tmp_path / "run")) == 2


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_cli_out_of_range_seed_exit_2(tmp_path, seed):
    """Checkpoints store the seed as an unsigned 64-bit integer, so a seed
    outside [0, 2**64) is rejected when the config loads, before any work."""
    path = write_config(tmp_path, BASE)
    out = tmp_path / "run"
    assert run_cli("explore", "--config", str(path), "--seed", seed, "--out", str(out)) == 2
    assert not out.exists()


@pytest.mark.parametrize("make", [
    lambda: DownscaleParams(depth=0),
    lambda: ReprConfig(mode="pixels"),
    lambda: RobustifyConfig(n_demos=0),
    lambda: SelectionConfig(w_seen=-1),
    lambda: ExploreConfig(k=0),
    lambda: RewardShaping(mode="tanh"),
    lambda: TabularQConfig(alpha=5),
    lambda: BackwardConfig(delta=0),
    lambda: EvalProtocol(min_episodes=0),
], ids=["DownscaleParams", "ReprConfig", "RobustifyConfig", "SelectionConfig",
        "ExploreConfig", "RewardShaping", "TabularQConfig", "BackwardConfig", "EvalProtocol"])
def test_settings_check_themselves_when_made(make):
    with pytest.raises(ConfigError):
        make()


# Each settings class, the prefix of its keys, and the fields whose key is
# not their name.
SECTIONS = [
    (ReprConfig, "repr.", {}), (DownscaleParams, "repr.", {}), (SelectionConfig, "select.", {}),
    (ExploreConfig, "explore.", {"batch_size": "batch"}),
    (RewardShaping, "robustify.", {"mode": "reward_mode", "scale": "reward_scale"}),
    (RobustifyConfig, "robustify.", {}), (BackwardConfig, "robustify.", {}),
    (TabularQConfig, "robustify.", {}), (EvalProtocol, "eval.", {}),
    (ExperimentConfig, "", {"checkpoint_interval_iterations":
                            "explore.checkpoint_interval_iterations"}),
]
EDGE_VALUES = {int: ("-1", "0", str(2**63), str(2**64)), float: ("nan", "inf", "-inf")}


def test_every_number_setting_at_an_edge_loads_or_raises_config_error():
    """Every int and float setting of every settings class and of the
    shipped config's world, set to an edge value in each shipped config:
    the config loads or raises ConfigError, never another exception. The
    settings come from the classes, so a setting added later is swept too."""
    swept = set()
    for path in sorted(CONFIGS.glob("*.cfg")):
        base = parse_text(path.read_text())
        keys = [(prefix + renamed.get(name, name), kind)
                for cls, prefix, renamed in SECTIONS for name, kind, _ in _settings(cls)]
        keys += [("env." + name, kind) for name, kind, _ in _settings(ENV_TYPES[base["env.type"]])]
        for key, kind in keys:
            for value in EDGE_VALUES.get(kind, ()):
                try:
                    build_config({**base, key: value})
                except ConfigError as err:
                    assert "unknown config keys" not in str(err)
                swept.add(key)
    assert {"env.frame_skip", "env.room_w", "repr.width", "explore.batch",
            "robustify.reward_scale", "robustify.max_noops", "eval.max_noop", "workers",
            "explore.checkpoint_interval_iterations"} <= swept


@pytest.mark.parametrize("env_type, line", [
    ("keydoor", "env.key_reward = inf"),
    ("keydoor", "env.treasure_reward = -inf"),
    ("corridor", "env.hazard_penalty = -inf"),
    ("corridor", "env.treasures = 3:inf"),
])
def test_cli_non_finite_reward_exit_2(tmp_path, env_type, line):
    """On a base of the line's own world, so that the line cannot fail as
    an unknown or duplicate key."""
    base = BASE.replace("env.type = twomaze\nenv.arm_rows = 3\nenv.arm_cols = 6\n",
                        f"env.type = {env_type}\n")
    path = write_config(tmp_path, base + line + "\n")
    assert run_cli("explore", "--config", str(path), "--out", str(tmp_path / "run")) == 2


@pytest.mark.parametrize("defect, code", [
    ("none", 0), ("trailing-bytes", 3), ("state-length", 3), ("0-actions", 3),
    ("9-actions", 3), ("duplicate-state", 3), ("non-finite-q", 3)])
def test_cli_evaluate_malformed_policy_exit_3(tmp_path, defect, code):
    """A policy file with a valid checksum but bytes after its last Q row, a
    row whose state-length field disagrees with its state, an action count
    other than the environment's, a state on two rows, or a NaN Q value, is
    rejected."""
    path = write_config(tmp_path, BASE + "eval.max_noop = 1\neval.min_episodes = 1\n"
                        "eval.time_limit_game_frames = 40\n")
    config_hash = load_config(path).env_factory()().config_hash
    n_actions = {"0-actions": 0, "9-actions": 9}.get(defect, 5)
    q_row = [float(a == 1) * 2 for a in range(n_actions)]
    if defect == "non-finite-q":
        q_row[0] = math.nan  # a reader that lets it through acts 0, not 1
    checkpoint = PolicyCheckpoint(q={(7, 1, 0): q_row}, n_actions=n_actions, min_msp=0,
                                  attempts=1)
    head, row = _policy_layout(checkpoint, config_hash)
    chunks = [head, row]
    if defect == "trailing-bytes":
        chunks.append(bytes(7))
    elif defect == "state-length":
        # The length field claims 8 more bytes than the state holds; 8 more
        # bytes at the end let a reader that trusts it finish the row.
        (state_len,) = struct.unpack_from("<I", row)
        chunks = [head, struct.pack("<I", state_len + 8) + row[4:], bytes(8)]
    elif defect == "duplicate-state":
        # The header's last field counts the rows: two, both of one state.
        chunks = [head[:-8] + struct.pack("<Q", 2), row, row]
    policy = tmp_path / "policy.ckpt"
    write_checksummed(policy, chunks)
    assert run_cli("evaluate", "--config", str(path), "--out", str(tmp_path / "out"),
                   "--policy", str(policy)) == code


def test_cli_out_names_a_file_exit_2(tmp_path, capsys):
    """Each command that writes an output directory rejects an --out that
    names a file, with inputs it runs on when --out is a directory."""
    path = str(write_config(tmp_path, BASE + "robustify.max_attempts = 20\n"
                            "eval.max_noop = 1\neval.min_episodes = 1\n"
                            "eval.time_limit_game_frames = 40\n"))
    run = tmp_path / "run"
    assert run_cli("explore", "--config", path, "--out", str(run)) == 0
    assert run_cli("robustify", "--config", path, "--out", str(tmp_path / "rob"),
                   str(run / "archive.ckpt")) == 0
    inputs = {
        "explore": ["--config", path],
        "robustify": ["--config", path, str(run / "archive.ckpt")],
        "evaluate": ["--config", path, "--policy", str(tmp_path / "rob" / "policy.ckpt")],
        "report": [str(run / "metrics.csv")],
    }
    taken = tmp_path / "taken"
    taken.write_text("a file")
    for command, argv in inputs.items():
        assert run_cli(command, *argv, "--out", str(tmp_path / command)) == 0
        capsys.readouterr()
        assert run_cli(command, *argv, "--out", str(taken)) == 2, command
        assert str(taken) in capsys.readouterr().err
    assert taken.read_text() == "a file"


def test_cli_missing_config_exit_2(tmp_path):
    assert run_cli("explore", "--config", str(tmp_path / "nope.cfg")) == 2


def test_cli_missing_input_file_exit_codes(tmp_path):
    path = str(write_config(tmp_path, BASE))
    missing, out = str(tmp_path / "missing"), str(tmp_path / "out")
    assert run_cli("replay", "--config", path, "--archive", missing) == 3
    assert run_cli("evaluate", "--config", path, "--out", out, "--policy", missing) == 3
    assert run_cli("report", "--out", out, missing) == 2


def test_cli_seed_and_budget_overrides(tmp_path):
    path = write_config(tmp_path, BASE)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("explore", "--config", str(path), "--seed", "3",
                   "--budget-frames", "500", "--out", str(out1)) == 0
    assert run_cli("explore", "--config", str(path), "--seed", "3",
                   "--budget-frames", "500", "--out", str(out2)) == 0
    assert (out1 / "archive.ckpt").read_bytes() == (out2 / "archive.ckpt").read_bytes()


def test_cli_worker_invariance(tmp_path):
    path = write_config(tmp_path, BASE)
    blobs = []
    for workers in ("1", "4"):
        out = tmp_path / f"w{workers}"
        assert run_cli("explore", "--config", str(path), "--workers", workers,
                       "--out", str(out)) == 0
        blobs.append((out / "archive.ckpt").read_bytes())
    assert blobs[0] == blobs[1]


def test_cli_resume_equivalence(tmp_path):
    path = write_config(tmp_path, BASE)
    straight = tmp_path / "straight"
    assert run_cli("explore", "--config", str(path), "--budget-frames", "2000",
                   "--out", str(straight)) == 0
    half = tmp_path / "half"
    assert run_cli("explore", "--config", str(path), "--budget-frames", "1000",
                   "--out", str(half)) == 0
    resumed = tmp_path / "resumed"
    assert run_cli("explore", "--config", str(path), "--budget-frames", "2000",
                   "--resume", str(half / "archive.ckpt"), "--out", str(resumed)) == 0
    assert (straight / "archive.ckpt").read_bytes() == (resumed / "archive.ckpt").read_bytes()


def test_cli_resume_seed_mismatch(tmp_path):
    path = write_config(tmp_path, BASE)
    out = tmp_path / "run"
    assert run_cli("explore", "--config", str(path), "--out", str(out)) == 0
    assert run_cli("explore", "--config", str(path), "--seed", "9",
                   "--resume", str(out / "archive.ckpt"), "--out", str(out)) == 2


def test_cli_resume_env_config_mismatch_exit_3(tmp_path):
    out = tmp_path / "run"
    assert run_cli("explore", "--config", str(write_config(tmp_path, BASE)),
                   "--out", str(out)) == 0
    other = write_config(tmp_path, BASE.replace("arm_cols = 6", "arm_cols = 7"), "other.cfg")
    assert run_cli("explore", "--config", str(other),
                   "--resume", str(out / "archive.ckpt"), "--out", str(out)) == 3


def test_cli_replay_best(tmp_path, capsys):
    path = write_config(tmp_path, BASE)
    out = tmp_path / "run"
    run_cli("explore", "--config", str(path), "--out", str(out))
    code = run_cli("replay", "--config", str(path), "--archive",
                   str(out / "archive.ckpt"), "--render")
    assert code == 0
    assert "replay ok" in capsys.readouterr().out


def test_cli_replay_integrity_error(tmp_path):
    path = write_config(tmp_path, BASE)
    out = tmp_path / "run"
    run_cli("explore", "--config", str(path), "--out", str(out))
    data = bytearray((out / "archive.ckpt").read_bytes())
    data[len(data) // 2] ^= 0xFF
    (out / "archive.ckpt").write_bytes(bytes(data))
    assert run_cli("replay", "--config", str(path),
                   "--archive", str(out / "archive.ckpt")) == 3


def test_cli_replay_traj_len_off_its_chain_exit_3(tmp_path):
    path = write_config(tmp_path, BASE)
    out = tmp_path / "run"
    assert run_cli("explore", "--config", str(path), "--out", str(out)) == 0
    archive, meta = checkpoint_load(out / "archive.ckpt")
    key = archive.sorted_keys()[3]
    record = archive.record(key)
    record.traj_len += 1
    checkpoint_save(archive, out / "archive.ckpt", meta)
    assert run_cli("replay", "--config", str(path), "--archive", str(out / "archive.ckpt"),
                   "--cell", key.encode().hex()) == 3


# Offsets in a cell row (after its key) of the score column, of the tail
# node id, of the snapshot's score, training-frame and game-frame columns,
# and of the config hash, the done flag and the x position in the
# snapshot's state bytes, which follow the row.
(_SCORE_AT, _TAIL_AT, _SNAP_SCORE_AT, _SNAP_TF_AT, _SNAP_GF_AT, _STATE_HASH_AT,
 _STATE_DONE_AT, _STATE_X_AT) = (0, 16, 48, 56, 64, 82, 118, 123)
# Where the header's room count sits, and where its rooms start.
_ROOMS_AT = len(CHECKPOINT_MAGIC) + _HEADER.size
# A header room list for each room defect: unsorted, one room twice, and a
# room the world does not have (it is in canonical order).
_ROOM_LISTS = {"unsorted-rooms": [1, 0], "duplicate-room": [0, 0],
               "foreign-room": [0, 2**29]}


def _node_rows(body):
    """The (action, parent id) rows of a checkpoint body's node table."""
    (n_rooms,) = struct.unpack_from("<I", body, _ROOMS_AT - 4)
    at = _ROOMS_AT + 4 * (n_rooms + 1)  # past the rooms and the max level
    (n_nodes,) = struct.unpack_from("<Q", body, at)
    return list(struct.iter_unpack("<HQ", body[at + 8:at + 8 + 10 * n_nodes]))


@pytest.mark.parametrize("defect, code", [
    ("none", 0), ("score-column", 3), ("snapshot-score", 3), ("training-frames", 3),
    ("game-frames", 3), ("state-config", 3), ("key-trailing-byte", 3),
    ("duplicate-row", 3), ("reversed-rows", 3), ("unsorted-rooms", 3),
    ("duplicate-room", 3), ("foreign-room", 3), ("negative-zero-score", 3),
    ("tail-onto-equal-chain", 3), ("off-grid-position", 3), ("done-flag", 3)])
def test_cli_resume_malformed_checkpoint_exit_3(tmp_path, defect, code):
    """A checkpoint with a valid checksum is rejected if a cell's score
    column differs from its snapshot's, if its snapshot's score or frame
    columns differ from its state bytes (both score columns 500 where the
    state says 0, or a frame count one off), if its state bytes carry
    another config hash, if a key's bytes are not its canonical encoding,
    or if its cell rows are not in strictly increasing key order (a row
    twice, or rows reversed). So is one that loads to an archive the writer
    would lay out otherwise (an unsorted room list or a room listed twice,
    score columns of -0.0 where the state says 0.0, a cell's tail moved to
    another chain of its length), and one whose rooms the world lacks. The
    room defects run in a world of many rooms. A state that puts the agent
    off the grid, or whose done flag is neither 0 nor 1, loads, since its
    bytes are laid out right, and is rejected when the run restores it."""
    base = BASE
    if defect in _ROOM_LISTS:
        base = BASE.replace("env.type = twomaze\nenv.arm_rows = 3\nenv.arm_cols = 6\n",
                            "env.type = keydoor\n")
    path = write_config(tmp_path, base)
    out = tmp_path / "run"
    assert run_cli("explore", "--config", str(path), "--out", str(out)) == 0
    ckpt = out / "archive.ckpt"
    archive, meta = checkpoint_load(ckpt)
    keys = archive.sorted_keys()
    body = bytearray(ckpt.read_bytes()[:-32])
    if defect in _ROOM_LISTS:
        (n_rooms,) = struct.unpack_from("<I", body, _ROOMS_AT - 4)
        rooms = _ROOM_LISTS[defect]
        body[_ROOMS_AT - 4:_ROOMS_AT + 4 * n_rooms] = struct.pack(
            f"<{len(rooms) + 1}I", len(rooms), *rooms)
        write_checksummed(ckpt, [bytes(body)])
    elif defect == "tail-onto-equal-chain":
        # A cell whose tail is no node's parent, moved onto another chain
        # of its length: its old tail is left out of every chain.
        parents = [parent for _, parent in _node_rows(body)]
        lengths = [0]  # by node id; id 0 is the empty chain
        for parent in parents:
            lengths.append(lengths[parent] + 1)
        for k in keys:
            enc = k.encode()
            row = body.index(struct.pack("<I", len(enc)) + enc) + 4 + len(enc)
            (tail,) = struct.unpack_from("<Q", body, row + _TAIL_AT)
            others = [i for i, n in enumerate(lengths) if n == lengths[tail] and i != tail]
            if tail not in parents and others:
                struct.pack_into("<Q", body, row + _TAIL_AT, others[0])
                break
        else:
            pytest.fail("no cell's tail has a chain of equal length beside it")
        write_checksummed(ckpt, [bytes(body)])
    elif defect in ("off-grid-position", "done-flag"):  # every cell's, so the run restores one
        for k in keys:
            enc = k.encode()
            row = body.index(struct.pack("<I", len(enc)) + enc) + 4 + len(enc)
            if defect == "done-flag":
                body[row + _STATE_DONE_AT] = 2
            else:
                struct.pack_into("<i", body, row + _STATE_X_AT, 10**6)
        write_checksummed(ckpt, [bytes(body)])
    elif defect not in ("none", "duplicate-row", "reversed-rows"):
        enc = keys[3].encode()
        at = body.index(struct.pack("<I", len(enc)) + enc)  # the cell's key length field
        row = at + 4 + len(enc)
        if defect == "key-trailing-byte":  # decodes to the same key
            body[at:at + 4 + len(enc)] = struct.pack("<I", len(enc) + 1) + enc + b"\x07"
        elif defect == "score-column":
            at = row + _SCORE_AT
            struct.pack_into("<d", body, at, struct.unpack_from("<d", body, at)[0] + 1)
        elif defect in ("snapshot-score", "negative-zero-score"):
            assert archive.record(keys[3]).score == 0
            score = 500.0 if defect == "snapshot-score" else -0.0
            struct.pack_into("<d", body, row + _SCORE_AT, score)
            struct.pack_into("<d", body, row + _SNAP_SCORE_AT, score)
        else:  # the low bit of a frame column or of the state's config hash
            at = row + {"training-frames": _SNAP_TF_AT, "game-frames": _SNAP_GF_AT,
                        "state-config": _STATE_HASH_AT}[defect]
            struct.pack_into("<Q", body, at, struct.unpack_from("<Q", body, at)[0] ^ 1)
        write_checksummed(ckpt, [bytes(body)])
    elif defect != "none":
        order = keys[:4] + keys[3:] if defect == "duplicate-row" else keys[::-1]
        archive.sorted_keys = lambda: order
        checkpoint_save(archive, ckpt, meta)
    assert run_cli("explore", "--config", str(path), "--budget-frames", "2000",
                   "--resume", str(ckpt), "--out", str(out)) == code


def test_cli_replay_malformed_cell_key_exit_2(tmp_path):
    path = write_config(tmp_path, BASE)
    out = tmp_path / "run"
    assert run_cli("explore", "--config", str(path), "--out", str(out)) == 0
    assert run_cli("replay", "--config", str(path), "--archive",
                   str(out / "archive.ckpt"), "--cell", "zz") == 2


KEYDOOR_SMALL = """
env.type = keydoor
env.rooms_rows = 2
env.rooms_cols = 2
env.room_w = 5
env.room_h = 5
env.keys = 1:4,1
env.locked_doors = 2-3; 1-3
env.hazards =
env.treasure_room = 3
explore.k = 40
explore.batch = 20
explore.budget_training_frames = 40000
explore.seed = 0
explore.metric_interval_game_frames = 1000000000
select.domain_mode = true
select.w_horizontal = 0.3
select.w_vertical = 0.1
select.w_more_keys = 10
robustify.n_demos = 1
robustify.success_threshold = 0.4
robustify.advance_interval = 50
robustify.delta = 8
robustify.rollout_frame_cap = 400
robustify.max_noops = 10
robustify.truncate_frames = 75
robustify.truncate_to_last_reward = true
robustify.alpha = 0.3
robustify.epsilon = 0.1
eval.max_noop = 5
eval.min_episodes = 2
eval.time_limit_game_frames = 4000
"""


def test_cli_robustify_and_evaluate(tmp_path):
    path = write_config(tmp_path, KEYDOOR_SMALL)
    out = tmp_path / "run"
    assert run_cli("explore", "--config", str(path), "--out", str(out)) == 0
    rob = tmp_path / "rob"
    code = run_cli("robustify", "--config", str(path), "--out", str(rob),
                   str(out / "archive.ckpt"))
    assert code == 0
    assert (rob / "policy.ckpt").exists()
    assert (rob / "progress.csv").exists()
    ev = tmp_path / "eval"
    code = run_cli("evaluate", "--config", str(path), "--out", str(ev),
                   "--policy", str(rob / "policy.ckpt"))
    assert code == 0
    with open(ev / "per_noop.csv") as fh:
        assert len(list(csv.reader(fh))) == 1 + 6  # header + noops 0..5
    with open(ev / "raw_scores.csv") as fh:
        assert len(list(csv.reader(fh))) == 1 + 6 * 2


def test_cli_robustify_shortfall_exit_4(tmp_path):
    path = write_config(tmp_path, KEYDOOR_SMALL.replace(
        "robustify.n_demos = 1", "robustify.n_demos = 3"))
    out = tmp_path / "run"
    assert run_cli("explore", "--config", str(path), "--out", str(out)) == 0
    code = run_cli("robustify", "--config", str(path), "--out", str(tmp_path / "rob"),
                   str(out / "archive.ckpt"))
    assert code == 4


def test_shipped_configs_valid_and_runnable(tmp_path):
    import pathlib

    for name in ("twomaze-detachment.cfg", "keydoor-domain.cfg",
                 "corridor-deceptive.cfg"):
        path = pathlib.Path(__file__).resolve().parent.parent / "configs" / name
        cfg = load_config(path)  # validates layout and all sections
        out = tmp_path / name
        assert run_cli("explore", "--config", str(path), "--budget-frames", "400",
                       "--out", str(out)) == 0
        assert (out / "archive.ckpt").exists()


def test_cli_report(tmp_path):
    path = write_config(tmp_path, BASE)
    outs = []
    for seed in ("0", "1"):
        out = tmp_path / f"s{seed}"
        run_cli("explore", "--config", str(path), "--seed", seed, "--out", str(out))
        outs.append(str(out / "metrics.csv"))
    code = run_cli("report", "--out", str(tmp_path / "agg"), *outs)
    assert code == 0
    assert (tmp_path / "agg" / "cells_aggregate.csv").exists()


def test_cli_report_same_file_twice_exit_2(tmp_path, monkeypatch):
    path = write_config(tmp_path, BASE)
    assert run_cli("explore", "--config", str(path), "--out", str(tmp_path / "run")) == 0
    monkeypatch.chdir(tmp_path)
    assert run_cli("report", "--out", "agg", "run/metrics.csv", "./run/metrics.csv") == 2
    assert not (tmp_path / "agg").exists()


@pytest.mark.parametrize("columns", [
    "game_frames,../escaped,sub/x", "game_frames,../escaped", "game_frames,sub/x",
    "game_frames,{tmp}/absolute", "game_frames,cells"],
    ids=["parent-and-subdir", "parent", "subdir", "absolute", "other-columns"])
def test_cli_report_foreign_columns_exit_2(tmp_path, monkeypatch, capsys, columns):
    """The report names each output after its column, so it reads only the
    columns explore writes: a header naming a parent directory, a
    subdirectory or an absolute path writes nothing outside --out."""
    monkeypatch.chdir(tmp_path)
    header = columns.format(tmp=tmp_path).split(",")
    Path("m.csv").write_text(",".join(header) + "\n" + ",".join(["1"] * len(header)) + "\n")
    assert run_cli("report", "m.csv", "--out", "agg") == 2
    assert "m.csv" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["m.csv"]


def test_cli_resume_wall_seconds_never_decrease(tmp_path):
    path = write_config(tmp_path, KEYDOOR_SMALL.replace(
        "metric_interval_game_frames = 1000000000", "metric_interval_game_frames = 20000"))
    run = tmp_path / "run"
    assert run_cli("explore", "--config", str(path), "--budget-frames", "20000",
                   "--out", str(run)) == 0
    first = (run / "metrics.csv").read_text().count("\n")
    assert run_cli("explore", "--config", str(path), "--resume", str(run / "archive.ckpt"),
                   "--out", str(run)) == 0
    with open(run / "metrics.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert first - 1 < len(rows)  # the resumed run appended rows
    wall = [float(row["wall_seconds"]) for row in rows]
    assert wall == sorted(wall)


def _cut(path):
    """The lines of a metrics.csv without their wall_seconds column."""
    return [line.rpartition(b",")[0] for line in path.read_bytes().split(b"\r\n")]


# (config, first leg's budget, total budget, the straight run's game_frames
# column). twomaze: the first leg's final row (120,000) falls between
# samples. keydoor: the first leg's final row (12,192) is also the sample row
# of 12,000. budget-spent: the first leg's final row is a sample row (4,000),
# and the resume has nothing left to run.
RESUME_CASES = {
    "twomaze": ((CONFIGS / "twomaze-detachment.cfg").read_text(), 30_000, 40_000,
                [b"100000", b"160000"]),
    "keydoor": (KEYDOOR_SMALL.replace("env.hazards =", "env.hazards = 0:1,1; 1:1,3; 2:3,3")
                .replace("explore.k = 40", "explore.k = 50")
                .replace("explore.batch = 20", "explore.batch = 10")
                .replace("metric_interval_game_frames = 1000000000",
                         "metric_interval_game_frames = 3000"),
                3_000, 6_000,
                [b"3804", b"6764", b"10388", b"12192", b"16012", b"18012", b"22012",
                 b"25516"]),
    "budget-spent": (BASE.replace("explore.k = 20", "explore.k = 10")
                     .replace("explore.batch = 5", "explore.batch = 10")
                     .replace("metric_interval_game_frames = 1000000000",
                              "metric_interval_game_frames = 2000"),
                     1_000, 1_000, [b"2000", b"4000"]),
}


@pytest.mark.parametrize("case", RESUME_CASES)
def test_cli_resumed_metrics_match_a_straight_run(tmp_path, case):
    """A resumed metrics.csv reads as a straight run's, wall_seconds aside,
    and the first leg's rows keep their bytes."""
    text, first_budget, budget, column = RESUME_CASES[case]
    path = str(write_config(tmp_path, text))
    straight, resumed = tmp_path / "straight", tmp_path / "resumed"
    assert run_cli("explore", "--config", path, "--budget-frames", str(budget),
                   "--out", str(straight)) == 0
    assert run_cli("explore", "--config", path, "--budget-frames", str(first_budget),
                   "--out", str(resumed)) == 0
    first_leg = (resumed / "metrics.csv").read_bytes().split(b"\r\n")[:-1]
    assert run_cli("explore", "--config", path, "--budget-frames", str(budget),
                   "--resume", str(resumed / "archive.ckpt"), "--out", str(resumed)) == 0

    assert _cut(resumed / "metrics.csv") == _cut(straight / "metrics.csv")
    lines = (resumed / "metrics.csv").read_bytes().split(b"\r\n")
    assert lines[:len(first_leg) - 1] == first_leg[:-1]
    assert [line.split(b",")[0] for line in _cut(straight / "metrics.csv")[1:-1]] == column


@pytest.mark.parametrize("failing", ["checkpoint_save", "write_csv"])
def test_cli_resume_after_a_crash_past_the_last_checkpoint(tmp_path, monkeypatch, failing):
    """A run that dies in its final write resumes from its last periodic
    checkpoint to a straight run's metrics, wall_seconds aside. Failing the
    final checkpoint leaves rows past the checkpoint, which the resume drops;
    failing the final metrics write leaves the rows of the periodic flush."""
    import archex.cli as cli

    path = str(write_config(tmp_path, KEYDOOR_SMALL.replace(
        "metric_interval_game_frames = 1000000000", "metric_interval_game_frames = 7000")
        + "explore.checkpoint_interval_iterations = 20\n"))
    straight, run = tmp_path / "straight", tmp_path / "run"
    assert run_cli("explore", "--config", path, "--out", str(straight)) == 0

    finished = []
    run_phase1, real = cli.run_phase1, getattr(cli, failing)

    def run_and_mark(*args, **kwargs):
        result = run_phase1(*args, **kwargs)
        finished.append(result.meta)
        return result

    def fail_once_finished(*args, **kwargs):
        if finished:
            raise OSError("killed in the final write")
        return real(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(cli, "run_phase1", run_and_mark)
        patch.setattr(cli, failing, fail_once_finished)
        with pytest.raises(OSError):
            run_cli("explore", "--config", path, "--out", str(run))
    _, meta = checkpoint_load(run / "archive.ckpt")
    assert 0 < meta.training_frames < finished[0].training_frames
    assert run_cli("explore", "--config", path, "--resume", str(run / "archive.ckpt"),
                   "--out", str(run)) == 0
    assert _cut(run / "metrics.csv") == _cut(straight / "metrics.csv")


def test_cli_explore_killed_then_resumed_matches_a_straight_run(tmp_path):
    """``archex explore`` killed with SIGKILL once its first periodic
    checkpoint is on disk resumes to a straight run's archive bytes and
    metrics, wall_seconds aside, whatever it was writing when killed."""
    import archex

    budget = 300_000
    path = str(write_config(tmp_path, KEYDOOR_SMALL.replace(
        "metric_interval_game_frames = 1000000000", "metric_interval_game_frames = 50000")
        + "explore.checkpoint_interval_iterations = 25\n"))
    straight, run = tmp_path / "straight", tmp_path / "run"
    argv = ["explore", "--config", path, "--budget-frames", str(budget)]
    assert run_cli(*argv, "--out", str(straight)) == 0

    src = str(Path(archex.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen([sys.executable, "-m", "archex.cli", *argv, "--out", str(run)],
                            env=env, stdout=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while not (run / "archive.ckpt").exists():
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.002)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == -signal.SIGKILL
    _, meta = checkpoint_load(run / "archive.ckpt")
    assert 0 < meta.training_frames < budget

    assert run_cli(*argv, "--resume", str(run / "archive.ckpt"), "--out", str(run)) == 0
    assert (run / "archive.ckpt").read_bytes() == (straight / "archive.ckpt").read_bytes()
    assert _cut(run / "metrics.csv") == _cut(straight / "metrics.csv")


def test_cli_resume_onto_foreign_metrics_csv_exit_2(tmp_path):
    path = write_config(tmp_path, BASE)
    run = tmp_path / "run"
    assert run_cli("explore", "--config", str(path), "--out", str(run)) == 0
    (run / "metrics.csv").write_text("game_frames,cells\r\n0,1\r\n")
    assert run_cli("explore", "--config", str(path), "--resume", str(run / "archive.ckpt"),
                   "--budget-frames", "2000", "--out", str(run)) == 2


# -- edited metrics.csv values ------------------------------------------------------

# A twomaze run of 1,000 training frames with four metrics rows, each a
# sample row (game frames 1200, 2000, 3200 and 4000).
METRICS_RUN = BASE.replace("metric_interval_game_frames = 1000000000",
                           "metric_interval_game_frames = 1000")
METRIC_EDITS = ["inf", "nan", "1.5", "2e4", " 7", "", "-0", "1" * 30]


@pytest.fixture(scope="module")
def metrics_run(tmp_path_factory):
    """The config path, checkpoint bytes and metrics lines of METRICS_RUN."""
    root = tmp_path_factory.mktemp("metrics_run")
    path = write_config(root, METRICS_RUN)
    assert run_cli("explore", "--config", str(path), "--out", str(root / "run")) == 0
    lines = (root / "run" / "metrics.csv").read_bytes().decode().split("\r\n")
    assert len(lines) == 6  # the header, four rows and the empty last line
    return path, (root / "run" / "archive.ckpt").read_bytes(), lines


def report_and_resume(metrics_run, work, row, column, value):
    """The exit codes of ``archex report`` and of ``archex explore --resume``
    (200 more frames) on METRICS_RUN's files, with cell (row, column) of its
    metrics set to ``value``; and the metrics lines before and after the
    resume."""
    path, ckpt, lines = metrics_run
    cells = lines[row + 1].split(",")
    cells[column] = value
    edited = [*lines[:row + 1], ",".join(cells), *lines[row + 2:]]
    (work / "archive.ckpt").write_bytes(ckpt)
    (work / "metrics.csv").write_text("\r\n".join(edited), newline="")
    report = run_cli("report", str(work / "metrics.csv"), "--out", str(work / "agg"))
    resume = run_cli("explore", "--config", str(path), "--budget-frames", "1200",
                     "--resume", str(work / "archive.ckpt"), "--out", str(work))
    return report, resume, edited, (work / "metrics.csv").read_bytes().decode().split("\r\n")


@pytest.mark.parametrize("command", ["report", "resume"])
@pytest.mark.parametrize("column,value", [
    ("game_frames", "inf"), ("game_frames", "nan"), ("game_frames", "2000.5"),
    ("training_frames", "500.75")],
    ids=["inf", "nan", "fractional-game-frames", "fractional-training-frames"])
def test_cli_metrics_value_that_does_not_read_back_exit_2(metrics_run, tmp_path, capsys,
                                                         command, column, value):
    """A metrics value that its column's type would not write back as the
    same text exits 2, naming file:line, in the report and on resume. It
    neither crashes (inf and nan in an integer column) nor is rounded."""
    codes = report_and_resume(metrics_run, tmp_path, 1, MetricsRow._fields.index(column),
                              value)[:2]
    assert dict(zip(["report", "resume"], codes))[command] == 2
    assert "metrics.csv:3: " in capsys.readouterr().err


@settings(max_examples=200, deadline=None, derandomize=True)
@given(row=st.integers(0, 3), column=st.integers(0, len(MetricsRow._fields) - 1),
       value=st.sampled_from(METRIC_EDITS))
def test_cli_edited_metrics_value_exits_0_or_2(metrics_run, tmp_path_factory, row, column,
                                              value):
    """One edited metrics value: the report and the resume exit 0 if the
    value reads back as written in its column's type, else 2, and never
    raise. A resume that runs keeps the four rows it read byte for byte,
    unless the edit moved a row's game frames."""
    kind = get_type_hints(MetricsRow)[MetricsRow._fields[column]]
    try:
        expected = 0 if str(kind(value)) == value else 2
    except ValueError:
        expected = 2
    report, resume, edited, after = report_and_resume(
        metrics_run, tmp_path_factory.mktemp("edit"), row, column, value)
    assert (report, resume) == (expected, expected)
    if expected == 0 and column != 0:
        assert after[:5] == edited[:5]


# -- pinned checkpoint bytes ------------------------------------------------------

# sha256 of archive.ckpt after `archex explore --budget-frames N` on each
# shipped config (corridor also with downscaled cells). These bytes date from
# rollouts that rendered and snapshotted every step; work that makes rollouts
# or selection cheaper must leave them unchanged.
GOLDEN_CHECKPOINTS = [
    ("corridor-deceptive", 60_000, False,
     "846909286e91e4de503e7a4a74e78ee072ca7960b7e24e5250c79f7c67a7feb3"),
    ("corridor-deceptive", 60_000, True,
     "9ebb5750da129df9b9b3bcf369cfa70fdba641f4b1a2d36d565814409aae1eb2"),
    ("keydoor-domain", 60_000, False,
     "e758291321c7cab7d1b5d6d07271520a1b85ad0d5c7e54aae649e6eee02b2e28"),
    ("twomaze-detachment", 30_000, False,
     "598614ab2324e0d62c497bd7c2842b8df90257a84ad36ae29ae8ffed12667562"),
]


@pytest.mark.parametrize("name,budget,downscale,digest", GOLDEN_CHECKPOINTS)
def test_shipped_config_checkpoint_golden(tmp_path, name, budget, downscale, digest):
    text = (CONFIGS / f"{name}.cfg").read_text()
    if downscale:
        text = text.replace("repr.mode = domain", "repr.mode = downscale")
        text = text.replace("select.domain_mode = true", "select.domain_mode = false")
    path = write_config(tmp_path, text)
    out = tmp_path / "run"
    assert run_cli("explore", "--config", str(path), "--budget-frames", str(budget),
                   "--out", str(out)) == 0
    assert hashlib.sha256((out / "archive.ckpt").read_bytes()).hexdigest() == digest


# -- pinned CSV bytes --------------------------------------------------------------

# sha256 of each CSV a small keydoor run writes: explore to 20k frames, resume
# to 40k into the same directory (metrics.csv gains rows), robustify, evaluate,
# and report over the metrics. metrics.csv is hashed with its wall_seconds
# column cut from every line; the \r\n line ends are part of every digest.
GOLDEN_CSVS = {
    "run/metrics.csv":
        "171701506d44e9f3afac94a753ae7833a84ac632838b1b562ab3f3a62b70149f",
    "rob/progress.csv":
        "81f2dbd426ba1ac44567371b34f21594d466f8856c62ba36fffe8841ebe98607",
    "eval/raw_scores.csv":
        "1ac9d8eb4a4fea6538d168faec1a6568544e6623d277c5275a2e35f73cfccc41",
    "eval/per_noop.csv":
        "799c47fb170362ddb9335e9b848a21b0b9c5fb9486bf8909b616a228f7427741",
    "agg/max_score_aggregate.csv":
        "349f5421007f23e3f7d33db9679671db4fa26795d736f13cc635bbc1c85fb3b5",
}


def test_cli_csv_golden(tmp_path):
    path = write_config(tmp_path, KEYDOOR_SMALL.replace(
        "metric_interval_game_frames = 1000000000", "metric_interval_game_frames = 20000"))
    run = tmp_path / "run"
    assert run_cli("explore", "--config", str(path), "--budget-frames", "20000",
                   "--out", str(run)) == 0
    assert run_cli("explore", "--config", str(path), "--resume", str(run / "archive.ckpt"),
                   "--out", str(run)) == 0
    assert run_cli("robustify", "--config", str(path), "--out", str(tmp_path / "rob"),
                   str(run / "archive.ckpt")) == 0
    assert run_cli("evaluate", "--config", str(path), "--out", str(tmp_path / "eval"),
                   "--policy", str(tmp_path / "rob" / "policy.ckpt")) == 0
    assert run_cli("report", "--out", str(tmp_path / "agg"), str(run / "metrics.csv")) == 0
    digests = {}
    for name in GOLDEN_CSVS:
        data = (tmp_path / name).read_bytes()
        if name.endswith("metrics.csv"):
            data = b"\r\n".join(line.rpartition(b",")[0] for line in data.split(b"\r\n"))
        digests[name] = hashlib.sha256(data).hexdigest()
    assert digests == GOLDEN_CSVS
