"""Environment contracts: determinism, snapshots, sticky uniforms and forced
no-ops, suite topology."""

import dataclasses
import functools
import hashlib
import importlib
import struct
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from archex.envs import (
    ACTION_LEFT,
    ACTION_NOOP,
    ACTION_RIGHT,
    ACTION_UP,
    DeceptiveCorridor,
    KeyDoorWorld,
    TwoMaze,
    force_noops,
    sticky_uniforms,
)
from archex.envs.base import STATE_HEAD, pack_snapshot, unpack_snapshot
from archex.envs import gridworld
from archex.envs.gridworld import TILE_DOOR, TILE_HAZARD, TILE_WALL
from archex.errors import ConfigError, ContractError, SnapshotFormatError
from archex.evaluation import EvalProtocol
from archex.robustify import BackwardConfig
from archex.seeding import TAG_WRAPPER, stream

from conftest import (
    ENV_FACTORIES,
    bfs_reachable_states,
    drive,
    small_corridor,
    small_keydoor,
    small_twomaze,
    step_and_render,
)


def random_actions(seed, n, n_actions=5):
    rng = np.random.default_rng(seed)
    return [int(a) for a in rng.integers(0, n_actions, n)]


# -- determinism and reset -----------------------------------------------------


def test_reset_is_deterministic(any_env):
    obs1, snap1 = any_env.reset(0)
    obs2, snap2 = any_env.reset(0)
    assert snap1.state_bytes == snap2.state_bytes
    assert np.array_equal(obs1.frame, obs2.frame)


def test_reset_restores_the_start_without_rendering(any_env, monkeypatch):
    _, start = any_env.reset(0)
    drive(any_env, random_actions(11, 200, any_env.action_count))
    render = any_env.render
    calls = []
    monkeypatch.setattr(any_env, "render", lambda: calls.append(1) or render())
    obs, snap = any_env.reset(0)
    assert calls == []
    assert snap.state_bytes == start.state_bytes == any_env.snapshot().state_bytes
    assert np.array_equal(obs.frame, render())
    with pytest.raises(ValueError):
        obs.frame[0, 0] = 1


def test_seed_does_not_change_base_env(any_env):
    _, snap1 = any_env.reset(1)
    _, snap2 = any_env.reset(99)
    assert snap1.state_bytes == snap2.state_bytes


def test_two_fresh_runs_are_byte_identical(any_env):
    actions = random_actions(7, 300, any_env.action_count)

    def run():
        stream = []
        any_env.reset(0)
        for action in actions:
            if any_env.done:
                break
            stream.append(step_and_render(any_env, action))
        return stream

    assert run() == run()


def test_frame_intensities_in_range(any_env):
    obs, _ = any_env.reset(0)
    shape = obs.frame.shape
    for action in random_actions(3, 100, any_env.action_count):
        if any_env.done:
            break
        any_env.step(action)
        frame = any_env.render()
        assert frame.shape == shape
        assert frame.dtype == np.uint8  # uint8 is [0, 255] by type


# -- frame counters --------------------------------------------------------------


def test_frame_counters_follow_skip():
    env = small_twomaze(frame_skip=4)
    env.reset(0)
    for _ in range(100):
        env.step(ACTION_NOOP)
    assert env.frame_counters() == (400, 100)


def test_counters_zero_at_reset(any_env):
    any_env.reset(0)
    assert any_env.frame_counters() == (0, 0)


def test_skip_one_counters_equal():
    env = small_twomaze(frame_skip=1)
    env.reset(0)
    for _ in range(17):
        env.step(ACTION_NOOP)
    assert env.frame_counters() == (17, 17)


@pytest.mark.parametrize("skip,limit", [(skip, limit) for skip in (3, 4)
                                         for limit in (1, 7, 8, 9)])
def test_time_limit_off_the_skip_grid(skip, limit):
    """A time limit that is not a multiple of ``frame_skip`` ends the episode
    at the first step whose game frames reach it; the counters read
    ``(tf * skip, tf)`` at every step, and the snapshot taken one step
    before the end restores to a live episode."""
    env = small_twomaze(frame_skip=skip, time_limit_game_frames=limit)
    env.reset(0)
    last = -(-limit // skip)
    for tf in range(1, last + 1):
        before = env.snapshot()
        assert env.step(ACTION_NOOP).done == (tf == last)
        assert env.frame_counters() == (tf * skip, tf)
    assert (last - 1) * skip < limit <= last * skip
    env.restore(before)
    assert not env.done and env.frame_counters() == ((last - 1) * skip, last - 1)
    assert env.step(ACTION_NOOP).done


def test_step_after_done_rejected():
    env = small_twomaze(time_limit_game_frames=8)
    env.reset(0)
    env.step(ACTION_NOOP)
    result = env.step(ACTION_NOOP)
    assert result.done
    with pytest.raises(ContractError):
        env.step(ACTION_NOOP)


# -- snapshots -------------------------------------------------------------------


def test_snapshot_restore_roundtrip(any_env):
    any_env.reset(0)
    drive(any_env, random_actions(5, 50, any_env.action_count))
    snap = any_env.snapshot()
    direct = step_and_render(any_env, ACTION_RIGHT)
    any_env.restore(snap)
    again = step_and_render(any_env, ACTION_RIGHT)
    assert direct == again  # frame, reward and done


def test_snapshot_equivalence_random_suffixes(any_env):
    """restore-then-play equals play-through, exactly."""
    for trial in range(20):
        any_env.reset(0)
        prefix = random_actions(trial, 40, any_env.action_count)
        suffix = random_actions(trial + 100, 25, any_env.action_count)
        drive(any_env, prefix)
        snap = any_env.snapshot()
        played = [step_and_render(any_env, a) for a in suffix]
        any_env.restore(snap)
        restored = [step_and_render(any_env, a) for a in suffix]
        assert played == restored


def test_restore_initial_equals_reset(any_env):
    _, initial = any_env.reset(0)
    drive(any_env, random_actions(11, 30, any_env.action_count))
    any_env.restore(initial)
    assert any_env.snapshot().state_bytes == initial.state_bytes


def test_snapshot_config_mismatch_rejected():
    a = small_keydoor()
    b = small_keydoor(room_w=6)
    a.reset(0)
    b.reset(0)
    with pytest.raises(SnapshotFormatError):
        b.restore(a.snapshot())


def test_snapshot_stable_across_instances():
    """Same construction, same state => byte-identical snapshots."""
    actions = random_actions(2, 60)
    blobs = []
    for _ in range(2):
        env = small_keydoor()
        env.reset(0)
        drive(env, actions)
        blobs.append(env.snapshot().state_bytes)
    assert blobs[0] == blobs[1]


def test_snapshot_stable_across_processes():
    """Serialize in a fresh interpreter; same state => same bytes."""
    import subprocess
    import sys

    script = (
        "from archex.envs import KeyDoorWorld\n"
        "import numpy as np\n"
        "env = KeyDoorWorld(rooms_rows=2, rooms_cols=2, room_w=5, room_h=5,"
        " keys=((1, 4, 1),), locked_doors=((2, 3), (1, 3)), hazards=(),"
        " treasure_room=3)\n"
        "env.reset(0)\n"
        "rng = np.random.default_rng(2)\n"
        "for a in rng.integers(0, 5, 60):\n"
        "    env.step(int(a))\n"
        "print(env.snapshot().state_bytes.hex())\n"
    )
    blobs = [
        subprocess.run([sys.executable, "-c", script], capture_output=True,
                       text=True, check=True).stdout.strip()
        for _ in range(2)
    ]
    env = small_keydoor()
    env.reset(0)
    rng = np.random.default_rng(2)
    for a in rng.integers(0, 5, 60):
        env.step(int(a))
    assert blobs[0] == blobs[1] == env.snapshot().state_bytes.hex()


def test_truncated_snapshot_rejected(any_env):
    any_env.reset(0)
    snap = any_env.snapshot()
    bad = dataclasses.replace(snap, state_bytes=snap.state_bytes[:-3])
    with pytest.raises(SnapshotFormatError):
        any_env.restore(bad)


def test_snapshot_with_trailing_payload_bytes_rejected(any_env):
    """A payload two bytes longer than its state, with a header that counts
    them, would otherwise restore and then snapshot to other bytes."""
    any_env.reset(0)
    blob = any_env.snapshot().state_bytes
    magic, header = blob[:4], struct.Struct("<HQI")
    version, chash, plen = header.unpack_from(blob, 4)
    padded = magic + header.pack(version, chash, plen + 2) + blob[4 + header.size:] + b"\0\0"
    bad = dataclasses.replace(any_env.snapshot(), state_bytes=padded)
    with pytest.raises(SnapshotFormatError, match="trailing"):
        any_env.restore(bad)


def test_snapshot_with_position_off_grid_or_on_wall_rejected(any_env):
    """No step reaches a position outside the grid or on a wall tile. A
    snapshot holding one would step on wrapped indices, report rooms the
    world lacks, or fail with IndexError."""
    snap = any_env.reset(0)[1]
    payload = unpack_snapshot(snap.state_bytes, any_env.config_hash)
    head = list(STATE_HEAD.unpack_from(payload))
    wall = any_env.base.index(TILE_WALL)
    for x, y in [(10**6, 1), (-1, 1), (-3, -2), (wall % any_env.width, wall // any_env.width)]:
        head[5:7] = x, y
        state = pack_snapshot(any_env.config_hash,
                              STATE_HEAD.pack(*head) + payload[STATE_HEAD.size:])
        with pytest.raises(SnapshotFormatError, match="position"):
            any_env.restore(dataclasses.replace(snap, state_bytes=state))
    any_env.restore(snap)
    assert any_env.snapshot() == snap


# -- features and discrete state against a recomputation -------------------------


def room_oracle(env, x, y):
    if env.rooms is None:
        return 0
    rows, cols, w, h = env.rooms
    return min((y - 1) // (h + 1), rows - 1) * cols + min((x - 1) // (w + 1), cols - 1)


State = namedtuple("State", "x y level held keys doors treasures")


def decode(env):
    """``env.discrete_state()`` by field: position, level, then the held key
    rooms, taken keys, opened doors and collected treasures, each stored as
    a count and then its values."""
    state = env.discrete_state()
    fields, at = list(state[:3]), 3
    for _ in range(4):
        fields.append(state[at + 1:at + 1 + state[at]])
        at += 1 + state[at]
    assert at == len(state)
    return State(*fields)


def snapshot_state(env):
    """The discrete state that ``env.snapshot()``'s payload packs."""
    payload = unpack_snapshot(env.snapshot().state_bytes, env.config_hash)
    *_, level, x, y = STATE_HEAD.unpack_from(payload)
    n = (len(payload) - STATE_HEAD.size) // 2
    return (x, y, level, *struct.unpack_from(f"<{n}H", payload, STATE_HEAD.size))


EVENTS_EXPECTED = {
    "twomaze": {"reset", "restore"},
    "keydoor": {"reset", "restore", "pickup", "door", "level"},
    "corridor": {"reset", "restore", "respawn", "treasure"},
}


def random_walk(env, seed, steps):
    """Random action streams that return to random earlier states: after
    each reset, restore or step, yield the events it caused ("reset",
    "restore", "level", "pickup", "door", "treasure", "respawn" for a jump
    of more than one tile within a level, "kill" for a step that ends the
    episode before its time limit)."""
    rng = np.random.default_rng(seed)
    _, snap = env.reset(0)
    seen = {env.discrete_state(): snap}
    action = ACTION_NOOP
    for _ in range(steps):
        u = rng.random()
        if u < 0.01 or env.done:
            env.reset(0)
            yield {"reset"}
        elif u < 0.06:
            snaps = list(seen.values())
            env.restore(snaps[int(rng.integers(len(snaps)))])
            yield {"restore"}
        else:
            if rng.random() < 0.3:
                action = int(rng.integers(env.action_count))
            before = decode(env)
            env.step(action)
            after = decode(env)
            counts = [(s.level, len(s.keys), len(s.doors), len(s.treasures))
                      for s in (before, after)]
            events = {name for name, old, new in zip(("level", "pickup", "door", "treasure"),
                                                     *counts) if new > old}
            if (after.level == before.level
                    and abs(after.x - before.x) + abs(after.y - before.y) > 1):
                events.add("respawn")
            if env.done and env.frame_counters()[0] < env.time_limit_game_frames:
                events.add("kill")
            if not env.done and env.discrete_state() not in seen:
                seen[env.discrete_state()] = env.snapshot()
            yield events


@pytest.mark.parametrize("world", sorted(EVENTS_EXPECTED))
def test_cached_state_and_features_match_recomputation(world):
    """Random walks reach pickups, door openings, level advances, hazard
    respawns and treasures; after every step, restore and reset the interned
    discrete_state() is the state the snapshot packs, and features() equal
    a recomputation from its fields."""
    env = ENV_FACTORIES[world]()
    assert all(env.room_of(x, y) == room_oracle(env, x, y)
               for x in range(env.width) for y in range(env.height))
    events = set()
    for happened in random_walk(env, 11, 6000):
        events |= happened
        assert env.discrete_state() == snapshot_state(env)
        s = decode(env)
        assert env.features() == (s.x, s.y, room_oracle(env, s.x, s.y), s.level, s.held)
    assert EVENTS_EXPECTED[world] <= events


# -- the transition table against a world that ticks nearly every step -----------

# Worlds with short time limits, so that walks run into them: the small
# keydoor with a hazard in room 2 under each policy, and the small corridor,
# whose hazards respawn.
TABLE_WORLDS = {
    "twomaze": lambda: small_twomaze(time_limit_game_frames=300),
    "keydoor-kill": lambda: small_keydoor(hazards=((2, 1, 1),), hazard_policy="kill",
                                          time_limit_game_frames=600),
    "keydoor-respawn": lambda: small_keydoor(hazards=((2, 1, 1),), hazard_policy="respawn",
                                             time_limit_game_frames=600),
    "corridor": lambda: small_corridor(time_limit_game_frames=300),
}
TABLE_EVENTS = {
    "twomaze": {"reset", "restore", "time limit"},
    "keydoor-kill": {"reset", "restore", "pickup", "door", "level", "kill", "time limit"},
    "keydoor-respawn": {"reset", "restore", "pickup", "door", "level", "respawn",
                        "time limit"},
    "corridor": {"reset", "restore", "treasure", "respawn", "time limit"},
}


def walk_trace(monkeypatch, env, seed, steps):
    """:func:`random_walk` on ``env``: the events it met, and after each
    reset, restore or step the step's result (None for the others), the
    done flag, discrete state, features, rendered frame and snapshot."""
    results = []
    step = env.step

    def recording_step(action):
        results.append(step(action))
        return results[-1]

    monkeypatch.setattr(env, "step", recording_step)
    events, trace = set(), []
    for happened in random_walk(env, seed, steps):
        events |= happened
        if env.done and env.frame_counters()[0] >= env.time_limit_game_frames:
            events.add("time limit")
        result = results.pop() if results else None
        trace.append((result, env.done, env.discrete_state(), env.features(),
                      env.render().tobytes(), env.snapshot().state_bytes))
    return events, trace


@pytest.mark.parametrize("world", sorted(TABLE_WORLDS))
def test_table_steps_like_a_world_that_ticks_every_new_pair(monkeypatch, world):
    """The oracle world's table holds the current state and the one it
    leads to (a limit of 1), so nearly every step ticks; a world with the
    shipped limit reads most steps from its table. Both walk the same
    random walk through every event their world has, with the same
    results, states, features, frames and snapshots."""
    monkeypatch.setattr(gridworld, "STATE_TABLE_LIMIT", 1)
    events, want = walk_trace(monkeypatch, TABLE_WORLDS[world](), 5, 6000)
    monkeypatch.undo()
    env = TABLE_WORLDS[world]()
    got_events, got = walk_trace(monkeypatch, env, 5, 6000)
    assert TABLE_EVENTS[world] <= events == got_events
    assert got == want
    assert len(env._states) < len(got) / 10  # the table did the stepping


def test_table_limit_clears_and_keeps_the_bytes(monkeypatch):
    """A table limited to 50 states is cleared many times over a walk that
    meets over 300, and the walk's snapshot bytes do not change."""
    make = TABLE_WORLDS["keydoor-kill"]
    env = make()
    unlimited = [snap for *_, snap in walk_trace(monkeypatch, env, 9, 20_000)[1]]
    assert len(env._states) > 300
    monkeypatch.undo()
    monkeypatch.setattr(gridworld, "STATE_TABLE_LIMIT", 50)
    env = make()
    sizes = []
    intern = env._intern

    def sized_intern(state):
        sid = intern(state)
        sizes.append(len(env._states))
        return sid

    monkeypatch.setattr(env, "_intern", sized_intern)
    limited = [snap for *_, snap in walk_trace(monkeypatch, env, 9, 20_000)[1]]
    assert limited == unlimited
    assert max(sizes) <= 51 and sizes.count(2) > 10


def test_replay_from_a_snapshot_reads_the_table(monkeypatch):
    """Stepping the same actions from the same snapshot a second time ticks
    no step and gives the same results and snapshots."""
    env = small_keydoor(hazards=((2, 1, 1),), hazard_policy="respawn")
    ticks = []
    tick = gridworld.GridWorld._tick
    monkeypatch.setattr(gridworld.GridWorld, "_tick",
                        lambda self, state, action: ticks.append(action)
                        or tick(self, state, action))
    _, start = env.reset(0)

    def replay():
        env.restore(start)
        return [(env.step(a), env.snapshot()) for a in random_actions(3, 3000)]

    first = replay()
    assert len(ticks) > 100
    ticks.clear()
    assert replay() == first
    assert ticks == []


# Hazards clear of every doorway, each more than one tile from the room's
# respawn point, so a respawn is a jump.
KEYDOOR_HAZARDS = ((0, 4, 0), (1, 3, 4), (2, 4, 4))
RENDER_WORLDS = {
    # name: (factory, events the walk must reach)
    "twomaze": (small_twomaze, {"reset", "restore"}),
    "keydoor-kill": (lambda: small_keydoor(hazards=KEYDOOR_HAZARDS),
                     {"pickup", "door", "level", "kill"}),
    "keydoor-respawn": (lambda: small_keydoor(hazards=KEYDOOR_HAZARDS, hazard_policy="respawn"),
                        {"pickup", "door", "level", "respawn"}),
    "corridor": (small_corridor, {"treasure", "respawn"}),
}


@pytest.mark.parametrize("world", sorted(RENDER_WORLDS))
def test_equal_discrete_states_render_equal_frames(world):
    """The contract explore's column rests on for downscaled keys:
    within one config, render() is a function of discrete_state(). Any two points of
    seeded random walks, across resets, restores, pickups, doors, level
    advances, kills, respawns and treasures, whose discrete states are
    equal render the same bytes."""
    factory, expected = RENDER_WORLDS[world]
    env = factory()
    frames = {}
    events = set()
    visits = 0
    for seed in (3, 4):
        for happened in random_walk(env, seed, 6000):
            events |= happened
            frame = env.render().tobytes()
            assert frames.setdefault(env.discrete_state(), frame) == frame
            visits += 1
    assert expected <= events
    assert visits > 4 * len(frames)  # most points revisit a state


@pytest.mark.parametrize("world", sorted(RENDER_WORLDS))
def test_tick_is_a_pure_function_of_state_and_action(world):
    """At every state a random walk meets, across kills, respawns, level
    advances, doors and treasures, each action's tick gives equal results
    twice and leaves the world as it found it: its state, done flag, frame
    counters, score, snapshot and attributes."""
    factory, expected = RENDER_WORLDS[world]
    env = factory()

    def world_now():
        return (env.discrete_state(), env.done, env.frame_counters(), env.cum_score,
                env.snapshot().state_bytes, {k: id(v) for k, v in vars(env).items()})

    events, checked = set(), set()
    for happened in random_walk(env, 3, 6000):
        events |= happened
        state = env.discrete_state()
        if state in checked:
            continue
        checked.add(state)
        before = world_now()
        for action in range(env.action_count):
            assert env._tick(state, action) == env._tick(state, action)
        assert world_now() == before
    assert expected <= events


# -- restore rejects states that break an invariant of step ----------------------

# The BFS-reachable state count of each small world and the sha256 over the
# sorted render() bytes at those states; a change to what a state draws
# changes them.
BFS_FRAME_DIGESTS = {
    "corridor": (402, "3eb3bdb12561559d47cd1fd24e7df295d681a6cb68f65820110ee0db9f1c179a"),
    "keydoor": (715, "54a808b78503e137ea436f51c47fe3327516f9fd681f6ffd7adbf82f56f7bfc3"),
    "twomaze": (41, "619e61c4d3fec420e5e39b23436e5d1a23f655ca82b308bcd947e711ffedb722"),
}

# sha256 over the sorted snapshot bytes of every BFS-reachable state of each
# small world; a change to the snapshot layout changes them.
BFS_SNAPSHOT_DIGESTS = {
    "corridor": "2e2f224af53d6a9e12283df4333708eb4fd8480596811dcd47cdd39f907ab734",
    "keydoor": "dbad4f944e28008e2d64c97f51099ae62375967515cb3c7a3e438ec9fcc4d2f9",
    "twomaze": "2e9b7294d03e454632919262575dcb28f3ef774975d677267cfa9553238f22fb",
}


@functools.cache
def reachable(world):
    """The BFS-reachable (discrete state, snapshot) pairs of a small world."""
    return tuple(bfs_reachable_states(ENV_FACTORIES[world]()).items())


@pytest.mark.parametrize("world", sorted(BFS_SNAPSHOT_DIGESTS))
def test_reachable_snapshots_keep_their_bytes_and_round_trip(world):
    snaps = [snap for _, snap in reachable(world)]
    digest = hashlib.sha256(b"".join(sorted(s.state_bytes for s in snaps))).hexdigest()
    assert digest == BFS_SNAPSHOT_DIGESTS[world]
    env = ENV_FACTORIES[world]()
    for state, snap in reachable(world):
        env.restore(snap)
        assert env.discrete_state() == state
        assert env.snapshot() == snap


@pytest.mark.parametrize("world", sorted(BFS_FRAME_DIGESTS))
def test_reachable_frames_keep_their_bytes(world):
    env = ENV_FACTORIES[world]()
    frames = []
    for _, snap in reachable(world):
        env.restore(snap)
        frames.append(env.render().tobytes())
    digest = hashlib.sha256(b"".join(sorted(frames))).hexdigest()
    assert (len(frames), digest) == BFS_FRAME_DIGESTS[world]


HEAD_FIELDS = ("score", "tf", "gf", "done", "level", "x", "y")


def repacked(env, held=(), keys=(), doors=(), treasures=(), **head):
    """The start snapshot with the ``head`` fields replaced and the four
    sequences as its tail, packed through ``pack_snapshot``."""
    snap = env.reset(0)[1]
    payload = unpack_snapshot(snap.state_bytes, env.config_hash)
    values = dict(zip(HEAD_FIELDS, STATE_HEAD.unpack_from(payload)), **head)
    tail = [n for seq in (held, keys, doors, treasures) for n in (len(seq), *seq)]
    payload = STATE_HEAD.pack(*values.values()) + struct.pack(f"<{len(tail)}H", *tail)
    return dataclasses.replace(snap, state_bytes=pack_snapshot(env.config_hash, payload))


def two_key_door():
    """small_keydoor with a second key, in room 2."""
    return small_keydoor(keys=((1, 4, 1), (2, 1, 1)))


RESTORE_CASES = {
    # Control rows: states a run reaches.
    "key-held": (small_keydoor, dict(held=(1,), keys=(0,)), None),
    "door-opened": (two_key_door, dict(held=(2,), keys=(0, 1), doors=(1,), tf=9, gf=36), None),
    "treasures-collected": (small_corridor, dict(treasures=(0, 1), done=1), None),
    # Held keys: a room the world lacks, more than key_capacity, unsorted.
    "held-foreign-room": (small_keydoor, dict(held=(999,), keys=(0,)), "rooms"),
    "held-over-capacity": (small_keydoor, dict(held=(1,) * 20), "rooms"),
    "held-unsorted": (two_key_door, dict(held=(2, 1), keys=(0, 1)), "rooms"),
    # Key 0 lies in room 1, so a step never holds a key of room 2 after it.
    "held-room-no-taken-key-has": (small_keydoor, dict(held=(2,), keys=(0,)),
                                   "rooms of the keys taken"),
    # Taken indices: past the world's count, repeated, out of order.
    "key-past-count": (small_keydoor, dict(held=(1,), keys=(50,)), "key indices"),
    "key-repeated": (two_key_door, dict(held=(1, 1), keys=(0, 0)), "key indices"),
    "key-out-of-order": (two_key_door, dict(held=(1, 2), keys=(1, 0)), "key indices"),
    "door-past-count": (small_keydoor, dict(keys=(0,), doors=(2,)), "door indices"),
    "door-repeated": (two_key_door, dict(keys=(0, 1), doors=(0, 0)), "door indices"),
    "door-out-of-order": (two_key_door, dict(keys=(0, 1), doors=(1, 0)), "door indices"),
    "treasure-past-count": (small_corridor, dict(treasures=(2,)), "treasure indices"),
    "treasure-repeated": (small_corridor, dict(treasures=(1, 1)), "treasure indices"),
    "treasure-out-of-order": (small_corridor, dict(treasures=(1, 0)), "treasure indices"),
    # Counts and flags no step makes.
    "key-taken-not-held": (small_keydoor, dict(keys=(0,)), "add up"),
    "key-held-not-taken": (small_keydoor, dict(held=(1,)), "add up"),
    "done-flag": (small_keydoor, dict(done=2), "done flag"),
    "game-frames": (small_keydoor, dict(tf=1, gf=5), "frame_skip"),
    # small_keydoor's time limit is 400,000 game frames, 100,000 steps.
    "ended-at-time-limit": (small_keydoor, dict(tf=100_000, gf=400_000, done=1), None),
    "live-at-time-limit": (small_keydoor, dict(tf=100_000, gf=400_000), "time limit"),
    "level-without-levels": (small_corridor, dict(level=1), "without levels"),
    "treasure-advancing-levels": (small_keydoor, dict(treasures=(0,)), "advance levels"),
}


@pytest.mark.parametrize("case", list(RESTORE_CASES))
def test_restore_rejects_states_no_step_makes(case):
    make, state, match = RESTORE_CASES[case]
    env = make()
    snap = repacked(env, **state)
    if match is None:
        env.restore(snap)
        assert env.snapshot().state_bytes == snap.state_bytes
        assert decode(env)[3:] == tuple(state.get(name, ()) for name in State._fields[3:])
    else:
        with pytest.raises(SnapshotFormatError, match=match):
            env.restore(snap)


@settings(max_examples=300, deadline=None)
@given(world=st.sampled_from(sorted(ENV_FACTORIES)), pick=st.integers(0, 10**6),
       op=st.sampled_from(("edit", "insert", "delete")), at=st.integers(0, 10**6),
       value=st.one_of(st.integers(0, 8), st.integers(0, 0xFFFF)))
def test_restore_of_an_edited_tail_raises_or_round_trips(world, pick, op, at, value):
    """One 16-bit value of a reachable snapshot's tail edited, inserted or
    deleted: restore either rejects the result or installs a state whose
    snapshot is the same bytes and whose discrete state is recomputed
    exactly from the edited payload."""
    env = ENV_FACTORIES[world]()
    _, snap = reachable(world)[pick % len(reachable(world))]
    payload = unpack_snapshot(snap.state_bytes, env.config_hash)
    head, tail = payload[:STATE_HEAD.size], list(struct.unpack(
        f"<{(len(payload) - STATE_HEAD.size) // 2}H", payload[STATE_HEAD.size:]))
    at %= len(tail) + (op == "insert")
    if op == "edit":
        tail[at] = value
    elif op == "insert":
        tail.insert(at, value)
    else:
        del tail[at]
    blob = pack_snapshot(env.config_hash, head + struct.pack(f"<{len(tail)}H", *tail))
    edited = dataclasses.replace(snap, state_bytes=blob)
    try:
        env.restore(edited)
    except SnapshotFormatError:
        return
    assert env.snapshot().state_bytes == blob
    *_, level, x, y = STATE_HEAD.unpack_from(head)
    assert env.discrete_state() == (x, y, level, *tail)
    decode(env)


# -- sticky actions and forced no-ops ------------------------------------------------


def test_sticky_probability_bounds():
    """The two configs that set a sticky probability reject one outside [0, 1)."""
    for p in (1.0, -0.1):
        with pytest.raises(ConfigError):
            EvalProtocol(sticky_p=p)
        with pytest.raises(ConfigError):
            BackwardConfig(sticky_p=p)


def test_sticky_uniforms_equal_scalar_draws():
    """Across several blocks, each seed's uniforms are the values of one
    ``random()`` call per decision on its stream."""
    for seed in (3, 8):
        uniforms, scalars = sticky_uniforms(seed), stream(seed, TAG_WRAPPER, 1)
        assert [next(uniforms) for _ in range(1000)] == [scalars.random() for _ in range(1000)]


def test_force_noops_exact():
    """Seven no-ops step seven frames and leave the agent where it was; at
    p > 0 the six after the first draw one uniform each, at p == 0 none do."""
    for p in (0.0, 0.25):
        env = small_twomaze()
        env.reset(0)
        start = env.discrete_state()
        drawn = []
        uniforms = (drawn.append(i) or 0.0 for i in range(100))
        assert force_noops(env, 7, p, uniforms) == 7
        assert env.frame_counters()[1] == 7
        assert env.discrete_state() == start
        assert len(drawn) == (6 if p else 0)


# -- suite topology ----------------------------------------------------------------


def test_twomaze_arms_are_disjoint():
    """Removing the start tile separates the two corridors."""
    env = small_twomaze()
    env.reset(0)
    from collections import deque

    sx, sy = env.spawn
    sides = []
    for first in (ACTION_LEFT, ACTION_RIGHT):
        seen = set()
        env.reset(0)
        env.step(first)
        start = decode(env)[:2]
        if start == (sx, sy):
            raise AssertionError("first move off the start failed")
        seen.add(start)
        queue = deque([start])
        while queue:
            x, y = queue.popleft()
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                nxt = (x + dx, y + dy)
                if nxt == (sx, sy) or nxt in seen:
                    continue
                if env.base[nxt[1] * env.width + nxt[0]] != TILE_WALL:
                    seen.add(nxt)
                    queue.append(nxt)
        sides.append(seen)
    assert not (sides[0] & sides[1])
    assert len(sides[0]) > 10 and len(sides[1]) > 10


def test_keydoor_requires_key_before_treasure():
    """BFS with locked doors as walls cannot reach the treasure."""
    env = small_keydoor()
    from collections import deque

    def reachable(doors_block):
        seen = {env.spawn}
        queue = deque([env.spawn])
        while queue:
            x, y = queue.popleft()
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                nx, ny = x + dx, y + dy
                tile = env.base[ny * env.width + nx]
                if tile == TILE_WALL or tile == TILE_HAZARD:
                    continue
                if tile == TILE_DOOR and doors_block:
                    continue
                if (nx, ny) not in seen:
                    seen.add((nx, ny))
                    queue.append((nx, ny))
        return seen

    treasure = env.treasure_positions[0]
    assert treasure not in reachable(doors_block=True)
    assert treasure in reachable(doors_block=False)
    assert all(k in reachable(doors_block=True) for k in env.key_positions)


def test_keydoor_key_pickup_and_door():
    env = small_keydoor()
    env.reset(0)
    states = bfs_reachable_states(env, limit=5000)
    picked = [s for s in states if s[3] > 0]  # holding a key
    assert picked, "key pickup reachable"
    leveled = [s for s in states if s[2] > 0]
    assert leveled, "treasure (level advance) reachable"


def test_keydoor_treasure_reward_and_level():
    """Scripted walk: key -> door -> treasure pays and increments level."""
    env = small_keydoor()
    env.reset(0)
    states = bfs_reachable_states(env, limit=5000)
    # Find a reachable state at level 1: replay not needed, BFS proves it.
    assert any(s[2] == 1 for s in states)


def test_twomaze_spawn_sits_between_the_arms():
    env = small_twomaze()
    env.reset(0)
    sx, sy = env.spawn
    left = env.base[sy * env.width + (sx - 1)]
    right = env.base[sy * env.width + (sx + 1)]
    assert left != TILE_WALL and right != TILE_WALL
    assert sx == env.arm_cols + 1  # equidistant from both arms


def test_key_capacity_limits_pickups():
    env = small_keydoor(keys=((0, 3, 2), (0, 1, 2)), key_capacity=1)
    env.reset(0)
    env.step(ACTION_RIGHT)  # onto the first key
    assert len(decode(env).held) == 1
    env.step(ACTION_LEFT)
    env.step(ACTION_LEFT)   # onto the second key tile: at capacity, stays
    assert len(decode(env).held) == 1
    state = bfs_reachable_states(env, limit=4000)
    assert all(s[3] <= 1 for s in state)  # held count never exceeds capacity


def test_keydoor_hazard_kills():
    env = small_keydoor(hazards=((0, 3, 1),))
    env.reset(0)
    # walk onto the hazard: spawn is room 0 center (2,2) local; hazard at (3,1)
    env.step(ACTION_RIGHT)
    result = env.step(ACTION_UP)
    assert result.done
    assert env.hazard_policy == "kill"


def test_corridor_hazard_respawns_with_penalty():
    env = small_corridor()
    env.reset(0)
    start = decode(env)[:2]
    env.step(ACTION_UP)  # leave the gap row so the line is in the way
    hit = False
    for _ in range(10):
        result = env.step(ACTION_RIGHT)
        if result.reward < 0:
            hit = True
            break
    assert hit
    assert decode(env)[:2] == start  # respawn at the room edge
    assert not env.done
    assert env.hazard_policy == "respawn"


def test_corridor_negative_expected_reward_short_rollouts():
    """Uniform-random 20-step rollouts from reset have negative mean reward."""
    env = small_corridor()
    rng = np.random.default_rng(0)
    total = 0.0
    for _ in range(500):
        env.reset(0)
        for _ in range(20):
            result = env.step(int(rng.integers(env.action_count)))
            total += result.reward
    assert total < 0


def test_corridor_total_positive_reachable():
    """Every treasure is collectible: some reachable state holds them all."""
    env = small_corridor()
    env.reset(0)
    states = bfs_reachable_states(env, limit=20000)
    # discrete_state for the corridor is (x, y, level, 0, 0, 0, n_taken, *taken)
    n_treasures = len(env.treasure_values)
    assert any(s[6] == n_treasures for s in states)


def test_corridor_time_limit_ends_episode():
    env = small_corridor(time_limit_game_frames=40)
    env.reset(0)
    rewards, dones = drive(env, [ACTION_NOOP] * 10)
    assert dones[-1] and not any(dones[:-1])


# -- config hash / construction errors ---------------------------------------------


def test_bad_layouts_rejected():
    with pytest.raises(ConfigError):
        small_keydoor(keys=((99, 1, 1),))
    with pytest.raises(ConfigError):
        small_keydoor(locked_doors=((0, 3),))  # not adjacent
    with pytest.raises(ConfigError):
        small_corridor(treasures=((0, 500.0),))  # room 0 reserved
    with pytest.raises(ConfigError):
        TwoMaze(arm_rows=0)
    with pytest.raises(ConfigError):
        small_twomaze(frame_skip=0)


def test_config_hash_distinguishes_layouts():
    assert small_keydoor().config_hash != small_keydoor(room_w=6).config_hash
    assert small_keydoor().config_hash == small_keydoor().config_hash


# Each world's config hash covers its whole layout (tiles, doors, placements)
# and is written into every snapshot and checkpoint; these values pin it.
@pytest.mark.parametrize("make, config_hash", [
    (lambda: TwoMaze(), 5258495703993525792),
    (lambda: TwoMaze(arm_rows=6, arm_cols=14), 12531032386613311334),
    (lambda: KeyDoorWorld(), 13018531155005237145),
    (lambda: KeyDoorWorld(rooms_rows=1, rooms_cols=3, room_w=4, room_h=3, keys=((0, 1, 1),),
                          locked_doors=((1, 2),), hazards=((1, 2, 0),), treasure_room=2),
     5173323468356945217),
    (lambda: DeceptiveCorridor(), 11423020708828405911),
    (lambda: DeceptiveCorridor(n_rooms=3, room_w=6, room_h=3, treasures=((2, 50.0),)),
     7097193000988263738),
], ids=["twomaze", "twomaze-6x14", "keydoor", "keydoor-1x3", "corridor", "corridor-3"])
def test_config_hash_golden(make, config_hash):
    assert make().config_hash == config_hash


# -- package exports ---------------------------------------------------------------


@pytest.mark.parametrize("module", ["archex", "archex.envs"])
def test_every_exported_name_resolves(module):
    package = importlib.import_module(module)
    missing = [name for name in package.__all__ if not hasattr(package, name)]
    assert missing == []
