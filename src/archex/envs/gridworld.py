"""Shared tile-grid engine behind the synthetic environment suite.

A world is a global grid of tiles, optionally partitioned into rooms. The
engine owns movement, pickups, doors, hazards, level transitions, frame
accounting, rendering, and byte-exact snapshot/restore; concrete
environments are layout builders on top of it.

Dynamics are ticked once per training frame: each :meth:`step` moves the
agent at most one tile, resolves the tile's effects and stands for
``frame_skip`` game frames (the skipped frames are identical repeats, and
the step reward is the total produced during that window). A world counts
training frames only: :meth:`frame_counters` and snapshots give the game
frames as training frames times ``frame_skip``, and the time limit, set in
game frames, becomes a training-frame count at construction.

Within one config, a tick's next state, reward and kill flag are a pure
function of the discrete state and the action; only the time limit reads
the frame counter. So a world interns each discrete state (position,
level, held key rooms, taken keys, opened doors, collected treasures, as
one tuple of ints) to an id the first time it meets it, and keeps a
transition row per id: each action's next id and its :class:`StepResult`
(the reward, and done where the step kills), unknown until that action is
first taken. The dynamic state is that id, the score, the frame counter
and the done flag, and a :meth:`step` is a table read that hands out the
row's result, one shared object per distinct result, unless the time limit
ends the episode. On a miss, the world runs :meth:`_tick`, the one
implementation of the dynamics, a pure function from the id's tuple and
the action to the next tuple, the reward and the kill flag, then interns
the next tuple and fills the entry in. The tuple is the world's only copy
of its discrete state. Ids belong to one world, and the table is bounded:
once it holds ``STATE_TABLE_LIMIT`` states, the next new state clears it,
and it starts again, in place, from the current state.

Explore, robustify and evaluation keep their own facts about a state
beside the table, in the world's column (:meth:`column`): per id,
explore's cell key, room and level under one mapper, the Q-row id of one
learner, or the greedy action of one evaluated policy. It grows with
the table and is cleared in place with it, since ids are then handed out
again, and it belongs to one owner at a time.

:meth:`step` is one table read behind the checks a caller needs.
``explore_from``, ``backward_run`` and ``evaluate_policy``, the three loops
that step the most frames, read the table inline instead: they keep the
id, the score and the frame count in locals and only read the world:
:meth:`_miss` fills an entry in, and :meth:`_settle` takes the state back
before they snapshot, map or return. An entry that leads back to its own
state with no reward and no kill is a self-loop: taking its action again
repeats it exactly, so ``explore_from`` counts the rest of a run of that
action without stepping it, and ``evaluate_policy`` ends an episode whose
greedy action is one at the frame cap. A miss compares the next id with
the id :meth:`_miss` returns for the state left, since a clear interns
that state again and may give its old id to the next state.

:meth:`step` returns only the reward and the done flag.
:meth:`discrete_state` returns the interned tuple, and :meth:`features`,
:meth:`snapshot` and :meth:`render` read it. :meth:`render` is the only
renderer: it cuts the viewport out of the static shade grid that
construction maps from the tiles, paints the keys, doors, treasures and
agent the tuple implies, and scales the tiles up to pixels. It is called
where a frame is read: :meth:`observe`, the
downscaled-cell mapper (which explore calls once per id the column
lacks), and ``archex replay --render``.
:meth:`reset` installs the start state and returns the start observation
drawn once at construction, so robustification and evaluation never
render.

A snapshot's payload is ``base.STATE_HEAD`` followed by the tuple past
position and level (the held key rooms, taken keys, opened doors and
collected treasures, each a count and then its sorted values) as one run
of 16-bit integers. :meth:`restore` is the one parser of the run: it
rejects a state that breaks an invariant every step keeps, and only then
interns it, so the table holds only states a step or a checked restore
made, and the mappers and every other reader of the state trust it
without checking again.
"""

from __future__ import annotations

import struct

import numpy as np

from ..errors import ConfigError, ContractError, SnapshotFormatError
from .base import (
    _DELTAS,
    ACTION_COUNT,
    ACTION_NOOP,
    STATE_HEAD,
    DomainInfo,
    EnvSnapshot,
    Observation,
    StepResult,
    config_hash_from_lines,
    frame_limit,
    pack_snapshot,
    read_state_head,
    unpack_snapshot,
)

TILE_FLOOR = 0
TILE_WALL = 1
TILE_KEY = 2
TILE_DOOR = 3
TILE_HAZARD = 4
TILE_TREASURE = 5

MAX_TILES = 1 << 20  # the most tiles a grid may have; checked before allocating them
# The most game frames one training frame may stand for (Atari-style frame
# skipping uses 2 to 4). run_phase1 writes a metrics row for each metric
# interval the game frames cross, so the cap bounds the rows a training frame
# can add, and the 64-bit game-frame counters of snapshots and checkpoints
# still hold 2^54 training frames.
MAX_FRAME_SKIP = 1 << 10
# The most states a world's transition table holds before the next new one
# clears it. Near full (63,684 states) in the shipped keydoor world, the
# table and explore's column free 25.7 MB when dropped, 266 and 138 B
# per state (tracemalloc), so a full table holds about 26.5 MB.
STATE_TABLE_LIMIT = 1 << 16
_EMPTY_ROW = [None] * ACTION_COUNT  # a new id's transition entries

# Rendering intensities, all in [0, 255].
SHADE_FLOOR = 0
SHADE_WALL = 255
SHADE_KEY = 160
SHADE_DOOR_LOCKED = 96
SHADE_DOOR_OPEN = 32
SHADE_HAZARD = 64
SHADE_TREASURE = 224
SHADE_AGENT = 192
# The static shade of each tile code: render() paints keys, doors and
# treasures over the floor they start as.
_TILE_SHADES = np.array([SHADE_FLOOR, SHADE_WALL, SHADE_FLOOR, SHADE_FLOOR, SHADE_HAZARD,
                         SHADE_FLOOR], dtype=np.uint8)


class GridWorld:
    """Tile-grid environment engine. Subclasses build layouts.

    The environment interface: callers take a ``GridWorld`` or anything that
    duck-types what they call. Instances are single-owner; snapshots are
    immutable values and may be shared freely. The engine is deterministic:
    the ``seed`` of :meth:`reset` is ignored. Evaluation seeds an episode's
    sticky uniforms (:func:`archex.envs.wrappers.sticky_uniforms`) with the
    same value.

    Layout inputs (set by subclasses before ``_build``): ``width``/``height``,
    ``base`` (flat bytearray of tile codes), ``spawn``, placements for keys,
    doors, treasures, the room geometry (``rooms`` and ``n_rooms``, which
    ``_lay_out_rooms`` sets with the size, the walls and the doorways), ``_params`` (the constructor
    arguments ``config_lines`` appends, sorted), and behaviour switches
    (``hazard_policy`` is ``"kill"`` or ``"respawn"``, ``treasure_mode`` is
    ``"level"`` or ``"collect"``). A world without rooms renders the whole
    grid; a world of rooms renders the agent's room.

    The dynamic state is the interned id of :meth:`discrete_state`, the
    score, the training-frame count and the done flag: :meth:`step` writes
    it per frame, and :meth:`_settle` everywhere else.
    """

    action_count: int = ACTION_COUNT
    noop_action: int = ACTION_NOOP
    # Side of a tile in rendered pixels; config_lines keeps it in the hash.
    tile_px: int = 4

    def __init__(
        self,
        *,
        frame_skip: int = 4,
        time_limit_game_frames: int = 400_000,
        key_capacity: int = 8,
    ) -> None:
        if not 1 <= frame_skip <= MAX_FRAME_SKIP:
            raise ConfigError(f"frame_skip must be in [1, {MAX_FRAME_SKIP}]")
        if time_limit_game_frames < 1:
            raise ConfigError("time_limit_game_frames must be >= 1")
        if key_capacity < 0:
            raise ConfigError("key_capacity must be >= 0")
        self.frame_skip = frame_skip
        self.time_limit_game_frames = time_limit_game_frames
        self._frame_limit = frame_limit(time_limit_game_frames, frame_skip)
        self.key_capacity = key_capacity
        self.config_hash = 0

        # Layout, filled in by _build().
        self.width = 0
        self.height = 0
        self.base = bytearray()
        self.spawn = (0, 0)
        self.key_positions: list[tuple[int, int]] = []
        self.key_rewards: list[float] = []
        self.door_positions: list[tuple[int, int]] = []
        self.treasure_positions: list[tuple[int, int]] = []
        self.treasure_values: list[float] = []
        self.hazard_penalty = 0.0
        self.hazard_policy = "kill"
        self.treasure_mode = "level"
        # Room geometry: (rows, cols, interior_w, interior_h); None = one room.
        self.rooms: tuple[int, int, int, int] | None = None
        self.n_rooms = 1
        self._params: dict[str, object] = {}

        # Dynamic state (see _settle), done until _build installs the start.
        self._settle(0, 0.0, 0, True)
        # The transition table: discrete states by id and ids by state, then
        # ACTION_COUNT entries per id, the next id and the step's result
        # (reward and kill flag), None until the action is first taken. The
        # results are shared: one object per distinct (reward, kill) pair.
        self._states: list[tuple[int, ...]] = []
        self._ids: dict[tuple[int, ...], int] = {}
        self._next: list[int | None] = []
        self._result: list[StepResult | None] = []
        self._results: dict[tuple[float, bool], StepResult] = {}
        # The column: per id, _column_owner's fact about the state (see
        # column), None until the owner first records one.
        self._column: list[object] = []
        self._column_owner: object = None

        self._key_at: dict[tuple[int, int], int] = {}
        self._door_at: dict[tuple[int, int], int] = {}
        self._treasure_at: dict[tuple[int, int], int] = {}
        self._shades = np.zeros((0, 0), dtype=np.uint8)  # per tile, set by _build()

    # -- construction ------------------------------------------------------

    def _wall_grid(self, width: int, height: int, settings: str) -> None:
        """Set ``width``, ``height`` and an all-wall ``base``; a grid of more
        than ``MAX_TILES`` tiles raises :class:`ConfigError` naming the
        ``settings`` that size it, before anything is allocated."""
        if width * height > MAX_TILES:
            raise ConfigError(f"{settings} give {width}x{height} tiles, over {MAX_TILES}")
        self.width, self.height = width, height
        self.base = bytearray([TILE_WALL]) * (width * height)

    def _lay_out_rooms(self, rows: int, cols: int, w: int, h: int,
                       locked: set[tuple[int, int]], settings: str) -> None:
        """Set ``rooms``, ``width``, ``height`` and ``base`` for a ``rows`` x
        ``cols`` grid of ``w`` x ``h`` room interiors walled by single tiles,
        with a doorway in the middle of every wall two rooms share. The
        doorway is a door, recorded in ``door_positions``, where the (lower,
        higher) room pair is in ``locked``, and floor elsewhere; ``settings``
        names the dimensions for :meth:`_wall_grid`."""
        self.rooms = (rows, cols, w, h)
        self.n_rooms = rows * cols
        self._wall_grid(cols * (w + 1) + 1, rows * (h + 1) + 1, settings)
        floor = bytes([TILE_FLOOR]) * w
        for room in range(self.n_rooms):
            rr, rc = divmod(room, cols)
            ox, oy = self.room_origin(room)
            for row in range(oy * self.width + ox, (oy + h) * self.width, self.width):
                self.base[row:row + w] = floor
            doorways = []
            if rc + 1 < cols:  # the right wall, at mid height
                doorways.append((ox + w, oy + h // 2, room + 1))
            if rr + 1 < rows:  # the bottom wall, at mid width
                doorways.append((ox + w // 2, oy + h, room + cols))
            for x, y, other in doorways:
                if (room, other) in locked:
                    self.base[y * self.width + x] = TILE_DOOR
                    self.door_positions.append((x, y))
                else:
                    self.base[y * self.width + x] = TILE_FLOOR

    def _build(self) -> None:
        """Called by subclasses after layout fields are populated."""
        self._key_at = {p: i for i, p in enumerate(self.key_positions)}
        self._door_at = {p: i for i, p in enumerate(self.door_positions)}
        self._treasure_at = {p: i for i, p in enumerate(self.treasure_positions)}
        self._validate_layout()
        self.config_hash = config_hash_from_lines(self.config_lines())
        self._shades = _TILE_SHADES[np.frombuffer(self.base, dtype=np.uint8)].reshape(
            self.height, self.width)
        # The start state: the spawn tile at level 0, with each of the four
        # counted runs empty. reset() installs it and returns this pair, so
        # the start frame is drawn once and read-only.
        self._start_state = (*self.spawn, 0, 0, 0, 0, 0)
        self._settle(self._intern(self._start_state), 0.0, 0, False)
        obs = self.observe()
        obs.frame.flags.writeable = False
        self._start = (obs, self.snapshot())

    def _validate_layout(self) -> None:
        for name, positions in (
            ("key", self.key_positions),
            ("door", self.door_positions),
            ("treasure", self.treasure_positions),
        ):
            for x, y in positions:
                if not (0 <= x < self.width and 0 <= y < self.height):
                    raise ConfigError(f"{name} at ({x},{y}) outside the grid")
        sx, sy = self.spawn
        if self.base[sy * self.width + sx] != TILE_FLOOR:
            raise ConfigError("spawn tile is not floor")

    def config_lines(self) -> list[str]:
        """Canonical description of everything that defines this instance."""
        lines = [
            f"type={type(self).__name__}",
            f"frame_skip={self.frame_skip}",
            f"tile_px={self.tile_px}",
            f"time_limit_game_frames={self.time_limit_game_frames}",
            f"key_capacity={self.key_capacity}",
            f"grid={self.width}x{self.height}",
            f"spawn={self.spawn[0]},{self.spawn[1]}",
            f"hazard_policy={self.hazard_policy}",
            f"hazard_penalty={self.hazard_penalty!r}",
            f"treasure_mode={self.treasure_mode}",
            # What render() shows; derived from the rooms, kept in the hash.
            f"render_scope={'grid' if self.rooms is None else 'room'}",
            f"rooms={self.rooms}",
            "tiles=" + bytes(self.base).hex(),
            "keys=" + ";".join(f"{x},{y},{r!r}" for (x, y), r in
                               zip(self.key_positions, self.key_rewards)),
            "doors=" + ";".join(f"{x},{y}" for x, y in self.door_positions),
            "treasures=" + ";".join(f"{x},{y},{v!r}" for (x, y), v in
                                    zip(self.treasure_positions, self.treasure_values)),
        ]
        return lines + [f"{k}={v!r}" for k, v in sorted(self._params.items())]

    # -- geometry ----------------------------------------------------------

    def room_of(self, x: int, y: int) -> int:
        """Room index of a tile inside the grid: a doorway belongs to the
        room left of or above it."""
        if self.rooms is None:
            return 0
        _, cols, w, h = self.rooms
        return (y - 1) // (h + 1) * cols + (x - 1) // (w + 1)

    def room_origin(self, room: int) -> tuple[int, int]:
        """Top-left interior tile of a room."""
        if self.rooms is None:
            return (1, 1)
        rows, cols, w, h = self.rooms
        rr, rc = divmod(room, cols)
        return (rc * (w + 1) + 1, rr * (h + 1) + 1)

    def respawn_point(self, room: int) -> tuple[int, int]:
        """Where hazard contact drops the agent under the respawn policy."""
        if self.rooms is None:
            return self.spawn
        _, _, w, h = self.rooms
        ox, oy = self.room_origin(room)
        return (ox, oy + h // 2)

    # -- dynamics ----------------------------------------------------------

    def _tick(self, state: tuple[int, ...], action: int) -> tuple[tuple[int, ...], float, bool]:
        """The dynamics: the state ``action`` leads to from ``state`` (a
        :meth:`discrete_state` tuple), the step's reward, and whether the
        step kills. Reads the layout and nothing of the dynamic state."""
        x, y, level = state[:3]
        (held, keys, doors, treasures), _ = _counted_runs(state, 3)
        reward = 0.0
        kill = False
        dx, dy = _DELTAS[action]
        if dx or dy:
            nx, ny = x + dx, y + dy
            # Keys and treasures, taken or not, are walked onto like floor,
            # and so is an opened door.
            code = self.base[ny * self.width + nx]
            if code == TILE_WALL:
                pass
            elif code == TILE_DOOR and self._door_at[(nx, ny)] not in doors:
                if held:
                    # Unlocking consumes the frame and the lowest-room key.
                    held = held[1:]
                    doors = tuple(sorted(doors + (self._door_at[(nx, ny)],)))
            else:
                x, y = nx, ny

        code = self.base[y * self.width + x]
        if code == TILE_KEY:
            idx = self._key_at[(x, y)]
            if idx not in keys and len(held) < self.key_capacity:
                keys = tuple(sorted(keys + (idx,)))
                held = tuple(sorted(held + (self.room_of(x, y),)))
                reward += self.key_rewards[idx]
        elif code == TILE_TREASURE:
            idx = self._treasure_at[(x, y)]
            if self.treasure_mode == "level":
                # The next level: the same layout from the spawn tile, every door locked.
                reward += self.treasure_values[idx]
                (x, y), level, held, keys, doors = self.spawn, level + 1, (), (), ()
            elif idx not in treasures:
                treasures = tuple(sorted(treasures + (idx,)))
                reward += self.treasure_values[idx]
        elif code == TILE_HAZARD:
            if self.hazard_policy == "kill":
                kill = True
            else:
                reward += self.hazard_penalty
                x, y = self.respawn_point(self.room_of(x, y))
        return (x, y, level, len(held), *held, len(keys), *keys, len(doors), *doors,
                len(treasures), *treasures), reward, kill

    # -- the transition table ------------------------------------------------

    def _intern(self, state: tuple[int, ...]) -> int:
        """The id of ``state``, giving it the next id and an empty row if
        it is new. A table that already holds ``STATE_TABLE_LIMIT`` states
        is cleared first, in place, so a loop may hold its lists, and the
        current state interned again, so ``state_id`` stays valid."""
        sid = self._ids.get(state)
        if sid is not None:
            return sid
        if len(self._states) >= STATE_TABLE_LIMIT:
            current = self._states[self.state_id]
            for table in (self._states, self._ids, self._next, self._result, self._column):
                table.clear()
            self.state_id = self._intern(current)
        sid = len(self._states)
        self._states.append(state)
        self._ids[state] = sid
        self._next += _EMPTY_ROW
        self._result += _EMPTY_ROW
        self._column.append(None)
        return sid

    def column(self, owner: object) -> list:
        """The column of ``owner``: per id, ``None`` or what ``owner``
        recorded about the id's state. Explore's owner is its mapper, and an
        entry the ``(cell key, room, level)`` that the mapper and
        :meth:`features` give the state; a key is a function of the config
        and the state (see :meth:`render`). A learner's entry is the id of
        the state's Q row, and an evaluated policy's the state's greedy
        action, or -1 where the policy lacks the state. An owner fills an
        entry the first time it meets the id and reads it after that. The
        column is cleared in place with the table, since ids are then
        reused, and emptied when handed an owner other than the one it was
        filled for."""
        if owner is not self._column_owner:
            self._column[:] = [None] * len(self._column)
            self._column_owner = owner
        return self._column

    def _miss(self, sid: int, action: int) -> tuple[int, int, StepResult]:
        """Install state ``sid``, tick ``action``, which its row lacks, and
        fill the entry in. Returns the id of the state left, which a table
        clear changes, the next id and the result (done only if it kills)."""
        self.state_id = sid
        state, reward, kill = self._tick(self._states[sid], action)
        nid = self._intern(state)
        sid = self.state_id
        pair = (reward, kill)
        result = self._results.get(pair)
        if result is None:
            result = self._results[pair] = StepResult(*pair)
        at = sid * ACTION_COUNT + action
        self._next[at] = nid
        self._result[at] = result
        return sid, nid, result

    def _settle(self, sid: int, score: float, frames: int, done: bool) -> None:
        """Install a dynamic state, done if ``done`` or at the time limit."""
        self.state_id = sid
        self._score = score
        self._training_frames = frames
        self._done = done or frames >= self._frame_limit

    @property
    def done(self) -> bool:
        return self._done

    def _require_live(self) -> None:
        if self._done:
            raise ContractError("episode has ended; reset or restore first")

    # The done rule: a step ends the episode when its result is done (the
    # step kills), or when it is the episode's _frame_limit-th training frame.
    # step() applies it per frame, and _settle to a state handed back.
    # explore_from, backward_run and evaluate_policy apply it in their own
    # loops, against the frames left at the start of the rollout
    # (_frame_limit - _training_frames, read once), because a helper called
    # per frame made a whole 1M-frame keydoor explore run 3-7% slower (best
    # of three runs, four alternating trials, Python 3.11, 2-core box).
    def step(self, action: int) -> StepResult:
        self._require_live()
        if not 0 <= action < self.action_count:
            raise ContractError(f"action {action} out of range")
        at = self.state_id * ACTION_COUNT + action
        nid = self._next[at]
        if nid is None:
            _, nid, result = self._miss(self.state_id, action)
        else:
            result = self._result[at]
        self.state_id = nid
        self._training_frames += 1
        self._score += result.reward
        if result.done:
            self._done = True
        elif self._training_frames >= self._frame_limit:
            self._done = True
            return StepResult(result.reward, True)
        return result

    def reset(self, seed: int = 0) -> tuple[Observation, EnvSnapshot]:
        """Install the start state and return its observation and snapshot."""
        del seed  # the engine is deterministic
        self._settle(self._intern(self._start_state), 0.0, 0, False)
        return self._start

    # -- observation -------------------------------------------------------

    def features(self) -> DomainInfo:
        state = self._states[self.state_id]
        x, y = state[0], state[1]
        return DomainInfo(x, y, self.room_of(x, y), state[2], state[4:4 + state[3]])

    def observe(self) -> Observation:
        return Observation(frame=self.render(), features=self.features())

    def render(self) -> np.ndarray:
        """Render the current viewport as a fresh uint8 intensity frame:
        the whole grid, or in a world of rooms the agent's room with its
        walls, cut out of the static shade grid. The keys not taken, the
        doors (locked or opened), the treasures not collected and then the
        agent are painted over it, and each tile is scaled up to
        ``tile_px`` x ``tile_px`` pixels.

        The frame is a pure function of the config (``config_hash``) and
        :meth:`discrete_state`: the viewport and the agent tile come from
        the position, the painted tiles from the taken keys, the opened
        doors and the collected treasures. Explore keeps a downscaled key
        per state id in the column, so a state this method draws must
        be in :meth:`discrete_state` too."""
        state = self._states[self.state_id]
        x, y = state[0], state[1]
        (_, keys, doors, treasures), _ = _counted_runs(state, 3)
        if self.rooms is None:
            x0, y0, x1, y1 = 0, 0, self.width, self.height
        else:
            _, _, w, h = self.rooms
            ox, oy = self.room_origin(self.room_of(x, y))
            x0, y0, x1, y1 = ox - 1, oy - 1, ox + w + 1, oy + h + 1
        tiles = self._shades[y0:y1, x0:x1].copy()
        paint = [(p, SHADE_KEY) for i, p in enumerate(self.key_positions) if i not in keys]
        paint += [(p, SHADE_DOOR_OPEN if i in doors else SHADE_DOOR_LOCKED)
                  for i, p in enumerate(self.door_positions)]
        # Only collect mode takes treasures; a level's treasure stays.
        paint += [(p, SHADE_TREASURE) for i, p in enumerate(self.treasure_positions)
                  if i not in treasures]
        paint.append(((x, y), SHADE_AGENT))
        for (px, py), shade in paint:
            if x0 <= px < x1 and y0 <= py < y1:
                tiles[py - y0, px - x0] = shade
        tp = self.tile_px
        return tiles.repeat(tp, axis=0).repeat(tp, axis=1)

    # -- counters / score --------------------------------------------------

    def frame_counters(self) -> tuple[int, int]:
        """The game frames and the training frames of the episode."""
        return self._training_frames * self.frame_skip, self._training_frames

    @property
    def cum_score(self) -> float:
        return self._score

    # -- snapshot / restore --------------------------------------------------

    def snapshot(self) -> EnvSnapshot:
        state = self._states[self.state_id]
        payload = STATE_HEAD.pack(
            self._score,
            self._training_frames,
            self._training_frames * self.frame_skip,
            1 if self._done else 0,
            state[2],
            state[0],
            state[1],
        ) + struct.pack(f"<{len(state) - 3}H", *state[3:])
        return EnvSnapshot(pack_snapshot(self.config_hash, payload))

    def restore(self, snap: EnvSnapshot) -> None:
        """Install a snapshot's state. Raises :class:`SnapshotFormatError`
        for a payload that breaks an invariant every :meth:`step` keeps in
        this world, so every reader of the state may trust it."""
        payload = unpack_snapshot(snap.state_bytes, self.config_hash)
        score, tf, gf, done, level, x, y = read_state_head(payload)
        n, odd = divmod(len(payload) - STATE_HEAD.size, 2)
        tail = struct.unpack_from(f"<{n}H", payload, STATE_HEAD.size)
        seqs, at = _counted_runs(tail, 0)
        if len(seqs) < 4 or at > n:
            raise SnapshotFormatError("snapshot payload is cut short")
        if at < n or odd:
            raise SnapshotFormatError("snapshot payload has trailing bytes")
        held, keys, doors, treasures = seqs
        if done > 1:
            raise SnapshotFormatError(f"snapshot done flag is {done}, not 0 or 1")
        if gf != tf * self.frame_skip:
            raise SnapshotFormatError(f"snapshot game frames {gf} are not {tf} x frame_skip")
        if not done and tf >= self._frame_limit:
            raise SnapshotFormatError(f"snapshot is live at game frame {gf}, at or past the "
                                      "time limit")
        if not (0 <= x < self.width and 0 <= y < self.height
                and self.base[y * self.width + x] != TILE_WALL):
            raise SnapshotFormatError(f"snapshot position ({x},{y}) is off the grid or a wall")
        if (len(held) > self.key_capacity or held != tuple(sorted(held))
                or (held and held[-1] >= self.n_rooms)):
            raise SnapshotFormatError(f"snapshot holds keys of rooms {held}, which no step does")
        for name, taken, count in (("key", keys, len(self.key_positions)),
                                   ("door", doors, len(self.door_positions)),
                                   ("treasure", treasures, len(self.treasure_positions))):
            if taken and (taken[-1] >= count or taken != tuple(sorted(set(taken)))):
                raise SnapshotFormatError(
                    f"snapshot {name} indices {taken} are not increasing and below {count}")
        if len(held) + len(doors) != len(keys):
            raise SnapshotFormatError("snapshot held keys and opened doors do not add up "
                                      "to the keys taken")
        taken_rooms = [self.room_of(*self.key_positions[k]) for k in keys]
        if any(held.count(room) > taken_rooms.count(room) for room in held):
            raise SnapshotFormatError(f"snapshot holds keys of rooms {held}, not all of them "
                                      "rooms of the keys taken")
        if self.treasure_mode == "level" and self.treasure_positions:
            if treasures:
                raise SnapshotFormatError("snapshot collects treasures that advance levels")
        elif level:
            raise SnapshotFormatError(f"snapshot is at level {level} in a world without levels")
        self._settle(self._intern((x, y, level) + tail), score, tf, bool(done))

    def discrete_state(self) -> tuple[int, ...]:
        """Position, level, then the held key rooms, taken keys, opened
        doors and collected treasures, each a count and then its sorted
        values, as one tuple of ints; the world's interned copy, so states
        repeat as the same object. Two states of one config with equal
        tuples render the same frame (see :meth:`render`)."""
        return self._states[self.state_id]


def _counted_runs(values: tuple[int, ...], at: int) -> tuple[list[tuple[int, ...]], int]:
    """Up to four runs from ``values[at:]``, each a count and then that many
    values, and the index past the last; a run cut short ends early."""
    runs = []
    while len(runs) < 4 and at < len(values):
        end = at + 1 + values[at]
        runs.append(values[at + 1:end])
        at = end
    return runs, at
