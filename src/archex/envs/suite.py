"""The synthetic hard-exploration suite: TwoMaze, KeyDoorWorld, DeceptiveCorridor.

All three are deliberately small worlds with the structural properties that
make exploration hard at scale: TwoMaze has two long disjoint corridors
leaving the start (losing a frontier is irreversible for from-start search),
KeyDoorWorld chains rooms, keys, locked doors and lethal hazards in front of
a sparse reward that repeats over levels, and DeceptiveCorridor punishes
movement with small negative rewards long before its large positive ones.
"""

from __future__ import annotations

import math

from ..errors import ConfigError
from .gridworld import GridWorld, TILE_FLOOR, TILE_HAZARD, TILE_KEY, TILE_TREASURE


def _require_finite(setting: str, value: float) -> None:
    if not math.isfinite(value):
        raise ConfigError(f"{setting} must be finite, got {value!r}")


class TwoMaze(GridWorld):
    """Two mirrored serpentine corridors joined only at the start tile.

    The agent spawns between the two mazes; each arm is ``arm_rows`` corridor
    rows of ``arm_cols`` tiles connected by alternating end connectors.
    Reward-free; the episode ends only at the time limit.
    """

    def __init__(
        self,
        *,
        arm_rows: int = 5,
        arm_cols: int = 12,
        frame_skip: int = 4,
        time_limit_game_frames: int = 400_000,
    ) -> None:
        super().__init__(frame_skip=frame_skip, time_limit_game_frames=time_limit_game_frames)
        if arm_rows < 1 or arm_cols < 2:
            raise ConfigError("TwoMaze needs arm_rows >= 1 and arm_cols >= 2")
        self.arm_rows = arm_rows
        self.arm_cols = arm_cols
        self._wall_grid(2 * arm_cols + 3, 2 * arm_rows + 1, "arm_rows and arm_cols")

        right0 = arm_cols + 2  # first column of the right arm
        for i in range(arm_rows):
            y = 1 + 2 * i
            for dx in range(arm_cols):
                self._carve(1 + dx, y)
                self._carve(right0 + dx, y)
        for i in range(arm_rows - 1):
            y = 2 + 2 * i
            left_x = 1 if i % 2 == 0 else arm_cols
            right_x = (self.width - 2) if i % 2 == 0 else right0
            self._carve(left_x, y)
            self._carve(right_x, y)
        self.spawn = (arm_cols + 1, 1)
        self._carve(*self.spawn)
        self._build()

    def _carve(self, x: int, y: int) -> None:
        self.base[y * self.width + x] = TILE_FLOOR

    def config_lines(self) -> list[str]:
        # Not ``_params``: sorting these two lines would change every TwoMaze
        # config hash.
        return super().config_lines() + [
            f"arm_rows={self.arm_rows}",
            f"arm_cols={self.arm_cols}",
        ]


class KeyDoorWorld(GridWorld):
    """A grid of rooms with keys, locked doors, lethal hazards, and a treasure.

    Touching a hazard ends the episode (the loss-of-life analog) unless the
    episode-end policy is set to ``respawn``. Stepping onto the treasure pays
    its reward and advances to the next level: the same layout with keys and
    doors restored and the agent back at the spawn, score carried over.
    """

    DEFAULT_KEYS = ((5, 6, 1), (18, 1, 4))
    DEFAULT_DOORS = ((17, 23), (22, 23))
    DEFAULT_HAZARDS = ((7, 2, 1), (9, 5, 4), (14, 2, 4), (16, 5, 1), (21, 3, 2))

    def __init__(
        self,
        *,
        rooms_rows: int = 4,
        rooms_cols: int = 6,
        room_w: int = 8,
        room_h: int = 6,
        keys: tuple[tuple[int, int, int], ...] = DEFAULT_KEYS,
        key_reward: float = 100.0,
        locked_doors: tuple[tuple[int, int], ...] = DEFAULT_DOORS,
        hazards: tuple[tuple[int, int, int], ...] = DEFAULT_HAZARDS,
        treasure_reward: float = 1000.0,
        treasure_room: int | None = None,
        hazard_policy: str = "kill",
        key_capacity: int = 4,
        frame_skip: int = 4,
        time_limit_game_frames: int = 400_000,
    ) -> None:
        super().__init__(
            frame_skip=frame_skip,
            time_limit_game_frames=time_limit_game_frames,
            key_capacity=key_capacity,
        )
        if rooms_rows < 1 or rooms_cols < 1:
            raise ConfigError("room grid must be at least 1x1")
        if room_w < 3 or room_h < 3:
            raise ConfigError("room interior must be at least 3x3")
        if hazard_policy not in ("kill", "respawn"):
            raise ConfigError(f"unknown hazard_policy {hazard_policy!r}")
        _require_finite("key_reward", key_reward)
        _require_finite("treasure_reward", treasure_reward)
        self.hazard_policy = hazard_policy
        locked = {tuple(sorted(d)) for d in locked_doors}
        for pair in locked:
            if not self._adjacent(*pair, rooms_rows, rooms_cols):
                raise ConfigError(f"locked door {pair} does not join adjacent rooms")
        self._lay_out_rooms(rooms_rows, rooms_cols, room_w, room_h, locked,
                            "rooms_rows, rooms_cols, room_w and room_h")
        ox, oy = self.room_origin(0)
        self.spawn = (ox + room_w // 2, oy + room_h // 2)

        for room, lx, ly in keys:
            self._place(room, lx, ly, TILE_KEY)
            self.key_positions.append(self._global(room, lx, ly))
            self.key_rewards.append(key_reward)
        for room, lx, ly in hazards:
            self._place(room, lx, ly, TILE_HAZARD)

        if treasure_room is None:
            treasure_room = self.n_rooms - 1
        self._place(treasure_room, room_w // 2, room_h // 2, TILE_TREASURE)
        self.treasure_positions.append(
            self._global(treasure_room, room_w // 2, room_h // 2)
        )
        self.treasure_values.append(treasure_reward)

        self._params = dict(
            keys=tuple(keys),
            key_reward=key_reward,
            locked_doors=tuple(sorted(locked)),
            hazards=tuple(hazards),
            treasure_reward=treasure_reward,
            treasure_room=treasure_room,
        )
        self._build()

    @staticmethod
    def _adjacent(a: int, b: int, rows: int, cols: int) -> bool:
        ra, ca = divmod(a, cols)
        rb, cb = divmod(b, cols)
        if not (0 <= ra < rows and 0 <= rb < rows):
            return False
        return abs(ra - rb) + abs(ca - cb) == 1

    def _global(self, room: int, lx: int, ly: int) -> tuple[int, int]:
        _, _, w, h = self.rooms
        if not (0 <= lx < w and 0 <= ly < h):
            raise ConfigError(f"tile ({lx},{ly}) outside room interior {w}x{h}")
        ox, oy = self.room_origin(room)
        return (ox + lx, oy + ly)

    def _place(self, room: int, lx: int, ly: int, tile: int) -> None:
        if not 0 <= room < self.n_rooms:
            raise ConfigError(f"room {room} out of range")
        x, y = self._global(room, lx, ly)
        if self.base[y * self.width + x] != TILE_FLOOR:
            raise ConfigError(f"tile ({x},{y}) already occupied")
        if (x, y) == self.spawn:
            raise ConfigError("cannot place on the spawn tile")
        self.base[y * self.width + x] = tile


class DeceptiveCorridor(GridWorld):
    """A long room chain where motion costs points and riches sit far right.

    Every room has a hazard line with a single gap; touching a hazard costs
    ``hazard_penalty`` and teleports the agent back to the room's left edge.
    One-shot treasures are placed deep in the chain. Episodes end only at
    the time limit.
    """

    DEFAULT_TREASURES = ((3, 2000.0), (6, 2500.0), (9, 3500.0), (11, 5000.0))

    def __init__(
        self,
        *,
        n_rooms: int = 12,
        room_w: int = 10,
        room_h: int = 7,
        treasures: tuple[tuple[int, float], ...] = DEFAULT_TREASURES,
        hazard_penalty: float = -1.0,
        frame_skip: int = 4,
        time_limit_game_frames: int = 400_000,
    ) -> None:
        super().__init__(frame_skip=frame_skip, time_limit_game_frames=time_limit_game_frames)
        if n_rooms < 2:
            raise ConfigError("DeceptiveCorridor needs at least 2 rooms")
        if room_w < 5 or room_h < 3:
            raise ConfigError("room interior must be at least 5x3")
        _require_finite("hazard_penalty", hazard_penalty)
        self.hazard_policy = "respawn"
        self.hazard_penalty = hazard_penalty
        self.treasure_mode = "collect"
        self._lay_out_rooms(1, n_rooms, room_w, room_h, set(), "n_rooms, room_w and room_h")
        # One hazard line per room with a single gap at a per-room height.
        for room in range(n_rooms):
            ox, oy = self.room_origin(room)
            hx = ox + room_w // 2
            gap = (2 + 3 * room) % room_h
            for dy in range(room_h):
                if dy != gap:
                    self.base[(oy + dy) * self.width + hx] = TILE_HAZARD

        treasure_rooms = set()
        for room, value in treasures:
            if not 0 < room < n_rooms:
                raise ConfigError(f"treasure room {room} out of range (room 0 reserved)")
            if room in treasure_rooms:
                raise ConfigError(f"two treasures in room {room}")
            _require_finite("treasures", value)
            treasure_rooms.add(room)
            ox, oy = self.room_origin(room)
            pos = (ox + room_w - 1, oy + room_h // 2)
            self.base[pos[1] * self.width + pos[0]] = TILE_TREASURE
            self.treasure_positions.append(pos)
            self.treasure_values.append(float(value))

        self.spawn = self.respawn_point(0)
        self._params = dict(treasures=tuple(treasures))
        self._build()
