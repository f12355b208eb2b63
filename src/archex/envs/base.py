"""Environment value types and snapshot packing shared by the grid worlds.

Frame accounting follows the two-unit convention: a "training frame" is one
agent decision; each decision repeats the chosen action for ``frame_skip``
"game frames" of the underlying dynamics, and reward is summed over the
skipped frames. Counters are kept in both units and ``game_frames ==
training_frames * frame_skip`` always holds, including for snapshots taken
mid-episode.

Stepping computes only what every caller reads: a :class:`StepResult`
carries the reward and the done flag, and a world reads most steps from
its transition table (see ``GridWorld``). The ground-truth features come from
``GridWorld.features`` and a frame from ``GridWorld.render`` (or
``GridWorld.observe``, which does both), so callers that never read
features or pixels never pay for them.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..errors import SnapshotFormatError

SNAPSHOT_MAGIC = b"AXSN"
SNAPSHOT_VERSION = 1
# After the magic: version, config hash, payload length.
_SNAPSHOT_HEADER = struct.Struct("<HQI")
_PAYLOAD_START = len(SNAPSHOT_MAGIC) + _SNAPSHOT_HEADER.size
# A payload starts with the score, training and game frames, done flag,
# level, x and y; the rest of the grid world's discrete state follows.
STATE_HEAD = struct.Struct("<dQQBIii")
_HEAD_COUNTS = struct.Struct("<dQQ")  # the head's score, training and game frames

# Action ids shared by all built-in environments.
ACTION_NOOP = 0
ACTION_UP = 1
ACTION_DOWN = 2
ACTION_LEFT = 3
ACTION_RIGHT = 4
ACTION_COUNT = 5

_DELTAS = {
    ACTION_NOOP: (0, 0),
    ACTION_UP: (0, -1),
    ACTION_DOWN: (0, 1),
    ACTION_LEFT: (-1, 0),
    ACTION_RIGHT: (1, 0),
}


class DomainInfo(NamedTuple):
    """Ground-truth features a frame classifier would extract.

    ``x``/``y`` are the agent position in tile units of the global grid,
    ``room`` the current room index, ``level`` the current layout repetition,
    and ``key_rooms`` the sorted rooms in which currently held keys were
    picked up.
    """

    x: int
    y: int
    room: int
    level: int
    key_rooms: tuple[int, ...]


@dataclass(slots=True)
class Observation:
    frame: np.ndarray  # uint8 grid of intensities, shape fixed per instance
    features: DomainInfo | None


@dataclass(frozen=True, slots=True)
class StepResult:
    """A step's reward and done flag; a world hands the same value out for
    every step with an equal pair."""

    reward: float
    done: bool


@dataclass(frozen=True, slots=True)
class EnvSnapshot:
    """Opaque, byte-exact environment state.

    ``state_bytes`` fully determines the environment and is the snapshot's
    only field: the score and frame counters are read from the payload head
    (:func:`read_counts`), so each fact is stored once. A snapshot comes
    from ``GridWorld.snapshot`` or from a loader that has checked its head.
    """

    state_bytes: bytes

    @property
    def cum_score(self) -> float:
        return read_counts(self.state_bytes)[0]


def frame_limit(time_limit_game_frames: int, frame_skip: int) -> int:
    """A time limit in training frames: the first count whose game frames reach it."""
    return -(-time_limit_game_frames // frame_skip)


def config_hash_from_lines(lines: list[str]) -> int:
    """Hash a canonical key=value description of an environment config."""
    digest = hashlib.sha256("\n".join(lines).encode()).digest()
    return int.from_bytes(digest[:8], "little")


def pack_snapshot(config_hash: int, payload: bytes) -> bytes:
    return (
        SNAPSHOT_MAGIC
        + _SNAPSHOT_HEADER.pack(SNAPSHOT_VERSION, config_hash, len(payload))
        + payload
    )


def peek_config_hash(blob: bytes) -> int:
    """Read the config hash out of a snapshot blob without full parsing."""
    if len(blob) < _PAYLOAD_START or blob[:4] != SNAPSHOT_MAGIC:
        raise SnapshotFormatError("not a snapshot blob")
    return _SNAPSHOT_HEADER.unpack_from(blob, 4)[1]


def unpack_snapshot(blob: bytes, expected_config_hash: int) -> bytes:
    """Validate header and return the payload; raises SnapshotFormatError."""
    if len(blob) < _PAYLOAD_START or blob[:4] != SNAPSHOT_MAGIC:
        raise SnapshotFormatError("not a snapshot blob")
    version, chash, plen = _SNAPSHOT_HEADER.unpack_from(blob, 4)
    if version != SNAPSHOT_VERSION:
        raise SnapshotFormatError(f"snapshot version {version} not supported")
    if chash != expected_config_hash:
        raise SnapshotFormatError(
            "snapshot was taken under a different environment config"
        )
    payload = blob[_PAYLOAD_START:]
    if len(payload) != plen:
        raise SnapshotFormatError("snapshot payload truncated")
    return payload


def read_counts(blob: bytes) -> tuple[float, int, int]:
    """The score, training frames and game frames of a snapshot blob whose
    head its maker or loader has checked."""
    return _HEAD_COUNTS.unpack_from(blob, _PAYLOAD_START)


def read_state_head(payload: bytes) -> tuple[float, int, int, int, int, int, int]:
    """The head of a snapshot payload: score, training frames, game frames,
    done flag, level, x and y; raises SnapshotFormatError if it is cut."""
    try:
        return STATE_HEAD.unpack_from(payload, 0)
    except struct.error as exc:
        raise SnapshotFormatError(f"snapshot payload corrupt: {exc}") from exc
