"""The cell archive: trajectories, records, counters, and checkpoints.

Trajectories are stored as shared-suffix linked lists: extending by one
action allocates a single node and never touches existing nodes, so the total
node count is bounded by the number of exploration actions ever taken.
Archives serialize to a canonical, versioned binary layout (sorted cells,
deduplicated trajectory nodes, trailing checksum) so that equal archives have
equal bytes, and only the bytes the writer would make load: lengths come from
node chains and scores and frame counts from snapshot states, and the body
must be :func:`_layout` of the archive so built (:func:`require_layout`, which
policy checkpoints use too), with its sha256 and snapshot config hashes
right. Checkpoints are streamed to a temporary file, fsynced and renamed over
the target, so a failed write leaves the previous checkpoint intact
(:func:`write_atomic`, which policy checkpoints and every CSV output use too).

Every added key is indexed once (see :meth:`Archive._index`): its encoding,
kept for the canonical key order, and the archive's max level. The archive
owns the neighbor slots of a domain key, which selection weights: the bit
layout of its missing-neighbor masks (:data:`SLOT_KINDS`), the four grid
slots and the more-keys rule. The masks are built on their first read, from
the keys added since the last one, so an archive that is only loaded,
replayed or robustified never builds them.
"""

from __future__ import annotations

import csv
import enum
import hashlib
import io
import os
import struct
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .cells import CellKey, DomainKey, decode_key
from .envs.base import EnvSnapshot, peek_config_hash, read_counts, read_state_head, unpack_snapshot
from .errors import CheckpointError, ConfigError, ContractError, SnapshotFormatError
from .trajectory import Node, Trajectory

CHECKPOINT_MAGIC = b"AXARCH\x00\x01"
CHECKPOINT_VERSION = 1


# Missing-neighbor mask bits: 0 is x-1, 1 is x+1, 2 is y-1, 3 is y+1 (slot
# b's opposite is b ^ 1), and 4 is the more-keys slot: a key at the same
# position whose key multiset strictly extends this one. SLOT_KINDS gives
# each bit's kind, in bit order.
SLOT_KINDS = ("horizontal", "horizontal", "vertical", "vertical", "more_keys")
MORE_KEYS_BIT = 1 << 4


def _grid_slots(key: DomainKey) -> tuple[DomainKey, ...]:
    """The keys of grid slots 0-3, in bit order. Slots outside the world
    are keys like any other; they are never archived."""
    x, y = key.x_bin, key.y_bin
    return (key._replace(x_bin=x - 1), key._replace(x_bin=x + 1),
            key._replace(y_bin=y - 1), key._replace(y_bin=y + 1))


def _has_more_keys(other: DomainKey, key: DomainKey) -> bool:
    """Whether ``other``, a key at ``key``'s position, fills ``key``'s
    more-keys slot."""
    if len(other.key_rooms) <= len(key.key_rooms):
        return False
    have = Counter(other.key_rooms)
    return all(have[r] >= c for r, c in Counter(key.key_rooms).items())


def beats(score: float, traj_len: int, best_score: float, best_len: int) -> bool:
    """The merge rule: a higher score, or an equal score reached sooner."""
    return score > best_score or (score == best_score and traj_len < best_len)


class UpdateOutcome(enum.Enum):
    ADDED = "added"
    IMPROVED = "improved"
    UNCHANGED = "unchanged"


@dataclass(slots=True)
class CellRecord:
    """A cell's best visit and the cell's three counters. The visit is kept
    as the tail node and length of the trajectory to it and the state bytes
    of the snapshot to return to, whose head holds its score; each fact is
    stored once, and :attr:`trajectory` and :attr:`snapshot` are views."""

    tail: Node | None
    traj_len: int
    state_bytes: bytes
    times_seen: int = 1
    times_chosen: int = 0
    times_chosen_since_new: int = 0

    @property
    def score(self) -> float:
        return read_counts(self.state_bytes)[0]

    @property
    def trajectory(self) -> Trajectory:
        return Trajectory(self.tail, self.traj_len)

    @property
    def snapshot(self) -> EnvSnapshot:
        return EnvSnapshot(self.state_bytes)


@dataclass(slots=True)
class RunMeta:
    """Explorer progress stored alongside an archive in checkpoints."""

    seed: int = 0
    iteration: int = 0
    training_frames: int = 0
    game_frames: int = 0
    rooms_seen: frozenset[int] = frozenset()
    max_level_seen: int = 0


class Archive:
    """Map from cell keys to their best known record."""

    def __init__(self, config_hash: int) -> None:
        self.config_hash = config_hash
        self.cells: dict[CellKey, CellRecord] = {}
        self.max_level = 0
        # Bit b set: neighbor slot b of the key is missing from the archive.
        self._missing: dict[DomainKey, int] = {}
        self._pos_index: dict[tuple[int, int, int, int], list[DomainKey]] = {}
        self._unmasked: list[DomainKey] = []  # added since the masks were last read
        self._encoded: dict[CellKey, bytes] = {}
        self._sorted_keys: list[CellKey] = []
        self._unsorted_keys: list[CellKey] = []  # added since the last sorted_keys()

    def __len__(self) -> int:
        return len(self.cells)

    def __contains__(self, key: CellKey) -> bool:
        return key in self.cells

    def record(self, key: CellKey) -> CellRecord:
        try:
            return self.cells[key]
        except KeyError:
            raise ContractError(f"cell {key!r} not in archive") from None

    def sorted_keys(self) -> list[CellKey]:
        """Keys in canonical (encoded-bytes) order; cached between inserts,
        and keys added since the last call are sorted into the cached
        order."""
        if self._unsorted_keys:
            self._sorted_keys = sorted(self._sorted_keys + self._unsorted_keys,
                                       key=self._encoded.__getitem__)
            self._unsorted_keys = []
        return self._sorted_keys

    # -- updates -----------------------------------------------------------

    def insert_or_update(
        self,
        key: CellKey,
        trajectory: Trajectory,
        snapshot: EnvSnapshot,
        visits: int = 1,
    ) -> UpdateOutcome:
        """Count ``visits`` visits to ``key``, of which the candidate (the
        ``trajectory`` and the ``snapshot`` it ends in, which carries its
        score) is the best, and keep the candidate if it wins the merge rule.

        The visits add to the record's ``times_seen``, or set it for an
        added cell. A rollout merges each cell it visited once: the
        candidate is its last winning visit, and a cell none of whose visits
        won only has its ``times_seen`` raised.
        """
        if peek_config_hash(snapshot.state_bytes) != self.config_hash:
            raise ContractError("candidate snapshot from a different env config")
        record = self.cells.get(key)
        if record is None:
            self.cells[key] = CellRecord(trajectory.tail, trajectory.length,
                                         snapshot.state_bytes, visits)
            self._index(key)
            return UpdateOutcome.ADDED
        record.times_seen += visits
        if not beats(snapshot.cum_score, trajectory.length, record.score, record.traj_len):
            return UpdateOutcome.UNCHANGED
        record.tail = trajectory.tail
        record.traj_len = trajectory.length
        record.state_bytes = snapshot.state_bytes
        record.times_chosen = 0
        record.times_chosen_since_new = 0
        return UpdateOutcome.IMPROVED

    def _index(self, key: CellKey) -> None:
        """Index a newly added key: its encoding, and for a domain key the
        max level; its masks wait for :attr:`missing_neighbors`."""
        self._encoded[key] = key.encode()
        self._unsorted_keys.append(key)
        if not isinstance(key, DomainKey):
            return
        if key.level > self.max_level:
            self.max_level = key.level
        self._unmasked.append(key)

    @property
    def missing_neighbors(self) -> dict[DomainKey, int]:
        """The missing-neighbor mask of every domain key."""
        return self._index_neighbors()

    def _index_neighbors(self) -> dict[DomainKey, int]:
        """Index the domain keys added since the masks were last read, in the
        order they were added: the position index gets the key, and the
        masks of the key, of its existing grid neighbors and of the
        same-position keys whose more-keys slot it fills are set. Archives
        only grow, so masks only lose bits."""
        masks = self._missing
        for key in self._unmasked:
            mask = 0
            for bit, slot in enumerate(_grid_slots(key)):
                if slot in masks:
                    masks[slot] &= ~(1 << (bit ^ 1))
                else:
                    mask |= 1 << bit
            pos = (key.x_bin, key.y_bin, key.room, key.level)
            same_pos = self._pos_index.setdefault(pos, [])
            if not any(_has_more_keys(other, key) for other in same_pos):
                mask |= MORE_KEYS_BIT
            for other in same_pos:
                if _has_more_keys(key, other):
                    masks[other] &= ~MORE_KEYS_BIT
            same_pos.append(key)
            masks[key] = mask
        self._unmasked.clear()
        return masks

    def record_chosen(self, key: CellKey) -> None:
        record = self.record(key)
        record.times_chosen += 1
        record.times_chosen_since_new += 1

    def credit_discovery(self, key: CellKey) -> None:
        self.record(key).times_chosen_since_new = 0

    # -- queries -----------------------------------------------------------

    def best_record(
        self, predicate: Callable[[CellKey, CellRecord], bool] | None = None
    ) -> tuple[CellKey, CellRecord]:
        """Highest score, ties to shorter trajectory, then lexicographic key."""
        best: tuple[float, int, bytes, CellKey, CellRecord] | None = None
        for key, record in self.cells.items():
            if predicate is not None and not predicate(key, record):
                continue
            rank = (-record.score, record.traj_len, self._encoded[key])
            if best is None or rank < best[:3]:
                best = (*rank, key, record)
        if best is None:
            raise ContractError("no archive cell matches the filter")
        return best[3], best[4]

    def max_score(self) -> float:
        return max((r.score for r in self.cells.values()), default=0.0)


# -- checkpoint serialization ---------------------------------------------------


# The fixed-size rows of the layout; rooms and snapshot states vary in size.
_HEADER = struct.Struct("<HQQQQQI")  # version, config hash, meta counters, room count
_COUNT = struct.Struct("<Q")  # nodes or cells that follow
_KEY_LEN = struct.Struct("<I")
_NODE_ROW = struct.Struct("<HQ")
_CELL_ROW = struct.Struct("<dQQQQQdQQI")
_CHUNK_ROWS = 1024  # node or cell rows per piece of the streamed layout


def _layout(archive: Archive, meta: RunMeta | None) -> Iterator[bytes]:
    """The canonical checkpoint body, in pieces of at most ``_CHUNK_ROWS``
    rows: header, trajectory nodes (each after its parent, discovered from
    the cells' tails in key order), then cells in key order."""
    meta = meta or RunMeta()
    rooms = sorted(meta.rooms_seen)
    yield CHECKPOINT_MAGIC + _HEADER.pack(
        CHECKPOINT_VERSION,
        archive.config_hash,
        meta.seed,
        meta.iteration,
        meta.training_frames,
        meta.game_frames,
        len(rooms),
    ) + struct.pack(f"<{len(rooms) + 1}I", *rooms, meta.max_level_seen)

    node_ids: dict = {}  # node -> its row; nodes hash by identity
    nodes: list = []
    ordered = archive.sorted_keys()
    for key in ordered:
        stack = []
        node = archive.cells[key].tail
        while node is not None and node not in node_ids:
            stack.append(node)
            node = node.parent
        while stack:
            node = stack.pop()
            node_ids[node] = len(nodes)
            nodes.append(node)
    yield _COUNT.pack(len(nodes))
    pack_node = _NODE_ROW.pack
    for start in range(0, len(nodes), _CHUNK_ROWS):
        yield b"".join(
            pack_node(node.action,
                      0 if node.parent is None else node_ids[node.parent] + 1)
            for node in nodes[start:start + _CHUNK_ROWS]
        )

    yield _COUNT.pack(len(ordered))
    pack_cell = _CELL_ROW.pack
    for start in range(0, len(ordered), _CHUNK_ROWS):
        parts = []
        for key in ordered[start:start + _CHUNK_ROWS]:
            record = archive.cells[key]
            enc = archive._encoded[key]
            tail = record.tail
            state = record.state_bytes
            score, tf, gf = read_counts(state)
            parts.append(_KEY_LEN.pack(len(enc)))
            parts.append(enc)
            parts.append(
                pack_cell(
                    score,
                    record.traj_len,
                    0 if tail is None else node_ids[tail] + 1,
                    record.times_seen,
                    record.times_chosen,
                    record.times_chosen_since_new,
                    score,
                    tf,
                    gf,
                    len(state),
                )
            )
            parts.append(state)
        yield b"".join(parts)


def serialize_archive(archive: Archive, meta: RunMeta | None = None) -> bytes:
    """Canonical bytes for an archive; equal archives serialize equal."""
    body = b"".join(_layout(archive, meta))
    return body + hashlib.sha256(body).digest()


def deserialize_archive(data: bytes) -> tuple[Archive, RunMeta]:
    return _parse_body(_checksummed_body(data, CHECKPOINT_MAGIC, "archive checkpoint"))


def _parse_body(body: bytes) -> tuple[Archive, RunMeta]:
    try:
        return _parse_fields(body)
    except (struct.error, ValueError, IndexError, SnapshotFormatError) as exc:
        raise CheckpointError(f"archive checkpoint is corrupt: {exc}") from exc


def _parse_fields(body: bytes) -> tuple[Archive, RunMeta]:
    """The archive and meta of ``body``; the row columns that copy a chain's
    length or a state's head are not read."""
    offset = len(CHECKPOINT_MAGIC)
    _, config_hash, seed, iteration, tf, gf, n_rooms = _HEADER.unpack_from(body, offset)
    offset += _HEADER.size
    *rooms, max_level_seen = struct.unpack_from(f"<{n_rooms + 1}I", body, offset)
    offset += 4 * (n_rooms + 1)
    meta = RunMeta(seed, iteration, tf, gf, frozenset(rooms), max_level_seen)

    (n_nodes,) = _COUNT.unpack_from(body, offset)
    offset += _COUNT.size
    # Node id i is nodes[i], and id 0 the empty chain. Parents come before
    # their children, so each chain's length is known as it is read.
    nodes: list = [None]
    lengths = [0]
    end = offset + n_nodes * _NODE_ROW.size
    for action, parent_id in _NODE_ROW.iter_unpack(memoryview(body)[offset:end]):
        nodes.append(Node(action, nodes[parent_id]))
        lengths.append(lengths[parent_id] + 1)
    offset = end

    archive = Archive(config_hash)
    (n_cells,) = _COUNT.unpack_from(body, offset)
    offset += _COUNT.size
    for _ in range(n_cells):
        (key_len,) = _KEY_LEN.unpack_from(body, offset)
        offset += _KEY_LEN.size
        key = decode_key(body[offset:offset + key_len])
        offset += key_len
        _, _, tail_id, seen, chosen, since_new, _, _, _, snap_len = _CELL_ROW.unpack_from(
            body, offset)
        offset += _CELL_ROW.size
        state = body[offset:offset + snap_len]
        offset += snap_len
        # The snapshot's score and frame counts are read from its head later,
        # so a state with a cut head or of another config is rejected here.
        read_state_head(unpack_snapshot(state, config_hash))
        if key not in archive.cells:  # a repeated key is indexed once
            archive._index(key)
        archive.cells[key] = CellRecord(nodes[tail_id], lengths[tail_id], state,
                                        seen, chosen, since_new)
    require_layout(body, _layout(archive, meta), "archive checkpoint")
    return archive, meta


def output_dir(path) -> Path:
    """The directory ``path``, created with its parents if missing; a path
    that cannot be a directory raises :class:`ConfigError`."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory {path}: {exc.strerror}") from exc
    return Path(path)


def write_atomic(path, chunks: Iterable[bytes]) -> None:
    """Write the concatenated ``chunks`` to ``path`` atomically: they stream
    into ``<path>.tmp``, the file is fsynced and then renamed over ``path``.
    A write that fails partway leaves ``path`` as it was and removes the
    temporary file."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


def write_checksummed(path, chunks: Iterable[bytes]) -> None:
    """:func:`write_atomic` of the ``chunks`` followed by their sha256, fed
    as they stream so the body is never held in memory."""
    def with_digest() -> Iterator[bytes]:
        digest = hashlib.sha256()
        for chunk in chunks:
            digest.update(chunk)
            yield chunk
        yield digest.digest()

    write_atomic(path, with_digest())


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write ``header`` and ``rows`` as CSV (``\\r\\n`` line ends) with
    :func:`write_atomic`."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(rows)
    write_atomic(path, [text.getvalue().encode()])


def read_checksummed(path, magic: bytes, what: str) -> bytes:
    """The body of a file :func:`write_checksummed` wrote, once its magic
    and sha256 check out; an unreadable or failing file raises
    :class:`CheckpointError`, with ``what`` naming the kind of file."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read {what} {path}: {exc}") from exc
    return _checksummed_body(data, magic, what)


def _checksummed_body(data: bytes, magic: bytes, what: str) -> bytes:
    if len(data) < len(magic) + 32 or data[:len(magic)] != magic:
        raise CheckpointError(f"not a valid {what}")
    body, digest = data[:-32], data[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise CheckpointError(f"{what} is corrupt (checksum mismatch)")
    return body


def require_layout(body: bytes, chunks: Iterable[bytes], what: str) -> None:
    """Raise :class:`CheckpointError` unless the writer's ``chunks`` for what
    was parsed from ``body`` make it up, compared in place as they come."""
    offset = 0
    for chunk in chunks:
        if not body.startswith(chunk, offset):
            break
        offset += len(chunk)
    else:
        if offset == len(body):
            return
    raise CheckpointError(f"{what} is not in the canonical layout")


def checkpoint_save(archive: Archive, path, meta: RunMeta | None = None) -> None:
    """Write :func:`serialize_archive`'s bytes to ``path`` with
    :func:`write_checksummed`."""
    write_checksummed(path, _layout(archive, meta))


def checkpoint_load(path, expected_config_hash: int | None = None) -> tuple[Archive, RunMeta]:
    archive, meta = _parse_body(read_checksummed(path, CHECKPOINT_MAGIC, "archive checkpoint"))
    if expected_config_hash is not None and archive.config_hash != expected_config_hash:
        raise CheckpointError("archive checkpoint is from a different env config")
    return archive, meta
