"""The cell archive: cells as columns, trajectories, counters, and checkpoints.

Each cell gets a dense id when it is added, and every fact about it sits in
a column indexed by that id: its key and the key's encoding, the best
visit (the tail node and length of the trajectory to it, the state bytes
of the snapshot to return to, and that snapshot's score), the three
counters, the key's level and its missing-neighbor mask. Objects (keys,
encodings, tail nodes, states) sit in lists and numbers in
:class:`array.array` columns: explore reads scores and lengths one at a
time, and selection copies the counters, levels and masks whole into
numpy, which also adds to the counters in place. Only this module writes
the columns. A :class:`CellRecord` is a read-only view of one cell, and
:attr:`Archive.cells` maps keys to them.

Selection, explore and the counter writers pass cell ids, which follow the
order cells were added (a loaded archive's, key order): an id belongs to one
archive object. The canonical key order (by encoding) is kept once, as the
id array :meth:`Archive.sorted_ids`; a key is encoded once, when it is
added, and its id placed by a binary search (:meth:`Archive._place_added`).

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

The archive owns the neighbor slots of a domain key, which selection
weights: the bit layout of its missing-neighbor masks (:data:`SLOT_KINDS`),
the four grid slots and the more-keys rule. The masks are built on their
first read, from the keys added since the last one, so an archive that is
only loaded, replayed or robustified never builds them.
"""

from __future__ import annotations

import csv
import enum
import hashlib
import io
import os
import struct
from array import array
from bisect import bisect_left
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

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


def _grid_slots(key: DomainKey) -> tuple[tuple, ...]:
    """The keys of grid slots 0-3, in bit order, as plain tuples: a tuple
    equals, and hashes as, the :class:`DomainKey` of the same fields. Slots
    outside the world are keys like any other; they are never archived."""
    x, y, room, level, rooms = key
    return ((x - 1, y, room, level, rooms), (x + 1, y, room, level, rooms),
            (x, y - 1, room, level, rooms), (x, y + 1, room, level, rooms))


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


class CellRecord:
    """A read-only view of one archived cell, read from the archive's
    columns as they stand: the cell's best visit (the tail node and length
    of the trajectory to it, and the state bytes of the snapshot to return
    to, whose head holds its score) and its three counters.
    :attr:`trajectory` and :attr:`snapshot` wrap the visit's columns."""

    __slots__ = ("_archive", "_id")

    def __init__(self, archive: Archive, cell_id: int) -> None:
        self._archive = archive
        self._id = cell_id

    @property
    def tail(self) -> Node | None:
        return self._archive._tails[self._id]

    @property
    def traj_len(self) -> int:
        return self._archive._lengths[self._id]

    @property
    def state_bytes(self) -> bytes:
        return self._archive._state_bytes[self._id]

    @property
    def score(self) -> float:
        return self._archive._scores[self._id]

    @property
    def times_seen(self) -> int:
        return self._archive._seen[self._id]

    @property
    def times_chosen(self) -> int:
        return self._archive._chosen[self._id]

    @property
    def times_chosen_since_new(self) -> int:
        return self._archive._since_new[self._id]

    @property
    def trajectory(self) -> Trajectory:
        return Trajectory(self.tail, self.traj_len)

    @property
    def snapshot(self) -> EnvSnapshot:
        return EnvSnapshot(self.state_bytes)


class _Cells(Mapping):
    """An archive's cells as a read-only mapping from key to
    :class:`CellRecord`, in the order they were added."""

    __slots__ = ("_archive",)

    def __init__(self, archive: Archive) -> None:
        self._archive = archive

    def __getitem__(self, key: CellKey) -> CellRecord:
        return CellRecord(self._archive, self._archive._cell_ids[key])

    def __iter__(self) -> Iterator[CellKey]:
        return iter(self._archive._cell_ids)

    def __len__(self) -> int:
        return len(self._archive._cell_ids)

    def __contains__(self, key: object) -> bool:
        return key in self._archive._cell_ids


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
    """Map from cell keys to their best known record, held as columns
    indexed by cell id (see the module docstring)."""

    def __init__(self, config_hash: int) -> None:
        self.config_hash = config_hash
        self.max_level = 0
        self._cell_ids: dict[CellKey, int] = {}
        self._keys: list[CellKey] = []
        self._encoded: list[bytes] = []
        # The best visit.
        self._tails: list[Node | None] = []
        self._lengths = array("q")
        self._state_bytes: list[bytes] = []
        self._scores = array("d")
        # The counters, the level and the missing-neighbor mask (bit b set:
        # neighbor slot b is missing). A level is stored as its index into
        # the distinct levels in the order they were first added; -1 stands
        # for a key without a level.
        self._seen = array("Q")
        self._chosen = array("Q")
        self._since_new = array("Q")
        self._level_slots = array("I")
        self._distinct_levels: list[int] = []
        self._level_slot: dict[int, int] = {}
        self._masks = array("B")
        self._pos_index: dict[tuple[int, int, int, int], list[int]] = {}
        self._unmasked: list[int] = []  # domain ids added since the masks were last read
        # Ids in canonical key order, and the ids added since they were last
        # placed in it.
        self._order = np.empty(0, np.intp)
        self._unsorted: list[int] = []

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: CellKey) -> bool:
        return key in self._cell_ids

    @property
    def cells(self) -> Mapping[CellKey, CellRecord]:
        """Every cell's record by key, in the order the cells were added."""
        return _Cells(self)

    def id_of(self, key: CellKey) -> int:
        """The id of archived ``key``."""
        try:
            return self._cell_ids[key]
        except KeyError:
            raise ContractError(f"cell {key!r} not in archive") from None

    def record(self, key: CellKey) -> CellRecord:
        return CellRecord(self, self.id_of(key))

    # -- canonical order ------------------------------------------------------

    def sorted_keys(self) -> list[CellKey]:
        """Keys in canonical (encoded-bytes) order, as a new list."""
        return [self._keys[i] for i in self.sorted_ids().tolist()]

    def sorted_ids(self) -> np.ndarray:
        """Cell ids in canonical key order. An array once returned is not
        changed: ids added later are placed into a new one."""
        self._place_added()
        return self._order

    def find_encoded(self, encoded: bytes) -> CellKey | None:
        """The key whose encoding is ``encoded``, by binary search over the
        canonical order, or ``None`` if no archived key has it."""
        order = self.sorted_ids()
        at = bisect_left(order, encoded, key=self._encoded.__getitem__)
        if at < len(order) and self._encoded[order[at]] == encoded:
            return self._keys[order[at]]
        return None

    def _place_added(self) -> None:
        """Place the ids added since the last call into the canonical order,
        each by a binary search on its encoding among the ids placed before."""
        if not self._unsorted:
            return
        encoded = self._encoded.__getitem__
        added = sorted(self._unsorted, key=encoded)
        self._unsorted = []
        at = [bisect_left(self._order, encoded(i), key=encoded) for i in added]
        self._order = np.insert(self._order, at, added)

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
        won only has its ``times_seen`` raised (:meth:`count_visits`).
        """
        state = snapshot.state_bytes
        if peek_config_hash(state) != self.config_hash:
            raise ContractError("candidate snapshot from a different env config")
        score = read_counts(state)[0]
        i = self._cell_ids.get(key)
        if i is None:
            self._add(key, trajectory.tail, trajectory.length, state, score, visits, 0, 0)
            return UpdateOutcome.ADDED
        self._seen[i] += visits
        if not beats(score, trajectory.length, self._scores[i], self._lengths[i]):
            return UpdateOutcome.UNCHANGED
        self._tails[i] = trajectory.tail
        self._lengths[i] = trajectory.length
        self._state_bytes[i] = state
        self._scores[i] = score
        self._chosen[i] = self._since_new[i] = 0
        return UpdateOutcome.IMPROVED

    def _add(self, key: CellKey, tail: Node | None, length: int, state: bytes, score: float,
             seen: int, chosen: int, since_new: int) -> None:
        """Give ``key`` the next id, fill its columns and index it once: its
        encoding, queued for the canonical order, and for a domain key its
        level, the max level and a mask queued for :attr:`missing_neighbors`."""
        i = self._cell_ids[key] = len(self._keys)
        self._keys.append(key)
        self._encoded.append(key.encode())
        self._unsorted.append(i)
        self._tails.append(tail)
        self._lengths.append(length)
        self._state_bytes.append(state)
        self._scores.append(score)
        self._seen.append(seen)
        self._chosen.append(chosen)
        self._since_new.append(since_new)
        self._masks.append(0)
        level = key.level if isinstance(key, DomainKey) else -1
        slot = self._level_slot.get(level)
        if slot is None:
            slot = self._level_slot[level] = len(self._distinct_levels)
            self._distinct_levels.append(level)
        self._level_slots.append(slot)
        if level < 0:
            return
        if level > self.max_level:
            self.max_level = level
        self._unmasked.append(i)

    def record_chosen(self, ids: Sequence[int]) -> None:
        """Count a choice of each cell id of ``ids`` (a repeated id once per
        repeat) in its ``times_chosen`` and ``times_chosen_since_new``."""
        ids = np.array(ids, np.intp)
        if len(ids) and not 0 <= ids.min() <= ids.max() < len(self._keys):
            raise ContractError(f"cell id outside [0, {len(self._keys)})")
        np.add.at(np.frombuffer(self._chosen, np.uint64), ids, 1)
        np.add.at(np.frombuffer(self._since_new, np.uint64), ids, 1)

    def count_visits(self, ids: Sequence[int], visits: Sequence[int]) -> None:
        """Add ``visits[j]`` to the ``times_seen`` of cell id ``ids[j]``, for
        every j (a repeated id adds each time)."""
        np.add.at(np.frombuffer(self._seen, np.uint64), np.array(ids, np.intp),
                  np.array(visits, np.uint64))

    def credit_discovery(self, cell_id: int) -> None:
        """Reset the ``times_chosen_since_new`` of cell id ``cell_id``."""
        if not 0 <= cell_id < len(self._keys):  # a column would take -1 as its last cell
            raise ContractError(f"cell id outside [0, {len(self._keys)})")
        self._since_new[cell_id] = 0

    # -- columns selection reads ------------------------------------------
    # Copies, not views: an array column cannot grow while a numpy view of
    # it lives, and a caller may hold what these return.

    def counters(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Copies of ``times_chosen``, ``times_chosen_since_new`` and
        ``times_seen`` by id."""
        return (np.array(self._chosen, np.uint64), np.array(self._since_new, np.uint64),
                np.array(self._seen, np.uint64))

    def levels(self) -> tuple[list[int], np.ndarray]:
        """The distinct levels of the keys (-1 for a key without one), and
        a copy of every key's index into them by id."""
        return list(self._distinct_levels), np.array(self._level_slots, np.uint32)

    def missing_masks(self) -> np.ndarray:
        """A copy of the missing-neighbor mask of every key by id, 0 for a key
        that is not a domain key."""
        self._index_neighbors()
        return np.array(self._masks, np.intp)

    @property
    def missing_neighbors(self) -> dict[DomainKey, int]:
        """The missing-neighbor mask of every domain key."""
        self._index_neighbors()
        return {key: self._masks[i] for key, i in self._cell_ids.items()
                if isinstance(key, DomainKey)}

    def _index_neighbors(self) -> None:
        """Index the domain keys added since the masks were last read, in the
        order they were added: the position index gets the key, and the
        masks of the key, of its archived grid neighbors and of the
        same-position keys whose more-keys slot it fills are set. Archives
        only grow, so masks only lose bits."""
        masks, ids, keys = self._masks, self._cell_ids, self._keys
        for i in self._unmasked:
            key = keys[i]
            mask = 0
            for bit, slot in enumerate(_grid_slots(key)):
                j = ids.get(slot)
                if j is None:
                    mask |= 1 << bit
                elif j < i:  # a key added later sets its own mask
                    masks[j] &= ~(1 << (bit ^ 1))
            same_pos = self._pos_index.setdefault(key[:4], [])
            if not any(_has_more_keys(keys[j], key) for j in same_pos):
                mask |= MORE_KEYS_BIT
            for j in same_pos:
                if _has_more_keys(key, keys[j]):
                    masks[j] &= ~MORE_KEYS_BIT
            same_pos.append(i)
            masks[i] = mask
        self._unmasked.clear()

    # -- queries -----------------------------------------------------------

    def best_record(
        self, predicate: Callable[[CellKey, CellRecord], bool] | None = None
    ) -> tuple[CellKey, CellRecord]:
        """Highest score, ties to shorter trajectory, then lexicographic key."""
        best: tuple[float, int, bytes, int] | None = None
        scores, lengths, encoded = self._scores, self._lengths, self._encoded
        for i, key in enumerate(self._keys):
            if predicate is not None and not predicate(key, CellRecord(self, i)):
                continue
            rank = (-scores[i], lengths[i], encoded[i])
            if best is None or rank < best[:3]:
                best = (*rank, i)
        if best is None:
            raise ContractError("no archive cell matches the filter")
        return self._keys[best[3]], CellRecord(self, best[3])

    def max_score(self) -> float:
        return max(self._scores, default=0.0)


# -- checkpoint serialization ---------------------------------------------------


# The fixed-size rows of the layout; rooms and snapshot states vary in size.
_HEADER = struct.Struct("<HQQQQQI")  # version, config hash, meta counters, room count
_COUNT = struct.Struct("<Q")  # nodes or cells that follow
_KEY_LEN = struct.Struct("<I")
_NODE_ROW = struct.Struct("<HQ")
_CELL_ROW = struct.Struct("<dQQQQQdQQI")
# _CELL_ROW's fields, for reading all of a checkpoint's rows at once; the
# last is the length of the state that follows the row.
_CELL_FIELDS = np.dtype([("score", "<f8"), ("traj_len", "<u8"), ("tail", "<u8"),
                         ("seen", "<u8"), ("chosen", "<u8"), ("since_new", "<u8"),
                         ("head_score", "<f8"), ("training_frames", "<u8"),
                         ("game_frames", "<u8"), ("state_len", "<u4")])
_STATE_LEN = struct.Struct("<I")
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
    ordered = archive.sorted_ids().tolist()
    tails = archive._tails
    for i in ordered:
        stack = []
        node = tails[i]
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
    encoded, lengths, states = archive._encoded, archive._lengths, archive._state_bytes
    seen, chosen, since_new = archive._seen, archive._chosen, archive._since_new
    for start in range(0, len(ordered), _CHUNK_ROWS):
        parts = []
        for i in ordered[start:start + _CHUNK_ROWS]:
            enc = encoded[i]
            tail = tails[i]
            state = states[i]
            score, tf, gf = read_counts(state)
            parts.append(_KEY_LEN.pack(len(enc)))
            parts.append(enc)
            parts.append(
                pack_cell(
                    score,
                    lengths[i],
                    0 if tail is None else node_ids[tail] + 1,
                    seen[i],
                    chosen[i],
                    since_new[i],
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
    """The archive and meta of ``body``. One pass over the cells finds each
    key, row and state, and checks each state's head; the rows are then
    read all at once, and the row columns that copy a chain's length or a
    state's head are not read."""
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

    (n_cells,) = _COUNT.unpack_from(body, offset)
    offset += _COUNT.size
    keys, rows, states, scores = [], [], [], []
    state_len_at = _CELL_ROW.size - _STATE_LEN.size
    for _ in range(n_cells):
        (key_len,) = _KEY_LEN.unpack_from(body, offset)
        offset += _KEY_LEN.size
        keys.append(decode_key(body[offset:offset + key_len]))
        offset += key_len
        (state_len,) = _STATE_LEN.unpack_from(body, offset + state_len_at)
        rows.append(body[offset:offset + _CELL_ROW.size])
        offset += _CELL_ROW.size
        state = body[offset:offset + state_len]
        offset += state_len
        # A state with a cut head or of another config is rejected here.
        scores.append(read_state_head(unpack_snapshot(state, config_hash))[0])
        states.append(state)
    if len(set(keys)) != len(keys):  # the writer writes each key once
        raise CheckpointError("archive checkpoint is not in the canonical layout")
    row = np.frombuffer(b"".join(rows), _CELL_FIELDS)
    archive = Archive(config_hash)
    for key, tail_id, state, score, seen, chosen, since_new in zip(
            keys, row["tail"].tolist(), states, scores, row["seen"].tolist(),
            row["chosen"].tolist(), row["since_new"].tolist()):
        archive._add(key, nodes[tail_id], lengths[tail_id], state, score, seen, chosen, since_new)
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
