"""Archive semantics: trajectories, update rules, counters, checkpoints."""

import gc
import hashlib
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from archex.archive import (
    MORE_KEYS_BIT,
    Archive,
    UpdateOutcome,
    checkpoint_load,
    checkpoint_save,
    deserialize_archive,
    serialize_archive,
    write_csv,
)
from archex.cells import DomainKey, domain_mapper
from archex.errors import CheckpointError, ContractError
from archex.explore import ExploreConfig, replay_record, run_phase1
from archex.robustify import PolicyCheckpoint, load_policy, save_policy
from archex.selection import SelectionConfig
from archex.trajectory import Trajectory

from conftest import scored, small_keydoor, small_twomaze
from oracle import extend


def key(x=0, y=0, room=0, level=0, key_rooms=()):
    return DomainKey(x, y, room, level, tuple(key_rooms))


@pytest.fixture
def env():
    return small_twomaze()


@pytest.fixture
def snap(env):
    return env.reset(0)[1]


def fresh_archive(env):
    return Archive(env.config_hash)


def traj_of(*actions):
    t = Trajectory()
    for a in actions:
        t = extend(t, a)
    return t


# -- trajectory ------------------------------------------------------------------


def test_trajectory_extension_shares_nodes():
    base = traj_of(1, 2, 3)
    left = extend(base, 4)
    right = extend(base, 0)
    assert left.actions() == [1, 2, 3, 4]
    assert right.actions() == [1, 2, 3, 0]
    assert base.actions() == [1, 2, 3]
    assert left.tail.parent is right.tail.parent is base.tail


def test_trajectory_empty():
    assert Trajectory().actions() == []
    assert Trajectory().length == 0


def test_trajectory_extension_is_constant_allocation():
    t = traj_of(*range(5))
    t2 = extend(t, 9)
    # one new node, everything else shared
    assert t2.tail.parent is t.tail
    assert t2.length == t.length + 1


# -- insert / update ---------------------------------------------------------------


def test_insert_absent_added(env, snap):
    archive = fresh_archive(env)
    outcome = archive.insert_or_update(key(), Trajectory(), snap)
    record = archive.record(key())
    assert outcome is UpdateOutcome.ADDED
    assert (record.times_seen, record.times_chosen, record.times_chosen_since_new) == (1, 0, 0)


def test_higher_score_improves_and_resets_chosen(env, snap):
    archive = fresh_archive(env)
    archive.insert_or_update(key(), traj_of(1), scored(snap, 5.0))
    archive.record_chosen(key())
    archive.record_chosen(key())
    outcome = archive.insert_or_update(key(), traj_of(1, 2), scored(snap, 9.0))
    record = archive.record(key())
    assert outcome is UpdateOutcome.IMPROVED
    assert record.score == 9.0 and record.traj_len == 2
    assert record.times_chosen == 0 and record.times_chosen_since_new == 0
    assert record.times_seen == 2  # visit counting survives improvement


def test_equal_score_shorter_improves(env, snap):
    archive = fresh_archive(env)
    archive.insert_or_update(key(), traj_of(1, 2, 3), scored(snap, 5.0))
    outcome = archive.insert_or_update(key(), traj_of(1, 2), scored(snap, 5.0))
    assert outcome is UpdateOutcome.IMPROVED
    assert archive.record(key()).traj_len == 2


def test_equal_score_longer_unchanged(env, snap):
    archive = fresh_archive(env)
    archive.insert_or_update(key(), traj_of(1), scored(snap, 5.0))
    outcome = archive.insert_or_update(key(), traj_of(1, 2, 3), scored(snap, 5.0))
    record = archive.record(key())
    assert outcome is UpdateOutcome.UNCHANGED
    assert record.traj_len == 1
    assert record.times_seen == 2


def test_equal_score_equal_length_keeps_incumbent(env, snap):
    archive = fresh_archive(env)
    first = traj_of(1)
    archive.insert_or_update(key(), first, scored(snap, 5.0))
    archive.insert_or_update(key(), traj_of(2), scored(snap, 5.0))
    assert archive.record(key()).tail is first.tail


def test_lower_score_unchanged(env, snap):
    archive = fresh_archive(env)
    archive.insert_or_update(key(), traj_of(1), scored(snap, 5.0))
    outcome = archive.insert_or_update(key(), traj_of(2), scored(snap, 3.0))
    assert outcome is UpdateOutcome.UNCHANGED


def test_candidate_config_mismatch_rejected(env, snap):
    other = small_keydoor()
    archive = fresh_archive(other)
    with pytest.raises(ContractError):
        archive.insert_or_update(key(), Trajectory(), snap)


def test_visit_count_adds_to_times_seen(env, snap):
    """A merge counts all of one rollout's visits to a cell at once: they
    set ``times_seen`` of an added cell and add to it otherwise, whether the
    candidate wins or loses."""
    archive = fresh_archive(env)
    outcome = archive.insert_or_update(key(), traj_of(1), scored(snap, 5.0), 4)
    assert outcome is UpdateOutcome.ADDED
    record = archive.record(key())
    assert record.times_seen == 4
    loser = traj_of(1, 2)
    outcome = archive.insert_or_update(key(), loser, scored(snap, 5.0), 3)
    assert outcome is UpdateOutcome.UNCHANGED
    assert (record.times_seen, record.traj_len) == (7, 1)
    archive.record_chosen(key())
    outcome = archive.insert_or_update(key(), traj_of(2), scored(snap, 6.0), 2)
    assert outcome is UpdateOutcome.IMPROVED
    assert (record.times_seen, record.score, record.times_chosen) == (9, 6.0, 0)


# -- counters ------------------------------------------------------------------------


def test_record_chosen_counts(env, snap):
    archive = fresh_archive(env)
    archive.insert_or_update(key(), Trajectory(), snap)
    archive.record_chosen(key())
    record = archive.record(key())
    assert (record.times_chosen, record.times_chosen_since_new) == (1, 1)
    archive.record_chosen(key())
    assert (record.times_chosen, record.times_chosen_since_new) == (2, 2)


def test_chosen_credited_chosen(env, snap):
    """chosen, credited with a discovery, chosen again -> (2, 1)."""
    archive = fresh_archive(env)
    archive.insert_or_update(key(), Trajectory(), snap)
    archive.record_chosen(key())
    archive.credit_discovery(key())
    archive.record_chosen(key())
    record = archive.record(key())
    assert (record.times_chosen, record.times_chosen_since_new) == (2, 1)


def test_credit_discovery_idempotent(env, snap):
    archive = fresh_archive(env)
    archive.insert_or_update(key(), Trajectory(), snap)
    archive.credit_discovery(key())
    archive.credit_discovery(key())
    assert archive.record(key()).times_chosen_since_new == 0


def test_counter_ops_on_absent_key(env):
    archive = fresh_archive(env)
    with pytest.raises(ContractError):
        archive.record_chosen(key())
    with pytest.raises(ContractError):
        archive.credit_discovery(key())


@settings(max_examples=50, deadline=None)
@given(ops=st.lists(st.tuples(st.floats(0, 100), st.integers(1, 20)), min_size=1, max_size=30))
def test_monotone_score_and_length(ops):
    """Per-key score never decreases; length never increases at fixed score."""
    env = small_twomaze()
    snap = env.reset(0)[1]
    archive = Archive(env.config_hash)
    last_score, last_len = None, None
    for score, length in ops:
        archive.insert_or_update(key(), traj_of(*([0] * length)), scored(snap, score))
        record = archive.record(key())
        if last_score is not None:
            assert record.score >= last_score
            if record.score == last_score:
                assert record.traj_len <= last_len
        last_score, last_len = record.score, record.traj_len


# -- best record -----------------------------------------------------------------------


def test_best_record_rules(env, snap):
    archive = fresh_archive(env)
    archive.insert_or_update(key(0), traj_of(1, 1, 1), scored(snap, 10.0))
    archive.insert_or_update(key(1), traj_of(1, 1), scored(snap, 20.0))
    archive.insert_or_update(key(2), traj_of(1), scored(snap, 20.0))
    best_key, record = archive.best_record()
    assert best_key == key(2)  # highest score, then shorter
    assert record.score == 20.0
    only_low = archive.best_record(lambda k, r: r.score < 15)
    assert only_low[0] == key(0)
    with pytest.raises(ContractError):
        archive.best_record(lambda k, r: False)


def test_max_level_tracked(env, snap):
    archive = fresh_archive(env)
    archive.insert_or_update(key(level=0), Trajectory(), snap)
    assert archive.max_level == 0
    archive.insert_or_update(key(x=1, level=3), Trajectory(), snap)
    assert archive.max_level == 3


def test_more_keys_neighbor_lookup(env, snap):
    archive = fresh_archive(env)
    base = key(x=4, y=4, room=1, key_rooms=(1,))
    richer = key(x=4, y=4, room=1, key_rooms=(1, 4))
    archive.insert_or_update(base, Trajectory(), snap)
    assert archive.missing_neighbors[base] & MORE_KEYS_BIT
    archive.insert_or_update(richer, Trajectory(), snap)
    assert not archive.missing_neighbors[base] & MORE_KEYS_BIT
    assert archive.missing_neighbors[richer] & MORE_KEYS_BIT


def test_sorted_keys_follow_encoding_across_inserts_and_load(env, snap):
    """The cached order equals a full sort by encoding after interleaved
    inserts (domain and downscaled keys, negative bins) and after a
    checkpoint load; lists handed out earlier are left as they were."""
    import numpy as np

    from archex.cells import DownscaledKey

    rng = np.random.default_rng(5)

    def random_key():
        if rng.random() < 0.2:
            return DownscaledKey(2, 2, 8, bytes(rng.integers(0, 9, 4).tolist()))
        rooms = tuple(sorted(rng.integers(0, 4, int(rng.integers(0, 3))).tolist()))
        return key(*rng.integers(-300, 300, 2).tolist(), int(rng.integers(4)),
                   int(rng.integers(3)), rooms)

    def full_sort(archive):
        return sorted(archive.cells, key=lambda k: k.encode())

    archive = fresh_archive(env)
    handed_out = []
    for batch in range(12):
        for _ in range(int(rng.integers(0, 40))):
            archive.insert_or_update(random_key(), Trajectory(), snap)
        order = archive.sorted_keys()
        assert order == full_sort(archive)
        handed_out.append((order, list(order)))
    assert all(order == copy for order, copy in handed_out)

    loaded, _ = deserialize_archive(serialize_archive(archive))
    assert loaded.sorted_keys() == full_sort(archive)
    for _ in range(30):
        loaded.insert_or_update(random_key(), Trajectory(), snap)
    assert loaded.sorted_keys() == full_sort(loaded)


# -- checkpoints -------------------------------------------------------------------------


def build_small_archive(seed=0, budget=6_000):
    factory = small_twomaze
    cfg = ExploreConfig(
        k=50, batch_size=10, budget_training_frames=budget, seed=seed,
        metric_interval_game_frames=10**9,
    )
    sel = SelectionConfig()
    return run_phase1(factory, cfg, sel, domain_mapper(1))


def test_checkpoint_roundtrip_bit_identical(tmp_path):
    result = build_small_archive()
    path = tmp_path / "a.ckpt"
    checkpoint_save(result.archive, path, result.meta)
    loaded, meta = checkpoint_load(path)
    assert meta == result.meta
    path2 = tmp_path / "b.ckpt"
    checkpoint_save(loaded, path2, meta)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_file_is_serialized_bytes(tmp_path):
    result = build_small_archive()
    path = tmp_path / "a.ckpt"
    checkpoint_save(result.archive, path, result.meta)
    assert path.read_bytes() == serialize_archive(result.archive, result.meta)
    assert [p.name for p in tmp_path.iterdir()] == ["a.ckpt"]


def test_checkpoint_write_failing_partway_keeps_previous(tmp_path, monkeypatch):
    import archex.archive as archive_module

    first = build_small_archive(budget=2_000)
    path = tmp_path / "a.ckpt"
    checkpoint_save(first.archive, path, first.meta)
    before = path.read_bytes()

    layout = archive_module._layout

    def failing_layout(archive, meta):
        pieces = layout(archive, meta)
        yield next(pieces)
        yield next(pieces)
        raise OSError("disk full")

    monkeypatch.setattr(archive_module, "_layout", failing_layout)
    second = build_small_archive(budget=6_000)
    with pytest.raises(OSError):
        checkpoint_save(second.archive, path, second.meta)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["a.ckpt"]
    monkeypatch.undo()  # the loader re-lays out what it reads
    assert checkpoint_load(path)[1] == first.meta


def test_csv_write_failing_partway_keeps_previous(tmp_path):
    path = tmp_path / "m.csv"
    write_csv(path, ["a", "b"], [(1, 2.5), (3, 4.5)])
    before = path.read_bytes()
    assert before == b"a,b\r\n1,2.5\r\n3,4.5\r\n"

    def failing_rows():
        yield (5, 6.5)
        raise OSError("disk full")

    with pytest.raises(OSError):
        write_csv(path, ["a", "b"], failing_rows())
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.csv"]


def test_checkpoint_preserves_everything():
    result = build_small_archive()
    data = serialize_archive(result.archive, result.meta)
    loaded, _ = deserialize_archive(data)
    assert len(loaded) == len(result.archive)
    for k, record in result.archive.cells.items():
        other = loaded.record(k)
        assert other.score == record.score
        assert other.traj_len == record.traj_len
        assert other.times_seen == record.times_seen
        assert other.times_chosen == record.times_chosen
        assert other.times_chosen_since_new == record.times_chosen_since_new
        assert other.trajectory.actions() == record.trajectory.actions()
        assert other.snapshot.state_bytes == record.snapshot.state_bytes


def test_checkpoint_truncation_detected(tmp_path):
    result = build_small_archive()
    path = tmp_path / "a.ckpt"
    checkpoint_save(result.archive, path, result.meta)
    data = path.read_bytes()
    for cut in (10, len(data) // 2, len(data) - 1):
        (tmp_path / "bad.ckpt").write_bytes(data[:cut])
        with pytest.raises(CheckpointError):
            checkpoint_load(tmp_path / "bad.ckpt")


def test_checkpoint_corruption_detected(tmp_path):
    result = build_small_archive()
    path = tmp_path / "a.ckpt"
    checkpoint_save(result.archive, path, result.meta)
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    (tmp_path / "bad.ckpt").write_bytes(bytes(data))
    with pytest.raises(CheckpointError):
        checkpoint_load(tmp_path / "bad.ckpt")


def test_checkpoint_traj_len_must_match_its_chain(tmp_path):
    """A cell whose traj_len disagrees with its node chain is rejected on
    load, before anything replays it."""
    result = build_small_archive()
    key = result.archive.sorted_keys()[5]
    record = result.archive.record(key)
    record.traj_len += 1
    path = tmp_path / "a.ckpt"
    checkpoint_save(result.archive, path, result.meta)
    with pytest.raises(CheckpointError, match="canonical layout"):
        checkpoint_load(path)


def test_checkpoint_config_mismatch(tmp_path):
    result = build_small_archive()
    path = tmp_path / "a.ckpt"
    checkpoint_save(result.archive, path, result.meta)
    with pytest.raises(CheckpointError):
        checkpoint_load(path, expected_config_hash=12345)


# Bytes per cell a loaded criterion-7 archive keeps (tracemalloc): 813 when
# each record held a Trajectory and a snapshot that copied its score and
# frame counters out of its state bytes, 649 with each fact stored once.
# perfbench keeps every repetition's loaded archive, so these bytes gate
# every explore speed-up there.
LOADED_BYTES_PER_CELL = 750


def test_loaded_archive_footprint():
    """A loaded archive stays under LOADED_BYTES_PER_CELL per cell: the
    criterion-7 world explored for 40k frames, loaded with tracemalloc on."""
    run = run_phase1(lambda: small_keydoor(time_limit_game_frames=4_000),
                     ExploreConfig(k=40, batch_size=20, budget_training_frames=40_000,
                                   metric_interval_game_frames=10**9),
                     SelectionConfig(domain_mode=True, w_horizontal=0.3, w_vertical=0.1,
                                     w_more_keys=10.0),
                     domain_mapper(1))
    data = serialize_archive(run.archive, run.meta)
    del run
    gc.collect()
    tracemalloc.start()
    try:
        archive, _ = deserialize_archive(data)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(archive) > 500
    assert kept / len(archive) < LOADED_BYTES_PER_CELL


def test_node_sharing_bounded_by_actions():
    """Total stored nodes <= total exploration actions taken."""
    result = build_small_archive()
    nodes = set()
    for _, record in result.archive.cells.items():
        node = record.trajectory.tail
        while node is not None and id(node) not in nodes:
            nodes.add(id(node))
            node = node.parent
    assert len(nodes) <= result.meta.training_frames


# -- only the writer's bytes load -------------------------------------------------------


# Up to three edits of a body: flip a bit, insert a byte or delete one, at a
# position taken modulo the body's length.
_EDITS = st.lists(st.tuples(st.sampled_from(["flip", "insert", "delete"]),
                            st.integers(0, 2**32), st.integers(0, 255)),
                  min_size=1, max_size=3)


def _edited(data: bytes, edits) -> bytes:
    """``data``'s body with ``edits`` applied, and its sha256 recomputed so
    that the edited body reaches the parser."""
    body = bytearray(data[:-32])
    for kind, at, value in edits:
        at %= len(body) + (kind == "insert")
        if kind == "flip":
            body[at] ^= 1 << (value % 8)
        elif kind == "insert":
            body.insert(at, value)
        else:
            del body[at]
    return bytes(body) + hashlib.sha256(body).digest()


@pytest.fixture(scope="module")
def keydoor_checkpoint():
    """A small keydoor archive's checkpoint bytes: several rooms, scores
    other than 0 and shared trajectory nodes."""
    cfg = ExploreConfig(k=50, batch_size=10, budget_training_frames=3_000, seed=0,
                        metric_interval_game_frames=10**9)
    result = run_phase1(small_keydoor, cfg, SelectionConfig(), domain_mapper(1))
    return serialize_archive(result.archive, result.meta)


@settings(max_examples=1500, deadline=None, derandomize=True)
@given(edits=_EDITS)
def test_edited_checkpoint_loads_only_as_written(keydoor_checkpoint, edits):
    data = _edited(keydoor_checkpoint, edits)
    try:
        archive, meta = deserialize_archive(data)
    except CheckpointError:
        return
    assert serialize_archive(archive, meta) == data


@pytest.fixture(scope="module")
def policy_file(tmp_path_factory):
    """A path holding a small policy checkpoint, and its bytes."""
    q = {(4, 1, 0): [0.5, -1.0, 2.0], (7,): [0.0, 3.25, -0.0], (2, 2): [1e300, 1.0, 0.0]}
    path = tmp_path_factory.mktemp("policy") / "p.ckpt"
    save_policy(PolicyCheckpoint(q=q, n_actions=3, min_msp=5, attempts=40), path, 11)
    return path, path.read_bytes()


@settings(max_examples=1500, deadline=None, derandomize=True)
@given(edits=_EDITS)
def test_edited_policy_loads_only_as_written(policy_file, edits):
    path, data = policy_file
    edited = _edited(data, edits)
    path.write_bytes(edited)
    try:
        checkpoint = load_policy(path, expected_config_hash=11)
    except CheckpointError:
        return
    save_policy(checkpoint, path, 11)
    assert path.read_bytes() == edited


# -- replay soundness ----------------------------------------------------------------


def test_replay_soundness_small():
    result = build_small_archive()
    env = small_twomaze()
    mapper = domain_mapper(1)
    for k in result.archive.sorted_keys()[:50]:
        replay_record(env, result.archive.record(k), k, mapper)


def test_replay_detects_corruption():
    from archex.errors import IntegrityError

    result = build_small_archive()
    env = small_twomaze()
    mapper = domain_mapper(1)
    k = next(k for k in result.archive.sorted_keys()
             if result.archive.record(k).traj_len > 2)
    record = result.archive.record(k)
    # corrupt one action in the middle of the chain
    node = record.trajectory.tail
    node.action = (node.action + 1) % 5
    with pytest.raises(IntegrityError):
        replay_record(env, record, k, mapper)
