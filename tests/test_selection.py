"""Selection formulas against an arbitrary-precision oracle, plus sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from archex.archive import Archive, deserialize_archive, serialize_archive
from archex.cells import DomainKey
from archex.errors import ConfigError
from archex.selection import (
    COUNT_POWER,
    EPS1,
    EPS2,
    LEVEL_DECAY,
    LEVEL_WEIGHT_FLOOR,
    SelectionConfig,
    cell_probs,
    level_weight,
    neigh_subscore,
    sample_batch,
)
from archex.trajectory import Trajectory

from conftest import small_twomaze
from oracle import cell_score, count_subscore, missing_slots, set_counters

mp.dps = 50


def oracle_count_subscore(v, w, p, eps1, eps2):
    return mpf(w) * (1 / (mpf(v) + mpf(str(eps1)))) ** mpf(str(p)) + mpf(str(eps2))


def oracle_cell_score(counts, cfg: SelectionConfig, neigh=0.0, level=0, max_level=0):
    chosen, since, seen = counts
    total = (
        oracle_count_subscore(chosen, str(cfg.w_chosen), COUNT_POWER, EPS1, EPS2)
        + oracle_count_subscore(since, str(cfg.w_chosen_since_new), COUNT_POWER, EPS1, EPS2)
        + oracle_count_subscore(seen, str(cfg.w_seen), COUNT_POWER, EPS1, EPS2)
    )
    lw = mpf(str(LEVEL_DECAY)) ** (max_level - level) if cfg.domain_mode else mpf(1)
    return lw * (mpf(str(neigh)) + total + 1)


def build_archive(records, domain=True):
    """records: list of (key, chosen, since_new, seen)."""
    env = small_twomaze()
    snap = env.reset(0)[1]
    archive = Archive(env.config_hash)
    for key, chosen, since, seen in records:
        archive.insert_or_update(key, Trajectory(), snap)
        set_counters(archive, key, chosen, since, seen)
    return archive


def dkey(x=0, y=0, room=0, level=0, keys=()):
    return DomainKey(x, y, room, level, tuple(keys))


# -- frozen oracle values -------------------------------------------------------


def test_count_subscore_frozen_values():
    # oracle: 0.1 * (1/0.001)**0.5 + 1e-5
    assert count_subscore(0, 0.1, 0.5, 0.001, 0.00001) == pytest.approx(
        3.162287660168379, rel=1e-12
    )
    # oracle: (1/1.001)**0.5 + 1e-5
    assert count_subscore(1, 1.0, 0.5, 0.001, 0.00001) == pytest.approx(
        0.9995103746877732, rel=1e-12
    )
    assert count_subscore(12345, 0.0, 0.5, 0.001, 0.00001) == 0.00001


def test_cell_score_all_weights_zero():
    cfg = SelectionConfig(w_chosen=0, w_chosen_since_new=0, w_seen=0)
    archive = build_archive([(dkey(), 3, 1, 7)])
    score = cell_score(archive.record(dkey()), dkey(), archive, cfg)
    assert score == pytest.approx(1.00003, rel=1e-12)


def test_cell_score_fresh_cell_downscale_weights():
    """Fresh cell (seen 1, chosen 0, since_new 0) under the downscaled-
    representation weighting; frozen from the mpmath oracle."""
    cfg = SelectionConfig()  # w = (0.1, 0, 0.3), the module defaults
    archive = build_archive([(dkey(), 0, 0, 1)], domain=False)
    score = cell_score(archive.record(dkey()), dkey(), archive, cfg)
    assert score == pytest.approx(4.462157772574711, rel=1e-12)
    assert score == pytest.approx(float(oracle_cell_score((0, 0, 1), cfg)), rel=1e-12)


# -- neighbors -------------------------------------------------------------------


def table2_cfg(**kw):
    kw.setdefault("domain_mode", True)
    kw.setdefault("w_horizontal", 0.3)
    kw.setdefault("w_vertical", 0.1)
    kw.setdefault("w_more_keys", 10.0)
    return SelectionConfig(**kw)


def test_neigh_subscore_all_missing():
    cfg = table2_cfg()
    archive = build_archive([(dkey(), 0, 0, 1)])
    assert neigh_subscore(dkey(), archive, cfg) == pytest.approx(10.8)


def test_neigh_subscore_all_present():
    cfg = table2_cfg()
    base = dkey(x=5, y=5)
    records = [(base, 0, 0, 1)]
    records += [(base._replace(x_bin=4), 0, 0, 1), (base._replace(x_bin=6), 0, 0, 1)]
    records += [(base._replace(y_bin=4), 0, 0, 1), (base._replace(y_bin=6), 0, 0, 1)]
    records += [(base._replace(key_rooms=(0,)), 0, 0, 1)]
    archive = build_archive(records)
    assert neigh_subscore(base, archive, cfg) == 0.0


def test_neigh_subscore_zero_outside_domain_mode():
    cfg = SelectionConfig(domain_mode=False)
    archive = build_archive([(dkey(), 0, 0, 1)])
    assert neigh_subscore(dkey(), archive, cfg) == 0.0


def test_level_weight():
    assert level_weight(3, 3, 0.1) == 1.0
    assert level_weight(1, 3, 0.1) == pytest.approx(0.01)
    with pytest.raises(ConfigError):
        level_weight(4, 3, 0.1)


def test_level_weight_reachable_gaps_pinned():
    """The floor leaves every weight above it alone: base**gap exactly."""
    for base in (0.1, 0.5, 1.0):
        for gap in range(0, 308):
            assert level_weight(0, gap, base) == base ** gap
    assert level_weight(0, 2, 0.1) == 0.010000000000000002


def test_level_weight_floor_keeps_deep_levels_selectable():
    assert 0.1 ** 400 == 0.0  # what the floor guards against
    assert level_weight(0, 400, 0.1) == LEVEL_WEIGHT_FLOOR > 0
    archive = build_archive([(dkey(x=0, level=0), 0, 0, 1), (dkey(x=5, level=400), 0, 0, 1)])
    cfg = table2_cfg()
    table = cell_probs(archive, cfg)
    assert (table.probs > 0).all()
    assert table.scores[0] == cell_score(archive.record(dkey(x=0)), dkey(x=0), archive, cfg)


def test_missing_neighbor_masks_match_has_neighbor():
    """Masks kept on insert equal a scan of every archived key
    (``oracle.missing_slots``), before and after a checkpoint round trip."""
    rng = np.random.default_rng(5)
    records = []
    for _ in range(300):
        keys = tuple(sorted(int(r) for r in rng.integers(0, 3, int(rng.integers(0, 3)))))
        records.append((dkey(int(rng.integers(0, 6)), int(rng.integers(0, 6)),
                             int(rng.integers(0, 2)), int(rng.integers(0, 2)), keys), 0, 0, 1))
    archive = build_archive(records)
    reloaded, _ = deserialize_archive(serialize_archive(archive))
    for arch in (archive, reloaded):
        assert set(arch.missing_neighbors) == set(arch.cells)
        for key, mask in arch.missing_neighbors.items():
            assert mask == missing_slots(arch, key), key


def test_deferred_masks_equal_masks_built_while_growing():
    """A loaded archive indexes its neighbors only when its masks are first
    read. Those masks, and those after further inserts, equal the masks of
    an archive that read them after every insert, and selection scores on
    the loaded archive are bit-identical."""
    rng = np.random.default_rng(11)

    def random_key():
        keys = tuple(sorted(int(r) for r in rng.integers(0, 3, int(rng.integers(0, 3)))))
        return dkey(int(rng.integers(0, 7)), int(rng.integers(0, 7)),
                    int(rng.integers(0, 2)), int(rng.integers(0, 3)), keys)

    snap = small_twomaze().reset(0)[1]
    grown = build_archive([(random_key(), 0, 0, 1) for _ in range(5)])
    for _ in range(200):
        grown.insert_or_update(random_key(), Trajectory(), snap)
        grown.missing_neighbors  # read after every insert, indexing one key at a time
    loaded, _ = deserialize_archive(serialize_archive(grown))
    assert not loaded._pos_index
    assert loaded.missing_neighbors == grown.missing_neighbors
    cfg = table2_cfg()
    assert cell_probs(loaded, cfg).scores.tobytes() == cell_probs(grown, cfg).scores.tobytes()

    for _ in range(100):
        key = random_key()
        for archive in (grown, loaded):
            archive.insert_or_update(key, Trajectory(), snap)
        grown.missing_neighbors  # read after every insert, indexing one key at a time
    assert loaded.missing_neighbors == grown.missing_neighbors
    assert cell_probs(loaded, cfg).scores.tobytes() == cell_probs(grown, cfg).scores.tobytes()


# -- probabilities ----------------------------------------------------------------


def test_single_cell_prob_one():
    archive = build_archive([(dkey(), 0, 0, 1)])
    table = cell_probs(archive, SelectionConfig())
    assert table.probs.tolist() == [1.0]


def test_two_cell_normalization():
    archive = build_archive([(dkey(0), 0, 0, 1), (dkey(1), 0, 0, 1)])
    cfg = SelectionConfig()
    table = cell_probs(archive, cfg)
    assert table.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert table.probs.tolist() == pytest.approx([0.5, 0.5])


def test_uniform_counts_uniform_probs():
    archive = build_archive([(dkey(x), 2, 1, 5) for x in range(10)])
    table = cell_probs(archive, SelectionConfig())
    assert np.allclose(table.probs, 0.1, atol=1e-12)


def test_probs_positive_and_scale_invariant():
    rng = np.random.default_rng(0)
    records = [
        (dkey(i), int(rng.integers(0, 50)), int(rng.integers(0, 10)),
         int(rng.integers(1, 100)))
        for i in range(40)
    ]
    archive = build_archive(records)
    cfg = SelectionConfig()
    table = cell_probs(archive, cfg)
    assert (table.probs > 0).all()
    assert abs(table.probs.sum() - 1.0) < 1e-12
    # scaling all scores scales out in normalization
    scaled = table.scores * 7.3
    assert np.allclose(scaled / scaled.sum(), table.probs, atol=1e-12)


def assert_probs_match_scalar(archive, cfg):
    table = cell_probs(archive, cfg)
    for i, key in enumerate(archive.sorted_keys()):
        assert table.scores[i] == cell_score(archive.record(key), key, archive, cfg), key


def test_probs_match_scalar_cell_score():
    rng = np.random.default_rng(1)
    records = [
        (dkey(i, level=int(rng.integers(0, 3))), int(rng.integers(0, 9)),
         int(rng.integers(0, 9)), int(rng.integers(1, 9)))
        for i in range(25)
    ]
    archive = build_archive(records)
    assert_probs_match_scalar(archive, table2_cfg(w_chosen=0.5, w_seen=0.2))


def test_probs_match_scalar_where_power_rounding_differs():
    """At these counts numpy's array ``x ** 0.5`` and Python's ``x ** 0.5``
    round apart; a heavy weight carries the last bit into the score."""
    cfg = SelectionConfig(w_chosen=0, w_chosen_since_new=0, w_seen=1000.0)
    archive = build_archive([(dkey(i), 0, 0, v) for i, v in enumerate((483, 715, 839, 1829))])
    assert_probs_match_scalar(archive, cfg)


def grown_archive(seed=3, n=400):
    """Clustered positions over several levels and rooms, key sets that
    extend one another (more-keys neighbors), counters up to 5000."""
    rng = np.random.default_rng(seed)
    records = {}
    for _ in range(n):
        keys = tuple(sorted(int(r) for r in rng.integers(0, 3, int(rng.integers(0, 4)))))
        key = dkey(int(rng.integers(0, 8)), int(rng.integers(0, 8)),
                   int(rng.integers(0, 2)), int(rng.integers(0, 4)), keys)
        records[key] = (int(rng.integers(0, 700)), int(rng.integers(0, 50)),
                        int(rng.integers(1, 5000)))
    return build_archive([(k, *counts) for k, counts in records.items()])


@pytest.mark.parametrize("w_more_keys", [10.0, 0.0])
def test_probs_match_scalar_on_grown_and_reloaded_archives(w_more_keys):
    archive = grown_archive()
    assert archive.max_level == 3
    reloaded, _ = deserialize_archive(serialize_archive(archive))
    cfg = table2_cfg(w_chosen=0.5, w_chosen_since_new=0.25, w_seen=0.2,
                     w_more_keys=w_more_keys)
    assert_probs_match_scalar(archive, cfg)
    assert_probs_match_scalar(reloaded, cfg)
    assert cell_probs(reloaded, cfg).scores.tolist() == cell_probs(archive, cfg).scores.tolist()


def test_probs_match_scalar_on_explored_archive():
    """An archive grown by the explorer itself: real visit counts, keys
    picked up, doors and levels."""
    from archex.cells import domain_mapper
    from archex.explore import ExploreConfig, run_phase1

    from conftest import small_keydoor

    cfg = table2_cfg()
    explore = ExploreConfig(k=50, batch=20, budget_training_frames=20_000,
                            metric_interval_game_frames=10**9)
    archive = run_phase1(small_keydoor, explore, cfg, domain_mapper(1)).archive
    assert archive.max_level >= 1
    assert any(k.key_rooms for k in archive.cells)
    assert_probs_match_scalar(archive, cfg)


@settings(max_examples=40, deadline=None)
@given(
    v=st.integers(0, 10_000),
    w=st.floats(0.001, 10),
    p=st.floats(0.1, 2.0),
)
def test_count_monotone_in_count(v, w, p):
    """More interactions => strictly lower subscore (positive weight)."""
    lo = count_subscore(v + 1, w, p, 0.001, 0.00001)
    hi = count_subscore(v, w, p, 0.001, 0.00001)
    assert lo < hi


def test_oracle_agreement_random_configs():
    """10^4 random (counts, weights) configurations vs mpmath, rel <= 1e-9."""
    rng = np.random.default_rng(2024)
    for _ in range(10_000):
        v = int(rng.integers(0, 10**6))
        w = float(rng.uniform(0, 10))
        p = float(rng.uniform(0.1, 2.0))
        got = count_subscore(v, w, p, 0.001, 0.00001)
        want = float(oracle_count_subscore(v, str(w), str(p), 0.001, 0.00001))
        assert got == pytest.approx(want, rel=1e-9)


# -- sampling ----------------------------------------------------------------------


def test_sample_single_cell():
    archive = build_archive([(dkey(), 0, 0, 1)])
    table = cell_probs(archive, SelectionConfig())
    rng = np.random.default_rng(0)
    assert sample_batch(table, 5, rng) == [archive.id_of(dkey())] * 5


def test_sample_statistics_two_cells():
    from scipy import stats

    archive = build_archive([(dkey(0), 0, 0, 1), (dkey(1), 0, 0, 1)])
    table = cell_probs(archive, SelectionConfig())
    table.probs = np.array([0.75, 0.25])
    rng = np.random.default_rng(7)
    picks = sample_batch(table, 100_000, rng)
    n0 = picks.count(archive.id_of(dkey(0)))
    chi = stats.chisquare([n0, 100_000 - n0], [75_000, 25_000])
    assert chi.pvalue > 0.01


def test_sample_reproducible():
    archive = build_archive([(dkey(i), 0, 0, 1) for i in range(5)])
    table = cell_probs(archive, SelectionConfig())
    a = sample_batch(table, 50, np.random.default_rng(3))
    b = sample_batch(table, 50, np.random.default_rng(3))
    assert a == b


def test_config_validation():
    with pytest.raises(ConfigError):
        SelectionConfig(w_chosen=-1)
    with pytest.raises(ConfigError):
        SelectionConfig(w_more_keys=float("inf"))
    with pytest.raises(ConfigError):
        cell_probs(Archive(0), SelectionConfig())
