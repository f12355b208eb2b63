"""Cell representations against independent exact-arithmetic oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from archex.archive import MORE_KEYS_BIT, Archive
from archex.cells import (
    DomainKey,
    DownscaledKey,
    DownscaleParams,
    decode_key,
    domain_mapper,
    downscale_cell,
)
from archex.envs.base import DomainInfo, Observation
from archex.errors import RepresentationError
from archex.trajectory import Trajectory

from conftest import small_twomaze


def oracle_downscale(frame, params):
    """Brute-force area interpolation in exact rational arithmetic."""
    h_in, w_in = frame.shape
    out = []
    for i in range(params.height):
        row = []
        for j in range(params.width):
            y0, y1 = Fraction(i * h_in, params.height), Fraction((i + 1) * h_in, params.height)
            x0, x1 = Fraction(j * w_in, params.width), Fraction((j + 1) * w_in, params.width)
            total = Fraction(0)
            for sy in range(math.floor(y0), math.ceil(y1)):
                oy = min(y1, sy + 1) - max(y0, sy)
                if oy <= 0:
                    continue
                for sx in range(math.floor(x0), math.ceil(x1)):
                    ox = min(x1, sx + 1) - max(x0, sx)
                    if ox <= 0:
                        continue
                    total += oy * ox * int(frame[sy, sx])
            mean = total / ((y1 - y0) * (x1 - x0))
            q = int(mean * (params.depth + 1) / 256)  # exact floor for Fractions >= 0
            row.append(min(q, params.depth))
        out.append(row)
    return out


def as_grid(key: DownscaledKey):
    return [
        [key.grid[r * key.width + c] for c in range(key.width)]
        for r in range(key.height)
    ]


# -- downscale -----------------------------------------------------------------


def test_constant_zero_frame():
    key = downscale_cell(np.zeros((16, 22), np.uint8), DownscaleParams())
    assert set(key.grid) == {0}


def test_constant_255_depth8():
    # floor(255 * 9 / 256) = 8
    key = downscale_cell(np.full((16, 22), 255, np.uint8), DownscaleParams())
    assert set(key.grid) == {8}


def test_block_frame_matches_hand_rule():
    """22x16 frame tiled with 2x2 blocks of {0, 64, 128, 192}."""
    values = [0, 64, 128, 192]
    frame = np.zeros((16, 22), np.uint8)
    for by in range(8):
        for bx in range(11):
            frame[2 * by:2 * by + 2, 2 * bx:2 * bx + 2] = values[(by + bx) % 4]
    key = downscale_cell(frame, DownscaleParams(width=11, height=8, depth=8))
    expect = [[(v * 9) // 256 for v in (values[(by + bx) % 4],)][0]
              for by in range(8) for bx in range(11)]
    assert list(key.grid) == expect
    assert as_grid(key) == oracle_downscale(frame, DownscaleParams())


@pytest.mark.parametrize("shape", [(16, 22), (30, 41), (7, 9), (8, 11), (50, 13)])
@pytest.mark.parametrize("depth", [8, 15])
def test_downscale_matches_fraction_oracle(shape, depth):
    rng = np.random.default_rng(shape[0] * 100 + depth)
    frame = rng.integers(0, 256, shape).astype(np.uint8)
    params = DownscaleParams(width=11, height=8, depth=depth)
    assert as_grid(downscale_cell(frame, params)) == oracle_downscale(frame, params)


def test_downscale_pure():
    rng = np.random.default_rng(0)
    frame = rng.integers(0, 256, (20, 30)).astype(np.uint8)
    params = DownscaleParams()
    assert downscale_cell(frame, params) == downscale_cell(frame.copy(), params)


def test_empty_frame_rejected():
    with pytest.raises(RepresentationError):
        downscale_cell(np.zeros((0, 5), np.uint8), DownscaleParams())


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    h=st.integers(2, 24),
    w=st.integers(2, 24),
)
def test_quantization_monotone(data, h, w):
    """Raising any source intensity never lowers any output value."""
    frame = np.array(
        data.draw(
            st.lists(
                st.lists(st.integers(0, 254), min_size=w, max_size=w),
                min_size=h,
                max_size=h,
            )
        ),
        dtype=np.uint8,
    )
    params = DownscaleParams(width=5, height=4, depth=8)
    base = downscale_cell(frame, params)
    y = data.draw(st.integers(0, h - 1))
    x = data.draw(st.integers(0, w - 1))
    bump = frame.copy()
    bump[y, x] += 1
    raised = downscale_cell(bump, params)
    assert all(b >= a for a, b in zip(base.grid, raised.grid))


def test_key_conflation():
    """Distinct frames with equal block means are the same cell."""
    a = np.zeros((8, 8), np.uint8)
    b = np.zeros((8, 8), np.uint8)
    a[0, 0], a[1, 1] = 100, 0
    b[0, 0], b[1, 1] = 0, 100
    params = DownscaleParams(width=4, height=4, depth=8)
    assert downscale_cell(a, params) == downscale_cell(b, params)


# -- domain cells ----------------------------------------------------------------


def info(x=0, y=0, room=0, level=0, key_rooms=()):
    return DomainInfo(x=x, y=y, room=room, level=level, key_rooms=tuple(key_rooms))


def test_domain_binning():
    key = domain_mapper(16)(None, info(x=33, y=50))
    assert (key.x_bin, key.y_bin) == (2, 3)
    assert domain_mapper(16)(None, info(0, 0)).x_bin == 0


def test_domain_mapper_matches_domain_cell():
    mapper = domain_mapper(4)
    obs = Observation(frame=np.zeros((2, 2), np.uint8), features=info(9, 13))
    assert mapper(obs, obs.features) == domain_mapper(4)(None, info(9, 13))


# -- neighbor slots ----------------------------------------------------------------
# A domain key's slots are read from the missing-neighbor masks of an archive
# holding it.


def masks_of(*keys):
    """The missing-neighbor masks of an archive holding ``keys``."""
    env = small_twomaze()
    snap = env.reset(0)[1]
    archive = Archive(env.config_hash)
    for key in keys:
        archive.insert_or_update(key, Trajectory(), snap)
    return archive.missing_neighbors


def test_neighbor_slots():
    """Bits 0-3 are the grid slots x-1, x+1, y-1 and y+1 (bit b's opposite
    is b ^ 1), and bit 4 the more-keys slot. A key fills none of its own
    slots, and a downscaled key has none."""
    key = domain_mapper(1)(None, info(x=2, y=3))
    assert masks_of(key)[key] == 0b11111
    for bit, (x, y) in enumerate([(1, 3), (3, 3), (2, 2), (2, 4)]):
        slot = key._replace(x_bin=x, y_bin=y)
        masks = masks_of(key, slot)
        assert masks[key] == 0b11111 & ~(1 << bit)
        assert masks[slot] == 0b11111 & ~(1 << (bit ^ 1))
    downscaled = downscale_cell(np.zeros((4, 4), np.uint8), DownscaleParams(2, 2, 8))
    assert downscaled not in masks_of(key, downscaled)


def test_neighbors_at_origin_emit_negative_bins():
    key = domain_mapper(1)(None, info(x=0, y=3))
    assert masks_of(key)[key] & 1
    assert not masks_of(key, key._replace(x_bin=-1))[key] & 1


def test_more_keys_slot():
    """Filled by a key at the same position whose key multiset strictly
    extends this one's."""
    base = domain_mapper(1)(None, info(x=5, y=5, room=2, key_rooms=(1,)))

    def fills(other):
        return not masks_of(base, other)[base] & MORE_KEYS_BIT

    assert fills(base._replace(key_rooms=(1, 4)))
    assert fills(base._replace(key_rooms=(1, 1)))
    assert not fills(base._replace(key_rooms=(4,)))       # not a superset
    assert not fills(base._replace(key_rooms=(1,)))       # not strict
    assert not fills(base._replace(x_bin=6, key_rooms=(1, 4)))


# -- serialization -------------------------------------------------------------------


@pytest.mark.parametrize(
    "key",
    [
        DomainKey(3, -1, 7, 2, (1, 1, 5)),
        DomainKey(0, 0, 0, 0, ()),
        DownscaledKey(2, 2, 8, bytes([0, 1, 2, 3])),
    ],
)
def test_key_encode_roundtrip(key):
    assert decode_key(key.encode()) == key


def test_key_encodings_unique():
    keys = [
        DomainKey(0, 0, 0, 0, ()),
        DomainKey(0, 0, 0, 0, (1,)),
        DomainKey(1, 0, 0, 0, ()),
        DownscaledKey(1, 1, 8, b"\x00"),
    ]
    assert len({k.encode() for k in keys}) == len(keys)
