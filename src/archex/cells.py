"""Cell representations: mapping observations to archive keys.

Two interchangeable representations are provided. The domain-agnostic one
downscales the observation frame with area interpolation and quantizes the
result to a small integer range; the domain one bins ground-truth position
features. Keys are small immutable values with structural equality, so two
states mapping to the same key are indistinguishable downstream. A domain
key's neighbor slots, which selection weights, belong to the archive that
holds the keys (:mod:`archex.archive`).

A mapper is called as ``mapper(source, info)``: ``source`` is either an
:class:`Observation` (whose frame is already drawn) or the environment that
just stepped, which the domain mapper never touches. The downscaled mapper
renders an environment on every call and keeps no state. Explore calls a
mapper once per interned state of its world, and reads the key from the
world's cell column after that (:meth:`GridWorld.cell_column`), since a
key is a function of the config and the discrete state. The domain mapper
copies the features as they are: a world's held key rooms are sorted, and
:meth:`GridWorld.restore` admits no snapshot where they are not.

Downscaling is computed in exact integer arithmetic: for output pixel (i, j)
the quantized value is ``floor(mean * (depth + 1) / 256)`` where ``mean`` is
the exact fractional-overlap weighted average of the source block. This makes
the representation bit-exact across platforms and trivially monotone in the
source intensities.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, NamedTuple, Union

import numpy as np

from .envs.base import DomainInfo, Observation
from .envs.gridworld import GridWorld
from .errors import ConfigError, RepresentationError


@dataclass(frozen=True)
class DownscaleParams:
    width: int = 11
    height: int = 8
    depth: int = 8  # quantized values span 0..depth inclusive

    def __post_init__(self) -> None:
        for name in ("width", "height"):  # DownscaledKey.encode packs 16 bits each
            if not 1 <= getattr(self, name) <= 0xFFFF:
                raise ConfigError(f"downscale {name} must be in [1, 65535]")
        if not 1 <= self.depth <= 255:
            raise ConfigError("downscale depth must be in [1, 255]")


class DownscaledKey(NamedTuple):
    width: int
    height: int
    depth: int
    grid: bytes  # height*width quantized values, row-major

    def encode(self) -> bytes:
        return b"\x01" + struct.pack("<HHH", self.width, self.height, self.depth) + self.grid


class DomainKey(NamedTuple):
    x_bin: int
    y_bin: int
    room: int
    level: int
    key_rooms: tuple[int, ...]  # sorted

    def encode(self) -> bytes:
        return b"\x02" + struct.pack(
            f"<iiII H{len(self.key_rooms)}I",
            self.x_bin,
            self.y_bin,
            self.room,
            self.level,
            len(self.key_rooms),
            *self.key_rooms,
        )


CellKey = Union[DownscaledKey, DomainKey]


def decode_key(data: bytes) -> CellKey:
    tag = data[0]
    if tag == 1:
        w, h, d = struct.unpack_from("<HHH", data, 1)
        grid = data[7:7 + w * h]
        if len(grid) != w * h:
            raise ValueError("truncated downscaled key")
        return DownscaledKey(w, h, d, grid)
    if tag == 2:
        x, y, room, level, n = struct.unpack_from("<iiIIH", data, 1)
        rooms = struct.unpack_from(f"<{n}I", data, 19)
        return DomainKey(x, y, room, level, tuple(rooms))
    raise ValueError(f"unknown cell key tag {tag}")


# -- downscaled representation ------------------------------------------------

_overlap_cache: dict[tuple[int, int], np.ndarray] = {}


def _overlap_matrix(n_in: int, n_out: int) -> np.ndarray:
    """Integer overlap numerators: row i holds out_pixel_i x in_pixel_k
    overlaps scaled by n_out, so each row sums to n_in."""
    got = _overlap_cache.get((n_in, n_out))
    if got is not None:
        return got
    mat = np.zeros((n_out, n_in), dtype=np.int64)
    for i in range(n_out):
        lo, hi = i * n_in, (i + 1) * n_in
        for k in range(max(0, lo // n_out), min(n_in, -(-hi // n_out))):
            ov = min(hi, (k + 1) * n_out) - max(lo, k * n_out)
            if ov > 0:
                mat[i, k] = ov
    _overlap_cache[(n_in, n_out)] = mat
    return mat


def downscale_cell(frame: np.ndarray, params: DownscaleParams) -> DownscaledKey:
    """Area-interpolate ``frame`` to ``params`` size and quantize.

    Each output pixel is floor(block_mean * (depth + 1) / 256) clamped to
    [0, depth], with fractional source blocks weighted by exact overlap.
    """
    if frame.ndim != 2 or frame.size == 0:
        raise RepresentationError("frame must be a non-empty 2-D array")
    h_in, w_in = frame.shape
    rows = _overlap_matrix(h_in, params.height)
    cols = _overlap_matrix(w_in, params.width)
    sums = rows @ frame.astype(np.int64) @ cols.T
    q = (sums * (params.depth + 1)) // (256 * h_in * w_in)
    np.minimum(q, params.depth, out=q)
    return DownscaledKey(
        params.width, params.height, params.depth, q.astype(np.uint8).tobytes()
    )


# -- mapper factories ---------------------------------------------------------

FrameSource = Union[Observation, GridWorld]
CellMapper = Callable[[FrameSource, DomainInfo], CellKey]


def downscale_mapper(params: DownscaleParams) -> CellMapper:
    """Mapper that downscales an observation's frame, or a fresh render of
    an environment."""
    def mapper(source: FrameSource, info: DomainInfo) -> CellKey:
        del info
        frame = source.frame if isinstance(source, Observation) else source.render()
        return downscale_cell(frame, params)

    return mapper


def domain_mapper(grid_size: int) -> CellMapper:
    def mapper(source: FrameSource, info: DomainInfo) -> CellKey:
        del source
        return DomainKey(info.x // grid_size, info.y // grid_size, info.room, info.level,
                         info.key_rooms)

    return mapper
