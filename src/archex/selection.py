"""Cell-selection scores, probabilities, and batch sampling.

Each cell's score combines count subscores ``w * (1/(v + eps1))**p + eps2``
over the three interaction counters, neighbor subscores ``w_n * (1 -
HasNeighbor)`` for missing archive neighbors (domain mode only), and an
exponential level weight ``base**(max_level - level)``, floored at the
smallest normal float so that no level gap underflows it to zero. The
weights ``w`` and ``w_n`` are settings; ``p``, the epsilons and ``base`` are
the constants :data:`COUNT_POWER`, :data:`EPS1`, :data:`EPS2` and
:data:`LEVEL_DECAY`:

    score = level_weight * (sum(neigh) + sum(count) + 1)

Scores are strictly positive, so every cell keeps a nonzero selection
probability. Probabilities are the scores normalized over the archive, and
batches are drawn with replacement by cumulative-sum roulette.

:func:`cell_probs` scores the whole archive at once. Its neighbor term reads
the archive's missing-neighbor masks (the archive owns the slots, see
:data:`archex.archive.SLOT_KINDS`) through :func:`neigh_weight_table`, and
it takes one level weight per distinct level gap, with the same operations
in the same order as the per-cell formula above, so it agrees bit for bit
with the scalar oracle the tests keep (``tests/oracle.py``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .archive import SLOT_KINDS, Archive
from .cells import CellKey, DomainKey
from .errors import ConfigError


@dataclass(frozen=True)
class SelectionConfig:
    """Weights for cell selection; the powers, epsilons and level decay are
    the module constants below.

    Defaults follow the downscaled-representation configuration of the
    reference setup; see the presets in :mod:`archex.config` for the other
    named parameter sets.
    """

    w_chosen: float = 0.1
    w_chosen_since_new: float = 0.0
    w_seen: float = 0.3
    w_horizontal: float = 0.0
    w_vertical: float = 0.0
    w_more_keys: float = 0.0
    domain_mode: bool = False

    def __post_init__(self) -> None:
        for name in ("w_chosen", "w_chosen_since_new", "w_seen",
                     "w_horizontal", "w_vertical", "w_more_keys"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ConfigError(f"selection weight {name} must be finite and >= 0")


# The count subscores' power and epsilons, and the level weight's base: one
# value each in the reference setup, whose parameter sets differ only in
# their weights.
COUNT_POWER = 0.5
EPS1 = 0.001
EPS2 = 0.00001
LEVEL_DECAY = 0.1

# Level weights never fall below this, so a cell at any level gap keeps a
# nonzero probability; at decay 0.1 only gaps above 307 reach it.
LEVEL_WEIGHT_FLOOR = sys.float_info.min


def count_subscores(v: np.ndarray, w: float, p: float, eps1: float, eps2: float) -> np.ndarray:
    """w * (1 / (v + eps1))**p + eps2 elementwise over counter values."""
    return w * (1.0 / (v + eps1)) ** p + eps2


def neigh_subscore(key: CellKey, archive: Archive, cfg: SelectionConfig) -> float:
    """Total weight of the key's missing neighbor slots, as :func:`cell_probs`
    reads it; 0 outside domain mode."""
    if not cfg.domain_mode:
        return 0.0
    return float(neigh_weight_table(cfg)[archive.missing_neighbors.get(key, 0)])


def neigh_weight_table(cfg: SelectionConfig) -> np.ndarray:
    """The total weight of each of the 32 missing-neighbor masks, summed in
    slot order; a slot of kind ``k`` weighs ``cfg.w_<k>``."""
    slots = [getattr(cfg, f"w_{kind}") for kind in SLOT_KINDS]
    table = np.zeros(1 << len(slots), np.float64)
    for mask in range(len(table)):
        total = 0.0
        for bit, w in enumerate(slots):
            if mask >> bit & 1:
                total += w
        table[mask] = total
    return table


def level_weight(level: int, max_level: int, base: float) -> float:
    """max(base**(max_level - level), LEVEL_WEIGHT_FLOOR); callers pass 1
    when levels are unknown."""
    if level > max_level:
        raise ConfigError("cell level exceeds archive max_level")
    return max(base ** (max_level - level), LEVEL_WEIGHT_FLOOR)


@dataclass(slots=True)
class SelectionTable:
    keys: list[CellKey]
    scores: np.ndarray
    probs: np.ndarray


def cell_probs(archive: Archive, cfg: SelectionConfig) -> SelectionTable:
    """Scores and normalized probabilities over the archive in canonical key
    order."""
    keys = archive.sorted_keys()
    if not keys:
        raise ConfigError("cannot select from an empty archive")
    n = len(keys)
    records = [archive.cells[k] for k in keys]
    chosen = np.fromiter((r.times_chosen for r in records), np.float64, n)
    since = np.fromiter((r.times_chosen_since_new for r in records), np.float64, n)
    seen = np.fromiter((r.times_seen for r in records), np.float64, n)
    cnt = (
        count_subscores(chosen, cfg.w_chosen, COUNT_POWER, EPS1, EPS2)
        + count_subscores(since, cfg.w_chosen_since_new, COUNT_POWER, EPS1, EPS2)
        + count_subscores(seen, cfg.w_seen, COUNT_POWER, EPS1, EPS2)
    )
    if cfg.domain_mode:
        # Non-domain keys have no mask (weight 0) and level weight 1, which
        # the gap -1 stands for.
        masks = archive.missing_neighbors
        neigh = neigh_weight_table(cfg)[
            np.fromiter((masks.get(k, 0) for k in keys), np.intp, n)
        ]
        top = archive.max_level
        gaps = np.fromiter(
            (top - k.level if isinstance(k, DomainKey) else -1 for k in keys),
            np.int64,
            n,
        )
        distinct, where = np.unique(gaps, return_inverse=True)
        lw = np.array(
            [1.0 if g < 0 else level_weight(top - g, top, LEVEL_DECAY)
             for g in distinct.tolist()],
            np.float64,
        )[where]
        scores = lw * (neigh + cnt + 1.0)
    else:
        scores = cnt + 1.0
    probs = scores / scores.sum()
    return SelectionTable(keys=keys, scores=scores, probs=probs)


def sample_batch(table: SelectionTable, b: int, rng: np.random.Generator) -> list[CellKey]:
    """Draw b keys with replacement, proportional to table.probs."""
    if b < 1:
        raise ConfigError("batch size must be >= 1")
    cum = np.cumsum(table.probs)
    cum[-1] = 1.0  # guard against accumulated rounding at the top end
    draws = rng.random(b)
    idx = np.searchsorted(cum, draws, side="right")
    idx = np.minimum(idx, len(table.keys) - 1)
    return [table.keys[i] for i in idx]
