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
batches of cell ids are drawn with replacement by cumulative-sum roulette.

:func:`cell_probs` scores the whole archive at once, from the archive's
columns by cell id (:meth:`Archive.counters`, :meth:`Archive.levels`,
:meth:`Archive.missing_masks`), and gathers the scores into canonical key
order through the archive's id array (:meth:`Archive.sorted_ids`), which
the table carries; no key is encoded, sorted or looked up. Its neighbor
term reads the missing-neighbor masks (the archive owns the slots, see
:data:`archex.archive.SLOT_KINDS`) through :func:`neigh_weight_table`, and
it takes one level weight per distinct level, with the same operations in
the same order as the per-cell formula above, so it agrees bit for bit
with the scalar oracle the tests keep (``tests/oracle.py``).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .archive import SLOT_KINDS, Archive
from .cells import CellKey
from .errors import ConfigError


# The largest selection weight. A cell scores at most about 100 * w (three
# count subscores of at most 1 / sqrt(EPS1) = 31.6 times their weight, plus
# five neighbor slots), so below 2**64 the sum of the scores of any archive
# a run can build stays finite. At w = 1e308 it overflows to inf, and
# cell_probs' probabilities become 0 or NaN.
MAX_WEIGHT = float(1 << 64)


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
            if not 0 <= value <= MAX_WEIGHT:
                raise ConfigError(f"selection weight {name} must be in [0, 2**64]")


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
    ids: np.ndarray  # cell ids in canonical key order
    scores: np.ndarray
    probs: np.ndarray


def cell_probs(archive: Archive, cfg: SelectionConfig) -> SelectionTable:
    """Scores and normalized probabilities over the archive in canonical key
    order. Each cell is scored from the archive's columns, by cell id, and
    the scores are then gathered into key order, so the sum that
    normalizes them runs over the same values in the same order as the
    scalar formula summed over the sorted keys."""
    order = archive.sorted_ids()
    if not len(order):
        raise ConfigError("cannot select from an empty archive")
    chosen, since, seen = archive.counters()
    cnt = (
        count_subscores(chosen, cfg.w_chosen, COUNT_POWER, EPS1, EPS2)
        + count_subscores(since, cfg.w_chosen_since_new, COUNT_POWER, EPS1, EPS2)
        + count_subscores(seen, cfg.w_seen, COUNT_POWER, EPS1, EPS2)
    )
    if cfg.domain_mode:
        # Non-domain keys have mask 0 (weight 0) and level -1, which stands
        # for level weight 1.
        neigh = neigh_weight_table(cfg).take(archive.missing_masks())
        top = archive.max_level
        distinct, slots = archive.levels()
        lw = np.array(
            [1.0 if level < 0 else level_weight(level, top, LEVEL_DECAY) for level in distinct],
            np.float64,
        ).take(slots)
        scores = lw * (neigh + cnt + 1.0)
    else:
        scores = cnt + 1.0
    scores = scores[order]
    probs = scores / scores.sum()
    return SelectionTable(ids=order, scores=scores, probs=probs)


def sample_batch(table: SelectionTable, b: int, rng: np.random.Generator) -> list[int]:
    """Draw b cell ids with replacement, proportional to table.probs."""
    if b < 1:
        raise ConfigError("batch size must be >= 1")
    cum = np.cumsum(table.probs)
    cum[-1] = 1.0  # guard against accumulated rounding at the top end
    draws = rng.random(b)
    idx = np.searchsorted(cum, draws, side="right")
    idx = np.minimum(idx, len(table.ids) - 1)
    return table.ids[idx].tolist()
