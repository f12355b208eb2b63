"""Archive-driven exploration with snapshot restore, plus backward-curriculum
robustification and a stochastic evaluation protocol."""

__version__ = "0.1.0"

from .archive import Archive, CellRecord, RunMeta, UpdateOutcome
from .cells import (
    CellKey,
    DomainKey,
    DownscaledKey,
    DownscaleParams,
    downscale_cell,
)
from .envs import DeceptiveCorridor, KeyDoorWorld, TwoMaze
from .evaluation import EvalProtocol, bootstrap_ci, evaluate_policy, grand_mean
from .explore import (
    ExploreConfig,
    baseline_from_start,
    explore_from,
    plan_rollouts,
    run_phase1,
)
from .robustify import (
    BackwardConfig,
    Demonstration,
    backward_run,
    early_terminate,
    select_demonstrations,
    truncate_demo,
)
from .selection import SelectionConfig, cell_probs, sample_batch
from .trajectory import Trajectory

__all__ = [
    "Archive",
    "BackwardConfig",
    "CellKey",
    "CellRecord",
    "DeceptiveCorridor",
    "Demonstration",
    "DomainKey",
    "DownscaleParams",
    "DownscaledKey",
    "EvalProtocol",
    "ExploreConfig",
    "KeyDoorWorld",
    "RunMeta",
    "SelectionConfig",
    "Trajectory",
    "TwoMaze",
    "UpdateOutcome",
    "backward_run",
    "baseline_from_start",
    "bootstrap_ci",
    "cell_probs",
    "downscale_cell",
    "early_terminate",
    "evaluate_policy",
    "explore_from",
    "grand_mean",
    "plan_rollouts",
    "run_phase1",
    "sample_batch",
    "select_demonstrations",
    "truncate_demo",
]
