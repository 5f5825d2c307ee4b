"""Message protocol and shared run configuration for the parallel roles.

Every role communicates through a small vocabulary of message tags mimicking
the request-based MPI interfaces of the paper's implementation.  The
:class:`RunConfiguration` bundles everything the roles need to know about the
run (factory, sample targets, burn-in, subsampling, cost model, layout ranks),
including the :class:`~repro.core.factory.LevelProblems` cache that builds
each sampling problem (which may own an expensive PDE solver) only once per
Python process even though many virtual controllers use it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.allocation import AllocationPolicy
from repro.core.costmodel import CostModel
from repro.core.factory import LevelProblems, MLComponentFactory
from repro.parallel.checkpoint import CheckpointConfig
from repro.parallel.layout import ProcessLayout

__all__ = ["Tags", "RunConfiguration"]


class Tags:
    """Message tags used by the parallel MLMCMC protocol."""

    # root -> controllers / collectors
    ASSIGN = "ASSIGN"
    COLLECT = "COLLECT"
    SHUTDOWN = "SHUTDOWN"
    LEVEL_DONE = "LEVEL_DONE"
    # root -> phonebook: live per-level sample targets of an adaptive run
    TARGETS_UPDATE = "TARGETS_UPDATE"

    # controller <-> phonebook
    REGISTER = "REGISTER"
    UNREGISTER = "UNREGISTER"
    SAMPLE_READY = "SAMPLE_READY"
    CORRECTION_READY = "CORRECTION_READY"
    SAMPLE_REQUEST = "SAMPLE_REQUEST"
    CORRECTION_REQUEST = "CORRECTION_REQUEST"
    FETCH_SAMPLE = "FETCH_SAMPLE"
    FETCH_CORRECTION = "FETCH_CORRECTION"
    REASSIGN = "REASSIGN"

    # controller -> requester
    COARSE_SAMPLE = "COARSE_SAMPLE"
    CORRECTIONS = "CORRECTIONS"

    # controller <-> workers
    WORKER_ASSIGN = "WORKER_ASSIGN"
    WORKER_EVAL = "WORKER_EVAL"
    WORKER_SHUTDOWN = "WORKER_SHUTDOWN"

    # collector -> root
    COLLECTOR_DONE = "COLLECTOR_DONE"

    # driver -> requesters: a controller was respawned (real-process recovery)
    PEER_RESTARTED = "PEER_RESTARTED"


@dataclass
class RunConfiguration:
    """Everything the role processes need to know about one parallel run.

    Attributes
    ----------
    factory:
        The model hierarchy.
    layout:
        Process layout (role assignment of ranks).
    cost_model:
        Virtual duration of forward-model evaluations per level.
    num_samples:
        Target number of correction samples per level (coarse to fine).
    burnin:
        Burn-in steps per level for every chain (each controller runs its own
        burn-in, as in the paper).
    subsampling_rates:
        ``rho_l``: how many level ``l-1`` chain steps separate successive
        samples handed to level ``l`` (entry 0 unused).
    correction_batch:
        How many correction samples a collector requests per message round
        trip.
    dynamic_load_balancing:
        Whether the phonebook may reassign work groups between levels.
    seed:
        Root seed for all chain generators.
    allocation:
        Optional adaptive allocation policy.  When set, the root runs the
        continuation loop (pilot -> re-allocate -> refine) instead of the
        static one-shot collection; ``num_samples`` then only seeds the
        layout/burn-in heuristics while the live targets come from the
        policy.  ``None`` (the default) reproduces the static run bitwise.
    """

    factory: MLComponentFactory
    layout: ProcessLayout
    cost_model: CostModel
    num_samples: Sequence[int]
    burnin: Sequence[int]
    subsampling_rates: Sequence[int]
    correction_batch: int = 10
    dynamic_load_balancing: bool = True
    seed: int | None = None
    checkpoint: CheckpointConfig | None = None
    allocation: AllocationPolicy | None = None
    problems: LevelProblems = field(init=False)
    #: number of levels (one collector each); read on every message, so
    #: computed once
    num_levels: int = field(init=False)

    def __post_init__(self) -> None:
        self.problems = LevelProblems(self.factory)
        self.num_levels = num_levels = len(self.layout.collector_ranks)
        if len(self.num_samples) != num_levels:
            raise ValueError("num_samples must have one entry per level")
        if len(self.burnin) != num_levels:
            raise ValueError("burnin must have one entry per level")
        if len(self.subsampling_rates) != num_levels:
            raise ValueError("subsampling_rates must have one entry per level")

    # ------------------------------------------------------------------
    @property
    def finest_level(self) -> int:
        """Index of the finest level."""
        return self.num_levels - 1

    def checkpoint_signature(self) -> dict:
        """Run identity stamped into (and checked against) every checkpoint."""
        return {
            "seed": self.seed,
            "num_samples": [int(n) for n in self.num_samples],
            "num_levels": self.num_levels,
        }

    def checkpointer(self):
        """A :class:`~repro.parallel.checkpoint.Checkpointer`, or ``None``.

        Built fresh per call so child processes and the driver never share
        cadence counters.
        """
        if self.checkpoint is None:
            return None
        from repro.parallel.checkpoint import Checkpointer

        return Checkpointer(self.checkpoint, self.checkpoint_signature())

    def publish_rate(self, level: int) -> int:
        """How often (in steps) a level-``level`` chain publishes a proposal sample.

        Level ``l`` publishes at the subsampling rate requested by level
        ``l+1``; the finest level never publishes.
        """
        if level >= self.finest_level:
            return 0
        return max(1, int(self.subsampling_rates[level + 1]))
