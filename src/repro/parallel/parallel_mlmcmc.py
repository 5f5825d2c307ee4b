"""Parallel MLMCMC driver.

Builds the role machine (root, phonebook, collectors, work groups of
controllers and workers), runs it on the selected transport backend and
assembles the multilevel estimator from the collectors' output:

* ``backend="simulated"`` (default) — the discrete-event simulation of
  :mod:`repro.parallel.simmpi`: deterministic, virtual time, any rank count.
* ``backend="multiprocess"`` — :mod:`repro.parallel.mp`: every rank on a real
  OS process, queue-based message delivery, real wall-clock timing.
* ``backend="socket"`` — :mod:`repro.parallel.net`: every rank on a real
  process dialed into a TCP rendezvous hub; same semantics as multiprocess,
  but the delivery fabric works across machines.

The result carries the execution trace, the load balancer's decision log and
per-role statistics on every backend, which is what the scaling and
load-balancing benchmarks consume.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.allocation import AllocationPolicy, AllocationRound
from repro.core.estimators import MultilevelEstimate
from repro.core.factory import MIComponentFactory
from repro.core.sample_collection import CorrectionCollection
from repro.evaluation import EvaluatorStats
from repro.multiindex import MultiIndex
from repro.parallel.chaos import FaultPlan, apply_chaos_to_virtual
from repro.parallel.checkpoint import CheckpointConfig
from repro.parallel.costmodel import ConstantCostModel, CostModel
from repro.parallel.fault import FailureReport, FaultToleranceConfig, RankFailure
from repro.parallel.layout import ProcessLayout
from repro.parallel.roles import (
    CollectorProcess,
    ControllerProcess,
    PhonebookProcess,
    RootProcess,
    RunConfiguration,
    WorkerProcess,
)
from repro.parallel.simmpi.world import VirtualWorld
from repro.parallel.trace import TraceRecorder
from repro.parallel.wire import WIRE_SUMMARY_KEYS
from repro.utils.random import RandomSource

__all__ = ["ParallelMLMCMCResult", "ParallelMLMCMCSampler"]


@dataclass
class ParallelMLMCMCResult:
    """Output of one parallel MLMCMC run.

    ``estimate`` is ``None`` only for *degraded* runs: recovery was exhausted
    and the salvaged collections do not cover every level, so no telescoping
    estimate exists.  ``failure_report`` then records what died and what was
    salvaged.
    """

    estimate: MultilevelEstimate | None
    corrections: dict[int, CorrectionCollection]
    virtual_time: float
    trace: TraceRecorder
    layout: ProcessLayout
    messages_sent: int
    events_processed: int
    #: backend the run executed on ("simulated" | "multiprocess" | "socket")
    backend: str = "simulated"
    #: real wall-clock seconds of the transport run (on the multiprocess
    #: backend this coincides with the machine's makespan; on the simulated
    #: backend it is the real time the simulation took, not ``virtual_time``)
    wall_time_s: float = 0.0
    rebalance_log: list = field(default_factory=list)
    samples_per_level: dict[int, int] = field(default_factory=dict)
    level_finish_times: dict[int, float] = field(default_factory=dict)
    controller_assignments: dict[int, list[int]] = field(default_factory=dict)
    #: per-level model-evaluation statistics (from the problems' evaluators)
    evaluation_stats: dict[int, EvaluatorStats] = field(default_factory=dict)
    #: aggregate evaluation accounting of all worker ranks (virtual seconds)
    worker_stats: EvaluatorStats = field(default_factory=EvaluatorStats)
    #: failures observed (and possibly recovered from) during the run
    failure_report: FailureReport | None = None
    #: checkpoint path this result was reconstructed from (``--resume``)
    resumed_from: str | None = None
    #: realized continuation-allocation trajectory (empty for static runs)
    allocation_rounds: list[AllocationRound] = field(default_factory=list)
    #: transport wire counters (bytes/frames/coalescing/OOB arrays); empty on
    #: backends without a wire fabric — the summary reports NaN then
    wire_stats: dict[str, float] = field(default_factory=dict)

    @property
    def degraded(self) -> bool:
        """Whether recovery was exhausted and this is a partial result."""
        return self.failure_report is not None and not self.failure_report.recovered

    @property
    def mean(self) -> np.ndarray:
        """The multilevel estimate of ``E[Q_L]``."""
        if self.estimate is None:
            raise RuntimeError(
                "this degraded run has no multilevel estimate; inspect "
                "result.corrections and result.failure_report instead"
            )
        return self.estimate.mean

    @property
    def model_evaluations(self) -> dict[int, int]:
        """Actual model (density) evaluations per level."""
        return {
            level: stats.log_density_evaluations
            for level, stats in sorted(self.evaluation_stats.items())
        }

    def worker_utilization(self) -> float:
        """Mean busy fraction of controller + worker ranks.

        ``nan`` when the run was executed with ``trace_enabled=False``: no
        intervals were recorded, so a busy fraction cannot be computed and
        ``0.0`` would masquerade as a dead machine.
        """
        ranks = self.layout.controller_ranks + self.layout.worker_ranks
        return self.trace.utilization(ranks)

    def worker_busy_time(self) -> float:
        """Total virtual seconds worker ranks spent in model evaluations."""
        return self.worker_stats.cost_units

    def summary(self) -> dict[str, float | int]:
        """Headline numbers of the run."""
        data: dict[str, float | int] = {
            "virtual_time": self.virtual_time,
            "wall_time_s": self.wall_time_s,
            "num_ranks": self.layout.num_ranks,
            "num_work_groups": self.layout.num_work_groups,
            "messages_sent": self.messages_sent,
            "events_processed": self.events_processed,
            "num_rebalances": len(self.rebalance_log),
            "worker_utilization": self.worker_utilization(),
            "model_evaluations": sum(self.model_evaluations.values()),
        }
        # Same populated-or-NaN contract as worker_utilization, and the same
        # key set on every backend (the conformance suite pins the layout).
        for key in WIRE_SUMMARY_KEYS:
            data[f"wire_{key}"] = float(self.wire_stats.get(key, float("nan")))
        if self.failure_report is not None:
            data["rank_failures"] = len(self.failure_report.failures)
            data["rank_restarts"] = self.failure_report.restarts_used
            data["degraded"] = self.degraded
        return data


class ParallelMLMCMCSampler:
    """Facade assembling and running the parallel MLMCMC machine.

    Parameters
    ----------
    factory:
        The model hierarchy (same interface the sequential sampler uses).
    num_samples:
        Target number of correction samples per level, coarse to fine.
    num_ranks:
        Total virtual MPI ranks.
    cost_model:
        Virtual evaluation-time model; defaults to constant unit cost per
        level scaled by ``problem.evaluation_cost()`` is *not* attempted —
        pass an explicit model to reproduce paper timings.
    burnin:
        Burn-in per level for every chain (default: 10% of the level target).
    subsampling_rates:
        ``rho_l`` per level (default: the factory's values).
    workers_per_group:
        Worker ranks per work group per level (excluding the controller).
    collectors_per_level:
        Collector ranks per level.
    dynamic_load_balancing:
        Enable the phonebook's load balancer.
    latency:
        Virtual message latency in seconds (simulated backend only; real
        message delivery on the multiprocess backend takes whatever the OS
        queues take).
    level_weights:
        Initial distribution of work groups over levels; defaults to
        ``num_samples[l] * cost_model.mean(l)``.
    seed:
        Seed for all chain generators.
    trace_enabled:
        Record the full execution trace (disable for very large runs).
    backend:
        Transport backend: ``"simulated"`` (discrete-event simulation in
        virtual time, the default), ``"multiprocess"`` (every rank on a real
        OS process with real wall-clock timing) or ``"socket"`` (every rank
        on a real process dialed into a TCP rendezvous hub — the
        networked transport of :mod:`repro.parallel.net`, smoke-testable
        entirely on localhost).
    backend_options:
        Extra keyword arguments for the selected backend's world constructor
        (``join_timeout`` for :class:`repro.parallel.mp.MultiprocessWorld`;
        additionally ``host`` / ``port`` for
        :class:`repro.parallel.net.SocketWorld`; ``max_events`` for
        :class:`repro.parallel.simmpi.VirtualWorld`).  Unknown options raise
        a ``TypeError`` from the world constructor rather than being ignored.
    allocation:
        Optional :class:`~repro.core.allocation.AllocationPolicy`.  When set,
        the root runs the continuation loop (pilot, re-allocation from
        streamed variances and the cost model, refinement rounds) instead of
        collecting ``num_samples`` one-shot; ``num_samples`` then only seeds
        the layout and burn-in heuristics.  ``None`` (default) keeps the
        static run bitwise identical to previous releases.
    """

    #: recognised transport backends
    BACKENDS = ("simulated", "multiprocess", "socket")

    def __init__(
        self,
        factory: MIComponentFactory,
        num_samples: Sequence[int],
        num_ranks: int,
        cost_model: CostModel | None = None,
        burnin: Sequence[int] | None = None,
        subsampling_rates: Sequence[int] | None = None,
        workers_per_group: Sequence[int] | int = 0,
        collectors_per_level: int = 1,
        dynamic_load_balancing: bool = True,
        latency: float = 1e-3,
        level_weights: Sequence[float] | None = None,
        seed: int | None = None,
        trace_enabled: bool = True,
        correction_batch: int = 10,
        backend: str = "simulated",
        backend_options: dict | None = None,
        fault_tolerance: FaultToleranceConfig | None = None,
        checkpoint: CheckpointConfig | None = None,
        resume: bool = False,
        fault_plan: FaultPlan | None = None,
        allocation: AllocationPolicy | None = None,
    ) -> None:
        if backend not in self.BACKENDS:
            raise ValueError(
                f"unknown parallel backend {backend!r}; expected one of {self.BACKENDS}"
            )
        self.backend = backend
        self.backend_options = dict(backend_options or {})
        self.factory = factory
        num_levels = len(factory.index_set())
        if len(num_samples) != num_levels:
            raise ValueError("num_samples must have one entry per level")
        self.num_samples = [int(n) for n in num_samples]
        self.cost_model = cost_model or ConstantCostModel([1.0] * num_levels)
        self.burnin = (
            [int(b) for b in burnin]
            if burnin is not None
            else [max(1, n // 10) for n in self.num_samples]
        )
        indices = factory.index_set().coarse_to_fine()
        self.subsampling_rates = (
            [int(r) for r in subsampling_rates]
            if subsampling_rates is not None
            else [max(0, factory.subsampling_rate(ix)) for ix in indices]
        )
        if level_weights is None:
            # Expected number of chain steps per level: a level must produce its
            # own correction samples plus rho_{l+1} proposals for every step the
            # next finer level takes (the data-dependency chain of Algorithm 2).
            steps = [0.0] * num_levels
            for level in reversed(range(num_levels)):
                own = self.num_samples[level] + self.burnin[level]
                if level == num_levels - 1:
                    steps[level] = float(own)
                else:
                    feed = steps[level + 1] * max(1, self.subsampling_rates[level + 1])
                    steps[level] = float(own) + feed
            level_weights = [
                max(1e-12, steps[l]) * self.cost_model.mean(l) for l in range(num_levels)
            ]
        self.layout = ProcessLayout.create(
            num_ranks=num_ranks,
            num_levels=num_levels,
            workers_per_group=workers_per_group,
            collectors_per_level=collectors_per_level,
            level_weights=level_weights,
        )
        self.config = RunConfiguration(
            factory=factory,
            layout=self.layout,
            cost_model=self.cost_model,
            num_samples=self.num_samples,
            burnin=self.burnin,
            subsampling_rates=self.subsampling_rates,
            correction_batch=correction_batch,
            dynamic_load_balancing=dynamic_load_balancing,
            seed=seed,
            checkpoint=checkpoint,
            allocation=allocation,
        )
        self.allocation = allocation
        self.latency = float(latency)
        self.seed = seed
        self.trace_enabled = bool(trace_enabled)
        self.fault_tolerance = fault_tolerance
        self.checkpoint = checkpoint
        self.resume = bool(resume)
        self.fault_plan = (
            fault_plan.resolve(self.layout) if fault_plan is not None else None
        )
        #: per-rank chaos hooks of the last simulated build (kill inspection)
        self._chaos_hooks: dict = {}

    # ------------------------------------------------------------------
    def build_world(self):
        """Construct the transport world with all role processes.

        Returns ``(world, root, phonebook)``; the world is a
        :class:`VirtualWorld` or a :class:`repro.parallel.mp.MultiprocessWorld`
        depending on the configured backend.
        """
        trace = TraceRecorder(enabled=self.trace_enabled)
        if self.backend == "multiprocess":
            from repro.parallel.mp import MultiprocessWorld

            world = MultiprocessWorld(
                trace=trace,
                fault_tolerance=self.fault_tolerance,
                fault_plan=self.fault_plan,
                **self.backend_options,
            )
        elif self.backend == "socket":
            from repro.parallel.net import SocketWorld

            world = SocketWorld(
                trace=trace,
                fault_tolerance=self.fault_tolerance,
                fault_plan=self.fault_plan,
                **self.backend_options,
            )
        else:
            world = VirtualWorld(latency=self.latency, trace=trace, **self.backend_options)
        random_source = RandomSource(self.seed)

        root = RootProcess(self.layout.root_rank, self.config)
        phonebook = PhonebookProcess(self.layout.phonebook_rank, self.config)
        world.add_process(root)
        world.add_process(phonebook)

        for level, collector_ranks in self.layout.collector_ranks.items():
            # Mirror the root's share split so a respawned collector can be
            # re-issued its exact COLLECT order without involving the root.
            shares = RootProcess._split(
                int(self.num_samples[level]), len(collector_ranks)
            )
            for rank, share in zip(collector_ranks, shares):
                collector = CollectorProcess(rank, self.config)
                collector.assigned_level = level
                collector.assigned_target = share
                world.add_process(collector)

        for group in self.layout.work_groups:
            controller = ControllerProcess(
                group.controller_rank,
                self.config,
                worker_ranks=group.worker_ranks,
                random_source=random_source,
            )
            controller.initial_level = group.initial_level
            world.add_process(controller)
            for worker_rank in group.worker_ranks:
                world.add_process(WorkerProcess(worker_rank, group.controller_rank))

        if self.backend == "simulated" and self.fault_plan is not None:
            # Stall horizon for the chaos watchdog: several times the virtual
            # cost of redoing every level sequentially.  No healthy machine
            # goes that long without landing a correction batch, so tripping
            # it deterministically means a kill starved the collections.
            sequential = sum(
                (self.burnin[level] + self.num_samples[level])
                * self.cost_model.mean(level)
                for level in range(self.config.num_levels)
            )
            self._chaos_hooks = apply_chaos_to_virtual(
                world, self.fault_plan, stall_timeout_s=5.0 * sequential + 1.0
            )
        return world, root, phonebook

    def run(self) -> ParallelMLMCMCResult:
        """Run the parallel MLMCMC machine to completion.

        With ``resume=True`` and a final checkpoint on disk the run is
        short-circuited: the result is reconstructed from the snapshot and is
        bitwise identical to the run that wrote it.  A fault-tolerant
        multiprocess run whose recovery was exhausted returns a *partial*
        result (salvaged collections, ``estimate`` possibly ``None``) with a
        :class:`~repro.parallel.fault.FailureReport` instead of raising.
        """
        if self.resume:
            resumed = self._resume_from_final()
            if resumed is not None:
                return resumed

        world, root, phonebook = self.build_world()
        start = time.perf_counter()
        world.run()
        wall_time_s = time.perf_counter() - start

        failure_report = getattr(world, "failure_report", None)
        if failure_report is not None and not failure_report.recovered:
            return self._assemble_degraded(
                world, root, phonebook, failure_report, wall_time_s
            )

        unfinished = world.unfinished_ranks()
        if unfinished and root.rank in unfinished:
            killed = sorted(
                rank for rank, chaos in self._chaos_hooks.items() if chaos.killed
            )
            if (
                killed
                and self.fault_tolerance is not None
                and self.fault_tolerance.on_exhausted == "degrade"
            ):
                # The simulated backend has no rank recovery by design (a dead
                # virtual rank just goes silent); with fault tolerance
                # configured the contract is still degrade-not-crash.
                report = FailureReport(
                    failures=[
                        RankFailure(
                            rank=rank,
                            role=world.processes[rank].role,
                            when_s=float(world.now),
                            reason="virtual rank killed by fault plan",
                        )
                        for rank in killed
                    ],
                    recovered=False,
                    exhausted_reason=(
                        "simulated backend has no rank recovery; killed "
                        f"rank(s) {killed} stalled the machine"
                    ),
                )
                return self._assemble_degraded(
                    world, root, phonebook, report, wall_time_s
                )
            detail = f" (rank(s) {killed} killed by the fault plan)" if killed else ""
            raise RuntimeError(
                "parallel MLMCMC did not terminate: the root never received all "
                f"collector reports; unfinished ranks: {unfinished}{detail}"
            )

        corrections = dict(sorted(root.collected.items()))
        num_levels = self.config.num_levels
        # A level that never reported (or reported an empty collection) would
        # silently zero out the whole telescoping sum downstream (the
        # estimator refuses to sum mixed empty/non-empty levels); fail here
        # with the scheduling context instead.
        missing = [
            level
            for level in range(num_levels)
            if len(corrections.get(level, CorrectionCollection(level))) == 0
        ]
        if missing and len(missing) < num_levels:
            raise RuntimeError(
                f"parallel MLMCMC produced no correction samples for level(s) "
                f"{missing} (targets "
                f"{[self.num_samples[level] for level in missing]}); the "
                "multilevel estimate would be silently corrupted. Check the "
                "collector reports and the level/work-group layout."
            )
        ordered = [
            corrections.get(level, CorrectionCollection(level)) for level in range(num_levels)
        ]
        costs = [self.cost_model.mean(level) for level in range(num_levels)]
        estimate = MultilevelEstimate.from_corrections(ordered, costs_per_sample=costs)

        stats = self._gather_stats(world)
        result = ParallelMLMCMCResult(
            estimate=estimate,
            corrections=corrections,
            backend=self.backend,
            wall_time_s=wall_time_s,
            virtual_time=root.finish_time if root.finish_time > 0 else world.now,
            trace=world.trace,
            layout=self.layout,
            messages_sent=world.messages_sent,
            events_processed=world.events_processed,
            rebalance_log=list(phonebook.rebalance_log),
            samples_per_level=stats["samples_per_level"],
            level_finish_times=dict(root.level_finish_times),
            controller_assignments=stats["controller_assignments"],
            evaluation_stats=stats["evaluation_stats"],
            worker_stats=stats["worker_stats"],
            failure_report=failure_report,
            allocation_rounds=list(root.allocation_rounds),
            wire_stats=self._wire_stats(world),
        )
        self._write_final_checkpoint(result)
        return result

    # ------------------------------------------------------------------
    @staticmethod
    def _wire_stats(world) -> dict[str, float]:
        """The world's wire counters, if its transport has a wire fabric."""
        wire_summary = getattr(world, "wire_summary", None)
        return dict(wire_summary()) if wire_summary is not None else {}

    def _gather_stats(self, world) -> dict:
        """Per-role statistics from the (absorbed) driver-side twins."""
        samples_per_level: dict[int, int] = {}
        controller_assignments: dict[int, list[int]] = {}
        worker_stats = EvaluatorStats()
        evaluation_stats: dict[int, EvaluatorStats] = {}
        for process in world.processes.values():
            if isinstance(process, ControllerProcess):
                controller_assignments[process.rank] = list(process.assignment_history)
                for level, count in process.samples_generated.items():
                    samples_per_level[level] = samples_per_level.get(level, 0) + count
                # Multiprocess backend: every controller harvested the stats
                # of its own per-process problem cache; merging them gives the
                # machine-wide per-level accounting.
                for level, stats in process.evaluation_stats.items():
                    evaluation_stats.setdefault(level, EvaluatorStats()).merge(stats)
            elif isinstance(process, WorkerProcess):
                worker_stats.merge(process.stats)

        if self.backend == "simulated":
            # Per-level model-evaluation statistics straight from the problems'
            # evaluators — the single source of truth for evaluation counts and
            # measured (real, not virtual) per-evaluation cost.  Callers wanting
            # a scheduler cost model calibrated from these measurements feed
            # them to MeasuredCostModel.observe_stats / cost_model_from_stats
            # explicitly; the run never mutates the cost model it was given
            # (its other observations are in virtual-time units).  All virtual
            # controllers share one problem cache, so it is read once here
            # rather than summed per controller.
            built = self.config.problems.built_problems()
            for level, index in enumerate(self.config.indices()):
                problem = built.get(MultiIndex(index).values)
                if problem is not None:
                    evaluation_stats[level] = problem.evaluation_stats.snapshot()
        return {
            "samples_per_level": samples_per_level,
            "controller_assignments": controller_assignments,
            "evaluation_stats": evaluation_stats,
            "worker_stats": worker_stats,
        }

    # ------------------------------------------------------------------
    def _resume_from_final(self) -> ParallelMLMCMCResult | None:
        """Reconstruct a completed run from its final checkpoint, if present.

        The reconstruction is bitwise identical to the result of the run that
        wrote the snapshot: the estimator is recomputed deterministically from
        the very same correction collections.
        """
        checkpointer = self.config.checkpointer()
        if checkpointer is None:
            raise ValueError(
                "resume=True requires a checkpoint configuration "
                "(pass checkpoint=CheckpointConfig(...))"
            )
        payload = checkpointer.read_final()
        if payload is None:
            return None
        corrections = {
            int(level): CorrectionCollection.from_state_dict(state)
            for level, state in payload["corrections"].items()
        }
        num_levels = self.config.num_levels
        ordered = [
            corrections.get(level, CorrectionCollection(level))
            for level in range(num_levels)
        ]
        costs = [self.cost_model.mean(level) for level in range(num_levels)]
        estimate = MultilevelEstimate.from_corrections(ordered, costs_per_sample=costs)
        from repro.parallel.checkpoint import FINAL_SNAPSHOT_NAME

        return ParallelMLMCMCResult(
            estimate=estimate,
            corrections=corrections,
            backend=self.backend,
            wall_time_s=0.0,
            virtual_time=float(payload.get("virtual_time", 0.0)),
            trace=TraceRecorder(enabled=False),
            layout=self.layout,
            messages_sent=int(payload.get("messages_sent", 0)),
            events_processed=int(payload.get("events_processed", 0)),
            samples_per_level={
                int(k): int(v) for k, v in payload.get("samples_per_level", {}).items()
            },
            level_finish_times={
                int(k): float(v)
                for k, v in payload.get("level_finish_times", {}).items()
            },
            resumed_from=str(checkpointer.directory / FINAL_SNAPSHOT_NAME),
        )

    def _write_final_checkpoint(self, result: ParallelMLMCMCResult) -> None:
        """Persist a completed run so ``--resume`` can short-circuit it."""
        checkpointer = self.config.checkpointer()
        if checkpointer is None:
            return
        checkpointer.write_final(
            {
                "corrections": {
                    int(level): coll.state_dict()
                    for level, coll in result.corrections.items()
                },
                "samples_per_level": dict(result.samples_per_level),
                "level_finish_times": dict(result.level_finish_times),
                "virtual_time": result.virtual_time,
                "messages_sent": result.messages_sent,
                "events_processed": result.events_processed,
            }
        )

    def _assemble_degraded(
        self,
        world,
        root: RootProcess,
        phonebook: PhonebookProcess,
        report: FailureReport,
        wall_time_s: float,
    ) -> ParallelMLMCMCResult:
        """Partial result of a run whose recovery budget was exhausted.

        Salvages whatever per-level collections survived: levels the root
        received in full, plus collector checkpoints of levels it did not.
        Salvaged collections are validated — a snapshot that fails its
        internal-consistency checks is discarded, never silently folded into
        an estimate.
        """
        corrections: dict[int, CorrectionCollection] = {
            level: coll
            for level, coll in sorted(root.collected.items())
            if len(coll) > 0
        }
        checkpointer = self.config.checkpointer()
        if checkpointer is not None:
            salvage: dict[int, CorrectionCollection] = {}
            for rank, payload in sorted(checkpointer.snapshots("collector").items()):
                level = int(payload["level"])
                if level in corrections:
                    # The root already holds this level in full; the snapshot
                    # would double-count its samples.
                    continue
                try:
                    restored = CorrectionCollection.from_state_dict(
                        payload["collection"]
                    )
                    restored.validate()
                except (KeyError, ValueError):
                    continue
                if len(restored) == 0:
                    continue
                if level in salvage:
                    salvage[level].merge(restored)
                else:
                    salvage[level] = restored
            corrections.update(salvage)

        report.salvaged_per_level = {
            level: len(coll) for level, coll in sorted(corrections.items())
        }
        num_levels = self.config.num_levels
        estimate = None
        if all(len(corrections.get(level, ())) > 0 for level in range(num_levels)):
            ordered = [corrections[level] for level in range(num_levels)]
            costs = [self.cost_model.mean(level) for level in range(num_levels)]
            estimate = MultilevelEstimate.from_corrections(
                ordered, costs_per_sample=costs
            )

        stats = self._gather_stats(world)
        return ParallelMLMCMCResult(
            estimate=estimate,
            corrections=corrections,
            backend=self.backend,
            wall_time_s=wall_time_s,
            virtual_time=root.finish_time if root.finish_time > 0 else world.now,
            trace=world.trace,
            layout=self.layout,
            messages_sent=world.messages_sent,
            events_processed=world.events_processed,
            rebalance_log=list(phonebook.rebalance_log),
            samples_per_level=stats["samples_per_level"],
            level_finish_times=dict(root.level_finish_times),
            controller_assignments=stats["controller_assignments"],
            evaluation_stats=stats["evaluation_stats"],
            worker_stats=stats["worker_stats"],
            failure_report=report,
            allocation_rounds=list(root.allocation_rounds),
            wire_stats=self._wire_stats(world),
        )
