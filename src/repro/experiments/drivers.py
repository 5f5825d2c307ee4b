"""Experiment drivers: the shared runner code behind every scenario.

A *driver* knows how to execute one kind of :class:`ExperimentSpec` —
sequential MLMCMC estimation, a parallel scheduler run, a scaling sweep, a
forward-model study — and distils the outcome into a JSON-safe payload.  The
payload is what the CLI prints and the manifest records; the raw result
objects (chains, traces, study objects) are passed through untouched for the
benchmark suite's shape checks.

Drivers are registered by name (``@driver("sequential")``) and looked up by
:func:`get_driver`; custom drivers can be registered the same way before
calling :func:`repro.experiments.run_scenario`.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.experiments.presets import build_factory, scaled
from repro.experiments.spec import ExperimentSpec

__all__ = [
    "BUDGETED_DRIVERS",
    "PARALLEL_BACKEND_DRIVERS",
    "DriverResult",
    "RunContext",
    "current_run_context",
    "driver",
    "driver_names",
    "get_driver",
    "prewarm",
    "run_context",
]

#: drivers that honour a spec-selected parallel transport backend
#: (``spec.parallel`` / ``repro run --parallel-backend``).  The other
#: parallel-machine drivers (scaling sweeps, the load-balancing ablation, the
#: quickstart) deliberately stay on the simulated backend: their point is the
#: deterministic virtual-time comparison, and the runner rejects an override
#: for them so manifests never record a backend the run did not use.
PARALLEL_BACKEND_DRIVERS = frozenset({"parallel"})

#: drivers that honour a spec-declared sampling budget (``spec.budget`` /
#: ``repro run --target-mse/--budget``): the single-estimation MLMCMC drivers.
#: Sweep/study drivers run many samplers whose sample plans ARE the study
#: variable, so the runner rejects a budget override for them.
BUDGETED_DRIVERS = frozenset({"sequential", "parallel"})


@dataclass
class DriverResult:
    """What one driver execution produced.

    ``payload`` is JSON-serialisable and lands in the manifest's ``results``
    field; ``raw`` carries the underlying result object(s) for in-process
    consumers (the benchmark suite); ``factory`` is the model-hierarchy
    factory the run used (when one exists); ``evaluations`` are the per-level
    evaluator statistics for the manifest.
    """

    payload: dict
    raw: Any = None
    factory: Any = None
    evaluations: list[dict] = field(default_factory=list)
    #: robustness lineage for the manifest's ``fault_tolerance`` field:
    #: checkpoint directory, resume provenance, injected fault plan and the
    #: run's failure report.  Empty for runs without any of those.
    fault_tolerance: dict = field(default_factory=dict)
    #: allocation lineage for the manifest's ``allocation`` field: policy
    #: name, declared budget and realized continuation trajectory.  Empty
    #: means the static default (recorded as ``{"policy": "fixed"}``).
    allocation: dict = field(default_factory=dict)


@dataclass(frozen=True)
class RunContext:
    """Out-of-band execution options for one driver invocation.

    Checkpointing, resume and fault injection are properties of *one
    execution*, not of the experiment being defined — the same spec (and
    spec hash) must describe a run with or without them, or checkpointed
    manifests would stop being comparable to ordinary ones.  They therefore
    travel to the driver through this context rather than through
    :class:`ExperimentSpec` fields.
    """

    #: directory for :class:`repro.parallel.CheckpointConfig` snapshots
    checkpoint_dir: str | None = None
    #: restart from the latest snapshot in ``checkpoint_dir``
    resume: bool = False
    #: resolved or declarative :class:`repro.parallel.FaultPlan` to inject
    fault_plan: Any = None


_RUN_CONTEXT = RunContext()


@contextlib.contextmanager
def run_context(
    checkpoint_dir: str | None = None,
    resume: bool = False,
    fault_plan: Any = None,
):
    """Install a :class:`RunContext` for the duration of one driver call."""
    global _RUN_CONTEXT
    previous = _RUN_CONTEXT
    _RUN_CONTEXT = RunContext(
        checkpoint_dir=checkpoint_dir, resume=resume, fault_plan=fault_plan
    )
    try:
        yield _RUN_CONTEXT
    finally:
        _RUN_CONTEXT = previous


def current_run_context() -> RunContext:
    """The context installed by :func:`run_context` (default: all off)."""
    return _RUN_CONTEXT


_DRIVERS: dict[str, Callable[[ExperimentSpec], DriverResult]] = {}


def driver(name: str):
    """Register a driver function under ``name``."""

    def decorate(fn: Callable[[ExperimentSpec], DriverResult]):
        _DRIVERS[name] = fn
        return fn

    return decorate


def get_driver(name: str) -> Callable[[ExperimentSpec], DriverResult]:
    """Look up a driver; raises ``KeyError`` listing the known names."""
    try:
        return _DRIVERS[name]
    except KeyError:
        raise KeyError(
            f"unknown driver {name!r}; known drivers: {', '.join(sorted(_DRIVERS))}"
        ) from None


def driver_names() -> list[str]:
    """All registered driver names."""
    return sorted(_DRIVERS)


# ----------------------------------------------------------------------------
# shared helpers
def _spec_factory(spec: ExperimentSpec, application: str | None = None):
    return build_factory(application or spec.application, spec.problem)


#: modules a driver imports while it runs, beyond its factory's (which
#: :func:`build_factory` imports); the parallel-machine drivers also import
#: their transport, see :data:`_BACKEND_MODULES`
_DRIVER_MODULES: dict[str, tuple[str, ...]] = {
    "parallel": ("repro.parallel.parallel_mlmcmc",),
    "ablation-load-balancing": ("repro.parallel.parallel_mlmcmc",),
    "quickstart": ("repro.parallel.parallel_mlmcmc",),
    "strong-scaling": ("repro.parallel.scaling",),
    "weak-scaling": ("repro.parallel.scaling",),
    "scaling-suite": ("repro.parallel.scaling",),
    "random-field": ("repro.randomfield",),
    "fem-hotpath": ("scipy.sparse.linalg", "repro.fem", "repro.models.poisson"),
}

#: the module of each transport a parallel-backend driver can run on
_BACKEND_MODULES = {
    "simulated": "repro.parallel.simmpi.world",
    "multiprocess": "repro.parallel.mp",
    "socket": "repro.parallel.net",
}


def prewarm(spec: ExperimentSpec) -> None:
    """Import what a spec's run needs and build (memoise) its factory.

    Imports and factory construction are one-off process set-up (the
    tsunami factory runs its finest forward model to generate synthetic
    observations); the runner calls this before starting the wall-time clock
    so ``wall_time_s`` measures the experiment, not process-lifetime warm-up —
    keeping first and warm runs of the same spec comparable.  After it,
    ``run_scenario(spec)`` imports no module.
    """
    modules = _DRIVER_MODULES.get(spec.driver, ())
    backend = (spec.parallel or {}).get("backend", "simulated")
    if spec.driver in PARALLEL_BACKEND_DRIVERS and backend in _BACKEND_MODULES:
        modules += (_BACKEND_MODULES[backend],)
    for module in modules:
        importlib.import_module(module)
    if spec.application in ("gaussian", "poisson", "tsunami"):
        _spec_factory(spec)


def _num_samples(spec: ExperimentSpec, key: str = "num_samples") -> list[int]:
    return scaled([int(n) for n in spec.sampler[key]])


def _burnin(spec: ExperimentSpec, num_samples: list[int]) -> list[int] | None:
    explicit = spec.sampler.get("burnin")
    if explicit is not None:
        return [int(b) for b in explicit]
    floor = spec.sampler.get("burnin_floor")
    if floor is not None:
        return [max(int(floor), n // 10) for n in num_samples]
    return None


def _floats(values) -> list[float]:
    return [float(v) for v in np.asarray(values).ravel()]


def _stats_entry(level: int, stats) -> dict:
    """One level's EvaluatorStats as a manifest evaluation entry.

    ``cache_hits`` / ``qoi_cache_hits`` are manifest-format constants: no
    evaluator caches, but ``benchmarks/perf/layers.py`` reads both keys from
    every entry.
    """
    return {"level": int(level), **stats.as_dict(), "cache_hits": 0, "qoi_cache_hits": 0}


def _stats_entries(stats_by_level) -> list[dict]:
    """Per-level EvaluatorStats as manifest-ready dictionaries."""
    if isinstance(stats_by_level, dict):
        items = sorted(stats_by_level.items())
    else:
        items = list(enumerate(stats_by_level))
    return [_stats_entry(level, stats) for level, stats in items]


def _merged_stats_entries(*collections) -> list[dict]:
    """Per-level totals over several runs' EvaluatorStats collections.

    Drivers that execute more than one sampler run (quickstart's sequential +
    parallel pair, the ablation's dynamic + static pair) account *all* of the
    forward-model work in the manifest, not just one half.
    """
    totals: dict[int, object] = {}
    for collection in collections:
        items = collection.items() if isinstance(collection, dict) else enumerate(collection)
        for level, stats in items:
            level = int(level)
            if level in totals:
                totals[level].merge(stats)
            else:
                totals[level] = stats.snapshot()
    return [_stats_entry(level, stats) for level, stats in sorted(totals.items())]


def _budget_policy(spec: ExperimentSpec, num_samples: list[int]):
    """The spec's allocation policy (``None`` for the static plan)."""
    from repro.core.allocation import policy_from_budget

    return policy_from_budget(spec.budget, num_samples=num_samples)


def _allocation_record(spec: ExperimentSpec, policy, rounds) -> dict:
    """The manifest's ``allocation`` entry for one MLMCMC run."""
    if policy is None:
        return {"policy": "fixed"}
    return {
        "policy": policy.name,
        "budget": dict(spec.budget),
        "rounds": [r.as_dict() for r in rounds],
    }


def _cost_model(sampler: dict, num_levels: int):
    from repro.core.costmodel import POISSON_PAPER_COSTS, CostModel

    costs = sampler.get("cost_per_level")
    if costs == "poisson-paper":
        costs = POISSON_PAPER_COSTS
    if costs is None:
        costs = [4.0**level for level in range(num_levels)]
    return CostModel(costs[:num_levels], cv=float(sampler.get("cost_cv") or 0.0))


# ----------------------------------------------------------------------------
# sequential MLMCMC estimation (examples, Tables 3/4, Figures 10/13/14)
def _sequential_levels(factory, result) -> list[dict]:
    """Per-level rows merging hierarchy metadata with run statistics."""
    summaries = factory.level_summary() if hasattr(factory, "level_summary") else None
    cumulative = result.estimate.cumulative_means()
    rows = []
    for level, contribution in enumerate(result.estimate.contributions):
        chain = result.chains[level]
        row: dict[str, Any] = {"level": level}
        if summaries is not None:
            row.update(summaries[level])
        row.update(
            {
                "num_samples": int(contribution.num_samples),
                "acceptance_rate": float(result.acceptance_rates[level]),
                "cost_per_sample_s": float(result.costs_per_sample[level]),
                "tau_component0": float(
                    chain.samples.integrated_autocorrelation_time(component=0, use_qoi=False)
                ),
                "mean": _floats(contribution.mean),
                "variance": _floats(contribution.variance),
                "variance_mean": float(np.mean(contribution.variance)),
                "cumulative_mean": _floats(cumulative[level]),
                "model_evaluations": int(result.model_evaluations[level]),
            }
        )
        rows.append(row)
    return rows


def _field_recovery(factory, result) -> dict:
    """Poisson Figure-10 metrics: recovered field vs synthetic truth."""
    truth = factory.true_qoi()

    def metrics(candidate: np.ndarray) -> dict[str, float]:
        # Degenerate short runs (quick tier) can yield a constant estimate,
        # for which the correlation is undefined — report 0, not NaN.
        with np.errstate(invalid="ignore", divide="ignore"):
            correlation = np.corrcoef(candidate, truth)[0, 1]
        return {
            "correlation": float(correlation) if np.isfinite(correlation) else 0.0,
            "relative_l2_error": float(
                np.linalg.norm(candidate - truth) / np.linalg.norm(truth)
            ),
        }

    return {
        "rows": [
            {"estimator": "multilevel telescoping sum", **metrics(result.mean)},
            {
                "estimator": "level-0 term only",
                **metrics(result.estimate.contributions[0].mean),
            },
            {"estimator": "prior mean (kappa = 1)", **metrics(np.ones_like(truth))},
        ]
    }


def _tsunami_extras(factory, result) -> dict:
    """Tsunami Figure-13/14 statistics: per-level samples and couplings."""
    per_level = []
    for level, chain in enumerate(result.chains):
        samples = chain.samples.parameters()
        per_level.append(
            {
                "level": level,
                "sample_mean": _floats(samples.mean(axis=0)),
                "sample_std": _floats(samples.std(axis=0)),
                "max_abs_sample": float(np.max(np.abs(samples))),
            }
        )
    coupling = []
    for level in range(1, len(result.corrections)):
        corrections = result.corrections[level]
        fine = corrections.fine_matrix()
        coarse = corrections.coarse_matrix()
        n = min(fine.shape[0], coarse.shape[0])
        arrows = fine[:n] - coarse[:n]
        lengths = np.linalg.norm(arrows, axis=1)
        coupling.append(
            {
                "correction": f"level {level - 1} -> {level}",
                "couplings": int(n),
                "accepted_fraction": float(np.mean(lengths < 1e-9)),
                "mean_arrow_length": float(lengths.mean()),
                "max_arrow_length": float(lengths.max()),
                "mean_correction": _floats(arrows.mean(axis=0)),
            }
        )
    return {
        "per_level_samples": per_level,
        "coupling": coupling,
        "distance_to_reference": float(np.linalg.norm(result.mean)),
        "prior_std": float(factory.prior_std),
        "prior_halfwidth": float(factory.prior_halfwidth),
    }


@driver("sequential")
def run_sequential(spec: ExperimentSpec) -> DriverResult:
    """One sequential MLMCMC estimation on the spec's model hierarchy."""
    from repro.core import MLMCMCSampler

    factory = _spec_factory(spec)
    num_samples = _num_samples(spec)
    policy = _budget_policy(spec, num_samples)
    # An adaptive run with a declared cost_per_level prices its allocation
    # snapshots from that model instead of measured wall time, so the
    # continuation trajectory is reproducible across machines.
    cost_model = (
        _cost_model(spec.sampler, len(num_samples))
        if policy is not None and spec.sampler.get("cost_per_level") is not None
        else None
    )
    sampler = MLMCMCSampler(
        factory,
        num_samples=num_samples,
        burnin=_burnin(spec, num_samples),
        subsampling_rates=spec.sampler.get("subsampling_rates"),
        seed=spec.seed,
        allocation=policy,
        cost_model=cost_model,
    )
    result = sampler.run()

    payload: dict[str, Any] = {
        "mean": _floats(result.mean),
        "wall_time_s": float(result.wall_time),
        "acceptance_rates": _floats(result.acceptance_rates),
        "model_evaluations": [int(n) for n in result.model_evaluations],
        "levels": _sequential_levels(factory, result),
    }
    if policy is not None:
        payload["num_allocation_rounds"] = len(result.allocation_rounds)
        payload["final_targets"] = [
            int(t) for t in result.allocation_rounds[-1].targets
        ]
    if hasattr(factory, "exact_mean"):
        exact = factory.exact_mean()
        payload["exact_mean"] = _floats(exact)
        payload["error"] = float(np.linalg.norm(result.mean - exact))
    if spec.application == "poisson":
        payload["field_recovery"] = _field_recovery(factory, result)
    if spec.application == "tsunami":
        payload.update(_tsunami_extras(factory, result))
    return DriverResult(
        payload, raw=result, factory=factory,
        evaluations=_stats_entries(result.evaluation_stats),
        allocation=_allocation_record(spec, policy, result.allocation_rounds),
    )


# ----------------------------------------------------------------------------
# parallel scheduler runs (Figure 9, load-balancing demo)
def _fault_tolerance_record(context: RunContext, result) -> dict:
    """The manifest's ``fault_tolerance`` entry for one parallel run."""
    record: dict[str, Any] = {}
    if context.checkpoint_dir is not None:
        record["checkpoint_dir"] = str(context.checkpoint_dir)
        record["resume_requested"] = bool(context.resume)
    if result.resumed_from is not None:
        record["resumed_from"] = str(result.resumed_from)
    if context.fault_plan is not None:
        record["fault_plan"] = context.fault_plan.as_dict()
    if result.failure_report is not None:
        record["failure_report"] = result.failure_report.as_dict()
        record["degraded"] = bool(result.degraded)
    return record


@driver("parallel")
def run_parallel(spec: ExperimentSpec) -> DriverResult:
    """One parallel MLMCMC run on the spec-selected transport backend.

    Checkpointing, resume and fault injection come from the ambient
    :func:`run_context` (the ``repro run --checkpoint-dir/--resume/
    --fault-plan`` options), never from the spec: one spec hash must cover a
    run with or without a robustness harness around it.
    """
    from repro.parallel import (
        CheckpointConfig,
        FaultToleranceConfig,
        ParallelMLMCMCSampler,
    )

    factory = _spec_factory(spec)
    num_samples = _num_samples(spec)
    sampler_options = spec.sampler
    parallel = spec.parallel or {}
    context = current_run_context()
    checkpoint = (
        CheckpointConfig(directory=context.checkpoint_dir)
        if context.checkpoint_dir is not None
        else None
    )
    backend = parallel.get("backend", "simulated")
    fault_tolerance = None
    if context.fault_plan is not None or (
        backend in ("multiprocess", "socket") and checkpoint is not None
    ):
        # A fault plan (or a checkpointed run on real processes) implies the
        # caller wants the failure-handling machinery: heartbeats and respawn
        # on the real-process backends (multiprocess, socket), and on every
        # backend the degrade-not-crash contract when recovery is exhausted.
        fault_tolerance = FaultToleranceConfig()
    policy = _budget_policy(spec, num_samples)
    sampler = ParallelMLMCMCSampler(
        factory,
        num_samples=num_samples,
        allocation=policy,
        num_ranks=int(sampler_options.get("num_ranks", 16)),
        cost_model=_cost_model(sampler_options, len(num_samples)),
        burnin=_burnin(spec, num_samples),
        subsampling_rates=sampler_options.get("subsampling_rates"),
        dynamic_load_balancing=bool(sampler_options.get("dynamic_load_balancing", True)),
        level_weights=sampler_options.get("level_weights"),
        seed=spec.seed,
        backend=backend,
        backend_options=parallel.get("options"),
        fault_tolerance=fault_tolerance,
        checkpoint=checkpoint,
        resume=context.resume,
        fault_plan=context.fault_plan,
    )
    result = sampler.run()

    trace = result.trace
    burnin_time = sum(e.duration for e in trace.events(["burnin"]))
    eval_events = trace.events(["model_eval"])
    eval_time = sum(e.duration for e in eval_events)
    durations_by_level: dict[int, list[float]] = {}
    for event in eval_events:
        durations_by_level.setdefault(event.level, []).append(event.duration)
    eval_duration_cv = {
        str(level): float(np.std(durations) / np.mean(durations))
        for level, durations in durations_by_level.items()
        if len(durations) > 1 and np.mean(durations) > 0
    }
    payload = {
        "mean": _floats(result.mean) if result.estimate is not None else None,
        "degraded": bool(result.degraded),
        "parallel_backend": str(result.backend),
        "wall_time_s": float(result.wall_time_s),
        "summary": {k: float(v) for k, v in result.summary().items()},
        "per_level_busy_s": {
            str(level): float(busy) for level, busy in trace.per_level_busy_time().items()
        },
        "burnin_share": float(burnin_time / max(burnin_time + eval_time, 1e-12)),
        "eval_duration_cv": eval_duration_cv,
        "rebalances": [
            {
                "time_s": float(when),
                "source_level": int(decision.source_level),
                "target_level": int(decision.target_level),
                "reason": str(decision.reason),
            }
            for when, decision in result.rebalance_log
        ],
        "controller_assignments": {
            str(rank): [int(level) for level in history]
            for rank, history in sorted(result.controller_assignments.items())
        },
        "controllers_moved": int(
            sum(1 for h in result.controller_assignments.values() if len(h) > 1)
        ),
        "gantt": trace.render_ascii(width=100),
    }
    if policy is not None:
        payload["num_allocation_rounds"] = len(result.allocation_rounds)
        if result.allocation_rounds:
            payload["final_targets"] = [
                int(t) for t in result.allocation_rounds[-1].targets
            ]
    return DriverResult(
        payload, raw=result, factory=factory,
        evaluations=_stats_entries(result.evaluation_stats),
        fault_tolerance=_fault_tolerance_record(context, result),
        allocation=_allocation_record(spec, policy, result.allocation_rounds),
    )


@driver("ablation-load-balancing")
def run_ablation_load_balancing(spec: ExperimentSpec) -> DriverResult:
    """The same parallel job with the dynamic balancer on and off."""
    from repro.parallel import ParallelMLMCMCSampler

    factory = _spec_factory(spec)
    num_samples = _num_samples(spec)
    results = {}
    for dynamic in (True, False):
        sampler = ParallelMLMCMCSampler(
            factory,
            num_samples=num_samples,
            num_ranks=int(spec.sampler.get("num_ranks", 18)),
            cost_model=_cost_model(spec.sampler, len(num_samples)),
            subsampling_rates=spec.sampler.get("subsampling_rates"),
            dynamic_load_balancing=dynamic,
            level_weights=spec.sampler.get("level_weights"),
            seed=spec.seed,
        )
        results["dynamic" if dynamic else "static"] = sampler.run()

    rows = [
        {
            "scheduler": label,
            "virtual_time_s": float(result.virtual_time),
            "worker_utilization": float(result.worker_utilization()),
            "rebalance_decisions": len(result.rebalance_log),
            "messages": int(result.messages_sent),
        }
        for label, result in results.items()
    ]
    dynamic, static = results["dynamic"], results["static"]
    payload = {
        "rows": rows,
        "moved_away_from_coarse": bool(
            any(
                decision.source_level == 0 and decision.target_level > 0
                for _, decision in dynamic.rebalance_log
            )
        ),
        "speedup_vs_static": float(static.virtual_time / dynamic.virtual_time),
    }
    return DriverResult(
        payload, raw=results, factory=factory,
        evaluations=_merged_stats_entries(
            dynamic.evaluation_stats, static.evaluation_stats
        ),
    )


# ----------------------------------------------------------------------------
# scaling studies (Figures 11/12, scaling-study example)
def _scaling_payload(study) -> dict:
    return {
        "rows": study.table(),
        "rank_counts": study.rank_counts(),
        "times": _floats(study.times()),
        "speedups": _floats(study.speedups()),
        "efficiencies": _floats(study.efficiencies()),
        "max_utilization": float(max(p.utilization for p in study.points)),
    }


@driver("strong-scaling")
def run_strong_scaling(spec: ExperimentSpec) -> DriverResult:
    """Strong-scaling sweep: fixed problem, growing rank counts."""
    from repro.parallel import strong_scaling_study

    factory = _spec_factory(spec)
    num_samples = _num_samples(spec)
    study = strong_scaling_study(
        factory,
        num_samples=num_samples,
        rank_counts=[int(r) for r in spec.sampler["rank_counts"]],
        cost_model=_cost_model(spec.sampler, len(num_samples)),
        subsampling_rates=spec.sampler.get("subsampling_rates"),
        burnin=_burnin(spec, num_samples),
        seed=spec.seed,
    )
    return DriverResult(_scaling_payload(study), raw=study, factory=factory)


@driver("weak-scaling")
def run_weak_scaling(spec: ExperimentSpec) -> DriverResult:
    """Weak-scaling sweep: per-level sample counts grow with the rank count."""
    from repro.parallel import weak_scaling_study

    factory = _spec_factory(spec)
    base_samples = _num_samples(spec, key="base_num_samples")
    study = weak_scaling_study(
        factory,
        base_num_samples=base_samples,
        base_num_ranks=int(spec.sampler["base_num_ranks"]),
        rank_counts=[int(r) for r in spec.sampler["rank_counts"]],
        cost_model=_cost_model(spec.sampler, len(base_samples)),
        subsampling_rates=spec.sampler.get("subsampling_rates"),
        burnin=_burnin(spec, base_samples),
        seed=spec.seed,
    )
    return DriverResult(_scaling_payload(study), raw=study, factory=factory)


@driver("scaling-suite")
def run_scaling_suite(spec: ExperimentSpec) -> DriverResult:
    """Strong and weak scaling back to back (the scaling-study example)."""
    from repro.parallel import strong_scaling_study, weak_scaling_study

    factory = _spec_factory(spec)
    num_samples = _num_samples(spec)
    rank_counts = [int(r) for r in spec.sampler["rank_counts"]]
    cost_model = _cost_model(spec.sampler, len(num_samples))
    burnin = _burnin(spec, num_samples)
    strong = strong_scaling_study(
        factory,
        num_samples=num_samples,
        rank_counts=rank_counts,
        cost_model=cost_model,
        burnin=burnin,
        seed=spec.seed,
    )
    weak = weak_scaling_study(
        factory,
        base_num_samples=[max(4, n // 2) for n in num_samples],
        base_num_ranks=rank_counts[0],
        rank_counts=rank_counts,
        cost_model=cost_model,
        burnin=burnin,
        seed=spec.seed + 1,
    )
    payload = {"strong": _scaling_payload(strong), "weak": _scaling_payload(weak)}
    return DriverResult(payload, raw={"strong": strong, "weak": weak}, factory=factory)


# ----------------------------------------------------------------------------
# quickstart: sequential vs parallel on the analytic hierarchy
@driver("quickstart")
def run_quickstart(spec: ExperimentSpec) -> DriverResult:
    """Sequential and parallel MLMCMC on the analytic Gaussian hierarchy."""
    from repro.core import MLMCMCSampler
    from repro.parallel import ParallelMLMCMCSampler

    factory = _spec_factory(spec)
    num_samples = _num_samples(spec)
    sequential = MLMCMCSampler(factory, num_samples=num_samples, seed=spec.seed).run()
    parallel = ParallelMLMCMCSampler(
        factory,
        num_samples=num_samples,
        num_ranks=int(spec.sampler.get("num_ranks", 16)),
        cost_model=_cost_model(spec.sampler, len(num_samples)),
        seed=spec.seed + 1,
    ).run()

    payload = {
        "exact_mean": _floats(factory.exact_mean()),
        "sequential": {
            "mean": _floats(sequential.mean),
            "error": float(np.linalg.norm(sequential.mean - factory.exact_mean())),
            "acceptance_rates": _floats(sequential.acceptance_rates),
            "levels": _sequential_levels(factory, sequential),
        },
        "parallel": {
            "mean": _floats(parallel.mean),
            "error": float(np.linalg.norm(parallel.mean - factory.exact_mean())),
            "summary": {k: float(v) for k, v in parallel.summary().items()},
        },
    }
    return DriverResult(
        payload,
        raw={"sequential": sequential, "parallel": parallel},
        factory=factory,
        evaluations=_merged_stats_entries(
            sequential.evaluation_stats, parallel.evaluation_stats
        ),
    )


# ----------------------------------------------------------------------------
# complexity and subsampling studies on the analytic hierarchy
@driver("cost-complexity")
def run_cost_complexity(spec: ExperimentSpec) -> DriverResult:
    """Multilevel vs single-level MCMC at comparable accuracy (Section 2)."""
    from repro.core import MLMCMCSampler, run_single_level_mcmc

    factory = _spec_factory(spec)
    exact = factory.exact_mean()
    ml_samples = _num_samples(spec)
    sl_samples = scaled([int(spec.sampler["single_level_samples"])])[0]
    finest = factory.num_levels() - 1

    ml_result = MLMCMCSampler(factory, num_samples=ml_samples, seed=spec.seed).run()
    sl_estimate, _ = run_single_level_mcmc(
        factory, level=finest, num_samples=sl_samples, seed=spec.seed + 1
    )

    costs = [factory.problem_for_level(level).evaluation_cost() for level in range(finest + 1)]
    ml_cost = sum(
        evals * costs[level] for level, evals in enumerate(ml_result.model_evaluations)
    )
    sl_cost = sl_samples * costs[finest] * 1.1  # including burn-in steps
    rows = [
        {
            "method": f"MLMCMC ({finest + 1} levels)",
            "samples": "/".join(str(n) for n in ml_samples),
            "error": float(np.linalg.norm(ml_result.mean - exact)),
            "nominal_cost": float(ml_cost),
        },
        {
            "method": "single-level MCMC (finest)",
            "samples": str(sl_samples),
            "error": float(np.linalg.norm(sl_estimate.mean - exact)),
            "nominal_cost": float(sl_cost),
        },
    ]
    payload = {"rows": rows, "ml_over_sl_cost": float(ml_cost / sl_cost)}
    return DriverResult(
        payload, raw=ml_result, factory=factory,
        evaluations=_stats_entries(ml_result.evaluation_stats),
    )


@driver("ablation-subsampling")
def run_ablation_subsampling(spec: ExperimentSpec) -> DriverResult:
    """Sweep of the coarse-chain subsampling rate ``rho_l``."""
    from repro.core import MLMCMCSampler

    factory = _spec_factory(spec)
    exact = factory.exact_mean()
    num_samples = _num_samples(spec)
    rows = []
    last = None
    for rho in [int(r) for r in spec.sampler["rho_values"]]:
        result = MLMCMCSampler(
            factory,
            num_samples=num_samples,
            subsampling_rates=[0] + [rho] * (len(num_samples) - 1),
            seed=spec.seed + rho,
        ).run()
        last = result
        rows.append(
            {
                "rho": rho,
                "fine_acceptance": float(result.acceptance_rates[-1]),
                "error": float(np.linalg.norm(result.mean - exact)),
                "coarse_evaluations": int(result.model_evaluations[0]),
                "fine_evaluations": int(result.model_evaluations[-1]),
                "fine_correction_variance": float(
                    np.mean(result.estimate.contributions[-1].variance)
                ),
            }
        )
    return DriverResult(
        {"rows": rows}, raw=last, factory=factory,
        evaluations=_stats_entries(last.evaluation_stats),
    )


# ----------------------------------------------------------------------------
# forward-model studies (no MCMC)
@driver("random-field")
def run_random_field(spec: ExperimentSpec) -> DriverResult:
    """Figure 2: one log-permeability realisation through both generators."""
    from repro.randomfield import (
        CirculantEmbeddingSampler,
        ExponentialCovariance,
        GaussianRandomField,
    )

    options = spec.problem
    kernel = ExponentialCovariance(
        variance=float(options.get("variance", 1.0)),
        correlation_length=float(options.get("correlation_length", 0.15)),
    )
    field = GaussianRandomField(
        kernel=kernel,
        num_modes=int(options.get("num_modes", 64)),
        quadrature_points_per_dim=int(options.get("quadrature_points_per_dim", 16)),
    )
    resolution = int(options.get("resolution", 64))
    rng = np.random.default_rng(spec.seed)
    theta = field.sample_coefficients(rng)
    log_kappa = field.evaluate_on_grid(theta, resolution=resolution, log=True)
    kappa = np.exp(log_kappa)
    ce = CirculantEmbeddingSampler(kernel, shape=(resolution + 1, resolution + 1))
    ce_realisation = ce.sample(np.random.default_rng(spec.seed + 1))

    def stats(label: str, name: str, values: np.ndarray) -> dict:
        return {
            "generator": label,
            "field": name,
            "min": float(values.min()),
            "max": float(values.max()),
            "mean": float(values.mean()),
            "std": float(values.std()),
        }

    mode_count = field.num_modes
    payload = {
        "rows": [
            stats(f"KL expansion (m={mode_count})", "log kappa", log_kappa),
            stats(f"KL expansion (m={mode_count})", "kappa", kappa),
            stats("circulant embedding", "log kappa", ce_realisation),
        ]
    }
    return DriverResult(payload, raw={"log_kappa": log_kappa, "ce": ce_realisation})


@driver("buoy-series")
def run_buoy_series(spec: ExperimentSpec) -> DriverResult:
    """Figures 4/5: buoy sea-surface-height series per level and source."""
    from repro.swe.scenario import SourceParameters

    factory = _spec_factory(spec)
    scenario = factory.scenario
    levels = [int(l) for l in spec.sampler.get("levels", [0, 1])]
    levels = [l for l in levels if l < factory.num_levels()]
    sources = {
        "reference (0, 0)": [0.0, 0.0],
        "perturbed (25, -15) km": list(spec.sampler.get("perturbed_source", [25.0, -15.0])),
    }

    rows = []
    records = {}
    for label, theta in sources.items():
        source = SourceParameters.from_theta(theta)
        for level in levels:
            result = scenario.simulate(level, source)
            records[(label, level)] = result.gauge_records
            for record in result.gauge_records:
                times, _ = record.as_arrays()
                rows.append(
                    {
                        "source": label,
                        "level": level,
                        "buoy": record.gauge.name,
                        "peak_ssha_m": float(record.max_height),
                        "time_of_peak_min": float(record.time_of_max / 60.0),
                        "arrival_min": float(record.arrival_time(threshold=0.02) / 60.0),
                        "samples": int(len(times)),
                    }
                )
    payload = {"rows": rows, "levels": levels}
    return DriverResult(payload, raw=records, factory=factory)


@driver("tsunami-observations")
def run_tsunami_observations(spec: ExperimentSpec) -> DriverResult:
    """Table 1: observation mean and level-dependent likelihood sigma."""
    factory = _spec_factory(spec)
    rows = [dict(row) for row in factory.observation_table()]
    payload = {"rows": rows, "num_levels": factory.num_levels()}
    return DriverResult(payload, raw=rows, factory=factory)


@driver("tsunami-hierarchy")
def run_tsunami_hierarchy(spec: ExperimentSpec) -> DriverResult:
    """Table 2: per-level discretisation, time steps and DOF updates."""
    from repro.swe.scenario import SourceParameters

    factory = _spec_factory(spec)
    source = SourceParameters.from_theta([0.0, 0.0])
    rows = []
    results = []
    for level_spec, summary in zip(factory.specs, factory.level_summary()):
        result = factory.scenario.simulate(level_spec.level, source)
        results.append(result)
        rows.append(
            {
                "level": int(level_spec.level),
                "order": int(summary["order"]),
                "limiter": bool(level_spec.limiter),
                "cells": int(level_spec.num_cells),
                "h_km": float(summary["mesh_width_m"] / 1e3),
                "timesteps": int(result.num_timesteps),
                "dof_updates": float(result.dof_updates),
                "bathymetry": str(level_spec.bathymetry_treatment),
            }
        )
    return DriverResult({"rows": rows}, raw=results, factory=factory)


@driver("forward-sweep")
def run_forward_sweep(spec: ExperimentSpec) -> DriverResult:
    """A vectorized sweep of log-density evaluations through every level.

    Draws a block of source parameters and evaluates it through each level's
    ``log_density_batch`` — the workload of pilot studies and prior
    predictive checks.  Unlike the MCMC drivers this routes *blocks* through
    the evaluators' vectorized path, so it is the scenario that demonstrates
    (and CI-checks) the batch fast path end to end: manifests record
    ``batch_calls > 0``.
    """
    factory = _spec_factory(spec)
    num_draws = max(2, int(spec.sampler.get("num_draws", 32)))
    draw_std = float(spec.sampler.get("draw_std", 20.0))
    rng = np.random.default_rng(spec.seed)

    rows = []
    stats_by_level: dict[int, Any] = {}
    raw: dict[int, np.ndarray] = {}
    for level in range(factory.num_levels()):
        problem = factory.problem_for_level(level)
        thetas = rng.normal(0.0, draw_std, size=(num_draws, problem.dim))
        tic = time.perf_counter()
        values = problem.log_density_batch(thetas)
        elapsed = time.perf_counter() - tic
        raw[level] = values
        stats = problem.evaluation_stats
        stats_by_level[level] = stats
        finite = np.isfinite(values)
        rows.append(
            {
                "level": level,
                "draws": num_draws,
                "batch_calls": int(stats.batch_calls),
                "log_density_evaluations": int(stats.log_density_evaluations),
                "finite_fraction": float(np.mean(finite)),
                "mean_log_density": float(values[finite].mean()) if finite.any() else None,
                "sweep_time_s": float(elapsed),
                "per_draw_ms": float(elapsed / num_draws * 1e3),
            }
        )
    payload = {"rows": rows, "num_draws": num_draws}
    return DriverResult(
        payload, raw=raw, factory=factory, evaluations=_stats_entries(stats_by_level)
    )


@driver("swe-hotpath")
def run_swe_hotpath(spec: ExperimentSpec) -> DriverResult:
    """Per-sample SWE forward solve: one ``B``-member ensemble vs ``B`` one-member solves.

    Both sides run the same fused time loop (a scalar ``observe`` is its
    ``B = 1`` case), so the ratio is what batching amortises — per-step
    interpreter dispatch — and ``max_abs_observation_diff`` checks batch-size
    invariance, not kernel correctness (``tests/test_swe_solver.py`` pins the
    loop against the generic kernels).  The registry-level smoke equivalent
    of ``benchmarks/bench_swe_hotpath.py`` (which remains the authoritative
    JSON performance trajectory).
    """
    factory = _spec_factory(spec)
    scenario = factory.scenario
    level = min(int(spec.sampler.get("level", 1)), factory.num_levels() - 1)
    batch_size = int(spec.sampler.get("batch_size", 8))
    rng = np.random.default_rng(spec.seed)
    thetas = rng.normal(0.0, 15.0, size=(batch_size, 2))
    thetas = thetas[scenario.physical_mask(thetas)]
    if thetas.shape[0] == 0:
        raise RuntimeError("no physical sources drawn; widen the draw distribution")

    # Warm both batch sizes: the plan build and each size's workspace
    # allocation — neither belongs in the timings.
    scenario.observe(level, thetas[0])
    scenario.observe_batch(level, thetas)

    tic = time.perf_counter()
    scalar = np.stack([scenario.observe(level, theta) for theta in thetas])
    t_scalar = time.perf_counter() - tic
    tic = time.perf_counter()
    batched = scenario.observe_batch(level, thetas)
    t_batch = time.perf_counter() - tic

    num_cells = factory.specs[level].num_cells
    payload = {
        "rows": [
            {
                "level": level,
                "num_cells": num_cells,
                "batch_size": int(thetas.shape[0]),
                "scalar_per_sample_ms": float(t_scalar / thetas.shape[0] * 1e3),
                "ensemble_per_sample_ms": float(t_batch / thetas.shape[0] * 1e3),
                "per_sample_speedup": float(t_scalar / max(t_batch, 1e-12)),
                "max_abs_observation_diff": float(np.abs(batched - scalar).max()),
            }
        ]
    }
    return DriverResult(payload, raw={"scalar": scalar, "batched": batched}, factory=factory)


@driver("fem-hotpath")
def run_fem_hotpath(spec: ExperimentSpec) -> DriverResult:
    """Per-sample FEM solve: the banded solve path vs the reference path, per mesh.

    The reference assembles the full operator, eliminates the Dirichlet
    rows/columns and calls ``spsolve`` (:func:`assemble_diffusion_system` +
    :func:`apply_dirichlet`).
    """
    from scipy.sparse.linalg import spsolve

    from repro.fem.assembly import apply_dirichlet, assemble_diffusion_system
    from repro.fem.grid import StructuredGrid
    from repro.fem.poisson import PoissonSolver
    from repro.models.poisson import PAPER_OBSERVATION_COORDS

    coords = np.asarray(PAPER_OBSERVATION_COORDS, dtype=float)
    grid_x, grid_y = np.meshgrid(coords, coords, indexing="ij")
    points = np.stack([grid_x.ravel(), grid_y.ravel()], axis=-1)

    rng = np.random.default_rng(spec.seed)
    rows = []
    for mesh in [int(m) for m in spec.problem.get("mesh_sizes", [16, 64])]:
        grid = StructuredGrid(mesh)
        tic = time.perf_counter()
        solver = PoissonSolver(grid)
        t_plan = time.perf_counter() - tic
        kappa = np.exp(rng.normal(0.0, 1.0, size=grid.num_elements))

        tic = time.perf_counter()
        fast = solver.solve_and_observe(kappa, points)
        t_fast = time.perf_counter() - tic

        left, right = grid.boundary_nodes("left"), grid.boundary_nodes("right")
        tic = time.perf_counter()
        stiffness, load = assemble_diffusion_system(grid, kappa)
        stiffness, load = apply_dirichlet(
            stiffness,
            load,
            np.concatenate([left, right]),
            np.concatenate([np.zeros(left.size), np.ones(right.size)]),
        )
        reference = solver.evaluate(spsolve(stiffness.tocsc(), load), points)
        t_reference = time.perf_counter() - tic

        rows.append(
            {
                "mesh": mesh,
                "dofs": int(grid.num_nodes),
                "plan_build_ms": float(t_plan * 1e3),
                "fast_solve_observe_ms": float(t_fast * 1e3),
                "reference_solve_observe_ms": float(t_reference * 1e3),
                "speedup": float(t_reference / max(t_fast, 1e-12)),
                "max_abs_diff": float(np.max(np.abs(fast - reference))),
            }
        )
    return DriverResult({"rows": rows}, raw=rows)
