"""Per-layer metrics of one workload execution.

Three sources feed them (see ``metrics.py``): span statistics of the traced
run, micro-timings, and counters the program already reports
(``EvaluatorStats`` in the manifest, ``summary()`` of the parallel result,
the estimate's per-level contributions).  Every metric of
``metrics.PER_LAYER`` ends up either in ``values`` or in ``na`` with the
reason it has no value on this workload; the five metrics that need more
than one process (floor, steady, job tax, trace overhead, time to MSE) are
filled in by ``run.py``.
"""

from __future__ import annotations

import math

import numpy as np

import micro
from metrics import CROSS_RUN_METRICS, LEVELS, NOT_REPORTED, PER_LAYER

__all__ = ["layer_metrics", "program_counters"]

SPANS_OUT_OF_REACH = (
    "rank code runs in other OS processes, which the span wrappers do not reach"
)


def program_counters(workload, runs, diagnostics: dict) -> dict[str, float]:
    """Metrics from counters the program reports (source ``P``).

    ``diagnostics`` are the output check's by-products; the standardized
    error of the estimate (``est_z_max``) is reported from there.
    """
    values: dict[str, float] = {}
    if "est_z_max" in diagnostics:
        values["core.est_z_max"] = diagnostics["est_z_max"]
    requests = 0
    batch_calls = 0
    evals = dict.fromkeys(LEVELS, 0)
    for run in runs:
        for entry in run.manifest["evaluations"]:
            evals[entry["level"]] += entry["log_density_evaluations"]
            batch_calls += entry["batch_calls"]
            requests += (
                entry["log_density_evaluations"]
                + entry["cache_hits"]
                + entry["qoi_evaluations"]
                + entry["qoi_cache_hits"]
            )
    values["evaluation.requests"] = requests
    values["evaluation.batch_calls"] = batch_calls
    for level in LEVELS:
        values[f"evaluation.model_evals_l{level}"] = evals[level]

    raw = runs[0].raw
    estimate = getattr(raw, "estimate", None)
    if estimate is not None:
        values["core.est_var"] = float(np.mean(estimate.estimator_variance()))
        for contribution in estimate.contributions:
            spread = float(np.mean(contribution.variance))
            of_mean = float(np.mean(contribution.estimator_variance))
            if of_mean > 0.0:
                values[f"core.ess_l{contribution.level}"] = spread / of_mean
    for level, rate in enumerate(getattr(raw, "acceptance_rates", ())):
        values[f"core.accept_rate_l{level}"] = float(rate)

    if hasattr(raw, "summary"):  # a ParallelMLMCMCResult
        summary = raw.summary()
        roles = "parallel.roles"
        values[f"{roles}.messages_sent"] = summary["messages_sent"]
        values[f"{roles}.events_processed"] = summary["events_processed"]
        values[f"{roles}.virtual_makespan_s"] = summary["virtual_time"]
        values[f"{roles}.rebalances"] = summary["num_rebalances"]
        values[f"{roles}.worker_utilization"] = summary["worker_utilization"]
        for level, count in raw.samples_per_level.items():
            values[f"{roles}.samples_generated_l{level}"] = count
        values["parallel.supervisor.rank_failures"] = summary.get("rank_failures", 0)
        values["parallel.supervisor.rank_restarts"] = summary.get("rank_restarts", 0)
        if workload.transport is not None:
            values[f"parallel.{workload.transport}.worker_utilization"] = summary[
                "worker_utilization"
            ]
            for key in (
                "bytes_sent", "frames_sent", "coalesced_batches", "oob_bytes",
                "shm_messages", "serialize_s", "deserialize_s",
            ):
                values[f"parallel.wire.{key}"] = summary[f"wire_{key}"]
    return {name: float(value) for name, value in values.items()}


def _span_metrics(stats: dict, runs, counters: dict) -> dict[str, float]:
    """Metrics from the traced run's span statistics (source ``T``)."""

    def total(field: str, *prefixes: str) -> float:
        return sum(
            entry[field]
            for name, entry in stats.items()
            if any(name == p or name.startswith(p + ".") for p in prefixes)
        )

    values = {
        "fem.solve_calls": total("count", "fem"),
        "fem.solve_self_s": total("self_s", "fem"),
        "swe.run_calls": total("count", "swe"),
        "swe.run_self_s": total("self_s", "swe"),
        "randomfield.setup_s": total("self_s", "randomfield"),
        "models.forward_calls": total(
            "count", "models.poisson.forward", "models.tsunami.forward"
        ),
        "models.forward_self_s": total(
            "self_s", "models.poisson.forward", "models.tsunami.forward"
        ),
        "models.forward_batch_self_s": total(
            "self_s", "models.poisson.forward_batch", "models.tsunami.forward_batch"
        ),
        "bayes.log_density_calls": total(
            "count",
            "bayes.posterior.log_density", "bayes.posterior.log_density_batch",
            "bayes.gaussian.log_density", "bayes.gaussian.log_density_batch",
        ),
        "bayes.self_s": total("self_s", "bayes"),
        "evaluation.self_s": total("self_s", "evaluation"),
        "core.chain_steps": total("count", "core.chain.step"),
        "core.chain_self_s": total("self_s", "core.chain"),
        "core.kernel_self_s": total("self_s", "core.kernel"),
        "core.proposal_self_s": total("self_s", "core.proposal"),
        "core.collection_self_s": total("self_s", "core.collection"),
        "core.estimate_self_s": total("self_s", "core.estimate"),
        "experiments.driver_self_s": total("self_s", "experiments.run_scenario"),
        "experiments.manifest_self_s": total("self_s", "experiments.build_manifest"),
    }
    values["evaluation.us_per_request"] = (
        values["evaluation.self_s"] / counters["evaluation.requests"] * 1e6
    )
    steps = values["core.chain_steps"]
    if steps:
        # Everything MLMCMCSampler.run (or a controller role) spends outside
        # the evaluator subtree is self time of a repro.core span.
        values["core.overhead_us_per_step"] = total("self_s", "core") / steps * 1e6
    events = counters.get("parallel.roles.events_processed", 0)
    if events and "parallel.world.simulated" in stats:
        values["parallel.roles.us_per_event"] = (
            total("self_s", "parallel.world.simulated") / events * 1e6
        )
    wall = sum(run.wall_time_s for run in runs)
    values["harness.unattributed_frac"] = (
        total("self_s", "experiments.run_scenario", "core.sampler", "parallel.sampler")
        / wall
    )
    return values


def _micro_metrics(workload, runs, seed: int, budget_s: float):
    """Micro-timings that apply to ``workload`` (source ``M``) and their call counts."""
    rng = np.random.default_rng(seed)
    timings: dict[str, tuple[float, int]] = {}
    by_application = {run.spec.application: run.factory for run in runs}
    if workload.name == "batch_sweep":
        timings.update(micro.fem_batch(by_application["poisson"], rng, budget_s))
        timings.update(micro.swe_ensemble(by_application["tsunami"], rng, budget_s))
    else:
        if "poisson" in by_application:
            timings.update(micro.fem_scalar(by_application["poisson"], rng, budget_s))
        if "tsunami" in by_application:
            timings.update(micro.swe_scalar(by_application["tsunami"], rng, budget_s))
    if workload.transport is not None:
        timings.update(micro.wire_codec(rng, budget_s))
    values = {name: value for name, (value, _n) in timings.items()}
    calls = {name: n for name, (_value, n) in timings.items()}
    return values, calls


def layer_metrics(
    workload, runs, diagnostics: dict, span_stats: dict, seed: int, micro_budget_s: float
):
    """``(values, na, micro_calls)`` for one traced workload execution."""
    values = program_counters(workload, runs, diagnostics)
    spans = _span_metrics(span_stats, runs, values)
    if workload.transport is not None:
        # Driver-side wrappers only saw the supervisor waiting; layer self
        # times read from them would be wrong, not merely small.
        spans = {
            name: value for name, value in spans.items() if name.startswith("experiments.")
        }
    values.update(spans)
    timings, micro_calls = _micro_metrics(workload, runs, seed, micro_budget_s)
    values.update(timings)

    na: dict[str, str] = {}
    for name, _unit, _better, source in PER_LAYER:
        if name in CROSS_RUN_METRICS:
            continue
        value = values.get(name)
        if value is not None and math.isfinite(value):
            continue
        values.pop(name, None)
        if source == "T" and workload.transport is not None:
            na[name] = SPANS_OUT_OF_REACH
        elif value is not None:
            na[name] = "the program reports no finite value (tracing contract: NaN)"
        else:
            na[name] = NOT_REPORTED
    return values, na, micro_calls
