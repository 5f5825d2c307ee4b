"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root lists the same metrics;
``run.py --smoke`` fails when the two disagree.

Per-layer sources: ``T`` = spans of the traced run (count and self time),
``M`` = micro-timing of the layer's public callable on the workload's own
level inputs, ``P`` = a counter the program reports.
"""

from __future__ import annotations

__all__ = ["CROSS_RUN_METRICS", "END_TO_END", "LEVELS", "NOT_REPORTED", "PER_LAYER"]

#: ``n/a`` reason of a metric the workload's layers never feed
NOT_REPORTED = "not exercised or not reported on this workload"

LEVELS = (0, 1, 2)

#: (name, unit, better, bound) — bound is the relative worsening of the
#: median that counts as a regression.  The time bounds are sized by the
#: reference box, not by the code: it is a shared VM whose speed drifts by
#: 5-15% over minutes, which puts the run-to-run spread (quartile distance /
#: median over ten seeds) of every time metric at 0.03-0.08, and at 0.20
#: when a slow phase covers two of the ten runs; a bound has to be about
#: three times the usual spread to be safe.  Memory repeats to within 0.4%.
END_TO_END: list[tuple[str, str, str, float]] = [
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
]


def _per_level(stem: str, unit: str, better: str, source: str):
    return [(f"{stem}_l{level}", unit, better, source) for level in LEVELS]


#: (name, unit, better, source)
PER_LAYER: list[tuple[str, str, str, str]] = [
    ("fem.solve_calls", "count", "lower", "T"),
    ("fem.solve_self_s", "s", "lower", "T"),
    *_per_level("fem.solve_us", "us", "lower", "M"),
    *_per_level("fem.solve_batch_us", "us", "lower", "M"),
    ("swe.run_calls", "count", "lower", "T"),
    ("swe.run_self_s", "s", "lower", "T"),
    *_per_level("swe.run_ms", "ms", "lower", "M"),
    *_per_level("swe.ensemble_member_ms", "ms", "lower", "M"),
    ("randomfield.setup_s", "s", "lower", "T"),
    ("models.forward_calls", "count", "lower", "T"),
    ("models.forward_self_s", "s", "lower", "T"),
    ("models.forward_batch_self_s", "s", "lower", "T"),
    ("bayes.log_density_calls", "count", "lower", "T"),
    ("bayes.self_s", "s", "lower", "T"),
    ("evaluation.requests", "count", "lower", "P"),
    *_per_level("evaluation.model_evals", "count", "lower", "P"),
    ("evaluation.batch_calls", "count", "higher", "P"),
    ("evaluation.self_s", "s", "lower", "T"),
    ("evaluation.us_per_request", "us", "lower", "T"),
    ("core.chain_steps", "count", "lower", "T"),
    ("core.chain_self_s", "s", "lower", "T"),
    ("core.kernel_self_s", "s", "lower", "T"),
    ("core.proposal_self_s", "s", "lower", "T"),
    ("core.collection_self_s", "s", "lower", "T"),
    ("core.estimate_self_s", "s", "lower", "T"),
    ("core.overhead_us_per_step", "us", "lower", "T"),
    *_per_level("core.accept_rate", "ratio", "higher", "P"),
    *_per_level("core.ess", "count", "higher", "P"),
    ("core.est_var", "1", "lower", "P"),
    ("core.est_z_max", "1", "lower", "P"),
    ("core.time_to_mse_s", "s", "lower", "P"),
    ("parallel.roles.messages_sent", "count", "lower", "P"),
    ("parallel.roles.events_processed", "count", "lower", "P"),
    ("parallel.roles.virtual_makespan_s", "s", "lower", "P"),
    ("parallel.roles.rebalances", "count", "lower", "P"),
    ("parallel.roles.worker_utilization", "ratio", "higher", "P"),
    *_per_level("parallel.roles.samples_generated", "count", "lower", "P"),
    ("parallel.roles.us_per_event", "us", "lower", "T"),
    ("parallel.wire.encode_us_ctrl", "us", "lower", "M"),
    ("parallel.wire.encode_us_sample", "us", "lower", "M"),
    ("parallel.wire.decode_us_ctrl", "us", "lower", "M"),
    ("parallel.wire.decode_us_sample", "us", "lower", "M"),
    ("parallel.wire.bytes_sent", "count", "lower", "P"),
    ("parallel.wire.frames_sent", "count", "lower", "P"),
    ("parallel.wire.coalesced_batches", "count", "higher", "P"),
    ("parallel.wire.oob_bytes", "count", "higher", "P"),
    ("parallel.wire.shm_messages", "count", "higher", "P"),
    ("parallel.wire.serialize_s", "s", "lower", "P"),
    ("parallel.wire.deserialize_s", "s", "lower", "P"),
    ("parallel.mp.floor_s", "s", "lower", "M"),
    ("parallel.mp.steady_s", "s", "lower", "P"),
    ("parallel.mp.worker_utilization", "ratio", "higher", "P"),
    ("parallel.net.floor_s", "s", "lower", "M"),
    ("parallel.net.steady_s", "s", "lower", "P"),
    ("parallel.net.worker_utilization", "ratio", "higher", "P"),
    ("parallel.net.job_tax_ratio", "ratio", "lower", "P"),
    ("parallel.supervisor.rank_failures", "count", "lower", "P"),
    ("parallel.supervisor.rank_restarts", "count", "lower", "P"),
    ("experiments.driver_self_s", "s", "lower", "T"),
    ("experiments.manifest_self_s", "s", "lower", "T"),
    ("harness.trace_overhead_frac", "ratio", "lower", "T"),
    ("harness.unattributed_frac", "ratio", "lower", "T"),
]

#: per-layer metrics that need more than one process, so ``run.py`` computes
#: them from several child runs instead of ``layers.py`` from one
CROSS_RUN_METRICS = frozenset(
    {
        "core.time_to_mse_s",
        "parallel.mp.floor_s",
        "parallel.mp.steady_s",
        "parallel.net.floor_s",
        "parallel.net.steady_s",
        "parallel.net.job_tax_ratio",
        "harness.trace_overhead_frac",
    }
)
