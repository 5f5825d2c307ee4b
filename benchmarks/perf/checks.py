"""Output checks: every workload run is verified before its time counts.

A run that fails a check counts as a failed operation.  The statistical
checks (distance to the exact or reference mean) hold for the full-size
workloads only and are skipped when the workload is scaled down
(``--smoke``); the structural checks always run.

``references.json`` holds, per estimator workload, the mean and the standard
deviation of the workload's own estimate over many seeds (written by
``references.py``), so "within 6 sigma" is measured against the spread the
workload really has, not against a variance estimated from one short chain.
The distance is the *median over components*: the Poisson QOI is a
log-normal field, and single components of a short run's estimate sit 10+
standard deviations out on about one seed in ten (13 sigma seen in 48 seeds)
while the component median stayed below 1 sigma on all of them.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["GAUSSIAN_TOLERANCE", "SIGMA_BOUND", "check_run"]

#: ``max|mean - exact_mean()|`` allowed on the analytic Gaussian workloads.
#: Loose on purpose: the seed carries a consistent bias of about -0.1 that
#: ROADMAP item 1 owns, and the benchmark's seed varies from run to run; the
#: standardized error is reported ungated as ``core.est_z_max``.
GAUSSIAN_TOLERANCE = 0.6

#: reference workloads must land within this many across-seed standard
#: deviations of the reference mean (median over components)
SIGMA_BOUND = 6.0

#: rows per level of ``batch_sweep`` compared against the scalar path
PARITY_ROWS = 4


def _sha(*arrays: np.ndarray) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return digest.hexdigest()[:16]


def _check_estimate(workload, spec, run, reference: dict, full_size: bool):
    raw = run.raw
    checks: dict[str, bool] = {}
    info: dict[str, float] = {}
    estimate = raw.estimate
    checks["not_degraded"] = estimate is not None and not getattr(raw, "degraded", False)
    if estimate is None:
        return checks, info, ""
    mean = np.asarray(estimate.mean, dtype=float)
    variance = np.asarray(estimate.estimator_variance(), dtype=float)
    targets = [int(n) for n in spec.sampler["num_samples"]]
    checks["finite"] = bool(np.all(np.isfinite(mean)) and np.all(np.isfinite(variance)))
    checks["level_counts"] = [
        int(c.num_samples) for c in estimate.contributions
    ] == targets
    info["est_var"] = float(np.mean(variance))

    if workload.check == "exact":
        expected = np.asarray(run.factory.exact_mean(), dtype=float)
    else:
        expected = np.asarray(reference["mean"], dtype=float)
    checks["shape"] = mean.shape == expected.shape
    if not (checks["shape"] and checks["finite"]):
        return checks, info, _sha(mean)
    error = np.abs(mean - expected)
    info["max_abs_error"] = float(error.max())
    with np.errstate(divide="ignore", invalid="ignore"):
        z = error / np.sqrt(variance)
    info["est_z_max"] = float(np.max(z[np.isfinite(z)], initial=0.0))
    if full_size:
        if workload.check == "exact":
            checks["near_exact_mean"] = info["max_abs_error"] <= GAUSSIAN_TOLERANCE
        else:
            sigma = np.asarray(reference["sigma"], dtype=float)
            info["reference_sigmas"] = float(np.median(error / sigma))
            checks["near_reference_mean"] = info["reference_sigmas"] <= SIGMA_BOUND
    return checks, info, _sha(mean)


def _check_sweep(specs, runs):
    """Batched log densities: all finite on Poisson, equal to the scalar path."""
    checks: dict[str, bool] = {}
    arrays = []
    for spec, run in zip(specs, runs):
        application = spec.application
        rows = run.payload["rows"]
        checks[f"{application}_batched"] = all(row["batch_calls"] > 0 for row in rows)
        if application == "poisson":
            checks["poisson_all_finite"] = all(
                row["finite_fraction"] == 1.0 for row in rows
            )
        # The driver draws each level's block from one generator seeded with
        # the spec seed, level by level; redraw the same blocks here.
        rng = np.random.default_rng(spec.seed)
        num_draws = int(spec.sampler["num_draws"])
        parity = True
        for level in range(run.factory.num_levels()):
            problem = run.factory.problem_for_level(level)
            thetas = rng.normal(
                0.0, float(spec.sampler["draw_std"]), size=(num_draws, problem.dim)
            )
            batched = np.asarray(run.raw[level], dtype=float)
            arrays.append(batched)
            scalar = np.array(
                [problem.log_density(theta) for theta in thetas[:PARITY_ROWS]]
            )
            head = batched[:PARITY_ROWS]
            finite = np.isfinite(scalar)
            parity = parity and bool(
                np.array_equal(finite, np.isfinite(head))
                and np.array_equal(scalar[~finite], head[~finite])
                and np.allclose(scalar[finite], head[finite], rtol=1e-9, atol=0.0)
            )
        checks[f"{application}_scalar_parity"] = parity
    return checks, {}, _sha(*arrays)


def check_run(workload, specs, runs, references: dict, full_size: bool):
    """``(checks, diagnostics, mean_sha)`` of one workload execution."""
    if workload.check == "batch":
        return _check_sweep(specs, runs)
    reference = references.get(workload.twin or workload.name, {})
    return _check_estimate(workload, specs[0], runs[0], reference, full_size)
