"""Execute experiment scenarios and emit run manifests.

:func:`run_scenario` is the one entry point everything funnels through: the
``python -m repro`` CLI, the ported ``examples/*.py`` scripts and the
benchmark suite all resolve a spec (registry name or ad-hoc
:class:`ExperimentSpec`), hand it to its driver, and receive a
:class:`ScenarioRun` carrying the JSON payload, the raw result objects and —
when an output directory is given — the path of the validated manifest.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.experiments.drivers import (
    BUDGETED_DRIVERS,
    PARALLEL_BACKEND_DRIVERS,
    get_driver,
    prewarm,
    run_context,
)
from repro.experiments.manifest import build_manifest, write_manifest
from repro.experiments.registry import get_scenario
from repro.experiments.spec import ExperimentSpec

__all__ = ["BackendNotApplicableError", "ScenarioRun", "run_scenario"]


class BackendNotApplicableError(ValueError):
    """A backend override was passed for a scenario that cannot use one.

    A usage error (CLI exit code 2), distinct from run/validation failures.
    """


@dataclass
class ScenarioRun:
    """One completed scenario execution."""

    #: the resolved spec that actually ran (quick/seed/overrides applied)
    spec: ExperimentSpec
    #: JSON-safe results (the manifest's ``results`` field)
    payload: dict
    #: driver-specific result object(s) for in-process consumers
    raw: Any
    #: the model-hierarchy factory used by the run (``None`` for some drivers)
    factory: Any
    #: the full, schema-valid manifest
    manifest: dict
    #: where the manifest was written (``None`` unless ``out_dir`` was given)
    manifest_path: Path | None
    #: wall-clock duration of the driver execution in seconds
    wall_time_s: float


def run_scenario(
    scenario: str | ExperimentSpec,
    quick: bool = False,
    seed: int | None = None,
    out_dir: str | Path | None = None,
    parallel_backend: str | None = None,
    checkpoint_dir: str | Path | None = None,
    resume: bool = False,
    fault_plan: Any = None,
    target_mse: float | None = None,
    cost_budget: float | None = None,
) -> ScenarioRun:
    """Run one scenario end to end.

    Parameters
    ----------
    scenario:
        Registry name (see ``python -m repro run --list``) or an ad-hoc spec.
    quick:
        Apply the spec's quick-tier overrides (CI smoke mode).
    seed:
        Override the spec's base seed.
    out_dir:
        When given, the validated manifest is written to
        ``<out_dir>/<name>.manifest.json``.
    parallel_backend:
        Override the parallel transport backend (``"simulated"``,
        ``"multiprocess"`` or ``"socket"``).  Rejected for scenarios whose
        driver does not
        run the parallel MLMCMC machine on a spec-selected transport
        (:data:`repro.experiments.drivers.PARALLEL_BACKEND_DRIVERS`).
    checkpoint_dir:
        Directory for in-flight sampling snapshots (parallel-machine
        scenarios only).  Deliberately *not* a spec field: the spec hash must
        describe the experiment, not the robustness harness around one
        execution of it.
    resume:
        Restart from the latest snapshot in ``checkpoint_dir`` instead of
        sampling from scratch; requires ``checkpoint_dir``.
    fault_plan:
        A :class:`repro.parallel.FaultPlan` of seeded faults (rank kills,
        message drops/delays, evaluator exceptions) to inject into the run.
        Like the checkpoint options, rejected
        (:class:`BackendNotApplicableError`) for scenarios whose driver does
        not run the parallel MLMCMC machine.
    target_mse, cost_budget:
        Mutually exclusive budget objectives switching the run to adaptive
        sample allocation (a :class:`repro.core.allocation.SamplingBudget`
        with the given target estimator MSE or total-cost cap).  The budget
        is part of the experiment's identity, so it lands in the resolved
        spec (and its hash).  Rejected for scenarios whose driver is not in
        :data:`repro.experiments.drivers.BUDGETED_DRIVERS`.

    Examples
    --------
    >>> from repro.experiments import run_scenario
    >>> run = run_scenario("example-quickstart", quick=True)
    >>> sorted(run.payload) # doctest: +NORMALIZE_WHITESPACE
    ['exact_mean', 'parallel', 'sequential']
    """
    spec = scenario if isinstance(scenario, ExperimentSpec) else get_scenario(scenario)
    if parallel_backend is not None and spec.driver not in PARALLEL_BACKEND_DRIVERS:
        raise BackendNotApplicableError(
            f"scenario {spec.name!r} (driver {spec.driver!r}) does not run the "
            "parallel machine on a selectable transport; drop the "
            "parallel-backend override"
        )
    wants_fault_harness = (
        checkpoint_dir is not None or resume or fault_plan is not None
    )
    if wants_fault_harness and spec.driver not in PARALLEL_BACKEND_DRIVERS:
        raise BackendNotApplicableError(
            f"scenario {spec.name!r} (driver {spec.driver!r}) does not run the "
            "parallel MLMCMC machine; drop the checkpoint/resume/fault-plan "
            "options"
        )
    if resume and checkpoint_dir is None:
        raise BackendNotApplicableError(
            "--resume requires --checkpoint-dir (there is nothing to resume from)"
        )
    if target_mse is not None and cost_budget is not None:
        raise BackendNotApplicableError(
            "--target-mse and --budget are mutually exclusive objectives"
        )
    if (target_mse is not None or cost_budget is not None) and (
        spec.driver not in BUDGETED_DRIVERS
    ):
        raise BackendNotApplicableError(
            f"scenario {spec.name!r} (driver {spec.driver!r}) does not run a "
            "budget-driven MLMCMC estimation; drop the --target-mse/--budget "
            "override"
        )
    resolved = spec.resolved(
        quick=quick,
        seed=seed,
        parallel_backend=parallel_backend,
        target_mse=target_mse,
        cost_budget=cost_budget,
    )
    driver = get_driver(resolved.driver)

    # One-off factory setup (memoised per process) stays outside the timed
    # region, so wall_time_s is comparable between cold and warm runs.
    prewarm(resolved)
    start = time.perf_counter()
    with run_context(
        checkpoint_dir=str(checkpoint_dir) if checkpoint_dir is not None else None,
        resume=bool(resume),
        fault_plan=fault_plan,
    ):
        outcome = driver(resolved)
    wall_time_s = time.perf_counter() - start

    # Record the transport backend the run actually used: the resolved spec's
    # selection for parallel-transport drivers (default "simulated"), None for
    # drivers that do not run the parallel machine on a selectable transport.
    effective_parallel_backend = (
        resolved.parallel.get("backend", "simulated")
        if resolved.driver in PARALLEL_BACKEND_DRIVERS
        else None
    )
    manifest = build_manifest(
        resolved,
        results=outcome.payload,
        wall_time_s=wall_time_s,
        evaluations=outcome.evaluations,
        quick=quick,
        parallel_backend=effective_parallel_backend,
        fault_tolerance=outcome.fault_tolerance,
        allocation=outcome.allocation,
    )
    manifest_path = write_manifest(manifest, out_dir) if out_dir is not None else None
    return ScenarioRun(
        spec=resolved,
        payload=outcome.payload,
        raw=outcome.raw,
        factory=outcome.factory,
        manifest=manifest,
        manifest_path=manifest_path,
        wall_time_s=wall_time_s,
    )
