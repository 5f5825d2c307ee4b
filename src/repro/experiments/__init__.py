"""Unified experiment subsystem.

Every example and paper reproduction in this repository is a *scenario*: a
declarative :class:`ExperimentSpec` naming the application, the model
hierarchy, the sampler parameters and a scaled-down ``--quick`` tier.  The registry enumerates them all; the runner executes a
spec through its driver and writes a versioned, schema-validated JSON
manifest so runs stay comparable across PRs.

Typical usage::

    from repro.experiments import run_scenario, scenario_names

    print(scenario_names())                      # all registered scenarios
    run = run_scenario("table3-poisson-multilevel", quick=True, out_dir="runs")
    print(run.payload["levels"])                 # JSON-safe results
    print(run.manifest_path)                     # runs/table3-...manifest.json

or, from the command line::

    python -m repro run --list
    python -m repro run table3-poisson-multilevel --quick --out runs
"""

from repro.experiments.drivers import (
    DriverResult,
    RunContext,
    driver,
    driver_names,
    get_driver,
    run_context,
)
from repro.experiments.manifest import (
    MANIFEST_SCHEMA_VERSION,
    ManifestError,
    build_manifest,
    validate_manifest,
    write_manifest,
)
from repro.experiments.presets import build_factory, scaled
from repro.experiments.registry import (
    UnknownScenarioError,
    all_scenarios,
    get_scenario,
    register,
    scenario_names,
)
from repro.experiments.report import format_rows, print_rows
from repro.experiments.runner import BackendNotApplicableError, ScenarioRun, run_scenario
from repro.experiments.spec import ExperimentSpec, spec_hash

__all__ = [
    "BackendNotApplicableError",
    "DriverResult",
    "ExperimentSpec",
    "MANIFEST_SCHEMA_VERSION",
    "ManifestError",
    "RunContext",
    "ScenarioRun",
    "UnknownScenarioError",
    "all_scenarios",
    "build_factory",
    "build_manifest",
    "driver",
    "driver_names",
    "format_rows",
    "get_driver",
    "get_scenario",
    "print_rows",
    "register",
    "run_context",
    "run_scenario",
    "scaled",
    "scenario_names",
    "spec_hash",
    "validate_manifest",
    "write_manifest",
]
