"""Tests for the experiment subsystem: specs, registry, runner, manifests, CLI."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import (
    MANIFEST_SCHEMA_VERSION,
    ExperimentSpec,
    ManifestError,
    UnknownScenarioError,
    all_scenarios,
    build_manifest,
    get_driver,
    get_scenario,
    run_scenario,
    scenario_names,
    spec_hash,
    validate_manifest,
)
from repro.experiments.presets import resolve_problem_options

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = REPO_ROOT / "benchmarks"

#: every benchmark module must be backed by a registry scenario
BENCH_MODULE_TO_SCENARIO = {
    "bench_ablation_load_balancing": "ablation-load-balancing",
    "bench_ablation_subsampling": "ablation-subsampling",
    "bench_adaptive_allocation": "poisson-adaptive",
    "bench_cost_complexity": "cost-complexity",
    "bench_fem_hotpath": "fem-hotpath",
    "bench_fig02_random_field": "fig02-random-field",
    "bench_fig04_05_buoy_series": "fig04-05-buoy-series",
    "bench_fig09_load_balancing": "fig09-load-balancing",
    "bench_fig10_poisson_field_recovery": "fig10-poisson-field-recovery",
    "bench_fig11_strong_scaling": "fig11-strong-scaling",
    "bench_fig12_weak_scaling": "fig12-weak-scaling",
    "bench_fig13_tsunami_posterior": "fig13-tsunami-posterior",
    "bench_fig14_level_corrections": "fig14-level-corrections",
    "bench_mp_speedup": "poisson-parallel",
    "bench_net_overhead": "poisson-parallel",
    "bench_swe_hotpath": "swe-hotpath",
    "bench_table1_tsunami_likelihood": "table1-tsunami-likelihood",
    "bench_table2_tsunami_levels": "table2-tsunami-levels",
    "bench_table3_poisson_multilevel": "table3-poisson-multilevel",
    "bench_table4_tsunami_multilevel": "table4-tsunami-multilevel",
}

EXAMPLE_SCENARIOS = [
    "example-quickstart",
    "example-poisson-inversion",
    "example-tsunami-inversion",
    "example-scaling-study",
    "example-load-balancing",
]


def _cli(*args: str, cwd: Path | None = None) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd or REPO_ROOT,
    )


# ----------------------------------------------------------------------------
# ExperimentSpec
class TestExperimentSpec:
    def test_round_trip_through_dict(self):
        spec = get_scenario("table3-poisson-multilevel")
        rebuilt = ExperimentSpec.from_dict(spec.as_dict())
        assert rebuilt == spec
        assert rebuilt.as_dict() == spec.as_dict()

    def test_hash_is_content_based_and_stable(self):
        spec = get_scenario("example-quickstart")
        assert spec.hash() == ExperimentSpec.from_dict(spec.as_dict()).hash()
        assert spec.hash() != get_scenario("example-poisson-inversion").hash()
        # resolving run-time overrides changes the identity
        assert spec.resolved(quick=True).hash() != spec.resolved().hash()
        assert spec.resolved(seed=123).hash() != spec.resolved().hash()

    def test_seed_override(self):
        spec = get_scenario("example-quickstart").resolved(seed=7)
        assert spec.seed == 7
        assert spec.evaluation == {}

    def test_resolved_takes_no_backend_override(self):
        with pytest.raises(TypeError, match="backend"):
            get_scenario("example-quickstart").resolved(backend="pool")

    def test_quick_resolution_merges_overrides(self):
        spec = get_scenario("table3-poisson-multilevel")
        quick = spec.resolved(quick=True)
        assert quick.sampler["num_samples"] == [24, 12, 6]
        # non-overridden keys survive the merge
        assert quick.sampler["burnin_floor"] == spec.sampler["burnin_floor"]
        assert quick.quick == {}

    @pytest.mark.parametrize(
        "evaluation",
        [
            {"backend": "caching"},
            {"backend": "pool"},
            {"backend": "inprocess"},
            {"options": {"cache_size": 128}},
            {"backend": "batch", "options": {"max_batch_size": 4}},
        ],
    )
    def test_removed_evaluator_choices_are_rejected(self, evaluation):
        with pytest.raises(ValueError, match="evaluation backends and their options were removed"):
            ExperimentSpec(name="x", driver="sequential", evaluation=evaluation)

    @pytest.mark.parametrize("evaluation", [{}, {"backend": "batch"}])
    def test_accepted_evaluation_values_round_trip(self, evaluation):
        spec = ExperimentSpec(name="x", driver="sequential", evaluation=evaluation)
        rebuilt = ExperimentSpec.from_dict(spec.as_dict())
        assert rebuilt.evaluation == evaluation
        assert rebuilt.hash() == spec.hash()

    def test_batch_evaluation_is_a_recorded_no_op(self):
        plain = ExperimentSpec(name="x", driver="forward-sweep", application="gaussian")
        batch = ExperimentSpec(
            name="x", driver="forward-sweep", application="gaussian",
            evaluation={"backend": "batch"},
        )
        assert batch.as_dict()["evaluation"] == {"backend": "batch"}
        timing = ("sweep_time_s", "per_draw_ms")
        plain_rows, batch_rows = (
            [{k: v for k, v in row.items() if k not in timing} for row in run_scenario(spec).payload["rows"]]
            for spec in (plain, batch)
        )
        assert plain_rows == batch_rows
        assert all(row["batch_calls"] > 0 for row in batch_rows)


# ----------------------------------------------------------------------------
# registry
class TestRegistry:
    def test_at_least_20_scenarios(self):
        assert len(scenario_names()) >= 20

    def test_every_benchmark_module_has_a_scenario(self):
        modules = sorted(
            path.stem for path in BENCH_DIR.glob("bench_*.py")
        )
        assert modules == sorted(BENCH_MODULE_TO_SCENARIO), (
            "benchmark modules and the completeness map diverged"
        )
        names = set(scenario_names())
        missing = {
            module: scenario
            for module, scenario in BENCH_MODULE_TO_SCENARIO.items()
            if scenario not in names
        }
        assert not missing

    def test_every_example_has_a_scenario(self):
        names = set(scenario_names())
        assert set(EXAMPLE_SCENARIOS) <= names

    def test_every_scenario_has_driver_quick_tier_and_metadata(self):
        for spec in all_scenarios():
            get_driver(spec.driver)  # raises on unknown driver
            assert spec.description, spec.name
            assert spec.quick, f"{spec.name} lacks a --quick tier"
            # problem presets must resolve
            resolve_problem_options(spec.application, spec.problem)

    def test_unknown_scenario_raises(self):
        with pytest.raises(UnknownScenarioError):
            get_scenario("no-such-scenario")

    def test_no_scenario_selects_an_evaluator(self):
        assert get_scenario("tsunami-batch").evaluation == {}
        for spec in all_scenarios():
            assert spec.evaluation == {}, spec.name


# ----------------------------------------------------------------------------
# runner + manifest
class TestRunnerAndManifest:
    def test_quick_run_writes_schema_valid_manifest(self, tmp_path):
        run = run_scenario("example-quickstart", quick=True, out_dir=tmp_path)
        assert run.manifest_path is not None and run.manifest_path.exists()
        on_disk = json.loads(run.manifest_path.read_text())
        validate_manifest(on_disk)
        assert on_disk["scenario"] == "example-quickstart"
        assert on_disk["quick"] is True
        assert on_disk["spec_hash"] == spec_hash(on_disk["spec"])
        # per-level evaluation accounting made it into the manifest
        assert [e["level"] for e in on_disk["evaluations"]] == [0, 1, 2]
        assert all(e["log_density_evaluations"] > 0 for e in on_disk["evaluations"])
        # the workload environment is part of the run's identity
        from repro.experiments.presets import paper_scale, sample_scale

        assert on_disk["environment"] == {
            "bench_scale": sample_scale(),
            "paper_scale": paper_scale(),
        }
        # and the payload carries the estimates
        assert len(on_disk["results"]["sequential"]["mean"]) == 2

    def test_spec_round_trip_parse_run_manifest(self, tmp_path):
        spec = ExperimentSpec.from_dict(
            get_scenario("ablation-subsampling").resolved(quick=True).as_dict()
        )
        run = run_scenario(spec, out_dir=tmp_path)
        assert run.manifest["spec"] == spec.as_dict()
        assert run.manifest["spec_hash"] == spec.hash()
        rows = run.payload["rows"]
        assert [row["rho"] for row in rows] == [1, 4]

    def test_dual_run_drivers_account_all_evaluations(self):
        run = run_scenario("example-quickstart", quick=True)
        seq = run.raw["sequential"].evaluation_stats
        par = run.raw["parallel"].evaluation_stats
        for entry in run.manifest["evaluations"]:
            level = entry["level"]
            assert entry["log_density_evaluations"] == (
                seq[level].log_density_evaluations + par[level].log_density_evaluations
            )

    def test_manifest_schema_6_has_no_backend_field(self):
        spec = get_scenario("example-quickstart").resolved(quick=True)
        manifest = build_manifest(spec, results={"ok": 1}, wall_time_s=0.1)
        assert manifest["schema_version"] == MANIFEST_SCHEMA_VERSION == 6
        assert "backend" not in manifest
        validate_manifest(manifest)
        with pytest.raises(ManifestError, match="schema_version"):
            validate_manifest({**manifest, "schema_version": 5})

    def test_evaluation_entries_carry_the_benchmark_counters(self):
        from repro.evaluation import EvaluatorStats
        from repro.experiments.drivers import _stats_entries

        stats = EvaluatorStats(log_density_evaluations=5, qoi_evaluations=2, batch_calls=1)
        entries = _stats_entries({1: stats, 0: EvaluatorStats()})
        assert [entry["level"] for entry in entries] == [0, 1]
        # the keys the perf benchmark reads from every entry
        for entry in entries:
            assert {
                "level", "log_density_evaluations", "qoi_evaluations",
                "cache_hits", "qoi_cache_hits", "batch_calls",
            } <= set(entry)
            assert entry["cache_hits"] == entry["qoi_cache_hits"] == 0
        assert entries[1]["log_density_evaluations"] == 5
        assert entries[1]["batch_calls"] == 1

    def test_validate_rejects_tampered_manifest(self):
        spec = get_scenario("example-quickstart").resolved(quick=True)
        manifest = build_manifest(spec, results={"ok": 1}, wall_time_s=0.1)
        validate_manifest(manifest)
        bad = dict(manifest)
        bad["spec"] = {**manifest["spec"], "seed": 999}
        with pytest.raises(ManifestError, match="spec_hash"):
            validate_manifest(bad)
        with pytest.raises(ManifestError, match="missing field"):
            validate_manifest({"schema_version": 1})


# ----------------------------------------------------------------------------
# CLI
class TestCLI:
    def test_run_list_exits_zero_and_lists_everything(self):
        result = _cli("run", "--list")
        assert result.returncode == 0
        for name in scenario_names():
            assert name in result.stdout

    def test_unknown_scenario_exits_2_with_message(self):
        result = _cli("run", "no-such-scenario")
        assert result.returncode == 2
        assert "unknown scenario" in result.stderr

    def test_missing_scenario_name_exits_2(self):
        result = _cli("run")
        assert result.returncode == 2

    def test_run_quick_writes_manifest_and_validate_accepts_it(self, tmp_path):
        result = _cli(
            "run", "fig02-random-field", "--quick", "--out", str(tmp_path)
        )
        assert result.returncode == 0, result.stderr
        manifest_path = tmp_path / "fig02-random-field.manifest.json"
        assert manifest_path.exists()
        assert "manifest written to" in result.stdout

        check = _cli("validate", str(manifest_path))
        assert check.returncode == 0, check.stderr
        assert "ok" in check.stdout

    def test_backend_override_on_agnostic_scenario_exits_2(self):
        # the evaluation-backend flag is gone: argparse rejects it as a usage error
        result = _cli("run", "fem-hotpath", "--quick", "--backend", "pool")
        assert result.returncode == 2
        assert "backend" in result.stderr

    def test_backend_flag_rejected_on_sampling_scenario(self):
        result = _cli("run", "example-quickstart", "--quick", "--backend", "caching")
        assert result.returncode == 2
        assert "--backend" in result.stderr

    def test_validate_rejects_corrupt_manifest(self, tmp_path):
        bad = tmp_path / "bad.manifest.json"
        bad.write_text(json.dumps({"schema_version": 1}))
        result = _cli("validate", str(bad))
        assert result.returncode == 1
        assert "INVALID" in result.stderr
