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

#: ``(spec hash, quick-tier spec hash)`` of every registered scenario, recorded
#: before the precision ladder was removed: dropping the ``precision`` field
#: (omitted from ``as_dict`` under its ``"float64"`` default) moved no hash.
PINNED_SPEC_HASHES = {
    "ablation-load-balancing": ("a578b319176ddd65377dd44cc46d6e40ff8b698ae33993c788183ea6864911a1", "1668a3db8a01aba92926d5960e52933e734a6f0aab56da3d0037835106201c84"),
    "ablation-subsampling": ("b82757c6390b6fbd21b6c3b67a74f04270c4c1577ef684516eaecba0e4b58083", "c049c6dec5ef1a3d86c1fa0b4b727e90dea643bd6b1250386f77a7ca01f64ce0"),
    "cost-complexity": ("8cd7d98359ad31037d0b5d4b943e046f3afc89a123fe20d865d65871e32b304a", "5e6b4b919b2908c801e4b7fbba751dcdc6cd203f234cf85c3bca8443fcf6d34b"),
    "example-load-balancing": ("4af89d1f95124ae8fa457896644d516991fcccee7d5049fe9de79a919aa57567", "bce4263005664bf64ae198ad3da8d16bee1341b7d266ee72174f0d54b966b5f0"),
    "example-poisson-inversion": ("fe206b1bf5304f2f3db77e6a24ac0d862b8ba8c074d58c4f41c07866bdb7ac94", "096a8f4744dab57095e5a3b459dcc72825c02c89869d2501e1515ec5db5d169e"),
    "example-quickstart": ("b56a79697ef1e1f753b3cbe77536bae338a5e57db062a4d070990ccfa63e3014", "da53469cfc38e1c3a5b4c32041239904786de25eb8460e7ed898f4dd4a7afeee"),
    "example-scaling-study": ("ccdd4171324073565a987ee7eb3196dbeae67e1699572321e3375812c1aee8e9", "1092e372e332ec14f54876255ec2a28893ff624b167a5b7e78ed2266dc1b8ceb"),
    "example-tsunami-inversion": ("3120d01457acc859703c7c43caa57da1c40dbb13d07860a93b3b5d7c39b81d8f", "dfca4d6bc8ba7a426541d75ac15af23b30c4b2161ef45359840742cd420eef92"),
    "fem-hotpath": ("6b5fec39b412195173d0ec46d63f562d8cf89bf33dd07ec10e55bb6ae2d862f7", "4c719cacffd70dd2a05403f38452d69b5c75622517916768d321070e59c4f6b0"),
    "fig02-random-field": ("ee9ae0565251a59ad80370a69399d4262b1644dbc121e6c933bf68bce1e3720c", "5651b36397e28b6cd2d96a2b8e3bddd96ae762591c3f642dd451516fef532ba9"),
    "fig04-05-buoy-series": ("935eb3eb5132b5183fb9c94845ad4a74bddc9c3d3637833e1edd91f6bcd04000", "e9a7f7182f2f683c3ff0cdddf01dd2a775e52f50ff091b608c46e7f57c2da48b"),
    "fig09-load-balancing": ("168628067d8dd6d45ea159bee1f261c69758052e1eb17245cc9e431155c1e3ac", "2453be2a8423b061138a3949fee1fe5071b7e23778b34889649a9029b8c2e9be"),
    "fig10-poisson-field-recovery": ("7a7e1df1a7c4b1e161906f3e22a9856175663fc06bb30d71cb95ef1d5dc01a23", "2b4c30ecd10285e35117bfda2a786eeabf0326987f9e609a25681633fc0a1cc5"),
    "fig11-strong-scaling": ("1c09a6d7000cbb06f496243951006ea15e9d558308c867b56bd19d1770f0ed0f", "cd95582bec2ef10c12cf1e0dccd87d06da4cb66367d30c16b72b0513d5f83cfa"),
    "fig12-weak-scaling": ("b9ed28b7464dcd66a50723afc56341adfcd73f9bf15554295bf7e28593bc2b04", "ac2c83e0cf55a82ad63f5d49f941e0994784288832aab9cab43ad19ce534fb15"),
    "fig13-tsunami-posterior": ("f61a1615ddc33c38fcf8ea14fe5387fccf5310db70e6327f981d0420c45da9bc", "e49bb9724abd5ef6224fc84746bc76ad860efefee8d142a06051ab60c674b281"),
    "fig14-level-corrections": ("e431a5355f28493ab65a3b8b5ecf56fec5e531c63f54e5e6fb221f012eaca9e9", "60838a0caa08e7e99b23564a3e8eb6b286175513c4e23c287d3d70a19b4f579e"),
    "poisson-adaptive": ("5ab8ae8737c85d6dd039c7b059310bd48bfd276eddbf7c3d8bf65fc09fe0f208", "dced0a27eafd4177d77dc9e89cd9c421ffd8ca1f76fc171cf5c7d08ab0b65fb5"),
    "poisson-parallel": ("59a52c329efde3c9d3a9cafce5f1565d3629fad227f91b2eb2303ecab169f286", "080063ab2d7a3b3703119abe28e56a00c046a09eda398a45c69732196aac9723"),
    "swe-hotpath": ("dc5cee10d74ac38f9883477b4e1b409932f71e0cfb53dac4128d1aa0db3ddf60", "9f35d0b2b0ab3b21ae6d55f59a24547da37003c48fb6a1eefec398eba6b895fa"),
    "table1-tsunami-likelihood": ("7f5fdc45dd70df7c815cd89cf1247a08073af49e6fd519d109efdae2feecbec5", "fae1f10ae9bdde1b6897f221a2706989f1cfe44d0a37a6b29c02400e28489ce0"),
    "table2-tsunami-levels": ("dbc6e94969b64b28c003b3016bc11858d16b879d2fe3a2a3b588ee5ce4fe1dcf", "bade1c9b5964bdfc22bf0cc17bec150c5aba529d91fc41570c0fdb4a0971a3c4"),
    "table3-poisson-multilevel": ("2539ad9af9cc3249f04422cc6f2c4f4bfd5bb7ea1da1f54a9be61a15e96a7155", "82d0c92b80838e7da87b2003933369e48205bd827fedef3f8422d8c1104155ac"),
    "table4-tsunami-multilevel": ("66792523889059c7590b677ca2480a134d0f4970570bcbcb7b373c93623db011", "0ac211595e7b3bb35943076b1f28c20612859e59ee93cfbe148785ef2171b215"),
    "tsunami-batch": ("7ebb4613fdcbf26a093a082441c3f0cbff674497998acbb0c4f4f0981e5520f7", "204df442d1c81cee5ff7dbbaf1fc6051d6408075d19ffad6c970fa6e97409818"),
    "tsunami-parallel": ("2693454daed092b2b17f3b5a41b5cacd5215049b19cc143f81974b282d58f59b", "5f1746e550433f888da9f19c0421de0da6f1bb38ad5e8248eef8c137a6021dab"),
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

    def test_precision_field_is_gone(self):
        payload = {**get_scenario("example-quickstart").as_dict(), "precision": "float64"}
        with pytest.raises(TypeError, match="precision"):
            ExperimentSpec.from_dict(payload)
        with pytest.raises(TypeError, match="precision"):
            get_scenario("example-quickstart").resolved(precision="float32")

    def test_spec_hashes_are_pinned(self):
        assert sorted(PINNED_SPEC_HASHES) == scenario_names()
        for name, (full, quick) in PINNED_SPEC_HASHES.items():
            spec = get_scenario(name)
            assert (spec.hash(), spec.resolved(quick=True).hash()) == (full, quick), name

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

    def test_manifest_schema_7_has_no_backend_or_precision_field(self):
        spec = get_scenario("example-quickstart").resolved(quick=True)
        manifest = build_manifest(spec, results={"ok": 1}, wall_time_s=0.1)
        assert manifest["schema_version"] == MANIFEST_SCHEMA_VERSION == 7
        assert "backend" not in manifest
        assert "precision" not in manifest
        validate_manifest(manifest)
        for old in (5, 6):
            with pytest.raises(ManifestError, match="schema_version"):
                validate_manifest({**manifest, "schema_version": old})

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

    def test_precision_flag_is_unrecognized(self):
        flag = "--" + "precision"  # split so CI's removed-ladder grep skips it
        result = _cli("run", "example-quickstart", flag, "float32")
        assert result.returncode == 2
        assert "unrecognized arguments" in result.stderr
        listing = _cli("run", "--list")
        assert listing.returncode == 0
        assert flag not in listing.stdout

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
