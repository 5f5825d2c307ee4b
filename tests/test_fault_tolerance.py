"""Fault tolerance: fault injection, checkpoint/resume, dead-rank recovery.

Covers the robustness subsystem around the parallel MLMCMC machine:

* declarative :class:`FaultPlan` (role addressing, JSON round-trip),
* chain and checkpoint snapshots (bitwise continuation, signature guards),
* simulated-backend chaos (deterministic degradation, no livelock),
* multiprocess recovery (kill → respawn → complete) and graceful degradation
  (budget exhausted → partial result + FailureReport, never a bare crash),
* checkpoint/resume identity: a resumed zero-fault run reproduces the
  original estimate bitwise,
* the plumbing satellites: dropped-send accounting, atomic manifests and the
  ``--checkpoint-dir/--resume/--fault-plan`` runner options.
"""

from __future__ import annotations

import queue as queue_module

import numpy as np
import pytest

from repro.core import CostModel
from repro.core.chain import SingleChainMCMC
from repro.core.kernels import MHKernel
from repro.core.problem import GaussianTargetProblem
from repro.core.proposals import AdaptiveMetropolisProposal, GaussianRandomWalkProposal
from repro.experiments import run_scenario, validate_manifest
from repro.experiments.manifest import ManifestError, write_manifest
from repro.experiments.runner import BackendNotApplicableError
from repro.models.gaussian import GaussianHierarchyFactory
from repro.parallel import (
    CheckpointConfig,
    CheckpointError,
    Checkpointer,
    EvaluatorFault,
    FaultPlan,
    FaultToleranceConfig,
    InjectedEvaluatorError,
    ParallelMLMCMCSampler,
    RankKill,
)
from repro.parallel.mp import _ProcessTransport, _QueueLink
from repro.parallel.transport import Message


@pytest.fixture(scope="module")
def factory():
    return GaussianHierarchyFactory(dim=2, num_levels=3, subsampling=3)


def _sampler(factory, sampler_class=ParallelMLMCMCSampler, **overrides):
    options = dict(
        num_samples=[60, 24, 10],
        num_ranks=10,
        cost_model=CostModel([0.01, 0.04, 0.16]),
        seed=5,
    )
    options.update(overrides)
    return sampler_class(factory, **options)


def _chain(seed: int = 0) -> SingleChainMCMC:
    problem = GaussianTargetProblem(np.zeros(2), 1.0)
    kernel = MHKernel(problem, GaussianRandomWalkProposal(0.5, dim=2))
    return SingleChainMCMC(
        kernel, np.zeros(2), np.random.default_rng(seed), burnin=5
    )


# ----------------------------------------------------------------------------
class TestChainSnapshot:
    def test_restored_chain_continues_bitwise_identically(self):
        reference = _chain()
        reference.run(40)

        snapshotted = _chain()
        snapshotted.run(15)
        state = snapshotted.state_dict()

        restored = _chain(seed=999)  # wrong rng seed: must be overwritten
        restored.load_state_dict(state)
        restored.run_steps(reference.steps_taken - restored.steps_taken)

        np.testing.assert_array_equal(
            reference.samples.parameters(), restored.samples.parameters()
        )
        np.testing.assert_array_equal(
            reference.corrections.fine_matrix(), restored.corrections.fine_matrix()
        )
        assert reference.steps_taken == restored.steps_taken

    def test_adaptive_proposal_resumes_its_adaptation(self):
        """A resumed Adaptive Metropolis chain keeps its adapted covariance.

        Snapshot at step 300 of a chain that adapts every 10 steps from step
        20: unless the proposal's history moments and Cholesky factor travel
        with the snapshot, the resumed chain restarts from the initial
        covariance and drifts off the uninterrupted trajectory.
        """

        def adaptive_chain(seed: int) -> SingleChainMCMC:
            problem = GaussianHierarchyFactory(dim=2).problem_for_level(0)
            proposal = AdaptiveMetropolisProposal(
                1.0, dim=2, adapt_start=20, adapt_interval=10
            )
            return SingleChainMCMC(
                MHKernel(problem, proposal), np.zeros(2), np.random.default_rng(seed)
            )

        reference = adaptive_chain(3)
        reference.run_steps(500)

        snapshotted = adaptive_chain(3)
        snapshotted.run_steps(300)
        restored = adaptive_chain(999)  # wrong rng seed: must be overwritten
        restored.load_state_dict(snapshotted.state_dict())
        restored.run_steps(200)

        np.testing.assert_allclose(
            reference.current_state.parameters, [4.246, 0.660], atol=5e-4
        )
        np.testing.assert_array_equal(
            reference.current_state.parameters, restored.current_state.parameters
        )
        np.testing.assert_array_equal(
            reference.samples.parameters(), restored.samples.parameters()
        )
        assert (
            restored.kernel.proposal.num_adaptations
            == reference.kernel.proposal.num_adaptations
        )

    def test_level_mismatch_rejected(self):
        state = _chain().state_dict()
        state["level"] = 3
        with pytest.raises(ValueError, match="level"):
            _chain().load_state_dict(state)


# ----------------------------------------------------------------------------
class TestFaultPlan:
    def test_round_trips_through_json_layout(self):
        plan = FaultPlan(
            seed=11,
            kills=[RankKill(after_events=40, role="controller", index=2)],
            evaluator_faults=[EvaluatorFault(after_computes=7, rank=4)],
        )
        assert FaultPlan.from_dict(plan.as_dict()) == plan

    def test_resolve_maps_roles_to_ranks(self, factory):
        sampler = _sampler(
            factory,
            fault_plan=FaultPlan(seed=1, kills=[RankKill(after_events=9, role="root")]),
        )
        (kill,) = sampler.fault_plan.kills
        assert kill.rank == sampler.layout.root_rank
        assert kill.role is None

    def test_resolve_rejects_out_of_range_index(self, factory):
        plan = FaultPlan(seed=1, kills=[RankKill(after_events=9, role="root", index=5)])
        with pytest.raises(ValueError, match=r"root\[5\]"):
            _sampler(factory, fault_plan=plan)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            FaultPlan.from_dict({"seed": 1, "kils": []})

    def test_fault_address_requires_exactly_one_of_rank_or_role(self):
        with pytest.raises(ValueError, match="exactly one"):
            RankKill(after_events=1)
        with pytest.raises(ValueError, match="exactly one"):
            RankKill(after_events=1, rank=2, role="worker")


# ----------------------------------------------------------------------------
class TestCheckpointer:
    def _checkpointer(self, tmp_path, signature=None):
        return Checkpointer(
            CheckpointConfig(directory=tmp_path / "ck"),
            signature if signature is not None else {"seed": 5},
        )

    def test_write_read_round_trip(self, tmp_path):
        ck = self._checkpointer(tmp_path)
        ck.write(7, "controller", {"level": 1, "data": np.arange(3)})
        payload = self._checkpointer(tmp_path).read(7, "controller")
        assert payload["level"] == 1
        np.testing.assert_array_equal(payload["data"], np.arange(3))

    def test_signature_mismatch_raises(self, tmp_path):
        self._checkpointer(tmp_path).write(7, "controller", {"level": 1})
        other = self._checkpointer(tmp_path, signature={"seed": 6})
        with pytest.raises(CheckpointError, match="signature"):
            other.read(7, "controller")
        # bulk snapshot collection skips (never folds in) mismatched files
        assert other.snapshots("controller") == {}

    def test_missing_snapshot_is_none_not_error(self, tmp_path):
        ck = self._checkpointer(tmp_path)
        assert ck.read(3, "collector") is None
        assert ck.read_final() is None


# ----------------------------------------------------------------------------
class TestSimulatedChaos:
    KILL_PLAN = FaultPlan(seed=3, kills=[RankKill(after_events=60, role="controller")])

    def test_kill_degrades_deterministically_with_fault_tolerance(self, factory):
        def go():
            result = _sampler(
                factory,
                fault_plan=self.KILL_PLAN,
                fault_tolerance=FaultToleranceConfig(),
            ).run()
            return result

        first, second = go(), go()
        for result in (first, second):
            assert result.degraded
            assert result.failure_report is not None
            assert not result.failure_report.recovered
            assert "no rank recovery" in result.failure_report.exhausted_reason
            # every salvaged collection passed its internal-consistency checks
            for collection in result.corrections.values():
                collection.validate()
            with pytest.raises(RuntimeError, match="degraded"):
                result.mean
        assert [f.rank for f in first.failure_report.failures] == [
            f.rank for f in second.failure_report.failures
        ]
        assert first.failure_report.salvaged_per_level == (
            second.failure_report.salvaged_per_level
        )
        assert first.virtual_time == second.virtual_time

    def test_kill_without_fault_tolerance_raises_legacy_error(self, factory):
        with pytest.raises(RuntimeError, match="killed by the fault plan"):
            _sampler(factory, fault_plan=self.KILL_PLAN).run()

    def test_injected_evaluator_fault_raises(self, factory):
        plan = FaultPlan(
            seed=2,
            evaluator_faults=[EvaluatorFault(after_computes=5, role="controller")],
        )
        with pytest.raises(InjectedEvaluatorError, match="model evaluation"):
            _sampler(factory, fault_plan=plan).run()

    def test_plan_without_faults_changes_nothing(self, factory):
        baseline = _sampler(factory).run()
        with_plan = _sampler(factory, fault_plan=FaultPlan(seed=9)).run()
        np.testing.assert_array_equal(baseline.mean, with_plan.mean)
        assert baseline.virtual_time == with_plan.virtual_time


# ----------------------------------------------------------------------------
# Kill points of the real-process recovery tests.  A kill only tests recovery
# if it is handled before the run can complete; after that the death is
# shutdown noise and no respawn is the designed outcome.  The kills sit at the
# rank's first few events (the worker's first evaluation order, the
# controller's first burn-in steps after registering), which every run
# reaches, and the root holds its completion until each has been respawned,
# so a run that finishes faster than the supervisor notices a death still
# tests recovery.
CONTROLLER_KILL_EVENTS = 6
WORKER_KILL_EVENTS = 3


class _HeldSampler(ParallelMLMCMCSampler):
    """A sampler whose root waits until every scripted kill was respawned."""

    def build_world(self):
        world, root, phonebook = super().build_world()
        root.hold_for_restarts = len(self.fault_plan.kills)
        return world, root, phonebook


def _held_sampler(factory, **overrides):
    return _sampler(factory, sampler_class=_HeldSampler, **overrides)


class TestMultiprocessRecovery:
    def test_killed_controller_is_respawned_and_run_completes(self, factory):
        plan = FaultPlan(
            seed=7,
            kills=[
                RankKill(after_events=CONTROLLER_KILL_EVENTS, role="controller", index=0)
            ],
        )
        result = _held_sampler(
            factory,
            backend="multiprocess",
            fault_plan=plan,
            fault_tolerance=FaultToleranceConfig(),
        ).run()
        assert not result.degraded
        report = result.failure_report
        assert report is not None and report.recovered
        assert report.restarts_used >= 1
        assert any(f.role == "controller" for f in report.failures)
        assert any(r.role == "controller" for r in report.reassignments)
        # the machine still met its collection targets through the respawn
        for level, target in enumerate([60, 24, 10]):
            assert len(result.corrections[level]) >= target
        assert np.all(np.isfinite(result.mean))
        assert np.linalg.norm(result.mean - factory.exact_mean()) < 1.5

    def test_non_restartable_death_degrades_instead_of_raising(self, factory):
        plan = FaultPlan(seed=3, kills=[RankKill(after_events=4, role="root")])
        result = _sampler(
            factory,
            backend="multiprocess",
            fault_plan=plan,
            fault_tolerance=FaultToleranceConfig(),
        ).run()
        assert result.degraded
        report = result.failure_report
        assert not report.recovered
        assert "not restartable" in report.exhausted_reason
        assert report.dead_ranks
        for collection in result.corrections.values():
            collection.validate()

    def test_exhausted_budget_raises_when_policy_is_raise(self, factory):
        plan = FaultPlan(seed=3, kills=[RankKill(after_events=4, role="root")])
        sampler = _sampler(
            factory,
            backend="multiprocess",
            fault_plan=plan,
            fault_tolerance=FaultToleranceConfig(on_exhausted="raise"),
        )
        with pytest.raises(RuntimeError, match="recovery exhausted"):
            sampler.run()


# ----------------------------------------------------------------------------
class TestSocketRecovery:
    """The mp chaos contract must hold verbatim over the TCP transport.

    Heartbeats travel over the wire (the ``lost`` metadata on each recorded
    failure proves the driver was receiving them), dead ranks are respawned
    in place with their undelivered messages replayed by the hub, and a
    non-restartable death degrades into a structured report instead of a
    hang.
    """

    def test_killed_controller_is_respawned_and_run_completes(self, factory):
        plan = FaultPlan(
            seed=7,
            kills=[
                RankKill(after_events=CONTROLLER_KILL_EVENTS, role="controller", index=0)
            ],
        )
        result = _held_sampler(
            factory,
            backend="socket",
            fault_plan=plan,
            # A beat every 100 ms (instead of the 500 ms default) exercises
            # the injectable cadence; the larger grace multiple keeps the
            # absolute hang deadline at 2 s.  Each incarnation also beats
            # once synchronously at startup, so even a kill that fires
            # before the first interval elapses leaves ``lost`` populated.
            fault_tolerance=FaultToleranceConfig(
                heartbeat_interval_s=0.1, heartbeat_grace=20.0
            ),
        ).run()
        assert not result.degraded
        report = result.failure_report
        assert report is not None and report.recovered
        assert report.restarts_used >= 1
        controller_failures = [f for f in report.failures if f.role == "controller"]
        assert controller_failures
        # the heartbeat metadata at last contact arrived over the socket
        assert "level" in controller_failures[0].lost
        assert any(r.role == "controller" for r in report.reassignments)
        for level, target in enumerate([60, 24, 10]):
            assert len(result.corrections[level]) >= target
        assert np.all(np.isfinite(result.mean))
        assert np.linalg.norm(result.mean - factory.exact_mean()) < 1.5

    def test_heartbeats_flow_over_the_wire(self, factory):
        sampler = _sampler(
            factory,
            backend="socket",
            fault_tolerance=FaultToleranceConfig(heartbeat_interval_s=0.05),
        )
        world, _root, _phonebook = sampler.build_world()
        world.run()
        # every rank beats at least once (synchronously at startup), routed
        # child -> hub -> driver over TCP frames rather than an OS queue
        assert world.heartbeats_received >= sampler.layout.num_ranks

    def test_killed_worker_is_respawned_and_run_completes(self, factory):
        plan = FaultPlan(
            seed=5, kills=[RankKill(after_events=WORKER_KILL_EVENTS, role="worker", index=0)]
        )
        result = _held_sampler(
            factory,
            backend="socket",
            num_ranks=16,
            workers_per_group=1,
            fault_plan=plan,
            fault_tolerance=FaultToleranceConfig(),
        ).run()
        assert not result.degraded
        report = result.failure_report
        assert report is not None and report.recovered
        assert any(f.role == "worker" for f in report.failures)
        assert any(r.role == "worker" for r in report.reassignments)
        assert np.all(np.isfinite(result.mean))

    def test_root_kill_degrades_with_structured_report_not_a_hang(self, factory):
        plan = FaultPlan(seed=3, kills=[RankKill(after_events=4, role="root")])
        result = _sampler(
            factory,
            backend="socket",
            fault_plan=plan,
            fault_tolerance=FaultToleranceConfig(),
        ).run()
        assert result.degraded
        report = result.failure_report
        assert not report.recovered
        assert "not restartable" in report.exhausted_reason
        assert report.dead_ranks
        for collection in result.corrections.values():
            collection.validate()


# ----------------------------------------------------------------------------
class TestTimeoutInjection:
    """Receive deadlines and poll cadence are injectable — no fixed sleeps."""

    def test_receive_poll_interval_bounds_timeout_latency(self, factory):
        from repro.parallel.transport import Receive, ReceiveTimeout
        from repro.parallel.roles.root import RootProcess

        import time as time_module

        process = RootProcess(0, _sampler(factory).config)
        transport = _ProcessTransport(
            rank=0,
            link=_QueueLink(0, {0: queue_module.Queue()}, queue_module.Queue()),
            origin=time_module.perf_counter(),
            trace_enabled=False,
            receive_timeout_s=0.1,
            receive_poll_s=0.02,
        )
        start = time_module.perf_counter()
        with pytest.raises(ReceiveTimeout):
            transport._blocking_receive(process, Receive(tags=("NEVER_SENT",)))
        elapsed = time_module.perf_counter() - start
        # deadline + at most one poll interval of overshoot (plus margin):
        # with the legacy hard-coded 1.0 s poll this would take >= 1 s.
        assert 0.1 <= elapsed < 0.5

    @pytest.mark.parametrize(
        "option, value",
        [
            ("receive_poll_s", 0.0),
            # a zero grace declares every rank hung at the first liveness check
            ("heartbeat_grace", 0.0),
            ("heartbeat_grace", -1.0),
            # a zero timeout fails every receive that finds its mailbox empty
            ("receive_timeout_s", 0.0),
            ("receive_timeout_s", -1.0),
            ("restart_backoff_s", -0.25),
        ],
    )
    def test_receive_poll_must_be_positive(self, option, value):
        with pytest.raises(ValueError, match=option):
            FaultToleranceConfig(**{option: value})

    def test_config_round_trips_with_injected_timeouts(self):
        config = FaultToleranceConfig(
            heartbeat_interval_s=0.05, receive_timeout_s=0.5, receive_poll_s=0.01
        )
        assert FaultToleranceConfig.from_dict(config.as_dict()) == config


# ----------------------------------------------------------------------------
class TestCheckpointResume:
    def test_resumed_run_is_bitwise_identical(self, factory, tmp_path):
        checkpoint = CheckpointConfig(directory=tmp_path / "ck")
        original = _sampler(factory, checkpoint=checkpoint).run()
        resumed = _sampler(factory, checkpoint=checkpoint, resume=True).run()

        assert resumed.resumed_from is not None
        assert resumed.resumed_from.endswith("final.ckpt")
        np.testing.assert_array_equal(original.mean, resumed.mean)
        for level, collection in original.corrections.items():
            np.testing.assert_array_equal(
                collection.fine_matrix(), resumed.corrections[level].fine_matrix()
            )
        assert original.samples_per_level == resumed.samples_per_level

    def test_resume_without_checkpoint_config_rejected(self, factory):
        with pytest.raises(ValueError, match="resume"):
            _sampler(factory, resume=True).run()

    def test_resume_without_final_snapshot_runs_normally(self, factory, tmp_path):
        checkpoint = CheckpointConfig(directory=tmp_path / "empty")
        result = _sampler(factory, checkpoint=checkpoint, resume=True).run()
        assert result.resumed_from is None
        assert np.all(np.isfinite(result.mean))

    def test_mid_run_snapshots_salvage_partial_levels(self, factory, tmp_path):
        # A degraded run with checkpointing recovers collector snapshots for
        # levels the root never received in full.
        checkpoint = CheckpointConfig(directory=tmp_path / "ck", every_samples=2)
        plan = FaultPlan(
            seed=3, kills=[RankKill(after_events=60, role="controller")]
        )
        result = _sampler(
            factory,
            fault_plan=plan,
            fault_tolerance=FaultToleranceConfig(),
            checkpoint=checkpoint,
        ).run()
        assert result.degraded
        salvaged = result.failure_report.salvaged_per_level
        assert salvaged, "nothing salvaged despite periodic checkpoints"
        for level, collection in result.corrections.items():
            collection.validate()
            assert salvaged[level] == len(collection)


# ----------------------------------------------------------------------------
class TestDropAccounting:
    def test_send_to_unknown_rank_is_counted_not_lost_silently(self):
        link = _QueueLink(0, {0: queue_module.Queue()}, queue_module.Queue())
        transport = _ProcessTransport(
            rank=0, link=link, origin=0.0, trace_enabled=False
        )
        transport._post(Message(source=0, dest=99, tag="X", payload=None))
        assert transport.messages_dropped == 1
        assert transport.messages_sent == 0
        transport._post(Message(source=0, dest=0, tag="X", payload=None))
        assert transport.messages_dropped == 1
        assert transport.messages_sent == 1

    def test_world_summary_surfaces_drop_counters(self, factory):
        sampler = _sampler(factory, backend="multiprocess")
        world, _root, _phonebook = sampler.build_world()
        world.run()
        summary = world.summary()
        assert summary["messages_dropped"] == 0
        assert summary["chaos_dropped"] == 0


# ----------------------------------------------------------------------------
class TestManifestPlumbing:
    def test_manifest_requires_fault_tolerance_field(self, tmp_path):
        run = run_scenario("example-load-balancing", quick=True, out_dir=tmp_path)
        manifest = dict(run.manifest)
        validate_manifest(manifest)
        del manifest["fault_tolerance"]
        with pytest.raises(ManifestError, match="fault_tolerance"):
            validate_manifest(manifest)

    def test_write_manifest_is_atomic_leaves_no_temp_files(self, tmp_path):
        run = run_scenario("example-load-balancing", quick=True)
        path = write_manifest(run.manifest, tmp_path)
        assert path.exists()
        leftovers = [p for p in tmp_path.iterdir() if p != path]
        assert leftovers == []

    def test_failed_write_cleans_up_its_temp_file(self, tmp_path):
        run = run_scenario("example-load-balancing", quick=True)
        manifest = dict(run.manifest)
        manifest["results"] = {"bad": float("nan")}
        # _scrub normally prevents this; simulate a corrupted payload reaching
        # the writer and confirm validation stops it with no debris on disk.
        with pytest.raises(ManifestError):
            write_manifest(manifest, tmp_path)
        assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------------
class TestRunnerOptions:
    def test_fault_options_rejected_for_non_parallel_scenarios(self, tmp_path):
        with pytest.raises(BackendNotApplicableError, match="checkpoint"):
            run_scenario(
                "table3-poisson-multilevel", quick=True, checkpoint_dir=tmp_path
            )
        with pytest.raises(BackendNotApplicableError, match="fault"):
            run_scenario(
                "table3-poisson-multilevel", quick=True, fault_plan=FaultPlan(seed=1)
            )

    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(BackendNotApplicableError, match="resume"):
            run_scenario("example-load-balancing", quick=True, resume=True)

    def test_scenario_checkpoint_resume_round_trip(self, tmp_path):
        ck = tmp_path / "ck"
        first = run_scenario("example-load-balancing", quick=True, checkpoint_dir=ck)
        second = run_scenario(
            "example-load-balancing", quick=True, checkpoint_dir=ck, resume=True
        )
        assert first.payload["mean"] == second.payload["mean"]
        assert first.manifest["fault_tolerance"] == {
            "checkpoint_dir": str(ck),
            "resume_requested": False,
        }
        assert second.manifest["fault_tolerance"]["resumed_from"].endswith(
            "final.ckpt"
        )

    def test_scenario_fault_plan_recorded_in_manifest(self, tmp_path):
        plan = FaultPlan(
            seed=3, kills=[RankKill(after_events=60, role="controller")]
        )
        run = run_scenario(
            "example-load-balancing", quick=True, fault_plan=plan, out_dir=tmp_path
        )
        ft = run.manifest["fault_tolerance"]
        assert ft["fault_plan"] == plan.as_dict()
        assert ft["degraded"] is True
        assert ft["failure_report"]["failures"]
        assert run.payload["mean"] is None
