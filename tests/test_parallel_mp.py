"""Transport backends: simulated/multiprocess parity, mp smoke, plumbing.

Covers the transport abstraction introduced for the parallel MLMCMC machine:

* the simulated backend is untouched by the refactor (explicit
  ``backend="simulated"`` is bit-identical to the default, and seeded runs
  stay deterministic),
* the multiprocess backend runs the same role machine on real OS processes
  and satisfies the same collection targets,
* the failure modes fixed alongside: missing level reports fail loudly, and
  disabled tracing yields NaN utilization instead of a fake 0.0,
* the link/fabric contract both real-process backends implement, and a rank
  that exits without reporting failing the run within seconds.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np
import pytest

from repro.experiments import get_scenario, run_scenario
from repro.experiments.runner import BackendNotApplicableError
from repro.models.gaussian import GaussianHierarchyFactory
from repro.parallel import (
    ConstantCostModel,
    FaultToleranceConfig,
    ParallelMLMCMCSampler,
)
from repro.parallel.mp import DRIVER_RANK, MultiprocessWorld, _ProcessTransport, _QueueFabric
from repro.parallel.net import SocketWorld, _Hub
from repro.parallel.trace import TraceRecorder
from repro.parallel.transport import Message, RankProcess, Receive, ReceiveTimeout
from repro.parallel.wire import decode_message


@pytest.fixture(scope="module")
def factory():
    return GaussianHierarchyFactory(dim=2, num_levels=3, subsampling=3)


def _sampler(factory, **overrides):
    options = dict(
        num_samples=[60, 24, 10],
        num_ranks=10,
        cost_model=ConstantCostModel([0.01, 0.04, 0.16]),
        seed=5,
    )
    options.update(overrides)
    return ParallelMLMCMCSampler(factory, **options)


# ----------------------------------------------------------------------------
class TestSimulatedBackendParity:
    def test_explicit_simulated_backend_is_bit_identical_to_default(self, factory):
        default = _sampler(factory).run()
        explicit = _sampler(factory, backend="simulated").run()
        np.testing.assert_array_equal(default.mean, explicit.mean)
        assert default.virtual_time == explicit.virtual_time
        assert default.samples_per_level == explicit.samples_per_level
        assert default.messages_sent == explicit.messages_sent
        assert default.backend == explicit.backend == "simulated"

    def test_seeded_simulated_run_is_deterministic(self, factory):
        first = _sampler(factory).run()
        second = _sampler(factory).run()
        np.testing.assert_array_equal(first.mean, second.mean)
        assert first.virtual_time == second.virtual_time

    def test_unknown_backend_rejected(self, factory):
        with pytest.raises(ValueError, match="backend"):
            _sampler(factory, backend="mpi")


# ----------------------------------------------------------------------------
class TestMultiprocessBackend:
    @pytest.fixture(scope="class")
    def mp_result(self, factory):
        return _sampler(factory, backend="multiprocess").run()

    def test_completes_and_meets_targets(self, mp_result):
        assert mp_result.backend == "multiprocess"
        for level, target in enumerate([60, 24, 10]):
            assert len(mp_result.corrections[level]) >= target
        assert np.all(np.isfinite(mp_result.mean))
        assert mp_result.mean.shape == (2,)

    def test_real_wall_clock_and_trace(self, mp_result):
        # Real seconds, not virtual: the run took measurable wall time and
        # the trace carries model-evaluation intervals with real durations.
        assert mp_result.wall_time_s > 0
        assert mp_result.virtual_time > 0
        eval_events = mp_result.trace.events(["model_eval", "burnin"])
        assert eval_events, "no real-timed compute intervals recorded"
        assert all(e.end >= e.start for e in eval_events)
        utilization = mp_result.worker_utilization()
        assert 0.0 <= utilization <= 1.0

    def test_role_state_harvested_from_children(self, mp_result):
        # Controller/worker/phonebook state lives in child processes; the
        # driver-side twins must have absorbed it.
        assert sum(mp_result.samples_per_level.values()) > 0
        assert mp_result.controller_assignments
        assert all(history for history in mp_result.controller_assignments.values())
        assert mp_result.messages_sent > 0
        assert mp_result.events_processed > 0

    def test_evaluation_stats_merged_across_ranks(self, mp_result):
        assert set(mp_result.evaluation_stats), "no per-level stats harvested"
        for level, stats in mp_result.evaluation_stats.items():
            assert stats.log_density_evaluations > 0, level
        # density evaluations track the generated chain samples
        evals = mp_result.model_evaluations
        for level, generated in mp_result.samples_per_level.items():
            assert evals.get(level, 0) >= generated

    def test_mp_estimate_statistically_consistent(self, factory, mp_result):
        exact = factory.exact_mean()
        # Short chains: generous tolerance, this is a smoke check that the
        # machine assembled a sane telescoping estimate, not a precision test.
        assert np.linalg.norm(mp_result.mean - exact) < 1.5


# ----------------------------------------------------------------------------
class TestFailureModes:
    def test_missing_level_report_fails_loudly(self, factory):
        class DroppingSampler(ParallelMLMCMCSampler):
            """Simulates a level whose collectors never report."""

            def build_world(self):
                world, root, phonebook = super().build_world()
                inner = root.run

                def run():
                    yield from inner()
                    root.collected.pop(1, None)

                root.run = run
                return world, root, phonebook

        sampler = DroppingSampler(
            factory,
            num_samples=[30, 12, 6],
            num_ranks=10,
            cost_model=ConstantCostModel([0.01, 0.04, 0.16]),
            seed=3,
        )
        with pytest.raises(RuntimeError, match=r"level\(s\) \[1\]"):
            sampler.run()

    def test_disabled_tracing_yields_nan_utilization(self, factory):
        result = _sampler(factory, trace_enabled=False).run()
        assert math.isnan(result.worker_utilization())
        assert math.isnan(result.summary()["worker_utilization"])
        # the estimate itself is unaffected by tracing
        assert np.all(np.isfinite(result.mean))


# ----------------------------------------------------------------------------
class TestExperimentPlumbing:
    def test_parallel_backend_override_changes_spec_identity(self):
        spec = get_scenario("poisson-parallel")
        resolved = spec.resolved(parallel_backend="multiprocess")
        assert resolved.parallel == {"backend": "multiprocess"}
        assert resolved.hash() != spec.resolved().hash()
        # same-backend override keeps backend-specific options
        from repro.experiments import ExperimentSpec

        with_options = ExperimentSpec(
            name="x", driver="parallel",
            parallel={"backend": "multiprocess", "options": {"join_timeout": 10.0}},
        )
        same = with_options.resolved(parallel_backend="multiprocess")
        assert same.parallel["options"] == {"join_timeout": 10.0}
        other = with_options.resolved(parallel_backend="simulated")
        assert other.parallel == {"backend": "simulated"}

    def test_parallel_backend_rejected_for_non_parallel_drivers(self):
        for name in ("table3-poisson-multilevel", "example-scaling-study", "fem-hotpath"):
            with pytest.raises(BackendNotApplicableError, match="parallel"):
                run_scenario(name, quick=True, parallel_backend="multiprocess")

    def test_manifest_records_simulated_default_for_parallel_driver(self, tmp_path):
        run = run_scenario("example-load-balancing", quick=True, out_dir=tmp_path)
        assert run.manifest["parallel_backend"] == "simulated"
        assert run.payload["parallel_backend"] == "simulated"
        assert run.manifest["results"]["wall_time_s"] >= 0

    def test_manifest_records_multiprocess_run(self, tmp_path):
        run = run_scenario(
            "poisson-parallel",
            quick=True,
            parallel_backend="multiprocess",
            out_dir=tmp_path,
        )
        assert run.manifest["parallel_backend"] == "multiprocess"
        assert run.payload["parallel_backend"] == "multiprocess"
        assert run.raw.backend == "multiprocess"
        # per-level evaluation stats were harvested from the child processes
        assert run.manifest["evaluations"]
        assert all(e["log_density_evaluations"] > 0 for e in run.manifest["evaluations"])
        assert (tmp_path / "poisson-parallel.manifest.json").exists()

    def test_non_parallel_manifests_record_null_backend(self, tmp_path):
        run = run_scenario("ablation-subsampling", quick=True, out_dir=tmp_path)
        assert run.manifest["parallel_backend"] is None


# ----------------------------------------------------------------------------
class _FabricProducer(RankProcess):
    """Sends bursts of ndarray payloads, gated by consumer ROUND_DONEs."""

    role = "fabric-producer"

    def __init__(self, rank, consumer_rank, rounds, burst):
        super().__init__(rank)
        self.consumer_rank = consumer_rank
        self.rounds = rounds
        self.burst = burst

    def run(self):
        for round_idx in range(self.rounds):
            for i in range(self.burst):
                payload = np.full(2048, float(round_idx * self.burst + i))
                yield self.send(self.consumer_rank, "DATA", payload)
            yield self.recv("ROUND_DONE")


class _FabricConsumer(RankProcess):
    """Receives the bursts and harvests payload checksums for the driver."""

    role = "fabric-consumer"

    def __init__(self, rank, producer_rank, rounds, burst):
        super().__init__(rank)
        self.producer_rank = producer_rank
        self.rounds = rounds
        self.burst = burst
        self.checksums = []

    def run(self):
        checksums = []
        for _ in range(self.rounds):
            for _ in range(self.burst):
                message = yield self.recv("DATA")
                checksums.append(float(message.payload.sum()))
            yield self.send(self.producer_rank, "ROUND_DONE")
        self.checksums = checksums

    def harvest(self):
        return {"checksums": self.checksums}


class TestWireFabric:
    """Coalescing and the byte-accounting contract."""

    ROUNDS, BURST = 2, 8

    def _run_world(self, *, trace_enabled):
        world = MultiprocessWorld(trace=TraceRecorder(enabled=trace_enabled))
        consumer = _FabricConsumer(1, 0, self.ROUNDS, self.BURST)
        world.add_process(_FabricProducer(0, 1, self.ROUNDS, self.BURST))
        world.add_process(consumer)
        world.run()
        expected = [
            2048.0 * n for n in range(self.ROUNDS * self.BURST)
        ]
        assert consumer.checksums == expected, "payloads corrupted in transit"
        return world

    def test_bursts_coalesce_into_batches(self):
        world = self._run_world(trace_enabled=True)
        wire = world.wire_summary()
        assert wire["coalesced_batches"] > 0
        assert wire["coalesced_messages"] > wire["coalesced_batches"]
        assert wire["oob_arrays"] >= self.ROUNDS * self.BURST
        summary = world.summary()
        assert summary["bytes_sent"] > 0
        for rank in (0, 1):
            assert summary[f"rank{rank}_bytes_sent"] > 0
            assert summary[f"rank{rank}_bytes_received"] > 0

    def test_byte_accounting_nan_when_tracing_off(self):
        world = self._run_world(trace_enabled=False)
        assert all(math.isnan(v) for v in world.wire_summary().values())
        summary = world.summary()
        assert math.isnan(summary["bytes_sent"])
        assert math.isnan(summary["rank0_bytes_sent"])
        assert math.isnan(summary["rank1_bytes_received"])


# ----------------------------------------------------------------------------
@pytest.fixture(params=["multiprocess", "socket"])
def fabric(request):
    """A two-rank fabric of either real-process backend, in this process."""
    if request.param == "multiprocess":
        fabric = _QueueFabric((0, 1))
    else:
        fabric = _Hub((0, 1), "127.0.0.1", 0)
    yield fabric
    fabric.drain()
    fabric.close()


def _transport(link, **options):
    return _ProcessTransport(0, link, time.perf_counter(), False, **options)


def _receive(link, count, timeout_s=5.0):
    """Decode delivered messages until ``count`` arrived (or the deadline)."""
    messages = []
    deadline = time.monotonic() + timeout_s
    while len(messages) < count and time.monotonic() < deadline:
        messages.extend(decode_message(body)[1] for body in link.receive(0.05))
    return messages


class TestLinkContract:
    """What `_rank_main` relies on, checked on both links."""

    def test_fifo_per_pair_across_coalesced_bursts(self, fabric):
        sender, receiver = fabric.opener(0)(), fabric.opener(1)()
        transport = _transport(sender)
        for burst in range(2):
            for i in range(5):
                n = 5 * burst + i
                payload = np.full(4, float(n))
                transport._post(Message(source=0, dest=1, tag="DATA", payload=payload))
                transport._post(Message(source=0, dest=0, tag="SELF", payload=n))
            transport.flush()
        data = _receive(receiver, 10)
        own = _receive(sender, 10)
        assert [float(m.payload[0]) for m in data] == [float(n) for n in range(10)]
        assert [m.payload for m in own] == list(range(10))
        assert {m.source for m in data + own} == {0}
        assert sender.counters.coalesced_batches >= 2
        sender.close()
        receiver.close()

    def test_unknown_destination_counted_as_dropped(self, fabric):
        link = fabric.opener(0)()
        transport = _transport(link)
        transport._post(Message(source=0, dest=99, tag="X", payload=None))
        assert (transport.messages_dropped, transport.messages_sent) == (1, 0)
        transport._post(Message(source=0, dest=1, tag="X", payload=None))
        assert (transport.messages_dropped, transport.messages_sent) == (1, 1)
        link.close()

    def test_driver_injection_reaches_the_next_incarnation(self, fabric):
        first = fabric.opener(1)()
        fabric.inject(Message(source=DRIVER_RANK, dest=1, tag="ORDER", payload=1))
        first.close()  # dies without consuming the order
        fabric.inject(Message(source=DRIVER_RANK, dest=1, tag="RESTART", payload=2))
        second = fabric.opener(1)()
        messages = _receive(second, 2)
        assert [(m.source, m.tag, m.payload) for m in messages] == [
            (DRIVER_RANK, "ORDER", 1),
            (DRIVER_RANK, "RESTART", 2),
        ]
        second.close()

    def test_receive_timeout_bound(self, fabric):
        link = fabric.opener(0)()
        start = time.perf_counter()
        assert link.receive(0) == []
        assert time.perf_counter() - start < 0.1  # polls, never blocks
        transport = _transport(link, receive_timeout_s=0.1, receive_poll_s=0.02)
        start = time.perf_counter()
        with pytest.raises(ReceiveTimeout):
            transport._blocking_receive(_Waiter(0), Receive(tags=("NEVER_SENT",)))
        # deadline + at most one poll interval of overshoot (plus margin)
        assert 0.1 <= time.perf_counter() - start < 0.5
        link.close()


# ----------------------------------------------------------------------------
class _Waiter(RankProcess):
    """Waits for a message nobody sends."""

    role = "waiter"

    def run(self):
        yield self.recv("NEVER_SENT")


class _SilentExit(RankProcess):
    """Exits cleanly without ever reporting back to the driver."""

    role = "quitter"

    def run(self):
        time.sleep(0.1)  # let a first heartbeat leave before the exit
        os._exit(0)
        yield  # pragma: no cover - makes run() a generator


@pytest.mark.parametrize("world_cls", [MultiprocessWorld, SocketWorld])
class TestExitWithoutReporting:
    REASON = "rank 1 (quitter) exited with code 0 without reporting"

    def _world(self, world_cls, **options):
        world = world_cls(join_timeout=60.0, **options)
        world.add_process(_Waiter(0))
        world.add_process(_SilentExit(1))
        return world

    def test_run_fails_within_seconds(self, world_cls):
        world = self._world(world_cls)
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="without reporting") as info:
            world.run()
        assert time.perf_counter() - start < 10.0
        message = str(info.value)
        assert self.REASON in message
        assert message.startswith(f"{world.backend} MLMCMC")

    def test_fault_tolerant_run_records_the_named_reason(self, world_cls):
        world = self._world(world_cls, fault_tolerance=FaultToleranceConfig())
        start = time.perf_counter()
        world.run()
        assert time.perf_counter() - start < 10.0
        report = world.failure_report
        assert [f.reason for f in report.failures] == [self.REASON]
        assert "not restartable" in report.exhausted_reason
