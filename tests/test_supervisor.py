"""The run supervisor, driven by scripted events at explicit times.

Every test here feeds :class:`repro.parallel.fault.Supervisor` a sequence of
rank reports, child exits and ticks with hand-picked ``now`` values and checks
the actions it answers with and the outcome it reaches.  No process is
started and nothing sleeps: the decisions are pure functions of the events.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.parallel.fault import (
    LEGACY_PUMP_WAIT_S,
    MAX_BACKOFF_S,
    PUMP_WAIT_S,
    TICK,
    Absorb,
    ChildExit,
    FaultToleranceConfig,
    Inject,
    RankReport,
    Reap,
    Respawn,
    Stop,
    Supervisor,
)
from repro.parallel.roles import CollectorProcess, ControllerProcess, RootProcess, WorkerProcess
from repro.parallel.roles.protocol import Tags
from repro.parallel.transport import RankProcess

ROOT, PHONEBOOK, COLLECTOR, CONTROLLER, WORKER = range(5)
CRASH = 117  # the exit code of an injected kill


class _Phonebook(RankProcess):
    role = "phonebook"


def _machine() -> dict[int, RankProcess]:
    """Driver-side twins of a five-rank machine (no process behind any)."""
    config = SimpleNamespace(checkpoint=None)
    collector = CollectorProcess(COLLECTOR, config)
    collector.assigned_level, collector.assigned_target = 0, 60
    controller = ControllerProcess(CONTROLLER, config, (WORKER,), random_source=None)
    controller.initial_level = 1
    return {
        ROOT: RootProcess(ROOT, config),
        PHONEBOOK: _Phonebook(PHONEBOOK),
        COLLECTOR: collector,
        CONTROLLER: controller,
        WORKER: WorkerProcess(WORKER, CONTROLLER),
    }


def _supervisor(config=None, **options) -> Supervisor:
    if config == "default":
        config = FaultToleranceConfig()
    return Supervisor(_machine(), config, "multiprocess", **options)


def _beat(rank: int, **meta) -> RankReport:
    return RankReport(rank, "heartbeat", meta)


def _finish(supervisor: Supervisor, now: float, ranks=range(5)) -> list:
    actions = []
    for rank in ranks:
        actions += supervisor.on_event(RankReport(rank, "ok", {"rank": rank}), now)
    return actions


# ----------------------------------------------------------------------------
class TestWithoutFaultTolerance:
    def test_first_death_is_final(self):
        supervisor = _supervisor()
        actions = supervisor.on_event(ChildExit(WORKER, 0), 1.0)
        reason = "rank 4 (worker) exited with code 0 without reporting"
        assert actions == [Reap(WORKER), Stop(f"rank 4: {reason}")]
        assert supervisor.stopped and not supervisor.clean
        # a later death is not a decision any more
        assert supervisor.on_event(ChildExit(CONTROLLER, CRASH), 1.1) == []
        with pytest.raises(RuntimeError) as info:
            supervisor.outcome()
        assert str(info.value) == f"multiprocess MLMCMC rank failure(s):\nrank 4: {reason}"

    def test_reported_exception_is_final(self):
        supervisor = _supervisor()
        supervisor.on_event(RankReport(COLLECTOR, "error", "Traceback: boom"), 0.5)
        with pytest.raises(RuntimeError, match="rank 2: rank reported an exception:\nTrace"):
            supervisor.outcome()

    def test_silence_is_not_a_death_and_the_pump_waits_longer(self):
        supervisor = _supervisor()
        assert supervisor.on_event(TICK, 1e6) == []
        assert supervisor.wait_s(0.0) == LEGACY_PUMP_WAIT_S

    def test_clean_run_has_no_report(self):
        supervisor = _supervisor()
        actions = _finish(supervisor, 2.0)
        assert actions[:5] == [Absorb(rank, {"rank": rank}) for rank in range(5)]
        assert actions[5:] == [Stop("every rank reported")]
        assert supervisor.clean
        assert supervisor.outcome() is None


# ----------------------------------------------------------------------------
class TestRestarts:
    def test_respawn_falls_due_after_linear_backoff(self):
        config = FaultToleranceConfig(restart_backoff_s=0.25, max_rank_restarts=3)
        supervisor = _supervisor(config)
        supervisor.on_event(_beat(CONTROLLER, level=2, total_steps=5), 0.1)
        assert supervisor.on_event(ChildExit(CONTROLLER, CRASH), 1.0) == [Reap(CONTROLLER)]
        # the backoff is a due time, not a sleep: the pump keeps pumping
        assert supervisor.wait_s(1.0) == PUMP_WAIT_S
        assert supervisor.wait_s(1.1) == pytest.approx(0.15)
        assert list(supervisor.watched()) == [ROOT, PHONEBOOK, COLLECTOR, WORKER]
        assert supervisor.on_event(TICK, 1.2) == []
        assert supervisor.on_event(TICK, 1.25) == [
            Inject(CONTROLLER, Tags.ASSIGN, {"level": 2}),
            Respawn(CONTROLLER),
            Inject(COLLECTOR, Tags.PEER_RESTARTED, {"rank": CONTROLLER}),
        ]
        assert CONTROLLER in list(supervisor.watched())
        # the second death of the same rank waits twice as long
        supervisor.on_event(ChildExit(CONTROLLER, CRASH), 2.0)
        assert supervisor.on_event(TICK, 2.49) == []
        assert Respawn(CONTROLLER) in supervisor.on_event(TICK, 2.5)
        assert supervisor.restarts_used == 2
        assert [r.when_s for r in supervisor.reassignments] == [1.25, 2.5]
        _finish(supervisor, 3.0)
        report = supervisor.outcome()
        assert report.recovered and report.restarts_used == 2
        assert [f.lost for f in report.failures] == [{"level": 2, "total_steps": 5}] * 2

    def test_backoff_is_capped(self):
        config = FaultToleranceConfig(restart_backoff_s=4.0, heartbeat_grace=100.0)
        supervisor = _supervisor(config)
        supervisor.on_event(ChildExit(WORKER, CRASH), 0.0)
        supervisor.on_event(TICK, 4.0)
        supervisor.on_event(ChildExit(WORKER, CRASH), 10.0)  # 8 s, capped
        assert supervisor.on_event(TICK, 10.0 + MAX_BACKOFF_S - 0.01) == []
        assert supervisor.on_event(TICK, 10.0 + MAX_BACKOFF_S) == [Respawn(WORKER)]

    def test_budget_counts_respawns_still_due(self):
        config = FaultToleranceConfig(max_rank_restarts=1)
        supervisor = _supervisor(config)
        assert supervisor.on_event(ChildExit(WORKER, CRASH), 1.0) == [Reap(WORKER)]
        actions = supervisor.on_event(ChildExit(CONTROLLER, CRASH), 1.1)
        reason = "restart budget (1) exhausted when rank 3 (controller) died"
        assert actions == [Reap(CONTROLLER), Stop(reason)]
        assert list(supervisor.watched()) == []

    def test_restart_before_any_heartbeat_bootstraps_from_the_layout(self):
        # Without a heartbeat there is no metadata: the controller falls back
        # to its initial level, the collector to the order the sampler
        # recorded, and a worker needs no bootstrap.
        supervisor = _supervisor(FaultToleranceConfig(restart_backoff_s=0.0))
        for rank in (COLLECTOR, CONTROLLER, WORKER):
            supervisor.on_event(ChildExit(rank, CRASH), 0.5)
        actions = supervisor.on_event(TICK, 0.5)
        assert actions[:2] == [
            Inject(COLLECTOR, Tags.COLLECT, {"level": 0, "target": 60}),
            Respawn(COLLECTOR),
        ]
        assert Inject(CONTROLLER, Tags.ASSIGN, {"level": 1}) in actions
        assert Respawn(WORKER) in actions
        assert [r.level for r in supervisor.reassignments] == [None, None, None]
        assert all(f.lost == {} for f in supervisor.failures)

    def test_peers_down_at_the_respawn_get_no_notice(self):
        # A replacement starts with no outstanding requests to re-issue.
        supervisor = _supervisor("default")
        supervisor.on_event(ChildExit(CONTROLLER, CRASH), 1.0)
        supervisor.on_event(ChildExit(COLLECTOR, CRASH), 1.1)
        assert supervisor.on_event(TICK, 1.25) == [
            Inject(CONTROLLER, Tags.ASSIGN, {"level": 1}),
            Respawn(CONTROLLER),
        ]
        assert supervisor.on_event(TICK, 1.35) == [
            Inject(COLLECTOR, Tags.COLLECT, {"level": 0, "target": 60}),
            Respawn(COLLECTOR),
        ]


# ----------------------------------------------------------------------------
class TestDeaths:
    def test_heartbeat_timeout(self):
        config = FaultToleranceConfig(heartbeat_interval_s=0.5, heartbeat_grace=4.0)
        supervisor = _supervisor(config)
        for rank in (ROOT, PHONEBOOK, COLLECTOR, CONTROLLER):
            supervisor.on_event(_beat(rank), 1.5)
        assert supervisor.on_event(TICK, 2.0) == []  # 2.0 s is not *more* than the grace
        assert supervisor.on_event(TICK, 2.1) == [Reap(WORKER)]
        assert supervisor.failures[0].reason == "no heartbeat for 2.1s (hung)"
        # a rank awaiting its respawn is not hung again
        assert supervisor.on_event(TICK, 2.2) == []
        assert supervisor.heartbeats == 4

    def test_death_after_the_root_finished_is_not_restarted(self):
        supervisor = _supervisor("default")
        assert supervisor.on_event(RankReport(ROOT, "ok", {}), 1.0) == [Absorb(ROOT, {})]
        assert supervisor.on_event(ChildExit(CONTROLLER, CRASH), 1.1) == [Reap(CONTROLLER)]
        assert CONTROLLER not in supervisor.pending
        _finish(supervisor, 1.2, ranks=(PHONEBOOK, COLLECTOR, WORKER))
        report = supervisor.outcome()
        assert report.recovered and report.restarts_used == 0
        assert report.dead_ranks == [CONTROLLER]

    def test_root_finishing_during_the_backoff_cancels_the_respawn(self):
        supervisor = _supervisor("default")
        supervisor.on_event(ChildExit(CONTROLLER, CRASH), 1.0)
        supervisor.on_event(RankReport(ROOT, "ok", {}), 1.1)
        assert supervisor.on_event(TICK, 1.25) == []
        assert CONTROLLER not in supervisor.pending
        assert supervisor.restarts_used == 0

    def test_crash_takes_its_last_heartbeats_before_the_death(self):
        supervisor = _supervisor(FaultToleranceConfig(restart_backoff_s=0.0))
        supervisor.on_event(_beat(CONTROLLER, level=0), 0.2)
        reports = (
            RankReport(COLLECTOR, "ok", {"rank": COLLECTOR}),
            _beat(CONTROLLER, level=2),
        )
        actions = supervisor.on_event(ChildExit(CONTROLLER, CRASH, reports), 1.0)
        # the death comes first, the other rank's result after it
        assert actions == [Reap(CONTROLLER), Absorb(COLLECTOR, {"rank": COLLECTOR})]
        assert supervisor.failures[0].lost == {"level": 2}
        assert supervisor.on_event(TICK, 1.0)[0] == Inject(CONTROLLER, Tags.ASSIGN, {"level": 2})

    def test_clean_exit_is_judged_after_its_reports(self):
        supervisor = _supervisor("default")
        reports = (RankReport(WORKER, "ok", {"rank": WORKER}),)
        actions = supervisor.on_event(ChildExit(WORKER, 0, reports), 1.0)
        assert actions == [Absorb(WORKER, {"rank": WORKER})]
        assert supervisor.failures == []

    def test_rank_that_already_delivered_is_only_marked_finished(self):
        supervisor = _supervisor("default")
        supervisor.on_event(RankReport(COLLECTOR, "heartbeat", {"done": True}), 0.5)
        actions = supervisor.on_event(ChildExit(COLLECTOR, CRASH), 1.0)
        assert actions == [Reap(COLLECTOR), Absorb(COLLECTOR)]
        assert supervisor.restarts_used == 0 and not supervisor._due

    def test_stale_error_of_a_replaced_incarnation_is_ignored(self):
        supervisor = _supervisor("default")
        supervisor.on_event(ChildExit(WORKER, CRASH), 1.0)
        assert supervisor.on_event(RankReport(WORKER, "error", "late"), 1.1) == []
        assert len(supervisor.failures) == 1


# ----------------------------------------------------------------------------
class TestOutcome:
    @pytest.mark.parametrize("policy", ["degrade", "raise"])
    def test_exhausted_budget(self, policy):
        config = FaultToleranceConfig(max_rank_restarts=0, on_exhausted=policy)
        supervisor = _supervisor(config)
        reason = "restart budget (0) exhausted when rank 3 (controller) died"
        actions = supervisor.on_event(ChildExit(CONTROLLER, CRASH), 1.0)
        assert actions == [Reap(CONTROLLER), Stop(reason)]
        if policy == "raise":
            with pytest.raises(RuntimeError, match=r"multiprocess MLMCMC recovery exhausted"):
                supervisor.outcome()
        else:
            supervisor.outcome()
        report = supervisor.report
        assert not report.recovered and report.exhausted_reason == reason
        assert report.dead_ranks == [CONTROLLER]

    def test_non_restartable_death(self):
        supervisor = _supervisor("default")
        actions = supervisor.on_event(ChildExit(PHONEBOOK, CRASH), 1.0)
        assert actions == [Reap(PHONEBOOK), Stop("rank 1 (phonebook) is not restartable")]
        report = supervisor.outcome()
        assert not report.recovered
        assert "not restartable" in report.exhausted_reason

    @pytest.mark.parametrize("policy", [None, "degrade"])
    def test_join_timeout(self, policy):
        config = None if policy is None else FaultToleranceConfig(heartbeat_grace=100.0)
        supervisor = _supervisor(config, join_timeout=10.0, now=5.0)
        assert supervisor.wait_s(14.9) == pytest.approx(0.1)
        _finish(supervisor, 6.0, ranks=(ROOT, WORKER))
        assert supervisor.on_event(TICK, 14.99) == []
        reason = (
            "multiprocess MLMCMC did not terminate within 10s; "
            "unfinished ranks: [1, 2, 3]"
        )
        assert supervisor.on_event(TICK, 15.0) == [Stop(reason)]
        if policy is None:
            with pytest.raises(RuntimeError, match=r"did not terminate within 10s"):
                supervisor.outcome()
        else:
            report = supervisor.outcome()
            assert not report.recovered and report.exhausted_reason == reason
            assert report.failures == []

    @pytest.mark.parametrize("policy", [None, "raise", "degrade"])
    def test_simulated_stall(self, policy):
        config = None if policy is None else FaultToleranceConfig(on_exhausted=policy)
        supervisor = Supervisor(_machine(), config, "simulated")
        reason = "stalled (rank(s) [3] killed by the fault plan; no rank recovery)"
        if policy == "degrade":
            report = supervisor.stalled([CONTROLLER], reason, 42.0)
            assert not report.recovered and report.exhausted_reason == reason
            assert [(f.rank, f.when_s) for f in report.failures] == [(CONTROLLER, 42.0)]
        else:
            with pytest.raises(RuntimeError, match=r"killed by the fault plan"):
                supervisor.stalled([CONTROLLER], reason, 42.0)
