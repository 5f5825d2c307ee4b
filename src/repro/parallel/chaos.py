"""Deterministic fault injection for the parallel MLMCMC machine.

A :class:`FaultPlan` declares, ahead of a run, exactly which failures happen:
ranks killed after a chosen number of transport events, messages dropped or
delayed (by tag/source/dest and occurrence, or with a seeded probability), and
evaluator exceptions injected after a chosen number of model evaluations.
Faults address ranks either directly (``rank=7``) or by role
(``role="worker", index=0``) — role addresses are resolved against the run's
:class:`~repro.parallel.layout.ProcessLayout` before the machine starts.

The same plan drives both transports:

* **simulated** — :func:`apply_chaos_to_virtual` wraps the role generators
  and the world's message fabric; a killed rank goes permanently silent (its
  dependents block, the event queue drains and the run returns with
  unfinished ranks — the discrete-event model of a crashed process), and an
  injected evaluator fault raises :class:`InjectedEvaluatorError` out of the
  simulation.  Everything is exactly deterministic.
* **multiprocess** — the plan is shipped (pickled) into every child, where
  :class:`RankChaos` hooks into the rank's transport loop: kills call
  ``os._exit`` (the real-process model of SIGKILL), evaluator faults raise in
  the child, and drops/delays act on the child's sends.  Kill points are
  counted in the rank's own event frame, so the fault fires at the same point
  of that rank's schedule on every run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from repro.parallel.layout import ProcessLayout
from repro.parallel.transport import Compute, Message, RankProcess

__all__ = [
    "EvaluatorFault",
    "FaultPlan",
    "InjectedEvaluatorError",
    "MessageDelay",
    "MessageDrop",
    "RankChaos",
    "RankKill",
    "apply_chaos_to_virtual",
]

#: exit code used by injected rank kills (visible in the driver's diagnostics)
CHAOS_EXIT_CODE = 117


class InjectedEvaluatorError(RuntimeError):
    """An evaluator exception injected by a :class:`FaultPlan`."""


def _check_address(rank: int | None, role: str | None) -> None:
    if (rank is None) == (role is None):
        raise ValueError("address a fault with exactly one of 'rank' or 'role'")


@dataclass(frozen=True)
class RankKill:
    """Kill one rank after it processed ``after_events`` transport events."""

    after_events: int
    rank: int | None = None
    role: str | None = None
    index: int = 0

    def __post_init__(self) -> None:
        _check_address(self.rank, self.role)
        if self.after_events < 1:
            raise ValueError("after_events must be at least 1")


@dataclass(frozen=True)
class EvaluatorFault:
    """Raise :class:`InjectedEvaluatorError` on a rank's n-th model evaluation."""

    after_computes: int
    rank: int | None = None
    role: str | None = None
    index: int = 0
    message: str = "injected evaluator fault"

    def __post_init__(self) -> None:
        _check_address(self.rank, self.role)
        if self.after_computes < 1:
            raise ValueError("after_computes must be at least 1")


@dataclass(frozen=True)
class MessageDrop:
    """Drop matching sends: chosen occurrences and/or a seeded probability."""

    tag: str
    source: int | None = None
    dest: int | None = None
    #: 1-based indices of matching sends to drop (empty: probability only)
    occurrences: tuple[int, ...] = ()
    #: drop each matching send with this probability (seeded per sender rank)
    probability: float = 0.0

    def __post_init__(self) -> None:
        if not self.occurrences and self.probability <= 0.0:
            raise ValueError("a MessageDrop needs occurrences or a probability")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")


@dataclass(frozen=True)
class MessageDelay:
    """Delay matching sends by ``delay_s`` (transport seconds)."""

    tag: str
    delay_s: float
    source: int | None = None
    dest: int | None = None

    def __post_init__(self) -> None:
        if self.delay_s < 0:
            raise ValueError("delay_s must be non-negative")


@dataclass(frozen=True)
class FaultPlan:
    """A declarative, reproducible set of faults for one run."""

    seed: int = 0
    kills: tuple[RankKill, ...] = ()
    evaluator_faults: tuple[EvaluatorFault, ...] = ()
    drops: tuple[MessageDrop, ...] = ()
    delays: tuple[MessageDelay, ...] = ()

    def __post_init__(self) -> None:
        # Normalise lists to tuples so a plan round-trips as_dict/from_dict
        # into an *equal* plan regardless of the sequence type it was built
        # with (the dataclass is frozen, hence object.__setattr__).
        for name in ("kills", "evaluator_faults", "drops", "delays"):
            object.__setattr__(self, name, tuple(getattr(self, name)))

    def __bool__(self) -> bool:
        return bool(self.kills or self.evaluator_faults or self.drops or self.delays)

    @property
    def resolved(self) -> bool:
        """Whether every fault addresses a concrete rank."""
        return all(
            f.rank is not None for f in (*self.kills, *self.evaluator_faults)
        )

    def resolve(self, layout: ProcessLayout) -> "FaultPlan":
        """Turn role-based fault addresses into concrete ranks."""

        def concrete(fault):
            if fault.rank is not None:
                return fault
            ranks = _ranks_for_role(layout, fault.role)
            if not 0 <= fault.index < len(ranks):
                raise ValueError(
                    f"fault addresses {fault.role}[{fault.index}] but the layout "
                    f"has {len(ranks)} {fault.role} rank(s)"
                )
            return replace(fault, rank=ranks[fault.index], role=None, index=0)

        return replace(
            self,
            kills=tuple(concrete(k) for k in self.kills),
            evaluator_faults=tuple(concrete(f) for f in self.evaluator_faults),
        )

    # -- (de)serialisation ---------------------------------------------------
    def as_dict(self) -> dict[str, Any]:
        """JSON-safe view (recorded in the manifest, accepted by the CLI)."""

        def entry(fault) -> dict[str, Any]:
            data: dict[str, Any] = {}
            for key, value in fault.__dict__.items():
                if value is None:
                    continue
                if key == "occurrences":
                    if value:
                        data[key] = [int(i) for i in value]
                    continue
                if key == "index" and value == 0:
                    continue
                if key == "probability" and value == 0.0:
                    continue
                data[key] = value
            return data

        return {
            "seed": int(self.seed),
            "kills": [entry(k) for k in self.kills],
            "evaluator_faults": [entry(f) for f in self.evaluator_faults],
            "drops": [entry(d) for d in self.drops],
            "delays": [entry(d) for d in self.delays],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FaultPlan":
        """Build a plan from the JSON layout produced by :meth:`as_dict`."""
        known = {"seed", "kills", "evaluator_faults", "drops", "delays"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown fault-plan key(s): {sorted(unknown)}")

        def tuples(entries, cls_):
            built = []
            for entry in entries or []:
                entry = dict(entry)
                if "occurrences" in entry:
                    entry["occurrences"] = tuple(int(i) for i in entry["occurrences"])
                built.append(cls_(**entry))
            return tuple(built)

        return cls(
            seed=int(data.get("seed", 0)),
            kills=tuples(data.get("kills"), RankKill),
            evaluator_faults=tuples(data.get("evaluator_faults"), EvaluatorFault),
            drops=tuples(data.get("drops"), MessageDrop),
            delays=tuples(data.get("delays"), MessageDelay),
        )


def _ranks_for_role(layout: ProcessLayout, role: str) -> list[int]:
    """All ranks of one role, in rank order."""
    if role == "root":
        return [layout.root_rank]
    if role == "phonebook":
        return [layout.phonebook_rank]
    if role == "collector":
        return sorted(r for ranks in layout.collector_ranks.values() for r in ranks)
    if role == "controller":
        return sorted(layout.controller_ranks)
    if role == "worker":
        return sorted(layout.worker_ranks)
    raise ValueError(f"unknown role {role!r} in fault plan")


class RankChaos:
    """One rank's slice of a resolved plan, hooked into its transport loop.

    The multiprocess child transport calls :meth:`before_item` on every
    primitive it is about to interpret and :meth:`outgoing` on every send.
    State is local to the rank, so occurrence counting is deterministic in
    the rank's own event frame.
    """

    def __init__(self, plan: FaultPlan, rank: int, kill_action: str = "exit") -> None:
        if not plan.resolved:
            raise ValueError("fault plan must be resolved against a layout first")
        self.rank = int(rank)
        self._kill_at = sorted(
            k.after_events for k in plan.kills if k.rank == self.rank
        )
        self._faults = sorted(
            (f.after_computes, f.message)
            for f in plan.evaluator_faults
            if f.rank == self.rank
        )
        self._drops = [d for d in plan.drops if d.source in (None, self.rank)]
        self._delays = [d for d in plan.delays if d.source in (None, self.rank)]
        self._drop_counts = [0] * len(self._drops)
        self._rng = np.random.default_rng((int(plan.seed), self.rank))
        self._events = 0
        self._computes = 0
        self._kill_action = kill_action
        self.dropped = 0

    def __bool__(self) -> bool:
        return bool(self._kill_at or self._faults or self._drops or self._delays)

    @property
    def killed(self) -> bool:
        """Whether a kill point has been reached (virtual-world mode)."""
        return bool(self._kill_at) and self._events >= self._kill_at[0]

    def before_item(self, item) -> None:
        """Count one about-to-run primitive; trigger kills/evaluator faults."""
        self._events += 1
        if self._kill_at and self._events >= self._kill_at[0]:
            if self._kill_action == "exit":
                # The real-process model of SIGKILL: no cleanup, no report.
                os._exit(CHAOS_EXIT_CODE)
            return  # virtual mode: the caller checks .killed and silences the rank
        if isinstance(item, Compute):
            self._computes += 1
            if self._faults and self._computes >= self._faults[0][0]:
                _, message = self._faults.pop(0)
                raise InjectedEvaluatorError(
                    f"rank {self.rank}: {message} "
                    f"(model evaluation #{self._computes})"
                )

    def _matches(self, rule, message: Message) -> bool:
        if rule.tag != message.tag:
            return False
        if rule.dest is not None and rule.dest != message.dest:
            return False
        return True

    def outgoing(self, message: Message) -> tuple[bool, float]:
        """Fate of one outgoing message: ``(delivered, extra_delay_s)``."""
        for i, rule in enumerate(self._drops):
            if not self._matches(rule, message):
                continue
            self._drop_counts[i] += 1
            if self._drop_counts[i] in rule.occurrences or (
                rule.probability > 0.0 and self._rng.random() < rule.probability
            ):
                self.dropped += 1
                return False, 0.0
        delay = 0.0
        for rule in self._delays:
            if self._matches(rule, message):
                delay += rule.delay_s
        return True, delay


#: message tags that count as estimator progress for the stall watchdog:
#: correction batches reaching collectors and collector/root completion
#: traffic.  Chain-to-chain feeding and phonebook bookkeeping deliberately do
#: NOT count — a machine whose surviving chains keep sampling but whose
#: collections no longer grow is exactly the livelock the watchdog must end.
_PROGRESS_TAGS = frozenset({"CORRECTIONS", "COLLECTOR_DONE", "REPORT", "SHUTDOWN"})


def apply_chaos_to_virtual(
    world, plan: FaultPlan, stall_timeout_s: float | None = None
) -> dict[int, RankChaos]:
    """Wire a resolved plan into a :class:`VirtualWorld` (in place).

    Role generators are wrapped so a killed rank blocks forever on a tag no
    peer ever sends (the deterministic crash model), and the world's message
    fabric is wrapped for drops and delays.  Returns the per-rank chaos state
    for inspection by tests.

    ``stall_timeout_s`` arms a virtual-time watchdog (kills only): a killed
    rank does not necessarily drain the event queue — surviving chains can
    keep sampling forever while the collections they feed stop growing
    (their collector's one request was matched to the dead provider).  When
    no estimator progress (:data:`_PROGRESS_TAGS`) happens for that many
    virtual seconds, the world is stopped so ``world.run()`` returns with the
    stalled ranks unfinished.  Virtual time is deterministic, so the stop
    point is exactly reproducible.
    """
    if not plan.resolved:
        raise ValueError("fault plan must be resolved against a layout first")
    hooks: dict[int, RankChaos] = {}
    for rank, process in world.processes.items():
        chaos = RankChaos(plan, rank, kill_action="mark")
        if not chaos:
            continue
        hooks[rank] = chaos
        _wrap_process(process, chaos)

    inner_post = world._post_message
    last_progress = [0.0]

    def chaos_post(message: Message) -> None:
        if message.tag in _PROGRESS_TAGS:
            last_progress[0] = world.now
        chaos = hooks.get(message.source)
        if chaos is None:
            inner_post(message)
            return
        delivered, delay = chaos.outgoing(message)
        if not delivered:
            return
        if delay > 0.0:
            saved = world.latency
            world.latency = saved + delay
            try:
                inner_post(message)
            finally:
                world.latency = saved
        else:
            inner_post(message)

    world._post_message = chaos_post

    if stall_timeout_s is not None and plan.kills:
        stall = float(stall_timeout_s)
        interval = max(stall / 8.0, 1e-6)

        def watchdog() -> None:
            states = [p._state for p in world.processes.values()]
            if all(state.finished for state in states):
                return  # clean shutdown: let the queue drain naturally
            if world.now - last_progress[0] >= stall:
                world.stop()
                return
            world._schedule(world.now + interval, watchdog)

        world._schedule(interval, watchdog)
    return hooks


def _wrap_process(process: RankProcess, chaos: RankChaos) -> None:
    """Wrap one role generator with the rank's chaos hooks (virtual world)."""
    inner = process.run

    def run():
        generator = inner()
        value = None
        first = True
        while True:
            try:
                item = next(generator) if first else generator.send(value)
            except StopIteration:
                return
            first = False
            chaos.before_item(item)
            if chaos.killed:
                # Go permanently silent: dependents block, the event queue
                # drains, and world.run() returns with this rank unfinished.
                yield process.recv("__CHAOS_KILLED__")
                return
            # Sends pass through: drops and delays act in the world's fabric.
            value = yield item

    process.run = run
