"""Dynamic load balancing policy.

The phonebook observes, per level, how many sample requests are waiting
unanswered and how many produced samples are waiting unconsumed.  From these
signals (paper, Section 4.3):

* *high load* — "sample requests remain queued",
* *low load* — "samples on that level are provided but not quickly picked up",
* chain requests weigh more than collector requests because an unanswered
  chain request means another chain is stalled,
* rebalancing is rate-limited by the inferred model run time of the levels
  involved so work groups are not bounced around faster than they can produce
  their first sample.

The policy is deliberately unaware of the specific proposals/kernels being
run, so it applies equally to MLMC-style samplers (as noted in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

__all__ = ["LevelLoad", "RebalanceDecision", "DynamicLoadBalancer", "StaticLoadBalancer"]


@dataclass
class LevelLoad:
    """Load signals for one level, maintained by the phonebook.

    The queue/availability fields may be instantaneous counts or (as the
    phonebook reports them) time-averaged values over the window since the
    last rebalancing decision.
    """

    level: int
    queued_chain_requests: float = 0.0
    queued_collector_requests: float = 0.0
    available_samples: float = 0.0
    available_corrections: float = 0.0
    num_groups: int = 0
    done: bool = False
    needed_as_proposal_source: bool = True
    #: this level's share (0..1) of the estimated remaining work of the whole
    #: run — outstanding samples times measured cost, as reported by the live
    #: allocation of adaptive runs (zero in static runs)
    estimated_remaining_work: float = 0.0

    def pressure(
        self,
        chain_weight: float,
        collector_weight: float,
        remaining_work_weight: float = 0.0,
    ) -> float:
        """Positive = starving (requests queued), negative = over-provisioned."""
        demand = (
            chain_weight * self.queued_chain_requests
            + collector_weight * self.queued_collector_requests
            + remaining_work_weight * self.estimated_remaining_work
        )
        surplus = self.available_samples + self.available_corrections
        if self.done and not self.needed_as_proposal_source:
            # A finished level that nobody depends on only ever has surplus.
            return -float(surplus + self.num_groups)
        return float(demand) - 0.25 * float(surplus)


@dataclass(frozen=True)
class RebalanceDecision:
    """Move one work group from ``source_level`` to ``target_level``."""

    source_level: int
    target_level: int
    reason: str = ""


@dataclass
class DynamicLoadBalancer:
    """Pressure-based work-group reassignment policy.

    Parameters
    ----------
    level_cost:
        Mean evaluation time of a level, used to rate-limit decisions: a move
        between a source and a target level is withheld until at least
        ``rate_limit_factor * max(level_cost(source), level_cost(target))``
        has passed since the previous move,
        since the reassigned group only helps once it produced its first
        sample on the levels involved.
    chain_request_weight, collector_request_weight:
        Relative weight of unanswered chain vs. collector requests.
    remaining_work_weight:
        Weight of a level's share of the estimated remaining work (live
        allocation of adaptive runs).  Shares are normalised to [0, 1] and
        are zero in static runs, so the weight only biases decisions when an
        adaptive root publishes its targets.
    pressure_threshold:
        Minimum pressure difference between the starving and the donating
        level before a move is made.
    """

    level_cost: Callable[[int], float]
    chain_request_weight: float = 4.0
    collector_request_weight: float = 1.0
    remaining_work_weight: float = 2.0
    pressure_threshold: float = 4.0
    rate_limit_factor: float = 5.0
    min_interval: float = 0.0
    last_decision_time: float = field(default=-1e30, init=False)
    num_decisions: int = field(default=0, init=False)

    def decide(self, loads: dict[int, LevelLoad], now: float) -> RebalanceDecision | None:
        """Return a single move decision (or ``None``) given the current loads."""
        if not loads:
            return None

        pressures = {
            level: load.pressure(
                self.chain_request_weight,
                self.collector_request_weight,
                self.remaining_work_weight,
            )
            for level, load in loads.items()
        }
        # Starving level: largest positive pressure among levels that still matter —
        # either their own collection target is not met, or finer chains depend on
        # them for proposals (a finished level can still be the bottleneck feeder).
        starving_candidates = [
            level
            for level, load in loads.items()
            if (not load.done or load.needed_as_proposal_source) and pressures[level] > 0
        ]
        if not starving_candidates:
            return None
        target = max(starving_candidates, key=lambda l: pressures[l])

        # Donor level: smallest pressure, must keep at least one group if it is
        # still needed (either not done, or a proposal source for a finer level).
        donor_candidates = []
        for level, load in loads.items():
            if level == target or load.num_groups == 0:
                continue
            still_needed = (not load.done) or load.needed_as_proposal_source
            if still_needed and load.num_groups <= 1:
                continue
            donor_candidates.append(level)
        if not donor_candidates:
            return None
        source = min(donor_candidates, key=lambda l: pressures[l])

        if pressures[target] - pressures[source] < self.pressure_threshold:
            return None

        # Rate limiting: wait long enough for the previous move to take effect.
        # The interval is based on the run time of the *levels involved in this
        # move* (paper, Section 4.3) — the reassigned group only helps once it
        # produced its first sample on the target level.  Using the slowest
        # level of the whole hierarchy here would over-throttle cheap
        # coarse-level moves in steep cost hierarchies.
        if self.num_decisions > 0:
            involved = max(self.level_cost(source), self.level_cost(target))
            interval = max(self.rate_limit_factor * involved, self.min_interval)
            if now - self.last_decision_time < interval:
                return None

        self.last_decision_time = now
        self.num_decisions += 1
        return RebalanceDecision(
            source_level=source,
            target_level=target,
            reason=(
                f"pressure[{target}]={pressures[target]:.1f} vs "
                f"pressure[{source}]={pressures[source]:.1f}"
            ),
        )


@dataclass
class StaticLoadBalancer:
    """A no-op policy: the initial work-group assignment is never changed.

    Used as the baseline in the load-balancing ablation benchmark.
    """

    def decide(self, loads: dict[int, LevelLoad], now: float) -> RebalanceDecision | None:
        """Never rebalance."""
        return None
