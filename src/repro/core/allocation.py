"""Live sampling-budget allocation for multilevel MCMC.

The paper's efficiency argument is ultimately about *optimal* per-level
effort: the classical MLMC allocation ``N_l ∝ sqrt(V_l / C_l)`` spends the
budget where a sample buys the most variance reduction per unit cost.  This
module turns that formula into a *continuation-style* control loop that runs
while the chains are sampling, instead of a frozen up-front plan:

1. a coarse-heavy **pilot** round collects enough samples per level for first
   variance and cost measurements,
2. the policy folds the streamed signals — per-level
   :class:`~repro.evaluation.EvaluatorStats` costs and the collections'
   incremental Welford variance snapshots — into new per-level targets,
3. the chains **continue** (no samples are discarded; the pilot is the prefix
   of the production run), and the loop repeats until the budget is met.

Two budget shapes are supported by :class:`SamplingBudget`: a target MSE for
the estimator (the classical tolerance-driven allocation) or a total
evaluator-cost cap (its Lagrange dual: the best variance money can buy).

:class:`FixedAllocation` is the degenerate one-round policy that reproduces a
hand-set ``num_samples`` plan bitwise — it is what every sampler uses when no
budget is configured, so legacy runs are unchanged.

The same policy objects drive the sequential
:class:`~repro.core.mlmcmc.MLMCMCSampler` and the parallel machine's root
process, and the live targets are fed back to the phonebook so the load
balancer can weigh *estimated remaining work* instead of the static plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.estimators import cost_capped_allocation, optimal_sample_allocation

__all__ = [
    "AllocationPolicy",
    "AllocationRound",
    "ContinuationAllocation",
    "FixedAllocation",
    "LevelSnapshot",
    "SamplingBudget",
    "policy_from_budget",
]

#: floors applied to streamed signals before the allocation formulas see them:
#: a level whose pilot happened to measure zero variance (constant QOI so far)
#: or zero cost (cache served everything) must not divide the formula by zero
#: or starve forever.
_VARIANCE_FLOOR = 1e-12
_COST_FLOOR = 1e-9


@dataclass(frozen=True)
class SamplingBudget:
    """What "enough sampling" means for one run.

    Exactly one of ``target_mse`` (stop once the estimator variance is pushed
    below this tolerance) and ``cost_cap`` (spend at most this much total
    evaluator cost, in the cost model's units — seconds for measured costs)
    must be set.

    ``min_rounds`` forces at least that many re-allocation rounds even when
    the pilot already satisfies the budget: pilot variance estimates are
    noisy, and a confirmation round with refined estimates is cheap insurance
    against trusting a lucky pilot.  ``growth_factor`` caps how much any
    level's target may grow per round (continuation MLMC's usual guard
    against overshooting from a noisy variance estimate).
    """

    target_mse: float | None = None
    cost_cap: float | None = None
    max_rounds: int = 6
    min_rounds: int = 2
    growth_factor: float = 3.0

    def __post_init__(self) -> None:
        if (self.target_mse is None) == (self.cost_cap is None):
            raise ValueError(
                "exactly one of target_mse and cost_cap must be set"
            )
        if self.target_mse is not None and self.target_mse <= 0:
            raise ValueError("target_mse must be positive")
        if self.cost_cap is not None and self.cost_cap <= 0:
            raise ValueError("cost_cap must be positive")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be at least 1")
        if self.min_rounds < 1:
            raise ValueError("min_rounds must be at least 1")
        if self.growth_factor < 1.0:
            raise ValueError("growth_factor must be at least 1")

    def as_dict(self) -> dict:
        """JSON-safe view (``None`` entries omitted)."""
        payload: dict = {
            "max_rounds": int(self.max_rounds),
            "min_rounds": int(self.min_rounds),
            "growth_factor": float(self.growth_factor),
        }
        if self.target_mse is not None:
            payload["target_mse"] = float(self.target_mse)
        if self.cost_cap is not None:
            payload["cost_cap"] = float(self.cost_cap)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "SamplingBudget":
        """Rebuild a budget from :meth:`as_dict` output (extra keys ignored)."""
        kwargs: dict = {}
        for key in ("target_mse", "cost_cap", "growth_factor"):
            if payload.get(key) is not None:
                kwargs[key] = float(payload[key])
        for key in ("max_rounds", "min_rounds"):
            if payload.get(key) is not None:
                kwargs[key] = int(payload[key])
        return cls(**kwargs)


@dataclass
class LevelSnapshot:
    """The streamed per-level signals one re-allocation decision consumes.

    ``variance`` is the scalar (component-averaged) sample variance of the
    level's correction contributions from the collection's incremental
    Welford accumulator; ``cost_per_sample`` comes from the level's
    :class:`~repro.evaluation.EvaluatorStats` delta (sequential) or the
    measured cost model (parallel); ``total_cost`` is the evaluator cost
    already spent on this level.
    """

    level: int
    num_samples: int
    variance: float
    cost_per_sample: float
    total_cost: float = 0.0


@dataclass
class AllocationRound:
    """One realized round of the continuation loop (manifest trajectory row)."""

    round_index: int
    targets: list[int]
    collected: list[int]
    variances: list[float]
    costs_per_sample: list[float]
    spent_cost: float

    def as_dict(self) -> dict:
        """JSON-safe view for the manifest's ``allocation.rounds`` list."""
        return {
            "round": int(self.round_index),
            "targets": [int(t) for t in self.targets],
            "collected": [int(n) for n in self.collected],
            "variances": [float(v) for v in self.variances],
            "costs_per_sample": [float(c) for c in self.costs_per_sample],
            "spent_cost": float(self.spent_cost),
        }


class AllocationPolicy:
    """Turns streamed per-level signals into per-level sample targets.

    ``initial_targets`` opens the run (the pilot); ``update`` is called after
    every round with fresh :class:`LevelSnapshot` signals and either returns
    the next round's targets or ``None`` to stop.  Policies must be picklable:
    the parallel machine ships them to the root process on real-process
    transports.
    """

    name = "abstract"

    def initial_targets(self, num_levels: int) -> list[int]:
        raise NotImplementedError

    def update(self, snapshots: Sequence[LevelSnapshot]) -> list[int] | None:
        raise NotImplementedError


class FixedAllocation(AllocationPolicy):
    """The hand-set plan as a one-round policy (reproduces legacy runs bitwise)."""

    name = "fixed"

    def __init__(self, num_samples: Sequence[int]) -> None:
        self._num_samples = [int(n) for n in num_samples]
        if any(n < 0 for n in self._num_samples):
            raise ValueError("num_samples must be non-negative")

    def initial_targets(self, num_levels: int) -> list[int]:
        if num_levels != len(self._num_samples):
            raise ValueError(
                f"fixed plan has {len(self._num_samples)} levels, run has {num_levels}"
            )
        return list(self._num_samples)

    def update(self, snapshots: Sequence[LevelSnapshot]) -> list[int] | None:
        return None


class ContinuationAllocation(AllocationPolicy):
    """Continuation-style variance/cost-driven allocation.

    Parameters
    ----------
    budget:
        The :class:`SamplingBudget` to satisfy.
    pilot:
        Per-level sample counts of the opening round.  Defaults to a
        coarse-heavy geometric ladder ``pilot_base * 2**(L-1-l)`` — cheap
        levels buy the variance measurements, the fine level only enough to
        estimate its correction variance at all.
    pilot_base:
        Fine-level size of the default pilot ladder.
    """

    name = "adaptive"

    def __init__(
        self,
        budget: SamplingBudget,
        pilot: Sequence[int] | None = None,
        pilot_base: int = 16,
    ) -> None:
        self.budget = budget
        self.pilot = None if pilot is None else [max(2, int(n)) for n in pilot]
        self.pilot_base = max(2, int(pilot_base))
        self.rounds_completed = 0

    def initial_targets(self, num_levels: int) -> list[int]:
        if self.pilot is not None:
            if len(self.pilot) != num_levels:
                raise ValueError(
                    f"pilot has {len(self.pilot)} levels, run has {num_levels}"
                )
            return list(self.pilot)
        return [
            self.pilot_base * 2 ** (num_levels - 1 - level)
            for level in range(num_levels)
        ]

    # ------------------------------------------------------------------
    def _needed(self, variances: np.ndarray, costs: np.ndarray) -> np.ndarray:
        if self.budget.target_mse is not None:
            return optimal_sample_allocation(variances, costs, self.budget.target_mse)
        return cost_capped_allocation(variances, costs, self.budget.cost_cap)

    def update(self, snapshots: Sequence[LevelSnapshot]) -> list[int] | None:
        self.rounds_completed += 1
        current = [int(s.num_samples) for s in snapshots]
        variances = np.maximum(
            [float(s.variance) for s in snapshots], _VARIANCE_FLOOR
        )
        costs = np.maximum(
            [float(s.cost_per_sample) for s in snapshots], _COST_FLOOR
        )
        needed = self._needed(variances, costs)
        grown = [
            min(
                int(needed[level]),
                int(math.ceil(max(1, current[level]) * self.budget.growth_factor)),
            )
            for level in range(len(current))
        ]
        targets = [max(current[level], grown[level]) for level in range(len(current))]
        spent = float(sum(s.total_cost for s in snapshots))
        if self.budget.cost_cap is not None:
            remaining = self.budget.cost_cap - spent
            if remaining <= 0:
                return None
            # Never commit to more work than the remaining budget can pay
            # for: the optimal split re-prices the whole cap, but samples
            # already collected past a level's optimal share cannot be
            # unspent, so scale the per-level *increments* to fit.
            increment_cost = float(
                sum(
                    (targets[level] - current[level]) * costs[level]
                    for level in range(len(current))
                )
            )
            if increment_cost > remaining:
                scale = remaining / increment_cost
                targets = [
                    current[level]
                    + int((targets[level] - current[level]) * scale)
                    for level in range(len(current))
                ]
        met = targets == current
        if self.rounds_completed >= self.budget.max_rounds:
            return None
        if met:
            if self.rounds_completed >= self.budget.min_rounds:
                return None
            if self.budget.cost_cap is not None:
                # growing past "met" would overshoot the cap; stop instead of
                # forcing a confirmation round the budget cannot pay for
                return None
            # confirmation round: the pilot's variance estimates were trusted
            # for this decision, so firm them up with ~25% more data before
            # declaring the MSE target reached
            targets = [max(n + 1, int(math.ceil(n * 1.25))) for n in current]
        return targets


def policy_from_budget(
    budget_spec: dict, num_samples: Sequence[int] | None = None
) -> ContinuationAllocation | None:
    """Build the adaptive policy an ``ExperimentSpec.budget`` block describes.

    Returns ``None`` for an empty block or ``policy: "fixed"`` — callers then
    keep their hand-set ``num_samples`` plan (wrapped in
    :class:`FixedAllocation` by the samplers), preserving bitwise-identical
    legacy behaviour.  When the block gives no explicit ``pilot``, a
    coarse-heavy ladder is derived from the scenario's ``num_samples`` plan
    (one eighth of each level's plan, at least 4) so quick-tier scaling
    applies to the pilot too.
    """
    if not budget_spec or budget_spec.get("policy", "adaptive") == "fixed":
        return None
    budget = SamplingBudget.from_dict(budget_spec)
    pilot = budget_spec.get("pilot")
    if pilot is None and num_samples is not None:
        pilot = [max(4, int(n) // 8) for n in num_samples]
    return ContinuationAllocation(budget, pilot=pilot)
