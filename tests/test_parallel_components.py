"""Tests for layout, the cost model and the load-balancing policy."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import POISSON_PAPER_COSTS, TSUNAMI_PAPER_COSTS, CostModel
from repro.parallel.layout import ProcessLayout
from repro.parallel.loadbalancer import (
    DynamicLoadBalancer,
    LevelLoad,
    StaticLoadBalancer,
)


class TestProcessLayout:
    def test_basic_roles(self):
        layout = ProcessLayout.create(num_ranks=16, num_levels=3)
        assert layout.root_rank == 0
        assert layout.phonebook_rank == 1
        assert len(layout.collector_ranks) == 3
        assert layout.num_work_groups >= 3
        all_ranks = (
            [layout.root_rank, layout.phonebook_rank]
            + [r for ranks in layout.collector_ranks.values() for r in ranks]
            + layout.controller_ranks
            + layout.worker_ranks
        )
        assert len(all_ranks) == len(set(all_ranks))
        assert max(all_ranks) < 16

    def test_every_level_gets_a_group(self):
        layout = ProcessLayout.create(num_ranks=10, num_levels=3)
        for level in range(3):
            assert len(layout.groups_for_level(level)) >= 1

    def test_weights_skew_group_allocation(self):
        heavy_coarse = ProcessLayout.create(
            num_ranks=40, num_levels=2, level_weights=[10.0, 1.0]
        )
        heavy_fine = ProcessLayout.create(
            num_ranks=40, num_levels=2, level_weights=[1.0, 10.0]
        )
        assert len(heavy_coarse.groups_for_level(0)) > len(heavy_fine.groups_for_level(0))

    def test_workers_per_group(self):
        layout = ProcessLayout.create(num_ranks=30, num_levels=2, workers_per_group=[0, 3])
        for group in layout.work_groups:
            expected = 0 if group.initial_level == 0 else 3
            assert len(group.worker_ranks) == expected
            assert group.size == expected + 1

    def test_insufficient_ranks_rejected(self):
        with pytest.raises(ValueError):
            ProcessLayout.create(num_ranks=6, num_levels=3, workers_per_group=2)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ProcessLayout.create(num_ranks=10, num_levels=0)
        with pytest.raises(ValueError):
            ProcessLayout.create(num_ranks=10, num_levels=2, workers_per_group=[1])
        with pytest.raises(ValueError):
            ProcessLayout.create(num_ranks=10, num_levels=2, level_weights=[1.0, -1.0])

    def test_describe(self):
        layout = ProcessLayout.create(num_ranks=20, num_levels=3)
        info = layout.describe()
        assert info["num_ranks"] == 20
        assert sum(info["groups_per_level"].values()) == layout.num_work_groups

    @given(num_ranks=st.integers(8, 200), num_levels=st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_property_rank_budget_respected(self, num_ranks, num_levels):
        min_needed = 2 + num_levels + num_levels  # root, phonebook, collectors, 1 group/level
        if num_ranks < min_needed:
            return
        layout = ProcessLayout.create(num_ranks=num_ranks, num_levels=num_levels)
        used = (
            2
            + sum(len(r) for r in layout.collector_ranks.values())
            + sum(g.size for g in layout.work_groups)
        )
        assert used <= num_ranks
        assert all(len(layout.groups_for_level(level)) >= 1 for level in range(num_levels))


class TestCostModel:
    def test_means_clamp_to_last_level(self):
        model = CostModel([1.0, 10.0])
        assert model.mean(0) == 1.0
        assert model.mean(1) == 10.0
        assert model.mean(5) == 10.0

    @pytest.mark.parametrize("means", [[0.0, 1.0], [1.0, -2.0], []])
    def test_means_must_be_positive(self, means):
        with pytest.raises(ValueError, match="positive"):
            CostModel(means)

    def test_negative_cv_rejected(self):
        with pytest.raises(ValueError, match="cv"):
            CostModel([1.0], cv=-0.1)

    def test_zero_cv_returns_the_mean_and_leaves_rng_untouched(self):
        model = CostModel([3.0, 5.0])
        rng = np.random.default_rng(2)
        before = rng.bit_generator.state
        assert model.sample(0, rng) == 3.0
        assert model.sample(7, rng) == 5.0
        assert rng.bit_generator.state == before

    def test_lognormal_mean_and_variability(self):
        model = CostModel([2.0], cv=0.5)
        rng = np.random.default_rng(1)
        before = rng.bit_generator.state
        draws = np.array([model.sample(0, rng) for _ in range(20000)])
        assert rng.bit_generator.state != before
        assert draws.mean() == pytest.approx(2.0, rel=0.05)
        assert draws.std() / draws.mean() == pytest.approx(0.5, rel=0.1)
        assert np.all(draws > 0)

    def test_paper_cost_constants(self):
        assert len(POISSON_PAPER_COSTS) == 3 and len(TSUNAMI_PAPER_COSTS) == 3
        assert POISSON_PAPER_COSTS[2] > POISSON_PAPER_COSTS[0]
        assert TSUNAMI_PAPER_COSTS == (7.38, 97.3, 438.1)


def _loads(chain0=0, chain1=0, avail0=0, avail1=0, groups=(2, 2), done=(False, False)):
    return {
        0: LevelLoad(0, queued_chain_requests=chain0, available_samples=avail0,
                     num_groups=groups[0], done=done[0], needed_as_proposal_source=not done[1]),
        1: LevelLoad(1, queued_chain_requests=chain1, available_samples=avail1,
                     num_groups=groups[1], done=done[1], needed_as_proposal_source=False),
    }


class TestLoadBalancer:
    def _balancer(self, **kwargs):
        return DynamicLoadBalancer(level_cost=CostModel([1.0, 2.0]).mean, **kwargs)

    def test_no_decision_without_pressure(self):
        balancer = self._balancer()
        assert balancer.decide(_loads(), now=100.0) is None

    def test_moves_group_towards_starving_level(self):
        balancer = self._balancer(pressure_threshold=1.0)
        decision = balancer.decide(_loads(chain0=5, avail1=10), now=10.0)
        assert decision is not None
        assert decision.target_level == 0
        assert decision.source_level == 1

    def test_never_empties_a_needed_level(self):
        balancer = self._balancer(pressure_threshold=1.0)
        loads = _loads(chain0=5, groups=(1, 1))
        # level 1 is not done and has only one group: it may not donate
        decision = balancer.decide(loads, now=10.0)
        assert decision is None

    def test_done_and_unneeded_level_can_be_emptied(self):
        balancer = self._balancer(pressure_threshold=1.0)
        loads = _loads(chain1=5, groups=(1, 1), done=(True, False))
        # level 0 is done; is it needed as a proposal source? In _loads the
        # needed flag of level 0 is "not done(1)" = True, so it is protected.
        assert balancer.decide(loads, now=10.0) is None
        loads = _loads(chain1=5, groups=(1, 1), done=(True, True))
        loads[1].done = False  # level 1 still collecting but level 0 not needed
        loads[0].needed_as_proposal_source = False
        decision = balancer.decide(loads, now=10.0)
        assert decision is not None and decision.source_level == 0

    def test_rate_limiting_between_decisions(self):
        balancer = self._balancer(pressure_threshold=1.0, rate_limit_factor=5.0)
        first = balancer.decide(_loads(chain0=5, avail1=10), now=10.0)
        assert first is not None
        immediately_after = balancer.decide(_loads(chain0=5, avail1=10), now=10.5)
        assert immediately_after is None
        later = balancer.decide(_loads(chain0=5, avail1=10), now=30.0)
        assert later is not None

    def test_min_interval_rate_limit(self):
        balancer = self._balancer(pressure_threshold=1.0, min_interval=100.0)
        assert balancer.decide(_loads(chain0=5, avail1=10), now=10.0) is not None
        assert balancer.decide(_loads(chain0=5, avail1=10), now=50.0) is None
        assert balancer.decide(_loads(chain0=5, avail1=10), now=200.0) is not None

    def test_rate_limit_uses_levels_involved_in_move(self):
        # Regression: the interval was derived from the slowest level of the
        # WHOLE hierarchy, so in a steep cost hierarchy a move between two
        # cheap coarse levels was suppressed for 5 x the finest level's run
        # time even though neither level was involved.
        balancer = DynamicLoadBalancer(
            level_cost=CostModel([0.01, 0.02, 1000.0]).mean,
            pressure_threshold=1.0,
            rate_limit_factor=5.0,
        )

        def coarse_loads():
            return {
                0: LevelLoad(0, queued_chain_requests=5, num_groups=1),
                1: LevelLoad(1, available_samples=10, num_groups=2,
                             done=True, needed_as_proposal_source=False),
                2: LevelLoad(2, num_groups=1),
            }

        first = balancer.decide(coarse_loads(), now=10.0)
        assert first is not None
        assert {first.source_level, first.target_level} == {0, 1}
        # 0.5 s later: far beyond 5 * max(cost(0), cost(1)) = 0.1 s, yet far
        # below 5 * cost(2) = 5000 s.  The move must go through.
        second = balancer.decide(coarse_loads(), now=10.5)
        assert second is not None, "coarse-level move over-throttled by fine-level cost"

        # A move involving the expensive level is still rate-limited by it.
        expensive_loads = {
            0: LevelLoad(0, available_samples=10, num_groups=2,
                         done=True, needed_as_proposal_source=False),
            2: LevelLoad(2, queued_chain_requests=5, num_groups=1),
        }
        assert balancer.decide(expensive_loads, now=11.0) is None
        assert balancer.decide(expensive_loads, now=11.0 + 6000.0) is not None

    def test_pressure_threshold_prevents_marginal_moves(self):
        balancer = self._balancer(pressure_threshold=100.0)
        assert balancer.decide(_loads(chain0=2, avail1=1), now=10.0) is None

    def test_chain_requests_weigh_more_than_collector_requests(self):
        load = LevelLoad(0, queued_chain_requests=1, queued_collector_requests=1)
        pressure = load.pressure(chain_weight=4.0, collector_weight=1.0)
        assert pressure == pytest.approx(5.0)

    def test_static_balancer_never_moves(self):
        balancer = StaticLoadBalancer()
        assert balancer.decide(_loads(chain0=100, avail1=50), now=10.0) is None

    def test_empty_loads(self):
        assert self._balancer().decide({}, now=0.0) is None

    def test_pressure_ignores_remaining_work_by_default(self):
        # static runs report no remaining-work share and legacy callers pass
        # no third weight: the pressure must be exactly the old two-term value
        load = LevelLoad(0, queued_chain_requests=1, queued_collector_requests=1,
                         estimated_remaining_work=0.9)
        assert load.pressure(chain_weight=4.0, collector_weight=1.0) == pytest.approx(5.0)

    def test_remaining_work_share_adds_demand(self):
        load = LevelLoad(0, queued_chain_requests=1, queued_collector_requests=1,
                         estimated_remaining_work=0.9)
        pressure = load.pressure(4.0, 1.0, remaining_work_weight=2.0)
        assert pressure == pytest.approx(5.0 + 2.0 * 0.9)

    def test_remaining_work_steers_target_selection(self):
        # Two equally starving levels; the live allocation reports that level
        # 1 holds most of the run's remaining work, so it wins the group.
        balancer = self._balancer(pressure_threshold=1.0)

        def loads(remaining1=0.0):
            return {
                0: LevelLoad(0, queued_chain_requests=3, num_groups=1),
                1: LevelLoad(1, queued_chain_requests=3, num_groups=1,
                             estimated_remaining_work=remaining1),
                2: LevelLoad(2, available_samples=4, num_groups=2,
                             done=True, needed_as_proposal_source=False),
            }

        baseline = balancer.decide(loads(), now=10.0)
        assert baseline is not None and baseline.target_level == 0
        steered = self._balancer(pressure_threshold=1.0).decide(
            loads(remaining1=0.9), now=10.0
        )
        assert steered is not None
        assert steered.target_level == 1
        assert steered.source_level == 2

    def test_remaining_work_share_unlocks_marginal_move(self):
        balancer = self._balancer(pressure_threshold=21.0)

        def loads(remaining0=0.0):
            return {
                0: LevelLoad(0, queued_chain_requests=2, num_groups=1,
                             estimated_remaining_work=remaining0),
                1: LevelLoad(1, available_samples=10, num_groups=2,
                             done=True, needed_as_proposal_source=False),
            }

        # queue pressure alone (8 vs -12) stays under the threshold ...
        assert balancer.decide(loads(), now=10.0) is None
        # ... but the remaining-work share of an adaptive run tips it over
        decision = balancer.decide(loads(remaining0=1.0), now=10.0)
        assert decision is not None
        assert decision.target_level == 0 and decision.source_level == 1
