"""Tests for the tsunami inverse-problem hierarchy and the analytic Gaussian hierarchy."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MLMCMCSampler
from repro.models.gaussian import GaussianHierarchyFactory
from repro.models.tsunami import PAPER_LEVEL_SPECS, TsunamiInverseProblemFactory, TsunamiLevelSpec


class TestGaussianHierarchy:
    def test_exact_moments(self):
        factory = GaussianHierarchyFactory(dim=2, num_levels=3, limit_mean=2.0, decay=0.5)
        np.testing.assert_allclose(factory.level_mean(0), [1.0, 1.0])
        np.testing.assert_allclose(factory.level_mean(2), [2.0 * (1 - 0.125)] * 2)
        np.testing.assert_allclose(factory.exact_mean(), factory.level_mean(2))
        np.testing.assert_allclose(
            factory.exact_correction(1), factory.level_mean(1) - factory.level_mean(0)
        )
        np.testing.assert_allclose(factory.exact_correction(0), factory.level_mean(0))

    def test_corrections_decay_geometrically(self):
        factory = GaussianHierarchyFactory(dim=1, num_levels=4, decay=0.5)
        corrections = [abs(factory.exact_correction(level)[0]) for level in range(1, 4)]
        ratios = [corrections[i + 1] / corrections[i] for i in range(2)]
        np.testing.assert_allclose(ratios, 0.5, rtol=1e-12)

    def test_costs_default_to_pde_scaling(self):
        factory = GaussianHierarchyFactory(num_levels=3)
        assert factory.problem_for_level(2).evaluation_cost() == pytest.approx(16.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianHierarchyFactory(num_levels=0)
        with pytest.raises(ValueError):
            GaussianHierarchyFactory(decay=1.5)

    def test_factory_interface_roundtrip(self):
        factory = GaussianHierarchyFactory(dim=3, num_levels=2)
        assert factory.num_levels() == 2
        finest = factory.num_levels() - 1
        problem = factory.problem_for_level(finest)
        assert problem.dim == 3
        assert factory.starting_point_for_level(finest).shape == (3,)
        assert factory.subsampling_rate_for_level(finest) == factory.subsampling


class TestTsunamiFactory:
    def test_paper_defaults(self):
        assert PAPER_LEVEL_SPECS[0].num_cells == 25
        assert PAPER_LEVEL_SPECS[1].num_cells == 79
        assert PAPER_LEVEL_SPECS[2].num_cells == 241
        assert PAPER_LEVEL_SPECS[0].sigma_heights == 0.15
        assert PAPER_LEVEL_SPECS[2].sigma_times == 0.75
        assert not PAPER_LEVEL_SPECS[0].limiter and PAPER_LEVEL_SPECS[2].limiter

    def test_observation_table_layout(self, small_tsunami_factory):
        rows = small_tsunami_factory.observation_table()
        assert len(rows) == 4  # two buoys x (max height, arrival time)
        assert rows[0]["sigma_l0"] == pytest.approx(0.15)
        assert rows[2]["sigma_l1"] == pytest.approx(1.5)
        assert all(np.isfinite(row["mu"]) for row in rows)

    def test_level_summary(self, small_tsunami_factory):
        rows = small_tsunami_factory.level_summary()
        assert len(rows) == 2
        assert rows[0]["bathymetry"] == "constant"
        assert rows[1]["limiter"] is True

    def test_data_generated_from_finest_level(self, small_tsunami_factory):
        finest = small_tsunami_factory.num_levels() - 1
        observed = small_tsunami_factory.scenario.observe(
            finest, small_tsunami_factory.true_location
        )
        np.testing.assert_allclose(observed, small_tsunami_factory.data)

    def test_likelihood_is_level_dependent(self, small_tsunami_factory):
        like0 = small_tsunami_factory.likelihood_for_level(0)
        like1 = small_tsunami_factory.likelihood_for_level(1)
        assert like0.covariance_diagonal[0] > like1.covariance_diagonal[0]

    def test_posterior_prefers_truth_over_distant_sources(self, small_tsunami_factory):
        problem = small_tsunami_factory.problem_for_level(1)
        at_truth = problem.log_density(np.zeros(2))
        far_away = problem.log_density(np.array([90.0, 90.0]))
        assert at_truth > far_away

    def test_source_on_land_is_unphysical_but_finite(self, small_tsunami_factory):
        problem = small_tsunami_factory.problem_for_level(0)
        on_land = problem.log_density(np.array([-119.0, 0.0]))
        in_ocean = problem.log_density(np.array([10.0, 10.0]))
        assert on_land < in_ocean
        assert np.isfinite(on_land)  # "almost zero likelihood", not a crash

    def test_outside_prior_box_is_minus_infinity(self, small_tsunami_factory):
        problem = small_tsunami_factory.problem_for_level(0)
        assert problem.log_density(np.array([500.0, 0.0])) == -np.inf

    def test_qoi_is_the_parameter(self, small_tsunami_factory):
        problem = small_tsunami_factory.problem_for_level(0)
        theta = np.array([12.0, -7.0])
        np.testing.assert_allclose(problem.qoi(theta), theta)

    def test_subsampling_and_cost_scaling(self, small_tsunami_factory):
        assert small_tsunami_factory.subsampling_rate_for_level(1) == 2
        cost0 = small_tsunami_factory.problem_for_level(0).evaluation_cost()
        cost1 = small_tsunami_factory.problem_for_level(1).evaluation_cost()
        assert cost1 == pytest.approx(cost0 * 4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TsunamiInverseProblemFactory(
                level_specs=(TsunamiLevelSpec(0, 8, "constant", False, 0.15, 2.5),),
                subsampling_rates=[0, 5],
                end_time=300.0,
            )

    def test_mini_mlmcmc_inversion_is_in_the_ocean(self, small_tsunami_factory):
        result = MLMCMCSampler(
            small_tsunami_factory, num_samples=[40, 15], burnin=[5, 2], seed=8
        ).run()
        estimate = result.mean
        assert estimate.shape == (2,)
        # the posterior mean stays within the prior box and not absurdly far
        # from the true source at the origin (the posterior is wide)
        assert np.all(np.abs(estimate) < 120.0)
        assert len(result.corrections[1]) == 15
