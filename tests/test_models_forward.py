"""Conformance tests for the shared ForwardModel layer (:mod:`repro.models.base`).

Every application's forward map — Poisson, Gaussian, tsunami — must satisfy
the same contract: ``forward_batch`` of an ``(n, dim)`` block row-equals the
stacked scalar ``forward`` evaluations, with ``output_dim`` columns.  The
tsunami model's batch path additionally has to actually take the vectorized
route through :class:`repro.evaluation.BatchEvaluator` (the whole point of
the ensemble solver), which the evaluator statistics confirm.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.evaluation import BatchEvaluator
from repro.models.base import ForwardModel
from repro.models.gaussian import GaussianIdentityForwardModel
from repro.models.tsunami import TsunamiInverseProblemFactory, TsunamiLevelSpec


def _small_tsunami_factory(**kwargs) -> TsunamiInverseProblemFactory:
    return TsunamiInverseProblemFactory(
        level_specs=(
            TsunamiLevelSpec(0, 12, "constant", False, 0.15, 2.5),
            TsunamiLevelSpec(1, 24, "smoothed", True, 0.10, 1.5, smoothing_passes=2),
        ),
        end_time=900.0,
        subsampling_rates=[0, 2],
        **kwargs,
    )


@pytest.fixture(scope="module")
def forward_models(small_poisson_factory):
    """One representative (model, parameter block) pair per application."""
    rng = np.random.default_rng(99)
    poisson = small_poisson_factory.forward_model(0)
    tsunami = _small_tsunami_factory().forward_model(1)
    return {
        "poisson": (poisson, rng.standard_normal((4, poisson.parameter_dim))),
        "gaussian": (GaussianIdentityForwardModel(3), rng.standard_normal((4, 3))),
        "tsunami": (tsunami, np.array([[0.0, 0.0], [15.0, -10.0], [-20.0, 25.0]])),
    }


class TestForwardModelConformance:
    @pytest.mark.parametrize("name", ["poisson", "gaussian", "tsunami"])
    def test_implements_the_protocol(self, forward_models, name):
        model, _ = forward_models[name]
        assert isinstance(model, ForwardModel)
        assert model.output_dim > 0

    @pytest.mark.parametrize("name", ["poisson", "gaussian", "tsunami"])
    def test_forward_batch_row_equals_stacked_forward(self, forward_models, name):
        model, thetas = forward_models[name]
        stacked = np.stack([model.forward(theta) for theta in thetas])
        batched = model.forward_batch(thetas)
        assert batched.shape == (thetas.shape[0], model.output_dim)
        np.testing.assert_allclose(batched, stacked, rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("name", ["poisson", "gaussian", "tsunami"])
    def test_call_matches_forward(self, forward_models, name):
        model, thetas = forward_models[name]
        np.testing.assert_array_equal(model(thetas[0]), model.forward(thetas[0]))

    def test_tsunami_batch_is_bitwise_identical(self, forward_models):
        # Stronger than the 1e-10 contract: the ensemble solver integrates
        # every member with its own CFL step through operation-identical
        # kernels, so the batch path reproduces the scalar path exactly.
        model, thetas = forward_models["tsunami"]
        stacked = np.stack([model.forward(theta) for theta in thetas])
        np.testing.assert_array_equal(model.forward_batch(thetas), stacked)

    def test_tsunami_physical_mask_matches_scalar_check(self, forward_models):
        from repro.bayes.likelihood import UnphysicalModelOutput

        model, _ = forward_models["tsunami"]
        thetas = np.array([[0.0, 0.0], [-185.0, 0.0], [1e6, 0.0], [10.0, 10.0]])
        mask = model.physical_mask(thetas)
        np.testing.assert_array_equal(mask, [True, False, False, True])
        with pytest.raises(UnphysicalModelOutput):
            model.forward_batch(thetas)


class TestTsunamiBatchEvaluator:
    def test_batch_evaluator_takes_the_batch_path(self):
        problem = _small_tsunami_factory().problem_for_level(0)
        assert isinstance(problem.evaluator, BatchEvaluator)
        thetas = np.array([[0.0, 0.0], [10.0, 5.0], [-119.0, 0.0], [20.0, -10.0]])
        values = problem.log_density_batch(thetas)

        stats = problem.evaluation_stats
        assert stats.batch_calls >= 1, "tsunami block was not served by the batch path"
        assert stats.log_density_evaluations == thetas.shape[0]

        # identical to a scalar-evaluated problem, including the unphysical row
        scalar_problem = _small_tsunami_factory().problem_for_level(0)
        expected = np.array([scalar_problem.log_density(t) for t in thetas])
        np.testing.assert_array_equal(values, expected)
        assert scalar_problem.evaluation_stats.batch_calls == 0
