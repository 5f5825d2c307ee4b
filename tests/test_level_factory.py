"""Tests for the level-indexed component layer.

Covers :class:`repro.core.MLComponentFactory` (the one factory base: levels
are plain integers), the construct-once :class:`repro.core.LevelProblems`
cache, the shared chain builder :func:`repro.core.level_chain`, the
three-argument :class:`repro.core.MultilevelKernel`, and the proposal
adaptation state that chain snapshots carry.
"""

from __future__ import annotations

import inspect
import pickle

import numpy as np
import pytest

from repro.bayes.distributions import GaussianDensity
from repro.core import (
    LevelProblems,
    MLComponentFactory,
    MLMCMCSampler,
    level_chain,
)
from repro.core.chain import SingleChainMCMC, SubsampledChainSource
from repro.core.kernels import MHKernel, MultilevelKernel
from repro.core.problem import GaussianTargetProblem
from repro.core.proposals import (
    AdaptiveMetropolisProposal,
    BufferedChainSource,
    GaussianRandomWalkProposal,
    IndependenceProposal,
    PreconditionedCrankNicolsonProposal,
    SubsamplingProposal,
)
from repro.evaluation import CachingEvaluator
from repro.models.gaussian import GaussianHierarchyFactory
from repro.parallel import CheckpointConfig, CheckpointError, Checkpointer
from repro.parallel.checkpoint import CHECKPOINT_VERSION


class _MinimalFactory(MLComponentFactory):
    """Implements only the abstract hooks; records every problem request."""

    def __init__(self, num_levels: int = 3) -> None:
        self._num_levels = num_levels
        self.problem_requests: list[int] = []

    def num_levels(self) -> int:
        return self._num_levels

    def problem_for_level(self, level: int) -> GaussianTargetProblem:
        self.problem_requests.append(level)
        return GaussianTargetProblem(np.full(2, float(level)), 1.0)

    def proposal_for_level(self, level, problem) -> GaussianRandomWalkProposal:
        return GaussianRandomWalkProposal(0.5, dim=2)

    def starting_point_for_level(self, level: int) -> np.ndarray:
        return np.full(2, 0.1 * level)


def _am_proposal() -> AdaptiveMetropolisProposal:
    return AdaptiveMetropolisProposal(1.0, dim=2, adapt_start=5, adapt_interval=5)


def _adapted_am(steps: int = 40, seed: int = 0) -> AdaptiveMetropolisProposal:
    proposal = _am_proposal()
    history = np.random.default_rng(seed).normal(size=(steps, 2)) * [1.0, 3.0]
    for iteration, parameters in enumerate(history, start=1):
        proposal.adapt(iteration, parameters, True)
    return proposal


# ----------------------------------------------------------------------------
class TestMLComponentFactory:
    def test_abstract_hooks_are_the_level_interface(self):
        assert MLComponentFactory.__abstractmethods__ == {
            "num_levels",
            "problem_for_level",
            "proposal_for_level",
            "starting_point_for_level",
        }

    def test_factory_missing_a_hook_cannot_be_instantiated(self):
        class Incomplete(MLComponentFactory):
            def num_levels(self):
                return 1

        with pytest.raises(TypeError):
            Incomplete()

    def test_default_subsampling_rate_is_one(self):
        factory = _MinimalFactory()
        assert [factory.subsampling_rate_for_level(l) for l in range(3)] == [1, 1, 1]

    def test_default_evaluator_is_in_process(self):
        assert _MinimalFactory().evaluator_for_level(0) is None

    def test_backend_attribute_builds_a_fresh_evaluator_per_call(self):
        factory = _MinimalFactory()
        factory.evaluation_backend = "caching"
        factory.evaluator_options = {"cache_size": 7}
        first, second = factory.evaluator_for_level(1), factory.evaluator_for_level(1)
        assert isinstance(first, CachingEvaluator)
        assert first.max_entries == 7
        assert first is not second


# ----------------------------------------------------------------------------
class TestLevelProblems:
    def test_each_level_is_constructed_once(self):
        factory = _MinimalFactory()
        problems = LevelProblems(factory)
        first = problems.problem(1)
        assert problems.problem(1) is first
        assert factory.problem_requests == [1]

    def test_levels_get_distinct_problems(self):
        problems = LevelProblems(_MinimalFactory())
        assert problems.problem(0) is not problems.problem(1)
        assert problems.problem(2).log_density(np.full(2, 2.0)) == pytest.approx(
            problems.problem(1).log_density(np.full(2, 1.0))
        )

    def test_nothing_is_built_until_requested(self):
        factory = _MinimalFactory()
        problems = LevelProblems(factory)
        assert problems.stats() == {}
        assert factory.problem_requests == []

    def test_stats_cover_built_levels_in_level_order(self):
        problems = LevelProblems(_MinimalFactory())
        problems.problem(2)
        problems.problem(0)
        assert list(problems.stats()) == [0, 2]

    def test_stats_are_snapshots(self):
        problems = LevelProblems(_MinimalFactory())
        problem = problems.problem(0)
        before = problems.stats()[0]
        problem.log_density(np.zeros(2))
        after = problems.stats()[0]
        assert after.density_requests == before.density_requests + 1
        assert problems.stats()[0] is not after


# ----------------------------------------------------------------------------
class TestLevelChain:
    def test_without_coarse_source_runs_mh_with_the_factory_proposal(self):
        problems = LevelProblems(_MinimalFactory())
        chain = level_chain(problems, 0, np.random.default_rng(0), burnin=3)
        assert isinstance(chain.kernel, MHKernel)
        assert chain.kernel.problem is problems.problem(0)
        assert isinstance(chain.kernel.proposal, GaussianRandomWalkProposal)

    def test_single_level_baseline_runs_mh_on_a_fine_level(self):
        problems = LevelProblems(_MinimalFactory())
        chain = level_chain(problems, 2, np.random.default_rng(0), burnin=1)
        assert isinstance(chain.kernel, MHKernel)
        assert chain.kernel.problem is problems.problem(2)

    def test_with_coarse_source_runs_multilevel_on_adjacent_problems(self):
        problems = LevelProblems(_MinimalFactory())
        source = BufferedChainSource(subsampling_rate=2)
        chain = level_chain(problems, 2, np.random.default_rng(0), 1, source)
        kernel = chain.kernel
        assert isinstance(kernel, MultilevelKernel)
        assert kernel.fine_problem is problems.problem(2)
        assert kernel.coarse_problem is problems.problem(1)
        assert kernel.coarse_proposal.source is source

    def test_chains_share_problems_but_not_proposals(self):
        problems = LevelProblems(_MinimalFactory())
        a = level_chain(problems, 0, np.random.default_rng(0), 1)
        b = level_chain(problems, 0, np.random.default_rng(1), 1)
        assert a.kernel.problem is b.kernel.problem
        assert a.kernel.proposal is not b.kernel.proposal

    def test_chain_carries_level_burnin_start_rng_and_record(self):
        problems = LevelProblems(_MinimalFactory())
        rng = np.random.default_rng(0)
        chain = level_chain(problems, 1, rng, burnin=4, record=False)
        assert chain.level == 1
        assert chain.burnin == 4
        assert chain.rng is rng
        assert chain.record is False
        np.testing.assert_array_equal(chain.current_state.parameters, [0.1, 0.1])

    def test_mh_chain_matches_a_hand_built_chain_bitwise(self):
        factory = GaussianHierarchyFactory(dim=2, num_levels=2)
        built = level_chain(LevelProblems(factory), 0, np.random.default_rng(7), 5)
        problem = factory.problem_for_level(0)
        by_hand = SingleChainMCMC(
            MHKernel(problem, factory.proposal_for_level(0, problem)),
            factory.starting_point_for_level(0),
            np.random.default_rng(7),
            burnin=5,
            level=0,
        )
        built.run(50)
        by_hand.run(50)
        np.testing.assert_array_equal(
            built.samples.parameters(), by_hand.samples.parameters()
        )

    def test_multilevel_chain_matches_a_hand_built_chain_bitwise(self):
        factory = GaussianHierarchyFactory(dim=2, num_levels=2)
        problems = LevelProblems(factory)

        def coarse_source(seed: int) -> SubsampledChainSource:
            coarse = level_chain(problems, 0, np.random.default_rng(seed), 0, record=False)
            return SubsampledChainSource(coarse, subsampling_rate=3)

        built = level_chain(problems, 1, np.random.default_rng(7), 5, coarse_source(1))
        kernel = MultilevelKernel(
            problems.problem(1),
            problems.problem(0),
            SubsamplingProposal(coarse_source(1)),
        )
        by_hand = SingleChainMCMC(
            kernel, np.zeros(2), np.random.default_rng(7), burnin=5, level=1
        )
        built.run(30)
        by_hand.run(30)
        np.testing.assert_array_equal(
            built.samples.parameters(), by_hand.samples.parameters()
        )
        assert built.kernel.num_accepted == by_hand.kernel.num_accepted

    def test_sequential_chain_stack_shares_the_sampler_problems(self):
        factory = GaussianHierarchyFactory(dim=2, num_levels=3)
        sampler = MLMCMCSampler(factory, num_samples=[10, 10, 10], seed=0)
        top = sampler.build_chain(2)
        middle = top.kernel.coarse_proposal.source.chain
        bottom = middle.kernel.coarse_proposal.source.chain
        assert top.kernel.fine_problem is sampler.problems.problem(2)
        assert middle.kernel.fine_problem is sampler.problems.problem(1)
        assert bottom.kernel.problem is sampler.problems.problem(0)
        assert isinstance(bottom.kernel, MHKernel)


# ----------------------------------------------------------------------------
class TestMultilevelKernelSignature:
    def test_takes_the_two_problems_and_the_coarse_proposal(self):
        parameters = list(inspect.signature(MultilevelKernel).parameters)
        assert parameters == ["fine_problem", "coarse_problem", "coarse_proposal"]


# ----------------------------------------------------------------------------
class TestProposalState:
    @pytest.mark.parametrize(
        "make_proposal",
        [
            lambda: GaussianRandomWalkProposal(0.5, dim=2),
            lambda: PreconditionedCrankNicolsonProposal(GaussianDensity(np.zeros(2), 1.0)),
            lambda: IndependenceProposal(GaussianDensity(np.zeros(2), 1.0)),
        ],
        ids=["random_walk", "pcn", "independence"],
    )
    def test_fixed_proposals_have_empty_state(self, make_proposal):
        proposal = make_proposal()
        assert proposal.state_dict() == {}
        proposal.load_state_dict({})

    def test_am_state_is_a_copy(self):
        proposal = _adapted_am(steps=20)
        state = proposal.state_dict()
        saved_chol = state["chol"].copy()
        saved_count = state["moments"].count
        for iteration in range(21, 41):
            proposal.adapt(iteration, np.full(2, float(iteration)), True)
        np.testing.assert_array_equal(state["chol"], saved_chol)
        assert state["moments"].count == saved_count

    def test_am_load_restores_covariance_and_adaptation_count(self):
        source = _adapted_am()
        assert source.num_adaptations > 0
        target = _am_proposal()
        target.load_state_dict(source.state_dict())
        np.testing.assert_array_equal(
            target.current_covariance(), source.current_covariance()
        )
        assert target.num_adaptations == source.num_adaptations

    def test_am_loaded_proposal_adapts_like_its_source(self):
        source = _adapted_am()
        target = _am_proposal()
        target.load_state_dict(source.state_dict())
        for proposal in (source, target):
            for iteration in range(41, 61):
                proposal.adapt(iteration, np.array([iteration, -1.0]), True)
        np.testing.assert_array_equal(
            target.current_covariance(), source.current_covariance()
        )
        assert target.num_adaptations == source.num_adaptations

    def test_am_state_survives_pickling(self):
        source = _adapted_am()
        target = _am_proposal()
        target.load_state_dict(pickle.loads(pickle.dumps(source.state_dict())))
        current = np.zeros(2)
        np.testing.assert_array_equal(
            target.propose(current, np.random.default_rng(4)),
            source.propose(current, np.random.default_rng(4)),
        )

    def test_mh_kernel_state_carries_the_proposal_state(self):
        problem = GaussianTargetProblem(np.zeros(2), 1.0)
        kernel = MHKernel(problem, _adapted_am())
        state = kernel.state_dict()
        assert set(state) == {"num_steps", "num_accepted", "proposal"}
        assert set(state["proposal"]) == {"moments", "chol", "num_adaptations"}

    def test_mh_kernel_load_restores_counters_and_proposal(self):
        problem = GaussianTargetProblem(np.zeros(2), 1.0)
        chain = SingleChainMCMC(
            MHKernel(problem, _am_proposal()), np.zeros(2), np.random.default_rng(2)
        )
        chain.run_steps(60)
        restored = MHKernel(problem, _am_proposal())
        restored.load_state_dict(chain.kernel.state_dict())
        assert restored.num_steps == chain.kernel.num_steps
        assert restored.num_accepted == chain.kernel.num_accepted
        np.testing.assert_array_equal(
            restored.proposal.current_covariance(),
            chain.kernel.proposal.current_covariance(),
        )


# ----------------------------------------------------------------------------
class TestCheckpointLayout:
    def test_snapshot_of_the_previous_layout_is_rejected(self, tmp_path):
        config = CheckpointConfig(directory=tmp_path / "ck")
        checkpointer = Checkpointer(config, {"seed": 5})
        path = checkpointer.write(3, "controller", {"level": 0})
        snapshot = pickle.loads(path.read_bytes())
        snapshot["version"] = CHECKPOINT_VERSION - 1
        path.write_bytes(pickle.dumps(snapshot))
        with pytest.raises(CheckpointError, match="version"):
            Checkpointer(config, {"seed": 5}).read(3, "controller")

    def test_chain_snapshot_with_adaptive_proposal_round_trips(self, tmp_path):
        problem = GaussianTargetProblem(np.zeros(2), 1.0)

        def chain(seed: int) -> SingleChainMCMC:
            return SingleChainMCMC(
                MHKernel(problem, _am_proposal()), np.zeros(2), np.random.default_rng(seed)
            )

        reference = chain(1)
        reference.run_steps(80)
        snapshotted = chain(1)
        snapshotted.run_steps(50)
        checkpointer = Checkpointer(CheckpointConfig(directory=tmp_path / "ck"), {})
        checkpointer.write(0, "controller", snapshotted.state_dict())
        restored = chain(99)
        restored.load_state_dict(checkpointer.read(0, "controller"))
        restored.run_steps(30)
        np.testing.assert_array_equal(
            restored.current_state.parameters, reference.current_state.parameters
        )

