"""The lean sampler step: bitwise parity with a plain reference loop.

The sequential sampler takes several shortcuts per step: embedded
coarse-source chains record nothing, isotropic and diagonal Gaussian factors
are applied elementwise, and already-valid parameter vectors skip conversion.
None of that may change a single bit of a chain.  The oracle below is a
deliberately plain MH / two-level MH loop (dense triangular solves, dense
``L @ z`` proposals, every chain records everything) on seeded Gaussian
hierarchies with isotropic, diagonal and full covariances; the sampler must
reproduce its accept sequences, its recorded samples and corrections, and the
bytes of its estimate.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bayes import GaussianDensity
from repro.core import (
    CorrectionCollection,
    GaussianRandomWalkProposal,
    GaussianTargetProblem,
    MLMCMCSampler,
    SampleCollection,
    SamplingState,
)
from repro.core.factory import MLComponentFactory
from repro.core.kernels import MHKernel, MultilevelKernel
from repro.utils.random import RandomSource

DIM = 3
LOG_2PI = math.log(2.0 * math.pi)
NUM_SAMPLES = [200, 60, 20]
BURNIN = [20, 6, 2]
RATE = 3
#: captured at import so monkeypatching ``np.linalg.solve`` never reaches the oracle
_dense_solve = np.linalg.solve

TARGET_COVARIANCES = {
    "isotropic": 1.3,
    "diagonal": np.array([0.5, 1.0, 2.0]),
    "full": np.array([[1.0, 0.3, 0.1], [0.3, 1.5, -0.2], [0.1, -0.2, 0.8]]),
}
PROPOSAL_COVARIANCES = {
    "isotropic": 1.5,
    "diagonal": np.array([1.0, 2.0, 0.5]),
    "full": np.array([[1.0, 0.2, 0.0], [0.2, 1.2, 0.1], [0.0, 0.1, 0.9]]),
}


def _level_mean(level: int) -> np.ndarray:
    return np.array([1.0, -0.5, 0.25]) * (1.0 - 0.5 ** (level + 1))


def _level_covariance(kind: str, level: int):
    return TARGET_COVARIANCES[kind] * (1.0 + 0.5 ** (level + 1))


def _dense(covariance) -> np.ndarray:
    cov = np.asarray(covariance, dtype=float)
    if cov.ndim == 0:
        return np.eye(DIM) * float(cov)
    if cov.ndim == 1:
        return np.diag(cov)
    return cov


class _Hierarchy(MLComponentFactory):
    def __init__(self, kind: str) -> None:
        self.kind = kind

    def num_levels(self) -> int:
        return len(NUM_SAMPLES)

    def problem_for_level(self, level: int):
        return GaussianTargetProblem(_level_mean(level), _level_covariance(self.kind, level))

    def proposal_for_level(self, level: int, problem):
        return GaussianRandomWalkProposal(PROPOSAL_COVARIANCES[self.kind], dim=DIM)

    def starting_point_for_level(self, level: int) -> np.ndarray:
        return np.zeros(DIM)

    def subsampling_rate_for_level(self, level: int) -> int:
        return RATE


class _OracleTarget:
    """Gaussian log density through a dense solve with the Cholesky factor."""

    def __init__(self, kind: str, level: int) -> None:
        self.mean = _level_mean(level)
        self.chol = np.linalg.cholesky(_dense(_level_covariance(kind, level)))
        self.log_det = 2.0 * float(np.sum(np.log(np.diag(self.chol))))

    def __call__(self, x: np.ndarray) -> float:
        alpha = _dense_solve(self.chol, x - self.mean)
        return -0.5 * (float(alpha @ alpha) + self.log_det + DIM * LOG_2PI)


class _OracleChain:
    """Plain MH (level 0) or two-level MH (level > 0) chain recording everything."""

    def __init__(self, kind, source: RandomSource, level: int, chain_id: str) -> None:
        # same generator naming and creation order as MLMCMCSampler.build_chain
        self.rng = source.child("chain", chain_id, level)
        self.level = level
        self.target = _OracleTarget(kind, level)
        self.proposal_chol = np.linalg.cholesky(_dense(PROPOSAL_COVARIANCES[kind]))
        self.x = np.zeros(DIM)
        self.log_density = self.target(self.x)
        self.accepts: list[bool] = []
        self.samples: list[np.ndarray] = []
        self.log_densities: list[float] = []
        self.differences: list[np.ndarray] = []
        self.steps = 0
        self.coarse = None
        if level > 0:
            self.coarse = _OracleChain(kind, source, level - 1, f"{chain_id}/coarse{level - 1}")
            self.coarse_log_density = self.coarse.target(self.x)

    def step(self) -> None:
        if self.coarse is None:
            y = self.x + self.proposal_chol @ self.rng.standard_normal(DIM)
            log_y = self.target(y)
            log_alpha = min(0.0, log_y - self.log_density + 0.0)
        else:
            for _ in range(RATE):
                self.coarse.step()
            y = self.coarse.x.copy()
            coarse_log_y = self.coarse.log_density
            log_y = self.target(y)
            log_alpha = min(
                0.0, log_y - self.log_density + 0.0 + self.coarse_log_density - coarse_log_y
            )
        u = self.rng.random()
        accepted = math.log(u + 1e-300) < log_alpha if math.isfinite(log_alpha) else False
        if accepted:
            self.x, self.log_density = y, log_y
            if self.coarse is not None:
                self.coarse_log_density = coarse_log_y
        self.accepts.append(bool(accepted))
        self.steps += 1
        if self.steps > BURNIN[self.level]:
            self.samples.append(self.x.copy())
            self.log_densities.append(self.log_density)
            self.differences.append(self.x - y if self.coarse is not None else self.x.copy())

    def stack(self):
        chain = self
        while chain is not None:
            yield chain
            chain = chain.coarse


def _run_oracle(kind: str, seed: int) -> tuple[list[_OracleChain], np.ndarray]:
    source = RandomSource(seed)
    tops = []
    total = np.zeros(DIM)
    for level, target in enumerate(NUM_SAMPLES):
        chain = _OracleChain(kind, source, level, f"level{level}")
        for _ in range(BURNIN[level] + target):
            chain.step()
        tops.append(chain)
        total = total + np.stack(chain.differences).mean(axis=0)
    return tops, total


def _sampler_stack(chain):
    while True:
        yield chain
        if not isinstance(chain.kernel, MultilevelKernel):
            return
        chain = chain.kernel.coarse_proposal.source.chain


def _run_sampler(kind: str, seed: int, monkeypatch):
    accepts: dict[int, list[bool]] = defaultdict(list)
    solves = [0]
    solve = np.linalg.solve

    def logged(step):
        def logged_step(kernel, *args):
            point = step(kernel, *args)
            accepts[id(kernel)].append(point[4])
            return point

        return logged_step

    def counted_solve(*args, **kwargs):
        solves[0] += 1
        return solve(*args, **kwargs)

    with monkeypatch.context() as patch:
        for kernel_class in (MHKernel, MultilevelKernel):
            patch.setattr(kernel_class, "step", logged(kernel_class.step))
        patch.setattr(np.linalg, "solve", counted_solve)
        result = MLMCMCSampler(
            _Hierarchy(kind), num_samples=NUM_SAMPLES, burnin=BURNIN, seed=seed
        ).run()
    return result, accepts, solves[0]


@pytest.mark.parametrize("seed", [0, 11])
@pytest.mark.parametrize("kind", ["isotropic", "diagonal", "full"])
class TestOracleParity:
    def test_sampler_reproduces_the_plain_loop_bitwise(self, kind, seed, monkeypatch):
        oracle_tops, oracle_mean = _run_oracle(kind, seed)
        result, accepts, solves = _run_sampler(kind, seed, monkeypatch)

        assert result.estimate.mean.tobytes() == oracle_mean.tobytes()
        for top, oracle_top in zip(result.chains, oracle_tops):
            stack = list(_sampler_stack(top))
            oracle_stack = list(oracle_top.stack())
            assert len(stack) == len(oracle_stack) == top.level + 1
            for chain, oracle in zip(stack, oracle_stack):
                assert accepts[id(chain.kernel)] == oracle.accepts
                assert chain.kernel.num_accepted == sum(oracle.accepts)
                assert chain.current_state.parameters.tobytes() == oracle.x.tobytes()
                assert chain.current_state.log_density == oracle.log_density
            # the top chain records exactly what the plain loop records
            assert top.samples.parameters().tobytes() == np.stack(oracle_top.samples).tobytes()
            assert top.samples.num_unique == top.samples.num_samples == NUM_SAMPLES[top.level]
            assert top.samples.log_densities().tobytes() == (
                np.array(oracle_top.log_densities).tobytes()
            )
            assert top.corrections.differences().tobytes() == (
                np.stack(oracle_top.differences).tobytes()
            )
        # isotropic and diagonal factors never reach the general solve
        if kind == "full":
            assert solves > 0
        else:
            assert solves == 0


class TestSourceChains:
    @pytest.fixture(scope="class")
    def result(self):
        return MLMCMCSampler(
            _Hierarchy("diagonal"), num_samples=NUM_SAMPLES, burnin=BURNIN, seed=3
        ).run()

    def test_source_chains_hold_no_samples(self, result):
        for top in result.chains:
            assert top.record
            for source in list(_sampler_stack(top))[1:]:
                assert not source.record
                assert source.steps_taken > 0
                assert len(source.samples) == 0
                assert source.samples.num_samples == 0
                assert len(source.corrections) == 0

    def test_run_on_a_source_chain_raises(self, result):
        source = result.chains[2].kernel.coarse_proposal.source.chain
        steps = source.steps_taken
        with pytest.raises(RuntimeError, match="record=False"):
            source.run(1)
        assert source.steps_taken == steps
        source.run_steps(2)
        assert source.steps_taken == steps + 2
        assert len(source.samples) == 0

    def test_source_chain_state_dict_round_trip(self, result):
        source = result.chains[1].kernel.coarse_proposal.source.chain
        snapshot = source.state_dict()
        assert snapshot["samples"]["parameters"].size == 0
        restored = MLMCMCSampler(
            _Hierarchy("diagonal"), num_samples=NUM_SAMPLES, burnin=BURNIN, seed=3
        ).build_chain(0, chain_id="restored", record=False)
        restored.load_state_dict(snapshot)
        source.run_steps(5)
        restored.run_steps(5)
        assert restored.current_state.parameters.tobytes() == (
            source.current_state.parameters.tobytes()
        )


class TestTopChains:
    def test_state_dict_round_trip_keeps_collections_and_continues(self):
        sampler = MLMCMCSampler(
            _Hierarchy("isotropic"), num_samples=NUM_SAMPLES, burnin=BURNIN, seed=5
        )
        result = sampler.run()
        for top in result.chains:
            snapshot = top.state_dict()
            restored = sampler.build_chain(top.level, chain_id=f"restored{top.level}")
            restored.load_state_dict(snapshot)
            assert restored.samples.num_samples == top.samples.num_samples
            assert restored.samples.parameters().tobytes() == top.samples.parameters().tobytes()
            assert restored.corrections.differences().tobytes() == (
                top.corrections.differences().tobytes()
            )
        # a level-0 chain carries its whole state: it continues bitwise
        top = result.chains[0]
        restored = sampler.build_chain(0, chain_id="continued")
        restored.load_state_dict(top.state_dict())
        top.run(NUM_SAMPLES[0] + 30)
        restored.run(NUM_SAMPLES[0] + 30)
        assert restored.samples.parameters().tobytes() == top.samples.parameters().tobytes()


class TestGaussianFactors:
    @pytest.mark.parametrize("dim", [1, 2, 5, 17, 64, 200])
    def test_elementwise_factors_match_dense_algebra(self, dim):
        rng = np.random.default_rng(dim)
        for covariance in (float(rng.uniform(0.1, 5.0)), rng.uniform(0.1, 5.0, size=dim)):
            density = GaussianDensity(rng.normal(size=dim), covariance, dim=dim)
            proposal = GaussianRandomWalkProposal(covariance, dim=dim)
            chol = density.cholesky
            for _ in range(20):
                x = rng.normal(scale=3.0, size=dim)
                alpha = _dense_solve(chol, x - density.mean)
                expected = -0.5 * (float(alpha @ alpha) + density._log_det + dim * LOG_2PI)
                assert density.log_density(x) == expected
                seed = int(rng.integers(1 << 30))
                step = proposal.propose(x, np.random.default_rng(seed))
                z = np.random.default_rng(seed).standard_normal(dim)
                assert step.tobytes() == (x + proposal._step.cholesky @ z).tobytes()

    def test_full_covariance_keeps_the_general_solve(self):
        density = GaussianDensity(np.zeros(3), TARGET_COVARIANCES["full"])
        proposal = GaussianRandomWalkProposal(PROPOSAL_COVARIANCES["full"])
        assert density._diag is None and proposal._step._diag is None
        # a diagonal matrix given in full form is still applied elementwise
        assert GaussianDensity(np.zeros(3), np.diag([1.0, 2.0, 3.0]))._diag is not None

    def test_other_inputs_are_still_converted(self):
        density = GaussianDensity(np.zeros(3), 2.0)
        x = np.array([[0.5, -1.0, 2.0]])
        expected = density.log_density(x.ravel())
        assert density.log_density(x) == expected
        assert density.log_density([0.5, -1.0, 2.0]) == expected
        assert density.log_density(np.array([0.5, 7.0, -1.0, 9.0, 2.0])[::2]) == expected
        with pytest.raises(ValueError):
            density.log_density(np.zeros(4))


class TestSamplingStateInput:
    def test_valid_vector_is_kept_and_others_are_converted(self):
        vector = np.arange(3.0)
        assert SamplingState(parameters=vector).parameters is vector
        strided = np.arange(6.0)[::2]
        state = SamplingState(parameters=strided)
        assert state.parameters.flags.c_contiguous
        assert not np.shares_memory(state.parameters, strided)
        np.testing.assert_array_equal(SamplingState(parameters=[[1, 2], [3, 4]]).parameters,
                                      [1.0, 2.0, 3.0, 4.0])
        assert SamplingState(parameters=2.5).parameters.shape == (1,)
        assert SamplingState(parameters=np.arange(3)).parameters.dtype == np.float64


# ----------------------------------------------------------------------------
# properties of the collections the step still writes
_weights = st.lists(st.integers(1, 4), min_size=1, max_size=5)


class TestCollectionProperties:
    @given(runs=st.lists(_weights, min_size=1, max_size=12), seed=st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_weighted_rows_expand_like_repeated_rows(self, runs, seed):
        # a rejected proposal repeats the current point: recording the repeat
        # as rows of weight w or as one row of the summed weight expands to
        # the same chain
        rng = np.random.default_rng(seed)
        params = [rng.normal(size=2) for _ in runs]
        repeated, once = SampleCollection(), SampleCollection()
        for theta, run in zip(params, runs):
            for weight in run:
                repeated.add(theta, weight=weight)
            once.add(theta, weight=sum(run))
        total = sum(sum(run) for run in runs)
        assert repeated.num_samples == once.num_samples == total
        assert once.num_unique == len(runs)
        assert repeated.num_unique == sum(len(run) for run in runs)
        assert repeated.parameters().tobytes() == once.parameters().tobytes()
        assert repeated.variance().tobytes() == once.variance().tobytes()
        repeated.validate()

    @given(
        n=st.integers(2, 60),
        cuts=st.lists(st.integers(0, 60), max_size=4),
        level=st.integers(0, 2),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_correction_variance_matches_batch_under_splits(
        self, n, cuts, level, seed
    ):
        rng = np.random.default_rng(seed)
        fine = rng.normal(size=(n, 2)) * 3.0 + 1.0
        coarse = rng.normal(size=(n, 2)) if level > 0 else None
        bounds = [0, *sorted(min(c, n) for c in cuts), n]
        merged = CorrectionCollection(level)
        for start, stop in zip(bounds[:-1], bounds[1:]):
            part = CorrectionCollection(level)
            for i in range(start, stop):
                part.add(fine[i], None if coarse is None else coarse[i])
            merged.merge(part)
        diffs = fine if coarse is None else fine - coarse
        assert len(merged) == n
        # the polled variance is the two-pass one over the merged rows, exactly
        assert merged.variance().tobytes() == np.var(diffs, axis=0, ddof=1).tobytes()
        assert merged.mean().tobytes() == diffs.mean(axis=0).tobytes()
        tail = merged.subset(bounds[1])
        if len(tail) > 1:
            assert tail.variance().tobytes() == (
                np.var(diffs[bounds[1]:], axis=0, ddof=1).tobytes()
            )
