"""The lean Poisson step: bitwise parity with a plain reference loop.

On the Poisson problem the pCN proposal applies the prior's diagonal Cholesky
factor elementwise, the posterior, likelihood and forward model take valid
parameter vectors as they are, the forward cache compares the last parameter
with one elementwise ``==``, and the estimate reduces every QOI component's
batch means in one pass.  None of that may change a single bit of a chain.
The oracle below is a plain MH / two-level MH loop over the scaled Poisson
hierarchy written with the straightforward formulas: dense triangular solves
and dense ``L @ z`` products, an ``np.array_equal`` forward cache, full
``atleast_1d``/``asarray`` conversions and a per-component batch-means loop.
The sampler must reproduce its accept sequences, states, log densities,
forward-evaluation counts and the bytes of its estimate.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.bayes import GaussianDensity
from repro.core import MLMCMCSampler
from repro.core.kernels import MHKernel, MultilevelKernel
from repro.core.proposals.pcn import PreconditionedCrankNicolsonProposal
from repro.experiments.presets import resolve_problem_options
from repro.models.poisson import PoissonInverseProblemFactory
from repro.utils.random import RandomSource

LOG_2PI = math.log(2.0 * math.pi)
NUM_SAMPLES = [200, 45]
BURNIN = [20, 5]
RATE = 4
#: captured at import so monkeypatching ``np.linalg.solve`` never reaches the oracle
_dense_solve = np.linalg.solve


def _vector(x) -> np.ndarray:
    return np.atleast_1d(np.asarray(x, dtype=float)).ravel()


def _batch_means_variance(series: np.ndarray, num_batches: int = 20) -> float:
    """One component's batch-means variance of the mean, written plainly."""
    x = _vector(series)
    n = x.shape[0]
    if n < 2:
        return 0.0
    num_batches = max(2, min(num_batches, n // 2)) if n >= 4 else 2
    batch_size = n // num_batches
    trimmed = x[: batch_size * num_batches].reshape(num_batches, batch_size)
    return float(np.var(trimmed.mean(axis=1), ddof=1) / num_batches)


@pytest.fixture(scope="module")
def factory() -> PoissonInverseProblemFactory:
    options = resolve_problem_options(
        "poisson",
        {"preset": "scaled", "mesh_sizes": (8, 16), "subsampling_rates": [0, RATE]},
    )
    return PoissonInverseProblemFactory(**options)


class _OraclePosterior:
    """One level's posterior: dense prior solve, cached forward, Gaussian misfit."""

    def __init__(self, factory: PoissonInverseProblemFactory, level: int) -> None:
        self.model = factory.forward_model(level)
        self.qoi_modes = factory._qoi_modes
        dim = factory.field.num_modes
        self.prior_mean = np.zeros(dim)
        self.prior_chol = np.linalg.cholesky(np.eye(dim) * factory.prior_variance)
        self.prior_log_det = 2.0 * float(np.sum(np.log(np.diag(self.prior_chol))))
        self.data = _vector(factory.data)
        self.noise = np.full(self.data.shape[0], factory.noise_std**2)
        self.noise_log_det = float(np.sum(np.log(self.noise)))
        self.last_theta: np.ndarray | None = None
        self.last_prediction: np.ndarray | None = None
        self.evaluations = 0

    def log_prior(self, theta) -> float:
        alpha = _dense_solve(self.prior_chol, _vector(theta) - self.prior_mean)
        dim = self.prior_mean.shape[0]
        return -0.5 * (float(alpha @ alpha) + self.prior_log_det + dim * LOG_2PI)

    def forward(self, theta) -> np.ndarray:
        theta = _vector(theta)
        if (
            self.last_theta is not None
            and self.last_theta.shape == theta.shape
            and np.array_equal(self.last_theta, theta)
        ):
            return self.last_prediction
        kappa = np.exp(0.0 + self.model.mode_matrix @ theta)
        prediction = _vector(
            self.model.solver.solve_and_observe(kappa, self.model.observation_points)
        )
        self.evaluations += 1
        self.last_theta, self.last_prediction = theta.copy(), prediction
        return prediction

    def log_likelihood(self, theta) -> float:
        prediction = _vector(self.forward(theta))
        assert np.all(np.isfinite(prediction))
        resid = prediction - self.data
        quad = float(np.sum(resid * resid / self.noise))
        return -0.5 * (quad + self.noise_log_det + self.data.shape[0] * LOG_2PI)

    def __call__(self, theta) -> float:
        lp = self.log_prior(theta)
        if not np.isfinite(lp):
            return -math.inf
        return lp + self.log_likelihood(theta)

    def qoi(self, theta) -> np.ndarray:
        return _vector(np.exp(self.qoi_modes @ _vector(theta)))


class _OracleChain:
    """Plain pCN-MH (level 0) or two-level MH (level 1) chain recording everything."""

    def __init__(self, posteriors, beta, source: RandomSource, level: int, chain_id: str) -> None:
        # same generator naming and creation order as MLMCMCSampler.build_chain
        self.rng = source.child("chain", chain_id, level)
        self.level = level
        self.posterior = posteriors[level]
        self.beta = beta
        self.contraction = math.sqrt(1.0 - beta**2)
        self.record = chain_id.startswith("level") and "/" not in chain_id
        self.coarse = None
        if level > 0:
            self.coarse = _OracleChain(
                posteriors, beta, source, level - 1, f"{chain_id}/coarse{level - 1}"
            )
        self.x = np.zeros(self.posterior.prior_mean.shape[0])
        self.log_density = self.posterior(self.x)
        if self.coarse is not None:
            self.coarse_log_density = posteriors[level - 1](self.x)
        self.accepts: list[bool] = []
        self.log_densities: list[float] = []
        self.differences: list[np.ndarray] = []
        self.steps = 0

    def _log_transition(self, target, source) -> float:
        mean = self.posterior.prior_mean.copy()
        center = mean + self.contraction * (source - mean)
        alpha = _dense_solve(self.posterior.prior_chol, target - center) / self.beta
        return -0.5 * float(alpha @ alpha)

    def step(self) -> None:
        if self.coarse is None:
            mean = self.posterior.prior_mean.copy()
            noise = self.posterior.prior_chol @ self.rng.standard_normal(mean.shape[0])
            y = mean + self.contraction * (self.x - mean) + self.beta * noise
            correction = self._log_transition(self.x, y) - self._log_transition(y, self.x)
            log_y = self.posterior(y)
            log_alpha = min(0.0, log_y - self.log_density + correction)
        else:
            for _ in range(RATE):
                self.coarse.step()
            y = self.coarse.x.copy()
            coarse_log_y = self.coarse.log_density
            log_y = self.posterior(y)
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
        if self.record and self.steps > BURNIN[self.level]:
            self.log_densities.append(self.log_density)
            fine = self.posterior.qoi(self.x)
            if self.coarse is None:
                self.differences.append(fine)
            else:
                self.differences.append(fine - self.coarse.posterior.qoi(y))

    def stack(self):
        chain = self
        while chain is not None:
            yield chain
            chain = chain.coarse


def _run_oracle(factory, seed: int):
    source = RandomSource(seed)
    posteriors = [_OraclePosterior(factory, level) for level in range(len(NUM_SAMPLES))]
    tops = []
    total = None
    for level, target in enumerate(NUM_SAMPLES):
        chain = _OracleChain(posteriors, factory.pcn_beta, source, level, f"level{level}")
        for _ in range(BURNIN[level] + target):
            chain.step()
        tops.append(chain)
        mean = np.stack(chain.differences).mean(axis=0)
        total = np.zeros_like(mean) + mean if total is None else total + mean
    return tops, total, posteriors


def _sampler_stack(chain):
    while True:
        yield chain
        if not isinstance(chain.kernel, MultilevelKernel):
            return
        chain = chain.kernel.coarse_proposal.source.chain


def _run_sampler(factory, seed: int, monkeypatch):
    accepts: dict[int, list[bool]] = {}
    solves = [0]
    solve = np.linalg.solve

    def logged(step):
        def logged_step(kernel, *args):
            point = step(kernel, *args)
            accepts.setdefault(id(kernel), []).append(point[4])
            return point

        return logged_step

    def counted_solve(*args, **kwargs):
        solves[0] += 1
        return solve(*args, **kwargs)

    sampler = MLMCMCSampler(factory, num_samples=NUM_SAMPLES, burnin=BURNIN, seed=seed)
    with monkeypatch.context() as patch:
        for kernel_class in (MHKernel, MultilevelKernel):
            patch.setattr(kernel_class, "step", logged(kernel_class.step))
        patch.setattr(np.linalg, "solve", counted_solve)
        result = sampler.run()
    return sampler, result, accepts, solves[0]


@pytest.mark.parametrize("seed", [0, 23])
def test_poisson_sampler_reproduces_the_plain_loop_bitwise(factory, seed, monkeypatch):
    oracle_tops, oracle_mean, oracle_posteriors = _run_oracle(factory, seed)
    sampler, result, accepts, solves = _run_sampler(factory, seed, monkeypatch)

    assert result.estimate.mean.tobytes() == oracle_mean.tobytes()
    for top, oracle_top in zip(result.chains, oracle_tops):
        stack = list(_sampler_stack(top))
        oracle_stack = list(oracle_top.stack())
        assert len(stack) == len(oracle_stack) == top.level + 1
        for chain, oracle in zip(stack, oracle_stack):
            assert accepts[id(chain.kernel)] == oracle.accepts
            assert chain.current_state.parameters.tobytes() == oracle.x.tobytes()
            assert chain.current_state.log_density == oracle.log_density
        assert top.samples.log_densities().tobytes() == (
            np.array(oracle_top.log_densities).tobytes()
        )
        differences = np.stack(oracle_top.differences)
        assert top.corrections.differences().tobytes() == differences.tobytes()
        contribution = result.estimate.contributions[top.level]
        expected = np.array(
            [_batch_means_variance(differences[:, j]) for j in range(differences.shape[1])]
        )
        assert contribution.estimator_variance.tobytes() == expected.tobytes()
    # the ``==`` forward cache hits exactly where the ``array_equal`` one does
    for level, oracle in enumerate(oracle_posteriors):
        posterior = sampler.problems.problem(level).posterior
        assert posterior.num_forward_evaluations == oracle.evaluations
    # the isotropic prior and likelihood never reach the general solve
    assert solves == 0


def _prior(kind: str, dim: int, rng: np.random.Generator) -> GaussianDensity:
    mean = rng.normal(size=dim)
    if kind == "isotropic":
        return GaussianDensity(mean, float(rng.uniform(0.2, 5.0)), dim=dim)
    if kind == "diagonal":
        return GaussianDensity(mean, rng.uniform(0.2, 5.0, size=dim))
    factor = rng.normal(size=(dim, dim))
    return GaussianDensity(mean, factor @ factor.T + dim * np.eye(dim))


@pytest.mark.parametrize("kind", ["isotropic", "diagonal", "full"])
@pytest.mark.parametrize("dim", [1, 3, 24, 113])
def test_pcn_matches_dense_formulas_and_solves_only_full_factors(kind, dim, monkeypatch):
    rng = np.random.default_rng(dim)
    prior = _prior(kind, dim, rng)
    beta = 0.2
    proposal = PreconditionedCrankNicolsonProposal(prior, beta=beta)
    chol, mean = prior.cholesky, prior.mean
    contraction = math.sqrt(1.0 - beta**2)

    def log_transition(target, source):
        alpha = _dense_solve(chol, target - (mean + contraction * (source - mean))) / beta
        return -0.5 * float(alpha @ alpha)

    solves = [0]

    def counted_solve(*args, **kwargs):
        solves[0] += 1
        return _dense_solve(*args, **kwargs)

    for _ in range(10):
        x = rng.normal(scale=2.0, size=dim)
        seed = int(rng.integers(1 << 30))
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "solve", counted_solve)
            proposed = proposal.propose(x, np.random.default_rng(seed))
            correction = proposal.log_correction(x, proposed)
        noise = chol @ np.random.default_rng(seed).standard_normal(dim)
        y = mean + contraction * (x - mean) + beta * noise
        assert proposed.tobytes() == y.tobytes()
        expected = log_transition(x, y) - log_transition(y, x)
        assert correction == expected
        alpha = _dense_solve(chol, y - mean)
        assert prior.log_density(y) == -0.5 * (
            float(alpha @ alpha) + prior._log_det + dim * LOG_2PI
        )
    # a 1x1 factor is diagonal whatever form the covariance was given in
    if kind == "full" and dim > 1:
        assert solves[0] > 0
    else:
        assert solves[0] == 0
