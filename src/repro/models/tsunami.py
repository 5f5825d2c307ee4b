"""The tsunami source-inversion Bayesian inverse problem.

Section 3.2 of the paper: infer the location of the initial sea-surface
displacement of a Tohoku-like tsunami from the maximum wave height and its
arrival time at two buoys.  The forward model is the shallow-water solver of
:mod:`repro.swe`; the three-level hierarchy combines grid refinement with the
paper's bathymetry treatments (depth-averaged / smoothed / full), and the
observation covariance is level dependent (Table 1).  Parameters that place
the source on dry land are treated as unphysical and receive an (almost) zero
likelihood, exactly as in the paper.

The QOI is the source location itself, so the telescoping-sum corrections are
corrections to the posterior mean location (Figures 13/14, Table 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.bayes.distributions import GaussianDensity, TruncatedGaussianDensity
from repro.bayes.likelihood import GaussianLikelihood
from repro.bayes.posterior import Posterior
from repro.core.factory import MLComponentFactory
from repro.core.problem import AbstractSamplingProblem, BayesianSamplingProblem
from repro.core.proposals.adaptive_metropolis import AdaptiveMetropolisProposal
from repro.core.proposals.base import MCMCProposal
from repro.models.base import ForwardModelBase
from repro.swe.scenario import LevelConfiguration, TohokuLikeScenario

__all__ = ["TsunamiLevelSpec", "TsunamiForwardModel", "TsunamiInverseProblemFactory"]


class TsunamiForwardModel(ForwardModelBase):
    """One level's forward map: source location (km) -> buoy observables.

    Implements the shared :class:`repro.models.base.ForwardModel` contract on
    top of :class:`repro.swe.scenario.TohokuLikeScenario`.  The batched path
    runs a whole ``(n, 2)`` parameter block through the solver's ensemble
    time loop (:meth:`TohokuLikeScenario.observe_batch`) — one array program
    per time step instead of ``n`` scalar simulations — with rows identical
    to the scalar path, which is what the evaluator's ``log_density_batch``
    runs on the tsunami problem.

    ``physical_mask`` exposes the paper's dry-land/out-of-domain treatment in
    vectorized form; :meth:`repro.bayes.Posterior.log_density_batch` uses it
    to batch only the valid rows.
    """

    def __init__(self, scenario: TohokuLikeScenario, level: int) -> None:
        self.scenario = scenario
        self.level = int(level)

    @property
    def output_dim(self) -> int:
        """Two observables (max height, time of max) per gauge."""
        return 2 * len(self.scenario.gauges)

    def forward(self, theta: np.ndarray) -> np.ndarray:
        """Buoy observables for one source location (raises on unphysical)."""
        return self.scenario.observe(self.level, theta)

    def forward_batch(self, thetas: np.ndarray) -> np.ndarray:
        """Buoy observables for an ``(n, 2)`` block via the ensemble solve.

        Every row must be physical; blocks containing unphysical rows raise
        :class:`~repro.bayes.likelihood.UnphysicalModelOutput` exactly like
        the scalar path (filter with :meth:`physical_mask` first).
        """
        return self.scenario.observe_batch(self.level, thetas)

    def physical_mask(self, thetas: np.ndarray) -> np.ndarray:
        """Boolean row mask: ``True`` where the source is in wet water in-domain."""
        return self.scenario.physical_mask(thetas)


@dataclass(frozen=True)
class TsunamiLevelSpec:
    """Discretisation and observation noise of one tsunami level.

    ``sigma_heights`` / ``sigma_times`` are the standard deviations of the
    Gaussian likelihood for the wave-height and arrival-time observables
    (the paper's level-dependent Table 1 covariance).
    """

    level: int
    num_cells: int
    bathymetry_treatment: str
    limiter: bool
    sigma_heights: float
    sigma_times: float
    smoothing_passes: int = 0


#: level specifications mirroring the paper's Tables 1 and 2 (the default cell
#: counts 25 / 79 / 241 come straight from Table 2; benchmarks scale them down).
PAPER_LEVEL_SPECS = (
    TsunamiLevelSpec(0, 25, "constant", False, sigma_heights=0.15, sigma_times=2.5),
    TsunamiLevelSpec(1, 79, "smoothed", True, sigma_heights=0.10, sigma_times=1.5, smoothing_passes=4),
    TsunamiLevelSpec(2, 241, "full", True, sigma_heights=0.10, sigma_times=0.75),
)


class TsunamiInverseProblemFactory(MLComponentFactory):
    """The tsunami source inversion as an :class:`MLComponentFactory`.

    Parameters
    ----------
    level_specs:
        Per-level discretisation and noise; defaults to the paper-scale
        hierarchy.  Pass smaller ``num_cells`` for quick runs.
    end_time:
        Simulated time in seconds.
    true_location:
        Source location (km offsets) used to generate the synthetic
        observations; the paper's reference solution sits at ``(0, 0)``.
    prior_std:
        Standard deviation (km) of the Gaussian prior on the source location.
    prior_halfwidth:
        Half-width (km) of the box the prior is truncated to (the paper's
        cut-off keeping sources away from the domain boundary, Fig. 3).
    proposal_variance:
        Initial variance of the Adaptive Metropolis proposal (paper: 10).
    adapt_interval:
        Steps between AM covariance updates (paper: 100).
    subsampling_rates:
        ``rho_l`` per level (paper: [-, 25, 5]).
    data_noise_seed:
        If not ``None``, observation noise drawn with this seed is added to the
        synthetic data (off by default — like the paper's Poisson study this
        keeps verification simple).
    precision:
        Precision-ladder policy (``"float64"``, ``"float32-coarse"``,
        ``"float32"``) mapping each level to its shallow-water solve dtype;
        the synthetic data come from the finest level, which ``float32-coarse``
        keeps in double, and observables are promoted to double at the gauge
        boundary regardless.
    """

    def __init__(
        self,
        level_specs: Sequence[TsunamiLevelSpec] = PAPER_LEVEL_SPECS,
        end_time: float = 3000.0,
        true_location: tuple[float, float] = (0.0, 0.0),
        prior_std: float = 40.0,
        prior_halfwidth: float = 120.0,
        proposal_variance: float = 10.0,
        adapt_interval: int = 100,
        subsampling_rates: Sequence[int] | None = None,
        data_noise_seed: int | None = None,
        source_amplitude: float = 5.0,
        source_radius: float = 30e3,
        precision: str | None = None,
    ) -> None:
        self.specs = list(level_specs)
        self.precision = precision or "float64"
        self._subsampling = (
            [int(r) for r in subsampling_rates]
            if subsampling_rates is not None
            else [0, 25, 5][: len(self.specs)]
        )
        if len(self._subsampling) != len(self.specs):
            raise ValueError("subsampling_rates must have one entry per level")
        self.proposal_variance = float(proposal_variance)
        self.adapt_interval = int(adapt_interval)
        self.prior_std = float(prior_std)
        self.prior_halfwidth = float(prior_halfwidth)
        self.true_location = np.asarray(true_location, dtype=np.float64)

        self.scenario = TohokuLikeScenario(
            end_time=end_time,
            level_configs=tuple(
                LevelConfiguration(
                    level=spec.level,
                    num_cells=spec.num_cells,
                    bathymetry_treatment=spec.bathymetry_treatment,
                    limiter=spec.limiter,
                    smoothing_passes=spec.smoothing_passes,
                )
                for spec in self.specs
            ),
            source_amplitude=source_amplitude,
            source_radius=source_radius,
            precision=self.precision,
        )

        self._forward_models: dict[int, TsunamiForwardModel] = {}

        # Synthetic observations from the finest level at the true location.
        finest = len(self.specs) - 1
        self.data = self.forward_model(finest)(self.true_location)
        if data_noise_seed is not None:
            rng = np.random.default_rng(data_noise_seed)
            noise_std = self._observation_std(finest)
            self.data = self.data + noise_std * rng.standard_normal(self.data.shape)

        gaussian = GaussianDensity(mean=np.zeros(2), covariance=self.prior_std**2)
        self._prior = TruncatedGaussianDensity(
            gaussian,
            lower=[-self.prior_halfwidth, -self.prior_halfwidth],
            upper=[self.prior_halfwidth, self.prior_halfwidth],
        )

    # ------------------------------------------------------------------
    def _observation_std(self, level: int) -> np.ndarray:
        """Per-observable standard deviations (heights first, then times)."""
        spec = self.specs[level]
        num_gauges = len(self.scenario.gauges)
        return np.concatenate(
            [
                np.full(num_gauges, spec.sigma_heights),
                np.full(num_gauges, spec.sigma_times),
            ]
        )

    def likelihood_for_level(self, level: int) -> GaussianLikelihood:
        """Level-dependent Gaussian likelihood (Table 1)."""
        return GaussianLikelihood(self.data, covariance=self._observation_std(level) ** 2)

    def observation_table(self) -> list[dict[str, float | int]]:
        """Rows of the Table-1 style summary: data mean and per-level sigmas."""
        rows = []
        for idx, value in enumerate(self.data):
            rows.append(
                {
                    "observable": idx,
                    "mu": float(value),
                    **{
                        f"sigma_l{level}": float(self._observation_std(level)[idx])
                        for level in range(len(self.specs))
                    },
                }
            )
        return rows

    # ------------------------------------------------------------------
    def forward_model(self, level: int) -> TsunamiForwardModel:
        """The (cached) forward model of one level."""
        if level not in self._forward_models:
            self._forward_models[level] = TsunamiForwardModel(self.scenario, level)
        return self._forward_models[level]

    def num_levels(self) -> int:
        return len(self.specs)

    def problem_for_level(self, level: int) -> AbstractSamplingProblem:
        posterior = Posterior(
            prior=self._prior,
            likelihood=self.likelihood_for_level(level),
            forward=self.forward_model(level),
            qoi=None,  # the QOI is the parameter itself
        )
        cost = float(self.specs[level].num_cells**2) / float(self.specs[0].num_cells**2)
        return BayesianSamplingProblem(posterior, qoi_dim=2, cost=cost)

    def proposal_for_level(self, level: int, problem: AbstractSamplingProblem) -> MCMCProposal:
        return AdaptiveMetropolisProposal(
            initial_covariance=self.proposal_variance,
            dim=2,
            adapt_start=self.adapt_interval,
            adapt_interval=self.adapt_interval,
        )

    def starting_point_for_level(self, level: int) -> np.ndarray:
        return np.zeros(2)

    def subsampling_rate_for_level(self, level: int) -> int:
        return self._subsampling[level]

    # ------------------------------------------------------------------
    def level_summary(self) -> list[dict[str, float | int | str | bool]]:
        """Rows of the Table-2 style summary."""
        rows = []
        x0, x1, _, _ = self.scenario.extent
        for spec in self.specs:
            rows.append(
                {
                    "level": spec.level,
                    "order": 1,
                    "limiter": spec.limiter,
                    "num_cells": spec.num_cells,
                    "mesh_width_m": (x1 - x0) / spec.num_cells,
                    "bathymetry": spec.bathymetry_treatment,
                    "subsampling_rate": self._subsampling[spec.level],
                }
            )
        return rows
