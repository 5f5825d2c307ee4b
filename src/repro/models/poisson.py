"""The Poisson (single-phase subsurface flow) Bayesian inverse problem.

Section 3.1 of the paper: the forward model maps the KL coefficients ``theta``
of a log-normal diffusion coefficient ``kappa(x, theta)`` to the solution of

``div(kappa(x, theta) grad u(x, theta)) = 0``  on the unit square,

with ``u = 0`` / ``u = 1`` on the left/right edges and natural Neumann
conditions elsewhere, evaluated at a grid of observation points.  Synthetic
data are generated from a reference coefficient drawn from the prior (the
deliberate "inverse crime" the paper accepts because the focus is algorithmic
scalability).  The three-level hierarchy uses mesh widths 1/16, 1/64 and 1/256
with an identical parameter dimension m = 113 on every level.

The QOI is the diffusion coefficient evaluated on a uniform grid of width 1/32
— consistent across levels, as the telescoping sum requires.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from repro.bayes.distributions import GaussianDensity
from repro.bayes.likelihood import GaussianLikelihood
from repro.bayes.posterior import Posterior
from repro.core.factory import MLComponentFactory
from repro.core.problem import AbstractSamplingProblem, BayesianSamplingProblem
from repro.core.proposals.adaptive_metropolis import AdaptiveMetropolisProposal
from repro.core.proposals.base import MCMCProposal
from repro.core.proposals.independence import IndependenceProposal
from repro.core.proposals.pcn import PreconditionedCrankNicolsonProposal
from repro.core.proposals.random_walk import GaussianRandomWalkProposal
from repro.fem.grid import StructuredGrid
from repro.fem.poisson import PoissonSolver
from repro.randomfield.covariance import ExponentialCovariance
from repro.randomfield.field import GaussianRandomField
from repro.utils.array_api import float_vector, level_dtypes, resolve_dtype

__all__ = ["PoissonLevelSpec", "PoissonForwardModel", "PoissonInverseProblemFactory"]


#: observation point coordinates used in the paper (the final ``3/32`` is kept
#: as printed even though it is likely a typo for ``30/32``).
PAPER_OBSERVATION_COORDS = (2 / 32, 7 / 32, 13 / 32, 19 / 32, 25 / 32, 3 / 32)


@dataclass(frozen=True)
class PoissonLevelSpec:
    """Discretisation of one level of the Poisson hierarchy."""

    level: int
    mesh_size: int  # cells per direction; mesh width h = 1 / mesh_size

    @property
    def mesh_width(self) -> float:
        """Mesh width ``h``."""
        return 1.0 / self.mesh_size

    @property
    def num_dofs(self) -> int:
        """Number of FEM degrees of freedom."""
        return (self.mesh_size + 1) ** 2


class PoissonForwardModel:
    """Forward model of one level: KL coefficients -> observations of ``u``.

    Implements the :class:`repro.models.base.ForwardModel` contract.  The KL
    mode matrix at the level's element midpoints is precomputed once so a
    forward evaluation is (i) a matrix-vector product, (ii) an exponential,
    (iii) one banded FEM solve and (iv) point evaluation at the observation
    points.
    """

    def __init__(
        self,
        spec: PoissonLevelSpec,
        field: GaussianRandomField,
        observation_points: np.ndarray,
        dtype=None,
    ) -> None:
        self.spec = spec
        self.field = field
        self.grid = StructuredGrid(spec.mesh_size)
        self.dtype = resolve_dtype(dtype)
        self.solver = PoissonSolver(self.grid, dtype=self.dtype)
        self.observation_points = np.atleast_2d(np.asarray(observation_points, dtype=float))
        midpoints = self.solver.element_midpoints()
        #: precomputed scaled KL modes at element midpoints, (num_elements, m)
        self.mode_matrix = field.kl.modes(midpoints)
        self._mean_log = 0.0

    @property
    def parameter_dim(self) -> int:
        """KL coefficient dimension."""
        return self.field.num_modes

    @property
    def output_dim(self) -> int:
        """Number of observation points."""
        return int(self.observation_points.shape[0])

    def diffusion_coefficients(self, theta: np.ndarray) -> np.ndarray:
        """Per-element diffusion coefficient ``kappa`` for the given parameters."""
        log_kappa = self._mean_log + self.mode_matrix @ float_vector(theta)
        return np.exp(log_kappa)

    def diffusion_coefficients_batch(self, thetas: np.ndarray) -> np.ndarray:
        """Coefficient fields of an ``(n, m)`` parameter block in one matmul."""
        block = np.atleast_2d(np.asarray(thetas, dtype=float))
        log_kappa = self._mean_log + block @ self.mode_matrix.T
        return np.exp(log_kappa)

    def forward(self, theta: np.ndarray) -> np.ndarray:
        """Observations of the PDE solution at the observation points."""
        kappa = self.diffusion_coefficients(theta)
        return self.solver.solve_and_observe(kappa, self.observation_points)

    def __call__(self, theta: np.ndarray) -> np.ndarray:
        return self.forward(theta)

    def forward_batch(self, thetas: np.ndarray) -> np.ndarray:
        """Observations for an ``(n, m)`` parameter block.

        The random-field stage (KL matvec + exponential) is vectorized across
        the whole block and the FEM stage runs through
        :meth:`PoissonSolver.solve_batch`: per-sample assembly reuses the
        precomputed assembly plan and all observations are applied as one
        sparse-operator product.
        """
        kappas = self.diffusion_coefficients_batch(thetas)
        return self.solver.solve_and_observe_batch(kappas, self.observation_points)


class PoissonInverseProblemFactory(MLComponentFactory):
    """The paper's Poisson inverse problem as an :class:`MLComponentFactory`.

    Parameters
    ----------
    mesh_sizes:
        Cells per direction per level (paper: 16, 64, 256).
    num_kl_modes:
        Parameter dimension m (paper: 113).
    correlation_length, field_variance:
        Covariance of the log-diffusion Gaussian field (paper: 0.15, 1.0).
    noise_std:
        Observation noise standard deviation ``sigma_F`` (paper: 0.01).
    prior_variance:
        Prior variance (paper: prior N(0, 4 I)).
    proposal:
        Coarsest-level proposal type.  ``"pcn"`` (default) is dimension-robust
        and recommended for the m = 113 setting; ``"independence"`` with
        covariance ``proposal_variance`` reproduces the paper's "Gaussian
        proposal N(0, 3I) roughly matching the prior"; ``"random_walk"`` and
        ``"adaptive"`` are also available.
    proposal_variance:
        Variance of the independence/random-walk proposal (paper: 3.0).
    pcn_beta:
        Step size of the pCN proposal.
    subsampling_rates:
        ``rho_l`` per level (paper, Table 3: [-, 206, 17]; entry 0 unused).
    qoi_resolution:
        The QOI is ``kappa`` on a uniform grid of width ``1/qoi_resolution``
        (paper: 32).
    observation_coords:
        1-D coordinates whose tensor product forms the observation grid.
    data_seed:
        Seed of the synthetic-truth draw.
    quadrature_points_per_dim:
        Nystrom resolution of the KL expansion.
    precision:
        Precision-ladder policy (``"float64"``, ``"float32-coarse"``,
        ``"float32"``) mapping each level to its FEM solve dtype; parameters,
        observations and likelihoods stay double regardless.
    """

    def __init__(
        self,
        mesh_sizes: Sequence[int] = (16, 64, 256),
        num_kl_modes: int = 113,
        correlation_length: float = 0.15,
        field_variance: float = 1.0,
        noise_std: float = 0.01,
        prior_variance: float = 4.0,
        proposal: Literal["pcn", "independence", "random_walk", "adaptive"] = "pcn",
        proposal_variance: float = 3.0,
        pcn_beta: float = 0.2,
        subsampling_rates: Sequence[int] | None = None,
        qoi_resolution: int = 32,
        observation_coords: Sequence[float] = PAPER_OBSERVATION_COORDS,
        data_seed: int = 2021,
        quadrature_points_per_dim: int = 24,
        precision: str | None = None,
    ) -> None:
        self.specs = [PoissonLevelSpec(level=l, mesh_size=int(n)) for l, n in enumerate(mesh_sizes)]
        self.precision = precision or "float64"
        self._level_dtypes = level_dtypes(self.precision, len(self.specs))
        self.noise_std = float(noise_std)
        self.prior_variance = float(prior_variance)
        self.proposal_type = proposal
        self.proposal_variance = float(proposal_variance)
        self.pcn_beta = float(pcn_beta)
        self._subsampling = (
            [int(r) for r in subsampling_rates]
            if subsampling_rates is not None
            else [0, 206, 17][: len(self.specs)]
        )
        if len(self._subsampling) != len(self.specs):
            raise ValueError("subsampling_rates must have one entry per level")
        self.qoi_resolution = int(qoi_resolution)
        self.data_seed = int(data_seed)

        # Shared KL parameterisation (identical across levels, as in the paper).
        self.field = GaussianRandomField(
            kernel=ExponentialCovariance(
                variance=field_variance, correlation_length=correlation_length
            ),
            num_modes=num_kl_modes,
            mean=0.0,
            log_transform=True,
            quadrature_points_per_dim=quadrature_points_per_dim,
        )

        # Observation grid (tensor product of the 1-D coordinates).
        coords = np.asarray(list(observation_coords), dtype=float)
        grid_x, grid_y = np.meshgrid(coords, coords, indexing="ij")
        self.observation_points = np.stack([grid_x.ravel(), grid_y.ravel()], axis=-1)

        # QOI grid (width 1 / qoi_resolution).
        qs = np.linspace(0.0, 1.0, self.qoi_resolution + 1)
        qx, qy = np.meshgrid(qs, qs, indexing="ij")
        self.qoi_points = np.stack([qx.ravel(), qy.ravel()], axis=-1)
        self._qoi_modes = self.field.kl.modes(self.qoi_points)

        # Forward models per level (built lazily, they precompute mode matrices).
        self._forward_models: dict[int, PoissonForwardModel] = {}

        # Synthetic truth and data from the finest level (the "inverse crime").
        rng = np.random.default_rng(self.data_seed)
        self.true_theta = rng.standard_normal(self.field.num_modes)
        finest = len(self.specs) - 1
        self.data = self.forward_model(finest)(self.true_theta)

        self._prior = GaussianDensity(
            mean=np.zeros(self.field.num_modes), covariance=self.prior_variance
        )

    # ------------------------------------------------------------------
    def forward_model(self, level: int) -> PoissonForwardModel:
        """The (cached) forward model of one level."""
        if level not in self._forward_models:
            self._forward_models[level] = PoissonForwardModel(
                self.specs[level],
                self.field,
                self.observation_points,
                dtype=self._level_dtypes[level],
            )
        return self._forward_models[level]

    def qoi_map(self, theta: np.ndarray) -> np.ndarray:
        """QOI: the diffusion coefficient ``kappa`` on the QOI grid."""
        return np.exp(self._qoi_modes @ float_vector(theta))

    def true_qoi(self) -> np.ndarray:
        """QOI of the synthetic truth (the field the estimator should recover)."""
        return self.qoi_map(self.true_theta)

    def qoi_grid_shape(self) -> tuple[int, int]:
        """Shape of the QOI grid (for reshaping into an image)."""
        return (self.qoi_resolution + 1, self.qoi_resolution + 1)

    # ------------------------------------------------------------------
    def num_levels(self) -> int:
        return len(self.specs)

    def problem_for_level(self, level: int) -> AbstractSamplingProblem:
        forward = self.forward_model(level)
        likelihood = GaussianLikelihood(self.data, covariance=self.noise_std**2)
        posterior = Posterior(
            prior=self._prior,
            likelihood=likelihood,
            forward=forward,
            qoi=lambda theta, _pred: self.qoi_map(theta),
        )
        # Nominal cost: proportional to the number of degrees of freedom (the
        # FEM solve dominates); the parallel layer can override this with
        # measured or paper-reported timings.
        cost = float(self.specs[level].num_dofs) / float(self.specs[0].num_dofs)
        return BayesianSamplingProblem(
            posterior,
            qoi_dim=self.qoi_points.shape[0],
            cost=cost,
        )

    def proposal_for_level(self, level: int, problem: AbstractSamplingProblem) -> MCMCProposal:
        dim = self.field.num_modes
        if self.proposal_type == "pcn":
            return PreconditionedCrankNicolsonProposal(self._prior, beta=self.pcn_beta)
        if self.proposal_type == "independence":
            return IndependenceProposal(
                GaussianDensity(np.zeros(dim), self.proposal_variance)
            )
        if self.proposal_type == "adaptive":
            return AdaptiveMetropolisProposal(
                initial_covariance=self.proposal_variance / dim, dim=dim
            )
        return GaussianRandomWalkProposal(self.proposal_variance / dim, dim=dim)

    def starting_point_for_level(self, level: int) -> np.ndarray:
        return np.zeros(self.field.num_modes)

    def subsampling_rate_for_level(self, level: int) -> int:
        return self._subsampling[level]

    # ------------------------------------------------------------------
    def level_summary(self) -> list[dict[str, float | int]]:
        """Rows of the Table-3 style summary (h, DOFs per level)."""
        return [
            {
                "level": spec.level,
                "mesh_width": spec.mesh_width,
                "dofs": spec.num_dofs,
                "subsampling_rate": self._subsampling[spec.level],
            }
            for spec in self.specs
        ]
