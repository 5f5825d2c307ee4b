"""Poisson solver for the subsurface-flow forward model.

Solves ``-div(kappa(x, theta) grad u) = 0`` on the unit square with
``u = 0`` on the left edge, ``u = 1`` on the right edge and natural Neumann
conditions on the top/bottom edges — exactly the paper's Poisson application.
The diffusion coefficient is supplied per element (evaluated from the KL
random field at element midpoints).

Per-sample work is the method's hot path: parallel multilevel MCMC exists to
amortize exactly this solve, so everything that depends only on the fixed
discretisation is precomputed once in an :class:`~repro.fem.assembly.AssemblyPlan`
(band-storage scatter map of the interior block, boundary lifting operator)
and a sparse observation operator.  The reduced interior system on the
structured grid is SPD and banded (half-bandwidth ``nx`` in natural node
ordering), so a sample costs one sparse product into LAPACK band storage,
one for the right-hand side, one banded Cholesky solve (``?pbsv``) and one
sparse mat-vec for the observations.  Scalar :meth:`PoissonSolver.solve` is
the one-member case of :meth:`PoissonSolver.solve_batch`: there is one solve
path.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack

from repro.fem.assembly import AssemblyPlan
from repro.fem.grid import StructuredGrid
from repro.fem.q1 import Q1Element
from repro.utils.array_api import resolve_dtype

__all__ = ["PoissonSolver"]

#: banded Cholesky solvers by dtype character.  Looked up per call and never
#: stored on a solver: LAPACK routine objects do not pickle, and
#: ``PoolEvaluator`` pickles bound problems.
_PBSV = {"d": lapack.dpbsv, "f": lapack.spbsv}


class PoissonSolver:
    """Q1 FEM solver for the single-phase flow (Poisson) equation.

    Parameters
    ----------
    grid:
        Structured grid of the unit square (or a custom rectangle).
    left_value, right_value:
        Dirichlet values on the left/right edges (0 and 1 in the paper).
    dtype:
        Solve dtype (``float32`` or ``float64``, default double): assembly,
        factorization and nodal solutions run at this precision; observations
        are promoted back to double by the (double) observation operator so
        likelihoods stay ``float64`` on every rung of the precision ladder.

    Notes
    -----
    The solver precomputes an :class:`~repro.fem.assembly.AssemblyPlan` for
    its ``(grid, Dirichlet set)`` pair and the plan's lifting operator for
    its boundary data; every solve writes the coefficient fields into LAPACK
    lower band storage and solves the reduced SPD systems
    ``K_ii u_i = b_i - K_ib u_b`` by banded Cholesky factorization.  The
    factor fills the band: ``(nx + 1) * num_interior`` entries per solve.
    """

    def __init__(
        self,
        grid: StructuredGrid,
        left_value: float = 0.0,
        right_value: float = 1.0,
        dtype=None,
    ) -> None:
        self.grid = grid
        self.dtype = resolve_dtype(dtype)
        self.left_value = float(left_value)
        self.right_value = float(right_value)
        left_nodes = grid.boundary_nodes("left")
        right_nodes = grid.boundary_nodes("right")
        self._dirichlet_nodes = np.concatenate([left_nodes, right_nodes])
        self._dirichlet_values = np.concatenate(
            [
                np.full(left_nodes.shape[0], self.left_value),
                np.full(right_nodes.shape[0], self.right_value),
            ]
        )
        self.plan = AssemblyPlan(grid, self._dirichlet_nodes, dtype=self.dtype)
        self._lifting = self.plan.lifting(self._dirichlet_values)
        self._observation_operators: dict[tuple, sp.csr_matrix] = {}
        self._solve_count = 0

    # ------------------------------------------------------------------
    @property
    def num_dofs(self) -> int:
        """Number of degrees of freedom (grid nodes)."""
        return self.grid.num_nodes

    @property
    def num_solves(self) -> int:
        """Number of linear solves performed."""
        return self._solve_count

    def element_midpoints(self) -> np.ndarray:
        """Element midpoints where the coefficient field must be evaluated."""
        return self.grid.element_centers()

    # ------------------------------------------------------------------
    def solve(self, element_coefficients: np.ndarray) -> np.ndarray:
        """Solve for the nodal solution given per-element diffusion coefficients."""
        return self.solve_batch(np.reshape(element_coefficients, (1, -1)))[0]

    def solve_batch(self, coefficient_block: np.ndarray) -> np.ndarray:
        """Nodal solutions of an ``(n, num_elements)`` coefficient block.

        The right-hand-side product runs once for the whole block; then each
        member is one band-scatter product and one banded Cholesky solve,
        factored in place.  Returns ``(n, num_dofs)``.

        Raises
        ------
        numpy.linalg.LinAlgError
            If LAPACK reports a failed factorization (``info != 0``).
        """
        block = np.atleast_2d(coefficient_block)
        solutions = np.empty((block.shape[0], self.plan.num_interior), dtype=self.dtype)
        pbsv = _PBSV[self.dtype.char]
        for k, (band, rhs) in enumerate(self.plan.band_systems(block, self._lifting)):
            if rhs.size:  # an nx = 1 grid has no interior unknowns
                _, rhs, info = pbsv(band, rhs, lower=1, overwrite_ab=1, overwrite_b=1)
                if info != 0:
                    raise np.linalg.LinAlgError(
                        f"banded Cholesky solve failed (LAPACK info={info})"
                    )
            solutions[k] = rhs
        self._solve_count += block.shape[0]
        return self.plan.expand(solutions, self._dirichlet_values)

    # ------------------------------------------------------------------
    def observation_operator(self, points: np.ndarray) -> sp.csr_matrix:
        """Sparse Q1 interpolation operator ``B`` with ``B @ u = u(points)``.

        Row ``k`` holds the four bilinear shape-function weights of the
        element containing point ``k`` (boundary-clamped, like
        :meth:`StructuredGrid.locate`).
        """
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        elements, xi, eta = self.grid.locate_batch(pts)
        weights = Q1Element.shape_functions_batch(xi, eta)
        cols = self.grid.element_connectivity()[elements].ravel()
        rows = np.repeat(np.arange(pts.shape[0]), 4)
        return sp.coo_matrix(
            (weights.ravel(), (rows, cols)),
            shape=(pts.shape[0], self.grid.num_nodes),
        ).tocsr()

    def _cached_observation_operator(self, points: np.ndarray) -> sp.csr_matrix:
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        key = (pts.shape, pts.tobytes())
        operator = self._observation_operators.get(key)
        if operator is None:
            operator = self.observation_operator(pts)
            # Bounded cache: the intended use is one fixed observation grid
            # per solver; evict the oldest entry when callers vary the points.
            if len(self._observation_operators) >= 8:
                self._observation_operators.pop(
                    next(iter(self._observation_operators))
                )
            self._observation_operators[key] = operator
        return operator

    def evaluate(self, nodal_solution: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Evaluate the FEM solution at arbitrary physical points.

        Scalar reference implementation; :meth:`solve_and_observe` applies the
        cached sparse observation operator instead.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        conn = self.grid.element_connectivity()
        values = np.empty(pts.shape[0])
        for k, point in enumerate(pts):
            element, xi, eta = self.grid.locate(point)
            nodes = conn[element]
            values[k] = Q1Element.interpolate(nodal_solution[nodes], xi, eta)
        return values

    def solve_and_observe(
        self, element_coefficients: np.ndarray, observation_points: np.ndarray
    ) -> np.ndarray:
        """Convenience: solve then evaluate at the observation points.

        The observation operator is double, so a float32 nodal solution is
        promoted to ``float64`` here — the precision ladder's observation
        boundary.
        """
        solution = self.solve(element_coefficients)
        return self._cached_observation_operator(observation_points) @ solution

    def solve_and_observe_batch(
        self, coefficient_block: np.ndarray, observation_points: np.ndarray
    ) -> np.ndarray:
        """Observations of an ``(n, num_elements)`` block, shape ``(n, num_points)``.

        Promoted to ``float64`` by the (double) observation operator.
        """
        solutions = self.solve_batch(coefficient_block)
        return solutions @ self._cached_observation_operator(observation_points).T

    # ------------------------------------------------------------------
    def effective_permeability(self, element_coefficients: np.ndarray) -> float:
        """Horizontal effective permeability (flux through the right boundary).

        A common scalar QOI for flow cell problems; provided as an alternative
        to the field QOI used in the paper, and exercised by tests as a
        physically meaningful functional (bounded by the harmonic/arithmetic
        means of ``kappa``).
        """
        solution = self.solve(element_coefficients)
        kappa = np.asarray(element_coefficients, dtype=np.float64)
        grid = self.grid
        # Flux integral over the rightmost element column using the FEM
        # gradient du/dx at each element's right edge midpoint (xi=1, eta=0.5).
        elements = np.arange(grid.ny) * grid.nx + (grid.nx - 1)
        local_solutions = solution[grid.element_connectivity()[elements]]
        gradient_weights = Q1Element.shape_gradients(1.0, 0.5)[:, 0]
        dudx = (local_solutions @ gradient_weights) / grid.hx
        total_flux = np.sum(kappa[elements] * dudx * grid.hy)
        # Normalise by the pressure gradient (1 over unit length) and domain height.
        return float(total_flux) / (grid.y1 - grid.y0) / (
            (self.right_value - self.left_value) / (grid.x1 - grid.x0)
        )
