"""Structured-grid Q1 finite element substrate (DUNE substitute).

Implements exactly the discretisation used by the paper's Poisson application:
Q1 (bilinear) elements on uniform structured grids of the unit square, a
diffusion operator with an element-wise (log-normal random field) coefficient,
Dirichlet boundary conditions on the left/right edges and natural Neumann
conditions elsewhere.

Per-sample solves run on one path: a :class:`~repro.fem.assembly.AssemblyPlan`
precomputes, per ``(grid, Dirichlet set)`` pair, a scatter map from the
per-element coefficients straight into LAPACK lower band storage of the SPD
interior block ``K_ii`` (half-bandwidth ``nx`` in natural node ordering) and
a lifting operator for ``K_ib u_b``, so each sample is two sparse products
and one banded Cholesky solve (``?pbsv``) of ``K_ii u_i = b_i - K_ib u_b``.
Observations apply a cached sparse Q1 interpolation operator.
:func:`~repro.fem.assembly.assemble_diffusion_system` +
:func:`~repro.fem.assembly.apply_dirichlet` assemble and eliminate the full
system and serve as the reference for the solve path.

Typical usage::

    import numpy as np
    from repro.fem import PoissonSolver, StructuredGrid

    solver = PoissonSolver(StructuredGrid(32))          # plan built once
    kappa = np.exp(np.random.default_rng(0).normal(size=solver.grid.num_elements))
    u = solver.solve(kappa)                             # band assembly + banded Cholesky
    points = np.array([[0.25, 0.5], [0.75, 0.5]])
    obs = solver.solve_and_observe(kappa, points)       # B @ u, cached operator
    batch = solver.solve_and_observe_batch(np.tile(kappa, (8, 1)), points)
"""

from repro.fem.grid import StructuredGrid
from repro.fem.q1 import Q1Element
from repro.fem.assembly import AssemblyPlan, assemble_diffusion_system, apply_dirichlet
from repro.fem.poisson import PoissonSolver

__all__ = [
    "StructuredGrid",
    "Q1Element",
    "AssemblyPlan",
    "assemble_diffusion_system",
    "apply_dirichlet",
    "PoissonSolver",
]
