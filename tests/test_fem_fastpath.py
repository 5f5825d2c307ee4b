"""Tests for the plan-based FEM solve path.

Covers the parity guarantees the solve path promises against the reference
implementations: the plan's banded interior block vs. the COO path, the
reduced system vs. full ``apply_dirichlet`` elimination, the banded Cholesky solve vs.
an assemble-eliminate-``spsolve`` oracle, the sparse observation operator vs.
the ``evaluate()`` loop, ``solve_batch`` vs. looped ``solve``, and the
boundary-clamp edge cases of point location.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from repro.fem.assembly import (
    AssemblyPlan,
    apply_dirichlet,
    assemble_diffusion_system,
)
from repro.fem.grid import StructuredGrid
from repro.fem.poisson import PoissonSolver


def _random_kappa(grid: StructuredGrid, rng: np.random.Generator) -> np.ndarray:
    return np.exp(rng.normal(0.0, 1.0, size=grid.num_elements))


def _reference_solve(grid: StructuredGrid, kappa: np.ndarray) -> np.ndarray:
    """Oracle: assemble the full system, eliminate u = 0 | 1 on the left |
    right edges, ``spsolve``."""
    left, right = grid.boundary_nodes("left"), grid.boundary_nodes("right")
    stiffness, load = assemble_diffusion_system(grid, kappa)
    stiffness, load = apply_dirichlet(
        stiffness,
        load,
        np.concatenate([left, right]),
        np.concatenate([np.zeros(left.size), np.ones(right.size)]),
    )
    return spla.spsolve(stiffness.tocsc(), load)


def _band_to_dense(band: np.ndarray) -> np.ndarray:
    """Symmetric matrix from LAPACK lower band storage ``(kd + 1, n)``."""
    kd, n = band.shape[0] - 1, band.shape[1]
    dense = np.zeros((n, n))
    for offset in range(kd + 1):
        diagonal = band[offset, : n - offset]
        dense += np.diag(diagonal, -offset)
        if offset:
            dense += np.diag(diagonal, offset)
    return dense


class TestGridCaching:
    def test_connectivity_is_cached_and_read_only(self):
        grid = StructuredGrid(6, 4)
        conn = grid.element_connectivity()
        assert grid.element_connectivity() is conn
        assert not conn.flags.writeable
        with pytest.raises(ValueError):
            conn[0, 0] = 99

    def test_boundary_nodes_are_cached_and_read_only(self):
        grid = StructuredGrid(5)
        for side in ("left", "right", "bottom", "top"):
            nodes = grid.boundary_nodes(side)
            assert grid.boundary_nodes(side) is nodes
            assert not nodes.flags.writeable

    def test_vectorized_connectivity_matches_node_index(self):
        grid = StructuredGrid(4, 3)
        conn = grid.element_connectivity()
        e = 0
        for j in range(grid.ny):
            for i in range(grid.nx):
                expected = (
                    grid.node_index(i, j),
                    grid.node_index(i + 1, j),
                    grid.node_index(i + 1, j + 1),
                    grid.node_index(i, j + 1),
                )
                assert tuple(conn[e]) == expected
                e += 1


class TestLocateBatch:
    def test_matches_scalar_locate(self, rng):
        grid = StructuredGrid(7, 5, bounds=((-1.0, 2.0), (0.5, 3.0)))
        points = np.column_stack(
            [rng.uniform(-2.0, 3.0, size=50), rng.uniform(0.0, 4.0, size=50)]
        )
        elements, xi, eta = grid.locate_batch(points)
        for k, point in enumerate(points):
            element, sxi, seta = grid.locate(point)
            assert elements[k] == element
            assert xi[k] == sxi
            assert eta[k] == seta

    @pytest.mark.parametrize(
        "point",
        [(0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (0.0, 1.0), (-0.5, 0.3), (1.7, 2.0), (0.5, -3.0)],
    )
    def test_boundary_and_outside_points_clamp_into_grid(self, point):
        grid = StructuredGrid(4)
        element, xi, eta = grid.locate(np.asarray(point, dtype=float))
        assert 0 <= element < grid.num_elements
        assert 0.0 <= xi < 1.0
        assert 0.0 <= eta < 1.0
        elements, xis, etas = grid.locate_batch(np.asarray(point, dtype=float)[None, :])
        assert elements[0] == element
        assert xis[0] == xi and etas[0] == eta

    def test_corner_point_lands_in_last_element(self):
        grid = StructuredGrid(8)
        element, xi, eta = grid.locate(np.array([1.0, 1.0]))
        assert element == grid.num_elements - 1
        assert xi == pytest.approx(1.0, abs=1e-8)
        assert eta == pytest.approx(1.0, abs=1e-8)


class TestAssemblyPlanParity:
    @pytest.mark.parametrize("shape", [(4, 4), (6, 3), (1, 5)])
    def test_plan_matrix_matches_coo_path(self, shape, rng):
        grid = StructuredGrid(*shape)
        kappa = _random_kappa(grid, rng)
        reference, ref_load = assemble_diffusion_system(grid, kappa, source=1.5)
        reference = reference.toarray()
        left_right = np.concatenate([grid.boundary_nodes("left"), grid.boundary_nodes("right")])
        for nodes in (None, left_right):
            plan = AssemblyPlan(grid, dirichlet_nodes=nodes, source=1.5)
            interior = plan.interior
            [(band, rhs)] = plan.band_systems(kappa, plan.lifting(0.0))
            assert band.shape == (plan.bandwidth + 1, interior.size)
            np.testing.assert_allclose(
                _band_to_dense(band),
                reference[np.ix_(interior, interior)],
                rtol=1e-13,
                atol=1e-15,
            )
            np.testing.assert_allclose(rhs, ref_load[interior], rtol=1e-13)
            np.testing.assert_allclose(plan.load, ref_load, rtol=1e-13)

    def test_plan_validates_coefficients(self):
        grid = StructuredGrid(3)
        plan = AssemblyPlan(grid)
        lifting = plan.lifting(0.0)

        def bands(kappa):
            return list(plan.band_systems(kappa, lifting))

        with pytest.raises(ValueError):
            bands(np.ones(5))
        with pytest.raises(ValueError):
            bands(np.ones((2, 5)))
        with pytest.raises(ValueError):
            bands(-np.ones(grid.num_elements))
        for bad in (np.nan, np.inf):
            kappa = np.ones(grid.num_elements)
            kappa[4] = bad
            with pytest.raises(ValueError):
                bands(kappa)
            with pytest.raises(ValueError):
                bands(np.vstack([np.ones_like(kappa), kappa]))

    def test_duplicate_dirichlet_nodes_rejected(self):
        grid = StructuredGrid(3)
        with pytest.raises(ValueError):
            AssemblyPlan(grid, dirichlet_nodes=np.array([0, 0, 1]))

    def test_reduced_system_matches_full_elimination(self, rng):
        grid = StructuredGrid(9)
        nodes = np.concatenate([grid.boundary_nodes("left"), grid.boundary_nodes("right")])
        values = rng.uniform(-1.0, 1.0, size=nodes.size)
        kappa = _random_kappa(grid, rng)
        plan = AssemblyPlan(grid, dirichlet_nodes=nodes)

        [(band, rhs_i)] = plan.band_systems(kappa, plan.lifting(values))
        assert plan.bandwidth == grid.nx
        assert band.shape == (grid.nx + 1, plan.num_interior)
        assert band.flags.f_contiguous
        reduced = np.linalg.solve(_band_to_dense(band), rhs_i)
        full_solution = plan.expand(reduced, values)

        stiffness, load = assemble_diffusion_system(grid, kappa)
        eliminated, rhs = apply_dirichlet(stiffness, load, nodes, values)
        reference = np.linalg.solve(eliminated.toarray(), rhs)
        np.testing.assert_allclose(full_solution, reference, atol=1e-11)


class TestFastPathSolver:
    @pytest.mark.parametrize("shape", [(16, 16), (6, 3), (20, 14)])
    def test_solve_matches_reference_to_machine_precision(self, shape, rng):
        grid = StructuredGrid(*shape)
        solver = PoissonSolver(grid)
        kappa = _random_kappa(grid, rng)
        np.testing.assert_allclose(
            solver.solve(kappa), _reference_solve(grid, kappa), rtol=0.0, atol=1e-12
        )
        assert solver.num_solves == 1

    def test_float32_solve_matches_reference_to_round_off(self, rng):
        grid = StructuredGrid(16)
        solver = PoissonSolver(grid, dtype=np.float32)
        kappa = _random_kappa(grid, rng)
        solution = solver.solve(kappa)
        assert solution.dtype == np.float32
        np.testing.assert_allclose(solution, _reference_solve(grid, kappa), atol=1e-5)

    def test_non_finite_coefficients_rejected(self):
        solver = PoissonSolver(StructuredGrid(4))
        for bad in (np.nan, np.inf, -np.inf, 0.0):
            kappa = np.ones(solver.grid.num_elements)
            kappa[3] = bad
            with pytest.raises(ValueError):
                solver.solve(kappa)

    def test_failed_factorization_raises(self, monkeypatch):
        # Positive coefficients always give an SPD band; feed the solver a
        # negated one to reach the LAPACK failure branch.
        solver = PoissonSolver(StructuredGrid(4))
        band_systems = solver.plan.band_systems

        def negated(block, lifting):
            for band, rhs in band_systems(block, lifting):
                yield -band, rhs

        monkeypatch.setattr(solver.plan, "band_systems", negated)
        with pytest.raises(np.linalg.LinAlgError):
            solver.solve(np.ones(solver.grid.num_elements))

    def test_solve_batch_matches_looped_solve(self, rng):
        grid = StructuredGrid(10)
        solver = PoissonSolver(grid)
        block = np.exp(rng.normal(0.0, 0.8, size=(5, grid.num_elements)))
        batch = solver.solve_batch(block)
        loop = np.stack([solver.solve(kappa) for kappa in block])
        assert batch.shape == (5, grid.num_nodes)
        np.testing.assert_array_equal(batch, loop)
        assert solver.num_solves == 10

    def test_observation_operator_matches_evaluate_loop(self, rng):
        grid = StructuredGrid(12)
        solver = PoissonSolver(grid)
        solution = solver.solve(_random_kappa(grid, rng))
        points = np.vstack(
            [
                rng.uniform(0.0, 1.0, size=(20, 2)),
                [[0.0, 0.0], [1.0, 1.0], [1.0, 0.5], [0.25, 1.0]],
            ]
        )
        operator = solver.observation_operator(points)
        assert operator.shape == (points.shape[0], grid.num_nodes)
        # rows are convex interpolation weights
        np.testing.assert_allclose(
            np.asarray(operator.sum(axis=1)).ravel(), 1.0, atol=1e-12
        )
        np.testing.assert_allclose(
            operator @ solution, solver.evaluate(solution, points), atol=1e-13
        )

    def test_solve_and_observe_uses_cached_operator(self, rng):
        grid = StructuredGrid(8)
        solver = PoissonSolver(grid)
        points = np.array([[0.3, 0.4], [0.9, 0.1]])
        kappa = _random_kappa(grid, rng)
        first = solver.solve_and_observe(kappa, points)
        assert len(solver._observation_operators) == 1
        second = solver.solve_and_observe(kappa, points)
        assert len(solver._observation_operators) == 1
        np.testing.assert_array_equal(first, second)

    def test_solve_and_observe_batch_matches_scalar(self, rng):
        grid = StructuredGrid(8)
        solver = PoissonSolver(grid)
        block = np.exp(rng.normal(0.0, 0.5, size=(4, grid.num_elements)))
        points = np.array([[0.2, 0.2], [0.5, 0.77], [1.0, 1.0]])
        batch = solver.solve_and_observe_batch(block, points)
        loop = np.stack([solver.solve_and_observe(kappa, points) for kappa in block])
        assert batch.shape == (4, 3)
        np.testing.assert_allclose(batch, loop, rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_solver_pickle_round_trip_after_solve(self, dtype, rng):
        # PoolEvaluator pickles bound problems: nothing unpicklable (such as
        # a LAPACK routine) may be cached on the solver by a solve.
        grid = StructuredGrid(8)
        solver = PoissonSolver(grid, dtype=dtype)
        kappa = _random_kappa(grid, rng)
        expected = solver.solve(kappa)
        clone = pickle.loads(pickle.dumps(solver))
        np.testing.assert_array_equal(clone.solve(kappa), expected)

    def test_single_column_grid_pins_all_nodes(self):
        # nx = 1 makes every node a Dirichlet node: the reduced system is
        # empty and the solution is just the boundary data u = x.
        grid = StructuredGrid(1, 4)
        solver = PoissonSolver(grid)
        solution = solver.solve(np.ones(grid.num_elements))
        np.testing.assert_allclose(solution, grid.node_coordinates()[:, 0], atol=1e-14)


class TestForwardModelBatchParity:
    def test_forward_batch_matches_scalar_calls(self, small_poisson_factory, rng):
        forward = small_poisson_factory.forward_model(0)
        thetas = 0.4 * rng.standard_normal((6, forward.parameter_dim))
        batch = forward.forward_batch(thetas)
        loop = np.stack([forward(theta) for theta in thetas])
        np.testing.assert_allclose(batch, loop, rtol=1e-13, atol=1e-15)
