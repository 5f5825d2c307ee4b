"""Tests for the Q1 FEM substrate (grid, element, assembly, Poisson solver)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fem.assembly import (
    apply_dirichlet,
    assemble_diffusion_system,
    assemble_mass_matrix,
)
from repro.fem.grid import StructuredGrid
from repro.fem.poisson import PoissonSolver
from repro.fem.q1 import Q1Element


class TestStructuredGrid:
    def test_basic_counts(self):
        grid = StructuredGrid(4, 3)
        assert grid.num_elements == 12
        assert grid.num_nodes == 20
        assert grid.hx == pytest.approx(0.25)
        assert grid.hy == pytest.approx(1.0 / 3.0)

    def test_node_coordinates_cover_domain(self):
        grid = StructuredGrid(5)
        coords = grid.node_coordinates()
        assert coords.shape == (36, 2)
        assert coords.min() == 0.0 and coords.max() == 1.0

    def test_connectivity_is_counter_clockwise(self):
        grid = StructuredGrid(2)
        conn = grid.element_connectivity()
        coords = grid.node_coordinates()
        for element in conn:
            quad = coords[element]
            # shoelace formula: positive area for counter-clockwise ordering
            x, y = quad[:, 0], quad[:, 1]
            area = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
            assert area > 0

    def test_boundary_nodes(self):
        grid = StructuredGrid(3)
        coords = grid.node_coordinates()
        assert np.allclose(coords[grid.boundary_nodes("left")][:, 0], 0.0)
        assert np.allclose(coords[grid.boundary_nodes("right")][:, 0], 1.0)
        assert np.allclose(coords[grid.boundary_nodes("bottom")][:, 1], 0.0)
        assert np.allclose(coords[grid.boundary_nodes("top")][:, 1], 1.0)
        with pytest.raises(ValueError):
            grid.boundary_nodes("diagonal")

    def test_locate_point(self):
        grid = StructuredGrid(4)
        element, xi, eta = grid.locate(np.array([0.3, 0.6]))
        centers = grid.element_centers()
        assert np.linalg.norm(centers[element] - [0.3125, 0.625]) < 0.2
        assert 0.0 <= xi <= 1.0 and 0.0 <= eta <= 1.0

    def test_locate_clamps_outside_points(self):
        grid = StructuredGrid(4)
        element, xi, eta = grid.locate(np.array([1.5, -0.2]))
        assert 0 <= element < grid.num_elements

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            StructuredGrid(0)
        with pytest.raises(ValueError):
            StructuredGrid(2, bounds=((0.0, 0.0), (0.0, 1.0)))

    @given(st.integers(1, 12), st.integers(1, 12))
    @settings(max_examples=25, deadline=None)
    def test_property_counts(self, nx, ny):
        grid = StructuredGrid(nx, ny)
        assert grid.num_elements == nx * ny
        assert grid.num_nodes == (nx + 1) * (ny + 1)
        assert grid.element_connectivity().shape == (nx * ny, 4)


class TestQ1Element:
    def test_partition_of_unity(self):
        for xi, eta in [(0.2, 0.7), (0.0, 0.0), (1.0, 1.0), (0.5, 0.5)]:
            assert Q1Element.shape_functions(xi, eta).sum() == pytest.approx(1.0)

    def test_kronecker_property_at_nodes(self):
        for i, (xi, eta) in enumerate(Q1Element.NODES):
            phi = Q1Element.shape_functions(xi, eta)
            expected = np.zeros(4)
            expected[i] = 1.0
            np.testing.assert_allclose(phi, expected, atol=1e-14)

    def test_gradient_sums_to_zero(self):
        grads = Q1Element.shape_gradients(0.3, 0.8)
        np.testing.assert_allclose(grads.sum(axis=0), 0.0, atol=1e-14)

    def test_quadrature_integrates_bilinear_exactly(self):
        points, weights = Q1Element.quadrature(order=2)
        integral = sum(w * (xi * eta) for (xi, eta), w in zip(points, weights))
        assert integral == pytest.approx(0.25, rel=1e-12)
        assert weights.sum() == pytest.approx(1.0)

    def test_local_stiffness_properties(self):
        ke = Q1Element.local_stiffness(0.1, 0.1, coefficient=2.0)
        np.testing.assert_allclose(ke, ke.T, atol=1e-14)
        np.testing.assert_allclose(ke.sum(axis=1), 0.0, atol=1e-13)  # constants in kernel
        eigvals = np.linalg.eigvalsh(ke)
        assert eigvals.min() > -1e-12

    def test_local_mass_sums_to_area(self):
        me = Q1Element.local_mass(0.2, 0.5)
        assert me.sum() == pytest.approx(0.1, rel=1e-12)

    def test_interpolation(self):
        nodal = np.array([0.0, 1.0, 2.0, 1.0])  # u = x + y on the unit reference square
        assert Q1Element.interpolate(nodal, 0.5, 0.5) == pytest.approx(1.0)
        assert Q1Element.interpolate(nodal, 1.0, 0.0) == pytest.approx(1.0)


class TestAssembly:
    def test_global_stiffness_symmetric_and_singular_without_bc(self):
        grid = StructuredGrid(4)
        stiffness, load = assemble_diffusion_system(grid, np.ones(grid.num_elements))
        dense = stiffness.toarray()
        np.testing.assert_allclose(dense, dense.T, atol=1e-12)
        # constant vector is in the kernel before boundary conditions
        np.testing.assert_allclose(dense @ np.ones(grid.num_nodes), 0.0, atol=1e-12)
        np.testing.assert_allclose(load, 0.0)

    def test_wrong_coefficient_count(self):
        grid = StructuredGrid(3)
        with pytest.raises(ValueError):
            assemble_diffusion_system(grid, np.ones(5))

    def test_negative_coefficient_rejected(self):
        grid = StructuredGrid(3)
        with pytest.raises(ValueError):
            assemble_diffusion_system(grid, -np.ones(grid.num_elements))
        for bad in (np.nan, np.inf):
            kappa = np.ones(grid.num_elements)
            kappa[2] = bad
            with pytest.raises(ValueError):
                assemble_diffusion_system(grid, kappa)

    def test_source_term_enters_load(self):
        grid = StructuredGrid(4)
        _, load = assemble_diffusion_system(grid, np.ones(grid.num_elements), source=1.0)
        assert load.sum() == pytest.approx(1.0, rel=1e-12)  # integral of f over domain

    def test_mass_matrix_integrates_domain(self):
        grid = StructuredGrid(5)
        mass = assemble_mass_matrix(grid)
        assert mass.sum() == pytest.approx(1.0, rel=1e-12)

    def test_dirichlet_preserves_symmetry_and_pins_values(self):
        grid = StructuredGrid(4)
        stiffness, load = assemble_diffusion_system(grid, np.ones(grid.num_elements))
        nodes = grid.boundary_nodes("left")
        fixed, rhs = apply_dirichlet(stiffness, load, nodes, 3.0)
        dense = fixed.toarray()
        np.testing.assert_allclose(dense, dense.T, atol=1e-12)
        solution = np.linalg.solve(dense, rhs)
        np.testing.assert_allclose(solution[nodes], 3.0, atol=1e-10)


class TestPoissonSolver:
    def test_constant_coefficient_gives_linear_solution(self):
        grid = StructuredGrid(8)
        solver = PoissonSolver(grid)
        solution = solver.solve(np.ones(grid.num_elements))
        coords = grid.node_coordinates()
        np.testing.assert_allclose(solution, coords[:, 0], atol=1e-10)

    def test_point_evaluation_of_linear_solution(self):
        grid = StructuredGrid(8)
        solver = PoissonSolver(grid)
        solution = solver.solve(np.ones(grid.num_elements))
        points = np.array([[0.1, 0.3], [0.77, 0.5], [0.5, 0.99]])
        np.testing.assert_allclose(solver.evaluate(solution, points), points[:, 0], atol=1e-10)

    def test_layered_coefficient_harmonic_mean_flux(self):
        # Two vertical layers kappa=1 (left half), kappa=2 (right half):
        # the exact effective permeability is the harmonic mean 4/3.
        grid = StructuredGrid(16)
        solver = PoissonSolver(grid)
        centers = grid.element_centers()
        kappa = np.where(centers[:, 0] < 0.5, 1.0, 2.0)
        keff = solver.effective_permeability(kappa)
        assert keff == pytest.approx(4.0 / 3.0, rel=1e-2)

    def test_maximum_principle(self, rng):
        # With zero source, the solution must stay within the boundary values [0, 1].
        grid = StructuredGrid(12)
        solver = PoissonSolver(grid)
        kappa = np.exp(rng.normal(0, 1, size=grid.num_elements))
        solution = solver.solve(kappa)
        assert solution.min() >= -1e-9
        assert solution.max() <= 1.0 + 1e-9

    def test_mesh_convergence_for_smooth_coefficient(self):
        # kappa(x, y) = 1 + x: exact solution u(x) = log(1 + x) / log(2).
        errors = []
        for n in (4, 8, 16, 32):
            grid = StructuredGrid(n)
            solver = PoissonSolver(grid)
            centers = grid.element_centers()
            kappa = 1.0 + centers[:, 0]
            solution = solver.solve(kappa)
            coords = grid.node_coordinates()
            exact = np.log1p(coords[:, 0]) / np.log(2.0)
            errors.append(np.abs(solution - exact).max())
        errors = np.array(errors)
        rates = np.log2(errors[:-1] / errors[1:])
        # Q1 elements: second-order convergence (allow some slack on coarse meshes)
        assert rates[-1] > 1.6

    def test_observation_count_and_solver_bookkeeping(self):
        grid = StructuredGrid(8)
        solver = PoissonSolver(grid)
        obs = solver.solve_and_observe(np.ones(grid.num_elements), np.array([[0.5, 0.5]]))
        assert obs.shape == (1,)
        assert solver.num_solves == 1
        assert solver.num_dofs == grid.num_nodes
