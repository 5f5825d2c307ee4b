"""Solve-dtype tests of the dtype-parametric kernels.

Every model runs in ``float64``; the kernels underneath —
:class:`repro.fem.poisson.PoissonSolver` and the shallow-water solver behind
:class:`repro.swe.scenario.TohokuLikeScenario` — keep a ``dtype`` parameter so
their ``float32`` rungs can still be measured.  These tests pin what that
parameter guarantees: ``float32`` solves agree with ``float64`` within
round-off, observables always cross the observation boundary as ``float64``,
and a ``float32`` batch solve equals its scalar rows.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

from repro.fem.assembly import AssemblyPlan
from repro.fem.poisson import PoissonSolver
from repro.models.gaussian import GaussianHierarchyFactory, GaussianIdentityForwardModel
from repro.models.poisson import PoissonInverseProblemFactory
from repro.models.tsunami import TsunamiInverseProblemFactory
from repro.swe.scenario import LevelConfiguration, TohokuLikeScenario
from repro.utils.arrays import float_vector, resolve_dtype


def test_resolve_dtype():
    assert resolve_dtype(None) == np.dtype(np.float64)
    assert resolve_dtype("float32") == np.dtype(np.float32)
    assert resolve_dtype(np.float64) == np.dtype(np.float64)
    with pytest.raises(ValueError, match="unsupported kernel dtype"):
        resolve_dtype(np.int64)


def test_kernels_reject_non_float_dtypes():
    grid = _poisson_factory((8,)).forward_model(0).grid
    with pytest.raises(ValueError, match="unsupported kernel dtype"):
        PoissonSolver(grid, dtype=np.int64)
    with pytest.raises(ValueError, match="unsupported kernel dtype"):
        AssemblyPlan(grid, dtype=np.float16)
    with pytest.raises(ValueError, match="unsupported kernel dtype"):
        TohokuLikeScenario(dtype=np.int32)


def test_float_vector_passes_double_vectors_through():
    vector = np.array([1.0, 2.0, 3.0])
    assert float_vector(vector) is vector
    for value, expected in (
        (2, [2.0]),
        ([[1, 2], [3, 4]], [1.0, 2.0, 3.0, 4.0]),
        (np.array([1.5, 2.5], dtype=np.float32), [1.5, 2.5]),
        (np.arange(6.0)[::2], [0.0, 2.0, 4.0]),
    ):
        out = float_vector(value)
        assert out.dtype == np.float64 and out.ndim == 1 and out.flags.c_contiguous
        assert np.array_equal(out, expected)


def test_factories_take_no_precision_argument():
    """The model stack runs in float64: no factory accepts a precision ladder."""
    with pytest.raises(TypeError, match="precision"):
        GaussianHierarchyFactory(dim=2, num_levels=2, precision="float32-coarse")
    with pytest.raises(TypeError, match="precision"):
        PoissonInverseProblemFactory(mesh_sizes=(8,), precision="float32")
    with pytest.raises(TypeError, match="precision"):
        TsunamiInverseProblemFactory(precision="float32")
    with pytest.raises(TypeError):
        GaussianIdentityForwardModel(dim=2, dtype=np.float32)


def test_gaussian_identity_returns_a_double_copy():
    theta = np.array([0.123456789123456, -1.987654321987654])
    model = GaussianIdentityForwardModel(dim=2)
    out = model.forward(theta)
    assert out.dtype == np.float64 and np.array_equal(out, theta)
    assert not np.shares_memory(out, theta)
    block = np.stack([theta, -theta])
    batched = model.forward_batch(block)
    assert np.array_equal(batched, block) and not np.shares_memory(batched, block)


def _poisson_factory(mesh_sizes):
    return PoissonInverseProblemFactory(
        mesh_sizes=mesh_sizes,
        num_kl_modes=16,
        quadrature_points_per_dim=10,
        qoi_resolution=8,
        subsampling_rates=[0] * len(mesh_sizes),
        pcn_beta=0.4,
    )


class TestDtypeParity:
    """float32 kernel solves track float64 within round-off, outputs stay double."""

    def test_poisson_forward_parity(self):
        factory = _poisson_factory((8, 16))
        theta = np.random.default_rng(3).normal(size=16)
        for level in range(2):
            model = factory.forward_model(level)
            solver32 = PoissonSolver(model.grid, dtype=np.float32)
            out64 = model.forward(theta)
            out32 = solver32.solve_and_observe(
                model.diffusion_coefficients(theta), factory.observation_points
            )
            assert out64.dtype == np.float64 and out32.dtype == np.float64
            assert not np.array_equal(out32, out64)  # genuinely solved in single
            np.testing.assert_allclose(out32, out64, rtol=1e-3, atol=1e-5)

    def test_poisson_float32_batch_matches_scalar_rows(self):
        factory = _poisson_factory((8,))
        model = factory.forward_model(0)
        solver32 = PoissonSolver(model.grid, dtype=np.float32)
        points = factory.observation_points
        block = np.random.default_rng(4).normal(size=(5, 16))
        batched = solver32.solve_and_observe_batch(
            model.diffusion_coefficients_batch(block), points
        )
        for row, theta in zip(batched, block):
            scalar = solver32.solve_and_observe(model.diffusion_coefficients(theta), points)
            assert np.array_equal(row, scalar)

    def test_assembly_plan_carries_its_dtype(self):
        grid = _poisson_factory((8,)).forward_model(0).grid
        boundary = np.arange(grid.nx + 1)
        kappa = np.linspace(1.0, 2.0, grid.num_elements)
        plans = {
            dtype: AssemblyPlan(grid, boundary, source=1.0, dtype=dtype)
            for dtype in (np.float32, np.float64)
        }
        bands = {}
        for dtype, plan in plans.items():
            assert plan.dtype == np.dtype(dtype)
            assert plan.load.dtype == dtype and plan.band_scatter.dtype == dtype
            assert plan.coefficients(kappa).dtype == dtype
            lifting = plan.lifting(0.5)
            assert lifting.dtype == dtype
            (band, rhs), = plan.band_systems(kappa[None, :], lifting)
            assert band.dtype == dtype and rhs.dtype == dtype
            bands[dtype] = band
            assert plan.expand(np.zeros(plan.num_interior), 0.5).dtype == dtype
        # the plan geometry is computed in double either way
        assert plans[np.float32].bandwidth == plans[np.float64].bandwidth
        assert np.array_equal(plans[np.float32].interior, plans[np.float64].interior)
        np.testing.assert_allclose(bands[np.float32], bands[np.float64], rtol=1e-6)

    def test_tsunami_forward_parity(self):
        def scenario(dtype=None):
            return TohokuLikeScenario(
                end_time=900.0,
                level_configs=(
                    LevelConfiguration(0, 12, "constant", False),
                    LevelConfiguration(1, 24, "smoothed", True, smoothing_passes=2),
                ),
                dtype=dtype,
            )

        s64, s32 = scenario(), scenario(np.float32)
        theta = np.array([15.0, -20.0])
        num_gauges = len(s64.gauges)
        for level in range(2):
            assert s32.plan(level).dtype == np.float32
            assert s64.plan(level).dtype == np.float64
            out64 = s64.observe(level, theta)
            out32 = s32.observe(level, theta)
            assert out64.dtype == np.float64 and out32.dtype == np.float64
            # wave heights (metres) agree to well below the observation noise;
            # arrival times are argmax picks and may shift by an output step,
            # so only sanity-check them.
            np.testing.assert_allclose(
                out32[:num_gauges], out64[:num_gauges], atol=0.05
            )
            assert np.all(np.isfinite(out32))


class TestKernelDtypeHygiene:
    """Kernel modules must not hard-code ``dtype=float`` (always float64)."""

    KERNEL_MODULES = (
        "src/repro/swe/fv2d.py",
        "src/repro/swe/state.py",
        "src/repro/swe/riemann.py",
        "src/repro/swe/scenario.py",
        "src/repro/fem/assembly.py",
        "src/repro/fem/poisson.py",
    )

    def test_no_bare_dtype_float_in_kernel_modules(self):
        root = Path(__file__).resolve().parents[1]
        offenders = []
        for relative in self.KERNEL_MODULES:
            text = (root / relative).read_text(encoding="utf-8")
            for match in re.finditer(r"dtype=float[,)\s]", text):
                line = text.count("\n", 0, match.start()) + 1
                offenders.append(f"{relative}:{line}")
        assert not offenders, (
            "bare dtype=float coerces to float64 and silently defeats the "
            f"kernels' float32 dtype; use the plan/solver dtype instead: {offenders}"
        )
