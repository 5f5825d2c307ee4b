"""Mixed-precision ladder and array-API shim tests.

Covers the two guarantees the precision subsystem makes:

* dtype parity — float32 forward solves agree with float64 within round-off
  on every application (analytic Gaussian, Poisson FEM, tsunami SWE), and
  observables always cross the observation boundary as ``float64``;
* estimator validity — a ``float32-coarse`` multilevel estimate stays within
  the statistical error of the all-double estimate (the telescoping sum
  absorbs coarse round-off bias like discretisation bias).
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

from repro.core.mlmcmc import MLMCMCSampler
from repro.models.gaussian import GaussianHierarchyFactory, GaussianIdentityForwardModel
from repro.models.poisson import PoissonInverseProblemFactory
from repro.models.tsunami import TsunamiInverseProblemFactory, TsunamiLevelSpec
from repro.utils.array_api import (
    PRECISION_LADDERS,
    array_namespace,
    level_dtype,
    level_dtypes,
    resolve_dtype,
)


class TestArrayApiShim:
    def test_array_namespace_infers_numpy(self):
        assert array_namespace(np.zeros(3), np.float32(1.0)) is np
        assert array_namespace() is np
        assert array_namespace(None, [1.0, 2.0]) is np

    def test_array_namespace_follows_the_array_api_hook(self):
        class _Array:
            def __array_namespace__(self):
                return "other"

        assert array_namespace(_Array(), None) == "other"
        with pytest.raises(TypeError, match="cannot be mixed"):
            array_namespace(_Array(), np.zeros(2))

    def test_resolve_dtype(self):
        assert resolve_dtype(None) == np.dtype(np.float64)
        assert resolve_dtype("float32") == np.dtype(np.float32)
        assert resolve_dtype(np.float64) == np.dtype(np.float64)
        with pytest.raises(ValueError, match="unsupported kernel dtype"):
            resolve_dtype(np.int64)

    def test_level_dtypes_ladders(self):
        f32, f64 = np.dtype(np.float32), np.dtype(np.float64)
        assert level_dtypes("float64", 3) == [f64, f64, f64]
        assert level_dtypes(None, 2) == [f64, f64]
        assert level_dtypes("float32", 3) == [f32, f32, f32]
        assert level_dtypes("float32-coarse", 3) == [f32, f32, f64]
        # a single-level "hierarchy" has no coarse rung to downgrade
        assert level_dtypes("float32-coarse", 1) == [f64]
        assert level_dtype("float32-coarse", 0, 3) == f32
        assert level_dtype("float32-coarse", 2, 3) == f64

    def test_level_dtypes_errors(self):
        with pytest.raises(ValueError, match="unknown precision ladder"):
            level_dtypes("half", 2)
        with pytest.raises(ValueError, match="at least one level"):
            level_dtypes("float64", 0)
        with pytest.raises(ValueError, match="outside hierarchy"):
            level_dtype("float64", 3, 3)
        assert PRECISION_LADDERS == ("float64", "float32-coarse", "float32")


class TestDtypeParity:
    """float32 forward solves track float64 within round-off, outputs stay double."""

    def test_gaussian_identity_rounds_through_float32(self):
        theta = np.array([0.123456789123456, -1.987654321987654])
        m64 = GaussianIdentityForwardModel(dim=2)
        m32 = GaussianIdentityForwardModel(dim=2, dtype=np.float32)
        out64, out32 = m64.forward(theta), m32.forward(theta)
        assert out64.dtype == np.float64 and out32.dtype == np.float64
        assert np.array_equal(out64, theta)
        assert np.array_equal(out32, theta.astype(np.float32).astype(np.float64))
        np.testing.assert_allclose(out32, out64, rtol=1e-6)

    def test_poisson_forward_parity(self):
        kwargs = dict(
            mesh_sizes=(8, 16),
            num_kl_modes=16,
            quadrature_points_per_dim=10,
            qoi_resolution=8,
            subsampling_rates=[0, 4],
            pcn_beta=0.4,
        )
        f64 = PoissonInverseProblemFactory(**kwargs)
        f32 = PoissonInverseProblemFactory(precision="float32", **kwargs)
        theta = np.random.default_rng(3).normal(size=16)
        for level in range(2):
            out64 = f64.forward_model(level).forward(theta)
            out32 = f32.forward_model(level).forward(theta)
            assert out64.dtype == np.float64 and out32.dtype == np.float64
            assert not np.array_equal(out32, out64)  # genuinely solved in single
            np.testing.assert_allclose(out32, out64, rtol=1e-3, atol=1e-5)

    def test_poisson_float32_batch_matches_scalar_rows(self):
        factory = PoissonInverseProblemFactory(
            mesh_sizes=(8,),
            num_kl_modes=16,
            quadrature_points_per_dim=10,
            qoi_resolution=8,
            subsampling_rates=[0],
            pcn_beta=0.4,
            precision="float32",
        )
        model = factory.forward_model(0)
        block = np.random.default_rng(4).normal(size=(5, 16))
        batched = model.forward_batch(block)
        for row, theta in zip(batched, block):
            assert np.array_equal(row, model.forward(theta))

    def test_tsunami_forward_parity(self):
        specs = (
            TsunamiLevelSpec(0, 12, "constant", False, 0.15, 2.5),
            TsunamiLevelSpec(1, 24, "smoothed", True, 0.10, 1.5, smoothing_passes=2),
        )
        f64 = TsunamiInverseProblemFactory(
            level_specs=specs, end_time=900.0, subsampling_rates=[0, 2]
        )
        f32 = TsunamiInverseProblemFactory(
            level_specs=specs,
            end_time=900.0,
            subsampling_rates=[0, 2],
            precision="float32",
        )
        theta = np.array([15.0, -20.0])
        num_gauges = len(f64.forward_model(0).scenario.gauges)
        for level in range(2):
            out64 = f64.forward_model(level).forward(theta)
            out32 = f32.forward_model(level).forward(theta)
            assert out64.dtype == np.float64 and out32.dtype == np.float64
            # wave heights (metres) agree to well below the observation noise;
            # arrival times are argmax picks and may shift by an output step,
            # so only sanity-check them.
            np.testing.assert_allclose(
                out32[:num_gauges], out64[:num_gauges], atol=0.05
            )
            assert np.all(np.isfinite(out32))


class TestMixedPrecisionEstimate:
    def _stderr(self, result) -> float:
        return float(
            np.sqrt(
                sum(
                    np.max(c.variance()) / max(1, len(c))
                    for c in result.corrections
                )
            )
        )

    def test_gaussian_float32_coarse_within_statistical_error(self):
        def run(precision):
            factory = GaussianHierarchyFactory(
                dim=2, num_levels=3, precision=precision
            )
            sampler = MLMCMCSampler(
                factory,
                num_samples=[400, 100, 40],
                burnin=[40, 10, 5],
                subsampling_rates=[0, 5, 4],
                seed=2024,
            )
            return sampler.run()

        r64, r32c = run(None), run("float32-coarse")
        stderr = self._stderr(r64)
        assert np.max(np.abs(r32c.mean - r64.mean)) <= 4.0 * stderr

    def test_poisson_float32_coarse_within_statistical_error(self):
        def run(precision):
            factory = PoissonInverseProblemFactory(
                mesh_sizes=(8, 16),
                num_kl_modes=16,
                quadrature_points_per_dim=10,
                qoi_resolution=8,
                subsampling_rates=[0, 4],
                pcn_beta=0.4,
                precision=precision,
            )
            sampler = MLMCMCSampler(
                factory, num_samples=[60, 20], burnin=[5, 2], seed=11
            )
            return sampler.run()

        r64, r32c = run(None), run("float32-coarse")
        stderr = self._stderr(r64)
        assert np.max(np.abs(r32c.mean - r64.mean)) <= 4.0 * max(stderr, 1e-12)


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
            f"precision ladder; use the plan/solver dtype instead: {offenders}"
        )
