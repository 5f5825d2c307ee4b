"""Tests for the shallow-water substrate: state, fluxes, FV solver, bathymetry."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.swe.bathymetry import (
    depth_averaged_bathymetry,
    smooth_bathymetry,
    tohoku_like_bathymetry,
)
from repro.swe.fv2d import BLOCK_CELLS, ShallowWaterSolver2D
from repro.swe.gauges import Gauge, GaugeRecord, wave_observables
from repro.swe.riemann import hll_flux, physical_flux_x, rusanov_flux
from repro.swe.state import DRY_TOLERANCE, GRAVITY, ShallowWaterEnsembleState, ShallowWaterState


def _flat_solver(n=20, depth=100.0, extent=(0.0, 1000.0, 0.0, 1000.0), **kwargs):
    bathy = np.full((n, n), -depth)
    return ShallowWaterSolver2D(n, n, extent, bathy, **kwargs)


class TestState:
    def test_lake_at_rest_construction(self):
        bathy = np.array([[-10.0, -5.0], [2.0, -1.0]])
        state = ShallowWaterState.lake_at_rest(bathy)
        np.testing.assert_allclose(state.h, [[10.0, 5.0], [0.0, 1.0]])
        assert state.total_momentum() == (0.0, 0.0)
        # free surface is zero on wet cells and equals bathymetry on dry cells
        assert state.free_surface[0, 0] == pytest.approx(0.0)
        assert state.free_surface[1, 0] == pytest.approx(2.0)

    def test_wet_mask_and_velocities(self):
        state = ShallowWaterState(
            h=np.array([[1.0, 0.0]]),
            hu=np.array([[2.0, 0.0]]),
            hv=np.array([[-1.0, 0.0]]),
            b=np.array([[-1.0, 1.0]]),
        )
        u, v = state.velocities()
        assert u[0, 0] == pytest.approx(2.0)
        assert v[0, 0] == pytest.approx(-1.0)
        assert u[0, 1] == 0.0 and not state.wet[0, 1]

    def test_max_wave_speed(self):
        state = ShallowWaterState.lake_at_rest(np.full((3, 3), -100.0))
        assert state.max_wave_speed() == pytest.approx(np.sqrt(GRAVITY * 100.0), rel=1e-12)
        dry = ShallowWaterState.lake_at_rest(np.full((3, 3), 10.0))
        assert dry.max_wave_speed() == 0.0

    def test_enforce_positivity(self):
        state = ShallowWaterState(
            h=np.array([[-1e-12, 1.0]]),
            hu=np.array([[5.0, 1.0]]),
            hv=np.array([[5.0, 1.0]]),
            b=np.array([[0.0, -2.0]]),
        )
        state.enforce_positivity()
        assert state.h[0, 0] == 0.0
        assert state.hu[0, 0] == 0.0 and state.hv[0, 0] == 0.0
        assert state.hu[0, 1] == 1.0

    def test_inconsistent_shapes_rejected(self):
        with pytest.raises(ValueError):
            ShallowWaterState(
                h=np.zeros((2, 2)), hu=np.zeros((2, 3)), hv=np.zeros((2, 2)), b=np.zeros((2, 2))
            )

    def test_copy_is_deep(self):
        state = ShallowWaterState.lake_at_rest(np.full((2, 2), -10.0))
        clone = state.copy()
        clone.h[0, 0] = 99.0
        assert state.h[0, 0] == 10.0


class TestRiemannFluxes:
    def test_physical_flux_at_rest(self):
        h = np.array([2.0])
        flux_h, flux_hu, flux_hv = physical_flux_x(h, np.zeros(1), np.zeros(1))
        assert flux_h[0] == 0.0
        assert flux_hu[0] == pytest.approx(0.5 * GRAVITY * 4.0)
        assert flux_hv[0] == 0.0

    @pytest.mark.parametrize("flux", [rusanov_flux, hll_flux])
    def test_consistency_with_physical_flux(self, flux):
        # Equal left/right states: the numerical flux must equal the physical flux.
        q = (np.array([2.0]), np.array([1.0]), np.array([0.5]))
        numerical = flux(q, q)
        physical = physical_flux_x(*q)
        for num, phys in zip(numerical, physical):
            np.testing.assert_allclose(num, phys, rtol=1e-12)

    @pytest.mark.parametrize("flux", [rusanov_flux, hll_flux])
    def test_dam_break_flux_direction(self, flux):
        # Higher water on the left: mass flux must be positive (to the right).
        q_l = (np.array([2.0]), np.array([0.0]), np.array([0.0]))
        q_r = (np.array([1.0]), np.array([0.0]), np.array([0.0]))
        flux_h, _, _ = flux(q_l, q_r)
        assert flux_h[0] > 0

    @pytest.mark.parametrize("flux", [rusanov_flux, hll_flux])
    def test_dry_states_no_nan(self, flux):
        q_l = (np.array([0.0]), np.array([0.0]), np.array([0.0]))
        q_r = (np.array([1.0]), np.array([0.0]), np.array([0.0]))
        values = flux(q_l, q_r)
        assert all(np.all(np.isfinite(v)) for v in values)


class TestBathymetry:
    def test_tohoku_like_profile_features(self):
        field = tohoku_like_bathymetry()
        x0, x1, y0, y1 = field.extent
        # deep ocean in the middle/east, dry land in the far west, trench deeper than plain
        assert field(np.array([0.0]), np.array([0.0]))[0] < -1000.0
        assert field(np.array([x0 + 1e3]), np.array([0.0]))[0] > 0.0
        trench = field(np.array([60e3]), np.array([0.0]))[0]
        plain = field(np.array([-20e3]), np.array([0.0]))[0]
        assert trench < plain

    def test_on_grid_shape(self):
        field = tohoku_like_bathymetry()
        assert field.on_grid(20, 30).shape == (20, 30)

    def test_smoothing_reduces_roughness_preserves_mean(self, rng):
        field = tohoku_like_bathymetry().on_grid(40, 40)
        field = field + rng.normal(0, 50.0, size=field.shape)
        smoothed = smooth_bathymetry(field, passes=4)
        assert smoothed.shape == field.shape
        rough_before = np.abs(np.diff(field, axis=0)).mean()
        rough_after = np.abs(np.diff(smoothed, axis=0)).mean()
        assert rough_after < rough_before
        assert abs(smoothed.mean() - field.mean()) < 30.0

    def test_zero_smoothing_passes_identity(self):
        field = tohoku_like_bathymetry().on_grid(10, 10)
        np.testing.assert_allclose(smooth_bathymetry(field, passes=0), field)

    def test_depth_average_is_constant(self):
        field = tohoku_like_bathymetry().on_grid(30, 30)
        averaged = depth_averaged_bathymetry(field)
        assert np.unique(averaged).size == 1
        assert averaged[0, 0] < 0.0


class TestShallowWaterSolver:
    def test_lake_at_rest_is_preserved(self):
        # Well-balancedness over non-trivial bathymetry (the key solver property).
        field = tohoku_like_bathymetry()
        bathy = field.on_grid(24, 24)
        solver = ShallowWaterSolver2D(24, 24, field.extent, bathy)
        state = solver.initial_state()
        reference = state.h.copy()
        result = solver.run(state, end_time=300.0)
        assert np.abs(result.state.h - reference).max() < 1e-8
        assert np.abs(result.state.hu).max() < 1e-8

    def test_mass_conservation_flat_bottom(self):
        # Domain large enough that the wave cannot reach the open boundaries
        # within the simulated time, so the total water volume must be conserved.
        solver = _flat_solver(n=24, depth=100.0, extent=(0.0, 100e3, 0.0, 100e3))
        displacement = np.zeros((24, 24))
        displacement[10:14, 10:14] = 1.0
        state = solver.initial_state(displacement)
        mass_before = state.total_mass()
        result = solver.run(state, end_time=200.0)
        assert result.state.total_mass() == pytest.approx(mass_before, rel=1e-10)

    def test_positivity_of_depth(self):
        field = tohoku_like_bathymetry()
        bathy = field.on_grid(20, 20)
        solver = ShallowWaterSolver2D(20, 20, field.extent, bathy)
        displacement = 5.0 * np.exp(
            -((np.arange(20)[:, None] - 12) ** 2 + (np.arange(20)[None, :] - 10) ** 2) / 8.0
        )
        state = solver.initial_state(displacement)
        result = solver.run(state, end_time=600.0)
        assert result.state.h.min() >= 0.0
        assert np.all(np.isfinite(result.state.h))

    def test_wave_propagates_at_gravity_wave_speed(self):
        depth = 400.0
        solver = _flat_solver(n=50, depth=depth, extent=(0.0, 100e3, 0.0, 100e3))
        x, y = solver.cell_centers()
        displacement = 1.0 * np.exp(-((x - 50e3) ** 2 + (y - 50e3) ** 2) / (2 * (5e3) ** 2))
        state = solver.initial_state(displacement)
        from repro.swe.gauges import Gauge

        gauge = Gauge("probe", 80e3, 50e3)
        result = solver.run(state, end_time=800.0, gauges=[gauge])
        # The crest of the gravity wave travels at sqrt(g * depth); the probe is
        # 30 km from the source centre.
        peak_arrival = result.gauge_records[0].time_of_max
        expected = 30e3 / np.sqrt(GRAVITY * depth)
        assert peak_arrival == pytest.approx(expected, rel=0.35)

    def test_gauge_recording_and_observables(self):
        solver = _flat_solver(n=30, depth=200.0, extent=(0.0, 60e3, 0.0, 60e3))
        x, y = solver.cell_centers()
        displacement = 2.0 * np.exp(-((x - 30e3) ** 2 + (y - 30e3) ** 2) / (2 * (4e3) ** 2))
        state = solver.initial_state(displacement)
        from repro.swe.gauges import Gauge, wave_observables

        gauges = [Gauge("a", 45e3, 30e3), Gauge("b", 30e3, 45e3)]
        result = solver.run(state, end_time=400.0, gauges=gauges)
        observables = wave_observables(result.gauge_records)
        assert observables.shape == (4,)
        assert observables[0] > 0.01 and observables[1] > 0.01  # both buoys see the wave
        assert observables[2] > 0 and observables[3] > 0
        assert result.num_timesteps > 0
        assert result.dof_updates == result.num_timesteps * 30 * 30 * 4

    def test_cfl_validation(self):
        with pytest.raises(ValueError):
            _flat_solver(cfl=1.5)
        with pytest.raises(ValueError):
            ShallowWaterSolver2D(4, 4, (0, 1, 0, 1), np.zeros((3, 3)))

    def test_hll_flux_option(self):
        solver = _flat_solver(n=16, flux="hll")
        state = solver.initial_state()
        result = solver.run(state, end_time=10.0)
        assert np.all(np.isfinite(result.state.h))

    @given(amplitude=st.floats(0.1, 5.0), size=st.integers(10, 24))
    @settings(max_examples=8, deadline=None)
    def test_property_positivity_random_bumps(self, amplitude, size):
        solver = _flat_solver(n=size, depth=50.0, extent=(0.0, 10e3, 0.0, 10e3))
        x, y = solver.cell_centers()
        displacement = amplitude * np.exp(
            -((x - 5e3) ** 2 + (y - 5e3) ** 2) / (2 * (1e3) ** 2)
        )
        state = solver.initial_state(displacement)
        result = solver.run(state, end_time=50.0)
        assert result.state.h.min() >= 0.0
        assert np.all(np.isfinite(result.state.free_surface))


class TestEnsembleSolver:
    """The batched solve path: one array program, member-identical results."""

    @staticmethod
    def _setup(n=20, flux="rusanov"):
        field = tohoku_like_bathymetry()
        solver = ShallowWaterSolver2D(n, n, field.extent, field.on_grid(n, n), flux=flux)
        x, y = solver.cell_centers()
        centers = [(0.0, 0.0), (30e3, -20e3), (-25e3, 40e3)]
        displacements = np.stack(
            [
                5.0 * np.exp(-0.5 * ((x - cx) ** 2 + (y - cy) ** 2) / 30e3**2)
                for cx, cy in centers
            ]
        )
        gauges = [Gauge("a", 90e3, 40e3), Gauge("b", 110e3, -60e3)]
        return solver, displacements, gauges

    def test_ensemble_state_shapes_and_members(self):
        solver, displacements, _ = self._setup()
        ensemble = solver.initial_ensemble(displacements)
        assert ensemble.batch_size == 3
        assert ensemble.grid_shape == (20, 20)
        member = ensemble.member(1)
        np.testing.assert_array_equal(member.h, ensemble.h[1])
        rebuilt = ShallowWaterEnsembleState.from_states(
            [ensemble.member(i) for i in range(3)]
        )
        np.testing.assert_array_equal(rebuilt.h, ensemble.h)

    def test_member_wise_identical_to_scalar_runs(self):
        solver, displacements, gauges = self._setup()
        ensemble = solver.initial_ensemble(displacements)
        result = solver.run_ensemble(ensemble, end_time=600.0, gauges=gauges)
        observables = result.wave_observables()
        assert observables.shape == (3, 4)
        for m in range(3):
            scalar = solver.run(
                solver.initial_state(displacements[m]), end_time=600.0, gauges=gauges
            )
            # bitwise: every member integrates with its own CFL step through
            # operation-identical kernels
            np.testing.assert_array_equal(result.state.h[m], scalar.state.h)
            np.testing.assert_array_equal(result.state.hu[m], scalar.state.hu)
            np.testing.assert_array_equal(result.max_eta_field[m], scalar.max_eta_field)
            np.testing.assert_array_equal(
                observables[m], wave_observables(scalar.gauge_records)
            )
            assert result.num_timesteps[m] == scalar.num_timesteps
            assert result.simulated_time[m] == scalar.simulated_time
            assert result.dof_updates[m] == scalar.dof_updates
            member = result.member(m)
            assert member.num_timesteps == scalar.num_timesteps
            np.testing.assert_array_equal(
                wave_observables(member.gauge_records),
                wave_observables(scalar.gauge_records),
            )

    def test_generic_kernel_path_matches_scalar_for_hll(self):
        # The hll flux bypasses the fused Rusanov kernels and exercises the
        # generic axis-agnostic step on the ensemble.
        solver, displacements, gauges = self._setup(flux="hll")
        ensemble = solver.initial_ensemble(displacements)
        result = solver.run_ensemble(ensemble, end_time=300.0, gauges=gauges)
        for m in range(3):
            scalar = solver.run(
                solver.initial_state(displacements[m]), end_time=300.0, gauges=gauges
            )
            np.testing.assert_array_equal(result.state.h[m], scalar.state.h)

    def test_lake_at_rest_preserved_for_the_whole_ensemble(self):
        solver, _, _ = self._setup()
        ensemble = ShallowWaterEnsembleState.lake_at_rest(solver.bathymetry, 4)
        reference = ensemble.h.copy()
        result = solver.run_ensemble(ensemble, end_time=300.0)
        assert np.abs(result.state.h - reference).max() < 1e-8
        assert np.abs(result.state.hu).max() < 1e-8

    def test_mismatched_dry_tolerance_falls_back_to_generic_kernels(self):
        # A state whose dry tolerance differs from the solver's breaks the
        # fused kernels' zero-dry-momentum invariant; run_ensemble must detect
        # this and stay member-identical to scalar runs via the generic path.
        field = tohoku_like_bathymetry()
        solver = ShallowWaterSolver2D(
            16, 16, field.extent, field.on_grid(16, 16), dry_tolerance=0.05
        )
        x, y = solver.cell_centers()
        displacements = np.stack(
            [5.0 * np.exp(-0.5 * ((x - cx) ** 2 + y**2) / 30e3**2) for cx in (0.0, 20e3)]
        )
        states = [solver.initial_state(d) for d in displacements]
        for state in states:
            state.dry_tolerance = 1e-3  # not the solver's 0.05
        ensemble = ShallowWaterEnsembleState.from_states(states)
        result = solver.run_ensemble(ensemble, end_time=300.0)
        # scalar comparison runs on the same mismatched-tolerance states, so
        # both sides go through identical (generic) kernels
        for m, state in enumerate(states):
            scalar = solver.run(state, end_time=300.0)
            np.testing.assert_array_equal(result.state.h[m], scalar.state.h)
            np.testing.assert_array_equal(result.state.hu[m], scalar.state.hu)

    def test_nonzero_dry_momenta_fall_back_to_generic_kernels(self):
        solver, displacements, _ = self._setup()
        ensemble = solver.initial_ensemble(displacements)
        dry = ensemble.h <= solver.dry_tolerance
        assert np.any(dry), "scenario needs dry land for this regression test"
        ensemble.hu[dry] = 3.0  # violates the invariant the fused path assumes
        result = solver.run_ensemble(ensemble, end_time=300.0)
        for m in range(ensemble.batch_size):
            scalar = solver.run(ensemble.member(m), end_time=300.0)
            np.testing.assert_array_equal(result.state.h[m], scalar.state.h)
            np.testing.assert_array_equal(result.state.hu[m], scalar.state.hu)

    def test_workspace_grows_in_place_across_batch_sizes(self):
        solver, displacements, _ = self._setup()
        for size in (2, 3, 1):
            ensemble = solver.initial_ensemble(np.repeat(displacements[:1], size, axis=0))
            solver.run_ensemble(ensemble, end_time=50.0)
        # one buffer set per solver, sized for the largest batch seen
        assert solver._ensemble_workspace["rhs"].shape[0] == 3
        # past the cap the ensemble runs in sub-blocks: the workspace holds
        # one sub-block's lanes, not the whole ensemble's
        block = BLOCK_CELLS // (solver.nx * solver.ny)
        ensemble = solver.initial_ensemble(np.repeat(displacements[:1], 2 * block + 1, axis=0))
        solver.run_ensemble(ensemble, end_time=50.0)
        assert solver._ensemble_workspace["rhs"].shape[0] == block

    def test_displacement_shape_validation(self):
        solver, _, _ = self._setup()
        with pytest.raises(ValueError):
            solver.initial_ensemble(np.zeros((3, 5, 5)))
        with pytest.raises(ValueError):
            ShallowWaterEnsembleState.from_states([])
        with pytest.raises(ValueError):
            ShallowWaterEnsembleState(
                h=np.zeros((2, 4, 4)),
                hu=np.zeros((2, 4, 4)),
                hv=np.zeros((2, 4, 4)),
                b=np.zeros((2, 4, 5)),
            )


def _reference_run(solver, initial_state, end_time, gauge_cells, max_steps=1_000_000):
    """Independent oracle: a time loop over the generic kernels only.

    Drives nothing but ``solver.step()`` and ``solver.stable_timestep()`` —
    the unfused reference kernels — so it shares no code with the fused step
    plan that ``run()`` and ``run_ensemble()`` ride.  Stops after
    ``max_steps`` steps, like the solver.  Returns
    ``(state, times, gauge series, steps, simulated time)``.
    """
    state = initial_state.copy()
    gauge_i, gauge_j = (np.array(axis) for axis in zip(*gauge_cells))
    tolerance = solver.dry_tolerance

    def eta_at_gauges():
        wet = state.h[gauge_i, gauge_j] > tolerance
        return np.where(wet, state.free_surface[gauge_i, gauge_j], 0.0), wet

    reference_eta, _ = eta_at_gauges()
    time, steps = 0.0, 0
    times, series = [time], [np.zeros_like(reference_eta)]
    while time < end_time and steps < max_steps:
        dt = min(solver.stable_timestep(state), end_time - time)
        if dt <= 0.0:
            break
        solver.step(state, dt)
        time += dt
        steps += 1
        eta, wet = eta_at_gauges()
        times.append(time)
        series.append(np.where(wet, eta - reference_eta, 0.0))
    return state, np.array(times), np.stack(series), steps, time


class TestOneTimeLoopAgainstGenericKernels:
    """``run()`` and ``run_ensemble()`` share one (fused) time loop; the oracle
    they must equal bitwise is a test-local loop over the generic kernels."""

    GAUGES = [Gauge("a", 90e3, 40e3), Gauge("b", 110e3, -60e3)]

    @staticmethod
    def _solver(nx, ny, dtype=np.float64, flux="rusanov", flat=False):
        field = tohoku_like_bathymetry()  # wet/dry: coast in the west
        bathymetry = field.on_grid(nx, ny)
        if flat:  # the coarse level's treatment: constant, all wet
            bathymetry = depth_averaged_bathymetry(bathymetry)
        return ShallowWaterSolver2D(
            nx, ny, field.extent, bathymetry, flux=flux, dtype=dtype
        )

    @staticmethod
    def _displacements(solver, count):
        x, y = solver.cell_centers()
        centers = [(0.0, 0.0), (30e3, -20e3), (-25e3, 40e3), (10e3, 15e3)]
        return np.stack(
            [
                5.0 * np.exp(-0.5 * ((x - cx) ** 2 + (y - cy) ** 2) / 30e3**2)
                for cx, cy in (centers * count)[:count]
            ]
        )

    def _assert_scalar_equals_oracle(
        self, solver, state, end_time, gauges=None, max_steps=1_000_000
    ):
        gauges = self.GAUGES if gauges is None else gauges
        cells = [solver.locate_cell(g.x, g.y) for g in gauges]
        ref_state, ref_times, ref_series, ref_steps, ref_time = _reference_run(
            solver, state, end_time, cells, max_steps
        )
        result = solver.run(state, end_time=end_time, gauges=gauges, max_steps=max_steps)
        assert result.num_timesteps == ref_steps > 0
        assert result.simulated_time == ref_time
        for name in ("h", "hu", "hv"):
            actual = getattr(result.state, name)
            assert actual.dtype == solver.dtype
            np.testing.assert_array_equal(actual, getattr(ref_state, name))
        for g, record in enumerate(result.gauge_records):
            assert record.times == ref_times.tolist()
            assert record.ssha == ref_series[:, g].astype(float).tolist()
        return result

    def _assert_ensemble_equals_oracle(
        self, solver, ensemble, end_time, gauges=None, max_steps=1_000_000
    ):
        """``run_ensemble`` equals one oracle run per member, bitwise."""
        gauges = self.GAUGES if gauges is None else gauges
        cells = [solver.locate_cell(g.x, g.y) for g in gauges]
        result = solver.run_ensemble(
            ensemble, end_time=end_time, gauges=gauges, max_steps=max_steps
        )
        for m in range(ensemble.batch_size):
            ref_state, ref_times, ref_series, ref_steps, ref_time = _reference_run(
                solver, ensemble.member(m), end_time, cells, max_steps
            )
            assert result.num_timesteps[m] == ref_steps
            assert result.simulated_time[m] == ref_time
            for name in ("h", "hu", "hv"):
                np.testing.assert_array_equal(
                    getattr(result.state, name)[m], getattr(ref_state, name)
                )
            valid = ref_steps + 1
            np.testing.assert_array_equal(result.gauge_times[m, :valid], ref_times)
            np.testing.assert_array_equal(result.gauge_values[m, :valid], ref_series)
        return result

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize(
        "nx, ny, batch, end_time, stacked",
        [
            (16, 16, 1, 600.0, True),  # the MCMC hot path: scalar run, lane-stacked
            (16, 16, 3, 600.0, True),
            (24, 24, 16, 300.0, True),  # past the block cap: sub-blocks of 13 + 3
            (92, 92, 1, 120.0, False),  # one member past the cap: two sweeps
            (20, 14, 2, 600.0, False),  # nx != ny: always two sweeps
            (48, 48, 5, 300.0, True),  # sub-blocks of 3 + 2
        ],
    )
    def test_fused_loop_equals_generic_kernel_loop(
        self, nx, ny, batch, end_time, stacked, dtype
    ):
        solver = self._solver(nx, ny, dtype)
        square = nx == ny and solver.dx == solver.dy
        # lane stacking is decided per sub-block; ``stacked`` is the first one's
        block = min(batch, max(1, BLOCK_CELLS // (nx * ny)))
        assert (square and block * nx * ny <= BLOCK_CELLS) == stacked
        displacements = self._displacements(solver, batch)
        cells = [solver.locate_cell(g.x, g.y) for g in self.GAUGES]
        ensemble = solver.initial_ensemble(displacements)
        assert np.any(ensemble.h <= solver.dry_tolerance), "needs a dry coast"
        result = solver.run_ensemble(ensemble, end_time=end_time, gauges=self.GAUGES)
        assert solver._ensemble_workspace, "expected the fused path"
        for m in (0, batch - 1):
            state = solver.initial_state(displacements[m])
            ref_state, ref_times, ref_series, ref_steps, ref_time = _reference_run(
                solver, state, end_time, cells
            )
            assert result.num_timesteps[m] == ref_steps
            assert result.simulated_time[m] == ref_time
            np.testing.assert_array_equal(result.state.h[m], ref_state.h)
            np.testing.assert_array_equal(result.state.hu[m], ref_state.hu)
            np.testing.assert_array_equal(result.state.hv[m], ref_state.hv)
            valid = ref_steps + 1
            np.testing.assert_array_equal(result.gauge_times[m, :valid], ref_times)
            np.testing.assert_array_equal(result.gauge_values[m, :valid], ref_series)
        self._assert_scalar_equals_oracle(
            solver, solver.initial_state(displacements[0]), end_time
        )

    def test_hll_run_falls_back_to_generic_kernels(self):
        solver = self._solver(16, 16, flux="hll")
        state = solver.initial_state(self._displacements(solver, 1)[0])
        self._assert_scalar_equals_oracle(solver, state, 300.0)
        assert not solver._ensemble_workspace  # the fused plan was never bound

    def test_nonzero_dry_momenta_run_falls_back_to_generic_kernels(self):
        solver = self._solver(16, 16)
        state = solver.initial_state(self._displacements(solver, 1)[0])
        dry = state.h <= solver.dry_tolerance
        assert np.any(dry)
        state.hu[dry] = 3.0  # violates the invariant the fused kernels assume
        self._assert_scalar_equals_oracle(solver, state, 300.0)
        assert not solver._ensemble_workspace

    def test_state_on_another_bathymetry_falls_back_to_generic_kernels(self):
        # The fused sweep reconstructs against the solver's bathymetry; a
        # state built on a different one must take the generic kernels,
        # which read ``state.b``.
        solver = self._solver(16, 16)
        other = ShallowWaterSolver2D(
            16, 16, solver.extent, smooth_bathymetry(solver.bathymetry, passes=2)
        )
        state = other.initial_state(self._displacements(other, 1)[0])
        self._assert_scalar_equals_oracle(solver, state, 200.0)
        assert not solver._ensemble_workspace
        ensemble = ShallowWaterEnsembleState.from_states(
            [solver.initial_state(self._displacements(solver, 1)[0]), state]
        )
        self._assert_ensemble_equals_oracle(solver, ensemble, 200.0)
        assert not solver._ensemble_workspace

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize(
        "nx, ny, batch, stacked",
        [
            (16, 16, 1, True),  # the coarse-level MCMC hot path
            (16, 16, 3, True),
            (20, 14, 2, False),  # nx != ny: two sweeps
        ],
    )
    def test_all_wet_flat_loop_equals_generic_kernel_loop(self, nx, ny, batch, stacked, dtype):
        # Constant bathymetry, every cell wet: the fused step skips the
        # (exactly zero) well-balanced source and the dry-lane masking.
        solver = self._solver(nx, ny, dtype, flat=True)
        assert (nx == ny and solver.dx == solver.dy) == stacked
        ensemble = solver.initial_ensemble(self._displacements(solver, batch))
        assert np.unique(solver.bathymetry).size == 1
        assert np.all(ensemble.h > solver.dry_tolerance), "needs an all-wet state"
        self._assert_ensemble_equals_oracle(solver, ensemble, 1800.0)
        assert solver._ensemble_workspace, "expected the fused path"
        self._assert_scalar_equals_oracle(solver, ensemble.member(batch - 1), 1800.0)

    @staticmethod
    def _draining(dtype=np.float64, dry_tolerance=DRY_TOLERANCE):
        """A shallow, all-wet flat basin whose water flows out of every edge."""
        n = 16
        solver = ShallowWaterSolver2D(
            n, n, (-800.0, 800.0, -800.0, 800.0), np.full((n, n), -0.02),
            dry_tolerance=dry_tolerance, dtype=dtype,
        )
        state = solver.initial_state()
        x, y = solver.cell_centers()
        state.hu[...] = state.h * 8.0 * x / 800.0
        state.hv[...] = state.h * 8.0 * y / 800.0
        gauges = [Gauge("centre", 10.0, 10.0), Gauge("edge", 600.0, -300.0)]
        return solver, state, gauges

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_all_wet_run_that_dries_mid_run_equals_generic_kernel_loop(self, dtype):
        # Starts all wet on a constant bathymetry, so the fused step begins
        # on the all-wet operations; cells dry after a few steps, which must
        # trip the per-step guard and hand the rest of the run to the masked
        # operations without changing a bit.
        solver, state, gauges = self._draining(dtype)
        assert np.all(state.h > solver.dry_tolerance)
        early = solver.run(state, end_time=100.0)
        assert early.num_timesteps > 0
        assert np.all(early.state.h > solver.dry_tolerance), "must start all wet"
        result = self._assert_scalar_equals_oracle(solver, state, 300.0, gauges)
        assert np.any(result.state.h <= solver.dry_tolerance), "must dry mid-run"
        assert solver._ensemble_workspace, "expected the fused path"
        # in a block, one draining member ends the all-wet mode for all
        still = state.copy()
        still.hu[...] = 0.0
        still.hv[...] = 0.0
        ensemble = ShallowWaterEnsembleState.from_states([still, state])
        result = self._assert_ensemble_equals_oracle(solver, ensemble, 300.0, gauges)
        assert np.all(result.state.h[0] > solver.dry_tolerance)

    def test_dry_interfaces_between_wet_cells_trip_the_guard(self):
        # The sweep's wet test is on reconstructed interface depths, not on
        # cells: both states below keep every cell wet while some h* fall to
        # the tolerance, so the sweep itself must detect it.
        # (i) A free-surface drop over a bathymetry step: h* = 0 at the step.
        n = 16
        x = (np.arange(n) + 0.5)[:, None] * np.ones(n)
        bathymetry = np.where(x < n / 2, -1.0, -0.2)
        solver = ShallowWaterSolver2D(n, n, (0.0, 1600.0, 0.0, 1600.0), bathymetry)
        state = ShallowWaterState(
            h=np.where(x < n / 2, 0.5, 0.3), hu=np.zeros((n, n)), hv=np.zeros((n, n)),
            b=bathymetry.copy(),
        )
        assert np.all(state.h > solver.dry_tolerance)
        gauges = [Gauge("step", 790.0, 800.0), Gauge("shelf", 1200.0, 400.0)]
        self._assert_scalar_equals_oracle(solver, state, 60.0, gauges)
        assert solver._ensemble_workspace, "expected the fused path"
        # (ii) A cell tolerance below the interface one: cells between the
        # two tolerances are wet, their interface depths dry.
        solver, state, gauges = self._draining(dry_tolerance=DRY_TOLERANCE / 10)
        result = self._assert_scalar_equals_oracle(solver, state, 300.0, gauges)
        assert np.any(result.state.h <= DRY_TOLERANCE)

    @pytest.mark.parametrize("flat", [False, True])
    def test_max_steps_truncates_the_run(self, flat):
        solver = self._solver(16, 16, flat=flat)
        displacements = self._displacements(solver, 3)
        for k in (1, 7):
            result = self._assert_scalar_equals_oracle(
                solver, solver.initial_state(displacements[0]), 1800.0, max_steps=k
            )
            assert result.num_timesteps == k and result.simulated_time < 1800.0
            ensemble = solver.initial_ensemble(displacements)
            result = self._assert_ensemble_equals_oracle(solver, ensemble, 1800.0, max_steps=k)
            assert result.num_timesteps.tolist() == [k] * 3
            assert result.gauge_times.shape == (3, k + 1)
        # a member that reaches end_time first stops there; the others run on
        ensemble = solver.initial_ensemble(displacements)
        ensemble.h[1] = np.maximum(ensemble.h[1] - 2000.0, 0.0)  # slower waves
        full = solver.run_ensemble(ensemble, end_time=600.0)
        k = int(full.num_timesteps.min()) + 2
        assert k <= int(full.num_timesteps.max())
        result = self._assert_ensemble_equals_oracle(solver, ensemble, 600.0, max_steps=k)
        assert result.num_timesteps.tolist() == np.minimum(full.num_timesteps, k).tolist()

    @pytest.mark.parametrize("flat", [False, True])
    def test_empty_ensemble_takes_no_step(self, flat):
        solver = self._solver(16, 16, flat=flat)
        ensemble = solver.initial_ensemble(np.zeros((0, 16, 16)))
        result = solver.run_ensemble(ensemble, end_time=600.0, gauges=self.GAUGES)
        assert result.num_timesteps.shape == result.simulated_time.shape == (0,)
        assert result.gauge_values.shape == (0, 1, len(self.GAUGES))
        assert result.wave_observables().shape == (0, 2 * len(self.GAUGES))

    def test_run_leaves_the_callers_state_untouched(self):
        solver = self._solver(16, 16)
        state = solver.initial_state(self._displacements(solver, 1)[0])
        before = state.copy()
        solver.run(state, end_time=120.0)
        np.testing.assert_array_equal(state.h, before.h)
        np.testing.assert_array_equal(state.hu, before.hu)

    def test_sub_blocks_equal_one_member_runs(self):
        # Members past the block cap run in separate sub-blocks that take
        # different numbers of steps; the joined result must still equal
        # one-member runs, the padded gauge tail included.
        solver = self._solver(48, 48, np.float32)
        block = BLOCK_CELLS // (48 * 48)
        batch = block + 2
        displacements = self._displacements(solver, batch)
        ensemble = solver.initial_ensemble(displacements)
        # lower sea levels -> slower waves -> fewer steps in the later blocks
        drop = np.linspace(0.0, 4000.0, batch, dtype=np.float32)[:, None, None]
        ensemble.h = np.maximum(ensemble.h - drop, 0.0)
        result = solver.run_ensemble(ensemble, end_time=300.0, gauges=self.GAUGES)
        counts = result.num_timesteps.tolist()
        assert max(counts[block:]) < min(counts[:block]), "needs a padded sub-block"
        samples = result.gauge_times.shape[1]
        for m in range(batch):
            single = ShallowWaterEnsembleState(
                h=ensemble.h[m : m + 1], hu=ensemble.hu[m : m + 1],
                hv=ensemble.hv[m : m + 1], b=ensemble.b[m : m + 1],
            )
            alone = solver.run_ensemble(single, end_time=300.0, gauges=self.GAUGES)
            tail = samples - alone.gauge_times.shape[1]
            for name in ("gauge_times", "gauge_values"):
                own = getattr(alone, name)[0]
                padded = np.concatenate([own, np.repeat(own[-1:], tail, axis=0)])
                np.testing.assert_array_equal(getattr(result, name)[m], padded)
            assert result.num_timesteps[m] == alone.num_timesteps[0]
            assert result.simulated_time[m] == alone.simulated_time[0]
            np.testing.assert_array_equal(result.max_eta_field[m], alone.max_eta_field[0])
            for name in ("h", "hu", "hv"):
                np.testing.assert_array_equal(
                    getattr(result.state, name)[m], getattr(alone.state, name)[0]
                )

    def test_member_records_match_per_sample_appends(self):
        # member() builds records with GaugeRecord.from_arrays; the records
        # must equal what one append per time step per gauge produced.
        solver = self._solver(16, 16, np.float32)
        ensemble = solver.initial_ensemble(self._displacements(solver, 3))
        # lower sea levels -> slower waves -> fewer steps: padded gauge series
        drop = np.array([0.0, 2000.0, 4000.0], dtype=np.float32)[:, None, None]
        ensemble.h = np.maximum(ensemble.h - drop, 0.0)
        result = solver.run_ensemble(ensemble, end_time=600.0, gauges=self.GAUGES)
        assert len(set(result.num_timesteps.tolist())) > 1, "needs padded series"
        for m in range(3):
            valid = int(result.num_timesteps[m]) + 1
            for g, record in enumerate(result.member(m).gauge_records):
                expected = GaugeRecord(gauge=self.GAUGES[g])
                for t, v in zip(result.gauge_times[m, :valid], result.gauge_values[m, :valid, g]):
                    expected.append(t, v)
                assert record == expected
                assert all(type(x) is float for x in record.times + record.ssha)
