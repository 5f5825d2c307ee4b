"""Tests for the gauge observables and the Tohoku-like tsunami scenario."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.bayes.likelihood import UnphysicalModelOutput
from repro.experiments.presets import TSUNAMI_SCALED_LEVEL_SPECS
from repro.swe.gauges import Gauge, GaugeRecord, wave_observables
from repro.swe.scenario import LevelConfiguration, SourceParameters, TohokuLikeScenario


class TestGauges:
    def test_record_and_observables(self):
        record = GaugeRecord(gauge=Gauge("g", 0.0, 0.0))
        for t, v in [(0.0, 0.0), (10.0, 0.2), (20.0, 0.5), (30.0, 0.1)]:
            record.append(t, v)
        assert record.max_height == pytest.approx(0.5)
        assert record.time_of_max == pytest.approx(20.0)
        assert record.arrival_time(threshold=0.15) == pytest.approx(10.0)
        assert record.arrival_time(threshold=10.0) == np.inf
        observables = wave_observables([record], time_unit=60.0)
        np.testing.assert_allclose(observables, [0.5, 20.0 / 60.0])

    def test_empty_record(self):
        record = GaugeRecord(gauge=Gauge("g", 0.0, 0.0))
        assert record.max_height == 0.0
        assert record.time_of_max == 0.0


class TestTohokuScenario:
    @pytest.fixture(scope="class")
    def scenario(self):
        return TohokuLikeScenario(
            level_configs=(
                LevelConfiguration(0, 16, "constant", False),
                LevelConfiguration(1, 32, "smoothed", True, smoothing_passes=2),
            ),
            end_time=900.0,
        )

    def test_level_bathymetry_treatments(self, scenario):
        constant = scenario.level_bathymetry(0)
        smoothed = scenario.level_bathymetry(1)
        assert np.unique(constant).size == 1
        assert np.unique(smoothed).size > 1

    def test_source_parameters_from_theta(self):
        source = SourceParameters.from_theta(np.array([10.0, -5.0]))
        assert source.x_offset == pytest.approx(10e3)
        assert source.y_offset == pytest.approx(-5e3)
        with pytest.raises(ValueError):
            SourceParameters.from_theta(np.array([1.0, 2.0, 3.0]))

    def test_observables_shape_and_positivity(self, scenario):
        observables = scenario.observe(0, np.array([0.0, 0.0]))
        assert observables.shape == (4,)
        assert observables[0] > 0 and observables[1] > 0

    def test_observables_depend_on_source_location(self, scenario):
        at_centre = scenario.observe(0, np.array([0.0, 0.0]))
        shifted = scenario.observe(0, np.array([40.0, -30.0]))
        assert not np.allclose(at_centre, shifted)

    def test_levels_are_correlated_but_not_identical(self, scenario):
        coarse = scenario.observe(0, np.array([0.0, 0.0]))
        fine = scenario.observe(1, np.array([0.0, 0.0]))
        assert not np.allclose(coarse, fine)
        # both see a wave of comparable magnitude at the buoys
        assert np.sign(coarse[0]) == np.sign(fine[0]) == 1.0

    def test_unphysical_source_on_land(self, scenario):
        with pytest.raises(UnphysicalModelOutput):
            scenario.check_physical(0, SourceParameters(x_offset=-185e3, y_offset=0.0))
        with pytest.raises(UnphysicalModelOutput):
            scenario.check_physical(0, SourceParameters(x_offset=1e9, y_offset=0.0))

    def test_hierarchy_summary(self, scenario):
        rows = scenario.hierarchy_summary()
        assert len(rows) == 2
        assert rows[0]["bathymetry"] == "constant"
        assert rows[1]["num_cells"] == 32

    def test_plan_is_cached_and_resolves_gauges_once(self, scenario):
        plan = scenario.plan(0)
        assert plan is scenario.plan(0)
        assert scenario.solver(0) is plan.solver
        # gauge cells match per-run locate_cell resolution
        assert plan.gauge_cells == tuple(
            plan.solver.locate_cell(g.x, g.y) for g in scenario.gauges
        )
        assert plan.cell_x.shape == (16, 16)

    def test_plan_displacement_batch_rows_equal_scalar(self, scenario):
        plan = scenario.plan(1)
        centers = np.array([[0.0, 0.0], [20e3, -10e3], [-15e3, 30e3]])
        batched = plan.displacement(centers[:, 0], centers[:, 1], 5.0, 30e3)
        assert batched.shape == (3, 32, 32)
        for row, (cx, cy) in zip(batched, centers):
            np.testing.assert_array_equal(row, plan.displacement(cx, cy, 5.0, 30e3))

    def test_observe_batch_rows_equal_scalar_observe(self, scenario):
        thetas = np.array([[0.0, 0.0], [20.0, -15.0], [-10.0, 30.0]])
        for level in (0, 1):
            batched = scenario.observe_batch(level, thetas)
            stacked = np.stack([scenario.observe(level, theta) for theta in thetas])
            np.testing.assert_array_equal(batched, stacked)

    def test_physical_mask_matches_check_physical(self, scenario):
        thetas = np.array([[0.0, 0.0], [-185.0, 0.0], [1e6, 0.0], [40.0, -30.0]])
        mask = scenario.physical_mask(thetas)
        for theta, expected in zip(thetas, mask):
            source = SourceParameters.from_theta(theta)
            if expected:
                scenario.check_physical(0, source)
            else:
                with pytest.raises(UnphysicalModelOutput):
                    scenario.check_physical(0, source)

    def test_check_physical_raises_exactly_where_physical_mask_rejects(self, scenario):
        field = scenario.bathymetry_field
        x0, x1, y0, y1 = scenario.extent
        ex, ey = scenario.epicenter
        # the coastline along the epicentre's latitude, found by bisection on
        # the vectorized field over the km offset: ``land`` is dry, ``water``
        # wet, a few ulps apart
        def depth(offset_km):
            return field(np.array([ex + offset_km * 1e3]), np.array([ey]))[0]

        land, water = (x0 - ex) / 1e3, 0.0
        for _ in range(80):
            mid = 0.5 * (land + water)
            land, water = (mid, water) if depth(mid) >= 0 else (land, mid)
        edges = [((x0 - ex) / 1e3, 0.0), ((x1 - ex) / 1e3, 0.0), (0.0, (y0 - ey) / 1e3),
                 (0.0, (y1 - ey) / 1e3)]
        thetas = np.array(
            [(land, 0.0), (water, 0.0), (land - 1e-3, 0.0), (water + 1e-3, 0.0)]  # coast
            + edges  # on the domain edge
            + [(tx + 1e-6 * np.sign(tx), ty + 1e-6 * np.sign(ty)) for tx, ty in edges]
            + [(0.0, 0.0), (50.0, -40.0), (120.0, 80.0)]  # open water
        )
        mask = scenario.physical_mask(thetas)
        # every kind of row occurs: land and water at the coast, inside and
        # outside at the edge
        assert mask.tolist()[:4] == [False, True, False, True]
        assert not mask[8:12].any() and mask[12:].all()
        for theta, physical in zip(thetas, mask):
            source = SourceParameters.from_theta(theta)
            cx, cy = ex + source.x_offset, ey + source.y_offset
            if x0 <= cx <= x1 and y0 <= cy <= y1:
                # the single-point depth is the vectorized one, to the bit
                assert field.at(cx, cy) == field(np.array([cx]), np.array([cy]))[0]
            if physical:
                scenario.check_physical(0, source)
            else:
                with pytest.raises(UnphysicalModelOutput):
                    scenario.check_physical(0, source)

    def test_simulate_batch_rejects_unphysical_rows(self, scenario):
        with pytest.raises(UnphysicalModelOutput):
            scenario.simulate_batch(0, np.array([[0.0, 0.0], [-185.0, 0.0]]))


class TestGoldenObservables:
    """Pinned observables of the scaled tsunami preset, per level and precision.

    The sha256 of ``observe(level, theta)`` stacked over fixed sources makes
    "the SWE time loop is bitwise unchanged" a test: any change to the
    kernels, the time-step control plane or the gauge sampling that moves a
    single bit of an observable on any level fails here.  Level 0 is the
    constant-bathymetry, all-wet coarse model; levels 1 and 2 have a dry
    coast.
    """

    THETAS = np.array([[0.0, 0.0], [20.0, -15.0], [-30.0, 25.0], [60.0, 40.0]])
    GOLDEN = {
        "float64": (
            "237a16b788f98f5114717ead3851839435e5787468a29cc475bc6be12cd4ba7b",
            "5ebe1b9c3648ddd1e024446f2f88e049afef21952961dd909382df8767b17f1f",
            "8f55a68ba613c3033f5fd57ae7360980ac96173fea3a6711bf8de5a90c33782a",
        ),
        "float32": (
            "7f05675e66afc5b979495f18ec6ad398ba75b3be0f4364644fe48386e8b8d5dc",
            "dda7a0b707951e2c7fd84c1f07f2fc09f3ff18b240e75c41cc5a0cfba00c7f34",
            "7fb6991d2caf26b64a3375db12638553f3aa32c1fd990fc3b1673b19d2057368",
        ),
    }

    @pytest.mark.parametrize("precision", ["float64", "float32"])
    def test_scaled_preset_observables_are_pinned(self, precision):
        scenario = TohokuLikeScenario(
            level_configs=tuple(
                LevelConfiguration(
                    spec["level"], spec["num_cells"], spec["bathymetry_treatment"],
                    spec["limiter"], spec.get("smoothing_passes", 0),
                )
                for spec in TSUNAMI_SCALED_LEVEL_SPECS
            ),
            end_time=1800.0,  # the scaled preset's end time
            precision=precision,
        )
        for level, expected in enumerate(self.GOLDEN[precision]):
            observed = np.stack([scenario.observe(level, theta) for theta in self.THETAS])
            assert observed.dtype == np.float64
            assert hashlib.sha256(observed.tobytes()).hexdigest() == expected, level
            np.testing.assert_array_equal(scenario.observe_batch(level, self.THETAS), observed)
