"""Synthetic Tohoku-like tsunami scenario.

Replaces the paper's GEBCO bathymetry + Galvez et al. earthquake source + DART
buoy data with a fully synthetic but structurally equivalent setup:

* a 400 km x 400 km basin with a coast in the west, a shelf, an abyssal plain
  and a trench in the east (see :func:`repro.swe.bathymetry.tohoku_like_bathymetry`),
* an initial sea-surface displacement parameterised by its location
  ``theta = (x_offset, y_offset)`` relative to a reference epicentre — the two
  uncertain parameters inferred in the paper,
* two synthetic buoys ("21418", "21419") between the source region and the
  coast, recording sea-surface-height anomalies,
* the three-level model hierarchy of the paper (Table 2): coarse grid with
  depth-averaged bathymetry, medium grid with smoothed bathymetry, fine grid
  with full bathymetry.

The scenario object is deliberately independent of the Bayesian machinery so
the solver can also be exercised directly in examples and tests.

Per level, everything that does not depend on the source parameters — the
treated bathymetry, the solver, the gauge cell indices and the cell-centre
grids of the initial-condition operator — is precomputed once into a cached
:class:`ScenarioPlan` (the shallow-water analogue of the FEM
``AssemblyPlan``), so a forward evaluation is only the time loop.  Scalar
(:meth:`TohokuLikeScenario.observe`) and batched
(:meth:`TohokuLikeScenario.observe_batch`) evaluation run the same ensemble
time loop of :class:`ShallowWaterSolver2D` — a scalar evaluation is a
one-member block — with results identical row by row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bayes.likelihood import UnphysicalModelOutput
from repro.swe.bathymetry import (
    BathymetryField,
    depth_averaged_bathymetry,
    smooth_bathymetry,
    tohoku_like_bathymetry,
)
from repro.swe.fv2d import EnsembleSimulationResult, ShallowWaterSolver2D, SimulationResult
from repro.swe.gauges import Gauge
from repro.utils.array_api import level_dtypes

__all__ = [
    "SourceParameters",
    "TohokuLikeScenario",
    "LevelConfiguration",
    "ScenarioPlan",
]


@dataclass(frozen=True)
class SourceParameters:
    """Initial-displacement source model.

    Attributes
    ----------
    x_offset, y_offset:
        Location of the displacement centre relative to the reference
        epicentre, in metres.  These are the uncertain parameters.
    amplitude:
        Peak uplift in metres.
    radius:
        Gaussian radius of the uplift patch in metres.
    """

    x_offset: float = 0.0
    y_offset: float = 0.0
    amplitude: float = 5.0
    radius: float = 30e3

    @staticmethod
    def from_theta(theta: np.ndarray, amplitude: float = 5.0, radius: float = 30e3) -> "SourceParameters":
        """Build source parameters from the 2-vector MCMC parameter (in km)."""
        theta = np.atleast_1d(np.asarray(theta, dtype=np.float64)).ravel()
        if theta.shape[0] != 2:
            raise ValueError("tsunami source parameter must have dimension 2")
        return SourceParameters(
            x_offset=float(theta[0]) * 1e3,
            y_offset=float(theta[1]) * 1e3,
            amplitude=amplitude,
            radius=radius,
        )


@dataclass(frozen=True)
class LevelConfiguration:
    """Per-level discretisation choices mirroring the paper's Table 2."""

    level: int
    num_cells: int
    bathymetry_treatment: str  # "constant" | "smoothed" | "full"
    limiter: bool
    smoothing_passes: int = 0


@dataclass(frozen=True)
class ScenarioPlan:
    """Precomputed source-independent data of one scenario level.

    The shallow-water analogue of the FEM ``AssemblyPlan``: built once per
    ``(level, grid)`` and cached on the scenario, it bundles the solver over
    the level's treated bathymetry, the resolved gauge cell indices (so gauge
    lookup never runs inside a forward evaluation) and the cell-centre grids
    of the initial-condition operator.  With a plan in hand, the per-sample
    work of a forward evaluation is exactly the time loop.
    """

    level: int
    solver: ShallowWaterSolver2D
    gauges: tuple[Gauge, ...]
    gauge_cells: tuple[tuple[int, int], ...]
    cell_x: np.ndarray
    cell_y: np.ndarray
    #: solve dtype of this level's forward runs (the precision ladder's rung)
    dtype: np.dtype = np.dtype(np.float64)

    def displacement(
        self,
        center_x: float | np.ndarray,
        center_y: float | np.ndarray,
        amplitude: float,
        radius: float,
    ) -> np.ndarray:
        """Gaussian initial sea-surface displacement(s) on the level grid.

        Scalar centres yield an ``(nx, ny)`` field; ``(B,)`` centre arrays
        yield a ``(B, nx, ny)`` block whose rows are elementwise identical to
        the scalar evaluation at each centre.  The geometry is evaluated in
        double (source parameters stay double end to end) and the field is
        rounded once to the plan dtype.
        """
        center_x = np.asarray(center_x, dtype=np.float64)
        center_y = np.asarray(center_y, dtype=np.float64)
        if center_x.ndim:
            r2 = (self.cell_x[None] - center_x[:, None, None]) ** 2 + (
                self.cell_y[None] - center_y[:, None, None]
            ) ** 2
        else:
            r2 = (self.cell_x - center_x) ** 2 + (self.cell_y - center_y) ** 2
        field = amplitude * np.exp(-0.5 * r2 / radius**2)
        return field.astype(self.dtype, copy=False)


class TohokuLikeScenario:
    """The synthetic Tohoku-like inversion scenario.

    Parameters
    ----------
    extent:
        Physical domain bounds in metres.
    epicenter:
        Reference epicentre (the paper's point ``(0, 0)``), in metres.
    end_time:
        Simulated time in seconds.
    level_configs:
        Discretisation hierarchy; defaults to a scaled-down version of the
        paper's Table 2 (cells 25 / 79 / 241 with constant / smoothed / full
        bathymetry).  The number of cells can be reduced for fast test runs.
    source_amplitude, source_radius:
        Fixed (assumed known) source parameters; only the location is inferred.
    precision:
        Precision-ladder policy (``"float64"``, ``"float32-coarse"``,
        ``"float32"``) mapping each level to its solve dtype.  Parameters and
        observables stay double regardless — only the forward solves run at
        the level's dtype.
    """

    #: gauge locations loosely mimicking DART buoys 21418 and 21419 relative
    #: to the epicentre (north-east / east of the source, towards open ocean).
    DEFAULT_GAUGES = (
        Gauge(name="21418", x=90e3, y=40e3),
        Gauge(name="21419", x=110e3, y=-60e3),
    )

    def __init__(
        self,
        extent: tuple[float, float, float, float] = (-200e3, 200e3, -200e3, 200e3),
        epicenter: tuple[float, float] = (0.0, 0.0),
        end_time: float = 3000.0,
        level_configs: tuple[LevelConfiguration, ...] | None = None,
        source_amplitude: float = 5.0,
        source_radius: float = 30e3,
        gauges: tuple[Gauge, ...] | None = None,
        cfl: float = 0.45,
        precision: str | None = None,
    ) -> None:
        self.extent = extent
        self.epicenter = epicenter
        self.end_time = float(end_time)
        self.source_amplitude = float(source_amplitude)
        self.source_radius = float(source_radius)
        self.cfl = float(cfl)
        self.gauges = list(gauges) if gauges is not None else list(self.DEFAULT_GAUGES)
        self.bathymetry_field: BathymetryField = tohoku_like_bathymetry(extent=extent)
        self.level_configs = (
            tuple(level_configs)
            if level_configs is not None
            else (
                LevelConfiguration(level=0, num_cells=25, bathymetry_treatment="constant", limiter=False),
                LevelConfiguration(level=1, num_cells=79, bathymetry_treatment="smoothed", limiter=True, smoothing_passes=4),
                LevelConfiguration(level=2, num_cells=241, bathymetry_treatment="full", limiter=True),
            )
        )
        self.precision = precision or "float64"
        self._level_dtypes = level_dtypes(self.precision, len(self.level_configs))
        self._plan_cache: dict[tuple[int, int, str], ScenarioPlan] = {}

    # ------------------------------------------------------------------
    @property
    def num_levels(self) -> int:
        """Number of levels in the hierarchy."""
        return len(self.level_configs)

    def level_bathymetry(self, level: int) -> np.ndarray:
        """Cell-centred bathymetry for the given level, with its level-specific treatment."""
        config = self.level_configs[level]
        raw = self.bathymetry_field.on_grid(config.num_cells, config.num_cells)
        if config.bathymetry_treatment == "constant":
            return depth_averaged_bathymetry(raw)
        if config.bathymetry_treatment == "smoothed":
            return smooth_bathymetry(raw, passes=config.smoothing_passes)
        if config.bathymetry_treatment == "full":
            return raw
        raise ValueError(f"unknown bathymetry treatment {config.bathymetry_treatment!r}")

    def plan(self, level: int) -> ScenarioPlan:
        """The cached :class:`ScenarioPlan` of one level.

        Keyed on ``(level, grid size)`` like the FEM assembly plan: the plan
        precomputes the level's treated bathymetry (inside the solver), the
        gauge cell indices and the cell-centre grids, so per-sample forward
        work reduces to the time loop.
        """
        config = self.level_configs[level]
        dtype = self.level_dtype(level)
        key = (level, config.num_cells, dtype.str)
        if key not in self._plan_cache:
            solver = ShallowWaterSolver2D(
                nx=config.num_cells,
                ny=config.num_cells,
                extent=self.extent,
                bathymetry=self.level_bathymetry(level),
                cfl=self.cfl,
                dtype=dtype,
            )
            cell_x, cell_y = solver.cell_centers()
            self._plan_cache[key] = ScenarioPlan(
                level=level,
                solver=solver,
                gauges=tuple(self.gauges),
                gauge_cells=tuple(solver.locate_cell(g.x, g.y) for g in self.gauges),
                cell_x=cell_x,
                cell_y=cell_y,
                dtype=dtype,
            )
        return self._plan_cache[key]

    def level_dtype(self, level: int) -> np.dtype:
        """The solve dtype of one level under the scenario's precision ladder."""
        return self._level_dtypes[level]

    def solver(self, level: int) -> ShallowWaterSolver2D:
        """The (cached) FV solver for the given level."""
        return self.plan(level).solver

    # ------------------------------------------------------------------
    def _source_centers(self, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Physical displacement centres of a ``(B, 2)`` km-offset block."""
        block = np.atleast_2d(np.asarray(thetas, dtype=np.float64))
        if block.ndim != 2 or block.shape[1] != 2:
            raise ValueError("tsunami source parameters must have dimension 2")
        return (
            self.epicenter[0] + block[:, 0] * 1e3,
            self.epicenter[1] + block[:, 1] * 1e3,
        )

    def displacement_field(self, level: int, source: SourceParameters) -> np.ndarray:
        """Initial sea-surface displacement on the level's grid."""
        return self.plan(level).displacement(
            self.epicenter[0] + source.x_offset,
            self.epicenter[1] + source.y_offset,
            source.amplitude,
            source.radius,
        )

    def check_physical(self, level: int, source: SourceParameters) -> None:
        """Raise :class:`UnphysicalModelOutput` for sources on dry land or outside the domain.

        Mirrors the paper's treatment: "a parameter which initialises the
        tsunami on dry land ... has been treated ... as unphysical and assigned
        an almost zero likelihood".
        """
        x0, x1, y0, y1 = self.extent
        cx = self.epicenter[0] + source.x_offset
        cy = self.epicenter[1] + source.y_offset
        if not (x0 <= cx <= x1 and y0 <= cy <= y1):
            raise UnphysicalModelOutput(
                f"source centre ({cx:.0f}, {cy:.0f}) outside the computational domain"
            )
        bathy = self.bathymetry_field.at(cx, cy)
        if bathy >= 0.0:
            raise UnphysicalModelOutput(
                f"source centre ({cx:.0f}, {cy:.0f}) lies on dry land (b = {bathy:.1f} m)"
            )

    def physical_mask(self, thetas: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`check_physical`: ``True`` per physically valid row.

        A row is physical when its displacement centre lies inside the
        computational domain and over water — exactly the conditions the
        scalar check raises on.
        """
        center_x, center_y = self._source_centers(thetas)
        x0, x1, y0, y1 = self.extent
        inside = (center_x >= x0) & (center_x <= x1) & (center_y >= y0) & (center_y <= y1)
        mask = inside.copy()
        if np.any(inside):
            bathy = self.bathymetry_field(center_x[inside], center_y[inside])
            mask[inside] = bathy < 0.0
        return mask

    def _solve(
        self, level: int, displacements: np.ndarray, record_max_eta: bool
    ) -> EnsembleSimulationResult:
        """Advance a ``(B, nx, ny)`` displacement block through the level's time loop.

        The ensemble state built here is handed to the solver as is — it is
        nobody else's, so the defensive copy of the public ``run`` /
        ``run_ensemble`` entry points would be a second copy per evaluation.
        """
        plan = self.plan(level)
        return plan.solver._integrate(
            plan.solver.initial_ensemble(displacements),
            self.end_time,
            self.gauges,
            record_max_eta=record_max_eta,
            gauge_cells=plan.gauge_cells,
        )

    def _solve_source(
        self, level: int, source: SourceParameters, record_max_eta: bool
    ) -> EnsembleSimulationResult:
        """One physical source as a one-member ensemble (the scalar forward solve)."""
        self.check_physical(level, source)
        displacement = self.displacement_field(level, source)
        return self._solve(level, displacement[None], record_max_eta)

    def simulate(
        self, level: int, source: SourceParameters, record_max_eta: bool = True
    ) -> SimulationResult:
        """Run the forward model for one level and source."""
        return self._solve_source(level, source, record_max_eta).member(0)

    def simulate_batch(
        self, level: int, thetas: np.ndarray, record_max_eta: bool = False
    ) -> EnsembleSimulationResult:
        """Run the forward model for a ``(B, 2)`` parameter block as one ensemble.

        Every row must be physical (callers filter with :meth:`physical_mask`
        first); a block containing unphysical rows raises
        :class:`~repro.bayes.likelihood.UnphysicalModelOutput`, mirroring the
        scalar path.

        Unlike :meth:`simulate`, ``record_max_eta`` defaults to ``False``:
        the batch path exists for likelihood evaluations, which never read
        the inundation field — pass ``True`` to get per-member
        ``max_eta_field`` data.
        """
        block = np.atleast_2d(np.asarray(thetas, dtype=np.float64))
        mask = self.physical_mask(block)
        if not np.all(mask):
            bad = int(np.count_nonzero(~mask))
            raise UnphysicalModelOutput(
                f"{bad} of {block.shape[0]} sources lie on dry land or outside "
                "the computational domain; filter with physical_mask() first"
            )
        center_x, center_y = self._source_centers(block)
        displacements = self.plan(level).displacement(
            center_x, center_y, self.source_amplitude, self.source_radius
        )
        return self._solve(level, displacements, record_max_eta)

    def observe(self, level: int, theta: np.ndarray) -> np.ndarray:
        """Forward map ``theta -> (max heights, arrival times)`` used by the likelihood."""
        source = SourceParameters.from_theta(
            theta, amplitude=self.source_amplitude, radius=self.source_radius
        )
        return self._solve_source(level, source, False).wave_observables()[0]

    def observe_batch(self, level: int, thetas: np.ndarray) -> np.ndarray:
        """Batched forward map: ``(B, 2)`` parameters to ``(B, 2 G)`` observables.

        Row-identical to stacking :meth:`observe` over the block — the
        ensemble integrates every member with its own CFL step — while
        running the solver kernels once per time step for the whole block.
        """
        return self.simulate_batch(level, thetas).wave_observables()

    # ------------------------------------------------------------------
    def hierarchy_summary(self) -> list[dict[str, float | int | str | bool]]:
        """Per-level summary comparable to the paper's Table 2."""
        rows: list[dict[str, float | int | str | bool]] = []
        for config in self.level_configs:
            x0, x1, _, _ = self.extent
            rows.append(
                {
                    "level": config.level,
                    "order": 1,
                    "limiter": config.limiter,
                    "num_cells": config.num_cells,
                    "h": (x1 - x0) / config.num_cells,
                    "bathymetry": config.bathymetry_treatment,
                }
            )
        return rows
