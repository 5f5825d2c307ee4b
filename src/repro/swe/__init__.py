"""Shallow water equation substrate (ExaHyPE substitute).

The tsunami forward model of the paper solves the first-order hyperbolic
shallow water system (water column height, momenta, bathymetry) with an
ADER-DG scheme plus an a-posteriori finite-volume subcell limiter.  This
subpackage provides:

* a robust, well-balanced 2-D finite-volume solver with wetting and drying
  (:mod:`repro.swe.fv2d`) — the production forward model of the tsunami
  hierarchy,
* a synthetic Tohoku-like scenario (bathymetry, source parameterisation,
  buoys) replacing GEBCO bathymetry and DART buoy data
  (:mod:`repro.swe.scenario`),
* gauge recording and the (max wave height, arrival time) observables used by
  the likelihood (:mod:`repro.swe.gauges`).
"""

from repro.swe.state import ShallowWaterState, ShallowWaterEnsembleState, DRY_TOLERANCE
from repro.swe.bathymetry import (
    BathymetryField,
    tohoku_like_bathymetry,
    smooth_bathymetry,
    depth_averaged_bathymetry,
)
from repro.swe.riemann import rusanov_flux, hll_flux, physical_flux_x
from repro.swe.fv2d import (
    EnsembleSimulationResult,
    ShallowWaterSolver2D,
    SimulationResult,
)
from repro.swe.gauges import Gauge, GaugeRecord, wave_observables, wave_observables_batch
from repro.swe.scenario import ScenarioPlan, TohokuLikeScenario, SourceParameters

__all__ = [
    "ShallowWaterState",
    "ShallowWaterEnsembleState",
    "DRY_TOLERANCE",
    "BathymetryField",
    "tohoku_like_bathymetry",
    "smooth_bathymetry",
    "depth_averaged_bathymetry",
    "rusanov_flux",
    "hll_flux",
    "physical_flux_x",
    "ShallowWaterSolver2D",
    "SimulationResult",
    "EnsembleSimulationResult",
    "Gauge",
    "GaugeRecord",
    "wave_observables",
    "wave_observables_batch",
    "ScenarioPlan",
    "TohokuLikeScenario",
    "SourceParameters",
]
