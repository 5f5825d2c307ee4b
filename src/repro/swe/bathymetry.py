"""Synthetic bathymetry toolkit.

The paper's tsunami hierarchy is built not only from mesh refinement but from
*bathymetry treatment*: level 0 uses a depth-averaged (constant) bathymetry,
level 1 a smoothed bathymetry and level 2 the full GEBCO bathymetry.  Without
access to GEBCO data we provide a synthetic "Tohoku-like" basin — a deep ocean
plain, a subduction trench, a continental shelf and a coastline — plus the
smoothing and depth-averaging operators needed to build the same three-level
hierarchy.

All functions work on cell-centred bathymetry arrays; negative values are below
sea level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "BathymetryField",
    "tohoku_like_bathymetry",
    "smooth_bathymetry",
    "depth_averaged_bathymetry",
]


@dataclass(frozen=True)
class BathymetryField:
    """A callable bathymetry ``b(x, y)`` over a rectangular domain.

    Parameters
    ----------
    function:
        Callable mapping coordinates to depths (negative below sea level) that
        broadcasts like a ufunc: it takes coordinate arrays or two floats.
    extent:
        ``(x0, x1, y0, y1)`` physical bounds in metres.
    description:
        Human-readable provenance string (recorded in experiment metadata).
    """

    function: Callable[[np.ndarray, np.ndarray], np.ndarray]
    extent: tuple[float, float, float, float]
    description: str = ""

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.asarray(self.function(np.asarray(x, dtype=float), np.asarray(y, dtype=float)), dtype=float)

    def at(self, x: float, y: float) -> float:
        """The depth at one point, without a round trip through 1-element arrays."""
        return float(self.function(float(x), float(y)))

    def on_grid(self, nx: int, ny: int) -> np.ndarray:
        """Evaluate at the cell centres of an ``nx`` x ``ny`` grid over the extent."""
        x0, x1, y0, y1 = self.extent
        xs = x0 + (np.arange(nx) + 0.5) * (x1 - x0) / nx
        ys = y0 + (np.arange(ny) + 0.5) * (y1 - y0) / ny
        grid_x, grid_y = np.meshgrid(xs, ys, indexing="ij")
        return self(grid_x, grid_y)


def tohoku_like_bathymetry(
    extent: tuple[float, float, float, float] = (-200e3, 200e3, -200e3, 200e3),
    ocean_depth: float = 4000.0,
    trench_depth: float = 7000.0,
    trench_position: float = 60e3,
    trench_width: float = 30e3,
    shelf_start: float = -80e3,
    coast_position: float = -150e3,
    coast_height: float = 50.0,
    ridge_amplitude: float = 300.0,
) -> BathymetryField:
    """A synthetic bathymetry qualitatively matching the Japan trench region.

    The profile varies primarily in the x-direction (west = negative x towards
    the coast, east = positive x towards the open ocean):

    * a coastal plain rising above sea level west of ``coast_position``,
    * a continental shelf / slope between ``coast_position`` and ``shelf_start``,
    * an abyssal plain of ``ocean_depth``,
    * a subduction trench of ``trench_depth`` centred at ``trench_position``,
    * mild sinusoidal ridges in the y-direction so the field is genuinely 2-D.

    Returns a :class:`BathymetryField` (negative below sea level).
    """
    x0, x1, y0, y1 = extent
    slope_width = shelf_start - coast_position

    def bathy(x, y):
        # Only ufuncs and arithmetic, so the same formula serves coordinate
        # arrays and single Python floats (``BathymetryField.at``), with the
        # same rounding either way.
        # Continental slope: smoothly rise from the abyssal plain to the coast.
        slope_frac = np.minimum(np.maximum((x - coast_position) / slope_width, 0.0), 1.0)
        coastal_profile = coast_height + (-(ocean_depth) - coast_height) * (
            slope_frac * slope_frac * (3.0 - 2.0 * slope_frac)
        )
        # Base: abyssal plain.
        depth = np.where(x < shelf_start, coastal_profile, -ocean_depth)
        # Subduction trench (Gaussian trough in x).
        trench_arg = (x - trench_position) / trench_width
        depth = depth + -(trench_depth - ocean_depth) * np.exp(-0.5 * (trench_arg * trench_arg))
        # Gentle along-coast ridges to make the bathymetry two-dimensional.
        ridge_arg = (x - 0.25 * (x1 - x0) * 0) / (0.5 * (x1 - x0))
        ridges = ridge_amplitude * np.sin(2.0 * np.pi * y / (y1 - y0) * 3.0) * np.exp(
            -0.5 * (ridge_arg * ridge_arg)
        )
        return depth + ridges

    return BathymetryField(
        function=bathy,
        extent=extent,
        description=(
            "synthetic Tohoku-like bathymetry: coastal plain, shelf, abyssal plain, "
            "subduction trench, along-coast ridges"
        ),
    )


def smooth_bathymetry(bathymetry: np.ndarray, passes: int = 4) -> np.ndarray:
    """Smooth a cell-centred bathymetry array with repeated 3x3 box filtering.

    This is the level-1 treatment in the paper's hierarchy: smoothed bathymetry
    reduces the number of cells needing the expensive FV subcell limiter while
    preserving large-scale wave propagation.
    """
    field = np.array(bathymetry, dtype=float, copy=True)
    for _ in range(max(0, int(passes))):
        padded = np.pad(field, 1, mode="edge")
        acc = np.zeros_like(field)
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                acc += padded[
                    1 + di : 1 + di + field.shape[0],
                    1 + dj : 1 + dj + field.shape[1],
                ]
        field = acc / 9.0
    return field


def depth_averaged_bathymetry(bathymetry: np.ndarray, wet_only: bool = True) -> np.ndarray:
    """Replace the bathymetry by its (wet-cell) average — the level-0 treatment.

    With a constant bathymetry no wetting/drying computations are required and
    the forward model can run without the subcell limiter (pure DG in the
    paper; here simply the cheapest member of the hierarchy).
    """
    field = np.asarray(bathymetry, dtype=float)
    if wet_only:
        wet = field < 0.0
        mean_depth = float(field[wet].mean()) if np.any(wet) else float(field.mean())
    else:
        mean_depth = float(field.mean())
    return np.full_like(field, mean_depth)
