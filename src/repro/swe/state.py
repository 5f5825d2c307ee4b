"""Shallow water state containers (single simulation and ensembles).

The conserved variables are the water column height ``h``, the momenta
``hu = h*u`` and ``hv = h*v``, and the (static in time, but part of the
hyperbolic system in the paper's formulation) bathymetry ``b``.  The sea
surface elevation is ``eta = h + b`` with the convention that ``b`` is
negative below the undisturbed sea level.

:class:`ShallowWaterState` holds one simulation's fields of shape
``(nx, ny)``; :class:`ShallowWaterEnsembleState` holds a whole ensemble with
a leading batch axis, shape ``(B, nx, ny)``.  The solver kernels index the
grid through the *last two* axes, so both containers flow through the same
flux/source/update code and the ensemble path is elementwise identical to
running each member on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ShallowWaterState",
    "ShallowWaterEnsembleState",
    "DRY_TOLERANCE",
    "GRAVITY",
]

#: water depth below which a cell is treated as dry (velocities zeroed)
DRY_TOLERANCE = 1.0e-3
#: gravitational acceleration [m/s^2]
GRAVITY = 9.81


def _float_field(values):
    """Coerce to a floating array, preserving a float32 dtype.

    Integer and exotic inputs become float64; float32/float64 arrays pass
    through untouched so single-precision ensembles stay single precision.
    """
    array = np.asarray(values)
    if array.dtype == np.float32 or array.dtype == np.float64:
        return array
    return np.asarray(array, dtype=np.float64)


@dataclass
class ShallowWaterState:
    """Cell-centred conserved variables of the 2-D shallow water equations.

    Attributes
    ----------
    h:
        Water column height per cell, shape ``(nx, ny)`` (non-negative).
    hu, hv:
        Momenta per cell.
    b:
        Bathymetry per cell (negative below sea level).
    """

    h: np.ndarray
    hu: np.ndarray
    hv: np.ndarray
    b: np.ndarray
    dry_tolerance: float = field(default=DRY_TOLERANCE)

    def __post_init__(self) -> None:
        shapes = {self.h.shape, self.hu.shape, self.hv.shape, self.b.shape}
        if len(shapes) != 1:
            raise ValueError(f"inconsistent field shapes: {shapes}")
        self.h = _float_field(self.h)
        self.hu = _float_field(self.hu)
        self.hv = _float_field(self.hv)
        self.b = _float_field(self.b)

    # ------------------------------------------------------------------
    @classmethod
    def lake_at_rest(cls, bathymetry: np.ndarray, sea_level: float = 0.0) -> "ShallowWaterState":
        """The "lake at rest" steady state: flat free surface, zero velocity.

        Cells whose bathymetry is above the sea level are dry (``h = 0``).
        """
        b = _float_field(bathymetry)
        h = np.maximum(sea_level - b, 0.0)
        return cls(h=h, hu=np.zeros_like(h), hv=np.zeros_like(h), b=b.copy())

    def copy(self) -> "ShallowWaterState":
        """Deep copy of the state."""
        return ShallowWaterState(
            h=self.h.copy(),
            hu=self.hu.copy(),
            hv=self.hv.copy(),
            b=self.b.copy(),
            dry_tolerance=self.dry_tolerance,
        )

    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        """Grid shape."""
        return self.h.shape

    @property
    def free_surface(self) -> np.ndarray:
        """Sea surface elevation ``eta = h + b`` (equals ``b`` on dry cells)."""
        return self.h + self.b

    @property
    def wet(self) -> np.ndarray:
        """Boolean mask of wet cells."""
        return self.h > self.dry_tolerance

    def velocities(self) -> tuple[np.ndarray, np.ndarray]:
        """Velocities ``(u, v)`` with a desingularised division on nearly dry cells."""
        wet = self.wet
        u = np.zeros_like(self.h)
        v = np.zeros_like(self.h)
        u[wet] = self.hu[wet] / self.h[wet]
        v[wet] = self.hv[wet] / self.h[wet]
        return u, v

    def max_wave_speed(self, gravity: float = GRAVITY) -> float:
        """Maximum characteristic speed ``max(|u| + sqrt(g h))`` over wet cells."""
        wet = self.wet
        if not np.any(wet):
            return 0.0
        u, v = self.velocities()
        celerity = np.sqrt(gravity * self.h[wet])
        speed = np.maximum(np.abs(u[wet]), np.abs(v[wet])) + celerity
        return float(speed.max())

    def total_mass(self, cell_area: float = 1.0) -> float:
        """Total water volume (a conserved quantity away from open boundaries)."""
        return float(self.h.sum() * cell_area)

    def total_momentum(self, cell_area: float = 1.0) -> tuple[float, float]:
        """Total momentum components."""
        return float(self.hu.sum() * cell_area), float(self.hv.sum() * cell_area)

    def enforce_positivity(self) -> None:
        """Clip tiny negative depths produced by round-off and zero dry-cell momenta."""
        np.maximum(self.h, 0.0, out=self.h)
        dry = ~self.wet
        self.hu[dry] = 0.0
        self.hv[dry] = 0.0


@dataclass
class ShallowWaterEnsembleState:
    """An ensemble of shallow-water states with a leading batch axis.

    Attributes
    ----------
    h, hu, hv, b:
        Conserved variables of shape ``(B, nx, ny)``: member ``m``'s fields
        are ``h[m], hu[m], hv[m], b[m]``.  The bathymetry is replicated per
        member so the solver's ghost-cell extensions see one homogeneous
        array.

    All elementwise operations (fluxes, sources, positivity) act on every
    member at once; only the CFL reduction (:meth:`max_wave_speeds`) is
    per member.
    """

    h: np.ndarray
    hu: np.ndarray
    hv: np.ndarray
    b: np.ndarray
    dry_tolerance: float = field(default=DRY_TOLERANCE)

    def __post_init__(self) -> None:
        self.h = _float_field(self.h)
        self.hu = _float_field(self.hu)
        self.hv = _float_field(self.hv)
        self.b = _float_field(self.b)
        shapes = {self.h.shape, self.hu.shape, self.hv.shape, self.b.shape}
        if len(shapes) != 1:
            raise ValueError(f"inconsistent field shapes: {shapes}")
        if self.h.ndim != 3:
            raise ValueError(
                f"ensemble fields must have shape (B, nx, ny), got {self.h.shape}"
            )

    # ------------------------------------------------------------------
    @classmethod
    def lake_at_rest(
        cls, bathymetry: np.ndarray, batch_size: int, sea_level: float = 0.0
    ) -> "ShallowWaterEnsembleState":
        """``batch_size`` identical lake-at-rest members over one bathymetry."""
        single = _float_field(bathymetry)
        b = np.broadcast_to(single, (batch_size,) + single.shape).copy()
        h = np.maximum(sea_level - b, 0.0)
        return cls(h=h, hu=np.zeros_like(h), hv=np.zeros_like(h), b=b)

    @classmethod
    def from_states(cls, states: list[ShallowWaterState]) -> "ShallowWaterEnsembleState":
        """Stack individual states into one ensemble (copies)."""
        if not states:
            raise ValueError("cannot build an ensemble from zero states")
        return cls(
            h=np.stack([s.h for s in states]),
            hu=np.stack([s.hu for s in states]),
            hv=np.stack([s.hv for s in states]),
            b=np.stack([s.b for s in states]),
            dry_tolerance=states[0].dry_tolerance,
        )

    def member(self, index: int) -> ShallowWaterState:
        """Member ``index`` as an independent :class:`ShallowWaterState` (copies)."""
        return ShallowWaterState(
            h=self.h[index].copy(),
            hu=self.hu[index].copy(),
            hv=self.hv[index].copy(),
            b=self.b[index].copy(),
            dry_tolerance=self.dry_tolerance,
        )

    def copy(self) -> "ShallowWaterEnsembleState":
        """Deep copy of the ensemble."""
        return ShallowWaterEnsembleState(
            h=self.h.copy(),
            hu=self.hu.copy(),
            hv=self.hv.copy(),
            b=self.b.copy(),
            dry_tolerance=self.dry_tolerance,
        )

    # ------------------------------------------------------------------
    @property
    def batch_size(self) -> int:
        """Number of ensemble members ``B``."""
        return self.h.shape[0]

    @property
    def grid_shape(self) -> tuple[int, int]:
        """Grid shape ``(nx, ny)`` shared by all members."""
        return self.h.shape[1:]

    @property
    def free_surface(self) -> np.ndarray:
        """Sea surface elevation ``eta = h + b`` per member."""
        return self.h + self.b

    @property
    def wet(self) -> np.ndarray:
        """Boolean mask of wet cells, shape ``(B, nx, ny)``."""
        return self.h > self.dry_tolerance

    def max_wave_speeds(self, gravity: float = GRAVITY) -> np.ndarray:
        """Per-member maximum characteristic speed, shape ``(B,)``.

        Elementwise identical to :meth:`ShallowWaterState.max_wave_speed` on
        each member: dry cells contribute a speed of exactly zero, so the
        per-member maximum equals the scalar wet-cell maximum (and is zero
        for all-dry members).
        """
        wet = self.wet
        safe_h = np.where(wet, self.h, 1.0)
        u = np.where(wet, self.hu / safe_h, 0.0)
        v = np.where(wet, self.hv / safe_h, 0.0)
        speed = np.where(
            wet,
            np.maximum(np.abs(u), np.abs(v)) + np.sqrt(gravity * np.where(wet, self.h, 0.0)),
            0.0,
        )
        return speed.max(axis=(1, 2))

    def enforce_positivity(self) -> None:
        """Clip tiny negative depths and zero dry-cell momenta (all members)."""
        np.maximum(self.h, 0.0, out=self.h)
        dry = ~self.wet
        self.hu[dry] = 0.0
        self.hv[dry] = 0.0
