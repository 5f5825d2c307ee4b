"""Well-balanced 2-D finite-volume shallow water solver with wetting and drying.

This is the production forward model behind the tsunami hierarchy.  The scheme
is a first-order Godunov-type finite-volume method with

* Rusanov or HLL interface fluxes (dimension-by-dimension),
* Audusse-style hydrostatic reconstruction of interface depths, which makes
  the scheme *well balanced*: the "lake at rest" steady state (flat free
  surface over arbitrary bathymetry) is preserved exactly, a property the
  paper's ADER-DG + FV-limiter scheme also has and without which a tsunami
  signal of a few centimetres would drown in numerical noise,
* positivity-preserving wetting and drying with a dry tolerance,
* CFL-controlled adaptive time stepping,
* zero-gradient (outflow) boundaries on all four domain edges, and
* gauge recording at fixed buoy locations.

The role of the paper's a-posteriori subcell limiter — falling back to a
robust FV scheme wherever a high-order candidate is troubled, in particular at
coastlines — is played here by the solver being robust-FV everywhere.

The generic flux, source and update kernels (:meth:`ShallowWaterSolver2D.step`)
index the grid through the *last two* axes, so they operate unchanged on
single states of shape ``(nx, ny)`` and on ensembles with a leading batch
axis, shape ``(B, nx, ny)``.  There is one time loop:
:meth:`ShallowWaterSolver2D.run_ensemble` advances a whole parameter ensemble
as one array program and :meth:`ShallowWaterSolver2D.run` is its one-member
case.  Every member integrates with its *own* CFL time step (a per-member
``dt`` column broadcast into the update), so a member's result does not
depend on its block — the property the evaluator's batch path relies on,
and what lets large ensembles run as consecutive cache-sized sub-blocks of
at most ``BLOCK_CELLS`` cells.  Whenever the input allows, the loop steps
through fused, buffer-reusing kernels bound once per sub-block
(:meth:`ShallowWaterSolver2D._fused_plan`) that are bitwise identical to the
generic ones; the generic kernels remain the fallback (HLL flux, hand-built
states, a state on another bathymetry) and the reference the tests compare
against.  The fused workspace belongs to the solver instance, which is
therefore not safe to share across threads.

The fused kernels skip work that is an identity on the input, selected from
the input alone: on a constant bathymetry (the coarse level's depth average)
the well-balanced source term is exactly zero and never computed, and while
every cell is wet the dry-lane masking, the depth clip and the positivity
step are skipped.  "Every cell wet" is re-checked each step by reductions
over the cell and reconstructed interface depths; once it fails the run
finishes on the masked operations.  The per-step control plane is one pass
over ``(B,)`` arrays: the CFL step, ``running = dt > 0`` and one gather of
the depths at the gauge cells, whose anomalies are formed once after the
loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Sequence

import numpy as np

from repro.swe.gauges import Gauge, GaugeRecord, wave_observables_batch
from repro.swe.riemann import hll_flux, rusanov_flux
from repro.swe.state import (
    DRY_TOLERANCE,
    GRAVITY,
    ShallowWaterEnsembleState,
    ShallowWaterState,
)
from repro.utils.array_api import array_namespace, resolve_dtype

__all__ = ["ShallowWaterSolver2D", "SimulationResult", "EnsembleSimulationResult"]

#: The most cells (``B * nx * ny``) one fused block holds.  The fused
#: workspace costs ~700 bytes per cell and per-member time rises once a
#: block's buffers fall out of cache, so an ensemble past the cap runs in
#: sub-blocks of ``max(1, BLOCK_CELLS // (nx * ny))`` members
#: (:meth:`ShallowWaterSolver2D._integrate`).  A block within it steps
#: lane-stacked (:meth:`ShallowWaterSolver2D._fused_plan`), which halves the
#: flux-stage call count but adds transposed copies and strided reads, so it
#: pays only up to about the same size.  Measured (tables in
#: docs/architecture.md): per-member time is flat for blocks of ~4000-10000
#: cells and 1.5-1.8x that for unsplit 16-member blocks of 48^2-72^2 grids;
#: stacked over two-sweep is 0.81-0.89 at B = 1, 0.98-1.03 at 8192 cells
#: and 1.02-1.15 beyond.
BLOCK_CELLS = 8_000


@dataclass
class SimulationResult:
    """Output of a shallow-water simulation.

    Attributes
    ----------
    state:
        Final state.
    gauge_records:
        One record per requested gauge, in input order.
    num_timesteps:
        Number of time steps taken.
    simulated_time:
        Final simulation time (seconds).
    dof_updates:
        Total number of degree-of-freedom updates (cells x conserved variables
        x timesteps) — the work metric reported in the paper's Table 2.
    max_eta_field:
        Maximum free-surface anomaly attained per cell over the simulation.
    """

    state: ShallowWaterState
    gauge_records: list[GaugeRecord]
    num_timesteps: int
    simulated_time: float
    dof_updates: int
    max_eta_field: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))


@dataclass
class EnsembleSimulationResult:
    """Output of one batched (ensemble) shallow-water simulation.

    Per-member quantities are arrays over the batch axis ``B``; gauge series
    are stored as padded arrays — member ``m``'s valid samples are the first
    ``num_timesteps[m] + 1`` entries along the step axis.

    Attributes
    ----------
    state:
        Final ensemble state, fields of shape ``(B, nx, ny)``.
    gauges:
        The recorded gauges, in input order.
    num_timesteps, simulated_time, dof_updates:
        Per-member step counts, final times and DOF-update work, shape ``(B,)``.
    gauge_times:
        Per-member sample times, shape ``(B, S + 1)`` where ``S`` is the
        largest member step count (entries beyond a member's own step count
        repeat its final time).
    gauge_values:
        Sea-surface-height anomalies, shape ``(B, S + 1, G)``.
    max_eta_field:
        Per-member maximum free-surface anomaly, shape ``(B, nx, ny)``
        (empty when recording was disabled).
    """

    state: ShallowWaterEnsembleState
    gauges: list[Gauge]
    num_timesteps: np.ndarray
    simulated_time: np.ndarray
    dof_updates: np.ndarray
    gauge_times: np.ndarray
    gauge_values: np.ndarray
    max_eta_field: np.ndarray = field(default_factory=lambda: np.zeros((0, 0, 0)))

    # ------------------------------------------------------------------
    @property
    def batch_size(self) -> int:
        """Number of ensemble members."""
        return self.state.batch_size

    def wave_observables(self, time_unit: float = 60.0) -> np.ndarray:
        """Likelihood observables per member, shape ``(B, 2 * G)``.

        Matches :func:`repro.swe.gauges.wave_observables` row by row: first
        every gauge's maximum anomaly, then the times of those maxima.
        """
        return wave_observables_batch(
            self.gauge_times,
            self.gauge_values,
            sample_counts=self.num_timesteps + 1,
            time_unit=time_unit,
        )

    def member(self, index: int) -> SimulationResult:
        """Member ``index`` repackaged as a scalar :class:`SimulationResult`."""
        valid = int(self.num_timesteps[index]) + 1
        records = [
            GaugeRecord.from_arrays(
                gauge, self.gauge_times[index, :valid], self.gauge_values[index, :valid, g]
            )
            for g, gauge in enumerate(self.gauges)
        ]
        max_eta = (
            self.max_eta_field[index].copy()
            if self.max_eta_field.size
            else np.zeros((0, 0))
        )
        return SimulationResult(
            state=self.state.member(index),
            gauge_records=records,
            num_timesteps=int(self.num_timesteps[index]),
            simulated_time=float(self.simulated_time[index]),
            dof_updates=int(self.dof_updates[index]),
            max_eta_field=max_eta,
        )


class ShallowWaterSolver2D:
    """First-order well-balanced FV solver on a uniform rectangular grid.

    Parameters
    ----------
    nx, ny:
        Number of cells per direction.
    extent:
        ``(x0, x1, y0, y1)`` physical bounds in metres.
    bathymetry:
        Cell-centred bathymetry array of shape ``(nx, ny)``.
    gravity:
        Gravitational acceleration.
    cfl:
        CFL number (<= 0.5 recommended for the dimension-unsplit update).
    flux:
        ``"rusanov"`` (default) or ``"hll"``.
    dry_tolerance:
        Depth below which a cell is treated as dry.
    dtype:
        Solve dtype of the field arrays (``float32`` or ``float64``, default
        double).  States constructed by the solver carry this dtype and every
        kernel preserves it; the CFL control plane (per-member step sizes and
        simulation times) stays double so float32 members take the same steps
        a scalar run of the same member would.
    """

    def __init__(
        self,
        nx: int,
        ny: int,
        extent: tuple[float, float, float, float],
        bathymetry: np.ndarray,
        gravity: float = GRAVITY,
        cfl: float = 0.45,
        flux: Literal["rusanov", "hll"] = "rusanov",
        dry_tolerance: float = DRY_TOLERANCE,
        dtype=None,
    ) -> None:
        self.nx = int(nx)
        self.ny = int(ny)
        self.extent = extent
        x0, x1, y0, y1 = extent
        self.dx = (x1 - x0) / self.nx
        self.dy = (y1 - y0) / self.ny
        self.dtype = resolve_dtype(dtype)
        xp = array_namespace(bathymetry)
        self._xp = xp
        bathy = xp.asarray(bathymetry, dtype=self.dtype)
        if bathy.shape != (self.nx, self.ny):
            raise ValueError(
                f"bathymetry shape {bathy.shape} does not match grid ({self.nx}, {self.ny})"
            )
        self.bathymetry = bathy.copy()
        #: a constant bathymetry makes the well-balanced source term vanish
        self._constant_bathymetry = bool(xp.all(bathy == bathy[0, 0]))
        self.gravity = float(gravity)
        self.cfl = float(cfl)
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError("CFL number must be in (0, 1]")
        self._flux = rusanov_flux if flux == "rusanov" else hll_flux
        self.dry_tolerance = float(dry_tolerance)
        #: static per-interface bathymetry of the hydrostatic reconstruction
        #: (lazy; shared by every ensemble step on this grid)
        self._interface_bathymetry: tuple[np.ndarray, np.ndarray] | None = None
        #: preallocated buffers of the fused ensemble step; grown to the
        #: largest (sub-)block seen, smaller blocks use leading-axis views
        self._ensemble_workspace: dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Cell centre coordinate arrays ``(x, y)`` of shape ``(nx, ny)``."""
        x0, x1, y0, y1 = self.extent
        xs = x0 + (np.arange(self.nx) + 0.5) * self.dx
        ys = y0 + (np.arange(self.ny) + 0.5) * self.dy
        return np.meshgrid(xs, ys, indexing="ij")

    def locate_cell(self, x: float, y: float) -> tuple[int, int]:
        """Indices of the cell containing the physical point ``(x, y)``."""
        x0, _, y0, _ = self.extent
        i = int(np.clip((x - x0) / self.dx, 0, self.nx - 1))
        j = int(np.clip((y - y0) / self.dy, 0, self.ny - 1))
        return i, j

    def initial_state(self, surface_displacement: np.ndarray | None = None) -> ShallowWaterState:
        """Lake-at-rest state with an optional instantaneous surface displacement.

        Following the paper (and Saito et al.), the co-seismic sea-floor
        displacement is translated directly to the sea surface: the water
        column height of wet cells is increased by the displacement.
        """
        xp = self._xp
        state = ShallowWaterState.lake_at_rest(self.bathymetry)
        state.dry_tolerance = self.dry_tolerance
        if surface_displacement is not None:
            disp = xp.asarray(surface_displacement, dtype=self.dtype)
            if disp.shape != (self.nx, self.ny):
                raise ValueError("surface displacement shape does not match the grid")
            wet = state.h > self.dry_tolerance
            state.h[wet] = xp.maximum(state.h[wet] + disp[wet], 0.0)
        return state

    # ------------------------------------------------------------------
    def _interface_fluxes_x(
        self, state: ShallowWaterState | ShallowWaterEnsembleState
    ) -> tuple[np.ndarray, ...]:
        """Hydrostatically reconstructed fluxes across x-interfaces.

        Returns per-interface flux arrays of shape ``(..., nx + 1, ny)``
        together with the reconstructed left/right depths needed for the
        well-balanced source term.  The grid occupies the last two axes, so
        any leading batch axes pass straight through.
        """
        xp = self._xp
        h, hu, hv, b = state.h, state.hu, state.hv, state.b
        # Extend with zero-gradient ghost cells in x.
        h_ext = xp.concatenate([h[..., :1, :], h, h[..., -1:, :]], axis=-2)
        hu_ext = xp.concatenate([hu[..., :1, :], hu, hu[..., -1:, :]], axis=-2)
        hv_ext = xp.concatenate([hv[..., :1, :], hv, hv[..., -1:, :]], axis=-2)
        b_ext = xp.concatenate([b[..., :1, :], b, b[..., -1:, :]], axis=-2)

        h_l, h_r = h_ext[..., :-1, :], h_ext[..., 1:, :]
        hu_l, hu_r = hu_ext[..., :-1, :], hu_ext[..., 1:, :]
        hv_l, hv_r = hv_ext[..., :-1, :], hv_ext[..., 1:, :]
        b_l, b_r = b_ext[..., :-1, :], b_ext[..., 1:, :]

        return self._reconstructed_flux(h_l, hu_l, hv_l, b_l, h_r, hu_r, hv_r, b_r)

    def _interface_fluxes_y(
        self, state: ShallowWaterState | ShallowWaterEnsembleState
    ) -> tuple[np.ndarray, ...]:
        """Same as :meth:`_interface_fluxes_x` for y-interfaces (roles of hu/hv swapped)."""
        xp = self._xp
        h, hu, hv, b = state.h, state.hu, state.hv, state.b
        h_ext = xp.concatenate([h[..., :1], h, h[..., -1:]], axis=-1)
        hu_ext = xp.concatenate([hu[..., :1], hu, hu[..., -1:]], axis=-1)
        hv_ext = xp.concatenate([hv[..., :1], hv, hv[..., -1:]], axis=-1)
        b_ext = xp.concatenate([b[..., :1], b, b[..., -1:]], axis=-1)

        h_l, h_r = h_ext[..., :-1], h_ext[..., 1:]
        hu_l, hu_r = hu_ext[..., :-1], hu_ext[..., 1:]
        hv_l, hv_r = hv_ext[..., :-1], hv_ext[..., 1:]
        b_l, b_r = b_ext[..., :-1], b_ext[..., 1:]

        # In the y-sweep the "normal" momentum is hv; reuse the x-flux with
        # swapped momentum components and swap the returned components back.
        (flux_h, flux_hn, flux_ht, h_star_l, h_star_r) = self._reconstructed_flux(
            h_l, hv_l, hu_l, b_l, h_r, hv_r, hu_r, b_r
        )
        return flux_h, flux_ht, flux_hn, h_star_l, h_star_r

    def _reconstructed_flux(
        self,
        h_l: np.ndarray,
        hn_l: np.ndarray,
        ht_l: np.ndarray,
        b_l: np.ndarray,
        h_r: np.ndarray,
        hn_r: np.ndarray,
        ht_r: np.ndarray,
        b_r: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Audusse hydrostatic reconstruction + numerical flux at a set of interfaces.

        ``hn`` is the momentum normal to the interface, ``ht`` the transverse
        momentum.  Returns ``(flux_h, flux_hn, flux_ht, h*_l, h*_r)``.
        """
        xp = self._xp
        wet_l = h_l > self.dry_tolerance
        wet_r = h_r > self.dry_tolerance
        un_l = xp.where(wet_l, hn_l / xp.where(wet_l, h_l, 1.0), 0.0)
        ut_l = xp.where(wet_l, ht_l / xp.where(wet_l, h_l, 1.0), 0.0)
        un_r = xp.where(wet_r, hn_r / xp.where(wet_r, h_r, 1.0), 0.0)
        ut_r = xp.where(wet_r, ht_r / xp.where(wet_r, h_r, 1.0), 0.0)

        # Hydrostatic reconstruction of interface depths.
        b_star = xp.maximum(b_l, b_r)
        eta_l = h_l + b_l
        eta_r = h_r + b_r
        h_star_l = xp.maximum(eta_l - b_star, 0.0)
        h_star_r = xp.maximum(eta_r - b_star, 0.0)

        q_l = (h_star_l, h_star_l * un_l, h_star_l * ut_l)
        q_r = (h_star_r, h_star_r * un_r, h_star_r * ut_r)
        flux_h, flux_hn, flux_ht = self._flux(q_l, q_r, self.gravity)
        return flux_h, flux_hn, flux_ht, h_star_l, h_star_r

    # ------------------------------------------------------------------
    def step(
        self,
        state: ShallowWaterState | ShallowWaterEnsembleState,
        dt: float | np.ndarray,
    ) -> None:
        """Advance the state by one explicit Euler step of size ``dt`` (in place).

        ``dt`` may be a scalar, or — for ensemble states — a ``(B,)`` array of
        per-member step sizes (a member with ``dt = 0`` is left unchanged).
        """
        g = self.gravity
        xp = self._xp
        # A (B,) dt column is cast to the field dtype before the update so the
        # product matches the scalar path, where a Python-float dt combines
        # with the fields at their own precision.
        dt_arr = xp.asarray(dt, dtype=state.h.dtype)
        if dt_arr.ndim:
            dt = dt_arr[:, None, None]

        # --- x-direction ---------------------------------------------------
        flux_h_x, flux_hu_x, flux_hv_x, h_star_l_x, h_star_r_x = self._interface_fluxes_x(state)
        # Well-balanced source contribution: for cell i the x-interfaces are
        # i (left) and i+1 (right); the hydrostatic-reconstruction source is
        #   g/2 * (h*_{i,left-of-right-interface}^2 - h*_{i,right-of-left-interface}^2
        #          - (h_i)^2 + (h_i)^2 ) ... expressed compactly below.
        src_hu = (
            0.5 * g * (h_star_l_x[..., 1:, :] ** 2 - h_star_r_x[..., :-1, :] ** 2)
        )
        dh_x = -(flux_h_x[..., 1:, :] - flux_h_x[..., :-1, :]) / self.dx
        dhu_x = -(flux_hu_x[..., 1:, :] - flux_hu_x[..., :-1, :]) / self.dx + src_hu / self.dx
        dhv_x = -(flux_hv_x[..., 1:, :] - flux_hv_x[..., :-1, :]) / self.dx

        # --- y-direction ---------------------------------------------------
        flux_h_y, flux_hu_y, flux_hv_y, h_star_l_y, h_star_r_y = self._interface_fluxes_y(state)
        src_hv = (
            0.5 * g * (h_star_l_y[..., 1:] ** 2 - h_star_r_y[..., :-1] ** 2)
        )
        dh_y = -(flux_h_y[..., 1:] - flux_h_y[..., :-1]) / self.dy
        dhu_y = -(flux_hu_y[..., 1:] - flux_hu_y[..., :-1]) / self.dy
        dhv_y = -(flux_hv_y[..., 1:] - flux_hv_y[..., :-1]) / self.dy + src_hv / self.dy

        state.h += dt * (dh_x + dh_y)
        state.hu += dt * (dhu_x + dhu_y)
        state.hv += dt * (dhv_x + dhv_y)
        state.enforce_positivity()

    def stable_timestep(self, state: ShallowWaterState) -> float:
        """CFL-stable time step for the current state."""
        max_speed = state.max_wave_speed(self.gravity)
        if max_speed <= 0.0:
            return 0.1 * min(self.dx, self.dy)
        return self.cfl * min(self.dx, self.dy) / max_speed

    # ------------------------------------------------------------------
    def run(
        self,
        initial_state: ShallowWaterState,
        end_time: float,
        gauges: list[Gauge] | None = None,
        max_steps: int = 1_000_000,
        record_max_eta: bool = True,
        gauge_cells: Sequence[tuple[int, int]] | None = None,
    ) -> SimulationResult:
        """Run the simulation to ``end_time`` recording gauges every step.

        The one-member case of :meth:`run_ensemble`: the state is stacked
        (copied) into a ``B = 1`` ensemble and advanced by the same time loop
        and kernels.  ``gauge_cells`` optionally supplies precomputed gauge
        cell indices (one ``(i, j)`` pair per gauge, e.g. from a cached
        :class:`repro.swe.scenario.ScenarioPlan`), skipping the per-run
        :meth:`locate_cell` lookups.
        """
        ensemble = ShallowWaterEnsembleState.from_states([initial_state])
        return self._integrate(
            ensemble, end_time, gauges, max_steps, record_max_eta, gauge_cells
        ).member(0)

    # ------------------------------------------------------------------
    # ensemble (batched) solve path
    def initial_ensemble(self, surface_displacements: np.ndarray) -> ShallowWaterEnsembleState:
        """Lake-at-rest ensemble with per-member surface displacements.

        ``surface_displacements`` has shape ``(B, nx, ny)`` (a single
        ``(nx, ny)`` field yields a one-member ensemble).  Member-wise
        identical to :meth:`initial_state`.
        """
        xp = self._xp
        disp = xp.asarray(surface_displacements, dtype=self.dtype)
        if disp.ndim == 2:
            disp = disp[None]
        if disp.ndim != 3 or disp.shape[1:] != (self.nx, self.ny):
            raise ValueError(
                f"surface displacements of shape {disp.shape} do not match the "
                f"grid ({self.nx}, {self.ny})"
            )
        state = ShallowWaterEnsembleState.lake_at_rest(self.bathymetry, disp.shape[0])
        state.dry_tolerance = self.dry_tolerance
        wet = state.h > self.dry_tolerance
        state.h[wet] = xp.maximum(state.h[wet] + disp[wet], 0.0)
        return state

    def _static_interface_bathymetry(self) -> tuple[np.ndarray, np.ndarray]:
        """Reconstructed interface bathymetry ``max(b_l, b_r)`` per direction.

        The bathymetry is static in time, so the ghost extension and the
        per-interface maximum of the hydrostatic reconstruction are computed
        once per grid and broadcast over any batch axis.
        """
        if self._interface_bathymetry is None:
            xp = self._xp
            b = self.bathymetry
            b_ext_x = xp.concatenate([b[:1], b, b[-1:]], axis=0)
            b_ext_y = xp.concatenate([b[:, :1], b, b[:, -1:]], axis=1)
            self._interface_bathymetry = (
                xp.maximum(b_ext_x[:-1], b_ext_x[1:]),  # (nx + 1, ny)
                xp.maximum(b_ext_y[:, :-1], b_ext_y[:, 1:]),  # (nx, ny + 1)
            )
        return self._interface_bathymetry

    def _buf(self, ws: dict[str, np.ndarray], name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        """A preallocated buffer of the given shape and dtype, reused across runs.

        Buffers are keyed by name and sized for the largest leading (lane)
        dimension seen; smaller requests return a contiguous leading-axis
        view.  Callers like ``Posterior.log_density_batch`` forward only the
        physical rows of each block, so consecutive ensemble solves arrive
        with varying batch sizes — growing in place keeps exactly one buffer
        set alive per solver instead of one per batch size.  Ensembles past
        ``BLOCK_CELLS`` are bound one sub-block at a time, so the workspace
        never outgrows one sub-block.
        """
        array = ws.get(name)
        if (
            array is None
            or array.dtype != dtype
            or array.shape[1:] != shape[1:]
            or array.shape[0] < shape[0]
        ):
            array = self._xp.empty(shape, dtype=dtype)
            ws[name] = array
        if array.shape[0] != shape[0]:
            return array[: shape[0]]
        return array

    def _fused_eligible(self, state: ShallowWaterEnsembleState) -> bool:
        """Whether the fused kernels reproduce the generic ones on ``state``.

        The fused step covers the (default) Rusanov flux.  Its branch-free
        dry handling relies on (i) a dry tolerance below the 1.0 of the
        ``maximum(h, dry_indicator)`` identity, (ii) the state sharing the
        solver's tolerance (``enforce_positivity`` must zero the same cells
        the kernels treat as dry), (iii) the state lying on the solver's
        bathymetry (the fused sweep reconstructs interface depths against
        the solver's precomputed ``max(b_l, b_r)``, the generic kernels
        against ``state.b``) and (iv) dry cells carrying exactly zero
        momenta at entry — every constructor maintains (ii)-(iv), but
        hand-built states may not.  Anything else goes through the generic
        axis-agnostic kernels, which are correct for any input.
        """
        xp = self._xp
        if not (
            self._flux is rusanov_flux
            and 0.0 < self.dry_tolerance < 1.0
            and state.dry_tolerance == self.dry_tolerance
            and bool(xp.all(state.b == self.bathymetry))
        ):
            return False
        dry = state.h <= self.dry_tolerance
        return not (bool(xp.any(state.hu[dry])) or bool(xp.any(state.hv[dry])))

    def _fused_sweep(self, buf, tag, eta, un, ut, b_star_parts, axis, spacing):
        """Bind one direction's fused flux + divergence pass over ``eta/un/ut``.

        Returns ``(sweep, div_h, div_hn, div_ht)``: calling ``sweep(all_wet)``
        reads the cell primitives (free surface, normal and transverse
        velocity, ``L`` lanes) and leaves ``-(ΔF)/spacing`` (+ the
        well-balanced source on the normal momentum) in the three
        cell-shaped ``div_*`` buffers.  Every buffer, view and slice is
        resolved here, once per run, so a step is nothing but ufunc calls on
        bound arrays.

        The pass performs the same elementwise operation sequence as
        :meth:`_reconstructed_flux` + :func:`repro.swe.riemann.rusanov_flux`
        + the divergence in :meth:`step` (so the results are bitwise
        identical), but with every repeated subexpression computed once —
        cell velocities and free surface arrive precomputed — and every
        intermediate written into a preallocated *contiguous* buffer instead
        of a fresh temporary: the ghost extension and l/r interface shifts
        are materialised as copies because strided views and broadcasts cost
        several times a contiguous SIMD pass.  All operations go through the
        state's namespace and dtype, so a float32 run halves the memory
        traffic of this (bandwidth-bound at size) pipeline.

        Two groups of operations are skipped where they are identities on
        the input.  On a constant bathymetry the well-balanced source term
        is never computed: both of a cell's reconstructed depths are
        ``max(eta - b, 0)`` of its own free surface, so the source is an
        exact zero.  ``sweep(True)`` (the caller vouches that every cell is
        wet) checks every reconstructed depth with one reduction and, if
        all exceed the dry tolerance, skips the clip at zero and the
        dry-lane masking of the velocity; it returns whether that held, and
        otherwise runs the masked operations.

        ``b_star_parts`` holds the static interface bathymetry of each equal
        group of lanes (one entry, or two under lane stacking).
        """
        g, xp = self.gravity, self._xp
        lanes, nx, ny = eta.shape
        iface = (nx + 1, ny) if axis == -2 else (nx, ny + 1)
        if axis == -2:
            first, last = np.s_[:, 0, :], np.s_[:, -1, :]
            lo, hi = np.s_[:, :-1, :], np.s_[:, 1:, :]
        else:
            first, last = np.s_[:, :, 0], np.s_[:, :, -1]
            lo, hi = np.s_[:, :, :-1], np.s_[:, :, 1:]

        # Left and right interface states are stacked along the lane axis
        # (shape (2L, ...)): the whole per-side pipeline then runs as single
        # full-width ufunc calls, halving the dispatch count.
        def both(name):
            return buf(f"{tag}:{name}", 2 * lanes, *iface)

        def one(name):
            return buf(f"{tag}:{name}", lanes, *iface)

        eta_lr, un_lr, ut_lr, h_star = both("eta_lr"), both("un_lr"), both("ut_lr"), both("h_star")
        hn, ht, u, c, p = both("hn"), both("ht"), both("u"), both("c"), both("p")
        f1, f2, mask, work_lr = both("f1"), both("f2"), both("mask"), both("work_lr")
        smax, work = one("smax"), one("work")
        # Lane-replicated contiguous interface bathymetry, filled once per
        # run (a 2-D broadcast inside the hot loop costs ~3x a contiguous pass).
        b_star = both("b_star")
        groups = b_star.reshape(2, len(b_star_parts), -1, *iface)
        for k, part in enumerate(b_star_parts):
            groups[:, k] = part

        # Left/right interface traces with zero-gradient ghost cells.
        traces = []
        for src, dest in ((eta, eta_lr), (un, un_lr), (ut, ut_lr)):
            left, right = dest[:lanes], dest[lanes:]
            traces += [
                (left[first], src[first]), (left[hi], src),
                (right[lo], src), (right[last], src[last]),
            ]
        # (f, q, l/r halves, flux buffer) per conserved component; the mass
        # flux is the reconstructed normal momentum itself.
        components = [
            (f[:lanes], f[lanes:], q[:lanes], q[lanes:], one(name))
            for f, q, name in ((hn, h_star, "flux_h"), (f1, hn, "flux_hn"), (f2, ht, "flux_ht"))
        ]
        cell = (lanes, nx, ny)
        div_h, div_hn, div_ht = (buf(f"{tag}:div_{k}", *cell) for k in ("h", "hn", "ht"))
        divergences = [
            (flux[hi], flux[lo], div)
            for (*_, flux), div in zip(components, (div_h, div_hn, div_ht))
        ]
        if self._constant_bathymetry:
            source = None
        else:
            source = (
                buf(f"{tag}:src", *cell), buf(f"{tag}:sq", *cell),
                h_star[:lanes][hi], h_star[lanes:][lo],
            )
        abs_l, abs_r = work_lr[:lanes], work_lr[lanes:]
        half_g = 0.5 * g
        # the guard compares in the field dtype, like the masked less_equal
        dry_star = eta.dtype.type(DRY_TOLERANCE)

        def sweep(all_wet: bool) -> bool:
            for dest, source_cells in traces:
                dest[...] = source_cells

            # Hydrostatically reconstructed interface depths and momenta.
            xp.subtract(eta_lr, b_star, out=h_star)
            # Every h* above the tolerance: the clip at zero and the dry-lane
            # masking below are identities, so they are skipped.
            all_wet = all_wet and bool(h_star.min() > dry_star)
            if not all_wet:
                xp.maximum(h_star, 0.0, out=h_star)
            xp.multiply(h_star, un_lr, out=hn)
            xp.multiply(h_star, ut_lr, out=ht)

            if all_wet:
                xp.divide(hn, h_star, out=u)
            else:
                # Branch-free dry handling (`where=`-masked ufunc loops are
                # scalar and several times slower than full SIMD passes): with
                # tol < 1, where(wet, h, 1) == maximum(h, dry_indicator) and
                # the dry lanes of the velocity are zeroed by multiplying with
                # the wet indicator — x * 1.0 == x exactly, so wet lanes are
                # untouched and the dry-lane where() branches of the reference
                # kernels (u = 0, f1 = p, f2 = 0) fall out of the arithmetic:
                # hn * (+-0) + p == p and |+-0| == 0.
                xp.less_equal(h_star, DRY_TOLERANCE, out=mask)  # 1.0 on dry lanes
                xp.maximum(h_star, mask, out=work_lr)  # where(wet, h, 1)
                xp.divide(hn, work_lr, out=u)
                xp.subtract(1.0, mask, out=mask)  # 1.0 on wet lanes
                xp.multiply(u, mask, out=u)  # where(wet, hn / h, +-0)
            # celerity sqrt(g * max(h, 0)) — h* is already clipped.
            xp.multiply(h_star, g, out=c)
            xp.sqrt(c, out=c)
            # physical fluxes (the flux_h component is hn itself).
            xp.multiply(h_star, half_g, out=p)
            xp.multiply(p, h_star, out=p)
            xp.multiply(hn, u, out=f1)
            xp.add(f1, p, out=f1)
            xp.multiply(ht, u, out=f2)

            # Rusanov dissipation speed max(|u_l| + c_l, |u_r| + c_r).
            xp.abs(u, out=work_lr)
            xp.add(work_lr, c, out=work_lr)
            xp.maximum(abs_l, abs_r, out=smax)
            xp.multiply(smax, 0.5, out=smax)
            for f_l, f_r, q_l, q_r, flux in components:
                # 0.5 * (f_l + f_r) - (0.5 * smax) * (q_r - q_l)
                xp.subtract(q_r, q_l, out=work)
                xp.multiply(work, smax, out=work)
                xp.add(f_l, f_r, out=flux)
                xp.multiply(flux, 0.5, out=flux)
                xp.subtract(flux, work, out=flux)

            # -(Δflux) / dx fused as Δflux / (-dx): IEEE division is
            # sign-symmetric, so the result is bitwise identical.
            for flux_hi, flux_lo, div in divergences:
                xp.subtract(flux_hi, flux_lo, out=div)
                xp.divide(div, -spacing, out=div)
            if source is not None:
                # src_hn = 0.5 g (h*_l[hi]^2 - h*_r[lo]^2), in the reference order.
                src, sq, star_l_hi, star_r_lo = source
                xp.multiply(star_l_hi, star_l_hi, out=src)
                xp.multiply(star_r_lo, star_r_lo, out=sq)
                xp.subtract(src, sq, out=src)
                xp.multiply(src, half_g, out=src)
                xp.divide(src, spacing, out=src)
                xp.add(div_hn, src, out=div_hn)
            return all_wet

        return sweep, div_h, div_hn, div_ht

    def _fused_plan(self, state: ShallowWaterEnsembleState):
        """Bind the fused step of one run: ``(speeds, step)`` closures.

        ``speeds()`` computes the cell primitives (dry indicator, velocities,
        free surface) into workspace buffers and returns the per-member max
        wave speeds; ``step(dt)`` then advances ``state`` in place by one
        explicit Euler step from those same primitives — the reference path
        derives them independently in
        :meth:`ShallowWaterState.max_wave_speed` and per interface side in
        :meth:`_reconstructed_flux`, with identical values.  Both are
        operation-for-operation equivalent to :meth:`stable_timestep` /
        :meth:`step` with the Rusanov flux (bitwise identical results) and
        assume what :meth:`_fused_eligible` checked.  Workspace buffers,
        views and the lane-replicated interface bathymetry are resolved here
        once, not per step: at 16–48 cells a step is bound by interpreter
        dispatch, not arithmetic.

        On square grids with ``dx == dy`` and a block of at most
        ``BLOCK_CELLS`` cells (every block but a single oversized member), the
        y-sweep runs as an x-sweep on transposed cell fields stacked behind the x lanes
        (*lane stacking*): one ``(2B, n, n)`` block goes through one flux +
        divergence pass and the update reads the y lanes back transposed —
        elementwise the same arithmetic in half the flux-stage calls.

        *All-wet mode.*  While every cell is wet, the dry-lane masking is an
        identity: ``speeds()`` divides the momenta by ``h`` directly and
        skips the wet-indicator product, the sweeps skip the clip and the
        masking of the reconstructed depths, and ``step`` skips
        ``enforce_positivity``.  The mode starts when the input has no cell
        at or below the dry tolerance and is guarded by reductions covering
        every comparison the skipped operations would make: ``min(h*)`` in
        each sweep and ``min(h)`` after each update (which also vouches for
        the next ``speeds()``).  The step on which a guard fails runs the
        masked operations from that point on, including the reference
        positivity, and the run stays on them.
        """
        xp, g, tol = self._xp, self.gravity, self.dry_tolerance
        h, hu, hv, b = state.h, state.hu, state.hv, state.b
        batch, nx, ny = h.shape
        dtype = h.dtype
        ws = self._ensemble_workspace

        def buf(name, *shape):
            return self._buf(ws, name, shape, dtype)

        stacked = (
            nx == ny and self.dx == self.dy and batch * nx * ny <= BLOCK_CELLS
        )
        lanes = 2 * batch if stacked else batch
        eta_all, u_all, v_all = (buf(name, lanes, nx, ny) for name in ("eta", "u", "v"))
        eta, u, v = eta_all[:batch], u_all[:batch], v_all[:batch]
        b_star_x, b_star_y = self._static_interface_bathymetry()

        def transposed(array):
            return array.transpose(0, 2, 1)

        if stacked:
            # y lanes: transposed fields, normal/transverse velocity swapped.
            y_lanes = [
                (eta_all[batch:], transposed(eta)),
                (u_all[batch:], transposed(v)),
                (v_all[batch:], transposed(u)),
            ]
            sweep, dh, dhn, dht = self._fused_sweep(
                buf, "xy", eta_all, u_all, v_all, (b_star_x, b_star_y.T), -2, self.dx
            )
            sweeps = [sweep]
            parts_y = [transposed(d[batch:]) for d in (dh, dht, dhn)]
            parts_x = [d[:batch] for d in (dh, dhn, dht)]
        else:
            y_lanes = []
            sweep_x, *parts_x = self._fused_sweep(buf, "x", eta, u, v, (b_star_x,), -2, self.dx)
            sweep_y, dh, dhn, dht = self._fused_sweep(buf, "y", eta, v, u, (b_star_y,), -1, self.dy)
            sweeps = [sweep_x, sweep_y]
            parts_y = [dh, dht, dhn]
        updates = list(zip((h, hu, hv), parts_x, parts_y))

        cell = (batch, nx, ny)
        wetf, safe, rhs = buf("wetf", *cell), buf("cell_safe", *cell), buf("rhs", *cell)
        speed, celerity = buf("speed", *cell), buf("celerity", *cell)
        # "Every cell wet" holds from the input on and is re-checked by one
        # reduction after every update (in the field dtype, like the masked
        # comparisons); once it fails, the run stays on the masked operations.
        all_wet = bool(xp.all(h > tol))
        dry_cell = dtype.type(tol)

        def speeds() -> np.ndarray:
            if all_wet:  # where(wet, momentum / h, 0) is momentum / h
                xp.divide(hu, h, out=u)
                xp.divide(hv, h, out=v)
            else:
                # Branch-free form of where(wet, momentum / h, 0): dry momenta
                # are exactly zero (the invariant every constructor and step
                # maintains), so dividing them by the dry-lane 1.0 yields the
                # exact zero the reference where() produces.
                xp.less_equal(h, tol, out=safe)  # 1.0 on dry lanes
                xp.subtract(1.0, safe, out=wetf)  # 1.0 on wet lanes
                xp.maximum(h, safe, out=safe)  # where(wet, h, 1)
                xp.divide(hu, safe, out=u)
                xp.divide(hv, safe, out=v)
            xp.add(h, b, out=eta)
            # max(|u|, |v|) + sqrt(g h), dry lanes zeroed before the reduction
            # so they never win the max (member-wise identical to
            # ShallowWaterEnsembleState.max_wave_speeds).
            xp.abs(u, out=speed)
            xp.abs(v, out=celerity)
            xp.maximum(speed, celerity, out=speed)
            xp.multiply(h, g, out=celerity)
            xp.sqrt(celerity, out=celerity)
            xp.add(speed, celerity, out=speed)
            if not all_wet:
                xp.multiply(speed, wetf, out=speed)
            return speed.max(axis=(1, 2))

        def step(dt: np.ndarray) -> None:
            nonlocal all_wet
            for dest, source in y_lanes:
                dest[...] = source
            for run_sweep in sweeps:
                all_wet = run_sweep(all_wet)
            # dt arrives double from the CFL control plane; cast to the field
            # dtype so the update product matches step(), where a Python-float
            # dt combines with the fields at their own precision.
            dt_col = xp.asarray(dt, dtype=dtype)[:, None, None]
            # target += dt * (d_x + d_y), summed before the dt product like step().
            for target, part_x, part_y in updates:
                xp.add(part_x, part_y, out=rhs)
                xp.multiply(rhs, dt_col, out=rhs)
                xp.add(target, rhs, out=target)
            # On an all-wet state the positivity step (clip at zero, zero
            # dry momenta) is the identity; the first step that leaves a cell
            # at or below the tolerance runs it and ends the all-wet mode.
            all_wet = all_wet and bool(h.min() > dry_cell)
            if not all_wet:
                state.enforce_positivity()

        return speeds, step

    def run_ensemble(
        self,
        initial_state: ShallowWaterEnsembleState,
        end_time: float,
        gauges: list[Gauge] | None = None,
        max_steps: int = 1_000_000,
        record_max_eta: bool = True,
        gauge_cells: Sequence[tuple[int, int]] | None = None,
    ) -> EnsembleSimulationResult:
        """Advance a whole ensemble to ``end_time`` as one array program.

        Every iteration advances all still-running members of a block by one
        explicit Euler step (the grid lives in the last two axes); finished
        members receive ``dt = 0`` and stay bitwise frozen.  Each member uses
        its own CFL step, so its trajectory — and therefore its gauge
        observables — is elementwise identical to a scalar :meth:`run` of
        that member, whatever block it shares.  Ensembles of more than
        ``BLOCK_CELLS`` cells run as consecutive cache-sized sub-blocks
        (see :meth:`_integrate`).  :meth:`run` is the one-member case.
        """
        return self._integrate(
            initial_state.copy(), end_time, gauges, max_steps, record_max_eta, gauge_cells
        )

    def _integrate(
        self,
        state: ShallowWaterEnsembleState,
        end_time: float,
        gauges: list[Gauge] | None = None,
        max_steps: int = 1_000_000,
        record_max_eta: bool = True,
        gauge_cells: Sequence[tuple[int, int]] | None = None,
    ) -> EnsembleSimulationResult:
        """The time loop, on a state the caller hands over (advanced in place).

        An ensemble of more than ``BLOCK_CELLS // (nx * ny)`` members (at
        least one) is split into contiguous sub-blocks of that many members,
        each a basic-slice view of ``state`` run through the loop on its own
        (:meth:`_integrate_block`), so the fused workspace stays sized for
        one cache-resident block.  Members never interact, so the split is
        exact; sub-blocks that take fewer steps have their gauge series
        padded by repeating the last sample — what a finished (``dt = 0``)
        member records inside one block.
        """
        gauges = list(gauges or [])
        if gauge_cells is None:
            gauge_cells = [self.locate_cell(g.x, g.y) for g in gauges]
        elif len(gauge_cells) != len(gauges):
            raise ValueError("gauge_cells must supply one (i, j) pair per gauge")
        # Gauge cells as indices into the flattened (nx * ny) grid; raises on
        # a cell outside the grid.
        gauge_flat = np.ravel_multi_index(
            (
                np.array([i for i, _ in gauge_cells], dtype=np.intp),
                np.array([j for _, j in gauge_cells], dtype=np.intp),
            ),
            (self.nx, self.ny),
        )
        batch = state.batch_size
        block = max(1, BLOCK_CELLS // (self.nx * self.ny))
        if batch <= block:
            return self._integrate_block(
                state, end_time, gauges, gauge_flat, max_steps, record_max_eta
            )

        parts = [
            self._integrate_block(
                ShallowWaterEnsembleState(
                    *(f[start : start + block] for f in (state.h, state.hu, state.hv, state.b)),
                    dry_tolerance=state.dry_tolerance,
                ),
                end_time, gauges, gauge_flat, max_steps, record_max_eta,
            )
            for start in range(0, batch, block)
        ]
        xp = self._xp
        samples = max(part.gauge_times.shape[1] for part in parts)

        def joined(name: str) -> np.ndarray:
            arrays = [getattr(part, name) for part in parts]
            if name.startswith("gauge_"):  # pad with the last sample
                arrays = [
                    xp.concatenate([a, xp.broadcast_to(
                        a[:, -1:], (a.shape[0], samples - a.shape[1]) + a.shape[2:]
                    )], axis=1)
                    for a in arrays
                ]
            return xp.concatenate(arrays)

        return EnsembleSimulationResult(
            state=state,
            gauges=gauges,
            num_timesteps=joined("num_timesteps"),
            simulated_time=joined("simulated_time"),
            dof_updates=joined("dof_updates"),
            gauge_times=joined("gauge_times"),
            gauge_values=joined("gauge_values"),
            max_eta_field=joined("max_eta_field"),
        )

    def _integrate_block(
        self,
        state: ShallowWaterEnsembleState,
        end_time: float,
        gauges: list[Gauge],
        gauge_flat: np.ndarray,
        max_steps: int,
        record_max_eta: bool,
    ) -> EnsembleSimulationResult:
        """The time loop over one block (advanced in place).

        Steps through the fused kernels (:meth:`_fused_plan`) when
        :meth:`_fused_eligible` holds and through the generic
        :meth:`step` / :meth:`ShallowWaterEnsembleState.max_wave_speeds`
        otherwise; either way the control plane below is the same.  A member
        runs while its step ``min(CFL step, end_time - t)`` is positive —
        which also means ``t < end_time`` — and once stopped it stays
        stopped (``dt = 0`` leaves it unchanged), so the block's iteration
        count is the step count of its longest member and ``max_steps``
        bounds the loop itself.  Each step gathers only the depths at the
        gauge cells; the anomalies are computed once, on the stacked series.
        """
        xp = self._xp
        batch = state.batch_size
        tol = self.dry_tolerance
        cells = self.nx * self.ny

        # Gauge depths are read through the flattened grid (``gauge_flat``):
        # one take() per step instead of a two-array fancy index.
        def gauge_depths() -> np.ndarray:
            return state.h.reshape(batch, cells).take(gauge_flat, axis=1)  # (B, G)

        # The time-stepping control plane stays double: dt derives from
        # double wave speeds, so double times/steps are what keeps per-member
        # trajectories elementwise identical at any field dtype.
        times = xp.zeros(batch, dtype=xp.float64)
        series_times, series_dt, series_h = [times], [], [gauge_depths()]
        max_eta = xp.zeros_like(state.h) if record_max_eta else xp.zeros((0, 0, 0))
        if self._fused_eligible(state):
            max_speeds, advance = self._fused_plan(state)
        else:
            def max_speeds():
                return state.max_wave_speeds(self.gravity)

            def advance(dt):
                self.step(state, dt)
        # CFL step cfl * min(dx, dy) / speed, member-wise identical to
        # stable_timestep(); all-dry members take the same fallback step.
        cfl_width = self.cfl * min(self.dx, self.dy)
        fallback = 0.1 * min(self.dx, self.dy)

        for _ in range(max_steps):
            speeds = xp.asarray(max_speeds(), dtype=xp.float64)
            moving = speeds > 0.0
            dts = xp.where(moving, cfl_width / xp.where(moving, speeds, 1.0), fallback)
            dts = xp.minimum(dts, end_time - times)
            dts = xp.where(dts > 0.0, dts, 0.0)  # stopped members: dt = 0
            if not bool(dts.any()):
                break
            advance(dts)
            times = times + dts  # a fresh array: safe to keep in the series
            series_dt.append(dts)
            series_times.append(times)
            series_h.append(gauge_depths())
            if record_max_eta:
                wet = state.h > tol
                anomaly = xp.where(wet, state.free_surface, 0.0)
                xp.maximum(max_eta, anomaly, out=max_eta)

        steps = xp.zeros(batch, dtype=xp.int64)
        if series_dt:
            steps += xp.count_nonzero(xp.stack(series_dt, axis=1), axis=1)
        # Sea-surface-height anomalies against the initial free surface;
        # (h + b)[:, i, j] == h[:, i, j] + b[:, i, j] exactly, so indexing the
        # static bathymetry at the gauges equals gathering the free surface.
        gauge_b = state.b.reshape(batch, cells).take(gauge_flat, axis=1)[:, None]  # (B, 1, G)
        heights = xp.stack(series_h, axis=1)  # (B, S + 1, G)
        wet = heights > tol
        surface = heights + gauge_b
        reference_eta = xp.where(wet[:, :1], surface[:, :1], 0.0)
        return EnsembleSimulationResult(
            state=state,
            gauges=gauges,
            num_timesteps=steps,
            simulated_time=times,
            dof_updates=steps * self.nx * self.ny * 4,
            gauge_times=xp.stack(series_times, axis=1),
            gauge_values=xp.where(wet, surface - reference_eta, 0.0),
            max_eta_field=max_eta,
        )
