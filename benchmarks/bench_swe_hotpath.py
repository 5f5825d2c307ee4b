"""SWE hot-path benchmark: ``B`` one-member forward solves vs one ``B``-member ensemble.

Times the tsunami forward map on the paper's Table-2 hierarchy at one-third
scale (25 / 79 / 241 cells -> 8 / 24 / 72, same bathymetry treatments),
comparing

* **scalar** — one :meth:`TohokuLikeScenario.observe` call per source, i.e.
  ``B`` runs of the fused time loop at batch size 1 (what every MCMC step
  pays), against
* **ensemble** — one :meth:`TohokuLikeScenario.observe_batch` call for the
  whole source block, which advances all members as one ``(B, nx, ny)``
  array program through the *same* loop and kernels with per-member CFL
  steps, and
* **ensemble (float32)** — the same batched solve with single-precision
  fields (``TohokuLikeScenario(dtype=np.float32)``, the solver's float32
  rung; every model runs in float64): half the memory traffic on a
  bandwidth-bound kernel, observables still promoted to double at the gauge
  boundary.

The paper-proportioned hierarchy matters for interpreting the numbers: with the
paper's subsampling rates ``rho_l = [-, 25, 5]`` the coarse and middle
chains run roughly an order of magnitude more forward solves than the finest
chain, so the grids where MLMCMC actually spends its solves are the coarse
ones — exactly where batching pays most (the per-member solver overhead
amortises across the ensemble, while very fine grids become bandwidth-bound
and the gain tapers off; both regimes are recorded).

There is one time loop, so ``per_sample_speedup`` is the like-for-like price
of batch size 1 — the per-step interpreter dispatch an ensemble amortises
over its members — not a fast path against a slow one, and
``max_abs_observation_diff`` is *batch-size invariance* of that loop (each
member's result does not depend on who shares its block), asserted to be
exactly 0.0 because the loop is elementwise identical at any block size.
That the loop
computes the right thing is pinned elsewhere: ``tests/test_swe_solver.py``
compares it bitwise with a loop over the generic ``step()`` kernels.

Both sides run over the cached :class:`~repro.swe.scenario.ScenarioPlan`
(treated bathymetry, gauge cells, IC grids), so the comparison isolates the
time loop itself.  A full run overwrites ``BENCH_swe_hotpath.json`` at the
repo root (or ``--output``) so the performance trajectory accumulates across
versions; a quick run writes only to the path given by ``--output``, never to
the tracked full-mode file.  Runnable standalone::

    python benchmarks/bench_swe_hotpath.py            # full: levels 0/1/2, B=16
    python benchmarks/bench_swe_hotpath.py --quick --output /tmp/swe.json  # CI: levels 0/1, B=4
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
if __package__ in (None, ""):  # executed as a plain script
    sys.path.insert(0, str(_ROOT))
    sys.path.insert(0, str(_ROOT / "src"))

import numpy as np

from benchmarks.conftest import print_rows
from repro.swe.scenario import LevelConfiguration, TohokuLikeScenario

SEED = 7
DEFAULT_BATCH_SIZE = 16
QUICK_BATCH_SIZE = 4
DEFAULT_END_TIME = 1800.0
QUICK_END_TIME = 900.0

#: the paper's Table-2 hierarchy (25 / 79 / 241 cells, constant / smoothed /
#: full bathymetry) at one-third scale — proportions preserved so the rows
#: reflect where MLMCMC's subsampled chains actually spend their solves
BENCH_LEVEL_CONFIGS = (
    LevelConfiguration(level=0, num_cells=8, bathymetry_treatment="constant", limiter=False),
    LevelConfiguration(level=1, num_cells=24, bathymetry_treatment="smoothed", limiter=True,
                       smoothing_passes=4),
    LevelConfiguration(level=2, num_cells=72, bathymetry_treatment="full", limiter=True),
)


def _scenario(num_levels: int, end_time: float, dtype=None) -> TohokuLikeScenario:
    """The benchmark hierarchy (truncated to ``num_levels``)."""
    return TohokuLikeScenario(
        level_configs=BENCH_LEVEL_CONFIGS[:num_levels],
        end_time=end_time,
        dtype=dtype,
    )


def _source_block(scenario: TohokuLikeScenario, batch_size: int) -> np.ndarray:
    """A deterministic block of physical source locations (km offsets)."""
    rng = np.random.default_rng(SEED)
    block = np.empty((0, 2))
    while block.shape[0] < batch_size:
        draws = rng.normal(0.0, 15.0, size=(4 * batch_size, 2))
        block = np.concatenate([block, draws[scenario.physical_mask(draws)]])
    return block[:batch_size]


def bench_level(
    scenario: TohokuLikeScenario,
    scenario_f32: TohokuLikeScenario,
    level: int,
    thetas: np.ndarray,
    repeats: int,
) -> dict:
    """Timings of one level's forward solves: B x (B=1) vs one B-member ensemble (vs float32).

    All measurements are interleaved per repeat (and the best of each kept)
    so every path samples the same machine conditions — back-to-back blocks
    would let one slow scheduling window bias the ratios.
    """
    tic = time.perf_counter()
    plan = scenario.plan(level)
    plan_build = time.perf_counter() - tic
    batch_size = thetas.shape[0]
    num_gauges = len(scenario.gauges)

    scenario.simulate_batch(level, thetas)  # warm the ensemble workspaces
    scenario_f32.simulate_batch(level, thetas)
    t_scalar = t_ensemble = t_f32 = np.inf
    scalar = result = result_f32 = None
    for _ in range(repeats):
        tic = time.perf_counter()
        scalar = np.stack([scenario.observe(level, theta) for theta in thetas])
        t_scalar = min(t_scalar, time.perf_counter() - tic)
        tic = time.perf_counter()
        result = scenario.simulate_batch(level, thetas)
        t_ensemble = min(t_ensemble, time.perf_counter() - tic)
        tic = time.perf_counter()
        result_f32 = scenario_f32.simulate_batch(level, thetas)
        t_f32 = min(t_f32, time.perf_counter() - tic)
    ensemble = result.wave_observables()
    ensemble_f32 = result_f32.wave_observables()

    max_diff = float(np.abs(ensemble - scalar).max())
    if max_diff != 0.0:  # the loop is elementwise identical across block sizes
        raise AssertionError(
            f"ensemble rows depend on the batch size on level {level}: {max_diff:.3e}"
        )
    # float32 fields accumulate round-off over thousands of steps; heights
    # must stay close, the time-of-max may shift by a few CFL steps when two
    # crests are nearly level.
    f32_diff = np.abs(ensemble_f32 - ensemble)
    f32_height_diff = float(f32_diff[:, :num_gauges].max())
    f32_time_diff = float(f32_diff[:, num_gauges:].max())
    if f32_height_diff > 0.05:
        raise AssertionError(
            f"float32 wave heights drifted beyond tolerance on level {level}: "
            f"{f32_height_diff:.3e} m"
        )
    return {
        "level": level,
        "num_cells": plan.solver.nx,
        "batch_size": batch_size,
        "timesteps": int(result.num_timesteps.max()),
        "plan_build_seconds": plan_build,
        "scalar": {"total": t_scalar, "per_sample": t_scalar / batch_size},
        "ensemble": {"total": t_ensemble, "per_sample": t_ensemble / batch_size},
        "ensemble_float32": {"total": t_f32, "per_sample": t_f32 / batch_size},
        "per_sample_speedup": t_scalar / t_ensemble,
        "float32_speedup_vs_scalar": t_scalar / t_f32,
        "float32_speedup_vs_float64_ensemble": t_ensemble / t_f32,
        "max_abs_observation_diff": max_diff,
        "float32_max_height_diff_m": f32_height_diff,
        "float32_max_time_diff_s": f32_time_diff,
    }


def run(num_levels: int, batch_size: int, end_time: float, repeats: int, quick: bool) -> dict:
    scenario = _scenario(num_levels, end_time)
    scenario_f32 = _scenario(num_levels, end_time, dtype=np.float32)
    thetas = _source_block(scenario, batch_size)
    results = [
        bench_level(scenario, scenario_f32, level, thetas, repeats)
        for level in range(scenario.num_levels)
    ]
    return {
        "benchmark": "swe_hotpath",
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "quick": quick,
        "repeats": repeats,
        "batch_size": batch_size,
        "end_time_s": end_time,
        "results": results,
    }


def report(payload: dict) -> None:
    rows = []
    for entry in payload["results"]:
        rows.append(
            {
                "level": entry["level"],
                "grid": f"{entry['num_cells']}x{entry['num_cells']}",
                "steps": entry["timesteps"],
                "scalar/sample [ms]": entry["scalar"]["per_sample"] * 1e3,
                "ensemble f64 [ms]": entry["ensemble"]["per_sample"] * 1e3,
                "ensemble f32 [ms]": entry["ensemble_float32"]["per_sample"] * 1e3,
                "f64 speedup": entry["per_sample_speedup"],
                "f32 speedup": entry["float32_speedup_vs_scalar"],
                "f32/f64": entry["float32_speedup_vs_float64_ensemble"],
            }
        )
    print_rows(
        f"SWE hot path — B one-member solves vs one ensemble solve (B = {payload['batch_size']})",
        rows,
    )


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI mode: two coarse levels, small batch, one repeat (no timing gate)",
    )
    parser.add_argument("--batch-size", type=int, default=None, help="ensemble size B")
    parser.add_argument("--repeats", type=int, default=None, help="timing repeats per path")
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="output JSON path (full mode defaults to BENCH_swe_hotpath.json at the "
        "repo root; quick mode writes only here)",
    )
    args = parser.parse_args(argv)

    num_levels = 2 if args.quick else 3
    batch_size = args.batch_size or (QUICK_BATCH_SIZE if args.quick else DEFAULT_BATCH_SIZE)
    end_time = QUICK_END_TIME if args.quick else DEFAULT_END_TIME
    repeats = args.repeats or (1 if args.quick else 3)
    payload = run(num_levels, batch_size, end_time, repeats, quick=args.quick)
    report(payload)
    output = args.output
    if output is None and not args.quick:
        output = _ROOT / "BENCH_swe_hotpath.json"
    if output is not None:
        output.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {output}")


if __name__ == "__main__":
    main()
