"""FEM hot-path benchmark: per-sample assemble / apply-BC / solve / observe.

Times one Poisson forward evaluation phase by phase on the paper's level
sizes (up to 257 x 257 nodes), comparing the seed implementation against the
plan-based banded solve path:

* **seed** — rebuild COO triplets per sample (:func:`assemble_diffusion_system`),
  eliminate Dirichlet rows/columns via the original ``tolil()`` + Python-loop
  routine (reproduced below verbatim, since the library version has since been
  vectorized), ``spsolve`` the full system, then evaluate observation points
  one ``grid.locate`` call at a time.
* **fast** — write the coefficient field straight into LAPACK lower band
  storage of the reduced SPD interior system and build its right-hand side
  (``AssemblyPlan.band_systems``: two sparse products), solve it by banded
  Cholesky (``?pbsv``), then expand to all nodes and apply the cached sparse
  observation operator.
* **fast float32** — the same path on a single-precision assembly plan
  (``PoissonSolver(grid, dtype=np.float32)``), the solver's float32 rung
  (every model runs in float64).  Observations are compared against
  the double fast path with a loose tolerance (round-off, not bit equality).

Results are appended-by-overwrite to ``BENCH_fem_hotpath.json`` at the repo
root so the performance trajectory accumulates across PRs.  Runnable
standalone::

    python benchmarks/bench_fem_hotpath.py            # full: meshes 16/64/256
    python benchmarks/bench_fem_hotpath.py --quick    # CI: meshes 16/64, 1 repeat
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
import scipy.sparse.linalg as spla
from scipy.linalg import get_lapack_funcs

from benchmarks.conftest import print_rows
from repro.fem.assembly import assemble_diffusion_system
from repro.fem.grid import StructuredGrid
from repro.fem.poisson import PoissonSolver
from repro.models.poisson import PAPER_OBSERVATION_COORDS

SEED = 42
DEFAULT_MESH_SIZES = (16, 64, 256)
QUICK_MESH_SIZES = (16, 64)


def _seed_apply_dirichlet(matrix, rhs, nodes, values):
    """The seed repository's Dirichlet elimination (tolil + Python loop)."""
    values = np.broadcast_to(np.asarray(values, dtype=float), nodes.shape)
    matrix = matrix.tocsc(copy=True)
    rhs = np.array(rhs, dtype=float, copy=True)
    rhs -= matrix[:, nodes] @ values
    matrix = matrix.tolil()
    matrix[nodes, :] = 0.0
    matrix[:, nodes] = 0.0
    for node, value in zip(nodes, values):
        matrix[node, node] = 1.0
        rhs[node] = value
    return matrix.tocsr(), rhs


def _observation_points() -> np.ndarray:
    coords = np.asarray(PAPER_OBSERVATION_COORDS, dtype=float)
    grid_x, grid_y = np.meshgrid(coords, coords, indexing="ij")
    return np.stack([grid_x.ravel(), grid_y.ravel()], axis=-1)


def _best_of(repeats: int, fn) -> tuple[float, object]:
    """Minimum wall time over ``repeats`` calls plus the last return value."""
    best = np.inf
    value = None
    for _ in range(repeats):
        tic = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - tic)
    return best, value


def _fast_phases(solver: PoissonSolver, kappa, points, repeats: int):
    """Best-of timings of band assembly + rhs, ``?pbsv`` and expand + observe."""
    plan = solver.plan
    block = kappa[None, :]
    t_assemble, (band, rhs) = _best_of(
        repeats, lambda: next(plan.band_systems(block, solver._lifting))
    )
    pbsv = get_lapack_funcs("pbsv", dtype=solver.dtype)
    # No overwrite flags: every repeat factors a fresh copy of the band.
    t_solve, (_, u_interior, info) = _best_of(
        repeats, lambda: pbsv(band, rhs, lower=1)
    )
    assert info == 0, info
    operator = solver._cached_observation_operator(points)
    t_observe, observed = _best_of(
        repeats,
        lambda: operator @ plan.expand(u_interior, solver._dirichlet_values),
    )
    return t_assemble, t_solve, t_observe, observed


def bench_mesh(mesh_size: int, repeats: int) -> dict:
    """Phase timings of one per-sample forward evaluation on one mesh."""
    grid = StructuredGrid(mesh_size)
    rng = np.random.default_rng(SEED)
    kappa = np.exp(rng.normal(0.0, 1.0, size=grid.num_elements))
    points = _observation_points()

    tic = time.perf_counter()
    solver = PoissonSolver(grid)
    plan_build = time.perf_counter() - tic
    nodes, values = solver._dirichlet_nodes, solver._dirichlet_values

    # -- seed path, phase by phase --------------------------------------
    t_assemble, (stiffness, load) = _best_of(
        repeats, lambda: assemble_diffusion_system(grid, kappa)
    )
    t_apply_bc, (eliminated, rhs) = _best_of(
        repeats, lambda: _seed_apply_dirichlet(stiffness, load, nodes, values)
    )
    eliminated_csc = eliminated.tocsc()
    t_solve_seed, u_seed = _best_of(repeats, lambda: spla.spsolve(eliminated_csc, rhs))
    t_observe_seed, obs_seed = _best_of(repeats, lambda: solver.evaluate(u_seed, points))

    # -- fast path, phase by phase --------------------------------------
    t_assemble_bc_fast, t_solve_fast, t_observe_fast, obs_fast = _fast_phases(
        solver, kappa, points, repeats
    )

    max_diff = float(np.abs(obs_fast - obs_seed).max())
    if max_diff > 1e-9:
        raise AssertionError(
            f"fast path diverged from seed path on mesh {mesh_size}: {max_diff:.3e}"
        )

    # -- fast path on the solver's float32 rung --------------------------
    t_assemble_bc_f32, t_solve_f32, t_observe_f32, obs_f32 = _fast_phases(
        PoissonSolver(grid, dtype=np.float32), kappa, points, repeats
    )

    f32_total = t_assemble_bc_f32 + t_solve_f32 + t_observe_f32
    f32_diff = float(np.abs(np.asarray(obs_f32, dtype=np.float64) - obs_fast).max())
    scale = float(np.abs(obs_fast).max()) or 1.0
    if f32_diff > 5e-2 * scale:
        raise AssertionError(
            f"float32 fast path diverged beyond round-off on mesh {mesh_size}: "
            f"{f32_diff:.3e} (scale {scale:.3e})"
        )

    seed_total = t_assemble + t_apply_bc + t_solve_seed + t_observe_seed
    fast_total = t_assemble_bc_fast + t_solve_fast + t_observe_fast
    return {
        "mesh_size": mesh_size,
        "nodes": grid.num_nodes,
        "plan_build_seconds": plan_build,
        "seed": {
            "assemble": t_assemble,
            "apply_bc": t_apply_bc,
            "solve": t_solve_seed,
            "observe": t_observe_seed,
            "total": seed_total,
        },
        "fast": {
            "assemble_bc": t_assemble_bc_fast,
            "solve": t_solve_fast,
            "observe": t_observe_fast,
            "total": fast_total,
        },
        "fast_float32": {
            "assemble_bc": t_assemble_bc_f32,
            "solve": t_solve_f32,
            "observe": t_observe_f32,
            "total": f32_total,
        },
        "speedup": {
            "assemble_bc": (t_assemble + t_apply_bc) / t_assemble_bc_fast,
            "solve": t_solve_seed / t_solve_fast,
            "observe": t_observe_seed / t_observe_fast,
            "end_to_end": seed_total / fast_total,
            "float32_vs_float64": fast_total / f32_total,
        },
        "max_abs_observation_diff": max_diff,
        "float32_max_abs_observation_diff": f32_diff,
    }


def run(mesh_sizes, repeats: int, quick: bool) -> dict:
    results = [bench_mesh(mesh_size, repeats) for mesh_size in mesh_sizes]
    return {
        "benchmark": "fem_hotpath",
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "quick": quick,
        "repeats": repeats,
        "results": results,
    }


def report(payload: dict) -> None:
    rows = []
    for entry in payload["results"]:
        rows.append(
            {
                "mesh": f"{entry['mesh_size'] + 1}x{entry['mesh_size'] + 1}",
                "seed asm+bc [s]": entry["seed"]["assemble"] + entry["seed"]["apply_bc"],
                "fast asm+bc [s]": entry["fast"]["assemble_bc"],
                "seed total [s]": entry["seed"]["total"],
                "fast total [s]": entry["fast"]["total"],
                "f32 total [s]": entry["fast_float32"]["total"],
                "asm+bc speedup": entry["speedup"]["assemble_bc"],
                "solve speedup": entry["speedup"]["solve"],
                "end-to-end speedup": entry["speedup"]["end_to_end"],
                "f32/f64": entry["speedup"]["float32_vs_float64"],
            }
        )
    print_rows("FEM hot path — seed vs banded solve path (per sample)", rows)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI mode: small meshes, one repeat (validates the harness, no timing gate)",
    )
    parser.add_argument(
        "--mesh-sizes", type=int, nargs="+", default=None, help="cells per direction"
    )
    parser.add_argument("--repeats", type=int, default=None, help="timing repeats per phase")
    parser.add_argument(
        "--output",
        type=Path,
        default=_ROOT / "BENCH_fem_hotpath.json",
        help="output JSON path (default: repo root)",
    )
    args = parser.parse_args(argv)

    mesh_sizes = args.mesh_sizes or (QUICK_MESH_SIZES if args.quick else DEFAULT_MESH_SIZES)
    repeats = args.repeats or (1 if args.quick else 3)
    payload = run(mesh_sizes, repeats, quick=args.quick)
    report(payload)
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.output}")


if __name__ == "__main__":
    main()
