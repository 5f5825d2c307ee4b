"""Rebuild ``references.json``: across-seed statistics of the estimator workloads.

    python3 benchmarks/perf/references.py [--seeds 32]

For every estimator workload this runs the workload, at its benchmark size,
over ``--seeds`` seeds that the benchmark itself does not use by default
(offset 1000) and stores

* ``mean`` / ``sigma`` — mean and standard deviation of the estimate over
  those seeds (reference workloads only; the Gaussian ones have
  ``exact_mean()``), the yardstick of the "within 6 sigma" output check;
* ``mse_ref`` — the median ``mean(estimator_variance())``, the constant that
  makes ``core.time_to_mse_s`` equal ``wall_s`` on a typical seed.

Takes about ten minutes on two cores.  Rerun it only when a workload's
definition (or the sampler's statistics, on purpose) changes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

SEED_OFFSET = 1000


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=32)
    args = parser.parse_args(argv)

    import numpy as np
    from repro.experiments import run_scenario

    import workloads

    references: dict[str, dict] = {}
    for name, workload in workloads.WORKLOADS.items():
        if workload.check == "batch" or workload.twin is not None:
            continue  # no estimator / shares its twin's reference
        means, variances = [], []
        for seed in range(SEED_OFFSET, SEED_OFFSET + args.seeds):
            (spec,) = workloads.build_specs(name, seed)
            run = run_scenario(spec)
            estimate = run.raw.estimate
            means.append(np.asarray(estimate.mean, dtype=float))
            variances.append(float(np.mean(estimate.estimator_variance())))
            print(f"{name} seed {seed}: est_var {variances[-1]:.4g}", flush=True)
        stack = np.stack(means)
        entry: dict = {
            "num_seeds": args.seeds,
            "num_samples": spec.sampler["num_samples"],
            "mse_ref": statistics.median(variances),
        }
        if workload.check == "exact":
            exact = np.asarray(run.factory.exact_mean(), dtype=float)
            entry["worst_abs_error"] = float(np.abs(stack - exact).max())
            print(f"{name}: worst |mean - exact| {entry['worst_abs_error']:.3f}", flush=True)
        if workload.check == "reference":
            entry["mean"] = stack.mean(axis=0).tolist()
            entry["sigma"] = stack.std(axis=0, ddof=1).tolist()
            # leave-one-out: how far the most unusual seed sits from the rest,
            # in the statistic checks.py gates (median over components)
            worst = 0.0
            for i in range(args.seeds):
                rest = np.delete(stack, i, axis=0)
                z = np.abs(stack[i] - rest.mean(axis=0)) / rest.std(axis=0, ddof=1)
                worst = max(worst, float(np.median(z)))
            entry["worst_leave_one_out_sigmas"] = worst
            print(f"{name}: worst leave-one-out distance {worst:.2f} sigma", flush=True)
        references[name] = entry

    path = Path(__file__).with_name("references.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(references, handle, indent=1)
        handle.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
