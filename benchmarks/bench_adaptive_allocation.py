"""Adaptive vs fixed sample allocation at matched statistical quality.

The continuation policy (:mod:`repro.core.allocation`) claims to spend a
sampling budget better than a hand-set plan: pilot the ladder coarse-heavy,
measure per-level correction variances and costs, then push samples where
``sqrt(V_l / C_l)`` says they buy the most variance reduction.  This
benchmark puts a number on that claim with the Poisson hierarchy:

1. run the scenario's **fixed** plan (the hand-set ``num_samples`` ladder)
   and record its realized estimator variance,
2. run the **adaptive** policy with ``cost_cap`` set to exactly the fixed
   plan's priced work — same hierarchy, same seed, same budget of work,
3. price both realized sample plans with the *same* deterministic per-sample
   costs (the paper's reported per-level solve times, the cost model the
   scenario declares via ``cost_per_level: "poisson-paper"``), so machine
   timing noise cannot tilt the comparison — both the policy's decisions and
   this benchmark's accounting live in one deterministic currency.

At equal cost the adaptive run should deliver a lower estimator variance,
because the fixed plan's ratio of fine to coarse samples is not the
variance-optimal ``N_l ∝ sqrt(V_l / C_l)`` split for the measured ladder.
``variance_ratio`` below 1.0 at ``cost_ratio`` at most 1.0 is the success
criterion (the cap-respecting floor allocation keeps the adaptive spend at
or under the fixed one).

Results are written to ``BENCH_adaptive_allocation.json`` at the repo root.
Runnable standalone::

    python benchmarks/bench_adaptive_allocation.py            # full ladder
    python benchmarks/bench_adaptive_allocation.py --quick    # CI smoke
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
if __package__ in (None, ""):  # executed as a plain script
    sys.path.insert(0, str(_ROOT))
    sys.path.insert(0, str(_ROOT / "src"))

import numpy as np

from benchmarks.conftest import print_rows
from repro.core import POISSON_PAPER_COSTS
from repro.experiments import get_scenario, run_scenario

SCENARIO = "poisson-adaptive"

#: adaptive-run budget knobs (the cost_cap is measured, not configured)
FULL_BUDGET = {"pilot": [64, 16, 8], "max_rounds": 8}
QUICK_BUDGET = {"pilot": [8, 4, 2], "max_rounds": 4}


def _estimator_variance(result) -> float:
    """``sum_l V_l / N_l`` from the streamed correction variances."""
    total = 0.0
    for collection in result.corrections:
        variance = collection.variance()
        if variance.size and len(collection) > 0:
            total += float(np.mean(variance)) / len(collection)
    return total


def _summary(result, prices: list[float]) -> dict:
    """One run's realized plan, priced with the given per-sample costs.

    ``work_units`` is the comparison currency (realized samples times the
    shared deterministic prices); ``spent_cost`` echoes the run's own
    allocation ledger, whose currency depends on the run's cost source.
    """
    samples = [len(collection) for collection in result.corrections]
    work = sum(n * c for n, c in zip(samples, prices))
    return {
        "samples_per_level": [int(n) for n in samples],
        "estimator_variance": _estimator_variance(result),
        "work_units": float(work),
        "spent_cost": float(result.allocation_rounds[-1].spent_cost),
        "model_evaluations": [int(n) for n in result.model_evaluations],
        "allocation_rounds": len(result.allocation_rounds),
    }


def run(quick: bool) -> dict:
    base = get_scenario(SCENARIO).resolved(quick=quick)

    fixed_spec = replace(base, budget={})
    fixed = run_scenario(fixed_spec).raw
    # One deterministic currency for the cap, the policy's decisions and the
    # accounting below: the paper's reported per-level solve times.
    prices = [float(c) for c in POISSON_PAPER_COSTS[: len(fixed.corrections)]]
    cost_cap = sum(
        len(collection) * price
        for collection, price in zip(fixed.corrections, prices)
    )

    budget = dict(QUICK_BUDGET if quick else FULL_BUDGET)
    budget.update({"policy": "adaptive", "cost_cap": cost_cap})
    adaptive_spec = replace(base, budget=budget)
    adaptive = run_scenario(adaptive_spec).raw

    fixed_summary = _summary(fixed, prices)
    adaptive_summary = _summary(adaptive, prices)
    variance_ratio = adaptive_summary["estimator_variance"] / max(
        fixed_summary["estimator_variance"], 1e-300
    )
    cost_ratio = adaptive_summary["work_units"] / max(
        fixed_summary["work_units"], 1e-300
    )
    return {
        "benchmark": "adaptive_allocation",
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "quick": quick,
        "scenario": SCENARIO,
        "spec_hash": adaptive_spec.hash(),
        "seed": int(base.seed),
        "sampler": base.sampler,
        "budget": budget,
        "cost_cap_s": cost_cap,
        "cost_prices_per_sample_s": prices,
        "results": {"fixed": fixed_summary, "adaptive": adaptive_summary},
        "variance_ratio": float(variance_ratio),
        "cost_ratio": float(cost_ratio),
        # strictly lower variance while spending at most the fixed plan's
        # priced work
        "met_target": bool(variance_ratio < 1.0 and cost_ratio <= 1.0),
    }


def report(payload: dict) -> None:
    rows = []
    for policy in ("fixed", "adaptive"):
        entry = payload["results"][policy]
        rows.append(
            {
                "policy": policy,
                "samples/level": entry["samples_per_level"],
                "estimator var": entry["estimator_variance"],
                "priced work [s]": entry["work_units"],
                "fine solves": entry["model_evaluations"][-1],
                "rounds": entry["allocation_rounds"],
            }
        )
    print_rows("Poisson ladder — fixed plan vs continuation allocation", rows)
    print(
        f"\nat {payload['cost_ratio']:.2f}x the fixed plan's priced cost, "
        f"the adaptive run delivers {payload['variance_ratio']:.2f}x its "
        f"estimator variance (met_target={payload['met_target']})"
    )


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI mode: the scenario's quick tier (validates the harness; "
        "pilot-sized sample counts mean the ratios are not gated)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=_ROOT / "BENCH_adaptive_allocation.json",
        help="output JSON path (default: repo root)",
    )
    args = parser.parse_args(argv)
    payload = run(quick=args.quick)
    report(payload)
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.output}")


if __name__ == "__main__":
    main()
