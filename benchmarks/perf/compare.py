"""Compare two ``results.json`` files written by ``run.py --out``.

    python3 benchmarks/perf/compare.py A/results.json B/results.json [--layers]

One row per (workload, end-to-end metric): both medians, the ratio B / A
(base: A) and the metric's bound.  Exits non-zero when a metric of B is
worse than A's by more than its bound, or when ``failed_frac`` rose.
``--layers`` adds the per-layer rows (no bounds) and, when both files were
measured with the same benchmark seed, whether the counts that must repeat
exactly did.
"""

from __future__ import annotations

import argparse
import json
import sys

import metrics
import workloads

#: repeat exactly for a fixed seed wherever one process does all the work
EXACT_COUNTS = (
    "core.chain_steps",
    "evaluation.requests",
    "evaluation.batch_calls",
    *(f"evaluation.model_evals_l{level}" for level in metrics.LEVELS),
)
#: repeat exactly on the simulated machine (virtual time, no OS scheduling)
EXACT_ROLE_COUNTS = (
    "parallel.roles.messages_sent",
    "parallel.roles.events_processed",
    "parallel.roles.virtual_makespan_s",
    "parallel.roles.rebalances",
    *(f"parallel.roles.samples_generated_l{level}" for level in metrics.LEVELS),
)


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _ratio(a: float, b: float) -> str:
    return f"{b / a:8.3f}" if a else "     n/a"


def compare(a: dict, b: dict, layers: bool) -> int:
    regressions = 0
    bounds = a["bounds"]
    print(f"{'workload':<15} {'metric':<40} {'A':>12} {'B':>12} {'B/A':>8} {'bound':>6}")
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(name)
        if entry_b is None:
            print(f"{name:<15} missing from B")
            continue
        for metric, _unit, better, _bound in metrics.END_TO_END:
            stats_a = entry_a.get("end_to_end", {}).get(metric)
            stats_b = entry_b.get("end_to_end", {}).get(metric)
            if stats_a is None or stats_b is None:
                continue
            med_a, med_b = stats_a["median"], stats_b["median"]
            bound = bounds[metric]
            worse = med_b / med_a - 1.0 if better == "lower" else med_a / med_b - 1.0
            verdict = "REGRESSION" if worse > bound else ""
            regressions += bool(verdict)
            print(f"{name:<15} {metric:<40} {med_a:>12.4f} {med_b:>12.4f} "
                  f"{_ratio(med_a, med_b)} {bound:>6.2f} {verdict}")
        rose = entry_b["failed_frac"] > entry_a["failed_frac"]
        regressions += rose
        print(f"{name:<15} {'failed_frac':<40} {entry_a['failed_frac']:>12.4f} "
              f"{entry_b['failed_frac']:>12.4f} {'':>8} {'rise':>6} "
              f"{'REGRESSION' if rose else ''}")
        if layers:
            _compare_layers(name, entry_a, entry_b, a, b)
    return regressions


def _compare_layers(name: str, entry_a: dict, entry_b: dict, a: dict, b: dict) -> None:
    layers_a = entry_a.get("per_layer", {})
    layers_b = entry_b.get("per_layer", {})
    for metric, _unit, _better, _source in metrics.PER_LAYER:
        if metric in layers_a and metric in layers_b:
            value_a, value_b = layers_a[metric], layers_b[metric]
            print(f"{name:<15} {metric:<40} {value_a:>12.6g} {value_b:>12.6g} "
                  f"{_ratio(value_a, value_b)}")
    if a["fingerprint"]["benchmark_seed"] != b["fingerprint"]["benchmark_seed"]:
        return  # different inputs: nothing has to repeat
    exact = ["mean_sha"]
    if workloads.WORKLOADS[name].transport is None:
        exact += EXACT_COUNTS
    if name == "gaussian_sim":
        exact += EXACT_ROLE_COUNTS
    for metric in exact:
        pair = tuple(
            {
                "mean_sha": entry.get("mean_sha"),
                **entry.get("counters", {}),
                **entry.get("per_layer", {}),
            }.get(metric)
            for entry in (entry_a, entry_b)
        )
        if None in pair:
            continue
        verdict = "exact repeat" if pair[0] == pair[1] else "DIFFERS"
        print(f"{name:<15} {metric:<40} {pair[0]!s:>12} {pair[1]!s:>12} {verdict}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="baseline results.json")
    parser.add_argument("b", help="candidate results.json")
    parser.add_argument("--layers", action="store_true",
                        help="add per-layer rows and the exact-repeat report")
    args = parser.parse_args(argv)
    regressions = compare(_load(args.a), _load(args.b), args.layers)
    print(f"{regressions} regression(s) beyond the bounds")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
