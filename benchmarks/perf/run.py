"""The repo's benchmark: seven named workloads, measured end to end and by layer.

    python3 benchmarks/perf/run.py                      # the six gated workloads, ~2 min
    python3 benchmarks/perf/run.py --workload poisson_seq --trace 0
    python3 benchmarks/perf/run.py --smoke              # plumbing check, < 60 s

Closed loop, one workload process at a time: every execution of a workload
is a fresh ``child.py`` process, started only after the previous one has
ended.  The untraced phase (``--trace 0``) repeats a workload until
``--seconds`` have passed (or exactly ``--repeats`` times) and reports the
median of each end-to-end metric.  The traced phase (``--trace 1``) runs the
workload once under the span wrappers of ``spans.py``, plus micro-timings
and, for the real-process workloads, launch-floor runs, and reports the
per-layer metrics.  Without ``--trace`` both phases run.

Every run is output-checked (``checks.py``); a run that raises, times out,
comes back degraded or fails a check counts in ``failed``.  When exactly one
workload and one phase are selected the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

DEFAULT_SECONDS = 15.0
#: a run is failed when it takes longer than this many times its expected wall
TIMEOUT_FACTOR = 10.0
#: added to every timeout: interpreter start, set-up, checks, micro-timings
TIMEOUT_ALLOWANCE_S = {"plain": 20.0, "floor": 20.0, "traced": 60.0}
FLOOR_REPEATS = 3
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SCALE_KNOBS = ("REPRO_BENCH_SCALE", "REPRO_BENCH_PAPER_SCALE")


# ----------------------------------------------------------------------------
# child processes
def _child_env() -> dict[str, str]:
    env = {key: value for key, value in os.environ.items() if key not in SCALE_KNOBS}
    env.update(dict.fromkeys(THREAD_PINS, "1"))
    return env


def run_child(name: str, seed: int, scale: float, mode: str, trace_file=None) -> dict:
    """Run one ``child.py`` to completion; never leaves a process behind.

    Returns the child's result with ``"ok"`` set, or ``{"ok": False,
    "failure": reason}`` when it raised, timed out or printed no result.
    """
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", name, "--seed", str(seed), "--scale", repr(scale), "--mode", mode,
    ]
    if trace_file is not None:
        command += ["--trace-file", str(trace_file)]
    timeout = (
        TIMEOUT_FACTOR * workloads.WORKLOADS[name].expected_wall_s
        + TIMEOUT_ALLOWANCE_S[mode]
    )
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=_child_env(), start_new_session=True,
    )
    try:
        out, err = process.communicate(timeout=timeout)
        failure = None
        if process.returncode != 0:
            last = err.strip().splitlines()[-1] if err.strip() else "no stderr"
            failure = f"exit code {process.returncode}: {last}"
    except subprocess.TimeoutExpired:
        failure = f"exceeded {timeout:.0f} s"
    if failure is not None:
        # The child leads its own session, so rank processes it left behind
        # die with its process group.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.communicate()
        return {"ok": False, "failure": failure, "mode": mode}
    try:
        result = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"ok": False, "failure": "child printed no result", "mode": mode}
    failed = sorted(k for k, passed in result["checks"].items() if not passed)
    result["ok"] = not failed
    if failed:
        result["failure"] = "failed output checks: " + ", ".join(failed)
    return result


# ----------------------------------------------------------------------------
# one workload
def _summary(values: list[float], unit: str) -> dict:
    return {
        "median": statistics.median(values), "min": min(values), "max": max(values),
        "n": len(values), "unit": unit, "values": values,
    }


def _untraced_repeats(name, seed, scale, seconds, repeats) -> list[dict]:
    runs: list[dict] = []
    start = time.perf_counter()
    while True:
        runs.append(run_child(name, seed, scale, "plain"))
        elapsed = time.perf_counter() - start
        if not runs[-1]["ok"]:
            break  # the result is void already; do not spend the budget retrying
        if repeats is not None:
            if len(runs) >= repeats:
                break
        elif elapsed + 0.5 * elapsed / len(runs) >= seconds:
            break  # the next repeat would overshoot the budget by more than half
    return runs


def measure(name, seed, scale, seconds, repeats, phases, out_dir, twin_runs) -> dict:
    """All runs of one workload and the metrics derived from them."""
    workload = workloads.WORKLOADS[name]
    operations: list[dict] = []
    entry: dict = {"why": workload.why, "operations": operations}

    if 0 in phases:
        plain = _untraced_repeats(name, seed, scale, seconds, repeats)
    else:
        plain = [run_child(name, seed, scale, "plain")]  # the traced run's base
    operations += plain
    good = [run for run in plain if run["ok"]]
    if good and 0 in phases:
        entry["end_to_end"] = {
            metric: _summary([run[metric] for run in good], unit)
            for metric, unit, _better, _bound in metrics.END_TO_END
        }

    twin_wall = None
    if workload.twin is not None:
        # The seeded estimate must not depend on the transport.
        twins = twin_runs if twin_runs else [run_child(workload.twin, seed, scale, "plain")]
        if not twin_runs:
            operations += twins
        twins = [run for run in twins if run["ok"]]
        if twins:
            twin_wall = statistics.median(run["wall_s"] for run in twins)
            for run in good:
                if run["mean_sha"] != twins[0]["mean_sha"]:
                    run["ok"] = False
                    run["failure"] = f"estimate differs bitwise from {workload.twin}"

    if 1 in phases and good:
        trace_file = out_dir / f"{name}.trace.json" if out_dir else None
        traced = run_child(name, seed, scale, "traced", trace_file)
        operations.append(traced)
        floors = []
        if workload.transport is not None:
            count = FLOOR_REPEATS if scale == 1.0 else 1
            floors = [run_child(name, seed, scale, "floor") for _ in range(count)]
            operations += floors
        if traced["ok"]:
            entry["per_layer"], entry["na"] = _per_layer(
                workload, good, traced, [f for f in floors if f["ok"]], twin_wall
            )

    reference = next((run for run in operations if run.get("mean_sha")), None)
    if reference is not None:
        entry["mean_sha"] = reference["mean_sha"]
        entry["counters"] = reference.get("layers", {})
        entry["fingerprint"] = reference["fingerprint"]
    entry["attempted"] = len(operations)
    entry["failed"] = sum(1 for run in operations if not run["ok"])
    entry["failed_frac"] = entry["failed"] / entry["attempted"]
    entry["failures"] = [run["failure"] for run in operations if not run["ok"]]
    return entry


def _per_layer(workload, base, traced, floors, twin_wall):
    """The traced child's layer metrics plus the ones that span several runs."""
    values = dict(traced["layers"])
    na = dict(traced["na"])
    base_wall = statistics.median(run["wall_s"] for run in base)
    values["harness.trace_overhead_frac"] = traced["wall_s"] / base_wall - 1.0

    est_var = values.get("core.est_var")
    reference = workloads.load_references().get(workload.twin or workload.name, {})
    mse_ref = reference.get("mse_ref")
    if est_var is not None and mse_ref:
        values["core.time_to_mse_s"] = base_wall * est_var / mse_ref

    if floors:
        floor = statistics.median(run["wall_s"] for run in floors)
        values[f"parallel.{workload.transport}.floor_s"] = floor
        values[f"parallel.{workload.transport}.steady_s"] = base_wall - floor
    if workload.transport == "net" and twin_wall is not None:
        # base: the multiprocess twin's wall in this same invocation
        values["parallel.net.job_tax_ratio"] = base_wall / twin_wall

    for metric in metrics.CROSS_RUN_METRICS:
        if metric not in values:
            na[metric] = metrics.NOT_REPORTED
    return values, na


# ----------------------------------------------------------------------------
# reporting
def _fingerprint(seed: int, scale: float, results: dict) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        if git.returncode == 0:
            commit = git.stdout.strip()
    child = next(
        (entry["fingerprint"] for entry in results.values() if "fingerprint" in entry), {}
    )
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        **child,
        "thread_pins": dict.fromkeys(THREAD_PINS, "1"),
        "git_commit": commit,
        "benchmark_seed": seed,
        "scale": scale,
    }


def _print_report(results: dict) -> None:
    for name, entry in results.items():
        print(f"== {name}: attempted {entry['attempted']}, failed {entry['failed']} "
              f"(failed_frac {entry['failed_frac']:.3f} ratio)")
        for failure in entry["failures"]:
            print(f"   FAILED: {failure}")
        for metric, stats in entry.get("end_to_end", {}).items():
            print(f"   {metric:<14} {stats['median']:>12.4f} {stats['unit']:<3} "
                  f"[min {stats['min']:.4f}, max {stats['max']:.4f}, n {stats['n']}]")
        if "per_layer" in entry:
            for metric, unit, _better, source in metrics.PER_LAYER:
                if metric in entry["per_layer"]:
                    print(f"   {metric:<40} {entry['per_layer'][metric]:>14.6g} {unit:<6} {source}")
                else:
                    print(f"   {metric:<40} {'n/a':>14} {'':<6} {source}  ({entry['na'][metric]})")
        if "mean_sha" in entry:
            print(f"   mean_sha {entry['mean_sha']}")


def _driver_line(entry: dict, phase: int) -> str:
    """The one-line result of a single-workload, single-phase invocation."""
    if phase == 0:
        values = {
            metric: {"value": stats["median"], "unit": stats["unit"]}
            for metric, stats in entry["end_to_end"].items()
        }
    else:
        # A metric without a value on this workload reads 0 here; the report
        # above and results.json carry the reason.
        values = {
            metric: {"value": entry["per_layer"].get(metric, 0.0), "unit": unit}
            for metric, unit, _better, _source in metrics.PER_LAYER
        }
    return json.dumps(
        {
            "correct": entry["failed"] == 0,
            "attempted": entry["attempted"],
            "failed": entry["failed"],
            "metrics": values,
        }
    )


def _smoke_problems(results: dict) -> list[str]:
    """What ``--smoke`` asserts beyond "no operation failed"."""
    problems = []
    for name, entry in results.items():
        if "per_layer" not in entry:
            problems.append(f"{name}: no per-layer metrics")
            continue
        for metric, _unit, _better, _source in metrics.PER_LAYER:
            if metric not in entry["per_layer"] and not entry["na"].get(metric):
                problems.append(f"{name}: {metric} has neither a value nor an n/a reason")
    descriptor = ROOT / "BENCHMARK.json"
    if descriptor.exists():
        with open(descriptor, encoding="utf-8") as handle:
            declared = json.load(handle)
        pairs = (
            ("workloads", [n for n, w in workloads.WORKLOADS.items() if w.declared]),
            ("end_to_end", [m[0] for m in metrics.END_TO_END]),
            ("per_layer", [m[0] for m in metrics.PER_LAYER]),
        )
        for key, expected in pairs:
            if [item["name"] for item in declared[key]] != expected:
                problems.append(f"BENCHMARK.json {key} disagree with benchmarks/perf")
    return problems


# ----------------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog="Workloads: " + ", ".join(workloads.WORKLOADS),
    )
    parser.add_argument("--workload", action="append", choices=list(workloads.WORKLOADS),
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=0,
                        help="added to every workload's base seed")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="time budget of one workload's untraced repeats")
    parser.add_argument("--repeats", type=int, default=None,
                        help="exact number of untraced repeats, instead of --seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: untraced phase only, 1: traced phase only")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for results.json and <workload>.trace.json")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at ~1/20 size, traced, with assertions")
    args = parser.parse_args(argv)

    # --smoke checks the plumbing of every workload, undeclared ones included
    names = args.workload or [
        name for name, w in workloads.WORKLOADS.items() if w.declared or args.smoke
    ]
    phases = (0, 1) if args.trace is None else (args.trace,)
    scale = 1.0
    repeats = args.repeats
    if args.smoke:
        scale, phases, repeats = workloads.SMOKE_SCALE, (1,), 1
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)

    results: dict[str, dict] = {}
    for name in names:
        twin = workloads.WORKLOADS[name].twin
        twin_runs = [
            run for run in results.get(twin, {}).get("operations", ())
            if run.get("mode") == "plain"
        ]
        results[name] = measure(
            name, args.seed, scale, args.seconds, repeats, phases, args.out, twin_runs
        )

    _print_report(results)
    problems = _smoke_problems(results) if args.smoke else []
    for problem in problems:
        print(f"SMOKE: {problem}")
    if args.out is not None:
        document = {
            "schema": 1,
            "fingerprint": _fingerprint(args.seed, scale, results),
            "bounds": {m[0]: m[3] for m in metrics.END_TO_END},
            "workloads": results,
        }
        with open(args.out / "results.json", "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
    failed = sum(entry["failed"] for entry in results.values())
    if len(names) == 1 and args.trace is not None and not args.smoke:
        entry = results[names[0]]
        if ("end_to_end" if args.trace == 0 else "per_layer") not in entry:
            return 1  # nothing measured: no result line
        print(_driver_line(entry, args.trace))
    return 1 if failed or problems else 0


if __name__ == "__main__":
    sys.exit(main())
