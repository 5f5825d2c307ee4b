"""One workload execution in a fresh process (started by ``run.py``).

Prints one JSON object as the last line of standard output.  ``setup_s`` is
measured from this file's first statement to ready-to-time: interpreter
start-up is excluded, ``import repro`` and the hierarchy build (``prewarm``)
are included.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

#: seconds each micro-timing may take at full size (scaled down by ``--scale``)
MICRO_BUDGET_S = 1.2


def _cpu_seconds() -> float:
    """User + system CPU time of this process and of the rank processes it reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _fingerprint() -> dict:
    import multiprocessing
    import platform

    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "start_method": multiprocessing.get_start_method(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--mode", choices=("plain", "traced", "floor"), default="plain")
    parser.add_argument("--trace-file", default=None)
    args = parser.parse_args(argv)

    recorder = None
    if args.mode == "traced":
        from spans import SpanRecorder

        recorder = SpanRecorder(run_id=f"{args.workload}:{args.seed}")
        recorder.install()

    from repro.experiments import runner
    from repro.experiments.drivers import prewarm

    import workloads

    workload = workloads.WORKLOADS[args.workload]
    specs = workloads.build_specs(
        args.workload, args.seed, args.scale, floor=args.mode == "floor"
    )
    for spec in specs:
        prewarm(spec)
    setup_s = time.perf_counter() - _START

    cpu_before = _cpu_seconds()
    # via the module attribute, so the traced run's wrapper is the one called
    runs = [runner.run_scenario(spec) for spec in specs]
    cpu_s = _cpu_seconds() - cpu_before
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    if recorder is not None:
        recorder.uninstall()

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": args.mode,
        "setup_s": setup_s,
        "wall_s": sum(run.wall_time_s for run in runs),
        "cpu_s": cpu_s,
        "peak_rss_mb": rss_kb / 1024.0,
        "fingerprint": _fingerprint(),
    }

    if args.mode == "floor":
        raw = runs[0].raw
        result["checks"] = {"not_degraded": raw.estimate is not None and not raw.degraded}
    else:
        import checks

        result["checks"], result["diagnostics"], result["mean_sha"] = checks.check_run(
            workload, specs, runs, workloads.load_references(), full_size=args.scale == 1.0
        )

    if recorder is not None:
        import layers

        stats = recorder.stats()
        values, na, micro_calls = layers.layer_metrics(
            workload, runs, result["diagnostics"], stats, args.seed,
            MICRO_BUDGET_S * min(1.0, args.scale),
        )
        result.update(spans=stats, layers=values, na=na, micro_calls=micro_calls)
        if args.trace_file:
            recorder.write_chrome_trace(args.trace_file)
    elif args.mode == "plain":
        import layers

        result["layers"] = layers.program_counters(workload, runs, result["diagnostics"])

    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
