"""Command-line entry point: ``python -m repro``.

Subcommands
-----------
``run``
    Execute a registered scenario (``python -m repro run table3-poisson-multilevel
    --quick --out runs``) or list them all (``python -m repro run --list``).
``list``
    Alias for ``run --list``.
``validate``
    Validate one or more run manifests against the manifest schema.

Exit codes: 0 on success, 1 on failed validation or a crashed run, 2 on an
unknown scenario name or bad usage.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.experiments import (
    BackendNotApplicableError,
    ManifestError,
    UnknownScenarioError,
    all_scenarios,
    format_rows,
    run_scenario,
    validate_manifest,
)

#: payload keys skipped by the CLI summary (bulky free-form blocks)
_SKIP_KEYS = ("gantt", "controller_assignments")


def _print_scenario_list() -> None:
    rows = [
        {
            "scenario": spec.name,
            "paper": spec.paper_ref or "—",
            "application": spec.application,
            "driver": spec.driver,
            "description": spec.description,
        }
        for spec in all_scenarios()
    ]
    print(format_rows(f"Registered scenarios ({len(rows)})", rows))
    print(
        "\nRun one with: python -m repro run <scenario> "
        "[--quick] [--parallel-backend NAME] "
        "[--precision NAME] [--out DIR] [--seed N]"
    )


def _compact_rows(rows: list[dict]) -> list[dict]:
    """Abbreviate vector-valued cells so tables stay one line per row."""
    compacted = []
    for row in rows:
        entry = {}
        for key, value in row.items():
            if isinstance(value, list):
                if len(value) <= 3:
                    entry[key] = "[" + ", ".join(
                        f"{v:.4g}" if isinstance(v, float) else str(v) for v in value
                    ) + "]"
                else:
                    entry[key] = f"[{len(value)} values]"
            elif isinstance(value, dict):
                entry[key] = f"{{{len(value)} fields}}"
            else:
                entry[key] = value
        compacted.append(entry)
    return compacted


def _print_payload_summary(payload: dict, prefix: str = "", depth: int = 0) -> None:
    """Render the table-like parts of a payload; scalars go first.

    Scalar fields become one headline row; every list-of-dicts becomes an
    aligned table.  Nested payload blocks (e.g. the quickstart's
    ``sequential`` / ``parallel`` halves) are rendered one level deep.
    """
    scalars = {
        k: v
        for k, v in payload.items()
        if isinstance(v, (int, float, str, bool)) and k not in _SKIP_KEYS
    }
    if scalars:
        print(format_rows(f"{prefix}headline numbers" if prefix else "Headline numbers",
                          [scalars]))
    for key, value in payload.items():
        if key in _SKIP_KEYS:
            continue
        if isinstance(value, list) and value and isinstance(value[0], dict):
            print(format_rows(f"{prefix}{key}", _compact_rows(value)))
        elif isinstance(value, dict) and value and depth < 2:
            _print_payload_summary(value, prefix=f"{prefix}{key}.", depth=depth + 1)


def _load_fault_plan(source: str):
    """Parse ``--fault-plan``: a JSON file path or an inline JSON object."""
    from repro.parallel import FaultPlan

    text = source
    if os.path.exists(source):
        with open(source, encoding="utf-8") as handle:
            text = handle.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"--fault-plan is neither an existing JSON file nor inline JSON: {exc}"
        ) from None
    return FaultPlan.from_dict(data)


def _cmd_run(args: argparse.Namespace) -> int:
    if args.list or args.scenario is None:
        if args.scenario is None and not args.list:
            print("error: missing scenario name (or --list)", file=sys.stderr)
            return 2
        _print_scenario_list()
        return 0
    try:
        fault_plan = (
            _load_fault_plan(args.fault_plan) if args.fault_plan else None
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        run = run_scenario(
            args.scenario,
            quick=args.quick,
            seed=args.seed,
            out_dir=args.out,
            parallel_backend=args.parallel_backend,
            precision=args.precision,
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
            fault_plan=fault_plan,
            target_mse=args.target_mse,
            cost_budget=args.budget,
        )
    except (UnknownScenarioError, BackendNotApplicableError) as exc:
        # usage errors → exit 2; run/validation failures propagate (exit 1).
        # KeyError's str() wraps the message in quotes, so unwrap args.
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2
    spec = run.spec
    tier = "quick" if args.quick else "full"
    print(
        f"scenario {spec.name} ({spec.paper_ref or 'no paper ref'}, {tier} tier) "
        f"finished in {run.wall_time_s:.2f} s [spec {run.manifest['spec_hash'][:12]}]"
    )
    _print_payload_summary(run.payload)
    if run.manifest_path is not None:
        print(f"\nmanifest written to {run.manifest_path}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    status = 0
    for path in args.manifests:
        try:
            with open(path, encoding="utf-8") as handle:
                manifest = json.load(handle)
            validate_manifest(manifest)
        except (OSError, json.JSONDecodeError, ManifestError) as exc:
            print(f"{path}: INVALID — {exc}", file=sys.stderr)
            status = 1
        else:
            print(
                f"{path}: ok (scenario {manifest['scenario']}, "
                f"spec {manifest['spec_hash'][:12]}, "
                f"{manifest['wall_time_s']:.2f} s)"
            )
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run and inspect the registered experiment scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run a scenario (or --list them)")
    run_parser.add_argument("scenario", nargs="?", help="registered scenario name")
    run_parser.add_argument("--list", action="store_true", help="list all scenarios")
    run_parser.add_argument(
        "--quick", action="store_true", help="scaled-down smoke tier (CI)"
    )
    run_parser.add_argument(
        "--parallel-backend",
        choices=["simulated", "multiprocess", "socket"],
        help="transport backend for parallel-machine scenarios: the "
        "discrete-event simulation (virtual time), real OS processes "
        "(queues), or real processes over TCP sockets (localhost hub)",
    )
    run_parser.add_argument(
        "--precision",
        choices=["float64", "float32-coarse", "float32"],
        help="precision-ladder policy for the per-level forward solves "
        "(float32-coarse: single precision below the finest level)",
    )
    run_parser.add_argument("--out", metavar="DIR", help="write the manifest here")
    run_parser.add_argument("--seed", type=int, help="override the spec's seed")
    run_parser.add_argument(
        "--target-mse",
        type=float,
        metavar="EPS2",
        help="adaptive allocation: grow per-level sample counts until the "
        "estimator variance meets this target (MLMCMC estimation scenarios)",
    )
    run_parser.add_argument(
        "--budget",
        type=float,
        metavar="COST",
        help="adaptive allocation: variance-optimal per-level sample counts "
        "within this total cost cap (mutually exclusive with --target-mse)",
    )
    run_parser.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        help="write in-flight sampling snapshots here (parallel scenarios); "
        "a completed run leaves a final snapshot --resume can restart from",
    )
    run_parser.add_argument(
        "--resume",
        action="store_true",
        help="restart from the latest snapshot in --checkpoint-dir instead "
        "of sampling from scratch",
    )
    run_parser.add_argument(
        "--fault-plan",
        metavar="JSON",
        help="inject seeded faults (rank kills, message drops/delays, "
        "evaluator errors): a JSON file path or an inline JSON object, "
        "parsed by repro.parallel.FaultPlan.from_dict",
    )
    run_parser.set_defaults(handler=_cmd_run)

    list_parser = sub.add_parser("list", help="list all scenarios")
    list_parser.set_defaults(
        handler=lambda args: (_print_scenario_list(), 0)[1]
    )

    validate_parser = sub.add_parser("validate", help="validate run manifests")
    validate_parser.add_argument("manifests", nargs="+", help="manifest JSON files")
    validate_parser.set_defaults(handler=_cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
