"""Versioned run manifests.

Every ``repro run`` writes one JSON manifest describing what was executed
(the resolved spec and its content hash), how much work it took (wall time,
per-level evaluation counts from :class:`repro.evaluation.EvaluatorStats`)
and what came out (the driver's JSON payload).  Manifests are the comparison
currency across PRs: same spec hash + same seed ⇒ comparable results.

The schema is validated structurally by :func:`validate_manifest` — a
hand-rolled checker, because the runtime deliberately has no dependency
beyond numpy/scipy.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path
from typing import Any

from repro.experiments.spec import ExperimentSpec, spec_hash

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "ManifestError",
    "build_manifest",
    "validate_manifest",
    "write_manifest",
]

#: bump on any backwards-incompatible change to the manifest layout
#: (v2: added the required ``parallel_backend`` field recording which
#: transport ran the parallel MLMCMC machine; v3: added the required
#: ``precision`` field recording the run's precision-ladder policy;
#: v4: added the required ``fault_tolerance`` object recording checkpoint /
#: resume lineage, injected faults and the run's failure report;
#: v5: added the required ``allocation`` object recording the sample
#: allocation policy and, for adaptive runs, the budget and the realized
#: continuation trajectory; v6: dropped the top-level ``backend`` field with
#: the selectable evaluation backends; v7: dropped the ``precision`` field
#: with the precision ladder — every run solves in float64)
MANIFEST_SCHEMA_VERSION = 7

#: top-level manifest fields and their required types
_TOP_LEVEL_FIELDS: dict[str, type | tuple] = {
    "schema_version": int,
    "scenario": str,
    "driver": str,
    "application": str,
    "paper_ref": str,
    "spec": dict,
    "spec_hash": str,
    "quick": bool,
    "parallel_backend": (str, type(None)),
    "seed": int,
    "repro_version": str,
    "created_at": str,
    "wall_time_s": (int, float),
    "environment": dict,
    "fault_tolerance": dict,
    "allocation": dict,
    "evaluations": list,
    "results": dict,
}

#: required integer counters of one per-level evaluation entry
_EVALUATION_COUNTERS = (
    "log_density_evaluations",
    "qoi_evaluations",
    "cache_hits",
)


class ManifestError(ValueError):
    """A manifest failed schema validation."""


def _scrub(value):
    """Replace non-finite floats by ``None`` so manifests stay strict JSON."""
    if isinstance(value, float):
        return value if value == value and abs(value) != float("inf") else None
    if isinstance(value, dict):
        return {k: _scrub(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_scrub(v) for v in value]
    return value


def build_manifest(
    spec: ExperimentSpec,
    results: dict,
    wall_time_s: float,
    evaluations: list[dict] | None = None,
    quick: bool = False,
    parallel_backend: str | None = None,
    fault_tolerance: dict | None = None,
    allocation: dict | None = None,
) -> dict:
    """Assemble a schema-valid manifest for one completed run.

    ``fault_tolerance`` records the run's robustness lineage: checkpoint
    directory, whether it resumed and from what, the injected fault plan and
    the failure report (all absent/empty for an ordinary run).

    ``allocation`` records the sample-allocation lineage: the policy name
    (``"fixed"`` / ``"adaptive"``), the declared budget and — for adaptive
    runs — the realized continuation trajectory (one entry per round with
    targets, collected counts, streamed variances and costs).  ``None``
    records the static default ``{"policy": "fixed"}``.
    """
    from repro import __version__
    from repro.experiments.presets import paper_scale, sample_scale

    spec_dict = spec.as_dict()
    return {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "scenario": spec.name,
        "driver": spec.driver,
        "application": spec.application,
        "paper_ref": spec.paper_ref,
        "spec": spec_dict,
        "spec_hash": spec_hash(spec_dict),
        "quick": bool(quick),
        "parallel_backend": parallel_backend,
        "seed": int(spec.seed),
        "repro_version": __version__,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "wall_time_s": float(wall_time_s),
        # The workload env knobs rescale what a spec executes without changing
        # its hash, so they are part of a run's identity: two manifests are
        # comparable only when spec_hash, seed AND environment agree.
        "environment": {
            "bench_scale": float(sample_scale()),
            "paper_scale": bool(paper_scale()),
        },
        "fault_tolerance": _scrub(dict(fault_tolerance or {})),
        "allocation": _scrub(dict(allocation or {"policy": "fixed"})),
        "evaluations": _scrub(list(evaluations or [])),
        "results": _scrub(results),
    }


def validate_manifest(manifest: Any) -> None:
    """Raise :class:`ManifestError` unless ``manifest`` matches the schema.

    Checks the field inventory and types, the schema version, that the
    recorded ``spec_hash`` matches the recorded spec, that every evaluation
    entry carries a level and the per-kind counters, and that the payload is
    JSON-serialisable.
    """
    errors: list[str] = []
    if not isinstance(manifest, dict):
        raise ManifestError("manifest must be a JSON object")
    for key, expected in _TOP_LEVEL_FIELDS.items():
        if key not in manifest:
            errors.append(f"missing field {key!r}")
        elif not isinstance(manifest[key], expected):
            errors.append(f"field {key!r} has type {type(manifest[key]).__name__}")
    if not errors:
        if manifest["schema_version"] != MANIFEST_SCHEMA_VERSION:
            errors.append(
                f"schema_version {manifest['schema_version']} != {MANIFEST_SCHEMA_VERSION}"
            )
        if manifest["spec_hash"] != spec_hash(manifest["spec"]):
            errors.append("spec_hash does not match the recorded spec")
        if manifest["wall_time_s"] < 0:
            errors.append("wall_time_s must be non-negative")
        if not manifest["results"]:
            errors.append("results payload is empty")
        allocation = manifest["allocation"]
        if not isinstance(allocation.get("policy"), str):
            errors.append("allocation lacks a string 'policy'")
        rounds = allocation.get("rounds")
        if rounds is not None:
            if not isinstance(rounds, list) or not all(
                isinstance(entry, dict) for entry in rounds
            ):
                errors.append("allocation 'rounds' must be a list of objects")
            else:
                for i, entry in enumerate(rounds):
                    for key in ("round", "targets", "collected"):
                        if key not in entry:
                            errors.append(f"allocation rounds[{i}] lacks {key!r}")
        environment = manifest["environment"]
        if not isinstance(environment.get("bench_scale"), (int, float)):
            errors.append("environment lacks numeric 'bench_scale'")
        if not isinstance(environment.get("paper_scale"), bool):
            errors.append("environment lacks boolean 'paper_scale'")
        for i, entry in enumerate(manifest["evaluations"]):
            if not isinstance(entry, dict):
                errors.append(f"evaluations[{i}] is not an object")
                continue
            if not isinstance(entry.get("level"), int):
                errors.append(f"evaluations[{i}] lacks an integer 'level'")
            for counter in _EVALUATION_COUNTERS:
                if not isinstance(entry.get(counter), int):
                    errors.append(f"evaluations[{i}] lacks integer counter {counter!r}")
        try:
            json.dumps(manifest["results"], allow_nan=False)
        except (TypeError, ValueError) as exc:
            errors.append(f"results payload is not strict-JSON-serialisable: {exc}")
        try:
            json.dumps(manifest["fault_tolerance"], allow_nan=False)
        except (TypeError, ValueError) as exc:
            errors.append(
                f"fault_tolerance payload is not strict-JSON-serialisable: {exc}"
            )
        try:
            json.dumps(manifest["allocation"], allow_nan=False)
        except (TypeError, ValueError) as exc:
            errors.append(
                f"allocation payload is not strict-JSON-serialisable: {exc}"
            )
    if errors:
        raise ManifestError("; ".join(errors))


def write_manifest(manifest: dict, out_dir: str | Path) -> Path:
    """Validate and write a manifest to ``<out_dir>/<scenario>.manifest.json``.

    The write is atomic (same-directory temp file + ``os.replace``), so a
    crash mid-write can never leave a truncated manifest where a valid one is
    expected — readers see either the old file or the new one.
    """
    validate_manifest(manifest)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{manifest['scenario']}.manifest.json"
    payload = json.dumps(manifest, indent=2, sort_keys=False) + "\n"
    fd, tmp_name = tempfile.mkstemp(dir=str(out), prefix=path.name + ".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(payload)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path
