"""Declarative experiment specifications.

An :class:`ExperimentSpec` is the single description of one runnable scenario:
which application it belongs to, how the model hierarchy is configured, how
the sampler (or study) is parameterised, and what the scaled-down ``--quick``
tier looks like.
Specs are plain data — JSON-serialisable, hashable by content — so a run's
manifest can record exactly what was executed and two manifests can be
compared across PRs by their spec hash.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from typing import Any

__all__ = ["ExperimentSpec", "canonical_json", "spec_hash"]


def canonical_json(payload: Any) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def spec_hash(spec_dict: dict) -> str:
    """Content hash of a spec dictionary (sha256 of its canonical JSON)."""
    return hashlib.sha256(canonical_json(spec_dict).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one experiment scenario.

    Attributes
    ----------
    name:
        Registry name (``python -m repro run <name>``).
    driver:
        Key into the driver registry (:mod:`repro.experiments.drivers`) that
        knows how to execute this kind of spec (``"sequential"``,
        ``"parallel"``, ``"strong-scaling"``, ...).
    application:
        ``"gaussian"``, ``"poisson"``, ``"tsunami"``, ``"randomfield"`` or
        ``"fem"`` — which model family the scenario exercises.
    paper_ref:
        The paper artefact the scenario reproduces (``"Table 3"``, ...).
    description:
        One-line human description shown by ``repro run --list``.
    problem:
        Factory configuration.  May contain ``{"preset": "scaled"}`` to pull a
        canonical configuration from :mod:`repro.experiments.presets`; further
        keys override preset entries.
    sampler:
        Driver parameters (``num_samples``, ``burnin``/``burnin_floor``,
        ``num_ranks``, cost-model settings, sweep values, ...).
    evaluation:
        A recorded field with no effect: every problem runs the one
        evaluator.  Only ``{}`` and ``{"backend": "batch"}`` (which ad-hoc
        benchmark specs still carry) are accepted.
    parallel:
        ``{"backend": "simulated" | "multiprocess" | "socket",
        "options": {...}}`` —
        the transport backend for scenarios that run the parallel MLMCMC
        machine (:class:`repro.parallel.ParallelMLMCMCSampler`); empty means
        the simulated backend.
    budget:
        Adaptive sampling budget for the MLMCMC drivers, e.g.
        ``{"policy": "adaptive", "target_mse": 1e-3, "pilot": [32, 8, 4]}``
        or ``{"policy": "adaptive", "cost_cap": 50.0}`` (see
        :func:`repro.core.allocation.policy_from_budget`).  Empty (the
        default) keeps the static ``num_samples`` plan and is omitted from
        :meth:`as_dict` so pre-existing spec hashes are unchanged.
    precision:
        Precision-ladder policy for the per-level forward solves
        (``"float64"``, ``"float32-coarse"`` or ``"float32"``; see
        :func:`repro.utils.array_api.level_dtypes`).  The default
        ``"float64"`` runs everything in double, exactly as before the
        ladder existed.
    seed:
        Base random seed of the run.
    quick:
        ``{"problem": {...}, "sampler": {...}}`` overrides merged on top of
        the full configuration in ``--quick`` mode (CI smoke tier).
    tags:
        Free-form labels (``"example"``, ``"table"``, ``"figure"``, ...).
    """

    name: str
    driver: str
    application: str = "gaussian"
    paper_ref: str = ""
    description: str = ""
    problem: dict = field(default_factory=dict)
    sampler: dict = field(default_factory=dict)
    evaluation: dict = field(default_factory=dict)
    parallel: dict = field(default_factory=dict)
    budget: dict = field(default_factory=dict)
    precision: str = "float64"
    seed: int = 0
    quick: dict = field(default_factory=dict)
    tags: tuple = ()

    def __post_init__(self) -> None:
        if self.evaluation not in ({}, {"backend": "batch"}):
            raise ValueError(
                f"spec {self.name!r}: evaluation={self.evaluation!r} is not "
                "supported; the selectable evaluation backends and their "
                "options were removed (every problem runs the one evaluator), "
                'so only {} and {"backend": "batch"} are accepted'
            )

    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        """Plain-dictionary view (JSON-safe; tuples become lists).

        An empty ``parallel`` block is omitted: the field arrived after the
        first manifests were written, and emitting ``{"parallel": {}}``
        everywhere would shift the content hash of every scenario — breaking
        cross-PR ``spec_hash`` comparisons for configurations that did not
        change.  ``precision`` is omitted under the default ``"float64"``
        policy, and an empty ``budget`` block is omitted, for the same
        hash-stability reason.
        """
        payload = asdict(self)
        payload["tags"] = list(self.tags)
        if not payload["parallel"]:
            del payload["parallel"]
        if not payload["budget"]:
            del payload["budget"]
        if payload["precision"] == "float64":
            del payload["precision"]
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentSpec":
        """Rebuild a spec from :meth:`as_dict` output."""
        data = dict(payload)
        data["tags"] = tuple(data.get("tags", ()))
        return cls(**data)

    def hash(self) -> str:
        """Content hash identifying this exact configuration."""
        return spec_hash(self.as_dict())

    # ------------------------------------------------------------------
    def resolved(
        self,
        quick: bool = False,
        seed: int | None = None,
        parallel_backend: str | None = None,
        precision: str | None = None,
        target_mse: float | None = None,
        cost_budget: float | None = None,
    ) -> "ExperimentSpec":
        """The spec with run-time overrides applied.

        ``quick`` merges the spec's quick-tier overrides into ``problem``,
        ``sampler`` and ``budget``; ``parallel_backend`` replaces the
        parallel transport backend (its options survive only when the backend
        stays the same — options are backend-specific);
        ``precision`` replaces the precision-ladder policy; ``seed`` replaces
        the base seed; ``target_mse`` / ``cost_budget`` (mutually exclusive)
        switch the run to adaptive allocation with the given MSE target or
        total-cost cap, replacing any budget objective the spec declares.
        The returned spec is what the manifest records (its hash identifies
        the configuration that actually ran).
        """
        spec = self
        if quick and spec.quick:
            spec = replace(
                spec,
                problem={**spec.problem, **spec.quick.get("problem", {})},
                sampler={**spec.sampler, **spec.quick.get("sampler", {})},
                budget={**spec.budget, **spec.quick.get("budget", {})},
                quick={},
            )
        elif quick:
            spec = replace(spec, quick={})
        if target_mse is not None and cost_budget is not None:
            raise ValueError(
                "target_mse and cost_budget are mutually exclusive budget objectives"
            )
        if target_mse is not None:
            budget = {k: v for k, v in spec.budget.items() if k != "cost_cap"}
            budget.update({"policy": "adaptive", "target_mse": float(target_mse)})
            spec = replace(spec, budget=budget)
        if cost_budget is not None:
            budget = {k: v for k, v in spec.budget.items() if k != "target_mse"}
            budget.update({"policy": "adaptive", "cost_cap": float(cost_budget)})
            spec = replace(spec, budget=budget)
        if parallel_backend is not None:
            parallel: dict = {"backend": parallel_backend}
            if (
                spec.parallel.get("backend") == parallel_backend
                and "options" in spec.parallel
            ):
                parallel["options"] = spec.parallel["options"]
            spec = replace(spec, parallel=parallel)
        if precision is not None:
            spec = replace(spec, precision=str(precision))
        if seed is not None:
            spec = replace(spec, seed=int(seed))
        return spec
