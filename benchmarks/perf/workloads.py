"""The seven benchmark workloads.

Each workload is one or two ad-hoc :class:`repro.experiments.ExperimentSpec`
objects executed through :func:`repro.experiments.run_scenario`; the program
only ever receives the generated spec.  Nothing here edits the scenario
registry: specs are copies of registry scenarios (``dataclasses.replace``) or
fresh specs.

Sizes are chosen so that one execution takes 1-3 s on a 2-core box: the
harness repeats every workload in fresh processes inside a fixed time budget
and reports medians, and on a shared machine only a median over five or more
repeats is steady.  The sizing runs the sizes were derived from are recorded
in ``README.md``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "FLOOR_SAMPLES",
    "SMOKE_SCALE",
    "WORKLOADS",
    "Workload",
    "build_specs",
    "load_references",
]

#: ``--smoke`` runs every workload at about 1/20 of its size
SMOKE_SCALE = 0.05

#: sample plan of the launch + rendezvous + teardown "floor" runs of the
#: real-process workloads (the drivers' own minimum of 4 samples per level)
FLOOR_SAMPLES = [4, 4, 4]


@dataclass(frozen=True)
class Workload:
    """One named workload: what runs, and why the benchmark has it."""

    name: str
    #: one line: the layer(s) this workload stresses and what it isolates
    why: str
    #: seed the benchmark's ``--seed`` is added to
    base_seed: int
    #: wall seconds one execution takes on the 2-core reference box; a run is
    #: failed when it exceeds ten times this
    expected_wall_s: float
    #: ``"exact"`` (closed-form mean), ``"reference"`` (stored long-run
    #: statistics) or ``"batch"`` (row-wise parity with the scalar path)
    check: str
    #: ``repro.parallel`` module (``"mp"`` / ``"net"``) whose OS processes run
    #: the rank code; ``None`` when the workload process does all the work
    #: itself, which is also when benchmark-side span wrappers reach that work
    transport: str | None = None
    #: workload whose seeded estimate must be bitwise equal to this one's
    twin: str | None = None
    #: listed in ``BENCHMARK.json`` and run by default.  ``poisson_socket`` is
    #: not: on this tree about one socket run in eight never returns (a
    #: rank's final RESULT frame is lost, see README "Baseline observations"),
    #: and a gated workload must be one on which no operation fails.
    declared: bool = True


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "gaussian_seq",
            "Free analytic model: repro.core and the repro.evaluation wrapper do "
            "nearly all the work; the only workload with a closed-form answer.",
            base_seed=1, expected_wall_s=1.2, check="exact",
        ),
        Workload(
            "poisson_seq",
            "Paper Table 3 path: one repro.fem solve plus repro.models/repro.bayes "
            "wrappers per MH step; repro.core overhead visible but not dominant.",
            base_seed=33, expected_wall_s=1.3, check="reference",
        ),
        Workload(
            "tsunami_seq",
            "Paper Table 4 path: ~100% repro.swe scalar solves; repro.core and "
            "repro.evaluation changes must show no movement here.",
            base_seed=44, expected_wall_s=4.1, check="reference",
        ),
        Workload(
            "gaussian_sim",
            "Role generators, phonebook, load balancer and the DES with no real "
            "transport and a free model: repro.parallel.roles/simmpi cost per event.",
            base_seed=9, expected_wall_s=1.3, check="exact",
        ),
        Workload(
            "poisson_mp",
            "The same role machine on 8 real OS processes (deliberately "
            "oversubscribed on 2 cores): repro.parallel.mp + wire + supervisor.",
            base_seed=2025, expected_wall_s=1.6, check="reference", transport="mp",
        ),
        Workload(
            "poisson_socket",
            "Identical spec through the TCP hub instead of OS queues; estimate must "
            "equal poisson_mp bitwise, so the pair isolates repro.parallel.net.",
            base_seed=2025, expected_wall_s=3.4, check="reference",
            transport="net", twin="poisson_mp", declared=False,
        ),
        Workload(
            "batch_sweep",
            "Drives repro.fem and repro.swe through solve_and_observe_batch / "
            "run_ensemble, so a scalar-path gain that costs the batch path shows.",
            base_seed=2026, expected_wall_s=1.8, check="batch",
        ),
    )
}


def load_references() -> dict:
    """``references.json``: per-workload reference statistics (see ``references.py``)."""
    with open(Path(__file__).with_name("references.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _scaled(samples: list[int], scale: float) -> list[int]:
    # 4 is the drivers' own per-level minimum (repro.experiments.presets.scaled)
    return [max(4, int(round(n * scale))) for n in samples]


def build_specs(name: str, seed: int = 0, scale: float = 1.0, floor: bool = False):
    """The spec(s) of workload ``name`` for benchmark seed ``seed``.

    ``scale`` multiplies the sample / draw counts (``--smoke``); ``floor``
    replaces the sample plan of a parallel workload by :data:`FLOOR_SAMPLES`.
    """
    from dataclasses import replace

    from repro.experiments import ExperimentSpec, get_scenario

    workload = WORKLOADS[name]
    run_seed = workload.base_seed + int(seed)

    def resized(scenario: str, num_samples: list[int], **sampler) -> ExperimentSpec:
        base = get_scenario(scenario)
        samples = FLOOR_SAMPLES if floor else _scaled(num_samples, scale)
        return replace(
            base,
            name=name,
            sampler={**base.sampler, "num_samples": samples, **sampler},
            seed=run_seed,
            quick={},
        )

    if name == "gaussian_seq":
        return [
            ExperimentSpec(
                name=name,
                driver="sequential",
                application="gaussian",
                problem={"dim": 4, "num_levels": 3, "decay": 0.5, "subsampling": 5},
                sampler={"num_samples": _scaled([4000, 1000, 400], scale)},
                seed=run_seed,
            )
        ]
    if name == "poisson_seq":
        return [resized("table3-poisson-multilevel", [360, 90, 30])]
    if name == "tsunami_seq":
        return [resized("table4-tsunami-multilevel", [24, 10, 4])]
    if name == "gaussian_sim":
        # cost_cv=0: with constant virtual model run times the DES schedule,
        # and with it the amount of real work (events, messages, model
        # evaluations), is the same for every seed; the registry's 0.5 makes
        # the event count swing by +-12% from seed to seed.
        return [resized("fig09-load-balancing", [2000, 600, 200], cost_cv=0.0)]
    if name in ("poisson_mp", "poisson_socket"):
        backend = "multiprocess" if name == "poisson_mp" else "socket"
        spec = resized("poisson-parallel", [300, 90, 30], num_ranks=8)
        return [replace(spec, parallel={"backend": backend})]
    if name == "batch_sweep":
        poisson_draws, tsunami_draws = _scaled([256, 16], scale)
        return [
            ExperimentSpec(
                name=f"{name}_poisson",
                driver="forward-sweep",
                application="poisson",
                problem={"preset": "scaled"},
                sampler={"num_draws": poisson_draws, "draw_std": 1.0},
                evaluation={"backend": "batch"},
                seed=run_seed,
            ),
            ExperimentSpec(
                name=f"{name}_tsunami",
                driver="forward-sweep",
                application="tsunami",
                problem={"preset": "scaled"},
                sampler={"num_draws": tsunami_draws, "draw_std": 20.0},
                evaluation={"backend": "batch"},
                seed=run_seed,
            ),
        ]
    raise KeyError(name)
