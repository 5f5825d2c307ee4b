"""The scenario registry: every example and paper artefact as a named spec.

Each entry maps one former ``examples/*.py`` script or one
``benchmarks/bench_fig*/bench_table*`` module (plus the ablation/complexity
studies) to a declarative :class:`ExperimentSpec`.  The benchmark suite runs
the same specs through the same drivers — the registry is the single source
of truth for what "Table 3" or "the quickstart" means.

Every spec carries a ``quick`` tier: a scaled-down override set small enough
for CI to smoke-test the complete registry (``python -m repro run <name>
--quick``).
"""

from __future__ import annotations

from repro.experiments.presets import TSUNAMI_SCALED_LEVEL_SPECS
from repro.experiments.spec import ExperimentSpec

__all__ = [
    "UnknownScenarioError",
    "all_scenarios",
    "get_scenario",
    "register",
    "scenario_names",
]


class UnknownScenarioError(KeyError):
    """Requested scenario name is not registered."""


_SCENARIOS: dict[str, ExperimentSpec] = {}


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Add a spec to the registry (name must be unique)."""
    if spec.name in _SCENARIOS:
        raise ValueError(f"scenario {spec.name!r} is already registered")
    _SCENARIOS[spec.name] = spec
    return spec


def get_scenario(name: str) -> ExperimentSpec:
    """Look up a scenario by name."""
    try:
        return _SCENARIOS[name]
    except KeyError:
        raise UnknownScenarioError(
            f"unknown scenario {name!r}; run `python -m repro run --list` "
            f"for the {len(_SCENARIOS)} registered scenarios"
        ) from None


def scenario_names() -> list[str]:
    """All registered names, sorted."""
    return sorted(_SCENARIOS)


def all_scenarios() -> list[ExperimentSpec]:
    """All registered specs, sorted by name."""
    return [_SCENARIOS[name] for name in scenario_names()]


# ----------------------------------------------------------------------------
# quick-tier building blocks
_TSUNAMI_QUICK_PROBLEM = {
    # The two coarsest levels of the canonical scaled ladder (16 / 32 cells)
    # over a shorter simulated window: the hierarchy retains a coarse->fine
    # coupling but one forward solve takes well under a second, so tsunami
    # scenarios smoke-test in seconds.
    "level_specs": [dict(spec) for spec in TSUNAMI_SCALED_LEVEL_SPECS[:2]],
    "end_time": 900.0,
    "subsampling_rates": [0, 2],
}

_POISSON_QUICK_SAMPLES = {"num_samples": [24, 12, 6]}
_TSUNAMI_QUICK = {"problem": _TSUNAMI_QUICK_PROBLEM, "sampler": {"num_samples": [6, 4]}}


# ----------------------------------------------------------------------------
# former examples/*.py
register(ExperimentSpec(
    name="example-quickstart",
    driver="quickstart",
    application="gaussian",
    paper_ref="Algorithm 2",
    description="Sequential vs parallel MLMCMC on the analytic Gaussian hierarchy",
    problem={"dim": 2, "num_levels": 3, "decay": 0.5, "subsampling": 5},
    sampler={"num_samples": [4000, 1000, 400], "num_ranks": 16,
             "cost_per_level": [0.01, 0.04, 0.16]},
    seed=0,
    quick={"sampler": {"num_samples": [200, 80, 40]}},
    tags=("example",),
))

register(ExperimentSpec(
    name="example-poisson-inversion",
    driver="sequential",
    application="poisson",
    paper_ref="Sections 3.1 / 5.1",
    description="Poisson subsurface-flow inversion: recover the permeability field",
    problem={"preset": "scaled"},
    sampler={"num_samples": [1200, 300, 80]},
    seed=2021,
    quick={"sampler": _POISSON_QUICK_SAMPLES},
    tags=("example",),
))

register(ExperimentSpec(
    name="example-tsunami-inversion",
    driver="sequential",
    application="tsunami",
    paper_ref="Sections 3.2 / 5.2",
    description="Tohoku-like tsunami source inversion from two buoys",
    problem={"preset": "scaled"},
    sampler={"num_samples": [120, 50, 20], "burnin_floor": 3},
    seed=2011,
    quick=_TSUNAMI_QUICK,
    tags=("example",),
))

register(ExperimentSpec(
    name="example-scaling-study",
    driver="scaling-suite",
    application="gaussian",
    paper_ref="Figures 11 / 12",
    description="Strong and weak scaling sweeps on the simulated MPI substrate",
    problem={"preset": "standin"},
    sampler={"num_samples": [2000, 500, 200], "rank_counts": [16, 32, 64, 128],
             "cost_per_level": "poisson-paper", "cost_cv": 0.2,
             "burnin": [60, 25, 10]},
    seed=0,
    quick={"sampler": {"num_samples": [200, 60, 20], "rank_counts": [8, 16],
                       "burnin": [10, 5, 2]}},
    tags=("example",),
))

register(ExperimentSpec(
    name="example-load-balancing",
    driver="parallel",
    application="gaussian",
    paper_ref="Figure 9",
    description="Dynamic load-balancing demo with an ASCII Gantt chart",
    problem={"dim": 2, "num_levels": 3, "subsampling": 4},
    sampler={"num_samples": [600, 200, 80], "num_ranks": 14,
             "cost_per_level": [0.05, 0.2, 0.8], "cost_cv": 0.5},
    seed=9,
    quick={"sampler": {"num_samples": [120, 40, 16]}},
    tags=("example",),
))


# ----------------------------------------------------------------------------
# paper figures
register(ExperimentSpec(
    name="fig02-random-field",
    driver="random-field",
    application="randomfield",
    paper_ref="Figure 2",
    description="Log-permeability realisation via KL expansion and circulant embedding",
    problem={"num_modes": 64, "quadrature_points_per_dim": 16, "resolution": 64,
             "correlation_length": 0.15, "variance": 1.0},
    seed=2021,
    quick={"problem": {"num_modes": 24, "quadrature_points_per_dim": 12,
                       "resolution": 32}},
    tags=("figure",),
))

register(ExperimentSpec(
    name="fig04-05-buoy-series",
    driver="buoy-series",
    application="tsunami",
    paper_ref="Figures 4 / 5",
    description="Sea-surface-height series at both buoys for levels 0 and 1",
    problem={"preset": "scaled"},
    sampler={"levels": [0, 1], "perturbed_source": [25.0, -15.0]},
    seed=0,
    quick={"problem": _TSUNAMI_QUICK_PROBLEM},
    tags=("figure",),
))

register(ExperimentSpec(
    name="fig09-load-balancing",
    driver="parallel",
    application="gaussian",
    paper_ref="Figure 9",
    description="Dynamic load balancing under heterogeneous model run times",
    problem={"preset": "standin"},
    sampler={"num_samples": [600, 200, 80], "num_ranks": 14,
             "subsampling_rates": [0, 4, 4],
             "cost_per_level": [0.05, 0.2, 0.8], "cost_cv": 0.5},
    seed=9,
    quick={"sampler": {"num_samples": [150, 50, 20]}},
    tags=("figure",),
))

register(ExperimentSpec(
    name="fig10-poisson-field-recovery",
    driver="sequential",
    application="poisson",
    paper_ref="Figure 10",
    description="Synthetic permeability field vs the multilevel estimate",
    problem={"preset": "scaled"},
    sampler={"num_samples": [800, 200, 60], "burnin_floor": 5},
    seed=10,
    quick={"sampler": _POISSON_QUICK_SAMPLES},
    tags=("figure",),
))

register(ExperimentSpec(
    name="fig11-strong-scaling",
    driver="strong-scaling",
    application="gaussian",
    paper_ref="Figure 11",
    description="Strong scaling with the paper's per-level evaluation times",
    problem={"preset": "standin"},
    sampler={"num_samples": [2000, 500, 150], "rank_counts": [16, 32, 64, 128],
             "subsampling_rates": [0, 8, 4], "burnin": [60, 25, 10],
             "cost_per_level": "poisson-paper", "cost_cv": 0.2},
    seed=11,
    quick={"sampler": {"num_samples": [200, 60, 20], "rank_counts": [8, 16],
                       "burnin": [10, 5, 2]}},
    tags=("figure",),
))

register(ExperimentSpec(
    name="fig12-weak-scaling",
    driver="weak-scaling",
    application="gaussian",
    paper_ref="Figure 12",
    description="Weak scaling: samples grow with ranks, efficiency vs the best run",
    problem={"preset": "standin"},
    sampler={"base_num_samples": [1200, 300, 100], "base_num_ranks": 32,
             "rank_counts": [16, 32, 64, 128],
             "subsampling_rates": [0, 8, 4], "burnin": [60, 25, 10],
             "cost_per_level": "poisson-paper", "cost_cv": 0.2},
    seed=12,
    quick={"sampler": {"base_num_samples": [120, 40, 16], "base_num_ranks": 8,
                       "rank_counts": [8, 16], "burnin": [10, 5, 2]}},
    tags=("figure",),
))

register(ExperimentSpec(
    name="fig13-tsunami-posterior",
    driver="sequential",
    application="tsunami",
    paper_ref="Figure 13",
    description="Per-level tsunami posterior samples and the multilevel mean",
    problem={"preset": "scaled"},
    sampler={"num_samples": [120, 50, 20], "burnin_floor": 3},
    seed=13,
    quick=_TSUNAMI_QUICK,
    tags=("figure",),
))

register(ExperimentSpec(
    name="fig14-level-corrections",
    driver="sequential",
    application="tsunami",
    paper_ref="Figure 14",
    description="Coupling statistics between coarse proposals and fine samples",
    problem={"preset": "scaled"},
    sampler={"num_samples": [100, 40, 16], "burnin_floor": 3},
    seed=14,
    quick=_TSUNAMI_QUICK,
    tags=("figure",),
))


# ----------------------------------------------------------------------------
# paper tables
register(ExperimentSpec(
    name="table1-tsunami-likelihood",
    driver="tsunami-observations",
    application="tsunami",
    paper_ref="Table 1",
    description="Observation mean and level-dependent likelihood covariance",
    problem={"preset": "scaled"},
    seed=0,
    quick={"problem": _TSUNAMI_QUICK_PROBLEM},
    tags=("table",),
))

register(ExperimentSpec(
    name="table2-tsunami-levels",
    driver="tsunami-hierarchy",
    application="tsunami",
    paper_ref="Table 2",
    description="Tsunami model hierarchy: limiter, mesh width, time steps, DOF updates",
    problem={"preset": "scaled"},
    seed=0,
    quick={"problem": _TSUNAMI_QUICK_PROBLEM},
    tags=("table",),
))

register(ExperimentSpec(
    name="table3-poisson-multilevel",
    driver="sequential",
    application="poisson",
    paper_ref="Table 3",
    description="Poisson multilevel properties: cost, rho, tau, correction variance",
    problem={"preset": "scaled"},
    sampler={"num_samples": [600, 150, 50], "burnin_floor": 5},
    seed=33,
    quick={"sampler": _POISSON_QUICK_SAMPLES},
    tags=("table",),
))

register(ExperimentSpec(
    name="poisson-adaptive",
    driver="sequential",
    application="poisson",
    paper_ref="Section 2 (MLMC allocation)",
    description="Continuation MLMCMC on the Poisson ladder: pilot, re-allocate, refine",
    problem={"preset": "scaled"},
    # num_samples seeds the burn-in heuristic and the fixed-cost baseline;
    # the live targets come from the adaptive budget below.  cost_per_level
    # prices the allocation snapshots from the paper's reported solve times,
    # so the continuation trajectory is machine-independent.
    sampler={"num_samples": [600, 150, 50], "burnin_floor": 5,
             "cost_per_level": "poisson-paper"},
    budget={"policy": "adaptive", "target_mse": 2e-4,
            "pilot": [75, 18, 6], "max_rounds": 4},
    seed=33,
    quick={"sampler": _POISSON_QUICK_SAMPLES,
           "budget": {"target_mse": 5e-3, "pilot": [8, 4, 2], "max_rounds": 3}},
    tags=("adaptive", "performance"),
))

register(ExperimentSpec(
    name="table4-tsunami-multilevel",
    driver="sequential",
    application="tsunami",
    paper_ref="Table 4",
    description="Tsunami multilevel properties: cost, rho, variances, cumulative means",
    problem={"preset": "scaled"},
    sampler={"num_samples": [120, 50, 20], "burnin_floor": 3},
    seed=44,
    quick=_TSUNAMI_QUICK,
    tags=("table",),
))


# ----------------------------------------------------------------------------
# ablations and performance studies
register(ExperimentSpec(
    name="ablation-load-balancing",
    driver="ablation-load-balancing",
    application="gaussian",
    paper_ref="Figure 9",
    description="Dynamic vs static load balancing from a skewed initial layout",
    problem={"preset": "standin"},
    sampler={"num_samples": [800, 250, 80], "num_ranks": 18,
             "subsampling_rates": [0, 4, 4], "level_weights": [8.0, 1.0, 1.0],
             "cost_per_level": [0.02, 0.1, 0.4], "cost_cv": 0.4},
    seed=77,
    quick={"sampler": {"num_samples": [150, 50, 20]}},
    tags=("ablation",),
))

register(ExperimentSpec(
    name="ablation-subsampling",
    driver="ablation-subsampling",
    application="gaussian",
    paper_ref="Section 5.1",
    description="Sweep of the coarse-chain subsampling rate rho",
    problem={"dim": 2, "num_levels": 2, "decay": 0.5, "proposal_scale": 2.5},
    sampler={"num_samples": [1500, 600], "rho_values": [1, 4, 16]},
    seed=100,
    quick={"sampler": {"num_samples": [150, 60], "rho_values": [1, 4]}},
    tags=("ablation",),
))

register(ExperimentSpec(
    name="cost-complexity",
    driver="cost-complexity",
    application="gaussian",
    paper_ref="Section 2",
    description="Multilevel vs single-level MCMC at comparable accuracy",
    problem={"dim": 2, "num_levels": 3, "decay": 0.5, "subsampling": 8,
             "proposal_scale": 2.5, "costs": [1.0, 16.0, 256.0]},
    sampler={"num_samples": [4000, 800, 200], "single_level_samples": 1500},
    seed=1,
    quick={"sampler": {"num_samples": [300, 80, 20], "single_level_samples": 150}},
    tags=("ablation",),
))

register(ExperimentSpec(
    name="poisson-parallel",
    driver="parallel",
    application="poisson",
    paper_ref="Sections 4 / 5.1",
    description="Parallel MLMCMC on the Poisson hierarchy (simulated or real processes)",
    problem={"preset": "scaled"},
    sampler={"num_samples": [160, 48, 16], "num_ranks": 12,
             "cost_per_level": "poisson-paper"},
    parallel={"backend": "simulated"},
    seed=2025,
    quick={"sampler": {"num_samples": [32, 12, 6], "num_ranks": 8}},
    tags=("performance", "parallel"),
))

register(ExperimentSpec(
    name="tsunami-batch",
    driver="forward-sweep",
    application="tsunami",
    paper_ref="Sections 3.2 / 5.2",
    description="Vectorized tsunami log-density sweep on the batch evaluation backend",
    problem={"preset": "scaled"},
    sampler={"num_draws": 24, "draw_std": 20.0},
    evaluation={"backend": "batch"},
    seed=2026,
    quick={"problem": _TSUNAMI_QUICK_PROBLEM, "sampler": {"num_draws": 6}},
    tags=("performance",),
))

register(ExperimentSpec(
    name="tsunami-parallel",
    driver="parallel",
    application="tsunami",
    paper_ref="Sections 4 / 5.2",
    description="Parallel MLMCMC on the tsunami hierarchy (simulated or real processes)",
    problem={"preset": "scaled"},
    sampler={"num_samples": [60, 24, 10], "num_ranks": 10,
             "cost_per_level": [1.0, 4.0, 9.0]},
    parallel={"backend": "simulated"},
    seed=2027,
    quick={"problem": _TSUNAMI_QUICK_PROBLEM,
           "sampler": {"num_samples": [12, 6], "num_ranks": 6,
                       "cost_per_level": [1.0, 4.0]}},
    tags=("performance", "parallel"),
))

register(ExperimentSpec(
    name="swe-hotpath",
    driver="swe-hotpath",
    application="tsunami",
    paper_ref="—",
    description="Per-sample SWE solve: one B-member ensemble vs B one-member solves",
    problem={"preset": "scaled"},
    sampler={"level": 1, "batch_size": 8},
    seed=7,
    quick={"problem": _TSUNAMI_QUICK_PROBLEM, "sampler": {"level": 1, "batch_size": 4}},
    tags=("performance",),
))

register(ExperimentSpec(
    name="evaluator-cache",
    driver="evaluator-cache",
    application="poisson",
    paper_ref="—",
    description="Caching vs in-process evaluation: fewer solves, identical estimate",
    problem={"preset": "scaled"},
    sampler={"num_samples": [300, 80, 25], "cache_size": 65536},
    seed=77,
    quick={"sampler": _POISSON_QUICK_SAMPLES},
    tags=("performance",),
))

register(ExperimentSpec(
    name="poisson-mixed-precision",
    driver="sequential",
    application="poisson",
    paper_ref="—",
    description="Poisson inversion on the float32-coarse precision ladder",
    problem={"preset": "scaled"},
    sampler={"num_samples": [600, 150, 50], "burnin_floor": 5},
    precision="float32-coarse",
    seed=33,
    quick={"sampler": _POISSON_QUICK_SAMPLES},
    tags=("performance", "precision"),
))

register(ExperimentSpec(
    name="fem-hotpath",
    driver="fem-hotpath",
    application="fem",
    paper_ref="—",
    description="Per-sample FEM solve: persistent-structure fast path vs reference",
    problem={"mesh_sizes": [16, 64, 256]},
    seed=42,
    quick={"problem": {"mesh_sizes": [16, 32]}},
    tags=("performance",),
))
