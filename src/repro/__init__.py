"""repro — parallelized multilevel Markov chain Monte Carlo.

A pure-Python reproduction of *"High Performance Uncertainty Quantification
with Parallelized Multilevel Markov Chain Monte Carlo"* (SC '21): the MLMCMC
algorithm and its component stack (:mod:`repro.core`), the parallel scheduling
architecture with dynamic load balancing on a simulated MPI substrate
(:mod:`repro.parallel`), and the two application studies — a Poisson
subsurface-flow inverse problem (:mod:`repro.models.poisson`, backed by the
FEM substrate :mod:`repro.fem` and the random fields in
:mod:`repro.randomfield`) and a Tohoku-like tsunami source inversion
(:mod:`repro.models.tsunami`, backed by the shallow-water solver in
:mod:`repro.swe`).

Quick start::

    from repro import MLMCMCSampler, GaussianHierarchyFactory

    factory = GaussianHierarchyFactory(dim=2, num_levels=3)
    result = MLMCMCSampler(factory, num_samples=[4000, 1000, 400], seed=0).run()
    print(result.mean)

See ``examples/`` for runnable end-to-end scripts and ``benchmarks/`` for the
reproduction of every table and figure of the paper.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "AbstractSamplingProblem",
    "BayesianSamplingProblem",
    "GaussianTargetProblem",
    "MLComponentFactory",
    "MLMCMCResult",
    "MLMCMCSampler",
    "CostModel",
    "MonteCarloEstimate",
    "MultilevelEstimate",
    "SingleChainMCMC",
    "run_single_level_mcmc",
    "Evaluator",
    "EvaluatorStats",
    "InProcessEvaluator",
    "CachingEvaluator",
    "BatchEvaluator",
    "PoolEvaluator",
    "make_evaluator",
    "GaussianHierarchyFactory",
    "PoissonInverseProblemFactory",
    "TsunamiInverseProblemFactory",
    "ParallelMLMCMCResult",
    "ParallelMLMCMCSampler",
    "strong_scaling_study",
    "weak_scaling_study",
    "__version__",
]

# Flat entry points, imported on first access: `import repro` loads no
# application stack, backend or numerical library until a name is used.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core": (
            "AbstractSamplingProblem",
            "BayesianSamplingProblem",
            "GaussianTargetProblem",
            "MLComponentFactory",
            "MLMCMCResult",
            "MLMCMCSampler",
            "CostModel",
            "MonteCarloEstimate",
            "MultilevelEstimate",
            "SingleChainMCMC",
            "run_single_level_mcmc",
        ),
        "repro.evaluation": (
            "BatchEvaluator",
            "CachingEvaluator",
            "Evaluator",
            "EvaluatorStats",
            "InProcessEvaluator",
            "PoolEvaluator",
            "make_evaluator",
        ),
        "repro.models.gaussian": ("GaussianHierarchyFactory",),
        "repro.models.poisson": ("PoissonInverseProblemFactory",),
        "repro.models.tsunami": ("TsunamiInverseProblemFactory",),
        "repro.parallel.parallel_mlmcmc": ("ParallelMLMCMCResult", "ParallelMLMCMCSampler"),
        "repro.parallel.scaling": ("strong_scaling_study", "weak_scaling_study"),
    },
)
