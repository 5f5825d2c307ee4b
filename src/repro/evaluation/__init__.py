"""Model evaluation: the one evaluator behind every sampling problem.

Every forward-model call in the repository — log densities and quantities of
interest alike — goes through the :class:`BatchEvaluator` a sampling problem
builds from its own implementation hooks when it is constructed.  Scalar
requests (``log_density`` / ``qoi``) run the model directly in the calling
process; ``log_density_batch`` hands ``(n, dim)`` blocks of at most
:data:`MAX_BATCH_SIZE` rows to the problem's vectorized hook.  Every call is
recorded into the evaluator's :class:`EvaluatorStats`, which is where the
drivers and run manifests get evaluation counts and cost accounting::

    from repro import GaussianHierarchyFactory, MLMCMCSampler

    factory = GaussianHierarchyFactory(num_levels=3)
    result = MLMCMCSampler(factory, num_samples=[400, 100, 40], seed=0).run()
    for level, stats in enumerate(result.evaluation_stats):
        print(level, stats.log_density_evaluations, stats.wall_time)
"""

from repro.evaluation.base import Evaluator, EvaluatorStats
from repro.evaluation.batch import MAX_BATCH_SIZE, BatchEvaluator
from repro.evaluation.inprocess import InProcessEvaluator

__all__ = [
    "MAX_BATCH_SIZE",
    "Evaluator",
    "EvaluatorStats",
    "InProcessEvaluator",
    "BatchEvaluator",
]
