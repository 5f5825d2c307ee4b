"""Model-evaluation backends.

Every forward-model call in the repository — log densities and quantities of
interest alike — is routed through an :class:`Evaluator`.  Backends provided
here:

* :class:`InProcessEvaluator` — direct synchronous evaluation (the default),
* :class:`CachingEvaluator` — LRU memoisation keyed on parameter bytes,
* :class:`BatchEvaluator` — vectorized evaluation of parameter blocks,
* :class:`PoolEvaluator` — ``multiprocessing``-backed batch fan-out.

Backends compose: ``CachingEvaluator(inner=PoolEvaluator())`` gives a
memoised pool.  Custom backends subclass :class:`Evaluator` (implement
``log_density`` / ``qoi``, optionally ``log_density_batch``) and are plugged
in per level through ``MLComponentFactory.evaluator_for_level``.

Typical usage — select a backend per hierarchy and read the accounting::

    from repro import GaussianHierarchyFactory, MLMCMCSampler

    factory = GaussianHierarchyFactory(
        num_levels=3,
        evaluation_backend="caching",
        evaluator_options={"cache_size": 8192},
    )
    result = MLMCMCSampler(factory, num_samples=[400, 100, 40], seed=0).run()
    for level, stats in enumerate(result.evaluation_stats):
        print(level, stats.log_density_evaluations, stats.cache_hits, stats.hit_rate)

An evaluator serves exactly one sampling problem (binding twice raises), so
factories return a *fresh* instance per problem; drivers and run manifests
consume the recorded :class:`EvaluatorStats` rather than timing model code
themselves.
"""

from repro.evaluation.base import Evaluator, EvaluatorStats
from repro.evaluation.batch import BatchEvaluator
from repro.evaluation.caching import CachingEvaluator
from repro.evaluation.inprocess import InProcessEvaluator
from repro.evaluation.pool import PoolEvaluator

__all__ = [
    "Evaluator",
    "EvaluatorStats",
    "InProcessEvaluator",
    "CachingEvaluator",
    "BatchEvaluator",
    "PoolEvaluator",
    "make_evaluator",
]


def make_evaluator(backend: str = "inprocess", **options) -> Evaluator:
    """Build an evaluator from a backend name.

    Parameters
    ----------
    backend:
        One of ``"inprocess"``, ``"caching"``, ``"batch"`` or ``"pool"``.
    options:
        Backend-specific keyword arguments: ``cache_size`` / ``inner`` /
        ``key_context`` (caching), ``max_batch_size`` (batch), ``processes`` /
        ``min_batch_size`` (pool).  ``inner`` may be an
        :class:`Evaluator` instance or a zero-argument callable returning
        one — pass a callable whenever the same options are reused for
        several problems (e.g. a factory's ``evaluator_options``), since an
        evaluator instance serves exactly one problem.

    Examples
    --------
    >>> make_evaluator("caching", cache_size=512)  # doctest: +ELLIPSIS
    <repro.evaluation.caching.CachingEvaluator object at ...>
    """
    name = backend.lower()
    evaluator: Evaluator | None = None
    if name in ("inprocess", "in-process", "direct"):
        evaluator = InProcessEvaluator()
    elif name == "caching":
        inner = options.pop("inner", None)
        if inner is not None and not isinstance(inner, Evaluator):
            inner = inner()
        evaluator = CachingEvaluator(
            inner=inner,
            max_entries=int(options.pop("cache_size", 4096)),
            key_context=options.pop("key_context", None),
        )
    elif name == "batch":
        evaluator = BatchEvaluator(max_batch_size=int(options.pop("max_batch_size", 1024)))
    elif name == "pool":
        evaluator = PoolEvaluator(
            processes=options.pop("processes", None),
            context=options.pop("context", None),
            min_batch_size=int(options.pop("min_batch_size", 2)),
        )
    else:
        raise ValueError(
            f"unknown evaluation backend {backend!r}; "
            "expected one of: inprocess, caching, batch, pool"
        )
    if options:
        raise ValueError(
            f"unknown option(s) {sorted(options)} for evaluation backend {name!r}"
        )
    return evaluator
