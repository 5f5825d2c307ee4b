"""Benchmark-side spans around each layer's public callables.

The program has no tracing of its own yet, so the traced run records spans
from outside: every entry of :data:`SPAN_TABLE` is replaced, by attribute
assignment on its class or module, with a wrapper that times the call and
keeps a per-thread stack so a span knows its parent.  A span's *self* time is
its duration minus the durations of the spans it directly caused; summing
self times over the spans of one layer gives the time spent in that layer's
own code.

Only the process that calls :meth:`SpanRecorder.install` is traced.  Rank
code running in other OS processes (the ``multiprocess`` and ``socket``
transports) is out of reach; those workloads take their per-layer numbers
from program counters and micro-timings instead.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import os
import threading
from time import perf_counter

__all__ = ["SPAN_TABLE", "SpanRecorder", "resolve_target"]

#: span name -> ``"module:attribute.path"`` of the public callable it wraps.
#: The first component of a span name is the layer (``repro.<layer>``).
SPAN_TABLE: dict[str, str] = {
    "experiments.run_scenario": "repro.experiments.runner:run_scenario",
    "experiments.build_manifest": "repro.experiments.runner:build_manifest",
    "core.sampler.run": "repro.core.mlmcmc:MLMCMCSampler.run",
    "core.chain.run": "repro.core.chain:SingleChainMCMC.run",
    "core.chain.step": "repro.core.chain:SingleChainMCMC.step",
    "core.chain.next_sample": "repro.core.chain:SubsampledChainSource.next_sample",
    "core.kernel.mh_step": "repro.core.kernels.mh:MHKernel.step",
    "core.kernel.ml_step": "repro.core.kernels.multilevel:MultilevelKernel.step",
    "core.proposal.random_walk": (
        "repro.core.proposals.random_walk:GaussianRandomWalkProposal.propose"
    ),
    "core.proposal.pcn": (
        "repro.core.proposals.pcn:PreconditionedCrankNicolsonProposal.propose"
    ),
    "core.proposal.independence": (
        "repro.core.proposals.independence:IndependenceProposal.propose"
    ),
    "core.proposal.adaptive": (
        "repro.core.proposals.adaptive_metropolis:AdaptiveMetropolisProposal.propose"
    ),
    "core.proposal.subsampling": (
        "repro.core.proposals.subsampling:SubsamplingProposal.propose"
    ),
    "core.collection.sample_add": "repro.core.sample_collection:SampleCollection.add",
    "core.collection.correction_add": (
        "repro.core.sample_collection:CorrectionCollection.add"
    ),
    "core.estimate.from_corrections": (
        "repro.core.estimators:MultilevelEstimate.from_corrections"
    ),
    "evaluation.log_density": "repro.evaluation.inprocess:InProcessEvaluator.log_density",
    "evaluation.qoi": "repro.evaluation.inprocess:InProcessEvaluator.qoi",
    "evaluation.log_density_loop": "repro.evaluation.base:Evaluator.log_density_batch",
    "evaluation.log_density_batch": (
        "repro.evaluation.batch:BatchEvaluator.log_density_batch"
    ),
    "bayes.posterior.log_density": "repro.bayes.posterior:Posterior.log_density",
    "bayes.posterior.log_density_batch": (
        "repro.bayes.posterior:Posterior.log_density_batch"
    ),
    "bayes.posterior.qoi": "repro.bayes.posterior:Posterior.qoi",
    "bayes.gaussian.log_density": "repro.bayes.distributions:GaussianDensity.log_density",
    "bayes.gaussian.log_density_batch": (
        "repro.bayes.distributions:GaussianDensity.log_density_batch"
    ),
    "models.poisson.forward": "repro.models.poisson:PoissonForwardModel.forward",
    "models.poisson.forward_batch": (
        "repro.models.poisson:PoissonForwardModel.forward_batch"
    ),
    "models.tsunami.forward": "repro.models.tsunami:TsunamiForwardModel.forward",
    "models.tsunami.forward_batch": (
        "repro.models.tsunami:TsunamiForwardModel.forward_batch"
    ),
    "fem.solve_and_observe": "repro.fem.poisson:PoissonSolver.solve_and_observe",
    "fem.solve_and_observe_batch": (
        "repro.fem.poisson:PoissonSolver.solve_and_observe_batch"
    ),
    "swe.observe": "repro.swe.scenario:TohokuLikeScenario.observe",
    "swe.observe_batch": "repro.swe.scenario:TohokuLikeScenario.observe_batch",
    "randomfield.kl_init": "repro.randomfield.kl:KarhunenLoeveExpansion.__init__",
    "randomfield.kl_modes": "repro.randomfield.kl:KarhunenLoeveExpansion.modes",
    "parallel.sampler.run": (
        "repro.parallel.parallel_mlmcmc:ParallelMLMCMCSampler.run"
    ),
    "parallel.world.simulated": "repro.parallel.simmpi.world:VirtualWorld.run",
    "parallel.world.real": "repro.parallel.mp:MultiprocessWorld.run",
}

#: raw spans kept per run for the Chrome trace (aggregates cover all spans)
MAX_RAW_SPANS = 20_000


def resolve_target(target: str):
    """``(owner, attribute name, raw attribute)`` of one table entry.

    Raises ``ImportError`` / ``AttributeError`` when the entry no longer
    names a callable, which is how a rename in ``src/`` fails the benchmark
    instead of silently dropping a layer.
    """
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    raw = inspect.getattr_static(owner, attribute)
    function = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
    if not callable(function):
        raise AttributeError(f"span target {target!r} is not callable")
    return owner, attribute, raw


class SpanRecorder:
    """Installs the span wrappers, aggregates spans in memory, removes them."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.raw: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._thread_stats: list[dict[str, list]] = []
        self._originals: list[tuple] = []

    # ------------------------------------------------------------------
    def _thread_state(self):
        stats: dict[str, list] = {}
        with self._lock:
            self._thread_stats.append(stats)
        state = self._local.state = ([], stats)
        return state

    def _wrap(self, function, name: str):
        local = self._local
        ids = self._ids
        raw = self.raw
        new_state = self._thread_state

        def span(*args, **kwargs):
            try:
                stack, stats = local.state
            except AttributeError:
                stack, stats = new_state()
            span_id = next(ids)
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                entry = stats.get(name)
                if entry is None:
                    entry = stats[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if len(raw) < MAX_RAW_SPANS:
                    raw.append(
                        (span_id, parent, name, start, end, threading.get_ident())
                    )

        span.__wrapped__ = function
        span.__name__ = getattr(function, "__name__", name)
        return span

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Replace every table entry by its span wrapper."""
        for name, target in SPAN_TABLE.items():
            owner, attribute, raw = resolve_target(target)
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(raw.__func__, name))
            elif isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name))
            else:
                wrapped = self._wrap(raw, name)
            self._originals.append((owner, attribute, raw))
            setattr(owner, attribute, wrapped)

    def uninstall(self) -> None:
        """Put the original callables back."""
        while self._originals:
            owner, attribute, raw = self._originals.pop()
            setattr(owner, attribute, raw)

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, dict[str, float]]:
        """``{span name: {"count", "total_s", "self_s"}}`` over all threads."""
        merged: dict[str, list] = {}
        with self._lock:
            per_thread = list(self._thread_stats)
        for stats in per_thread:
            for name, (count, total, self_time) in stats.items():
                entry = merged.setdefault(name, [0, 0.0, 0.0])
                entry[0] += count
                entry[1] += total
                entry[2] += self_time
        return {
            name: {"count": count, "total_s": total, "self_s": self_time}
            for name, (count, total, self_time) in sorted(merged.items())
        }

    def write_chrome_trace(self, path) -> None:
        """The retained raw spans as a Chrome / Perfetto trace-event file."""
        if not self.raw:
            events = []
        else:
            origin = min(span[3] for span in self.raw)
            pid = os.getpid()
            events = [
                {
                    "name": name,
                    "cat": name.split(".", 1)[0],
                    "ph": "X",
                    "ts": (start - origin) * 1e6,
                    "dur": (end - start) * 1e6,
                    "pid": pid,
                    "tid": thread,
                    "args": {"id": span_id, "parent": parent, "run": self.run_id},
                }
                for span_id, parent, name, start, end, thread in self.raw
            ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
