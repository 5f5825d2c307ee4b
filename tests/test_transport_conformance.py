"""Cross-backend conformance suite for the parallel MLMCMC transports.

One parametrized suite pinning all three backends — ``simulated`` (DES),
``multiprocess`` (OS queues) and ``socket`` (TCP hub on localhost) — to the
same driver-facing semantics:

* the two real-process backends produce **bitwise-identical** estimates for a
  seeded run (they drive the same deterministic role generators; only the
  delivery fabric differs),
* per-level collection counts are identical on *every* backend (the collector
  truncates at its target regardless of scheduling),
* every backend's estimate is statistically consistent with the analytically
  known posterior mean,
* trace/utilization fields are populated when tracing is on and NaN (per the
  documented contract) when it is off,
* shutdown is clean: no leaked child processes, no open hub sockets.

The simulated backend legitimately differs from the real-process backends in
the estimate *values*: virtual-time scheduling feeds coarse proposals to fine
chains in a different interleaving.  What must never differ is the estimator
contract above — that drift is exactly what this suite exists to catch.
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import replace

import numpy as np
import pytest

from repro.core import CostModel
from repro.core.allocation import ContinuationAllocation, SamplingBudget
from repro.experiments import get_scenario, run_scenario, validate_manifest
from repro.models.gaussian import GaussianHierarchyFactory
from repro.parallel import ParallelMLMCMCSampler

BACKENDS = ("simulated", "multiprocess", "socket")
REAL_BACKENDS = ("multiprocess", "socket")
NUM_SAMPLES = [40, 16, 8]


@pytest.fixture(scope="module")
def factory():
    return GaussianHierarchyFactory(dim=2, num_levels=3, subsampling=3)


def _sampler(factory, backend, **overrides):
    options = dict(
        num_samples=NUM_SAMPLES,
        num_ranks=8,
        cost_model=CostModel([0.01, 0.04, 0.16]),
        seed=11,
        backend=backend,
    )
    options.update(overrides)
    return ParallelMLMCMCSampler(factory, **options)


@pytest.fixture(scope="module")
def results(factory):
    """One seeded run per backend, shared by the conformance assertions."""
    return {
        backend: _sampler(factory, backend).run() for backend in BACKENDS
    }


# ----------------------------------------------------------------------------
class TestEstimatorConformance:
    def test_real_process_backends_bitwise_identical(self, results):
        np.testing.assert_array_equal(
            results["multiprocess"].mean, results["socket"].mean
        )
        for level in range(len(NUM_SAMPLES)):
            np.testing.assert_array_equal(
                results["multiprocess"].corrections[level].fine_matrix(),
                results["socket"].corrections[level].fine_matrix(),
            )

    def test_socket_backend_is_run_to_run_deterministic(self, factory, results):
        again = _sampler(factory, "socket").run()
        np.testing.assert_array_equal(results["socket"].mean, again.mean)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_per_level_collection_counts_identical(self, results, backend):
        # Each collector truncates at its target, so the collected counts are
        # exact and backend-independent even though scheduling (and therefore
        # the raw number of *generated* samples) differs.
        counts = {
            level: len(collection)
            for level, collection in results[backend].corrections.items()
        }
        assert counts == {level: target for level, target in enumerate(NUM_SAMPLES)}

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_estimate_statistically_consistent(self, factory, results, backend):
        result = results[backend]
        assert np.all(np.isfinite(result.mean))
        assert np.linalg.norm(result.mean - factory.exact_mean()) < 1.5

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backend_recorded_on_result(self, results, backend):
        assert results[backend].backend == backend


# ----------------------------------------------------------------------------
class TestTraceContract:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_trace_populated_and_utilization_finite(self, results, backend):
        result = results[backend]
        assert result.trace.events(), f"{backend} recorded no trace events"
        utilization = result.worker_utilization()
        assert math.isfinite(utilization)
        assert 0.0 < utilization <= 1.0

    @pytest.mark.parametrize("backend", REAL_BACKENDS)
    def test_utilization_is_nan_when_tracing_disabled(self, factory, backend):
        result = _sampler(factory, backend, trace_enabled=False).run()
        assert math.isnan(result.worker_utilization())
        # the estimator itself must not depend on tracing
        assert np.all(np.isfinite(result.mean))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_summary_has_identical_layout(self, results, backend):
        assert set(results[backend].summary()) == set(results["simulated"].summary())
        assert results[backend].summary()["messages_sent"] > 0


# ----------------------------------------------------------------------------
class TestCleanShutdown:
    @pytest.mark.parametrize("backend", REAL_BACKENDS)
    def test_no_leaked_processes(self, factory, backend):
        _sampler(factory, backend).run()
        leaked = [c for c in multiprocessing.active_children() if c.is_alive()]
        assert leaked == [], f"{backend} leaked children: {leaked}"

    def test_socket_hub_closed_after_run(self, factory):
        sampler = _sampler(factory, "socket")
        world, _root, _phonebook = sampler.build_world()
        world.run()
        assert world._hub is not None
        assert world._hub.closed, "hub listener/connections left open"

    def test_socket_hub_threads_exit_after_run(self, factory):
        # Closing a socket does not wake a thread blocked in accept/recv on
        # Linux; the hub must shut its sockets down so no thread outlives it.
        sampler = _sampler(factory, "socket")
        world, _root, _phonebook = sampler.build_world()
        world.run()
        hub = world._hub
        threads = [hub._accept_thread, *hub._threads]
        assert [t.name for t in threads if t.is_alive()] == []


# ----------------------------------------------------------------------------
class TestScenarioConformance:
    """The CI acceptance check: seeded quick poisson-parallel, socket ≡ mp."""

    @pytest.fixture(scope="class")
    def scenario_runs(self):
        return {
            backend: run_scenario(
                "poisson-parallel", quick=True, parallel_backend=backend
            )
            for backend in BACKENDS
        }

    def test_quick_poisson_socket_bitwise_equals_multiprocess(self, scenario_runs):
        mp_mean = scenario_runs["multiprocess"].payload["mean"]
        socket_mean = scenario_runs["socket"].payload["mean"]
        assert mp_mean == socket_mean, "socket and multiprocess estimates diverged"

    def test_per_level_counts_identical_across_all_backends(self, scenario_runs):
        counts = {
            backend: {
                level: len(collection)
                for level, collection in run.raw.corrections.items()
            }
            for backend, run in scenario_runs.items()
        }
        assert counts["simulated"] == counts["multiprocess"] == counts["socket"]
        assert all(c > 0 for c in counts["socket"].values())

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_manifest_records_backend_and_validates(self, scenario_runs, backend):
        manifest = scenario_runs[backend].manifest
        validate_manifest(manifest)
        assert manifest["parallel_backend"] == backend
        assert manifest["results"]["parallel_backend"] == backend


# ----------------------------------------------------------------------------
class TestAllocationConformance:
    """The allocation layer's cross-backend contract.

    An explicit ``policy: "fixed"`` budget must reproduce the no-budget run
    bitwise (the policy resolves to ``allocation=None``, the pre-allocation
    static machine); adaptive runs price their snapshots from the declared
    cost model, so their continuation trajectories are deterministic per
    backend and bitwise-identical between the two real-process transports.
    """

    def test_explicit_fixed_budget_bitwise_identical(self):
        base = get_scenario("poisson-parallel").resolved(quick=True)
        plain = run_scenario(base, parallel_backend="simulated")
        fixed = run_scenario(
            replace(base, budget={"policy": "fixed"}),
            parallel_backend="simulated",
        )
        assert plain.payload["mean"] == fixed.payload["mean"]
        assert fixed.manifest["allocation"] == {"policy": "fixed"}
        assert plain.raw.allocation_rounds == []
        assert fixed.raw.allocation_rounds == []

    def _adaptive_run(self, factory, backend):
        policy = ContinuationAllocation(
            SamplingBudget(cost_cap=3.0, max_rounds=4), pilot=[8, 4, 2]
        )
        return _sampler(factory, backend, allocation=policy).run()

    def test_adaptive_simulated_deterministic_trajectory(self, factory):
        first = self._adaptive_run(factory, "simulated")
        second = self._adaptive_run(factory, "simulated")
        trajectory = [r.targets for r in first.allocation_rounds]
        assert len(trajectory) >= 2
        assert trajectory == [r.targets for r in second.allocation_rounds]
        np.testing.assert_array_equal(first.mean, second.mean)
        # the merged collections realize the final round's targets
        final = first.allocation_rounds[-1]
        assert [
            len(first.corrections[level]) for level in sorted(first.corrections)
        ] == final.collected
        # the cap-respecting policy never spends past its budget
        assert final.spent_cost <= 3.0 + 1e-9

    def test_adaptive_real_backends_bitwise_identical(self, factory):
        mp_run = self._adaptive_run(factory, "multiprocess")
        socket_run = self._adaptive_run(factory, "socket")
        assert len(mp_run.allocation_rounds) >= 2
        assert [r.targets for r in mp_run.allocation_rounds] == [
            r.targets for r in socket_run.allocation_rounds
        ]
        np.testing.assert_array_equal(mp_run.mean, socket_run.mean)
