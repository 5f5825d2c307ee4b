"""Import boundaries: a run loads only the layers it uses, and only before its clock starts.

Every case runs in a fresh interpreter, because what a test session has
already imported would hide what a cold ``import`` (or a cold run) loads.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


#: prepended to every case: ``loaded(*packages)`` lists the loaded modules of ``packages``
PRELUDE = """
import sys

def loaded(*packages):
    return sorted(
        m for m in sys.modules if any(m == p or m.startswith(p + ".") for p in packages)
    )
"""


def _fresh(code: str) -> None:
    """Run ``code`` in a new interpreter that imports ``repro`` from this tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr


class TestImportBoundary:
    def test_import_repro_loads_no_application_stack(self):
        _fresh("""
        import repro
        heavy = loaded(
            "scipy", "repro.parallel", "repro.fem", "repro.randomfield", "repro.swe",
            "repro.models.poisson", "repro.models.tsunami",
        )
        assert not heavy, heavy
        """)

    def test_gaussian_factory_loads_no_scipy(self):
        _fresh("""
        from repro.experiments.presets import build_factory
        build_factory("gaussian", {"dim": 2, "num_levels": 2})
        assert not loaded("scipy"), loaded("scipy")
        """)

    def test_scaled_tsunami_factory_loads_no_scipy_or_fem(self):
        _fresh("""
        from repro.experiments.presets import build_factory
        build_factory("tsunami", {"preset": "scaled"})
        heavy = loaded("scipy", "repro.fem")
        assert not heavy, heavy
        """)

    def test_every_export_resolves_to_its_defining_object(self):
        _fresh("""
        import importlib
        import repro

        # values without a __module__ of their own, by defining module
        constants = {
            "__version__": "repro",
        }
        for package in ("repro", "repro.models", "repro.parallel"):
            module = importlib.import_module(package)
            for name in module.__all__:
                value = getattr(module, name)
                origin = constants.get(name) or value.__module__
                assert getattr(importlib.import_module(origin), name) is value, name
                assert name in dir(module), (package, name)
            namespace = {}
            exec(f"from {package} import *", namespace)
            assert set(module.__all__) <= set(namespace), package

        # subpackages and submodules still resolve as attributes
        assert repro.parallel.mp.MultiprocessWorld is repro.parallel.MultiprocessWorld
        assert repro.models.tsunami.TsunamiLevelSpec is repro.models.TsunamiLevelSpec
        try:
            repro.no_such_name
        except AttributeError:
            pass
        else:
            raise AssertionError("an unknown name resolved")
        """)


#: one small spec per driver family the benchmark and CI run
PURITY_SPECS = {
    "sequential-gaussian": """ExperimentSpec(
        name="purity", driver="sequential", application="gaussian",
        problem={"dim": 2, "num_levels": 2}, sampler={"num_samples": [40, 10]}, seed=0)""",
    "sequential-priced": """ExperimentSpec(
        name="purity", driver="sequential", application="gaussian",
        problem={"dim": 2, "num_levels": 2},
        sampler={"num_samples": [40, 10], "cost_per_level": [1.0, 4.0], "cost_cv": 0.3},
        budget={"policy": "adaptive", "target_mse": 1e-2, "pilot": [8, 4], "max_rounds": 2},
        seed=0)""",
    "sequential-tsunami": 'get_scenario("table4-tsunami-multilevel").resolved(quick=True)',
    "parallel-simulated": 'get_scenario("fig09-load-balancing").resolved(quick=True)',
    "parallel-multiprocess": """get_scenario("poisson-parallel").resolved(
        quick=True, parallel_backend="multiprocess")""",
    "forward-sweep-batch": 'get_scenario("tsunami-batch").resolved(quick=True)',
}


@pytest.mark.parametrize("case", sorted(PURITY_SPECS))
def test_timed_region_imports_nothing(case):
    """After ``prewarm(spec)``, ``run_scenario(spec)`` adds no module."""
    _fresh(f"""
    from repro.experiments import ExperimentSpec, get_scenario, run_scenario
    from repro.experiments.drivers import prewarm

    spec = {PURITY_SPECS[case]}
    prewarm(spec)
    before = set(sys.modules)
    run_scenario(spec)
    added = sorted(set(sys.modules) - before)
    assert not added, added
    """)


def test_sequential_run_with_declared_costs_loads_no_parallel_module():
    """A sequential run prices its allocation with ``repro.core.CostModel``."""
    _fresh(f"""
    from repro.experiments import ExperimentSpec, run_scenario

    run_scenario({PURITY_SPECS["sequential-priced"]})
    assert not loaded("repro.parallel"), loaded("repro.parallel")
    """)
