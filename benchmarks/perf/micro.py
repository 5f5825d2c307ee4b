"""Micro-timings of single layers on a workload's own level inputs.

Each function times one public callable in a closed loop and reports the
median call.  A timing runs until it has ``calls`` samples, or until its time
budget is spent and it has at least ``MIN_CALLS`` — the finest SWE level
takes ~0.2 s per solve, so a fixed call count would dominate the traced run.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

__all__ = [
    "fem_batch",
    "fem_scalar",
    "median_call_s",
    "swe_ensemble",
    "swe_scalar",
    "wire_codec",
]

MIN_CALLS = 3
FEM_BATCH = 64
SWE_BATCH = 8


def median_call_s(function, calls: int, budget_s: float) -> tuple[float, int]:
    """Median seconds of one ``function()`` call and the number of calls made."""
    function()  # warm lazily built plans and workspaces
    samples: list[float] = []
    deadline = perf_counter() + budget_s
    while len(samples) < calls:
        start = perf_counter()
        function()
        end = perf_counter()
        samples.append(end - start)
        if end > deadline and len(samples) >= MIN_CALLS:
            break
    return statistics.median(samples), len(samples)


def _poisson_coefficients(factory, level: int, rng, rows: int) -> np.ndarray:
    model = factory.forward_model(level)
    thetas = rng.normal(0.0, 1.0, size=(rows, model.parameter_dim))
    return model.diffusion_coefficients_batch(thetas)


def fem_scalar(factory, rng, budget_s: float) -> dict[str, tuple[float, int]]:
    """``PoissonSolver.solve_and_observe`` per level, in microseconds."""
    out = {}
    for level in range(factory.num_levels()):
        model = factory.forward_model(level)
        kappa = _poisson_coefficients(factory, level, rng, 1)[0]
        seconds, n = median_call_s(
            lambda: model.solver.solve_and_observe(kappa, model.observation_points),
            calls=200, budget_s=budget_s,
        )
        out[f"fem.solve_us_l{level}"] = (seconds * 1e6, n)
    return out


def fem_batch(factory, rng, budget_s: float) -> dict[str, tuple[float, int]]:
    """``solve_and_observe_batch`` on 64 members, microseconds per member."""
    out = {}
    for level in range(factory.num_levels()):
        model = factory.forward_model(level)
        kappas = _poisson_coefficients(factory, level, rng, FEM_BATCH)
        seconds, n = median_call_s(
            lambda: model.solver.solve_and_observe_batch(
                kappas, model.observation_points
            ),
            calls=20, budget_s=budget_s,
        )
        out[f"fem.solve_batch_us_l{level}"] = (seconds / FEM_BATCH * 1e6, n)
    return out


def _physical_sources(scenario, rng, rows: int) -> np.ndarray:
    thetas = rng.normal(0.0, 20.0, size=(8 * rows, 2))
    thetas = thetas[scenario.physical_mask(thetas)]
    if thetas.shape[0] < rows:
        raise RuntimeError("too few physical tsunami sources drawn for the micro-timing")
    return thetas[:rows]


def swe_scalar(factory, rng, budget_s: float) -> dict[str, tuple[float, int]]:
    """``TohokuLikeScenario.observe`` per level, in milliseconds."""
    scenario = factory.scenario
    theta = _physical_sources(scenario, rng, 1)[0]
    out = {}
    for level in range(factory.num_levels()):
        seconds, n = median_call_s(
            lambda: scenario.observe(level, theta), calls=200, budget_s=budget_s
        )
        out[f"swe.run_ms_l{level}"] = (seconds * 1e3, n)
    return out


def swe_ensemble(factory, rng, budget_s: float) -> dict[str, tuple[float, int]]:
    """``observe_batch`` on 8 members, milliseconds per member."""
    scenario = factory.scenario
    thetas = _physical_sources(scenario, rng, SWE_BATCH)
    out = {}
    for level in range(factory.num_levels()):
        seconds, n = median_call_s(
            lambda: scenario.observe_batch(level, thetas), calls=20, budget_s=budget_s
        )
        out[f"swe.ensemble_member_ms_l{level}"] = (seconds / SWE_BATCH * 1e3, n)
    return out


def wire_codec(rng, budget_s: float) -> dict[str, tuple[float, int]]:
    """``encode_message`` / ``decode_message`` on a control and a sample message."""
    from repro.core.state import SamplingState
    from repro.parallel.transport import Message
    from repro.parallel.wire import decode_message, encode_message

    state = SamplingState(
        parameters=rng.normal(size=24), log_density=-1.5, qoi=rng.normal(size=256)
    )
    messages = {
        "ctrl": Message(source=3, dest=1, tag="SAMPLE_REQUEST", payload=(1, 3)),
        "sample": Message(
            source=3, dest=5, tag="COARSE_SAMPLE", payload={"state": state, "level": 1}
        ),
    }
    out = {}
    for kind, message in messages.items():
        body = encode_message(message)
        seconds, n = median_call_s(
            lambda: encode_message(message), calls=2000, budget_s=budget_s
        )
        out[f"parallel.wire.encode_us_{kind}"] = (seconds * 1e6, n)
        seconds, n = median_call_s(
            lambda: decode_message(body), calls=2000, budget_s=budget_s
        )
        out[f"parallel.wire.decode_us_{kind}"] = (seconds * 1e6, n)
    return out
