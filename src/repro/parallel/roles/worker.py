"""Worker processes.

Workers share the load of running a single forward-model evaluation (paper,
Section 4.2): they are called synchronously by their controller, so user
models can assume lock-step parallelism.  In the simulated substrate a worker
simply mirrors the virtual compute time of every evaluation its controller
performs, which is what makes work-group utilisation visible in the traces.

Each worker accounts for its evaluations in an
:class:`repro.evaluation.EvaluatorStats` — the same statistics type the
sampling problems' evaluators use — so per-rank busy time and evaluation
counts come out of one shared bookkeeping vocabulary.
"""

from __future__ import annotations

from typing import Generator

from repro.evaluation import EvaluatorStats
from repro.parallel.roles.protocol import Tags
from repro.parallel.transport import RankProcess

__all__ = ["WorkerProcess"]


class WorkerProcess(RankProcess):
    """Dynamic-role rank: lock-step model evaluation."""

    role = "worker"
    #: a worker holds no protocol state beyond accounting — a respawn just
    #: resumes serving WORKER_EVAL orders from its queue, no bootstrap needed
    restartable = True

    def __init__(self, rank: int, controller_rank: int) -> None:
        super().__init__(rank)
        self.controller_rank = controller_rank
        self.level: int | None = None
        #: evaluation accounting; wall_time/cost_units are virtual seconds
        self.stats = EvaluatorStats()

    @property
    def evaluations(self) -> int:
        """Number of model evaluations this worker took part in."""
        return self.stats.log_density_evaluations

    def harvest(self) -> dict:
        """Ship the evaluation accounting back to the driver (multiprocess runs)."""
        return {"stats": self.stats}

    def heartbeat_state(self) -> dict:
        return {"level": self.level, "evaluations": self.evaluations}

    def run(self) -> Generator:
        while True:
            message = yield self.recv(
                Tags.WORKER_EVAL, Tags.WORKER_ASSIGN, Tags.WORKER_SHUTDOWN
            )
            if message.tag == Tags.WORKER_SHUTDOWN:
                return
            if message.tag == Tags.WORKER_ASSIGN:
                self.level = int(message.payload["level"])
                continue
            payload = message.payload
            duration = float(payload["duration"])
            self.stats.record("log_density", wall_time=duration, cost=duration)
            yield self.compute(
                duration,
                kind=str(payload.get("kind", "model_eval")),
                level=payload.get("level"),
                label="worker",
            )
