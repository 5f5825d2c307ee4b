"""Parallel MLMCMC: the paper's primary contribution.

A parallelization strategy for multilevel MCMC exposing parallelism across
forward models (worker groups), chains (multiple controllers per level) and
levels (all telescoping-sum terms sampled concurrently), despite the data
dependencies the method introduces — coarse chains feed proposals to fine
chains.  The process architecture (root / phonebook / controller / worker /
collector) and the phonebook-hosted dynamic load balancer follow Section 4 of
the paper.  The role machine runs on a pluggable transport
(:mod:`repro.parallel.transport`): the deterministic discrete-event simulation
in :mod:`repro.parallel.simmpi` (virtual time, any rank count), real OS
processes in :mod:`repro.parallel.mp` (queue-based delivery, wall-clock
timing), or real processes over TCP in :mod:`repro.parallel.net` (rendezvous
hub, versioned wire format, machine-spanning).
"""

from repro.parallel.chaos import (
    EvaluatorFault,
    FaultPlan,
    InjectedEvaluatorError,
    MessageDelay,
    MessageDrop,
    RankKill,
    apply_chaos_to_virtual,
)
from repro.parallel.checkpoint import (
    CheckpointConfig,
    CheckpointError,
    Checkpointer,
)
from repro.parallel.costmodel import (
    ConstantCostModel,
    CostModel,
    LogNormalCostModel,
    MeasuredCostModel,
    POISSON_PAPER_COSTS,
    TSUNAMI_PAPER_COSTS,
    cost_model_from_stats,
)
from repro.parallel.fault import (
    FailureReport,
    FaultToleranceConfig,
    RankFailure,
    Reassignment,
)
from repro.parallel.layout import ProcessLayout, WorkGroup
from repro.parallel.loadbalancer import (
    DynamicLoadBalancer,
    LevelLoad,
    RebalanceDecision,
    StaticLoadBalancer,
)
from repro.parallel.parallel_mlmcmc import ParallelMLMCMCResult, ParallelMLMCMCSampler
from repro.parallel.scaling import (
    ScalingPoint,
    ScalingStudyResult,
    strong_scaling_study,
    weak_scaling_study,
)
from repro.parallel.mp import MultiprocessWorld
from repro.parallel.net import (
    ProtocolVersionError,
    SocketWorld,
    TruncatedFrameError,
    WireProtocolError,
    connect_with_backoff,
)
from repro.parallel.simmpi import Message, RankProcess, VirtualWorld
from repro.parallel.trace import TraceEvent, TraceRecorder
from repro.parallel.transport import Compute, Receive, ReceiveTimeout, Send, Transport

__all__ = [
    "FaultPlan",
    "RankKill",
    "EvaluatorFault",
    "MessageDrop",
    "MessageDelay",
    "InjectedEvaluatorError",
    "apply_chaos_to_virtual",
    "CheckpointConfig",
    "Checkpointer",
    "CheckpointError",
    "FaultToleranceConfig",
    "FailureReport",
    "RankFailure",
    "Reassignment",
    "ReceiveTimeout",
    "CostModel",
    "ConstantCostModel",
    "LogNormalCostModel",
    "MeasuredCostModel",
    "cost_model_from_stats",
    "POISSON_PAPER_COSTS",
    "TSUNAMI_PAPER_COSTS",
    "ProcessLayout",
    "WorkGroup",
    "DynamicLoadBalancer",
    "StaticLoadBalancer",
    "LevelLoad",
    "RebalanceDecision",
    "ParallelMLMCMCResult",
    "ParallelMLMCMCSampler",
    "ScalingPoint",
    "ScalingStudyResult",
    "strong_scaling_study",
    "weak_scaling_study",
    "Message",
    "RankProcess",
    "VirtualWorld",
    "MultiprocessWorld",
    "SocketWorld",
    "WireProtocolError",
    "TruncatedFrameError",
    "ProtocolVersionError",
    "connect_with_backoff",
    "Transport",
    "Compute",
    "Send",
    "Receive",
    "TraceEvent",
    "TraceRecorder",
]
