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

from repro._lazy import lazy_exports

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

# Each transport and subsystem is imported only when one of its names is first
# used: a simulated run never loads the multiprocess or socket backends.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.parallel.chaos": (
            "EvaluatorFault",
            "FaultPlan",
            "InjectedEvaluatorError",
            "MessageDelay",
            "MessageDrop",
            "RankKill",
            "apply_chaos_to_virtual",
        ),
        "repro.parallel.checkpoint": ("CheckpointConfig", "CheckpointError", "Checkpointer"),
        "repro.parallel.fault": (
            "FailureReport",
            "FaultToleranceConfig",
            "RankFailure",
            "Reassignment",
        ),
        "repro.parallel.layout": ("ProcessLayout", "WorkGroup"),
        "repro.parallel.loadbalancer": (
            "DynamicLoadBalancer",
            "LevelLoad",
            "RebalanceDecision",
            "StaticLoadBalancer",
        ),
        "repro.parallel.parallel_mlmcmc": ("ParallelMLMCMCResult", "ParallelMLMCMCSampler"),
        "repro.parallel.scaling": (
            "ScalingPoint",
            "ScalingStudyResult",
            "strong_scaling_study",
            "weak_scaling_study",
        ),
        "repro.parallel.mp": ("MultiprocessWorld",),
        "repro.parallel.net": ("ProtocolVersionError", "SocketWorld", "connect_with_backoff"),
        "repro.parallel.simmpi": ("VirtualWorld",),
        "repro.parallel.trace": ("TraceEvent", "TraceRecorder"),
        "repro.parallel.transport": (
            "Compute",
            "Message",
            "RankProcess",
            "Receive",
            "ReceiveTimeout",
            "Send",
            "Transport",
        ),
        "repro.parallel.wire": ("TruncatedFrameError", "WireProtocolError"),
    },
)
