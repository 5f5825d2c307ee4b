"""Simulated MPI: a discrete-event message-passing substrate.

The reproduction environment has neither an MPI installation nor multiple
cores, so the parallel MLMCMC scheduler runs on *virtual ranks* driven by a
discrete-event simulation:

* every rank is a :class:`RankProcess` whose ``run`` method is a generator
  yielding simulation primitives (``compute``, ``send``, ``recv``),
* the :class:`VirtualWorld` advances a global virtual clock, delivers messages
  with a configurable latency and resumes blocked processes,
* model evaluations advance virtual time according to a cost model while the
  *statistical* work (density evaluations, accept/reject decisions) is done
  for real.

What the paper measures in its scaling experiments — which process waits for
which sample, how long chains sit idle, when the load balancer reassigns work
groups — is a property of this scheduling structure, which the simulation
reproduces faithfully; only the absolute wall-clock seconds are virtual.
"""

from repro.parallel.transport import Compute, Message, RankProcess, Receive, Send
from repro.parallel.simmpi.world import VirtualWorld

__all__ = ["Message", "RankProcess", "VirtualWorld", "Compute", "Send", "Receive"]
