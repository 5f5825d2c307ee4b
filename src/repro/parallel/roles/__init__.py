"""Role processes of the parallel MLMCMC architecture (paper, Fig. 8).

Fixed roles
    * :class:`RootProcess` — launches the run, assigns work groups and sample
      targets, detects completion and broadcasts shutdown.
    * :class:`PhonebookProcess` — directory of which chains sample which level,
      matchmaking between sample requests and available samples, and the home
      of the dynamic load balancer.

Dynamic roles
    * :class:`ControllerProcess` — runs one (multilevel) MCMC chain for its
      currently assigned level, evaluates the forward model together with its
      worker ranks, serves coarse samples to finer chains and correction
      samples to collectors.
    * :class:`WorkerProcess` — evaluates the forward model in lock step with
      its controller.
    * :class:`CollectorProcess` — gathers correction samples for one level of
      the telescoping sum.
"""

from repro.parallel.roles.protocol import Tags, RunConfiguration
from repro.parallel.roles.root import RootProcess
from repro.parallel.roles.phonebook import PhonebookProcess
from repro.parallel.roles.controller import ControllerProcess
from repro.parallel.roles.worker import WorkerProcess
from repro.parallel.roles.collector import CollectorProcess

__all__ = [
    "Tags",
    "RunConfiguration",
    "RootProcess",
    "PhonebookProcess",
    "ControllerProcess",
    "WorkerProcess",
    "CollectorProcess",
]
