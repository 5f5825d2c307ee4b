"""Model hierarchies: the Bayesian inverse problems of the paper's evaluation.

* :mod:`repro.models.base` — the shared :class:`ForwardModel` contract
  (``forward`` / ``forward_batch`` / ``output_dim``) every application's
  forward map implements; the seam the batch/pool evaluation backends plug
  into.
* :mod:`repro.models.poisson` — the single-phase subsurface-flow (Poisson)
  inverse problem with a KL-parameterised log-normal diffusion coefficient
  (Section 3.1), used for correctness checks and the scaling experiments.
* :mod:`repro.models.tsunami` — the Tohoku-like tsunami source inversion
  driven by the shallow-water solver (Section 3.2); its forward model's batch
  path is the solver's ensemble time loop.
* :mod:`repro.models.gaussian` — an analytic Gaussian hierarchy with
  closed-form posterior moments, used by the test-suite and as a cheap
  stand-in posterior for scheduler-focused experiments.
"""

from repro._lazy import lazy_exports

__all__ = [
    "ForwardModel",
    "ForwardModelBase",
    "GaussianHierarchyFactory",
    "GaussianIdentityForwardModel",
    "PoissonForwardModel",
    "PoissonInverseProblemFactory",
    "PoissonLevelSpec",
    "TsunamiForwardModel",
    "TsunamiInverseProblemFactory",
    "TsunamiLevelSpec",
]

# Each application stack (scipy + FEM for Poisson, the shallow-water solver for
# the tsunami) is imported only when one of its names is first used.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.models.base": ("ForwardModel", "ForwardModelBase"),
        "repro.models.gaussian": ("GaussianHierarchyFactory", "GaussianIdentityForwardModel"),
        "repro.models.poisson": (
            "PoissonForwardModel",
            "PoissonInverseProblemFactory",
            "PoissonLevelSpec",
        ),
        "repro.models.tsunami": (
            "TsunamiForwardModel",
            "TsunamiInverseProblemFactory",
            "TsunamiLevelSpec",
        ),
    },
)
