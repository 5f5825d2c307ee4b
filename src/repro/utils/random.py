"""Random number management.

Reproducible multi-component stochastic algorithms need careful stream
management: every chain, proposal, worker group and forward model should draw
from an *independent* stream, regardless of execution order.  NumPy's
``SeedSequence`` spawning provides exactly that; :class:`RandomSource` wraps it
with a small registry so components can request named child streams.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence

import numpy as np
# numpy 2 would otherwise import this on the first generator, inside a timed run
import numpy.random  # noqa: F401


def spawn_rngs(seed: int | np.random.SeedSequence | None, n: int) -> list[np.random.Generator]:
    """Create ``n`` statistically independent generators from a single seed."""
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(n)]


class RandomSource:
    """A hierarchical, named source of independent random generators.

    Parameters
    ----------
    seed:
        Root seed (``None`` draws entropy from the OS).

    Examples
    --------
    >>> source = RandomSource(7)
    >>> rng_a = source.child("chain", 0)
    >>> rng_b = source.child("chain", 1)
    >>> rng_a is rng_b
    False

    Requesting the same name twice returns *new* draws from the same child
    stream object, so components can hold on to their generator.
    """

    def __init__(self, seed: int | None = None) -> None:
        self._seed_sequence = np.random.SeedSequence(seed)
        self._children: dict[tuple, np.random.Generator] = {}
        self._spawn_count = 0
        self.root = np.random.default_rng(self._seed_sequence.spawn(1)[0])

    @property
    def seed_entropy(self) -> int | Sequence[int]:
        """Entropy underlying the root seed sequence."""
        return self._seed_sequence.entropy

    def child(self, *name: object) -> np.random.Generator:
        """Return the generator registered under ``name`` (creating it once).

        The name is mapped to a spawn key through a *deterministic* hash
        (Python's built-in ``hash`` of strings is randomised per process and
        would break cross-run reproducibility).
        """
        key = tuple(name)
        if key not in self._children:
            self._spawn_count += 1
            digest = hashlib.sha256(repr(key).encode("utf-8")).digest()
            stable_hash = int.from_bytes(digest[:4], "little") & 0x7FFFFFFF
            child_seq = np.random.SeedSequence(
                entropy=self._seed_sequence.entropy,
                spawn_key=(stable_hash, self._spawn_count),
            )
            self._children[key] = np.random.default_rng(child_seq)
        return self._children[key]

    def spawn(self, n: int) -> list[np.random.Generator]:
        """Spawn ``n`` fresh anonymous independent generators."""
        children = self._seed_sequence.spawn(n)
        return [np.random.default_rng(child) for child in children]

    def integers(self, low: int, high: int | None = None) -> int:
        """Convenience wrapper over the root generator's ``integers``."""
        return int(self.root.integers(low, high))


def as_generator(rng: np.random.Generator | int | None) -> np.random.Generator:
    """Normalise ``rng`` to a :class:`numpy.random.Generator`."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def antithetic_normal(rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw an antithetic pair of standard normal vectors (variance reduction)."""
    z = rng.standard_normal(size)
    return z, -z


def multivariate_normal_sample(
    rng: np.random.Generator,
    mean: np.ndarray,
    chol_cov: np.ndarray,
) -> np.ndarray:
    """Sample ``N(mean, L L^T)`` given the Cholesky factor ``L`` of the covariance."""
    mean = np.asarray(mean, dtype=float)
    z = rng.standard_normal(mean.shape[0])
    return mean + chol_cov @ z


def stratified_indices(rng: np.random.Generator, n: int, strata: int) -> np.ndarray:
    """Return ``n`` indices stratified over ``strata`` equally sized bins.

    Used by collectors when thinning stored chains for diagnostics without
    biasing towards early (burn-in adjacent) samples.
    """
    if strata <= 0:
        raise ValueError("strata must be positive")
    edges = np.linspace(0, n, strata + 1).astype(int)
    picks = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi > lo:
            picks.append(int(rng.integers(lo, hi)))
    return np.array(sorted(picks), dtype=int)


def choice_without_replacement(
    rng: np.random.Generator, pool: Iterable[int], k: int
) -> list[int]:
    """Sample ``k`` distinct items from ``pool`` (returns fewer if pool is small)."""
    items = list(pool)
    if k >= len(items):
        return items
    idx = rng.choice(len(items), size=k, replace=False)
    return [items[i] for i in idx]
