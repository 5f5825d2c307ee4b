"""Random number management.

Reproducible multi-component stochastic algorithms need careful stream
management: every chain, proposal, worker group and forward model should draw
from an *independent* stream, regardless of execution order.  NumPy's
``SeedSequence`` spawning provides exactly that; :class:`RandomSource` wraps it
with a small registry so components can request named child streams.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np
# numpy 2 would otherwise import this on the first generator, inside a timed run
import numpy.random  # noqa: F401


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
