"""Counter-based random streams.

Every stochastic routine in the package receives a ``RandomStream``, which is
a (seed, path) pair.  The path is a tuple of non-negative integers (purpose,
level, block index, ...) appended with :meth:`RandomStream.child`.  Identical
(seed, path) pairs reproduce identical draws; distinct paths give statistically
independent streams.  Because the state is derived from the pair alone, the
results never depend on the order in which streams are consumed, which is what
makes worker-count-independent reproducibility possible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RandomStream"]


@dataclass(frozen=True)
class RandomStream:
    master_seed: int
    path: tuple[int, ...] = ()

    def __post_init__(self):
        if not 0 <= int(self.master_seed) < 2**64:
            raise ValueError("master_seed must be a non-negative 64-bit integer")
        if any(p < 0 for p in self.path):
            raise ValueError("path components must be non-negative")

    def child(self, *indices: int) -> "RandomStream":
        """Derive a sub-stream by extending the path."""
        return RandomStream(self.master_seed, self.path + tuple(int(i) for i in indices))

    def generator(self) -> np.random.Generator:
        """Fresh counter-based generator for this (seed, path) pair."""
        seq = np.random.SeedSequence(self.master_seed, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(seq))

