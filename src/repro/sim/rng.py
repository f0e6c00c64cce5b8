"""Named deterministic random streams.

Experiments must be reproducible run-to-run and insensitive to the *order*
in which unrelated components draw random numbers.  Each component therefore
gets its own stream, derived from a master seed and a stable name:

>>> rngs = RngRegistry(seed=42)
>>> a = rngs.stream("ray2mesh.master")
>>> b = rngs.stream("npb.ep.rank3")
>>> a is rngs.stream("ray2mesh.master")
True

Streams are :class:`numpy.random.Generator` instances seeded with
``SeedSequence(master_seed).spawn`` keyed by the hash of the name, so adding
a new consumer never perturbs existing ones.  numpy is imported when the
first stream is built, so a run that asks for no stream never loads it.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


class RngRegistry:
    """Factory and cache of named random streams."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the stream for ``name``, creating it deterministically."""
        gen = self._streams.get(name)
        if gen is None:
            import numpy as np

            # crc32 gives a stable 32-bit key for the name; combined with the
            # master seed it yields an independent, reproducible child seed.
            key = zlib.crc32(name.encode("utf-8"))
            # This registry is the one sanctioned RNG construction site; all
            # other modules must come through stream().
            seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(key,))  # repro: noqa=DET005
            gen = np.random.default_rng(seq)  # repro: noqa=DET005
            self._streams[name] = gen
        return gen

    def reset(self) -> None:
        """Drop all cached streams (they will be re-created from scratch)."""
        self._streams.clear()

    def __repr__(self) -> str:
        return f"RngRegistry(seed={self.seed}, streams={len(self._streams)})"
