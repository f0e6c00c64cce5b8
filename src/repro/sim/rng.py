"""Named deterministic random streams.

Experiments must be reproducible run-to-run and insensitive to the *order*
in which unrelated components draw random numbers.  Each component therefore
gets its own stream, derived from a master seed and a stable name:

>>> rngs = RngRegistry(seed=42)
>>> a = rngs.stream("ray2mesh.master")
>>> b = rngs.stream("npb.ep.rank3")
>>> a is rngs.stream("ray2mesh.master")
True

A stream is numpy's PCG64 seeded with
``SeedSequence(entropy=master_seed, spawn_key=(crc32(name),))``, so adding a
new consumer never perturbs existing ones.  That derivation is written out
here in plain Python (:func:`pcg64_seed`); it equals numpy's bit for bit,
which NEP 19 keeps stable across numpy releases.  Two kinds of stream share
it:

- :meth:`RngRegistry.uniform` returns a :class:`UniformStream`, a
  pure-Python PCG64 whose ``random()`` yields exactly the doubles numpy's
  ``Generator.random()`` would.  The fault injector draws its losses and
  jitter from it, so no experiment loads numpy to draw a number.
- :meth:`RngRegistry.stream` returns a :class:`numpy.random.Generator` over
  the same PCG64 state, for the consumers that want arrays or other
  distributions (the NPB verification data, ``RankContext.rng``).  numpy is
  imported when the first such stream is built.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# numpy.random.SeedSequence's hash constants (O'Neill's seed_seq_fe).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715

#: PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
#: a 53-bit integer times this is a double in [0, 1), as numpy computes it
_TO_UNIT = 2.0**-53


def _words(n: int) -> list[int]:
    """``n`` as little-endian 32-bit words (``[0]`` for 0)."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def pcg64_seed(seed: int, name: str) -> tuple[int, int]:
    """The PCG64 ``(state, inc)`` of stream ``name`` under master ``seed``.

    Equal to the state of
    ``PCG64(SeedSequence(entropy=seed, spawn_key=(crc32(name),)))``: the
    entropy is hashed into a pool of four words, the pool gives four 64-bit
    words, and PCG64's ``srandom`` turns them into the LCG state.  Raises
    :class:`ValueError` on a negative seed, as ``SeedSequence`` does.
    """
    # crc32 gives a stable 32-bit key for the name; padding the run entropy
    # to the pool size keeps it apart from the spawn key.
    run = _words(seed)
    run += [0] * (_POOL_SIZE - len(run))
    entropy = run + [zlib.crc32(name.encode("utf-8"))]

    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    # generate_state(4, uint64): eight 32-bit words, paired little-endian.
    hash_const = _INIT_B
    out = []
    for i in range(8):
        word = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        word = (word * hash_const) & _MASK32
        out.append(word ^ (word >> 16))
    u64 = [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]

    # pcg64_set_seed takes the high word first; srandom then steps from
    # state 0 (giving inc), adds initstate and steps once more.
    initstate = u64[0] << 64 | u64[1]
    inc = ((u64[2] << 64 | u64[3]) << 1 | 1) & _MASK128
    state = (inc + initstate) & _MASK128
    state = (state * _PCG_MULT + inc) & _MASK128
    return state, inc


class UniformStream:
    """A PCG64 drawing uniform doubles in ``[0, 1)``, in plain Python.

    ``random()`` returns the value numpy's ``Generator.random()`` returns
    from the same state: one LCG step, the XSL-RR output, its top 53 bits.
    """

    __slots__ = ("_state", "_inc")

    def __init__(self, state: int, inc: int):
        self._state = state
        self._inc = inc

    def random(self) -> float:
        state = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        rot = state >> 122
        x = ((state >> 64) ^ state) & _MASK64
        return ((((x >> rot) | (x << (64 - rot))) & _MASK64) >> 11) * _TO_UNIT


class RngRegistry:
    """Factory and cache of named random streams."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}
        self._uniforms: dict[str, UniformStream] = {}

    def uniform(self, name: str) -> UniformStream:
        """Return the pure-Python uniform stream for ``name``.

        Its draws equal those of ``stream(name).random()``; the two are
        separate objects, so drawing from one does not advance the other.
        """
        gen = self._uniforms.get(name)
        if gen is None:
            gen = self._uniforms[name] = UniformStream(*pcg64_seed(self.seed, name))
        return gen

    def stream(self, name: str) -> np.random.Generator:
        """Return the numpy stream for ``name``, creating it deterministically."""
        gen = self._streams.get(name)
        if gen is None:
            import numpy as np

            state, inc = pcg64_seed(self.seed, name)
            # This registry is the one sanctioned RNG construction site; all
            # other modules must come through stream().  The seed 0 is
            # replaced at once by the derived state.
            bits = np.random.PCG64(0)  # repro: noqa=DET005
            bits.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            gen = np.random.Generator(bits)  # repro: noqa=DET005
            self._streams[name] = gen
        return gen

    def reset(self) -> None:
        """Drop all cached streams (they will be re-created from scratch)."""
        self._streams.clear()
        self._uniforms.clear()

    def __repr__(self) -> str:
        streams = len(self._streams) + len(self._uniforms)
        return f"RngRegistry(seed={self.seed}, streams={streams})"
