"""Unit helpers used across the library.

The simulator works internally in **seconds** (float), **bytes** (int) and
**bits per second** (float).  The paper mixes µs, ms, kB, MB, Mbps and Gbps;
these helpers keep the conversions explicit and readable at call sites:

>>> from repro.units import MB, Mbps, usec
>>> 4 * MB
4194304
>>> Mbps(940)
940000000.0
>>> usec(41)
4.1e-05
"""

from __future__ import annotations

import math
from typing import NewType

#: A byte count (binary units: kB = 1024 B).  ``Size`` is a ``NewType`` over
#: ``int``: passing a ``Size`` anywhere an ``int`` is expected is fine, but
#: annotating a parameter as ``Size`` documents — and lets mypy plus the
#: UNIT lint rules check — that a *byte count*, never a bit rate, belongs
#: there.
Size = NewType("Size", int)

#: A link/transfer rate in bits per second (decimal units: Mbps = 1e6 bit/s).
#: Disjoint from :data:`Size` under mypy, which is the point: the paper's
#: TCP-buffer arithmetic (buffer >= rate x RTT / 8) is where the two mix.
Rate = NewType("Rate", float)

# --- byte sizes (binary, as used by socket buffers and MPI thresholds) -----
KB: Size = Size(1024)
MB: Size = Size(1024 * 1024)
GB: Size = Size(1024 * 1024 * 1024)


def kb(n: float) -> Size:
    """``n`` kibibytes as an integer byte count."""
    return Size(int(n * KB))


def mb(n: float) -> Size:
    """``n`` mebibytes as an integer byte count."""
    return Size(int(n * MB))


# --- bit rates (decimal, as used for link speeds) ---------------------------
def bps(n: float) -> Rate:
    return Rate(float(n))


def Kbps(n: float) -> Rate:
    return Rate(n * 1e3)


def Mbps(n: float) -> Rate:
    return Rate(n * 1e6)


def Gbps(n: float) -> Rate:
    return Rate(n * 1e9)


# --- times -------------------------------------------------------------------
def usec(n: float) -> float:
    """``n`` microseconds in seconds."""
    return n * 1e-6


def msec(n: float) -> float:
    """``n`` milliseconds in seconds."""
    return n * 1e-3


def to_usec(seconds: float) -> float:
    return seconds * 1e6


def to_msec(seconds: float) -> float:
    return seconds * 1e3


# --- engine ticks ------------------------------------------------------------
#: The discrete-event engine keeps virtual time as an integer count of
#: nanosecond ticks (`sim/core.py`); floats only appear at the public
#: second-valued boundary (``Environment.now`` / ``timeout`` / ``run``).
TICKS_PER_SECOND = 1_000_000_000

#: Relative guards for the float-seconds -> integer-ticks conversions.  A
#: product like ``delay * 1e9`` lands within 1 ulp of the true value, so
#: nudging it down (up) by one part in 2**50 — far more than 1 ulp, far
#: less than half a tick for any simulated duration — makes ``ceil``
#: (``floor``) exact for every tick-representable duration instead of
#: overshooting (undershooting) on values whose product rounded up (down).
_TICK_GUARD_DOWN = 1.0 - 2.0**-50
_TICK_GUARD_UP = 1.0 + 2.0**-50


def delay_to_ticks(seconds: float) -> int:
    """Convert a non-negative delay in seconds to integer engine ticks.

    Rounds *up* (an event must never fire early), except that the guard
    factor first cancels the upward rounding error of ``seconds * 1e9``
    so tick-representable delays convert exactly.  Any positive delay
    maps to at least one tick, so repeated tiny timeouts cannot stall
    the virtual clock.

    >>> delay_to_ticks(41.54e-6)
    41540
    >>> delay_to_ticks(1e-15)
    1
    """
    return math.ceil(seconds * TICKS_PER_SECOND * _TICK_GUARD_DOWN)


def horizon_to_ticks(seconds: float) -> int:
    """Convert a run-until horizon in seconds to integer engine ticks.

    Rounds *down* (events strictly beyond the horizon must not run), with
    the guard factor cancelling the downward rounding error of
    ``seconds * 1e9`` so tick-representable horizons convert exactly.
    """
    return math.floor(seconds * TICKS_PER_SECOND * _TICK_GUARD_UP)


def ticks_to_seconds(ticks: int) -> float:
    """Engine ticks back to float seconds (correctly rounded: int/int
    true division, so e.g. ``3_500_000_000`` ticks is exactly ``3.5``)."""
    return ticks / TICKS_PER_SECOND


# --- conversions -------------------------------------------------------------
def bytes_per_second(bits_per_second: Rate | float) -> float:
    return bits_per_second / 8.0


def bits_per_second(byte_rate: float) -> Rate:
    return Rate(byte_rate * 8.0)


def transfer_seconds(nbytes: float, rate_bps: Rate | float) -> float:
    """Serialisation time of ``nbytes`` at ``rate_bps`` bits/second."""
    if rate_bps <= 0:
        raise ValueError(f"rate must be positive, got {rate_bps}")
    return nbytes * 8.0 / rate_bps


def goodput_mbps(nbytes: float, seconds: float) -> float:
    """Observed application-level throughput in Mbit/s."""
    if seconds <= 0:
        return math.inf
    return nbytes * 8.0 / seconds / 1e6


# --- pretty-printing ----------------------------------------------------------
def fmt_bytes(nbytes: float) -> str:
    """Human-readable byte count, matching the paper's axis labels.

    >>> fmt_bytes(131072)
    '128k'
    >>> fmt_bytes(4194304)
    '4M'
    """
    for factor, suffix in ((GB, "G"), (MB, "M"), (KB, "k")):
        if nbytes >= factor:
            value = nbytes / factor
            if value == int(value):
                return f"{int(value)}{suffix}"
            return f"{value:.1f}{suffix}"
    return f"{int(nbytes)}"


def parse_size(text: str) -> Size:
    """Parse a size like ``'128k'``, ``'4MB'``, ``'64M'`` or ``'512'`` to bytes.

    >>> parse_size('128k')
    131072
    >>> parse_size('4MB')
    4194304
    """
    s = text.strip().lower().removesuffix("b")
    factor = 1
    if s and s[-1] in "kmg":
        factor = {"k": KB, "m": MB, "g": GB}[s[-1]]
        s = s[:-1]
    try:
        return Size(int(float(s) * factor))
    except (ValueError, OverflowError) as exc:  # OverflowError: "inf"
        raise ValueError(f"cannot parse size {text!r}") from exc


def log2_sizes(lo: int, hi: int) -> list[int]:
    """Power-of-two sizes from ``lo`` to ``hi`` inclusive (paper's x axes).

    >>> [fmt_bytes(s) for s in log2_sizes(1024, 8192)]
    ['1k', '2k', '4k', '8k']
    """
    if lo <= 0 or hi < lo:
        raise ValueError(f"invalid size range [{lo}, {hi}]")
    sizes = []
    s = lo
    while s <= hi:
        sizes.append(s)
        s *= 2
    return sizes
