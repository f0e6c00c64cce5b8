"""Tests for unit helpers and the RNG registry."""

import zlib

import numpy as np
import pytest

from repro.sim import RngRegistry
from repro.sim.rng import pcg64_seed
from repro.units import (
    GB,
    KB,
    MB,
    Gbps,
    Mbps,
    bytes_per_second,
    fmt_bytes,
    goodput_mbps,
    kb,
    log2_sizes,
    mb,
    msec,
    parse_size,
    to_msec,
    to_usec,
    transfer_seconds,
    usec,
)


def test_byte_constants():
    assert KB == 1024
    assert MB == 1024**2
    assert GB == 1024**3
    assert kb(128) == 131072
    assert mb(4) == 4194304


def test_rates():
    assert Mbps(940) == 940e6
    assert Gbps(1) == 1e9
    assert bytes_per_second(Gbps(1)) == 125e6


def test_times():
    assert usec(41) == pytest.approx(41e-6)
    assert msec(11.6) == pytest.approx(0.0116)
    assert to_usec(41e-6) == pytest.approx(41)
    assert to_msec(0.0116) == pytest.approx(11.6)


def test_transfer_seconds():
    # 1 MB over 1 Gbps = 8.388 ms of serialisation.
    assert transfer_seconds(MB, Gbps(1)) == pytest.approx(8.388608e-3)


def test_transfer_seconds_zero_rate():
    with pytest.raises(ValueError):
        transfer_seconds(100, 0)


def test_goodput():
    assert goodput_mbps(MB, 8.388608e-3) == pytest.approx(1000.0, rel=1e-6)
    assert goodput_mbps(1, 0) == float("inf")


def test_fmt_bytes():
    assert fmt_bytes(1) == "1"
    assert fmt_bytes(1024) == "1k"
    assert fmt_bytes(131072) == "128k"
    assert fmt_bytes(4 * MB) == "4M"
    assert fmt_bytes(GB) == "1G"
    assert fmt_bytes(1536) == "1.5k"


def test_parse_size():
    assert parse_size("128k") == 131072
    assert parse_size("4MB") == 4 * MB
    assert parse_size("64M") == 64 * MB
    assert parse_size("512") == 512
    assert parse_size("1g") == GB
    with pytest.raises(ValueError):
        parse_size("many")


def test_parse_fmt_roundtrip():
    for size in log2_sizes(KB, 64 * MB):
        assert parse_size(fmt_bytes(size)) == size


def test_log2_sizes():
    assert log2_sizes(1024, 8192) == [1024, 2048, 4096, 8192]
    with pytest.raises(ValueError):
        log2_sizes(0, 10)
    with pytest.raises(ValueError):
        log2_sizes(100, 10)


def test_rng_registry_reproducible():
    a = RngRegistry(seed=7).stream("x").random(5)
    b = RngRegistry(seed=7).stream("x").random(5)
    np.testing.assert_array_equal(a, b)


def test_rng_registry_streams_independent():
    rngs = RngRegistry(seed=7)
    a = rngs.stream("a").random(5)
    b = rngs.stream("b").random(5)
    assert not np.array_equal(a, b)


def test_rng_registry_caches_streams():
    rngs = RngRegistry(seed=7)
    assert rngs.stream("a") is rngs.stream("a")


def test_rng_registry_seed_changes_streams():
    a = RngRegistry(seed=1).stream("x").random(5)
    b = RngRegistry(seed=2).stream("x").random(5)
    assert not np.array_equal(a, b)


def test_rng_registry_reset():
    rngs = RngRegistry(seed=7)
    first = rngs.stream("x")
    draw1 = first.random(3)
    rngs.reset()
    second = rngs.stream("x")
    assert first is not second
    np.testing.assert_array_equal(draw1, second.random(3))


# --- the pure-Python PCG64 equals numpy's SeedSequence -> PCG64 construction ------
ORACLE_SEEDS = (0, 1, 20071126, 2**32 + 5, 2**64 - 1, 2**96 + 12345)
ORACLE_NAMES = ("", "faults.loss.rennes0->nancy0", "rank3", "fautes.perte.é→ß")


def _numpy_stream(seed, name):
    # the construction RngRegistry used before the derivation was pure
    seq = np.random.SeedSequence(  # repro: noqa=DET005
        entropy=seed, spawn_key=(zlib.crc32(name.encode("utf-8")),)
    )
    return np.random.default_rng(seq)  # repro: noqa=DET005


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
@pytest.mark.parametrize("name", ORACLE_NAMES)
def test_uniform_stream_equals_numpy_draws(seed, name):
    stream = RngRegistry(seed).uniform(name)
    draws = [stream.random() for _ in range(1000)]
    assert all(type(draw) is float for draw in draws)
    assert draws == _numpy_stream(seed, name).random(1000).tolist()


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
@pytest.mark.parametrize("name", ORACLE_NAMES)
def test_numpy_stream_keeps_the_seed_sequence_construction(seed, name):
    old = _numpy_stream(seed, name)
    new = RngRegistry(seed).stream(name)
    np.testing.assert_array_equal(new.random(50), old.random(50))
    np.testing.assert_array_equal(new.integers(0, 1000, 50), old.integers(0, 1000, 50))
    np.testing.assert_array_equal(new.standard_normal(50), old.standard_normal(50))


def test_uniform_and_numpy_streams_are_separate_objects():
    rngs = RngRegistry(seed=7)
    pure = rngs.uniform("x")
    assert pure is rngs.uniform("x")
    first = pure.random()
    assert rngs.stream("x").random() == first  # drawing one left the other alone
    rngs.reset()
    assert rngs.uniform("x") is not pure
    assert rngs.uniform("x").random() == first


def test_negative_master_seed_is_rejected_like_seed_sequence():
    with pytest.raises(ValueError, match="non-negative"):
        pcg64_seed(-1, "x")
    with pytest.raises(ValueError, match="non-negative"):
        np.random.SeedSequence(entropy=-1)  # repro: noqa=DET005
    with pytest.raises(ValueError, match="non-negative"):
        RngRegistry(seed=-1).uniform("x")
