"""Tests of the four implementation models against the paper's data."""

import math

import pytest

from repro.errors import MpiError
from repro.impls import ALL_IMPLEMENTATIONS, IMPLEMENTATION_ORDER, get_implementation
from repro.impls.base import MpiImplementation
from repro.tcp.buffers import BufferPolicy
from repro.units import KB, MB, usec


def test_four_implementations():
    assert set(ALL_IMPLEMENTATIONS) == {"mpich2", "gridmpi", "madeleine", "openmpi"}
    assert IMPLEMENTATION_ORDER == ("mpich2", "gridmpi", "madeleine", "openmpi")


def test_lookup_aliases():
    assert get_implementation("MPICH2").name == "mpich2"
    assert get_implementation("mpich-madeleine").name == "madeleine"
    assert get_implementation("MPICH-Mad").name == "madeleine"
    assert get_implementation("Open MPI").name == "openmpi"
    for unknown in ("lam/mpi", "mpich-g2", "mpich-vmi"):  # Table 1 rows only
        with pytest.raises(MpiError):
            get_implementation(unknown)


def test_table4_overheads():
    """Table 4 deltas: cluster +5/+5/+21/+5 us, grid +6/+7/+14/+8 us."""
    expected = {
        "mpich2": (5, 6),
        "gridmpi": (5, 7),
        "madeleine": (21, 14),
        "openmpi": (5, 8),
    }
    for name, (lan, wan) in expected.items():
        impl = ALL_IMPLEMENTATIONS[name]
        assert impl.overhead_lan == pytest.approx(usec(lan)), name
        assert impl.overhead_wan == pytest.approx(usec(wan)), name
        assert impl.latency_overhead(False) == impl.overhead_lan
        assert impl.latency_overhead(True) == impl.overhead_wan


def test_table5_original_thresholds():
    assert ALL_IMPLEMENTATIONS["mpich2"].eager_threshold == 256 * KB
    assert math.isinf(ALL_IMPLEMENTATIONS["gridmpi"].eager_threshold)
    assert ALL_IMPLEMENTATIONS["madeleine"].eager_threshold == 128 * KB
    assert ALL_IMPLEMENTATIONS["openmpi"].eager_threshold == 64 * KB


def test_buffer_policies():
    assert ALL_IMPLEMENTATIONS["mpich2"].buffer_policy.mode == "autotune"
    assert ALL_IMPLEMENTATIONS["madeleine"].buffer_policy.mode == "autotune"
    assert ALL_IMPLEMENTATIONS["gridmpi"].buffer_policy.mode == "initial"
    openmpi = ALL_IMPLEMENTATIONS["openmpi"].buffer_policy
    assert openmpi.mode == "fixed"
    assert openmpi.sndbuf == 128 * KB


def test_gridmpi_pacing_and_collectives():
    gridmpi = ALL_IMPLEMENTATIONS["gridmpi"]
    assert gridmpi.ss_cap_divisor == 1.0
    assert gridmpi.collectives["bcast"] == "van_de_geijn"
    assert gridmpi.collectives["allreduce"] == "rabenseifner"
    for other in ("mpich2", "madeleine", "openmpi"):
        impl = ALL_IMPLEMENTATIONS[other]
        assert impl.ss_cap_divisor > 1.0
        assert "bcast" not in impl.collectives


def test_madeleine_known_failures():
    assert ALL_IMPLEMENTATIONS["madeleine"].known_failures == {"bt", "sp"}
    for other in ("mpich2", "gridmpi", "openmpi"):
        assert not ALL_IMPLEMENTATIONS[other].known_failures


def test_tcp_options_reflect_impl():
    options = ALL_IMPLEMENTATIONS["gridmpi"].tcp_options()
    assert options.ss_cap_divisor == 1.0
    assert options.buffer_policy.mode == "initial"
    options = ALL_IMPLEMENTATIONS["openmpi"].tcp_options()
    assert options.buffer_policy.sndbuf == 128 * KB


def test_with_eager_threshold():
    tuned = ALL_IMPLEMENTATIONS["mpich2"].with_eager_threshold(65 * MB)
    assert tuned.eager_threshold == 65 * MB
    assert ALL_IMPLEMENTATIONS["mpich2"].eager_threshold == 256 * KB  # frozen


def test_with_socket_buffers_only_fixed_mode():
    openmpi = ALL_IMPLEMENTATIONS["openmpi"].with_socket_buffers(4 * MB)
    assert openmpi.buffer_policy.sndbuf == 4 * MB
    # no-op for kernel-governed implementations
    mpich2 = ALL_IMPLEMENTATIONS["mpich2"].with_socket_buffers(4 * MB)
    assert mpich2.buffer_policy.mode == "autotune"


def test_with_collective():
    ablated = ALL_IMPLEMENTATIONS["gridmpi"].with_collective("bcast", "binomial")
    assert ablated.collectives["bcast"] == "binomial"
    assert ablated.collectives["allreduce"] == "rabenseifner"


def test_features_table1():
    for impl in ALL_IMPLEMENTATIONS.values():
        assert impl.features is not None
        assert impl.features.first_publication
    assert "pacing" in ALL_IMPLEMENTATIONS["gridmpi"].features.long_distance.lower()
    assert "None" == ALL_IMPLEMENTATIONS["mpich2"].features.long_distance


def test_validation():
    base = ALL_IMPLEMENTATIONS["mpich2"]
    with pytest.raises(MpiError):
        MpiImplementation(
            name="x", display_name="x", version="1", eager_threshold=-1,
            overhead_lan=0, overhead_wan=0, per_byte_overhead=0,
            copy_bandwidth=1e9, buffer_policy=BufferPolicy.autotune(),
            ss_cap_divisor=1.0, probe_loss_rounds=10,
        )
    with pytest.raises(MpiError):
        MpiImplementation(
            name="x", display_name="x", version="1", eager_threshold=1,
            overhead_lan=0, overhead_wan=0, per_byte_overhead=0,
            copy_bandwidth=0, buffer_policy=BufferPolicy.autotune(),
            ss_cap_divisor=1.0, probe_loss_rounds=10,
        )


def test_repr():
    assert "inf" in repr(ALL_IMPLEMENTATIONS["gridmpi"])
    assert "mpich2" in repr(ALL_IMPLEMENTATIONS["mpich2"])
