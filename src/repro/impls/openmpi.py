"""OpenMPI 1.1.4 — component architecture, no grid tuning (§2.1.3).

Its TCP BTL requests **fixed 128 kB socket buffers at socket creation**,
disabling kernel auto-tuning: the sysctl tuning of §4.2.1 alone does
nothing for it, the ``-mca btl_tcp_sndbuf/btl_tcp_rcvbuf 4194304``
parameters are required (and are themselves clamped by
``rmem_max``/``wmem_max``).  Default eager limit 64 kB, raised with
``-mca btl_tcp_eager_limit``.  Its staged/fragmented send pipeline costs
a little bandwidth on very large messages (visible in Fig. 7).
"""

from __future__ import annotations

from repro.impls.base import DEFAULT_COPY_BANDWIDTH, FeatureNotes, MpiImplementation
from repro.tcp.buffers import BufferPolicy
from repro.units import KB, MB, usec

OPENMPI = MpiImplementation(
    name="openmpi",
    display_name="OpenMPI",
    version="1.1.4",
    eager_threshold=64 * KB,
    overhead_lan=usec(5),   # Table 4: 46 - 41
    overhead_wan=usec(8),   # Table 4: 5820 - 5812
    per_byte_overhead=6e-10,
    copy_bandwidth=DEFAULT_COPY_BANDWIDTH,
    buffer_policy=BufferPolicy.fixed(128 * KB, 128 * KB),
    max_eager_threshold=32 * MB,
    ss_cap_divisor=2.0,
    probe_loss_rounds=18,
    collectives={},
    features=FeatureNotes(
        long_distance="None",
        heterogeneity="Gateways between TCP, Myrinet MX/GM, Infiniband OpenIB/mVAPI",
        first_publication="2004 [Gabriel et al., EuroPVM/MPI]",
        last_publication="2007 [Kauhaus et al., KiCC'07]",
    ),
)
