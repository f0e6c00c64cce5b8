"""MPICH-Madeleine (svn 2006-12-06) — cluster-of-clusters (§2.1.2).

Built on the Madeleine multi-network communication library: gateways
between heterogeneous high-speed fabrics (TCP, SCI, VIA, Myrinet,
Quadrics); no long-distance optimisation.  Its threaded progress engine
costs extra latency in the cluster (Table 4: +21 µs, the largest
overhead) but interestingly less on the grid (+14 µs).  Sockets are
kernel auto-tuned.  The paper could not finish BT and SP with it on the
grid ("the application timeout") — encoded as a known failure.
"""

from __future__ import annotations

from repro.impls.base import DEFAULT_COPY_BANDWIDTH, FeatureNotes, MpiImplementation
from repro.tcp.buffers import BufferPolicy
from repro.units import KB, usec

MPICH_MADELEINE = MpiImplementation(
    name="madeleine",
    display_name="MPICH-Madeleine",
    version="svn 2006-12-06",
    eager_threshold=128 * KB,
    overhead_lan=usec(21),  # Table 4: 62 - 41
    overhead_wan=usec(14),  # Table 4: 5826 - 5812
    per_byte_overhead=1.5e-10,
    copy_bandwidth=DEFAULT_COPY_BANDWIDTH,
    buffer_policy=BufferPolicy.autotune(),
    ss_cap_divisor=2.0,
    probe_loss_rounds=18,
    collectives={},
    known_failures=frozenset({"bt", "sp"}),
    features=FeatureNotes(
        long_distance="None",
        heterogeneity="Gateways between TCP, SCI, VIA, Myrinet MX/GM, Quadrics",
        first_publication="2003 [Aumage & Mercier, CCGrid'03]",
        last_publication="2007 [Aumage et al., CAC'07]",
    ),
)
