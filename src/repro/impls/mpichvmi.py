"""MPICH-VMI — the VMI 2.0 middleware implementation (§2.1.6).

Also not benchmarked by the paper (it preferred the still-maintained
MPICH-Madeleine); modelled here as an extension.  §2.1.6's features:

* gateways between high-speed fabrics (TCP/IP, Myrinet GM, Infiniband) —
  heterogeneity support comparable to Madeleine's;
* collective operations optimised to avoid long-distance traffic —
  modelled as the hierarchical broadcast;
* the communication-pattern database for task placement was "not
  implemented yet" in 2007 and is not modelled.
"""

from __future__ import annotations

from repro.impls.base import DEFAULT_COPY_BANDWIDTH, FeatureNotes, MpiImplementation
from repro.tcp.buffers import BufferPolicy
from repro.units import KB, usec

MPICH_VMI = MpiImplementation(
    name="mpichvmi",
    display_name="MPICH-VMI",
    version="2.0 (modelled)",
    eager_threshold=128 * KB,
    overhead_lan=usec(12),
    overhead_wan=usec(12),
    per_byte_overhead=2e-10,
    copy_bandwidth=DEFAULT_COPY_BANDWIDTH,
    buffer_policy=BufferPolicy.autotune(),
    ss_cap_divisor=2.0,
    probe_loss_rounds=18,
    collectives={"bcast": "hierarchical"},
    features=FeatureNotes(
        long_distance="Optim. of collective operations",
        heterogeneity="Gateways between TCP/IP, Myrinet GM, Infiniband VAPI/OpenIB/IBAL",
        first_publication="2002 [Pakin & Pant, HPCA-8]",
        last_publication="2004 [Pant & Jafri, Cluster Computing]",
    ),
)
