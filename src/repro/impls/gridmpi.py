"""GridMPI 1.1 — designed for grids (§2.1.4).

Long-distance optimisations: software pacing of sends (removes the
slow-start burst penalty; the only TCP modification shipping at the time;
modelled as ``ss_cap_divisor=1.0`` and raw TCP's ``probe_loss_rounds=50``)
and grid-efficient collectives — a Van de Geijn broadcast and a
Rabenseifner allreduce (Matsuda et al., Cluster'06).  By default
``MPI_Send`` never uses rendezvous (Table 5: threshold ∞; the
``_YAMPI_RSIZE`` environment variable can lower it).  Its sockets keep
their initial size, so §4.2.1's *middle* sysctl value must be raised too.
"""

from __future__ import annotations

import math

from repro.impls.base import DEFAULT_COPY_BANDWIDTH, FeatureNotes, MpiImplementation
from repro.tcp.buffers import BufferPolicy
from repro.units import usec

GRIDMPI = MpiImplementation(
    name="gridmpi",
    display_name="GridMPI",
    version="1.1",
    eager_threshold=math.inf,
    overhead_lan=usec(5),   # Table 4: 46 - 41
    overhead_wan=usec(7),   # Table 4: 5819 - 5812
    per_byte_overhead=1e-10,
    copy_bandwidth=DEFAULT_COPY_BANDWIDTH,
    buffer_policy=BufferPolicy.initial(),
    ss_cap_divisor=1.0,
    probe_loss_rounds=50,
    collectives={
        "bcast": "van_de_geijn",
        "allreduce": "rabenseifner",
    },
    features=FeatureNotes(
        long_distance="TCP pacing; optimised Bcast and Allreduce",
        heterogeneity="IMPI above VendorMPI (TCP only here); no low-latency nets",
        first_publication="2004 [Matsuda et al., Cluster'04]",
        last_publication="2006 [Matsuda et al., Cluster'06]",
    ),
)
