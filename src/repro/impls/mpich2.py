"""MPICH2 1.0.5 — the paper's reference implementation (§2.1.1).

Not a grid implementation: no long-distance optimisation, no
heterogeneity management.  Sockets are plain (kernel auto-tuned), so the
sysctl tuning of §4.2.1 is sufficient.  Default eager/rendezvous
threshold 256 kB (Table 5); raised by editing
``mpidi_ch3_post.h:MPIDI_CH3_EAGER_MAX_MSG_SIZE``.
"""

from __future__ import annotations

from repro.impls.base import DEFAULT_COPY_BANDWIDTH, FeatureNotes, MpiImplementation
from repro.tcp.buffers import BufferPolicy
from repro.units import KB, usec

MPICH2 = MpiImplementation(
    name="mpich2",
    display_name="MPICH2",
    version="1.0.5",
    eager_threshold=256 * KB,
    overhead_lan=usec(5),   # Table 4: 46 - 41
    overhead_wan=usec(6),   # Table 4: 5818 - 5812
    per_byte_overhead=1e-10,
    copy_bandwidth=DEFAULT_COPY_BANDWIDTH,
    buffer_policy=BufferPolicy.autotune(),
    ss_cap_divisor=2.0,
    probe_loss_rounds=18,
    collectives={},  # engine defaults: binomial / recursive doubling
    features=FeatureNotes(
        long_distance="None",
        heterogeneity="None",
        first_publication="2002 [Gropp, EuroPVM/MPI]",
        last_publication="2006 [Buntinas et al., ANL TR P1346]",
    ),
)
