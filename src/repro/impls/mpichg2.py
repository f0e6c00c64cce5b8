"""MPICH-G2 — the Globus-based grid implementation (§2.1.5).

The paper describes it but does not benchmark it ("heavy certificate
management... quite hard to install"; §5 lists it as future work), so
this model is an *extension*: the described mechanisms, calibrated like
the other four, ready for the comparison the authors postponed.

Modelled features, straight from §2.1.5:

* one bidirectional socket per process pair (as the engine does anyway);
* **several TCP streams for large messages** (the GridFTP technique):
  4 parallel sockets, striping messages >= 1 MB — each stream's window
  ramps independently, a large win while the path is window-limited;
* **topology-aware collective operations** (WAN < LAN < intra-machine):
  hierarchical broadcast (one WAN transfer per site, local binomial
  fan-out); Gatherv/Scatterv stay linear, as the paper notes;
* a Globus software stack between the application and the wire: the
  highest latency overhead of the set.
"""

from __future__ import annotations

from repro.impls.base import DEFAULT_COPY_BANDWIDTH, FeatureNotes, MpiImplementation
from repro.tcp.buffers import BufferPolicy
from repro.units import KB, MB, usec

MPICH_G2 = MpiImplementation(
    name="mpichg2",
    display_name="MPICH-G2",
    version="1.2.5 (modelled)",
    eager_threshold=128 * KB,
    overhead_lan=usec(30),
    overhead_wan=usec(30),
    per_byte_overhead=2e-10,
    copy_bandwidth=DEFAULT_COPY_BANDWIDTH,
    buffer_policy=BufferPolicy.autotune(),
    ss_cap_divisor=2.0,
    probe_loss_rounds=18,
    collectives={"bcast": "hierarchical"},
    parallel_streams=4,
    stream_threshold=MB,
    features=FeatureNotes(
        long_distance="Optim. of collective operations; parallel streams for big messages",
        heterogeneity="TCP above VendorMPI (Globus-managed)",
        first_publication="2003 [Karonis, Toonen & Foster, JPDC]",
        last_publication="2003 [Karonis, Toonen & Foster, JPDC]",
    ),
)
