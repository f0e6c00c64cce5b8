"""Table 1 — feature comparison of the MPI implementations (static data)."""

from __future__ import annotations

from repro.experiments.base import ExperimentResult
from repro.impls import ALL_IMPLEMENTATIONS, IMPLEMENTATION_ORDER
from repro.impls.base import FeatureNotes
from repro.report import Table

#: the two implementations the paper describes (§2.1.5-2.1.6) but does not
#: benchmark: Table 1 lists them after the four it measures
DESCRIBED_ONLY = {
    "MPICH-G2": FeatureNotes(
        long_distance="Optim. of collective operations; parallel streams for big messages",
        heterogeneity="TCP above VendorMPI (Globus-managed)",
        first_publication="2003 [Karonis, Toonen & Foster, JPDC]",
        last_publication="2003 [Karonis, Toonen & Foster, JPDC]",
    ),
    "MPICH-VMI": FeatureNotes(
        long_distance="Optim. of collective operations",
        heterogeneity="Gateways between TCP/IP, Myrinet GM, Infiniband VAPI/OpenIB/IBAL",
        first_publication="2002 [Pakin & Pant, HPCA-8]",
        last_publication="2004 [Pant & Jafri, Cluster Computing]",
    ),
}


def run(fast: bool = False) -> ExperimentResult:
    table = Table(
        ["implementation", "long-distance optimisations", "heterogeneity", "first / last publication"],
        title="Table 1: MPI implementation features",
    )
    features = {
        ALL_IMPLEMENTATIONS[name].display_name: ALL_IMPLEMENTATIONS[name].features
        for name in IMPLEMENTATION_ORDER
    }
    features.update(DESCRIBED_ONLY)
    rows = []
    for display_name, feats in features.items():
        pubs = f"{feats.first_publication} / {feats.last_publication}"
        table.add_row([display_name, feats.long_distance, feats.heterogeneity, pubs])
        rows.append(
            {
                "implementation": display_name,
                "long_distance": feats.long_distance,
                "heterogeneity": feats.heterogeneity,
                "publications": pubs,
            }
        )
    return ExperimentResult(
        "table1",
        "Table 1: implementation feature matrix",
        "Table 1, §2.1.7",
        rows,
        table.render(),
    )
