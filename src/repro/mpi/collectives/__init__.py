"""Collective algorithms and their registry.

Each algorithm is a generator function over the communicator's internal
point-to-point primitives, so its cost on a given topology emerges from
the messages it actually sends — the WAN-crossing pattern of a binomial
tree vs Van de Geijn's scatter+ring is what produces GridMPI's FT/IS wins
in Fig. 10, not a formula.

Registry keys are the strings stored in each implementation's
``collectives`` table (:mod:`repro.impls`).  The registry holds what a
rendered result runs: the engine defaults, the algorithms an
implementation pins, and the ``hierarchical`` variants the ``coll_hier``
experiment measures.

===========  =====================================================
operation    algorithms
===========  =====================================================
bcast        ``binomial`` | ``van_de_geijn``
reduce       ``binomial`` | ``hierarchical``
allreduce    ``recursive_doubling`` | ``rabenseifner`` |
             ``hierarchical``
allgather    ``ring``
alltoallv    ``pairwise``
gather       ``binomial`` | ``hierarchical``
barrier      ``dissemination``
===========  =====================================================

The ``hierarchical`` family (the paper's §5 future work, after
MPICH-G2's multilevel collectives) shares the site-leader election of
:mod:`repro.mpi.collectives.hierarchy`: LAN-local combine, one WAN
exchange among the elected leaders, LAN-local distribute.
"""

from repro.errors import MpiError
from repro.mpi.collectives.allgather import allgather_ring
from repro.mpi.collectives.allreduce import (
    allreduce_hierarchical,
    allreduce_rabenseifner,
    allreduce_recursive_doubling,
)
from repro.mpi.collectives.alltoall import alltoallv_pairwise
from repro.mpi.collectives.barrier import barrier_dissemination
from repro.mpi.collectives.bcast import bcast_binomial, bcast_van_de_geijn
from repro.mpi.collectives.gather import gather_binomial, gather_hierarchical
from repro.mpi.collectives.reduce import reduce_binomial, reduce_hierarchical

ALGORITHMS = {
    "bcast": {"binomial": bcast_binomial, "van_de_geijn": bcast_van_de_geijn},
    "reduce": {"binomial": reduce_binomial, "hierarchical": reduce_hierarchical},
    "allreduce": {
        "recursive_doubling": allreduce_recursive_doubling,
        "rabenseifner": allreduce_rabenseifner,
        "hierarchical": allreduce_hierarchical,
    },
    "allgather": {"ring": allgather_ring},
    "alltoallv": {"pairwise": alltoallv_pairwise},
    "gather": {"binomial": gather_binomial, "hierarchical": gather_hierarchical},
    "barrier": {"dissemination": barrier_dissemination},
}

#: algorithm used when an implementation does not pin one
DEFAULTS = {
    "bcast": "binomial",
    "reduce": "binomial",
    "allreduce": "recursive_doubling",
    "allgather": "ring",
    "alltoallv": "pairwise",
    "gather": "binomial",
    "barrier": "dissemination",
}


def resolve(operation: str, name: str):
    """Look up an algorithm; raises :class:`MpiError` for unknown names."""
    table = ALGORITHMS.get(operation)
    if table is None:
        raise MpiError(f"unknown collective operation {operation!r}")
    fn = table.get(name)
    if fn is None:
        raise MpiError(
            f"unknown {operation} algorithm {name!r}; have {sorted(table)}"
        )
    return fn
