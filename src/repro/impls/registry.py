"""Implementation lookup."""

from __future__ import annotations

from repro.errors import MpiError
from repro.impls.base import MpiImplementation
from repro.impls.gridmpi import GRIDMPI
from repro.impls.madeleine import MPICH_MADELEINE
from repro.impls.mpich2 import MPICH2
from repro.impls.openmpi import OPENMPI

#: the paper's presentation order (MPICH2 is the reference)
IMPLEMENTATION_ORDER = ("mpich2", "gridmpi", "madeleine", "openmpi")

#: the four implementations the paper benchmarks
ALL_IMPLEMENTATIONS: dict[str, MpiImplementation] = {
    impl.name: impl for impl in (MPICH2, GRIDMPI, MPICH_MADELEINE, OPENMPI)
}


def get_implementation(name: str) -> MpiImplementation:
    """Look an implementation up by name (case-insensitive, accepts a few
    aliases like ``mpich-madeleine``)."""
    key = name.strip().lower().replace("-", "").replace("_", "").replace(" ", "")
    aliases = {
        "mpich2": "mpich2",
        "mpich": "mpich2",
        "gridmpi": "gridmpi",
        "madeleine": "madeleine",
        "mpichmadeleine": "madeleine",
        "mpichmad": "madeleine",
        "openmpi": "openmpi",
        "ompi": "openmpi",
    }
    resolved = aliases.get(key)
    if resolved is None:
        raise MpiError(
            f"unknown MPI implementation {name!r}; have "
            f"{sorted(ALL_IMPLEMENTATIONS)}"
        )
    return ALL_IMPLEMENTATIONS[resolved]
