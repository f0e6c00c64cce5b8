"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all errors raised by the repro library."""


class SimulationError(ReproError):
    """An inconsistency inside the discrete-event engine (e.g. reusing a
    triggered event, stepping an empty environment)."""


class NetworkConfigError(ReproError):
    """An invalid network/topology description (unknown node, no route,
    non-positive bandwidth...)."""


class TcpError(ReproError):
    """An invalid TCP configuration or use of a closed connection."""


class MpiError(ReproError):
    """An MPI semantic error (invalid rank, truncation, mismatched
    collective participation...)."""


class MpiTruncationError(MpiError):
    """A receive buffer was smaller than the matched incoming message
    (mirrors ``MPI_ERR_TRUNCATE``)."""


class MpiAbortError(MpiError):
    """Raised in every rank when one rank calls ``comm.abort()``."""


class WorkloadError(ReproError):
    """An invalid workload configuration (unsupported problem class,
    incompatible rank count...)."""


class ExperimentError(ReproError):
    """An experiment was misconfigured or referenced an unknown id."""


class FaultConfigError(ReproError):
    """An invalid fault-injection profile."""
