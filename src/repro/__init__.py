"""repro — a simulation-based reproduction of Hablot et al. (2007),
"Comparison and tuning of MPI implementations in a grid context".

The library contains, from the bottom up:

- :mod:`repro.sim` — a deterministic discrete-event engine.
- :mod:`repro.net` — nodes, clusters, routes, the max-min fluid network and
  the Grid'5000 testbed model.
- :mod:`repro.tcp` — a fluid TCP model: congestion control, socket buffers,
  kernel auto-tuning, pacing.
- :mod:`repro.mpi` — a message-passing library (point-to-point with
  eager/rendezvous protocol, the collective algorithms the experiments
  select, tracing).
- :mod:`repro.impls` — behavioural models of MPICH2, GridMPI,
  MPICH-Madeleine and OpenMPI.
- :mod:`repro.npb` — the eight NAS Parallel Benchmarks as communication/
  computation skeletons with verification kernels.
- :mod:`repro.apps` — pingpong and the ray2mesh seismic application.
- :mod:`repro.faults` — deterministic WAN fault scenarios.
- :mod:`repro.tuning` — the eager/rendezvous threshold sweep of Table 5.
- :mod:`repro.experiments` — one entry per paper table/figure.
- :mod:`repro.runner` — the shard pool and the content-addressed cache.
- :mod:`repro.obs` — telemetry, profiles and trace exports.
- :mod:`repro.analysis` — the ``repro lint`` passes and the schedule
  sanitizer.
- :mod:`repro.report` — text tables and plots.
"""

from repro._version import __version__

__all__ = ["__version__"]
