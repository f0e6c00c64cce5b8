"""Parallel experiment orchestrator with content-addressed result caching.

``repro run`` is the one front end over
:func:`repro.runner.pool.run_campaign`:

* :mod:`repro.runner.pool` — shard dedup, cost-model (longest-first)
  dispatch onto a fork-context process pool (or inline at ``jobs <= 1``),
  failure surfacing;
* :mod:`repro.runner.cache` — ``.repro-cache/`` keyed by (task id, fast
  flag, import-closure digest of the task's modules), so editing a leaf
  module only invalidates the shards that import it; ``repro cache
  ls|stats|prune`` read and bound the store directly;
* :mod:`repro.runner.manifest` — the ``BENCH_experiments.json`` timing
  manifest, which doubles as the scheduler's wall-clock history.
"""

from repro.runner.cache import ResultCache, cache_stats, source_digest
from repro.runner.manifest import (
    load_task_estimates,
    record_campaign,
    record_profile,
)
from repro.runner.pool import (
    CampaignResult,
    ExperimentRun,
    ExperimentSpec,
    run_campaign,
)

__all__ = [
    "CampaignResult",
    "ExperimentRun",
    "ExperimentSpec",
    "ResultCache",
    "cache_stats",
    "load_task_estimates",
    "record_campaign",
    "record_profile",
    "run_campaign",
    "source_digest",
]
