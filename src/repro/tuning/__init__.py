"""The paper's tuning methodology (§4.2): :mod:`repro.tuning.sweep`
measures ideal eager/rendezvous thresholds empirically (Table 5).

The tuned values themselves (4 MB socket buffers, a 65 MB eager
threshold) are the constants of :mod:`repro.experiments.environments`.
"""

from repro.tuning.sweep import measure_ideal_threshold, threshold_sweep

__all__ = ["measure_ideal_threshold", "threshold_sweep"]
