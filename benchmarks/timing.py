"""Reference-second timing shared by the micro-benchmarks.

A shared host's speed drifts by tens of percent within seconds, so
host seconds make poor floors. Every timing here runs under
perfbench's :class:`Speedometer` and is reported in *reference
seconds*: host seconds times the host speed sampled while the block
ran. A floor expressed in reference seconds keeps its meaning on a
slower or busier machine; a ratio of two reference timings taken
side by side cancels what drift the sampling misses.
"""

from __future__ import annotations

import gc
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from calibrate import Speedometer  # noqa: E402


def timed(run):
    """Run ``run()`` once with the collector paused.

    Returns ``(reference seconds, run's return value)``.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        with Speedometer() as meter:
            value = run()
    finally:
        if enabled:
            gc.enable()
    return meter.seconds * meter.scale, value


def paired_ratios(prepare_numerator, prepare_denominator, pairs: int):
    """Alternate timed runs of both sides ``pairs`` times.

    ``prepare_*()`` sets one run up off the clock and returns the
    callable to time. Returns ``(median of the per-pair
    numerator/denominator ratios, the ratios, the last numerator value,
    the last denominator value)``. Each ratio compares two runs taken back to back, so slow host drift
    lands on both sides of a pair; the median then ignores the pairs a
    burst of contention hit on one side only.
    """
    ratios = []
    for _ in range(pairs):
        den_s, den_value = timed(prepare_denominator())
        num_s, num_value = timed(prepare_numerator())
        ratios.append(num_s / den_s)
    return statistics.median(ratios), ratios, num_value, den_value
