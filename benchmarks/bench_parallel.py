"""EXP-P5 benchmark: parallel-sweep speedup and worker invariance.

Times the Figure 18.5 acceptance sweep serially and with 4 workers and
asserts two properties of the parallel runner:

* **invariance** -- the resulting :class:`AcceptanceCurve` is identical
  at every worker count (the sweep fans pure (trial, scheme) work units
  whose seeds derive only from the trial index);
* **speedup** -- on a machine with >= 4 CPUs, 4 workers finish the
  sweep at least 2x faster than the serial run timed beside it. The
  assertion is gated on the visible CPU count so smaller hosts still
  verify invariance and report timings honestly.
"""

from __future__ import annotations

import os
import time

from repro.experiments.fig18_5 import Fig185Config, run_fig18_5

TRIALS = 8


def visible_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def test_exp_p5_parallel_speedup(capsys):
    """EXP-P5: identical curve at every worker count; timed speedup."""
    times: dict[int, float] = {}
    curves = {}
    for workers in (1, 4):
        start = time.perf_counter()
        curves[workers] = run_fig18_5(
            Fig185Config(trials=TRIALS, workers=workers)
        ).curve
        times[workers] = time.perf_counter() - start
    assert curves[4] == curves[1], "parallel sweep diverged from serial"
    cpus = visible_cpus()
    speedup = times[1] / times[4]
    with capsys.disabled():
        print(f"\nEXP-P5: {TRIALS} trials on {cpus} CPUs, serial "
              f"{times[1]:.3f} s, 4 workers {times[4]:.3f} s "
              f"({speedup:.2f}x)")
    if cpus >= 4:
        assert speedup >= 2.0, (
            f"expected >= 2x speedup with 4 workers on {cpus} CPUs, "
            f"got {speedup:.2f}x"
        )
