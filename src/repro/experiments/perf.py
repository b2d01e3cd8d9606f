"""EXP-P1: cost of the feasibility test and the paper's reductions.

Section 18.3.2 cites two complexity reductions for the processor-demand
test: restrict the horizon to the first busy period (Eq. 18.4) and
evaluate only at the control points ``t = m*P_i + d_i`` (Eq. 18.5).
This experiment quantifies both against the naive scan that checks
every integer instant, on task sets of growing size:

* points checked (exact work measure, deterministic);
* wall-clock per test (one ``time.perf_counter`` reading, indicative
  only; perfbench's ``feasibility`` layer times the fast test inside
  its end-to-end workloads).

Task sets are generated per link as in the Figure 18.5 regime (identical
parameters) and in a heterogeneous regime (uniform sampler) where the
control-point reduction matters much more.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..core.feasibility import is_feasible, is_feasible_naive
from ..core.task import LinkRef, LinkTask
from ..errors import ConfigurationError
from ..sim.rng import RngRegistry
from ..traffic.spec import FixedSpecSampler, SpecSampler, UniformSpecSampler

__all__ = ["PerfPoint", "feasibility_cost_sweep", "make_link_tasks"]


@dataclass(frozen=True, slots=True)
class PerfPoint:
    """Cost of one feasibility test at one task-set size."""

    n_tasks: int
    feasible: bool
    fast_points_checked: int
    naive_points_checked: int
    fast_seconds: float
    naive_seconds: float

    @property
    def point_reduction(self) -> float:
        """naive/fast ratio of demand evaluations (>= 1)."""
        if self.fast_points_checked == 0:
            return float("inf") if self.naive_points_checked else 1.0
        return self.naive_points_checked / self.fast_points_checked


def make_link_tasks(
    n_tasks: int,
    sampler: SpecSampler,
    rng: np.random.Generator,
    deadline_fraction: float = 0.5,
) -> list[LinkTask]:
    """Draw ``n_tasks`` per-link tasks from a spec sampler.

    Each sampled channel contributes its *uplink half* with
    ``d_link = max(C, floor(d * deadline_fraction))`` -- the SDPS view
    of a one-link task set.
    """
    if n_tasks < 0:
        raise ConfigurationError(f"n_tasks must be >= 0, got {n_tasks}")
    link = LinkRef.uplink("perf-node")
    tasks = []
    for _ in range(n_tasks):
        spec = sampler.sample(rng)
        deadline = max(spec.capacity, int(spec.deadline * deadline_fraction))
        tasks.append(
            LinkTask(
                link=link,
                period=spec.period,
                capacity=spec.capacity,
                deadline=deadline,
            )
        )
    return tasks


def feasibility_cost_sweep(
    sizes: tuple[int, ...] = (2, 4, 6, 8, 10, 12),
    heterogeneous: bool = True,
    seed: int = 99,
) -> list[PerfPoint]:
    """Measure fast vs naive test cost across task-set sizes.

    ``heterogeneous=True`` uses the uniform sampler (long, irregular
    hyperperiods -- the regime where Eq. 18.5 pays off);
    ``False`` uses the paper's fixed triple.
    """
    sampler: SpecSampler
    if heterogeneous:
        sampler = UniformSpecSampler(
            period_range=(40, 400),
            capacity_range=(1, 6),
            deadline_range=(10, 200),
        )
    else:
        sampler = FixedSpecSampler.paper_default()
    rng = RngRegistry(seed).stream("perf-tasks")
    points = []
    for size in sizes:
        tasks = make_link_tasks(size, sampler, rng)
        t0 = time.perf_counter()
        fast = is_feasible(tasks)
        t1 = time.perf_counter()
        naive = is_feasible_naive(tasks)
        t2 = time.perf_counter()
        if fast.feasible != naive.feasible:
            raise ConfigurationError(
                "fast and naive feasibility tests disagree -- "
                f"fast={fast.feasible} naive={naive.feasible} on {size} tasks"
            )
        points.append(
            PerfPoint(
                n_tasks=size,
                feasible=fast.feasible,
                fast_points_checked=fast.points_checked,
                naive_points_checked=naive.points_checked,
                fast_seconds=t1 - t0,
                naive_seconds=t2 - t1,
            )
        )
    return points
