"""Tests for the capacity-planning helper and rejection accounting."""

from __future__ import annotations

import pytest

from repro.core.admission import (
    AdmissionController,
    RejectionReason,
    SystemState,
)
from repro.core.channel import ChannelSpec
from repro.core.feasibility import max_additional_tasks
from repro.core.partitioning import SymmetricDPS
from repro.core.task import LinkRef, LinkTask
from repro.errors import ConfigurationError
from tests.conftest import make_tasks

LINK = LinkRef.uplink("m")


def candidate(deadline=20, capacity=3, period=100) -> LinkTask:
    return LinkTask(
        link=LINK, period=period, capacity=capacity, deadline=deadline
    )


class TestMaxAdditionalTasks:
    def test_figure_18_5_saturation_points(self):
        """Analytic confirmation of the figure's plateaus."""
        # SDPS: d_iu = 20 -> 6 channels per uplink.
        assert max_additional_tasks([], candidate(deadline=20)) == 6
        # ADPS end state: d_iu -> 37 (d - C) -> 12 channels per uplink.
        assert max_additional_tasks([], candidate(deadline=37)) == 12

    def test_existing_load_reduces_headroom(self):
        existing = make_tasks([(100, 3, 20)] * 4, node="m")
        assert max_additional_tasks(existing, candidate(deadline=20)) == 2
        assert max_additional_tasks(
            existing[:3], candidate(deadline=20)
        ) == 3

    def test_utilization_limited_regime(self):
        # d = P = 100: Liu & Layland, U <= 1 -> floor(100/3) = 33.
        assert max_additional_tasks([], candidate(deadline=100)) == 33

    def test_zero_headroom(self):
        existing = make_tasks([(100, 3, 20)] * 6, node="m")
        assert max_additional_tasks(existing, candidate(deadline=20)) == 0

    def test_upper_bound_respected(self):
        assert max_additional_tasks(
            [], candidate(deadline=100), upper_bound=10
        ) == 10

    def test_infeasible_existing_rejected(self):
        existing = make_tasks([(100, 3, 4), (100, 3, 4)], node="m")
        with pytest.raises(ConfigurationError, match="already infeasible"):
            max_additional_tasks(existing, candidate())

    def test_negative_upper_bound_rejected(self):
        with pytest.raises(ConfigurationError):
            max_additional_tasks([], candidate(), upper_bound=-1)


class TestRejectionHistogram:
    def test_reasons_counted(self):
        ctrl = AdmissionController(
            SystemState(["a", "b"]), SymmetricDPS()
        )
        spec = ChannelSpec(period=100, capacity=3, deadline=40)
        ctrl.request("a", "ghost", spec)
        ctrl.request("a", "b", ChannelSpec(period=100, capacity=3, deadline=5))
        for _ in range(8):
            ctrl.request("a", "b", spec)
        histogram = ctrl.rejections_by_reason
        assert histogram[RejectionReason.UNKNOWN_NODE] == 1
        assert histogram[RejectionReason.NOT_PARTITIONABLE] == 1
        assert histogram[RejectionReason.UPLINK_INFEASIBLE] == 2  # 7th, 8th
        assert sum(histogram.values()) == ctrl.reject_count

    def test_would_accept_rolls_back_histogram(self):
        ctrl = AdmissionController(
            SystemState(["a", "b"]), SymmetricDPS()
        )
        ctrl.would_accept("a", "ghost", ChannelSpec(100, 3, 40))
        assert ctrl.rejections_by_reason.get(
            RejectionReason.UNKNOWN_NODE, 0
        ) == 0
        assert ctrl.reject_count == 0
