"""Unit tests for per-link and end-to-end network-calculus bounds."""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.core.admission import AdmissionController, SystemState
from repro.core.channel import ChannelSpec
from repro.core.partitioning import AsymmetricDPS
from repro.core.task import LinkRef
from repro.errors import ConfigurationError
from repro.netcalc import (
    PathBound,
    link_delay_bound,
    link_residual_service,
    network_delay_bounds,
    path_bound_ns,
)

from ..conftest import make_tasks


class TestLinkResidual:
    def test_lone_task_gets_full_link(self):
        tasks = make_tasks([(10, 3, 10)])
        residual = link_residual_service(tasks, 0)
        assert residual.rate == 1
        assert residual.latency == 1  # non-preemption blocking slot

    def test_cross_traffic_shrinks_rate_and_grows_latency(self):
        tasks = make_tasks([(10, 3, 10), (10, 2, 10)])
        residual = link_residual_service(tasks, 0)
        assert residual.rate == 1 - Fraction(2, 10)
        # (R*T + b_c) / (R - r_c) = (1 + 2) / (4/5)
        assert residual.latency == Fraction(3) / Fraction(4, 5)

    def test_unknown_channel_rejected(self):
        with pytest.raises(ConfigurationError):
            link_residual_service(make_tasks([(10, 1, 10)]), 99)

    def test_saturating_cross_traffic_yields_none(self):
        tasks = make_tasks([(10, 3, 10), (2, 2, 2)])  # cross rate = 1
        assert link_residual_service(tasks, 0) is None
        assert link_delay_bound(tasks, 0) is None

    def test_full_utilization_still_finite(self):
        # U exactly 1: each flow's cross rate < 1, bounds exist.
        tasks = make_tasks([(10, 5, 10), (10, 5, 10)])
        assert link_delay_bound(tasks, 0) is not None
        assert link_delay_bound(tasks, 1) is not None
        # a saturated Fig. 18.5 downlink: 13 channels, U = 0.39
        assert link_delay_bound(make_tasks([(100, 3, 40)] * 13), 6) is not None

    def test_lone_task_bound_is_blocking_plus_capacity(self):
        assert link_delay_bound(make_tasks([(100, 3, 40)]), 0) == 4
        assert link_delay_bound(
            make_tasks([(100, 3, 40)]), 0, blocking_frames=0
        ) == 3


class TestNetworkBounds:
    def test_single_flow_two_hops(self):
        tasks = make_tasks([(100, 3, 40)])
        bounds = network_delay_bounds(
            {0: ("up", "down")}, {"up": tasks, "down": tasks}
        )
        bound = bounds[0]
        assert isinstance(bound, PathBound)
        assert bound.hops == 2
        # convolved: rate 1, latency 1+1; pay the burst once: + C
        assert bound.bound_slots == 5
        assert bound.hop_bound_slots(0) == 4

    def test_pay_bursts_only_once_beats_per_hop_sum(self):
        tasks = make_tasks([(100, 3, 40)])
        bounds = network_delay_bounds(
            {0: ("a", "b", "c")}, {k: tasks for k in "abc"}
        )
        bound = bounds[0]
        per_hop_sum = sum(
            bound.hop_bound_slots(i) for i in range(bound.hops)
        )
        assert bound.bound_slots < per_hop_sum

    def test_cross_burst_is_propagated_downstream(self):
        # Flow 1 crosses its own uplink before sharing flow 0's second
        # link, so its burst there must exceed its source burst C=2 --
        # making flow 0's bound strictly worse than a (naive, unsound)
        # source-burst computation would claim.
        uplink0 = make_tasks([(10, 1, 10)], node="u0")
        uplink1 = make_tasks([(10, 2, 10)], node="u1")
        uplink1 = [t.__class__(
            link=t.link, period=t.period, capacity=t.capacity,
            deadline=t.deadline, channel_id=1,
        ) for t in uplink1]
        shared = uplink0 + uplink1
        flows = {0: ("u0", "shared"), 1: ("u1", "shared")}
        bounds = network_delay_bounds(
            flows, {"u0": uplink0, "u1": uplink1, "shared": shared}
        )
        naive_cross_bound = link_delay_bound(shared, 0)
        assert bounds[0].bound_slots > naive_cross_bound

    def test_every_channel_of_a_saturated_adps_star_is_bounded(self):
        masters = [f"m{i}" for i in range(4)]
        slaves = [f"s{i}" for i in range(12)]
        state = SystemState(nodes=masters + slaves)
        controller = AdmissionController(state=state, dps=AsymmetricDPS())
        spec = ChannelSpec(period=100, capacity=3, deadline=40)
        for index in range(120):
            controller.request(
                masters[index % len(masters)], slaves[index % len(slaves)],
                spec,
            )
        flows = {
            cid: (LinkRef.uplink(ch.source), LinkRef.downlink(ch.destination))
            for cid, ch in state.channels.items()
        }
        link_tasks = {
            link: state.tasks_on(link)
            for path in flows.values() for link in path
        }
        assert len(network_delay_bounds(flows, link_tasks)) == len(flows)

    def test_unknown_channel_on_link_rejected(self):
        tasks = make_tasks([(10, 1, 10), (10, 1, 10)])
        with pytest.raises(ConfigurationError):
            network_delay_bounds({0: ("up",)}, {"up": tasks})

    def test_empty_path_rejected(self):
        with pytest.raises(ConfigurationError):
            network_delay_bounds({0: ()}, {})

    def test_overloaded_flow_is_skipped_not_crashed(self):
        tasks = make_tasks([(10, 6, 10), (10, 6, 10)])  # U = 1.2
        bounds = network_delay_bounds(
            {0: ("up",), 1: ("up",)}, {"up": tasks}
        )
        assert bounds == {}


class TestPathBoundNs:
    def test_exact_and_fractional_conversion(self):
        bound = PathBound(
            channel_id=0, capacity=1, hops=2,
            hop_latencies=(Fraction(1), Fraction(1)),
            hop_rates=(Fraction(1), Fraction(1)),
            bound_slots=Fraction(5),
        )
        assert path_bound_ns(bound, 1000, 10, 7) == 5027
        fractional = PathBound(
            channel_id=0, capacity=1, hops=1,
            hop_latencies=(Fraction(1),), hop_rates=(Fraction(1),),
            bound_slots=Fraction(1, 3),
        )
        # ceil(1000/3) + 10 = 334 + 10: rounding is always upward
        assert path_bound_ns(fractional, 1000, 10, 7) == 344
