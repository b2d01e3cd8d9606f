"""Shape checks of the extension experiments at full configuration.

Each test runs one experiment at the configuration EXPERIMENTS.md
reports (8 trials per randomized point) and asserts the mechanism it
demonstrates; ``test_other_experiments.py`` exercises the same code on
smaller inputs.
"""

from __future__ import annotations

import pytest

from repro.core.partitioning import SymmetricDPS
from repro.experiments.ablations import (
    capacity_sweep,
    deadline_sweep,
    master_ratio_sweep,
    speed_scaling,
    symmetric_traffic_curve,
)
from repro.experiments.coexistence import be_latency_vs_rt_load, run_coexistence
from repro.experiments.dps_comparison import run_dps_comparison
from repro.experiments.multiswitch_exp import (
    run_fabric_validation,
    run_multiswitch_comparison,
)
from repro.experiments.robustness import (
    run_loss_robustness,
    run_phase_robustness,
)
from repro.experiments.validation import run_decomposition, run_validation
from repro.traffic.spec import UniformSpecSampler
from repro.units import TimeBase

TRIALS = 8
#: one maximum-size frame on the 100 Mbps wire, in ns
FRAME_NS = TimeBase.for_speed_mbps(100).slot_ns


class TestAblations:
    def test_exp_a1_deadline_sweep(self):
        """The ADPS advantage is a constrained-deadline phenomenon."""
        points = {
            p.value: p
            for p in deadline_sweep(
                deadlines=(20, 30, 40, 60, 80, 100, 200), trials=TRIALS
            )
        }
        # the paper's point (d=40) shows a solid advantage...
        assert points[40].advantage > 1.5
        # ...which only vanishes once even the halved per-link deadline
        # reaches the period (d >= 2P: utilization alone binds).
        assert points[200].advantage == pytest.approx(1.0, abs=0.12)
        # the advantage is (weakly) decreasing across the sweep tail
        assert points[40].advantage >= points[80].advantage >= (
            points[100].advantage - 0.05
        )

    def test_exp_a2_symmetric_traffic(self):
        """Without a bottleneck, ADPS degenerates to SDPS."""
        curve = symmetric_traffic_curve(
            n_nodes=60, requested_counts=(50, 100, 150, 200), trials=TRIALS
        )
        for s, a in zip(curve.curve("sdps").means, curve.curve("adps").means):
            assert a == pytest.approx(s, rel=0.08, abs=2.0)

    def test_exp_a3_capacity_sweep(self):
        """Larger C leaves less partitionable slack."""
        points = capacity_sweep(capacities=(1, 2, 3, 5, 8), trials=TRIALS)
        assert points[0].sdps_mean > points[-1].sdps_mean
        assert all(p.adps_mean >= p.sdps_mean - 1.0 for p in points)

    def test_exp_a4_master_ratio_sweep(self):
        """The advantage tracks the bottleneck ratio."""
        points = master_ratio_sweep(
            master_counts=(5, 10, 20, 30), trials=TRIALS
        )
        assert points[0].advantage > points[-1].advantage
        # At 1:1 random placement still leaves per-link imbalances ADPS
        # exploits, but far below the bottlenecked regime's ~2x.
        assert 1.0 <= points[-1].advantage < 1.45

    def test_exp_s1_speed_scaling(self):
        """Slot-normalized delays are invariant across 10/100/1000 Mbps."""
        points = speed_scaling(speeds_mbps=(10, 100, 1000))
        assert all(p.deadline_misses == 0 for p in points)
        normalized = [p.worst_delay_slots for p in points]
        assert max(normalized) - min(normalized) < 0.6


class TestDpsComparison:
    def test_exp_d1_paper_workload(self):
        curve = run_dps_comparison(
            requested_counts=tuple(range(20, 201, 20)), trials=TRIALS
        )
        means = {c.scheme: c.means[-1] for c in curve.curves}
        assert means["adps"] > means["sdps"] * 1.5
        assert means["search"] >= means["adps"] - 3.0
        # on identical channels, count- and utilization-proportional
        # partitioning coincide
        assert means["udps"] == pytest.approx(means["adps"], abs=2.0)

    def test_exp_d1_mixed_sizes(self):
        """On mixed-size channels ADPS still beats SDPS and the search
        scheme still upper-bounds the fixed ones."""
        sampler = UniformSpecSampler(
            period_range=(50, 200), capacity_range=(1, 8),
            deadline_range=(20, 80),
        )
        curve = run_dps_comparison(
            requested_counts=(100, 200), trials=TRIALS, sampler=sampler
        )
        means = {c.scheme: c.means[-1] for c in curve.curves}
        assert means["adps"] > means["sdps"]
        assert means["search"] >= max(
            means["sdps"], means["adps"], means["udps"], means["ldps"]
        ) - 3.0


class TestCoexistence:
    def test_exp_b1_rt_unharmed_by_saturating_best_effort(self):
        report = run_coexistence(
            n_masters=4, n_slaves=12, n_requests=40, messages=8
        )
        assert report.rt_unharmed
        assert report.be_frames_delivered > 0
        # BE fills a meaningful share of the residual bandwidth
        assert report.be_goodput_fraction > 0.3
        # delay inflation stays within the blocking already in T_latency
        inflation = report.loaded_worst_delay_ns - report.clean_worst_delay_ns
        assert inflation <= 2 * FRAME_NS + 1_000

    def test_exp_b2_be_goodput_falls_as_rt_load_grows(self):
        points = be_latency_vs_rt_load()
        assert all(p.rt_misses == 0 for p in points)
        goodputs = [p.be_goodput_bps for p in points]
        assert all(a >= b for a, b in zip(goodputs, goodputs[1:]))


class TestRobustness:
    def test_exp_r1_critical_instant_is_worst(self):
        report = run_phase_robustness(
            n_masters=4, n_slaves=12, n_requests=40, messages=6
        )
        assert report.holds
        assert report.critical_instant_is_worst

    def test_exp_r1_loss_degrades_completeness_never_timeliness(self):
        reports = [
            run_loss_robustness(
                loss_rate=rate, n_masters=4, n_slaves=12, n_requests=40,
                messages=10,
            )
            for rate in (0.0, 0.01, 0.05, 0.10)
        ]
        assert all(r.timeliness_preserved for r in reports)
        ratios = [r.delivery_ratio for r in reports]
        assert all(a >= b for a, b in zip(ratios, ratios[1:]))
        assert ratios[0] == 1.0


class TestGuaranteeValidation:
    def test_exp_v1_both_schemes_hold(self):
        reports = {
            name: run_validation(
                n_masters=6, n_slaves=18, n_requests=80, hyperperiods=3,
                dps=dps, use_wire_handshake=False,
            )
            for name, dps in (("adps", None), ("sdps", SymmetricDPS()))
        }
        for report in reports.values():
            assert report.holds, report.summary()
            assert report.messages_completed > 0
        # ADPS admits at least as many channels from the same stream
        assert (reports["adps"].channels_admitted
                >= reports["sdps"].channels_admitted)

    def test_exp_v2_per_hop_budgets(self):
        rows = run_decomposition(
            n_masters=4, n_slaves=12, n_requests=40, messages=4
        )
        assert all(
            r.uplink_within_budget and r.total_within_budget for r in rows
        )


class TestMultiswitch:
    def test_exp_x1_three_switch_chain(self):
        points = run_multiswitch_comparison(
            n_switches=3, n_masters=10, n_slaves=50,
            requested_counts=tuple(range(20, 201, 20)), trials=TRIALS,
        )
        assert points[-1].proportional_mean > points[-1].symmetric_mean
        assert points[0].proportional_mean >= points[0].symmetric_mean

    def test_exp_x2_fabric_guarantee(self):
        report = run_fabric_validation(
            n_switches=3, n_masters=4, n_slaves=12, n_requests=40,
            messages=3,
        )
        assert report.holds
        assert report.max_hop_count >= 3  # cross-fabric paths exercised
