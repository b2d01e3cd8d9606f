"""Tests for the ablation, validation, coexistence, perf and multiswitch
experiments (small configurations -- ``test_experiment_shapes.py`` runs
the full ones)."""

from __future__ import annotations

import pytest

from repro.core.feasibility import is_feasible, is_feasible_naive
from repro.core.partitioning import SymmetricDPS
from repro.experiments.ablations import (
    capacity_sweep,
    deadline_sweep,
    master_ratio_sweep,
    symmetric_traffic_curve,
)
from repro.experiments.coexistence import run_coexistence
from repro.experiments.dps_comparison import run_dps_comparison
from repro.experiments.multiswitch_exp import (
    build_master_slave_fabric,
    run_multiswitch_comparison,
)
from repro.experiments.perf import feasibility_cost_sweep, make_link_tasks
from repro.experiments.validation import run_validation
from repro.sim.rng import RngRegistry
from repro.traffic.spec import FixedSpecSampler, UniformSpecSampler


class TestDeadlineSweep:
    def test_advantage_shrinks_with_loose_deadlines(self):
        points = deadline_sweep(
            deadlines=(30, 60, 100), requests=120, trials=3
        )
        assert points[0].advantage > points[-1].advantage
        # at d=100=P both schemes are utilization-limited
        assert points[-1].advantage == pytest.approx(1.0, abs=0.15)

    def test_values_recorded(self):
        points = deadline_sweep(deadlines=(40,), requests=60, trials=2)
        assert points[0].value == 40
        assert points[0].sdps_mean > 0


class TestCapacitySweep:
    def test_c1_gives_both_schemes_more_room(self):
        points = capacity_sweep(capacities=(1, 6), requests=120, trials=2)
        assert points[0].sdps_mean > points[1].sdps_mean

    def test_all_points_have_adps_at_least_sdps(self):
        for point in capacity_sweep(capacities=(2, 4), requests=100, trials=2):
            assert point.adps_mean >= point.sdps_mean - 1.0


class TestMasterRatioSweep:
    def test_advantage_decreases_toward_balance(self):
        points = master_ratio_sweep(
            master_counts=(5, 30), total_nodes=60, requests=150, trials=3
        )
        assert points[0].advantage > points[-1].advantage


class TestSymmetricTraffic:
    def test_adps_matches_sdps_without_bottleneck(self):
        curve = symmetric_traffic_curve(
            n_nodes=30, requested_counts=(40, 80), trials=3
        )
        sdps = curve.curve("sdps").means
        adps = curve.curve("adps").means
        for s, a in zip(sdps, adps):
            assert a == pytest.approx(s, rel=0.1)


class TestValidationExperiment:
    def test_guarantee_holds_adps(self):
        report = run_validation(
            n_masters=3, n_slaves=6, n_requests=30, hyperperiods=2
        )
        assert report.holds
        assert report.end_to_end_misses == 0
        assert report.per_link_misses == 0
        assert report.channels_admitted > 0
        assert report.messages_completed > 0
        assert 0 < report.worst_delay_fraction <= 1.0

    def test_guarantee_holds_sdps(self):
        report = run_validation(
            n_masters=3,
            n_slaves=6,
            n_requests=30,
            hyperperiods=2,
            dps=SymmetricDPS(),
        )
        assert report.holds

    def test_analytical_establishment_path(self):
        report = run_validation(
            n_masters=2,
            n_slaves=4,
            n_requests=15,
            hyperperiods=1,
            use_wire_handshake=False,
        )
        assert report.holds

    def test_summary_text(self):
        report = run_validation(
            n_masters=2, n_slaves=4, n_requests=10, hyperperiods=1
        )
        assert "HOLDS" in report.summary()


class TestCoexistenceExperiment:
    def test_rt_unharmed_and_be_flows(self):
        report = run_coexistence(
            n_masters=2, n_slaves=6, n_requests=16, messages=4
        )
        assert report.rt_unharmed
        assert report.be_frames_delivered > 0
        assert 0 < report.be_goodput_fraction <= 1.0
        # background load may inflate delays only within the blocking
        # allowance already included in T_latency
        assert report.loaded_worst_delay_ns >= report.clean_worst_delay_ns

    def test_summary_text(self):
        report = run_coexistence(
            n_masters=2, n_slaves=4, n_requests=8, messages=3
        )
        assert "unharmed" in report.summary()


class TestPerfExperiment:
    def test_fast_never_checks_more_points(self):
        for point in feasibility_cost_sweep(sizes=(4, 8, 12, 16, 20)):
            if point.naive_points_checked:
                assert point.fast_points_checked <= point.naive_points_checked

    def test_fast_checks_fewer_points_on_long_hyperperiods(self):
        """Same verdict; on long-hyperperiod sets the control-point test
        does strictly less work than the every-integer scan."""
        sampler = UniformSpecSampler(
            period_range=(40, 400), capacity_range=(1, 6),
            deadline_range=(10, 200),
        )
        tasks = make_link_tasks(
            20, sampler, RngRegistry(99).stream("bench-perf")
        )
        fast = is_feasible(tasks)
        naive = is_feasible_naive(tasks)
        assert fast.feasible == naive.feasible
        if naive.points_checked > 50:
            assert fast.points_checked < naive.points_checked

    def test_homogeneous_regime(self):
        points = feasibility_cost_sweep(sizes=(4, 6), heterogeneous=False)
        assert all(p.feasible is not None for p in points)

    def test_make_link_tasks_respects_floor(self):
        rng = RngRegistry(1).stream("t")
        tasks = make_link_tasks(
            20, FixedSpecSampler.paper_default(), rng, deadline_fraction=0.01
        )
        assert all(t.deadline >= t.capacity for t in tasks)


class TestMultiswitchExperiment:
    def test_fabric_builder_shape(self):
        fabric, masters, slaves = build_master_slave_fabric(3, 4, 9)
        assert len(masters) == 4 and len(slaves) == 9
        assert fabric.hop_count("m0", "s0") == 2  # s0 on sw0
        assert fabric.hop_count("m0", "s2") == 4  # s2 on sw2

    def test_proportional_advantage_on_chain(self):
        points = run_multiswitch_comparison(
            n_switches=2,
            n_masters=5,
            n_slaves=10,
            requested_counts=(40, 120),
            trials=3,
        )
        final = points[-1]
        assert final.proportional_mean >= final.symmetric_mean


class TestDpsComparison:
    def test_ranking_on_paper_workload(self):
        curve = run_dps_comparison(
            requested_counts=(150,), trials=3
        )
        means = {c.scheme: c.means[-1] for c in curve.curves}
        assert means["adps"] > means["sdps"] * 1.4
        assert means["search"] >= means["adps"] - 2.0
        assert means["udps"] == pytest.approx(means["adps"], abs=2.0)


class TestFabricValidation:
    def test_guarantee_holds_on_chain(self):
        from repro.experiments.multiswitch_exp import run_fabric_validation

        report = run_fabric_validation(
            n_switches=2, n_masters=2, n_slaves=6, n_requests=16,
            messages=2,
        )
        assert report.holds
        assert report.channels_admitted > 0
        assert report.messages_completed > 0
        assert report.max_hop_count >= 2

    def test_reproducible(self):
        from repro.experiments.multiswitch_exp import run_fabric_validation

        a = run_fabric_validation(
            n_switches=2, n_masters=2, n_slaves=4, n_requests=10,
            messages=2, seed=5,
        )
        b = run_fabric_validation(
            n_switches=2, n_masters=2, n_slaves=4, n_requests=10,
            messages=2, seed=5,
        )
        assert a == b


class TestHarmonicWorkloads:
    def test_validation_with_harmonic_periods(self):
        """Mixed harmonic periods (PLC-style cyclic IO): the guarantee
        must hold across the longer hyperperiod too."""
        from repro.experiments.validation import run_validation
        from repro.traffic.spec import HarmonicSpecSampler

        report = run_validation(
            n_masters=3,
            n_slaves=6,
            n_requests=24,
            hyperperiods=1,
            sampler=HarmonicSpecSampler(
                periods=(50, 100, 200), capacity_range=(1, 3),
                deadline_fraction=0.4,
            ),
            use_wire_handshake=False,
        )
        assert report.holds
        assert report.channels_admitted > 0

    def test_speed_scaling_shape(self):
        from repro.experiments.ablations import speed_scaling

        points = speed_scaling(speeds_mbps=(100,))
        assert len(points) == 1
        assert points[0].deadline_misses == 0
        assert points[0].worst_delay_slots > 0


class TestBeLatencyVsRtLoad:
    def test_shape(self):
        from repro.experiments.coexistence import be_latency_vs_rt_load

        points = be_latency_vs_rt_load(
            rt_channel_counts=(0, 16), n_masters=2, n_slaves=6,
            messages=4,
        )
        assert len(points) == 2
        empty, loaded = points
        assert empty.rt_channels == 0
        assert loaded.rt_channels > 0
        assert all(p.rt_misses == 0 for p in points)
        assert loaded.be_goodput_bps < empty.be_goodput_bps
        assert loaded.rt_reserved_fraction > 0


class TestDecomposition:
    def test_budgets_respected_per_hop(self):
        from repro.experiments.validation import run_decomposition

        rows = run_decomposition(
            n_masters=2, n_slaves=6, n_requests=16, messages=3
        )
        assert rows
        for row in rows:
            assert row.uplink_within_budget
            assert row.total_within_budget
            assert row.uplink_budget_slots < row.total_budget_slots

    def test_adps_budgets_are_actually_used(self):
        """On a loaded uplink, some channel's worst uplink response must
        land close to its d_iu budget -- proof the partition is not
        vacuous headroom."""
        from repro.experiments.validation import run_decomposition

        rows = run_decomposition(
            n_masters=2, n_slaves=10, n_requests=30, messages=3
        )
        tightest = max(
            rows, key=lambda r: r.uplink_worst_slots / r.uplink_budget_slots
        )
        assert tightest.uplink_worst_slots >= 0.8 * tightest.uplink_budget_slots
