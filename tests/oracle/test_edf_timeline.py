"""Unit tests for the brute-force EDF timeline dispatcher."""

from __future__ import annotations

import pytest

from repro.core.feasibility import busy_period, hyperperiod, is_feasible
from repro.errors import ConfigurationError
from repro.oracle.edf_timeline import (
    default_release_horizon,
    simulate_edf,
)

from ..conftest import make_tasks


class TestBasics:
    def test_empty_set_is_trivially_schedulable(self):
        result = simulate_edf([])
        assert result.schedulable
        assert result.release_horizon == 0
        assert result.makespan == 0
        assert result.jobs_released == 0

    def test_zero_horizon_releases_nothing(self):
        tasks = make_tasks([(10, 2, 10)])
        result = simulate_edf(tasks, 0)
        assert result.jobs_released == 0
        assert result.schedulable

    def test_single_task_response_equals_capacity(self):
        tasks = make_tasks([(10, 3, 5)])
        result = simulate_edf(tasks, record_jobs=True)
        assert result.first_miss is None
        assert result.worst_response_of(0) == 3
        # busy period of a lone task is its capacity.
        assert result.makespan == 3
        assert [job.completion for job in result.jobs] == [3]

    def test_two_tasks_edf_order(self):
        # task 1 has the tighter deadline and must run first.
        tasks = make_tasks([(20, 2, 12), (20, 2, 4)])
        result = simulate_edf(tasks, record_jobs=True)
        assert result.first_miss is None
        by_completion = sorted(result.jobs, key=lambda j: j.completion)
        assert by_completion[0].task_index == 1
        assert by_completion[0].completion == 2
        assert by_completion[1].task_index == 0
        assert by_completion[1].completion == 4

    def test_equal_deadlines_break_ties_by_task_index(self):
        tasks = make_tasks([(10, 1, 5), (10, 1, 5)])
        result = simulate_edf(tasks, record_jobs=True)
        first = min(result.jobs, key=lambda j: j.completion)
        assert first.task_index == 0

    def test_idle_gap_is_skipped_not_executed(self):
        # One job of 1 slot, then nothing until the next period.
        tasks = make_tasks([(50, 1, 50)])
        result = simulate_edf(tasks, 101, stop_on_miss=False)
        assert result.jobs_released == 3
        assert result.slots_executed == 3
        assert result.makespan == 101  # last job released at 100, runs 1


class TestMissDetection:
    def test_overloaded_instant_misses_at_the_deadline(self):
        # 3 tasks, 2 slots each, all due at t=4: 6 slots of work, 4 of
        # room. The first miss is at t=4 exactly.
        tasks = make_tasks([(10, 2, 4), (10, 2, 4), (10, 2, 4)])
        result = simulate_edf(tasks)
        assert result.first_miss is not None
        assert result.first_miss.time == 4
        assert not result.schedulable

    def test_miss_is_attributed_to_the_unfinished_job(self):
        tasks = make_tasks([(10, 3, 3), (10, 4, 6)])
        result = simulate_edf(tasks)
        # task 0 monopolizes [0, 3); task 1 needs 4 slots by t=6.
        assert result.first_miss is not None
        assert result.first_miss.time == 6
        assert result.first_miss.task_index == 1
        assert result.first_miss.remaining > 0

    def test_stop_on_miss_false_accounts_the_whole_window(self):
        tasks = make_tasks([(4, 3, 4), (8, 3, 8)])  # U = 1.125
        result = simulate_edf(
            tasks, 16, stop_on_miss=False, record_jobs=True
        )
        assert result.first_miss is not None
        assert result.jobs_released == 6
        assert result.jobs_completed == 6  # late jobs still complete
        overruns = sum(s.overruns for s in result.task_stats)
        assert overruns > 0
        assert any(job.missed for job in result.jobs)

    def test_first_miss_matches_between_stop_modes(self):
        # U = 1 with tight deadlines: h(11) = 12 > 11, so a miss exists.
        tasks = make_tasks([(5, 2, 4), (10, 4, 9), (20, 4, 11)])
        stopped = simulate_edf(tasks, 40, stop_on_miss=True)
        full = simulate_edf(tasks, 40, stop_on_miss=False)
        assert stopped.first_miss is not None
        assert stopped.first_miss == full.first_miss


class TestHorizons:
    def test_default_horizon_is_busy_period(self):
        tasks = make_tasks([(10, 3, 8), (15, 4, 12)])
        assert default_release_horizon(tasks) == min(
            busy_period(tasks), hyperperiod(tasks)
        )
        result = simulate_edf(tasks)
        assert result.release_horizon == default_release_horizon(tasks)

    def test_feasible_replay_drains_exactly_at_the_busy_period(self):
        tasks = make_tasks([(10, 3, 10), (15, 4, 15), (30, 2, 30)])
        result = simulate_edf(tasks)
        assert result.first_miss is None
        assert result.makespan == busy_period(tasks)
        assert result.slots_executed == result.makespan
        # a saturated Fig. 18.5 downlink: 13 channels, C=3 P=100 d=40
        paper = make_tasks([(100, 3, 40)] * 13)
        assert simulate_edf(paper).first_miss is None
        assert is_feasible(paper).feasible

    def test_overutilized_needs_explicit_horizon(self):
        tasks = make_tasks([(2, 1, 2), (2, 1, 2), (2, 1, 2)])
        with pytest.raises(ConfigurationError, match="over-utilized"):
            simulate_edf(tasks)
        result = simulate_edf(tasks, 10)
        assert result.first_miss is not None
        assert result.first_miss.time == 2

    def test_negative_horizon_rejected(self):
        with pytest.raises(ConfigurationError, match="non-negative"):
            simulate_edf(make_tasks([(5, 1, 5)]), -1)

    def test_max_slots_cap_trips(self):
        tasks = make_tasks([(2, 1, 2), (4, 2, 4)])  # U = 1, always busy
        with pytest.raises(ConfigurationError, match="exceeded"):
            simulate_edf(tasks, 10_000, max_slots=100)


class TestAccounting:
    def test_hyperperiod_accounting_counts_every_job(self):
        tasks = make_tasks([(4, 1, 4), (6, 2, 6)])
        horizon = hyperperiod(tasks)  # 12
        result = simulate_edf(
            tasks, horizon, stop_on_miss=False, record_jobs=True
        )
        assert result.task_stats[0].jobs_released == 3
        assert result.task_stats[1].jobs_released == 2
        assert result.jobs_completed == 5
        assert len(result.jobs) == 5
        assert result.schedulable
        paper = simulate_edf(
            make_tasks([(100, 3, 40)] * 12), 100, stop_on_miss=False,
            record_jobs=True,
        )
        assert paper.jobs_released == 12
        assert paper.schedulable

    def test_job_records_are_consistent(self):
        tasks = make_tasks([(6, 2, 5), (9, 3, 9)])
        result = simulate_edf(
            tasks, 18, stop_on_miss=False, record_jobs=True
        )
        for job in result.jobs:
            task = tasks[job.task_index]
            assert job.release % task.period == 0
            assert job.deadline == job.release + task.deadline
            assert job.response >= task.capacity
            assert job.missed == (job.completion > job.deadline)
