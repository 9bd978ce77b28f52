"""Coupled-path dominance checks and the FCFS oracle."""

import pytest

from jswsim.comparison import (
    SystemConfig,
    compare_allocation_ranks,
    compare_server_counts,
    fcfs_waiting_times,
)
from jswsim.errors import PremiseError
from jswsim.processes import Deterministic, Exponential, IIDModel, Uniform, generate
from jswsim.profiles import total_workload

MM1 = IIDModel(Exponential(1.0), Exponential(0.5))


def trace_marks(pairs, tmp_path, name="marks.txt"):
    from jswsim.processes import TraceModel

    p = tmp_path / name
    p.write_text("".join(f"{s} {x}\n" for s, x in pairs))
    return generate(TraceModel(str(p)), 0, len(pairs))


class TestSystemConfig:
    def test_labels_and_start(self):
        cfg = SystemConfig(3, 2)
        assert cfg.label == "S3P2"
        assert cfg.start_profile() == (0.0, 0.0, 0.0)
        custom = SystemConfig(2, 1, (0.5, 1.5))
        assert custom.start_profile() == (0.5, 1.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            SystemConfig(0, 1)
        with pytest.raises(ValueError):
            SystemConfig(2, 3)
        with pytest.raises(ValueError):
            SystemConfig(2, 1, (1.0,))  # wrong length
        with pytest.raises(ValueError):
            SystemConfig(2, 1, (2.0, 1.0))  # not sorted
        with pytest.raises(ValueError):
            SystemConfig(2, 1, (-1.0, 1.0))


class TestServerCountComparison:
    def test_worked_example(self, tmp_path):
        marks = trace_marks([(3.0, 1.0), (3.0, 1.0)], tmp_path)
        report = compare_server_counts(2, 1, marks)
        assert report.passed
        assert report.systems == ("S2", "S1")
        assert report.final_profiles == ((1.0, 2.0), (4.0,))
        # totals stay ordered: 3 <= 4 at the last step
        big, small = report.final_profiles
        assert total_workload(big) == 3.0
        assert total_workload(small) == 4.0
        assert report.steps_checked == 3
        # the two arrivals saw (0, 0), (0, 2) and (0), (2)
        assert report.mean_offered_wait == (0.0, 1.0)

    def test_continuous_run_clean(self):
        marks = generate(MM1, 4, 3000)
        report = compare_server_counts(3, 2, marks)
        assert report.passed
        assert report.steps_checked == 3001
        # more servers means a shorter offered wait on average
        assert report.mean_offered_wait[0] <= report.mean_offered_wait[1]

    def test_dyadic_deterministic_run_clean(self, tmp_path):
        pairs = [(1.0, 0.375)] * 400 + [(0.5, 0.5)] * 400
        marks = trace_marks(pairs, tmp_path)
        assert compare_server_counts(5, 2, marks).passed

    def test_equal_counts_allowed(self):
        marks = generate(MM1, 4, 100)
        assert compare_server_counts(2, 2, marks).passed

    def test_bad_counts_rejected(self):
        marks = generate(MM1, 4, 10)
        with pytest.raises(ValueError):
            compare_server_counts(2, 3, marks)
        with pytest.raises(ValueError):
            compare_server_counts(2, 0, marks)

    def test_corrupt_step_caught_exactly_once(self):
        marks = generate(MM1, 8, 200)
        report = compare_server_counts(3, 2, marks, corrupt_step=57)
        assert not report.passed
        assert len(report.violations) == 1
        v = report.violations[0]
        assert v.step == 57
        assert v.inequality.startswith(("coordinate", "total", "tail_sum"))
        assert v.lhs > v.rhs

    def test_corruption_does_not_pollute_series(self):
        marks = generate(MM1, 8, 200)
        clean = compare_server_counts(3, 2, marks)
        dirty = compare_server_counts(3, 2, marks, corrupt_step=57)
        assert clean.mean_offered_wait == dirty.mean_offered_wait
        assert clean.final_profiles == dirty.final_profiles


class TestAllocationComparison:
    def test_zero_starts_clean(self):
        marks = generate(MM1, 3, 2000)
        start = (0.0, 0.0, 0.0)
        report = compare_allocation_ranks(3, 3, start, start, marks)
        assert report.passed
        assert report.steps_checked == 2001
        assert report.systems == ("S3P1", "S3P3")

    def test_ordered_starts_clean(self):
        marks = generate(MM1, 3, 2000)
        report = compare_allocation_ranks(3, 3, (0.0, 2.0, 2.0), (1.0, 1.0, 3.0), marks)
        assert report.passed

    def test_premise_checked(self):
        marks = generate(MM1, 3, 10)
        with pytest.raises(PremiseError):
            compare_allocation_ranks(3, 2, (0.0, 2.0, 2.0), (1.0, 1.0, 3.0), marks)

    def test_dyadic_exactness_at_zero_tolerance(self, tmp_path):
        pairs = [(1.0, 0.5), (0.25, 0.125), (2.0, 0.75)] * 300
        marks = trace_marks(pairs, tmp_path)
        for rank in (2, 4):
            report = compare_allocation_ranks(
                4, rank, (0.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0), marks, tol=0.0
            )
            assert report.passed, rank

    def test_corrupt_step_caught_exactly_once(self):
        marks = generate(MM1, 3, 200)
        start = (0.0, 0.0, 0.0)
        clean = compare_allocation_ranks(3, 2, start, start, marks)
        report = compare_allocation_ranks(3, 2, start, start, marks, corrupt_step=57)
        assert [v.step for v in report.violations] == [57]
        assert report.violations[0].lhs > report.violations[0].rhs
        assert report.mean_offered_wait == clean.mean_offered_wait
        assert report.final_profiles == clean.final_profiles

    def test_rank_validated(self):
        marks = generate(MM1, 3, 10)
        with pytest.raises(ValueError):
            compare_allocation_ranks(3, 4, (0.0,) * 3, (0.0,) * 3, marks)


class TestFcfsOracle:
    def test_single_server(self, tmp_path):
        marks = trace_marks([(3.0, 1.0), (3.0, 1.0)], tmp_path)
        assert fcfs_waiting_times(marks, 1) == [0.0, 2.0]

    def test_two_servers(self, tmp_path):
        marks = trace_marks([(3.0, 1.0), (3.0, 1.0), (3.0, 1.0)], tmp_path)
        assert fcfs_waiting_times(marks, 2) == [0.0, 0.0, 1.0]

    @pytest.mark.parametrize("servers", [1, 2, 3, 5])
    def test_agrees_with_profile_recursion(self, servers):
        marks = generate(MM1, 13, 2000)
        waits = fcfs_waiting_times(marks, servers)
        profile = (0.0,) * servers
        from jswsim.profiles import kw_step

        for k, mark in enumerate(zip(marks.sigma.tolist(), marks.xi.tolist())):
            assert abs(waits[k] - profile[0]) <= 1e-9, k
            profile = kw_step(profile, mark)


class TestMeanWaitMonotoneInServers:
    def test_mean_offered_wait_nonincreasing(self):
        # adding servers at a fixed input law can only help the next
        # arrival; the stationary mean offered wait over common seeds
        # must come out nonincreasing in the server count
        import math

        from jswsim.loynes import estimate_stationary

        seeds = range(1, 201)
        means = []
        for servers in range(1, 6):
            vals = [estimate_stationary(MM1, s, servers).profile[0] for s in seeds]
            means.append(math.fsum(vals) / len(vals))
        assert all(hi >= lo for hi, lo in zip(means, means[1:])), means
        assert means[0] > 0.5  # M/M/1 at half load really queues
        assert means[-1] < 1e-3  # five servers at that load nearly never do
