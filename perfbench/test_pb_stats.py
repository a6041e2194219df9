"""Self-tests for the harness's pure pieces (``pb_stats``).

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import statistics

import pytest

import pb_stats


class TestTailPercentile:
    @pytest.mark.parametrize("n, expected", [
        (10, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0),
        (99, 75.0), (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0),
        (1000, 99.0), (9999, 99.0), (10000, 99.9),
    ])
    def test_highest_percentile_with_ten_beyond(self, n, expected):
        assert pb_stats.tail_percentile(n) == expected

    def test_every_reported_tail_has_ten_samples_beyond(self):
        for n in range(1, 3000):
            p = pb_stats.tail_percentile(n)
            if p is not None:
                assert n * (100 - p) / 100 >= 10 - 1e-9

    def test_summary_carries_count_median_and_tail(self):
        values = list(range(1, 101))
        summary = pb_stats.summarize(values)
        assert summary["n"] == 100
        assert summary["p50"] == statistics.median(values)
        assert summary["tail_p"] == 90.0
        assert summary["tail"] == pytest.approx(90.1)

    def test_fixed_tail_percentile_when_supported(self):
        values = list(range(1, 1001))
        assert pb_stats.summarize(values)["tail_p"] == 99.0
        assert pb_stats.summarize(values, tail_p=90.0)["tail_p"] == 90.0
        # Too few samples for p95: fall back to the highest supported.
        assert pb_stats.summarize(values[:150], tail_p=95.0)["tail_p"] == 90.0

    def test_summary_without_enough_samples_has_no_tail(self):
        summary = pb_stats.summarize([3.0, 1.0, 2.0])
        assert summary["p50"] == 2.0
        assert summary["tail"] is None and summary["tail_p"] is None
        assert pb_stats.tail_or_max(summary) == 3.0


class TestPoissonSchedule:
    def test_same_seed_same_schedule(self):
        a = pb_stats.poisson_schedule(7, 50.0, 4.0, stream="busy")
        b = pb_stats.poisson_schedule(7, 50.0, 4.0, stream="busy")
        assert a == b

    def test_seed_and_stream_change_the_schedule(self):
        base = pb_stats.poisson_schedule(7, 50.0, 4.0, stream="busy")
        assert pb_stats.poisson_schedule(8, 50.0, 4.0, stream="busy") != base
        assert pb_stats.poisson_schedule(7, 50.0, 4.0, stream="light") != base

    def test_arrivals_are_ordered_inside_the_window(self):
        schedule = pb_stats.poisson_schedule(3, 80.0, 5.0, start=2.0)
        dues = [due for due, _ in schedule]
        assert dues == sorted(dues)
        assert all(2.0 < due < 7.0 for due in dues)

    def test_rate_and_sizes_match_the_request(self):
        schedule = pb_stats.poisson_schedule(5, 200.0, 50.0)
        assert len(schedule) / 50.0 == pytest.approx(200.0, rel=0.05)
        sizes = [rows for _, rows in schedule]
        assert min(sizes) >= 1 and max(sizes) <= 256
        assert statistics.mean(sizes) == pytest.approx(128.5, rel=0.05)

    def test_empty_for_no_rate(self):
        assert pb_stats.poisson_schedule(1, 0.0, 5.0) == []


class TestRateLadder:
    def test_steps_are_at_most_ten_percent_apart(self):
        ladder = pb_stats.rate_ladder(10.0, 500.0, step=1.05)
        assert ladder[0] == 10.0 and ladder[-1] <= 500.0
        for low, high in zip(ladder, ladder[1:]):
            assert 1.0 < high / low <= 1.10 + 1e-6

    def test_rejects_wide_steps(self):
        with pytest.raises(ValueError):
            pb_stats.rate_ladder(10.0, 100.0, step=1.2)


class TestTiling:
    def test_contiguous_slices_tile(self):
        assert pb_stats.tiling_errors([(0, 5), (5, 3), (8, 2)]) == []

    def test_order_of_arrival_does_not_matter(self):
        assert pb_stats.tiling_errors([(8, 2), (0, 5), (5, 3)]) == []

    def test_injected_gap_is_caught(self):
        errors = pb_stats.tiling_errors([(0, 5), (6, 3)], total=9)
        assert any("gap [5, 6)" in e for e in errors)

    def test_injected_overlap_is_caught(self):
        errors = pb_stats.tiling_errors([(0, 5), (4, 3)])
        assert any("overlap [4, 5)" in e for e in errors)

    def test_slices_must_start_at_zero(self):
        assert pb_stats.tiling_errors([(1, 4)], total=5)


class TestBacklog:
    def test_keeping_up_has_no_backlog(self):
        pairs = [(i * 0.01, i * 0.01 + 0.005) for i in range(100)]
        assert not pb_stats.backlog_grew(pairs, 1.0)

    def test_falling_behind_grows_the_backlog(self):
        # Arrivals every 10 ms, completions every 20 ms.
        pairs = [(i * 0.01, i * 0.02 + 0.02) for i in range(100)]
        assert pb_stats.backlog_grew(pairs, 1.0)

    def test_requests_that_never_finish_count(self):
        pairs = [(i * 0.01, None if i > 40 else i * 0.01 + 0.005)
                 for i in range(100)]
        assert pb_stats.backlog_grew(pairs, 1.0)
