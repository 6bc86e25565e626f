"""The benchmark's own arithmetic: tails, the ladder, spans, the oracle check.

Run with ``python3 -m pytest perfbench/tests`` (not part of the tier-1
collection, whose ``testpaths`` are ``tests`` and ``benchmarks``).
"""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import stats  # noqa: E402


# -- the ">= 10 beyond" tail rule ------------------------------------------------


@pytest.mark.parametrize("n, expected", [
    (200, 95), (199, 90), (100, 90), (99, 75), (40, 75), (39, 50),
    (20, 50), (19, None), (1, None),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected
    if expected is not None:
        assert stats.beyond(n, expected) >= stats.MIN_BEYOND


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 95) == 95
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_summarize_falls_back_to_the_median_for_small_samples():
    summary = stats.summarize([5.0, 1.0, 3.0])
    assert summary == {"n": 3, "p50": 3.0, "tail_p": 50, "tail": 3.0}
    big = stats.summarize([float(i) for i in range(1, 41)])
    assert (big["tail_p"], big["tail"]) == (75, 30.0)


def test_host_normalized_scales_each_operation_by_its_bracketing_probes():
    # The second operation ran while the probe took twice as long.
    got = stats.host_normalized([100.0, 200.0], [10.0, 10.0, 30.0], 10.0)
    assert got == [100.0, 100.0]
    with pytest.raises(ValueError):
        stats.host_normalized([100.0], [10.0], 10.0)


# -- rung verdicts and the ladder ------------------------------------------------


def rung(rate, latencies, failed=0, lag=1.0, backlog=0):
    return stats.RungOutcome(rate, latencies, failed, lag, backlog)


def test_rung_passes_under_the_limit():
    assert rung(10, [100.0] * 30).passes


def test_rung_fails_on_p95_over_the_limit():
    slow = [100.0] * 28 + [900.0] * 2
    assert rung(10, slow).p95_ms == 900.0
    assert not rung(10, slow).passes


def test_failed_request_counts_as_missing_the_limit():
    assert not rung(10, [50.0] * 29, failed=1).passes
    assert math.isinf(rung(10, [50.0] * 28, failed=2).p95_ms)


def test_growing_backlog_fails_and_littles_law_bound_scales_with_rate():
    # 10 req/s x 0.5 s limit: 5 outstanding is steady state, 6 is growth.
    assert not rung(10, [100.0] * 30, backlog=5).backlog_growing
    assert rung(10, [100.0] * 30, backlog=6).backlog_growing
    assert not rung(10, [100.0] * 30, backlog=6).passes
    # A low rate still tolerates one request in flight.
    assert not rung(1, [100.0] * 30, backlog=1).backlog_growing


def test_late_generator_makes_a_rung_invalid_not_slow():
    late = rung(10, [100.0] * 30, lag=stats.MAX_LAG_MS + 1)
    assert not late.valid and not late.passes


def test_max_passing_rate_stops_at_the_first_failing_rung():
    outcomes = [rung(6, [90.0] * 20), rung(14, [120.0] * 40),
                rung(16, [900.0] * 30), rung(20, [100.0] * 30)]
    assert stats.max_passing_rate(outcomes) == 14
    assert stats.max_passing_rate([rung(4, [900.0] * 20)]) == 0.0


def test_next_rung_walks_the_fixed_ladder():
    assert stats.next_rung(14, up=True) == 16
    assert stats.next_rung(14, up=False) == 12
    assert stats.next_rung(15, up=True) == 16
    assert stats.next_rung(stats.LADDER[-1], up=True) is None
    assert stats.next_rung(stats.LADDER[0], up=False) is None


# -- span self times -----------------------------------------------------------------


def test_self_time_subtracts_children():
    spans = [(1, "sample", 0.0, 10.0, None),
             (2, "step1", 1.0, 3.0, 1),
             (3, "step3", 4.0, 9.0, 1),
             (4, "map", 5.0, 8.0, 3)]
    own = stats.self_times(spans)
    assert own == {1: 3.0, 2: 2.0, 3: 2.0, 4: 3.0}
    assert stats.self_time_by_name(spans)["sample"] == 3.0
    assert stats.child_coverage(spans, "sample") == [pytest.approx(0.7)]


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [(1, "batch", 0.0, 10.0, None),
             (2, "a", 1.0, 5.0, 1),
             (3, "b", 3.0, 7.0, 1),   # overlaps a (threads)
             (4, "c", 9.0, 12.0, 1)]  # outlives its parent
    assert stats.self_times(spans)[1] == pytest.approx(10.0 - 6.0 - 1.0)


def test_same_name_nesting_is_not_double_counted():
    spans = [(1, "step2.intersect", 0.0, 4.0, None),
             (2, "step2.intersect", 1.0, 3.0, 1)]
    assert stats.self_time_by_name(spans) == {"step2.intersect": 4.0}


# -- the oracle comparator --------------------------------------------------------


def test_comparator_accepts_an_identical_result():
    result = stats.comparable({3, 1}, {1: 0.25, 3: 0.75})
    oracle = stats.comparable([1, 3], {"3": 0.75, "1": 0.25})
    assert result == oracle
    assert stats.mismatches(result, oracle) == []


def test_comparator_catches_a_seeded_mismatch():
    oracle = stats.comparable([1, 3], {1: 0.25, 3: 0.75})
    dropped = dict(oracle, candidates=[3])
    assert stats.mismatches(dropped, oracle)
    nudged = stats.comparable([1, 3], {1: 0.25, 3: math.nextafter(0.75, 1)})
    [problem] = stats.mismatches(nudged, oracle)
    assert problem.startswith("profile[3]")
    extra = stats.comparable([1, 3], {1: 0.25, 3: 0.75, 5: 0.0})
    assert stats.mismatches(extra, oracle) == ["profile[5] 0.0 != None"]


# -- comparing result files ----------------------------------------------------------


def test_compare_reports_different_cpu_counts_as_unmeasurable():
    import compare

    def result(nproc, value):
        return {"provenance": {"nproc": nproc},
                "metrics": {"reads_per_s": {"value": value,
                                            "unit": "reads/s"}}}

    assert compare.compare(result(2, 100.0), result(4, 300.0)) == [
        "unmeasurable: nproc 2 vs 4"]
    [line] = compare.compare(result(2, 100.0), result(2, 110.0))
    assert line.endswith("(+10.0%)")
