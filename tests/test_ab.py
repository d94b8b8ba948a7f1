"""Tests for ``scripts/ab.py``'s report: quartiles and table rows."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "ab_script", os.path.join(ROOT, "scripts", "ab.py")
)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

METRICS = [("ops_per_s", "higher"), ("latency_p50_ms", "lower")]

def result(ops, latency, failed=0):
    return {
        "metrics": {
            "ops_per_s": {"value": ops},
            "latency_p50_ms": {"value": latency},
        },
        "failed": failed,
    }

def cells(row):
    return [c.strip() for c in row.strip("|").split("|")]

class TestQuartiles:
    def test_a_lone_value_is_its_own_quartiles(self):
        assert ab.quartiles([3.0]) == (3.0, 3.0, 3.0)

    def test_five_values(self):
        assert ab.quartiles([5.0, 1.0, 4.0, 2.0, 3.0]) == (1.5, 3.0, 4.5)

class TestTableRows:
    PAIRS = [
        (result(1.0, 100.0), result(2.0, 50.0)),
        (result(1.2, 90.0), result(2.2, 95.0)),
        (result(0.8, 110.0, failed=1), result(1.8, 60.0)),
        (result(1.0, 100.0), None),  # the change printed no result
    ]

    def test_one_row_per_metric_over_complete_pairs(self):
        rows = ab.table_rows("lint-src", self.PAIRS, METRICS)
        ops, latency = (cells(r) for r in rows)
        assert ops[:3] == ["lint-src", "ops_per_s", "3"]
        assert ops[3] == "1 (0.8–1.2)" and ops[4] == "2 (1.8–2.2)"
        assert ops[5] == "2.000"
        assert ops[7] == "3/3"  # higher is better
        assert latency[5] == "0.600" and latency[7] == "2/3"  # lower is better
        assert ops[8] == "1/0"  # failures count every run, complete or not

    def test_ratio_interval_brackets_the_ratio_and_is_seeded(self):
        rows = ab.table_rows("lint-src", self.PAIRS, METRICS)
        assert rows == ab.table_rows("lint-src", self.PAIRS, METRICS)
        for row in rows:
            c = cells(row)
            low, high = (float(x) for x in c[6].split("–"))
            assert low <= float(c[5]) <= high

    def test_identical_runs_give_a_point_interval(self):
        pairs = [(result(1.0, 10.0), result(1.5, 10.0))] * 4
        (ops, latency) = (cells(r) for r in ab.table_rows("w", pairs, METRICS))
        assert ops[6] == "1.500–1.500" and latency[6] == "1.000–1.000"

    def test_a_metric_no_pair_reports_has_no_row(self):
        pairs = [(result(1.0, 10.0), result(2.0, 5.0))]
        rows = ab.table_rows("w", pairs, METRICS + [("peak_rss_mb", "lower")])
        assert [cells(r)[1] for r in rows] == ["ops_per_s", "latency_p50_ms"]

def test_interval_of_a_zero_base_is_nan():
    low, high = ab.ratio_interval([(0.0, 1.0)])
    assert low != low and high != high
