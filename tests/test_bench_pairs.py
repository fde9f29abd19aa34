"""tools/bench_pairs.py's run order and summary arithmetic, on canned
results: no benchmark runs here."""

import importlib.util
import json
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "ops_per_s", "better": "higher"},
           {"name": "latency_p50_ms", "better": "lower"}]


def _result(ops, p50, digest="d0", correct=True, failed=0):
    return {"digest": digest, "correct": correct, "attempted": 10, "failed": failed,
            "metrics": {"ops_per_s": {"value": ops, "unit": "1/s"},
                        "latency_p50_ms": {"value": p50, "unit": "ms"}}}


def test_runs_alternate_which_side_goes_first():
    assert bench_pairs.run_order(4) == [
        (0, "base"), (0, "change"), (1, "change"), (1, "base"),
        (2, "base"), (2, "change"), (3, "change"), (3, "base")]
    order = bench_pairs.run_order(10)
    assert sorted(order) == [(i, side) for i in range(10) for side in ("base", "change")]


def test_parse_run_reads_the_digest_and_the_last_line():
    result = _result(1000.0, 0.5, digest="ab" * 32)
    stdout = "info {}\ndigest " + "ab" * 32 + "\n" + json.dumps(result) + "\n"
    assert bench_pairs.parse_run(stdout) == result


def test_summary_takes_medians_quartiles_and_wins():
    runs = {"base": [_result(v, 1.0) for v in (100, 110, 120, 130, 140)],
            "change": [_result(v, p) for v, p in
                       ((115, 0.9), (105, 1.0), (125, 1.1), (135, 0.8), (145, 0.7))]}
    ops, p50 = bench_pairs.summarize(runs, METRICS)
    assert ops["metric"] == "ops_per_s" and ops["pairs"] == 5
    assert ops["base"] == (110.0, 120.0, 130.0)
    assert ops["change"] == (115.0, 125.0, 135.0)
    assert ops["relative"] == pytest.approx(125 / 120 - 1)
    assert ops["wins"] == 4  # higher is better; pair 1 lost
    # Lower is better, and a tie (pair 1) counts for neither side.
    assert p50["wins"] == 3
    assert p50["base"] == (1.0, 1.0, 1.0)
    assert p50["change"] == (0.8, 0.9, 1.0)


def test_flags_name_failed_runs_and_digest_mismatches():
    same = {"base": [_result(1, 1)], "change": [_result(2, 1)]}
    assert bench_pairs.flags(same) == []
    bad = {"base": [_result(1, 1), _result(1, 1, correct=False, failed=2)],
           "change": [_result(2, 1, digest="d1"), _result(2, 1)]}
    assert bench_pairs.flags(bad) == ["base pair 1: correct=False failed=2",
                                      "digest mismatch: d0, d1"]
