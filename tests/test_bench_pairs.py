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
    stamp = {"workload": "delegate", "seed": 1, "python": "3.11.7"}
    stdout = ("info " + json.dumps(stamp) + "\ndigest " + "ab" * 32 + "\n"
              + json.dumps(result) + "\n")
    assert bench_pairs.parse_run(stdout) == {**result, "info": stamp}


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


@pytest.mark.parametrize("change, status", [
    ({}, 0),
    ({"digest": "d1"}, 1),
    ({"correct": False}, 1),
    ({"failed": 3}, 1),
], ids=["clean", "digest-mismatch", "incorrect", "failed-ops"])
def test_exit_status_is_1_exactly_when_a_flag_is_printed(monkeypatch, capsys, change, status):
    """main() on canned runs (nothing is extracted or benchmarked): the
    working tree's runs carry `change`, and the exit status is 1 whenever the
    output holds a FLAG line."""
    names = [m["name"] for m in json.loads(
        (Path(bench_pairs.ROOT) / "BENCHMARK.json").read_text())["end_to_end"]]

    def fake_bench(root, args):
        result = {**_result(100.0, 1.0), "metrics": {n: {"value": 1.0} for n in names}}
        return {**result, **change} if root == bench_pairs.ROOT else result

    monkeypatch.setattr(bench_pairs, "extract", lambda rev, into: None)
    monkeypatch.setattr(bench_pairs, "bench", fake_bench)
    monkeypatch.setattr("sys.argv", ["bench_pairs.py", "--base", "HEAD", "--workload",
                                     "certify", "--pairs", "2", "--seconds", "1"])
    assert bench_pairs.main() == status
    out = capsys.readouterr().out
    assert ("\nFLAG " in out) == bool(status)
    runs = {"base": [_result(1, 1)], "change": [{**_result(1, 1), **change}]}
    assert bench_pairs.report(runs, METRICS, "header") == status


def _canned_main(monkeypatch, argv, digest="d0"):
    """main() with `argv` on canned runs: nothing is extracted or
    benchmarked. Returns (status, the runs it was given)."""
    names = [m["name"] for m in json.loads(
        (Path(bench_pairs.ROOT) / "BENCHMARK.json").read_text())["end_to_end"]]
    given = {"base": [], "change": []}

    def fake_bench(root, args):
        side = "change" if root == bench_pairs.ROOT else "base"
        value = 100.0 + len(given[side]) + (side == "change")
        run = {**_result(value, 1.0, digest=digest), "info": {"seed": args.seed},
               "metrics": {n: {"value": value, "unit": "x"} for n in names}}
        given[side].append(run)
        return run

    monkeypatch.setattr(bench_pairs, "extract", lambda rev, into: None)
    monkeypatch.setattr(bench_pairs, "bench", fake_bench)
    monkeypatch.setattr("sys.argv", ["bench_pairs.py", *argv])
    return bench_pairs.main(), given


def test_out_adds_one_comparison_per_call_and_round_trips(monkeypatch, capsys, tmp_path):
    """--out keeps a JSON list: each call adds its command line, arguments,
    every run (metrics, digest, info stamp) per side and pair, the summary
    rows and the flags, exactly as record() builds them from those runs."""
    out = tmp_path / "BENCH.json"
    metrics = json.loads((Path(bench_pairs.ROOT) / "BENCHMARK.json").read_text())["end_to_end"]
    calls = [(["--base", "HEAD", "--workload", "delegate", "--pairs", "3", "--seed", "2"], "d0"),
             (["--base", "HEAD~1", "--workload", "certify", "--pairs", "1"], "d1")]
    for argv, digest in calls:
        status, runs = _canned_main(monkeypatch, [*argv, "--out", str(out)], digest)
        assert status == 0
    capsys.readouterr()
    entries = json.loads(out.read_text())
    assert len(entries) == 2
    for entry, (argv, digest) in zip(entries, calls):
        assert set(entry) == {"command", "args", "runs", "summary", "flags"}
        assert entry["command"] == ["bench_pairs.py", *argv, "--out", str(out)]
        assert entry["args"]["base"] == argv[1] and entry["args"]["out"] == str(out)
        pairs = entry["args"]["pairs"]
        for side in bench_pairs.SIDES:
            assert len(entry["runs"][side]) == pairs
            for run in entry["runs"][side]:
                assert run["digest"] == digest
                assert run["info"] == {"seed": entry["args"]["seed"]}
                assert set(run["metrics"]) == {m["name"] for m in metrics}
        assert entry["flags"] == []
        rows = bench_pairs.summarize(entry["runs"], metrics)
        assert entry["summary"] == json.loads(json.dumps(rows))
    # The last call's record, rebuilt from its runs, is what the file holds.
    assert entries[-1]["runs"] == runs


def test_pairs_below_one_exits_2_before_extracting(monkeypatch, capsys):
    def no_extract(rev, into):
        raise AssertionError("extracted")

    monkeypatch.setattr(bench_pairs, "extract", no_extract)
    for pairs in ("0", "-3"):
        monkeypatch.setattr("sys.argv", ["bench_pairs.py", "--base", "HEAD", "--workload",
                                         "delegate", "--pairs", pairs])
        assert bench_pairs.main() == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --pairs must be at least 1\n"
