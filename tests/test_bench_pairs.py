"""tools/bench_pairs.py's run order and summary arithmetic, on canned
results: no benchmark runs here."""

import importlib.util
import json
import os
import shutil
import subprocess
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
        return {**result, **change} if os.path.basename(root) == "change" else result

    _no_trees(monkeypatch)
    monkeypatch.setattr(bench_pairs, "bench", fake_bench)
    monkeypatch.setattr("sys.argv", ["bench_pairs.py", "--base", "HEAD", "--workload",
                                     "certify", "--pairs", "2", "--seconds", "1"])
    assert bench_pairs.main() == status
    out = capsys.readouterr().out
    assert ("\nFLAG " in out) == bool(status)
    runs = {"base": [_result(1, 1)], "change": [{**_result(1, 1), **change}]}
    assert bench_pairs.report(runs, METRICS, "header") == status


_TREES = {"base": {"rev": "REV", "commit": "b" * 40},
          "change": {"head": "c" * 40, "dirty": True}}


def _no_trees(monkeypatch):
    """Stub out what main() does with git: nothing is extracted or copied,
    and describe() gives _TREES."""
    monkeypatch.setattr(bench_pairs, "extract", lambda rev, into: None)
    monkeypatch.setattr(bench_pairs, "copy_worktree", lambda into: None)
    monkeypatch.setattr(bench_pairs, "describe", lambda rev: _TREES)


def _canned_main(monkeypatch, argv, digest="d0"):
    """main() with `argv` on canned runs: nothing is extracted or
    benchmarked. Returns (status, the runs it was given)."""
    names = [m["name"] for m in json.loads(
        (Path(bench_pairs.ROOT) / "BENCHMARK.json").read_text())["end_to_end"]]
    given = {"base": [], "change": []}

    def fake_bench(root, args):
        side = os.path.basename(root)
        value = 100.0 + len(given[side]) + (side == "change")
        run = {**_result(value, 1.0, digest=digest), "info": {"seed": args.seed},
               "metrics": {n: {"value": value, "unit": "x"} for n in names}}
        given[side].append(run)
        return run

    _no_trees(monkeypatch)
    monkeypatch.setattr(bench_pairs, "bench", fake_bench)
    monkeypatch.setattr("sys.argv", ["bench_pairs.py", *argv])
    return bench_pairs.main(), given


def test_out_adds_one_comparison_per_call_and_round_trips(monkeypatch, capsys, tmp_path):
    """--out keeps a JSON list: each call adds its command line, arguments,
    the trees each side ran, every run (metrics, digest, info stamp) per
    side and pair, the summary rows and the flags, exactly as record()
    builds them from those runs."""
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
        assert set(entry) == {"command", "args", "trees", "runs", "summary", "flags"}
        assert entry["trees"] == _TREES
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


def test_both_sides_run_from_sibling_copies_under_one_temp_dir(monkeypatch, capsys):
    """The base is extracted and the working tree copied into two sibling
    directories of one temporary directory, and every run of each side goes
    from its own; neither is the checkout. The directory is gone at the end."""
    names = [m["name"] for m in json.loads(
        (Path(bench_pairs.ROOT) / "BENCHMARK.json").read_text())["end_to_end"]]
    made, ran = {}, {"base": set(), "change": set()}

    def fake_bench(root, args):
        assert os.path.isdir(root)
        ran[os.path.basename(root)].add(root)
        return {**_result(1.0, 1.0), "metrics": {n: {"value": 1.0} for n in names}}

    monkeypatch.setattr(bench_pairs, "extract",
                        lambda rev, into: os.makedirs(made.setdefault("base", into)))
    monkeypatch.setattr(bench_pairs, "copy_worktree",
                        lambda into: os.makedirs(made.setdefault("change", into)))
    monkeypatch.setattr(bench_pairs, "describe", lambda rev: _TREES)
    monkeypatch.setattr(bench_pairs, "bench", fake_bench)
    monkeypatch.setattr("sys.argv", ["bench_pairs.py", "--base", "HEAD", "--workload",
                                     "delegate", "--pairs", "3", "--seconds", "1"])
    assert bench_pairs.main() == 0
    capsys.readouterr()
    base, change = made["base"], made["change"]
    tmp = os.path.dirname(base)
    assert os.path.dirname(change) == tmp and base != change
    assert os.path.basename(tmp).startswith("bench_pairs_")
    assert bench_pairs.ROOT not in (base, change, tmp)
    assert ran == {"base": {base}, "change": {change}}
    assert not os.path.exists(tmp)


def _git(root, *args):
    return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                           "-c", "commit.gpgsign=false", *args],
                          cwd=root, capture_output=True, text=True, check=True).stdout


def test_copy_worktree_and_describe_read_the_tree_git_sees(tmp_path):
    """copy_worktree copies tracked and untracked files but not ignored ones
    or a tracked file deleted from disk; describe names the base's commit,
    the working tree's HEAD, and whether `git status` lists anything."""
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    (repo / "src" / "a.py").write_text("a = 1\n")
    (repo / "gone.txt").write_text("x\n")
    (repo / ".gitignore").write_text("*.log\n")
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "one")
    first = _git(repo, "rev-parse", "HEAD").strip()
    assert bench_pairs.describe("HEAD", root=str(repo)) == {
        "base": {"rev": "HEAD", "commit": first}, "change": {"head": first, "dirty": False}}
    (repo / "src" / "a.py").write_text("a = 2\n")
    _git(repo, "commit", "-q", "-am", "two")
    second = _git(repo, "rev-parse", "HEAD").strip()
    (repo / "src" / "new.py").write_text("b = 1\n")
    (repo / "run.log").write_text("ignored\n")
    (repo / "gone.txt").unlink()
    trees = bench_pairs.describe("HEAD~1", root=str(repo))
    assert trees == {"base": {"rev": "HEAD~1", "commit": first},
                     "change": {"head": second, "dirty": True}}
    copy = tmp_path / "change"
    bench_pairs.copy_worktree(str(copy), root=str(repo))
    files = sorted(str(p.relative_to(copy)) for p in copy.rglob("*") if p.is_file())
    assert files == [".gitignore", "src/a.py", "src/new.py"]
    assert (copy / "src" / "a.py").read_text() == "a = 2\n"


def _entry(workload, seed, ops, base=None):
    """A canned --out entry whose working-tree ops_per_s median is `ops` and
    whose base median is `base` (`ops` if None)."""
    base = ops if base is None else base
    row = {"metric": "ops_per_s", "base": [base - 1, base, base + 1],
           "change": [ops - 1, ops, ops + 1]}
    return {"args": {"workload": workload, "seed": seed}, "summary": [row]}


def _bench_file(root, pr, entries):
    (root / f"BENCH_{pr}.json").write_text(json.dumps(entries))


def test_deltas_name_the_newest_entry_of_the_same_workload_and_seed(tmp_path):
    _bench_file(tmp_path, 31, [_entry("delegate", 1, 100.0), _entry("certify", 1, 7.0),
                               _entry("delegate", 1, 120.0), _entry("delegate", 2, 90.0)])
    (tmp_path / "BENCH_notes.json").write_text("not a comparison")
    previous = bench_pairs.newest_entry("delegate", 1, str(tmp_path))
    assert previous == ("BENCH_31.json", _entry("delegate", 1, 120.0))
    rows = [{"metric": "ops_per_s", "base": (119.0, 120.0, 121.0),
             "change": (125.0, 126.0, 127.0)},
            {"metric": "latency_p50_ms", "base": (0.4, 0.5, 0.6), "change": (0.4, 0.5, 0.6)}]
    assert bench_pairs.deltas(rows, previous, "delegate", 1) == [
        "      ops_per_s BENCH_31.json: 120 -> 126  +5.0%  base 120 -> 120  +0.0%",
        " latency_p50_ms BENCH_31.json: not recorded, now 0.5"]


def test_deltas_print_the_base_medians_so_host_drift_shows(tmp_path):
    """A canned entry recorded base 100 and change 110; this run's base and
    change both read 10 % higher. The working-tree delta alone (+10 %) would
    read as a gain; the base medians beside it move by the same +10 %."""
    _bench_file(tmp_path, 34, [_entry("certify", 1, 110.0, base=100.0)])
    previous = bench_pairs.newest_entry("certify", 1, str(tmp_path))
    rows = [{"metric": "ops_per_s", "base": (109.0, 110.0, 111.0),
             "change": (120.0, 121.0, 122.0)}]
    assert bench_pairs.deltas(rows, previous, "certify", 1) == [
        "      ops_per_s BENCH_34.json: 110 -> 121  +10.0%  base 100 -> 110  +10.0%"]


def test_deltas_say_so_when_no_file_holds_the_workload_and_seed(tmp_path):
    _bench_file(tmp_path, 31, [_entry("delegate", 2, 90.0), _entry("certify", 1, 7.0)])
    assert bench_pairs.newest_entry("delegate", 1, str(tmp_path)) is None
    assert bench_pairs.deltas([], None, "delegate", 1) == [
        "no BENCH_*.json entry for workload=delegate seed=1 to compare with"]


def test_deltas_take_the_highest_pr_and_skip_the_out_file(tmp_path):
    """BENCH_31 is newer than BENCH_9 (numbers, not strings), and BENCH_40,
    the file `--out` writes now, is left out; a file without the workload
    does not hide an older one that has it."""
    _bench_file(tmp_path, 9, [_entry("delegate", 1, 50.0)])
    _bench_file(tmp_path, 31, [_entry("delegate", 1, 100.0)])
    _bench_file(tmp_path, 32, [_entry("certify", 1, 7.0)])
    _bench_file(tmp_path, 40, [_entry("delegate", 1, 200.0)])
    skip = str(tmp_path / "BENCH_40.json")
    assert bench_pairs.newest_entry("delegate", 1, str(tmp_path), skip=skip) == (
        "BENCH_31.json", _entry("delegate", 1, 100.0))
    assert bench_pairs.newest_entry("delegate", 1, str(tmp_path))[0] == "BENCH_40.json"


def test_main_prints_the_deltas_after_the_summary(monkeypatch, capsys, tmp_path):
    shutil.copy(Path(bench_pairs.ROOT) / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    _bench_file(tmp_path, 31, [_entry("delegate", 1, 100.0)])
    monkeypatch.setattr(bench_pairs, "ROOT", str(tmp_path))
    for seed, want in ((1, "      ops_per_s BENCH_31.json: 100 -> 101  +1.0%"
                           "  base 100 -> 100  +0.0%"),
                       (2, "no BENCH_*.json entry for workload=delegate seed=2 to compare with")):
        status, _ = _canned_main(monkeypatch, ["--base", "HEAD", "--workload", "delegate",
                                               "--pairs", "1", "--seed", str(seed)])
        assert status == 0
        out = capsys.readouterr().out.splitlines()
        header = out.index("working-tree median against the newest recorded one:")
        assert max(i for i, line in enumerate(out) if " won " in line) < header
        assert want in out[header + 1:]
