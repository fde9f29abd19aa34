"""Paired benchmark runs: a base revision against the working tree.

    python3 tools/bench_pairs.py --base REV --workload W --pairs N \\
        --seconds S --seed K [--out BENCH_<PR>.json]

Extracts REV with `git archive` into a temporary directory (nothing is
fetched) and runs `bench/run.py --trace 0` from there and from the working
tree, once each per pair, alternating which side goes first: the base in
even pairs, the working tree in odd ones. Both sides run the same
`bench/run.py` arguments, each with its own checkout's benchmark code.

Prints one line per run, then, for each end-to-end metric that
BENCHMARK.json lists, both sides' median and quartiles, the change of the
median, and in how many pairs the working tree did better (ties count for
neither side). A digest that differs between any two runs, or a run that is
not correct or has failed operations, is flagged, and then the exit status
is 1. The temporary directory is deleted at the end.

`--out PATH` also adds the whole comparison to a JSON list in PATH,
creating it if missing, so that one file (such as BENCH_<PR>.json) can
hold several workloads and seeds. See `record` for what one entry holds.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("base", "change")


def run_order(pairs: int) -> list:
    """(pair, side) in the order the runs go: base first in even pairs."""
    return [(i, side) for i in range(pairs)
            for side in (SIDES if i % 2 == 0 else SIDES[::-1])]


def _line(lines: list, key: str) -> str:
    return next(ln.split(None, 1)[1] for ln in lines if ln.startswith(key + " "))


def parse_run(stdout: str) -> dict:
    """The digest, the `info` stamp and the result JSON of one `bench/run.py`
    output."""
    lines = stdout.strip().splitlines()
    return {"digest": _line(lines, "digest"), "info": json.loads(_line(lines, "info")),
            **json.loads(lines[-1])}


def quartiles(values) -> tuple:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs: dict, metrics: list) -> list:
    """One row per metric from runs[side][pair] results: both sides'
    quartiles, the median's relative change, and the change's wins."""
    rows = []
    for spec in metrics:
        name, higher = spec["name"], spec["better"] == "higher"
        values = {side: [run["metrics"][name]["value"] for run in runs[side]]
                  for side in SIDES}
        wins = sum((c > b) if higher else (c < b)
                   for b, c in zip(values["base"], values["change"]))
        base, change = quartiles(values["base"]), quartiles(values["change"])
        rows.append({"metric": name, "base": base, "change": change,
                     "relative": change[1] / base[1] - 1.0 if base[1] else float("nan"),
                     "wins": wins, "pairs": len(values["base"])})
    return rows


def flags(runs: dict) -> list:
    """A message per run that is not correct, and one if the digests differ."""
    out = [f"{side} pair {i}: correct={run['correct']} failed={run['failed']}"
           for side in SIDES for i, run in enumerate(runs[side])
           if not run["correct"] or run["failed"]]
    digests = {run["digest"] for side in SIDES for run in runs[side]}
    if len(digests) > 1:
        out.append("digest mismatch: " + ", ".join(sorted(digests)))
    return out


def record(args, runs: dict, metrics: list) -> dict:
    """One comparison as `--out` stores it: the command line and its parsed
    arguments, runs[side][pair] as parse_run gives them (metrics, digest,
    info stamp, correct, failed), the summary rows and the flags."""
    return {"command": list(sys.argv), "args": vars(args), "runs": runs,
            "summary": summarize(runs, metrics), "flags": flags(runs)}


def append_record(path: str, entry: dict):
    """Add `entry` to the JSON list in `path`, which is created if missing."""
    entries = []
    if os.path.exists(path):
        with open(path) as fh:
            entries = json.load(fh)
    with open(path, "w") as fh:
        json.dump([*entries, entry], fh, indent=1)
        fh.write("\n")


def extract(rev: str, into: str):
    """The tree of `rev` from the local repository, written under `into`."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")


def bench(root: str, args) -> dict:
    cmd = [sys.executable, os.path.join(root, "bench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"error: {cmd[1]} exited with {done.returncode}")
    return parse_run(done.stdout)


def report(runs: dict, metrics: list, header: str) -> int:
    """Print `header`, a summary row per metric and a FLAG line per flag;
    returns the exit status: 1 if anything was flagged, else 0."""
    print(header)
    for row in summarize(runs, metrics):
        (b1, b2, b3), (c1, c2, c3) = row["base"], row["change"]
        print(f"{row['metric']:>15} base {b2:.6g} [{b1:.6g}, {b3:.6g}]  "
              f"change {c2:.6g} [{c1:.6g}, {c3:.6g}]  {row['relative']:+.1%}  "
              f"won {row['wins']}/{row['pairs']}")
    messages = flags(runs)
    for message in messages:
        print("FLAG " + message)
    return 1 if messages else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", help="JSON file to add this comparison to")
    args = parser.parse_args()
    if args.pairs < 1:
        print("error: --pairs must be at least 1", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    tmp = tempfile.mkdtemp(prefix="bench_pairs_")
    try:
        extract(args.base, tmp)
        roots = {"base": tmp, "change": ROOT}
        runs = {side: [None] * args.pairs for side in SIDES}
        for i, side in run_order(args.pairs):
            run = runs[side][i] = bench(roots[side], args)
            values = " ".join(f"{name}={spec['value']:.6g}"
                              for name, spec in run["metrics"].items())
            print(f"pair {i} {side}: digest {run['digest'][:8]} {values}", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if args.out:
        append_record(args.out, record(args, runs, metrics))
    return report(runs, metrics,
                  f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
                  f"base={args.base}: median [q1, q3] per side, change of the median, "
                  "pairs the working tree won")


if __name__ == "__main__":
    sys.exit(main())
