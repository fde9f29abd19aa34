"""blinddelegate benchmark: one workload, one closed-loop client, one thread.

    python3 bench/run.py --workload {delegate,certify,side_channel} \\
        --seed N --seconds S --trace {0,1}

Run from anywhere; the program is imported from this checkout's `src/`.
The client warms up, then runs the workload's op pool in whole passes until
`--seconds` have gone by, sending each op only after the previous one has
returned. Only the op call is timed; its output is checked outside the
timed region. Set-up time is the median of fresh-process probes
(`probe.py`) spread between the passes.

`--trace 0` reports the end-to-end metrics. `--trace 1` first runs half the
time untraced, then replays exactly the same ops with every layer wrapped
(`tracer.py`); the two halves must give the same digest and op count, and
every wrapper must be gone afterwards.

Before the result, stdout carries an `info` line (machine, versions, seed)
and a `digest` line: sha256 over every op output of the pass, so two
commits can be compared for byte-identical outputs. The last line is the
JSON result.
"""

from __future__ import annotations

import common

common.pin_environment()

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import workloads
from tracer import PER_LAYER, Tracer

SETUP_PROBES = 5
CALIBRATE_PROBES = 3
PROBE_TIMEOUT_S = 60
PHASE_DEADLINE_S = 140      # from process start; keeps a run under 180 s
END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("latency_p50_ms", "ms"),
              ("latency_p90_ms", "ms"), ("peak_rss_mb", "MB"))

STARTED = time.perf_counter()


def probe(workload, seed, workdir, calibrate=False):
    cmd = [sys.executable, os.path.join(common.ROOT, "bench", "probe.py"),
           "--workload", workload, "--seed", str(seed), "--workdir", workdir]
    if calibrate:
        cmd.append("--calibrate")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"error: set-up probe exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


class Phase:
    """One closed-loop pass sequence over the pool, with checked outputs."""

    def __init__(self, workload, tracer=None):
        self.workload, self.tracer = workload, tracer
        self.ops, self.failed, self.errors = 0, 0, []
        self.first = [None] * len(workload.pool)     # checked output bytes
        self.first_raw = [None] * len(workload.pool)
        self.best = [float("inf")] * len(workload.pool)  # fastest time per entry
        self.digest = None

    def _timed(self, fn, *args):
        if self.tracer is not None:
            self.tracer.recording = True
        try:
            t0 = time.perf_counter()
            result = fn(*args)
            return result, time.perf_counter() - t0
        finally:
            if self.tracer is not None:
                self.tracer.recording = False

    def _fail(self, j, message):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"op {j}: {message}")

    def run(self, seconds=None, count=None, between=None):
        """Run `count` ops, or whole passes until `seconds` of looping.

        `between(elapsed)` is called after each pass; its own time does not
        count towards `seconds`.
        """
        pool = self.workload.pool
        start = time.perf_counter()
        while True:
            j = self.ops % len(pool)
            op = pool[j]
            self.ops += 1
            try:
                raw, elapsed = self._timed(op.run)
            except Exception:  # an op that raises counts as failed; the run goes on
                self._fail(j, traceback.format_exc(limit=3).strip().splitlines()[-1])
            else:
                self.best[j] = min(self.best[j], elapsed)
                self._record(j, op, raw)
            now = time.perf_counter()
            if count is not None and self.ops >= count:
                break
            if count is None and j == len(pool) - 1:
                if now - start >= seconds:
                    break
                if between is not None:
                    between(now - start)
                    start += time.perf_counter() - now
            if now - STARTED > PHASE_DEADLINE_S:
                break
        self._finish()
        return self

    def _record(self, j, op, raw):
        output = op.output(raw)
        if self.first[j] is None:
            problems = op.check(raw, output)
            if problems:
                self._fail(j, "; ".join(problems))
                return
            self.first[j], self.first_raw[j] = output, raw
        elif output != self.first[j]:
            self._fail(j, "output differs from the entry's first execution")

    def _finish(self):
        if any(out is None for out in self.first):
            self.errors.append("no checked output for some pool entries")
            return
        self.workload.run_extra()
        extra, problems = self._timed(self.workload.finish, self.first_raw)[0]
        self.errors.extend(problems)
        self.digest = hashlib.sha256(b"".join(self.first) + extra).hexdigest()

    @property
    def correct(self):
        return self.failed == 0 and not self.errors and self.digest is not None


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def stamp(args):
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(common.ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=common.ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    src = hashlib.sha256()
    pkg = os.path.join(common.SRC, "blinddelegate")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    import numpy

    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(), "cpu": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_commit": commit, "src_sha256": src.hexdigest()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    common.check_sources()

    workdir = os.path.join(common.ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    try:
        os.makedirs(workdir)
        workloads.write_inputs(args.workload, args.seed, workdir)
        result, digest = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass   # other runs still use it
    print("info " + json.dumps(stamp(args)))
    print(f"digest {digest}")
    print(json.dumps(result))


def measure(args, workdir):
    bd = common.import_program()
    import numpy as np

    workload = workloads.Workload(args.workload, args.seed, workdir, bd, np,
                                  os.path.join(workdir, "out"))
    for op in workload.warmup:
        raw = op.run()
        problems = op.check(raw, op.output(raw))
        if problems:
            raise SystemExit("error: warm-up op failed: " + "; ".join(problems))

    if args.trace == 0:
        setups = []

        def take_probe(elapsed):
            # Spread over the run, so the median does not hang on one busy
            # moment of a shared host.
            due = len(setups) * args.seconds / SETUP_PROBES
            if len(setups) < SETUP_PROBES and elapsed >= due:
                setups.append(probe(args.workload, args.seed, workdir)["setup_s"])

        phase = Phase(workload).run(seconds=args.seconds, between=take_probe)
        while len(setups) < SETUP_PROBES:
            setups.append(probe(args.workload, args.seed, workdir)["setup_s"])
        report(phase)
        best = [t for t in phase.best if t != float("inf")]
        if not best:
            raise SystemExit("error: no op succeeded")
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(best) / sum(best),
            "latency_p50_ms": quantile(best, 50) * 1e3,
            "latency_p90_ms": quantile(best, 90) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
        return result(phase.correct, phase.ops, phase.failed, metrics, units), phase.digest

    plain = Phase(workload).run(seconds=args.seconds / 2)
    tracer = Tracer(bd)
    tracer.install()
    try:
        traced = Phase(workload, tracer).run(count=plain.ops)
    finally:
        left = tracer.restore()
    report(plain)
    report(traced)
    transparent = not left and traced.digest == plain.digest and traced.ops == plain.ops
    if not transparent:
        sys.stderr.write(f"error: tracing changed the run (wrappers left: {left})\n")
    both = [(a, b) for a, b in zip(plain.best, traced.best) if max(a, b) < float("inf")]
    overhead = 0.0
    if both:
        overhead = (sum(b for _, b in both) / sum(a for a, _ in both) - 1.0) * 100.0
    calibrate_ms = statistics.median(
        probe(args.workload, args.seed, workdir, calibrate=True)["calibrate_ms"]
        for _ in range(CALIBRATE_PROBES))
    metrics = tracer.metrics(traced.ops, overhead, calibrate_ms)
    units = {name: unit for name, unit, _ in PER_LAYER}
    correct = plain.correct and traced.correct and transparent
    attempted, failed = plain.ops + traced.ops, plain.failed + traced.failed
    return result(correct, attempted, failed, metrics, units), plain.digest


def report(phase):
    for line in phase.errors:
        sys.stderr.write(f"check failed: {line}\n")


def result(correct, attempted, failed, metrics, units):
    return {"correct": bool(correct), "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units}}


if __name__ == "__main__":
    main()
