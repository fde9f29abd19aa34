"""The benchmark's own output checks, run on its warm-up ops.

bench/workloads.py holds each workload's inputs, ops and the checks a
benchmark run applies to every op's output. Running its warm-up ops through
those checks here makes a program change that breaks the benchmark's output
schema (a report line added or lost, a failed check) fail the tests.
bench/tracer.py wraps program functions by name; a change that deletes or
renames one of them fails here too, not only under `bench/run.py --trace 1`.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import blinddelegate

_BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", _BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_bench("workloads")
tracer = _load_bench("tracer")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_bench_warmup_ops_pass_their_checks(name, tmp_path):
    workload_dir = str(tmp_path)
    workloads.write_inputs(name, 1, workload_dir)
    workload = workloads.Workload(name, 1, workload_dir, blinddelegate, np,
                                  str(tmp_path / "out"))
    assert workload.warmup
    for op in workload.warmup:
        raw = op.run()
        assert op.check(raw, op.output(raw)) == []


def _resolve(dotted):
    obj = blinddelegate
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("name", [*tracer.RUNNERS, tracer.LEAF_PARENT,
                                  *(".".join(m) for m in tracer.METHODS),
                                  # bench/probe.py times this one alone.
                                  "graphs.calibrate_unit_cell"])
def test_bench_tracer_names_resolve(name):
    # The tracer wraps a method's property getter as it wraps a function.
    target = _resolve(name)
    assert callable(target.fget if isinstance(target, property) else target)
