"""The benchmark's own output checks, run on its warm-up ops.

bench/workloads.py holds each workload's inputs, ops and the checks a
benchmark run applies to every op's output. Running its warm-up ops through
those checks here makes a program change that breaks the benchmark's output
schema (a report line added or lost, a failed check) fail the tests.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import blinddelegate

_WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


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
