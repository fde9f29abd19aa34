"""Set-up time of one fresh process: `import blinddelegate` plus one warm-up
op of each kind in the workload's mix (which includes any lazy calibration).

Started by run.py, which writes the inputs first; prints one JSON line.

    python3 bench/probe.py --workload delegate --seed 1 --workdir DIR [--calibrate]

With --calibrate, `graphs.calibrate_unit_cell` alone is wrapped and its time
is reported as `calibrate_ms` (0 when the warm-up never calls it).
"""

from __future__ import annotations

import argparse
import json
import os
import time

import common
import workloads
from tracer import Tracer


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--calibrate", action="store_true")
    args = parser.parse_args()
    common.pin_environment()

    start = time.perf_counter()
    bd = common.import_program()
    import numpy as np

    tracer = None
    if args.calibrate:
        tracer = Tracer(bd, only={"graphs.calibrate_unit_cell"})
        tracer.install()
        tracer.recording = True
    workload = workloads.Workload(args.workload, args.seed, args.workdir, bd, np,
                                  os.path.join(args.workdir, "probe"))
    outputs = []
    for op in workload.warmup:
        raw = op.run()
        outputs.append((op, raw, op.output(raw)))
    setup_s = time.perf_counter() - start

    errors = [e for op, raw, out in outputs for e in op.check(raw, out)]
    if errors:
        raise SystemExit("error: warm-up op failed: " + "; ".join(errors))
    calibrate_ms = 0.0
    if tracer is not None:
        tracer.recording = False
        stat = tracer.stats["graphs.calibrate_unit_cell"]
        calibrate_ms = stat.total * 1e3
        tracer.restore()
    print(json.dumps({"setup_s": setup_s, "calibrate_ms": calibrate_ms}))


if __name__ == "__main__":
    main()
