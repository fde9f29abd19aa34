"""Per-layer spans, recorded from outside the program.

`Tracer.install` replaces the public functions of each layer module (and a
few methods) with timing wrappers by assigning module and class attributes;
`restore` puts the originals back. No source file changes. A wrapper records
only while `recording` is set, so the benchmark's own checks between ops do
not count. Spans nest through a stack: a span's self time is its duration
minus the time its traced children took, bookkeeping included.
"""

from __future__ import annotations

import functools
import inspect
from time import perf_counter

LAYERS = ("qsim", "pauli", "graphs", "protocols", "blindness", "adversaries", "cli")
METHODS = (("pauli", "PauliFrame", "matrix"),
           ("adversaries", "EvilDevice", "claim_no_click"))
RUNNERS = ("protocols.run_protocol2", "protocols.run_protocol1",
           "protocols.run_teleport_variant")
LEAF_PARENT = "blindness.m_string_distribution"
SMALL_QUBITS, LARGE_QUBITS = 6, 12

PER_LAYER = (
    ("qsim.apply_gate.calls_per_op", "count", "lower"),
    ("qsim.apply_gate.us_small", "us", "lower"),
    ("qsim.apply_gate.us_large", "us", "lower"),
    ("qsim.measure_rotated.calls_per_op", "count", "lower"),
    ("qsim.measure_rotated.us", "us", "lower"),
    ("qsim.measure_z.us", "us", "lower"),
    ("qsim.matrices_equal_up_to_phase.calls_per_op", "count", "lower"),
    ("pauli.frame_matrix.calls_per_op", "count", "lower"),
    ("graphs.calibrate_unit_cell.ms", "ms", "lower"),
    ("graphs.build_graph_state.us", "us", "lower"),
    ("graphs.stabilizer_expectation.us", "us", "lower"),
    ("protocols.compile_circuit.us", "us", "lower"),
    ("protocols.run_protocol2.us_per_round", "us", "lower"),
    ("protocols.run_protocol2.us_per_call_fixed", "us", "lower"),
    ("protocols.run_protocol1.us_per_round", "us", "lower"),
    ("protocols.run_teleport_variant.us_per_round", "us", "lower"),
    ("protocols.transmit.calls_per_op", "count", "lower"),
    ("protocols.delivery_accept_ratio", "ratio", "higher"),
    ("blindness.certify_B1_B2.ms", "ms", "lower"),
    ("blindness.m_string_distribution.ms", "ms", "lower"),
    ("blindness.bob_view_protocol1.ms", "ms", "lower"),
    ("blindness.leaf_runs_per_op", "count", "lower"),
    ("blindness.leaf_yield", "ratio", "higher"),
    ("adversaries.run_with_evil_device.us", "us", "lower"),
    ("adversaries.device_consults_per_op", "count", "lower"),
    ("adversaries.estimate_mutual_information.ms", "ms", "lower"),
    ("cli.main.ms_per_op", "ms", "lower"),
) + tuple((f"{layer}.self_ms_per_op", "ms", "lower") for layer in LAYERS) + (
    ("trace.overhead_pct", "%", "lower"),
)


class Stat:
    __slots__ = ("calls", "total", "self_time", "errors")

    def __init__(self):
        self.calls, self.total, self.self_time, self.errors = 0, 0.0, 0.0, 0


class Tracer:
    def __init__(self, bd, only=None):
        self.bd = bd
        self.only = only            # restrict wrapping to these span names
        self.recording = False
        self.stats = {}
        self._stack = []            # [child time, first child start, last child end, name]
        self._saved = []            # (owner, attribute, original)
        self.counts = dict.fromkeys(
            ("small_n", "small_t", "large_n", "large_t", "sent", "accepted",
             "leaf_attempts", "leaf_yields", "fixed_n", "fixed_t"), 0)
        self.runner = {name: [0.0, 0] for name in RUNNERS}  # [seconds, rounds]

    # -- installation -------------------------------------------------------

    def _targets(self):
        for layer in LAYERS:
            module = getattr(self.bd, layer)
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    yield f"{layer}.{attr}", module, attr, obj
        for layer, cls_name, attr in METHODS:
            cls = getattr(getattr(self.bd, layer), cls_name)
            yield f"{layer}.{cls_name}.{attr}", cls, attr, vars(cls)[attr]

    def install(self):
        wrapped = {}
        for name, owner, attr, obj in list(self._targets()):
            if self.only is not None and name not in self.only:
                continue
            if isinstance(obj, property):
                new = property(self._wrap(name, obj.fget))
            else:
                new = self._wrap(name, obj)
            wrapped[id(obj)] = new
            self._saved.append((owner, attr, obj))
            setattr(owner, attr, new)
        # Functions one layer imported by name from another.
        for layer in LAYERS:
            module = getattr(self.bd, layer)
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped and vars(module)[attr] is obj:
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, wrapped[id(obj)])

    def restore(self):
        """Put every original back; returns the attributes that did not return."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        left = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in self._saved
                if vars(o)[a] is not orig]
        self._saved = []
        return left

    def _wrap(self, name, fn):
        stat = self.stats.setdefault(name, Stat())
        hook = self._hooks().get(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            frame = [0.0, None, 0.0, name]
            stack.append(frame)
            result, ok = None, False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                stat.calls += 1
                stat.total += t1 - t0
                stat.self_time += t1 - t0 - frame[0]
                if not ok:
                    stat.errors += 1
                if hook is not None:
                    hook(args, kwargs, result if ok else None, t0, t1, frame)
                if stack:
                    parent = stack[-1]
                    t2 = perf_counter()
                    if parent[1] is None:
                        parent[1] = t0
                    parent[2] = t2
                    parent[0] += t2 - t0

        return wrapper

    # -- per-function counters ----------------------------------------------

    def _hooks(self):
        hooks = {"qsim.apply_gate": self._on_apply_gate}
        for name in RUNNERS:
            hooks[name] = functools.partial(self._on_runner, name)
        return hooks

    def _on_apply_gate(self, args, kwargs, result, t0, t1, frame):
        state = args[0] if args else kwargs.get("state")
        width = getattr(state, "num_qubits", 0)
        if width <= SMALL_QUBITS:
            self.counts["small_n"] += 1
            self.counts["small_t"] += t1 - t0
        elif width >= LARGE_QUBITS:
            self.counts["large_n"] += 1
            self.counts["large_t"] += t1 - t0

    def _on_runner(self, name, args, kwargs, result, t0, t1, frame):
        c = self.counts
        if name == "protocols.run_protocol2" and any(f[3] == LEAF_PARENT for f in self._stack):
            c["leaf_attempts"] += 1
            c["leaf_yields"] += result is not None
        if result is None:
            return
        self.runner[name][0] += t1 - t0
        self.runner[name][1] += getattr(result, "rounds_completed", 0)
        kinds = [m.kind for m in getattr(result, "transcript", ())]
        c["sent"] += kinds.count("QUBIT_SENT")
        c["accepted"] += kinds.count("ARRIVED")
        if name == "protocols.run_protocol2" and frame[1] is not None:
            # Time before the first and after the last traced child call.
            c["fixed_n"] += 1
            c["fixed_t"] += (frame[1] - t0) + (t1 - frame[2])

    # -- metrics --------------------------------------------------------------

    def _mean(self, name, scale):
        stat = self.stats.get(name)
        return stat.total / stat.calls * scale if stat and stat.calls else 0.0

    def _calls(self, name):
        stat = self.stats.get(name)
        return stat.calls if stat else 0

    def metrics(self, ops, overhead_pct, calibrate_ms):
        c = self.counts

        def ratio(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        out = {
            "qsim.apply_gate.calls_per_op": ratio(self._calls("qsim.apply_gate"), ops),
            "qsim.apply_gate.us_small": ratio(c["small_t"], c["small_n"], 1e6),
            "qsim.apply_gate.us_large": ratio(c["large_t"], c["large_n"], 1e6),
            "qsim.measure_rotated.calls_per_op":
                ratio(self._calls("qsim.measure_rotated"), ops),
            "qsim.measure_rotated.us": self._mean("qsim.measure_rotated", 1e6),
            "qsim.measure_z.us": self._mean("qsim.measure_z", 1e6),
            "qsim.matrices_equal_up_to_phase.calls_per_op":
                ratio(self._calls("qsim.matrices_equal_up_to_phase"), ops),
            "pauli.frame_matrix.calls_per_op":
                ratio(self._calls("pauli.PauliFrame.matrix"), ops),
            "graphs.calibrate_unit_cell.ms": calibrate_ms,
            "graphs.build_graph_state.us": self._mean("graphs.build_graph_state", 1e6),
            "graphs.stabilizer_expectation.us":
                self._mean("graphs.stabilizer_expectation", 1e6),
            "protocols.compile_circuit.us": self._mean("protocols.compile_circuit", 1e6),
            "protocols.run_protocol2.us_per_call_fixed":
                ratio(c["fixed_t"], c["fixed_n"], 1e6),
            "protocols.transmit.calls_per_op": ratio(self._calls("protocols.transmit"), ops),
            "protocols.delivery_accept_ratio": ratio(c["accepted"], c["sent"]),
            "blindness.certify_B1_B2.ms": self._mean("blindness.certify_B1_B2", 1e3),
            "blindness.m_string_distribution.ms": self._mean(LEAF_PARENT, 1e3),
            "blindness.bob_view_protocol1.ms":
                self._mean("blindness.bob_view_protocol1", 1e3),
            "blindness.leaf_runs_per_op": ratio(c["leaf_attempts"], ops),
            "blindness.leaf_yield": ratio(c["leaf_yields"], c["leaf_attempts"]),
            "adversaries.run_with_evil_device.us":
                self._mean("adversaries.run_with_evil_device", 1e6),
            "adversaries.device_consults_per_op":
                ratio(self._calls("adversaries.EvilDevice.claim_no_click"), ops),
            "adversaries.estimate_mutual_information.ms":
                self._mean("adversaries.estimate_mutual_information", 1e3),
            "cli.main.ms_per_op":
                ratio(getattr(self.stats.get("cli.main"), "total", 0.0), ops, 1e3),
            "trace.overhead_pct": overhead_pct,
        }
        for name, (seconds, rounds) in self.runner.items():
            out[f"{name}.us_per_round"] = ratio(seconds, rounds, 1e6)
        for layer in LAYERS:
            spent = sum(s.self_time for n, s in self.stats.items()
                        if n.startswith(layer + "."))
            out[f"{layer}.self_ms_per_op"] = ratio(spent, ops, 1e3)
        return out
