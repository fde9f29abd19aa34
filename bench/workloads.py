"""Seeded inputs, operations and output checks for the benchmark workloads.

A workload is a pool of distinct operations drawn from the seed, plus a few
warm-up operations (one of each kind in the mix). A run cycles through the
pool in a closed loop. The first execution of each entry is checked in full;
every later execution must reproduce its output bytes exactly. The digest of
one pass therefore covers every output of the run, whatever its length.

Pools are small enough that every entry repeats many times in a run: the
benchmark reports each entry's fastest time, and a short pass gives every
entry a chance to run while the shared host is quiet.

Input generation uses the standard library only, so the set-up probe can
build its inputs before it starts the clock on `import blinddelegate`.
"""

from __future__ import annotations

import contextlib
import io
import os
import random

WORKLOADS = ("delegate", "certify", "side_channel")

# --------------------------------------------------------------------------
# Input generation (stdlib only)
# --------------------------------------------------------------------------

# Gate classes of equal cost: the seed picks a member, the shape fixes the
# class, so the cost mix of a pool is the same for every seed.
#   C: single-qubit Clifford block (3 rounds)   T: T-type (6 rounds)
#   P: Pauli (no rounds)   Z: CZ cell (6 rounds)   N: CNOT (12 rounds)
_P2_CLASSES = {"C": ("H", "S", "SDG"), "T": ("T", "TDG"), "P": ("X", "Z"),
               "Z": ("CZ",), "N": ("CNOT",)}
_P2_SHAPES_1W = ("CC", "CTP", "CPTC", "TCPCC")
_P2_SHAPES_2W = ("CCZ", "CTN", "CZTPN", "CCTZNP", "TCZCNPC", "CPTNCZCT",
                 "CCTPZNCTC", "CTCPZNTCZC")
# Linear-cluster chains: h is H (one vertex), r any two-vertex gate.
_CHAIN_CLASSES = {"h": ("H",), "r": ("S", "SDG", "T", "TDG", "X", "Z")}
_CHAIN_SHAPES = ("hr", "rh", "rrh", "hrr", "rrrh", "rhrr")
_LOSSES = ("0", "0.3", "0.5")

SIGNAL_POOL = 512           # timed attacked trials per pass, half with masking
SIGNAL_SAMPLE = 4096        # distinct trials behind the mutual-information check
CERTIFY_POOL = 4
STABILIZER_TILE = (1, 2)    # 14 qubits


def _p2_circuit(rnd, shape):
    gates = []
    two_wire = any(c in "ZN" for c in shape)
    for c in shape:
        name = rnd.choice(_P2_CLASSES[c])
        if c in "ZN":
            wires = rnd.sample((0, 1), 2)
        else:
            wires = [rnd.randrange(2) if two_wire else 0]
        gates.append(f"{name} " + " ".join(map(str, wires)))
    rnd.shuffle(gates)
    return "\n".join(gates) + "\n"


def _chain_circuit(rnd, shape):
    gates = [f"{rnd.choice(_CHAIN_CLASSES[c])} 0" for c in shape]
    rnd.shuffle(gates)
    return "\n".join(gates) + "\n"


def delegate_specs(seed):
    """(pool, warm-up) lists of (kind, protocol, circuit text, loss, run seed).

    Every protocol-2 shape runs once lossless and once lossy; the chain
    shapes alternate between protocols 1 and tp.
    """
    rnd = random.Random(seed * 7919 + 1)
    pool = []
    for shapes, kind in ((_P2_SHAPES_1W, "p2-1w"), (_P2_SHAPES_2W, "p2-2w")):
        for i, shape in enumerate(shapes):
            for loss in (_LOSSES[0], _LOSSES[1 + i % 2]):
                pool.append((kind, "2", _p2_circuit(rnd, shape), loss,
                             rnd.randrange(1 << 30)))
    for i, shape in enumerate(_CHAIN_SHAPES):
        protocol, loss = ("1", "0") if i % 2 == 0 else ("tp", _LOSSES[1 + i // 2 % 2])
        pool.append((f"p{protocol}", protocol, _chain_circuit(rnd, shape), loss,
                     rnd.randrange(1 << 30)))
    rnd.shuffle(pool)
    warm = random.Random(seed * 7919 + 2)
    warmup = [
        ("p2-1w", "2", _p2_circuit(warm, "CT"), "0.3", warm.randrange(1 << 30)),
        ("p2-2w", "2", _p2_circuit(warm, "CN"), "0", warm.randrange(1 << 30)),
        ("p1", "1", _chain_circuit(warm, "rh"), "0", warm.randrange(1 << 30)),
        ("ptp", "tp", _chain_circuit(warm, "rh"), "0.3", warm.randrange(1 << 30)),
    ]
    return pool, warmup


def _certify_spec(rnd):
    # Each protocol-2 secret is one Clifford block and one Pauli, in seeded
    # order: 3 rounds and two frame extractions whatever the seed.
    p2 = []
    for _ in range(2):
        secret = [rnd.choice(("H", "S", "SDG"))]
        secret.insert(rnd.randrange(2), rnd.choice(("X", "Z")))
        p2.append(tuple(secret))
    p1 = [tuple(rnd.randrange(8) for _ in range(4)) for _ in range(3)]
    return tuple(p2), tuple(p1)


def certify_specs(seed):
    rnd = random.Random(seed * 7919 + 3)
    pool = [_certify_spec(rnd) for _ in range(CERTIFY_POOL)]
    warmup = [_certify_spec(random.Random(seed * 7919 + 4))]
    return pool, warmup


def side_channel_specs(seed):
    """(k, masked) per trial; each half of every 16 trials sees each digit once.

    The first SIGNAL_POOL trials form the timed pool; the rest only join the
    mutual-information sample, which needs thousands of distinct trials.
    """
    rnd = random.Random(seed * 7919 + 5)
    pool = []
    for _ in range(SIGNAL_SAMPLE // 16):
        off, on = list(range(8)), list(range(8))
        rnd.shuffle(off)
        rnd.shuffle(on)
        for k_off, k_on in zip(off, on):
            pool.extend([(k_off, False), (k_on, True)])
    warm = random.Random(seed * 7919 + 6)
    warmup = [(warm.randrange(8), False), (warm.randrange(8), True)]
    return pool, warmup


def write_inputs(workload, seed, workdir):
    """Write the circuit files a delegate run reads (other workloads have none)."""
    if workload != "delegate":
        return
    pool, warmup = delegate_specs(seed)
    os.makedirs(os.path.join(workdir, "circuits"), exist_ok=True)
    for prefix, specs in (("pool", pool), ("warm", warmup)):
        for j, spec in enumerate(specs):
            with open(_circuit_path(workdir, prefix, j), "w") as fh:
                fh.write(spec[2])


def _circuit_path(workdir, prefix, j):
    return os.path.join(workdir, "circuits", f"{prefix}{j}.txt")


# --------------------------------------------------------------------------
# Operations
# --------------------------------------------------------------------------


class DelegateOp:
    """One `blinddelegate run` through `cli.main`, in process."""

    def __init__(self, bd, spec, circuit, outdir):
        self.cli = bd.cli
        self.kind, self.protocol, _, self.loss, self.run_seed = spec
        self.outdir = outdir
        self.argv = ["run", "--protocol", self.protocol, "--circuit", circuit,
                     "--loss", self.loss, "--seed", str(self.run_seed),
                     "--outdir", outdir]

    def run(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(self.argv)
        return code, out.getvalue()

    def output(self, raw):
        code, stdout = raw
        parts = [f"exit={code}\n".encode(), stdout.encode()]
        for name in ("transcript.txt", "report.txt"):
            with open(os.path.join(self.outdir, name), "rb") as fh:
                parts.append(fh.read())
        return b"\x00".join(parts)

    def check(self, raw, output):
        code, stdout = raw
        _, _, transcript, report = output.decode().split("\x00")
        errors = []
        if code != 0:
            errors.append(f"exit code {code}")
        if stdout != report:
            errors.append("stdout differs from report.txt")
        fields = dict(f.split("=", 1) for f in report.split() if "=" in f)
        if self.protocol == "2" and fields.get("output_match") != "true":
            errors.append("output_match is not true")
        lines = transcript.splitlines()
        header = f"run protocol={self.protocol} seed={self.run_seed} loss={self.loss}"
        if not lines or lines[0] != header:
            errors.append("transcript header does not match the arguments")
        elif not lines[-1].endswith("k=DONE p=-"):
            errors.append("transcript does not end with DONE")
        resends = sum(1 for ln in lines if "k=LOST_RESEND" in ln)
        if fields.get("retransmissions") != str(resends):
            errors.append("retransmissions differ from the transcript")
        return errors


class CertifyOp:
    """Protocol-2 and protocol-1 certificates plus a 14-qubit stabilizer check."""

    def __init__(self, bd, np, spec, key):
        self.bd, self.np = bd, np
        p2, self.p1 = spec
        self.p2 = [[bd.protocols.Gate(name, (0,)) for name in s] for s in p2]
        self.key = key

    def run(self):
        bd = self.bd
        rng = self.np.random.default_rng(self.key)
        report2 = bd.blindness.certify_B1_B2(2, self.p2, n_povms=2, rng=rng)
        report1 = bd.blindness.certify_B1_B2(1, self.p1, n_povms=2, rng=rng)
        graph = bd.graphs.tile(*STABILIZER_TILE)
        resource = bd.graphs.build_graph_state(graph)
        worst = min(bd.graphs.stabilizer_expectation(resource, v)
                    for v in range(graph.num_vertices))
        return report2.render(), report1.render(), worst, graph.num_vertices

    def output(self, raw):
        render2, render1, worst, width = raw
        return f"{render2}{render1}stabilizers width={width} min={worst!r}\n".encode()

    def check(self, raw, output):
        render2, render1, worst, width = raw
        errors = []
        lines = (render2 + render1).splitlines()
        if len(lines) != 7 + 12 or not all(ln.endswith(" pass=true") for ln in lines):
            errors.append("a certificate line failed or is missing")
        for total in self._m_string_totals():
            if abs(total - 1.0) > 1e-12:
                errors.append(f"m-string distribution sums to {total!r}")
        if width != 14 or worst < 1.0 - 1e-12:
            errors.append(f"stabilizer minimum {worst!r} on {width} qubits")
        return errors

    def _m_string_totals(self):
        # The programs certify_protocol2 enumerates: common wires and rounds.
        protocols = self.bd.protocols
        programs = [protocols.compile_circuit(s) for s in self.p2]
        wires = max(p.num_wires for p in programs)
        rounds = max(p.num_rounds for p in programs)
        state = self.bd.qsim.basis_state(wires, 0)
        for secret in self.p2:
            program = protocols.compile_circuit(secret, num_wires=wires, pad_to=rounds)
            yield sum(self.bd.blindness.m_string_distribution(program, state).values())


class SignalOp:
    """One attacked trial: the evil device against a 2-round signal program."""

    RESEND_CAP = 8

    def __init__(self, bd, np, spec, channel_seed, key):
        self.bd, self.np = bd, np
        self.k, self.masked = spec
        self.channel_seed, self.key = channel_seed, key

    def run(self):
        adversaries, protocols = self.bd.adversaries, self.bd.protocols
        program = adversaries.make_signal_program(self.k)
        channel = protocols.ChannelModel(0.0, rng_seed=self.channel_seed)
        rng = self.np.random.default_rng(self.key)
        return adversaries.run_with_evil_device(program, self.masked, channel, rng)

    def sample(self, raw):
        """(secret, resend count of the post-capture round), as c08 samples it."""
        _, transcript, _ = raw
        resends = sum(1 for m in transcript if m.kind == "LOST_RESEND" and m.round == 2)
        return self.k, min(resends, self.RESEND_CAP)

    def output(self, raw):
        guess, transcript, success = raw
        lines = [f"k={self.k} masked={self.masked} guess={guess} success={success}"]
        lines += [f"{m.round} {m.direction} {m.kind} {m.payload}" for m in transcript]
        return ("\n".join(lines) + "\n").encode()

    def check(self, raw, output):
        guess, transcript, success = raw
        errors = []
        if not self.masked and (guess != self.k or not success):
            errors.append(f"unmasked guess {guess} for secret {self.k}")
        kinds = [m.kind for m in transcript]
        sent, arrived = kinds.count("QUBIT_SENT"), kinds.count("ARRIVED")
        if arrived != 2 or kinds.count("X_RESULT") != 2 or kinds[-1:] != ["DONE"]:
            errors.append("transcript does not hold two completed rounds")
        if sent != arrived + kinds.count("LOST_RESEND"):
            errors.append("deliveries do not balance")
        return errors


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------


class Workload:
    """A seeded op pool plus warm-up ops, and the checks of a whole pass."""

    def __init__(self, name, seed, workdir, bd, np, outdir):
        self.name, self.bd = name, bd
        self.extra, self._extra_raws = [], None
        if name == "delegate":
            pool, warmup = delegate_specs(seed)
            self.pool = [DelegateOp(bd, s, _circuit_path(workdir, "pool", j), outdir)
                         for j, s in enumerate(pool)]
            self.warmup = [DelegateOp(bd, s, _circuit_path(workdir, "warm", j), outdir)
                           for j, s in enumerate(warmup)]
        elif name == "certify":
            pool, warmup = certify_specs(seed)
            self.pool = [CertifyOp(bd, np, s, [seed, 11, j]) for j, s in enumerate(pool)]
            self.warmup = [CertifyOp(bd, np, s, [seed, 12, j])
                           for j, s in enumerate(warmup)]
        elif name == "side_channel":
            pool, warmup = side_channel_specs(seed)
            trials = [SignalOp(bd, np, s, seed * SIGNAL_SAMPLE + j, [seed, 13, j])
                      for j, s in enumerate(pool)]
            self.pool, self.extra = trials[:SIGNAL_POOL], trials[SIGNAL_POOL:]
            self.warmup = [SignalOp(bd, np, s, j, [seed, 14, j])
                           for j, s in enumerate(warmup)]
        else:
            raise ValueError(f"unknown workload {name!r}")

    def run_extra(self):
        """Untimed ops the end-of-pass checks need; run once per workload."""
        if self._extra_raws is None:
            self._extra_raws = [op.run() for op in self.extra]
        return self._extra_raws

    def finish(self, first_raws):
        """Checks over one pass: returns (bytes for the digest, errors)."""
        if self.name != "side_channel":
            return b"", []
        errors = []
        pairs = list(zip(self.pool, first_raws)) + list(zip(self.extra, self.run_extra()))
        for op, raw in pairs[len(self.pool):]:
            errors.extend(op.check(raw, op.output(raw)))
        estimate = self.bd.adversaries.estimate_mutual_information
        halves = {masked: [op.sample(raw) for op, raw in pairs if op.masked == masked]
                  for masked in (False, True)}
        mi_off, mi_on = estimate(halves[False]), estimate(halves[True])
        if not 2.9 <= mi_off <= 3.1:
            errors.append(f"mutual information without masking {mi_off!r} not in [2.9, 3.1]")
        if not mi_on < 0.02:
            errors.append(f"mutual information with masking {mi_on!r} not below 0.02")
        return f"mi off={mi_off!r} on={mi_on!r}\n".encode(), errors
