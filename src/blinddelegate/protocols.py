"""Two-party delegation state machines and the circuit-to-rounds compiler.

The server mints one fresh entangled pair per round; the client measures its
half in a secretly rotated basis and the server folds the other half into the
register, reporting one X-basis bit back. Byproducts stay classical: each wire
carries an (x, z) Pauli frame, the client's command angle cancels the frame's
z bit, and three-round groups are closed by matching the accumulated word
against the group's target gate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import graphs, qsim
from .errors import FormatError, RetryLimitError
from .pauli import FRAME_I, PauliFrame, match_frames
from .qsim import Angle, StateVector

RETRY_CAP = 1000

A2B = "A2B"
B2A = "B2A"
ARRIVED = "ARRIVED"
LOST = "LOST"

_KIND_DIRECTIONS = {
    "QUBIT_SENT": B2A,
    "ARRIVED": A2B,
    "LOST_RESEND": A2B,
    "X_RESULT": B2A,
    "DONE": A2B,
}


@dataclass(frozen=True)
class Message:
    round: int
    direction: str
    kind: str
    payload: int = None

    def __post_init__(self):
        if self.kind not in _KIND_DIRECTIONS:
            raise ValueError(f"unknown message kind {self.kind!r}")
        if self.direction != _KIND_DIRECTIONS[self.kind]:
            raise ValueError(f"{self.kind} cannot flow {self.direction}")
        if self.kind == "X_RESULT":
            if self.payload not in (0, 1):
                raise ValueError("X_RESULT carries exactly one bit")
        elif self.payload is not None:
            raise ValueError(f"{self.kind} carries no payload")


@dataclass(frozen=True)
class ChannelModel:
    loss_prob: float
    rng_seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.loss_prob <= 1.0:
            raise ValueError("loss probability must lie in [0, 1]")


def transmit(channel: ChannelModel, rng) -> str:
    """One Bernoulli transmission attempt."""
    return LOST if rng.random() < channel.loss_prob else ARRIVED


# --------------------------------------------------------------------------
# Compiled programs
# --------------------------------------------------------------------------


@dataclass
class RoundPlan:
    wire: int
    base_angle: Angle
    round_index: int          # 1-based position in the program
    group_id: int
    round_in_group: int       # 0..2 within this wire's part of the group
    adapt3: tuple = None      # round-3 angle keyed on this wire's group m1
    m1_round_index: int = None  # absolute round whose m drives adapt3
    label: str = ""

    def want_angle(self, m_bits) -> Angle:
        """The logical angle for this round (before frame-cancelling sign)."""
        if self.adapt3 is not None and self.round_in_group == 2:
            m1 = m_bits[self.m1_round_index - 1]
            return Angle(self.adapt3[m1])
        return self.base_angle

    def adapt_rule(self, m_bits, frame: PauliFrame) -> Angle:
        """Command angle: the wanted angle, sign-flipped to cancel frame.z."""
        want = self.want_angle(m_bits)
        return -want if frame.z else want

    @staticmethod
    def frame_update(frame: PauliFrame, a: int, m: int) -> PauliFrame:
        # Round byproduct: Z^a lands on the fresh qubit, X^m H shuffles the old
        # frame; net effect (x, z) -> (m + z, a + x).
        return PauliFrame((m + frame.z) % 2, (a + frame.x) % 2)


@dataclass(frozen=True)
class Group:
    group_id: int
    wires: tuple              # 1 or 2 wires; wires[0] is the cell's low slot
    target: np.ndarray        # 2x2 or 4x4 reference, or None for raw rounds
    label: str = ""


@dataclass
class AngleProgram:
    num_wires: int
    rounds: list = field(default_factory=list)
    groups: list = field(default_factory=list)
    events: list = field(default_factory=list)  # ("round", plan) | ("bridge", wires, gid) | ("extract", gid)

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)


# Frozen three-round blocks: base angle indices, round-3 adaptation on the
# block's first reported bit, and the realized gate. Derived by exhaustive
# enumeration of outcome branches against reference unitaries (see tests).
BLOCK_TABLE = {
    "H": ((0, 0, 0), None, qsim.H.entries),
    "S": ((2, 2, 0), None, qsim.S.entries),
    "SDG": ((2, 2, 0), None, qsim.SDG.entries),
    "SH": ((2, 0, 0), None, qsim.S.entries @ qsim.H.entries),
    "I": ((2, 2, 2), None, np.eye(2, dtype=complex)),
    "TH": ((7, 0, 0), (0, 2), qsim.T.entries @ qsim.H.entries),
    "TDGH": ((1, 0, 0), (0, 2), qsim.TDG.entries @ qsim.H.entries),
}

GATE_ARITY = {
    "H": 1, "S": 1, "SDG": 1, "T": 1, "TDG": 1, "X": 1, "Z": 1,
    "CZ": 2, "CNOT": 2,
}


@dataclass(frozen=True)
class Gate:
    name: str
    wires: tuple

    def __post_init__(self):
        if self.name not in GATE_ARITY:
            raise FormatError(f"unsupported gate {self.name!r}")
        if len(self.wires) != GATE_ARITY[self.name]:
            raise FormatError(f"{self.name} takes {GATE_ARITY[self.name]} wire(s)")
        if len(set(self.wires)) != len(self.wires):
            raise FormatError(f"{self.name} wires must be distinct")
        if any(w < 0 for w in self.wires):
            raise FormatError("wire indices must be nonnegative")


def parse_circuit(text: str):
    """One gate per line: `<NAME> <wire> [<wire2>]`; `#` starts a comment."""
    gates = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        name = fields[0].upper()
        try:
            wires = tuple(int(w) for w in fields[1:])
        except ValueError as exc:
            raise FormatError(f"line {lineno}: bad wire index") from exc
        try:
            gates.append(Gate(name, wires))
        except FormatError as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
    return gates


def circuit_unitary(gates, num_wires: int) -> np.ndarray:
    """Dense reference unitary of a parsed circuit."""
    dim = 2**num_wires
    u = np.eye(dim, dtype=complex)
    single = {"H": qsim.H, "S": qsim.S, "SDG": qsim.SDG, "T": qsim.T,
              "TDG": qsim.TDG, "X": qsim.X, "Z": qsim.Z}
    for gate in gates:
        g = single[gate.name] if gate.name in single else (qsim.CZ if gate.name == "CZ" else qsim.CNOT)
        u = qsim.expand_gate(g, list(gate.wires), num_wires) @ u
    return u


class _ProgramBuilder:
    def __init__(self, num_wires):
        self.program = AngleProgram(num_wires=num_wires)
        self._next_gid = 0

    def _new_group(self, wires, target, label):
        gid = self._next_gid
        self._next_gid += 1
        self.program.groups.append(Group(gid, tuple(wires), target, label))
        return gid

    def _add_round(self, wire, k, gid, rig, adapt3, m1_idx, label):
        plan = RoundPlan(
            wire=wire,
            base_angle=Angle(k),
            round_index=len(self.program.rounds) + 1,
            group_id=gid,
            round_in_group=rig,
            adapt3=adapt3,
            m1_round_index=m1_idx,
            label=label,
        )
        self.program.rounds.append(plan)
        self.program.events.append(("round", plan))
        return plan

    def block(self, wire, kind):
        base, adapt3, target = BLOCK_TABLE[kind]
        gid = self._new_group((wire,), target, kind)
        first_idx = len(self.program.rounds) + 1
        for r in range(graphs.ROUNDS_PER_CELL):
            self._add_round(wire, base[r], gid, r, adapt3, first_idx, kind)
        self.program.events.append(("extract", gid))

    def pauli(self, wire, which):
        target = qsim.X.entries if which == "X" else qsim.Z.entries
        gid = self._new_group((wire,), target, which)
        self.program.events.append(("extract", gid))

    def cell(self, entry_name, low_wire, high_wire):
        entry = graphs.calibrate_unit_cell().entries[entry_name]
        gid = self._new_group((low_wire, high_wire), entry.target, entry_name)
        i, j = entry.bridge
        specs = ((low_wire, entry.wire0), (high_wire, entry.wire1))
        firsts = {}
        counts = {low_wire: 0, high_wire: 0}

        def emit(wire, sched, upto):
            while counts[wire] < upto:
                r = counts[wire]
                if r == 0:
                    firsts[wire] = len(self.program.rounds) + 1
                self._add_round(
                    wire, sched.base[r], gid, r, sched.adapt3, firsts[wire],
                    entry_name,
                )
                counts[wire] += 1

        emit(low_wire, entry.wire0, i)
        emit(high_wire, entry.wire1, j)
        self.program.events.append(("bridge", (low_wire, high_wire), gid))
        emit(low_wire, entry.wire0, graphs.ROUNDS_PER_CELL)
        emit(high_wire, entry.wire1, graphs.ROUNDS_PER_CELL)
        self.program.events.append(("extract", gid))


def compile_circuit(gates, num_wires: int = None, pad_to: int = None) -> AngleProgram:
    """Compile a gate list into a round-by-round adaptive angle program."""
    if num_wires is None:
        num_wires = max((w for g in gates for w in g.wires), default=0) + 1
    builder = _ProgramBuilder(num_wires)
    for gate in gates:
        if gate.name in ("H", "S", "SDG"):
            builder.block(gate.wires[0], gate.name)
        elif gate.name == "T":
            builder.block(gate.wires[0], "H")
            builder.block(gate.wires[0], "TH")
        elif gate.name == "TDG":
            builder.block(gate.wires[0], "H")
            builder.block(gate.wires[0], "TDGH")
        elif gate.name in ("X", "Z"):
            builder.pauli(gate.wires[0], gate.name)
        elif gate.name == "CZ":
            builder.cell("CZ", gate.wires[0], gate.wires[1])
        elif gate.name == "CNOT":
            # CZ * (CZ * CNOT) = CNOT; the bridged cell goes first.
            builder.cell("CZCNOT", gate.wires[0], gate.wires[1])
            builder.cell("CZ", gate.wires[0], gate.wires[1])
    program = builder.program
    if pad_to is not None:
        if pad_to < program.num_rounds or (pad_to - program.num_rounds) % 3:
            raise ValueError(
                f"cannot pad {program.num_rounds} rounds to {pad_to}"
            )
        while program.num_rounds < pad_to:
            builder.block(0, "I")
    return program


def make_raw_program(angle_indices, wire: int = 0) -> AngleProgram:
    """Rounds with fixed command angles and no gate targets (diagnostics)."""
    builder = _ProgramBuilder(wire + 1)
    gid = builder._new_group((wire,), None, "raw")
    for k in angle_indices:
        builder._add_round(wire, k, gid, 0, None, None, "raw")
    return builder.program


# --------------------------------------------------------------------------
# Runtime
# --------------------------------------------------------------------------


@dataclass
class RunResult:
    logical_output_state: StateVector = None
    outcome_bits: list = None
    transcript: list = field(default_factory=list)
    final_frames: list = field(default_factory=list)
    retransmission_count: int = 0
    branch_probability: float = 1.0
    rounds_completed: int = 0


class _OutcomeSource:
    """Uniform randomness or a forced bit list (for branch enumeration)."""

    def __init__(self, rng=None, forced=None):
        self.rng = rng
        self.queue = list(forced) if forced is not None else None

    def random(self) -> float:
        if self.queue is not None:
            # Sentinels outside [0, 1) pin the comparison against p0 for any
            # p0 in [0, 1]; impossible branches then raise as degenerate.
            bit = self.queue.pop(0)
            return -1.0 if bit == 0 else 1.0
        return float(self.rng.random())


class _Register:
    """State vector plus label bookkeeping (measurement shifts indices)."""

    def __init__(self, state: StateVector, labels):
        self.state = state
        self.labels = list(labels)

    def index(self, label) -> int:
        return self.labels.index(label)

    def append(self, other: StateVector, labels):
        self.state = self.state.tensor(other)
        self.labels.extend(labels)

    def apply(self, gate, labels):
        self.state = qsim.apply_gate(self.state, gate, [self.index(l) for l in labels])

    def measure(self, fn, label, *args):
        idx = self.index(label)
        outcome, post, prob = fn(self.state, idx, *args)
        self.state = post
        if len(self.labels) > 1:
            self.labels.pop(idx)
        return outcome, prob

    def branches(self, measure, label, theta):
        """(outcome, prob, register) for each branch `measure` follows when
        `label` is measured at `theta`; each register is new and lacks `label`."""
        idx = self.index(label)
        rest = self.labels[:idx] + self.labels[idx + 1:]
        return [(outcome, prob, _Register(post, rest))
                for outcome, post, prob in measure(self.state, idx, theta)]

    def relabel(self, old, new):
        self.labels[self.index(old)] = new

    def extract(self, ordered_labels) -> StateVector:
        perm = [self.index(l) for l in ordered_labels]
        psi = self.state.amplitudes.reshape([2] * self.state.num_qubits, order="F")
        return StateVector(
            np.transpose(psi, axes=perm).reshape(-1, order="F"), check=False
        )


def _channel_streams(channel: ChannelModel, *, needed: bool = True):
    if not needed and channel.loss_prob == 0.0:
        return None, None
    loss = np.random.default_rng([channel.rng_seed, 0])
    mask = np.random.default_rng([channel.rng_seed, 1])
    return loss, mask


def _deliver(channel, rng_loss, rng_mask, transcript, round_index, *,
             loss_masking=False, device=None):
    """Run the send/ack loop until the client accepts a particle."""
    if rng_loss is None:
        # Lossless, honest, unmasked: the loop degenerates to one delivery.
        transcript.append(Message(round_index, B2A, "QUBIT_SENT"))
        transcript.append(Message(round_index, A2B, "ARRIVED"))
        return 0
    resends = 0
    for _ in range(RETRY_CAP):
        transcript.append(Message(round_index, B2A, "QUBIT_SENT"))
        arrived = transmit(channel, rng_loss) == ARRIVED
        if loss_masking:
            # The client commits to a fresh coin before consulting her device,
            # so a lying device cannot influence the loss report.
            accepted = arrived and bool(rng_mask.random() < 0.5)
        else:
            faked = bool(arrived and device is not None and device.claim_no_click())
            accepted = arrived and not faked
        if accepted:
            transcript.append(Message(round_index, A2B, "ARRIVED"))
            return resends
        transcript.append(Message(round_index, A2B, "LOST_RESEND"))
        resends += 1
    raise RetryLimitError(
        f"round {round_index}: no accepted delivery in {RETRY_CAP} attempts"
    )


def _extract_group_frames(acc, group):
    """Pauli factors turning the accumulated word into the group target."""
    frames = match_frames(acc, group.target)
    if frames is None:
        raise RuntimeError(f"group {group.label!r}: accumulated word does not match target")
    return dict(zip(group.wires, frames))


# The per-round gain R_k H (graphs.ROUND_GAINS, indexed by signed k) embedded
# for each (group width, slot): a one-wire group, or the low or high wire of a cell.
_SLOT_GAINS = {
    (1, 0): graphs.ROUND_GAINS,
    (2, 0): [np.kron(np.eye(2), g) for g in graphs.ROUND_GAINS],
    (2, 1): [np.kron(g, np.eye(2)) for g in graphs.ROUND_GAINS],
}


def _drawing(source):
    """Measure callback of a run: one branch, drawn with `source`."""
    def draw(state, qubit, theta):
        return [qsim.measure_rotated(state, qubit, theta, source.random())]
    return draw


def _both_branches(state, qubit, theta):
    """Measure callback of the exact walk: every possible branch, 0 first."""
    return qsim.measurement_branches(state, qubit, qsim.ROTATED_BRAS[theta.k])


def _round_branches(reg, round_index, wire, command, measure, pair):
    """The quantum part of one round, as (a, m, pa, pm, register) per branch.

    The fresh pair's halves join `reg`; the client measures hers at `command`
    (outcome a), the server entangles his with the wire by CZ, measures the
    wire in the X basis (reported bit m) and keeps his half as the new wire.
    `measure(state, qubit, theta)` returns the branches to follow as
    (outcome, post_state, prob), outcome 0 first.
    """
    server, client = ("half", round_index), ("sent", round_index)
    wire_label = ("wire", wire)
    reg.append(pair, [server, client])
    branches = []
    for a, pa, after_a in reg.branches(measure, client, command):
        after_a.apply(qsim.CZ, [server, wire_label])
        for m, pm, after_m in after_a.branches(measure, wire_label, qsim.ALL_ANGLES[0]):
            after_m.relabel(server, wire_label)
            branches.append((a, m, pa, pm, after_m))
    return branches


@dataclass
class _Node:
    """A point of a protocol-2 run: the server's register and the client's
    record (wire frames, words of the groups not yet extracted, reported bits,
    branch probability). A node is owned by one branch and consumed by _step."""

    reg: _Register
    frames: list
    acc: dict
    m_bits: tuple = ()
    prob: float = 1.0
    command: Angle = None  # the last round's command angle


def _start(program: AngleProgram, input_state: StateVector) -> _Node:
    if input_state.num_qubits != program.num_wires:
        raise ValueError("input state does not match the program's wire count")
    reg = _Register(input_state.copy(), [("wire", w) for w in range(program.num_wires)])
    return _Node(reg, [FRAME_I] * program.num_wires, {})


def _word(acc, group):
    """The group's accumulated word; the identity before its first round."""
    word = acc.get(group.group_id)
    return np.eye(2 ** len(group.wires), dtype=complex) if word is None else word


def _step(node, event, groups_by_id, measure, pair_source=None):
    """The nodes that follow `node` through one program event, in branch order.

    A bridge or an extract updates `node` and returns it. A round returns one
    node per (a, m) branch that `measure` follows; each owns its register and
    record, and multiplies the parent's probability by pa * pm.
    """
    kind = event[0]
    if kind == "bridge":
        _, (wa, wb), gid = event
        node.reg.apply(qsim.CZ, [("wire", wa), ("wire", wb)])
        fa, fb = node.frames[wa], node.frames[wb]
        node.frames[wa] = PauliFrame(fa.x, fa.z ^ fb.x)
        node.frames[wb] = PauliFrame(fb.x, fb.z ^ fa.x)
        node.acc[gid] = qsim.CZ.entries @ _word(node.acc, groups_by_id[gid])
        return [node]
    if kind == "extract":
        group = groups_by_id[event[1]]
        if group.target is not None:
            folds = _extract_group_frames(_word(node.acc, group), group)
            for w, f in folds.items():
                node.frames[w] = node.frames[w].compose(f)
        node.acc.pop(group.group_id, None)
        return [node]

    plan = event[1]
    group = groups_by_id[plan.group_id]
    gains = _SLOT_GAINS[len(group.wires), group.wires.index(plan.wire)]
    word = _word(node.acc, group)
    command = plan.adapt_rule(node.m_bits, node.frames[plan.wire])
    pair = pair_source if pair_source is not None else qsim.bell_pair()
    children = []
    for a, m, pa, pm, reg in _round_branches(
        node.reg, plan.round_index, plan.wire, command, measure, pair
    ):
        frames = list(node.frames)
        frames[plan.wire] = RoundPlan.frame_update(frames[plan.wire], a, m)
        m_bits = node.m_bits + (m,)
        want = plan.want_angle(m_bits)
        acc = dict(node.acc)
        acc[group.group_id] = gains[-want.k if m else want.k] @ word
        # pa * pm first: certificates print noise-level sums of these products.
        children.append(_Node(reg, frames, acc, m_bits, node.prob * (pa * pm), command))
    return children


def run_protocol2(
    program: AngleProgram,
    input_state: StateVector,
    channel: ChannelModel,
    adversary=None,
    rng=None,
    *,
    loss_masking: bool = False,
    forced_outcomes=None,
) -> RunResult:
    """Execute every round; the output stays on the server side, the client
    keeps the final Pauli frames for classical post-correction."""
    node = _start(program, input_state)
    forced_bits = None
    if forced_outcomes is not None:
        forced_bits = [b for pair in forced_outcomes for b in pair]
    draw = _drawing(_OutcomeSource(rng=rng, forced=forced_bits))

    device = None
    pair_source = None
    if adversary is not None:
        device = getattr(adversary, "device", None)
        if getattr(adversary, "kind", None) == "SUBSTITUTE_STATE":
            pair_source = adversary.state
    rng_loss, rng_mask = _channel_streams(
        channel, needed=loss_masking or device is not None
    )
    groups_by_id = {g.group_id: g for g in program.groups}
    transcript = []
    retransmissions = 0

    for event in program.events:
        if event[0] == "round":
            retransmissions += _deliver(
                channel, rng_loss, rng_mask, transcript, event[1].round_index,
                loss_masking=loss_masking, device=device,
            )
        (node,) = _step(node, event, groups_by_id, draw, pair_source)
        if event[0] == "round":
            if device is not None:
                device.observe_angle(node.command.k)
            transcript.append(
                Message(event[1].round_index, B2A, "X_RESULT", node.m_bits[-1])
            )

    transcript.append(Message(program.num_rounds, A2B, "DONE"))
    output = node.reg.extract([("wire", w) for w in range(program.num_wires)])
    return RunResult(
        logical_output_state=output,
        transcript=transcript,
        final_frames=list(node.frames),
        retransmission_count=retransmissions,
        branch_probability=node.prob,
        rounds_completed=program.num_rounds,
    )


def walk_protocol2(program: AngleProgram, input_state: StateVector):
    """Every possible branch of a lossless, honest protocol-2 run, exactly.

    A depth-first walk of the outcome tree: each round forks on both client
    outcomes a and both reported bits m (0 before 1, impossible branches
    dropped), and every fork continues from its parent's register and record.
    Yields (m_bits, prob) per leaf, in the order of itertools.product over the
    per-round (a, m) bits. No transcript is kept: nothing is lost or resent.
    """
    events = program.events
    groups_by_id = {g.group_id: g for g in program.groups}
    stack = [(_start(program, input_state), 0)]
    while stack:
        node, i = stack.pop()
        if i == len(events):
            yield node.m_bits, node.prob
            continue
        children = _step(node, events[i], groups_by_id, _both_branches)
        stack.extend((child, i + 1) for child in reversed(children))


def correct_output(result: RunResult) -> StateVector:
    """Apply the client's final frames to the server-side register."""
    state = result.logical_output_state
    for w, frame in enumerate(result.final_frames):
        if frame.z:
            state = qsim.apply_gate(state, qsim.Z, [w])
        if frame.x:
            state = qsim.apply_gate(state, qsim.X, [w])
    return state


def round2_step(register: StateVector, wire_qubit: int, theta: Angle,
                channel: ChannelModel, rng):
    """One standalone round on `wire_qubit` at a fixed command angle.

    Returns (a, m, new_register, messages); the new register holds
    Z^a R_theta X^m H applied to the addressed wire.
    """
    rng_loss, rng_mask = _channel_streams(channel)
    transcript = []
    _deliver(channel, rng_loss, rng_mask, transcript, 1)
    labels = [("wire", w) for w in range(register.num_qubits)]
    source = rng if hasattr(rng, "random") else _OutcomeSource(forced=list(rng))
    [(a, m, _, _, reg)] = _round_branches(
        _Register(register.copy(), labels), 1, wire_qubit, theta, _drawing(source),
        qsim.bell_pair(),
    )
    transcript.append(Message(1, B2A, "X_RESULT", m))
    out = reg.extract([("wire", w) for w in range(register.num_qubits)])
    return a, m, out, transcript


# --------------------------------------------------------------------------
# Cluster-resource protocols (client measures)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanStep:
    vertex: int
    base_angle: Angle


# Per-gate command-angle chains for the linear-cluster compiler; each vertex
# contributes H R_k, so a chain (k1, .., kn) realizes H R_{kn} ... H R_{k1}.
_CHAIN_TABLE = {
    "H": (0,),
    "S": (2, 0),
    "SDG": (6, 0),
    "T": (7, 0),
    "TDG": (1, 0),
    "X": (0, 4),
    "Z": (4, 0),
}


def circuit_to_chain(gates):
    """Measured-vertex angle list for a single-wire circuit."""
    ks = []
    for gate in gates:
        if gate.name not in _CHAIN_TABLE:
            raise FormatError(
                f"{gate.name} is not available on a linear cluster resource"
            )
        if gate.wires != (0,):
            raise FormatError("linear-cluster plans are single-wire (wire 0)")
        ks.extend(_CHAIN_TABLE[gate.name])
    return [PlanStep(i, Angle(k)) for i, k in enumerate(ks)]


def chain_unitary(plan) -> np.ndarray:
    u = np.eye(2, dtype=complex)
    for step in plan:
        u = qsim.H.entries @ qsim.rotation(step.base_angle).entries @ u
    return u


def _require_chain(resource, plan):
    graph = resource.graph
    n = graph.num_vertices
    expected = {frozenset((i, i + 1)) for i in range(n - 1)}
    if set(graph.edges) != expected:
        raise FormatError("this runner requires a linear-cluster resource")
    if [s.vertex for s in plan] != list(range(n - 1)):
        raise FormatError("plan must cover vertices 0..n-2 in order")


def run_protocol1(resource, plan, rng=None, forced_outcomes=None) -> RunResult:
    """The client measures every delivered particle; no quantum memory, no
    messages back to the server beyond delivery acknowledgements."""
    _require_chain(resource, plan)
    n = resource.graph.num_vertices
    source = _OutcomeSource(rng=rng, forced=forced_outcomes)
    reg = _Register(resource.state.copy(), list(range(n)))
    transcript = []
    x, z = 0, 0
    prob = 1.0
    raw_bits = []
    for step in plan:
        rnd = step.vertex + 1
        transcript.append(Message(rnd, B2A, "QUBIT_SENT"))
        transcript.append(Message(rnd, A2B, "ARRIVED"))
        command = -step.base_angle if x else step.base_angle
        s, ps = reg.measure(qsim.measure_rotated, step.vertex, command, source.random())
        raw_bits.append(s)
        prob *= ps
        x, z = (s + z) % 2, x
    # Output vertex: delivered, then read in the computational basis.
    rnd = n
    transcript.append(Message(rnd, B2A, "QUBIT_SENT"))
    transcript.append(Message(rnd, A2B, "ARRIVED"))
    b, pb = reg.measure(qsim.measure_z, n - 1, source.random())
    prob *= pb
    raw_bits.append(b)
    transcript.append(Message(rnd, A2B, "DONE"))
    return RunResult(
        outcome_bits=[b ^ x],
        transcript=transcript,
        final_frames=[PauliFrame(x, z)],
        branch_probability=prob,
        rounds_completed=n,
    )


def run_teleport_variant(resource, plan, channel: ChannelModel, rng=None,
                         forced_outcomes=None) -> RunResult:
    """Loss-tolerant variant: each resource particle reaches the client by
    teleportation through a fresh pair, so only pair halves can be lost. The
    two reported bits fold into the client's command angle and outcome."""
    _require_chain(resource, plan)
    n = resource.graph.num_vertices
    source = _OutcomeSource(rng=rng, forced=forced_outcomes)
    rng_loss, rng_mask = _channel_streams(channel, needed=False)
    reg = _Register(resource.state.copy(), list(range(n)))
    transcript = []
    x, z = 0, 0
    prob = 1.0
    retransmissions = 0

    def teleport(vertex, rnd):
        nonlocal retransmissions, prob
        retransmissions += _deliver(channel, rng_loss, rng_mask, transcript, rnd)
        keep = ("keep", rnd)
        sent = ("tele", rnd)
        reg.append(qsim.bell_pair(), [keep, sent])
        reg.apply(qsim.CNOT, [vertex, keep])
        reg.apply(qsim.H, [vertex])
        b1, p1 = reg.measure(qsim.measure_z, vertex, source.random())
        b2, p2 = reg.measure(qsim.measure_z, keep, source.random())
        prob *= p1 * p2
        transcript.append(Message(rnd, B2A, "X_RESULT", b1))
        transcript.append(Message(rnd, B2A, "X_RESULT", b2))
        reg.relabel(sent, vertex)
        return b1, b2  # client's particle carries X^b2 Z^b1

    for step in plan:
        rnd = step.vertex + 1
        mz, mx = teleport(step.vertex, rnd)
        flip = (x + mx) % 2
        command = -step.base_angle if flip else step.base_angle
        s_raw, ps = reg.measure(qsim.measure_rotated, step.vertex, command, source.random())
        prob *= ps
        s = s_raw ^ mz
        x, z = (s + z) % 2, x
    rnd = n
    mz, mx = teleport(n - 1, rnd)
    b, pb = reg.measure(qsim.measure_z, n - 1, source.random())
    prob *= pb
    transcript.append(Message(rnd, A2B, "DONE"))
    return RunResult(
        outcome_bits=[b ^ mx ^ x],
        transcript=transcript,
        final_frames=[PauliFrame(x, z)],
        retransmission_count=retransmissions,
        branch_probability=prob,
        rounds_completed=n,
    )


def enumerate_distribution(runner, *args, num_bits, **kwargs):
    """Exact outcome distribution of a runner by branch enumeration.

    Returns {outcome_bits tuple: probability}, summing to 1.
    """
    from .errors import DegenerateMeasurementError

    dist = {}
    for bits in itertools.product((0, 1), repeat=num_bits):
        try:
            result = runner(*args, forced_outcomes=list(bits), **kwargs)
        except DegenerateMeasurementError:
            continue  # zero-probability branch
        key = tuple(result.outcome_bits)
        dist[key] = dist.get(key, 0.0) + result.branch_probability
    return dist


# --------------------------------------------------------------------------
# Transcript format
# --------------------------------------------------------------------------


def format_loss(value: float) -> str:
    return format(float(value), "g")


def format_transcript(protocol: str, seed: int, loss: float, transcript) -> str:
    lines = [f"run protocol={protocol} seed={seed} loss={format_loss(loss)}"]
    for m in transcript:
        payload = "-" if m.payload is None else str(m.payload)
        lines.append(f"r={m.round} d={m.direction} k={m.kind} p={payload}")
    return "\n".join(lines) + "\n"


def parse_transcript(text: str):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("run "):
        raise FormatError("transcript must start with a `run ...` header")
    header = {}
    for fieldtext in lines[0][4:].split():
        key, _, value = fieldtext.partition("=")
        header[key] = value
    messages = []
    for ln in lines[1:]:
        fields = dict(f.split("=", 1) for f in ln.split())
        payload = None if fields["p"] == "-" else int(fields["p"])
        messages.append(Message(int(fields["r"]), fields["d"], fields["k"], payload))
    return header, messages
