"""Two-party delegation state machines and the circuit-to-rounds compiler.

The server mints one fresh entangled pair per round; the client measures its
half in a secretly rotated basis and the server folds the other half into the
register, reporting one X-basis bit back. Her outcome depends on the pair
alone (no-signaling), so the simulation tables it per pair and never puts the
pair in the register: a round is one draw against the table and one 2x2 map
per reported bit on the wire, and the register holds only the wires.

Byproducts stay classical: each wire carries an (x, z) Pauli frame, the
client's command angle cancels the frame's z bit, and each gate group is
closed by looking up, by the bits its rounds reported, the Pauli folds that
graphs.branch_frames found for that branch when graphs.group_entry built the
group's table: no round multiplies a matrix.

The compiler tables each round's wanted angle once, from
graphs.WireSchedule.angle_index, the one place the adaptation rule lives:
the runtime, the blindness certificate and the attacks all read that table.

Protocol 2 and the linear-cluster protocols 1 and tp are event lists over one
step (_step). Runs go through one loop (_run), which owns the messages; exact
distributions come from one walk of the outcome tree (_walk), level by level.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import graphs, pauli, qsim
from .errors import CapacityError, DegenerateMeasurementError, FormatError, RetryLimitError
from .pauli import FRAME_I, PauliFrame
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

# Every valid (direction, kind, payload): X_RESULT carries one bit, the
# other kinds nothing.
_VALID_MESSAGES = frozenset(
    (direction, kind, payload)
    for kind, direction in _KIND_DIRECTIONS.items()
    for payload in ((0, 1) if kind == "X_RESULT" else (None,))
)


class _MessageFields(NamedTuple):
    round: int
    direction: str
    kind: str
    payload: int = None


class Message(_MessageFields):
    """One protocol message, checked on construction: an immutable tuple of
    (round, direction, kind, payload)."""

    __slots__ = ()

    def __new__(cls, round, direction, kind, payload=None):
        try:
            valid = (direction, kind, payload) in _VALID_MESSAGES
        except TypeError:  # an unhashable payload
            valid = False
        if not valid:
            if kind not in _KIND_DIRECTIONS:
                raise ValueError(f"unknown message kind {kind!r}")
            if direction != _KIND_DIRECTIONS[kind]:
                raise ValueError(f"{kind} cannot flow {direction}")
            if kind == "X_RESULT":
                raise ValueError("X_RESULT carries exactly one bit")
            raise ValueError(f"{kind} carries no payload")
        return tuple.__new__(cls, (round, direction, kind, payload))


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
    """One round: its wire, its 1-based position in the program, and the angle
    the client wants, one per value of the bit that drives the choice.

    `driver` is the round whose reported bit picks from `wants`, or None when
    both entries agree. The compiler fills both from the group's
    graphs.WireSchedule, so no run re-derives the adaptation rule.
    """

    wire: int
    round_index: int
    wants: tuple              # (Angle if the driver's m is 0, Angle if it is 1)
    driver: int = None

    def want_angle(self, m_bits) -> Angle:
        """The logical angle for this round (before frame-cancelling sign)."""
        return self.wants[0 if self.driver is None else m_bits[self.driver - 1]]

    def adapt_rule(self, m_bits, frame: PauliFrame) -> Angle:
        """Command angle: the wanted angle, sign-flipped to cancel frame.z."""
        want = self.want_angle(m_bits)
        return -want if frame.z else want

    @staticmethod
    def frame_update(frame: PauliFrame, a: int, m: int) -> PauliFrame:
        # Round byproduct: Z^a lands on the fresh qubit, X^m H shuffles the old
        # frame; net effect (x, z) -> (m + z, a + x).
        return pauli.frame((m + frame.z) % 2, (a + frame.x) % 2)


@dataclass(frozen=True)
class Group:
    """An emitted gate group: its wires (wires[0] is the cell's low slot), the
    round indices of its rounds (wires[0]'s first) and the graphs.CellEntry
    it came from, whose frames table closes it."""

    wires: tuple
    rounds: tuple
    entry: graphs.CellEntry


@dataclass
class AngleProgram:
    num_wires: int
    rounds: list = field(default_factory=list)
    events: list = field(default_factory=list)  # ("round", plan) | ("bridge", wires) | ("extract", group)

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)


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

    def _add_round(self, wire, schedule: graphs.WireSchedule, done):
        """Append round len(done) of `schedule` on `wire` to `done`. Its wanted
        angle is tabled for both values of the bit of `done`'s first round,
        which becomes the driver only if the two angles differ."""
        k0, k1 = schedule.angle_index(len(done), 0), schedule.angle_index(len(done), 1)
        wants = (qsim.ALL_ANGLES[k0 % 8], qsim.ALL_ANGLES[k1 % 8])
        driver = done[0].round_index if k0 != k1 else None
        plan = RoundPlan(wire, len(self.program.rounds) + 1, wants, driver)
        self.program.rounds.append(plan)
        self.program.events.append(("round", plan))
        done.append(plan)

    def raw(self, wire, angle_indices):
        """Rounds at fixed command angles, with no group to close."""
        schedule, done = graphs.WireSchedule(tuple(angle_indices)), []
        for _ in schedule.base:
            self._add_round(wire, schedule, done)

    def group(self, entry: graphs.CellEntry, wires):
        """Emit `entry` on `wires` (low slot first): the rounds of each wire,
        a bridge after rounds (i, j) if the entry has one, and the extract."""
        schedules = (entry.wire0, entry.wire1)[:len(wires)]
        plans = [[] for _ in wires]

        def emit(slot, upto):
            while len(plans[slot]) < upto:
                self._add_round(wires[slot], schedules[slot], plans[slot])

        if entry.bridge is not None:
            for slot, anchor in enumerate(entry.bridge):
                emit(slot, anchor)
            self.program.events.append(("bridge", tuple(wires)))
        for slot, sched in enumerate(schedules):
            emit(slot, len(sched.base))
        rounds = tuple(p.round_index for done in plans for p in done)
        self.program.events.append(("extract", Group(tuple(wires), rounds, entry)))


# The groups that realize a gate, in order, where they are not the gate's
# own block or cell: CZ * (CZ * CNOT) = CNOT, so the bridged cell goes first.
_GATE_GROUPS = {"T": ("H", "TH"), "TDG": ("H", "TDGH"), "CNOT": ("CZCNOT", "CZ")}


def compile_circuit(gates, num_wires: int = None, pad_to: int = None) -> AngleProgram:
    """Compile a gate list into a round-by-round adaptive angle program."""
    if num_wires is None:
        num_wires = max((w for g in gates for w in g.wires), default=0) + 1
    builder = _ProgramBuilder(num_wires)
    for gate in gates:
        for name in _GATE_GROUPS.get(gate.name, (gate.name,)):
            builder.group(graphs.group_entry(name), gate.wires)
    program = builder.program
    if pad_to is not None:
        if pad_to < program.num_rounds or (pad_to - program.num_rounds) % 3:
            raise ValueError(
                f"cannot pad {program.num_rounds} rounds to {pad_to}"
            )
        while program.num_rounds < pad_to:
            builder.group(graphs.group_entry("I"), (0,))
    return program


def make_raw_program(angle_indices, wire: int = 0) -> AngleProgram:
    """Rounds with fixed command angles and no gate targets (diagnostics)."""
    builder = _ProgramBuilder(wire + 1)
    builder.raw(wire, angle_indices)
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


@dataclass(slots=True)
class _Node:
    """The client's record at one point of a run: wire frames, the bits the
    server reported, the branch probability, the last round's command angle
    and a chain's read-out bit. A node is owned by one branch."""

    frames: list
    m_bits: tuple = ()
    prob: float = 1.0
    command: Angle = None
    out: tuple = ()


@dataclass(slots=True)
class _Level:
    """The nodes at one depth of the outcome tree, and their registers.

    Labels follow the events and not the outcomes, so every node's register
    holds the same `labels` (qubit i is labels[i]) and `amps` stacks them, row
    b for nodes[b]. A registerless run has no `amps` and no labels. A level
    is consumed by _step.
    """

    amps: np.ndarray | None
    labels: list
    nodes: list

    def qubit(self, label) -> int:
        return self.labels.index(label)

    def append(self, amplitudes, labels):
        self.amps = qsim.tensor_stack(self.amps, amplitudes)
        self.labels.extend(labels)

    def apply(self, gate, labels):
        self.amps = qsim.apply_stack(self.amps, gate, [self.qubit(l) for l in labels])

    def fork(self, pick, label, bras):
        """Measure `label` on every node (qsim.measure_stack, which keeps
        every branch if `pick` is None); returns (parents, outcomes, probs),
        one entry per branch, and keeps the branches' stack. The caller
        builds the branches' nodes."""
        qubit = self.qubit(label)
        parents, outcomes, probs, self.amps = qsim.measure_stack(self.amps, qubit, bras, pick)
        del self.labels[qubit]
        return parents, outcomes, probs

    def relabel(self, old, new):
        self.labels[self.qubit(old)] = new

    def state(self, ordered_labels) -> StateVector:
        """A run's register (its one node's) with `ordered_labels` as qubits
        0, 1, ..."""
        perm = [self.qubit(l) for l in ordered_labels]
        (amps,) = self.amps
        psi = amps.reshape([2] * len(self.labels), order="F")
        return StateVector(np.transpose(psi, axes=perm).reshape(-1, order="F"), check=False)


def _level(state, labels, frames) -> _Level:
    """A level of one node: a copy of `state` (None: no register) on `labels`."""
    if state is None:
        return _Level(None, [], [_Node(frames)])
    return _Level(state.amplitudes[None].copy(), list(labels), [_Node(frames)])


def _bases(commands):
    """The bras of each node's command angle: one shared basis when every
    node has the same angle (as a run's level of one does), else a stack."""
    ks = [c.k for c in commands]
    return qsim.ROTATED_BRAS[ks[0] if ks.count(ks[0]) == len(ks) else ks]


def _measurement(rng, forced=None):
    """The pick of a run, which follows one branch per node and measurement:
    pick(p0) is the outcome whose outcome 0 has probability p0, drawn with
    one rng.random() call against p0, or named by the next of the `forced`
    bits.

    The pick goes to qsim.branches, directly for the client's outcome of a
    protocol-2 round and through qsim.measure_stack for every other
    measurement. The exact walk (_walk) passes None in its place, which
    keeps every possible branch. With no register a round's two draws are
    pick(0.5), fair coins (see _round).
    """
    if forced is None:
        return lambda p0: 0 if rng.random() < p0 else 1
    queue = iter(forced)

    def pick(p0):
        want = next(queue, None)
        if want is None:
            raise ValueError("fewer forced outcomes than measurements")
        if want not in (0, 1):
            raise DegenerateMeasurementError(f"forced outcome {want} is impossible")
        return want
    return pick


def _deliver(channel, rng_loss, rng_mask, transcript, round_index, device=None):
    """Run the send/ack loop until the client accepts a particle.

    A particle is lost when `rng_loss` (None on a lossless channel) draws it.
    Under masking (`rng_mask` set) the client accepts an arrived particle on
    a fair coin alone.
    """
    resends = 0
    for _ in range(RETRY_CAP):
        transcript.append(Message(round_index, B2A, "QUBIT_SENT"))
        arrived = rng_loss is None or transmit(channel, rng_loss) == ARRIVED
        if rng_mask is not None:
            # The coin replaces the device: claim_no_click is never called, so
            # a lying device cannot steer the report, but neither can a real
            # no-click reject a particle. The click model is an open item.
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


def _start(program: AngleProgram, input_state: StateVector) -> _Level:
    """The start level; it holds no register if `input_state` is None."""
    frames = [FRAME_I] * program.num_wires
    if input_state is None:
        return _level(None, (), frames)
    if input_state.num_qubits != program.num_wires:
        raise ValueError("input state does not match the program's wire count")
    return _level(input_state, [("wire", w) for w in range(program.num_wires)], frames)


def _step(level, event, pick, pairs=None):
    """The level that follows `level` through one event.

    Protocol 2 runs its program's events: round, bridge and extract. The
    chain protocols (_chain) run deliver, teleport, vertex and readout.
    Each gate and each measurement is one kernel call on the whole stack. An
    event without a measurement updates the nodes in place. One with
    measurements gives each node a child per branch, node by node and
    outcome 0 first: the one `pick` names (a run), or every possible one
    (`pick` None, the walk). Each child owns its record and multiplies its
    parent's probability by the event's branch probability. `pairs` is the
    pair table of a substituted pair (_pair_table), or None for Bell pairs.
    """
    kind, nodes = event[0], level.nodes
    if kind == "round":
        return _round(level, event[1], pick, pairs)
    if kind in ("deliver", "done"):
        return level  # classical only: the run loop sends the messages
    if kind == "bridge":
        _, (wa, wb) = event
        if level.amps is not None:
            qsim.cz_stack(level.amps, level.qubit(("wire", wa)), level.qubit(("wire", wb)))
        for node in nodes:
            fa, fb = node.frames[wa], node.frames[wb]
            node.frames[wa] = pauli.frame(fa.x, fa.z ^ fb.x)
            node.frames[wb] = pauli.frame(fb.x, fb.z ^ fa.x)
        return level
    if kind == "extract":
        # The Pauli factors the group's word leaves on each branch.
        group = event[1]
        for node in nodes:
            folds = group.entry.frames[tuple(node.m_bits[r - 1] for r in group.rounds)]
            for w, f in zip(group.wires, folds):
                node.frames[w] = node.frames[w].compose(f)
        return level
    if kind == "teleport":
        # The server teleports the vertex to the client through a fresh pair
        # and reports both bits (mz, mx); her particle carries X^mx Z^mz.
        vertex = event[1]
        keep, sent = ("keep", vertex), ("tele", vertex)
        level.append(qsim.bell_pair().amplitudes, [keep, sent])
        level.apply(qsim.CNOT, [vertex, keep])
        level.apply(qsim.H, [vertex])
        z_of, mz, pz = level.fork(pick, vertex, qsim.Z_BRAS)
        x_of, mx, px = level.fork(pick, keep, qsim.Z_BRAS)
        level.relabel(sent, vertex)
        children = level.nodes = []
        for i, x_bit, p_x in zip(x_of, mx, px):
            node = nodes[z_of[i]]
            children.append(_Node(list(node.frames), node.m_bits + (mz[i], x_bit),
                                  node.prob * (pz[i] * p_x)))
        return level
    if kind == "readout":
        # The client reads out the last vertex in the Z basis; a teleported
        # particle's X^mx flips her bit, like the chain's frame.x.
        _, vertex, teleported = event
        of, bits, probs = level.fork(pick, vertex, qsim.Z_BRAS)
        children = level.nodes = []
        for i, b, p in zip(of, bits, probs):
            node = nodes[i]
            mx = node.m_bits[-1] if teleported else 0
            frame = node.frames[0]
            children.append(_Node([frame], node.m_bits, node.prob * p,
                                  out=(b ^ mx ^ frame.x,)))
        return level
    if kind == "vertex":
        # The client measures a delivered vertex at its plan step's angle. A
        # teleported particle carries X^mx Z^mz from the last two reported
        # bits; X^mx flips the sign of her command, and Z^mz her outcome s.
        _, step, teleported = event
        shifts = [node.m_bits[-2:] if teleported else (0, 0) for node in nodes]
        commands = [-step.base_angle if node.frames[0].x ^ mx else step.base_angle
                    for node, (_, mx) in zip(nodes, shifts)]
        of, outcomes, probs = level.fork(pick, step.vertex, _bases(commands))
        children = level.nodes = []
        for i, s, p in zip(of, outcomes, probs):
            frame = RoundPlan.frame_update(nodes[i].frames[0], 0, s ^ shifts[i][0])
            children.append(_Node([frame], nodes[i].m_bits, nodes[i].prob * p, commands[i]))
        return level


# The server's round on the wire w, as a map of his half s: the CZ's sign
# (-1)^(s w), then the wire's X-basis read-out <x_m|w>, indexed [m, s, w].
_CZ_THEN_X = np.array([[1, 1], [1, -1]])[None] * qsim.ROTATED_BRAS[0][:, None, :]


def _pair_table(amplitudes):
    """The client's part of every round on one pair (server half qubit 0):
    (p0, maps), where p0[k] is the probability that she reads a = 0 at
    Angle(k), and maps[2k + a] the server's 2x2 maps, one per reported bit
    m, M[m][s, w] = v[s] (-1)^(s w) <x_m|w>, with v the normalized state her
    outcome leaves on his half. An impossible outcome's v is zero."""
    halves = np.matmul(qsim.ROTATED_BRAS, amplitudes.reshape(2, 2))  # [k, a, s]
    p0 = np.clip((abs(halves[:, 0]) ** 2).sum(axis=1), 0.0, 1.0)
    probs = np.stack([p0, 1.0 - p0], axis=1)
    scale = np.zeros_like(probs)
    np.divide(1.0, np.sqrt(probs), out=scale, where=probs >= qsim.DEGENERATE_PROB)
    maps = (halves * scale[..., None])[:, :, None, :, None] * _CZ_THEN_X
    maps.setflags(write=False)
    return tuple(p0.tolist()), maps.reshape(16, 2, 2, 2)


@functools.cache
def _bell_table():
    """The honest pair's table, built on first use."""
    return _pair_table(qsim.bell_pair().amplitudes)


def _round(level, plan, pick, pairs):
    """One protocol-2 round on every node of `level`.

    The server hands the client one half of a fresh pair (a Bell pair, or
    the one `pairs` tables). She measures it at the command angle (outcome
    a); he entangles his half with the wire by CZ, measures the wire in the
    X basis (reported bit m) and keeps his half as the new wire.

    Her outcome depends on the pair alone, never on the register: this is
    the protocol's no-signaling structure. So her part is the pair's table:
    a is drawn against p0[k] with no kernel, and leaves his half in a known
    state. His part is then one 2x2 map per m on the wire, one
    qsim.measure_stack call whose blocks put his half on top of the
    register, where the wire's label moves. The register holds only the
    wires.

    With no register the pair is an honest Bell pair, and a and m are fair
    coins, drawn in that order: the client's half of a Bell pair is
    maximally mixed whatever the rest, and after the CZ the server's half has
    <Z> = 0, so the wire's X outcome is unbiased for any angle and state.
    """
    nodes, wire = level.nodes, ("wire", plan.wire)
    commands = [plan.adapt_rule(node.m_bits, node.frames[plan.wire]) for node in nodes]
    if level.amps is None:
        a_of = m_of = [0]
        a, m, pa, pm = [pick(0.5)], [pick(0.5)], [0.5], [0.5]
    else:
        p0, maps = pairs or _bell_table()
        ks = [c.k for c in commands]
        a_of, a, pa = qsim.branches([p0[k] for k in ks], pick)
        if len(a_of) > len(nodes):
            level.amps = level.amps[a_of]
        blocks = maps.take([2 * ks[i] + o for i, o in zip(a_of, a)], axis=0)
        m_of, m, pm = level.fork(pick, wire, blocks)
        level.labels.append(wire)
    children = level.nodes = []
    for i, m_bit, p_m in zip(m_of, m, pm):
        parent = a_of[i]
        node = nodes[parent]
        frames = list(node.frames)
        frames[plan.wire] = RoundPlan.frame_update(frames[plan.wire], a[i], m_bit)
        # pa * pm first: certificates print noise-level sums of these products.
        children.append(_Node(frames, node.m_bits + (m_bit,), node.prob * (pa[i] * p_m),
                              commands[parent]))
    return level


_DONE = ("done",)


def _run(level, events, pick, *, channel=None,
         loss_masking=False, device=None, pairs=None):
    """Run `events` from a level of one node along the one branch `pick`
    follows.

    The loop owns the messages: a delivery (with resends on a lossy channel)
    before each round and each "deliver" event, one X_RESULT per bit the
    server reports, in the round of the last delivery, and DONE at the "done"
    event. After each round a device sees the command angle.
    Returns the final level and a RunResult of the classical record.
    """
    # Each stream exists only where it can change an outcome: at loss 0 no
    # draw of rng_loss loses a particle.
    rng_loss = rng_mask = None
    if channel is not None and channel.loss_prob > 0.0:
        rng_loss = np.random.default_rng([channel.rng_seed, 0])
    if channel is not None and loss_masking:
        rng_mask = np.random.default_rng([channel.rng_seed, 1])
    transcript, resends, rnd = [], 0, 0
    for event in events:
        kind = event[0]
        if kind in ("round", "deliver"):
            rnd = event[1].round_index if kind == "round" else event[1]
            resends += _deliver(channel, rng_loss, rng_mask, transcript, rnd, device)
        elif kind == "done":
            transcript.append(Message(rnd, A2B, "DONE"))
        reported = len(level.nodes[0].m_bits)
        level = _step(level, event, pick, pairs)
        (node,) = level.nodes
        if kind == "round" and device is not None:
            device.observe_angle(node.command.k)
        for m in node.m_bits[reported:]:
            transcript.append(Message(rnd, B2A, "X_RESULT", m))
    (node,) = level.nodes
    return level, RunResult(transcript=transcript, final_frames=list(node.frames),
                           retransmission_count=resends, branch_probability=node.prob,
                           rounds_completed=rnd)


# A walk holds a whole level in memory, a record and a register row per
# node, so it refuses one whose next level could pass this many amplitudes
# (nodes times 2^width), as qsim.CAPACITY does for one register. The largest
# level the test suite, verify and the certify benchmark walk is 2^15 (tp's
# "H 0; S 0; H 0" at its last teleport): the budget leaves room for one more
# round or teleport, and a walk past it is refused within a second.
WALK_AMPLITUDES = 1 << 17
# The most one event multiplies a level's amplitudes by: a round or a
# teleport forks each node four ways and keeps the register's width.
_GROWTH = {"round": 4, "teleport": 4}


def _walk(level, events):
    """The leaves of a lossless, honest run's outcome tree, exactly: the last
    level of a walk that advances the whole frontier one event at a time.

    Level by level, each measurement forks every node on its possible
    outcomes (0 before 1, impossible ones dropped), and children keep their
    parents' order, so the leaves come in the order of itertools.product
    over the outcome bits, measurement by measurement. A level holds every
    node's register, so memory grows with the widest level (its nodes times
    the register's 2^n amplitudes): the walk is for exact checks of a few
    rounds or vertices, and raises CapacityError before an event that could
    take a level past WALK_AMPLITUDES.
    """
    for event in events:
        if _GROWTH.get(event[0], 1) * level.amps.size > WALK_AMPLITUDES:
            raise CapacityError(
                f"the walk's next level could exceed {WALK_AMPLITUDES} amplitudes")
        level = _step(level, event, None)
    return level


def run_protocol2(
    program: AngleProgram,
    input_state: StateVector,
    channel: ChannelModel,
    rng=None,
    *,
    device=None,
    pair=None,
    loss_masking: bool = False,
    forced_outcomes=None,
) -> RunResult:
    """Execute every round; the output stays on the server side, the client
    keeps the final Pauli frames for classical post-correction.

    A cheating server may hand out `pair` (a two-qubit state, server half
    first) in place of each fresh Bell pair, or control the client's
    measuring `device`, which sees each round's command angle and is asked
    for clicks. `forced_outcomes` lists an (a, m) pair per round in place
    of draws.

    With `input_state` None the run holds no register and
    `logical_output_state` is None: each round's a and m are fair coins
    (_round), one rng.random() each compared with exactly 1/2, in
    the register path's order. The register path compares the draw with a
    computed p0 that misses 1/2 by rounding error (a's, from the Bell pair's
    table, by at most 4 * 2**-54; m's by up to about 50 * 2**-54 on signal
    programs and 2e-13 on random-input compiled circuits), so the paths
    differ only for a draw in that gap. A substituted pair or forced
    outcomes need a register.
    """
    level = _start(program, input_state)
    if input_state is None and (pair is not None or forced_outcomes is not None):
        raise ValueError("a substituted pair or forced outcomes need a register")
    if forced_outcomes is not None:
        forced_outcomes = [b for ab in forced_outcomes for b in ab]
    level, result = _run(
        level, [*program.events, _DONE], _measurement(rng, forced_outcomes),
        channel=channel, loss_masking=loss_masking, device=device,
        pairs=None if pair is None else _pair_table(pair.amplitudes),
    )
    if level.amps is not None:
        result.logical_output_state = level.state(
            [("wire", w) for w in range(program.num_wires)])
    return result


def walk_protocol2(program: AngleProgram, input_state: StateVector):
    """(m_bits, prob) for every leaf of a lossless, honest protocol-2 run, in
    the order of itertools.product over the per-round (a, m) bits.

    The walk measures the real register, so it needs an input state: with
    fair coins in its place a certificate would assume what it certifies."""
    if input_state is None:
        raise ValueError("the walk needs an input state")
    leaves = _walk(_start(program, input_state), program.events).nodes
    return ((leaf.m_bits, leaf.prob) for leaf in leaves)


def walk_protocol1(state: StateVector, plan):
    """(server state, prob) for every leaf of the client measuring `state`'s
    plan vertices in turn, as protocol 1's vertex step does (adaptive sign
    included), in the order of itertools.product over her outcomes.

    The server state holds the qubits no step measured, in ascending order
    (measuring only removes labels from the ascending register)."""
    start = _level(state, range(state.num_qubits), [FRAME_I])
    leaves = _walk(start, [("vertex", step, False) for step in plan])
    return ((StateVector(amps, check=False), leaf.prob)
            for amps, leaf in zip(leaves.amps, leaves.nodes))


def correct_output(result: RunResult) -> StateVector:
    """Apply the client's final frames (Z first, then X, on each wire) to the
    server-side register."""
    frames = result.final_frames
    x_mask = sum(frame.x << w for w, frame in enumerate(frames))
    z_qubits = [w for w, frame in enumerate(frames) if frame.z]
    return qsim.apply_pauli(result.logical_output_state, x_mask, z_qubits)


def round2_step(register: StateVector, wire_qubit: int, theta: Angle,
                channel: ChannelModel, rng):
    """One standalone round on `wire_qubit` at a fixed command angle.

    `rng` draws the outcomes, or is the forced pair [a, m]. Returns
    (a, m, new_register, messages); the new register holds
    Z^a R_theta X^m H applied to the addressed wire.
    """
    builder = _ProgramBuilder(register.num_qubits)
    builder.raw(wire_qubit, [theta.k])
    program = builder.program
    pick = _measurement(rng, None if hasattr(rng, "random") else rng)
    level, result = _run(_start(program, register), program.events, pick, channel=channel)
    (node,) = level.nodes
    # From the identity frame a round leaves the frame (x, z) = (m, a).
    a = node.frames[wire_qubit].z
    out = level.state([("wire", w) for w in range(register.num_qubits)])
    return a, node.m_bits[-1], out, result.transcript


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
    if not gates:
        raise FormatError("the circuit is empty: a linear-cluster plan needs a gate")
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


def _chain(resource, plan, teleported: bool):
    """Protocol 1 (or, teleported, tp) as a start node and events.

    Vertex v is delivered in round v + 1; in tp it reaches the client through
    a fresh pair. She measures vertices 0..n-2 at the plan's angles and reads
    out vertex n-1 in the computational basis.
    """
    graph = resource.graph
    n = graph.num_vertices
    expected = {frozenset((i, i + 1)) for i in range(n - 1)}
    if set(graph.edges) != expected:
        raise FormatError("this runner requires a linear-cluster resource")
    if [s.vertex for s in plan] != list(range(n - 1)):
        raise FormatError("plan must cover vertices 0..n-2 in order")
    events = []
    for vertex in range(n):
        events.append(("deliver", vertex + 1))
        if teleported:
            events.append(("teleport", vertex))
        if vertex < n - 1:
            events.append(("vertex", plan[vertex], teleported))
        else:
            events.append(("readout", vertex, teleported))
    return _level(resource.state, range(n), [FRAME_I]), events + [_DONE]


def _run_chain(resource, plan, teleported, rng, forced_outcomes, channel=None):
    start, events = _chain(resource, plan, teleported)
    level, result = _run(start, events, _measurement(rng, forced_outcomes), channel=channel)
    result.outcome_bits = list(level.nodes[0].out)
    return result


def run_protocol1(resource, plan, rng=None, forced_outcomes=None) -> RunResult:
    """The client measures every delivered particle; no quantum memory, no
    messages back to the server beyond delivery acknowledgements.

    `forced_outcomes` lists one bit per vertex, in place of draws."""
    return _run_chain(resource, plan, False, rng, forced_outcomes)


def run_teleport_variant(resource, plan, channel: ChannelModel, rng=None,
                         forced_outcomes=None) -> RunResult:
    """Loss-tolerant variant: each resource particle reaches the client by
    teleportation through a fresh pair, so only pair halves can be lost. The
    two reported bits fold into the client's command angle and outcome.

    `forced_outcomes` lists, per vertex, the two teleport bits and then the
    client's bit, in place of draws."""
    return _run_chain(resource, plan, True, rng, forced_outcomes, channel)


def enumerate_distribution(runner, *args, num_bits, **kwargs):
    """Exact outcome distribution of run_protocol1 or run_teleport_variant.

    Sums the read-out bits over the leaves of one walk of the runner's
    outcome tree; the runner itself never runs. `num_bits` must be the
    number of measurements in a run: one per vertex, plus two per teleport.
    Returns {outcome_bits tuple: probability}, summing to 1.
    """
    if runner not in (run_protocol1, run_teleport_variant):
        raise ValueError("only the linear-cluster runners can be enumerated")
    bound = inspect.signature(runner).bind(*args, **kwargs).arguments
    resource, teleported = bound["resource"], runner is run_teleport_variant
    start, events = _chain(resource, bound["plan"], teleported)
    measured = resource.graph.num_vertices * (3 if teleported else 1)
    if num_bits != measured:
        raise ValueError(f"a run measures {measured} bits, not {num_bits}")
    dist = {}
    for leaf in _walk(start, events).nodes:
        dist[leaf.out] = dist.get(leaf.out, 0.0) + leaf.prob
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
        try:
            fields = dict(f.split("=", 1) for f in ln.split())
            payload = None if fields["p"] == "-" else int(fields["p"])
            messages.append(Message(int(fields["r"]), fields["d"], fields["k"], payload))
        except (KeyError, ValueError) as exc:
            raise FormatError(f"malformed transcript line: {ln!r}") from exc
    return header, messages
