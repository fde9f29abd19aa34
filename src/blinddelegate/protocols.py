"""Two-party delegation state machines and the circuit-to-rounds compiler.

The server mints one fresh entangled pair per round; the client measures its
half in a secretly rotated basis and the server folds the other half into the
register, reporting one X-basis bit back. Her outcome depends on the pair
alone (no-signaling), so the simulation tables it per pair and never puts the
pair in the register: a round is one draw against the table and one 2x2 map
per reported bit on the wire, and the register holds only the wires.

Byproducts stay classical: each wire carries an (x, z) Pauli frame, the
client's command angle cancels the frame's z bit, and each gate group is
closed by looking up, by the bits its rounds reported, the Pauli folds of
its graphs.CellEntry table: no round multiplies a matrix. The compiler
tables each round's wanted angle once, from graphs.WireSchedule.angle_index.

Protocol 2 and the linear-cluster protocols 1 and tp are event lists over one
step (_step). Runs go through one loop (_run), which owns the messages; exact
distributions come from one walk of the outcome tree (_walk), level by level.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import graphs, pauli, qsim
from .errors import CapacityError, DegenerateMeasurementError, FormatError, RetryLimitError
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

# Every valid (direction, kind, payload type, payload): X_RESULT carries one
# bit, the int 0 or 1 (True and 1.0 compare equal to 1 but are not bits),
# the other kinds nothing.
_VALID_MESSAGES = frozenset(
    (direction, kind, type(payload), payload)
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
    (round, direction, kind, payload); the round is an int >= 0."""

    __slots__ = ()

    def __new__(cls, round, direction, kind, payload=None):
        if type(round) is not int or round < 0:
            raise ValueError(f"message round must be an int >= 0, not {round!r}")
        try:
            valid = (direction, kind, type(payload), payload) in _VALID_MESSAGES
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


# The run loop's messages: each distinct value (types included) passes
# Message's check once, and a value that recurs is the same immutable tuple.
_message = functools.lru_cache(maxsize=4096, typed=True)(Message)


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
    the client wants, one per value of the reported bit of round `driver`
    (None when both agree), as the compiler tabled them."""

    wire: int
    round_index: int
    wants: tuple              # (Angle if the driver's m is 0, Angle if it is 1)
    driver: int = None
    commands: tuple = field(init=False, repr=False)

    def __post_init__(self):
        # The command angle's index, [the driver's m][frame z]: the wanted
        # angle, sign-flipped to cancel the frame's z bit.
        w0, w1 = self.wants
        self.commands = ((w0.k, -w0.k % 8), (w1.k, -w1.k % 8))


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


GATE_ARITY = {name: gate.num_qubits for name, gate in qsim.GATES.items()}


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
    for gate in gates:
        u = qsim.expand_gate(qsim.GATES[gate.name], list(gate.wires), num_wires) @ u
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


def make_raw_program(angle_indices) -> AngleProgram:
    """Rounds on wire 0 at fixed command angles, no gate targets (diagnostics)."""
    builder = _ProgramBuilder(1)
    builder.raw(0, angle_indices)
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
    """A run's record, updated in place and indexed as a walk's _Columns, in
    Python ints: frame bits x[w] and z[w] of each wire w (lists), reported
    bits m[r - 1] of each round r (a tuple); the branch probability, the last
    round's command angle index and a chain's read-out bit."""

    x: list
    z: list
    m: tuple = ()
    prob: float = 1.0
    command: int = None
    out: int = None
    root = 0  # a run starts from one node
    lookup = staticmethod(lambda table, i, j=slice(None): table[i][j])  # nested tuples

    def children(self, parent, prob, *bits):
        """Itself as its one branch: prob times `prob`, `bits` appended to m."""
        self.prob *= prob
        self.m += bits
        return self


@dataclass(slots=True)
class _Columns:
    """A walk level's records, column b for node b: rows x[w], z[w] and
    m[r - 1] as in _Node, wire-major blocks of one uint8 matrix `bits` that a
    child copies in one gather; the probabilities; the root (start node) each
    descends from; the command angle indices; a chain's read-out bits."""

    bits: np.ndarray
    wires: int
    prob: np.ndarray
    root: np.ndarray
    command: np.ndarray = None
    out: np.ndarray = None

    x = property(lambda self: self.bits[:self.wires])
    z = property(lambda self: self.bits[self.wires:2 * self.wires])
    m = property(lambda self: self.bits[2 * self.wires:])
    # _Node.lookup per node, i and j ints or rows; an entry's own axis first.
    lookup = staticmethod(lambda table, i, j=slice(None): np.asarray(table, np.uint8)[i, j].T)

    def children(self, parents, probs, *bits):
        """The records of branches of the nodes `parents`: each its parent's,
        prob times `probs`, and `bits` (one row each) appended to m."""
        new = np.array(bits, np.uint8).reshape(-1, len(parents))
        return _Columns(np.concatenate((self.bits[:, parents], new)), self.wires,
                        self.prob[parents] * probs, self.root[parents])


@dataclass(slots=True)
class _Level:
    """The nodes at one depth of the outcome tree and their registers: a
    run's one _Node, or a walk's _Columns. Labels follow the events, not the
    outcomes, so every node's register holds the same `labels` (qubit i is
    labels[i]) and `amps` stacks them, row b for node b (None with no
    register). A level is consumed by _step."""

    amps: np.ndarray | None
    labels: list
    nodes: _Node | _Columns

    def qubit(self, label) -> int:
        return self.labels.index(label)

    def append(self, amplitudes, labels):
        self.amps = qsim.tensor_stack(self.amps, amplitudes)
        self.labels.extend(labels)

    def apply(self, gate, labels):
        self.amps = qsim.apply_stack(self.amps, gate, [self.qubit(l) for l in labels])

    def fork(self, pick, label, bras):
        """Measure `label`: a walk's nodes (`pick` None) by qsim.measure_stack,
        as arrays (parents, outcomes, probs) per branch; a run's node by
        qsim.measure_node, as its one branch (0, outcome, prob)."""
        qubit = self.qubit(label)
        del self.labels[qubit]
        if pick is None:
            parents, outcomes, probs, self.amps = qsim.measure_stack(self.amps, qubit, bras)
            return parents, outcomes, probs
        outcome, prob, post = qsim.measure_node(self.amps[0], qubit, bras, pick)
        self.amps = post[None]
        return 0, outcome, prob

    def relabel(self, old, new):
        self.labels[self.qubit(old)] = new

    def state(self, ordered_labels) -> StateVector:
        """A run's register (its one node's), `ordered_labels` as qubits 0, 1..."""
        perm = [self.qubit(l) for l in ordered_labels]
        (amps,) = self.amps
        psi = amps.reshape([2] * len(self.labels), order="F")
        return StateVector(np.transpose(psi, axes=perm).reshape(-1, order="F"), check=False)


def _level(state, labels, wires) -> _Level:
    """A level of one node at the identity frames of `wires` wires: a copy of
    `state` (None: no register) on `labels`."""
    node = _Node([0] * wires, [0] * wires)
    if state is None:
        return _Level(None, [], node)
    return _Level(state.amplitudes[None].copy(), list(labels), node)


def _measurement(rng, forced, count):
    """The pick of a run, which follows one branch per measurement: pick(p0)
    is the outcome of one whose outcome 0 has probability p0, by one
    rng.random() against p0, or the next of the `forced` bits, which must
    number the run's `count` measurements (ValueError if neither is given).
    qsim.draw calls it; the walk passes None."""
    if forced is None and rng is None and count:
        raise ValueError(f"no rng: a run of {count} measurements needs an rng or forced outcomes")
    if forced is None:
        return lambda p0: 0 if rng.random() < p0 else 1
    forced = list(forced)
    if len(forced) != count:
        more = "more" if len(forced) > count else "fewer"
        raise ValueError(f"{more} forced outcomes than measurements: {len(forced)} for {count}")
    queue = iter(forced)

    def pick(p0):
        want = next(queue)
        try:
            bit = operator.index(want)  # True and np.int64 become an int
        except TypeError:
            bit = None
        if bit not in (0, 1):
            raise DegenerateMeasurementError(f"forced outcome {want!r} is impossible")
        return bit
    return pick


def _deliver(channel, rng_loss, rng_mask, transcript, round_index, device=None):
    """Run the send/ack loop until the client accepts a particle. A particle
    is lost when `rng_loss` (None on a lossless channel) draws it; under
    masking (`rng_mask` set) the client accepts an arrived one on a fair coin."""
    resends = 0
    for _ in range(RETRY_CAP):
        transcript.append(_message(round_index, B2A, "QUBIT_SENT"))
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
            transcript.append(_message(round_index, A2B, "ARRIVED"))
            return resends
        transcript.append(_message(round_index, A2B, "LOST_RESEND"))
        resends += 1
    raise RetryLimitError(
        f"round {round_index}: no accepted delivery in {RETRY_CAP} attempts"
    )


def _start(program: AngleProgram, input_state: StateVector) -> _Level:
    """The start level; it holds no register if `input_state` is None."""
    if input_state is None:
        return _level(None, (), program.num_wires)
    if input_state.num_qubits != program.num_wires:
        raise ValueError("input state does not match the program's wire count")
    return _level(input_state, [("wire", w) for w in range(program.num_wires)],
                  program.num_wires)


def _step(level, event, pick, pairs=None):
    """The level that follows `level` through one event: protocol 2's round,
    bridge or extract, or a chain's (_chain) deliver, teleport, vertex or
    readout. Each gate and measurement is one kernel call on the whole stack.
    A run (`pick` set) updates its _Node along the branch `pick` names; a
    walk (`pick` None) gives each node a child per possible branch, node by
    node and outcome 0 first, in its _Columns. Both records index alike, so
    each event has one body: x[w], z[w] and m[r - 1] are a run's ints and a
    walk's rows. A child's probability is its parent's times the branch's.
    `pairs` is a substituted pair's table (_pair_table), or None for Bell
    pairs."""
    kind, nodes = event[0], level.nodes
    if kind == "round":
        return _round(level, event[1], pick, pairs)
    if kind in ("deliver", "done"):
        return level  # classical only: the run loop sends the messages
    if kind == "bridge":  # the CZ: each wire's z takes the other's x
        _, (wa, wb) = event
        if level.amps is not None:
            level.apply(qsim.CZ, [("wire", wa), ("wire", wb)])
        nodes.z[wa] ^= nodes.x[wb]
        nodes.z[wb] ^= nodes.x[wa]
        return level
    if kind == "extract":
        # The Pauli factors the group's word leaves on each branch: the row of
        # its fold table that the group's bits spell as a binary number.
        group, row = event[1], 0
        for r in group.rounds:
            row = 2 * row + nodes.m[r - 1]
        folds, n = nodes.lookup(group.entry.fold_bits, row), len(group.wires)
        for i, w in enumerate(group.wires):  # composed: the XOR of the frames' bits
            nodes.x[w] ^= folds[i]
            nodes.z[w] ^= folds[n + i]
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
        if pick is None:  # a walk's mz branch of each mx branch
            z_of, mz, pz = z_of[x_of], mz[x_of], pz[x_of]
        level.nodes = nodes.children(z_of, pz * px, mz, mx)
        return level
    if kind == "readout":
        # The client reads the last vertex in Z; X^mx and frame.x flip her bit.
        _, vertex, teleported = event
        of, bits, probs = level.fork(pick, vertex, qsim.Z_BRAS)
        nodes = level.nodes = nodes.children(of, probs)
        nodes.out = bits ^ (nodes.m[-1] if teleported else 0) ^ nodes.x[0]
        return level
    if kind == "vertex":
        # The client measures a delivered vertex at commands[sign][root]: the
        # base angle, negated for sign frame.x ^ mx. A teleported particle
        # carries X^mx Z^mz from the last two reported bits, and Z^mz flips
        # her outcome s: (x, z) -> (s ^ mz ^ z, x), a round's with a = 0.
        _, vertex, commands, teleported = event
        ks = nodes.lookup(commands, nodes.x[0] ^ (nodes.m[-1] if teleported else 0), nodes.root)
        of, s, probs = level.fork(pick, vertex, qsim.ROTATED_BRAS[ks])
        nodes = level.nodes = nodes.children(of, probs)
        # A walk's x[0] is a view of its bits: z takes it before x changes.
        nodes.z[0], nodes.x[0] = nodes.x[0], s ^ (nodes.m[-2] if teleported else 0) ^ nodes.z[0]
        return level


# The server's round on the wire w, as a map of his half s: the CZ's sign
# (-1)^(s w), then the wire's X-basis read-out <x_m|w>, indexed [m, s, w].
_CZ_THEN_X = np.array([[1, 1], [1, -1]])[None] * qsim.ROTATED_BRAS[0][:, None, :]


def _pair_table(amplitudes):
    """The client's part of every round on one pair (server half qubit 0):
    (p0, maps), p0[k] the probability that she reads a = 0 at Angle(k) and
    maps[2k + a] the server's 2x2 maps, one per reported bit m, M[m][s, w] =
    v[s] (-1)^(s w) <x_m|w>, v the normalized state (or zero, if impossible)
    her outcome leaves on his half."""
    halves = np.matmul(qsim.ROTATED_BRAS, amplitudes.reshape(2, 2))  # [k, a, s]
    # Each outcome's probability is its norm's share, so two equal norms give
    # exactly 1/2; each v is its half divided by its own norm.
    norms = (abs(halves) ** 2).sum(axis=2)  # [k, a]
    probs = norms / norms.sum(axis=1, keepdims=True)
    scale = np.zeros_like(norms)
    np.divide(1.0, np.sqrt(norms), out=scale, where=probs >= qsim.DEGENERATE_PROB)
    maps = (halves * scale[..., None])[:, :, None, :, None] * _CZ_THEN_X
    maps.setflags(write=False)
    return tuple(probs[:, 0].tolist()), maps.reshape(16, 2, 2, 2)


@functools.cache
def _bell_table():
    """The honest pair's table, built on first use."""
    return _pair_table(qsim.bell_pair().amplitudes)


def _round(level, plan, pick, pairs):
    """One protocol-2 round on every node of `level`.

    The server hands the client one half of a fresh pair (a Bell pair, or
    the one `pairs` tables); she measures it at the command angle (outcome
    a), he entangles his half with the wire by CZ, measures the wire in X
    (reported bit m) and keeps his half as the new wire. Branch (a, m) leaves
    Z^a on the fresh qubit and X^m H on the old frame, (x, z) -> (m ^ z,
    a ^ x), and multiplies the probability by pa * pm (first: certificates
    print noise-level sums of these products). Her outcome depends on the
    pair alone (no-signaling), so her part is the pair's table: a's p0[k]
    and the state a leaves on his half. His is one 2x2 block per m that puts
    his half on top of the register, where the wire's label moves. A run
    draws a by qsim.draw and m by qsim.measure_node; the walk keeps every
    branch by qsim.branches and qsim.measure_stack.

    With no register (a run) a and m are fair coins, drawn in that order: a
    Bell pair's client half is maximally mixed, and after the CZ the server's
    half has <Z> = 0, so m is unbiased for any angle and state."""
    nodes, wire, w = level.nodes, ("wire", plan.wire), plan.wire
    ks = nodes.lookup(plan.commands, 0 if plan.driver is None else nodes.m[plan.driver - 1],
                      nodes.z[w])
    if level.amps is None:  # a run with no register: two fair coins
        a_of, a, pa, m, pm = 0, pick(0.5), 0.5, pick(0.5), 0.5
    else:
        p0, maps = pairs or _bell_table()
        if pick is None:
            a_of, a, pa = qsim.branches(np.array(p0)[ks])
            level.amps = level.amps[a_of]
            m_of, m, pm = level.fork(None, wire, maps[2 * ks[a_of] + a])
            a_of, a, pa = a_of[m_of], a[m_of], pa[m_of]  # the a branch of each m branch
        else:
            a_of, (a, pa) = 0, qsim.draw(p0[ks], pick)
            _, m, pm = level.fork(pick, wire, maps[2 * ks + a])
        level.labels.append(wire)
    nodes.command = ks
    nodes = level.nodes = nodes.children(a_of, pa * pm, m)
    nodes.x[w], nodes.z[w] = m ^ nodes.z[w], a ^ nodes.x[w]
    return level


_DONE = ("done",)


def _run(level, events, pick, *, channel=None,
         loss_masking=False, device=None, pairs=None):
    """Run `events` from a level of one node along the one branch `pick`
    follows: returns the final level and a RunResult. The loop owns the
    messages: a delivery (with resends on a lossy channel) before each round
    and "deliver" event, one X_RESULT per reported bit, in the round of the
    last delivery, and DONE at "done". A device sees each command angle."""
    # Each stream exists only where it can change an outcome. The loss stream
    # is a spawned child of rng_seed: callers seed their outcome stream with
    # [seed, 0], and one shared stream would let a loss decide the last bit.
    rng_loss = rng_mask = None
    if channel is not None and channel.loss_prob > 0.0:
        child = np.random.SeedSequence(channel.rng_seed, spawn_key=(0,))
        rng_loss = np.random.default_rng(child)
    if channel is not None and loss_masking:
        rng_mask = np.random.default_rng([channel.rng_seed, 1])
    transcript, resends, rnd = [], 0, 0
    for event in events:
        kind = event[0]
        if kind in ("round", "deliver"):
            rnd = event[1].round_index if kind == "round" else event[1]
            resends += _deliver(channel, rng_loss, rng_mask, transcript, rnd, device)
        elif kind == "done":
            transcript.append(_message(rnd, A2B, "DONE"))
        reported = len(level.nodes.m)
        level = _step(level, event, pick, pairs)
        node = level.nodes
        if kind == "round" and device is not None:
            device.observe_angle(node.command)
        for m in node.m[reported:]:
            transcript.append(_message(rnd, B2A, "X_RESULT", m))
    node = level.nodes
    return level, RunResult(
        transcript=transcript, final_frames=list(map(pauli.frame, node.x, node.z)),
        retransmission_count=resends, branch_probability=node.prob, rounds_completed=rnd)


# A walk holds a whole level in memory, a record and a register row per
# node, so it refuses one whose next level could pass this many amplitudes,
# as qsim.CAPACITY does for one register. The largest level the tests, verify
# and the certify benchmark walk is 2^15 (tp's "H 0; S 0; H 0" at its last
# teleport): the budget leaves room for one more round or teleport.
WALK_AMPLITUDES = 1 << 17
# The most one event multiplies a level's amplitudes by: a round or a
# teleport forks each node four ways and keeps the register's width.
_GROWTH = {"round": 4, "teleport": 4}


def _walk(level, events):
    """The leaves of a lossless, honest run's outcome tree, exactly: the last
    level of a walk that advances the whole frontier one event at a time.

    Each row of `level`'s stack is a root at the identity frames of its one
    record. Measurements fork every node on its possible outcomes (0 first)
    and children keep their parents' order, so each root's leaves are
    contiguous, in the order of itertools.product over the outcome bits.
    Before an event that could take a level (nodes times 2^n amplitudes, all
    roots) past WALK_AMPLITUDES, it raises CapacityError."""
    count, wires = len(level.amps), len(level.nodes.x)
    level.nodes = _Columns(np.zeros((2 * wires, count), np.uint8), wires, np.ones(count),
                           np.arange(count))
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
    for clicks. A run that has rounds needs `rng` to draw its outcomes, or
    `forced_outcomes`, an (a, m) pair per round in place of draws. With
    `input_state` None the run holds no register and each round's a and m
    are fair coins (_round); m's p0 on the register path can miss 1/2 by
    rounding error, so the two paths differ only for a draw in that gap
    (see README). A substituted pair or forced outcomes need a register.
    """
    level = _start(program, input_state)
    if input_state is None and (pair is not None or forced_outcomes is not None):
        raise ValueError("a substituted pair or forced outcomes need a register")
    if forced_outcomes is not None:
        try:
            forced_outcomes = [b for a, m in forced_outcomes for b in (a, m)]
        except (TypeError, ValueError):
            raise ValueError("forced outcomes must be (a, m) pairs, one per round") from None
    level, result = _run(
        level, [*program.events, _DONE],
        _measurement(rng, forced_outcomes, 2 * program.num_rounds),
        channel=channel, loss_masking=loss_masking, device=device,
        pairs=None if pair is None else _pair_table(pair.amplitudes),
    )
    if level.amps is not None:
        result.logical_output_state = level.state(
            [("wire", w) for w in range(program.num_wires)])
    return result


def walk_protocol2(program: AngleProgram, input_state: StateVector):
    """(m_bits, prob) for every leaf of a lossless, honest protocol-2 run, in
    the order of itertools.product over the per-round (a, m) bits. It needs
    an input state: on fair coins a certificate would assume what it checks."""
    if input_state is None:
        raise ValueError("the walk needs an input state")
    leaves = _walk(_start(program, input_state), program.events).nodes
    bits = zip(*leaves.m.tolist()) if program.num_rounds else [()] * len(leaves.prob)
    return zip(bits, leaves.prob.tolist())


def walk_protocol1(states, plans):
    """(posts, probs, roots) over the leaves of one walk of protocol 1's vertex
    step (adaptive sign included): root r is register states[r] under
    plans[r], all measuring the same vertices. Leaf i has the server state
    posts[i] (the unmeasured qubits, ascending), probs[i] and roots[i]; each
    root's leaves are contiguous, in the order of itertools.product over her
    outcomes, and equal bit for bit those of a walk of that root alone."""
    vertices = [step.vertex for step in plans[0]]
    if any([step.vertex for step in plan] != vertices for plan in plans):
        raise ValueError("every plan must measure the same vertices")
    ks = np.array([[step.base_angle.k for step in plan] for plan in plans]).reshape(len(plans), -1)
    events = [("vertex", v, np.array((k, -k % 8)), False) for v, k in zip(vertices, ks.T)]
    states = np.asarray(states, complex)
    start = _Level(states, list(range(states.shape[1].bit_length() - 1)), _Node([0], [0]))
    leaves = _walk(start, events)
    return leaves.amps, leaves.nodes.prob, leaves.nodes.root


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
    pick = _measurement(rng, None if hasattr(rng, "random") else rng, 2)
    level, result = _run(_start(program, register), program.events, pick, channel=channel)
    # From the identity frame a round leaves the frame (x, z) = (m, a).
    node = level.nodes
    out = level.state([("wire", w) for w in range(register.num_qubits)])
    return node.z[wire_qubit], node.m[-1], out, result.transcript


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
        u = qsim.ROTATED_BRAS[step.base_angle.k] @ u
    return u


def _chain(resource, plan, teleported: bool):
    """Protocol 1 (or, teleported, tp) as a start node, events and the number
    of measurements in a run: one per vertex, plus two per teleport. Vertex
    v is delivered in round v + 1 (in tp through a fresh pair); the client
    measures vertices 0..n-2 at the plan's angles and reads out vertex n-1
    in the computational basis."""
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
            k = plan[vertex].base_angle.k
            events.append(("vertex", vertex, ((k,), (-k % 8,)), teleported))
        else:
            events.append(("readout", vertex, teleported))
    start = _level(resource.state, range(n), 1)
    return start, events + [_DONE], n * (3 if teleported else 1)


def _run_chain(resource, plan, teleported, rng, forced_outcomes, channel=None):
    start, events, count = _chain(resource, plan, teleported)
    level, result = _run(start, events, _measurement(rng, forced_outcomes, count), channel=channel)
    result.outcome_bits = [level.nodes.out]
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


def enumerate_distribution(runner, resource, plan, *args, num_bits):
    """Exact outcome distribution {outcome_bits tuple: probability} of
    run_protocol1 or run_teleport_variant on `resource` and `plan`: the
    read-out bits summed over the leaves of one walk (the runner never runs,
    so its other arguments change nothing). `num_bits` must be the number
    of measurements in a run: one per vertex, plus two per teleport."""
    if runner not in (run_protocol1, run_teleport_variant):
        raise ValueError("only the linear-cluster runners can be enumerated")
    teleported = runner is run_teleport_variant
    start, events, measured = _chain(resource, plan, teleported)
    if num_bits != measured:
        raise ValueError(f"a run measures {measured} bits, not {num_bits}")
    dist, leaves = {}, _walk(start, events).nodes
    for out, prob in zip(leaves.out.tolist(), leaves.prob.tolist()):
        dist[out,] = dist.get((out,), 0.0) + prob
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
