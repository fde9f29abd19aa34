"""Graph-state builders, stabilizer checks, and the gate-group entries.

The unit cell is two wires of three measured columns plus one output column.
Its bridge placement and per-operation angle schedules are data: one row per
catalog cell in `_CATALOG` and per one-wire block in BLOCK_TABLE. `group_entry`
builds an entry from its row, once per process and only when first asked, and
checks it on every outcome branch as it builds it; a test derives each catalog
row by exhaustive search. `calibrate_unit_cell` views the catalog.

`branch_frames` is the one model of a gate group's word: it multiplies out
the group's rounds on every outcome branch, checks each word is Pauli * target
and tables the Pauli folds by the reported bits. Every entry keeps its table,
and protocol 2 closes every group by looking its folds up.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from . import pauli, qsim
from .errors import CalibrationError, CapacityError
from .qsim import StateVector


@dataclass(frozen=True)
class GraphSpec:
    num_vertices: int
    edges: frozenset  # of frozenset({u, v}) pairs

    def __post_init__(self):
        for e in self.edges:
            if len(e) != 2:
                raise ValueError("self-loop edge")
            u, v = sorted(e)
            if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
                raise ValueError("edge references unknown vertex")

    @cached_property
    def _adjacency(self):
        adjacent = {}
        for u, v in self.edge_list():
            adjacent.setdefault(u, []).append(v)
            adjacent.setdefault(v, []).append(u)
        return {v: sorted(us) for v, us in adjacent.items()}

    def neighbors(self, v: int):
        return list(self._adjacency.get(v, ()))

    def edge_list(self):
        return sorted(tuple(sorted(e)) for e in self.edges)


def make_graph(num_vertices, edges):
    return GraphSpec(num_vertices, frozenset(frozenset(e) for e in edges))


def linear_cluster(n: int) -> GraphSpec:
    """A 1-D chain: vertex i is joined to vertex i + 1."""
    return make_graph(n, [(i, i + 1) for i in range(n - 1)])


class ResourceState:
    """A graph plus the realized graph state; checked stabilizer-by-stabilizer."""

    def __init__(self, graph: GraphSpec, state: StateVector, check: bool = True):
        if state.num_qubits != graph.num_vertices:
            raise ValueError(
                f"{state.num_qubits}-qubit state for a {graph.num_vertices}-vertex graph"
            )
        self.graph = graph
        self.state = state
        if check:
            bad = [
                v
                for v in range(graph.num_vertices)
                if abs(stabilizer_expectation(self, v) - 1.0) > 1e-10
            ]
            if bad:
                raise ValueError(f"state is not the graph state (vertices {bad})")


@cache
def _index_bits() -> np.ndarray:
    """[b, i] is bit b of amplitude index i: one uint8 plane per qubit,
    filled by slice assignment on first use."""
    bits = np.zeros((qsim.CAPACITY, 1 << qsim.CAPACITY), dtype=np.uint8)
    for b in range(qsim.CAPACITY):
        bits[b].reshape(-1, 2, 1 << b)[:, 1, :] = 1
    bits.setflags(write=False)
    return bits


def build_graph_state(graph: GraphSpec) -> ResourceState:
    """prod_{(u,v) in E} CZ_uv |+>^n, computed amplitude by amplitude.

    Amplitude i is 2^(-n/2) * (-1)^e(i), where e(i) counts the edges with
    both ends set in i (Hein, Eisert and Briegel, PRA 69, 062311, 2004): each
    CZ negates exactly those indices. e(i) mod 2 is the XOR over the edges of
    one AND of two uint8 bit planes of the index. The result is exact, entry
    for entry equal to applying the CZs to plus_state one by one.
    """
    n = graph.num_vertices
    if n > qsim.CAPACITY:
        raise CapacityError(f"{n} vertices exceeds capacity {qsim.CAPACITY}")
    planes = _index_bits()[:, : 1 << n]
    parity = np.zeros(1 << n, dtype=np.uint8)  # e(i) mod 2
    for u, v in graph.edge_list():
        parity ^= planes[u] & planes[v]
    amp = 2.0 ** (-n / 2)
    state = StateVector(np.where(parity, -amp, amp), check=False)
    return ResourceState(graph, state, check=False)


def stabilizer_expectation(resource: ResourceState, vertex: int) -> float:
    """<psi| X_v prod_{u in N(v)} Z_u |psi> for the resource's graph: one
    qsim.apply_pauli and one np.vdot. apply_pauli moves and signs the
    amplitudes exactly, so the value equals the vdot of the dense X/Z chain."""
    if not 0 <= vertex < resource.graph.num_vertices:
        raise IndexError(f"vertex {vertex} out of range")
    neighbors = resource.graph._adjacency.get(vertex, ())  # read, not copied
    moved = qsim.apply_pauli(resource.state, 1 << vertex, neighbors)
    value = np.vdot(resource.state.amplitudes, moved.amplitudes)
    return float(value.real)


# --------------------------------------------------------------------------
# Gate-group entries: one-wire blocks and calibrated unit cells
# --------------------------------------------------------------------------

ROUNDS_PER_CELL = 3


@dataclass(frozen=True)
class WireSchedule:
    """Command angles, one per round; round 3 may adapt on the round-1 bit."""

    base: tuple
    adapt3: tuple = None  # (k if m1 == 0, k if m1 == 1) overriding base[2]

    def angle_index(self, round_index: int, m1: int) -> int:
        if round_index == 2 and self.adapt3 is not None:
            return self.adapt3[m1]
        return self.base[round_index]


@dataclass(frozen=True)
class CellEntry:
    """A one- or two-wire group: schedules, bridge, target and the Pauli
    folds it leaves on each outcome branch (see branch_frames)."""

    name: str
    wire0: WireSchedule
    wire1: WireSchedule  # None for a one-wire group
    bridge: tuple  # (i, j) after-round anchors, or None
    target: np.ndarray  # 2x2, or 4x4 as qsim.kron(wire1_factor, wire0_factor)
    frames: dict  # branch_frames(wire0, wire1, bridge, target)

    @cached_property
    def fold_bits(self) -> tuple:
        """`frames` as rows of bits (x of each wire, then z), row i for the bits
        i spells in binary: tuples of ints, so a run reads them as ints."""
        keys = itertools.product((0, 1), repeat=len(next(iter(self.frames))))
        return tuple(tuple(f.x for f in self.frames[bits]) + tuple(f.z for f in self.frames[bits])
                     for bits in keys)


@dataclass(frozen=True)
class UnitCellCalibration:
    bridge: tuple  # placement used by the entangling entry (graph edge columns)
    entries: dict  # catalog name -> CellEntry, in catalog order


# The gain R_k H that one round puts on its wire, indexed by the signed angle
# k in -7..7: R_{-k} = R_{8-k}, so a negative index reads the right entry.
# R_k H = (H R_k)^T, the transpose of the round's bras, bit for bit.
ROUND_GAINS = tuple(bras.T.copy() for bras in qsim.ROTATED_BRAS)


def _wire_word(schedule: WireSchedule, m_bits, rounds=None) -> np.ndarray:
    """Accumulated single-wire operator of `rounds` (default: all of the
    schedule's) for given reported bits.

    Each round contributes R_{(-1)^m * k} H on the left; the command sign
    adaptation cancels the frame's z bit, so only the residual m sign remains.
    """
    w = np.eye(2, dtype=complex)
    for r in range(len(schedule.base)) if rounds is None else rounds:
        k = schedule.angle_index(r, m_bits[0])
        w = ROUND_GAINS[-k if m_bits[r] else k] @ w
    return w


_CZ4 = qsim.CZ.entries


def cell_operator(w0: WireSchedule, w1: WireSchedule, bridge, m0_bits, m1_bits):
    """4x4 operator realized by one cell on a given outcome branch."""
    if bridge is None:
        return qsim.kron(_wire_word(w1, m1_bits), _wire_word(w0, m0_bits))
    i, j = bridge
    before = qsim.kron(_wire_word(w1, m1_bits, range(j)), _wire_word(w0, m0_bits, range(i)))
    after = qsim.kron(
        _wire_word(w1, m1_bits, range(j, ROUNDS_PER_CELL)),
        _wire_word(w0, m0_bits, range(i, ROUNDS_PER_CELL)),
    )
    return after @ _CZ4 @ before


def branch_frames(w0, w1, bridge, target):
    """{m bits: per-wire folds} over every outcome branch, or None if some
    branch's word is not Pauli * target.

    The key lists the reported bits of the group's rounds, wire 0's first;
    the folds (low slot first) are the Pauli factors P with word = P @ target
    up to phase. w1=None checks w0 alone. The all-zero branch is tried first.
    """
    n0 = len(w0.base)
    n = n0 + (0 if w1 is None else len(w1.base))
    table = {}
    for bits in itertools.product((0, 1), repeat=n):
        if w1 is None:
            op = _wire_word(w0, bits)
        else:
            op = cell_operator(w0, w1, bridge, bits[:n0], bits[n0:])
        folds = pauli.match_frames(op, target)
        if folds is None:
            return None
        table[bits] = folds
    return table


def make_entry(name, w0, w1, bridge, target) -> CellEntry:
    """The entry with its branch-frame table; CalibrationError if some branch
    misses `target`."""
    frames = branch_frames(w0, w1, bridge, target)
    if frames is None:
        raise CalibrationError(f"{name} is not Pauli * target on every branch")
    return CellEntry(name, w0, w1, bridge, target, frames)


_I2 = np.eye(2, dtype=complex)
_H2 = qsim.H.entries

# One-wire groups the compiler emits: base angle indices (three rounds, or
# none for a Pauli), round-3 adaptation on the block's first reported bit, and
# the realized gate. group_entry checks each on every outcome branch and keeps
# its table of Pauli folds.
BLOCK_TABLE = {
    "H": ((0, 0, 0), None, qsim.H.entries),
    "S": ((2, 2, 0), None, qsim.S.entries),
    "SDG": ((2, 2, 0), None, qsim.SDG.entries),
    "I": ((2, 2, 2), None, _I2),
    "TH": ((7, 0, 0), (0, 2), qsim.T.entries @ _H2),
    "TDGH": ((1, 0, 0), (0, 2), qsim.TDG.entries @ _H2),
    "X": ((), None, qsim.X.entries),
    "Z": ((), None, qsim.Z.entries),
}

# The unit-cell catalog, each row in make_entry's argument order: wire-0 and
# wire-1 schedules, bridge anchors and target. "A x I" means A acts on wire 0
# (the 4x4 low index bit), as does CZCNOT's control; a one-wire cell idles
# wire 1 on IxI's schedule. Each row is the first hit of a fixed search that
# a test re-runs, and group_entry checks it on every branch when it builds it.
_IDLE = WireSchedule((2, 2, 2))
_CATALOG = {
    "IxI": (_IDLE, _IDLE, None, qsim.kron(_I2, _I2)),
    "SHxI": (WireSchedule((0, 0, 2)), _IDLE, None, qsim.kron(_I2, qsim.S.entries @ _H2)),
    "STHxI": (WireSchedule((7, 0, 2), (2, 0)), _IDLE, None,
              qsim.kron(_I2, qsim.S.entries @ qsim.T.entries @ _H2)),
    "STDGHxI": (WireSchedule((7, 0, 0), (0, 2)), _IDLE, None,
                qsim.kron(_I2, qsim.S.entries @ qsim.TDG.entries @ _H2)),
    "HxI": (WireSchedule((0, 0, 0)), _IDLE, None, qsim.kron(_I2, _H2)),
    "CZCNOT": (WireSchedule((2, 2, 0)), _IDLE, (0, 2), _CZ4 @ qsim.CNOT.entries),
    "CZ": (_IDLE, _IDLE, (0, 0), _CZ4),
}

_ENTRIES = {}  # name -> CellEntry, each built by group_entry on first use


def group_entry(name) -> CellEntry:
    """The gate group `name` with its branch-frame table: a BLOCK_TABLE
    block or a _CATALOG cell. Built once, on first use; CalibrationError if
    some branch misses the row's target."""
    entry = _ENTRIES.get(name)
    if entry is None:
        if name in BLOCK_TABLE:
            base, adapt3, target = BLOCK_TABLE[name]
            entry = make_entry(name, WireSchedule(base, adapt3), None, None, target)
        else:
            entry = make_entry(name, *_CATALOG[name])
        _ENTRIES[name] = entry
    return entry


def calibrate_unit_cell() -> UnitCellCalibration:
    """Every catalog entry (from group_entry, so each is built and checked
    at most once per process) and the entangling cell's bridge placement."""
    entries = {name: group_entry(name) for name in _CATALOG}
    return UnitCellCalibration(bridge=entries["CZCNOT"].bridge, entries=entries)


# --------------------------------------------------------------------------
# Cell graph and tiling
# --------------------------------------------------------------------------


def _cell_columns(cells_deep: int) -> int:
    return ROUNDS_PER_CELL * cells_deep + 1


def tile(cells_wide: int, cells_deep: int) -> GraphSpec:
    """Brickwork-style tiling: cells_wide+1 wires, one cell row per wire pair.

    A row bridges only in cells whose depth parity matches the row parity, so
    vertically adjacent rows bridge in different cell columns. tile(1, 1) is
    the calibrated two-wire unit cell: 4 columns per wire.
    """
    if cells_wide < 1 or cells_deep < 1:
        raise ValueError("tiling dimensions must be >= 1")
    wires = cells_wide + 1
    cols = _cell_columns(cells_deep)

    def vid(w, c):
        return w * cols + c

    edges = [
        (vid(w, c), vid(w, c + 1)) for w in range(wires) for c in range(cols - 1)
    ]
    bi, bj = group_entry("CZCNOT").bridge
    for row in range(cells_wide):
        for depth in range(cells_deep):
            if depth % 2 == row % 2:
                base = ROUNDS_PER_CELL * depth
                edges.append((vid(row, base + bi), vid(row + 1, base + bj)))
    return make_graph(wires * cols, edges)
