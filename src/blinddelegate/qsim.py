"""Dense state-vector / density-matrix engine for small registers.

Conventions used everywhere in this package:

* Qubit 0 is the least-significant bit of the amplitude index, so the
  amplitude of |q_{n-1} ... q_1 q_0> sits at index sum(q_i << i).
* Two-qubit gate matrices are written in kron(U_high, U_low) order,
  i.e. the 4x4 index bit 0 belongs to the *first* target.
* Measured qubits are removed from the register (the state shrinks by
  one qubit; indices above the measured one shift down by one). A
  measurement by r x 2 blocks (measure_stack) puts the qubit the blocks
  carry on top of the register instead.
* State comparisons are insensitive to global phase.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DegenerateMeasurementError

# Dense simulation budget: 2^14 amplitudes keeps every test well under a second.
CAPACITY = 14

STATE_TOL = 1e-10
MATRIX_TOL = 1e-12


@dataclass(frozen=True)
class Angle:
    """A rotation angle restricted to the eighth-turn grid theta = k*pi/4."""

    k: int

    def __post_init__(self):
        try:  # True and np.int64 become an int
            object.__setattr__(self, "k", operator.index(self.k) % 8)
        except TypeError:
            raise TypeError(f"angle index {self.k!r} is not an integer") from None

    @property
    def radians(self) -> float:
        return self.k * np.pi / 4.0

    def __repr__(self):
        return f"Angle({self.k})"


ALL_ANGLES = tuple(Angle(k) for k in range(8))


class GateMatrix:
    """A 2x2 or 4x4 unitary; unitarity is enforced at construction."""

    def __init__(self, entries, name: str = ""):
        m = np.asarray(entries, dtype=complex)
        if m.shape not in ((2, 2), (4, 4)):
            raise ValueError(f"gate must be 2x2 or 4x4, got {m.shape}")
        if np.abs(m.conj().T @ m - np.eye(m.shape[0])).max() > MATRIX_TOL:
            raise ValueError(f"matrix is not unitary within {MATRIX_TOL}")
        self.entries = m
        self.entries.setflags(write=False)
        self.name = name

    @property
    def num_qubits(self) -> int:
        return 1 if self.entries.shape[0] == 2 else 2

    def __repr__(self):
        return f"GateMatrix({self.name or self.entries.shape})"


def rotation(theta: Angle) -> GateMatrix:
    """R_theta = diag(1, e^{i theta}); S = R_{pi/2}, T = R_{-pi/4}."""
    return GateMatrix(np.diag([1.0, np.exp(1j * theta.radians)]), f"R{theta.k}")


H = GateMatrix(np.array([[1, 1], [1, -1]]) / np.sqrt(2), "H")
X = GateMatrix(np.array([[0, 1], [1, 0]]), "X")
Z = GateMatrix(np.diag([1.0, -1.0]), "Z")
S = rotation(Angle(2))
SDG = rotation(Angle(6))
T = rotation(Angle(7))
TDG = rotation(Angle(1))
CZ = GateMatrix(np.diag([1.0, 1.0, 1.0, -1.0]), "CZ")
# Control = 4x4 index bit 0 (the first target wire), target = bit 1.
CNOT = GateMatrix(
    np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=float),
    "CNOT",
)
# The circuit gate set, name -> matrix; the other gate tables derive from it.
GATES = {"H": H, "S": S, "SDG": SDG, "T": T, "TDG": TDG, "X": X, "Z": Z,
         "CZ": CZ, "CNOT": CNOT}


class StateVector:
    def __init__(self, amplitudes, check: bool = True):
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        n = len(amps).bit_length() - 1
        if 2**n != len(amps) or n < 1:
            raise ValueError(f"amplitude length {len(amps)} is not a power of two >= 2")
        if n > CAPACITY:
            raise CapacityError(f"{n} qubits exceeds capacity {CAPACITY}")
        if check and abs(np.linalg.norm(amps) - 1.0) > STATE_TOL:
            raise ValueError("state vector is not normalized")
        self.num_qubits = n
        self.amplitudes = amps

    def __repr__(self):
        return f"StateVector(n={self.num_qubits})"


class DensityMatrix:
    def __init__(self, entries, check: bool = True):
        m = np.asarray(entries, dtype=complex)
        n = (m.shape[0] if m.ndim == 2 else 0).bit_length() - 1
        if n < 0 or m.shape != (2**n, 2**n):
            raise ValueError("density matrix must be square with power-of-two size")
        if check:
            if np.abs(m - m.conj().T).max() > MATRIX_TOL:
                raise ValueError("density matrix is not Hermitian")
            if abs(np.trace(m).real - 1.0) > MATRIX_TOL:
                raise ValueError("density matrix trace differs from 1")
            if np.linalg.eigvalsh(m).min() < -STATE_TOL:
                raise ValueError("density matrix has a negative eigenvalue")
        self.num_qubits = n
        self.entries = m

    def __repr__(self):
        return f"DensityMatrix(n={self.num_qubits})"


def basis_state(num_qubits: int, index: int = 0) -> StateVector:
    if num_qubits > CAPACITY:
        raise CapacityError(f"{num_qubits} qubits exceeds capacity {CAPACITY}")
    amps = np.zeros(2**num_qubits, dtype=complex)
    amps[index] = 1.0
    return StateVector(amps, check=False)


def plus_state(num_qubits: int = 1) -> StateVector:
    if num_qubits > CAPACITY:
        raise CapacityError(f"{num_qubits} qubits exceeds capacity {CAPACITY}")
    amps = np.full(2**num_qubits, 2.0 ** (-num_qubits / 2), dtype=complex)
    return StateVector(amps, check=False)


def random_state(num_qubits: int, rng: np.random.Generator) -> StateVector:
    amps = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return StateVector(amps / np.linalg.norm(amps), check=False)


_BELL = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def bell_pair() -> StateVector:
    """(|00> + |11>)/sqrt(2) on a fresh 2-qubit register."""
    return StateVector(_BELL.copy(), check=False)


def _check_targets(targets, num_qubits: int, gate: GateMatrix) -> list:
    targets = [int(t) for t in (targets if hasattr(targets, "__iter__") else [targets])]
    if len(set(targets)) != len(targets):
        raise ValueError("duplicate target qubit")
    for t in targets:
        if not 0 <= t < num_qubits:
            raise IndexError(f"target {t} out of range for {num_qubits} qubits")
    if gate.num_qubits != len(targets):
        raise ValueError("gate dimension does not match target count")
    return targets


def _rows(view: np.ndarray, axes, count: int) -> np.ndarray:
    """Contiguous copy of the stacked `view` (node axis first) with `axes`
    moved to the front, as `count` rows per node: shape (nodes, count, rest).

    Every kernel contracts each node's rows in one BLAS product, never by
    elementwise slice arithmetic, whose different rounding would move the
    last bits of seeded results and of the deviations certificates print.
    One node goes through np.dot (its norm through np.vdot); a stack keeps a
    leading node axis through np.matmul, which gives each node its own
    np.dot's floats. Nodes are never folded into the columns of one product,
    which rounds differently (tests/test_qsim.py pins this). measure_node
    stacks a round's two 2-row blocks into one np.dot, which keeps each
    block's floats; a bra's one-row products stay one per outcome.
    """
    return np.ascontiguousarray(view.transpose(axes)).reshape(len(view), count, -1)


def _product(matrix: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """matrix @ rows of each node: one node by np.dot, a stack by np.matmul."""
    return np.dot(matrix, rows[0])[None] if len(rows) == 1 else np.matmul(matrix, rows)


def tensor_stack(stack: np.ndarray, amplitudes: np.ndarray) -> np.ndarray:
    """Append `amplitudes`' qubits above every node's register (they get the
    high indices): one broadcast product, np.outer's per node."""
    return (amplitudes[None, :, None] * stack[:, None, :]).reshape(len(stack), -1)


def apply_stack(stack: np.ndarray, gate: GateMatrix, targets) -> np.ndarray:
    """`gate` applied to the target qubits of every node of `stack` (one row of
    amplitudes per node), as a new stack."""
    targets = _check_targets(targets, stack.shape[1].bit_length() - 1, gate)
    count = len(stack)
    if len(targets) == 1:
        # (node, hi, 2, lo) view: axis 2 is the target bit.
        view = stack.reshape(count, -1, 2, 1 << targets[0])
        out = _product(gate.entries, _rows(view, (0, 2, 1, 3), 2))
        out = out.reshape(count, 2, view.shape[1], view.shape[3]).transpose(0, 2, 1, 3)
    else:
        t0, t1 = targets
        low, high = min(t0, t1), max(t0, t1)
        # (node, hi, 2, mid, 2, lo) view: axis 2 is the high target bit, axis 4
        # the low one.
        view = stack.reshape(count, -1, 2, 1 << (high - low - 1), 2, 1 << low)
        # Rows are indexed (bit t1, bit t0), matching the 4x4 index bit 0 = targets[0].
        if t1 == high:
            axes, back = (0, 2, 4, 1, 3, 5), (0, 3, 1, 4, 2, 5)
        else:
            axes, back = (0, 4, 2, 1, 3, 5), (0, 3, 2, 4, 1, 5)
        out = _product(gate.entries, _rows(view, axes, 4))
        out = out.reshape(count, 2, 2, *view.shape[1::2]).transpose(back)
    return out.reshape(count, -1)


def apply_gate(state: StateVector, gate: GateMatrix, targets) -> StateVector:
    """Return gate applied to the given target qubits (no in-place mutation)."""
    return StateVector(apply_stack(state.amplitudes[None], gate, targets)[0], check=False)


# Amplitude indices 0 .. 2^CAPACITY - 1; apply_pauli slices them to a register.
_INDEX = np.arange(1 << CAPACITY)
_INDEX.setflags(write=False)

# _SIGNS[a, b] = (-1)^popcount(a & b) for 6-bit a and b (Sylvester's Hadamard
# matrix). The outer product of two rows is the sign row of 2^12 doubles that
# apply_pauli tiles over the Z qubits below _ROW_QUBITS.
_SIGNS = np.ones((1, 1))
for _ in range(6):
    _SIGNS = np.block([[_SIGNS, _SIGNS], [_SIGNS, -_SIGNS]])
_ROW_QUBITS = 11
_BLOCK_X_QUBITS = 5


def apply_pauli(state: StateVector, x_mask: int, z_qubits) -> StateVector:
    """Return X^x Z^z |psi> (Z on each of `z_qubits`, then X on each bit of
    `x_mask`) as a new state.

    Amplitude i is amplitude i ^ x_mask of the input, negated when the
    `z_qubits` bits of i ^ x_mask have odd parity. One index gather moves the
    amplitudes, or for one X bit at qubit _BLOCK_X_QUBITS or up, where it is
    cheaper, one block copy. The signs go onto the float64 view, where double
    2i is the real part of amplitude i and 2i + 1 its imaginary part. Z qubits
    below _ROW_QUBITS multiply every run of 2^12 doubles by one +-1 row; each
    higher one negates the half of the doubles it selects, in runs of 2^12 or
    more. Moving, negating a double and multiplying it by +-1.0 are exact, so
    the result equals the dense apply_gate chain bit for bit, signed zeros
    included. IndexError for a qubit or mask bit outside the register.
    """
    n = state.num_qubits
    z_qubits = [int(q) for q in z_qubits]
    for q in z_qubits:
        if not 0 <= q < n:
            raise IndexError(f"Z qubit {q} out of range for {n} qubits")
    if x_mask < 0 or x_mask >> n:
        raise IndexError(f"X mask {x_mask:#x} out of range for {n} qubits")
    if x_mask >> _BLOCK_X_QUBITS and not x_mask & (x_mask - 1):
        out = state.amplitudes.reshape(-1, 2, x_mask)[:, ::-1].copy().reshape(-1)
    else:
        out = state.amplitudes[_INDEX[: 1 << n] ^ x_mask]
    doubles = out.view(np.float64)
    row_bits = 0  # bit q + 1 for each low Z qubit q: the bits of a double's index
    for q in z_qubits:
        if q < _ROW_QUBITS:
            row_bits ^= 2 << q
        else:
            # (hi, 2, lo) view: axis 1 is bit q of i, so bit q of i ^ x_mask is
            # set in the slice at 1 ^ (bit q of x_mask).
            half = doubles.reshape(-1, 2, 2 << q)[:, 1 ^ ((x_mask >> q) & 1), :]
            np.negative(half, out=half)
    if row_bits:
        width = min(doubles.size, 2 << _ROW_QUBITS)
        high = _SIGNS[row_bits >> 6, : max(width >> 6, 1)]
        if bin(x_mask & (row_bits >> 1)).count("1") % 2:
            high = -high
        row = np.multiply.outer(high, _SIGNS[row_bits & 63, : min(width, 64)]).reshape(-1)
        for run in doubles.reshape(-1, width):  # 1-D runs skip numpy's broadcast path
            run *= row
    return StateVector(out, check=False)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron(a, b) of two matrices, entry for entry, as one broadcast product."""
    (ra, ca), (rb, cb) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(ra * rb, ca * cb)


def expand_gate(gate: GateMatrix, targets, num_qubits: int) -> np.ndarray:
    """Full 2^n x 2^n matrix of `gate` acting on `targets` (reference circuits only).

    Built without the kernel: kron places the gate on the lowest qubits, then
    the basis is relabelled so that layout bit b lands on qubit order[b].
    """
    if num_qubits > 6:
        raise CapacityError("expand_gate is for small reference unitaries only")
    targets = _check_targets(targets, num_qubits, gate)
    order = targets + [q for q in range(num_qubits) if q not in targets]
    full = kron(np.eye(2 ** (num_qubits - len(targets))), gate.entries)
    layout = np.arange(2**num_qubits)
    index = sum(((layout >> b) & 1) << q for b, q in enumerate(order))
    out = np.empty_like(full)
    out[np.ix_(index, index)] = full
    return out


# Outcomes less likely than this are impossible: a measurement that picks
# one raises, and one that keeps every branch drops it.
DEGENERATE_PROB = 1e-12


def draw(p0, pick):
    """(outcome, prob) of the one outcome pick(p0) names of a measurement
    whose outcome 0 has probability p0, clamped to [0, 1]; outcome 1 has
    1 - p0, and an impossible one raises DegenerateMeasurementError."""
    p0 = min(max(p0, 0.0), 1.0)
    outcome = pick(p0)
    prob = p0 if outcome == 0 else 1.0 - p0
    if prob < DEGENERATE_PROB:
        raise DegenerateMeasurementError(f"outcome {outcome} has probability {prob:.3e}")
    return outcome, prob


def branches(p0):
    """Every possible branch of measurements whose outcome 0 has probability
    p0[b], b = 0, 1, ...: arrays (parents, outcomes, probs), one entry per
    branch, node by node and outcome 0 first, impossible ones dropped. Each
    p0 is clamped to [0, 1] and outcome 1 has 1 - p0."""
    p0 = np.minimum(np.maximum(p0, 0.0), 1.0)
    probs = np.array((p0, 1.0 - p0)).T  # [node, outcome]
    parents, outcomes = (probs >= DEGENERATE_PROB).nonzero()
    return parents, outcomes, probs[parents, outcomes]


def measure_stack(stack: np.ndarray, qubit: int, bras):
    """Measure `qubit` of every node of `stack` (one row of amplitudes per
    node), node b in the basis whose bras (conjugated kets, outcome 0 first)
    are bras[b]; `bras` is (nodes, 2, 2), or one (2, 2) basis for all.

    Each outcome's bra may also be an r x 2 block, given per node as
    (nodes, 2, r, 2): outcome o maps the qubit to r amplitudes, block row j
    becoming bit j of a qubit put on top of the register (r = 2), where a
    bra (r = 1) removes it; such as the X read-out of a wire after a CZ with
    a qubit whose state the block carries.

    Every possible branch is kept (branches). Returns (parents, outcomes,
    probs, posts): arrays of each branch's node, outcome and probability, and
    the stack of its normalized post states. p0 is <b0|b0> of branch 0 =
    block_0 rows (|b0|^2 for one amplitude), clamped to [0, 1], outcome 1 has
    1 - p0, and a post is its rows divided by sqrt(prob), by np.matmul:
    measure_node's floats, whose one np.dot takes both of a round's blocks
    (a bra's outcomes take one product each).
    """
    count, bras = len(stack), np.asarray(bras)
    if bras.ndim < 4:
        bras = bras[..., None, :]
    rows = _rows(stack.reshape(count, -1, 2, 1 << qubit), (0, 2, 1, 3), 2)
    branch0 = np.matmul(bras[..., 0, :, :], rows)
    flat = branch0.reshape(count, 1, -1)
    if flat.shape[2] == 1:
        p0 = [float(abs(b) ** 2) for b in flat[:, 0, 0]]
    else:
        p0 = np.matmul(flat.conj(), flat.transpose(0, 2, 1))[:, 0, 0].real
    parents, outcomes, probs = branches(p0)
    branch1 = np.matmul(bras[..., 1, :, :], rows)
    posts = np.concatenate((branch0, branch1), axis=1).reshape(2 * count, -1)
    if len(parents) < 2 * count:
        posts = posts[2 * parents + outcomes]
    return parents, outcomes, probs, posts / np.sqrt(probs)[:, None]


def measure_node(amps, qubit, bras, pick):
    """(outcome, prob, post) of the branch pick names (by draw) of measure_stack
    on one register `amps` with (2, 2) bras or (2, r, 2) blocks: np.dot on
    contiguous rows (a strided view rounds apart; a qubit on top is a plain
    reshape), an np.vdot norm and the kept branch normalized in place, a stack
    node's floats. Both of a round's 2-row blocks come from one np.dot of the
    stacked (4, 2) block, each with its own product's floats; a bra's one-row
    products stay one per outcome (stacked, they round apart)."""
    r, flat = bras.size // 4, bras.reshape(-1, 2)  # r rows per outcome, stacked
    rows = amps.reshape(2, -1) if amps.size == 2 << qubit else np.ascontiguousarray(
        amps.reshape(-1, 2, 1 << qubit).swapaxes(0, 1)).reshape(2, -1)
    both = np.dot(flat, rows) if r > 1 else None
    branch0 = both[:r] if r > 1 else np.dot(flat[:1], rows)
    p0 = abs(branch0[0, 0]) ** 2 if branch0.size == 1 else np.vdot(branch0, branch0).real
    outcome, prob = draw(float(p0), pick)
    post = branch0 if outcome == 0 else both[r:] if r > 1 else np.dot(flat[1:], rows)
    post /= math.sqrt(prob)
    return outcome, prob, post.reshape(-1)


# ROTATED_BRAS[k][a]: the bra of outcome a when measuring at Angle(k), in the
# basis (|0> +- e^{-i theta}|1>)/sqrt2; the rows of H R_theta. The projector
# onto that outcome is np.outer(bra.conj(), bra). ROTATED_BRAS[ks] gives a
# stack's per-node bases.
ROTATED_BRAS = np.array([H.entries @ rotation(theta).entries for theta in ALL_ANGLES])
ROTATED_BRAS.setflags(write=False)
Z_BRAS = np.eye(2, dtype=complex)
Z_BRAS.setflags(write=False)


def matrices_equal_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float = STATE_TOL) -> bool:
    """True iff a = phase * b for some unit phase, within `tol` in the 2-norm
    (Frobenius for matrices)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return False
    flat_a, flat_b = a.reshape(-1), b.reshape(-1)
    idx = int(np.argmax(np.abs(flat_a) * np.abs(flat_b)))
    if abs(flat_a[idx]) * abs(flat_b[idx]) == 0.0:
        return bool(np.linalg.norm(flat_a - flat_b) < tol)
    phase = flat_a[idx] / flat_b[idx]
    phase /= abs(phase)
    return bool(np.linalg.norm(flat_a - phase * flat_b) < tol)


def fidelity(a: StateVector, b: StateVector) -> float:
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def frobenius_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    return float(np.linalg.norm(a.entries - b.entries))
