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
        object.__setattr__(self, "k", self.k % 8)

    @property
    def radians(self) -> float:
        return self.k * np.pi / 4.0

    def __neg__(self) -> "Angle":
        return Angle(-self.k % 8)

    def __add__(self, other: "Angle") -> "Angle":
        return Angle((self.k + other.k) % 8)

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

    def tensor(self, other: "StateVector") -> "StateVector":
        """Append `other`'s qubits above this register's (they get the high indices)."""
        return StateVector(tensor_stack(self.amplitudes[None], other.amplitudes)[0], check=False)

    def __repr__(self):
        return f"StateVector(n={self.num_qubits})"


class DensityMatrix:
    def __init__(self, entries, check: bool = True):
        m = np.asarray(entries, dtype=complex)
        n = int(np.log2(m.shape[0]))
        if m.shape != (2**n, 2**n):
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


def _as_tensor(state: StateVector) -> np.ndarray:
    # Fortran order makes tensor axis j correspond to qubit j.
    return state.amplitudes.reshape([2] * state.num_qubits, order="F")


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

    Every kernel contracts each node's rows in one BLAS product rather than
    with elementwise slice arithmetic: BLAS fuses multiply-adds, so a
    different formula would move the last bits of seeded results, including
    the noise-level deviations that certificate reports print. Nodes keep a
    leading axis and go through np.matmul, which gives each node exactly the
    floats of its own np.dot; they are never folded into the columns of one
    product, whose one-column rows take a different BLAS path and round
    differently (tests/test_qsim.py pins this).
    """
    return np.ascontiguousarray(view.transpose(axes)).reshape(len(view), count, -1)


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
        out = np.matmul(gate.entries, _rows(view, (0, 2, 1, 3), 2))
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
        out = np.matmul(gate.entries, _rows(view, axes, 4))
        out = out.reshape(count, 2, 2, *view.shape[1::2]).transpose(back)
    return out.reshape(count, -1)


def cz_stack(stack: np.ndarray, q0: int, q1: int) -> None:
    """CZ on qubits q0 and q1 of every node of a C-contiguous `stack`, in
    place: the quarter where both bits are set is negated. Negating rounds
    nothing, so every amplitude equals apply_stack(stack, CZ, [q0, q1])'s
    (a zero may differ in sign only)."""
    low, high = min(q0, q1), max(q0, q1)
    view = stack.reshape(len(stack), -1, 2, 1 << (high - low - 1), 2, 1 << low)
    quarter = view[:, :, 1, :, 1, :]
    np.negative(quarter, out=quarter)


def apply_gate(state: StateVector, gate: GateMatrix, targets) -> StateVector:
    """Return gate applied to the given target qubits (no in-place mutation)."""
    return StateVector(apply_stack(state.amplitudes[None], gate, targets)[0], check=False)


# Amplitude indices 0 .. 2^CAPACITY - 1; apply_pauli slices them to a register.
_INDEX = np.arange(1 << CAPACITY)
_INDEX.setflags(write=False)


def apply_pauli(state: StateVector, x_mask: int, z_qubits) -> StateVector:
    """Return X^x Z^z |psi> (Z on each of `z_qubits`, then X on each bit of
    `x_mask`) as a new state.

    Amplitude i is amplitude i ^ x_mask of the input, negated when the
    `z_qubits` bits of i ^ x_mask have odd parity: one index gather, then one
    in-place negation per Z qubit. Moving and negating round nothing, so the
    result equals the dense apply_gate chain entry for entry. IndexError for
    a qubit or mask bit outside the register. Needs numpy >= 1.24 only (no
    np.bitwise_count).
    """
    n = state.num_qubits
    z_qubits = [int(q) for q in z_qubits]
    for q in z_qubits:
        if not 0 <= q < n:
            raise IndexError(f"Z qubit {q} out of range for {n} qubits")
    if x_mask < 0 or x_mask >> n:
        raise IndexError(f"X mask {x_mask:#x} out of range for {n} qubits")
    out = state.amplitudes[_INDEX[: 1 << n] ^ x_mask]
    for q in z_qubits:
        # (hi, 2, lo) view: axis 1 is bit q of i, so bit q of i ^ x_mask is set
        # in the slice at 1 ^ (bit q of x_mask).
        half = out.reshape(-1, 2, 1 << q)[:, 1 ^ ((x_mask >> q) & 1), :]
        np.negative(half, out=half)
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


def branches(p0, pick=None):
    """The branches of measurements whose outcome 0 has probability p0[b],
    b = 0, 1, ...: (parents, outcomes, probs), one entry per branch.

    With `pick` None, every possible branch is kept: node by node, outcome 0
    first, impossible ones (prob < DEGENERATE_PROB) dropped. Otherwise each
    node keeps the one outcome pick(p0) names, in node order, and an
    impossible one raises DegenerateMeasurementError. Each p0 is clamped to
    [0, 1] and outcome 1 has 1 - p0.
    """
    parents, outcomes, probs = [], [], []
    for b, q in enumerate(p0):
        q = min(max(q, 0.0), 1.0)
        for outcome in (0, 1) if pick is None else (pick(q),):
            prob = q if outcome == 0 else 1.0 - q
            if prob >= DEGENERATE_PROB:
                parents.append(b)
                outcomes.append(outcome)
                probs.append(prob)
            elif pick is not None:
                raise DegenerateMeasurementError(
                    f"outcome {outcome} has probability {prob:.3e}"
                )
    return parents, outcomes, probs


def measure_stack(stack: np.ndarray, qubit: int, bras, pick=None):
    """Measure `qubit` of every node of `stack` (one row of amplitudes per
    node), node b in the basis whose bras (conjugated kets, outcome 0 first)
    are bras[b]; `bras` is (nodes, 2, 2), or one (2, 2) basis such as Z_BRAS
    for all.

    Each outcome's bra may also be an r x 2 block, given per node as
    (nodes, 2, r, 2): outcome o maps the qubit to r amplitudes, block row j
    becoming bit j of a qubit put on top of the register (r = 2), where a
    bra (r = 1) removes it. A block is a measurement followed by an
    operation that keeps the qubit, such as the X read-out of a wire after
    a CZ with a qubit whose state the block carries.

    Branches are kept or picked by `branches`, with `pick` as there.

    Returns (parents, outcomes, probs, posts): the node, outcome and
    probability of each branch (lists), and the stack of its normalized post
    states. The arithmetic is the same for every node and branch: p0 is
    <b0|b0> of branch 0 = block_0 rows, clamped to [0, 1], outcome 1 has
    1 - p0, and a read-out last qubit (one amplitude) has p0 = |b0|^2.
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
        p0 = np.matmul(flat.conj(), flat.transpose(0, 2, 1))[:, 0, 0].real.tolist()
    parents, outcomes, probs = branches(p0, pick)
    if len(parents) == count and outcomes.count(outcomes[0]) == count:
        # One branch per node, all of one outcome: every run's case.
        posts = np.matmul(bras[..., 1, :, :], rows) if outcomes[0] else branch0
        posts = posts.reshape(count, -1)
    else:
        branch1 = np.matmul(bras[..., 1, :, :], rows)
        posts = np.concatenate((branch0, branch1), axis=1).reshape(2 * count, -1)
        if len(parents) < 2 * count:
            posts = posts[[2 * b + o for b, o in zip(parents, outcomes)]]
    return parents, outcomes, probs, posts / np.sqrt(probs)[:, None]


def measure(state: StateVector, qubit: int, bras, rand: float):
    """Measure `qubit` in the basis `bras` (such as ROTATED_BRAS[k] or Z_BRAS)
    and keep the branch `rand` in [0, 1) draws against p0.

    Returns (outcome, post_state, prob) with the measured qubit removed; a
    read-out last qubit leaves the one-qubit state |outcome> behind. Raises
    DegenerateMeasurementError if the drawn outcome is impossible.
    """
    _, [outcome], [prob], posts = measure_stack(
        state.amplitudes[None], qubit, bras, lambda p0: 0 if rand < p0 else 1)
    return outcome, _post_state(posts[0], outcome), prob


def measurement_branches(state: StateVector, qubit: int, bras):
    """Both branches of measuring `qubit`, outcome 0 first, as
    (outcome, post_state, prob) triples; impossible outcomes are left out."""
    _, outcomes, probs, posts = measure_stack(state.amplitudes[None], qubit, bras)
    return [(o, _post_state(post, o), p) for o, p, post in zip(outcomes, probs, posts)]


def _post_state(amplitudes, outcome) -> StateVector:
    if len(amplitudes) == 1:
        return basis_state(1, outcome)
    return StateVector(amplitudes, check=False)


def _rotated_bras(theta: Angle):
    """Bras (outcome 0 first) of the basis (|0> +- e^{-i theta}|1>)/sqrt2,
    built once per grid angle."""
    phase = np.exp(-1j * theta.radians)
    bra0 = np.array([1.0, phase], dtype=complex) / np.sqrt(2)
    bra1 = np.array([1.0, -phase], dtype=complex) / np.sqrt(2)
    return bra0.conj(), bra1.conj()


# ROTATED_BRAS[k][a]: the bra of outcome a when measuring at Angle(k); the
# projector onto that outcome is np.outer(bra.conj(), bra). ROTATED_BRAS[ks]
# gives a stack's per-node bases.
ROTATED_BRAS = np.array([_rotated_bras(theta) for theta in ALL_ANGLES])
ROTATED_BRAS.setflags(write=False)
Z_BRAS = np.eye(2, dtype=complex)
Z_BRAS.setflags(write=False)


def partial_trace(obj, keep) -> DensityMatrix:
    """Reduced density matrix on the qubits in `keep` (ascending index order)."""
    keep = sorted(set(int(q) for q in keep))
    if not keep:
        raise ValueError("keep set must be nonempty")
    n = obj.num_qubits
    for q in keep:
        if not 0 <= q < n:
            raise IndexError(f"qubit {q} out of range")
    rest = [q for q in range(n) if q not in keep]
    k, r = len(keep), len(rest)
    if isinstance(obj, StateVector):
        psi = _as_tensor(obj)
        # Fortran reshape keeps keep[0] as the least-significant output bit.
        a = np.transpose(psi, axes=keep + rest).reshape(2**k, 2**r, order="F")
        rho = a @ a.conj().T
    else:
        rho_t = obj.entries.reshape([2] * (2 * n), order="F")
        # Row axes are 0..n-1, column axes n..2n-1 under Fortran reshape.
        perm = keep + rest + [n + q for q in keep] + [n + q for q in rest]
        rho_t = np.transpose(rho_t, axes=perm).reshape(
            2**k, 2**r, 2**k, 2**r, order="F"
        )
        rho = np.einsum("arbr->ab", rho_t)
    return DensityMatrix(rho, check=False)


def equal_up_to_global_phase(a: StateVector, b: StateVector, tol: float = STATE_TOL) -> bool:
    """True iff a = phase * b for some unit phase, within `tol` in 2-norm."""
    va, vb = a.amplitudes, b.amplitudes
    if va.shape != vb.shape:
        return False
    idx = int(np.argmax(np.abs(va) * np.abs(vb)))
    if abs(va[idx]) * abs(vb[idx]) == 0.0:
        return bool(np.linalg.norm(va - vb) < tol)
    phase = va[idx] / vb[idx]
    phase /= abs(phase)
    return bool(np.linalg.norm(va - phase * vb) < tol)


def matrices_equal_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float = STATE_TOL) -> bool:
    """True iff a = phase * b as matrices (both assumed similar norm scale)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return False
    flat_a, flat_b = a.reshape(-1), b.reshape(-1)
    idx = int(np.argmax(np.abs(flat_a) * np.abs(flat_b)))
    if abs(flat_a[idx]) * abs(flat_b[idx]) == 0.0:
        return bool(np.abs(a - b).max() < tol)
    phase = flat_a[idx] / flat_b[idx]
    phase /= abs(phase)
    return bool(np.abs(a - phase * b).max() < tol)


def fidelity(a: StateVector, b: StateVector) -> float:
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def frobenius_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    return float(np.linalg.norm(a.entries - b.entries))
