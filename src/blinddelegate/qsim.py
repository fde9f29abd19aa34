"""Dense state-vector / density-matrix engine for small registers.

Conventions used everywhere in this package:

* Qubit 0 is the least-significant bit of the amplitude index, so the
  amplitude of |q_{n-1} ... q_1 q_0> sits at index sum(q_i << i).
* Two-qubit gate matrices are written in kron(U_high, U_low) order,
  i.e. the 4x4 index bit 0 belongs to the *first* target.
* Measured qubits are removed from the register (the state shrinks by
  one qubit; indices above the measured one shift down by one).
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
        return StateVector(np.outer(other.amplitudes, self.amplitudes).reshape(-1), check=False)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def copy(self) -> "StateVector":
        return StateVector(self.amplitudes.copy(), check=False)

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
    """Contiguous copy of `view` with `axes` moved to the front, as `count` rows.

    Every kernel contracts these rows in one BLAS product (np.dot) rather
    than with elementwise slice arithmetic: BLAS fuses multiply-adds, so a
    different formula would move the last bits of seeded results, including
    the noise-level deviations that certificate reports print.
    """
    return np.ascontiguousarray(view.transpose(axes)).reshape(count, -1)


def apply_gate(state: StateVector, gate: GateMatrix, targets) -> StateVector:
    """Return gate applied to the given target qubits (no in-place mutation)."""
    targets = _check_targets(targets, state.num_qubits, gate)
    if len(targets) == 1:
        # (hi, 2, lo) view: axis 1 is the target bit.
        view = state.amplitudes.reshape(-1, 2, 1 << targets[0])
        out = np.dot(gate.entries, _rows(view, (1, 0, 2), 2))
        out = out.reshape(2, *view.shape[0::2]).transpose(1, 0, 2)
    else:
        t0, t1 = targets
        low, high = min(t0, t1), max(t0, t1)
        # (hi, 2, mid, 2, lo) view: axis 1 is the high target bit, axis 3 the low one.
        view = state.amplitudes.reshape(-1, 2, 1 << (high - low - 1), 2, 1 << low)
        # Rows are indexed (bit t1, bit t0), matching the 4x4 index bit 0 = targets[0].
        if t1 == high:
            axes, back = (1, 3, 0, 2, 4), (2, 0, 3, 1, 4)
        else:
            axes, back = (3, 1, 0, 2, 4), (2, 1, 3, 0, 4)
        out = np.dot(gate.entries, _rows(view, axes, 4))
        out = out.reshape(2, 2, *view.shape[0::2]).transpose(back)
    return StateVector(out.reshape(-1), check=False)


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


# Outcomes less likely than this are impossible: measuring raises, and
# measurement_branches drops them.
DEGENERATE_PROB = 1e-12


def _split(state, qubit, bras):
    """Rows, branch 0 and its clamped probability p0 of measuring `qubit` in
    the basis whose bras (conjugated kets) are `bras`.

    The two rows of the (2, rest) matrix are the slices with the qubit at 0
    and at 1; branch 1 (probability 1 - p0) is built only by _branch. Reading
    out a register's last qubit leaves one amplitude, and p0 is |amp|^2.
    """
    rows = _rows(state.amplitudes.reshape(-1, 2, 1 << qubit), (1, 0, 2), 2)
    branch0 = np.dot(bras[0], rows)
    if state.num_qubits == 1:
        p0 = float(abs(branch0[0]) ** 2)
    else:
        p0 = float(np.vdot(branch0, branch0).real)
    return rows, branch0, min(max(p0, 0.0), 1.0)


def _branch(rows, bras, branch0, p0, outcome):
    """(post_state, prob) of one outcome; post_state is None if it is impossible.

    A read-out last qubit leaves the one-qubit state |outcome> behind.
    """
    prob = p0 if outcome == 0 else 1.0 - p0
    if prob < DEGENERATE_PROB:
        return None, prob
    if len(branch0) == 1:
        return basis_state(1, outcome), prob
    branch = branch0 if outcome == 0 else np.dot(bras[1], rows)
    return StateVector(branch / np.sqrt(prob), check=False), prob


def measure(state: StateVector, qubit: int, bras, rand: float):
    """Measure `qubit` in the basis `bras` (such as ROTATED_BRAS[k] or Z_BRAS)
    and keep the branch `rand` in [0, 1) draws against p0.

    Returns (outcome, post_state, prob) with the measured qubit removed;
    raises DegenerateMeasurementError if the drawn outcome is impossible.
    """
    rows, branch0, p0 = _split(state, qubit, bras)
    outcome = 0 if rand < p0 else 1
    post, prob = _branch(rows, bras, branch0, p0, outcome)
    if post is None:
        raise DegenerateMeasurementError(
            f"outcome {outcome} has probability {prob:.3e}"
        )
    return outcome, post, prob


def measurement_branches(state: StateVector, qubit: int, bras):
    """Both branches of measuring `qubit`, outcome 0 first, as
    (outcome, post_state, prob) triples built from one row copy.

    Each branch has exactly the arithmetic of a forced measurement of that
    outcome; impossible outcomes (prob < DEGENERATE_PROB) are left out.
    `bras` is a basis such as ROTATED_BRAS[k].
    """
    rows, branch0, p0 = _split(state, qubit, bras)
    branches = []
    for outcome in (0, 1):
        post, prob = _branch(rows, bras, branch0, p0, outcome)
        if post is not None:
            branches.append((outcome, post, prob))
    return branches


def _rotated_bras(theta: Angle):
    """Bras (outcome 0 first) of the basis (|0> +- e^{-i theta}|1>)/sqrt2,
    built once per grid angle."""
    phase = np.exp(-1j * theta.radians)
    bra0 = np.array([1.0, phase], dtype=complex) / np.sqrt(2)
    bra1 = np.array([1.0, -phase], dtype=complex) / np.sqrt(2)
    return bra0.conj(), bra1.conj()


# ROTATED_BRAS[k][a]: the bra of outcome a when measuring at Angle(k); the
# projector onto that outcome is np.outer(bra.conj(), bra).
ROTATED_BRAS = tuple(_rotated_bras(theta) for theta in ALL_ANGLES)
Z_BRAS = (np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex))


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
