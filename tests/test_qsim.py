import itertools
import warnings

import numpy as np
import pytest

from blinddelegate import protocols, qsim
from blinddelegate.errors import CapacityError, DegenerateMeasurementError
from oracles import measured_branch, partial_trace, signed_permutation


def test_angle_wraps_mod_8():
    assert qsim.Angle(9).k == 1
    assert qsim.Angle(-1).k == 7
    assert qsim.Angle(2).radians == pytest.approx(np.pi / 2)


def test_angle_takes_only_integer_indices():
    for k in (1.5, 2.0, "3", None):
        with pytest.raises(TypeError, match=repr(k)):
            qsim.Angle(k)
    # Anything with __index__ is an integer: it is stored as a plain int.
    for k, want in ((np.int64(9), 1), (True, 1), (False, 0), (np.uint8(7), 7)):
        assert type(qsim.Angle(k).k) is int and qsim.Angle(k).k == want


def test_rotation_constants_relate():
    # S = R(pi/2), SDG its inverse, T = R(-pi/4), TDG = R(pi/4)
    np.testing.assert_allclose(qsim.S.entries @ qsim.SDG.entries, np.eye(2), atol=1e-15)
    np.testing.assert_allclose(qsim.S.entries @ qsim.S.entries, qsim.Z.entries, atol=1e-15)
    np.testing.assert_allclose(qsim.T.entries @ qsim.T.entries, qsim.SDG.entries, atol=1e-15)
    np.testing.assert_allclose(qsim.TDG.entries @ qsim.TDG.entries, qsim.S.entries, atol=1e-15)
    np.testing.assert_allclose(qsim.T.entries @ qsim.TDG.entries, np.eye(2), atol=1e-15)


def test_gate_matrix_rejects_non_unitary():
    with pytest.raises(ValueError):
        qsim.GateMatrix(np.array([[1.0, 0.0], [0.0, 2.0]]), "bad")


def test_state_vector_validation():
    with pytest.raises(ValueError):
        qsim.StateVector([1.0, 1.0])  # not normalized
    with pytest.raises(ValueError):
        qsim.StateVector([1.0, 0.0, 0.0])  # not a power of two
    with pytest.raises(CapacityError):
        qsim.basis_state(qsim.CAPACITY + 1, 0)


def test_tensor_appends_high_indices():
    # |1> tensored after |0> puts the new qubit at index 1
    joined = qsim.tensor_stack(qsim.basis_state(1, 0).amplitudes[None],
                               qsim.basis_state(1, 1).amplitudes)
    np.testing.assert_allclose(joined, [[0, 0, 1, 0]], atol=1e-15)


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        qsim.DensityMatrix(np.array([[0.5, 0.5j], [0.5j, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        qsim.DensityMatrix(np.eye(2))  # trace 2
    good = qsim.DensityMatrix(np.eye(2) / 2)
    assert good.num_qubits == 1


@pytest.mark.parametrize("entries", [np.zeros((0, 0)), np.array(1.0), np.ones(4) / 4,
                                     np.eye(3) / 3, np.zeros((2, 4)), np.zeros((2, 2, 2))],
                         ids=["0x0", "scalar", "1-D", "3x3", "2x4", "3-D"])
def test_density_matrix_rejects_a_malformed_shape(entries):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no log2 warning on the way
        with pytest.raises(ValueError, match="square with power-of-two size"):
            qsim.DensityMatrix(entries)


def test_apply_gate_matches_expanded_matrix():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        psi = qsim.random_state(n, rng)
        gate = [qsim.H, qsim.S, qsim.T, qsim.X][int(rng.integers(4))]
        t = int(rng.integers(n))
        fast = qsim.apply_gate(psi, gate, [t]).amplitudes
        dense = qsim.expand_gate(gate, [t], n) @ psi.amplitudes
        np.testing.assert_allclose(fast, dense, atol=1e-12)

        t2 = int(rng.integers(n))
        if t2 == t:
            continue
        gate2 = qsim.CNOT if rng.random() < 0.5 else qsim.CZ
        fast2 = qsim.apply_gate(psi, gate2, [t, t2]).amplitudes
        dense2 = qsim.expand_gate(gate2, [t, t2], n) @ psi.amplitudes
        np.testing.assert_allclose(fast2, dense2, atol=1e-12)


KERNEL_WIDTHS = [1, 2, 3, 4, 5, 6, 13, 14]


def _random_unitary(dim, rng):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return qsim.GateMatrix(q * (np.diag(r) / np.abs(np.diag(r))), "U")


def _index_oracle(amps, matrix, targets):
    """Explicit sum over basis indices: matrix index bit j belongs to targets[j]."""
    idx = np.arange(len(amps))
    row = sum(((idx >> t) & 1) << j for j, t in enumerate(targets))
    base = idx & ~sum(1 << t for t in targets)
    out = np.zeros_like(amps)
    for col in range(len(matrix)):
        src = base | sum(((col >> j) & 1) << t for j, t in enumerate(targets))
        out += matrix[row, col] * amps[src]
    return out


def _check_kernel(psi, gate, targets):
    before = psi.amplitudes.copy()
    got = qsim.apply_gate(psi, gate, targets)
    np.testing.assert_array_equal(psi.amplitudes, before)  # input untouched
    assert got.num_qubits == psi.num_qubits
    want = _index_oracle(before, gate.entries, targets)
    np.testing.assert_allclose(got.amplitudes, want, atol=1e-12)
    if psi.num_qubits <= 6:
        dense = qsim.expand_gate(gate, targets, psi.num_qubits) @ before
        np.testing.assert_allclose(got.amplitudes, dense, atol=1e-12)
    # The output must be a fresh array: writing to it leaves the input alone.
    got.amplitudes[:] = 0.0
    np.testing.assert_array_equal(psi.amplitudes, before)


@pytest.mark.parametrize("n", KERNEL_WIDTHS)
def test_one_qubit_kernel_every_target(n):
    rng = np.random.default_rng(100 + n)
    psi = qsim.random_state(n, rng)
    for gate in (qsim.H, qsim.T, _random_unitary(2, rng)):
        for t in range(n):
            _check_kernel(psi, gate, [t])


@pytest.mark.parametrize("n", [w for w in KERNEL_WIDTHS if w >= 2])
def test_two_qubit_kernel_every_ordered_pair(n):
    rng = np.random.default_rng(200 + n)
    psi = qsim.random_state(n, rng)
    for gate in (qsim.CZ, qsim.CNOT, _random_unitary(4, rng)):
        for t0, t1 in itertools.permutations(range(n), 2):
            _check_kernel(psi, gate, [t0, t1])


def _forced(psi, qubit, bras, outcome):
    """measure_node on one state, keeping `outcome` through its pick:
    (outcome, post amplitudes, prob)."""
    got, prob, post = qsim.measure_node(psi.amplitudes, qubit, bras, lambda p0: outcome)
    return got, post, prob


@pytest.mark.parametrize("n", [w for w in KERNEL_WIDTHS if w >= 2])
def test_measurements_match_projector_reference(n):
    rng = np.random.default_rng(300 + n)
    psi = qsim.random_state(n, rng)
    before = psi.amplitudes.copy()
    for q in range(n):
        for k in [*range(8), None]:
            for outcome in (0, 1):
                if k is None:
                    vec = np.eye(2)[outcome]
                    got, post, p = _forced(psi, q, qsim.Z_BRAS, outcome)
                else:
                    phase = (-1) ** outcome * np.exp(-1j * k * np.pi / 4)
                    vec = np.array([1.0, phase]) / np.sqrt(2)
                    got, post, p = _forced(psi, q, qsim.ROTATED_BRAS[k], outcome)
                branch = measured_branch(before, q, vec)
                prob = float(np.vdot(branch, branch).real)
                if n <= 6:
                    proj = np.kron(np.kron(np.eye(2 ** (n - 1 - q)), np.outer(vec, vec.conj())),
                                   np.eye(2**q))
                    assert prob == pytest.approx(np.vdot(before, proj @ before).real, abs=1e-12)
                np.testing.assert_array_equal(psi.amplitudes, before)
                assert got == outcome
                assert p == pytest.approx(prob, abs=1e-12)
                assert len(post) == 2 ** (n - 1)
                np.testing.assert_allclose(post, branch / np.sqrt(prob), atol=1e-12)


def test_tensor_matches_kron():
    rng = np.random.default_rng(12)
    a, b = qsim.random_state(3, rng), qsim.random_state(2, rng)
    before = a.amplitudes.copy(), b.amplitudes.copy()
    joined = qsim.tensor_stack(a.amplitudes[None], b.amplitudes)
    assert joined.shape == (1, 2**5)
    np.testing.assert_array_equal(joined[0], np.kron(b.amplitudes, a.amplitudes))
    np.testing.assert_array_equal(a.amplitudes, before[0])
    np.testing.assert_array_equal(b.amplitudes, before[1])


def test_kron_equals_np_kron_entry_for_entry():
    rng = np.random.default_rng(17)
    blocks = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(6)]
    blocks += [g.entries for g in (qsim.H, qsim.S, qsim.T)]
    for a in blocks:
        for b in blocks:
            assert np.array_equal(qsim.kron(a, b), np.kron(a, b))
    shapes = [(1, 1), (2, 2), (1, 4), (4, 1), (2, 8), (8, 8), (16, 16)]
    for sa, sb in itertools.product(shapes, repeat=2):
        real = rng.normal(size=sa), rng.normal(size=sb)
        cplx = [m + 1j * rng.normal(size=m.shape) for m in real]
        for a, b in ((real[0], real[1]), (cplx[0], cplx[1]), (real[0], cplx[1])):
            got = qsim.kron(a, b)
            assert got.dtype == np.kron(a, b).dtype
            assert np.array_equal(got, np.kron(a, b))


def _pauli_chain(psi, x_mask, z_qubits):
    """X^x Z^z |psi> as the dense apply_gate chain: every Z, then every X."""
    for q in z_qubits:
        psi = qsim.apply_gate(psi, qsim.Z, [q])
    for q in range(psi.num_qubits):
        if (x_mask >> q) & 1:
            psi = qsim.apply_gate(psi, qsim.X, [q])
    return psi


def _check_pauli(psi, x_mask, z_qubits):
    before = psi.amplitudes.copy()
    got = qsim.apply_pauli(psi, x_mask, z_qubits)
    np.testing.assert_array_equal(psi.amplitudes, before)  # input untouched
    assert got.num_qubits == psi.num_qubits
    assert np.array_equal(got.amplitudes, _pauli_chain(psi, x_mask, z_qubits).amplitudes)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_apply_pauli_equals_dense_chain_for_every_mask_pair(n):
    psi = qsim.random_state(n, np.random.default_rng(400 + n))
    for x_mask, z_mask in itertools.product(range(1 << n), repeat=2):
        _check_pauli(psi, x_mask, [q for q in range(n) if (z_mask >> q) & 1])


@pytest.mark.parametrize("n", [13, 14])
def test_apply_pauli_equals_dense_chain_at_full_width(n):
    rng = np.random.default_rng(500 + n)
    psi = qsim.random_state(n, rng)
    for _ in range(12):
        x_mask = int(rng.integers(1 << n))
        z_qubits = [int(q) for q in rng.choice(n, size=rng.integers(n + 1), replace=False)]
        _check_pauli(psi, x_mask, z_qubits)


def _with_signed_zeros(n, rng):
    """A random n-qubit state whose real and imaginary parts each hold +0.0
    and -0.0 entries."""
    amps = qsim.random_state(n, rng).amplitudes.copy()
    for part in (amps.real, amps.imag):
        hit = rng.random(1 << n) < 0.3
        part[hit] = np.where(rng.random(hit.sum()) < 0.5, -0.0, 0.0)
    return qsim.StateVector(amps, check=False)


@pytest.mark.parametrize("n", range(1, qsim.CAPACITY + 1))
def test_apply_pauli_equals_the_per_element_oracle_bit_for_bit(n):
    # array_equal cannot see a signed zero, so the sign bits are compared too.
    rng = np.random.default_rng(700 + n)
    psi = _with_signed_zeros(n, rng)
    cases = [([q], int(rng.integers(1 << n))) for q in range(n)]
    cases += [(list(range(n)), int(rng.integers(1 << n))), ([], (1 << n) - 1),
              ([n - 1, 0, n - 1], int(rng.integers(1 << n)))]
    for z_qubits, x_mask in cases:
        got = qsim.apply_pauli(psi, x_mask, z_qubits).amplitudes
        want = signed_permutation(psi.amplitudes, x_mask, z_qubits)
        assert np.array_equal(got, want), (x_mask, z_qubits)
        for part in ("real", "imag"):
            assert np.array_equal(
                np.signbit(getattr(got, part)), np.signbit(getattr(want, part))
            ), (x_mask, z_qubits, part)


@pytest.mark.parametrize("n", range(1, qsim.CAPACITY + 1))
def test_apply_pauli_moves_every_single_x_bit_bit_for_bit(n):
    # Below qubit _BLOCK_X_QUBITS the X bit moves by the index gather, from it
    # up by the block copy; either way each output double must carry the
    # oracle's bits (signed zeros included) and the input must not change.
    rng = np.random.default_rng(900 + n)
    psi = _with_signed_zeros(n, rng)
    before = psi.amplitudes.copy()
    low = [q for q in range(n) if q < qsim._ROW_QUBITS]
    high = [q for q in range(n) if q >= qsim._ROW_QUBITS]
    for v in range(n):
        for z_qubits in ([], low[v % 2::2], low[::3] + high, [v]):
            got = qsim.apply_pauli(psi, 1 << v, z_qubits).amplitudes
            want = signed_permutation(psi.amplitudes, 1 << v, z_qubits)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (v, z_qubits)
    assert np.array_equal(psi.amplitudes.view(np.uint64), before.view(np.uint64))


def test_apply_pauli_rejects_bits_outside_the_register():
    psi = qsim.random_state(3, np.random.default_rng(6))
    for x_mask, z_qubits in ((1 << 3, []), (0b1001, [0]), (-1, []), (0, [3]), (1, [0, -1])):
        with pytest.raises(IndexError):
            qsim.apply_pauli(psi, x_mask, z_qubits)
    got = qsim.apply_pauli(psi, 0, [])
    got.amplitudes[:] = 0.0  # a fresh array even for the identity
    assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0)


def test_expand_gate_input_checks():
    with pytest.raises(ValueError):
        qsim.expand_gate(qsim.CZ, [1, 1], 3)
    with pytest.raises(IndexError):
        qsim.expand_gate(qsim.H, [3], 3)
    with pytest.raises(ValueError):
        qsim.expand_gate(qsim.CZ, [0], 3)
    with pytest.raises(CapacityError):
        qsim.expand_gate(qsim.H, [0], 7)


def test_cnot_orientation():
    # targets[0] is the control
    flipped = qsim.apply_gate(qsim.basis_state(2, 1), qsim.CNOT, [0, 1])
    np.testing.assert_allclose(flipped.amplitudes, qsim.basis_state(2, 3).amplitudes)
    # control 0 leaves the target alone
    same = qsim.apply_gate(qsim.basis_state(2, 2), qsim.CNOT, [0, 1])
    np.testing.assert_allclose(same.amplitudes, qsim.basis_state(2, 2).amplitudes)


def test_apply_gate_input_checks():
    psi = qsim.plus_state(2)
    with pytest.raises(ValueError):
        qsim.apply_gate(psi, qsim.CZ, [0, 0])
    with pytest.raises(IndexError):
        qsim.apply_gate(psi, qsim.H, [5])
    with pytest.raises(ValueError):
        qsim.apply_gate(psi, qsim.CZ, [0])


# |+> on qubit 0 and |0> on qubit 1.
_PLUS_ON_QUBIT_0 = qsim.StateVector(np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2))


def test_rotated_measurement_probability_on_plus():
    # <v0|+> gives p0 = cos^2(theta/2) for every grid angle
    for k in range(8):
        theta = qsim.Angle(k)
        psi = _PLUS_ON_QUBIT_0
        expected = np.cos(theta.radians / 2) ** 2
        if k == 4:
            # theta = pi makes the 0 branch impossible on |+>
            with pytest.raises(DegenerateMeasurementError):
                _forced(psi, 0, qsim.ROTATED_BRAS[k], 0)
            continue
        outcome, post, prob = _forced(psi, 0, qsim.ROTATED_BRAS[k], 0)
        assert outcome == 0
        assert prob == pytest.approx(expected, abs=1e-12)
        assert len(post) == 2


def test_measurement_removes_qubit_and_projects():
    bell = qsim.bell_pair()
    outcome, post, prob = _forced(bell, 0, qsim.ROTATED_BRAS[0], 0)
    assert outcome == 0 and prob == pytest.approx(0.5, abs=1e-12)
    np.testing.assert_allclose(post, qsim.plus_state(1).amplitudes, atol=1e-12)


def test_degenerate_branch_raises():
    psi = qsim.basis_state(2, 0)
    with pytest.raises(DegenerateMeasurementError):
        _forced(psi, 0, qsim.Z_BRAS, 1)  # outcome 1 has probability 0


def test_measure_z_final_qubit_readout():
    outcome, post, prob = _forced(qsim.basis_state(1, 1), 0, qsim.Z_BRAS, 1)
    assert outcome == 1
    assert prob == pytest.approx(1.0)
    # forcing the impossible branch must raise instead of misreporting
    with pytest.raises(DegenerateMeasurementError):
        _forced(qsim.basis_state(1, 0), 0, qsim.Z_BRAS, 1)
    # Both branches of a last-qubit readout, with p0 = |amp_0|^2 exactly; the
    # read-out removes the qubit and leaves one unit-modulus amplitude, the
    # same bits whether the branch is forced or kept.
    psi = qsim.random_state(1, np.random.default_rng(8))
    p0 = float(abs(psi.amplitudes[0]) ** 2)
    _, outcomes, probs, posts = qsim.measure_stack(psi.amplitudes[None], 0, qsim.Z_BRAS)
    assert list(zip(outcomes, probs)) == [(0, p0), (1, 1.0 - p0)]
    assert posts.shape == (2, 1)
    np.testing.assert_allclose(np.abs(posts), 1.0, atol=1e-12)
    for b in outcomes:
        assert np.array_equal(_forced(psi, 0, qsim.Z_BRAS, b)[1], posts[b])


def test_partial_trace_bell_is_maximally_mixed():
    rho = partial_trace(qsim.bell_pair(), keep=[1])
    np.testing.assert_allclose(rho.entries, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_matches_dense_oracle():
    rng = np.random.default_rng(5)
    psi = qsim.random_state(3, rng)
    dense = np.outer(psi.amplitudes, psi.amplitudes.conj())
    # keep qubit 1: oracle by summing explicit basis entries (q0 is the fast index)
    t = dense.reshape(2, 2, 2, 2, 2, 2, order="F")
    acc = np.zeros((2, 2), dtype=complex)
    for b in range(2):
        for e in range(2):
            acc[b, e] = sum(t[a, b, c, a, e, c] for a in range(2) for c in range(2))
    got = partial_trace(psi, keep=[1])
    np.testing.assert_allclose(got.entries, acc, atol=1e-12)


def test_partial_trace_density_input_and_keep_order():
    rng = np.random.default_rng(6)
    psi = qsim.random_state(2, rng)
    rho = qsim.DensityMatrix(np.outer(psi.amplitudes, psi.amplitudes.conj()))
    from_state = partial_trace(psi, keep=[0, 1]).entries
    from_dm = partial_trace(rho, keep=[0, 1]).entries
    np.testing.assert_allclose(from_state, from_dm, atol=1e-12)
    with pytest.raises(ValueError):
        partial_trace(psi, keep=[])


def test_partial_trace_of_product_state():
    a = qsim.basis_state(1, 1)
    b = qsim.plus_state(1)
    # qubit 0 = |1>, qubit 1 = |+>
    joint = qsim.StateVector(np.kron(b.amplitudes, a.amplitudes))
    np.testing.assert_allclose(
        partial_trace(joint, keep=[0]).entries, np.diag([0.0, 1.0]), atol=1e-12
    )
    np.testing.assert_allclose(
        partial_trace(joint, keep=[1]).entries, np.full((2, 2), 0.5), atol=1e-12
    )


def test_global_phase_equality():
    rng = np.random.default_rng(7)
    psi = qsim.random_state(3, rng)
    shifted = qsim.StateVector(np.exp(0.731j) * psi.amplitudes, check=False)
    assert qsim.matrices_equal_up_to_phase(psi.amplitudes, shifted.amplitudes)
    other = qsim.random_state(3, rng)
    assert not qsim.matrices_equal_up_to_phase(psi.amplitudes, other.amplitudes)
    # disjoint supports are never phase-equal
    assert not qsim.matrices_equal_up_to_phase(
        qsim.basis_state(1, 0).amplitudes, qsim.basis_state(1, 1).amplitudes)


def test_matrices_equal_up_to_phase():
    m = qsim.H.entries
    assert qsim.matrices_equal_up_to_phase(m, np.exp(1j * np.pi / 4) * m)
    assert not qsim.matrices_equal_up_to_phase(m, qsim.S.entries)


def test_fidelity_and_frobenius():
    psi = qsim.plus_state(1)
    assert qsim.fidelity(psi, psi) == pytest.approx(1.0)
    assert qsim.fidelity(psi, qsim.basis_state(1, 0)) == pytest.approx(0.5)
    a = qsim.DensityMatrix(np.eye(2) / 2)
    b = qsim.DensityMatrix(np.diag([1.0, 0.0]))
    assert qsim.frobenius_distance(a, a) == pytest.approx(0.0)
    assert qsim.frobenius_distance(a, b) == pytest.approx(np.sqrt(0.5))


# Every basis a kernel measures in: the eight rotated bases (angle 0 is the
# X basis) and the computational basis.
_ALL_BASES = [(f"R{k}", bras) for k, bras in enumerate(qsim.ROTATED_BRAS)] + [
    ("Z", qsim.Z_BRAS)
]


def _branches(psi, qubit, bras):
    """Every branch measure_stack keeps (pick None) of one state, as
    (outcome, post amplitudes, prob) triples."""
    _, outcomes, probs, posts = qsim.measure_stack(psi.amplitudes[None], qubit, bras)
    return list(zip(outcomes, posts, probs))


@pytest.mark.parametrize("width", [2, 3, 4])
def test_measurement_branches_equal_forced_measurements_bit_for_bit(width):
    psi = qsim.random_state(width, np.random.default_rng(40 + width))
    for qubit in range(width):
        for name, bras in _ALL_BASES:
            branches = _branches(psi, qubit, bras)
            assert [b[0] for b in branches] == [0, 1], (name, qubit)
            for outcome, post, prob in branches:
                want_outcome, want_post, want_prob = _forced(psi, qubit, bras, outcome)
                assert outcome == want_outcome
                assert prob == want_prob
                assert np.array_equal(post, want_post)
                assert len(post) == 2 ** (width - 1)


def test_measurement_branches_drop_impossible_outcomes():
    # |+> on qubit 0: angle 0 can only give outcome 0, angle pi only outcome 1,
    # which is where a forced measurement of the other outcome raises.
    psi = _PLUS_ON_QUBIT_0
    for k, possible in ((0, 0), (4, 1)):
        [(outcome, post, prob)] = _branches(psi, 0, qsim.ROTATED_BRAS[k])
        assert outcome == possible
        assert prob == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(post, [1.0, 0.0], atol=1e-12)
        with pytest.raises(DegenerateMeasurementError):
            _forced(psi, 0, qsim.ROTATED_BRAS[k], 1 - possible)
    [(outcome, _, prob)] = _branches(qsim.basis_state(2, 0), 1, qsim.Z_BRAS)
    assert (outcome, prob) == (0, 1.0)


def test_measurement_branches_leave_input_untouched():
    psi = qsim.random_state(3, np.random.default_rng(7))
    before = psi.amplitudes.copy()
    branches = _branches(psi, 1, qsim.ROTATED_BRAS[3])
    assert np.array_equal(psi.amplitudes, before)
    assert sum(prob for _, _, prob in branches) == pytest.approx(1.0, abs=1e-12)


def test_rotated_bras_are_h_times_rotation_bit_for_bit():
    # The reference: the bras of (|0> +- e^{-i theta}|1>)/sqrt2 from the
    # formula, as ROTATED_BRAS was once built.
    for k in range(8):
        phase = np.exp(-1j * qsim.Angle(k).radians)
        kets = np.array([[1.0, phase], [1.0, -phase]], dtype=complex) / np.sqrt(2)
        assert np.array_equal(qsim.ROTATED_BRAS[k], kets.conj()), k


# --------------------------------------------------------------------------
# Stacked kernels against the per-node arithmetic
# --------------------------------------------------------------------------


def _node_rows(amps, axes):
    """One node's rows, as the one-state kernels built them: the C-order
    tensor axes of `axes` moved to the front (row index bit 0 is the last)."""
    moved = np.moveaxis(amps.reshape([2] * (amps.size.bit_length() - 1)), axes,
                        range(len(axes)))
    return moved, np.ascontiguousarray(moved).reshape(2 ** len(axes), -1)


def _node_branches(amps, qubit, bras):
    """(outcome, prob, post) of each possible branch of one node, with np.dot
    rows and np.vdot probabilities."""
    _, rows = _node_rows(amps, [amps.size.bit_length() - 2 - qubit])
    branch0 = np.dot(bras[0], rows)
    if branch0.size == 1:
        p0 = float(abs(branch0[0]) ** 2)
    else:
        p0 = float(np.vdot(branch0, branch0).real)
    p0 = min(max(p0, 0.0), 1.0)
    branches = []
    for outcome, prob in ((0, p0), (1, 1.0 - p0)):
        if prob >= qsim.DEGENERATE_PROB:
            branch = branch0 if outcome == 0 else np.dot(bras[1], rows)
            branches.append((outcome, prob, branch / np.sqrt(prob)))
    return branches


def _random_stack(rng, count, width, qubit, eigen_bras):
    """`count` random registers; a node b with eigen_bras[b] set holds `qubit`
    in that basis's outcome-0 or -1 ket, so one of its branches is impossible."""
    stack = rng.normal(size=(count, 2**width)) + 1j * rng.normal(size=(count, 2**width))
    stack /= np.linalg.norm(stack, axis=1)[:, None]
    for b, bras in enumerate(eigen_bras):
        if bras is not None:
            ket = bras[int(rng.integers(2))].conj()
            rest = stack[b].reshape(-1, 2, 1 << qubit)[:, 0, :]
            rest = rest / np.linalg.norm(rest)
            stack[b] = (rest[:, None, :] * ket[None, :, None]).reshape(-1)
    return stack


@pytest.mark.parametrize("count", [1, 3, 64])
@pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 6])
def test_measure_stack_equals_per_node_arithmetic(count, width):
    """Every node's branches, in node order and outcome 0 first, carry
    exactly the floats of np.dot(bras[a], rows) and np.vdot on that node
    alone, and impossible branches are dropped in place. This pins the
    batching rule: a leading node axis through np.matmul."""
    rng = np.random.default_rng([count, width])
    bases = [qsim.Z_BRAS] + list(qsim.ROTATED_BRAS)
    for qubit in range(width):
        bras = np.array([bases[i] for i in rng.integers(len(bases), size=count)])
        eigen = [bras[b] if rng.random() < 0.4 else None for b in range(count)]
        stack = _random_stack(rng, count, width, qubit, eigen)
        want = [(b, outcome, prob, post) for b in range(count)
                for outcome, prob, post in _node_branches(stack[b], qubit, bras[b])]
        if any(e is not None for e in eigen):
            assert len(want) < 2 * count
        before = stack.copy()
        parents, outcomes, probs, posts = qsim.measure_stack(stack, qubit, bras)
        assert np.array_equal(stack, before)
        assert parents.tolist() == [w[0] for w in want]
        assert outcomes.tolist() == [w[1] for w in want]
        assert probs.tolist() == [w[2] for w in want]
        assert posts.shape == (len(want), 2 ** (width - 1))
        for post, w in zip(posts, want):
            assert np.array_equal(post, w[3])
        # One shared basis broadcasts to every node with the same floats.
        shared = qsim.measure_stack(stack, qubit, bras[0])
        ref = qsim.measure_stack(stack, qubit, np.repeat(bras[:1], count, axis=0))
        assert [a.tolist() for a in shared[:3]] == [a.tolist() for a in ref[:3]]
        assert np.array_equal(shared[3], ref[3])


def _round_tables():
    """The (16, 2, 2, 2) block tables a protocol-2 round measures with, block
    2k + a for angle k and client outcome a: the Bell pair's, and a random
    substituted pair's; and a |00> pair's, whose impossible outcomes leave
    zero blocks."""
    pair = qsim.random_state(2, np.random.default_rng(29)).amplitudes
    return [protocols._bell_table()[1], protocols._pair_table(pair)[1],
            protocols._pair_table(qsim.basis_state(2, 0).amplitudes)[1]]


@pytest.mark.parametrize("count", [1, 3, 64])
@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_measure_stack_round_blocks_equal_per_node_arithmetic(count, width):
    """A round's 2-row blocks, per node, carry exactly the floats of np.dot
    of the node's block and rows and np.vdot of its branch 0, as bras do."""
    rng = np.random.default_rng([count, width, 4])
    for maps in _round_tables():
        for qubit in range(width):
            blocks = maps[rng.integers(16, size=count)]
            stack = _random_stack(rng, count, width, qubit, [None] * count)
            want = [(b, outcome, prob, post.reshape(-1)) for b in range(count)
                    for outcome, prob, post in _node_branches(stack[b], qubit, blocks[b])]
            before = stack.copy()
            parents, outcomes, probs, posts = qsim.measure_stack(stack, qubit, blocks)
            assert np.array_equal(stack, before)
            assert parents.tolist() == [w[0] for w in want]
            assert outcomes.tolist() == [w[1] for w in want]
            assert probs.tolist() == [w[2] for w in want]
            assert posts.shape == (len(want), 2**width)
            for post, w in zip(posts, want):
                assert np.array_equal(post, w[3])


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_measure_stack_forced_outcomes_equal_per_node_arithmetic(width):
    """On a run's one register, measure_node's pick of each possible outcome
    keeps exactly the per-node oracle's branch, for bras and for a round's
    blocks, and a pick of an impossible one raises."""
    rng = np.random.default_rng([width, 5])
    blocks = [maps[j] for maps in _round_tables() for j in range(16)]
    impossible = 0
    for qubit in range(width):
        cases = [(bras, eigen) for bras in [qsim.Z_BRAS, *qsim.ROTATED_BRAS]
                 for eigen in (None, bras)] + [(block, None) for block in blocks]
        for bras, eigen in cases:
            stack = _random_stack(rng, 1, width, qubit, [eigen])
            possible = {o: (p, post) for o, p, post in _node_branches(stack[0], qubit, bras)}
            for outcome in (0, 1):
                if outcome not in possible:
                    with pytest.raises(DegenerateMeasurementError):
                        qsim.measure_node(stack[0], qubit, bras, lambda p0: outcome)
                    impossible += 1
                    continue
                prob, post = possible[outcome]
                got = qsim.measure_node(stack[0], qubit, bras, lambda p0: outcome)
                assert got[:2] == (outcome, prob)
                assert got[2].shape == (post.size,)
                assert np.array_equal(got[2], post.reshape(-1))
    assert impossible >= 9 * width  # at least every eigenstate case


@pytest.mark.parametrize("count", [1, 3, 64])
@pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 6])
def test_measure_stack_picks_one_branch_per_node(count, width):
    """measure_node's pick on one node's register (a run's) keeps the outcome
    it names with the floats the walk's measure_stack gives that node's
    branch, on a stack of one node or several, and raises on an impossible
    one."""
    rng = np.random.default_rng([count, width, 1])
    qubit = width - 1
    stack = _random_stack(rng, count, width, qubit, [None] * count)
    bras = qsim.ROTATED_BRAS[rng.integers(8, size=count)]
    every = qsim.measure_stack(stack, qubit, bras)
    wanted = [int(o) for o in rng.integers(2, size=count)]
    rows = [every[0].tolist().index(b) + o for b, o in enumerate(wanted)]
    for b, (o, r) in enumerate(zip(wanted, rows)):
        outcome, prob, post = qsim.measure_node(stack[b], qubit, bras[b], lambda p0: o)
        assert outcome == o and every[1][r] == o
        assert prob == every[2].tolist()[r]
        assert np.array_equal(post, every[3][r])
    eigen = _random_stack(rng, 1, width, qubit, [qsim.Z_BRAS])
    impossible = 1 - qsim.measure_stack(eigen, qubit, qsim.Z_BRAS)[1].tolist()[0]
    with pytest.raises(DegenerateMeasurementError):
        qsim.measure_node(eigen[0], qubit, qsim.Z_BRAS, lambda p0: impossible)


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_measure_stack_blocks_put_the_qubit_on_top(width):
    """2 x 2 blocks in place of bras keep the measured qubit: with block o =
    |o><o| (a Z measurement that keeps its qubit) each branch is the
    projected, normalized state with that qubit moved to the top."""
    rng = np.random.default_rng([width, 3])
    stack = np.array([qsim.random_state(width, rng).amplitudes for _ in range(3)])
    keep_z = np.array([np.diag([1, 0]), np.diag([0, 1])], dtype=complex)
    blocks = np.broadcast_to(keep_z, (3, 2, 2, 2))
    for qubit in range(width):
        parents, outcomes, probs, posts = qsim.measure_stack(stack, qubit, blocks)
        assert parents.tolist() == [0, 0, 1, 1, 2, 2] and outcomes.tolist() == [0, 1] * 3
        for b, o, p, post in zip(parents, outcomes, probs, posts):
            psi = np.moveaxis(stack[b].reshape([2] * width, order="F"), qubit, -1).copy()
            psi[..., 1 - o] = 0
            assert p == pytest.approx(np.vdot(psi, psi).real, abs=1e-12)
            want = psi.reshape(-1, order="F") / np.sqrt(p)
            np.testing.assert_allclose(post, want, rtol=0, atol=1e-12)


def _node_gate(amps, gate, targets):
    """`gate` on one node by np.dot of its rows, row index bit 0 = targets[0]."""
    width = amps.size.bit_length() - 1
    axes = [width - 1 - t for t in reversed(targets)]
    moved, rows = _node_rows(amps, axes)
    out = np.dot(gate.entries, rows).reshape(moved.shape)
    return np.moveaxis(out, range(len(axes)), axes).reshape(-1)


@pytest.mark.parametrize("count", [1, 3, 64])
@pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 6])
def test_apply_stack_equals_per_node_arithmetic(count, width):
    rng = np.random.default_rng([count, width, 2])
    stack = _random_stack(rng, count, width, 0, [None] * count)
    cases = [(qsim.H, [t]) for t in range(width)] + [(qsim.T, [width - 1])]
    cases += [(g, list(p)) for g in (qsim.CNOT, qsim.CZ)
              for p in itertools.permutations(range(width), 2)]
    for gate, targets in cases:
        before = stack.copy()
        out = qsim.apply_stack(stack, gate, targets)
        assert np.array_equal(stack, before)
        for b in range(count):
            assert np.array_equal(out[b], _node_gate(stack[b], gate, targets)), (
                gate, targets, b)
