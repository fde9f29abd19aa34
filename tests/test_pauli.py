import itertools

import numpy as np
import pytest

from blinddelegate import pauli, qsim


def test_frame_compose_is_xor():
    # The runtime composes two frames as the lookup of their XORed bits: up to
    # phase, that is the product of the two frames' matrices.
    for f, g in itertools.product(pauli.ALL_FRAMES, repeat=2):
        composed = pauli.frame(f.x ^ g.x, f.z ^ g.z)
        assert qsim.matrices_equal_up_to_phase(f.matrix @ g.matrix, composed.matrix)
        # Every pauli.frame lookup is one of the four module frames.
        assert composed is pauli.ALL_FRAMES[composed.x | composed.z << 1]
        assert composed == pauli.PauliFrame(f.x ^ g.x, f.z ^ g.z)


def test_frame_matrices():
    np.testing.assert_allclose(pauli.FRAME_I.matrix, np.eye(2))
    np.testing.assert_allclose(pauli.FRAME_X.matrix, qsim.X.entries)
    np.testing.assert_allclose(pauli.FRAME_Z.matrix, qsim.Z.entries)
    np.testing.assert_allclose(
        pauli.FRAME_XZ.matrix, qsim.X.entries @ qsim.Z.entries
    )


def test_letters_are_the_one_qubit_gates():
    for name, gate in qsim.GATES.items():
        if gate.num_qubits == 1:
            assert np.array_equal(pauli.word_matrix(name), gate.entries), name
    for name in ("CZ", "CNOT"):
        with pytest.raises(ValueError, match="unknown letter"):
            pauli.word_matrix(name)


def test_frames_are_named_by_their_repr():
    assert [repr(f) for f in pauli.ALL_FRAMES] == ["I", "X", "Z", "XZ"]


def test_word_parsing_and_concat():
    m = pauli.word_matrix("S H")
    np.testing.assert_allclose(m, qsim.S.entries @ qsim.H.entries)
    np.testing.assert_allclose(pauli.word_matrix("S") @ pauli.word_matrix("H"), m)
    with pytest.raises(ValueError, match="unknown letter 'Q'"):
        pauli.word_matrix("Q")


def test_identity_catalog_all_pass():
    results = pauli.verify_all_identities()
    assert len(results) == 10
    assert all(ok for _, ok in results), results


def test_identity_slot_restrictions_matter():
    """The T-conjugation relations hold only for the stated Pauli slots."""
    name, lhs, rhs = next(
        entry for entry in pauli.TEN_IDENTITIES if entry[0].endswith("(P'H)=PT")
    )
    assert pauli.verify_identity(lhs, rhs)
    # widening the primed slot to Z breaks the relation
    widened = [
        pauli.IdentityFactor(f.core, domain=pauli.ALL_FRAMES) for f in lhs
    ]
    assert not pauli.verify_identity(widened, rhs)


def test_verify_identity_rejects_wrong_rhs():
    name, lhs, rhs = pauli.TEN_IDENTITIES[0]
    assert not pauli.verify_identity(lhs, "S")


# I, X, Z, XZ: the order of pauli.ALL_FRAMES.
_PAULIS = [np.eye(2), qsim.X.entries, qsim.Z.entries, qsim.X.entries @ qsim.Z.entries]
_LETTERS = {"H": qsim.H.entries, "S": qsim.S.entries, "SDG": qsim.SDG.entries,
            "T": qsim.T.entries, "TDG": qsim.TDG.entries, "Z": qsim.Z.entries}


def _letters(text):
    m = np.eye(2, dtype=complex)
    for letter in text.split():
        m = m @ _LETTERS[letter]
    return m


def _identity_oracle(lhs_factors, rhs):
    """True iff every slot assignment's product is phase * P @ rhs for one of
    the four Paulis P, found by trying all four."""
    target = _letters(rhs)
    for assignment in itertools.product(*(f.domain for f in lhs_factors)):
        product = np.eye(2, dtype=complex)
        for frame, factor in zip(assignment, lhs_factors):
            slot = _PAULIS[pauli.ALL_FRAMES.index(frame)]
            product = product @ slot @ _letters(factor.core)
        if not any(qsim.matrices_equal_up_to_phase(product, p @ target)
                   for p in _PAULIS):
            return False
    return True


def test_verify_identity_agrees_with_pauli_search_oracle():
    """Each identity, its widened form (every slot ranging over all four
    frames) and every other catalog right side give the oracle's answer."""
    rhs_options = sorted({rhs for _, _, rhs in pauli.TEN_IDENTITIES})
    answers = []
    for name, lhs, own_rhs in pauli.TEN_IDENTITIES:
        widened = [pauli.IdentityFactor(f.core) for f in lhs]
        assert _identity_oracle(lhs, own_rhs), name
        for form in (lhs, widened):
            for rhs in rhs_options:
                want = _identity_oracle(form, rhs)
                assert pauli.verify_identity(form, rhs) == want, (name, form, rhs)
                answers.append(want)
    assert True in answers and False in answers
