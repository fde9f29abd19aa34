import itertools

import numpy as np
import pytest

from blinddelegate import pauli, qsim


def test_frame_compose_is_xor():
    assert pauli.FRAME_X.compose(pauli.FRAME_X) == pauli.FRAME_I
    assert pauli.FRAME_X.compose(pauli.FRAME_Z) == pauli.FRAME_XZ
    assert pauli.FRAME_XZ.compose(pauli.FRAME_Z) == pauli.FRAME_X


def test_frame_matrices():
    np.testing.assert_allclose(pauli.FRAME_I.matrix, np.eye(2))
    np.testing.assert_allclose(pauli.FRAME_X.matrix, qsim.X.entries)
    np.testing.assert_allclose(pauli.FRAME_Z.matrix, qsim.Z.entries)
    np.testing.assert_allclose(
        pauli.FRAME_XZ.matrix, qsim.X.entries @ qsim.Z.entries
    )


def test_propagation_through_h_swaps_bits():
    assert pauli.propagate_through_H(pauli.FRAME_X) == pauli.FRAME_Z
    assert pauli.propagate_through_H(pauli.FRAME_XZ) == pauli.FRAME_XZ


def test_propagation_through_rotation_flips_angle_on_x():
    frame, residual = pauli.propagate_through_R(pauli.FRAME_X, qsim.Angle(2))
    assert frame == pauli.FRAME_X and residual.k == 6
    frame, residual = pauli.propagate_through_R(pauli.FRAME_Z, qsim.Angle(2))
    assert frame == pauli.FRAME_Z and residual.k == 2


def test_propagation_rules_match_matrix_algebra():
    """The symbolic rules must mirror H P = P' H and R P = P R' up to phase."""
    for frame in pauli.ALL_FRAMES:
        lhs = qsim.H.entries @ frame.matrix
        rhs = pauli.propagate_through_H(frame).matrix @ qsim.H.entries
        assert qsim.matrices_equal_up_to_phase(lhs, rhs)
    for frame in pauli.ALL_FRAMES:
        for k in range(8):
            rot = np.diag([1.0, np.exp(1j * k * np.pi / 4)])
            _, residual = pauli.propagate_through_R(frame, qsim.Angle(k))
            res = np.diag([1.0, np.exp(1j * residual.radians)])
            assert qsim.matrices_equal_up_to_phase(
                rot @ frame.matrix, frame.matrix @ res
            )


def test_push_frame_soundness():
    rng = np.random.default_rng(13)
    letters = ["H", "S", "SDG", "T", "TDG", "X", "Z"]
    for _ in range(60):
        length = int(rng.integers(1, 6))
        w = pauli.CliffordTWord([letters[i] for i in rng.integers(len(letters), size=length)])
        for frame in pauli.ALL_FRAMES:
            out_frame, out_word = pauli.push_frame(frame, w)
            lhs = w.matrix() @ frame.matrix
            rhs = out_frame.matrix @ out_word.matrix()
            assert qsim.matrices_equal_up_to_phase(lhs, rhs), (w, frame)


def test_word_parsing_and_concat():
    w = pauli.word("S H")
    np.testing.assert_allclose(w.matrix(), qsim.S.entries @ qsim.H.entries)
    both = pauli.word("S") + pauli.word("H")
    np.testing.assert_allclose(both.matrix(), w.matrix())
    with pytest.raises(ValueError):
        pauli.word("Q")


def test_reduce_pinned_cases():
    frame, canon = pauli.reduce_word(pauli.word("H H H"))
    assert (frame, canon.name) == (pauli.FRAME_I, "H")
    frame, canon = pauli.reduce_word(pauli.word("H S H S H"))
    assert (frame, canon.name) == (pauli.FRAME_Z, "S")
    frame, canon = pauli.reduce_word(pauli.word("S H H TDG H"))
    assert (frame, canon.name) == (pauli.FRAME_Z, "TH")


def test_reduce_is_sound_on_short_words():
    """Whenever a canonical form is reported, frame * canon == word up to phase."""
    letters = ["H", "S", "SDG", "T", "TDG"]
    named = 0
    for length in range(1, 5):
        for combo in itertools.product(letters, repeat=length):
            w = pauli.CliffordTWord(list(combo))
            frame, canon = pauli.reduce_word(w)
            if not canon.name:
                continue
            named += 1
            assert qsim.matrices_equal_up_to_phase(
                w.matrix(), frame.matrix @ canon.entries
            ), combo
    assert named > 200  # the dictionary must actually cover this family


def test_reduce_covers_round_accumulated_words():
    """Every three-round word the runner can accumulate has a canonical name."""
    blocks = [(0, 0, 0), (2, 2, 0), (2, 0, 0), (2, 2, 2), (7, 0, 0), (7, 0, 2), (1, 0, 0), (1, 0, 2)]
    h = qsim.H.entries
    for base in blocks:
        for signs in itertools.product((1, -1), repeat=3):
            letters = []
            for k, s in zip(base, signs):
                letters.append("H")
                kk = (s * k) % 8
                if kk == 2:
                    letters.append("S")
                elif kk == 6:
                    letters.append("SDG")
                elif kk == 7:
                    letters.append("T")
                elif kk == 1:
                    letters.append("TDG")
                elif kk == 4:
                    letters.extend(["Z"])
                elif kk != 0:
                    raise AssertionError(kk)
            w = pauli.CliffordTWord(list(reversed(letters)))
            frame, canon = pauli.reduce_word(w)
            assert canon.name, (base, signs)
            assert qsim.matrices_equal_up_to_phase(
                w.matrix(), frame.matrix @ canon.entries
            )


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
