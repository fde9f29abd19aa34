"""Symbolic byproduct calculus over the word monoid {H, S, S†, T, T†, X, Z}.

A PauliFrame is one of the four classes {I, X, Z, XZ} with phases discarded;
words reduce to `frame * canonical` where the canonical part is looked up in a
fixed matrix dictionary. Everything here is anchored to matrix arithmetic, not
to a rewriting system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qsim
from .qsim import Angle, GateMatrix

LETTER_MATRICES = {
    "H": qsim.H.entries,
    "S": qsim.S.entries,
    "SDG": qsim.SDG.entries,
    "T": qsim.T.entries,
    "TDG": qsim.TDG.entries,
    "X": qsim.X.entries,
    "Z": qsim.Z.entries,
}

# Letters that are plain R_theta rotations, by angle index.
_ROTATION_LETTERS = {"S": 2, "SDG": 6, "T": 7, "TDG": 1}
_ROTATION_FLIP = {"S": "SDG", "SDG": "S", "T": "TDG", "TDG": "T"}


@dataclass(frozen=True)
class PauliFrame:
    """Pauli byproduct class X^x Z^z; composition is bitwise XOR."""

    x: int = 0
    z: int = 0

    def __post_init__(self):
        object.__setattr__(self, "x", int(self.x) % 2)
        object.__setattr__(self, "z", int(self.z) % 2)

    def compose(self, other: "PauliFrame") -> "PauliFrame":
        return PauliFrame(self.x ^ other.x, self.z ^ other.z)

    @property
    def matrix(self) -> np.ndarray:
        m = np.eye(2, dtype=complex)
        if self.x:
            m = m @ qsim.X.entries
        if self.z:
            m = m @ qsim.Z.entries
        return m

    @property
    def letters(self) -> list:
        return (["X"] if self.x else []) + (["Z"] if self.z else [])

    def __repr__(self):
        return {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "XZ"}[(self.x, self.z)]


FRAME_I = PauliFrame(0, 0)
FRAME_X = PauliFrame(1, 0)
FRAME_Z = PauliFrame(0, 1)
FRAME_XZ = PauliFrame(1, 1)
ALL_FRAMES = (FRAME_I, FRAME_X, FRAME_Z, FRAME_XZ)

# X^x Z^z of one wire, or of a two-wire cell with its frames listed low slot
# first (the low slot acts on index bit 0).
FRAME_MATRICES = {(f,): f.matrix for f in ALL_FRAMES}
FRAME_MATRICES.update(
    ((f0, f1), np.kron(f1.matrix, f0.matrix)) for f0 in ALL_FRAMES for f1 in ALL_FRAMES
)


def match_frames(m: np.ndarray, target: np.ndarray):
    """Per-wire frames P (low slot first) with m = phase * P @ target, or None.

    m and target are 2x2 (one wire) or 4x4 (two wires) unitaries. P is read
    off m @ target^dagger: column 0 is nonzero only at row x, and column 2^j
    carries (-1)^z_j relative to it. One check against the frame matrix then
    decides; when a match exists the frame is unique.
    """
    pauli = m @ target.conj().T
    row = int(np.argmax(np.abs(pauli[:, 0])))
    frames = tuple(
        PauliFrame((row >> j) & 1, (pauli[row ^ (1 << j), 1 << j] / pauli[row, 0]).real < 0)
        for j in range(len(pauli).bit_length() - 1)
    )
    if qsim.matrices_equal_up_to_phase(m, FRAME_MATRICES[frames] @ target):
        return frames
    return None


class CliffordTWord:
    """An ordered word over {H,S,SDG,T,TDG,X,Z}; the rightmost letter acts first."""

    def __init__(self, letters):
        letters = list(letters)
        for letter in letters:
            if letter not in LETTER_MATRICES:
                raise ValueError(f"unknown letter {letter!r}")
        self.letters = letters

    def matrix(self) -> np.ndarray:
        m = np.eye(2, dtype=complex)
        for letter in self.letters:
            m = m @ LETTER_MATRICES[letter]
        return m

    def __add__(self, other: "CliffordTWord") -> "CliffordTWord":
        return CliffordTWord(self.letters + other.letters)

    def __repr__(self):
        return f"Word({' '.join(self.letters)})"


def word(text: str) -> CliffordTWord:
    """Build a word from space-separated letters, e.g. word("S H T")."""
    return CliffordTWord(text.split())


def propagate_through_H(frame: PauliFrame) -> PauliFrame:
    # HX = ZH and HZ = XH: the two bits swap.
    return PauliFrame(frame.z, frame.x)


def propagate_through_R(frame: PauliFrame, theta: Angle):
    """Push the frame left through R_theta; X flips the angle sign (phase dropped)."""
    residual = -theta if frame.x else theta
    return frame, residual


def push_frame(frame: PauliFrame, w: CliffordTWord):
    """Rewrite w * frame as frame' * w' letter by letter.

    H swaps the frame bits; rotation letters keep the frame but flip their own
    angle sign when x=1 (S<->SDG, T<->TDG); Pauli letters commute up to phase.
    """
    out = []
    for letter in reversed(w.letters):
        if letter == "H":
            frame = propagate_through_H(frame)
            out.append(letter)
        elif letter in _ROTATION_LETTERS:
            out.append(_ROTATION_FLIP[letter] if frame.x else letter)
        else:  # X or Z
            out.append(letter)
    return frame, CliffordTWord(list(reversed(out)))


# Canonical residual dictionary, scanned in order; first Pauli-relatable entry
# wins, so e.g. H S H S H reduces to (Z, S) rather than to SDG.
_CANONICAL_WORDS = [
    ("I", ""),
    ("H", "H"),
    ("S", "S"),
    ("SDG", "SDG"),
    ("SH", "S H"),
    ("SDGH", "SDG H"),
    ("T", "T"),
    ("TDG", "TDG"),
    ("TH", "T H"),
    ("TDGH", "TDG H"),
    ("HS", "H S"),
    ("HT", "H T"),
    ("HTDG", "H TDG"),
    ("X", "X"),
    ("Z", "Z"),
    ("XZ", "X Z"),
]


CANONICAL_TABLE = [(name, word(text).matrix()) for name, text in _CANONICAL_WORDS]


def reduce_word(w: CliffordTWord):
    """Split w into (frame, canonical) with w = phase * frame * canonical.

    The canonical factor is a GateMatrix named after the dictionary entry; if
    no entry matches (possible for long mixed words), the raw product is
    returned with an identity frame.
    """
    if not w.letters:
        raise ValueError("empty word")
    m = w.matrix()
    for name, target in CANONICAL_TABLE:
        frames = match_frames(m, target)
        if frames is not None:
            return frames[0], GateMatrix(target, name)
    return FRAME_I, GateMatrix(m, "")


@dataclass(frozen=True)
class IdentityFactor:
    """One (P core) factor of an identity's left side.

    `domain` lists the frames the P slot ranges over; cores are space-separated
    letter strings.
    """

    core: str
    domain: tuple = ALL_FRAMES


def verify_identity(lhs_factors, rhs: str) -> bool:
    """Check lhs = P * rhs for every assignment of the annotated Pauli slots.

    lhs_factors is a sequence of IdentityFactor; the factors multiply left to
    right with the rightmost acting first. True iff every slot assignment
    reduces to the same canonical class as rhs (left Pauli factor free).
    """
    rhs_frame, rhs_canonical = reduce_word(word(rhs))
    assignments = [()]
    for factor in lhs_factors:
        assignments = [prefix + (p,) for prefix in assignments for p in factor.domain]
    for assignment in assignments:
        letters = []
        for p, factor in zip(assignment, lhs_factors):
            letters.extend(p.letters)
            letters.extend(factor.core.split())
        frame, canonical = reduce_word(CliffordTWord(letters))
        if canonical.name != rhs_canonical.name or not qsim.matrices_equal_up_to_phase(
            canonical.entries, rhs_canonical.entries
        ):
            return False
    return True


P_PRIME = (FRAME_I, FRAME_X)   # restriction: only these commute through T cleanly
P_DPRIME = (FRAME_Z, FRAME_XZ)

# The full composition-identity catalog: (name, lhs factors, rhs).
TEN_IDENTITIES = [
    ("(PH)(PH)(PH)=PH",
     (IdentityFactor("H"), IdentityFactor("H"), IdentityFactor("H")), "H"),
    ("(PH)(PH)(PSH)=PSH",
     (IdentityFactor("H"), IdentityFactor("H"), IdentityFactor("S H")), "S H"),
    ("(PH)(PSH)(PSH)=PZS",
     (IdentityFactor("H"), IdentityFactor("S H"), IdentityFactor("S H")), "Z S"),
    ("(PH)(PH)(PTH)=PTH",
     (IdentityFactor("H"), IdentityFactor("H"), IdentityFactor("T H")), "T H"),
    ("(PSH)(PH)(PTH)=PTDGH",
     (IdentityFactor("S H"), IdentityFactor("H"), IdentityFactor("T H")), "TDG H"),
    ("(PSH)(PH)(PTDGH)=PTH",
     (IdentityFactor("S H"), IdentityFactor("H"), IdentityFactor("TDG H")), "T H"),
    ("(PH)(PH)(PTDGH)=PTDGH",
     (IdentityFactor("H"), IdentityFactor("H"), IdentityFactor("TDG H")), "TDG H"),
    ("(PSH)(PH)=PS",
     (IdentityFactor("S H"), IdentityFactor("H")), "S"),
    ("(PS)(PSTH)(P'H)=PT",
     (IdentityFactor("S"), IdentityFactor("S T H"), IdentityFactor("H", P_PRIME)), "T"),
    ("(PS)(PSTDGH)(P''H)=PT",
     (IdentityFactor("S"), IdentityFactor("S TDG H"), IdentityFactor("H", P_DPRIME)), "T"),
]


def verify_all_identities():
    """Run the whole catalog; returns list of (name, passed)."""
    return [(name, verify_identity(lhs, rhs)) for name, lhs, rhs in TEN_IDENTITIES]
