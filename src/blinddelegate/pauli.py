"""Pauli byproduct frames, the one frame matcher, and the identity catalog.

A PauliFrame is one of the four classes {I, X, Z, XZ} with phases discarded.
`match_frames` decides whether a one- or two-wire unitary is a Pauli frame
times a target, and which frame. The source paper's composition identities,
(P A)(P B)(P C) = P * target, are checked with it: `verify_identity` multiplies
out every assignment of the Pauli slots as matrices and matches the product
against the right-hand side's matrix.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import qsim

LETTER_MATRICES = {name: g.entries for name, g in qsim.GATES.items() if g.num_qubits == 1}


@dataclass(frozen=True)
class PauliFrame:
    """Pauli byproduct class X^x Z^z; composition is bitwise XOR."""

    x: int = 0
    z: int = 0

    def __post_init__(self):
        object.__setattr__(self, "x", int(self.x) % 2)
        object.__setattr__(self, "z", int(self.z) % 2)

    @property
    def matrix(self) -> np.ndarray:
        m = np.eye(2, dtype=complex)
        if self.x:
            m = m @ qsim.X.entries
        if self.z:
            m = m @ qsim.Z.entries
        return m

    def __repr__(self):
        return {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "XZ"}[(self.x, self.z)]


FRAME_I = PauliFrame(0, 0)
FRAME_X = PauliFrame(1, 0)
FRAME_Z = PauliFrame(0, 1)
FRAME_XZ = PauliFrame(1, 1)
ALL_FRAMES = (FRAME_I, FRAME_X, FRAME_Z, FRAME_XZ)


def frame(x: int, z: int) -> PauliFrame:
    """The module frame X^x Z^z for bits x and z: a table lookup, equal by
    field to PauliFrame(x, z)."""
    return ALL_FRAMES[x | z << 1]


# X^x Z^z of one wire, or of a two-wire cell with its frames listed low slot
# first (the low slot acts on index bit 0).
FRAME_MATRICES = {(f,): f.matrix for f in ALL_FRAMES}
FRAME_MATRICES.update(
    ((f0, f1), qsim.kron(f1.matrix, f0.matrix)) for f0 in ALL_FRAMES for f1 in ALL_FRAMES
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


def word_matrix(text: str) -> np.ndarray:
    """Product of space-separated letters, e.g. "S H T"; the rightmost acts first."""
    m = np.eye(2, dtype=complex)
    for letter in text.split():
        if letter not in LETTER_MATRICES:
            raise ValueError(f"unknown letter {letter!r}")
        m = m @ LETTER_MATRICES[letter]
    return m


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
    right with the rightmost acting first. True iff every slot assignment's
    product matches rhs up to a left Pauli factor (free) and a global phase.
    """
    target = word_matrix(rhs)
    cores = [word_matrix(f.core) for f in lhs_factors]
    for assignment in itertools.product(*(f.domain for f in lhs_factors)):
        lhs = np.eye(2, dtype=complex)
        for p, core in zip(assignment, cores):
            lhs = lhs @ FRAME_MATRICES[(p,)] @ core
        if match_frames(lhs, target) is None:
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
