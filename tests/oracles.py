"""Reference implementations that only the tests use.

An oracle computes a quantity the direct way, with no shared code path, so
a test can check the package's faster route against it.
"""

import functools
import itertools

import numpy as np

from blinddelegate import graphs, qsim
from blinddelegate.errors import FormatError
from blinddelegate.protocols import Message
from blinddelegate.qsim import DensityMatrix, StateVector


def partial_trace(obj, keep) -> DensityMatrix:
    """Reduced density matrix of a StateVector or DensityMatrix on the qubits
    in `keep` (ascending index order)."""
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
        # Fortran order makes tensor axis j correspond to qubit j, and the
        # Fortran reshape keeps keep[0] as the least-significant output bit.
        psi = obj.amplitudes.reshape([2] * n, order="F")
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


def measured_branch(amps, qubit, vec) -> np.ndarray:
    """Amplitudes of <vec|_qubit psi (not normalised), indexed with the qubit
    removed: the ket `vec` conjugated against each pair of amplitudes."""
    idx = np.arange(len(amps) // 2)
    at0 = ((idx >> qubit) << (qubit + 1)) | (idx & ((1 << qubit) - 1))
    return np.conj(vec[0]) * amps[at0] + np.conj(vec[1]) * amps[at0 | (1 << qubit)]


def signed_permutation(amplitudes, x_mask, z_qubits) -> np.ndarray:
    """X^x Z^z applied one element at a time: out[i] = +-amplitudes[i ^ x_mask],
    negated when the `z_qubits` bits of i ^ x_mask (each listed qubit once per
    listing) have odd parity. Python complex negation flips both signs, zeros
    included."""
    values = np.asarray(amplitudes, dtype=complex).tolist()
    out = []
    for i in range(len(values)):
        j = i ^ x_mask
        odd = sum((j >> q) & 1 for q in z_qubits) % 2
        out.append(-values[j] if odd else values[j])
    return np.array(out, dtype=complex)


def parse_transcript(text: str):
    """(header fields, messages) of a protocols.format_transcript text;
    FormatError without the `run ...` header or on a malformed line."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("run "):
        raise FormatError("transcript must start with a `run ...` header")
    header = {}
    for fieldtext in lines[0][4:].split():
        key, _, value = fieldtext.partition("=")
        header[key] = value
    messages = []
    for ln in lines[1:]:
        try:
            fields = dict(f.split("=", 1) for f in ln.split())
            payload = None if fields["p"] == "-" else int(fields["p"])
            messages.append(Message(int(fields["r"]), fields["d"], fields["k"], payload))
        except (KeyError, ValueError) as exc:
            raise FormatError(f"malformed transcript line: {ln!r}") from exc
    return header, messages


# The unit-cell catalog's gates in catalog order: a 2x2 gate acts on wire 0
# of a one-wire cell, a 4x4 one (wire 0 the low index bit) on both wires.
_H, _S = qsim.H.entries, qsim.S.entries
_CATALOG_GATES = {
    "IxI": np.eye(2, dtype=complex),
    "SHxI": _S @ _H,
    "STHxI": _S @ qsim.T.entries @ _H,
    "STDGHxI": _S @ qsim.TDG.entries @ _H,
    "HxI": _H,
    "CZCNOT": qsim.CZ.entries @ qsim.CNOT.entries,  # the CNOT's control is wire 0
    "CZ": qsim.CZ.entries,
}
# Angle grids of the search (indices k with theta = k*pi/4): one for the
# one-wire cells, and the two Clifford angles for the entangling cells, which
# need no cross-wire adaptation to be the same gate on every branch.
_SEARCH_ANGLES = (0, 2, 7, 1)
_CLIFFORD_ANGLES = (0, 2)


def _constant_schedules(grid):
    for base in itertools.product(grid, repeat=graphs.ROUNDS_PER_CELL):
        yield graphs.WireSchedule(base)


def _adaptive_schedules(grid):
    for k1, k2 in itertools.product(grid, repeat=2):
        for c0, c1 in itertools.product(grid, repeat=2):
            if c0 != c1:
                yield graphs.WireSchedule((k1, k2, c0), adapt3=(c0, c1))


def _search_single_wire(gate):
    """The first wire-0 schedule, constant ones before adaptive ones, whose
    every branch word is Pauli * gate, or None."""
    for sched in itertools.chain(
            _constant_schedules(_SEARCH_ANGLES), _adaptive_schedules(_SEARCH_ANGLES)):
        if graphs.branch_frames(sched, None, None, gate) is not None:
            return sched
    return None


def _search_entangling(gate):
    """(wire 0, wire 1, bridge) of the first bridge, then schedule pair, whose
    every branch word is Pauli * gate, over constant schedules on the two
    Clifford angles; three Nones if there is none."""
    schedules = list(_constant_schedules(_CLIFFORD_ANGLES))
    for bridge in itertools.product(range(graphs.ROUNDS_PER_CELL + 1), repeat=2):
        for w0, w1 in itertools.product(schedules, repeat=2):
            if graphs.branch_frames(w0, w1, bridge, gate) is not None:
                return w0, w1, bridge
    return None, None, None


@functools.cache
def searched_catalog() -> dict:
    """{name: (wire 0, wire 1, bridge, target)} for each catalog cell, in
    catalog order: make_entry's arguments for the search's first hit. A
    one-wire cell idles wire 1 on IxI's schedule, IxI on its own."""
    rows = {}
    for name, gate in _CATALOG_GATES.items():
        if gate.shape == (2, 2):
            w0 = _search_single_wire(gate)
            idle = w0 if name == "IxI" else rows["IxI"][0]
            rows[name] = (w0, idle, None, np.kron(np.eye(2), gate))
        else:
            rows[name] = (*_search_entangling(gate), gate)
    return rows
