"""Reference implementations that only the tests use.

An oracle computes a quantity the direct way, with no shared code path, so
a test can check the package's faster route against it.
"""

import numpy as np

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
