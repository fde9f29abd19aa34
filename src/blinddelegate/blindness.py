"""What the server can see, and checks that it is independent of the secret.

The quantum side reduces to small density matrices: the server's share of a
joint state after the client measures her share, or the fresh pair half left
behind by one round. The classical side is the exact distribution of the
reported X-bits, and the number of deliveries: resends are channel noise,
drawn independently per delivery, so equal delivery counts give equal
resend-count distributions.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from . import graphs, protocols, qsim
from .qsim import Angle, DensityMatrix

BLINDNESS_TOL = 1e-9


def _close(a, b) -> bool:
    """np.allclose(a, b, atol=1e-12)'s test on finite entries; NaN fails."""
    return bool((abs(a - b) <= 1e-12 + 1e-5 * abs(b)).all())


class Povm:
    """A finite set of PSD elements summing to the identity, held as one
    (n, d, d) array (a list of d x d elements is stacked). Completeness and
    Hermiticity are each one _close test over the stack, |a - b| <= 1e-12 +
    1e-5 |b| entry by entry; positivity is one eigvalsh, none below -1e-10."""

    def __init__(self, elements):
        self.elements = np.asarray(elements, dtype=complex)
        if not _close(self.elements.sum(axis=0), np.eye(self.elements.shape[-1])):
            raise ValueError("POVM elements must sum to the identity")
        if not _close(self.elements, self.elements.conj().transpose(0, 2, 1)):
            raise ValueError("POVM elements must be Hermitian")
        if np.linalg.eigvalsh(self.elements).min() < -1e-10:
            raise ValueError("POVM elements must be positive semidefinite")


def random_povm(dim: int, n_elements: int, rng) -> Povm:
    """Draw Wishart factors and normalize them into a complete POVM.

    One rng.normal call draws every factor's real and imaginary parts, in
    the order of per-element draws, and every product is a stacked np.matmul
    (each element gets its own np.dot's floats), so the elements equal
    per-element draws bit for bit."""
    g = rng.normal(size=(n_elements, 2, dim, dim))
    g = g[:, 0] + 1j * g[:, 1]
    raws = np.matmul(g.conj().transpose(0, 2, 1), g)
    vals, vecs = np.linalg.eigh(raws.sum(axis=0))
    inv_sqrt = vecs @ np.diag(vals**-0.5) @ vecs.conj().T
    elements = inv_sqrt @ raws @ inv_sqrt
    return Povm((elements + elements.conj().transpose(0, 2, 1)) / 2)


def povm_distribution(rho: DensityMatrix, povm: Povm) -> np.ndarray:
    """The outcome probabilities tr(E_i rho) of each element of `povm`."""
    return np.matmul(povm.elements, rho.entries).trace(axis1=1, axis2=2).real


def protocol1_views(joint, alice_qubits, secrets) -> list:
    """The server's view of each secret (an angle per client qubit), a
    DensityMatrix: his conditional states summed over the outcomes of the
    client, who measures `alice_qubits` of the joint state (a StateVector or
    a DensityMatrix) in turn by protocol 1's vertex step. A mixed joint state
    sum_i l_i |v_i><v_i| has the view sum_i l_i view(v_i): one
    protocols.walk_protocol1 has a root per (secret, eigenvector). No
    outcome-dependent message ever reaches the server, so the classical view
    is constant."""
    alice_qubits = list(alice_qubits)
    secrets = [[a if isinstance(a, Angle) else Angle(a) for a in s] for s in secrets]
    if any(len(alice_qubits) != len(s) for s in secrets):
        raise ValueError("one angle per client qubit")
    weights, vectors = (np.linalg.eigh(joint.entries) if isinstance(joint, DensityMatrix)
                        else (np.ones(1), joint.amplitudes[:, None]))
    if not set(range(joint.num_qubits)) - set(alice_qubits):
        raise ValueError("server must retain at least one qubit")

    plans = [[protocols.PlanStep(q, a) for q, a in zip(alice_qubits, s)] for s in secrets]
    count = len(weights)  # roots per secret: root r has weight weights[r % count]
    posts, probs, roots = protocols.walk_protocol1(
        np.concatenate([vectors.T] * len(secrets)), [plan for plan in plans for _ in weights])
    # (weight * prob) v v^dagger per leaf, np.outer's floats in one broadcast.
    outers = posts[:, :, None] * posts.conj()[:, None, :]
    leaves = (weights[roots % count] * probs)[:, None, None] * outers
    # Each secret's leaves are contiguous: a sum over the leading axis adds
    # them left to right, in the order of a walk of that secret alone.
    ends = [0, *np.searchsorted(roots, np.arange(1, len(secrets) + 1) * count).tolist()]
    return [DensityMatrix(leaves[a:b].sum(axis=0)) for a, b in zip(ends, ends[1:])]


def _pair_views(table) -> np.ndarray:
    """views[k] = sum_a p_a v v^dagger: the server's half of the pair that
    protocols._pair_table tables, once the client has measured at Angle(k),
    summed over her outcome a. On a wire in |0> the CZ acts trivially, so
    his map for either reported bit m leaves v / sqrt2 (the maps' column 0)."""
    p0, maps = table
    outs = maps[..., 0].reshape(8, 2, 2, 2)  # [k, a, m, s]
    halves = np.einsum("kams,kamt->kast", outs, outs.conj())
    p0 = np.array(p0)[:, None, None]
    return p0 * halves[:, 0] + (1.0 - p0) * halves[:, 1]


@functools.cache
def _round_views():
    """The honest round's views, built and checked once per process (on
    first use: the check's eigvalsh pulls in LAPACK, which runs never take)."""
    views = tuple(DensityMatrix(v) for v in _pair_views(protocols._bell_table()))
    for view in views:
        view.entries.setflags(write=False)
    return views


@functools.cache
def _round_view_distances(views):
    """[ki][kj]: the Frobenius distance of `views` (_round_views()) at ki, kj."""
    return tuple(tuple(qsim.frobenius_distance(a, b) for b in views) for a in views)


def bob_view_protocol2_round(theta: Angle) -> DensityMatrix:
    """The server-side pair half after the client's rotated measurement,
    averaged over her (unsent) outcome: _pair_views of the Bell pair's table
    that every round runs. It is I/2 for every angle (no-signaling). The
    entries are read-only: every call at one angle returns the same view."""
    return _round_views()[theta.k if isinstance(theta, Angle) else Angle(theta).k]


# --------------------------------------------------------------------------
# Exact classical view of the pair-per-round protocol
# --------------------------------------------------------------------------


def m_string_distribution(program, input_state) -> dict:
    """Exact distribution of the reported X-bit string: the leaves of one
    walk of the outcome tree (protocols.walk_protocol2), summed by string."""
    dist = {}
    for m_bits, prob in protocols.walk_protocol2(program, input_state):
        dist[m_bits] = dist.get(m_bits, 0.0) + prob
    return {"".join(map(str, m_bits)): prob for m_bits, prob in dist.items()}


def biases_from_distribution(dist: dict, num_rounds: int):
    """|P(m_r = 0) - 1/2| per round position of a string distribution."""
    biases = []
    for r in range(num_rounds):
        p0 = sum(p for s, p in dist.items() if s[r] == "0")
        biases.append(abs(p0 - 0.5))
    return biases


def _round_angle_options(plan):
    """Every command angle the client can send in this round: each tabled
    want, with either frame-cancelling sign."""
    ks = {k for want in plan.wants for k in (want.k, -want.k % 8)}
    return [qsim.ALL_ANGLES[k] for k in sorted(ks)]


# --------------------------------------------------------------------------
# Certification report
# --------------------------------------------------------------------------


@dataclass
class ReportLine:
    check: str
    secrets: tuple
    povm: int = None
    max_dev: float = 0.0
    passed: bool = True

    def render(self) -> str:
        i, j = self.secrets
        povm = "-" if self.povm is None else str(self.povm)
        flag = "true" if self.passed else "false"
        return (
            f"check={self.check} secrets={i},{j} povm={povm} "
            f"max_dev={self.max_dev:.12g} pass={flag}"
        )


@dataclass
class BlindnessReport:
    lines: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(line.passed for line in self.lines)

    def render(self) -> str:
        return "\n".join(line.render() for line in self.lines) + "\n"

    def add(self, check, secrets, dev, povm=None):
        self.lines.append(ReportLine(check, secrets, povm, float(dev), bool(dev < BLINDNESS_TOL)))


def _max_abs(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def certify_protocol1(secrets, joint=None, n_povms: int = 4,
                      rng=None) -> BlindnessReport:
    """Compare the server's quantum marginal across client secrets.

    `secrets` are equal-length angle vectors for the measured vertices. The
    joint state is the honest linear cluster with one retained output vertex
    when `joint` is None; a cheating server supplies its own instead.

    No outcome-dependent message reaches the server, so his classical view
    is the number of deliveries, one per measured vertex: `p1-transcript`
    compares those counts, which the equal-width check keeps equal.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    secrets = [[a if isinstance(a, Angle) else Angle(a) for a in s] for s in secrets]
    if len(secrets) < 2:  # a certificate that compares nothing could not fail
        raise ValueError(f"certification needs two or more secrets, got {len(secrets)}")
    width = len(secrets[0])
    if any(len(s) != width for s in secrets):
        raise ValueError("all secrets must measure the same number of qubits")
    if joint is None:
        joint = graphs.build_graph_state(graphs.linear_cluster(width + 1)).state

    views = protocol1_views(joint, range(width), secrets)
    bob_dim = views[0].entries.shape[0]
    povms = [random_povm(bob_dim, 4, rng) for _ in range(n_povms)]
    # Each POVM's outcome vector, once per view.
    outcomes = [[povm_distribution(v, povm) for v in views] for povm in povms]
    report = BlindnessReport()
    for i, j in itertools.combinations(range(len(secrets)), 2):
        report.add("p1-marginal", (i, j),
                   qsim.frobenius_distance(views[i], views[j]))
        report.add("p1-transcript", (i, j), float(len(secrets[i]) != len(secrets[j])))
        for p, dists in enumerate(outcomes):
            report.add("p1-povm", (i, j), _max_abs(dists[i], dists[j]), povm=p)
    return report


def certify_protocol2(secrets, n_povms: int = 4, rng=None) -> BlindnessReport:
    """Compare everything the server obtains across secret circuits.

    Each secret is a gate list; programs are padded to a common round count so
    the message pattern matches, then the per-round pair marginals and the
    exact reported-bit distribution are compared. `p2-resend` compares the
    delivery counts (one per round), which the padding keeps equal.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    if len(secrets) < 2:
        raise ValueError(f"certification needs two or more secrets, got {len(secrets)}")
    programs = [protocols.compile_circuit(s) for s in secrets]
    wires = max(p.num_wires for p in programs)
    rounds = max(p.num_rounds for p in programs)
    programs = [
        protocols.compile_circuit(s, num_wires=wires, pad_to=rounds) for s in secrets
    ]
    input_state = qsim.basis_state(wires, 0)

    # Per program and round, the angles the server's round view is taken at.
    round_angles = [[[t.k for t in _round_angle_options(plan)] for plan in prog.rounds]
                    for prog in programs]
    views = {k: bob_view_protocol2_round(k)
             for per_round in round_angles for ks in per_round for k in ks}
    distances = _round_view_distances(_round_views())
    m_dists = [m_string_distribution(p, input_state) for p in programs]
    povms = [random_povm(2, 4, rng) for _ in range(n_povms)]
    # Each POVM's outcome vector, once per distinct view.
    outcomes = [{k: povm_distribution(v, povm) for k, v in views.items()} for povm in povms]

    report = BlindnessReport()
    for i in range(len(secrets)):
        biases = biases_from_distribution(m_dists[i], rounds)
        # A program of Pauli gates only has no rounds, hence no bits to bias.
        report.add("p2-m-bias", (i, i), max(biases, default=0.0))
    for i, j in itertools.combinations(range(len(secrets)), 2):
        # Every pair of angles the two secrets can send in one round.
        compared = {(ki, kj) for per_i, per_j in zip(round_angles[i], round_angles[j])
                    for ki in per_i for kj in per_j}
        dev = max((distances[ki][kj] for ki, kj in compared), default=0.0)
        report.add("p2-round-view", (i, j), dev)

        keys = sorted(set(m_dists[i]) | set(m_dists[j]))
        dev = max(abs(m_dists[i].get(k, 0.0) - m_dists[j].get(k, 0.0)) for k in keys)
        report.add("p2-m-dist", (i, j), dev)
        report.add("p2-resend", (i, j),
                   float(programs[i].num_rounds != programs[j].num_rounds))
        for p, dists in enumerate(outcomes):
            dev = max((_max_abs(dists[ki], dists[kj]) for ki, kj in compared), default=0.0)
            report.add("p2-povm", (i, j), dev, povm=p)
    return report


def certify_B1_B2(protocol, secrets, n_povms: int = 4, rng=None) -> BlindnessReport:
    """Render a pass/fail line per comparison; `protocol` selects the family."""
    if int(protocol) == 1:
        return certify_protocol1(secrets, n_povms=n_povms, rng=rng)
    if int(protocol) == 2:
        return certify_protocol2(secrets, n_povms=n_povms, rng=rng)
    raise ValueError("protocol must be 1 or 2")
