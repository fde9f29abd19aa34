"""End-to-end acceptance criteria.

Each test covers one criterion, prints exactly one pass/fail line, and fails
honestly if the stated tolerance or time budget is exceeded.
"""

import itertools
import time

import numpy as np
import pytest
from numpy.random import default_rng

from blinddelegate import adversaries, blindness, cli, graphs, pauli, protocols, qsim
from blinddelegate.errors import DegenerateMeasurementError
from blinddelegate.protocols import ChannelModel


def _report(log, name: str, ok: bool, elapsed: float, budget: float):
    flag = "PASS" if ok and elapsed < budget else "FAIL"
    log(f"criterion {name}: {flag} (elapsed {elapsed:.2f}s, budget {budget:g}s)")
    assert ok
    assert elapsed < budget, f"{name} exceeded its {budget}s budget"


def test_c01_single_round_rotation_identity(acceptance_log):
    """One round applies Z^a R_theta X^m H on the addressed wire (1e-10)."""
    start = time.monotonic()
    ok = True
    channel = ChannelModel(0.0)
    rng = default_rng(77)
    for k in (0, 2, 7, 1):
        for a, m in itertools.product((0, 1), repeat=2):
            for _ in range(50):
                psi = qsim.random_state(2, rng)
                _, _, out, _ = protocols.round2_step(
                    psi, 0, qsim.Angle(k), channel, [a, m]
                )
                op = qsim.H.entries
                if m:
                    op = qsim.X.entries @ op
                op = np.diag([1.0, np.exp(1j * k * np.pi / 4)]) @ op
                if a:
                    op = qsim.Z.entries @ op
                ref = qsim.expand_gate(qsim.GateMatrix(op, "ref"), [0], 2)
                want = qsim.StateVector(ref @ psi.amplitudes, check=False)
                ok = ok and qsim.matrices_equal_up_to_phase(out.amplitudes, want.amplitudes, 1e-10)
    _report(acceptance_log, "01 round-rotation-identity", ok, time.monotonic() - start, 1.0)


def test_c02_composition_identity_catalog(acceptance_log):
    """All ten word identities hold, and the Pauli-slot restrictions matter."""
    start = time.monotonic()
    results = pauli.verify_all_identities()
    ok = len(results) == 10 and all(passed for _, passed in results)
    for name, lhs, rhs in pauli.TEN_IDENTITIES:
        if "(P'H)" in name or "(P''H)" in name:
            widened = [
                pauli.IdentityFactor(f.core, domain=pauli.ALL_FRAMES) for f in lhs
            ]
            ok = ok and not pauli.verify_identity(widened, rhs)
    _report(acceptance_log, "02 identity-catalog", ok, time.monotonic() - start, 1.0)


def test_c03_blocks_exhaustive_branches(acceptance_log):
    """Every one-wire block the compiler emits realizes its gate on every
    outcome branch (64 for three rounds, one for a Pauli)."""
    start = time.monotonic()
    singles = [name for name, arity in protocols.GATE_ARITY.items() if arity == 1]
    kinds = {event[1].entry.name for name in singles
             for event in protocols.compile_circuit([protocols.Gate(name, (0,))], pad_to=9).events
             if event[0] == "extract"}
    ok = kinds == set(graphs.BLOCK_TABLE)
    rng = default_rng(5)
    for kind in sorted(kinds):
        builder = protocols._ProgramBuilder(1)
        builder.group(graphs.group_entry(kind), (0,))
        program = builder.program
        target = graphs.BLOCK_TABLE[kind][2]
        psi = qsim.random_state(1, rng)
        want = qsim.StateVector(target @ psi.amplitudes, check=False)
        total = 0.0
        for bits in itertools.product((0, 1), repeat=2 * program.num_rounds):
            forced = [(bits[2 * r], bits[2 * r + 1]) for r in range(program.num_rounds)]
            try:
                result = protocols.run_protocol2(
                    program, psi, ChannelModel(0.0), forced_outcomes=forced
                )
            except DegenerateMeasurementError:
                continue
            total += result.branch_probability
            corrected = protocols.correct_output(result)
            ok = ok and qsim.matrices_equal_up_to_phase(
                corrected.amplitudes, want.amplitudes, 1e-10)
        ok = ok and abs(total - 1.0) < 1e-10
    _report(acceptance_log, "03 block-branches", ok, time.monotonic() - start, 5.0)


def _random_circuit(rng):
    wires = int(rng.integers(1, 3))
    depth = int(rng.integers(1, 5))
    singles = ("H", "S", "SDG", "T", "TDG", "X", "Z")
    gates = []
    for _ in range(depth):
        if wires == 2 and rng.random() < 0.4:
            name = "CZ" if rng.random() < 0.5 else "CNOT"
            gates.append(protocols.Gate(name, (0, 1)))
        else:
            wire = int(rng.integers(wires))
            gates.append(protocols.Gate(str(rng.choice(singles)), (wire,)))
    return gates, wires


def test_c04_random_circuits_with_loss(acceptance_log):
    """100 random circuits delegate correctly at loss 0 and 0.5 with the same
    outcome stream (fidelity >= 1 - 1e-9)."""
    start = time.monotonic()
    ok = True
    rng = default_rng(101)
    for trial in range(100):
        gates, wires = _random_circuit(rng)
        program = protocols.compile_circuit(gates, num_wires=wires)
        psi = qsim.random_state(wires, rng)
        want = qsim.StateVector(
            protocols.circuit_unitary(gates, wires) @ psi.amplitudes, check=False
        )
        m_streams, outputs = [], []
        for loss in (0.0, 0.5):
            result = protocols.run_protocol2(
                program, psi, ChannelModel(loss, rng_seed=trial),
                rng=default_rng([44, trial]),
            )
            corrected = protocols.correct_output(result)
            ok = ok and qsim.fidelity(corrected, want) >= 1.0 - 1e-9
            m_streams.append(
                [m.payload for m in result.transcript if m.kind == "X_RESULT"]
            )
            outputs.append(corrected.amplitudes)
        ok = ok and m_streams[0] == m_streams[1]
        ok = ok and np.allclose(outputs[0], outputs[1], atol=1e-12)
    _report(acceptance_log, "04 random-circuits-loss", ok, time.monotonic() - start, 60.0)


def _oracle_chain_distribution(plan, n):
    """Brute-force sequential-projection reference, independent of the runner."""
    amps = graphs.build_graph_state(graphs.linear_cluster(n)).state.amplitudes
    dist = {0: 0.0, 1: 0.0}

    def recurse(vec, x, z, i):
        if i == len(plan):
            for b in (0, 1):
                dist[b ^ x] += float(abs(vec[b]) ** 2)
            return
        theta = plan[i].base_angle.radians
        phi = -theta if x else theta
        t = vec.reshape(2, -1, order="F")
        for s in (0, 1):
            sign = 1.0 if s == 0 else -1.0
            branch = (t[0] + sign * np.exp(1j * phi) * t[1]) / np.sqrt(2.0)
            recurse(branch, (s + z) % 2, x, i + 1)

    recurse(amps, 0, 0, 0)
    return dist


CHAIN_CIRCUITS = [
    "H 0",
    "S 0",
    "T 0\nH 0",
    "H 0\nS 0\nH 0",
    "S 0\nT 0\nH 0",
    "T 0\nTDG 0\nS 0\nH 0",
]


def test_c05_chain_protocol_distributions(acceptance_log):
    """Measured-client outcome distributions match an independent projection
    oracle and the analytic law for chains up to 8 vertices (1e-10)."""
    start = time.monotonic()
    ok = True
    for text in CHAIN_CIRCUITS:
        plan = protocols.circuit_to_chain(protocols.parse_circuit(text))
        n = len(plan) + 1
        resource = graphs.build_graph_state(graphs.linear_cluster(n))
        measured = protocols.enumerate_distribution(
            protocols.run_protocol1, resource, plan, num_bits=n
        )
        oracle = _oracle_chain_distribution(plan, n)
        out = protocols.chain_unitary(plan) @ qsim.plus_state(1).amplitudes
        for b in (0, 1):
            got = measured.get((b,), 0.0)
            ok = ok and abs(got - oracle[b]) < 1e-10
            ok = ok and abs(got - float(abs(out[b]) ** 2)) < 1e-10
        ok = ok and abs(sum(measured.values()) - 1.0) < 1e-10
    _report(acceptance_log, "05 chain-distributions", ok, time.monotonic() - start, 30.0)


def test_c06_blindness_both_protocols(acceptance_log):
    """The server's view is secret-independent: honest marginals, arbitrary
    substituted joints, per-round pair halves, and reported-bit biases."""
    start = time.monotonic()
    rng = default_rng(31)
    secrets = [(0, 2, 7), (1, 4, 2), (7, 7, 0), (3, 5, 6), (2, 0, 1)]
    report = blindness.certify_protocol1(secrets, n_povms=2, rng=rng)
    marginals = [l for l in report.lines if l.check == "p1-marginal"]
    ok = len(marginals) == 10 and all(l.max_dev < 1e-12 for l in marginals)
    ok = ok and report.passed

    for _ in range(20):
        joint = adversaries.random_mixed_state(4, rng)
        views = [
            blindness.protocol1_views(joint, [0, 1], [angles])[0]
            for angles in ((0, 0), (int(rng.integers(8)), int(rng.integers(8))))
        ]
        dev = float(np.max(np.abs(views[0].entries - views[1].entries)))
        ok = ok and dev < 1e-12

    for k in range(8):
        view = blindness.bob_view_protocol2_round(qsim.Angle(k))
        ok = ok and float(np.max(np.abs(view.entries - np.eye(2) / 2))) < 1e-12

    for text in ("H 0", "T 0"):
        program = protocols.compile_circuit(protocols.parse_circuit(text))
        biases = blindness.biases_from_distribution(
            blindness.m_string_distribution(program, qsim.basis_state(1, 0)), program.num_rounds)
        ok = ok and max(biases) < 1e-12
    _report(acceptance_log, "06 blindness", ok, time.monotonic() - start, 30.0)


def _pauli_pair_matches(op, target):
    paulis = [
        np.eye(2, dtype=complex),
        qsim.X.entries,
        qsim.Z.entries,
        qsim.X.entries @ qsim.Z.entries,
    ]
    return any(
        qsim.matrices_equal_up_to_phase(op, np.kron(p1, p0) @ target, 1e-10)
        for p1 in paulis
        for p0 in paulis
    )


def test_c07_unit_cell_calibration(acceptance_log):
    """Calibration reconstructs every catalog operation, the frozen schedules
    are branch-deterministic at 1e-10, and two cells compose into a CNOT."""
    start = time.monotonic()
    cal = graphs.calibrate_unit_cell()
    ok = set(cal.entries) == {
        "IxI", "HxI", "SHxI", "STHxI", "STDGHxI", "CZ", "CZCNOT"
    }
    ok = ok and cal.bridge == (0, 2)

    for entry in cal.entries.values():
        for bits in itertools.product((0, 1), repeat=6):
            op = graphs.cell_operator(
                entry.wire0, entry.wire1, entry.bridge, bits[:3], bits[3:]
            )
            ok = ok and _pauli_pair_matches(op, entry.target)

    # CNOT = CZ cell after the bridged CZ*CNOT cell
    first = cal.entries["CZCNOT"]
    second = cal.entries["CZ"]
    zero = (0, 0, 0)
    product = graphs.cell_operator(
        second.wire0, second.wire1, second.bridge, zero, zero
    ) @ graphs.cell_operator(first.wire0, first.wire1, first.bridge, zero, zero)
    ok = ok and _pauli_pair_matches(product, qsim.CNOT.entries)
    rng = default_rng(3)
    for _ in range(20):
        bits = rng.integers(0, 2, size=12)
        op1 = graphs.cell_operator(
            first.wire0, first.wire1, first.bridge, tuple(bits[:3]), tuple(bits[3:6])
        )
        op2 = graphs.cell_operator(
            second.wire0, second.wire1, second.bridge,
            tuple(bits[6:9]), tuple(bits[9:]),
        )
        ok = ok and _pauli_pair_matches(op2 @ op1, qsim.CNOT.entries)

    resource = graphs.build_graph_state(graphs.tile(1, 2))
    for v in range(resource.graph.num_vertices):
        ok = ok and graphs.stabilizer_expectation(resource, v) > 1.0 - 1e-10
    _report(acceptance_log, "07 unit-cell-calibration", ok, time.monotonic() - start, 120.0)


def test_c08_loss_side_channel(acceptance_log):
    """The evil device recovers every digit through honest loss reports; the
    masking countermeasure collapses the channel's mutual information."""
    start = time.monotonic()
    ok = True
    for k in range(8):
        program = adversaries.make_signal_program(k)
        _, _, success = adversaries.run_with_evil_device(
            program, False, ChannelModel(0.0, rng_seed=k), default_rng([0, k])
        )
        ok = ok and success
    mi_off = adversaries.estimate_mutual_information(
        adversaries.collect_attack_samples(10_000, False, 0.0, seed=0))
    mi_on = adversaries.estimate_mutual_information(
        adversaries.collect_attack_samples(10_000, True, 0.0, seed=0))
    ok = ok and 2.9 <= mi_off <= 3.1
    ok = ok and mi_on < 0.02
    _report(acceptance_log, "08 loss-side-channel", ok, time.monotonic() - start, 30.0)


def test_c09_resource_integrity(acceptance_log):
    """Graph-state stabilizers sit at +1 (1e-12); tampering with a qubit or a
    single edge is caught by an adjacent stabilizer."""
    start = time.monotonic()
    ok = True
    for graph in (graphs.linear_cluster(5), graphs.tile(1, 1), graphs.tile(1, 2)):
        resource = graphs.build_graph_state(graph)
        for v in range(graph.num_vertices):
            ok = ok and abs(graphs.stabilizer_expectation(resource, v) - 1.0) < 1e-12
    chain = graphs.linear_cluster(4)
    clean = graphs.build_graph_state(chain)
    # flipped qubit
    tampered = qsim.apply_gate(clean.state, qsim.Z, [1])
    try:
        graphs.ResourceState(chain, tampered, check=True)
        ok = False
    except ValueError:
        pass
    broken = graphs.ResourceState(chain, tampered, check=False)
    ok = ok and graphs.stabilizer_expectation(broken, 1) < 1.0 - 1e-6
    # missing edge (a second CZ cancels the entangler on (1, 2))
    unglued = qsim.apply_gate(clean.state, qsim.CZ, [1, 2])
    try:
        graphs.ResourceState(chain, unglued, check=True)
        ok = False
    except ValueError:
        pass
    broken = graphs.ResourceState(chain, unglued, check=False)
    adjacent = (
        graphs.stabilizer_expectation(broken, 1),
        graphs.stabilizer_expectation(broken, 2),
    )
    ok = ok and min(adjacent) < 1.0 - 1e-6
    _report(acceptance_log, "09 resource-integrity", ok, time.monotonic() - start, 5.0)


def test_c10_cli_reproducibility(tmp_path, monkeypatch, acceptance_log):
    """Same-seed runs emit byte-identical artifacts; the seed environment
    variable overrides the flag."""
    start = time.monotonic()
    monkeypatch.delenv(cli.ENV_SEED, raising=False)
    circuit = tmp_path / "circuit.txt"
    circuit.write_text("H 0\nT 0\nCNOT 0 1\n")
    argv = ["run", "--protocol", "2", "--circuit", str(circuit),
            "--loss", "0.35", "--seed", "13"]
    ok = cli.main(argv + ["--outdir", str(tmp_path / "a")]) == 0
    ok = ok and cli.main(argv + ["--outdir", str(tmp_path / "b")]) == 0
    for name in ("transcript.txt", "report.txt"):
        ok = ok and (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()
    monkeypatch.setenv(cli.ENV_SEED, "14")
    ok = ok and cli.main(argv + ["--outdir", str(tmp_path / "c")]) == 0
    header_a = (tmp_path / "a" / "transcript.txt").read_text().splitlines()[0]
    header_c = (tmp_path / "c" / "transcript.txt").read_text().splitlines()[0]
    ok = ok and header_a != header_c and "seed=14" in header_c
    _report(acceptance_log, "10 cli-reproducibility", ok, time.monotonic() - start, 30.0)
