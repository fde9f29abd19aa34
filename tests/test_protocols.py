import hashlib
import itertools
import re
import time

import numpy as np
import pytest
from numpy.random import default_rng

from blinddelegate import adversaries, blindness, graphs, pauli, protocols, qsim
from blinddelegate.errors import (
    CalibrationError,
    CapacityError,
    DegenerateMeasurementError,
    FormatError,
    RetryLimitError,
)
from blinddelegate.pauli import FRAME_I, match_frames
from blinddelegate.protocols import ChannelModel, Gate, Message
from oracles import parse_transcript


def test_message_direction_rules():
    Message(1, "B2A", "QUBIT_SENT")
    Message(1, "A2B", "ARRIVED")
    Message(3, "B2A", "X_RESULT", 1)
    with pytest.raises(ValueError):
        Message(1, "A2B", "QUBIT_SENT")
    with pytest.raises(ValueError):
        Message(1, "B2A", "DONE")
    with pytest.raises(ValueError):
        Message(1, "A2B", "HELLO")


def test_message_payload_rules():
    with pytest.raises(ValueError):
        Message(1, "B2A", "X_RESULT")
    with pytest.raises(ValueError):
        Message(1, "B2A", "X_RESULT", 2)
    # Each equals 1, but an X_RESULT carries the int bit.
    for payload in (True, 1.0, np.int64(1)):
        with pytest.raises(ValueError, match="exactly one bit"):
            Message(1, "B2A", "X_RESULT", payload)
    with pytest.raises(ValueError):
        Message(1, "A2B", "ARRIVED", 0)


@pytest.mark.parametrize("round_", [1.5, -3, "x", True, None])
def test_message_round_is_an_int_at_least_zero(round_):
    # True equals 1, but a round is the int; the cached form checks the same.
    for make in (Message, protocols._message):
        with pytest.raises(ValueError, match="round must be an int >= 0"):
            make(round_, "B2A", "QUBIT_SENT")
    assert Message(0, "A2B", "DONE").round == 0  # a zero-round program's one message


def test_message_is_an_immutable_record():
    msg = Message(3, "B2A", "X_RESULT", 1)
    assert (msg.round, msg.direction, msg.kind, msg.payload) == (3, "B2A", "X_RESULT", 1)
    assert msg == Message(3, "B2A", "X_RESULT", 1) != Message(3, "B2A", "X_RESULT", 0)
    assert Message(1, "A2B", "DONE").payload is None
    assert repr(msg) == "Message(round=3, direction='B2A', kind='X_RESULT', payload=1)"
    with pytest.raises(AttributeError):
        msg.payload = 0
    with pytest.raises(ValueError, match="exactly one bit"):
        Message(1, "B2A", "X_RESULT", [1])


@pytest.mark.parametrize("seed", [None, -1, 1.5, "3"], ids=repr)
def test_channel_refuses_a_seed_that_is_not_an_integer_at_least_0(seed):
    # None would seed a lossy run's loss stream from OS entropy; the others
    # would construct and fail only mid-run, inside numpy.
    with pytest.raises(ValueError, match="channel seed must be an integer >= 0"):
        ChannelModel(0.3, rng_seed=seed)


def test_channel_validation_and_transmit():
    with pytest.raises(ValueError):
        ChannelModel(-0.1)
    with pytest.raises(ValueError):
        ChannelModel(1.5)
    rng = default_rng(5)
    losses = sum(
        protocols.transmit(ChannelModel(0.25), rng) == protocols.LOST
        for _ in range(4000)
    )
    assert abs(losses / 4000 - 0.25) < 0.03
    assert protocols.transmit(ChannelModel(0.0), rng) == protocols.ARRIVED
    assert protocols.transmit(ChannelModel(1.0), rng) == protocols.LOST


def test_parse_circuit():
    gates = protocols.parse_circuit("h 0  # comment\n\ncnot 0 1\nT 1\n")
    assert gates == [Gate("H", (0,)), Gate("CNOT", (0, 1)), Gate("T", (1,))]


def test_parse_circuit_errors_carry_line_numbers():
    with pytest.raises(FormatError, match="line 2"):
        protocols.parse_circuit("H 0\nH x\n")
    with pytest.raises(FormatError, match="line 3"):
        protocols.parse_circuit("H 0\nS 1\nFOO 0\n")


def test_gate_validation():
    with pytest.raises(FormatError):
        Gate("CNOT", (1,))
    with pytest.raises(FormatError):
        Gate("CZ", (1, 1))
    with pytest.raises(FormatError):
        Gate("H", (-1,))


def test_circuit_unitary_matches_expanded_gates():
    gates = protocols.parse_circuit("H 0\nCNOT 0 1\nS 1\n")
    u = protocols.circuit_unitary(gates, 2)
    ref = np.eye(4, dtype=complex)
    ref = qsim.expand_gate(qsim.H, [0], 2) @ ref
    ref = qsim.expand_gate(qsim.CNOT, [0, 1], 2) @ ref
    ref = qsim.expand_gate(qsim.S, [1], 2) @ ref
    np.testing.assert_allclose(u, ref, atol=1e-12)


def test_gate_set_is_the_one_gate_table():
    assert list(protocols.GATE_ARITY) == ["H", "S", "SDG", "T", "TDG", "X", "Z", "CZ", "CNOT"]
    for name, arity in protocols.GATE_ARITY.items():
        assert arity == qsim.GATES[name].num_qubits


@pytest.mark.parametrize("n", [2, 3])
def test_circuit_unitary_of_one_gate_is_its_expanded_matrix(n):
    for name, gate in qsim.GATES.items():
        for wires in itertools.permutations(range(n), gate.num_qubits):
            u = protocols.circuit_unitary([Gate(name, wires)], n)
            assert np.array_equal(u, qsim.expand_gate(gate, list(wires), n)), (name, wires)


def _groups(program):
    return [event[1] for event in program.events if event[0] == "extract"]


def test_compile_single_blocks():
    program = protocols.compile_circuit(protocols.parse_circuit("S 0"))
    assert program.num_rounds == 3
    assert [p.commands[0][0] for p in program.rounds] == [2, 2, 0]
    assert all(p.commands[1] == p.commands[0] and p.driver is None for p in program.rounds)
    assert [p.round_index for p in program.rounds] == [1, 2, 3]
    assert [g.entry.name for g in _groups(program)] == ["S"]

    program = protocols.compile_circuit(protocols.parse_circuit("T 0"))
    assert program.num_rounds == 6
    assert [g.entry.name for g in _groups(program)] == ["H", "TH"]
    assert _groups(program)[1].rounds == (4, 5, 6)
    th_rounds = program.rounds[3:]
    assert [[c[0] for c in p.commands] for p in th_rounds] == [[7, 7], [0, 0], [0, 2]]
    assert [p.driver for p in th_rounds] == [None, None, 4]


@pytest.mark.parametrize("gate, wires", [(Gate("CZ", (0, 1)), 1), (Gate("H", (2,)), 2)])
def test_compile_rejects_a_gate_outside_the_wires(gate, wires):
    # Refused at compile time: a program naming a missing wire fails its
    # run with a ValueError and its walk with an IndexError.
    with pytest.raises(ValueError, match=f"wire {max(gate.wires)} is outside"):
        protocols.compile_circuit([gate], num_wires=wires)


def test_compile_pauli_group_has_no_rounds():
    program = protocols.compile_circuit(protocols.parse_circuit("X 0"))
    assert program.num_rounds == 0
    (group,) = _groups(program)
    assert group.rounds == ()
    np.testing.assert_allclose(group.entry.target, qsim.X.entries)


def test_compile_cnot_uses_two_bridged_cells():
    program = protocols.compile_circuit(protocols.parse_circuit("CNOT 0 1"))
    assert program.num_rounds == 12
    assert [g.entry.name for g in _groups(program)] == ["CZCNOT", "CZ"]
    bridges = [e for e in program.events if e[0] == "bridge"]
    assert len(bridges) == 2
    assert all(e[1] == (0, 1) for e in bridges)


def test_compile_padding():
    gates = protocols.parse_circuit("H 0\nH 1")
    program = protocols.compile_circuit(gates, pad_to=9)
    assert program.num_rounds == 9
    assert _groups(program)[-1].entry.name == "I"
    with pytest.raises(ValueError):
        protocols.compile_circuit(gates, pad_to=3)
    with pytest.raises(ValueError):
        protocols.compile_circuit(gates, pad_to=7)


# The one-map round and the sequence it replaced compute the same numbers
# in a different order, so they agree to rounding, not bit for bit.
ROUND_TOL = 1e-12

ROUND_PAIRS = {
    "bell": qsim.bell_pair(),
    "zeros": qsim.basis_state(2, 0),
    # Qubit 0 is the server's half, qubit 1 the client's: |+>_client |0>_server,
    # so at k = 0 she never reads 1 and at k = 4 never 0.
    "client-plus": qsim.StateVector(np.array([1, 0, 1, 0]) / np.sqrt(2)),
    "random": qsim.random_state(2, default_rng(17)),
}


def _reference_round(psi, wire, k, pair):
    """The round as a sequence: the pair joins the register (server half,
    then client half, above the wires), CZ on the server half and the wire,
    the client measures her half at Angle(k), the server reads the wire out
    in X and his half takes the wire's place. {(a, m): (prob, wires in
    order)} over every possible branch."""
    n = psi.num_qubits
    wires = [("wire", w) for w in range(n)]
    level = protocols._level(psi, wires, n)
    level.append(pair.amplitudes, ["server", "client"])
    level.apply(qsim.CZ, ["server", wires[wire]])
    a_of, a, pa = level.fork(None, "client", qsim.ROTATED_BRAS[k])
    m_of, m, pm = level.fork(None, wires[wire], qsim.ROTATED_BRAS[0])
    level.relabel("server", wires[wire])
    out = {}
    for j, (i, m_bit, p_m) in enumerate(zip(m_of, m, pm)):
        row = protocols._Level(level.amps[j:j + 1], level.labels, [None])
        out[a[i], m_bit] = (pa[i] * p_m, row.state(wires).amplitudes)
    return out


def _one_map_round(psi, wire, k, pair, forced=None):
    """The runtime's round on a level of one node: every branch (forced
    None, the walk), or the one the forced (a, m) names."""
    n = psi.num_qubits
    plan = protocols.RoundPlan(wire, 1, (protocols._COMMANDS[k],) * 2)
    pairs = protocols._pair_table(pair.amplitudes)
    level = protocols._start(protocols.AngleProgram(n), psi)
    if forced is None:  # the walk's records: a column of rows per node
        level = protocols._step(protocols._walk(level, []), ("round", plan), None, pairs)
        c = level.nodes
        records = zip(c.x[wire].tolist(), c.z[wire].tolist(), map(tuple, c.m.T.tolist()),
                      c.prob.tolist())
    else:
        pick = protocols._measurement(None, forced, 2)
        level = protocols._step(level, ("round", plan), pick, pairs)
        node = level.nodes
        assert node.command == k
        records = [(node.x[wire], node.z[wire], tuple(node.m), node.prob)]
    assert len(level.labels) == n
    out = {}
    for j, (x, z, m_bits, prob) in enumerate(records):
        assert m_bits == (x,)  # from the identity frame: (x, z) = (m, a)
        row = protocols._Level(level.amps[j:j + 1], level.labels, [None])
        out[z, x] = (prob, row.state([("wire", w) for w in range(n)]).amplitudes)
    return out


@pytest.mark.parametrize("pair_name", list(ROUND_PAIRS))
def test_one_map_round_equals_pair_cz_and_two_measurements(pair_name):
    pair = ROUND_PAIRS[pair_name]
    rng = default_rng([23, len(pair_name)])
    impossible = 0
    for n in (1, 2, 3):
        psi = qsim.random_state(n, rng)
        for wire, k in itertools.product(range(n), range(8)):
            want = _reference_round(psi, wire, k, pair)
            got = _one_map_round(psi, wire, k, pair)
            assert list(got) == list(want), (n, wire, k)
            impossible += 4 - len(want)
            for key, (p, amps) in want.items():
                forced = _one_map_round(psi, wire, k, pair, forced=list(key))
                for branch in (got[key], forced[key]):
                    assert abs(branch[0] - p) < ROUND_TOL, (n, wire, k, key)
                    np.testing.assert_allclose(branch[1], amps, rtol=0, atol=ROUND_TOL)
            for key in set(itertools.product((0, 1), repeat=2)) - set(want):
                with pytest.raises(DegenerateMeasurementError):
                    _one_map_round(psi, wire, k, pair, forced=list(key))
    # Only the |+> client half has impossible outcomes: a at k = 0 and 4.
    assert impossible == (2 * 2 * 6 if pair_name == "client-plus" else 0)


def test_protocol2_register_holds_only_the_wires(monkeypatch):
    """Every stack a protocol-2 run or walk measures, and every level after
    a step, holds exactly the program's wires: the pair never joins it."""
    widths = []
    measure_stack, measure_node, step = qsim.measure_stack, qsim.measure_node, protocols._step

    def recording_measure(stack, qubit, bras):
        widths.append(stack.shape[1])
        return measure_stack(stack, qubit, bras)

    def recording_node(amps, *args):
        widths.append(amps.size)
        return measure_node(amps, *args)

    def recording_step(level, *args):
        level = step(level, *args)
        widths.append(level.amps.shape[1])
        return level

    monkeypatch.setattr(qsim, "measure_stack", recording_measure)
    monkeypatch.setattr(qsim, "measure_node", recording_node)
    monkeypatch.setattr(protocols, "_step", recording_step)
    for text in ("H 0\nCNOT 0 1\nT 1", "CZ 0 1"):
        program = protocols.compile_circuit(protocols.parse_circuit(text))
        psi = qsim.random_state(program.num_wires, default_rng(4))
        for pair in (None, ROUND_PAIRS["random"]):
            widths.clear()
            protocols.run_protocol2(program, psi, ChannelModel(0.3), default_rng(5), pair=pair)
            assert len(widths) > program.num_rounds
            assert set(widths) == {2 ** program.num_wires}
        if program.num_rounds <= 6:
            widths.clear()
            leaves = list(protocols.walk_protocol2(program, psi))
            assert len(leaves) == 4 ** program.num_rounds
            assert set(widths) == {2 ** program.num_wires}


def test_round2_step_realizes_rotation_identity():
    # One round leaves Z^a R_theta X^m H on the addressed wire.
    channel = ChannelModel(0.0)
    rng = default_rng(21)
    for k in range(8):
        for a, m in itertools.product((0, 1), repeat=2):
            psi = qsim.random_state(2, rng)
            got_a, got_m, out, msgs = protocols.round2_step(
                psi, 0, qsim.Angle(k), channel, [a, m]
            )
            assert (got_a, got_m) == (a, m)
            op = qsim.H.entries
            if m:
                op = qsim.X.entries @ op
            op = np.diag([1.0, np.exp(1j * k * np.pi / 4)]) @ op
            if a:
                op = qsim.Z.entries @ op
            ref = qsim.expand_gate(qsim.GateMatrix(op, "ref"), [0], 2) @ psi.amplitudes
            assert qsim.matrices_equal_up_to_phase(out.amplitudes, ref, 1e-10)
            kinds = [msg.kind for msg in msgs]
            assert kinds == ["QUBIT_SENT", "ARRIVED", "X_RESULT"]


CIRCUITS = [
    ("H 0", 1),
    ("T 0\nH 0", 1),
    ("H 0\nCNOT 0 1\nS 1", 2),
    ("CZ 0 1\nTDG 0\nX 1", 2),
]


@pytest.mark.parametrize("text,wires", CIRCUITS)
def test_run_protocol2_matches_reference(text, wires):
    gates = protocols.parse_circuit(text)
    program = protocols.compile_circuit(gates, num_wires=wires)
    rng = default_rng([3, 0])
    psi = qsim.random_state(wires, default_rng(7))
    result = protocols.run_protocol2(program, psi, ChannelModel(0.0), rng=rng)
    corrected = protocols.correct_output(result)
    ref = protocols.circuit_unitary(gates, wires) @ psi.amplitudes
    assert qsim.matrices_equal_up_to_phase(corrected.amplitudes, ref, 1e-9)
    assert result.retransmission_count == 0
    assert result.rounds_completed == program.num_rounds


@pytest.mark.parametrize("text,wires,seed", [
    ("H 0\nCNOT 0 2\nT 1\nCZ 1 2", 3, 2),
    ("H 0\nCNOT 0 2\nT 1\nCZ 1 2", 3, 3),
    ("H 0\nCNOT 0 5\nT 3\nCZ 4 1\nCNOT 2 0\nH 5\nCZ 5 3", 6, 0),
])
def test_run_protocol2_beyond_two_wires_with_loss(text, wires, seed):
    # Cells bridge any two wires, so protocol 2 is not limited to two wires.
    # Same seeding as `blinddelegate run`, at loss 0.3.
    gates = protocols.parse_circuit(text)
    program = protocols.compile_circuit(gates)
    assert program.num_wires == wires
    psi = qsim.basis_state(wires, 0)
    channel = ChannelModel(0.3, rng_seed=seed)
    result = protocols.run_protocol2(program, psi, channel, rng=default_rng([seed, 0]))
    ref = protocols.circuit_unitary(gates, wires) @ psi.amplitudes
    assert qsim.matrices_equal_up_to_phase(protocols.correct_output(result).amplitudes, ref)
    assert result.retransmission_count > 0
    assert result.rounds_completed == program.num_rounds


def test_outcome_matched_seeding_across_loss():
    # the measurement stream is independent of the loss stream, so the same
    # seed yields identical outcome bits at any loss rate
    gates = protocols.parse_circuit("H 0\nT 0")
    program = protocols.compile_circuit(gates)
    psi = qsim.random_state(1, default_rng(11))

    def payloads(loss):
        result = protocols.run_protocol2(
            program, psi, ChannelModel(loss, rng_seed=4), rng=default_rng([9, 0])
        )
        bits = [m.payload for m in result.transcript if m.kind == "X_RESULT"]
        return bits, result.final_frames, protocols.correct_output(result)

    bits0, frames0, out0 = payloads(0.0)
    bits1, frames1, out1 = payloads(0.6)
    assert bits0 == bits1
    assert frames0 == frames1
    np.testing.assert_allclose(out0.amplitudes, out1.amplitudes, atol=1e-12)


def test_protocol2_branch_enumeration_sums_to_one():
    gates = protocols.parse_circuit("S 0")
    program = protocols.compile_circuit(gates)
    psi = qsim.random_state(1, default_rng(2))
    target = qsim.S.entries @ psi.amplitudes
    total = 0.0
    for bits in itertools.product((0, 1), repeat=6):
        forced = [(bits[2 * r], bits[2 * r + 1]) for r in range(3)]
        try:
            result = protocols.run_protocol2(
                program, psi, ChannelModel(0.0), forced_outcomes=forced
            )
        except DegenerateMeasurementError:
            continue
        total += result.branch_probability
        corrected = protocols.correct_output(result)
        assert qsim.matrices_equal_up_to_phase(corrected.amplitudes, target, 1e-10)
    assert total == pytest.approx(1.0, abs=1e-10)


def test_protocol2_input_shape_guard():
    program = protocols.compile_circuit(protocols.parse_circuit("H 0"))
    with pytest.raises(ValueError):
        protocols.run_protocol2(program, qsim.plus_state(2), ChannelModel(0.0))


def test_retry_cap_raises():
    program = protocols.compile_circuit(protocols.parse_circuit("H 0"))
    with pytest.raises(RetryLimitError):
        protocols.run_protocol2(
            program, qsim.plus_state(1), ChannelModel(1.0), rng=default_rng(0)
        )
    resource = graphs.build_graph_state(graphs.linear_cluster(2))
    plan = protocols.circuit_to_chain(protocols.parse_circuit("H 0"))
    with pytest.raises(RetryLimitError):
        protocols.run_teleport_variant(
            resource, plan, ChannelModel(1.0), rng=default_rng(0)
        )


def test_raw_program_runs_without_extraction():
    program = protocols.make_raw_program([0, 2, 7])
    result = protocols.run_protocol2(
        program, qsim.plus_state(1), ChannelModel(0.0), rng=default_rng(1)
    )
    assert result.rounds_completed == 3
    kinds = [m.kind for m in result.transcript]
    assert kinds.count("X_RESULT") == 3 and kinds[-1] == "DONE"


def test_chain_compiler():
    plan = protocols.circuit_to_chain(protocols.parse_circuit("H 0\nS 0"))
    assert [s.vertex for s in plan] == [0, 1, 2]
    assert [s.base_angle.k for s in plan] == [0, 2, 0]
    u = protocols.chain_unitary(plan)
    assert qsim.matrices_equal_up_to_phase(
        u, qsim.S.entries @ qsim.H.entries, 1e-12
    )
    with pytest.raises(FormatError):
        protocols.circuit_to_chain([Gate("CZ", (0, 1))])
    with pytest.raises(FormatError):
        protocols.circuit_to_chain([Gate("H", (1,))])
    with pytest.raises(FormatError, match="circuit is empty"):
        protocols.circuit_to_chain([])


def test_chain_unitary_reads_the_rotation_table_bit_for_bit():
    for k in range(8):
        u = protocols.chain_unitary([protocols.PlanStep(0, qsim.Angle(k))])
        ref = qsim.H.entries @ qsim.rotation(qsim.Angle(k)).entries
        assert u.tobytes() == ref.tobytes(), k


def test_chain_runner_rejects_wrong_resource():
    cell = graphs.build_graph_state(graphs.tile(1, 1))
    plan = protocols.circuit_to_chain(protocols.parse_circuit("H 0"))
    with pytest.raises(FormatError):
        protocols.run_protocol1(cell, plan)
    chain = graphs.build_graph_state(graphs.linear_cluster(2))
    bad_plan = [protocols.PlanStep(1, qsim.Angle(0))]
    with pytest.raises(FormatError):
        protocols.run_protocol1(chain, bad_plan)


def _chain_distribution(text):
    gates = protocols.parse_circuit(text)
    plan = protocols.circuit_to_chain(gates)
    n = len(plan) + 1
    resource = graphs.build_graph_state(graphs.linear_cluster(n))
    dist = protocols.enumerate_distribution(
        protocols.run_protocol1, resource, plan, num_bits=n
    )
    u = protocols.chain_unitary(plan)
    out = u @ qsim.plus_state(1).amplitudes
    expected = {(b,): float(abs(out[b]) ** 2) for b in (0, 1)}
    return dist, expected


@pytest.mark.parametrize("text", ["H 0", "S 0", "T 0\nH 0", "H 0\nS 0\nH 0"])
def test_protocol1_distribution_matches_analytic(text):
    dist, expected = _chain_distribution(text)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-10)
    for key in (0,), (1,):
        assert dist.get(key, 0.0) == pytest.approx(expected[key], abs=1e-10)


def test_teleport_variant_agrees_with_chain_protocol():
    gates = protocols.parse_circuit("T 0\nH 0")
    plan = protocols.circuit_to_chain(gates)
    n = len(plan) + 1
    resource = graphs.build_graph_state(graphs.linear_cluster(n))
    direct = protocols.enumerate_distribution(
        protocols.run_protocol1, resource, plan, num_bits=n
    )
    teleported = protocols.enumerate_distribution(
        protocols.run_teleport_variant,
        resource,
        plan,
        ChannelModel(0.0),
        num_bits=3 * n,
    )
    assert set(direct) == set(teleported)
    for key, p in direct.items():
        assert teleported[key] == pytest.approx(p, abs=1e-9)


def test_forced_impossible_branch_raises():
    plan = protocols.circuit_to_chain(protocols.parse_circuit("H 0"))
    resource = graphs.build_graph_state(graphs.linear_cluster(2))
    with pytest.raises(DegenerateMeasurementError):
        protocols.run_protocol1(resource, plan, forced_outcomes=[0, 1])


def test_forced_impossible_teleport_branch_raises():
    # H|+> = |0>: with every other bit 0 the raw read-out bit must be 0.
    plan = protocols.circuit_to_chain(protocols.parse_circuit("H 0"))
    resource = graphs.build_graph_state(graphs.linear_cluster(2))
    result = protocols.run_teleport_variant(
        resource, plan, ChannelModel(0.0), forced_outcomes=[0] * 6
    )
    assert result.outcome_bits == [0]
    assert result.branch_probability == pytest.approx(1 / 32, abs=1e-12)
    with pytest.raises(DegenerateMeasurementError):
        protocols.run_teleport_variant(
            resource, plan, ChannelModel(0.0), forced_outcomes=[0] * 5 + [1]
        )


def test_forced_impossible_protocol2_branch_raises():
    # A substituted |00> pair leaves the wire |+> untouched by the CZ, so the
    # server's X measurement can only report m = 0.
    program = protocols.make_raw_program([0])
    substitute = qsim.basis_state(2, 0)
    result = protocols.run_protocol2(
        program, qsim.plus_state(1), ChannelModel(0.0), pair=substitute,
        forced_outcomes=[(1, 0)],
    )
    assert result.branch_probability == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(DegenerateMeasurementError):
        protocols.run_protocol2(
            program, qsim.plus_state(1), ChannelModel(0.0), pair=substitute,
            forced_outcomes=[(1, 1)],
        )


def test_forced_outcome_other_than_a_bit_raises():
    program = protocols.make_raw_program([0, 0])
    with pytest.raises(DegenerateMeasurementError, match="forced outcome 2"):
        protocols.run_protocol2(program, qsim.plus_state(1), ChannelModel(0.0),
                                forced_outcomes=[(0, 2), (0, 0)])
    with pytest.raises(DegenerateMeasurementError, match="forced outcome 2"):
        protocols.round2_step(qsim.plus_state(1), 0, qsim.Angle(0), ChannelModel(0.0), [0, 2])
    # 0.0 equals the bit 0 but is not one.
    with pytest.raises(DegenerateMeasurementError, match="forced outcome 0.0"):
        protocols.run_protocol2(program, qsim.plus_state(1), ChannelModel(0.0),
                                forced_outcomes=[(0, 0.0), (0, 0)])
    plan = protocols.circuit_to_chain(protocols.parse_circuit("H 0"))
    resource = graphs.build_graph_state(graphs.linear_cluster(2))
    with pytest.raises(DegenerateMeasurementError, match="forced outcome 0.0"):
        protocols.run_protocol1(resource, plan, forced_outcomes=[0, 0.0])


@pytest.mark.parametrize("bit", [bool, np.int64])
def test_forced_integer_bits_write_the_transcript_of_int_bits(bit):
    program = protocols.compile_circuit(protocols.parse_circuit("H 0\nT 0"))
    draws = default_rng(4).integers(2, size=(program.num_rounds, 2)).tolist()

    def transcript(forced):
        result = protocols.run_protocol2(program, qsim.plus_state(1),
                                         ChannelModel(0.3, rng_seed=2), forced_outcomes=forced)
        return protocols.format_transcript("2", 2, 0.3, result.transcript)

    converted = [(bit(a), bit(m)) for a, m in draws]
    assert transcript(converted) == transcript(draws)


def test_forced_outcomes_must_cover_every_measurement():
    plan = protocols.circuit_to_chain(protocols.parse_circuit("H 0"))
    resource = graphs.build_graph_state(graphs.linear_cluster(2))
    with pytest.raises(ValueError, match="fewer forced outcomes"):
        protocols.run_protocol1(resource, plan, forced_outcomes=[0])
    with pytest.raises(ValueError, match="fewer forced outcomes"):
        protocols.round2_step(qsim.plus_state(1), 0, qsim.Angle(0), ChannelModel(0.0), [0])


def test_forced_outcomes_must_be_exactly_the_run_measurements():
    program = protocols.compile_circuit(protocols.parse_circuit("H 0"))
    psi, channel = qsim.plus_state(1), ChannelModel(0.0)
    pairs = [(0, 0)] * program.num_rounds
    protocols.run_protocol2(program, psi, channel, forced_outcomes=pairs)
    # Each round takes one (a, m) pair, and no bit may be left over.
    for bad in ([(0, 0, 1)] * program.num_rounds, [(0, 0, 1)] * 3, [0] * program.num_rounds,
                [*pairs[:-1], (0,)]):
        with pytest.raises(ValueError, match=r"\(a, m\) pairs"):
            protocols.run_protocol2(program, psi, channel, forced_outcomes=bad)
    with pytest.raises(ValueError, match="more forced outcomes than measurements"):
        protocols.run_protocol2(program, psi, channel, forced_outcomes=[(0, 0)] * 10)
    plan = protocols.circuit_to_chain(protocols.parse_circuit("H 0"))
    resource = graphs.build_graph_state(graphs.linear_cluster(2))
    assert protocols.run_protocol1(resource, plan, forced_outcomes=[0, 0]).outcome_bits == [0]
    with pytest.raises(ValueError, match="more forced outcomes than measurements: 5 for 2"):
        protocols.run_protocol1(resource, plan, forced_outcomes=[0, 0, 1, 1, 1])
    protocols.run_teleport_variant(resource, plan, channel, forced_outcomes=[0] * 6)
    with pytest.raises(ValueError, match="more forced outcomes than measurements: 20 for 6"):
        protocols.run_teleport_variant(resource, plan, channel, forced_outcomes=[0] * 20)
    # round2_step takes its forced [a, m] as the list of a run's two bits.
    a, m, _, _ = protocols.round2_step(psi, 0, qsim.Angle(0), channel, [1, 0])
    assert (a, m) == (1, 0)
    with pytest.raises(ValueError, match="more forced outcomes"):
        protocols.round2_step(psi, 0, qsim.Angle(0), channel, [1, 0, 0])


def test_a_run_with_draws_to_make_needs_an_rng():
    """With neither an rng nor forced outcomes, every runner raises
    ValueError before it starts, unless the run makes no draw."""
    program = protocols.compile_circuit(protocols.parse_circuit("H 0"))
    plan = protocols.circuit_to_chain(protocols.parse_circuit("H 0"))
    resource = graphs.build_graph_state(graphs.linear_cluster(2))
    psi, channel = qsim.plus_state(1), ChannelModel(0.3)
    runs = [lambda: protocols.run_protocol2(program, psi, channel),
            lambda: protocols.run_protocol2(program, None, channel),
            lambda: protocols.run_protocol1(resource, plan),
            lambda: protocols.run_teleport_variant(resource, plan, channel),
            lambda: protocols.round2_step(psi, 0, qsim.Angle(0), channel, None)]
    for run in runs:
        with pytest.raises(ValueError, match="no rng: a run of [0-9]+ measurements"):
            run()
    empty = protocols.compile_circuit(protocols.parse_circuit("X 0"))
    assert empty.num_rounds == 0
    for state in (psi, None):
        result = protocols.run_protocol2(empty, state, channel)
        assert [m.kind for m in result.transcript] == ["DONE"]


def _leaf_rerun_distribution(runner, *args, num_bits, **kwargs):
    """Reference enumeration: one full forced run per outcome bit string."""
    dist = {}
    for bits in itertools.product((0, 1), repeat=num_bits):
        try:
            result = runner(*args, forced_outcomes=list(bits), **kwargs)
        except DegenerateMeasurementError:
            continue  # zero-probability branch
        key = tuple(result.outcome_bits)
        dist[key] = dist.get(key, 0.0) + result.branch_probability
    return dist


def _chain_case(text, teleported):
    plan = protocols.circuit_to_chain(protocols.parse_circuit(text))
    n = len(plan) + 1
    resource = graphs.build_graph_state(graphs.linear_cluster(n))
    if teleported:
        return protocols.run_teleport_variant, (resource, plan, ChannelModel(0.0)), 3 * n
    return protocols.run_protocol1, (resource, plan), n


@pytest.mark.parametrize("text,teleported", [
    ("H 0", False), ("T 0\nH 0", False), ("T 0\nTDG 0\nS 0\nH 0", False),
    ("H 0", True), ("S 0", True), ("T 0\nH 0", True),
    ("X 0\nH 0", True),  # H X|+> = |0>: half the read-out branches are impossible
])
def test_chain_walk_equals_leaf_reruns_exactly(text, teleported):
    runner, args, num_bits = _chain_case(text, teleported)
    walk = protocols.enumerate_distribution(runner, *args, num_bits=num_bits)
    oracle = _leaf_rerun_distribution(runner, *args, num_bits=num_bits)
    # Same keys, same insertion order, same floating-point sums.
    assert list(walk.items()) == list(oracle.items())


def test_enumerate_distribution_runs_no_protocol(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerate_distribution ran the protocol")

    # Every runner goes through the one run loop.
    monkeypatch.setattr(protocols, "_run", refuse)
    for teleported in (False, True):
        runner, args, num_bits = _chain_case("T 0\nH 0", teleported)
        with pytest.raises(AssertionError):
            runner(*args, rng=default_rng(0))
        dist = protocols.enumerate_distribution(runner, *args, num_bits=num_bits)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


def test_walk_refuses_a_level_past_its_budget():
    # tp on this chain has 2^21 leaves; walking them would hold millions of
    # nodes. The walk refuses before it builds a level past its budget.
    runner, args, num_bits = _chain_case("T 0\nTDG 0\nS 0\nH 0", True)
    start = time.perf_counter()
    with pytest.raises(CapacityError, match="amplitudes"):
        protocols.enumerate_distribution(runner, *args, num_bits=num_bits)
    assert time.perf_counter() - start < 1.0
    # The largest walk in the suite stays inside the budget.
    runner, args, num_bits = _chain_case("H 0\nS 0\nH 0", True)
    dist = protocols.enumerate_distribution(runner, *args, num_bits=num_bits)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


def test_enumerate_distribution_checks_num_bits():
    for teleported in (False, True):
        runner, args, num_bits = _chain_case("S 0", teleported)
        for wrong in (num_bits - 1, num_bits + 1):
            with pytest.raises(ValueError, match=f"measures {num_bits} bits"):
                protocols.enumerate_distribution(runner, *args, num_bits=wrong)


def test_correct_output_applies_frames_in_order():
    from blinddelegate.pauli import ALL_FRAMES

    psi = qsim.random_state(2, default_rng(3))
    for frames in itertools.product(ALL_FRAMES, repeat=2):
        result = protocols.RunResult(logical_output_state=psi, final_frames=list(frames))
        ref = psi
        for w, frame in enumerate(frames):  # Z first, then X, wire by wire
            if frame.z:
                ref = qsim.apply_gate(ref, qsim.Z, [w])
            if frame.x:
                ref = qsim.apply_gate(ref, qsim.X, [w])
        assert np.array_equal(protocols.correct_output(result).amplitudes, ref.amplitudes)
    extra = protocols.RunResult(logical_output_state=psi, final_frames=list(ALL_FRAMES[:3]))
    with pytest.raises(IndexError):
        protocols.correct_output(extra)


def test_transcript_round_trip():
    transcript = [
        Message(1, "B2A", "QUBIT_SENT"),
        Message(1, "A2B", "LOST_RESEND"),
        Message(1, "B2A", "QUBIT_SENT"),
        Message(1, "A2B", "ARRIVED"),
        Message(1, "B2A", "X_RESULT", 1),
        Message(1, "A2B", "DONE"),
    ]
    text = protocols.format_transcript("2", 42, 0.25, transcript)
    assert text.splitlines()[0] == "run protocol=2 seed=42 loss=0.25"
    header, messages = parse_transcript(text)
    assert header == {"protocol": "2", "seed": "42", "loss": "0.25"}
    assert messages == transcript


def test_transcript_header_required():
    with pytest.raises(FormatError):
        parse_transcript("r=1 d=B2A k=QUBIT_SENT p=-\n")
    # A malformed message line is a FormatError that names the line.
    for line in ("foo", "r=x d=B2A k=QUBIT_SENT p=-", "r=1 d=B2A"):
        with pytest.raises(FormatError, match=re.escape(repr(line))):
            parse_transcript(f"run protocol=2 seed=0 loss=0\n{line}\n")


def test_format_loss_is_compact():
    assert protocols.format_loss(0.0) == "0"
    assert protocols.format_loss(0.5) == "0.5"
    assert protocols.format_loss(1.0) == "1"


@pytest.mark.parametrize("text,target", [
    ("H 0\n", qsim.T.entries),
    ("CZ 0 1\n", qsim.CNOT.entries),
])
def test_group_table_rejects_word_off_target(monkeypatch, text, target):
    """A group whose word is no Pauli * target on some branch is refused with
    CalibrationError where its branch-frame table is built, so no program
    that holds it compiles and no round of it runs."""
    group = _groups(protocols.compile_circuit(protocols.parse_circuit(text)))[0]
    entry = group.entry
    with pytest.raises(CalibrationError, match="not Pauli \\* target on every branch"):
        graphs.make_entry(entry.name, entry.wire0, entry.wire1, entry.bridge, target)
    if len(group.wires) == 1:
        # The same block row with the wrong gate stops the compile.
        base, adapt3, _ = graphs.BLOCK_TABLE[entry.name]
        monkeypatch.setitem(graphs.BLOCK_TABLE, entry.name, (base, adapt3, target))
        monkeypatch.setattr(graphs, "_ENTRIES", {})
        with pytest.raises(CalibrationError, match="not Pauli \\* target on every branch"):
            protocols.compile_circuit(protocols.parse_circuit(text))


def _reference_frames(program, bits):
    """Final frames by per-round word accumulation, for per-round (a, m) bits.

    Each round contributes its gain R_{(-1)^m k} H on its wire and a bridge
    contributes CZ; an extract multiplies out the contributions since the
    last extract on the group's wires and matches the word against the
    group's target for the Pauli folds. A compiled program closes each group
    before it opens the next, so the open contributions are one group's.
    """
    gains = [qsim.rotation(qsim.Angle(k)).entries @ qsim.H.entries for k in range(8)]
    m_bits = bits[1::2]
    frames = [FRAME_I] * program.num_wires
    open_ops = []  # (wire, gain), or (None, CZ) for a bridge
    for event in program.events:
        if event[0] == "round":
            plan = event[1]
            r = plan.round_index - 1
            f = frames[plan.wire]  # Z^a on the fresh qubit, X^m H on the old frame
            frames[plan.wire] = pauli.frame(m_bits[r] ^ f.z, bits[2 * r] ^ f.x)
            k = plan.commands[0 if plan.driver is None else m_bits[plan.driver - 1]][0]
            open_ops.append((plan.wire, gains[-k if m_bits[r] else k]))
        elif event[0] == "bridge":
            wa, wb = event[1]
            fa, fb = frames[wa], frames[wb]
            frames[wa] = pauli.frame(fa.x, fa.z ^ fb.x)
            frames[wb] = pauli.frame(fb.x, fb.z ^ fa.x)
            open_ops.append((None, qsim.CZ.entries))
        else:
            group = event[1]
            eye = np.eye(2)
            word = np.eye(2 ** len(group.wires))
            for wire, op in open_ops:
                if wire is not None and len(group.wires) == 2:
                    op = np.kron(eye, op) if wire == group.wires[0] else np.kron(op, eye)
                word = op @ word
            folds = match_frames(word, group.entry.target)
            assert folds is not None, group.entry.name
            for w, f in zip(group.wires, folds):
                frames[w] = pauli.frame(frames[w].x ^ f.x, frames[w].z ^ f.z)
            open_ops = []
    return frames


def _block_program(kind, wires=(0,)):
    builder = protocols._ProgramBuilder(max(wires) + 1)
    builder.group(graphs.group_entry(kind), wires)
    return builder.program


@pytest.mark.parametrize("case", ["T 0", "CZ 0 1", *[f"block {k}" for k in graphs.BLOCK_TABLE]])
def test_table_frames_equal_word_accumulation_on_every_leaf(case):
    # Honest rounds never drop a branch, so the walk's leaves are exactly the
    # per-round (a, m) bit strings, in itertools.product order.
    if case.startswith("block"):
        program = _block_program(case.split()[1])
    else:
        program = protocols.compile_circuit(protocols.parse_circuit(case))
    psi = qsim.random_state(program.num_wires, default_rng(8))
    start = protocols._start(program, psi)
    leaves = protocols._walk(start, program.events).nodes
    strings = itertools.product((0, 1), repeat=2 * program.num_rounds)
    for m_bits, xs, zs, bits in zip(leaves.m.T.tolist(), leaves.x.T.tolist(),
                                    leaves.z.T.tolist(), strings, strict=True):
        assert tuple(m_bits) == bits[1::2]
        assert [pauli.frame(x, z) for x, z in zip(xs, zs)] == _reference_frames(program, bits)


# One program per gate group, and sha256 prefixes of its walk's leaves (m bits
# and prob.hex() per leaf) as the package gave them before the walk's frame
# and angle steps became table lookups.
_LEAF_DIGESTS = {
    "H 0": "8f8bf31dbef6a5d0",
    "S 0": "49329e74abc60b6d",
    "SDG 0": "49329e74abc60b6d",
    "T 0": "fbf21347c76b10b5",
    "TDG 0": "7d03896bc7d61e6a",
    "X 0\nS 0": "49329e74abc60b6d",
    "Z 0\nSDG 0": "a6e350e8870125fe",
    "CZ 0 1": "e6df3981c88448b7",
    "CZCNOT 0 1": "84c91f428f23fe41",
    "CZCNOT 1 0": "082f809bb6b5b868",
    "H 0 padded": "44495188e293b1f8",
}


@pytest.mark.parametrize("case", list(_LEAF_DIGESTS))
def test_walk_leaves_are_pinned_per_gate_group(case):
    if case.startswith("CZCNOT"):
        program = _block_program("CZCNOT", tuple(int(w) for w in case.split()[1:]))
    elif case.endswith("padded"):
        program = protocols.compile_circuit(protocols.parse_circuit("H 0"), pad_to=6)
    else:
        program = protocols.compile_circuit(protocols.parse_circuit(case))
    psi = qsim.random_state(program.num_wires, default_rng(40))
    leaves = list(protocols.walk_protocol2(program, psi))
    text = "\n".join(f"{''.join(map(str, m))} {p.hex()}" for m, p in leaves)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == _LEAF_DIGESTS[case]


def test_walk_constructs_no_angle(monkeypatch):
    program = protocols.compile_circuit(protocols.parse_circuit("S 0"))
    assert program.num_rounds == 3
    psi = qsim.random_state(1, default_rng(41))
    made, post_init = [], qsim.Angle.__post_init__

    def counted(self):
        made.append(self)
        post_init(self)
    monkeypatch.setattr(qsim.Angle, "__post_init__", counted)
    assert len(list(protocols.walk_protocol2(program, psi))) == 64
    assert made == []


def test_table_frames_equal_word_accumulation_on_sampled_runs():
    # 21 rounds: 4**21 leaves are too many to walk, so forced runs sample them.
    program = protocols.compile_circuit(protocols.parse_circuit("H 0\nCNOT 0 1\nT 1"))
    rng = default_rng(9)
    psi = qsim.random_state(2, rng)
    for _ in range(200):
        bits = tuple(int(b) for b in rng.integers(0, 2, size=2 * program.num_rounds))
        forced = list(zip(bits[0::2], bits[1::2]))
        result = protocols.run_protocol2(program, psi, ChannelModel(0.0),
                                         forced_outcomes=forced)
        assert result.final_frames == _reference_frames(program, bits)


# --------------------------------------------------------------------------
# Registerless protocol 2: honest rounds as fair coins
# --------------------------------------------------------------------------


def _p2_program(case):
    if case.startswith("signal"):
        _, k, extra = case.split()
        return protocols.make_raw_program([int(k)] + [0] * int(extra))
    return protocols.compile_circuit(protocols.parse_circuit(case))


P2_CASES = ["signal 3 1", "signal 6 2", "T 0", "H 0\nCNOT 0 1\nT 1"]


def _attacked_run(program, input_state, loss, masked, with_device, seed):
    return protocols.run_protocol2(
        program, input_state, ChannelModel(loss, rng_seed=seed), default_rng([seed, 0]),
        device=adversaries.EvilDevice() if with_device else None, loss_masking=masked,
    )


@pytest.mark.parametrize("case", P2_CASES)
@pytest.mark.parametrize("loss", [0.0, 0.3, 0.5])
@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("with_device", [False, True])
def test_registerless_run_equals_register_run(case, loss, masked, with_device):
    program = _p2_program(case)
    for seed in range(50):
        psi = qsim.random_state(program.num_wires, default_rng([seed, 1]))
        quantum = _attacked_run(program, psi, loss, masked, with_device, seed)
        coins = _attacked_run(program, None, loss, masked, with_device, seed)
        assert coins.transcript == quantum.transcript
        assert coins.final_frames == quantum.final_frames
        assert coins.retransmission_count == quantum.retransmission_count
        assert coins.rounds_completed == quantum.rounds_completed
        assert coins.logical_output_state is None


def test_transcript_entries_are_checked_messages():
    # The run loop shares one tuple per distinct message: every entry is
    # still exactly a Message that its own check accepts.
    program = _p2_program("H 0\nCNOT 0 1\nT 1")
    transcripts = []
    for loss, masked, with_device, seed in itertools.product(
            (0.0, 0.3), (False, True), (False, True), range(3)):
        psi = qsim.random_state(program.num_wires, default_rng([seed, 1]))
        for state in (psi, None):
            run = _attacked_run(program, state, loss, masked, with_device, seed)
            transcripts.append(run.transcript)
    plan = protocols.circuit_to_chain(protocols.parse_circuit("H 0\nT 0"))
    resource = graphs.build_graph_state(graphs.linear_cluster(len(plan) + 1))
    for seed in range(3):
        transcripts.append(protocols.run_teleport_variant(
            resource, plan, ChannelModel(0.3, rng_seed=seed), default_rng(seed)).transcript)
    entries = [entry for transcript in transcripts for entry in transcript]
    assert {kind for _, _, kind, _ in entries} == set(protocols._KIND_DIRECTIONS)
    for entry in entries:
        assert type(entry) is Message and entry == Message(*entry)
    assert len({id(entry) for entry in entries}) == len(set(entries))


def test_bell_table_draws_a_against_exactly_one_half():
    assert protocols._bell_table()[0] == (0.5,) * 8


class _DrawJustBelowHalf:
    """An rng whose every draw is the largest double below 1/2."""

    def random(self, size=None):
        return 0.49999999999999994 if size is None else np.full(size, 0.49999999999999994)


def test_draw_just_below_one_half_gives_the_same_a_with_and_without_register():
    # A registerless round compares the draw with exactly 1/2, so a = 0.
    for k in range(8):
        program = protocols.make_raw_program([k])
        for state in (qsim.basis_state(1, 0), None):
            result = protocols.run_protocol2(program, state, ChannelModel(0.0),
                                             _DrawJustBelowHalf())
            assert result.final_frames[0].z == 0, (k, state is None)


def test_registerless_run_calls_no_qsim_kernel(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a registerless run reached the register")

    for name in ("measure_stack", "branches", "apply_stack", "tensor_stack", "apply_gate",
                 "bell_pair"):
        monkeypatch.setattr(qsim, name, refuse)
    program = _p2_program("H 0\nCNOT 0 1\nT 1")
    with pytest.raises(AssertionError):
        _attacked_run(program, qsim.basis_state(2, 0), 0.3, True, True, 0)
    for masked, with_device in itertools.product((False, True), repeat=2):
        result = _attacked_run(program, None, 0.3, masked, with_device, 0)
        assert result.rounds_completed == program.num_rounds
    adversaries.run_with_evil_device(
        adversaries.make_signal_program(5), False, ChannelModel(0.3), default_rng(0)
    )
    adversaries.countermeasure_overhead(5, 0.3)


def test_registerless_run_refuses_what_a_coin_cannot_model():
    program = adversaries.make_signal_program(3)
    with pytest.raises(ValueError, match="need a register"):
        protocols.run_protocol2(program, None, ChannelModel(0.0), default_rng(0),
                                pair=qsim.basis_state(2, 0))
    with pytest.raises(ValueError, match="need a register"):
        protocols.run_protocol2(program, None, ChannelModel(0.0),
                                forced_outcomes=[(0, 0), (0, 0)])
    with pytest.raises(ValueError, match="walk needs an input state"):
        protocols.walk_protocol2(program, None)


def _round_probabilities(monkeypatch, program, input_state, pair, seeds):
    """The p0 of a and of m, as passed to the run's pick, of every drawn
    protocol-2 round on the register path."""
    probs = []
    measurement = protocols._measurement

    def recording(rng, forced, count):
        pick = measurement(rng, forced, count)

        def record(p0):
            probs.append(p0)
            return pick(p0)
        return record

    monkeypatch.setattr(protocols, "_measurement", recording)
    for seed in seeds:
        protocols.run_protocol2(program, input_state, ChannelModel(0.0), default_rng(seed),
                                pair=pair)
    assert len(probs) == 2 * program.num_rounds * len(seeds)
    return probs[0::2], probs[1::2]


def _kernel_calls(monkeypatch):
    """Counts, from here on, of the np.matmul, np.dot and np.vdot calls."""
    calls = dict.fromkeys(("matmul", "dot", "vdot"), 0)
    for name in calls:
        def counted(*args, _name=name, _original=getattr(np, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(np, name, counted)
    return calls


def test_protocol2_run_takes_the_one_node_kernels(monkeypatch):
    """A run's level holds one node, so its kernels take np.dot products and
    one np.vdot norm per register measurement (each round's m; a is drawn
    from the pair's table), never a stacked np.matmul: one np.dot per round,
    whose stacked (4, 2) block gives both outcomes, and one per bridge's CZ.
    A walk's levels of several nodes still go through np.matmul."""
    program = protocols.compile_circuit(protocols.parse_circuit("H 0\nCNOT 0 1\nT 1"))
    psi = qsim.random_state(2, default_rng(31))
    bridges = sum(event[0] == "bridge" for event in program.events)
    protocols._bell_table()  # built once per process, by np.matmul over the angles
    for seed in range(4):
        calls = _kernel_calls(monkeypatch)
        protocols.run_protocol2(program, psi, ChannelModel(0.0), default_rng(seed))
        assert calls == {"matmul": 0, "dot": program.num_rounds + bridges,
                         "vdot": program.num_rounds}
        monkeypatch.undo()
    calls = _kernel_calls(monkeypatch)
    protocols.walk_protocol2(protocols.compile_circuit(protocols.parse_circuit("T 0")),
                             qsim.random_state(1, default_rng(32)))
    assert calls["matmul"] > 0


def _measurement_calls(monkeypatch):
    """Counts, from here on, of the calls of qsim's measurement functions."""
    calls = dict.fromkeys(("branches", "measure_stack", "measure_node", "draw"), 0)
    for name in calls:
        def counted(*args, _name=name, _original=getattr(qsim, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(qsim, name, counted)
    return calls


def test_a_run_draws_one_branch_and_a_walk_enumerates_them(monkeypatch):
    """A run's round draws a by qsim.draw and measures its wire by
    qsim.measure_node, which draws m: for the 21 rounds of H 0; CNOT 0 1;
    T 1 that is 21 node measurements and 42 draws, and no qsim.branches or
    qsim.measure_stack call. A walk enumerates: for the 6 rounds of T 0, two
    qsim.branches calls and one qsim.measure_stack call per round, even on
    its first level of one node, and no draw."""
    program = protocols.compile_circuit(protocols.parse_circuit("H 0\nCNOT 0 1\nT 1"))
    assert program.num_rounds == 21
    psi = qsim.random_state(2, default_rng(33))
    for seed in range(3):
        calls = _measurement_calls(monkeypatch)
        protocols.run_protocol2(program, psi, ChannelModel(0.3), default_rng(seed))
        assert calls == {"branches": 0, "measure_stack": 0, "measure_node": 21, "draw": 42}
        monkeypatch.undo()
    program = protocols.compile_circuit(protocols.parse_circuit("T 0"))
    calls = _measurement_calls(monkeypatch)
    leaves = list(protocols.walk_protocol2(program, qsim.random_state(1, default_rng(34))))
    assert program.num_rounds == 6 and len(leaves) == 4**6
    assert calls == {"branches": 12, "measure_stack": 6, "measure_node": 0, "draw": 0}


class _RecordingRng:
    """default_rng(seed), recording the size of each random() call."""

    def __init__(self, seed):
        self.rng, self.sizes = default_rng(seed), []

    def random(self, size=None):
        self.sizes.append(size)
        return self.rng.random(size)


def _drawn_runs(text="H 0\nCNOT 0 1\nT 1"):
    """(name, run(rng), measurements) for a drawn run of every runner: protocol
    2 with and without a register, at loss 0 and 0.3, masked and unmasked;
    protocols 1 and tp; round2_step."""
    program = _p2_program(text)
    psi = qsim.random_state(program.num_wires, default_rng(35))
    for state, loss, masked in itertools.product((psi, None), (0.0, 0.3), (False, True)):
        yield (f"p2 register={state is not None} loss={loss} masked={masked}",
               lambda rng, state=state, loss=loss, masked=masked: protocols.run_protocol2(
                   program, state, ChannelModel(loss, rng_seed=7), rng, loss_masking=masked),
               2 * program.num_rounds)
    for teleported in (False, True):
        runner, args, count = _chain_case("T 0\nS 0", teleported)
        yield f"chain teleported={teleported}", lambda rng, r=runner, a=args: r(*a, rng=rng), count
    yield ("round2_step", lambda rng: protocols.round2_step(
        psi, 1, qsim.Angle(3), ChannelModel(0.3, rng_seed=2), rng), 2)


def test_a_drawn_run_makes_one_random_call_sized_to_its_measurements():
    """Counts, no timer: every runner draws a run's outcomes by one
    rng.random(count) call on its outcome stream (the loss and masking
    streams are its own), where it made one rng.random() per measurement."""
    for name, run, count in _drawn_runs():
        for seed in range(3):
            rng = _RecordingRng(seed)
            run(rng)
            assert rng.sizes == [count], name


def test_a_run_leaves_its_rng_where_count_scalar_draws_would():
    """The batch is the doubles of `count` scalar rng.random() calls in their
    order: a run leaves its caller's bit generator exactly where those calls
    would, so whatever the caller draws next is unchanged."""
    for name, run, count in _drawn_runs():
        for seed in range(3):
            rng, scalar = default_rng([seed, 0]), default_rng([seed, 0])
            run(rng)
            for _ in range(count):
                scalar.random()
            assert rng.bit_generator.state == scalar.bit_generator.state, name


@pytest.mark.parametrize("text", ["H 0", "T 0\nS 0"])
def test_a_chain_run_measures_each_vertex_once_on_its_one_node(monkeypatch, text):
    """Counts, no timer. A protocol-1 run measures each of its n vertices
    (the readout included) by one qsim.measure_node call; a tp run three
    times per vertex: the two teleport bits, then the client's. Each call
    draws once, and neither run calls qsim.branches or qsim.measure_stack."""
    for teleported, per_vertex in ((False, 1), (True, 3)):
        runner, args, count = _chain_case(text, teleported)
        n = len(args[1]) + 1
        for seed in range(3):
            calls = _measurement_calls(monkeypatch)
            result = runner(*args, rng=default_rng(seed))
            assert calls == {"branches": 0, "measure_stack": 0,
                             "measure_node": per_vertex * n, "draw": per_vertex * n}
            assert count == per_vertex * n and len(result.outcome_bits) == 1
            monkeypatch.undo()


def _walk_counts(monkeypatch):
    """Counts, from here on, of the _Node records built, the walks and the
    qsim.measure_stack calls."""
    calls = dict.fromkeys(("_Node", "_walk", "measure_stack"), 0)
    for owner, name in ((protocols, "_Node"), (protocols, "_walk"), (qsim, "measure_stack")):
        def counted(*args, _name=name, _original=getattr(owner, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    return calls


def test_a_walk_keeps_its_records_in_columns(monkeypatch):
    """Counts, no timer. A walk of T 0 or CZ 0 1 (6 rounds, 4,096 leaves)
    keeps its nodes' records as rows of columns: the one _Node it builds is
    the start record that _start builds for runs and walks alike, the
    per-child _child helper is gone, and it measures once per round. The
    protocol-1 certificate on 3 secrets of 4 vertices is one walk of all
    three, with one qsim.measure_stack call per vertex."""
    assert not hasattr(protocols, "_child")
    for text in ("T 0", "CZ 0 1"):
        program = protocols.compile_circuit(protocols.parse_circuit(text))
        psi = qsim.random_state(program.num_wires, default_rng(35))
        calls = _walk_counts(monkeypatch)
        leaves = list(protocols.walk_protocol2(program, psi))
        assert program.num_rounds == 6 and len(leaves) == 4**6
        assert calls == {"_Node": 1, "_walk": 1, "measure_stack": 6}
        monkeypatch.undo()
    calls = _walk_counts(monkeypatch)
    secrets = [(0, 2, 7, 1), (1, 4, 2, 3), (7, 7, 0, 5)]
    assert blindness.certify_protocol1(secrets, n_povms=1, rng=default_rng(36)).passed
    assert calls == {"_Node": 1, "_walk": 1, "measure_stack": 4}


@pytest.mark.parametrize("case", ["T 0", "H 0\nCNOT 0 1\nT 1", "CZ 0 1\nTDG 0"])
def test_honest_round_outcomes_are_fair_coins(monkeypatch, case):
    # No-signaling: the client's half of a Bell pair is maximally mixed, and
    # after the CZ the server's half has <Z> = 0, so a and m are unbiased
    # whatever the angle and the input state.
    program = _p2_program(case)
    for seed in range(5):
        psi = qsim.random_state(program.num_wires, default_rng([seed, 2]))
        pa, pm = _round_probabilities(monkeypatch, program, psi, None, range(4))
        assert max(abs(p - 0.5) for p in pa + pm) < 1e-12


def test_substituted_pair_outcomes_are_not_fair_coins(monkeypatch):
    # A |00> pair leaves the wire untouched by the CZ: m reads the input's
    # <X>. Its client half |0> is still unbiased in every equatorial basis;
    # a |+> client half is not.
    program = protocols.make_raw_program([1, 3])
    psi = qsim.random_state(1, default_rng(5))
    zeros = qsim.basis_state(2, 0)
    pa, pm = _round_probabilities(monkeypatch, program, psi, zeros, range(4))
    assert max(abs(p - 0.5) for p in pa) < 1e-12
    assert max(abs(p - 0.5) for p in pm) > 1e-3
    # Qubit 0 is the server's half, qubit 1 the client's: |+>_client |0>_server.
    plus = qsim.StateVector(np.array([1, 0, 1, 0]) / np.sqrt(2))
    pa, _ = _round_probabilities(monkeypatch, program, psi, plus, range(4))
    assert min(abs(p - 0.5) for p in pa) > 0.3
