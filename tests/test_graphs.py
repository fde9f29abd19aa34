import itertools

import numpy as np
import pytest

from blinddelegate import graphs, pauli, protocols, qsim
from blinddelegate.errors import CalibrationError, CapacityError
from oracles import searched_catalog


def test_graph_spec_validation():
    with pytest.raises(ValueError, match="self-loop"):
        graphs.make_graph(2, [(0, 0)])
    with pytest.raises(ValueError, match="unknown vertex"):
        graphs.make_graph(2, [(0, 5)])


def test_neighbors_and_edge_list():
    g = graphs.make_graph(4, [(2, 1), (0, 1), (1, 3)])
    assert g.neighbors(1) == [0, 2, 3]
    assert g.neighbors(3) == [1]
    assert g.edge_list() == [(0, 1), (1, 2), (1, 3)]


def test_linear_cluster_shape():
    g = graphs.linear_cluster(5)
    assert g.num_vertices == 5
    assert g.edge_list() == [(0, 1), (1, 2), (2, 3), (3, 4)]


def test_graph_state_stabilizers_are_plus_one():
    for g in (graphs.linear_cluster(5), graphs.tile(1, 1)):
        resource = graphs.build_graph_state(g)
        for v in range(g.num_vertices):
            assert graphs.stabilizer_expectation(resource, v) == pytest.approx(
                1.0, abs=1e-12
            )


def test_capacity_guard():
    g = graphs.linear_cluster(qsim.CAPACITY + 1)
    with pytest.raises(CapacityError):
        graphs.build_graph_state(g)


def _dense_graph_state(graph):
    """The reference graph state: one dense CZ per edge on |+>^n."""
    state = qsim.plus_state(graph.num_vertices)
    for u, v in graph.edge_list():
        state = qsim.apply_gate(state, qsim.CZ, [u, v])
    return state


def _dense_stabilizer(graph, state, v):
    moved = qsim.apply_gate(state, qsim.X, [v])
    for u in graph.neighbors(v):
        moved = qsim.apply_gate(moved, qsim.Z, [u])
    return float(np.vdot(state.amplitudes, moved.amplitudes).real)


def _random_one_qubit_unitary(rng):
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return qsim.GateMatrix(q * (np.diag(r) / np.abs(np.diag(r))))


def _random_graphs(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 13))
        pairs = list(itertools.combinations(range(n), 2))
        keep = rng.random(len(pairs)) < rng.random()
        yield graphs.make_graph(n, [e for e, k in zip(pairs, keep) if k])


def _named_graphs():
    return [graphs.linear_cluster(5), graphs.tile(1, 1), graphs.tile(1, 2)]


def test_graph_state_equals_dense_cz_reference():
    for g in [*_named_graphs(), *_random_graphs(30, 31)]:
        got = graphs.build_graph_state(g).state.amplitudes
        assert np.array_equal(got, _dense_graph_state(g).amplitudes), g.edge_list()


def test_graph_state_equals_dense_cz_reference_edge_free_and_at_full_width():
    rng = np.random.default_rng(34)
    wide = []
    for n in (13, 14, 13, 14):
        pairs = list(itertools.combinations(range(n), 2))
        keep = rng.random(len(pairs)) < rng.uniform(0.05, 0.5)
        wide.append(graphs.make_graph(n, [e for e, k in zip(pairs, keep) if k]))
    for g in [*(graphs.make_graph(n, []) for n in (1, 2, 3)), *wide]:
        got = graphs.build_graph_state(g).state.amplitudes
        assert np.array_equal(got, _dense_graph_state(g).amplitudes), g.edge_list()


def test_neighbors_match_the_edge_scan():
    for g in [*_named_graphs(), *_random_graphs(10, 35), graphs.make_graph(3, [])]:
        for v in range(g.num_vertices):
            scan = sorted(u for e in g.edges for u in e if v in e and u != v)
            assert g.neighbors(v) == scan
            g.neighbors(v).append(-1)  # each call returns a fresh list
            assert g.neighbors(v) == scan
        assert g.neighbors(g.num_vertices) == []


def test_stabilizer_expectation_equals_dense_reference():
    rng = np.random.default_rng(32)
    for g in [*_named_graphs(), *_random_graphs(10, 33)]:
        n = g.num_vertices
        honest = graphs.build_graph_state(g).state
        q = int(rng.integers(n))
        tampered = qsim.apply_gate(honest, _random_one_qubit_unitary(rng), [q])
        for state in (honest, tampered, qsim.random_state(n, rng)):
            resource = graphs.ResourceState(g, state, check=False)
            for v in range(n):
                assert graphs.stabilizer_expectation(resource, v) == _dense_stabilizer(
                    g, state, v
                )


def test_resource_state_width_must_match_graph():
    g = graphs.linear_cluster(4)
    for width in (3, 5):
        with pytest.raises(ValueError, match="4-vertex graph"):
            graphs.ResourceState(g, qsim.plus_state(width), check=False)
    with pytest.raises(ValueError):
        graphs.build_graph_state(graphs.make_graph(0, []))


def test_tampered_state_is_rejected():
    g = graphs.linear_cluster(4)
    resource = graphs.build_graph_state(g)
    bad = qsim.apply_gate(resource.state, qsim.Z, [2])
    with pytest.raises(ValueError, match="vertices"):
        graphs.ResourceState(g, bad, check=True)
    broken = graphs.ResourceState(g, bad, check=False)
    assert graphs.stabilizer_expectation(broken, 2) < 1.0 - 1e-6
    with pytest.raises(IndexError):
        graphs.stabilizer_expectation(resource, 9)


# ---------------------------------------------------------------------------
# Calibration: the catalog is a literal table, and each row must be the first
# hit of the exhaustive search in oracles.searched_catalog. Any change to the
# rows, the search order or the cell conventions must be deliberate.
# ---------------------------------------------------------------------------


def test_catalog_rows_are_the_search_first_hits():
    searched = searched_catalog()
    assert list(graphs._CATALOG) == list(searched)
    for name, (w0, w1, bridge, target) in graphs._CATALOG.items():
        assert (w0, w1, bridge) == searched[name][:3], name
        assert np.array_equal(target, searched[name][3]), name


def test_calibration_frozen_values():
    cal = graphs.calibrate_unit_cell()
    assert cal.bridge == (0, 2)
    assert list(cal.entries) == list(searched_catalog())
    for name, (w0, w1, bridge, _) in searched_catalog().items():
        entry = cal.entries[name]
        assert (entry.wire0, entry.wire1, entry.bridge) == (w0, w1, bridge), name


def test_calibration_targets_match_catalog():
    cal = graphs.calibrate_unit_cell()
    h = qsim.H.entries
    refs = {
        "IxI": np.eye(2),
        "HxI": h,
        "SHxI": qsim.S.entries @ h,
        "STHxI": qsim.S.entries @ qsim.T.entries @ h,
        "STDGHxI": qsim.S.entries @ qsim.TDG.entries @ h,
    }
    for name, ref in refs.items():
        np.testing.assert_allclose(
            cal.entries[name].target, np.kron(np.eye(2), ref), atol=1e-12
        )
    np.testing.assert_allclose(cal.entries["CZ"].target, qsim.CZ.entries, atol=1e-12)
    np.testing.assert_allclose(
        cal.entries["CZCNOT"].target, qsim.CZ.entries @ qsim.CNOT.entries, atol=1e-12
    )


# I, X, Z, XZ: the order of pauli.ALL_FRAMES.
_PAULIS = [
    np.eye(2, dtype=complex),
    qsim.X.entries,
    qsim.Z.entries,
    qsim.X.entries @ qsim.Z.entries,
]

# One-wire Clifford+T words of up to two letters, Paulis included.
_CANONICAL_WORDS = (
    "", "H", "S", "SDG", "S H", "SDG H", "T", "TDG", "T H", "TDG H",
    "H S", "H T", "H TDG", "X", "Z", "X Z",
)


def _match_pauli_pair(op, target):
    """Independent matcher: the frames (P0, P1) with op == phase * (P1 (x) P0)
    @ target, found by trying all 16 pairs, or None."""
    for i1, p1 in enumerate(_PAULIS):
        for i0, p0 in enumerate(_PAULIS):
            if qsim.matrices_equal_up_to_phase(op, np.kron(p1, p0) @ target, 1e-10):
                return pauli.ALL_FRAMES[i0], pauli.ALL_FRAMES[i1]
    return None


def _matcher_targets():
    """2x2 and 4x4 targets the program matches words against, plus the
    one-wire words of _CANONICAL_WORDS."""
    two = [t for _, _, t in graphs.BLOCK_TABLE.values()]
    two += [pauli.word_matrix(w) for w in _CANONICAL_WORDS]
    four = [e.target for e in graphs.calibrate_unit_cell().entries.values()]
    return two, four


def test_match_frames_returns_the_exact_frame():
    """Every frame times a random phase times each target is matched to itself,
    on one wire and on two, and agrees with the 16-way oracle."""
    rng = np.random.default_rng(31)
    two, four = _matcher_targets()
    eye = np.eye(2, dtype=complex)
    for target in two:
        for i, p in enumerate(_PAULIS):
            m = np.exp(2j * np.pi * rng.random()) * p @ target
            frame = pauli.ALL_FRAMES[i]
            assert pauli.match_frames(m, target) == (frame,)
            assert _match_pauli_pair(np.kron(eye, m), np.kron(eye, target)) == (
                frame, pauli.FRAME_I)
    for target in four:
        for (i1, p1), (i0, p0) in itertools.product(enumerate(_PAULIS), repeat=2):
            m = np.exp(2j * np.pi * rng.random()) * np.kron(p1, p0) @ target
            frames = (pauli.ALL_FRAMES[i0], pauli.ALL_FRAMES[i1])
            assert pauli.match_frames(m, target) == frames
            assert _match_pauli_pair(m, target) == frames


def test_match_frames_rejects_non_pauli_factors():
    rng = np.random.default_rng(32)
    two, four = _matcher_targets()
    eye = np.eye(2, dtype=complex)
    for factor in (qsim.S.entries, qsim.H.entries, qsim.T.entries):
        for target in two:
            for p in _PAULIS:
                m = np.exp(2j * np.pi * rng.random()) * factor @ p @ target
                assert pauli.match_frames(m, target) is None
                assert _match_pauli_pair(np.kron(eye, m), np.kron(eye, target)) is None
        for target in four:
            for p1, p0 in itertools.product(_PAULIS, repeat=2):
                for mixed in (np.kron(eye, factor), np.kron(factor, eye)):
                    phase = np.exp(2j * np.pi * rng.random())
                    m = phase * mixed @ np.kron(p1, p0) @ target
                    assert pauli.match_frames(m, target) is None
                    assert _match_pauli_pair(m, target) is None


def test_every_entry_is_branch_deterministic():
    cal = graphs.calibrate_unit_cell()
    for entry in cal.entries.values():
        for bits in itertools.product((0, 1), repeat=6):
            op = graphs.cell_operator(
                entry.wire0, entry.wire1, entry.bridge, bits[:3], bits[3:]
            )
            assert _match_pauli_pair(op, entry.target), (entry.name, bits)


def test_group_entries_are_built_only_where_used(monkeypatch):
    """A one-wire program builds only its blocks; a CNOT adds its two cells
    and no other; a tiling builds only the entangling cell; calibration
    reuses built entries."""
    monkeypatch.setattr(graphs, "_ENTRIES", {})
    protocols.compile_circuit(protocols.parse_circuit("H 0\nT 0\nS 0"))
    assert set(graphs._ENTRIES) == {"H", "TH", "S"}
    protocols.compile_circuit(protocols.parse_circuit("CNOT 0 1"))
    assert set(graphs._ENTRIES) == {"H", "TH", "S", "CZCNOT", "CZ"}
    built = dict(graphs._ENTRIES)
    cal = graphs.calibrate_unit_cell()
    assert cal.entries["CZCNOT"] is built["CZCNOT"] and cal.entries["CZ"] is built["CZ"]
    assert all(entry is graphs._ENTRIES[name] for name, entry in cal.entries.items())

    monkeypatch.setattr(graphs, "_ENTRIES", {})
    graphs.tile(1, 1)
    assert set(graphs._ENTRIES) == {"CZCNOT"}


@pytest.mark.parametrize("name,target", [
    ("HxI", np.kron(np.eye(2), qsim.T.entries)),
    ("CZ", np.eye(4, dtype=complex)[[0, 2, 1, 3]]),  # SWAP
], ids=["HxI-T", "CZ-SWAP"])
def test_group_entry_raises_on_a_catalog_row_off_target(monkeypatch, name, target):
    """A catalog row whose schedules miss its target on some branch is
    refused where the cell is built, and no entry is kept for it."""
    monkeypatch.setattr(graphs, "_ENTRIES", {})
    monkeypatch.setitem(graphs._CATALOG, name, (*graphs._CATALOG[name][:3], target))
    with pytest.raises(CalibrationError, match="is not Pauli \\* target on every branch"):
        graphs.group_entry(name)
    assert name not in graphs._ENTRIES


def test_round_gains_are_the_transposed_rotated_bras_bit_for_bit():
    for k in range(8):
        gain = graphs.ROUND_GAINS[k]
        ref = qsim.rotation(qsim.Angle(k)).entries @ qsim.H.entries
        assert np.array_equal(gain, ref), k
        for part in (np.real, np.imag):
            assert np.array_equal(np.signbit(part(gain)), np.signbit(part(ref))), k
        assert gain.flags.c_contiguous


def test_cell_operator_without_bridge_factorizes():
    cal = graphs.calibrate_unit_cell()
    sh = cal.entries["SHxI"]
    op = graphs.cell_operator(sh.wire0, sh.wire1, None, (0, 1, 0), (1, 0, 0))
    w0 = graphs._wire_word(sh.wire0, (0, 1, 0))
    w1 = graphs._wire_word(sh.wire1, (1, 0, 0))
    np.testing.assert_allclose(op, np.kron(w1, w0), atol=1e-12)


def test_tile_geometry():
    g = graphs.tile(1, 1)
    assert g.num_vertices == 8
    assert (0, 6) in g.edge_list()  # bridge anchored at columns (0, 2)

    g2 = graphs.tile(1, 2)
    assert g2.num_vertices == 14
    chain_edges = [(v, v + 1) for w in (0, 7) for v in range(w, w + 6)]
    for e in chain_edges:
        assert e in g2.edge_list()

    with pytest.raises(ValueError):
        graphs.tile(0, 1)


def test_tile_bridge_stagger():
    # rows alternate which cell column carries the bridge
    g = graphs.tile(2, 2)
    assert g.num_vertices == 21
    cols = 7
    horizontal = {
        (w * cols + c, w * cols + c + 1) for w in range(3) for c in range(cols - 1)
    }
    bridges = set(g.edge_list()) - horizontal
    assert bridges == {(0, cols + 2), (cols + 3, 2 * cols + 5)}
