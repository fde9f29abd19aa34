import itertools

import numpy as np
import pytest
from numpy.random import default_rng

from blinddelegate import adversaries, blindness, graphs, protocols, qsim
from blinddelegate.blindness import BlindnessReport, Povm, ReportLine
from blinddelegate.errors import CapacityError, DegenerateMeasurementError
from oracles import measured_branch, partial_trace


def test_povm_must_sum_to_identity():
    with pytest.raises(ValueError, match="identity"):
        Povm([np.eye(2) * 0.4, np.eye(2) * 0.4])


def test_povm_must_be_hermitian():
    a = np.array([[0.5, 0.3], [0.0, 0.5]])
    with pytest.raises(ValueError, match="Hermitian"):
        Povm([a, np.eye(2) - a])


def test_povm_must_be_positive():
    a = np.diag([2.0, 0.5])
    with pytest.raises(ValueError, match="positive"):
        Povm([a, np.eye(2) - a])


def _povm_with(error_at, error):
    """A 2x2 three-element POVM, complete and Hermitian, with `error` added at
    `error_at` of its first element; "sum" keeps the elements Hermitian and
    moves their sum, "hermitian" moves one off-diagonal entry and takes it
    back out of the second element, so the sum stays exactly I."""
    first, second = np.diag([0.5, 0.25]).astype(complex), np.diag([0.25, 0.5]).astype(complex)
    if error_at == "sum":
        first[0, 0] += error
    else:
        first[0, 1] += error
        second[0, 1] -= error
    return np.array([first, second, np.eye(2) / 4])


# Off-diagonal errors face atol = 1e-12 alone; a diagonal one of the sum also
# faces rtol * 1 = 1e-5. A NaN anywhere reaches the sum.
@pytest.mark.parametrize("error_at, error, rejected_by", [
    ("hermitian", 0.9e-12, None), ("hermitian", 1.1e-12, "Hermitian"),
    ("sum", (1e-5 + 1e-12) * (1 - 1e-6), None),
    ("sum", (1e-5 + 1e-12) * (1 + 1e-6), "identity"),
    ("sum", np.nan, "identity"), ("hermitian", np.nan, "identity"),
])
def test_povm_accepts_exactly_where_allclose_does(error_at, error, rejected_by):
    elements = _povm_with(error_at, error)
    pairs = [(elements.sum(axis=0), np.eye(2)), (elements, elements.conj().transpose(0, 2, 1))]
    for a, b in pairs:
        assert blindness._close(a, b) == np.allclose(a, b, atol=1e-12)
    assert all(np.allclose(a, b, atol=1e-12) for a, b in pairs) == (rejected_by is None)
    if rejected_by is None:
        Povm(elements)
    else:
        with pytest.raises(ValueError, match=rejected_by):
            Povm(elements)


def _pure(psi):
    """|psi><psi| as a DensityMatrix."""
    return qsim.DensityMatrix(np.outer(psi.amplitudes, psi.amplitudes.conj()))


def test_random_povm_is_complete():
    rng = default_rng(8)
    povm = blindness.random_povm(4, 5, rng)
    assert povm.elements.shape == (5, 4, 4)
    total = sum(povm.elements)
    np.testing.assert_allclose(total, np.eye(4), atol=1e-10)
    dist = blindness.povm_distribution(_pure(qsim.random_state(2, rng)), povm)
    assert dist.sum() == pytest.approx(1.0, abs=1e-10)
    assert (dist >= -1e-12).all()


def test_povm_distribution_projective():
    povm = Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    dist = blindness.povm_distribution(_pure(qsim.plus_state(1)), povm)
    np.testing.assert_allclose(dist, [0.5, 0.5], atol=1e-12)


def _per_element_povm(dim, n_elements, rng):
    """random_povm as a loop over elements: two normal((d, d)) draws each."""
    raws = []
    for _ in range(n_elements):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        raws.append(g.conj().T @ g)
    vals, vecs = np.linalg.eigh(sum(raws))
    inv_sqrt = vecs @ np.diag(vals**-0.5) @ vecs.conj().T
    elements = [inv_sqrt @ e @ inv_sqrt for e in raws]
    return [(e + e.conj().T) / 2 for e in elements]


@pytest.mark.parametrize("dim", [2, 4])
@pytest.mark.parametrize("n_elements", [2, 4, 5])
def test_random_povm_equals_per_element_draws(dim, n_elements):
    for seed in range(20):
        povm = blindness.random_povm(dim, n_elements, default_rng(seed))
        assert povm.elements.shape == (n_elements, dim, dim)
        assert np.array_equal(povm.elements, _per_element_povm(dim, n_elements, default_rng(seed)))


def test_povm_distribution_equals_per_element_traces():
    rng = default_rng(21)
    for dim in (2, 4):
        povm = blindness.random_povm(dim, 4, rng)
        rho = _pure(qsim.random_state(dim.bit_length() - 1, rng))
        expected = [np.trace(e @ rho.entries).real for e in povm.elements]
        assert np.array_equal(blindness.povm_distribution(rho, povm), expected)


def _walk_protocol1(psi, plan):
    """(posts, probs) of protocols.walk_protocol1 from the one root psi."""
    posts, probs, roots = protocols.walk_protocol1(psi.amplitudes[None], [plan])
    assert not roots.any()
    return posts, probs


def _per_leaf_view(joint, alice_qubits, angles):
    """protocol1_views of one secret as a loop over leaves: total + (w p) |v><v|."""
    if isinstance(joint, qsim.StateVector):
        mixture = [(1.0, joint)]
    else:
        weights, vectors = np.linalg.eigh(joint.entries)
        mixture = [(w, qsim.StateVector(v, check=False)) for w, v in zip(weights, vectors.T)]
    plan = [protocols.PlanStep(q, qsim.Angle(k)) for q, k in zip(alice_qubits, angles)]
    total = 0.0
    for weight, psi in mixture:
        for v, prob in zip(*_walk_protocol1(psi, plan)):
            total = total + (weight * prob) * np.outer(v, v.conj())
    return total


def test_bob_view_equals_per_leaf_sum():
    # verify's protocol-1 secrets on the honest cluster, then a mixed joint state.
    cluster = graphs.build_graph_state(graphs.linear_cluster(4)).state
    for secret in ((0, 2, 7), (1, 4, 2), (7, 7, 0)):
        view = blindness.protocol1_views(cluster, range(3), [secret])[0]
        assert np.array_equal(view.entries, _per_leaf_view(cluster, range(3), secret))
    rho = adversaries.random_mixed_state(3, default_rng(22))
    for secret in ((0, 1), (6, 3)):
        view = blindness.protocol1_views(rho, [0, 1], [secret])[0]
        assert np.array_equal(view.entries, _per_leaf_view(rho, [0, 1], secret))


def test_stacked_views_equal_a_per_secret_loop_bit_for_bit():
    """protocol1_views walks every secret and eigenvector in one stack; each
    view equals the loop over that secret's eigenvectors and leaves bit for
    bit: on the honest cluster, on a mixed joint state, and on a joint state
    whose measured qubit is |+>, where angles 0 and 4 each drop a branch, so
    the secrets' leaves differ in number."""
    cluster = graphs.build_graph_state(graphs.linear_cluster(5)).state
    rho = adversaries.random_mixed_state(3, default_rng(37))
    plus = qsim.StateVector(np.kron(qsim.random_state(1, default_rng(38)).amplitudes,
                                    qsim.plus_state(1).amplitudes))
    cases = [(cluster, range(4), [(0, 2, 7, 1), (1, 4, 2, 3), (7, 7, 0, 5)]),
             (rho, [0, 1], [(0, 1), (6, 3), (2, 2), (5, 7)]),
             (plus, [0], [(0,), (2,), (4,), (1,)])]
    for joint, qubits, secrets in cases:
        views = blindness.protocol1_views(joint, qubits, secrets)
        assert len(views) == len(secrets)
        for view, secret in zip(views, secrets):
            want = _per_leaf_view(joint, qubits, secret)
            assert isinstance(view, qsim.DensityMatrix), secret
            assert np.array_equal(view.entries, want), secret
            alone = blindness.protocol1_views(joint, qubits, [secret])[0]
            assert np.array_equal(alone.entries, want), secret
    posts, probs, roots = protocols.walk_protocol1(
        np.array([plus.amplitudes] * 4),
        [[protocols.PlanStep(0, qsim.Angle(k))] for k in (0, 2, 4, 1)])
    assert roots.tolist() == [0, 1, 1, 2, 3, 3]
    with pytest.raises(ValueError, match="same vertices"):
        protocols.walk_protocol1(np.array([plus.amplitudes] * 2),
                                 [[protocols.PlanStep(v, qsim.Angle(0))] for v in (0, 1)])


def test_a_stacked_walk_counts_every_root_against_its_budget():
    """The walk's budget covers the whole stack: 33 secrets on a 12-qubit
    joint state start at 33 * 2^12 amplitudes, past WALK_AMPLITUDES, and are
    refused before any step, though each secret alone (2^12) walks."""
    assert 32 * 2**12 <= protocols.WALK_AMPLITUDES < 33 * 2**12
    joint = qsim.random_state(12, default_rng(39))
    secrets = [[(k + j) % 8 for j in range(11)] for k in range(33)]
    view = blindness.protocol1_views(joint, range(11), [secrets[0]])[0]
    assert view.entries.shape == (2, 2)
    with pytest.raises(CapacityError, match="could exceed"):
        blindness.protocol1_views(joint, range(11), secrets)


_EYE = np.eye(2)


@pytest.mark.parametrize("elements, message", [
    # Each stack is complete; only its last element breaks the rule.
    ([_EYE / 2, _EYE / 4, _EYE / 4, np.diag([1e-6j, 0.0])], "Hermitian"),
    ([_EYE / 2, _EYE / 4, np.diag([0.35, 0.25]), np.diag([-0.1, 0.0])], "positive"),
    ([_EYE / 4, _EYE / 4, _EYE / 4, _EYE / 8], "identity"),
])
def test_stacked_povm_checks_see_the_last_element(elements, message):
    for given in (elements, np.array(elements)):
        with pytest.raises(ValueError, match=message):
            Povm(given)


def test_povm_checks_hermiticity_before_positivity():
    # The first element is non-PSD and the second non-Hermitian: the stack's
    # Hermiticity check runs before any eigvalsh, so "Hermitian" is reported.
    elements = [np.diag([-0.1, 0.0]), np.diag([1e-6j, 0.0]), np.diag([1.1, 1.0])]
    with pytest.raises(ValueError, match="Hermitian"):
        Povm(elements)


def test_povm_list_and_array_input_agree():
    elements = _per_element_povm(2, 3, default_rng(23))
    from_list, from_array = Povm(elements), Povm(np.array(elements))
    assert from_list.elements.shape == (3, 2, 2)
    assert np.array_equal(from_list.elements, from_array.elements)


class _CountingRng:
    """A generator that counts its normal() calls."""

    def __init__(self, seed):
        self.rng, self.normal_calls = default_rng(seed), 0

    def normal(self, *args, **kwargs):
        self.normal_calls += 1
        return self.rng.normal(*args, **kwargs)


def _count_calls(monkeypatch, owner, name):
    calls, original = [], getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)
    return calls


def test_povm_work_is_one_call_per_stack(monkeypatch):
    rng = _CountingRng(24)
    eigvalsh = _count_calls(monkeypatch, np.linalg, "eigvalsh")
    close = _count_calls(monkeypatch, blindness, "_close")
    povm = blindness.random_povm(4, 5, rng)
    assert povm.elements.shape == (5, 4, 4)
    assert (rng.normal_calls, len(eigvalsh), len(close)) == (1, 1, 2)
    Povm(povm.elements)
    assert (len(eigvalsh), len(close)) == (2, 4)


def test_bob_view_equals_partial_trace():
    """Summing conditionals over a complete client measurement is exactly the
    partial trace, whatever the angles are (no-signaling oracle), for a pure
    joint state and for a mixed one."""
    rng = default_rng(17)
    for joint in (qsim.random_state(4, rng), adversaries.random_mixed_state(4, rng)):
        ref = partial_trace(joint, [1, 3])
        for angles in ([0, 0], [2, 7], [5, 3]):
            view = blindness.protocol1_views(joint, [0, 2], [angles])[0]
            np.testing.assert_allclose(view.entries, ref.entries, atol=1e-12)


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("outcome", [0, 1])
def test_walk_protocol1_leaf_equals_measure_rotated_basis(k, outcome):
    """Each leaf of the walk is the post-state and probability of a
    measurement in the ROTATED_BRAS basis at +theta: bit for bit those of
    measure_node forced to that outcome, and within 1e-12 those of the
    projector oracle on the ket (|0> + (-1)^outcome e^{-i theta}|1>)/sqrt2."""
    joint = graphs.build_graph_state(graphs.linear_cluster(2)).state
    leaves = list(zip(*_walk_protocol1(joint, [protocols.PlanStep(0, qsim.Angle(k))])))
    assert len(leaves) == 2
    post, p = leaves[outcome]
    drawn, ref_p, ref = qsim.measure_node(
        joint.amplitudes, 0, qsim.ROTATED_BRAS[k], lambda p0: outcome)
    assert drawn == outcome
    assert np.array_equal(post, ref)
    assert p == ref_p
    vec = np.array([1.0, (-1) ** outcome * np.exp(-1j * k * np.pi / 4)]) / np.sqrt(2)
    branch = measured_branch(joint.amplitudes, 0, vec)
    prob = float(np.vdot(branch, branch).real)
    assert p == pytest.approx(prob, abs=1e-12)
    np.testing.assert_allclose(post, branch / np.sqrt(prob), atol=1e-12)


def test_announced_outcomes_would_reveal_the_secret():
    """Negative control: a client who announced her outcome string would
    hand the server the branch states one by one, and those depend on her
    angles. Only their sum, what the server holds, is angle-independent."""
    joint = graphs.build_graph_state(graphs.linear_cluster(4)).state
    leaves = [
        list(zip(*_walk_protocol1(
            joint, [protocols.PlanStep(v, qsim.Angle(k)) for v, k in enumerate(secret)])))
        for secret in ((0, 2, 7), (1, 4, 2))
    ]
    assert len(leaves[0]) == len(leaves[1]) == 8

    def branch(post, p):
        return p * np.outer(post, post.conj())

    per_leaf = max(
        np.max(np.abs(branch(*a) - branch(*b))) for a, b in zip(*leaves)
    )
    assert per_leaf > blindness.BLINDNESS_TOL
    summed = [sum(branch(*leaf) for leaf in side) for side in leaves]
    assert np.max(np.abs(summed[0] - summed[1])) < 1e-12


def test_bob_view_accepts_density_input():
    rng = default_rng(4)
    g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    view = blindness.protocol1_views(qsim.DensityMatrix(rho), [0, 1], [[3, 6]])[0]
    assert view.entries.shape == (2, 2)
    assert np.trace(view.entries).real == pytest.approx(1.0, abs=1e-10)


def test_bob_view_guards():
    with pytest.raises(ValueError):
        blindness.protocol1_views(qsim.plus_state(2), [0], [[1, 2]])
    with pytest.raises(ValueError):
        blindness.protocol1_views(qsim.plus_state(2), [0, 1], [[1, 2]])


def test_round_view_is_maximally_mixed_for_every_angle():
    for k in range(8):
        view = blindness.bob_view_protocol2_round(qsim.Angle(k))
        np.testing.assert_allclose(view.entries, np.eye(2) / 2, atol=1e-12)


def test_round_view_is_built_from_the_pair_table_that_runs(monkeypatch):
    honest = [blindness.bob_view_protocol2_round(k).entries for k in range(8)]
    table = protocols._bell_table()
    assert np.array_equal(honest, blindness._pair_views(table))
    # Swap the table a round runs on for a |00> pair's: the view follows it.
    monkeypatch.setattr(protocols, "_bell_table",
                        lambda: protocols._pair_table(qsim.basis_state(2, 0).amplitudes))
    blindness._round_views.cache_clear()
    try:
        for k in range(8):
            np.testing.assert_allclose(blindness.bob_view_protocol2_round(k).entries,
                                       np.diag([1.0, 0.0]), atol=1e-12)
    finally:
        blindness._round_views.cache_clear()
    monkeypatch.undo()
    assert np.array_equal(blindness.bob_view_protocol2_round(3).entries, honest[3])


def test_pair_table_does_not_signal():
    """Summed over the client's outcome, the server's half of any pair is the
    same at every angle: his reduced state of the pair (no-signaling)."""
    rng = default_rng(61)
    pairs = [qsim.bell_pair()] + [qsim.random_state(2, rng) for _ in range(50)]
    for pair in pairs:
        views = blindness._pair_views(protocols._pair_table(pair.amplitudes))
        assert np.max(np.abs(views - views[0])) < 1e-12
        reduced = partial_trace(pair, keep=[0]).entries
        assert np.max(np.abs(views - reduced)) < 1e-12


def test_announced_round_outcome_would_trip_the_round_view():
    """Negative control: kept apart by the client's outcome a, as a client who
    announced a would leave them, the Bell pair's halves depend on her angle."""
    p0, maps = protocols._bell_table()
    outs = maps[..., 0].reshape(8, 2, 2, 2)  # [k, a, m, s]: his map on |0>
    per_a = np.einsum("kams,kamt->kast", outs, outs.conj())
    per_a *= np.stack([p0, 1.0 - np.array(p0)], axis=1)[:, :, None, None]
    dev = np.max(np.abs(per_a - per_a[0]))
    assert dev == pytest.approx(0.5, abs=1e-12)
    assert dev > blindness.BLINDNESS_TOL
    assert np.max(np.abs(per_a.sum(axis=1) - per_a[0].sum(axis=0))) < 1e-12


def test_m_string_distribution_is_uniform():
    program = protocols.compile_circuit(protocols.parse_circuit("H 0"))
    dist = blindness.m_string_distribution(program, qsim.basis_state(1, 0))
    assert len(dist) == 8
    for p in dist.values():
        assert p == pytest.approx(1 / 8, abs=1e-10)
    biases = blindness.biases_from_distribution(dist, 3)
    assert max(biases) < 1e-10
    exact = blindness.m_string_distribution(program, qsim.basis_state(1, 0))
    assert blindness.biases_from_distribution(exact, program.num_rounds) == biases


def test_report_line_render():
    line = ReportLine("p1-marginal", (0, 2), None, 1.25e-13, True)
    assert line.render() == "check=p1-marginal secrets=0,2 povm=- max_dev=1.25e-13 pass=true"
    line = ReportLine("p2-povm", (1, 3), 2, 0.5, False)
    assert line.render() == "check=p2-povm secrets=1,3 povm=2 max_dev=0.5 pass=false"


def test_report_threshold():
    report = BlindnessReport()
    report.add("x", (0, 1), 1e-12)
    assert report.passed
    report.add("x", (0, 1), 1e-6)
    assert not report.passed
    assert "pass=false" in report.render()


def test_certify_protocol1_honest_passes():
    report = blindness.certify_protocol1(
        [(0, 2), (7, 1), (4, 5)], n_povms=2, rng=default_rng(3)
    )
    assert report.passed
    checks = {line.check for line in report.lines}
    assert checks == {"p1-marginal", "p1-transcript", "p1-povm"}
    # 3 pairs x (1 marginal + 1 transcript + 2 povms)
    assert len(report.lines) == 12


@pytest.mark.parametrize("certify, secrets", [
    (blindness.certify_protocol1, [(0, 2)]), (blindness.certify_protocol1, []),
    (blindness.certify_protocol2, [[protocols.Gate("H", (0,))]]),
    (blindness.certify_protocol2, []),
], ids=["p1-one", "p1-none", "p2-one", "p2-none"])
def test_certificate_needs_two_secrets_to_compare(certify, secrets):
    # With one secret there is no pair to compare, so no line could fail.
    with pytest.raises(ValueError, match="two or more secrets"):
        certify(secrets, n_povms=1, rng=default_rng(4))


def test_certify_protocol1_rejects_an_angle_off_the_grid():
    with pytest.raises(TypeError, match="1.5"):
        blindness.certify_protocol1([(0, 1.5), (0, 2)], n_povms=1, rng=default_rng(4))


def test_certify_protocol1_substituted_joint_is_invariant():
    # even on an arbitrary mixed joint state the view cannot depend on angles
    rng = default_rng(12)
    g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    report = blindness.certify_protocol1(
        [(0, 1), (6, 3)], joint=qsim.DensityMatrix(rho), n_povms=1, rng=rng
    )
    assert report.passed


def test_certify_protocol1_secret_length_mismatch():
    with pytest.raises(ValueError):
        blindness.certify_protocol1([(0, 2), (7,)])


def test_certify_protocol2_passes():
    secrets = [
        protocols.parse_circuit("H 0"),
        protocols.parse_circuit("S 0"),
    ]
    report = blindness.certify_protocol2(secrets, n_povms=1, rng=default_rng(5))
    assert report.passed
    checks = [line.check for line in report.lines]
    assert checks.count("p2-m-bias") == 2
    for kind in ("p2-round-view", "p2-m-dist", "p2-resend", "p2-povm"):
        assert kind in checks


def test_certify_protocol2_pads_unequal_programs():
    secrets = [
        protocols.parse_circuit("H 0"),
        protocols.parse_circuit("T 0"),  # twice the rounds before padding
    ]
    report = blindness.certify_protocol2(secrets, n_povms=1, rng=default_rng(6))
    assert report.passed


def test_certify_dispatcher():
    report = blindness.certify_B1_B2(1, [(0,), (2,)], n_povms=1, rng=default_rng(1))
    assert report.passed
    with pytest.raises(ValueError):
        blindness.certify_B1_B2(3, [(0,)])


def _leaf_rerun_distribution(program, input_state):
    """Reference m-string distribution: one full forced run per outcome leaf."""
    dist = {}
    channel = protocols.ChannelModel(0.0)
    n = program.num_rounds
    for bits in itertools.product((0, 1), repeat=2 * n):
        pairs = [(bits[2 * i], bits[2 * i + 1]) for i in range(n)]
        try:
            result = protocols.run_protocol2(
                program, input_state, channel, forced_outcomes=pairs
            )
        except DegenerateMeasurementError:
            continue
        key = "".join(str(p[1]) for p in pairs)
        dist[key] = dist.get(key, 0.0) + result.branch_probability
    return dist


@pytest.mark.parametrize("text, input_state", [
    ("H 0", qsim.basis_state(1, 0)),
    ("S 0\nX 0", qsim.random_state(1, default_rng(12))),
    ("CZ 0 1", qsim.basis_state(2, 0)),  # 6 rounds
    ("H 0\nS 0", qsim.random_state(1, default_rng(13))),  # 6 rounds, one wire
    # Rounds on wire 0 while wire 1 sits above it: a run's rows are a copy.
    ("H 0\nX 1", qsim.random_state(2, default_rng(14))),
])
def test_m_string_walk_equals_leaf_reruns_exactly(text, input_state):
    program = protocols.compile_circuit(protocols.parse_circuit(text))
    walk = blindness.m_string_distribution(program, input_state)
    oracle = _leaf_rerun_distribution(program, input_state)
    # Same keys, same insertion order, same floating-point sums.
    assert list(walk.items()) == list(oracle.items())


def test_m_string_distribution_runs_no_protocol(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("m_string_distribution reran the protocol")

    monkeypatch.setattr(protocols, "run_protocol2", refuse)
    program = protocols.compile_circuit(protocols.parse_circuit("T 0"))
    dist = blindness.m_string_distribution(program, qsim.basis_state(1, 0))
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


def test_zero_round_secrets_certify():
    x, z = protocols.Gate("X", (0,)), protocols.Gate("Z", (0,))
    program = protocols.compile_circuit([x])
    assert program.num_rounds == 0
    assert list(protocols.walk_protocol2(program, qsim.basis_state(1, 0))) == [((), 1.0)]
    assert blindness.m_string_distribution(program, qsim.basis_state(1, 0)) == {"": 1.0}
    report = blindness.certify_B1_B2(2, [[x], [z]])
    lines = report.render().splitlines()
    assert "check=p2-m-bias secrets=0,0 povm=- max_dev=0 pass=true" in lines
    assert lines and all(line.endswith(" pass=true") for line in lines)


class _RecordingDevice:
    """An honest measuring device that records each round's command digit."""

    def __init__(self):
        self.seen = []

    def observe_angle(self, k):
        self.seen.append(k)

    def claim_no_click(self):
        return False


@pytest.mark.parametrize("text", ["T 0", "TDG 0", "CNOT 0 1"])
def test_round_angle_options_cover_every_issued_command(text):
    # The certificate compares the server's view over _round_angle_options;
    # a command outside them would be a view it never checked.
    program = protocols.compile_circuit(protocols.parse_circuit(text))
    psi = qsim.basis_state(program.num_wires, 0)
    options = [{a.k for a in blindness._round_angle_options(plan)} for plan in program.rounds]
    rng = default_rng(31)
    for _ in range(40):
        bits = rng.integers(0, 2, size=(program.num_rounds, 2)).tolist()
        device = _RecordingDevice()
        protocols.run_protocol2(program, psi, protocols.ChannelModel(0.0), device=device,
                                forced_outcomes=bits)
        assert len(device.seen) == program.num_rounds
        for r, k in enumerate(device.seen):
            assert k in options[r], (r, k, bits)
