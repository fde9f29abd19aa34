"""Golden seed sweeps: CLI artifacts must stay byte-identical across changes.

Each digest is a sha256 over the exit code and the artifacts of a sequence of
`blinddelegate` calls, in order. `run` hashes `transcript.txt` + `report.txt`
for seeds 0-9 (recorded with the original tensordot-based kernel); a kernel
or runtime change that alters any outcome draw, frame or message shows up
there. `calibrate`, `attack` and `verify` (without the blindness certificates,
whose noise-level deviations follow floating-point rounding) pin the unit-cell
search, the side-channel report and the check catalog the same way.
Exact branch enumerations of the linear-cluster protocols are pinned as
literal dicts. Attacked protocol-2 runs (the evil device against signal
programs) are pinned in process: full transcripts, reported bits included,
and the countermeasure's delivery overhead.
"""

import hashlib

import numpy as np
import pytest

from blinddelegate import adversaries, cli, graphs, protocols

SEEDS = range(10)

CASES = {
    "p2-1wire": ("2", "H 0\nT 0\nS 0\n"),
    "p2-cnot": ("2", "H 0\nCNOT 0 1\nT 1\n"),
    "p2-cz": ("2", "H 0\nH 1\nCZ 0 1\nS 0\n"),
    "p2-3wire": ("2", "H 0\nCNOT 0 2\nT 1\nCZ 1 2\n"),
    "p1-chain": ("1", "H 0\nT 0\nS 0\n"),
    "tp-chain": ("tp", "H 0\nT 0\nS 0\n"),
}

GOLDEN = {
    ("p2-1wire", 0.0): "4b251e3001ac018cf7e61d1a6629fa54e5ff4fe1b81cdd33ac8157256290cbbf",
    ("p2-1wire", 0.3): "a5da56130f3f7263aacf2616d194db6cb4c1d84e15d9878dcf25c873744c5d27",
    ("p2-cnot", 0.0): "c85e1d7fd7d02fe9512cf001cd844f7018b7f237c2c6e2589195570c4bbf2ed0",
    ("p2-cnot", 0.3): "5c34b126bee3fa2091e1e78ee9df2e7d8e17a0152cf40e0de01399c06d73f432",
    ("p2-cz", 0.0): "67846ff5a4410042f939c6af4a17ab7ba8c6736768b4965d9cbe819140149d92",
    ("p2-cz", 0.3): "181c2e495fa1f4efee7e3f6c7be0224234af82a9aa240d118236fbe8aff3bc7f",
    ("p2-3wire", 0.0): "88644f842623e352f1d07e58a58e043c7148dc37f67fd99d057bdd00b9ab7f51",
    ("p2-3wire", 0.3): "dd6c796e3db1e7610f711c8199ca4c344d373d18113e4277b4f79c2334585661",
    ("p1-chain", 0.0): "e437f5f9d75b91c5c7bb02e4214601f0dd9135d2dbe28ec2d57cdecaae6519fb",
    ("tp-chain", 0.0): "431f3a3d60c10b219a531c24d11e2ac2bf2f5c8cf04e63bc341896e4058835cc",
    ("tp-chain", 0.3): "f3c7719b5a593b849be11eb266e8f842ee565dab7686de5caeb7d91ee857a64a",
}


CALIBRATE = "e15b4dcfd16f1928b6cf492fea9656b01b3c972293ca122b7ef142ffa2f8b38d"

ATTACK_SEEDS = range(3)
ATTACK = {
    0.0: "d05275e8e6898d79c81e3dc0963f6f4e4248859b55812aefe09d27eabd952247",
    0.3: "6ddb415141ccf0c8dd628155fd4ea5ac2be7d248c621e213fa8913badf074c04",
}

VERIFY_SEEDS = range(3)
VERIFY = "7ed0fd8ece1139b434c25fdf0b2278e54f37c9be19b4ebdbe55e36bc423be584"

# sha256 over the guesses and full transcripts of run_with_evil_device, keyed by
# (masking, loss): digits 0-7, four run seeds each.
ATTACK_RUN_SEEDS = range(4)
ATTACKED_RUNS = {
    (False, 0.0): "28b6ae13c5895937c312a453ad508f759e46b877e95dee574570573b77e203df",
    (False, 0.3): "7b9cd2e6acffa94e2a2b0dfd0e24e54c7e16ab55694f93f4f25d86a91096c253",
    (False, 0.5): "ba3e669b176aed89d299582e7ff3d5eae1ccffa6235c91c8eb4636fff1133f96",
    (True, 0.0): "dd3abae02e0384b3867d534edb576d73a34c5a61dfd16f076e07ef3f2263048b",
    (True, 0.3): "47fbab4587f2e3fa49c5306d190bd996b15a253634ce523520dcb173bda86091",
    (True, 0.5): "dd170028128978da84ce08e5f878eda2d06f2ae79899dfc88410402e8c9c6235",
}

# repr of countermeasure_overhead(60, loss, seed=2): (masked, unmasked).
OVERHEAD = {
    0.0: "(1.8916666666666666, 1.0)",
    0.3: "(2.8, 1.3916666666666666)",
}


# Exact outcome distributions of the linear-cluster protocols (`1` and its
# teleported variant `tp`), as (outcome bits, probability) pairs in insertion
# order: the chains of acceptance criterion c05, which include the analytic
# cases of tests/test_protocols.py.
ENUMERATIONS = {
    ("1", "H 0"): [((0,), 1.0)],
    ("1", "S 0"): [((0,), 0.5000000000000002), ((1,), 0.4999999999999997)],
    ("1", "T 0\nH 0"): [((0,), 0.8535533905932733), ((1,), 0.14644660940672669)],
    ("1", "H 0\nS 0\nH 0"): [((0,), 0.4999999999999998), ((1,), 0.5000000000000002)],
    ("1", "S 0\nT 0\nH 0"): [((0,), 0.8535533905932735), ((1,), 0.14644660940672652)],
    ("1", "T 0\nTDG 0\nS 0\nH 0"): [((0,), 0.5000000000000001), ((1,), 0.5000000000000004)],
    ("tp", "H 0"): [((0,), 1.0)],
    ("tp", "S 0"): [((0,), 0.5000000000000008), ((1,), 0.5)],
    ("tp", "T 0\nH 0"): [((0,), 0.8535533905932848), ((1,), 0.14644660940672452)],
    ("tp", "H 0\nS 0\nH 0"): [((0,), 0.5000000000000009), ((1,), 0.5000000000000002)],
}


def cli_digest(tmp_path, runs):
    """sha256 over the exit code and the named artifacts of each `cli.main` call."""
    h = hashlib.sha256()
    for i, (argv, artifacts) in enumerate(runs):
        outdir = tmp_path / f"out{i}"
        code = cli.main([*argv, "--outdir", str(outdir)])
        h.update(f"exit={code}\n".encode())
        for name in artifacts:
            h.update((outdir / name).read_bytes())
    return h.hexdigest()


def sweep_digest(tmp_path, protocol, text, loss):
    circuit = tmp_path / "circuit.txt"
    circuit.write_text(text)
    return cli_digest(tmp_path, [
        (["run", "--protocol", protocol, "--circuit", str(circuit),
          "--loss", str(loss), "--seed", str(seed)],
         ["transcript.txt", "report.txt"])
        for seed in SEEDS
    ])


def attack_digest(tmp_path, loss):
    return cli_digest(tmp_path, [
        (["attack", "--trials", "200", "--loss", str(loss), "--seed", str(seed)],
         ["attack.txt"])
        for seed in ATTACK_SEEDS
    ])


def verify_digest(tmp_path):
    return cli_digest(tmp_path, [
        (["verify", "--checks", "identities,unitcell,stabilizers", "--seed", str(seed)],
         ["report.txt"])
        for seed in VERIFY_SEEDS
    ])


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv(cli.ENV_SEED, raising=False)


@pytest.mark.parametrize("case,loss", sorted(GOLDEN))
def test_seed_sweep_is_byte_identical(tmp_path, case, loss):
    protocol, text = CASES[case]
    assert sweep_digest(tmp_path, protocol, text, loss) == GOLDEN[case, loss]


def test_protocol1_rejects_a_lossy_channel(tmp_path, capsys):
    # Protocol 1 applies no loss, so a lossy run has no sweep to pin: it exits
    # 2 with one error line and writes no artifact.
    circuit = tmp_path / "circuit.txt"
    circuit.write_text(CASES["p1-chain"][1])
    outdir = tmp_path / "out"
    argv = ["run", "--protocol", "1", "--circuit", str(circuit), "--loss", "0.3",
            "--outdir", str(outdir)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: --loss applies to protocols 2 and tp only"]
    assert not outdir.exists()


def test_calibrate_is_byte_identical(tmp_path):
    assert cli_digest(tmp_path, [(["calibrate"], ["calibration.txt"])]) == CALIBRATE


@pytest.mark.parametrize("loss", sorted(ATTACK))
def test_attack_sweep_is_byte_identical(tmp_path, loss):
    assert attack_digest(tmp_path, loss) == ATTACK[loss]


def test_verify_sweep_is_byte_identical(tmp_path):
    assert verify_digest(tmp_path) == VERIFY


def attacked_run_digest(masked, loss):
    h = hashlib.sha256()
    for k in range(8):
        program = adversaries.make_signal_program(k)
        for seed in ATTACK_RUN_SEEDS:
            channel = protocols.ChannelModel(loss, rng_seed=100 * seed + k)
            rng = np.random.default_rng([seed, 5, k])
            guess, transcript, success = adversaries.run_with_evil_device(
                program, masked, channel, rng)
            h.update(f"k={k} seed={seed} guess={guess} success={success}\n".encode())
            for m in transcript:
                h.update(f"{m.round} {m.direction} {m.kind} {m.payload}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("masked,loss", sorted(ATTACKED_RUNS))
def test_attacked_runs_are_byte_identical(masked, loss):
    assert attacked_run_digest(masked, loss) == ATTACKED_RUNS[masked, loss]


@pytest.mark.parametrize("loss", sorted(OVERHEAD))
def test_countermeasure_overhead_is_exact(loss):
    assert repr(adversaries.countermeasure_overhead(60, loss, seed=2)) == OVERHEAD[loss]


def chain_distribution(protocol, text):
    plan = protocols.circuit_to_chain(protocols.parse_circuit(text))
    n = len(plan) + 1
    resource = graphs.build_graph_state(graphs.linear_cluster(n))
    if protocol == "1":
        return protocols.enumerate_distribution(
            protocols.run_protocol1, resource, plan, num_bits=n
        )
    return protocols.enumerate_distribution(
        protocols.run_teleport_variant, resource, plan, protocols.ChannelModel(0.0),
        num_bits=3 * n,
    )


@pytest.mark.parametrize("protocol,text", list(ENUMERATIONS))
def test_chain_enumeration_is_exact(protocol, text):
    # Same keys, same insertion order, same floating-point sums.
    assert list(chain_distribution(protocol, text).items()) == ENUMERATIONS[protocol, text]
