import argparse
import dataclasses
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from blinddelegate import blindness, cli, graphs, pauli, qsim
from blinddelegate.errors import ConfigError
from oracles import parse_transcript

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv(cli.ENV_SEED, raising=False)


def _circuit(tmp_path, text="H 0\nCNOT 0 1\n"):
    path = tmp_path / "circuit.txt"
    path.write_text(text)
    return str(path)


def test_parse_config_run_flags(tmp_path):
    config = cli.parse_config(
        ["run", "--protocol", "2", "--circuit", "c.txt", "--loss", "0.25",
         "--seed", "9", "--adversary", "loss-device", "--countermeasure",
         "--outdir", str(tmp_path)]
    )
    assert config.command == "run"
    assert config.protocol == "2" and config.circuit == "c.txt"
    assert config.loss == 0.25 and config.seed == 9
    assert config.adversary == "loss-device" and config.countermeasure
    assert config.outdir == str(tmp_path)


def test_parse_config_calls_share_no_state(capsys):
    assert cli._parser() is cli._parser()
    first = cli.parse_config(
        ["run", "--protocol", "2", "--circuit", "c.txt", "--countermeasure",
         "--seed", "9", "--loss", "0.5"]
    )
    assert first.countermeasure and first.seed == 9
    second = cli.parse_config(["run", "--protocol", "1", "--circuit", "d.txt"])
    assert second.countermeasure is False
    assert (second.seed, second.loss, second.adversary) == (0, 0.0, "honest")
    assert cli.parse_config(["verify", "--checks", "identities"]).checks == ("identities",)
    assert cli.parse_config(["verify"]).checks == cli.DEFAULT_CHECKS
    for bad in (["run", "--protocol", "9", "--circuit", "c.txt"], ["verify", "--nope"], []):
        with pytest.raises(SystemExit) as exc:
            cli.main(bad)
        assert exc.value.code == 2
        errors = [ln for ln in capsys.readouterr().err.splitlines() if "error:" in ln]
        assert len(errors) == 1, bad
    assert cli.parse_config(["calibrate"]).command == "calibrate"


def test_parse_config_gives_the_parser_defaults():
    config = cli.parse_config(["run", "--protocol", "2", "--circuit", "c.txt"])
    assert (config.seed, config.loss, config.adversary, config.outdir) == (0, 0.0, "honest", ".")
    assert cli.parse_config(["attack"]).trials == 2000


# argv values for which parse_config's one parse by the command's own parser
# must agree with the top-level parser's nested parse.
_PARSE_CASES = {
    "run-spaced": ["run", "--protocol", "2", "--circuit", "c.txt", "--loss", "0.3",
                   "--seed", "4", "--adversary", "loss-device", "--countermeasure",
                   "--outdir", "out"],
    "run-equals": ["run", "--protocol=tp", "--circuit=c.txt", "--loss=0.5", "--seed=2",
                   "--outdir=o"],
    "run-abbreviated": ["run", "--prot", "1", "--circ", "c.txt", "--se", "3"],
    "run-ambiguous-abbreviation": ["run", "--protocol", "2", "--c", "c.txt"],
    "help": ["-h"],
    "help-long": ["--help"],
    "run-help": ["run", "-h"],
    "attack-help": ["attack", "--help"],
    "empty": [],
    "unknown-command": ["nope"],
    "option-before-command": ["--seed", "3", "run"],
    "bad-choice": ["run", "--protocol", "9", "--circuit", "c.txt"],
    "bad-int": ["run", "--protocol", "2", "--circuit", "c.txt", "--seed", "x"],
    "bad-float": ["run", "--protocol", "2", "--circuit", "c.txt", "--loss", "x"],
    "missing-required": ["run", "--circuit", "c.txt"],
    "trailing-word": ["run", "--protocol", "2", "--circuit", "c.txt", "extra"],
    "unknown-option": ["run", "--protocol", "2", "--circuit", "c.txt", "--nope", "v"],
    "flag-with-value": ["run", "--protocol", "2", "--circuit", "c.txt",
                        "--countermeasure=1"],
    "double-dash-last": ["run", "--protocol", "2", "--circuit", "c.txt", "--"],
    "double-dash-then-word": ["run", "--protocol", "2", "--circuit", "c.txt", "--", "x"],
    "double-dash-first": ["run", "--", "--protocol", "2"],
    "protocol1-loss": ["run", "--protocol", "1", "--circuit", "c.txt", "--loss", "0.2"],
    "verify": ["verify"],
    "verify-checks": ["verify", "--checks", "identities, unitcell", "--seed", "3"],
    "verify-empty-checks": ["verify", "--checks", ","],
    "verify-unknown-check": ["verify", "--checks", "nope"],
    "verify-unknown-option": ["verify", "--nope"],
    "calibrate": ["calibrate", "--outdir", "d"],
    "calibrate-extra": ["calibrate", "x", "y"],
    "attack": ["attack", "--trials", "10", "--loss=0.2", "--seed", "5"],
    "attack-bad-int": ["attack", "--trials", "1.5"],
    "attack-negative-seed": ["attack", "--seed", "-1"],
}


def _parse_outcome(argv, capsysbinary):
    """What parse_config does with argv: the namespace's items in vars order,
    or the SystemExit code or ConfigError message, and the bytes it printed."""
    try:
        outcome = ("namespace", list(vars(cli.parse_config(argv)).items()))
    except SystemExit as exc:
        outcome = ("exit", exc.code)
    except ConfigError as exc:
        outcome = ("config-error", str(exc))
    return outcome, capsysbinary.readouterr()


@pytest.mark.parametrize("argv", list(_PARSE_CASES.values()), ids=list(_PARSE_CASES))
def test_one_parse_equals_the_top_level_parse(argv, monkeypatch, capsysbinary):
    """An argv led by a command is parsed by that command's parser alone; it
    must give what the top-level parser gives, forced here by emptying the
    command map: the same namespace in the same order, or the same exit code,
    message or error, with the same stdout and stderr bytes."""
    one = _parse_outcome(argv, capsysbinary)
    parser, _ = cli._parser()
    monkeypatch.setattr(cli, "_parser", lambda: (parser, {}))
    assert _parse_outcome(argv, capsysbinary) == one


def _count_run_calls(tmp_path, monkeypatch, outdir):
    """Calls one `run` through cli.main makes: ArgumentParser.parse_known_args,
    text-mode and binary opens, and os.mkdir."""
    calls = dict.fromkeys(("parse_known_args", "text_open", "binary_open", "mkdir"), 0)
    parse_known_args, mkdir = argparse.ArgumentParser.parse_known_args, os.mkdir

    def counting_parse(self, *args, **kwargs):
        calls["parse_known_args"] += 1
        return parse_known_args(self, *args, **kwargs)

    def counting_open(file, mode="r", *args, **kwargs):
        calls["binary_open" if "b" in mode else "text_open"] += 1
        return open(file, mode, *args, **kwargs)

    def counting_mkdir(*args, **kwargs):
        calls["mkdir"] += 1
        return mkdir(*args, **kwargs)

    argv = ["run", "--protocol", "2", "--circuit", _circuit(tmp_path), "--outdir", str(outdir)]
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting_parse)
    monkeypatch.setattr(cli, "open", counting_open, raising=False)
    monkeypatch.setattr(os, "mkdir", counting_mkdir)
    assert cli.main(argv) == 0
    return calls


def test_run_parses_its_argv_once(tmp_path, monkeypatch):
    # argparse's nested parse calls parse_known_args twice: top level, then run's.
    assert _count_run_calls(tmp_path, monkeypatch, tmp_path)["parse_known_args"] == 1


def test_run_writes_its_artifacts_in_binary_mode(tmp_path, monkeypatch):
    # The circuit read is the one text-mode open; both artifacts are byte writes.
    calls = _count_run_calls(tmp_path, monkeypatch, tmp_path)
    assert (calls["text_open"], calls["binary_open"]) == (1, 2)


def test_run_makes_no_directory_call_for_an_existing_outdir(tmp_path, monkeypatch):
    assert _count_run_calls(tmp_path, monkeypatch, tmp_path)["mkdir"] == 0
    # A missing outdir is still made, parents and all.
    assert _count_run_calls(tmp_path, monkeypatch, tmp_path / "a" / "b")["mkdir"] == 2
    assert (tmp_path / "a" / "b" / "report.txt").is_file()


def test_run_checks_protocol2_against_raw_rows(tmp_path, monkeypatch):
    """Counts, no timer: a protocol-2 run builds its reference state with
    qsim.apply_stack on a stack of one, with no qsim.apply_gate call (one per
    gate before), and still finds the corrected output equal to it."""
    def refuse(*args, **kwargs):
        raise AssertionError("qsim.apply_gate called")

    monkeypatch.setattr(qsim, "apply_gate", refuse)
    for text in ("H 0\nCNOT 0 1\n", "T 0\nCZ 1 0\nS 1\nX 0\n"):
        assert cli.main(["run", "--protocol", "2", "--circuit", _circuit(tmp_path, text),
                         "--loss", "0.3", "--outdir", str(tmp_path)]) == 0
        assert "output_match=true" in (tmp_path / "report.txt").read_text()


def test_env_seed_overrides_flag(monkeypatch):
    monkeypatch.setenv(cli.ENV_SEED, "77")
    config = cli.parse_config(["verify", "--seed", "5"])
    assert config.seed == 77
    monkeypatch.setenv(cli.ENV_SEED, "not-a-number")
    with pytest.raises(ConfigError):
        cli.parse_config(["verify"])


def test_loss_out_of_range_is_config_error(tmp_path):
    code = cli.main(
        ["run", "--protocol", "2", "--circuit", _circuit(tmp_path),
         "--loss", "1.5", "--outdir", str(tmp_path)]
    )
    assert code == 2


def test_attack_loss_out_of_range_is_config_error(tmp_path, capsys):
    assert cli.main(["attack", "--loss", "1.5", "--outdir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: loss must lie in [0, 1]\n"


@pytest.mark.parametrize("command", [
    ["run", "--protocol", "2", "--circuit", "c.txt"], ["verify"], ["attack"]])
def test_negative_seed_is_a_config_error(monkeypatch, tmp_path, capsys, command):
    monkeypatch.delenv(cli.ENV_SEED, raising=False)
    argv = [*command, "--outdir", str(tmp_path)]
    assert cli.main([*argv, "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: --seed must be >= 0\n"
    monkeypatch.setenv(cli.ENV_SEED, "-5")
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {cli.ENV_SEED} must be >= 0\n"
    # The variable overrides the flag, so a valid one wins over --seed -1.
    monkeypatch.setenv(cli.ENV_SEED, "0")
    assert cli.parse_config([*argv, "--seed", "-1"]).seed == 0
    assert list(tmp_path.iterdir()) == []


def test_bad_env_seed_fails_calibrate_too(monkeypatch, tmp_path):
    monkeypatch.setenv(cli.ENV_SEED, "x")
    assert cli.main(["calibrate", "--outdir", str(tmp_path)]) == 2


def test_unknown_checks_rejected(tmp_path):
    assert cli.main(["verify", "--checks", "bogus", "--outdir", str(tmp_path)]) == 2


@pytest.mark.parametrize("checks", [",", "", " , "])
def test_empty_check_list_rejected(tmp_path, capsys, checks):
    assert cli.main(["verify", "--checks", checks, "--outdir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: --checks names no check"]
    assert not (tmp_path / "report.txt").exists()


@pytest.mark.parametrize("protocol", ["1", "tp"])
def test_empty_chain_circuit_rejected(tmp_path, capsys, protocol):
    circuit = _circuit(tmp_path, "# no gates\n")
    argv = ["run", "--protocol", protocol, "--circuit", circuit, "--outdir", str(tmp_path)]
    assert cli.main(argv) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: the circuit is empty")


@pytest.mark.parametrize("protocol", ["1", "tp"])
@pytest.mark.parametrize("flags", [["--adversary", "loss-device"], ["--countermeasure"]])
def test_chain_protocols_reject_protocol2_attack_flags(tmp_path, capsys, protocol, flags):
    argv = ["run", "--protocol", protocol, "--circuit", _circuit(tmp_path, "H 0\n"),
            "--outdir", str(tmp_path), *flags]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: --adversary and --countermeasure apply to protocol 2 only"]
    assert not (tmp_path / "report.txt").exists()


@pytest.mark.parametrize("protocol,loss", [("1", "0"), ("2", "0.3"), ("tp", "0.3")])
def test_report_header_is_the_transcript_header(tmp_path, protocol, loss):
    argv = ["run", "--protocol", protocol, "--circuit", _circuit(tmp_path, "H 0\nT 0\n"),
            "--loss", loss, "--seed", "5", "--outdir", str(tmp_path)]
    assert cli.main(argv) == 0
    report = (tmp_path / "report.txt").read_text().splitlines()
    transcript = (tmp_path / "transcript.txt").read_text().splitlines()
    assert report[0] == transcript[0] == f"run protocol={protocol} seed=5 loss={loss}"


def test_run_header_names_the_adversary_and_countermeasure_only_when_set(tmp_path):
    # On this circuit at loss 0.3 the loss device's run delivers exactly as the
    # honest one, so only the header can tell the two runs apart.
    circuit = _circuit(tmp_path, "H 0\nCNOT 0 1\nT 1\n")
    device = ["--adversary", "loss-device"]
    runs = {"honest": [], "device": device, "masked": ["--countermeasure"],
            "both": [*device, "--countermeasure"]}
    texts = {}
    for name, flags in runs.items():
        argv = ["run", "--protocol", "2", "--circuit", circuit, "--loss", "0.3",
                "--seed", "0", "--outdir", str(tmp_path / name), *flags]
        assert cli.main(argv) == 0
        texts[name] = (tmp_path / name / "transcript.txt").read_text()
        report = (tmp_path / name / "report.txt").read_text()
        assert report.partition("\n")[0] == texts[name].partition("\n")[0]
    headers = {name: parse_transcript(text)[0] for name, text in texts.items()}
    honest = {"protocol": "2", "seed": "0", "loss": "0.3"}
    assert headers == {
        "honest": honest,
        "device": {**honest, "adversary": "loss-device"},
        "masked": {**honest, "countermeasure": "on"},
        "both": {**honest, "adversary": "loss-device", "countermeasure": "on"},
    }
    assert texts["honest"] != texts["device"]
    assert texts["honest"].partition("\n")[2] == texts["device"].partition("\n")[2]


def test_missing_circuit_file(tmp_path):
    code = cli.main(
        ["run", "--protocol", "2", "--circuit", str(tmp_path / "nope.txt"),
         "--outdir", str(tmp_path)]
    )
    assert code == 2
    _assert_no_run_artifacts(tmp_path)


def test_total_loss_exhausts_retries(tmp_path):
    code = cli.main(
        ["run", "--protocol", "2", "--circuit", _circuit(tmp_path),
         "--loss", "1.0", "--outdir", str(tmp_path)]
    )
    assert code == 3
    _assert_no_run_artifacts(tmp_path)


def _assert_no_run_artifacts(outdir):
    for name in ("transcript.txt", "report.txt"):
        assert not (outdir / name).exists()


def test_outdir_naming_a_file_exits_2_with_one_error_line(tmp_path, capsys):
    outdir = tmp_path / "taken"
    outdir.write_text("not a directory\n")
    argv = ["calibrate", "--outdir", str(outdir)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), captured.err
    assert outdir.read_text() == "not a directory\n"


def test_run_protocol2_wire_limit(tmp_path, capsys):
    # The output check applies the circuit gate by gate, so the register's
    # capacity (qsim.CAPACITY wires) is the only limit.
    for wires in (7, 14):
        outdir = tmp_path / str(wires)
        circuit = _circuit(tmp_path, f"H 0\nCNOT 0 {wires - 1}\n")
        argv = ["run", "--protocol", "2", "--seed", "1", "--circuit", circuit,
                "--outdir", str(outdir)]
        assert cli.main(argv) == 0
        assert "output_match=true" in (outdir / "report.txt").read_text()
    capsys.readouterr()
    outdir = tmp_path / "15"
    argv = ["run", "--protocol", "2", "--seed", "1", "--outdir", str(outdir),
            "--circuit", _circuit(tmp_path, "H 0\nCNOT 0 14\n")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: 15 qubits exceeds capacity 14\n"
    assert not outdir.exists()


def test_run_protocol2_writes_outputs(tmp_path, capsys):
    code = cli.main(
        ["run", "--protocol", "2", "--circuit", _circuit(tmp_path),
         "--loss", "0.3", "--seed", "4", "--outdir", str(tmp_path)]
    )
    assert code == 0
    report = (tmp_path / "report.txt").read_text()
    assert "output_match=true" in report
    assert report.startswith("run protocol=2 seed=4 loss=0.3")
    transcript = (tmp_path / "transcript.txt").read_text()
    assert transcript.splitlines()[0] == "run protocol=2 seed=4 loss=0.3"
    assert "k=DONE" in transcript
    assert capsys.readouterr().out == report


def test_run_chain_protocols(tmp_path):
    circuit = _circuit(tmp_path, "H 0\nS 0\n")
    for protocol in ("1", "tp"):
        outdir = tmp_path / protocol
        code = cli.main(
            ["run", "--protocol", protocol, "--circuit", circuit,
             "--loss", "0.2" if protocol == "tp" else "0.0",
             "--seed", "3", "--outdir", str(outdir)]
        )
        assert code == 0
        report = (outdir / "report.txt").read_text()
        assert "outcome=" in report and "frames=w0:" in report


def test_lost_delivery_does_not_reveal_the_previous_reported_bit(tmp_path):
    # The loss coins and the outcome draws are separate streams, so whether
    # round 2's first particle is lost says nothing about round 1's m.
    circuit = _circuit(tmp_path, "H 0\nS 0\nH 0\n")
    m1_bits = []
    for seed in range(300):
        argv = ["run", "--protocol", "2", "--circuit", circuit, "--loss", "0.3",
                "--seed", str(seed), "--outdir", str(tmp_path)]
        assert cli.main(argv) == 0
        _, messages = parse_transcript((tmp_path / "transcript.txt").read_text())
        kinds = {r: [m.kind for m in messages if m.round == r] for r in (1, 2)}
        if "LOST_RESEND" not in kinds[1] and kinds[2][1] == "LOST_RESEND":
            [m1] = [m.payload for m in messages if m.round == 1 and m.kind == "X_RESULT"]
            m1_bits.append(m1)
    assert len(m1_bits) > 40
    assert 0.3 <= m1_bits.count(0) / len(m1_bits) <= 0.7


def test_same_seed_runs_are_byte_identical(tmp_path):
    circuit = _circuit(tmp_path)
    argv = ["run", "--protocol", "2", "--circuit", circuit, "--loss", "0.4",
            "--seed", "11"]
    for sub in ("a", "b"):
        assert cli.main(argv + ["--outdir", str(tmp_path / sub)]) == 0
    for name in ("transcript.txt", "report.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()


def test_env_seed_changes_artifacts(tmp_path, monkeypatch):
    circuit = _circuit(tmp_path)
    argv = ["run", "--protocol", "2", "--circuit", circuit, "--seed", "11"]
    assert cli.main(argv + ["--outdir", str(tmp_path / "a")]) == 0
    monkeypatch.setenv(cli.ENV_SEED, "12")
    assert cli.main(argv + ["--outdir", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "transcript.txt").read_text()
    b = (tmp_path / "b" / "transcript.txt").read_text()
    assert a.splitlines()[0] != b.splitlines()[0]


def test_verify_all_checks_pass(tmp_path):
    assert cli.main(["verify", "--outdir", str(tmp_path)]) == 0
    report = (tmp_path / "report.txt").read_text()
    assert "pass=false" not in report
    for kind in ("check=identities", "check=unitcell", "check=stabilizers",
                 "check=p1-marginal", "check=p2-m-dist"):
        assert kind in report


def test_verify_check_subset(tmp_path):
    assert cli.main(
        ["verify", "--checks", "identities,stabilizers", "--outdir", str(tmp_path)]
    ) == 0
    report = (tmp_path / "report.txt").read_text()
    assert "check=identities" in report
    assert "check=unitcell" not in report


def test_verify_unitcell_fails_on_a_flipped_fold(tmp_path, capsys, monkeypatch):
    # Negative control: an entry whose table disagrees with its schedules on
    # one branch (wire 0's fold there gains an X) fails its unit-cell line.
    entry = graphs.group_entry("HxI")
    bits, folds = next(iter(entry.frames.items()))
    flipped = {**entry.frames, bits: (pauli.frame(folds[0].x ^ 1, folds[0].z), *folds[1:])}
    monkeypatch.setitem(graphs._ENTRIES, "HxI", dataclasses.replace(entry, frames=flipped))
    assert cli.main(["verify", "--checks", "unitcell", "--outdir", str(tmp_path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 7
    assert [ln for ln in lines if "pass=false" in ln] == [
        "check=unitcell op=HxI bridge=-,- pass=false"]


def test_calibrate_output(tmp_path):
    assert cli.main(["calibrate", "--outdir", str(tmp_path)]) == 0
    lines = (tmp_path / "calibration.txt").read_text().splitlines()
    assert lines[0] == "calibration bridge=0,2"
    assert "op=CZCNOT wire0=2,2,0 wire1=2,2,2 bridge=0,2" in lines
    assert "op=STHxI wire0=7,0,2 adapt3=2,0 wire1=2,2,2" in lines


def test_attack_report(tmp_path):
    assert cli.main(
        ["attack", "--trials", "150", "--seed", "1", "--outdir", str(tmp_path)]
    ) == 0
    lines = (tmp_path / "attack.txt").read_text().splitlines()
    digit_lines = [ln for ln in lines if ln.startswith("attack digit=")]
    assert len(digit_lines) == 8
    assert all("success=true" in ln for ln in digit_lines)
    mi = {}
    for ln in lines:
        if ln.startswith("mi countermeasure="):
            fields = dict(f.split("=", 1) for f in ln[3:].split())
            mi[fields["countermeasure"]] = float(fields["bits"])
    assert mi["off"] > 2.0
    assert mi["on"] < 0.3


@pytest.mark.parametrize("argv,artifact", [
    (["run", "--protocol", "2", "--loss", "0.3"], "report.txt"),
    (["verify"], "report.txt"),
    (["calibrate"], "calibration.txt"),
    (["attack", "--trials", "100"], "attack.txt"),
])
def test_stdout_mirrors_the_artifact(tmp_path, capsys, argv, artifact):
    if argv[0] == "run":
        argv = [*argv, "--circuit", _circuit(tmp_path)]
    assert cli.main([*argv, "--outdir", str(tmp_path)]) == 0
    assert capsys.readouterr().out == (tmp_path / artifact).read_text()


ARTIFACTS = ("transcript.txt", "report.txt", "calibration.txt", "attack.txt")


@pytest.mark.parametrize("argv", [
    ["run", "--protocol", "2", "--loss", "0.3", "--seed", "4"],
    ["run", "--protocol", "tp", "--loss", "0.3", "--seed", "4"],
    ["verify", "--seed", "2"],
    ["calibrate"],
    ["attack", "--trials", "100", "--seed", "1"],
], ids=["run-2", "run-tp", "verify", "calibrate", "attack"])
def test_rewriting_longer_stale_artifacts_matches_a_fresh_run(tmp_path, capsys, argv):
    if argv[0] == "run":
        argv = [*argv, "--circuit", _circuit(tmp_path, "H 0\nT 0\n")]
    fresh, stale = tmp_path / "fresh", tmp_path / "stale"
    stale.mkdir()
    for name in ARTIFACTS:
        (stale / name).write_text("x" * 10_000)
    outputs = []
    for outdir in (fresh, stale):
        assert cli.main([*argv, "--outdir", str(outdir)]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    written = sorted(p.name for p in fresh.iterdir())
    assert written and set(written) <= set(ARTIFACTS)
    for name in written:
        assert (stale / name).read_bytes() == (fresh / name).read_bytes(), name


def test_run_writes_the_transcript_before_the_report(tmp_path, monkeypatch):
    # A reader that waits for report.txt then finds a complete transcript.
    written = []
    write = cli._write

    def recording_write(path, text):
        written.append(os.path.basename(path))
        write(path, text)

    monkeypatch.setattr(cli, "_write", recording_write)
    argv = ["run", "--protocol", "2", "--circuit", _circuit(tmp_path), "--outdir", str(tmp_path)]
    assert cli.main(argv) == 0
    assert written == ["transcript.txt", "report.txt"]


def test_hard_link_to_the_report_sees_the_rewrite(tmp_path, capsys):
    (tmp_path / "report.txt").write_text("x" * 10_000)
    os.link(tmp_path / "report.txt", tmp_path / "linked.txt")
    assert cli.main(["verify", "--checks", "identities", "--outdir", str(tmp_path)]) == 0
    report = capsys.readouterr().out
    assert (tmp_path / "report.txt").read_text() == report
    assert (tmp_path / "linked.txt").read_text() == report
    assert (tmp_path / "linked.txt").samefile(tmp_path / "report.txt")


def test_failing_verify_exits_1_and_still_writes_its_report(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(blindness, "BLINDNESS_TOL", 0.0)
    assert cli.main(["verify", "--checks", "blindness", "--outdir", str(tmp_path)]) == 1
    report = (tmp_path / "report.txt").read_text()
    assert "pass=false" in report
    assert capsys.readouterr().out == report


def _declared_entry_point():
    """The ``blinddelegate`` entry of ``[project.scripts]`` in pyproject.toml."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["blinddelegate"]


# The launcher pip writes for a ``module:attr`` console-script entry point.
_WRAPPER = """#!{python}
# -*- coding: utf-8 -*-
import re
import sys
from {module} import {attr}
if __name__ == "__main__":
    sys.argv[0] = re.sub(r"(-script\\.pyw|\\.exe)?$", "", sys.argv[0])
    sys.exit({attr}())
"""


def _check_console_script(exe, outdir, env):
    proc = subprocess.run(
        [exe, "calibrate", "--outdir", str(outdir)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("calibration bridge=")
    # main's return value must reach the process exit status.
    proc = subprocess.run(
        [exe, "run", "--protocol", "2", "--circuit", str(outdir / "nope.txt"),
         "--outdir", str(outdir)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr


def test_python_dash_m_package_runs_without_runpy_warning(tmp_path):
    """`python -m blinddelegate` reaches cli.main; -W error turns runpy's
    "found in sys.modules" RuntimeWarning into a failure."""
    pythonpath = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "blinddelegate", "calibrate"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=pythonpath),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("calibration bridge=")
    assert (tmp_path / "calibration.txt").read_text() == proc.stdout


def test_console_script_entry_point(tmp_path):
    module, _, attr = _declared_entry_point().partition(":")
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    script = bin_dir / "blinddelegate"
    script.write_text(
        _WRAPPER.format(python=sys.executable, module=module, attr=attr)
    )
    script.chmod(0o755)
    path = os.pathsep.join(filter(None, [str(bin_dir), os.environ.get("PATH")]))
    exe = shutil.which("blinddelegate", path=path)
    assert exe and Path(exe).samefile(script)
    pythonpath = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    env = dict(os.environ, PATH=path, PYTHONPATH=pythonpath)
    _check_console_script(exe, tmp_path, env)

    installed = shutil.which("blinddelegate")
    if installed and not Path(installed).samefile(script):
        _check_console_script(installed, tmp_path, None)
