"""Command-line front end: run a delegation, verify invariants, print the
calibrated unit cell, or measure the loss-report side channel."""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import adversaries, blindness, graphs, pauli, protocols, qsim
from .errors import BlindDelegateError, ConfigError, RetryLimitError

ENV_SEED = "BLINDDELEGATE_SEED"
DEFAULT_CHECKS = ("identities", "unitcell", "stabilizers", "blindness")


@functools.cache
def _parser() -> tuple:
    """(parser, its subcommand map), built on first use and shared by every
    call (parsing keeps no state between calls)."""
    parser = argparse.ArgumentParser(
        prog="blinddelegate",
        description="Delegated-computation runner and verifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="delegate a circuit over the channel")
    run_p.add_argument("--protocol", choices=("1", "2", "tp"), required=True)
    run_p.add_argument("--circuit", required=True, help="circuit file path")
    run_p.add_argument("--loss", type=float, default=0.0)
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--adversary", choices=("honest", "loss-device"),
                       default="honest")
    run_p.add_argument("--countermeasure", action="store_true")
    run_p.add_argument("--outdir", default=".")

    verify_p = sub.add_parser("verify", help="run invariant check suites")
    verify_p.add_argument("--checks", default=",".join(DEFAULT_CHECKS))
    verify_p.add_argument("--seed", type=int, default=0)
    verify_p.add_argument("--outdir", default=".")

    cal_p = sub.add_parser("calibrate", help="print the resource unit cell")
    cal_p.add_argument("--outdir", default=".")

    attack_p = sub.add_parser("attack", help="loss side channel measurements")
    attack_p.add_argument("--trials", type=int, default=2000)
    attack_p.add_argument("--loss", type=float, default=0.0)
    attack_p.add_argument("--seed", type=int, default=0)
    attack_p.add_argument("--outdir", default=".")
    return parser, sub.choices


def parse_config(argv) -> argparse.Namespace:
    """The namespace of one parse of `argv`, by argv[0]'s own parser when it
    names a command; `checks` a tuple, the seed from BLINDDELEGATE_SEED if set."""
    parser, commands = _parser()
    sub = commands.get(argv[0]) if argv else None
    config, rest = (sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
                    if sub else parser.parse_known_args(argv))
    if rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    if config.command == "verify":
        config.checks = tuple(c.strip() for c in config.checks.split(",") if c.strip())
        if not config.checks:
            raise ConfigError("--checks names no check")
        if unknown := set(config.checks) - set(DEFAULT_CHECKS):
            raise ConfigError(f"unknown checks: {sorted(unknown)}")
    if os.environ.get(ENV_SEED):
        try:
            config.seed = int(os.environ[ENV_SEED])
        except ValueError as exc:
            raise ConfigError(f"{ENV_SEED} must be an integer") from exc
    if getattr(config, "seed", 0) < 0:
        raise ConfigError(f"{ENV_SEED if os.environ.get(ENV_SEED) else '--seed'} must be >= 0")
    if config.command in ("run", "attack") and not 0.0 <= config.loss <= 1.0:
        raise ConfigError("loss must lie in [0, 1]")
    if config.command == "run" and config.protocol != "2" and (
            config.adversary != "honest" or config.countermeasure):
        # Only protocol 2's deliveries consult a measuring device.
        raise ConfigError("--adversary and --countermeasure apply to protocol 2 only")
    if config.command == "run" and config.protocol == "1" and config.loss:
        # Protocol 1's deliveries are modelled lossless; tp is its lossy form.
        raise ConfigError("--loss applies to protocols 2 and tp only")
    return config


def _write(path, text):
    """Write `text.encode()` to `path` through a buffered binary file: the
    bytes, inode and new-file mode of `open(path, "w")` in a UTF-8 locale,
    nothing fsynced. An existing file is rewritten in place and cut to the new
    length, never truncated to zero: on ext4 (auto_da_alloc, the default) that
    starts writeback on close, tens of microseconds per small artifact. A crash
    mid-write can leave old bytes after the new ones, where "w" would leave it
    empty or short. Artifacts are regenerable from their seed."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(text.encode())
        fh.truncate()


def _text(lines):
    return "\n".join(lines) + "\n"


def _run(config):
    with open(config.circuit) as fh:
        gates = protocols.parse_circuit(fh.read())
    channel = protocols.ChannelModel(config.loss, rng_seed=config.seed)
    rng = np.random.default_rng([config.seed, 0])

    if config.protocol == "2":
        program = protocols.compile_circuit(gates)
        input_state = qsim.basis_state(program.num_wires, 0)
        device = adversaries.EvilDevice() if config.adversary == "loss-device" else None
        result = protocols.run_protocol2(
            program, input_state, channel, rng, device=device,
            loss_masking=config.countermeasure,
        )
        expected = input_state.amplitudes[None]  # a stack of one, for apply_stack
        for gate in gates:
            expected = qsim.apply_stack(expected, qsim.GATES[gate.name], gate.wires)
        ok = qsim.matrices_equal_up_to_phase(protocols.correct_output(result).amplitudes,
                                             expected[0])
        frames = ",".join(f"w{w}:{f!r}" for w, f in enumerate(result.final_frames))
        tail = [f"frames={frames}", f"output_match={'true' if ok else 'false'}"]
    else:
        plan = protocols.circuit_to_chain(gates)
        resource = graphs.build_graph_state(graphs.linear_cluster(len(plan) + 1))
        if config.protocol == "1":
            result = protocols.run_protocol1(resource, plan, rng=rng)
        else:
            result = protocols.run_teleport_variant(resource, plan, channel, rng=rng)
        ok, tail = True, [f"outcome={result.outcome_bits[0]}",
                          f"frames=w0:{result.final_frames[0]!r}"]

    header, _, body = protocols.format_transcript(
        config.protocol, config.seed, config.loss, result.transcript).partition("\n")
    # The header names each attack option that is set; a default run's is plain.
    if config.adversary != "honest":
        header += f" adversary={config.adversary}"
    if config.countermeasure:
        header += " countermeasure=on"
    transcript = f"{header}\n{body}"
    lines = [header,
             f"rounds={result.rounds_completed} "
             f"retransmissions={result.retransmission_count}", *tail]
    return [("transcript.txt", transcript), ("report.txt", _text(lines))], ok


def _verify(config):
    lines = []
    if "identities" in config.checks:
        for name, ok in pauli.verify_all_identities():
            lines.append(f"check=identities case={name} pass={'true' if ok else 'false'}")
    if "unitcell" in config.checks:
        cal = graphs.calibrate_unit_cell()
        for name in sorted(cal.entries):
            entry = cal.entries[name]
            i, j = entry.bridge if entry.bridge is not None else ("-", "-")
            ok = graphs.branch_frames(entry.wire0, entry.wire1, entry.bridge,
                                      entry.target) == entry.frames
            lines.append(
                f"check=unitcell op={name} bridge={i},{j} pass={'true' if ok else 'false'}"
            )
    if "stabilizers" in config.checks:
        for label, graph in (
            ("chain5", graphs.linear_cluster(5)),
            ("unitcell", graphs.tile(1, 1)),
            ("tile1x2", graphs.tile(1, 2)),
        ):
            resource = graphs.build_graph_state(graph)
            worst = min(
                graphs.stabilizer_expectation(resource, v)
                for v in range(graph.num_vertices)
            )
            ok = worst > 1.0 - 1e-12
            lines.append(
                f"check=stabilizers graph={label} min_expect={worst:.12g} "
                f"pass={'true' if ok else 'false'}"
            )
    if "blindness" in config.checks:
        rng = np.random.default_rng([config.seed, 11])
        report1 = blindness.certify_B1_B2(
            1, [(0, 2, 7), (1, 4, 2), (7, 7, 0)], n_povms=2, rng=rng
        )
        lines.extend(report1.render().splitlines())
        report2 = blindness.certify_B1_B2(
            2, [[protocols.Gate("H", (0,))], [protocols.Gate("T", (0,))]],
            n_povms=2, rng=rng,
        )
        lines.extend(report2.render().splitlines())

    return [("report.txt", _text(lines))], all("pass=false" not in ln for ln in lines)


def _format_schedule(schedule) -> str:
    base = ",".join(str(k) for k in schedule.base)
    if schedule.adapt3 is not None:
        return f"{base} adapt3={schedule.adapt3[0]},{schedule.adapt3[1]}"
    return base


def _calibrate(config):
    cal = graphs.calibrate_unit_cell()
    lines = [f"calibration bridge={cal.bridge[0]},{cal.bridge[1]}"]
    for name in sorted(cal.entries):
        entry = cal.entries[name]
        parts = [f"op={name}", f"wire0={_format_schedule(entry.wire0)}"]
        if entry.wire1 is not None:
            parts.append(f"wire1={_format_schedule(entry.wire1)}")
        if entry.bridge is not None:
            parts.append(f"bridge={entry.bridge[0]},{entry.bridge[1]}")
        lines.append(" ".join(parts))
    return [("calibration.txt", _text(lines))], True


def _attack(config):
    lines = []
    for k in range(8):
        program = adversaries.make_signal_program(k)
        channel = protocols.ChannelModel(config.loss, rng_seed=config.seed + k)
        rng = np.random.default_rng([config.seed, 0, k])
        guess, _, success = adversaries.run_with_evil_device(
            program, False, channel, rng
        )
        lines.append(
            f"attack digit={k} guess={guess} success={'true' if success else 'false'}"
        )
    for masked, label in ((False, "off"), (True, "on")):
        bits = adversaries.estimate_mutual_information(adversaries.collect_attack_samples(
            config.trials, masked, config.loss, config.seed))
        lines.append(f"mi countermeasure={label} bits={bits:.12g}")
    return [("attack.txt", _text(lines))], True


def main(argv=None) -> int:
    # Each handler returns ([(artifact name, text), ...], ok) in write order,
    # the report last; the artifacts are written here, the report is also
    # printed, and a false ok exits 1.
    handlers = {"run": _run, "verify": _verify, "calibrate": _calibrate,
                "attack": _attack}
    try:
        config = parse_config(sys.argv[1:] if argv is None else argv)
        artifacts, ok = handlers[config.command](config)
        if not os.path.isdir(config.outdir):
            os.makedirs(config.outdir, exist_ok=True)
        for name, text in artifacts:
            _write(os.path.join(config.outdir, name), text)
        sys.stdout.write(artifacts[-1][1])
        return 0 if ok else 1
    except RetryLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (BlindDelegateError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
