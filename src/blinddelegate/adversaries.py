"""Dishonest servers, a leaking measurement device, and the countermeasure.

The side channel: the client's loss reports are the one message stream a
compromised measurement device can steer. A device that withholds clicks can
spell out a captured command digit in unary through resend counts. The
countermeasure accepts an arrived particle on a fair coin alone: the device
is never asked for a click, so the reports carry no digit, at the price of
extra deliveries. The model thus also ignores a genuine no-click; modelling
the click as the client's evidence of arrival is an open item (ROADMAP
item 2).

The device sees only command angles and answers click or no-click, so
attacked runs and the overhead sweep hold no register: the honest rounds
are fair coins (protocols.run_protocol2 with no input state).
"""

from __future__ import annotations

import functools
import math
from collections import Counter

import numpy as np

from . import protocols
from .qsim import DensityMatrix


class EvilDevice:
    """Captures the first command digit, then fakes that many no-clicks.

    The faked losses start with the next delivery, so the digit shows up as
    the resend count of the round after the capture.
    """

    def __init__(self):
        self.captured = None
        self._fakes_left = 0

    def observe_angle(self, k: int):
        if self.captured is None:
            self.captured = k % 8
            self._fakes_left = self.captured

    def claim_no_click(self) -> bool:
        if self._fakes_left > 0:
            self._fakes_left -= 1
            return True
        return False


def random_mixed_state(num_qubits: int, rng) -> DensityMatrix:
    dim = 2**num_qubits
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


@functools.cache
def make_signal_program(first_digit: int, extra_rounds: int = 1):
    """A round sequence whose first command digit is the secret under attack,
    built once per argument: a run only reads its program, so callers share
    it and must not change it."""
    return protocols.make_raw_program([first_digit % 8] + [0] * extra_rounds)


def decode_digit_from_transcript(transcript) -> int:
    """Max-likelihood guess from the resend count of the post-capture round:
    r faked + geometric real losses is most likely explained by digit = r."""
    return _resend_counts(transcript, [2], 7)[0]


def run_with_evil_device(program, countermeasure: bool,
                         channel: protocols.ChannelModel, rng):
    """Returns (server_guess, transcript, success) for one attacked run."""
    result = protocols.run_protocol2(
        program, None, channel, rng, device=EvilDevice(), loss_masking=countermeasure,
    )
    guess = decode_digit_from_transcript(result.transcript)
    secret = program.rounds[0].wants[0].k
    return guess, result.transcript, guess == secret


# --------------------------------------------------------------------------
# Side-channel capacity measurement
# --------------------------------------------------------------------------


def _resend_counts(transcript, round_indices, cap: int):
    counts = {}
    for m in transcript:
        if m.kind == "LOST_RESEND":
            counts[m.round] = counts.get(m.round, 0) + 1
    return tuple(min(counts.get(r, 0), cap) for r in round_indices)


def collect_attack_samples(n_trials: int, countermeasure: bool,
                           loss_prob: float, seed: int = 0):
    """(secret digit, post-capture resend counts) pairs over fresh runs."""
    secret_rng = np.random.default_rng([seed, 3])
    samples = []
    for t in range(n_trials):
        k = int(secret_rng.integers(8))
        program = make_signal_program(k)
        channel = protocols.ChannelModel(loss_prob, rng_seed=(seed << 24) + 7 + t)
        rng = np.random.default_rng([seed, 0, t])
        _, transcript, _ = run_with_evil_device(program, countermeasure, channel, rng)
        stat = _resend_counts(transcript, range(2, program.num_rounds + 1), cap=8)
        samples.append((k, stat))
    return samples


def _entropy_mm(counts, n: int) -> float:
    # Plug-in entropy with the Miller-Madow bias correction.
    h = 0.0
    for c in counts.values():
        p = c / n
        h -= p * math.log2(p)
    support = len(counts)
    return h + (support - 1) / (2.0 * n * math.log(2.0))


def estimate_mutual_information(samples) -> float:
    """Bias-corrected plug-in mutual information (bits) of (x, y) samples."""
    n = len(samples)
    if n < 100:
        raise ValueError("need at least 100 samples for a stable estimate")
    cx = Counter(x for x, _ in samples)
    cy = Counter(y for _, y in samples)
    cxy = Counter(samples)
    return _entropy_mm(cx, n) + _entropy_mm(cy, n) - _entropy_mm(cxy, n)


def countermeasure_overhead(n_trials: int = 200, loss_prob: float = 0.0,
                            seed: int = 0):
    """Mean deliveries per accepted particle, (masked, unmasked)."""
    def mean_deliveries(masked: bool) -> float:
        total_rounds = 0
        total_sends = 0
        for t in range(n_trials):
            program = make_signal_program(0)
            channel = protocols.ChannelModel(loss_prob, rng_seed=(seed << 20) + t)
            rng = np.random.default_rng([seed, 1, t])
            result = protocols.run_protocol2(
                program, None, channel, rng=rng, loss_masking=masked,
            )
            total_rounds += result.rounds_completed
            total_sends += result.rounds_completed + result.retransmission_count
        return total_sends / total_rounds

    return mean_deliveries(True), mean_deliveries(False)
