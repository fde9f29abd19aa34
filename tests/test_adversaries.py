from collections import Counter

import numpy as np
import pytest
from numpy.random import default_rng

from blinddelegate import adversaries, blindness, protocols, qsim
from blinddelegate.adversaries import EvilDevice


def test_evil_device_captures_only_first_angle():
    device = EvilDevice()
    device.observe_angle(3)
    device.observe_angle(5)
    assert device.captured == 3
    claims = [device.claim_no_click() for _ in range(5)]
    assert claims == [True, True, True, False, False]


def test_random_mixed_state_is_valid():
    rho = adversaries.random_mixed_state(2, default_rng(1))
    m = rho.entries
    assert m.shape == (4, 4)
    np.testing.assert_allclose(m, m.conj().T, atol=1e-12)
    assert np.trace(m).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(m).min() > -1e-12


def test_signal_program_shape():
    program = adversaries.make_signal_program(5, extra_rounds=2)
    assert program.num_rounds == 3
    assert program.rounds[0].wants == (qsim.Angle(5), qsim.Angle(5))
    assert all(p.wants == (qsim.Angle(0), qsim.Angle(0)) for p in program.rounds[1:])
    assert all(p.driver is None for p in program.rounds)


def test_digit_recovered_for_every_secret_without_countermeasure():
    for k in range(8):
        program = adversaries.make_signal_program(k)
        guess, transcript, ok = adversaries.run_with_evil_device(
            program, False, protocols.ChannelModel(0.0, rng_seed=k), default_rng([0, k])
        )
        assert ok and guess == k


def test_countermeasure_blocks_the_unary_channel():
    hits = 0
    for k in range(8):
        program = adversaries.make_signal_program(k)
        guess, transcript, ok = adversaries.run_with_evil_device(
            program, True, protocols.ChannelModel(0.0, rng_seed=100 + k),
            default_rng([1, k]),
        )
        hits += int(ok)
    # masked resend counts are geometric noise, uncorrelated with the digit
    assert hits <= 3


def test_decoder_reads_second_round_resends():
    transcript = [
        protocols.Message(1, "B2A", "QUBIT_SENT"),
        protocols.Message(1, "A2B", "ARRIVED"),
        protocols.Message(2, "B2A", "QUBIT_SENT"),
        protocols.Message(2, "A2B", "LOST_RESEND"),
        protocols.Message(2, "B2A", "QUBIT_SENT"),
        protocols.Message(2, "A2B", "LOST_RESEND"),
        protocols.Message(2, "B2A", "QUBIT_SENT"),
        protocols.Message(2, "A2B", "ARRIVED"),
    ]
    assert adversaries.decode_digit_from_transcript(transcript) == 2


def test_attack_degrades_gracefully_through_real_loss():
    # genuine losses can only add to the faked count, so the guess never
    # undershoots; it is exact whenever round 2 sees no real loss
    hits = 0
    for k in range(8):
        program = adversaries.make_signal_program(k)
        guess, _, ok = adversaries.run_with_evil_device(
            program, False, protocols.ChannelModel(0.2, rng_seed=40 + k),
            default_rng([2, k]),
        )
        assert guess >= k
        hits += int(ok)
    assert hits >= 3


def test_substituted_state_view_is_angle_independent():
    rng = default_rng(9)
    rho = adversaries.random_mixed_state(3, rng)
    views = [
        blindness.protocol1_views(rho, [0, 1], [angles])[0]
        for angles in ([0, 0], [2, 6], [7, 3])
    ]
    for v in views[1:]:
        np.testing.assert_allclose(
            v.entries, views[0].entries, atol=1e-12
        )


def test_mutual_information_estimator():
    with pytest.raises(ValueError):
        adversaries.estimate_mutual_information([(0, 0)] * 99)
    # constant y carries zero information and the correction cancels exactly
    samples = [(i % 8, 0) for i in range(400)]
    assert adversaries.estimate_mutual_information(samples) == pytest.approx(0.0, abs=1e-12)
    # y == x is maximally informative: MI -> H(x) = 2 bits for 4 symbols
    samples = [(i % 4, i % 4) for i in range(400)]
    assert adversaries.estimate_mutual_information(samples) == pytest.approx(2.0, abs=0.05)


def test_attack_mutual_information_contrast():
    leaky = adversaries.estimate_mutual_information(
        adversaries.collect_attack_samples(600, False, 0.0, seed=5))
    masked = adversaries.estimate_mutual_information(
        adversaries.collect_attack_samples(600, True, 0.0, seed=5))
    assert leaky > 2.5
    assert masked < 0.15


def test_countermeasure_overhead_at_zero_loss():
    masked, unmasked = adversaries.countermeasure_overhead(n_trials=60, seed=2)
    assert unmasked == pytest.approx(1.0, abs=1e-12)
    assert masked == pytest.approx(2.0, abs=0.25)


def _attacked_pass():
    """16 attacked runs: every digit, masking off and on."""
    for k in range(8):
        for masked in (False, True):
            adversaries.run_with_evil_device(
                adversaries.make_signal_program(k), masked,
                protocols.ChannelModel(0.0, rng_seed=k), default_rng([int(masked), k]),
            )


def test_repeated_attacked_runs_check_no_message_and_build_no_program(monkeypatch):
    # A second pass meets only message values and programs the first made.
    _attacked_pass()
    calls = Counter()
    new, add_round = protocols.Message.__new__, protocols._ProgramBuilder._add_round

    def counting_new(cls, *args):
        calls["Message.__new__"] += 1
        return new(cls, *args)

    def counting_add_round(self, *args):
        calls["_add_round"] += 1
        return add_round(self, *args)

    monkeypatch.setattr(protocols.Message, "__new__", staticmethod(counting_new))
    monkeypatch.setattr(protocols._ProgramBuilder, "_add_round", counting_add_round)
    _attacked_pass()
    assert calls == {}
    # The counters see what they count.
    protocols.Message(1, "A2B", "DONE")
    protocols.make_raw_program([0])
    assert calls == {"Message.__new__": 1, "_add_round": 1}


def test_shared_signal_programs_stay_unchanged_by_runs():
    for k in range(8):
        for masked in (False, True):
            adversaries.run_with_evil_device(
                adversaries.make_signal_program(k), masked,
                protocols.ChannelModel(0.3, rng_seed=k), default_rng([2, k]),
            )
    adversaries.countermeasure_overhead(20, 0.3)
    for masked in (False, True):
        adversaries.estimate_mutual_information(
            adversaries.collect_attack_samples(100, masked, 0.0, seed=1))
    for k in range(8):
        cached, fresh = adversaries.make_signal_program(k), protocols.make_raw_program([k, 0])
        assert cached is adversaries.make_signal_program(k)
        assert cached.rounds == fresh.rounds and cached.events == fresh.events
