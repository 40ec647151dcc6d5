"""The TKIP attack pipeline: likelihoods, CRC pruning, Michael inversion.

``TestBackendsAgree`` runs the §5 pipeline under the numpy fallback and
the native backend at 1-3 threads and requires the same bits."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.config import ReproConfig
from repro.core import lazy_candidate_blocks
from repro.errors import AttackError, CandidateError
from repro.rc4 import _native
from repro.simulate import WifiAttackSimulation, sampled_capture
from repro.tkip import (
    decrypt_mic_icv,
    default_tsc_space,
    generate_per_tsc,
    payload_choice_report,
    position_log_likelihoods,
)
from repro.tkip.attack import biased_position_strength
from repro.tkip.crc import icv as compute_icv
from repro.tkip.injection import CaptureSet
from repro.tkip.per_tsc import PerTscDistributions


@pytest.fixture(scope="module")
def sim_setup():
    """One simulation + per-TSC distributions shared across this module."""
    config = ReproConfig(seed=77)
    sim = WifiAttackSimulation(config)
    plaintext = sim.true_plaintext
    per_tsc = generate_per_tsc(
        config,
        default_tsc_space(8),
        keys_per_tsc=1 << 13,
        length=len(plaintext),
    )
    return config, sim, plaintext, per_tsc


class TestPositionLikelihoods:
    def test_shapes(self, sim_setup):
        config, sim, plaintext, per_tsc = sim_setup
        capture = sampled_capture(
            per_tsc,
            plaintext,
            range(1, len(plaintext) + 1),
            packets_per_tsc=256,
            seed=config.rng("t1"),
        )
        loglik = position_log_likelihoods(capture, per_tsc, [56, 57, 58])
        assert loglik.shape == (3, 256)

    @staticmethod
    def _scratch_peak(num_tsc: int) -> int:
        """Peak bytes allocated by one call over ``num_tsc`` TSC values of
        a 20-byte capture with 12 unknown positions."""
        rng = np.random.default_rng(num_tsc)
        tscs = list(range(num_tsc))
        capture = CaptureSet(positions=range(1, 21), plaintext_len=20)
        for tsc in tscs:
            capture.counts[tsc] = rng.integers(0, 64, (20, 256))
        dists = rng.random((num_tsc, 20, 256)) + 0.5
        per_tsc = PerTscDistributions(
            tscs, dists / dists.sum(axis=2, keepdims=True)
        )
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            position_log_likelihoods(capture, per_tsc, list(range(9, 21)))
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    def test_scratch_does_not_grow_with_tsc_count(self, engine_threads):
        """One primitive call per TSC: scratch is a few copies of one
        TSC's (12, 256) rows, neither all TSC values' rows stacked (6 MiB
        at 256) nor a (256, 256) XOR gather per row (512 KiB)."""
        self._scratch_peak(8)  # first-call set-up is not scratch
        few, many = self._scratch_peak(8), self._scratch_peak(256)
        assert many <= few + (4 << 10), (few, many)
        assert many < 512 << 10

    def test_uncovered_position_rejected(self, sim_setup):
        config, sim, plaintext, per_tsc = sim_setup
        capture = sampled_capture(
            per_tsc, plaintext, range(1, 10), packets_per_tsc=16,
            seed=config.rng("t2"),
        )
        with pytest.raises(AttackError):
            position_log_likelihoods(capture, per_tsc, [50])


class TestEndToEnd:
    def test_full_attack_recovers_mic_key(self, sim_setup):
        config, sim, plaintext, per_tsc = sim_setup
        capture = sampled_capture(
            per_tsc,
            plaintext,
            range(1, len(plaintext) + 1),
            packets_per_tsc=1 << 12,
            seed=config.rng("t3"),
        )
        result = sim.attack(capture, per_tsc, max_candidates=1 << 18)
        assert result.correct
        assert result.mic_key == sim.victim.mic_key

    def test_more_data_shallower_rank(self, sim_setup):
        """Fig 9's monotonicity: the first CRC-valid candidate sits
        earlier in the list as ciphertexts accumulate."""
        config, sim, plaintext, per_tsc = sim_setup
        ranks = []
        for packets in (1 << 8, 1 << 12):
            capture = sampled_capture(
                per_tsc,
                plaintext,
                range(1, len(plaintext) + 1),
                packets_per_tsc=packets,
                seed=config.rng("t4", packets),
            )
            try:
                result = sim.attack(capture, per_tsc, max_candidates=1 << 17)
                ranks.append(result.candidates_tried)
            except AttackError:
                ranks.append(1 << 17)
        assert ranks[1] <= ranks[0]

    def test_budget_exhaustion_raises(self, sim_setup):
        config, sim, plaintext, per_tsc = sim_setup
        capture = sampled_capture(
            per_tsc,
            plaintext,
            range(1, len(plaintext) + 1),
            packets_per_tsc=4,  # hopeless statistics
            seed=config.rng("t5"),
        )
        with pytest.raises(AttackError):
            sim.attack(capture, per_tsc, max_candidates=8)

    def test_decrypt_mic_icv_finds_planted_candidate(self, rng):
        """With likelihoods that pin the exact MIC+ICV, the searcher must
        return it at rank 1 and flag correctness."""
        known = rng.integers(0, 256, 55, dtype=np.uint8).tobytes()
        mic = rng.integers(0, 256, 8, dtype=np.uint8).tobytes()
        icv_bytes = compute_icv(known + mic)
        truth = mic + icv_bytes
        loglik = np.full((12, 256), -10.0)
        for row, byte in enumerate(truth):
            loglik[row, byte] = 0.0
        result = decrypt_mic_icv(
            loglik, known, max_candidates=4, true_mic=mic
        )
        assert result.correct
        assert result.candidates_tried == 1
        assert result.icv == icv_bytes

    def test_crc_pruning_skips_bad_candidates(self, rng):
        """Make the wrong candidate more likely; CRC must reject it and
        the searcher must keep walking to the planted valid one."""
        known = b"\x00" * 55
        mic = b"\x11" * 8
        icv_bytes = compute_icv(known + mic)
        truth = mic + icv_bytes
        loglik = np.full((12, 256), -10.0)
        for row, byte in enumerate(truth):
            loglik[row, byte] = -0.5
        # A decoy (higher likelihood) that cannot satisfy the CRC.
        decoy = bytes([0x22] * 8) + b"\xde\xad\xbe\xef"
        if compute_icv(known + decoy[:8]) != decoy[8:]:
            for row, byte in enumerate(decoy):
                loglik[row, byte] = 0.0
        result = decrypt_mic_icv(loglik, known, max_candidates=1 << 12)
        assert result.mic == mic
        assert result.candidates_tried > 1


class TestPayloadChoice:
    def test_strength_profile_shape(self, sim_setup):
        _, _, plaintext, per_tsc = sim_setup
        strength = biased_position_strength(per_tsc)
        assert strength.shape == (len(plaintext),)
        assert np.all(strength >= 0)

    def test_report_covers_both_payload_lengths(self, sim_setup):
        _, _, _, per_tsc = sim_setup
        report = payload_choice_report(per_tsc)
        assert set(report) == {0, 7}
        assert all(v >= 0 for v in report.values())


class TestForgery:
    def test_recovered_key_enables_injection(self, sim_setup):
        config, sim, plaintext, per_tsc = sim_setup
        capture = sampled_capture(
            per_tsc,
            plaintext,
            range(1, len(plaintext) + 1),
            packets_per_tsc=1 << 12,
            seed=config.rng("t6"),
        )
        result = sim.attack(capture, per_tsc, max_candidates=1 << 18)
        frame = sim.forge_frame(result.mic_key, b"injected payload")
        # The victim's own receiving session must accept the forgery.
        from repro.tkip import TkipSession

        receiver = TkipSession(
            tk=sim.victim.tk, mic_key=sim.victim.mic_key, ta=sim.victim.ta
        )
        receiver.replay_window = frame.tsc - 1
        data = receiver.decapsulate(frame)
        assert b"injected payload" in data


def _planted(rng, decoy: bool):
    """Likelihoods pinning a CRC-valid (MIC, ICV) under known data; with
    ``decoy``, a likelier candidate that fails the CRC sits above it."""
    known = rng.integers(0, 256, 55, dtype=np.uint8).tobytes()
    mic = rng.integers(0, 256, 8, dtype=np.uint8).tobytes()
    truth = mic + compute_icv(known + mic)
    loglik = np.full((12, 256), -10.0)
    for row, byte in enumerate(truth):
        loglik[row, byte] = -0.5 if decoy else 0.0
    if decoy:
        for row in range(12):
            loglik[row, truth[row] ^ 0x5A] = 0.0
    return loglik, known, mic


#: The §5 pipeline's shape: 8 TSC values with 2^13 keys each for the
#: per-TSC tables, 2^12 captured packets per TSC and a 2^14-candidate walk
#: (which the capture is far too small to pass, so it spends its budget).
_PIPELINE_BUDGET = 1 << 14


def _pipeline(config: ReproConfig):
    """Per-TSC tables -> batched capture -> likelihoods -> CRC walk.

    Returns the likelihoods, a digest of the walk's rows and score bits
    over the budget, and the outcome: the hit or the exhausted budget.
    """
    sim = WifiAttackSimulation(config)
    tscs = default_tsc_space(8)
    per_tsc = generate_per_tsc(config, tscs, 1 << 13, len(sim.true_plaintext))
    capture = sim.batched_capture(tscs, 1 << 12)
    known = sim.spec.msdu_data()
    loglik = position_log_likelihoods(
        capture, per_tsc, list(range(len(known) + 1, len(known) + 13))
    )
    walked = hashlib.sha256()
    seen = 0
    for rows, scores in lazy_candidate_blocks(loglik):
        walked.update(rows.tobytes())
        walked.update(scores.tobytes())
        seen += rows.shape[0]
        if seen >= _PIPELINE_BUDGET:
            break
    try:
        result = decrypt_mic_icv(loglik, known, max_candidates=_PIPELINE_BUDGET)
        outcome = ("hit", result.candidates_tried, result.mic, result.icv)
    except AttackError as exc:
        outcome = ("exhausted", str(exc))
    return loglik, walked.hexdigest(), outcome


@pytest.fixture(scope="module")
def numpy_pipeline():
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_native, "available", lambda: False)
        return _pipeline(ReproConfig(seed=77))


class TestBackendsAgree:
    """The numpy fallback and the native kernels (the threaded per-TSC
    counting and keystream, the single-threaded walk) give one result."""

    def test_pipeline(self, engine_threads, numpy_pipeline):
        config = ReproConfig(seed=77, native_threads=engine_threads)
        loglik, walked, outcome = _pipeline(config)
        ref_loglik, ref_walked, ref_outcome = numpy_pipeline
        np.testing.assert_array_equal(
            loglik.view(np.int64), ref_loglik.view(np.int64)
        )
        assert walked == ref_walked
        assert outcome == ref_outcome
        assert outcome == (
            "exhausted",
            f"no CRC-valid candidate within {_PIPELINE_BUDGET} candidates",
        )

    def test_hit_below_a_decoy(self, engine_threads):
        loglik, known, mic = _planted(np.random.default_rng(5), decoy=True)
        result = decrypt_mic_icv(loglik, known, max_candidates=1 << 13)
        assert result.mic == mic
        # The 2^12 candidates mixing decoy and true bytes come first; only
        # the all-true one passes the CRC.
        assert result.candidates_tried == 1 << 12

    @pytest.mark.parametrize("budget", [-5, 0])
    def test_budget_below_one_rejected(self, engine_threads, budget):
        loglik, known, _ = _planted(np.random.default_rng(6), decoy=False)
        with pytest.raises(AttackError, match="max_candidates must be >= 1"):
            decrypt_mic_icv(loglik, known, max_candidates=budget)

    def test_budget_of_one(self, engine_threads):
        loglik, known, mic = _planted(np.random.default_rng(6), decoy=False)
        result = decrypt_mic_icv(loglik, known, max_candidates=1, true_mic=mic)
        assert result.correct and result.candidates_tried == 1
        loglik, known, _ = _planted(np.random.default_rng(6), decoy=True)
        with pytest.raises(AttackError, match="within 1 candidates"):
            decrypt_mic_icv(loglik, known, max_candidates=1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nan_and_plus_inf_rejected(self, engine_threads, bad):
        loglik, known, _ = _planted(np.random.default_rng(7), decoy=False)
        loglik[9, 0x10] = bad
        with pytest.raises(CandidateError, match="NaN or \\+inf"):
            decrypt_mic_icv(loglik, known, max_candidates=16)
