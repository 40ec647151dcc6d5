"""Candidate enumeration: Algorithm 1, lazy variant, Algorithm 2, HMM."""

from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CandidateMatrix,
    PlaintextHmm,
    algorithm1,
    algorithm2,
    lazy_candidates,
)
from repro.errors import CandidateError


class TestAlgorithm1:
    def test_scores_non_increasing(self, rng):
        lam = rng.normal(size=(5, 256))
        _, scores = algorithm1(lam, 200)
        assert np.all(np.diff(scores) <= 1e-12)

    def test_no_duplicate_candidates(self, rng):
        lam = rng.normal(size=(3, 256))
        cands, _ = algorithm1(lam, 500)
        assert len(set(cands)) == len(cands)

    def test_top_candidate_is_argmax(self, rng):
        lam = rng.normal(size=(6, 256))
        cands, _ = algorithm1(lam, 1)
        expected = bytes(int(v) for v in lam.argmax(axis=1))
        assert cands[0] == expected

    def test_scores_match_sum_of_loglik(self, rng):
        lam = rng.normal(size=(4, 256))
        cands, scores = algorithm1(lam, 64)
        for cand, score in zip(cands, scores):
            manual = sum(lam[r, b] for r, b in enumerate(cand))
            assert score == pytest.approx(manual)

    def test_exhaustive_small_space(self, rng):
        """Against brute force on a single position (256 candidates)."""
        lam = rng.normal(size=(1, 256))
        cands, scores = algorithm1(lam, 256)
        expected = sorted(range(256), key=lambda mu: -lam[0, mu])
        assert [c[0] for c in cands] == expected

    def test_space_smaller_than_n(self, rng):
        lam = rng.normal(size=(1, 256))
        cands, _ = algorithm1(lam, 10_000)
        assert len(cands) == 256

    def test_validation(self, rng):
        with pytest.raises(CandidateError):
            algorithm1(rng.normal(size=(3, 255)), 10)
        with pytest.raises(CandidateError):
            algorithm1(rng.normal(size=(3, 256)), 0)


class TestLazyEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31), length=st.integers(1, 5))
    def test_lazy_matches_algorithm1_scores(self, seed, length):
        lam = np.random.default_rng(seed).normal(size=(length, 256))
        n = 100
        _, scores = algorithm1(lam, n)
        lazy_scores = [s for _, s in islice(lazy_candidates(lam), n)]
        assert np.allclose(scores, lazy_scores)

    def test_lazy_candidates_unique(self, rng):
        lam = rng.normal(size=(3, 256))
        seen = [c for c, _ in islice(lazy_candidates(lam), 2000)]
        assert len(set(seen)) == len(seen)

    def test_lazy_streams_without_limit(self, rng):
        lam = rng.normal(size=(2, 256))
        gen = lazy_candidates(lam)
        first = next(gen)
        second = next(gen)
        assert first[1] >= second[1]


class TestAlgorithm2:
    def _hmm(self, rng, unknown, charset):
        lam = rng.normal(size=(unknown + 1, 256, 256))
        return PlaintextHmm(lam, first_byte=61, last_byte=59, charset=charset)

    def test_matches_brute_force_scores(self, rng):
        hmm = self._hmm(rng, unknown=3, charset=bytes([5, 9, 77, 200]))
        brute = hmm.brute_force(50)
        nbest = hmm.n_best(50)
        assert np.allclose(brute.log_likelihoods, nbest.log_likelihoods)

    def test_candidate_scores_are_path_likelihoods(self, rng):
        hmm = self._hmm(rng, unknown=4, charset=bytes([1, 2, 3, 4, 5]))
        nbest = hmm.n_best(25)
        for cand, score in nbest:
            assert hmm.sequence_log_likelihood(cand) == pytest.approx(score)

    def test_respects_charset(self, rng):
        charset = bytes([65, 66, 67])
        hmm = self._hmm(rng, unknown=4, charset=charset)
        for cand, _ in hmm.n_best(30):
            assert all(b in charset for b in cand)

    def test_scores_non_increasing(self, rng):
        hmm = self._hmm(rng, unknown=5, charset=bytes(range(40, 60)))
        nbest = hmm.n_best(200)
        assert np.all(np.diff(nbest.log_likelihoods) <= 1e-9)

    def test_no_duplicates(self, rng):
        hmm = self._hmm(rng, unknown=4, charset=bytes(range(30, 45)))
        nbest = hmm.n_best(500)
        assert len(set(nbest.plaintexts)) == len(nbest)

    def test_full_256_alphabet(self, rng):
        lam = rng.normal(size=(2, 256, 256))
        result = algorithm2(lam, 10, 20, 5)
        # One unknown byte: score = lam[0,10,mu] + lam[1,mu,20].
        combined = lam[0, 10, :] + lam[1, :, 20]
        expected = np.argsort(-combined)[:5]
        assert [c[0] for c in result.plaintexts] == list(expected)

    def test_rank_of(self, rng):
        hmm = self._hmm(rng, unknown=3, charset=bytes([7, 8, 9]))
        nbest = hmm.n_best(27)
        assert nbest.rank_of(nbest.plaintexts[13]) == 13
        assert nbest.rank_of(b"\x00\x00\x00") is None

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_property_brute_force_agreement(self, seed):
        rng = np.random.default_rng(seed)
        charset = bytes(sorted(rng.choice(256, size=4, replace=False)))
        lam = rng.normal(size=(4, 256, 256))
        hmm = PlaintextHmm(lam, first_byte=0, last_byte=255, charset=charset)
        brute = hmm.brute_force(30)
        nbest = hmm.n_best(30)
        assert np.allclose(brute.log_likelihoods, nbest.log_likelihoods)
        assert brute.plaintexts[0] == nbest.plaintexts[0]

    def test_validation(self, rng):
        with pytest.raises(CandidateError):
            algorithm2(rng.normal(size=(1, 256, 256)), 0, 0, 5)
        with pytest.raises(CandidateError):
            algorithm2(rng.normal(size=(3, 256, 256)), 0, 0, 0)
        with pytest.raises(CandidateError):
            algorithm2(rng.normal(size=(3, 256, 256)), 0, 0, 5, charset=b"")
        with pytest.raises(CandidateError):
            algorithm2(rng.normal(size=(3, 256, 255)), 0, 0, 5)

    @pytest.mark.parametrize(
        ("first", "last"), [(-1, 0), (256, 0), (0, -1), (0, 256)]
    )
    def test_known_bytes_must_be_bytes(self, rng, first, last):
        with pytest.raises(CandidateError, match="0..255"):
            algorithm2(rng.normal(size=(3, 256, 256)), first, last, 5)


class TestHmmModel:
    def test_viterbi_is_top_candidate(self, rng):
        lam = rng.normal(size=(4, 256, 256))
        hmm = PlaintextHmm(lam, 1, 2, charset=bytes(range(10)))
        best_seq, best_score = hmm.viterbi()
        nbest = hmm.n_best(3)
        assert best_seq == nbest.plaintexts[0]
        assert best_score == pytest.approx(float(nbest.log_likelihoods[0]))

    def test_brute_force_guard(self, rng):
        lam = rng.normal(size=(17, 256, 256))
        hmm = PlaintextHmm(lam, 0, 0, charset=bytes(range(64)))
        with pytest.raises(CandidateError):
            hmm.brute_force()

    @pytest.mark.parametrize("decode", ["n_best", "brute_force"])
    def test_empty_charset_rejected(self, rng, decode):
        # Only None means every byte value, as in algorithm2.
        lam = rng.normal(size=(3, 256, 256))
        with pytest.raises(CandidateError, match="charset must be non-empty"):
            getattr(PlaintextHmm(lam, 1, 2, charset=b""), decode)(5)

    def test_brute_force_is_a_candidate_matrix(self, rng):
        lam = rng.normal(size=(3, 256, 256))
        hmm = PlaintextHmm(lam, 1, 2, charset=b"zyx")
        brute = hmm.brute_force(4)
        assert isinstance(brute, CandidateMatrix)
        assert brute.matrix.shape == (4, 2)
        assert list(brute.plaintexts) == list(hmm.n_best(4).plaintexts)
        assert brute.rank_of(brute.plaintexts[3]) == 3

    def test_sequence_length_check(self, rng):
        lam = rng.normal(size=(3, 256, 256))
        hmm = PlaintextHmm(lam, 0, 0)
        with pytest.raises(CandidateError):
            hmm.sequence_log_likelihood(b"toolong")
