"""Likelihood estimators: eqs 10-25 of the paper."""

import numpy as np
import pytest

from repro.biases import differential_distribution, fm_biased_cells
from repro.core import (
    absab_log_likelihoods,
    combine_likelihoods,
    differential_log_likelihoods,
    digraph_log_likelihoods,
    digraph_log_likelihoods_dense,
    single_byte_log_likelihoods,
)
from repro.core.likelihood.combine import normalize_log_likelihoods
from repro.core.likelihood.single import (
    single_byte_log_likelihoods_many,
    xor_log_likelihoods,
)
from repro.errors import LikelihoodError
from repro.rc4 import _native
from repro.simulate import (
    sample_absab_differential_counts,
    sample_digraph_counts,
    sample_single_byte_counts,
)


def _biased_single(peak_value: int, strength: float = 0.02) -> np.ndarray:
    dist = np.full(256, 1 / 256)
    dist[peak_value] *= 1.0 + strength
    return dist / dist.sum()


class TestSingleByte:
    def test_recovers_plaintext_byte(self, rng):
        dist = _biased_single(0, strength=1.0)  # Mantin-Shamir strength
        counts = sample_single_byte_counts(dist, 1 << 14, 0x42, seed=rng)
        lam = single_byte_log_likelihoods(counts, dist)
        assert int(lam.argmax()) == 0x42

    def test_direct_formula_equivalence(self, rng):
        """loglik[mu] must equal sum_c N_c log p_{c xor mu} verbatim."""
        dist = _biased_single(7)
        counts = rng.integers(0, 50, size=256).astype(np.float64)
        lam = single_byte_log_likelihoods(counts, dist)
        logp = np.log(dist)
        for mu in (0, 1, 77, 255):
            manual = sum(counts[c] * logp[c ^ mu] for c in range(256))
            assert lam[mu] == pytest.approx(manual)

    def test_uniform_distribution_gives_flat_likelihood(self, rng):
        counts = rng.integers(0, 50, size=256).astype(np.float64)
        lam = single_byte_log_likelihoods(counts, np.full(256, 1 / 256))
        assert np.allclose(lam, lam[0])

    def test_vectorised_many_positions(self, rng):
        dists = np.stack([_biased_single(3), _biased_single(250)])
        counts = np.stack(
            [
                sample_single_byte_counts(dists[0], 4096, 10, seed=rng),
                sample_single_byte_counts(dists[1], 4096, 20, seed=rng),
            ]
        )
        lam = single_byte_log_likelihoods_many(counts, dists)
        assert lam.shape == (2, 256)
        for r in range(2):
            assert np.allclose(
                lam[r], single_byte_log_likelihoods(counts[r], dists[r])
            )

    def test_validation(self):
        with pytest.raises(LikelihoodError):
            single_byte_log_likelihoods(np.zeros(255), np.full(256, 1 / 256))
        with pytest.raises(LikelihoodError):
            single_byte_log_likelihoods(np.zeros(256), np.zeros(256))


def _log_dists(rng, rows: int) -> np.ndarray:
    dists = rng.random((rows, 256)) + 0.05
    return np.log(dists / dists.sum(axis=1, keepdims=True))


def _left_to_right(counts: np.ndarray, log_p: np.ndarray) -> np.ndarray:
    """The primitive's summation order in plain Python floats."""
    out = np.empty(counts.shape)
    for r in range(counts.shape[0]):
        n, lp = counts[r].tolist(), log_p[r].tolist()
        for mu in range(256):
            acc = 0.0
            for c in range(256):
                acc = acc + n[c] * lp[mu ^ c]
            out[r, mu] = acc
    return out


class TestXorLogLikelihoods:
    """The one primitive behind every single-byte likelihood (and the §5
    per-TSC sums): the native kernel and the numpy fallback add each
    cell's 256 terms in the same order, so they agree bit for bit."""

    @staticmethod
    def _both(counts, log_p, monkeypatch) -> np.ndarray:
        if not _native.available():
            pytest.skip("native backend unavailable (no C compiler?)")
        native = xor_log_likelihoods(counts, log_p)
        with monkeypatch.context() as m:
            m.setattr(_native, "available", lambda: False)
            fallback = xor_log_likelihoods(counts, log_p)
        assert native.shape == fallback.shape == (counts.shape[0], 256)
        np.testing.assert_array_equal(
            native.view(np.int64), fallback.view(np.int64)
        )
        return native

    @pytest.mark.parametrize("backend", ["native", "numpy"])
    def test_left_to_right_reference(self, rng, monkeypatch, backend):
        counts = rng.integers(0, 1000, (2, 256)).astype(np.float64)
        counts[1] *= rng.random(256)
        log_p = _log_dists(rng, 2)
        if backend == "numpy":
            monkeypatch.setattr(_native, "available", lambda: False)
        elif not _native.available():
            pytest.skip("native backend unavailable (no C compiler?)")
        out = xor_log_likelihoods(counts, log_p)
        np.testing.assert_array_equal(
            out.view(np.int64), _left_to_right(counts, log_p).view(np.int64)
        )

    def test_zero_count_rows(self, rng, monkeypatch):
        counts = rng.integers(0, 50, (5, 256)).astype(np.float64)
        counts[[0, 3]] = 0.0
        out = self._both(counts, _log_dists(rng, 5), monkeypatch)
        # 0 * log p is -0.0, and 0.0 + -0.0 is +0.0 in every cell.
        assert not out[[0, 3]].view(np.int64).any()

    @pytest.mark.parametrize("rows", [1, 3072])
    def test_row_counts(self, rng, monkeypatch, rows):
        counts = rng.integers(0, 1 << 12, (rows, 256)).astype(np.float64)
        self._both(counts, _log_dists(rng, rows), monkeypatch)

    def test_large_and_fractional_counts(self, rng, monkeypatch):
        large = (1 << 40) + rng.integers(-(1 << 20), 1 << 20, (3, 256))
        fractional = rng.random((3, 256)) * 1e3
        counts = np.concatenate([large.astype(np.float64), fractional])
        self._both(counts, _log_dists(rng, 6), monkeypatch)

    def test_probabilities_near_1e_300(self, rng, monkeypatch):
        dists = rng.random((4, 256)) + 0.5
        dists[:, ::3] = 1e-300 * (1.0 + rng.random((4, 86)))
        dists /= dists.sum(axis=1, keepdims=True)
        counts = rng.integers(0, 1 << 16, (4, 256)).astype(np.float64)
        out = self._both(counts, np.log(dists), monkeypatch)
        assert np.isfinite(out).all()

    def test_non_contiguous_inputs(self, rng, monkeypatch):
        wide = rng.integers(0, 100, (6, 512)).astype(np.float64)
        log_p = np.asfortranarray(_log_dists(rng, 12)[::2])
        counts = wide[:, ::2]
        assert not counts.flags.c_contiguous
        assert not log_p.flags.c_contiguous
        out = self._both(counts, log_p, monkeypatch)
        np.testing.assert_array_equal(
            out,
            xor_log_likelihoods(
                np.ascontiguousarray(counts), np.ascontiguousarray(log_p)
            ),
        )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(LikelihoodError, match="matching"):
            xor_log_likelihoods(np.zeros((2, 256)), np.zeros((3, 256)))
        with pytest.raises(LikelihoodError, match="matching"):
            xor_log_likelihoods(np.zeros(256), np.zeros(256))


class TestDigraphSparse:
    def test_matches_dense_reference(self, rng):
        """The eq 15 optimisation must agree with eq 13 on the FM model."""
        from repro.biases import fm_digraph_distribution

        i = 5
        dist = fm_digraph_distribution(i)
        cells = fm_biased_cells(i)
        mass = sum(p for _, p in cells)
        uniform_p = (1.0 - mass) / (65536 - len(cells))
        counts = rng.integers(0, 6, size=(256, 256)).astype(np.float64)
        sparse = digraph_log_likelihoods(counts, cells, uniform_p)
        candidates = [(0, 0), (1, 255), (13, 200), (255, 255)]
        dense = digraph_log_likelihoods_dense(counts, dist, candidates=candidates)
        for mu_pair, value in dense.items():
            assert sparse[mu_pair] == pytest.approx(value, rel=1e-12)

    def test_recovers_plaintext_pair(self, rng):
        """Power analysis: one FM cell (q = 2^-7 at i = 1) reaches z ~ 4
        only around 2^33 samples — matching the paper's Fig 7 FM-only
        curve.  Poisson sampling keeps this O(cells)."""
        from repro.biases import fm_digraph_distribution

        i = 1  # strongest FM cell (0,0) at double strength
        dist = fm_digraph_distribution(i)
        truth = (ord("S"), ord("K"))
        counts = sample_digraph_counts(dist, 1 << 34, truth, seed=rng, method="poisson")
        cells = fm_biased_cells(i)
        mass = sum(p for _, p in cells)
        uniform_p = (1.0 - mass) / (65536 - len(cells))
        lam = digraph_log_likelihoods(counts.astype(np.float64), cells, uniform_p)
        rank = int((lam > lam[truth]).sum())
        assert rank < 32, rank

    def test_validation(self):
        with pytest.raises(LikelihoodError):
            digraph_log_likelihoods(np.zeros((256, 255)), [], 1e-5)
        with pytest.raises(LikelihoodError):
            digraph_log_likelihoods(np.zeros((256, 256)), [], 0.0)
        with pytest.raises(LikelihoodError):
            digraph_log_likelihoods(
                np.zeros((256, 256)), [((0, 0), 0.0)], 1e-5
            )


class TestAbsab:
    def test_differential_likelihood_monotone_in_count(self, rng):
        counts = sample_absab_differential_counts(4, 1 << 22, (9, 200), seed=rng)
        lam = differential_log_likelihoods(counts.astype(np.float64), 4)
        order_by_count = np.argsort(counts)
        order_by_lam = np.argsort(lam)
        assert np.array_equal(order_by_count, order_by_lam)

    def test_recovers_differential_then_plaintext(self, rng):
        """A single ABSAB alignment needs ~2^37 ciphertexts for a clean
        top-1 (the paper's Fig 7 ABSAB-only curve crosses 50% in the
        2^35..2^37 region)."""
        truth = (ord("a"), ord("b"))
        known = (ord("X"), ord("Y"))
        diff = (truth[0] ^ known[0], truth[1] ^ known[1])
        counts = sample_absab_differential_counts(
            0, 1 << 38, diff, seed=rng, method="poisson"
        )
        lam = absab_log_likelihoods(counts.astype(np.float64), 0, known)
        top = np.unravel_index(np.argmax(lam), lam.shape)
        assert top == truth

    def test_differential_model_normalised(self):
        dist = differential_distribution(12)
        assert dist.sum() == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(LikelihoodError):
            differential_log_likelihoods(np.zeros(100), 4)
        with pytest.raises(LikelihoodError):
            absab_log_likelihoods(np.zeros(65536), 4, (300, 0))


class TestCombine:
    def test_sum_in_log_domain(self, rng):
        a = rng.normal(size=(256, 256))
        b = rng.normal(size=(256, 256))
        combined = combine_likelihoods(a, b)
        assert np.allclose(combined, a + b)

    def test_combination_beats_either_alone(self, rng):
        """Functional version of the §4.3 claim on a small instance."""
        from repro.biases import fm_digraph_distribution

        i = 7
        n = 1 << 32
        truth = (5, 250)
        known = (0x20, 0x20)
        fm_dist = fm_digraph_distribution(i)
        cells = fm_biased_cells(i)
        mass = sum(p for _, p in cells)
        uniform_p = (1.0 - mass) / (65536 - len(cells))

        def rank(lam):
            return int((lam > lam[truth]).sum())

        trials_better = 0
        for t in range(5):
            seed = np.random.default_rng(1000 + t)
            fm_counts = sample_digraph_counts(
                fm_dist, n, truth, seed=seed, method="poisson"
            )
            lam_fm = digraph_log_likelihoods(
                fm_counts.astype(np.float64), cells, uniform_p
            )
            lam_absab = np.zeros((256, 256))
            for gap in range(32):
                diff = (truth[0] ^ known[0], truth[1] ^ known[1])
                counts = sample_absab_differential_counts(
                    gap, n, diff, seed=seed, method="poisson"
                )
                lam_absab += absab_log_likelihoods(
                    counts.astype(np.float64), gap, known
                )
            combined = combine_likelihoods(lam_fm, lam_absab)
            if rank(combined) <= min(rank(lam_fm), rank(lam_absab)):
                trials_better += 1
        assert trials_better >= 3

    def test_empty_rejected(self):
        with pytest.raises(LikelihoodError):
            combine_likelihoods()

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(LikelihoodError):
            combine_likelihoods(np.zeros(256), np.zeros((256, 256)))

    def test_normalisation_preserves_order_and_sums_to_one(self, rng):
        lam = rng.normal(size=(256,)) * 10
        norm = normalize_log_likelihoods(lam)
        assert np.exp(norm).sum() == pytest.approx(1.0)
        assert np.array_equal(np.argsort(lam), np.argsort(norm))
