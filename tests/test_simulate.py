"""Sufficient-statistic samplers, timing models, and simulation glue.

The row sampler behind the §6 statistics draws one PCG64 stream per row
with numpy's own C multinomial on native threads; its tests compare it
bit for bit with ``Generator(PCG64(seed)).multinomial`` under the numpy
fallback, at 1-3 threads, and with numpy's symbol lookup failing.
"""

import tracemalloc

import numpy as np
import pytest

from repro.biases.mantin_absab import absab_alpha
from repro.config import ReproConfig, child_seed
from repro.errors import DistributionError
from repro.rc4 import _native
from repro.simulate import (
    AttackTimeline,
    HttpsAttackSimulation,
    sample_absab_differential_counts,
    sample_digraph_counts,
    sample_single_byte_counts,
    sampled_capture,
    tkip_timeline,
    tls_timeline,
)
from repro.simulate.sampling import (
    ROWS_PER_THREAD,
    absab_cipher_probs,
    sample_multinomial_rows,
)
from repro.tkip import default_tsc_space, generate_per_tsc

#: The paper's §6 request count, 9 * 2^27.
PAPER_REQUESTS = 9 << 27


class TestSingleByteSampler:
    def test_total_preserved(self, rng):
        dist = np.full(256, 1 / 256)
        counts = sample_single_byte_counts(dist, 5000, 7, seed=rng)
        assert counts.sum() == 5000

    def test_bias_lands_on_shifted_cell(self):
        """A keystream peak at k means a ciphertext peak at k ^ plaintext."""
        dist = np.full(256, 1e-9)
        dist[5] = 1.0
        dist /= dist.sum()
        counts = sample_single_byte_counts(dist, 1000, 0x42, seed=0)
        assert counts.argmax() == 5 ^ 0x42

    def test_poisson_mode_close_to_multinomial_mean(self):
        dist = np.full(256, 1 / 256)
        counts = sample_single_byte_counts(
            dist, 1 << 20, 0, seed=1, method="poisson"
        )
        assert counts.mean() == pytest.approx((1 << 20) / 256, rel=0.05)

    def test_validation(self, rng):
        with pytest.raises(DistributionError):
            sample_single_byte_counts(np.full(10, 0.1), 10, 0, seed=rng)
        with pytest.raises(DistributionError):
            sample_single_byte_counts(np.full(256, 1 / 256), 10, 300, seed=rng)


class TestDigraphSampler:
    def test_shape_and_total(self, rng):
        dist = np.full((256, 256), 1 / 65536)
        counts = sample_digraph_counts(dist, 4000, (1, 2), seed=rng)
        assert counts.shape == (256, 256)
        assert counts.sum() == 4000

    def test_peak_shifted_by_both_bytes(self):
        dist = np.full((256, 256), 1e-12)
        dist[3, 4] = 1.0
        dist /= dist.sum()
        counts = sample_digraph_counts(dist, 100, (0x10, 0x20), seed=0)
        peak = np.unravel_index(counts.argmax(), counts.shape)
        assert peak == (3 ^ 0x10, 4 ^ 0x20)


class TestAbsabSampler:
    def test_biased_cell_is_plaintext_differential(self):
        counts = sample_absab_differential_counts(0, 1 << 24, (7, 9), seed=3)
        assert counts.sum() == 1 << 24
        # cell (7,9) should be among the very top cells
        idx = (7 << 8) | 9
        rank = int((counts > counts[idx]).sum())
        assert rank < 65536 // 4

    def test_validation(self):
        with pytest.raises(DistributionError):
            sample_absab_differential_counts(0, 10, (300, 0), seed=1)


def _prob_rows(num_rows, cells, seed=0):
    """Probability rows with zero cells at the ends and in the middle."""
    gen = np.random.default_rng(seed)
    rows = []
    for r in range(num_rows):
        p = gen.random(cells)
        p[gen.integers(0, cells, cells // 8)] = 0.0
        p[[0, cells // 2, cells - 1][: 1 + r % 3]] = 0.0
        rows.append(p / p.sum())
    return rows


def _reference(n, seeds, probs):
    return [
        np.random.Generator(np.random.PCG64(seed)).multinomial(n, p)
        for seed, p in zip(seeds, probs)
    ]


def _need_native_multinomial():
    if not _native.available() or _native.numpy_multinomial() is None:
        pytest.skip("native backend or numpy's C multinomial unavailable")


@pytest.fixture
def sampler_backend(engine_threads, monkeypatch):
    """The row sampler under the numpy fallback and the native backend at
    1-3 threads (the sampler resolves threads from the environment)."""
    monkeypatch.setenv("REPRO_NATIVE_THREADS", str(engine_threads))
    return engine_threads


class TestNativeMultinomialRows:
    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("n", [0, 1, PAPER_REQUESTS])
    @pytest.mark.parametrize("num_rows", [1, 2, 5])
    def test_rows_match_numpy_bit_for_bit(self, threads, n, num_rows):
        """One row, fewer rows than threads and more; each row is
        numpy's draw on its own stream, and the streams advance as
        numpy's do."""
        _need_native_multinomial()
        cells = 65536 if num_rows == 1 else 4096
        probs = _prob_rows(num_rows, cells, seed=num_rows)
        seeds = [child_seed(5, "row", r) for r in range(num_rows)]
        bitgens = [np.random.PCG64(seed) for seed in seeds]
        out = [np.full(cells, -7, dtype=np.int64) for _ in range(num_rows)]
        _native.multinomial_rows(n, probs, bitgens, out, threads=threads)
        for got, want, p in zip(out, _reference(n, seeds, probs), probs):
            np.testing.assert_array_equal(got, want)
            assert got.sum() == n
            assert not got[p == 0.0].any()
        after = [np.random.PCG64(seed) for seed in seeds]
        for bitgen, p in zip(after, probs):
            np.random.Generator(bitgen).multinomial(n, p)
        assert [g.state for g in bitgens] == [g.state for g in after]

    @pytest.mark.parametrize("threads", [2, 3, 8])
    def test_many_short_rows_each_drawn_once(self, threads):
        """The threads take rows one at a time from a shared counter;
        short rows make them take it often, and every row must still be
        drawn exactly once, on its own stream, also with more threads
        than cores."""
        _need_native_multinomial()
        num_rows = 400
        probs = _prob_rows(num_rows, 16, seed=3)
        seeds = [child_seed(6, "short", r) for r in range(num_rows)]
        bitgens = [np.random.PCG64(seed) for seed in seeds]
        out = [np.full(16, -7, dtype=np.int64) for _ in range(num_rows)]
        _native.multinomial_rows(
            PAPER_REQUESTS, probs, bitgens, out, threads=threads
        )
        for got, want in zip(out, _reference(PAPER_REQUESTS, seeds, probs)):
            np.testing.assert_array_equal(got, want)
        after = [np.random.PCG64(seed) for seed in seeds]
        for bitgen, p in zip(after, probs):
            np.random.Generator(bitgen).multinomial(PAPER_REQUESTS, p)
        assert [g.state for g in bitgens] == [g.state for g in after]

    def test_point_mass_row(self):
        _need_native_multinomial()
        p = np.zeros(256)
        p[17] = 1.0
        out = [np.empty(256, dtype=np.int64)]
        _native.multinomial_rows(
            PAPER_REQUESTS, [p], [np.random.PCG64(1)], out, threads=2
        )
        assert out[0][17] == PAPER_REQUESTS and out[0].sum() == PAPER_REQUESTS

    def test_rejects_mismatched_rows(self):
        _need_native_multinomial()
        with pytest.raises(ValueError):
            _native.multinomial_rows(
                4, [np.full(4, 0.25)], [np.random.PCG64(1)],
                [np.zeros(5, dtype=np.int64)],
            )


class TestMultinomialRowDriver:
    @staticmethod
    def _draw(n, probs, seeds):
        out = [np.full(p.shape, -1, dtype=np.int64) for p in probs]
        sample_multinomial_rows(n, zip(seeds, probs, out))
        return out

    @pytest.mark.parametrize("n", [0, 1, PAPER_REQUESTS])
    def test_more_rows_than_one_batch(self, sampler_backend, n):
        num_rows = ROWS_PER_THREAD * sampler_backend + 3
        probs = _prob_rows(num_rows, 512, seed=n % 97)
        seeds = [child_seed(9, "driver", r) for r in range(num_rows)]
        got = self._draw(n, probs, seeds)
        for row, want in zip(got, _reference(n, seeds, probs)):
            np.testing.assert_array_equal(row, want)

    def test_missing_numpy_symbol_falls_back(self, monkeypatch):
        probs = _prob_rows(3, 1024)
        seeds = [11, 12, 13]
        want = _reference(PAPER_REQUESTS, seeds, probs)
        monkeypatch.setattr(_native, "numpy_multinomial", lambda: None)
        for row, ref in zip(self._draw(PAPER_REQUESTS, probs, seeds), want):
            np.testing.assert_array_equal(row, ref)

    @pytest.mark.parametrize("n", [-1, 1 << 63, 2.0, "9"])
    def test_bad_trial_counts_are_typed(self, sampler_backend, n):
        out = np.full(4, -1, dtype=np.int64)
        with pytest.raises(DistributionError):
            sample_multinomial_rows(n, [(1, np.full(4, 0.25), out)])
        assert (out == -1).all(), "no row may be drawn"

    def test_largest_trial_count_is_accepted(self, sampler_backend):
        n = (1 << 63) - 1
        got = self._draw(n, [np.array([0.0, 1.0])], [3])
        np.testing.assert_array_equal(got[0], [0, n])

    @pytest.mark.parametrize(
        "probs",
        [
            np.array([0.5, np.nan, 0.5]),
            np.array([0.5, np.inf, 0.0]),
            np.array([1.5, -0.5, 0.0]),
            np.array([0.6, 0.6, 0.0]),
            np.array([0.0, 0.0, 1.5]),
            np.empty(0),
        ],
        ids=["nan", "inf", "negative", "sum-past-one", "cell-past-one",
             "empty"],
    )
    def test_rows_numpy_rejects_are_typed(self, sampler_backend, probs):
        out = np.zeros(probs.shape, dtype=np.int64)
        with pytest.raises(DistributionError):
            sample_multinomial_rows(10, [(1, probs, out)])
        with pytest.raises(ValueError):  # numpy's own multinomial agrees
            np.random.default_rng(1).multinomial(10, probs)

    def test_output_row_must_match(self, sampler_backend):
        with pytest.raises(DistributionError):
            sample_multinomial_rows(
                10, [(1, np.full(4, 0.25), np.zeros(4, dtype=np.int32))]
            )


def _cookie_stats(cookie_len, max_gap, n, seed=1234):
    sim = HttpsAttackSimulation(
        ReproConfig(seed=seed), cookie_len=cookie_len, max_gap=max_gap
    )
    return sim, sim.sampled_statistics(n)


def _absab_cells(sim, stats):
    """Each ABSAB row's biased cell: the plaintext differential of the
    transition's digraph and its known partner digraph (paper §4.3)."""
    plaintext = sim.campaign.request_plaintext()
    transitions = sim.layout.transitions()

    def pbyte(position):
        return plaintext[position - sim.layout.base_offset]

    cells = {}
    for t, gap, side in stats.absab_counts:
        r = transitions[t]
        far = r + 2 + gap if side == "after" else r - 2 - gap
        cells[t, gap, side] = (
            pbyte(r) ^ pbyte(far), pbyte(r + 1) ^ pbyte(far + 1)
        )
    return cells


class TestSampledStatistics:
    def test_identical_across_backends_and_threads(self, sampler_backend):
        _, stats = _cookie_stats(2, 8, PAPER_REQUESTS)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(_native, "available", lambda: False)
            _, ref = _cookie_stats(2, 8, PAPER_REQUESTS)
        np.testing.assert_array_equal(stats.fm_counts, ref.fm_counts)
        np.testing.assert_array_equal(stats.absab_matrix, ref.absab_matrix)

    def test_identical_when_numpy_symbol_is_missing(self, monkeypatch):
        _, stats = _cookie_stats(2, 8, 1 << 20)
        monkeypatch.setattr(_native, "numpy_multinomial", lambda: None)
        _, ref = _cookie_stats(2, 8, 1 << 20)
        np.testing.assert_array_equal(stats.fm_counts, ref.fm_counts)
        np.testing.assert_array_equal(stats.absab_matrix, ref.absab_matrix)

    def test_rows_are_keyed_by_identity(self):
        """Each row draws on the stream its labels name, so the rows two
        gap caps share are identical."""
        n = 1 << 20
        sim, small = _cookie_stats(2, 8, n)
        _, large = _cookie_stats(2, 16, n)
        np.testing.assert_array_equal(small.fm_counts, large.fm_counts)
        assert set(small.absab_counts) < set(large.absab_counts)
        for key, counts in small.absab_counts.items():
            np.testing.assert_array_equal(counts, large.absab_counts[key])
        labels = ("https-sim", "sampled", n)
        for (t, gap, side), diff in list(_absab_cells(sim, small).items())[:3]:
            want = sim.config.rng(*labels, "absab", t, gap, side).multinomial(
                n, absab_cipher_probs(gap, diff)
            )
            np.testing.assert_array_equal(small.absab_counts[t, gap, side], want)

    def test_counters_stay_int64_past_the_capture_bound(self):
        """Sampled statistics keep int64 counters (the capture's are
        uint32), so 2^32 requests, as the Fig 10 benchmark samples, draw
        the same rows as before."""
        n = 1 << 32
        sim, stats = _cookie_stats(2, 4, n)
        assert stats.fm_counts.dtype == stats.absab_matrix.dtype == np.int64
        assert (stats.absab_matrix.sum(1) == n).all()
        labels = ("https-sim", "sampled", n)
        (t, gap, side), diff = next(iter(_absab_cells(sim, stats).items()))
        want = sim.config.rng(*labels, "absab", t, gap, side).multinomial(
            n, absab_cipher_probs(gap, diff)
        )
        np.testing.assert_array_equal(stats.absab_counts[t, gap, side], want)

    def test_bad_request_counts_are_typed(self):
        sim = HttpsAttackSimulation(ReproConfig(seed=1), cookie_len=2, max_gap=4)
        for n in (-1, 1 << 63):
            with pytest.raises(DistributionError):
                sim.sampled_statistics(n)
        stats = sim.sampled_statistics(0)
        assert stats.num_requests == 0
        assert not stats.fm_counts.any() and not stats.absab_matrix.any()

    def test_probability_rows_are_never_stacked(self, monkeypatch):
        """Beyond its counters the sampler holds one batch of probability
        rows; stacking all A >= 100 of them would add A rows."""
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "2")
        sim = HttpsAttackSimulation(ReproConfig(seed=3), cookie_len=3, max_gap=16)
        sim.sampled_statistics(1)  # warm-up: imports, native build, tables
        tracemalloc.start()
        try:
            stats = sim.sampled_statistics(1 << 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = (ROWS_PER_THREAD * 2 + 8) * 65536 * 8
        assert stats.absab_matrix.shape[0] >= 100
        assert bound < stats.absab_matrix.nbytes
        counters = stats.fm_counts.nbytes + stats.absab_matrix.nbytes
        assert peak - counters <= bound

    def test_rows_sum_to_requests_and_bias_lands(self):
        """Every row holds all requests, and the biased ABSAB cells
        average n * alpha(g) within 4 sigma (their summed z-score; at
        this shape a bias on the wrong cell would shift it by about -4.7)."""
        n = PAPER_REQUESTS
        sim, stats = _cookie_stats(3, 16, n, seed=21)
        fm_rows = stats.fm_counts.reshape(len(stats.fm_counts), -1)
        assert (fm_rows.sum(1) == n).all()
        assert (stats.absab_matrix.sum(1) == n).all()
        z = []
        for (t, gap, side), (d1, d2) in _absab_cells(sim, stats).items():
            alpha = absab_alpha(gap)
            count = stats.absab_counts[t, gap, side][(d1 << 8) | d2]
            z.append((count - n * alpha) / np.sqrt(n * alpha * (1 - alpha)))
        assert len(z) >= 100
        assert abs(np.sum(z)) / np.sqrt(len(z)) < 4.0


class TestSampledCapture:
    def test_equivalence_shape(self, config):
        per_tsc = generate_per_tsc(
            config, default_tsc_space(4), keys_per_tsc=512, length=8
        )
        capture = sampled_capture(
            per_tsc, b"\x01" * 8, range(1, 9), packets_per_tsc=100,
            seed=config.rng("sc"),
        )
        assert capture.num_captured == 400
        assert set(capture.counts) == set(per_tsc.tsc_values)
        for table in capture.counts.values():
            assert np.all(table.sum(axis=1) == 100)

    def test_position_out_of_range(self, config):
        per_tsc = generate_per_tsc(config, [0], keys_per_tsc=128, length=4)
        with pytest.raises(DistributionError):
            sampled_capture(
                per_tsc, b"\x00" * 8, range(1, 9), packets_per_tsc=10,
                seed=config.rng("x"),
            )


class TestTimelines:
    def test_paper_tkip_hour(self):
        timeline = tkip_timeline()
        assert 1.0 < timeline.capture_hours < 1.25

    def test_paper_tls_75_hours(self):
        timeline = tls_timeline()
        assert 74.0 < timeline.capture_hours < 77.0
        assert timeline.search_seconds < 7 * 60

    def test_total_includes_search(self):
        timeline = AttackTimeline(
            samples=3600, capture_rate=1.0, search_candidates=7200, search_rate=2.0
        )
        assert timeline.total_hours == pytest.approx(2.0)
