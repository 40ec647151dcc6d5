"""The HTTPS cookie attack: layout, statistics, likelihoods, brute force."""

import tracemalloc

import numpy as np
import pytest

from repro.biases.fluhrer_mcgrew import fm_biased_cells, position_to_counter
from repro.config import ReproConfig
from repro.core import (
    absab_log_likelihoods,
    combine_likelihoods,
    digraph_log_likelihoods,
)
from repro.errors import AttackError
from repro.simulate import HttpsAttackSimulation
from repro.tls import (
    BruteForceOracle,
    CookieLayout,
    CookieStatistics,
    HttpRequestTemplate,
    recover_candidates,
)
from repro.tls.attack import transition_log_likelihoods


@pytest.fixture(scope="module")
def small_sim():
    return HttpsAttackSimulation(ReproConfig(seed=55), cookie_len=3, max_gap=32)


class TestLayout:
    def test_known_bytes_match_template(self):
        template = HttpRequestTemplate(host="site.com")
        layout = CookieLayout.from_template(template, 16)
        request = template.build(b"Y" * 16)
        start, end = layout.cookie_span
        assert layout.known_byte(1) == request[0]
        assert layout.known_byte(end + 1) == request[end]
        with pytest.raises(AttackError):
            layout.known_byte(start)
        with pytest.raises(AttackError):
            layout.known_byte(layout.stream_len + 1)

    def test_transitions_cover_boundaries(self):
        layout = CookieLayout(prefix=b"P" * 10, suffix=b"S" * 10, cookie_len=4)
        # Cookie at 11..14; transitions 10..14 (5 = cookie_len + 1).
        assert layout.transitions() == [10, 11, 12, 13, 14]

    def test_stream_len(self):
        layout = CookieLayout(prefix=b"P" * 10, suffix=b"S" * 5, cookie_len=4)
        assert layout.stream_len == 19


class TestStatisticsCollection:
    def test_empty_statistics_structure(self, small_sim):
        stats = CookieStatistics.empty(small_sim.layout, max_gap=8)
        assert stats.fm_counts.shape == (4, 256, 256)
        assert stats.num_requests == 0
        assert all(v.shape == (65536,) for v in stats.absab_counts.values())

    def test_packet_level_ingestion_counts(self, small_sim):
        stats = small_sim.capture_statistics(40)
        assert stats.num_requests == 40
        assert np.all(stats.fm_counts.sum(axis=(1, 2)) == 40)
        for counts in stats.absab_counts.values():
            assert counts.sum() == 40

    def test_packet_level_digraph_counts_truthful(self, small_sim):
        """Counted ciphertext digraphs must equal plaintext XOR keystream
        for the true request — verified via decryption with the keys the
        simulation used is impossible for the attacker, but counts of the
        *known* prefix transitions can be checked for consistency."""
        stats = small_sim.capture_statistics(10)
        # Each transition's count matrix has exactly 10 entries.
        assert int(stats.fm_counts[0].sum()) == 10

    def test_misaligned_fragment_rejected(self, small_sim):
        stats = CookieStatistics.empty(small_sim.layout, max_gap=4)
        with pytest.raises(AttackError):
            stats.ingest_fragment(b"\x00" * 600, offset=2)

    def test_short_fragment_rejected(self, small_sim):
        stats = CookieStatistics.empty(small_sim.layout, max_gap=4)
        with pytest.raises(AttackError):
            stats.ingest_fragment(b"\x00" * 10, offset=1)


class TestLikelihoodsAndRecovery:
    def test_likelihood_shape(self, small_sim):
        stats = small_sim.sampled_statistics(1 << 16)
        loglik = transition_log_likelihoods(stats)
        assert loglik.shape == (small_sim.cookie_len + 1, 256, 256)

    def test_candidates_respect_charset(self, small_sim):
        from repro.tls import COOKIE_CHARSET

        stats = small_sim.sampled_statistics(1 << 16)
        candidates = recover_candidates(stats, 50)
        allowed = set(COOKIE_CHARSET)
        for cand in candidates.plaintexts:
            assert len(cand) == small_sim.cookie_len
            assert all(b in allowed for b in cand)

    def test_recovery_at_adequate_ciphertexts(self):
        """End-to-end: with ~2^28 sampled ciphertexts a short cookie is
        recovered within a small candidate budget (scaled Fig 10)."""
        sim = HttpsAttackSimulation(ReproConfig(seed=56), cookie_len=2, max_gap=128)
        stats = sim.sampled_statistics(1 << 28)
        result = sim.attack(stats, num_candidates=1 << 12)
        assert result.cookie == sim.secret
        assert result.rank < 1 << 12

    def test_more_data_improves_rank(self):
        sim = HttpsAttackSimulation(ReproConfig(seed=57), cookie_len=2, max_gap=64)
        ranks = []
        for n in (1 << 24, 1 << 29):
            stats = sim.sampled_statistics(n)
            candidates = recover_candidates(stats, 1 << 13)
            rank = candidates.rank_of(sim.secret)
            ranks.append(rank if rank is not None else 1 << 13)
        assert ranks[1] <= ranks[0]


#: A short layout whose 131-byte known prefix still reaches every gap up
#: to 128: 23, 71 and 263 ABSAB alignments at max_gap 8, 32 and 128.
_SHORT_LAYOUT = CookieLayout(
    prefix=(bytes(range(33, 123)) * 2)[:131], suffix=b";p=/", cookie_len=1
)

#: An 8-byte cookie between short known runs: at max_gap 2 the middle
#: transition (index 4) has no known digraph within reach on either side.
_GAPPED_LAYOUT = CookieLayout(
    prefix=b"GET /x; c=", suffix=b";p=/", cookie_len=8
)


def _random_statistics(layout, max_gap, seed, dtype=np.int64):
    """Matrix-backed statistics with arbitrary counts and a large total,
    in int64 counters (the sampler's) or uint32 ones (a capture's)."""
    rng = np.random.default_rng(seed)
    alignments = len(CookieStatistics.alignment_keys(layout, max_gap=max_gap))
    return CookieStatistics.from_counters(
        layout,
        rng.integers(0, 1 << 20, size=(len(layout.transitions()), 256, 256))
        .astype(dtype),
        rng.integers(0, 1 << 20, size=(alignments, 65536)).astype(dtype),
        max_gap=max_gap,
        num_requests=9 << 27,
    )


def _reference_log_likelihoods(stats):
    """Eq 25 per alignment: the sparse FM estimate plus one eq-24 ABSAB
    estimate per alignment, summed in alignment-key order."""
    layout = stats.layout
    total = float(stats.num_requests)
    out = []
    for t, r in enumerate(layout.transitions()):
        cells = fm_biased_cells(position_to_counter(r))
        mass = sum(p for _, p in cells)
        uniform_p = (1.0 - mass) / (65536 - len(cells))
        parts = [digraph_log_likelihoods(stats.fm_counts[t], cells, uniform_p, total)]
        for (row_t, gap, side), counts in stats.absab_counts.items():
            if row_t != t:
                continue
            partner = r + 2 + gap if side == "after" else r - 2 - gap
            known = (layout.known_byte(partner), layout.known_byte(partner + 1))
            parts.append(absab_log_likelihoods(counts, gap, known, total))
        out.append(combine_likelihoods(*parts))
    return np.stack(out)


@pytest.mark.usefixtures("engine_threads")
class TestLikelihoodReference:
    """``transition_log_likelihoods`` equals the per-alignment reference
    bit for bit on both backends (the fused native kernel is
    single-threaded, so the thread counts only repeat it), and holds no
    per-alignment float copies."""

    @pytest.mark.parametrize("dtype", [np.int64, np.uint32])
    @pytest.mark.parametrize("max_gap", [8, 32, 128])
    def test_bit_identical_to_reference(self, max_gap, dtype):
        stats = _random_statistics(_SHORT_LAYOUT, max_gap, max_gap, dtype)
        assert stats.fm_counts.dtype == stats.absab_matrix.dtype == dtype
        ref = _reference_log_likelihoods(stats)
        got = transition_log_likelihoods(stats)
        assert got.dtype == np.float64 and got.shape == ref.shape
        np.testing.assert_array_equal(got.view(np.int64), ref.view(np.int64))

    @pytest.mark.parametrize("dtype", [np.int64, np.uint32])
    def test_transition_without_alignments(self, dtype):
        """A transition with no ABSAB alignment keeps its eq 15 row."""
        stats = _random_statistics(_GAPPED_LAYOUT, 2, 9, dtype)
        assert not any(t == 4 for t, _, _ in stats.absab_counts)
        ref = _reference_log_likelihoods(stats)
        got = transition_log_likelihoods(stats)
        np.testing.assert_array_equal(got.view(np.int64), ref.view(np.int64))

    @pytest.mark.parametrize(
        ("dtype", "low", "high"),
        [(np.int64, 1 << 53, 1 << 62), (np.uint32, 1 << 31, 1 << 32)],
        ids=["int64-past-2^53", "uint32-past-2^31"],
    )
    def test_cells_near_the_top_of_their_dtype(self, dtype, low, high):
        """Sampled int64 cells above 2^53 lose bits on their way to
        float64, and uint32 cells above 2^31 do not fit a signed 32-bit
        conversion: both backends must convert them as numpy does."""
        rng = np.random.default_rng(53)
        stats = _random_statistics(_SHORT_LAYOUT, 8, 53, dtype)
        for counters in (stats.fm_counts, stats.absab_matrix):
            counters[...] = rng.integers(low, high, counters.shape)
        stats.num_requests = high - 1
        ref = _reference_log_likelihoods(stats)
        got = transition_log_likelihoods(stats)
        np.testing.assert_array_equal(got.view(np.int64), ref.view(np.int64))

    def test_no_requests_rejected(self):
        stats = CookieStatistics.empty(_SHORT_LAYOUT, max_gap=8)
        assert stats.num_requests == 0
        with pytest.raises(AttackError, match="no requests"):
            transition_log_likelihoods(stats)

    def test_uint32_counters_give_the_same_bits(self):
        """Capture counters are uint32: eq 15 and eq 22 read them
        through exact float64 conversions, so the bits match int64."""
        wide = _random_statistics(_SHORT_LAYOUT, 32, seed=5)
        narrow = CookieStatistics.from_counters(
            wide.layout, wide.fm_counts.astype(np.uint32),
            wide.absab_matrix.astype(np.uint32), max_gap=32,
            num_requests=wide.num_requests,
        )
        assert narrow.fm_counts.dtype == np.uint32
        got = transition_log_likelihoods(narrow)
        ref = transition_log_likelihoods(wide)
        np.testing.assert_array_equal(got.view(np.int64), ref.view(np.int64))

    def test_peak_memory_independent_of_alignments(self):
        layout = CookieLayout(
            prefix=_SHORT_LAYOUT.prefix, suffix=b";path=", cookie_len=2
        )
        stats = _random_statistics(layout, 32, seed=3)
        assert len(stats.absab_counts) == 112
        tracemalloc.start()
        try:
            out = transition_log_likelihoods(stats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        row = 65536 * 8
        # A float copy of the counters alone would be 112 rows; streaming
        # needs the output plus a few rows (the reused eq 22 buffers and
        # the FM estimate's temporaries).
        assert peak <= out.nbytes + 12 * row


class TestBruteForce:
    def test_oracle_counts_attempts(self):
        oracle = BruteForceOracle(b"secret")
        assert not oracle.check(b"wrong")
        assert oracle.check(b"secret")
        assert oracle.attempts == 2

    def test_search_returns_rank_info(self):
        oracle = BruteForceOracle(b"C")
        cookie, attempts = oracle.search([b"A", b"B", b"C", b"D"])
        assert cookie == b"C" and attempts == 3

    def test_budget_enforced(self):
        oracle = BruteForceOracle(b"Z")
        with pytest.raises(AttackError):
            oracle.search([b"A", b"B", b"C"], budget=2)

    def test_paper_wall_clock(self):
        """2^23 candidates at 20000 tests/s is under 7 minutes (§6.3)."""
        oracle = BruteForceOracle(b"x")
        assert oracle.wall_clock_seconds(1 << 23) < 7 * 60
