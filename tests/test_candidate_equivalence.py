"""The vectorized candidate-recovery engine against its scalar references.

Four equivalence layers:

1. **Golden ordering** — the rewritten Algorithm 2 (pooled selection,
   packed backpointers, vectorized backtrack) against a pinned copy of
   the seed per-row argpartition decoder, bit-identical scores *and*
   plaintexts on continuous inputs (where the seed's tie handling is
   immaterial), charset-restricted and full-alphabet, across memory
   budgets that force chunking and segmented selection.
2. **Ground truth** — hypothesis property tests against
   :meth:`PlaintextHmm.brute_force` on tiny alphabets, including
   integer-valued likelihoods that force exact score ties.
3. **Streams** — ``lazy_candidate_blocks`` against ``lazy_candidates``
   against ``algorithm1``, and the native walk against the ``heapq``
   fallback: the same rows, score bits and block sizes.
4. **Accounting** — the batched oracle/pruner walk
   (:meth:`BruteForceOracle.search_matrix`) against the scalar
   generator pipeline ``search(pruner.filter(...))``: same attempts,
   same pruned counts, same errors, for hits, budgets and exhaustion.

Layers 1 to 3 run under the numpy fallback and the native backend at
1-3 threads, and the merge is compared bit for bit with the fallback's
threshold-pruned selection at its edge cases.
"""

from __future__ import annotations

import functools
import tracemalloc
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ReproConfig, ConfigError
from repro.core import (
    CandidateMatrix,
    PlaintextHmm,
    algorithm1,
    algorithm2,
    lazy_candidate_blocks,
    lazy_candidates,
)
from repro.core.candidates.viterbi import (
    _extend_topk,
    _initial_pool_width,
    _plan_chunk,
    _select_desc,
)
from repro.errors import AttackError, CandidateError
from repro.rc4 import _native
from repro.tls.bruteforce import BruteForceOracle, CandidatePruner


@pytest.fixture
def backend(engine_threads, monkeypatch):
    """Algorithm 2 under the numpy fallback and the native merge at 1-3
    threads (the merge takes its thread count from the environment)."""
    monkeypatch.setenv("REPRO_NATIVE_THREADS", str(engine_threads))

# --------------------------------------------------------------------------
# Seed reference: the pre-vectorization Algorithm 2 (per-row argpartition
# over the full A*K extension, per-candidate Python backtrack), pinned
# here as the golden ordering oracle.
# --------------------------------------------------------------------------

_SEED_CHUNK = 16


def _seed_top_k_desc(values: np.ndarray, k: int) -> np.ndarray:
    n = values.shape[1]
    if k >= n:
        return np.argsort(-values, axis=1, kind="stable")
    part = np.argpartition(-values, k - 1, axis=1)[:, :k]
    part_vals = np.take_along_axis(values, part, axis=1)
    order = np.lexsort((part, -part_vals), axis=1)
    return np.take_along_axis(part, order, axis=1)


def seed_algorithm2(
    log_likelihoods: np.ndarray,
    first_byte: int,
    last_byte: int,
    num_candidates: int,
    *,
    charset: bytes | None = None,
) -> tuple[list[bytes], np.ndarray]:
    lam = np.asarray(log_likelihoods, dtype=np.float64)
    num_steps = lam.shape[0]
    if charset is None:
        alphabet = np.arange(256, dtype=np.intp)
    else:
        alphabet = np.asarray(sorted(set(charset)), dtype=np.intp)
    a_size = alphabet.size

    scores = lam[0, first_byte, alphabet][:, None]
    back: list[np.ndarray | None] = [None]
    for step in range(1, num_steps - 1):
        k_prev = scores.shape[1]
        trans = lam[step][np.ix_(alphabet, alphabet)]
        k_new = min(num_candidates, a_size * k_prev)
        new_scores = np.empty((a_size, k_new), dtype=np.float64)
        new_back = np.empty((a_size, k_new, 2), dtype=np.int32)
        flat_prev = scores.reshape(-1)
        for start in range(0, a_size, _SEED_CHUNK):
            stop = min(start + _SEED_CHUNK, a_size)
            ext = flat_prev[None, :] + np.repeat(
                trans[:, start:stop].T, k_prev, axis=1
            )
            top = _seed_top_k_desc(ext, k_new)
            new_scores[start:stop] = np.take_along_axis(ext, top, axis=1)
            new_back[start:stop, :, 0], new_back[start:stop, :, 1] = np.divmod(
                top, k_prev
            )
        scores = new_scores
        back.append(new_back)

    k_prev = scores.shape[1]
    trans_last = lam[num_steps - 1][alphabet, last_byte]
    ext = (scores + trans_last[:, None]).reshape(-1)
    k_final = min(num_candidates, ext.size)
    top = _seed_top_k_desc(ext[None, :], k_final)[0]
    final_scores = ext[top]
    from_idx, rank = np.divmod(top, k_prev)

    plaintexts: list[bytes] = []
    alphabet_bytes = alphabet.astype(np.uint8)
    for f_idx, f_rank in zip(from_idx, rank):
        chars = bytearray()
        idx, rnk = int(f_idx), int(f_rank)
        for step in range(num_steps - 2, 0, -1):
            chars.append(alphabet_bytes[idx])
            pointer = back[step]
            idx, rnk = int(pointer[idx, rnk, 0]), int(pointer[idx, rnk, 1])
        chars.append(alphabet_bytes[idx])
        plaintexts.append(bytes(reversed(chars)))
    return plaintexts, final_scores


_COOKIE_CHARSET = bytes(
    sorted(
        set(range(0x21, 0x7F)) - {0x22, 0x2C, 0x3B, 0x5C}
    )
)


def _assert_matches_seed(lam, first, last, n, charset, mem_budget=None):
    ref_p, ref_s = seed_algorithm2(lam, first, last, n, charset=charset)
    got = algorithm2(lam, first, last, n, charset=charset, mem_budget=mem_budget)
    assert isinstance(got, CandidateMatrix)
    np.testing.assert_array_equal(got.log_likelihoods, ref_s)
    assert list(got.plaintexts) == ref_p


@pytest.mark.usefixtures("backend")
class TestGoldenOrdering:
    """Bit-identical to the seed decoder on continuous (tie-free) data."""

    def test_charset_restricted_n4096(self, rng):
        lam = rng.normal(size=(5, 256, 256))
        _assert_matches_seed(lam, 0x41, 0x3B, 1 << 12, _COOKIE_CHARSET)

    def test_full_alphabet_n1024(self, rng):
        lam = rng.normal(size=(4, 256, 256))
        _assert_matches_seed(lam, 7, 201, 1 << 10, None)

    def test_single_unknown_byte(self, rng):
        lam = rng.normal(size=(2, 256, 256))
        _assert_matches_seed(lam, 1, 2, 100, _COOKIE_CHARSET)

    def test_list_larger_than_space(self, rng):
        lam = rng.normal(size=(4, 256, 256))
        _assert_matches_seed(lam, 0, 255, 10_000, b"abcde")

    def test_tiny_memory_budget_forces_chunking(self, rng):
        """A starved budget (chunked rows + segmented selection) changes
        the shape of every intermediate but not a single output bit."""
        lam = rng.normal(size=(5, 256, 256))
        _assert_matches_seed(
            lam, 0x41, 0x3B, 512, _COOKIE_CHARSET, mem_budget=20_000
        )

    def test_mem_budget_from_config(self, rng, monkeypatch):
        monkeypatch.setenv("REPRO_CANDIDATE_MEM", "40000")
        lam = rng.normal(size=(4, 256, 256))
        got = algorithm2(lam, 3, 9, 256, charset=_COOKIE_CHARSET)
        ref = algorithm2(lam, 3, 9, 256, charset=_COOKIE_CHARSET, mem_budget=1 << 31)
        np.testing.assert_array_equal(got.log_likelihoods, ref.log_likelihoods)
        np.testing.assert_array_equal(got.matrix, ref.matrix)


# --------------------------------------------------------------------------
# Ground truth on tiny alphabets, including exact ties.
# --------------------------------------------------------------------------


def _assert_matches_brute_force(hmm: PlaintextHmm, n: int) -> None:
    ref = hmm.brute_force()
    got = hmm.n_best(n)
    k = min(n, len(ref))
    assert len(got) == k
    ref_scores = np.asarray(ref.log_likelihoods)[:k]
    np.testing.assert_array_equal(np.asarray(got.log_likelihoods), ref_scores)
    # Ordering within an exactly-tied score group is implementation
    # defined, so compare group-wise: every group entirely inside the
    # truncated list must match as a set; the group cut by the
    # truncation boundary must be a subset of the reference group.
    ref_all = list(zip(ref.plaintexts, np.asarray(ref.log_likelihoods)))
    got_all = list(zip(got.plaintexts, np.asarray(got.log_likelihoods)))
    i = 0
    while i < k:
        score = got_all[i][1]
        group = {p for p, s in got_all if s == score}
        ref_group = {p for p, s in ref_all if s == score}
        assert group <= ref_group
        i += len(group)
    for plaintext, score in got_all:
        assert hmm.sequence_log_likelihood(plaintext) == pytest.approx(score)


@st.composite
def _tiny_hmm(draw, *, integer_scores: bool):
    length = draw(st.integers(min_value=1, max_value=4))
    a_size = draw(st.integers(min_value=2, max_value=5))
    charset = bytes(range(65, 65 + a_size))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    if integer_scores:
        lam = rng.integers(0, 3, size=(length + 1, 256, 256)).astype(np.float64)
    else:
        lam = rng.normal(size=(length + 1, 256, 256))
    first = draw(st.integers(min_value=0, max_value=255))
    last = draw(st.integers(min_value=0, max_value=255))
    n = draw(st.integers(min_value=1, max_value=50))
    return PlaintextHmm(lam, first, last, charset=charset), n


@pytest.mark.usefixtures("backend")
class TestBruteForceGroundTruth:
    @settings(max_examples=25, deadline=None)
    @given(_tiny_hmm(integer_scores=False))
    def test_continuous_scores(self, case):
        hmm, n = case
        _assert_matches_brute_force(hmm, n)

    @settings(max_examples=25, deadline=None)
    @given(_tiny_hmm(integer_scores=True))
    def test_exact_ties(self, case):
        hmm, n = case
        _assert_matches_brute_force(hmm, n)


# --------------------------------------------------------------------------
# Native k-way merge against the numpy threshold-pruned selection.
# --------------------------------------------------------------------------


def _sorted_desc(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(np.sort(values, axis=1)[:, ::-1])


class TestNativeMerge:
    """``_extend_topk``'s two backends emit the same bits."""

    @pytest.fixture(autouse=True)
    def _need_native(self):
        if not _native.available():
            pytest.skip("native backend unavailable (no C compiler?)")

    @staticmethod
    def _assert_backends_agree(monkeypatch, scores, neg_trans, k):
        with monkeypatch.context() as m:
            m.setattr(_native, "available", lambda: False)
            ref_idx, ref_neg = _extend_topk(scores, neg_trans, k, 1 << 30)
        assert ref_idx.shape == (neg_trans.shape[0], k)
        for threads in (1, 2, 3):
            got_idx, got_neg = _native.merge_topk(
                scores, neg_trans, k, threads=threads
            )
            assert got_idx.dtype == np.int64 and got_neg.dtype == np.float64
            np.testing.assert_array_equal(got_idx, ref_idx)
            np.testing.assert_array_equal(
                got_neg.view(np.int64), ref_neg.view(np.int64)
            )

    @pytest.mark.parametrize("k", [1, 7, 40, 97, 200])
    def test_integer_ties_across_the_kth_boundary(self, monkeypatch, rng, k):
        # Scores in {0, 1, 2} and transitions in {0, 1}: every boundary
        # value is shared by many blocks, so the cut falls inside a tie
        # group that spans blocks.
        scores = _sorted_desc(rng.integers(0, 3, size=(9, 30)).astype(np.float64))
        neg_trans = rng.integers(0, 2, size=(9, 9)).astype(np.float64)
        self._assert_backends_agree(monkeypatch, scores, neg_trans, k)

    def test_signed_zero_ties(self, monkeypatch, rng):
        # -0.0 and +0.0 compare equal, so they tie and fall to the flat
        # index; each keeps its own sign bit in the output.
        scores = np.where(rng.random(size=(6, 10)) < 0.5, -0.0, 0.0)
        neg_trans = rng.choice([-0.0, 0.0, 1.0], size=(6, 6))
        self._assert_backends_agree(monkeypatch, scores, neg_trans, 25)

    def test_impossible_transitions(self, monkeypatch, rng):
        # -inf transitions (+inf negated) and -inf partial scores.
        scores = rng.normal(size=(6, 12))
        scores[rng.random(size=scores.shape) < 0.2] = -np.inf
        scores = _sorted_desc(scores)
        neg_trans = rng.normal(size=(6, 6))
        neg_trans[rng.random(size=neg_trans.shape) < 0.3] = np.inf
        neg_trans[0] = np.inf
        for k in (5, 40, 72):
            self._assert_backends_agree(monkeypatch, scores, neg_trans, k)

    def test_whole_pool(self, monkeypatch, rng):
        scores = _sorted_desc(rng.normal(size=(5, 8)))
        neg_trans = rng.normal(size=(5, 5))
        self._assert_backends_agree(monkeypatch, scores, neg_trans, 5 * 8)

    def test_first_step_lists_of_one(self, monkeypatch, rng):
        scores = rng.normal(size=(90, 1))
        neg_trans = rng.normal(size=(90, 90))
        for k in (1, 30, 90):
            self._assert_backends_agree(monkeypatch, scores, neg_trans, k)

    def test_single_final_row(self, monkeypatch, rng):
        scores = _sorted_desc(rng.normal(size=(90, 64)))
        neg_trans = rng.normal(size=(1, 90))
        self._assert_backends_agree(monkeypatch, scores, neg_trans, 1000)

    def test_threads_keep_their_own_merge_state(self, rng):
        # Rows long enough for the threads to overlap, repeated: a merge
        # state shared between threads corrupts some of them.
        scores = _sorted_desc(rng.normal(size=(90, 2048)))
        neg_trans = rng.normal(size=(90, 90))
        ref_idx, _ = _native.merge_topk(scores, neg_trans, 2048, threads=1)
        for _ in range(4):
            for threads in (2, 3):
                got_idx, _ = _native.merge_topk(
                    scores, neg_trans, 2048, threads=threads
                )
                np.testing.assert_array_equal(got_idx, ref_idx)

    def test_fewer_rows_than_threads(self, monkeypatch, rng):
        scores = _sorted_desc(rng.integers(0, 4, size=(7, 16)).astype(np.float64))
        neg_trans = rng.integers(0, 3, size=(2, 7)).astype(np.float64)
        self._assert_backends_agree(monkeypatch, scores, neg_trans, 50)


@pytest.mark.usefixtures("backend")
class TestNonFiniteLikelihoods:
    """The canonical order needs comparable scores: NaN and +inf are
    rejected on both backends; -inf (an impossible pair) is allowed."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejected(self, rng, bad):
        lam = rng.normal(size=(4, 256, 256))
        lam[2, 0x41, 0x42] = bad
        with pytest.raises(CandidateError, match="NaN or \\+inf"):
            algorithm2(lam, 1, 2, 64, charset=_COOKIE_CHARSET)

    def test_minus_inf_allowed(self, rng):
        lam = rng.normal(size=(4, 256, 256))
        lam[1][:, ::3] = -np.inf
        _assert_matches_seed(lam, 0x41, 0x3B, 512, _COOKIE_CHARSET)


# --------------------------------------------------------------------------
# Streaming equivalence.
# --------------------------------------------------------------------------


def _lazy_input(case: str) -> tuple[np.ndarray, int | None]:
    """A named input of the walk comparisons and its row limit (None:
    walk to exhaustion)."""
    rng = np.random.default_rng(sum(case.encode()))
    if case == "normal":
        return rng.normal(size=(6, 256)), 1 << 12
    if case == "integer-ties":
        return rng.integers(0, 3, size=(6, 256)).astype(np.float64), 1 << 12
    if case == "signed-zeros":
        return np.where(rng.random(size=(5, 256)) < 0.5, -0.0, 0.0), 1 << 12
    if case == "L1-exhausted":
        return rng.normal(size=(1, 256)), None
    if case == "L12-2^15":
        return rng.normal(size=(12, 256)), 1 << 15
    if case == "L300":
        return rng.normal(size=(300, 256)), 1 << 10
    if case == "minus-inf-rows":
        # Rows with several -inf entries and only 3 * 128 * 4 finite
        # candidates, so the walk runs on into -inf ones, whose children
        # would score -inf - -inf = NaN.
        lam = rng.normal(size=(3, 256))
        lam[0, 3:] = -np.inf
        lam[1, ::2] = -np.inf
        lam[2, rng.permutation(256)[4:]] = -np.inf
        return lam, 1 << 12
    raise AssertionError(case)


_LAZY_CASES = (
    "normal", "integer-ties", "signed-zeros", "L1-exhausted", "L12-2^15",
    "L300", "minus-inf-rows",
)


def _walk(lam, block_size, limit=None):
    """Concatenated rows, scores and block sizes of a walk, stopping at the
    first block that reaches ``limit`` rows."""
    rows, scores, sizes = [], [], []
    seen = 0
    for block, block_scores in lazy_candidate_blocks(lam, block_size=block_size):
        rows.append(block)
        scores.append(block_scores)
        sizes.append(block_scores.shape[0])
        seen += block_scores.shape[0]
        if limit is not None and seen >= limit:
            break
    return np.concatenate(rows), np.concatenate(scores), sizes


@functools.cache
def _fallback_walk(case, block_size):
    """The ``heapq`` fallback's walk of a named input, computed once."""
    lam, limit = _lazy_input(case)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_native, "available", lambda: False)
        return _walk(lam, block_size, limit)


def _assert_same_walk(got, ref):
    np.testing.assert_array_equal(got[0], ref[0])
    np.testing.assert_array_equal(got[1].view(np.int64), ref[1].view(np.int64))
    assert got[2] == ref[2]


@pytest.mark.usefixtures("engine_threads")
class TestLazyBlocks:
    """The walk under the ``heapq`` fallback and the native kernel (which
    is single-threaded, so the thread counts only repeat it)."""

    def test_blocks_concat_equals_per_item(self, rng):
        lam = rng.normal(size=(5, 256))
        items = list(islice(lazy_candidates(lam), 500))
        rows = []
        scores = []
        for block, block_scores in lazy_candidate_blocks(lam, block_size=17):
            rows.extend(r.tobytes() for r in block)
            scores.extend(block_scores.tolist())
            if len(rows) >= 500:
                break
        assert rows[:500] == [p for p, _ in items]
        assert scores[:500] == [s for _, s in items]

    def test_matches_algorithm1(self, rng):
        lam = rng.normal(size=(4, 256))
        cands, scores = algorithm1(lam, 300)
        lazy = list(islice(lazy_candidates(lam), 300))
        assert [p for p, _ in lazy] == list(cands)
        np.testing.assert_allclose([s for _, s in lazy], scores, rtol=0, atol=1e-9)

    def test_exhausts_tiny_space(self):
        lam = np.zeros((1, 256))
        lam[0, :3] = [5.0, 4.0, 3.0]
        total = sum(
            block.shape[0] for block, _ in lazy_candidate_blocks(lam, block_size=100)
        )
        assert total == 256

    def test_block_size_validated(self, rng):
        with pytest.raises(CandidateError):
            next(lazy_candidate_blocks(rng.normal(size=(2, 256)), block_size=0))

    @pytest.mark.parametrize("block_size", [1, 17, 256])
    @pytest.mark.parametrize("case", _LAZY_CASES)
    def test_matches_fallback_bit_for_bit(self, case, block_size):
        lam, limit = _lazy_input(case)
        got = _walk(lam, block_size, limit)
        _assert_same_walk(got, _fallback_walk(case, block_size))
        if limit is None:
            assert got[0].shape[0] == 256 ** lam.shape[0]

    def test_minus_inf_children_stay_minus_inf(self):
        lam, limit = _lazy_input("minus-inf-rows")
        _, scores, _ = _walk(lam, 256, limit)
        finite = 3 * 128 * 4
        assert np.all(np.diff(scores[:finite]) <= 0)
        assert np.isfinite(scores[:finite]).all()
        assert np.isneginf(scores[finite:]).all()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nan_and_plus_inf_rejected(self, rng, bad):
        lam = rng.normal(size=(12, 256))
        lam[7, 0x41] = bad
        with pytest.raises(CandidateError, match="NaN or \\+inf"):
            next(lazy_candidate_blocks(lam))
        with pytest.raises(CandidateError, match="NaN or \\+inf"):
            next(lazy_candidate_blocks(np.full((3, 256), bad)))

    def test_heap_grows_through_doublings(self, monkeypatch, rng):
        if not _native.available():
            pytest.skip("checks the native kernel's heap buffer")
        capacities = []
        kernel = _native.lazy_walk

        def spy(sorted_lam, heap, size, ranks, scores):
            capacities.append(heap.shape[0])
            return kernel(sorted_lam, heap, size, ranks, scores)

        monkeypatch.setattr(_native, "lazy_walk", spy)
        lam, limit = _lazy_input("normal")
        got = _walk(lam, 1, limit)
        grown = sorted(set(capacities))
        assert len(grown) >= 5
        assert all(b >= 2 * a for a, b in zip(grown, grown[1:]))
        _assert_same_walk(got, _fallback_walk("normal", 1))

    def test_abandoned_walk_then_fresh_one(self):
        lam, limit = _lazy_input("normal")
        abandoned = lazy_candidate_blocks(lam, block_size=17)
        head_rows, head_scores = next(abandoned)
        abandoned.close()
        got = _walk(lam, 17, limit)
        np.testing.assert_array_equal(got[0][:17], head_rows)
        np.testing.assert_array_equal(got[1][:17], head_scores)
        _assert_same_walk(got, _fallback_walk("normal", 17))

    def test_blocks_own_their_arrays(self):
        lam, _ = _lazy_input("integer-ties")
        walk = lazy_candidate_blocks(lam, block_size=64)
        rows, scores = next(walk)
        kept_rows, kept_scores = rows.copy(), scores.copy()
        for later_rows, later_scores in islice(walk, 8):
            assert not np.shares_memory(rows, later_rows)
            assert not np.shares_memory(scores, later_scores)
        np.testing.assert_array_equal(rows, kept_rows)
        np.testing.assert_array_equal(scores.view(np.int64), kept_scores.view(np.int64))

    def test_native_walk_memory_bound(self):
        """A 2^15-deep walk at L = 12 leaves about 70k entries on the
        frontier.  The native heap holds them as 24-byte entries and
        peaks under 5 MiB, growth copy included; the fallback's tuples
        take about 9.5 MiB."""
        if not _native.available():
            pytest.skip("bounds the native kernel's heap buffer")
        lam, limit = _lazy_input("L12-2^15")
        tracemalloc.start()
        try:
            seen = 0
            for _, scores in lazy_candidate_blocks(lam):
                seen += scores.shape[0]
                if seen >= limit:
                    break
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 << 20


# --------------------------------------------------------------------------
# Batched oracle/pruner accounting parity.
# --------------------------------------------------------------------------


def _matrix_from(rows: list[bytes]) -> np.ndarray:
    return np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(
        len(rows), len(rows[0]) if rows else 0
    )


def _run_scalar(rows, secret, charset, cookie_len, budget):
    oracle = BruteForceOracle(secret=secret)
    pruner = CandidatePruner(cookie_len=cookie_len, charset=charset)
    try:
        cookie, attempts = oracle.search(
            pruner.filter(r for r in rows), budget=budget
        )
        return ("hit", cookie, attempts, oracle.attempts, pruner.pruned)
    except AttackError as exc:
        return ("fail", str(exc), oracle.attempts, pruner.pruned)


def _run_batched(rows, secret, charset, cookie_len, budget, block_size):
    oracle = BruteForceOracle(secret=secret)
    pruner = CandidatePruner(cookie_len=cookie_len, charset=charset)
    matrix = _matrix_from(rows)
    try:
        cookie, attempts, rank = oracle.search_matrix(
            matrix, pruner=pruner, budget=budget, block_size=block_size
        )
        assert rows[rank] == cookie
        return ("hit", cookie, attempts, oracle.attempts, pruner.pruned)
    except AttackError as exc:
        return ("fail", str(exc), oracle.attempts, pruner.pruned)


class TestBatchedOracleParity:
    CHARSET = b"abcdef"

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_accounting_matches_scalar(self, data):
        rng = np.random.default_rng(
            data.draw(st.integers(min_value=0, max_value=2**31 - 1))
        )
        n = data.draw(st.integers(min_value=0, max_value=40))
        cookie_len = 3
        # ~half the rows inadmissible ('z' outside the pruner charset).
        rows = [
            bytes(
                rng.choice(np.frombuffer(self.CHARSET + b"z", dtype=np.uint8), 3)
            )
            for _ in range(n)
        ]
        secret = (
            rows[data.draw(st.integers(min_value=0, max_value=n - 1))]
            if n and data.draw(st.booleans())
            else b"xyz"
        )
        budget = data.draw(
            st.one_of(st.none(), st.integers(min_value=0, max_value=12))
        )
        block_size = data.draw(st.integers(min_value=1, max_value=16))
        scalar = _run_scalar(rows, secret, self.CHARSET, cookie_len, budget)
        batched = _run_batched(
            rows, secret, self.CHARSET, cookie_len, budget, block_size
        )
        assert batched == scalar

    def test_budget_zero(self):
        rows = [b"zzz", b"aaa"]
        scalar = _run_scalar(rows, b"aaa", self.CHARSET, 3, 0)
        batched = _run_batched(rows, b"aaa", self.CHARSET, 3, 0, 1)
        assert batched == scalar
        assert scalar[0] == "fail" and "after 0 attempts" in scalar[1]
        # The scalar stream consumed the drop in front of the first
        # admitted candidate before breaking; so must the batched walk.
        assert scalar[3] == 1 and batched[3] == 1

    def test_length_mismatch_never_hits(self):
        rows = [b"ab", b"cd"]
        oracle = BruteForceOracle(secret=b"abc")
        with pytest.raises(AttackError, match="after 2 attempts"):
            oracle.search_matrix(_matrix_from(rows))
        assert oracle.attempts == 2

    def test_admit_mask_matches_admits(self, rng):
        pruner = CandidatePruner(cookie_len=4, charset=self.CHARSET)
        rows = rng.integers(0, 256, size=(64, 4)).astype(np.uint8)
        rows[:8] = rng.choice(np.frombuffer(self.CHARSET, dtype=np.uint8), (8, 4))
        mask = pruner.admit_mask(rows)
        assert pruner.pruned == 0
        expected = [pruner.admits(r.tobytes()) for r in rows]
        assert mask.tolist() == expected

    def test_admit_mask_wrong_width(self):
        pruner = CandidatePruner(cookie_len=4, charset=self.CHARSET)
        assert not pruner.admit_mask(np.zeros((3, 5), dtype=np.uint8)).any()

    def test_pruner_drops_true_cookie(self):
        """Regression: when the pruner rejects the real cookie, the
        batched walk must fail exactly like the scalar stream did —
        not report a bogus hit or a rank from a second list walk."""
        rows = [b"abcd", b"ZZZZ", b"fedc"]
        secret = b"ZZZZ"  # outside the pruner charset
        scalar = _run_scalar(rows, secret, self.CHARSET, 4, None)
        batched = _run_batched(rows, secret, self.CHARSET, 4, None, 2)
        assert batched == scalar
        assert scalar[0] == "fail" and "after 2 attempts" in scalar[1]
        assert scalar[3] == 1  # the dropped true cookie was counted


# --------------------------------------------------------------------------
# Selection / planning internals pinned at their boundaries.
# --------------------------------------------------------------------------


class TestSelectionInternals:
    def test_plan_chunk_boundaries(self):
        per_row = 90 * 64 * 24  # a_size=90, pool=64
        assert _plan_chunk(90, 64, per_row * 7) == 7
        assert _plan_chunk(90, 64, per_row * 7 - 1) == 6
        assert _plan_chunk(90, 64, 1) == 1  # floor: never zero rows
        assert _plan_chunk(90, 64, 1 << 40) == 90  # cap: a_size rows

    def test_initial_pool_width(self):
        assert _initial_pool_width(256, 90, 4096) == 6  # ceil(256/90)*2
        assert _initial_pool_width(1, 90, 4096) == 2
        assert _initial_pool_width(4096, 2, 64) == 64  # capped at k_prev

    def test_select_desc_canonical_ties(self):
        neg = np.array([[1.0, 3.0, 1.0, 2.0, 1.0]])
        idx = np.arange(5)
        sel_idx, sel_neg = _select_desc(neg, idx, 2, 1 << 20)
        # Three entries tie at the best (negated) value 1.0: the
        # canonical order keeps the lowest original indices.
        assert sel_idx.tolist() == [[0, 2]]
        assert sel_neg.tolist() == [[1.0, 1.0]]

    def test_select_desc_segmented_equals_direct(self, rng):
        neg = -rng.normal(size=(1, 5000))
        idx = np.arange(5000)
        direct = _select_desc(neg, idx, 64, 1 << 30)
        # Budget small enough that the row is processed in segments.
        seg = _select_desc(neg, idx, 64, 64 * 24 * 4)
        np.testing.assert_array_equal(direct[0], seg[0])
        np.testing.assert_array_equal(direct[1], seg[1])


# --------------------------------------------------------------------------
# REPRO_CANDIDATE_MEM parsing.
# --------------------------------------------------------------------------


class TestCandidateMemConfig:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CANDIDATE_MEM", raising=False)
        from repro.config import env_candidate_mem, DEFAULT_CANDIDATE_MEM

        assert env_candidate_mem() == DEFAULT_CANDIDATE_MEM

    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("123456", 123456),
            ("64K", 64 << 10),
            ("256M", 256 << 20),
            ("2G", 2 << 30),
            ("1.5G", int(1.5 * (1 << 30))),
        ],
    )
    def test_suffixes(self, monkeypatch, raw, expected):
        monkeypatch.setenv("REPRO_CANDIDATE_MEM", raw)
        from repro.config import env_candidate_mem

        assert env_candidate_mem() == expected

    @pytest.mark.parametrize("raw", ["zero", "-1", "0", "12Q", ""])
    def test_rejects_garbage(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_CANDIDATE_MEM", raw)
        from repro.config import env_candidate_mem

        if raw == "":
            from repro.config import DEFAULT_CANDIDATE_MEM

            assert env_candidate_mem() == DEFAULT_CANDIDATE_MEM
        else:
            with pytest.raises(ConfigError):
                env_candidate_mem()

    def test_dataclass_validation(self):
        with pytest.raises(ConfigError):
            ReproConfig(candidate_mem=0)
