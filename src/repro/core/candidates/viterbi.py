"""Algorithm 2: N-best plaintexts from double-byte likelihoods (paper §4.4).

The paper models double-byte likelihoods as a first-order
time-inhomogeneous hidden Markov model (states = byte values, transition
weight at step r = lambda_{r, mu1, mu2}) and observes that generating the
N most likely plaintexts is N-best Viterbi decoding (list Viterbi).  As
in the paper, the first and last plaintext bytes (m1, mL) are known, and
the inner loops range only over an allowed character set — the RFC 6265
cookie-charset restriction of §6.2 that tightens the ciphertext bound.

This implementation keeps, for every allowed ending value mu, the N best
partial plaintexts ending in mu — the "simplest form" of list Viterbi the
paper describes — with three array-major refinements over the naive
merge so N=2^23 (the paper's full Fig 10 budget) is routine:

* **Per-state k-way merge.**  Every per-ending-value extension row is a
  concatenation of A blocks that are already sorted (the previous
  step's lists), so its N best entries are the first N pops of an A-way
  merge.  The native backend (:func:`repro.rc4._native.merge_topk`)
  runs that merge with a loser tree per row, splitting rows across
  threads; it needs O(threads * A) scratch.  Without the backend
  (``REPRO_NATIVE=0`` or no C compiler) a threshold-pruned numpy
  selection takes over: a small per-block sample (A*m ~ 2N scores)
  lower-bounds the N-th best pooled value T, one ``searchsorted`` per
  block counts exactly the entries that can still reach the top N
  (value >= T), and selection runs on that gathered superset alone,
  with scratch bounded by ``REPRO_CANDIDATE_MEM`` (see
  :func:`_plan_chunk`).
* **Packed backpointers.**  The flat pool index *is* the backpointer
  pair ``prev_idx * K_prev + prev_rank``; storing it directly halves the
  dominant allocation at 2^23 versus a ``(idx, rank)`` int32 pair, and
  int32 suffices whenever ``A * K_prev < 2^31``.
* **Step-major vectorized backtrack.**  One fancy-index gather per
  plaintext position recovers all N candidates at once into the
  ``(N, L)`` uint8 :class:`CandidateMatrix`, instead of a per-candidate
  Python walk.

Selection is *canonical*: the N kept extensions are the largest by
``(score desc, flat index asc)``, so the output is a pure function of
the likelihoods — the same bits from either backend, at any thread
count, chunking, pooling, or segmentation.  That order needs comparable
scores, so NaN and +inf log-likelihoods are rejected; -inf (an
impossible pair) is allowed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...errors import CandidateError
from ...rc4 import _native
from .matrix import CandidateMatrix

#: Scratch bytes per pooled score during selection: the float64 negated
#: pool, argpartition's intp index array, and selected-block temporaries.
_SCRATCH_BYTES_PER_CELL = 24

_INT32_MAX = np.iinfo(np.int32).max


@dataclass(frozen=True)
class CandidateList:
    """Ranked plaintext candidates, materialised as ``bytes`` objects.

    The single-byte pipeline (Algorithm 1, the lazy enumerator, brute
    force ground truth) stays on this list form; Algorithm 2 returns the
    array-major :class:`CandidateMatrix` with the same interface.

    Attributes:
        plaintexts: candidate unknown-part byte strings, best first.
        log_likelihoods: matching scores, non-increasing.
    """

    plaintexts: list[bytes]
    log_likelihoods: np.ndarray

    def __len__(self) -> int:
        return len(self.plaintexts)

    def __iter__(self):
        return iter(zip(self.plaintexts, self.log_likelihoods))

    def rank_of(self, plaintext: bytes) -> int | None:
        """0-based rank of ``plaintext``, or None if absent from the list."""
        try:
            return self.plaintexts.index(bytes(plaintext))
        except ValueError:
            return None


def algorithm2(
    log_likelihoods: np.ndarray,
    first_byte: int,
    last_byte: int,
    num_candidates: int,
    *,
    charset: bytes | None = None,
    mem_budget: int | None = None,
) -> CandidateMatrix:
    """Generate the N most likely plaintexts from double-byte estimates.

    Args:
        log_likelihoods: array (L-1, 256, 256); entry (r, mu1, mu2) is the
            log-likelihood that plaintext bytes at positions r, r+1
            (1-indexed) are (mu1, mu2).  L is the unknown length plus two.
        first_byte: the known first byte m1.
        last_byte: the known last byte mL.
        num_candidates: N.
        charset: allowed byte values for the L-2 unknown positions
            (default: all 256).  The known bytes need not be in it.
        mem_budget: peak selection-scratch budget in bytes of the numpy
            fallback (default: the ``REPRO_CANDIDATE_MEM`` configuration
            knob).  Bounds the transient arrays only; the O(A * N)
            scores/backpointer state is inherent to list Viterbi, and the
            native merge needs no selection scratch.

    Returns:
        A :class:`CandidateMatrix` over the L-2 *unknown* bytes (the
        known m1/mL framing is stripped), best first.

    Raises:
        CandidateError: on malformed arguments, or a NaN or +inf
            log-likelihood.
    """
    lam = np.asarray(log_likelihoods, dtype=np.float64)
    if lam.ndim != 3 or lam.shape[1:] != (256, 256):
        raise CandidateError(
            f"log_likelihoods must be (L-1, 256, 256), got {lam.shape}"
        )
    if not np.all(lam < np.inf):
        raise CandidateError("log_likelihoods must not contain NaN or +inf")
    num_steps = lam.shape[0]
    if num_steps < 2:
        raise CandidateError("need at least one unknown byte (L >= 3)")
    if num_candidates < 1:
        raise CandidateError(f"num_candidates must be >= 1, got {num_candidates}")
    if not (0 <= first_byte < 256 and 0 <= last_byte < 256):
        raise CandidateError("first/last bytes must be in 0..255")
    if charset is None:
        alphabet = np.arange(256, dtype=np.intp)
    else:
        if not charset:
            raise CandidateError("charset must be non-empty")
        alphabet = np.asarray(sorted(set(charset)), dtype=np.intp)
    a_size = alphabet.size
    if mem_budget is None:
        from ...config import get_config

        mem_budget = get_config().candidate_mem
    if mem_budget < 1:
        raise CandidateError(f"mem_budget must be >= 1 byte, got {mem_budget}")

    # --- forward pass -----------------------------------------------------
    # scores[s]: (a_size, K_s) partial log-likelihoods, row = ending value,
    # sorted descending along axis 1.  back[s]: (a_size, K_s) packed flat
    # backpointers prev_idx * K_{s-1} + prev_rank; back_k[s] = K_{s-1}.
    scores = lam[0, first_byte, alphabet][:, None]  # K = 1
    back: list[np.ndarray | None] = [None]
    back_k: list[int] = [0]

    for step in range(1, num_steps - 1):
        k_prev = scores.shape[1]
        trans = lam[step][np.ix_(alphabet, alphabet)]  # (from, to)
        k_new = min(num_candidates, a_size * k_prev)
        ptr_dtype = np.int64 if a_size * k_prev > _INT32_MAX else np.int32
        # ext[to, from, rank] = scores[from, rank] + trans[from, to];
        # computed negated so selection never copies the pool again.
        neg_trans_t = np.ascontiguousarray(-trans.T)  # (to, from)
        sel_idx, sel_neg = _extend_topk(scores, neg_trans_t, k_new, mem_budget)
        scores = -sel_neg
        back.append(sel_idx.astype(ptr_dtype, copy=False))
        back_k.append(k_prev)

    # --- final step: ending value fixed to mL -----------------------------
    k_prev = scores.shape[1]
    trans_last = lam[num_steps - 1][alphabet, last_byte]  # (from,)
    k_final = min(num_candidates, a_size * k_prev)
    sel_idx, sel_neg = _extend_topk(
        scores, -trans_last[None, :], k_final, mem_budget
    )
    top = sel_idx[0]
    final_scores = -sel_neg[0]
    from_idx, rank = np.divmod(top, k_prev)

    # --- step-major vectorized backtrack -----------------------------------
    # One gather per plaintext position recovers all N candidates at once.
    length = num_steps - 1
    out = np.empty((top.size, length), dtype=np.uint8)
    alphabet_u8 = alphabet.astype(np.uint8)
    idx, rnk = from_idx, rank
    out[:, length - 1] = alphabet_u8[idx]
    for step in range(num_steps - 2, 0, -1):
        code = back[step][idx, rnk]
        idx, rnk = np.divmod(code, back_k[step])
        out[:, step - 1] = alphabet_u8[idx]
    return CandidateMatrix(matrix=out, log_likelihoods=final_scores)


def _initial_pool_width(k: int, a_size: int, k_prev: int) -> int:
    """Per-block sample width: 2x the even k/A split (so the sampled pool
    holds >= k entries and its k-th value is a usable threshold), capped
    at the full block length."""
    return min(k_prev, max(-(-k // a_size) * 2, 1))


def _extend_topk(
    scores: np.ndarray,
    neg_trans_rows: np.ndarray,
    k: int,
    mem_budget: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Canonical top-k extensions for a batch of ending values.

    For each row r the pool is ``neg_trans_rows[r, b] - scores[b, i]``
    over all blocks b and ranks i (negated scores: smaller is better),
    and the canonical top-k is by ``(value asc, flat index asc)`` with
    flat index ``b * k_prev + i``.

    With the native backend each row is a k-way merge of its sorted
    blocks (:func:`repro.rc4._native.merge_topk`).  The numpy fallback
    is exact threshold pruning: the k-th best value T of a per-block
    sample (the first m entries of every block, which are the per-block
    best because rows of ``scores`` are sorted descending) is a lower
    bound on the true k-th score, so every true top-k entry satisfies
    ``pooled <= T``.  Counting those entries per block is a single
    ``searchsorted``; selection then runs on the gathered superset only.

    Args:
        scores: (A, K_prev) previous lists, rows sorted descending.
        neg_trans_rows: (R, A) negated transition weights into each
            ending value.
        k: entries to keep per row; must satisfy ``k <= A * K_prev``.
        mem_budget: scratch budget in bytes of the numpy fallback (see
            :func:`_plan_chunk`).

    Returns:
        ``(sel_idx, sel_neg)``: (R, k) int64 packed flat backpointers and
        float64 negated scores, best first.
    """
    if _native.available():
        return _native.merge_topk(scores, neg_trans_rows, k)
    a_size, k_prev = scores.shape
    num_rows = neg_trans_rows.shape[0]
    m = _initial_pool_width(k, a_size, k_prev)
    block_ids = np.arange(a_size, dtype=np.intp)
    sel_idx = np.empty((num_rows, k), dtype=np.int64)
    sel_neg = np.empty((num_rows, k), dtype=np.float64)
    chunk = _plan_chunk(a_size, m, mem_budget)
    if m >= k_prev:
        # The sample is the whole pool: select directly, in batches.
        full_orig = (
            block_ids[:, None] * k_prev + np.arange(k_prev, dtype=np.intp)[None, :]
        ).reshape(-1)
        for s in range(0, num_rows, chunk):
            nt = neg_trans_rows[s : s + chunk]
            pool = (nt[:, :, None] - scores[None, :, :]).reshape(nt.shape[0], -1)
            si, sn = _select_desc(pool, full_orig, k, mem_budget)
            sel_idx[s : s + chunk] = si
            sel_neg[s : s + chunk] = sn
        return sel_idx, sel_neg
    neg_scores = -scores  # rows ascending; negation is exact
    for s in range(0, num_rows, chunk):
        nt = neg_trans_rows[s : s + chunk]  # (R_c, A)
        sample = (nt[:, :, None] - scores[None, :, :m]).reshape(nt.shape[0], -1)
        t_neg = np.partition(sample, k - 1, axis=1)[:, k - 1]  # (R_c,)
        # pooled <= t  <=>  scores[b, i] >= nt[b] - t; count per block via
        # one searchsorted on the (shared) ascending negated-score rows.
        thr = nt - t_neg[:, None]  # (R_c, A)
        counts = np.empty(nt.shape, dtype=np.intp)
        for b in range(a_size):
            counts[:, b] = np.searchsorted(neg_scores[b], -thr[:, b], side="right")
        # thr is rounded, so the count can be short by an ulp-boundary
        # entry; blocks are sorted, so checking each block's first
        # excluded pooled value (its best excluded) restores exactness.
        while True:
            first_excl = nt - scores[
                block_ids[None, :], np.minimum(counts, k_prev - 1)
            ]
            viol = (counts < k_prev) & (first_excl <= t_neg[:, None])
            if not viol.any():
                break
            counts[viol] += 1
        for r in range(nt.shape[0]):
            # Ragged gather of the qualifying prefix of every block:
            # O(sum(counts)) regardless of skew across blocks.
            c = counts[r]
            starts = np.cumsum(c) - c
            total = int(starts[-1] + c[-1])
            bid = np.repeat(block_ids, c)
            pos = np.arange(total, dtype=np.intp) - np.repeat(starts, c)
            pool = (nt[r][bid] - scores[bid, pos])[None, :]
            orig = bid * k_prev + pos
            si, sn = _select_desc(pool, orig, k, mem_budget)
            sel_idx[s + r] = si[0]
            sel_neg[s + r] = sn[0]
    return sel_idx, sel_neg


def _plan_chunk(a_size: int, pool_width: int, mem_budget: int) -> int:
    """Ending values per selection batch.

    One batch row materialises ``a_size * pool_width`` pooled scores and
    selection scratch of :data:`_SCRATCH_BYTES_PER_CELL` bytes each, so
    the batch height is ``mem_budget`` divided by that row cost, clamped
    to [1, a_size].  (At chunk 1 a single row may still exceed the
    budget; :func:`_select_desc` then segments along the pool axis.)
    """
    per_row = a_size * pool_width * _SCRATCH_BYTES_PER_CELL
    return max(1, min(a_size, mem_budget // max(per_row, 1)))


def _select_desc(
    neg_values: np.ndarray,
    orig_idx: np.ndarray,
    k: int,
    mem_budget: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Canonical top-k per row of a negated score pool.

    Selects, for every row, the k entries that are largest by
    ``(score desc, original index asc)`` — a total order, so the result
    is independent of how the pool was built or split.  ``orig_idx``
    maps pool columns to original flat indices and must be strictly
    increasing (pool order == index order, which makes the boundary
    tie-break a prefix take).

    Returns:
        ``(sel_idx, sel_neg)``: original indices and negated scores of
        the selected entries, ordered best first.
    """
    n = neg_values.shape[1]
    if k >= n:
        # Stable sort on the negated values orders ties by pool position
        # == original index: already canonical.
        order = np.argsort(neg_values, axis=1, kind="stable")
        return orig_idx[order], np.take_along_axis(neg_values, order, axis=1)
    if neg_values.shape[0] > 1 and n * _SCRATCH_BYTES_PER_CELL > mem_budget:
        picked = [
            _select_desc(neg_values[r : r + 1], orig_idx, k, mem_budget)
            for r in range(neg_values.shape[0])
        ]
        return (
            np.concatenate([p[0] for p in picked]),
            np.concatenate([p[1] for p in picked]),
        )
    seg = max(k, mem_budget // _SCRATCH_BYTES_PER_CELL)
    if n > seg and neg_values.shape[0] == 1:
        # Segmented top-k: the canonical top-k of the union equals the
        # canonical top-k of the per-segment canonical top-k's (any
        # element beaten by k entries within its own segment is beaten
        # by k entries globally).
        parts: list[tuple[np.ndarray, np.ndarray]] = []
        for s in range(0, n, seg):
            parts.append(
                _select_desc(
                    neg_values[:, s : s + seg],
                    orig_idx[s : s + seg],
                    min(k, n - s) if n - s < k else k,
                    mem_budget,
                )
            )
        union_idx = np.concatenate([p[0][0] for p in parts])
        union_neg = np.concatenate([p[1][0] for p in parts])
        merge = np.lexsort((union_idx, union_neg))[:k]
        return union_idx[merge][None, :], union_neg[merge][None, :]

    part = np.argpartition(neg_values, k - 1, axis=1)[:, :k]
    part_neg = np.take_along_axis(neg_values, part, axis=1)
    order = np.lexsort((orig_idx[part], part_neg), axis=1)
    sel = np.take_along_axis(part, order, axis=1)
    sel_neg = np.take_along_axis(part_neg, order, axis=1)
    # argpartition picks an unspecified subset of entries tied with the
    # k-th value; canonicalise those rows to the lowest original indices.
    kth = sel_neg[:, -1]
    eq_pool = (neg_values == kth[:, None]).sum(axis=1)
    eq_sel = (sel_neg == kth[:, None]).sum(axis=1)
    for r in np.nonzero(eq_pool != eq_sel)[0]:
        v = kth[r]
        better = np.nonzero(neg_values[r] < v)[0]
        tied = np.nonzero(neg_values[r] == v)[0][: k - better.size]
        cols = np.concatenate([better, tied])
        row_neg = neg_values[r, cols]
        o = np.lexsort((orig_idx[cols], row_neg))
        sel[r] = cols[o]
        sel_neg[r] = row_neg[o]
    return orig_idx[sel], sel_neg
