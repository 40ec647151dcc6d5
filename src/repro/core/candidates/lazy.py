"""Lazy best-first candidate enumeration (memory-light Algorithm 1).

Algorithm 1 materialises N candidates per position.  When the consumer
stops early — the TKIP attack walks the list only until the first
candidate with a valid CRC (paper §5.3) — a streaming enumerator is
preferable.  Single-byte likelihoods are separable, so enumerating
plaintexts in decreasing likelihood is the classic problem of enumerating
sums over L sorted lists.

We run best-first search over the index lattice: a candidate is a vector
v of per-position ranks (v_r = 0 means the best byte at position r); its
score is ``sum_r sorted_loglik[r][v_r]``, monotone non-increasing along
lattice edges.  Duplicates are avoided with the standard canonical-parent
rule: a child may only increment positions >= the last incremented one.

The frontier is a binary heap ordered by (score descending, rank vector
bytewise ascending); rank vectors are unique, so the order is total and
the pop sequence does not depend on the heap's layout.  Two backends
walk it, chosen when the walk starts:

- the native kernel (:func:`repro.rc4._native.lazy_walk`), which pops
  one block per call from a heap of packed entries (score, first
  incrementable position, ``uint8`` ranks; 24 bytes at L = 12) in a
  numpy buffer this module owns and doubles as the frontier grows;
- a ``heapq`` loop over ``(-score, packed ranks, position)`` tuples, the
  ``REPRO_NATIVE=0`` fallback.

Both compute a child's score as ``(parent - sorted[p][r]) +
sorted[p][r + 1]`` in IEEE double, in that order, so they yield the same
rows and score bits in the same order (cross-checked by tests).  NaN and
+inf log-likelihoods are rejected; a ``-inf`` candidate's children score
``-inf``.  :func:`lazy_candidate_blocks` materialises plaintext bytes in
``(block, L)`` matrix blocks for batched consumers (the vectorized CRC
window of the TKIP attack).  :func:`lazy_candidates` is the per-item
view of the same stream.

The stream yields exactly the same ordering as Algorithm 1 (cross-checked
by tests), with O(popped * L) heap memory.
"""

from __future__ import annotations

import heapq
from typing import Iterator

import numpy as np

from ...errors import CandidateError
from ...rc4 import _native

#: Default rows per yielded block: big enough to amortise the numpy
#: calls, small enough that early-stopping consumers over-enumerate at
#: most a few hundred candidates past their hit.
DEFAULT_BLOCK_SIZE = 256


def lazy_candidate_blocks(
    log_likelihoods: np.ndarray,
    *,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield blocks of plaintexts in decreasing likelihood, lazily.

    Args:
        log_likelihoods: array (L, 256) of per-position log-likelihoods.
        block_size: maximum rows per yielded block (>= 1).

    Yields:
        ``(plaintexts, log_likelihoods)`` pairs: a uint8 (B, L) matrix
        of candidate rows and their float64 (B,) scores, best first —
        concatenating the blocks reproduces the exact global ordering
        (ties broken by rank vector, so the order is reproducible).
        Each block owns its arrays.

    Raises:
        CandidateError: on a malformed shape or block size, or a NaN or
            +inf log-likelihood (before the first block).  ``-inf`` is
            allowed: a candidate scoring ``-inf`` has children scoring
            ``-inf``.
    """
    lam = np.asarray(log_likelihoods, dtype=np.float64)
    if lam.ndim != 2 or lam.shape[1] != 256:
        raise CandidateError(f"log_likelihoods must be (L, 256), got {lam.shape}")
    if not np.all(lam < np.inf):
        raise CandidateError("log_likelihoods must not contain NaN or +inf")
    if block_size < 1:
        raise CandidateError(f"block_size must be >= 1, got {block_size}")
    length = lam.shape[0]
    # Per position: byte values sorted by decreasing likelihood.
    order = np.argsort(-lam, axis=1, kind="stable")
    sorted_lam = np.take_along_axis(lam, order, axis=1)
    order_bytes = order.astype(np.uint8)
    columns = np.arange(length)
    best_score = float(sorted_lam[:, 0].sum())
    walk = _native_walk if _native.available() else _heapq_walk
    for ranks, scores in walk(sorted_lam, best_score, block_size):
        yield order_bytes[columns[None, :], ranks], scores


def _native_walk(
    sorted_lam: np.ndarray, best_score: float, block_size: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Rank blocks of the walk from the native kernel.

    The heap is a numpy buffer of :func:`repro.rc4._native.lazy_walk_dtype`
    entries that this generator owns; before each call it makes room for
    the block's pops and their children, doubling when it has to.  The
    ranks buffer is reused (the caller gathers it into fresh rows), the
    scores are not.
    """
    length = sorted_lam.shape[0]
    room = block_size * length
    heap = np.zeros(1 + room, dtype=_native.lazy_walk_dtype(length))
    heap["score"][0] = best_score
    size = 1
    ranks = np.empty((block_size, length), dtype=np.uint8)
    while size:
        if size + room > heap.shape[0]:
            grown = np.empty(max(2 * heap.shape[0], size + room), heap.dtype)
            grown[:size] = heap[:size]
            heap = grown
        scores = np.empty(block_size, dtype=np.float64)
        popped, size = _native.lazy_walk(sorted_lam, heap, size, ranks, scores)
        yield ranks[:popped], scores[:popped]


def _heapq_walk(
    sorted_lam: np.ndarray, best_score: float, block_size: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Rank blocks of the walk from a ``heapq`` loop (``REPRO_NATIVE=0``)."""
    length = sorted_lam.shape[0]
    columns = np.arange(length)
    # Heap entries: (-score, packed ranks, min_child_position).  The
    # packed uint8 ranks compare lexicographically exactly like the
    # equivalent rank tuples, preserving the deterministic tie-break.
    heap: list[tuple[float, bytes, int]] = [(-best_score, bytes(length), 0)]
    while heap:
        neg_scores: list[float] = []
        popped_ranks: list[bytes] = []
        while heap and len(popped_ranks) < block_size:
            neg_score, ranks, min_pos = heapq.heappop(heap)
            neg_scores.append(neg_score)
            popped_ranks.append(ranks)
            # Children must be on the heap before the next pop: the
            # immediate successor of a candidate may be its own child.
            rank_row = np.frombuffer(ranks, dtype=np.uint8)
            positions = columns[min_pos:][rank_row[min_pos:] < 255]
            if not positions.size:
                continue
            if neg_score == np.inf:
                # -inf - -inf would be NaN: a -inf candidate's children
                # are -inf too.
                child_scores = np.full(positions.size, -np.inf)
            else:
                current = sorted_lam[positions, rank_row[positions]]
                bumped = sorted_lam[positions, rank_row[positions] + 1]
                child_scores = (-neg_score - current) + bumped
            for child_neg, pos in zip(-child_scores, positions.tolist()):
                child = ranks[:pos] + bytes((ranks[pos] + 1,)) + ranks[pos + 1 :]
                heapq.heappush(heap, (child_neg, child, pos))
        ranks_block = np.frombuffer(
            b"".join(popped_ranks), dtype=np.uint8
        ).reshape(len(popped_ranks), length)
        yield ranks_block, -np.asarray(neg_scores, dtype=np.float64)


def lazy_candidates(
    log_likelihoods: np.ndarray,
) -> Iterator[tuple[bytes, float]]:
    """Yield plaintexts in decreasing likelihood, lazily.

    Per-item view of :func:`lazy_candidate_blocks` (the stream computes
    up to one block beyond an early-stopping consumer's last item).

    Args:
        log_likelihoods: array (L, 256) of per-position log-likelihoods.

    Yields:
        ``(plaintext, log_likelihood)`` pairs, best first.  Ties are
        broken deterministically (by index vector) so the order is
        reproducible.
    """
    for rows, scores in lazy_candidate_blocks(log_likelihoods):
        for row, score in zip(rows, scores):
            yield row.tobytes(), float(score)
