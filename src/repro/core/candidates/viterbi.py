"""Algorithm 2: N-best plaintexts from double-byte likelihoods (paper §4.4).

The paper models double-byte likelihoods as a first-order
time-inhomogeneous hidden Markov model (states = byte values, transition
weight at step r = lambda_{r, mu1, mu2}) and observes that generating the
N most likely plaintexts is N-best Viterbi decoding (list Viterbi).  As
in the paper, the first and last plaintext bytes (m1, mL) are known, and
the inner loops range only over an allowed character set — the RFC 6265
cookie-charset restriction of §6.2 that tightens the ciphertext bound.

The "simplest form" of list Viterbi the paper describes keeps the N best
partial plaintexts for every ending value at every step: O(A * N * L)
scores, about 65 GiB for a 16-character cookie at N = 2^23 (the paper's
full Fig 10 budget).  This module computes the same lists lazily (Huang
and Chiang, "Better k-best parsing", IWPT 2005, Algorithm 3):

* A *node* is a (step, ending value) pair.  One vectorised Viterbi pass
  gives every node its best partial plaintext, rank 0.
* A node computes its next partial plaintext only when a node of the
  next step asks for it.  It pops that from a frontier heap holding, for
  each predecessor, the best extension not yet taken; the successor of
  the popped extension (same predecessor, next rank) is pushed only
  when the node is next asked for a rank.  Asking may walk back through
  the steps, on an explicit stack so that any L works.
* Each node stores the extensions asked of it in compact arrays (a
  float64 score, a uint8 predecessor index and a uint32 predecessor
  rank), a few per output candidate in all, so N = 2^23 fits in about a
  gigabyte.
* A step-major backtrack gathers all N rows per plaintext position into
  the ``(N, L)`` uint8 :class:`CandidateMatrix`.

The lazy lists have two engines, chosen per call: a single-threaded C
engine (:func:`repro.rc4._native.lazy_lists`, N below 2^32) and the
Python engine of :func:`_lazy_lists` (``heapq`` frontiers), the
``REPRO_NATIVE=0`` fallback.  The C engine takes the same steps: the
same frontiers, sifted as ``heapq`` sifts them, and the same
arithmetic.  The rank-0 pass and the backtrack are numpy for both.  At
paper shape (16 unknown bytes, N = 2^23) the C engine takes about 6 s
and the Python engine about 70 s.  Either engine raises
:class:`CandidateError` if its lists cannot be allocated.

The order is *canonical*: a node's extensions come out by ``(score desc,
flat index asc)``, the flat index being ``pred * K_prev + rank``, which
is the heap's tuple order on ``(pooled, pred, rank)`` with ``pooled =
neg_trans - score_prev`` (-0.0 and +0.0 tie and fall to the index).  A
score is stored as ``-pooled``, never recomputed as ``score_prev +
trans``, which would flip the sign of some zero scores.  So the output is
a pure function of the likelihoods.  That order needs comparable scores,
so NaN and +inf log-likelihoods are rejected; -inf (an impossible pair)
is allowed.
"""

from __future__ import annotations

from array import array
from heapq import heapify, heappop, heappushpop
from itertools import repeat
from typing import Iterator

import numpy as np

from ...errors import CandidateError
from ...rc4 import _native
from .matrix import CandidateMatrix


def algorithm2(
    log_likelihoods: np.ndarray,
    first_byte: int,
    last_byte: int,
    num_candidates: int,
    *,
    charset: bytes | None = None,
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

    Returns:
        A :class:`CandidateMatrix` over the L-2 *unknown* bytes (the
        known m1/mL framing is stripped), best first.

    Raises:
        CandidateError: on malformed arguments, a NaN or +inf
            log-likelihood, or lists that cannot be allocated.
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

    # Ending values per step: the unknown positions range over the
    # alphabet; the last step's single node ends on mL.
    ends = [alphabet] * (num_steps - 1) + [np.array([last_byte])]

    # --- rank 0 of every node: one vectorised Viterbi pass ------------------
    # best[s][v]: the best partial score ending in ends[s][v]; arg[s][v]: its
    # predecessor index at step s - 1 (argmin keeps the lowest on ties).
    best = [lam[0, first_byte, alphabet]]
    arg = [np.zeros(alphabet.size, dtype=np.uint8)]
    for step in range(1, num_steps):
        pooled = -lam[step][np.ix_(alphabet, ends[step])].T - best[-1]
        pred = np.argmin(pooled, axis=1)
        best.append(-pooled[np.arange(pred.size), pred])
        arg.append(pred.astype(np.uint8))

    if _native.available() and num_candidates < 1 << 32:
        lists = _native_lists(lam, alphabet, ends, best, arg, num_candidates)
    else:
        lists = _python_lists(lam, alphabet, ends, best, arg, num_candidates)

    # --- step-major vectorized backtrack -------------------------------------
    # One gather per plaintext position recovers all N candidates at once.
    length = num_steps - 1
    final_scores = next(lists)
    pred, rank, _ = next(lists)
    out = np.empty((final_scores.size, length), dtype=np.uint8)
    alphabet_u8 = alphabet.astype(np.uint8)
    out[:, length - 1] = alphabet_u8[pred]
    for step, (preds, ranks, starts) in zip(range(length - 1, 0, -1), lists):
        flat = starts[pred] + rank
        pred, rank = preds[flat], ranks[flat]
        out[:, step - 1] = alphabet_u8[pred]
    return CandidateMatrix(matrix=out, log_likelihoods=final_scores)


def _native_lists(
    lam: np.ndarray,
    alphabet: np.ndarray,
    ends: list[np.ndarray],
    best: list[np.ndarray],
    arg: list[np.ndarray],
    n: int,
) -> Iterator:
    """The lazy lists from the C engine (:func:`repro.rc4._native.lazy_lists`):
    the top node's scores, then each step's ``(preds, ranks, starts)``
    from the top step down, as :func:`_python_lists` yields them."""
    if lam.strides[1:] != (2048, 8):
        lam = np.ascontiguousarray(lam)
    best_rows = np.zeros((len(ends), alphabet.size), dtype=np.float64)
    arg_rows = np.zeros(best_rows.shape, dtype=np.uint8)
    for step, (b, a) in enumerate(zip(best, arg)):
        best_rows[step, : b.size] = b
        arg_rows[step, : a.size] = a
    return _native.lazy_lists(
        lam, alphabet.astype(np.uint8), int(ends[-1][0]), best_rows, arg_rows, n
    )


def _python_lists(
    lam: np.ndarray,
    alphabet: np.ndarray,
    ends: list[np.ndarray],
    best: list[np.ndarray],
    arg: list[np.ndarray],
    n: int,
) -> Iterator:
    """The lazy lists from :func:`_lazy_lists` (the ``REPRO_NATIVE=0``
    engine): the top node's scores, then each step's ``(preds, ranks,
    starts)`` (see :func:`_flatten`) from the top step down."""
    try:
        levels = _lazy_lists(lam, alphabet, ends, best, arg, n)
    except MemoryError:
        raise CandidateError(
            f"Algorithm 2 ran out of memory for its lists at N = {n}"
        ) from None
    top = len(ends) - 1
    final = levels[top][0]
    if final is None:
        yield best[top].copy()
    else:
        yield np.frombuffer(final.scores, dtype=np.float64).copy()
    for step in range(top, 0, -1):
        yield _flatten(levels[step], arg[step])


class _Node:
    """The extensions one (step, ending value) node has been asked for."""

    __slots__ = (
        "step", "prev", "scores", "preds", "ranks", "frontier",
        "neg_trans", "done",
    )


def _lazy_lists(
    lam: np.ndarray,
    alphabet: np.ndarray,
    ends: list[np.ndarray],
    best: list[np.ndarray],
    arg: list[np.ndarray],
    n: int,
) -> list[list[_Node | None]]:
    """Ask the last step's node for up to ``n`` extensions.

    Returns, per step, the list of its nodes: a :class:`_Node` once the
    node has been asked past rank 0, else None (its only extension is
    ``best``/``arg``).  Every step-0 node is one shared exhausted node.
    """
    # A node is asked for rank j only after a node of the next step popped
    # its rank j - 1 and was asked for more, so no node holds more than n
    # extensions and a rank fits in 32 bits while n does.
    rank_code = "I" if n < 1 << 32 else "q"
    start = _Node()
    start.scores = ()
    start.done = True
    levels = [[start] * alphabet.size] + [[None] * len(end) for end in ends[1:]]

    def expand(step: int, v: int) -> _Node:
        # First ask past rank 0: the frontier holds every other
        # predecessor's rank 0; the successor of rank 0 is pushed below.
        node = levels[step][v] = _Node()
        row = -lam[step][alphabet, ends[step][v]]
        first = int(arg[step][v])
        pooled = (row - best[step - 1]).tolist()
        node.frontier = list(zip(pooled, range(len(pooled)), repeat(0)))
        del node.frontier[first]
        heapify(node.frontier)
        node.neg_trans = row.tolist()
        node.scores = array("d", [best[step][v]])
        node.preds = array("B", [first])
        node.ranks = array(rank_code, [0])
        node.step = step
        node.prev = levels[step - 1]
        node.done = False
        return node

    top = len(ends) - 1
    if n > 1:
        expand(top, 0)
    for _ in range(n - 1):
        stack = [levels[top][0]]
        while stack:
            node = stack[-1]
            b = node.preds[-1]
            r = node.ranks[-1] + 1
            pred = node.prev[b]
            if pred is None:
                stack.append(expand(node.step - 1, b))
                continue
            if len(pred.scores) > r:
                entry = heappushpop(
                    node.frontier, (node.neg_trans[b] - pred.scores[r], b, r)
                )
            elif not pred.done:
                stack.append(pred)
                continue
            elif node.frontier:
                entry = heappop(node.frontier)
            else:
                node.done = True
                stack.pop()
                continue
            node.scores.append(-entry[0])
            node.preds.append(entry[1])
            node.ranks.append(entry[2])
            stack.pop()
        if levels[top][0].done:
            break
    return levels


def _flatten(
    nodes: list[_Node | None], arg: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One step's extensions concatenated across its nodes, in node order.

    Returns ``(preds, ranks, starts)``: the predecessor indices and ranks
    of every stored extension, and each node's offset into them.
    """
    preds, ranks, counts = [], [], []
    for v, node in enumerate(nodes):
        if node is None:
            preds.append(arg[v : v + 1])
            ranks.append(np.zeros(1, dtype=np.uint32))
        else:
            preds.append(np.frombuffer(node.preds, dtype=np.uint8))
            ranks.append(np.frombuffer(node.ranks, dtype=node.ranks.typecode))
        counts.append(preds[-1].size)
    counts = np.asarray(counts)
    return np.concatenate(preds), np.concatenate(ranks), np.cumsum(counts) - counts
