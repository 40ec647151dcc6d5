"""Batched HTTPS ciphertext acquisition (paper §6.3 at engine speed).

The §6 statistics only depend on the ciphertext bytes of each request at
the layout's positions, and each request's ciphertext is keystream XOR a
*constant* plaintext template.  So a capture is three vectorized steps,
with no per-request Python loop anywhere:

1. generate a ``(connections, stream_len)`` keystream block per batch
   through :func:`repro.rc4.batch.batch_keystream` (native backend when
   available) — one RC4 instance per simulated TLS connection, streamed
   deep enough to cover ``reconnect_every`` requests per connection, but
   only over the rows the counters read (:func:`keystream_window`);
2. write those rows of every batch up to the next checkpoint into one
   column block;
3. count Fluhrer–McGrew digraph and ABSAB differential cells of the
   block, each victim's plaintext template folded in, with one
   :func:`ingest_keystream_columns` call
   (:func:`repro.datasets.generate.templated_digraph_counts`: a threaded
   native row kernel, or grouped flat bincounts without it) into uint32
   counters.

One :class:`HttpsCaptureSource` serves one victim or a campaign group of
victims sharing a keystream regime: the keystream of step 1 is shared
and only the template fold of step 3 is per victim.

``reconnect_every`` models record churn (§6.3): every connection carries
that many requests before the victim rekeys.  ``reconnect_every=1`` is
the fresh-connection regime of Fig 10 (each request starts at keystream
position 1, where the early-position biases live); larger values reuse
one keystream at record-aligned offsets exactly like the persistent
connection the per-request reference path
(:meth:`repro.tls.attack.CookieStatistics.ingest_fragment`) accepts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from ..config import ReproConfig
from ..datasets.generate import templated_digraph_counts
from ..errors import AttackError, CaptureError
from ..rc4.batch import batch_keystream
from ..rc4.keygen import derive_keys
from ..tls.attack import MAX_CAPTURE_REQUESTS, CookieLayout, CookieStatistics
from ..tls.record import MAC_LEN
from .engine import source_fingerprint
from .multi import VictimSet, victim_axis

#: Bytes of keystream columns one counting call takes at most: a fixed
#: budget, not a knob.  A capture counts every batch up to its next
#: checkpoint in one call, and splits the run only past this.
COLUMN_BUDGET = 64 << 20


def _row_spec(
    layout: CookieLayout, alignments: Sequence[tuple[int, int, str]]
) -> tuple[np.ndarray, np.ndarray, slice]:
    """The counter rows' keystream rows and the window they fall in.

    Row spec: FM rows (digraph at r, r+1), then ABSAB rows (differential
    of the digraph at r against the known digraph at the partner p).
    The window is the smallest ``slice(lo, hi)`` of request rows holding
    every pair (r, r+1) and (p, p+1); ``first`` and ``partner`` index
    rows of that window (``partner < 0``: a plain digraph row).
    """
    base = layout.base_offset
    transitions = layout.transitions()
    first = [r - base for r in transitions]
    partner = [-1] * len(transitions)
    for (t, gap, side) in alignments:
        r = transitions[t]
        first.append(r - base)
        partner.append((r + 2 + gap if side == "after" else r - 2 - gap) - base)
    first = np.asarray(first, dtype=np.intp)
    partner = np.asarray(partner, dtype=np.intp)
    used = np.concatenate([first, partner[partner >= 0]])
    lo, hi = int(used.min()), int(used.max()) + 2
    return first - lo, np.where(partner >= 0, partner - lo, -1), slice(lo, hi)


def keystream_window(layout: CookieLayout, max_gap: int) -> slice:
    """Request rows the §6 counters read, as ``slice(lo, hi)``.

    The smallest range of layout rows covering every Fluhrer–McGrew pair
    ``(r, r+1)`` and every ABSAB partner pair ``(p, p+1)`` up to
    ``max_gap`` — the only keystream bytes a capture needs to generate.
    """
    alignments = CookieStatistics.alignment_keys(layout, max_gap=max_gap)
    return _row_spec(layout, alignments)[2]


def ingest_keystream_columns(
    stats_list: Sequence[CookieStatistics],
    columns: np.ndarray,
    templates: np.ndarray,
    *,
    offset: int = 1,
    threads: int | None = None,
) -> None:
    """Score one keystream column block against many plaintext templates.

    The multi-victim core of the §6 capture: ``columns[k, j]`` is the
    keystream byte at row ``lo + k`` of request ``j``, where
    ``slice(lo, hi)`` is :func:`keystream_window` (or the ciphertext
    byte — any constant XOR folds into the templates), and victim v's
    ciphertext is ``columns[k] ^ templates[v, lo + k]``.  Every
    Fluhrer–McGrew digraph row and every ABSAB differential row of every
    victim goes through one call of
    :func:`~repro.datasets.generate.templated_digraph_counts`, which
    counts into each victim's own uint32
    :class:`~repro.tls.attack.CookieStatistics`.

    Args:
        stats_list: one statistics object per victim; all must share one
            layout and alignment set (same ``max_gap``).
        columns: uint8 ``(hi - lo, n)`` keystream columns of the window.
        templates: uint8 ``(len(stats_list), request_len)`` plaintext
            templates, one row per victim.
        offset: keystream position of each request's first byte,
            congruent to the layout base modulo 256 (the record-padding
            invariant, §6.3).
        threads: native-kernel thread count (``None``: the configured
            default); the counters do not depend on it.

    Raises:
        AttackError: on mismatched shapes or statistics, or before ``n``
            more requests would pass what a victim's counters hold.
    """
    if not stats_list:
        raise AttackError("multi-template ingestion needs at least one victim")
    stats0 = stats_list[0]
    layout = stats0.layout
    if (offset - layout.base_offset) % 256 != 0:
        raise AttackError(
            f"row offset {offset} incompatible with layout base "
            f"{layout.base_offset} modulo 256 — add request padding"
        )
    alignments = list(stats0.absab_counts)
    first, partner, window = _row_spec(layout, alignments)
    height = window.stop - window.start
    if columns.ndim != 2 or columns.shape[0] != height:
        raise AttackError(
            f"columns must be the ({height}, n) keystream window "
            f"{window.start}..{window.stop - 1}, got {columns.shape}"
        )
    templates = np.asarray(templates, dtype=np.uint8)
    if templates.shape != (len(stats_list), layout.request_len):
        raise AttackError(
            f"templates must be ({len(stats_list)}, {layout.request_len}), "
            f"got {templates.shape}"
        )
    for stats in stats_list:
        if stats.layout != layout or list(stats.absab_counts) != alignments:
            raise AttackError(
                "multi-template ingestion needs statistics sharing one "
                "layout and alignment set"
            )
        if stats.fm_counts.dtype != np.uint32:
            raise AttackError(
                "batched ingestion needs uint32 counters (build statistics "
                "with CookieStatistics.empty)"
            )
        # The fm_counts reshape below must be a view, not a copy.
        if not (
            stats.fm_counts.flags.c_contiguous
            and stats.absab_matrix.flags.c_contiguous
        ):
            raise AttackError("batched ingestion needs C-contiguous counters")
        stats.check_room(columns.shape[1])

    templated_digraph_counts(
        columns,
        templates[:, window],
        first,
        partner,
        [
            (stats.fm_counts.reshape(-1, 65536), stats.absab_matrix)
            for stats in stats_list
        ],
        threads=threads,
    )
    for stats in stats_list:
        stats.num_requests += columns.shape[1]


@dataclass(kw_only=True)
class HttpsCaptureSource:
    """Deterministic batched acquisition for the §6 cookie attack.

    One source captures for V >= 1 victims who share a keystream regime
    (request layout and reconnect cadence) and differ only in their
    request plaintext, their secret cookie.  Every batch keeps its own
    keys (``derive_keys(config, f"{label}/batch{i}")``), whatever the
    victims, so victim v's counters equal those of a one-plaintext
    source with the same ``label``.

    The form decides the statistics: without ``victim_ids`` the source
    holds one plaintext and counts into a bare
    :class:`~repro.tls.attack.CookieStatistics`; with ids (a campaign
    group, even of one) it counts into a
    :class:`~repro.capture.multi.VictimSet` of them.

    Args:
        config: run configuration (key derivation seeds).
        layout: the manipulated request layout (§6.1).
        plaintext: one request's plaintext (constant across the
            campaign), exactly ``layout.request_len`` bytes; shorthand
            for ``plaintexts=(plaintext,)``.
        plaintexts: one request plaintext per victim, each exactly
            ``layout.request_len`` bytes.
        victim_ids: empty, or one unique id per plaintext.
        num_requests: requests captured per victim (shared keystream:
            every victim sees every request).
        batch_size: requests per batch; must be a multiple of
            ``reconnect_every`` so batches hold whole connections.
        reconnect_every: requests each connection carries before the
            victim rekeys (1 = fresh connection per request).
        max_gap: ABSAB gap cap (paper: 128).
        record_overhead: keystream bytes between the end of one request
            and the start of the next on a connection (the RC4-SHA
            record MAC).
        label: key-derivation namespace.
    """

    config: ReproConfig
    layout: CookieLayout
    plaintext: bytes | None = None
    plaintexts: tuple[bytes, ...] = ()
    victim_ids: tuple[str, ...] = ()
    num_requests: int
    batch_size: int = 4096
    reconnect_every: int = 1
    max_gap: int = 128
    record_overhead: int = MAC_LEN
    label: str = "https-capture"
    _templates: np.ndarray = field(init=False, repr=False)
    _window: slice = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.plaintexts, self.victim_ids = victim_axis(
            self.plaintext, self.plaintexts, self.victim_ids
        )
        if len(self.plaintexts) == 1:
            self.plaintext = self.plaintexts[0]
        for index, plaintext in enumerate(self.plaintexts):
            if len(plaintext) != self.layout.request_len:
                raise CaptureError(
                    f"plaintext {index} is {len(plaintext)} bytes, layout "
                    f"expects {self.layout.request_len}"
                )
        if not 1 <= self.num_requests <= MAX_CAPTURE_REQUESTS:
            raise CaptureError(
                f"num_requests must be in 1..{MAX_CAPTURE_REQUESTS} (uint32 "
                f"counters), got {self.num_requests}"
            )
        if self.reconnect_every < 1:
            raise CaptureError(
                f"reconnect_every must be >= 1, got {self.reconnect_every}"
            )
        if self.batch_size < 1 or self.batch_size % self.reconnect_every:
            raise CaptureError(
                f"batch_size ({self.batch_size}) must be a positive multiple "
                f"of reconnect_every ({self.reconnect_every})"
            )
        if self.reconnect_every > 1 and self._stride % 256 != 0:
            raise CaptureError(
                f"record stride {self._stride} must be a multiple of 256 for "
                "multi-request connections — add request padding (§6.3)"
            )
        self._templates = np.stack(
            [np.frombuffer(p, dtype=np.uint8) for p in self.plaintexts]
        )
        self._window = keystream_window(self.layout, self.max_gap)

    @property
    def _stride(self) -> int:
        """Keystream bytes consumed per request on a connection."""
        return self.layout.request_len + self.record_overhead

    @property
    def num_batches(self) -> int:
        return -(-self.num_requests // self.batch_size)

    @property
    def total_requests(self) -> int:
        return self.num_requests * len(self.plaintexts)

    def descriptor(self) -> dict:
        """JSON-safe record of every input that decides the counters.

        This is exactly what :meth:`fingerprint` hashes (only the seed
        rides along from the config — native-backend knobs cannot affect
        the counters).  A source with victim ids records kind
        ``multi-https-capture`` and its ``templates``.
        """
        descriptor = {
            "kind": "https-capture",
            "seed": self.config.seed,
            "label": self.label,
            "layout": self.layout.to_meta(),
            "num_requests": self.num_requests,
            "batch_size": self.batch_size,
            "reconnect_every": self.reconnect_every,
            "max_gap": self.max_gap,
            "record_overhead": self.record_overhead,
        }
        if self.victim_ids:
            descriptor["kind"] = "multi-https-capture"
            descriptor["templates"] = [
                p.decode("latin-1") for p in self.plaintexts
            ]
            descriptor["victim_ids"] = list(self.victim_ids)
        else:
            descriptor["plaintext"] = self.plaintext.decode("latin-1")
        return descriptor

    def fingerprint(self) -> str:
        return source_fingerprint(self.descriptor())

    def empty(self) -> CookieStatistics | VictimSet:
        bare = [
            CookieStatistics.empty(self.layout, max_gap=self.max_gap)
            for _ in self.plaintexts
        ]
        return VictimSet(self.victim_ids, bare) if self.victim_ids else bare[0]

    def load(
        self, path: str | Path
    ) -> tuple[CookieStatistics | VictimSet, dict]:
        if self.victim_ids:
            return VictimSet.load(path, CookieStatistics)
        return CookieStatistics.load(path)

    def capture_batch(
        self, stats: CookieStatistics | VictimSet, index: int
    ) -> int:
        """One batch on its own: :meth:`capture_batches` of ``[index]``."""
        return self.capture_batches(stats, [index])[0]

    def capture_batches(
        self,
        stats: CookieStatistics | VictimSet,
        indices: Sequence[int],
    ) -> list[int]:
        """Windowed keystream of each batch -> one column block -> count.

        Every batch generates only the :func:`keystream_window` rows of
        its requests; the batches' rows go into one column block,
        counted for every victim by one :func:`ingest_keystream_columns`
        call per :data:`COLUMN_BUDGET` bytes.  Integer addition
        commutes, so the counters equal batch-by-batch counting for any
        grouping.

        Returns:
            The requests each batch added over all victims, in order.
        """
        counts = []
        for index in indices:
            if not 0 <= index < self.num_batches:
                raise CaptureError(f"batch {index} is beyond the campaign")
            first = index * self.batch_size
            counts.append(min(self.batch_size, self.num_requests - first))
        if not counts:
            return counts
        victims = stats.members if self.victim_ids else [stats]
        window = self._window
        height = window.stop - window.start
        per_conn = self.reconnect_every
        stride = self._stride
        config = self.config
        # A batch is never split: the block holds at least the largest one.
        capacity = max(max(counts), COLUMN_BUDGET // height)
        block = np.empty((height, min(capacity, sum(counts))), dtype=np.uint8)
        filled = 0

        def count_block() -> None:
            ingest_keystream_columns(
                victims,
                block[:, :filled],
                self._templates,
                offset=self.layout.base_offset,
                threads=config.native_threads,
            )

        for index, count in zip(indices, counts):
            if filled + count > block.shape[1]:
                count_block()
                filled = 0
            keys = derive_keys(
                config, f"{self.label}/batch{index}", -(-count // per_conn)
            )
            stream = batch_keystream(
                keys, (per_conn - 1) * stride + height, drop=window.start,
                threads=config.native_threads, simd=config.native_simd,
            )
            # Request q of every connection: with more than one request per
            # connection the stride is a multiple of 256, so every request
            # shares the layout base's PRGA counters and one block holds all.
            for q in range(per_conn):
                # Connections whose q-th request exists (the final connection
                # of the final batch may carry fewer than per_conn requests).
                rows = -(-(count - q) // per_conn)
                if rows <= 0:
                    break
                block[:, filled : filled + rows] = stream[
                    :rows, q * stride : q * stride + height
                ].T
                filled += rows
        count_block()
        return [count * len(self.plaintexts) for count in counts]
