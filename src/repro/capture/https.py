"""Batched HTTPS ciphertext acquisition (paper §6.3 at engine speed).

The §6 statistics only depend on the ciphertext bytes of each request at
the layout's positions, and each request's ciphertext is keystream XOR a
*constant* plaintext template.  So a capture batch is three vectorized
steps, with no per-request Python loop anywhere:

1. generate a ``(connections, stream_len)`` keystream block through
   :func:`repro.rc4.batch.batch_keystream` (native backend when
   available) — one RC4 instance per simulated TLS connection, streamed
   deep enough to cover ``reconnect_every`` requests per connection;
2. XOR the broadcast plaintext template;
3. count Fluhrer–McGrew digraph and ABSAB differential cells with
   :func:`repro.datasets.generate.templated_digraph_counts` (a threaded
   native row kernel, or grouped flat bincounts without it).

``reconnect_every`` models record churn (§6.3): every connection carries
that many requests before the victim rekeys.  ``reconnect_every=1`` is
the fresh-connection regime of Fig 10 (each request starts at keystream
position 1, where the early-position biases live); larger values reuse
one keystream at record-aligned offsets exactly like the persistent
connection the per-request reference path
(:meth:`repro.tls.attack.CookieStatistics.ingest_fragment`) accepts.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from ..config import ReproConfig
from ..errors import AttackError, CaptureError
from ..rc4.batch import batch_keystream
from ..rc4.keygen import derive_keys
from ..tls.attack import CookieLayout, CookieStatistics
from ..tls.record import MAC_LEN
from ..utils.serialization import canonical_json
from .multi import ingest_keystream_columns


def ingest_cipher_rows(
    stats: CookieStatistics, rows: np.ndarray, offset: int = 1
) -> None:
    """Vectorized equivalent of per-row ``ingest_fragment`` calls.

    A single-victim facade over the multi-template core
    (:func:`repro.capture.multi.ingest_keystream_columns`): ciphertext
    rows are keystream rows with the template already folded in, so the
    zero template reproduces the historical counts bit-exactly.

    Args:
        stats: the statistics to accumulate into (its ``absab_matrix``
            backing store must be present — :meth:`CookieStatistics.empty`
            always builds it).
        rows: uint8 ciphertext rows ``(n, >= request_len)``; row k is one
            encrypted request starting at keystream position ``offset``.
        offset: keystream position of column 0, congruent to the layout
            base modulo 256 (the record-padding invariant, §6.3).
    """
    layout = stats.layout
    if (offset - layout.base_offset) % 256 != 0:
        raise AttackError(
            f"row offset {offset} incompatible with layout base "
            f"{layout.base_offset} modulo 256 — add request padding"
        )
    if rows.ndim != 2 or rows.shape[1] < layout.request_len:
        raise AttackError(
            f"rows must be (n, >= {layout.request_len}), got {rows.shape}"
        )
    if stats.absab_matrix is None:
        raise AttackError(
            "batched ingestion needs the absab_matrix backing store "
            "(build statistics with CookieStatistics.empty)"
        )
    columns = np.ascontiguousarray(rows.T)
    template = np.zeros((1, layout.request_len), dtype=np.uint8)
    ingest_keystream_columns([stats], columns, template, offset=offset)


@dataclass
class HttpsCaptureSource:
    """Deterministic batched acquisition for the §6 cookie attack.

    Args:
        config: run configuration (key derivation seeds).
        layout: the manipulated request layout (§6.1).
        plaintext: one request's plaintext (constant across the
            campaign) — exactly ``layout.request_len`` bytes.
        num_requests: campaign total.
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
    plaintext: bytes
    num_requests: int
    batch_size: int = 4096
    reconnect_every: int = 1
    max_gap: int = 128
    record_overhead: int = MAC_LEN
    label: str = "https-capture"
    _plaintext_arr: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.plaintext) != self.layout.request_len:
            raise CaptureError(
                f"plaintext is {len(self.plaintext)} bytes, layout expects "
                f"{self.layout.request_len}"
            )
        if self.num_requests < 1:
            raise CaptureError(
                f"num_requests must be positive, got {self.num_requests}"
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
        self._plaintext_arr = np.frombuffer(self.plaintext, dtype=np.uint8)

    @property
    def _stride(self) -> int:
        """Keystream bytes consumed per request on a connection."""
        return self.layout.request_len + self.record_overhead

    @property
    def num_batches(self) -> int:
        return -(-self.num_requests // self.batch_size)

    @property
    def total_requests(self) -> int:
        return self.num_requests

    def descriptor(self) -> dict:
        """JSON-safe record sufficient to rebuild this source bit-exactly.

        This is exactly what :meth:`fingerprint` hashes, and what a fleet
        manifest ships to workers on other machines (only the seed rides
        along from the config — native-backend knobs stay per-worker and
        cannot affect the counters).
        """
        return {
            "kind": "https-capture",
            "seed": self.config.seed,
            "label": self.label,
            "layout": {
                "prefix": self.layout.prefix.decode("latin-1"),
                "suffix": self.layout.suffix.decode("latin-1"),
                "cookie_len": self.layout.cookie_len,
                "base_offset": self.layout.base_offset,
            },
            "plaintext": self.plaintext.decode("latin-1"),
            "num_requests": self.num_requests,
            "batch_size": self.batch_size,
            "reconnect_every": self.reconnect_every,
            "max_gap": self.max_gap,
            "record_overhead": self.record_overhead,
        }

    @classmethod
    def from_descriptor(
        cls, descriptor: dict, config: ReproConfig
    ) -> "HttpsCaptureSource":
        """Rebuild a source from :meth:`descriptor` output.

        ``config`` supplies the local backend knobs; its seed is
        overridden by the descriptor's so the keystreams match the
        originating campaign.
        """
        if descriptor.get("kind") != "https-capture":
            raise CaptureError(
                f"descriptor kind {descriptor.get('kind')!r} is not "
                "'https-capture'"
            )
        layout = descriptor["layout"]
        return cls(
            config=replace(config, seed=int(descriptor["seed"])),
            layout=CookieLayout(
                prefix=layout["prefix"].encode("latin-1"),
                suffix=layout["suffix"].encode("latin-1"),
                cookie_len=int(layout["cookie_len"]),
                base_offset=int(layout["base_offset"]),
            ),
            plaintext=descriptor["plaintext"].encode("latin-1"),
            num_requests=int(descriptor["num_requests"]),
            batch_size=int(descriptor["batch_size"]),
            reconnect_every=int(descriptor["reconnect_every"]),
            max_gap=int(descriptor["max_gap"]),
            record_overhead=int(descriptor["record_overhead"]),
            label=str(descriptor["label"]),
        )

    def fingerprint(self) -> str:
        payload = canonical_json(self.descriptor()).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()

    def empty(self) -> CookieStatistics:
        return CookieStatistics.empty(self.layout, max_gap=self.max_gap)

    def load(self, path: str | Path) -> tuple[CookieStatistics, dict]:
        return CookieStatistics.load(path)

    def capture_batch(self, stats: CookieStatistics, index: int) -> int:
        """One batch: keystream block -> XOR template -> count cells."""
        first = index * self.batch_size
        count = min(self.batch_size, self.num_requests - first)
        if count <= 0:
            raise CaptureError(f"batch {index} is beyond the campaign")
        per_conn = self.reconnect_every
        connections = -(-count // per_conn)
        keys = derive_keys(
            self.config, f"{self.label}/batch{index}", connections
        )
        length = (per_conn - 1) * self._stride + self.layout.request_len
        stream = batch_keystream(
            keys, length, threads=self.config.native_threads,
            simd=self.config.native_simd,
        )
        # One transpose for the whole block; each request window is a
        # column view and the template folds into the counting kernel's
        # per-row constants (bit-identical to XOR-then-count).
        columns = np.ascontiguousarray(stream.T)
        template = self._plaintext_arr[np.newaxis, :]
        for q in range(per_conn):
            # Connections whose q-th request exists (the final connection
            # of the final batch may carry fewer than per_conn requests).
            rows = -(-(count - q) // per_conn)
            if rows <= 0:
                break
            start = q * self._stride
            window = columns[
                start : start + self.layout.request_len, :rows
            ]
            ingest_keystream_columns(
                [stats],
                window,
                template,
                offset=self.layout.base_offset + start,
                threads=self.config.native_threads,
            )
        return count
