"""Multi-template capture: one keystream batch scored against many victims.

A campaign over N victims who share a keystream *regime* (same browser
layout and reconnect cadence on the TLS side; same packets-per-TSC
budget on the TKIP side) differs per victim only in the plaintext
template — the cookie bytes, or the MIC/ICV of the injected packet.
Ciphertext is ``keystream XOR template``, so the expensive part of a
capture batch (RC4 keystream generation) is shared and only the cheap
template fold is per-victim:

- **HTTPS** (:func:`~repro.capture.https.ingest_keystream_columns`):
  the ABSAB differential ``C[r] ^ C[p] = (Z[r] ^ Z[p]) ^ (T[r] ^ T[p])``
  is the keystream differential XOR a *scalar* template differential per
  alignment, and a Fluhrer–McGrew digraph row likewise folds its
  template into one 16-bit constant.  Every row of every victim goes
  through :func:`~repro.datasets.generate.templated_digraph_counts`: a
  threaded native kernel counting each row straight into its uint32
  counters, or the numpy fallback sharing keystream differential blocks
  across victims.  The batches up to each checkpoint share one such
  call (:func:`~repro.capture.https.count_https_batches`).
- **TKIP** (:class:`MultiTkipStatistics`): XOR with a constant permutes
  the 256 histogram bins, so the shared keystream columns are bincounted
  once (:func:`~repro.datasets.generate.bytewise_row_counts`) and every
  victim *gathers* that base histogram through its template's per-row
  permutation (:func:`~repro.datasets.generate.templated_row_counts`) —
  O(P·n + V·P·256) instead of O(V·P·n).

Both paths produce counters (uint32 for HTTPS, int64 for TKIP)
bit-identical to N independent single-template captures run with the
same key-derivation label (`tests/test_campaign.py` holds this
cell-for-cell on both ``REPRO_NATIVE`` legs); the single-victim
:class:`~repro.capture.https.HttpsCaptureSource` is the V=1 case of the
same kernel.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from ..config import ReproConfig
from ..datasets.generate import templated_row_counts
from ..errors import AttackError, CaptureError
from ..rc4.batch import batch_keystream
from ..tkip.injection import CaptureSet
from ..tkip.keymix import simplified_key_batch
from ..tls.attack import (
    MAX_CAPTURE_REQUESTS,
    CookieLayout,
    CookieStatistics,
    capture_counters,
)
from ..tls.record import MAC_LEN
from ..utils.serialization import canonical_json
from .https import count_https_batches, keystream_window


def _layout_meta(layout: CookieLayout) -> dict:
    return {
        "prefix": layout.prefix.decode("latin-1"),
        "suffix": layout.suffix.decode("latin-1"),
        "cookie_len": layout.cookie_len,
        "base_offset": layout.base_offset,
    }


def _layout_from_meta(fields: dict) -> CookieLayout:
    return CookieLayout(
        prefix=fields["prefix"].encode("latin-1"),
        suffix=fields["suffix"].encode("latin-1"),
        cookie_len=int(fields["cookie_len"]),
        base_offset=int(fields["base_offset"]),
    )


@dataclass
class MultiTemplateStatistics:
    """Per-victim :class:`CookieStatistics` behind one statistics facade.

    Implements the :class:`repro.capture.SufficientStatistics` protocol
    (snapshot / exact merge of the uint32 counters / canonical-JSON
    summary / one-NPZ persistence), so multi-victim captures shard,
    checkpoint, and fleet exactly like single-victim ones.  Victim v's
    counters are an ordinary :class:`CookieStatistics` — the per-victim
    attack code needs no multi-victim awareness at all.
    """

    layout: CookieLayout
    max_gap: int
    victim_ids: tuple[str, ...]
    victims: list[CookieStatistics]

    @classmethod
    def empty(
        cls,
        layout: CookieLayout,
        victim_ids: Sequence[str],
        *,
        max_gap: int,
    ) -> "MultiTemplateStatistics":
        return cls(
            layout=layout,
            max_gap=max_gap,
            victim_ids=tuple(victim_ids),
            victims=[
                CookieStatistics.empty(layout, max_gap=max_gap)
                for _ in victim_ids
            ],
        )

    def victim(self, victim_id: str) -> CookieStatistics:
        """The per-victim statistics for one campaign member."""
        try:
            return self.victims[self.victim_ids.index(victim_id)]
        except ValueError:
            raise AttackError(
                f"no victim {victim_id!r} in this capture "
                f"(victims: {list(self.victim_ids)})"
            ) from None

    def snapshot(self) -> "MultiTemplateStatistics":
        return MultiTemplateStatistics(
            layout=self.layout,
            max_gap=self.max_gap,
            victim_ids=self.victim_ids,
            victims=[stats.snapshot() for stats in self.victims],
        )

    def merge(self, other: "MultiTemplateStatistics") -> "MultiTemplateStatistics":
        if (
            self.victim_ids != other.victim_ids
            or self.layout != other.layout
            or self.max_gap != other.max_gap
        ):
            raise AttackError(
                "cannot merge multi-template statistics of different "
                "victim sets or layouts"
            )
        # Every bound first, so a refused merge changes no victim.
        for mine, theirs in zip(self.victims, other.victims):
            mine.check_room(theirs.num_requests)
        for mine, theirs in zip(self.victims, other.victims):
            mine.merge(theirs)
        return self

    def to_jsonable(self) -> dict:
        return {
            "type": "multi-template-statistics",
            "num_victims": len(self.victims),
            "victim_ids": list(self.victim_ids),
            "max_gap": int(self.max_gap),
            "layout": {
                "prefix_len": len(self.layout.prefix),
                "suffix_len": len(self.layout.suffix),
                "cookie_len": self.layout.cookie_len,
                "base_offset": self.layout.base_offset,
            },
            "num_requests_per_victim": (
                int(self.victims[0].num_requests) if self.victims else 0
            ),
            "fm_total": int(
                sum(int(s.fm_counts.sum()) for s in self.victims)
            ),
            "absab_total": int(
                sum(int(s.absab_matrix.sum()) for s in self.victims)
            ),
        }

    def save(self, path, *, extra: dict | None = None):
        """One NPZ for the whole victim set (stacked counter blocks)."""
        from ..datasets.store import save_statistics

        transitions = len(self.layout.transitions())
        alignments = len(
            CookieStatistics.alignment_keys(self.layout, max_gap=self.max_gap)
        )
        if self.victims:
            fm = np.stack([s.fm_counts for s in self.victims])
            absab = np.stack([s.absab_matrix for s in self.victims])
        else:
            fm = np.zeros((0, transitions, 256, 256), dtype=np.uint32)
            absab = np.zeros((0, alignments, 65536), dtype=np.uint32)
        requests = np.asarray(
            [s.num_requests for s in self.victims], dtype=np.int64
        )
        meta = {
            "layout": _layout_meta(self.layout),
            "max_gap": self.max_gap,
            "victim_ids": list(self.victim_ids),
            "extra": extra or {},
        }
        return save_statistics(
            path,
            "multi-template-statistics",
            {"fm_counts": fm, "absab_matrix": absab, "num_requests": requests},
            meta,
        )

    @classmethod
    def load(cls, path) -> tuple["MultiTemplateStatistics", dict]:
        from ..datasets.store import load_statistics

        arrays, meta = load_statistics(path, "multi-template-statistics")
        layout = _layout_from_meta(meta["layout"])
        max_gap = int(meta["max_gap"])
        victim_ids = tuple(meta["victim_ids"])
        requests = arrays["num_requests"]
        most = int(requests.max()) if len(requests) else 0
        fm = capture_counters(arrays["fm_counts"], most)
        absab = capture_counters(arrays["absab_matrix"], most)
        if not len(victim_ids) == len(fm) == len(absab) == len(requests):
            raise AttackError(f"{path}: victim count mismatch")
        # Victim v's counters are views into the loaded stacks: 1x memory.
        try:
            victims = [
                CookieStatistics.from_counters(
                    layout, fm[v], absab[v], max_gap=max_gap,
                    num_requests=int(requests[v]),
                )
                for v in range(len(victim_ids))
            ]
        except AttackError as exc:
            raise AttackError(f"{path}: {exc}") from None
        stats = cls(
            layout=layout, max_gap=max_gap, victim_ids=victim_ids,
            victims=victims,
        )
        return stats, meta.get("extra", {})


@dataclass
class MultiHttpsCaptureSource:
    """Batched §6 acquisition for many victims sharing a keystream regime.

    Victims in one source share the request layout and reconnect cadence
    (hence the keystream schedule) but each has its own plaintext
    template — its own secret cookie.  Key derivation matches
    :class:`~repro.capture.https.HttpsCaptureSource` exactly, so a
    single-victim source with the same ``label`` produces bit-identical
    per-victim counters (what `tests/test_campaign.py` asserts).

    Args:
        config: run configuration (key derivation seeds).
        layout: the shared request layout (§6.1).
        templates: one request plaintext per victim, each exactly
            ``layout.request_len`` bytes.
        victim_ids: stable per-victim identifiers (campaign bookkeeping).
        num_requests: requests captured *per victim* (shared keystream —
            all victims see every request).
        batch_size / reconnect_every / max_gap / record_overhead /
        label: as on the single-victim source.
    """

    config: ReproConfig
    layout: CookieLayout
    templates: tuple[bytes, ...]
    victim_ids: tuple[str, ...]
    num_requests: int
    batch_size: int = 4096
    reconnect_every: int = 1
    max_gap: int = 128
    record_overhead: int = MAC_LEN
    label: str = "multi-https-capture"
    _template_matrix: np.ndarray = field(init=False, repr=False)
    _window: slice = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.templates = tuple(self.templates)
        self.victim_ids = tuple(self.victim_ids)
        if not self.templates:
            raise CaptureError("templates must be non-empty")
        if len(self.templates) != len(self.victim_ids):
            raise CaptureError(
                f"{len(self.templates)} templates for "
                f"{len(self.victim_ids)} victim ids"
            )
        for victim_id, template in zip(self.victim_ids, self.templates):
            if len(template) != self.layout.request_len:
                raise CaptureError(
                    f"victim {victim_id!r}: template is {len(template)} "
                    f"bytes, layout expects {self.layout.request_len}"
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
        self._template_matrix = np.stack(
            [np.frombuffer(t, dtype=np.uint8) for t in self.templates]
        )
        self._window = keystream_window(self.layout, self.max_gap)

    @property
    def _stride(self) -> int:
        return self.layout.request_len + self.record_overhead

    @property
    def num_batches(self) -> int:
        return -(-self.num_requests // self.batch_size)

    @property
    def total_requests(self) -> int:
        return self.num_requests * len(self.templates)

    def descriptor(self) -> dict:
        return {
            "kind": "multi-https-capture",
            "seed": self.config.seed,
            "label": self.label,
            "layout": _layout_meta(self.layout),
            "templates": [t.decode("latin-1") for t in self.templates],
            "victim_ids": list(self.victim_ids),
            "num_requests": self.num_requests,
            "batch_size": self.batch_size,
            "reconnect_every": self.reconnect_every,
            "max_gap": self.max_gap,
            "record_overhead": self.record_overhead,
        }

    @classmethod
    def from_descriptor(
        cls, descriptor: dict, config: ReproConfig
    ) -> "MultiHttpsCaptureSource":
        if descriptor.get("kind") != "multi-https-capture":
            raise CaptureError(
                f"descriptor kind {descriptor.get('kind')!r} is not "
                "'multi-https-capture'"
            )
        return cls(
            config=replace(config, seed=int(descriptor["seed"])),
            layout=_layout_from_meta(descriptor["layout"]),
            templates=tuple(
                t.encode("latin-1") for t in descriptor["templates"]
            ),
            victim_ids=tuple(str(v) for v in descriptor["victim_ids"]),
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

    def empty(self) -> MultiTemplateStatistics:
        return MultiTemplateStatistics.empty(
            self.layout, self.victim_ids, max_gap=self.max_gap
        )

    def load(self, path: str | Path) -> tuple[MultiTemplateStatistics, dict]:
        return MultiTemplateStatistics.load(path)

    def capture_batch(
        self, stats: MultiTemplateStatistics, index: int
    ) -> int:
        """One batch on its own: :meth:`capture_batches` of ``[index]``."""
        return self.capture_batches(stats, [index])[0]

    def capture_batches(
        self, stats: MultiTemplateStatistics, indices: Sequence[int]
    ) -> list[int]:
        """Shared windowed keystream -> one column block -> per-victim
        template folds; returns requests per batch over all victims."""
        counts = count_https_batches(
            self, stats.victims, self._template_matrix, indices
        )
        return [count * len(self.templates) for count in counts]


@dataclass
class MultiTkipStatistics:
    """Per-victim TKIP capture sets over shared per-TSC counter banks.

    Counters live in one ``(num_victims, positions, 256)`` int64 block
    per TSC value, filled by the permutation-gather kernel
    (:func:`~repro.datasets.generate.templated_row_counts`);
    :meth:`victim_capture_set` exposes victim v's slice as an ordinary
    :class:`~repro.tkip.injection.CaptureSet` (zero-copy views), so the
    §5 attack code runs unchanged per victim.
    """

    positions: range
    plaintext_len: int
    victim_ids: tuple[str, ...]
    blocks: dict[int, np.ndarray] = field(default_factory=dict)
    num_captured: int = 0

    def _block(self, tsc: int) -> np.ndarray:
        low = tsc & 0xFFFF
        block = self.blocks.get(low)
        if block is None:
            block = np.zeros(
                (len(self.victim_ids), len(self.positions), 256),
                dtype=np.int64,
            )
            self.blocks[low] = block
        return block

    def ingest_rows(
        self, tsc: int, rows: np.ndarray, templates: np.ndarray
    ) -> None:
        """Count keystream ``rows`` XOR each victim template at one TSC.

        ``rows`` is uint8 ``(n, plaintext_len)`` *keystream* (the shared
        part); ``templates`` is uint8 ``(num_victims, plaintext_len)``.
        The keystream columns are bincounted once and each victim
        gathers the base histogram through its template's permutation.
        """
        if rows.ndim != 2 or rows.shape[1] != self.plaintext_len:
            raise AttackError(
                f"rows must be (n, {self.plaintext_len}), got {rows.shape}"
            )
        templates = np.asarray(templates, dtype=np.uint8)
        if templates.shape != (len(self.victim_ids), self.plaintext_len):
            raise AttackError(
                f"templates must be "
                f"({len(self.victim_ids)}, {self.plaintext_len}), "
                f"got {templates.shape}"
            )
        pos_idx = np.asarray(self.positions, dtype=np.intp) - 1
        columns = np.ascontiguousarray(rows.T[pos_idx])
        templated_row_counts(
            columns, templates[:, pos_idx], self._block(tsc)
        )
        self.num_captured += rows.shape[0]

    def victim_capture_set(self, victim_id: str) -> CaptureSet:
        """Victim ``victim_id``'s counters as a zero-copy CaptureSet."""
        try:
            v = self.victim_ids.index(victim_id)
        except ValueError:
            raise AttackError(
                f"no victim {victim_id!r} in this capture "
                f"(victims: {list(self.victim_ids)})"
            ) from None
        return CaptureSet(
            positions=self.positions,
            plaintext_len=self.plaintext_len,
            counts={tsc: block[v] for tsc, block in self.blocks.items()},
            num_captured=self.num_captured,
        )

    def snapshot(self) -> "MultiTkipStatistics":
        return MultiTkipStatistics(
            positions=self.positions,
            plaintext_len=self.plaintext_len,
            victim_ids=self.victim_ids,
            blocks={tsc: block.copy() for tsc, block in self.blocks.items()},
            num_captured=self.num_captured,
        )

    def merge(self, other: "MultiTkipStatistics") -> "MultiTkipStatistics":
        if (
            self.positions != other.positions
            or self.plaintext_len != other.plaintext_len
            or self.victim_ids != other.victim_ids
        ):
            raise AttackError(
                "cannot merge multi-TKIP captures of different shapes "
                "or victim sets"
            )
        for tsc, block in other.blocks.items():
            mine = self.blocks.get(tsc)
            if mine is None:
                self.blocks[tsc] = block.copy()
            else:
                mine += block
        self.num_captured += other.num_captured
        return self

    def to_jsonable(self) -> dict:
        return {
            "type": "multi-tkip-statistics",
            "num_victims": len(self.victim_ids),
            "victim_ids": list(self.victim_ids),
            "num_captured": int(self.num_captured),
            "plaintext_len": int(self.plaintext_len),
            "positions": [
                self.positions.start, self.positions.stop, self.positions.step
            ],
            "num_tsc": len(self.blocks),
            "total_counts": int(
                sum(int(block.sum()) for block in self.blocks.values())
            ),
        }

    def save(self, path, *, extra: dict | None = None):
        from ..datasets.store import save_statistics

        tsc_values = sorted(self.blocks)
        stacked = (
            np.stack([self.blocks[tsc] for tsc in tsc_values])
            if tsc_values
            else np.zeros(
                (0, len(self.victim_ids), len(self.positions), 256),
                dtype=np.int64,
            )
        )
        meta = {
            "positions": [
                self.positions.start, self.positions.stop, self.positions.step
            ],
            "plaintext_len": self.plaintext_len,
            "victim_ids": list(self.victim_ids),
            "num_captured": self.num_captured,
            "extra": extra or {},
        }
        return save_statistics(
            path,
            "multi-tkip-statistics",
            {
                "counts": stacked,
                "tsc_values": np.asarray(tsc_values, np.int64),
            },
            meta,
        )

    @classmethod
    def load(cls, path) -> tuple["MultiTkipStatistics", dict]:
        from ..datasets.store import load_statistics

        arrays, meta = load_statistics(path, "multi-tkip-statistics")
        start, stop, step = meta["positions"]
        stats = cls(
            positions=range(start, stop, step),
            plaintext_len=int(meta["plaintext_len"]),
            victim_ids=tuple(str(v) for v in meta["victim_ids"]),
            num_captured=int(meta["num_captured"]),
        )
        stacked = arrays["counts"]
        expected = (len(stats.victim_ids), len(stats.positions), 256)
        if stacked.shape[1:] != expected:
            raise AttackError(f"{path}: capture counts shape mismatch")
        for tsc, block in zip(arrays["tsc_values"], stacked):
            stats.blocks[int(tsc)] = np.ascontiguousarray(block, np.int64)
        return stats, meta.get("extra", {})


@dataclass
class MultiTkipCaptureSource:
    """Batched §5 acquisition for many victims sharing a TSC budget.

    Victims share the injected packet length, the TSC schedule, and the
    packets-per-TSC budget (the keystream regime); each has its own
    protected plaintext (MIC/ICV differ per victim MIC key).  Key
    derivation matches :class:`~repro.capture.tkip.TkipCaptureSource`
    with the same ``label``, batch for batch, so single-victim runs are
    bit-identical per victim.
    """

    config: ReproConfig
    plaintexts: tuple[bytes, ...]
    victim_ids: tuple[str, ...]
    tsc_values: tuple[int, ...]
    packets_per_tsc: int
    positions: range | None = None
    batch_size: int = 4096
    label: str = "multi-tkip-capture"
    _template_matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.plaintexts = tuple(self.plaintexts)
        self.victim_ids = tuple(self.victim_ids)
        self.tsc_values = tuple(self.tsc_values)
        if not self.plaintexts:
            raise CaptureError("plaintexts must be non-empty")
        if len(self.plaintexts) != len(self.victim_ids):
            raise CaptureError(
                f"{len(self.plaintexts)} plaintexts for "
                f"{len(self.victim_ids)} victim ids"
            )
        lengths = {len(p) for p in self.plaintexts}
        if lengths == {0} or len(lengths) != 1:
            raise CaptureError(
                "victim plaintexts must be non-empty and share one length "
                f"(the unique-length trick), got lengths {sorted(lengths)}"
            )
        if not self.tsc_values:
            raise CaptureError("tsc_values must be non-empty")
        if self.packets_per_tsc < 1:
            raise CaptureError(
                f"packets_per_tsc must be positive, got {self.packets_per_tsc}"
            )
        if self.batch_size < 1:
            raise CaptureError(
                f"batch_size must be positive, got {self.batch_size}"
            )
        plaintext_len = len(self.plaintexts[0])
        if self.positions is None:
            self.positions = range(1, plaintext_len + 1)
        if len(self.positions) == 0:
            raise CaptureError("positions must be a non-empty range")
        for pos in (self.positions.start, self.positions[-1]):
            if not 1 <= pos <= plaintext_len:
                raise CaptureError(
                    f"position {pos} outside the plaintext "
                    f"(1..{plaintext_len})"
                )
        self._template_matrix = np.stack(
            [np.frombuffer(p, dtype=np.uint8) for p in self.plaintexts]
        )

    @property
    def plaintext_len(self) -> int:
        return len(self.plaintexts[0])

    @property
    def _batches_per_tsc(self) -> int:
        return -(-self.packets_per_tsc // self.batch_size)

    @property
    def num_batches(self) -> int:
        return len(self.tsc_values) * self._batches_per_tsc

    @property
    def total_requests(self) -> int:
        return (
            len(self.tsc_values)
            * self.packets_per_tsc
            * len(self.plaintexts)
        )

    def descriptor(self) -> dict:
        return {
            "kind": "multi-tkip-capture",
            "seed": self.config.seed,
            "label": self.label,
            "plaintexts": [p.decode("latin-1") for p in self.plaintexts],
            "victim_ids": list(self.victim_ids),
            "tsc_values": list(self.tsc_values),
            "packets_per_tsc": self.packets_per_tsc,
            "positions": [
                self.positions.start, self.positions.stop, self.positions.step
            ],
            "batch_size": self.batch_size,
        }

    @classmethod
    def from_descriptor(
        cls, descriptor: dict, config: ReproConfig
    ) -> "MultiTkipCaptureSource":
        if descriptor.get("kind") != "multi-tkip-capture":
            raise CaptureError(
                f"descriptor kind {descriptor.get('kind')!r} is not "
                "'multi-tkip-capture'"
            )
        start, stop, step = (int(v) for v in descriptor["positions"])
        return cls(
            config=replace(config, seed=int(descriptor["seed"])),
            plaintexts=tuple(
                p.encode("latin-1") for p in descriptor["plaintexts"]
            ),
            victim_ids=tuple(str(v) for v in descriptor["victim_ids"]),
            tsc_values=tuple(int(t) for t in descriptor["tsc_values"]),
            packets_per_tsc=int(descriptor["packets_per_tsc"]),
            positions=range(start, stop, step),
            batch_size=int(descriptor["batch_size"]),
            label=str(descriptor["label"]),
        )

    def fingerprint(self) -> str:
        payload = canonical_json(self.descriptor()).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()

    def empty(self) -> MultiTkipStatistics:
        return MultiTkipStatistics(
            positions=self.positions,
            plaintext_len=self.plaintext_len,
            victim_ids=self.victim_ids,
        )

    def load(self, path: str | Path) -> tuple[MultiTkipStatistics, dict]:
        return MultiTkipStatistics.load(path)

    def capture_batches(
        self, stats: MultiTkipStatistics, indices: Sequence[int]
    ) -> list[int]:
        """Batch by batch: TKIP counters are small, so grouping buys
        nothing."""
        return [self.capture_batch(stats, index) for index in indices]

    def capture_batch(self, stats: MultiTkipStatistics, index: int) -> int:
        """One batch: shared keystream -> per-victim permutation gather."""
        tsc_index, part = divmod(index, self._batches_per_tsc)
        if not 0 <= tsc_index < len(self.tsc_values):
            raise CaptureError(f"batch {index} is beyond the campaign")
        tsc = self.tsc_values[tsc_index]
        first = part * self.batch_size
        count = min(self.batch_size, self.packets_per_tsc - first)
        rng = self.config.rng(self.label, "keys", tsc, part)
        keys = simplified_key_batch(tsc, count, rng)
        stream = batch_keystream(
            keys, self.plaintext_len, threads=self.config.native_threads,
            simd=self.config.native_simd,
        )
        stats.ingest_rows(tsc, stream, self._template_matrix)
        return count * len(self.plaintexts)
