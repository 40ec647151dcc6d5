"""Victim-set statistics: one capture's counters for many victims.

A campaign over N victims who share a keystream *regime* (same browser
layout and reconnect cadence on the TLS side; same packets-per-TSC
budget on the TKIP side) differs per victim only in the plaintext
template — the cookie bytes, or the MIC/ICV of the injected packet.
Ciphertext is ``keystream XOR template``, so the expensive part of a
capture batch (RC4 keystream generation) is shared and only the cheap
template fold is per-victim.  Both capture sources
(:class:`~repro.capture.https.HttpsCaptureSource`,
:class:`~repro.capture.tkip.TkipCaptureSource`) take that victim axis
as ``plaintexts`` plus ``victim_ids`` (:func:`victim_axis` checks it),
and a source with ids counts into the victim-set statistics here:

- **HTTPS** (:class:`MultiTemplateStatistics`): the ABSAB differential
  ``C[r] ^ C[p] = (Z[r] ^ Z[p]) ^ (T[r] ^ T[p])`` is the keystream
  differential XOR a *scalar* template differential per alignment, and
  a Fluhrer–McGrew digraph row likewise folds its template into one
  16-bit constant.  Every row of every victim goes through one
  :func:`~repro.capture.https.ingest_keystream_columns` call per run of
  batches: a threaded native kernel counting each row straight into its
  uint32 counters, or the numpy fallback sharing keystream differential
  blocks across victims.
- **TKIP** (:class:`MultiTkipStatistics`): XOR with a constant permutes
  the 256 histogram bins, so a batch's keystream is counted once, by the
  fused generate-and-count kernel
  (:func:`~repro.datasets.generate.single_byte_counts`, no keystream
  block), and every victim *gathers* that histogram through its
  template's per-row permutation
  (:func:`~repro.tkip.injection.ciphertext_counts`) — O(P·n + V·P·256)
  instead of O(V·P·n).

Both produce counters (uint32 for HTTPS, int64 for TKIP) bit-identical
to N one-plaintext captures run with the same key-derivation label
(`tests/test_campaign.py` holds this cell-for-cell on both
``REPRO_NATIVE`` legs).  Each answers :meth:`victim` with one victim's
counters as the bare statistics a one-plaintext source returns, so
both classes refuse repeated victim ids, checkpoints included.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..errors import AttackError, CaptureError
from ..tkip.injection import CaptureSet, ciphertext_counts
from ..tls.attack import CookieLayout, CookieStatistics, capture_counters


def victim_axis(
    plaintext: bytes | None,
    plaintexts: Sequence[bytes],
    victim_ids: Sequence[str],
) -> tuple[tuple[bytes, ...], tuple[str, ...]]:
    """Check a capture source's victim axis; returns it as tuples.

    ``plaintext`` is shorthand for ``plaintexts=(plaintext,)``.  A
    source without ``victim_ids`` holds exactly one plaintext; one with
    ids names every plaintext by a unique id.

    Raises:
        CaptureError: on no plaintext, both spellings disagreeing,
            several plaintexts without ids, or ids that do not name
            the plaintexts one to one.
    """
    plaintexts, victim_ids = tuple(plaintexts), tuple(victim_ids)
    if plaintext is not None:
        if plaintexts not in ((), (plaintext,)):
            raise CaptureError("pass plaintext or plaintexts, not both")
        plaintexts = (plaintext,)
    if not plaintexts:
        raise CaptureError("a capture source needs at least one plaintext")
    if victim_ids:
        if len(victim_ids) != len(plaintexts):
            raise CaptureError(
                f"{len(plaintexts)} plaintexts for {len(victim_ids)} "
                "victim ids"
            )
        unique_victim_ids(victim_ids)
    elif len(plaintexts) > 1:
        raise CaptureError(
            f"{len(plaintexts)} plaintexts need one victim id each"
        )
    return plaintexts, victim_ids


def unique_victim_ids(victim_ids: Sequence[str]) -> tuple[str, ...]:
    """``victim_ids`` as a tuple, checked to name each victim once.

    Raises:
        CaptureError: naming every id that repeats, since
            ``victim(id)`` would hide each victim after the id's first.
    """
    victim_ids = tuple(victim_ids)
    repeated = sorted(v for v, n in Counter(victim_ids).items() if n > 1)
    if repeated:
        raise CaptureError(f"duplicate victim ids {repeated}")
    return victim_ids


def layout_to_meta(layout: CookieLayout) -> dict:
    """A layout as JSON-safe fields (descriptors, NPZ metadata)."""
    return {
        "prefix": layout.prefix.decode("latin-1"),
        "suffix": layout.suffix.decode("latin-1"),
        "cookie_len": layout.cookie_len,
        "base_offset": layout.base_offset,
    }


def layout_from_meta(fields: dict) -> CookieLayout:
    """The layout :func:`layout_to_meta` recorded."""
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
    summary / one-NPZ persistence), so multi-victim captures shard and
    checkpoint exactly like single-victim ones.  Victim v's
    counters are an ordinary :class:`CookieStatistics` — the per-victim
    attack code needs no multi-victim awareness at all.
    """

    layout: CookieLayout
    max_gap: int
    victim_ids: tuple[str, ...]
    victims: list[CookieStatistics]

    def __post_init__(self) -> None:
        self.victim_ids = unique_victim_ids(self.victim_ids)

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
            "layout": layout_to_meta(self.layout),
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
        layout = layout_from_meta(meta["layout"])
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
        try:
            stats = cls(
                layout=layout, max_gap=max_gap, victim_ids=victim_ids,
                victims=victims,
            )
        except CaptureError as exc:
            raise CaptureError(f"{path}: {exc}") from None
        return stats, meta.get("extra", {})


@dataclass
class MultiTkipStatistics:
    """Per-victim TKIP capture sets over shared per-TSC counter banks.

    Counters live in one ``(num_victims, positions, 256)`` int64 block
    per TSC value, each victim's slice filled by permuting one shared
    keystream histogram (:meth:`add_keystream_counts`); :meth:`victim`
    exposes victim v's slice as an ordinary
    :class:`~repro.tkip.injection.CaptureSet` (zero-copy views), so the
    §5 attack code runs unchanged per victim.
    """

    positions: range
    plaintext_len: int
    victim_ids: tuple[str, ...]
    blocks: dict[int, np.ndarray] = field(default_factory=dict)
    num_captured: int = 0

    def __post_init__(self) -> None:
        self.victim_ids = unique_victim_ids(self.victim_ids)

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

    def add_keystream_counts(
        self,
        tsc: int,
        keystream_counts: np.ndarray,
        templates: np.ndarray,
        packets: int,
    ) -> None:
        """Count ``packets`` shared-keystream packets for every victim.

        ``keystream_counts`` is the int64 histogram of the packets'
        keystream bytes (row ``r - 1`` for position r, up to at least the
        last covered position); ``templates`` is uint8
        ``(num_victims, plaintext_len)``, one plaintext per victim.  Each
        victim's counters gather that one histogram through its own
        plaintext's XOR permutation.
        """
        if len(templates) != len(self.victim_ids):
            raise AttackError(
                f"{len(templates)} templates for "
                f"{len(self.victim_ids)} victims"
            )
        block = self._block(tsc)
        for table, template in zip(block, templates):
            table += ciphertext_counts(
                keystream_counts, template, self.positions, self.plaintext_len
            )
        self.num_captured += packets

    def victim(self, victim_id: str) -> CaptureSet:
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
        try:
            stats = cls(
                positions=range(start, stop, step),
                plaintext_len=int(meta["plaintext_len"]),
                victim_ids=tuple(str(v) for v in meta["victim_ids"]),
                num_captured=int(meta["num_captured"]),
            )
        except CaptureError as exc:
            raise CaptureError(f"{path}: {exc}") from None
        stacked = arrays["counts"]
        expected = (len(stats.victim_ids), len(stats.positions), 256)
        if stacked.shape[1:] != expected:
            raise AttackError(f"{path}: capture counts shape mismatch")
        for tsc, block in zip(arrays["tsc_values"], stacked):
            stats.blocks[int(tsc)] = np.ascontiguousarray(block, np.int64)
        return stats, meta.get("extra", {})
