"""Batched TKIP ciphertext acquisition (paper §5.2 at engine speed).

The §5 attack consumes per-TSC ciphertext byte counts of one constantly
retransmitted packet.  Under the paper's key model (§2.2: three public
TSC-determined key bytes, 13 uniform bytes) the plaintext is constant,
so XOR with it only permutes each position's 256 bins.  A capture batch
therefore counts its keystream once, with the fused generate-and-count
kernel the per-TSC tables use
(:func:`repro.datasets.generate.single_byte_counts` over
:func:`repro.tkip.keymix.simplified_key_batch` keys; no keystream block,
XOR or bincount), and each victim's counters gather that histogram
through its own plaintext's permutation
(:meth:`repro.tkip.injection.CaptureSet.add_keystream_counts`, once
per victim of a campaign group sharing a packets-per-TSC budget).

With an all-zero plaintext the ciphertext *is* the keystream, which is
how the ``bias-sweep-pertsc`` experiment measures raw per-TSC keystream
distributions on the identical engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from ..config import ReproConfig
from ..datasets.generate import single_byte_counts
from ..errors import CaptureError
from ..tkip.injection import CaptureSet
from ..tkip.keymix import simplified_key_batch
from .engine import source_fingerprint
from .multi import VictimSet, victim_axis


@dataclass(kw_only=True)
class TkipCaptureSource:
    """Deterministic batched acquisition for the §5 injection campaign.

    Batches iterate TSC-major: TSC value t owns batches
    ``t * batches_per_tsc .. (t+1) * batches_per_tsc - 1``, so sharding
    by batch range also shards by TSC.

    One source captures for V >= 1 victims who share the injected packet
    length, the TSC schedule and the packets-per-TSC budget, and differ
    only in their protected plaintext (the MIC/ICV follow each victim's
    MIC key).  Key derivation does not depend on the victims, so victim
    v's counters equal those of a one-plaintext source with the same
    ``label``.  Without ``victim_ids`` the source holds one plaintext
    and counts into a bare :class:`~repro.tkip.injection.CaptureSet`;
    with ids (a campaign group, even of one) it counts into a
    :class:`~repro.capture.multi.VictimSet` of them.

    Args:
        config: run configuration (key-model seeds).
        plaintext: the injected packet's protected plaintext
            (data || MIC || ICV), constant across transmissions;
            shorthand for ``plaintexts=(plaintext,)``.
        plaintexts: one such plaintext per victim, all of one length.
        victim_ids: empty, or one unique id per plaintext.
        tsc_values: low-16-bit TSC values covered by the campaign.
        packets_per_tsc: packets captured at each TSC value.
        positions: 1-indexed keystream positions to collect (default:
            the whole plaintext).
        batch_size: packets per batch.
        label: seed namespace.
    """

    config: ReproConfig
    plaintext: bytes | None = None
    plaintexts: tuple[bytes, ...] = ()
    victim_ids: tuple[str, ...] = ()
    tsc_values: tuple[int, ...]
    packets_per_tsc: int
    positions: range | None = None
    batch_size: int = 4096
    label: str = "tkip-capture"
    _templates: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.plaintexts, self.victim_ids = victim_axis(
            self.plaintext, self.plaintexts, self.victim_ids
        )
        if len(self.plaintexts) == 1:
            self.plaintext = self.plaintexts[0]
        self.tsc_values = tuple(self.tsc_values)
        lengths = {len(p) for p in self.plaintexts}
        if lengths == {0} or len(lengths) != 1:
            raise CaptureError(
                "plaintexts must be non-empty and share one length "
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
        if self.positions is None:
            self.positions = range(1, self.plaintext_len + 1)
        if len(self.positions) == 0:
            raise CaptureError("positions must be a non-empty range")
        for pos in (self.positions.start, self.positions[-1]):
            if not 1 <= pos <= self.plaintext_len:
                raise CaptureError(
                    f"position {pos} outside the plaintext "
                    f"(1..{self.plaintext_len})"
                )
        self._templates = np.stack(
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
            len(self.tsc_values) * self.packets_per_tsc * len(self.plaintexts)
        )

    def descriptor(self) -> dict:
        """JSON-safe record of every input that decides the counters.

        Exactly what :meth:`fingerprint` hashes (the seed rides along,
        backend knobs cannot affect the counters).  A source with victim
        ids records kind ``multi-tkip-capture``.
        """
        descriptor = {
            "kind": "tkip-capture",
            "seed": self.config.seed,
            "label": self.label,
            "tsc_values": list(self.tsc_values),
            "packets_per_tsc": self.packets_per_tsc,
            "positions": [
                self.positions.start, self.positions.stop, self.positions.step
            ],
            "batch_size": self.batch_size,
        }
        if self.victim_ids:
            descriptor["kind"] = "multi-tkip-capture"
            descriptor["plaintexts"] = [
                p.decode("latin-1") for p in self.plaintexts
            ]
            descriptor["victim_ids"] = list(self.victim_ids)
        else:
            descriptor["plaintext"] = self.plaintext.decode("latin-1")
        return descriptor

    def fingerprint(self) -> str:
        return source_fingerprint(self.descriptor())

    def empty(self) -> CaptureSet | VictimSet:
        bare = [
            CaptureSet(
                positions=self.positions, plaintext_len=self.plaintext_len
            )
            for _ in self.plaintexts
        ]
        return VictimSet(self.victim_ids, bare) if self.victim_ids else bare[0]

    def load(self, path: str | Path) -> tuple[CaptureSet | VictimSet, dict]:
        if self.victim_ids:
            return VictimSet.load(path, CaptureSet)
        return CaptureSet.load(path)

    def capture_batches(
        self, stats: CaptureSet | VictimSet, indices: Sequence[int]
    ) -> list[int]:
        """Batch by batch: TKIP counters are small, so grouping buys
        nothing."""
        return [self.capture_batch(stats, index) for index in indices]

    def capture_batch(self, stats: CaptureSet | VictimSet, index: int) -> int:
        """One batch: per-TSC keys -> keystream histogram -> per victim,
        its plaintext's permutation of that histogram.

        Returns the packets the batch added over all victims.
        """
        tsc_index, part = divmod(index, self._batches_per_tsc)
        if not 0 <= tsc_index < len(self.tsc_values):
            raise CaptureError(f"batch {index} is beyond the campaign")
        tsc = self.tsc_values[tsc_index]
        first = part * self.batch_size
        count = min(self.batch_size, self.packets_per_tsc - first)
        rng = self.config.rng(self.label, "keys", tsc, part)
        keys = simplified_key_batch(tsc, count, rng)
        keystream = single_byte_counts(
            keys, max(self.positions), threads=self.config.native_threads,
            simd=self.config.native_simd,
        )
        members = stats.members if self.victim_ids else [stats]
        for member, template in zip(members, self._templates, strict=True):
            member.add_keystream_counts(tsc, keystream, template, count)
        return count * len(self.plaintexts)
