"""Batched TKIP ciphertext acquisition (paper §5.2 at engine speed).

The §5 attack consumes per-TSC ciphertext byte counts of one constantly
retransmitted packet.  Under the paper's key model (§2.2: three public
TSC-determined key bytes, 13 uniform bytes) a capture batch is the same
three vectorized steps as the HTTPS side: a ``(packets, plaintext_len)``
keystream block through :func:`repro.rc4.batch.batch_keystream` from
:func:`repro.tkip.keymix.simplified_key_batch` keys, XOR the broadcast
plaintext, and grouped flat-bincount counting via
:meth:`repro.tkip.injection.CaptureSet.ingest_rows`.

With an all-zero plaintext the ciphertext *is* the keystream, which is
how the ``bias-sweep-pertsc`` experiment measures raw per-TSC keystream
distributions on the identical engine.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from ..config import ReproConfig
from ..errors import CaptureError
from ..rc4.batch import batch_keystream
from ..tkip.injection import CaptureSet
from ..tkip.keymix import simplified_key_batch
from ..utils.serialization import canonical_json


@dataclass
class TkipCaptureSource:
    """Deterministic batched acquisition for the §5 injection campaign.

    Batches iterate TSC-major: TSC value t owns batches
    ``t * batches_per_tsc .. (t+1) * batches_per_tsc - 1``, so sharding
    by batch range also shards by TSC.

    Args:
        config: run configuration (key-model seeds).
        plaintext: the injected packet's protected plaintext
            (data || MIC || ICV), constant across transmissions.
        tsc_values: low-16-bit TSC values covered by the campaign.
        packets_per_tsc: packets captured at each TSC value.
        positions: 1-indexed keystream positions to collect (default:
            the whole plaintext).
        batch_size: packets per batch.
        label: seed namespace.
    """

    config: ReproConfig
    plaintext: bytes
    tsc_values: tuple[int, ...]
    packets_per_tsc: int
    positions: range | None = None
    batch_size: int = 4096
    label: str = "tkip-capture"
    _plaintext_arr: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.tsc_values = tuple(self.tsc_values)
        if not self.tsc_values:
            raise CaptureError("tsc_values must be non-empty")
        if not self.plaintext:
            raise CaptureError("plaintext must be non-empty")
        if self.packets_per_tsc < 1:
            raise CaptureError(
                f"packets_per_tsc must be positive, got {self.packets_per_tsc}"
            )
        if self.batch_size < 1:
            raise CaptureError(
                f"batch_size must be positive, got {self.batch_size}"
            )
        if self.positions is None:
            self.positions = range(1, len(self.plaintext) + 1)
        if len(self.positions) == 0:
            raise CaptureError("positions must be a non-empty range")
        for pos in (self.positions.start, self.positions[-1]):
            if not 1 <= pos <= len(self.plaintext):
                raise CaptureError(
                    f"position {pos} outside the plaintext "
                    f"(1..{len(self.plaintext)})"
                )
        self._plaintext_arr = np.frombuffer(self.plaintext, dtype=np.uint8)

    @property
    def _batches_per_tsc(self) -> int:
        return -(-self.packets_per_tsc // self.batch_size)

    @property
    def num_batches(self) -> int:
        return len(self.tsc_values) * self._batches_per_tsc

    @property
    def total_requests(self) -> int:
        return len(self.tsc_values) * self.packets_per_tsc

    def descriptor(self) -> dict:
        """JSON-safe record sufficient to rebuild this source bit-exactly.

        Exactly what :meth:`fingerprint` hashes; a fleet manifest ships
        this to workers (the seed rides along, backend knobs stay local).
        """
        return {
            "kind": "tkip-capture",
            "seed": self.config.seed,
            "label": self.label,
            "plaintext": self.plaintext.decode("latin-1"),
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
    ) -> "TkipCaptureSource":
        """Rebuild a source from :meth:`descriptor` output (seed wins)."""
        if descriptor.get("kind") != "tkip-capture":
            raise CaptureError(
                f"descriptor kind {descriptor.get('kind')!r} is not "
                "'tkip-capture'"
            )
        start, stop, step = (int(v) for v in descriptor["positions"])
        return cls(
            config=replace(config, seed=int(descriptor["seed"])),
            plaintext=descriptor["plaintext"].encode("latin-1"),
            tsc_values=tuple(int(t) for t in descriptor["tsc_values"]),
            packets_per_tsc=int(descriptor["packets_per_tsc"]),
            positions=range(start, stop, step),
            batch_size=int(descriptor["batch_size"]),
            label=str(descriptor["label"]),
        )

    def fingerprint(self) -> str:
        payload = canonical_json(self.descriptor()).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()

    def empty(self) -> CaptureSet:
        return CaptureSet(
            positions=self.positions, plaintext_len=len(self.plaintext)
        )

    def load(self, path: str | Path) -> tuple[CaptureSet, dict]:
        return CaptureSet.load(path)

    def capture_batches(
        self, stats: CaptureSet, indices: Sequence[int]
    ) -> list[int]:
        """Batch by batch: TKIP counters are small, so grouping buys
        nothing."""
        return [self.capture_batch(stats, index) for index in indices]

    def capture_batch(self, stats: CaptureSet, index: int) -> int:
        """One batch: per-TSC keys -> keystream block -> XOR -> count."""
        tsc_index, part = divmod(index, self._batches_per_tsc)
        if not 0 <= tsc_index < len(self.tsc_values):
            raise CaptureError(f"batch {index} is beyond the campaign")
        tsc = self.tsc_values[tsc_index]
        first = part * self.batch_size
        count = min(self.batch_size, self.packets_per_tsc - first)
        rng = self.config.rng(self.label, "keys", tsc, part)
        keys = simplified_key_batch(tsc, count, rng)
        stream = batch_keystream(
            keys, len(self.plaintext), threads=self.config.native_threads,
            simd=self.config.native_simd,
        )
        stats.ingest_rows(tsc, stream ^ self._plaintext_arr)
        return count
