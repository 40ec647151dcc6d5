"""Victim sets: one capture's counters for a group of victims.

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
and a source with ids counts into a :class:`VictimSet`: one bare
statistics object per victim, of the type a one-plaintext source
returns.

- **HTTPS** (members :class:`~repro.tls.attack.CookieStatistics`): the
  ABSAB differential ``C[r] ^ C[p] = (Z[r] ^ Z[p]) ^ (T[r] ^ T[p])`` is
  the keystream differential XOR a *scalar* template differential per
  alignment, and a Fluhrer–McGrew digraph row likewise folds its
  template into one 16-bit constant.  Every row of every victim goes
  through one :func:`~repro.capture.https.ingest_keystream_columns`
  call per run of batches: a threaded native kernel counting each row
  straight into its uint32 counters, or the numpy fallback sharing
  keystream differential blocks across victims.
- **TKIP** (members :class:`~repro.tkip.injection.CaptureSet`): XOR
  with a constant permutes the 256 histogram bins, so a batch's
  keystream is counted once, by the fused generate-and-count kernel
  (:func:`~repro.datasets.generate.single_byte_counts`, no keystream
  block), and every victim *gathers* that histogram through its
  template's per-row permutation
  (:func:`~repro.tkip.injection.ciphertext_counts`) — O(P·n + V·P·256)
  instead of O(V·P·n).

Each member's counters (uint32 for HTTPS, int64 for TKIP) are
bit-identical to a one-plaintext capture run with the same
key-derivation label (`tests/test_campaign.py` holds this cell-for-cell
on both ``REPRO_NATIVE`` legs).  A set merges member by member and
saves each member's arrays as NPZ entries of their own, never stacked,
so a checkpoint copies none of the group's counters.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from ..datasets.store import load_statistics, save_statistics
from ..errors import AttackError, CaptureError
from ..tkip.injection import CaptureSet
from ..tls.attack import CookieStatistics

#: The bare statistics a victim set holds, one per victim.
Member = CookieStatistics | CaptureSet


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


@dataclass
class VictimSet:
    """One bare statistics object per victim of a campaign group.

    Implements the :class:`repro.capture.SufficientStatistics` protocol,
    so a group's capture shards and checkpoints like a one-victim
    capture.  ``members`` are at least one
    :class:`~repro.tls.attack.CookieStatistics` or
    :class:`~repro.tkip.injection.CaptureSet`, all of one type, named
    one to one by the unique ``victim_ids``; the per-victim attack code
    reads a member as it reads a one-victim capture.

    Raises:
        CaptureError: on a repeated id, no members, members of mixed
            types, or ids that do not name the members one to one.
    """

    victim_ids: tuple[str, ...]
    members: list[Member]

    def __post_init__(self) -> None:
        self.victim_ids = unique_victim_ids(self.victim_ids)
        self.members = list(self.members)
        if not self.members:
            raise CaptureError("a victim set needs at least one member")
        if len(self.members) != len(self.victim_ids):
            raise CaptureError(
                f"{len(self.members)} members for {len(self.victim_ids)} "
                "victim ids"
            )
        if len({type(member) for member in self.members}) != 1:
            raise CaptureError("victim set members must share one type")

    def victim(self, victim_id: str) -> Member:
        """The bare statistics of one campaign member."""
        try:
            return self.members[self.victim_ids.index(victim_id)]
        except ValueError:
            raise AttackError(
                f"no victim {victim_id!r} in this capture "
                f"(victims: {list(self.victim_ids)})"
            ) from None

    def snapshot(self) -> "VictimSet":
        return VictimSet(
            self.victim_ids, [member.snapshot() for member in self.members]
        )

    def merge(self, other: "VictimSet") -> "VictimSet":
        """Merge ``other`` member by member; every member's checks run
        first, so a refused merge changes no member."""
        if self.victim_ids != other.victim_ids:
            raise AttackError(
                "cannot merge the statistics of different victim sets"
            )
        for mine, theirs in zip(self.members, other.members):
            mine.check_merge(theirs)
        for mine, theirs in zip(self.members, other.members):
            mine.merge(theirs)
        return self

    def to_jsonable(self) -> dict:
        return {
            "type": "victim-set",
            "victim_ids": list(self.victim_ids),
            "members": [member.to_jsonable() for member in self.members],
        }

    def save(self, path, *, extra: dict | None = None):
        """One NPZ: member v's arrays as entries ``"{v}/<name>"``, each
        written from the member's own counters, never stacked."""
        arrays, metas = {}, []
        for v, member in enumerate(self.members):
            member_arrays, member_meta = member.archive()
            arrays.update(
                (f"{v}/{name}", array) for name, array in member_arrays.items()
            )
            metas.append(member_meta)
        meta = {"victim_ids": list(self.victim_ids), "members": metas}
        kind = f"victim-set/{self.members[0].KIND}"
        return save_statistics(path, kind, arrays, {**meta, "extra": extra or {}})

    @classmethod
    def load(cls, path, member_type: type) -> tuple["VictimSet", dict]:
        """Load a set of ``member_type``; returns (set, extra).

        Raises:
            DatasetError: on anything but a victim set of
                ``member_type``, say a set of the other type or one in
                an older layout.
            AttackError, CaptureError: naming ``path``, on counters
                that do not match their metadata or on repeated ids.
        """
        arrays, meta = load_statistics(path, f"victim-set/{member_type.KIND}")
        try:
            members = []
            for v, member_meta in enumerate(meta["members"]):
                prefix = f"{v}/"
                member_arrays = {
                    name.removeprefix(prefix): array
                    for name, array in arrays.items()
                    if name.startswith(prefix)
                }
                members.append(
                    member_type.from_archive(member_arrays, member_meta)
                )
            stats = cls(tuple(meta["victim_ids"]), members)
        except (AttackError, CaptureError) as exc:
            raise type(exc)(f"{path}: {exc}") from None
        return stats, meta.get("extra", {})
