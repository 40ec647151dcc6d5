"""The ``SufficientStatistics`` protocol unifying capture counters.

Both attacks reduce their captures to small families of integer count
arrays — uint32 digraph/ABSAB cells for §6 (:class:`repro.tls.attack
.CookieStatistics`), int64 per-TSC byte cells for §5
(:class:`repro.tkip.injection.CaptureSet`).  The paper's capture scale
(9·2^27 requests, 2^30 packets) makes two properties non-negotiable:

- **mergeable**: integer addition is exact, associative and
  commutative, so captures shard across processes (the paper's
  per-worker counters, §3.2) and merge to bit-identical totals in any
  order.  A uint32 object holds fewer than 2^32 requests, so no cell
  can wrap; merges and ingestion refuse to pass that bound;
- **resumable**: a checkpoint is just the counters plus a progress
  cursor, so a multi-hour capture survives session restarts exactly.

This module pins those properties down as a structural
:class:`typing.Protocol` the engine (:mod:`repro.capture.engine`) is
written against, implemented by the two bare types and by
:class:`repro.capture.VictimSet`, one bare object per victim of a
campaign group.  A bare type's ``archive()`` and ``from_archive`` hold
its NPZ form, which a victim set stores once per member, and its
``check_merge`` every check its merge makes before changing a counter.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Protocol, runtime_checkable


@runtime_checkable
class SufficientStatistics(Protocol):
    """Structural interface of a capture's sufficient statistics."""

    def snapshot(self) -> "SufficientStatistics":
        """An independent deep copy (safe to keep across later merges)."""
        ...

    def merge(self, other: "SufficientStatistics") -> "SufficientStatistics":
        """Exact in-place merge of another shard's counts; ``self`` keeps
        its counter dtype."""
        ...

    def to_jsonable(self) -> dict[str, Any]:
        """Small canonical-JSON-ready summary (no raw counters)."""
        ...

    def save(self, path: str | Path, *, extra: dict | None = None) -> Path:
        """Persist counters plus ``extra`` metadata as an NPZ archive."""
        ...
