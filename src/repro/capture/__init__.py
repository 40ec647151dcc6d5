"""Unified streaming capture engine (paper §5.2, §6.3 at scale).

The attacks hinge on capture scale — §6 ingests 9·2^27 encrypted
requests, §5 ingests 2^30 packets — so ciphertext statistics collection
rides the same batched, vectorized machinery as keystream generation:

- **acquisition** (:mod:`.https`, :mod:`.tkip`): one source per attack,
  :class:`HttpsCaptureSource` and :class:`TkipCaptureSource`, each for
  one victim or a group of victims sharing a keystream regime.  They
  generate ``(batch, stream_len)`` keystream blocks through
  :func:`repro.rc4.batch.batch_keystream` (native backend when
  available), fold in each victim's plaintext template, and count
  digraph/ABSAB-differential/single-byte cells with the kernels of
  :mod:`repro.datasets.generate` — no per-request Python loop on the
  hot path.  The §6 source generates only the keystream rows its
  counters read and counts every batch up to the next checkpoint in one
  kernel call;
- **sufficient statistics** (:mod:`.protocol`): a common protocol
  (snapshot / exact merge / canonical-JSON summary / NPZ persistence)
  implemented by :class:`repro.tls.attack.CookieStatistics` (uint32
  counters, fewer than 2^32 requests per object) and
  :class:`repro.tkip.injection.CaptureSet` (int64), and by the
  :class:`VictimSet` of either (:mod:`.multi`) a source with victim ids
  returns, making captures shardable across processes and resumable
  across sessions;
- **orchestration** (:mod:`.engine`): :func:`run_capture` walks
  deterministic per-batch key derivations, hands the source each run of
  batches up to the next checkpoint, and reproduces uninterrupted counts
  bit-exactly on resume.

The per-request reference paths (``CookieStatistics.ingest_fragment``,
``CaptureSet.add_frame``) remain as bit-exact oracles; see
tests/test_capture_equivalence.py.
"""

from .engine import (
    CaptureProgress,
    CaptureSource,
    batch_digest,
    run_capture,
    merge_shards,
    shard_batches,
    source_fingerprint,
)
from .https import HttpsCaptureSource, ingest_keystream_columns
from .multi import VictimSet
from .protocol import SufficientStatistics
from .tkip import TkipCaptureSource

__all__ = [
    "CaptureProgress",
    "CaptureSource",
    "HttpsCaptureSource",
    "SufficientStatistics",
    "TkipCaptureSource",
    "VictimSet",
    "batch_digest",
    "ingest_keystream_columns",
    "merge_shards",
    "run_capture",
    "shard_batches",
    "source_fingerprint",
]
