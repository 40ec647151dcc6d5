"""Batched capture orchestration: checkpoints, shards, progress.

A :class:`CaptureSource` describes one capture campaign as a
deterministic sequence of batches: batch b always derives the same keys
(child-seeded by batch index, never by sequential RNG state) and
accumulates the same counts, so any subsequence of batches is
reproducible in isolation.  :func:`run_capture` walks a batch range in
runs that end at each checkpoint, handing each run to the source in one
call (the §6 sources count it with one kernel call), and checkpoints the
sufficient statistics every ``checkpoint_every`` batches; rerunning with
the same arguments resumes from the last checkpoint and produces
counters bit-identical to an uninterrupted run.

Sharding rides the same property: :func:`shard_batches` splits the batch
space into disjoint ranges, each shard runs ``run_capture(source,
batches=...)`` in its own process, and :func:`merge_shards` combines the
results with the exact merge of the
:class:`~repro.capture.protocol.SufficientStatistics` protocol (uint32
§6 counters refuse a merge past 2^32 - 1 requests).
"""

from __future__ import annotations

import hashlib
import warnings
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Protocol, Sequence

from ..errors import CaptureError, DatasetError, StatisticsKindError
from ..utils.serialization import canonical_json
from .protocol import SufficientStatistics

#: Default batches between checkpoint writes.
DEFAULT_CHECKPOINT_EVERY = 16


class CaptureSource(Protocol):
    """One capture campaign, described as deterministic batches."""

    @property
    def num_batches(self) -> int: ...

    @property
    def total_requests(self) -> int: ...

    def fingerprint(self) -> str:
        """Digest of everything that determines the counters."""
        ...

    def empty(self) -> SufficientStatistics: ...

    def capture_batches(
        self, stats: SufficientStatistics, indices: Sequence[int]
    ) -> list[int]:
        """Accumulate the batches ``indices`` into ``stats``.

        Returns the requests each batch added, in order.  The counters
        must equal accumulating the batches one at a time.
        """
        ...

    def load(self, path: str | Path) -> tuple[SufficientStatistics, dict]:
        """Load a checkpoint written by this source's statistics type."""
        ...


@dataclass(frozen=True)
class CaptureProgress:
    """One progress notification from :func:`run_capture`.

    Attributes:
        batches_done: batches completed within the running range.
        num_batches: batches in the running range.
        requests_done: requests accumulated so far (including resumed).
        total_requests: campaign total across all batches of the source.
        checkpointed: True when a checkpoint was written this batch.
    """

    batches_done: int
    num_batches: int
    requests_done: int
    total_requests: int
    checkpointed: bool = False


ProgressCallback = Callable[[CaptureProgress], None]


def source_fingerprint(descriptor: dict[str, Any]) -> str:
    """Stable digest of a source descriptor (seed, layout, batching)."""
    payload = canonical_json(descriptor).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def shard_batches(num_batches: int, num_shards: int) -> list[range]:
    """Split a batch space into disjoint, near-even contiguous ranges.

    Every returned range is non-empty: asking for more shards than there
    are batches yields exactly ``num_batches`` single-batch shards, and
    an empty batch space yields no shards at all.
    """
    if num_batches < 0:
        raise CaptureError(f"num_batches must be >= 0, got {num_batches}")
    if num_shards < 1:
        raise CaptureError(f"num_shards must be >= 1, got {num_shards}")
    if num_batches == 0:
        return []
    num_shards = min(num_shards, num_batches)
    base, extra = divmod(num_batches, num_shards)
    ranges = []
    start = 0
    for shard in range(num_shards):
        size = base + (1 if shard < extra else 0)
        ranges.append(range(start, start + size))
        start += size
    return ranges


def merge_shards(shards: Iterable[SufficientStatistics]) -> SufficientStatistics:
    """Combine shard statistics with the exact merge (first shard's dtype)."""
    iterator = iter(shards)
    try:
        total = next(iterator).snapshot()
    except StopIteration:
        raise CaptureError("no shards to merge") from None
    for shard in iterator:
        total.merge(shard)
    return total


def batch_digest(batch_list: list[int]) -> str:
    """Compact identity of the batch subsequence a checkpoint covers."""
    payload = canonical_json(batch_list).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


#: Exceptions a truncated/corrupted checkpoint NPZ surfaces as: short or
#: garbage zip containers, bad CRCs mid-read, malformed ``__meta__``.
CORRUPT_CHECKPOINT_ERRORS = (
    DatasetError,
    OSError,
    zipfile.BadZipFile,
    ValueError,
    KeyError,
    EOFError,
)


def _checkpoint_path(path: str | Path) -> Path:
    """Normalise to a ``.npz`` path (what ``np.savez`` writes anyway)."""
    path = Path(path)
    return path if path.suffix == ".npz" else Path(str(path) + ".npz")


def run_capture(
    source: CaptureSource,
    *,
    batches: Sequence[int] | None = None,
    checkpoint_path: str | Path | None = None,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    progress: ProgressCallback | None = None,
    resume: bool = True,
) -> SufficientStatistics:
    """Run a capture campaign in runs of batches between checkpoints.

    The single-process streaming loop every capture consumer builds on:
    hand the source the batches up to the next checkpoint boundary
    (:meth:`CaptureSource.capture_batches` folds their ciphertexts into
    the campaign's :class:`SufficientStatistics`), optionally
    checkpoint, repeat.  Shards call this with disjoint ``batches``
    ranges and merge the results bit-exactly.

    Example:

        >>> from repro.capture import run_capture
        >>> from repro.config import ReproConfig
        >>> from repro.simulate import HttpsAttackSimulation
        >>> sim = HttpsAttackSimulation(
        ...     ReproConfig(), cookie_len=2, max_gap=4
        ... )
        >>> source = sim.capture_source(1 << 12)
        >>> stats = run_capture(source, checkpoint_path="cap.npz")
        >>> stats.num_requests
        4096

    Args:
        source: the campaign (acquisition backend + batching).
        batches: batch indices to run (default: every batch).  Shards
            pass disjoint ranges from :func:`shard_batches`.
        checkpoint_path: where to persist the statistics every
            ``checkpoint_every`` batches as uncompressed NPZ (a temp file
            named for this process, fsync, atomic replace, directory
            fsync; ``.npz`` appended when missing).  Compressed and int64
            checkpoints from older runs still resume.  ``None`` disables
            checkpointing.
        checkpoint_every: batches between checkpoint writes, and the
            longest run handed to the source at once; the final batch
            always checkpoints so a completed capture resumes as a
            no-op.
        progress: optional callback receiving :class:`CaptureProgress`
            for every batch, in order, once its run is counted (and
            checkpointed).
        resume: when the checkpoint file exists, continue from it after
            validating the source fingerprint and batch range; pass
            ``False`` to start over (overwriting the checkpoint).

    Returns:
        The populated sufficient statistics.

    Raises:
        CaptureError: on invalid arguments, or on a checkpoint whose
            fingerprint/batch range does not match this campaign.
    """
    if checkpoint_every < 1:
        raise CaptureError(
            f"checkpoint_every must be >= 1, got {checkpoint_every}"
        )
    batch_list = (
        list(range(source.num_batches)) if batches is None else list(batches)
    )
    for index in batch_list:
        if not 0 <= index < source.num_batches:
            raise CaptureError(
                f"batch index {index} outside 0..{source.num_batches - 1}"
            )
    if len(set(batch_list)) != len(batch_list):
        raise CaptureError(
            "batches contains duplicate indices — counts would double"
        )
    fingerprint = source.fingerprint()
    digest = batch_digest(batch_list)
    path = _checkpoint_path(checkpoint_path) if checkpoint_path else None

    stats: SufficientStatistics | None = None
    done = 0
    requests_done = 0
    if path is not None and resume and path.exists():
        try:
            loaded, extra = source.load(path)
            cursor = extra.get("capture_checkpoint")
            if isinstance(cursor, dict):
                done = int(cursor["batches_done"])
                requests_done = int(cursor["requests_done"])
                stats = loaded
        except CORRUPT_CHECKPOINT_ERRORS as exc:
            # A half-written or truncated checkpoint (process killed mid
            # write, disk full), or one of another statistics kind (such
            # as an older run's layout), must cost a restart of this
            # capture, not an opaque zipfile/numpy traceback.
            if isinstance(exc, StatisticsKindError):
                problem = (
                    f"holds statistics kind {exc.found!r}, not the "
                    f"{exc.expected!r} this capture counts"
                )
            else:
                problem = (
                    "is corrupted or truncated "
                    f"({exc.__class__.__name__}: {exc})"
                )
            warnings.warn(
                f"checkpoint {path} {problem}; restarting capture from "
                "scratch",
                RuntimeWarning,
                stacklevel=2,
            )
            stats = None
            done = 0
            requests_done = 0
        else:
            # A *readable* NPZ that is not a checkpoint, or one from the
            # wrong campaign, stays a hard error: silently restarting
            # there would hide a caller bug (and could clobber data the
            # caller pointed at by mistake).
            if stats is None:
                raise CaptureError(f"{path} is not a capture checkpoint")
            if cursor.get("fingerprint") != fingerprint:
                raise CaptureError(
                    f"{path} was written by a different capture campaign "
                    "(source fingerprint mismatch)"
                )
            if cursor.get("batch_digest") != digest:
                raise CaptureError(
                    f"{path} covers a different batch range than this run"
                )
    if stats is None:
        stats = source.empty()

    def write_checkpoint() -> None:
        cursor = {
            "fingerprint": fingerprint,
            "batch_digest": digest,
            "batches_done": done,
            "requests_done": requests_done,
        }
        # save_arrays writes a per-process temp file and publishes it
        # durably, so two processes checkpointing to this path never
        # publish each other's half-written archive.
        stats.save(path, extra={"capture_checkpoint": cursor})

    while done < len(batch_list):
        # One run: every batch up to the next checkpoint boundary.
        first, reported = done, requests_done
        stop = min(
            len(batch_list), (first // checkpoint_every + 1) * checkpoint_every
        )
        added = source.capture_batches(stats, batch_list[first:stop])
        done, requests_done = stop, requests_done + sum(added)
        wrote = path is not None
        if wrote:
            write_checkpoint()
        if progress is not None:
            for position, requests in enumerate(added, first + 1):
                reported += requests
                progress(
                    CaptureProgress(
                        batches_done=position,
                        num_batches=len(batch_list),
                        requests_done=reported,
                        total_requests=source.total_requests,
                        checkpointed=wrote and position == stop,
                    )
                )
    return stats
