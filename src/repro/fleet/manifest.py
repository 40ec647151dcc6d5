"""Durable job manifests: a capture campaign expanded into shards.

A fleet job lives entirely in one shared directory — that is the whole
coordination substrate, chosen deliberately so the same manifest can
saturate one core or a thousand machines mounting the same filesystem
(the paper's §3.2 cluster shape).  Layout::

    job_dir/
      manifest.json              immutable job record (this module)
      shards/
        shard-00007.state.json   mutable per-shard state (atomic replace)
        shard-00007.lease        exists while leased; mtime = heartbeat
        shard-00007.ckpt.npz     run_capture checkpoint (mid-shard resume)
        shard-00007.npz          finished shard statistics
      quarantine/                corrupt shard NPZs moved aside at merge

The manifest is written once and never mutated; every piece of mutable
state is per-shard, written only by the current lease holder (single
writer), via write-to-temp + fsync + atomic rename + directory fsync.  A
shard's effective state is *derived* — ``done``/``failed`` from the
state file, ``leased`` from a fresh lease file, ``pending`` otherwise —
so a crashed worker never wedges the job: its lease goes stale and the
shard becomes claimable again.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Sequence

from ..capture.engine import batch_digest, shard_batches, source_fingerprint
from ..config import (
    DEFAULT_FLEET_BACKOFF_BASE,
    DEFAULT_FLEET_LEASE_TTL,
    DEFAULT_FLEET_RETRY_BUDGET,
)
from ..errors import ManifestError
from ..utils.serialization import canonical_json, durable_replace

MANIFEST_VERSION = 1
MANIFEST_NAME = "manifest.json"

#: Shard state machine: pending -> leased -> done | failed (with
#: leased -> pending on retryable failure or stale-lease reclaim).
PENDING = "pending"
LEASED = "leased"
DONE = "done"
FAILED = "failed"
SHARD_STATES = (PENDING, LEASED, DONE, FAILED)

#: Human-readable meaning of each shard state — one source of truth for
#: the ``fleet-status`` CLI epilog and the README failure matrix.
STATE_DESCRIPTIONS = {
    PENDING: (
        "unclaimed; any worker may lease it (retryable failures and "
        "stale-lease reclaims requeue shards here)"
    ),
    LEASED: (
        "a worker holds the O_EXCL lease and heartbeats its mtime; a "
        "stale heartbeat lets another worker take over atomically"
    ),
    DONE: "captured, verified, and promoted; its statistics are mergeable",
    FAILED: (
        "retry budget exhausted or output quarantined as corrupt; "
        "excluded from the merge and listed in the coverage report"
    ),
}


def atomic_write_json(path: Path, payload: dict[str, Any]) -> None:
    """Durably replace ``path`` with ``payload`` (temp + fsync + rename +
    directory fsync)."""
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
    tmp.write_text(canonical_json(payload))
    durable_replace(tmp, path)


def read_json(path: Path) -> dict[str, Any]:
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ManifestError(f"{path}: unreadable JSON record ({exc})") from exc
    if not isinstance(payload, dict):
        raise ManifestError(f"{path}: expected a JSON object")
    return payload


@dataclass(frozen=True)
class ShardSpec:
    """One immutable shard of the batch space."""

    index: int
    start: int
    stop: int

    @property
    def batches(self) -> range:
        return range(self.start, self.stop)

    @property
    def num_batches(self) -> int:
        return self.stop - self.start

    def digest(self) -> str:
        """The batch digest :func:`run_capture` stamps into checkpoints."""
        return batch_digest(list(self.batches))


@dataclass(frozen=True)
class ShardState:
    """Mutable per-shard progress record (single writer: lease holder).

    Attributes:
        index: shard index into the manifest.
        state: one of :data:`SHARD_STATES`.
        attempts: claims so far (a claim = one lease acquisition).
        not_before: earliest epoch second the next claim may happen
            (capped exponential backoff after a retryable failure).
        worker: id of the last worker that touched the shard.
        error: recorded reason when ``state == failed`` (or the last
            retryable error while still pending).
        requests_done: requests accumulated by the finished shard.
    """

    index: int
    state: str = PENDING
    attempts: int = 0
    not_before: float = 0.0
    worker: str = ""
    error: str = ""
    requests_done: int = 0

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "state": self.state,
            "attempts": self.attempts,
            "not_before": self.not_before,
            "worker": self.worker,
            "error": self.error,
            "requests_done": self.requests_done,
        }

    @classmethod
    def from_jsonable(cls, payload: dict[str, Any]) -> "ShardState":
        state = payload.get("state", PENDING)
        if state not in SHARD_STATES:
            raise ManifestError(f"unknown shard state {state!r}")
        return cls(
            index=int(payload["index"]),
            state=state,
            attempts=int(payload.get("attempts", 0)),
            not_before=float(payload.get("not_before", 0.0)),
            worker=str(payload.get("worker", "")),
            error=str(payload.get("error", "")),
            requests_done=int(payload.get("requests_done", 0)),
        )


@dataclass(frozen=True)
class JobPaths:
    """Every path the fleet derives from a job directory."""

    root: Path

    @property
    def manifest(self) -> Path:
        return self.root / MANIFEST_NAME

    @property
    def shards(self) -> Path:
        return self.root / "shards"

    @property
    def quarantine(self) -> Path:
        return self.root / "quarantine"

    def _shard(self, index: int, suffix: str) -> Path:
        return self.shards / f"shard-{index:05d}{suffix}"

    def state(self, index: int) -> Path:
        return self._shard(index, ".state.json")

    def lease(self, index: int) -> Path:
        return self._shard(index, ".lease")

    def checkpoint(self, index: int) -> Path:
        return self._shard(index, ".ckpt.npz")

    def result(self, index: int) -> Path:
        return self._shard(index, ".npz")


@dataclass(frozen=True)
class JobManifest:
    """The immutable record a capture job is coordinated from.

    Everything a worker on another machine needs: the source descriptor
    (seed, layout, batching — enough to rebuild the
    :class:`~repro.capture.engine.CaptureSource` bit-exactly), the
    campaign fingerprint every checkpoint and shard NPZ must match, the
    shard partition of the batch space, and the failure-policy knobs.
    """

    kind: str
    descriptor: dict[str, Any]
    fingerprint: str
    num_batches: int
    total_requests: int
    shards: tuple[ShardSpec, ...]
    lease_ttl: float = DEFAULT_FLEET_LEASE_TTL
    retry_budget: int = DEFAULT_FLEET_RETRY_BUDGET
    backoff_base: float = DEFAULT_FLEET_BACKOFF_BASE
    checkpoint_every: int = 4
    version: int = MANIFEST_VERSION

    def __post_init__(self) -> None:
        if self.version != MANIFEST_VERSION:
            raise ManifestError(
                f"unsupported manifest version {self.version!r} "
                f"(expected {MANIFEST_VERSION})"
            )
        if self.lease_ttl <= 0.0:
            raise ManifestError(f"lease_ttl must be > 0, got {self.lease_ttl}")
        if self.retry_budget < 1:
            raise ManifestError(
                f"retry_budget must be >= 1, got {self.retry_budget}"
            )
        if self.backoff_base < 0.0:
            raise ManifestError(
                f"backoff_base must be >= 0, got {self.backoff_base}"
            )
        if self.checkpoint_every < 1:
            raise ManifestError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
        covered = [b for shard in self.shards for b in shard.batches]
        if covered != list(range(self.num_batches)):
            raise ManifestError(
                "shards do not partition the batch space "
                f"0..{self.num_batches - 1}"
            )

    # --- construction -----------------------------------------------------

    @classmethod
    def from_source(
        cls,
        source,
        *,
        num_shards: int,
        lease_ttl: float = DEFAULT_FLEET_LEASE_TTL,
        retry_budget: int = DEFAULT_FLEET_RETRY_BUDGET,
        backoff_base: float = DEFAULT_FLEET_BACKOFF_BASE,
        checkpoint_every: int = 4,
    ) -> "JobManifest":
        """Expand a capture source into a shard manifest."""
        descriptor = source.descriptor()
        ranges = shard_batches(source.num_batches, num_shards)
        shards = tuple(
            ShardSpec(index=i, start=r.start, stop=r.stop)
            for i, r in enumerate(ranges)
        )
        return cls(
            kind=descriptor["kind"],
            descriptor=descriptor,
            fingerprint=source.fingerprint(),
            num_batches=source.num_batches,
            total_requests=source.total_requests,
            shards=shards,
            lease_ttl=lease_ttl,
            retry_budget=retry_budget,
            backoff_base=backoff_base,
            checkpoint_every=checkpoint_every,
        )

    # --- persistence ------------------------------------------------------

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "version": self.version,
            "kind": self.kind,
            "descriptor": self.descriptor,
            "fingerprint": self.fingerprint,
            "num_batches": self.num_batches,
            "total_requests": self.total_requests,
            "shards": [
                {"index": s.index, "start": s.start, "stop": s.stop}
                for s in self.shards
            ],
            "lease_ttl": self.lease_ttl,
            "retry_budget": self.retry_budget,
            "backoff_base": self.backoff_base,
            "checkpoint_every": self.checkpoint_every,
        }

    @classmethod
    def from_jsonable(cls, payload: dict[str, Any]) -> "JobManifest":
        try:
            shards = tuple(
                ShardSpec(
                    index=int(s["index"]),
                    start=int(s["start"]),
                    stop=int(s["stop"]),
                )
                for s in payload["shards"]
            )
            return cls(
                kind=str(payload["kind"]),
                descriptor=dict(payload["descriptor"]),
                fingerprint=str(payload["fingerprint"]),
                num_batches=int(payload["num_batches"]),
                total_requests=int(payload["total_requests"]),
                shards=shards,
                lease_ttl=float(payload["lease_ttl"]),
                retry_budget=int(payload["retry_budget"]),
                backoff_base=float(payload["backoff_base"]),
                checkpoint_every=int(payload["checkpoint_every"]),
                version=int(payload.get("version", MANIFEST_VERSION)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ManifestError(f"malformed manifest: {exc}") from exc

    def write(self, job_dir: str | Path) -> Path:
        """Durably publish the manifest into ``job_dir`` (idempotent).

        An existing manifest with the same fingerprint and shard
        partition is left untouched — re-running a coordinator on a
        half-finished job must continue it, never restart it.  A
        mismatched manifest is a hard error: silently re-sharding a
        directory with in-flight shards would double-count batches.
        """
        paths = JobPaths(Path(job_dir))
        paths.shards.mkdir(parents=True, exist_ok=True)
        if paths.manifest.exists():
            existing = JobManifest.load(paths.root)
            if (
                existing.fingerprint == self.fingerprint
                and existing.shards == self.shards
            ):
                return paths.manifest
            raise ManifestError(
                f"{paths.manifest} already coordinates a different job "
                "(fingerprint or shard partition mismatch); use a fresh "
                "job directory"
            )
        atomic_write_json(paths.manifest, self.to_jsonable())
        return paths.manifest

    @classmethod
    def load(cls, job_dir: str | Path) -> "JobManifest":
        paths = JobPaths(Path(job_dir))
        if not paths.manifest.exists():
            raise ManifestError(f"no fleet manifest at {paths.manifest}")
        return cls.from_jsonable(read_json(paths.manifest))

    # --- derived ----------------------------------------------------------

    def verify_descriptor(self) -> None:
        """Check the stored fingerprint still matches the descriptor."""
        if source_fingerprint(self.descriptor) != self.fingerprint:
            raise ManifestError(
                "manifest fingerprint does not match its descriptor "
                "(corrupted or hand-edited manifest)"
            )

    def shard(self, index: int) -> ShardSpec:
        if not 0 <= index < len(self.shards):
            raise ManifestError(
                f"shard {index} outside 0..{len(self.shards) - 1}"
            )
        return self.shards[index]


def read_shard_state(paths: JobPaths, index: int) -> ShardState:
    """The recorded state of a shard (``pending`` when never touched)."""
    path = paths.state(index)
    if not path.exists():
        return ShardState(index=index)
    return ShardState.from_jsonable(read_json(path))


def write_shard_state(paths: JobPaths, state: ShardState) -> None:
    """Durably replace a shard's state record (lease holder only)."""
    atomic_write_json(paths.state(state.index), state.to_jsonable())


def effective_state(
    paths: JobPaths,
    manifest: JobManifest,
    index: int,
    *,
    now: float | None = None,
) -> ShardState:
    """The *effective* state: recorded state with stale leases decayed.

    A shard recorded ``leased`` whose lease file is gone or stale (no
    heartbeat within ``lease_ttl``) is effectively ``pending`` again —
    that is the crash-recovery rule that makes dead workers harmless.
    """
    state = read_shard_state(paths, index)
    if state.state != LEASED:
        return state
    lease = paths.lease(index)
    try:
        age = (now if now is not None else time.time()) - lease.stat().st_mtime
    except OSError:
        return replace(state, state=PENDING)
    if age > manifest.lease_ttl:
        return replace(state, state=PENDING)
    return state


@dataclass
class JobStatus:
    """Aggregated view of every shard, for progress and reports."""

    states: list[ShardState] = field(default_factory=list)

    @property
    def counts(self) -> dict[str, int]:
        totals = {state: 0 for state in SHARD_STATES}
        for shard in self.states:
            totals[shard.state] += 1
        return totals

    @property
    def terminal(self) -> bool:
        return all(s.state in (DONE, FAILED) for s in self.states)

    def of(self, state: str) -> list[ShardState]:
        return [s for s in self.states if s.state == state]


def job_status(
    paths: JobPaths, manifest: JobManifest, *, now: float | None = None
) -> JobStatus:
    """Effective states of every shard in the manifest."""
    if now is None:
        now = time.time()
    return JobStatus(
        states=[
            effective_state(paths, manifest, shard.index, now=now)
            for shard in manifest.shards
        ]
    )


def shard_sequence(manifest: JobManifest, worker_seed: int) -> Sequence[int]:
    """Shard visit order for a worker: rotated so workers spread out.

    Deterministic per worker (no RNG — the fleet must not perturb the
    statistics streams) yet different across workers, so N workers
    claiming from the same manifest mostly start on different shards
    instead of contending on shard 0.
    """
    n = len(manifest.shards)
    if n == 0:
        return ()
    offset = worker_seed % n
    return tuple(range(offset, n)) + tuple(range(offset))
