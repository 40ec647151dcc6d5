"""Pull-based fleet workers: claim a shard, capture it, promote it.

A worker is deliberately dumb: it knows only the job directory.  It
loads the manifest, verifies the descriptor rebuilds a source with the
manifest's fingerprint, then loops — claim an eligible shard with a
lease, run :func:`~repro.capture.engine.run_capture` over the shard's
batch range (heartbeating the lease from the progress callback, reusing
any checkpoint a dead predecessor left behind), fsync-promote the
finished checkpoint NPZ to the shard result, and record ``done``.
Progress arrives once a run of ``checkpoint_every`` batches is counted,
so the heartbeats come once per run: a run must finish within the
lease TTL (the defaults are 4 batches against 30 s).

Failures are per-shard, never per-worker: a retryable error puts the
shard back to ``pending`` with a capped-exponential ``not_before``
backoff; once the manifest's retry budget is exhausted the shard is
recorded ``failed`` with the reason, and the worker moves on.  The
worker exits when no shard is claimable (all done/failed, or leased by
live peers and the worker has no reason to wait).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

from ..config import ReproConfig, get_config
from ..errors import LeaseError, ManifestError
from ..utils.serialization import durable_replace
from .manifest import (
    DONE,
    FAILED,
    JobManifest,
    JobPaths,
    LEASED,
    PENDING,
    ShardState,
    effective_state,
    read_shard_state,
    shard_sequence,
    write_shard_state,
)
from .lease import Lease, try_acquire
from .retry import backoff_delay
from .sources import build_source


@dataclass
class WorkerReport:
    """What one :func:`run_worker` invocation accomplished."""

    worker: str
    shards_done: list[int] = field(default_factory=list)
    shards_failed: list[int] = field(default_factory=list)
    requests_done: int = 0

    def to_jsonable(self) -> dict:
        return {
            "worker": self.worker,
            "shards_done": self.shards_done,
            "shards_failed": self.shards_failed,
            "requests_done": self.requests_done,
        }


def _promote(paths: JobPaths, index: int) -> None:
    """Atomically publish a completed shard checkpoint as the result.

    ``run_capture`` always checkpoints the final batch, so the finished
    checkpoint NPZ *is* the shard result — same statistics, same cursor
    — and a durable rename publishes it without a rewrite.
    """
    durable_replace(paths.checkpoint(index), paths.result(index))


def run_worker(
    job_dir: str | Path,
    *,
    worker_id: str | None = None,
    config: ReproConfig | None = None,
    max_shards: int | None = None,
    poll: float = 0.5,
    throttle: float = 0.0,
    wait_for_peers: bool = False,
    sleep: Callable[[float], None] = time.sleep,
    now: Callable[[], float] = time.time,
) -> WorkerReport:
    """Claim-and-capture loop over a fleet job directory.

    Args:
        job_dir: directory holding ``manifest.json`` (shared with peers).
        worker_id: stable identity for leases and state records
            (default: ``host:pid``).
        config: local run configuration; the manifest descriptor's seed
            overrides ``config.seed`` inside the rebuilt source.
        max_shards: stop after completing this many shards (tests).
        poll: seconds between scans when every eligible shard is backed
            off but none is terminal yet.
        throttle: extra seconds to sleep after *each batch* — rate-limit
            -aware pacing for acquisition backends that must not hammer
            a target (and the fault-injection tests' kill window).
        wait_for_peers: keep polling while peers hold live leases
            instead of exiting once nothing is claimable.
        sleep / now: injectable clocks for tests.

    Returns:
        A :class:`WorkerReport`; never raises for per-shard failures.
    """
    paths = JobPaths(Path(job_dir))
    manifest = JobManifest.load(paths.root)
    manifest.verify_descriptor()
    if config is None:
        config = get_config()
    source = build_source(manifest.descriptor, config)
    if source.fingerprint() != manifest.fingerprint:
        raise ManifestError(
            "rebuilt capture source does not match the manifest "
            "fingerprint — library version skew between coordinator "
            "and worker?"
        )
    worker = worker_id or f"{os.uname().nodename}:{os.getpid()}"
    report = WorkerReport(worker=worker)
    order = shard_sequence(manifest, worker_seed=os.getpid())

    while True:
        if max_shards is not None and len(report.shards_done) >= max_shards:
            return report
        claimed = False
        busy = False  # saw a shard we might claim later
        for index in order:
            state = effective_state(paths, manifest, index, now=now())
            if state.state in (DONE, FAILED):
                continue
            if state.state == LEASED:
                busy = True
                continue
            if state.not_before > now():
                busy = True
                continue
            if state.attempts >= manifest.retry_budget:
                # A crashed predecessor burned the budget; record the
                # terminal state so the coordinator stops waiting.
                write_shard_state(
                    paths,
                    replace(
                        state,
                        state=FAILED,
                        worker=worker,
                        error=state.error
                        or "retry budget exhausted by crashed workers",
                    ),
                )
                continue
            lease = try_acquire(
                paths.lease(index),
                worker=worker,
                ttl=manifest.lease_ttl,
                attempt=state.attempts + 1,
                now=now(),
            )
            if lease is None:
                busy = True
                continue
            claimed = True
            _run_shard(
                paths,
                manifest,
                source,
                index,
                lease,
                worker,
                report,
                throttle=throttle,
                sleep=sleep,
                now=now,
            )
            break  # rescan from the top of our order
        if claimed:
            continue
        if not busy:
            return report
        if not wait_for_peers and not _has_waitable_work(
            paths, manifest, now=now()
        ):
            return report
        sleep(poll)


def _has_waitable_work(
    paths: JobPaths, manifest: JobManifest, *, now: float
) -> bool:
    """Whether any shard is backed off (worth polling for) vs leased."""
    for shard in manifest.shards:
        state = effective_state(paths, manifest, shard.index, now=now)
        if state.state == PENDING and state.not_before > now:
            if state.attempts < manifest.retry_budget:
                return True
    return False


def _run_shard(
    paths: JobPaths,
    manifest: JobManifest,
    source,
    index: int,
    lease: Lease,
    worker: str,
    report: WorkerReport,
    *,
    throttle: float,
    sleep: Callable[[float], None],
    now: Callable[[], float],
) -> None:
    """Run one leased shard to done/pending/failed and release the lease."""
    from ..capture.engine import run_capture

    spec = manifest.shard(index)
    prior = read_shard_state(paths, index)
    attempt = prior.attempts + 1
    write_shard_state(
        paths,
        replace(prior, state=LEASED, attempts=attempt, worker=worker),
    )
    requests_done = 0

    def on_progress(progress) -> None:
        nonlocal requests_done
        requests_done = progress.requests_done
        lease.heartbeat()  # raises LeaseError when a peer took over
        if throttle > 0.0:
            sleep(throttle)

    try:
        run_capture(
            source,
            batches=spec.batches,
            checkpoint_path=paths.checkpoint(index),
            checkpoint_every=manifest.checkpoint_every,
            progress=on_progress,
            resume=True,
        )
        if not lease.held(manifest.lease_ttl, now=now()):
            # Lost the lease on the very last heartbeat race — the new
            # holder owns the state file now; walk away.
            return
        _promote(paths, index)
        if requests_done == 0:
            # Resumed an already-complete checkpoint: no progress event
            # fired, so read the count from the promoted cursor.
            _, extra = source.load(paths.result(index))
            requests_done = int(extra["capture_checkpoint"]["requests_done"])
        write_shard_state(
            paths,
            ShardState(
                index=index,
                state=DONE,
                attempts=attempt,
                worker=worker,
                requests_done=requests_done,
            ),
        )
        report.shards_done.append(index)
        report.requests_done += requests_done
    except LeaseError:
        # A peer reclaimed the shard; its state file is theirs now.
        return
    except Exception as exc:  # noqa: BLE001 — per-shard fault isolation
        reason = f"{exc.__class__.__name__}: {exc}"
        if attempt >= manifest.retry_budget:
            write_shard_state(
                paths,
                ShardState(
                    index=index,
                    state=FAILED,
                    attempts=attempt,
                    worker=worker,
                    error=reason,
                ),
            )
            report.shards_failed.append(index)
        else:
            delay = backoff_delay(attempt - 1, base=manifest.backoff_base)
            write_shard_state(
                paths,
                ShardState(
                    index=index,
                    state=PENDING,
                    attempts=attempt,
                    not_before=now() + delay,
                    worker=worker,
                    error=reason,
                ),
            )
    finally:
        lease.release()
