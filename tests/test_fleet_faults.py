"""Fault injection for the distributed capture fleet.

The fleet's whole promise is *exactness under failure*: whatever crashes,
stalls, or corrupts, the coordinator's merged statistics must be
cell-for-cell identical to an uninterrupted single-process
``run_capture`` — or a truthful partial report naming exactly what is
missing.  Each test here injects one fault from the §3.2 cluster
reality (worker SIGKILL mid-shard, truncated shard NPZ, stale lease,
retry-budget exhaustion) and asserts that promise, on whichever
``REPRO_NATIVE`` leg the suite is running.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from repro.api import ExperimentResult, Session
from repro.capture.engine import run_capture, shard_batches, source_fingerprint
from repro.capture.https import HttpsCaptureSource
from repro.capture.tkip import TkipCaptureSource
from repro.config import ReproConfig
from repro.datasets import DatasetSpec, dataset_cache_path
from repro.errors import CaptureError, ManifestError
from repro.fleet.coordinator import Coordinator
from repro.fleet.lease import try_acquire
from repro.fleet.manifest import (
    DONE,
    FAILED,
    JobManifest,
    LEASED,
    PENDING,
    read_shard_state,
    write_shard_state,
)
from repro.fleet.retry import backoff_delay, backoff_delays, retry_call
from repro.fleet.sources import build_source, register_source
from repro.fleet.worker import run_worker
from repro.rc4 import _native
from repro.tkip import PerTscDistributions
from repro.tls.attack import CookieLayout
from repro.utils.serialization import canonical_json
from repro.warehouse import RunStore


def _fleet_config(**overrides) -> ReproConfig:
    """Deterministic test config: no real backoff sleeps."""
    defaults = dict(seed=1234, fleet_backoff_base=0.0, fleet_retry_budget=3)
    defaults.update(overrides)
    return ReproConfig(**defaults)


def _tkip_source(config: ReproConfig, **overrides) -> TkipCaptureSource:
    kwargs = dict(
        config=config,
        plaintext=bytes(range(20)),
        tsc_values=(0, 1, 2, 3),
        packets_per_tsc=700,
        batch_size=128,
    )
    kwargs.update(overrides)
    return TkipCaptureSource(**kwargs)


def _stats_equal(a, b) -> bool:
    """Cell-for-cell equality via the canonical JSON snapshot."""
    return canonical_json(a.to_jsonable()) == canonical_json(b.to_jsonable())


# --------------------------------------------------------------------------
# shard_batches edge cases (satellite)
# --------------------------------------------------------------------------


class TestShardBatchesEdgeCases:
    def test_zero_batches_yield_no_shards(self):
        assert shard_batches(0, 1) == []
        assert shard_batches(0, 7) == []

    def test_more_shards_than_batches_never_produces_empty_ranges(self):
        ranges = shard_batches(3, 10)
        assert ranges == [range(0, 1), range(1, 2), range(2, 3)]
        for num_batches in (1, 2, 5):
            for num_shards in (1, 2, 3, 7, 64):
                ranges = shard_batches(num_batches, num_shards)
                assert all(len(r) > 0 for r in ranges)
                covered = [b for r in ranges for b in r]
                assert covered == list(range(num_batches))

    def test_rejects_invalid_arguments(self):
        with pytest.raises(CaptureError):
            shard_batches(-1, 2)
        with pytest.raises(CaptureError):
            shard_batches(4, 0)


# --------------------------------------------------------------------------
# retry helper (shared by fleet and the native compile probe)
# --------------------------------------------------------------------------


class TestRetryBackoff:
    def test_schedule_doubles_and_caps(self):
        assert backoff_delay(0, base=0.5) == 0.5
        assert backoff_delay(1, base=0.5) == 1.0
        assert backoff_delay(10, base=0.5, cap=4.0) == 4.0
        assert backoff_delay(3, base=0.0) == 0.0
        assert list(backoff_delays(3, base=1.0, cap=3.0)) == [1.0, 2.0, 3.0]

    def test_retry_call_recovers_and_sleeps_schedule(self):
        calls, slept = [], []
        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise TimeoutError("wedged")
            return "ok"
        assert retry_call(
            flaky, attempts=4, base=0.5, retry_on=(TimeoutError,),
            sleep=slept.append,
        ) == "ok"
        assert len(calls) == 3
        assert slept == [0.5, 1.0]

    def test_retry_call_exhaustion_reraises_last(self):
        with pytest.raises(TimeoutError):
            retry_call(
                lambda: (_ for _ in ()).throw(TimeoutError("still wedged")),
                attempts=2, base=0.0, retry_on=(TimeoutError,),
            )

    def test_retry_call_propagates_unlisted_exceptions(self):
        def boom():
            raise ValueError("not retryable")
        with pytest.raises(ValueError):
            retry_call(boom, attempts=5, base=0.0, retry_on=(TimeoutError,))


# --------------------------------------------------------------------------
# checkpoint hardening (satellite)
# --------------------------------------------------------------------------


class TestCheckpointHardening:
    def test_truncated_checkpoint_warns_and_restarts(self, tmp_path):
        config = _fleet_config()
        source = _tkip_source(config)
        single = run_capture(source)
        path = tmp_path / "capture.npz"
        run_capture(source, batches=range(0, 8), checkpoint_path=path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])  # torn write
        with pytest.warns(RuntimeWarning, match="corrupted or truncated"):
            recovered = run_capture(source, checkpoint_path=path)
        assert _stats_equal(recovered, single)

    def test_garbage_checkpoint_warns_and_restarts(self, tmp_path):
        config = _fleet_config()
        source = _tkip_source(config)
        path = tmp_path / "capture.npz"
        path.write_bytes(b"this is not an npz archive")
        with pytest.warns(RuntimeWarning, match="corrupted or truncated"):
            recovered = run_capture(source, checkpoint_path=path)
        assert _stats_equal(recovered, run_capture(source))

    def test_wrong_campaign_checkpoint_stays_a_hard_error(self, tmp_path):
        source = _tkip_source(_fleet_config())
        other = _tkip_source(_fleet_config(seed=4242))
        path = tmp_path / "capture.npz"
        run_capture(source, checkpoint_path=path)
        with pytest.raises(CaptureError, match="fingerprint"):
            run_capture(other, checkpoint_path=path)

    def test_rescuer_leaves_stalled_writers_temp_file_alone(
        self, tmp_path, monkeypatch
    ):
        """A worker stalls halfway through writing a checkpoint; a
        rescuer (another process) reclaims the shard and checkpoints it
        to the same path.  The stalled worker's temp file must survive
        the rescuer byte for byte, or one writer's rename would publish
        the other's half-written archive."""
        source = _tkip_source(_fleet_config())
        path = tmp_path / "capture.npz"
        real_savez = np.savez
        pid = os.getpid()
        half = b"the first half of the stalled worker's archive"

        def stall_mid_save(tmp, **arrays):
            Path(tmp).write_bytes(half)
            monkeypatch.setattr(np, "savez", real_savez)
            monkeypatch.setattr(os, "getpid", lambda: pid + 1)
            run_capture(source, checkpoint_path=path)
            assert Path(tmp).read_bytes() == half
            monkeypatch.setattr(os, "getpid", lambda: pid)
            real_savez(tmp, **arrays)

        # The array write inside save_arrays, which checkpoints go through.
        monkeypatch.setattr(np, "savez", stall_mid_save)
        stalled = run_capture(source, checkpoint_path=path)
        assert _stats_equal(stalled, run_capture(source))
        assert _stats_equal(run_capture(source, checkpoint_path=path), stalled)
        assert [p.name for p in tmp_path.iterdir()] == ["capture.npz"]

    def test_failed_checkpoint_save_leaves_no_temp_file(
        self, tmp_path, monkeypatch
    ):
        source = _tkip_source(_fleet_config())

        def disk_full(tmp, **arrays):
            Path(tmp).write_bytes(b"partial")
            raise OSError(28, "No space left on device")

        # The array write inside save_arrays, which checkpoints go through.
        monkeypatch.setattr(np, "savez", disk_full)
        with pytest.raises(OSError, match="No space left"):
            run_capture(source, checkpoint_path=tmp_path / "capture.npz")
        assert list(tmp_path.iterdir()) == []


# --------------------------------------------------------------------------
# manifest + lease mechanics
# --------------------------------------------------------------------------


class TestDurableWrites:
    """Every writer that publishes a file by rename fsyncs the directory
    after the rename, so a crash cannot lose the rename itself."""

    @pytest.fixture
    def fs_events(self, monkeypatch):
        """("fsync", path) and ("replace", destination) in call order."""
        events: list[tuple[str, Path]] = []
        opened: dict[int, Path] = {}
        real_open, real_fsync, real_replace = os.open, os.fsync, os.replace

        def record_open(path, flags, *args, **kwargs):
            fd = real_open(path, flags, *args, **kwargs)
            opened[fd] = Path(path)
            return fd

        def record_fsync(fd):
            events.append(("fsync", opened.get(fd)))
            return real_fsync(fd)

        def record_replace(src, dst, *args, **kwargs):
            events.append(("replace", Path(dst)))
            return real_replace(src, dst, *args, **kwargs)

        monkeypatch.setattr(os, "open", record_open)
        monkeypatch.setattr(os, "fsync", record_fsync)
        monkeypatch.setattr(os, "replace", record_replace)
        return events

    @staticmethod
    def _assert_durable(events, destination: Path) -> None:
        renames = [
            i for i, event in enumerate(events)
            if event == ("replace", destination)
        ]
        assert renames, f"{destination} was never renamed into place"
        for i in renames:
            assert events[i - 1][0] == "fsync", "file not flushed before rename"
            assert events[i + 1 : i + 2] == [("fsync", destination.parent)]

    def test_capture_checkpoint(self, tmp_path, fs_events):
        path = tmp_path / "capture.npz"
        run_capture(
            _tkip_source(_fleet_config(), packets_per_tsc=256),
            checkpoint_path=path, checkpoint_every=3,
        )
        self._assert_durable(fs_events, path)

    def test_fleet_manifest_state_and_promoted_shard(
        self, tmp_path, fs_events
    ):
        config = _fleet_config()
        coordinator = Coordinator.create(
            _tkip_source(config, packets_per_tsc=256), tmp_path,
            num_shards=2, config=config,
        )
        coordinator.execute(workers=1)
        paths = coordinator.paths
        self._assert_durable(fs_events, paths.manifest)
        for index in range(2):
            self._assert_durable(fs_events, paths.state(index))
            self._assert_durable(fs_events, paths.result(index))

    def test_dataset_cache(self, tmp_path, fs_events):
        spec = DatasetSpec(kind="single", num_keys=512, positions=4)
        session = Session(_fleet_config(), cache_dir=tmp_path)
        session.dataset(spec)
        self._assert_durable(
            fs_events, dataset_cache_path(tmp_path, spec, session.config)
        )

    def test_per_tsc_table(self, tmp_path, fs_events):
        path = tmp_path / "per-tsc.npz"
        PerTscDistributions([7], np.full((1, 4, 256), 1 / 256)).save(path)
        self._assert_durable(fs_events, path)

    def test_warehouse_blob_lands_before_its_index_line(
        self, tmp_path, fs_events
    ):
        store = RunStore(tmp_path / "warehouse")
        run = store.append(
            ExperimentResult(
                experiment="dataset-single", params={}, metrics={},
                timings={}, provenance={"seed": 1},
            ),
            blobs={"counters": ({"counts": np.ones((4, 256), np.int64)}, {})},
        )
        blob = store.blob_path(run.fingerprint, "counters")
        self._assert_durable(fs_events, blob)
        assert fs_events.index(("fsync", blob.parent)) < fs_events.index(
            ("fsync", store.index_path)
        ), "the index line was flushed before the blob it names"

    def test_native_backend_build(self, tmp_path, fs_events, monkeypatch):
        """The compiled object is flushed before it takes the hash-keyed
        name that later loads trust without checking."""
        monkeypatch.setattr(_native, "_cache_dir", lambda: tmp_path)
        try:
            target = _native._compile()
        except RuntimeError as exc:
            pytest.skip(f"no working C compiler: {exc}")
        self._assert_durable(fs_events, target)


class TestManifestAndLease:
    def test_manifest_roundtrip_and_idempotent_write(self, tmp_path):
        config = _fleet_config()
        source = _tkip_source(config)
        manifest = JobManifest.from_source(source, num_shards=4)
        manifest.write(tmp_path)
        manifest.write(tmp_path)  # same job: no-op
        loaded = JobManifest.load(tmp_path)
        assert loaded == manifest
        loaded.verify_descriptor()
        assert build_source(
            loaded.descriptor, _fleet_config(seed=999)
        ).fingerprint() == source.fingerprint()

    def test_manifest_refuses_conflicting_job(self, tmp_path):
        config = _fleet_config()
        JobManifest.from_source(_tkip_source(config), num_shards=4).write(
            tmp_path
        )
        other = JobManifest.from_source(
            _tkip_source(_fleet_config(seed=77)), num_shards=4
        )
        with pytest.raises(ManifestError, match="different job"):
            other.write(tmp_path)

    def test_descriptor_tampering_is_detected(self, tmp_path):
        config = _fleet_config()
        manifest = JobManifest.from_source(_tkip_source(config), num_shards=2)
        payload = manifest.to_jsonable()
        payload["descriptor"]["seed"] = 31337
        tampered = JobManifest.from_jsonable(payload)
        with pytest.raises(ManifestError, match="fingerprint"):
            tampered.verify_descriptor()

    def test_lease_exclusion_and_stale_takeover(self, tmp_path):
        path = tmp_path / "shard-00000.lease"
        first = try_acquire(path, worker="w1", ttl=30.0, attempt=1)
        assert first is not None
        # Live lease: a second claimant backs off.
        assert try_acquire(path, worker="w2", ttl=30.0, attempt=1) is None
        # Stale lease: heartbeat far in the past, takeover succeeds.
        os.utime(path, (1.0, 1.0))
        second = try_acquire(path, worker="w2", ttl=30.0, attempt=2)
        assert second is not None
        assert second.worker == "w2"
        # The zombie holder notices on its next heartbeat.
        from repro.errors import LeaseError

        with pytest.raises(LeaseError):
            first.heartbeat()
        assert second.held(30.0)


# --------------------------------------------------------------------------
# fault injection: the four ISSUE scenarios
# --------------------------------------------------------------------------


@dataclass
class FlakyTkipSource:
    """A tkip source whose poisoned batches always raise (test-only)."""

    inner: TkipCaptureSource
    poison: tuple[int, ...]

    @property
    def num_batches(self) -> int:
        return self.inner.num_batches

    @property
    def total_requests(self) -> int:
        return self.inner.total_requests

    def descriptor(self) -> dict:
        descriptor = dict(self.inner.descriptor())
        descriptor["kind"] = "test-flaky-tkip"
        descriptor["poison"] = list(self.poison)
        return descriptor

    def fingerprint(self) -> str:
        return source_fingerprint(self.descriptor())

    def empty(self):
        return self.inner.empty()

    def load(self, path):
        return self.inner.load(path)

    def capture_batches(self, stats, indices) -> list[int]:
        added = []
        for index in indices:
            if index in self.poison:
                raise RuntimeError(f"injected fault at batch {index}")
            added += self.inner.capture_batches(stats, [index])
        return added


def _flaky_factory(descriptor: dict, config: ReproConfig) -> FlakyTkipSource:
    inner = dict(descriptor)
    poison = tuple(inner.pop("poison"))
    inner["kind"] = "tkip-capture"
    return FlakyTkipSource(
        inner=TkipCaptureSource.from_descriptor(inner, config), poison=poison
    )


register_source("test-flaky-tkip", _flaky_factory)


class TestFleetFaults:
    def _single(self, source):
        return run_capture(source)

    @pytest.mark.parametrize("checkpoint_every", [1, 3])
    def test_multi_victim_https_job_merges_cell_for_cell(
        self, tmp_path, checkpoint_every
    ):
        """Shards count their batch runs in one kernel call each and
        merge to the single-process uint32 counters of every victim."""
        config = _fleet_config()
        layout = CookieLayout(prefix=b"id=", suffix=b";path=/x", cookie_len=2)
        source = HttpsCaptureSource(
            config=config,
            layout=layout,
            plaintexts=tuple(
                layout.prefix + cookie + layout.suffix
                for cookie in (b"ab", b"Q7", b"zz")
            ),
            victim_ids=("a", "b", "c"),
            num_requests=700,
            batch_size=64,
            max_gap=16,
        )
        coordinator = Coordinator.create(
            source, tmp_path, num_shards=4, config=config,
            checkpoint_every=checkpoint_every,
        )
        stats, report = coordinator.execute(workers=1)
        assert report.complete
        single = self._single(source)
        for mine, theirs in zip(stats.victims, single.victims):
            assert mine.fm_counts.dtype == np.uint32
            assert mine.num_requests == theirs.num_requests == 700
            assert np.array_equal(mine.fm_counts, theirs.fm_counts)
            assert np.array_equal(mine.absab_matrix, theirs.absab_matrix)

    def test_uninterrupted_inline_job_is_bit_identical(self, tmp_path):
        config = _fleet_config()
        source = _tkip_source(config)
        coordinator = Coordinator.create(
            source, tmp_path, num_shards=5, config=config
        )
        stats, report = coordinator.execute(workers=1)
        assert report.complete
        assert report.requests_done == source.total_requests
        assert _stats_equal(stats, self._single(source))

    def test_sigkill_worker_mid_shard(self, tmp_path):
        """SIGKILL a subprocess worker mid-shard; reclaim; finish; exact."""
        config = _fleet_config()
        source = _tkip_source(config, packets_per_tsc=1200)
        coordinator = Coordinator.create(
            source, tmp_path, num_shards=4, config=config, checkpoint_every=1
        )
        paths = coordinator.paths
        env = dict(os.environ)
        src_root = str(
            (os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        )
        env["PYTHONPATH"] = os.path.join(src_root, "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "fleet-worker", str(tmp_path),
                "--throttle", "0.4", "--worker-id", "victim",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            # Wait until the worker is provably mid-shard: it holds a
            # lease and has written at least one checkpoint.
            deadline = time.time() + 60.0
            while time.time() < deadline:
                leases = list(paths.shards.glob("*.lease"))
                ckpts = list(paths.shards.glob("*.ckpt.npz"))
                if leases and ckpts:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("worker never reached mid-shard state")
            os.kill(proc.pid, signal.SIGKILL)
        finally:
            proc.wait(timeout=30)
        # The killed worker's lease survives it; expire the heartbeat so
        # the reclaim happens now instead of after the TTL.
        for lease in paths.shards.glob("*.lease"):
            os.utime(lease, (1.0, 1.0))
        report = run_worker(tmp_path, worker_id="rescuer", config=config)
        assert report.shards_done  # the rescuer made progress
        assert coordinator.verify_done_shards() == []
        stats, coverage = coordinator.merge()
        assert coverage.complete, coverage.to_jsonable()
        assert _stats_equal(stats, self._single(source))

    def test_truncated_shard_npz_is_quarantined_and_recaptured(self, tmp_path):
        """Corrupt done-shard NPZ => quarantine + requeue, never merged."""
        config = _fleet_config()
        source = _tkip_source(config)
        coordinator = Coordinator.create(
            source, tmp_path, num_shards=4, config=config
        )
        stats, report = coordinator.execute(workers=1)
        assert report.complete
        victim = coordinator.paths.result(2)
        data = victim.read_bytes()
        victim.write_bytes(data[: len(data) // 3])  # truncate
        reopened = Coordinator.open(tmp_path, config=config)
        stats2, report2 = reopened.execute(workers=1)
        assert report2.complete
        assert _stats_equal(stats2, self._single(source))
        quarantined = list(coordinator.paths.quarantine.glob("*.npz"))
        assert len(quarantined) == 1
        # The requeued claim was recorded against the shard's budget.
        assert read_shard_state(coordinator.paths, 2).attempts >= 2

    def test_foreign_shard_npz_is_quarantined(self, tmp_path):
        """A shard NPZ from a different campaign never merges silently."""
        config = _fleet_config()
        source = _tkip_source(config)
        coordinator = Coordinator.create(
            source, tmp_path, num_shards=3, config=config
        )
        coordinator.execute(workers=1)
        foreign = _tkip_source(_fleet_config(seed=555))
        foreign_stats = run_capture(foreign, batches=range(0, 2))
        # Overwrite shard 1's NPZ with a checkpoint of the wrong campaign.
        run_capture(
            foreign,
            batches=range(0, 2),
            checkpoint_path=coordinator.paths.result(1),
            resume=False,
        )
        bad = coordinator.verify_done_shards()
        assert bad == [1]
        assert read_shard_state(coordinator.paths, 1).state == PENDING
        del foreign_stats

    def test_stale_lease_of_dead_worker_is_reclaimed(self, tmp_path):
        """A lease with no heartbeat past the TTL is claimable again."""
        config = _fleet_config()
        source = _tkip_source(config)
        coordinator = Coordinator.create(
            source, tmp_path, num_shards=3, config=config
        )
        paths = coordinator.paths
        # Simulate a worker that claimed shard 0 and died silently.
        lease = try_acquire(
            paths.lease(0), worker="ghost", ttl=config.fleet_lease_ttl,
            attempt=1,
        )
        assert lease is not None
        state = read_shard_state(paths, 0)
        write_shard_state(
            paths,
            type(state)(index=0, state=LEASED, attempts=1, worker="ghost"),
        )
        os.utime(paths.lease(0), (1.0, 1.0))  # heartbeat long gone
        report = run_worker(tmp_path, worker_id="live", config=config)
        assert sorted(report.shards_done) == [0, 1, 2]
        assert coordinator.verify_done_shards() == []
        stats, coverage = coordinator.merge()
        assert coverage.complete
        assert _stats_equal(stats, self._single(source))

    def test_retry_budget_exhaustion_degrades_to_exact_partial(self, tmp_path):
        """A permanently failing shard ends failed; the merge is exact
        over everything else and the report names the hole."""
        config = _fleet_config(fleet_retry_budget=2)
        inner = _tkip_source(config)
        manifest = JobManifest.from_source(
            FlakyTkipSource(inner=inner, poison=(4, 5)),
            num_shards=4,
            retry_budget=config.fleet_retry_budget,
            backoff_base=0.0,
        )
        manifest.write(tmp_path)
        report = run_worker(tmp_path, worker_id="w", config=config)
        coordinator = Coordinator.open(tmp_path, config=config)
        assert coordinator.verify_done_shards() == []
        stats, coverage = coordinator.merge()
        poisoned = [
            s.index for s in manifest.shards
            if set(s.batches) & {4, 5}
        ]
        assert not coverage.complete
        assert [i for i, _ in coverage.shards_failed] == poisoned
        for _, error in coverage.shards_failed:
            assert "injected fault" in error
        failed_state = read_shard_state(coordinator.paths, poisoned[0])
        assert failed_state.state == FAILED
        assert failed_state.attempts == config.fleet_retry_budget
        # Exact partial: identical to a single process running only the
        # surviving shards' batch ranges.
        good_batches = [
            b for s in manifest.shards if s.index not in poisoned
            for b in s.batches
        ]
        expected = run_capture(inner, batches=good_batches)
        assert _stats_equal(stats, expected)
        assert report.shards_failed == poisoned

    def test_zero_done_shards_merge_to_empty_statistics(self, tmp_path):
        config = _fleet_config()
        source = _tkip_source(config)
        coordinator = Coordinator.create(
            source, tmp_path, num_shards=2, config=config
        )
        stats, coverage = coordinator.merge()
        assert not coverage.complete
        assert coverage.requests_done == 0
        assert stats.num_captured == 0


# --------------------------------------------------------------------------
# registry integration: distributed experiment params
# --------------------------------------------------------------------------


class TestDistributedExperimentIntegration:
    def test_distributed_capture_stage_matches_single_process(self, tmp_path):
        """attack-tkip distributed=N: the fleet-merged capture in the job
        directory is bit-identical to the single-process engine capture
        (recovery needs paper-scale counts, so only capture is asserted
        — same idiom as the batched checkpoint test)."""
        from repro.api import Session
        from repro.simulate import WifiAttackSimulation

        config = _fleet_config(fleet_workers=1)
        job = tmp_path / "job"
        session = Session(config)
        with pytest.raises(Exception):
            session.run(
                "attack-tkip", num_tsc=2, keys_per_tsc=256,
                packets_per_tsc=1 << 10, max_candidates=64,
                capture="batched", distributed=3, job_dir=str(job),
            )
        coordinator = Coordinator.open(job, config=config)
        assert coordinator.verify_done_shards() == []
        stats, coverage = coordinator.merge()
        assert coverage.complete
        sim = WifiAttackSimulation(config)
        single = sim.batched_capture([0, 1], 1 << 10)
        assert _stats_equal(stats, single)

    def test_distributed_param_validation(self):
        from repro.api import Session

        session = Session(_fleet_config())
        from repro.errors import ExperimentParamError

        with pytest.raises(ExperimentParamError, match="capture=batched"):
            session.run("attack-tkip", distributed=2)
        with pytest.raises(ExperimentParamError, match="job_dir"):
            session.run("attack-tkip", job_dir="/tmp/nope")
        with pytest.raises(ExperimentParamError, match="checkpoints"):
            session.run(
                "attack-https", capture="batched", distributed=2,
                checkpoint="x.npz",
            )

    def test_fleet_worker_cli_reports_json(self, tmp_path):
        config = _fleet_config()
        source = _tkip_source(config)
        Coordinator.create(source, tmp_path, num_shards=2, config=config)
        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env["PYTHONPATH"] = os.path.join(src_root, "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        out = subprocess.run(
            [sys.executable, "-m", "repro", "fleet-worker", str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert out.returncode == 0, out.stderr
        report = json.loads(out.stdout)
        assert sorted(report["shards_done"]) == [0, 1]
        status = subprocess.run(
            [
                sys.executable, "-m", "repro", "fleet-status", str(tmp_path),
                "--json",
            ],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert status.returncode == 0, status.stderr
        payload = json.loads(status.stdout)
        assert payload["counts"][DONE] == 2
        assert payload["counts"][FAILED] == 0
