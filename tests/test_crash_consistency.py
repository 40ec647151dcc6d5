"""Crash consistency of the on-disk writers on one machine.

A capture, a campaign or a sweep can die at any instant (SIGKILL, a
torn write, a full disk), and its next run must either resume to the
result of an uninterrupted run, bit for bit, or detect the damage and
recompute.  It never raises a raw ``zipfile`` traceback and never
silently uses a file of another campaign.  Each test injects one fault
into a real writer, on whichever ``REPRO_NATIVE`` leg the suite runs:

- the batch partition behind ``run_capture(batches=...)``;
- torn, garbage, foreign and concurrently written capture checkpoints;
- a flush before the rename and a directory fsync after it, for every
  file published by rename;
- SIGKILL of a real capture or campaign process mid-run, then an
  in-process resume.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.api import ExperimentResult, Session
from repro.campaign import Population, run_https_campaign
from repro.capture import VictimSet
from repro.capture.engine import batch_digest, run_capture, shard_batches
from repro.capture.https import HttpsCaptureSource
from repro.capture.tkip import TkipCaptureSource
from repro.config import ReproConfig
from repro.datasets import DatasetSpec, dataset_cache_path
from repro.datasets.store import save_statistics
from repro.errors import CaptureError
from repro.rc4 import _native
from repro.tkip import PerTscDistributions
from repro.tls.attack import CookieLayout, CookieStatistics
from repro.warehouse import RunStore

TESTS_DIR = Path(__file__).resolve().parent
SRC_DIR = TESTS_DIR.parent / "src"


def _config(**overrides) -> ReproConfig:
    defaults = dict(seed=1234)
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


# --------------------------------------------------------------------------
# shard_batches edge cases
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
# checkpoint hardening
# --------------------------------------------------------------------------


class TestCheckpointHardening:
    def test_truncated_checkpoint_warns_and_restarts(self, tmp_path):
        config = _config()
        source = _tkip_source(config)
        single = run_capture(source)
        path = tmp_path / "capture.npz"
        run_capture(source, batches=range(0, 8), checkpoint_path=path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])  # torn write
        with pytest.warns(RuntimeWarning, match="corrupted or truncated"):
            recovered = run_capture(source, checkpoint_path=path)
        _assert_same_counters(recovered, single)

    def test_garbage_checkpoint_warns_and_restarts(self, tmp_path):
        config = _config()
        source = _tkip_source(config)
        path = tmp_path / "capture.npz"
        path.write_bytes(b"this is not an npz archive")
        with pytest.warns(RuntimeWarning, match="corrupted or truncated"):
            recovered = run_capture(source, checkpoint_path=path)
        _assert_same_counters(recovered, run_capture(source))

    def test_wrong_campaign_checkpoint_stays_a_hard_error(self, tmp_path):
        source = _tkip_source(_config())
        other = _tkip_source(_config(seed=4242))
        path = tmp_path / "capture.npz"
        run_capture(source, checkpoint_path=path)
        with pytest.raises(CaptureError, match="fingerprint"):
            run_capture(other, checkpoint_path=path)

    @pytest.mark.parametrize("factory", ["_https_victim_set", "_tkip_victim_set"])
    def test_stacked_victim_set_checkpoint_warns_and_restarts(
        self, tmp_path, factory
    ):
        """A group checkpoint in the stacked layout older runs wrote
        fails the statistics kind check: the capture warns, naming the
        kind it found (a readable archive, not a corrupted one), and
        counts the group from scratch."""
        source = globals()[factory]()
        path = tmp_path / "group.npz"
        kind = _save_stacked_checkpoint(source, path, batches_done=4)
        with pytest.warns(
            RuntimeWarning, match=f"statistics kind '{kind}'"
        ) as warned:
            recovered = run_capture(source, checkpoint_path=path)
        assert not any("corrupted" in str(w.message) for w in warned)
        _assert_same_counters(recovered, run_capture(source))
        _assert_same_counters(source.load(path)[0], recovered)

    def test_rescuer_leaves_stalled_writers_temp_file_alone(
        self, tmp_path, monkeypatch
    ):
        """A capture stalls halfway through writing a checkpoint; a
        second process (the rescuer) captures the same campaign to the
        same path.  The stalled writer's temp file must survive the
        rescuer byte for byte, or one writer's rename would publish the
        other's half-written archive."""
        source = _tkip_source(_config())
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
        _assert_same_counters(stalled, run_capture(source))
        _assert_same_counters(run_capture(source, checkpoint_path=path), stalled)
        assert [p.name for p in tmp_path.iterdir()] == ["capture.npz"]

    def test_failed_checkpoint_save_leaves_no_temp_file(
        self, tmp_path, monkeypatch
    ):
        source = _tkip_source(_config())

        def disk_full(tmp, **arrays):
            Path(tmp).write_bytes(b"partial")
            raise OSError(28, "No space left on device")

        # The array write inside save_arrays, which checkpoints go through.
        monkeypatch.setattr(np, "savez", disk_full)
        with pytest.raises(OSError, match="No space left"):
            run_capture(source, checkpoint_path=tmp_path / "capture.npz")
        assert list(tmp_path.iterdir()) == []

    def test_failed_outcome_record_write_leaves_no_temp_file(
        self, tmp_path, monkeypatch
    ):
        """A campaign outcome record that cannot be written raises, and
        leaves neither the record nor its temp file behind."""
        config = _config()
        real_write_text = Path.write_text

        def disk_full(self, data, *args, **kwargs):
            if ".done.json.tmp." in self.name:
                real_write_text(self, data[:7], *args, **kwargs)
                raise OSError(28, "No space left on device")
            return real_write_text(self, data, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", disk_full)
        with pytest.raises(OSError, match="No space left"):
            run_https_campaign(
                config, Population.sample(config, 1, label="disk-full"),
                num_requests=128, num_candidates=16, batch_size=64,
                checkpoint_dir=tmp_path,
            )
        assert not list(tmp_path.glob("*.json*"))


# --------------------------------------------------------------------------
# durable writes
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
            _tkip_source(_config(), packets_per_tsc=256),
            checkpoint_path=path, checkpoint_every=3,
        )
        self._assert_durable(fs_events, path)

    def test_campaign_outcome_record(self, tmp_path, fs_events):
        config = _config()
        run_https_campaign(
            config, Population.sample(config, 2, label="durable"),
            num_requests=128, num_candidates=16, batch_size=64,
            checkpoint_dir=tmp_path,
        )
        records = sorted(tmp_path.glob("*.done.json"))
        assert records
        for record in records:
            self._assert_durable(fs_events, record)

    def test_dataset_cache(self, tmp_path, fs_events):
        spec = DatasetSpec(kind="single", num_keys=512, positions=4)
        session = Session(_config(), cache_dir=tmp_path)
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


# --------------------------------------------------------------------------
# SIGKILL mid-run, resume in-process
# --------------------------------------------------------------------------

#: Seconds each child pauses in its progress callback, after the
#: checkpoint of every batch (captures) or before every group
#: (campaigns), so the kill lands between two durable writes.
_PAUSE = 0.5

_CAPTURE_CHILD = """
import sys, time
sys.path[:0] = [{src!r}, {tests!r}]
from repro.capture.engine import run_capture
from test_crash_consistency import {factory}
run_capture(
    {factory}(), checkpoint_path={path!r}, checkpoint_every=1,
    progress=lambda progress: time.sleep({pause}),
)
"""

_CAMPAIGN_CHILD = """
import sys, time
sys.path[:0] = [{src!r}, {tests!r}]
from repro.api import Session
from test_crash_consistency import _CAMPAIGN, _config

def pause(event):
    if event.stage == "capture":
        time.sleep({pause})

Session(_config(), progress=pause).run(
    "campaign-https", **_CAMPAIGN, checkpoint={path!r}
)
"""

#: A campaign-https run of four single-victim groups.
_CAMPAIGN = dict(
    population=4, num_requests=256, num_candidates=64, batch_size=256,
    group_size=1,
)


def _https_victim_set() -> HttpsCaptureSource:
    layout = CookieLayout(prefix=b"id=", suffix=b";path=/x", cookie_len=2)
    return HttpsCaptureSource(
        config=_config(),
        layout=layout,
        plaintexts=tuple(
            layout.prefix + cookie + layout.suffix
            for cookie in (b"ab", b"Q7", b"zz")
        ),
        victim_ids=("a", "b", "c"),
        num_requests=1200,
        batch_size=64,
        max_gap=16,
    )


def _tkip() -> TkipCaptureSource:
    return _tkip_source(_config(), packets_per_tsc=1200)


def _tkip_victim_set() -> TkipCaptureSource:
    return _tkip_source(
        _config(),
        plaintext=None,
        plaintexts=(bytes(range(20)), bytes(range(100, 120))),
        victim_ids=("a", "b"),
    )


def _save_stacked_checkpoint(source, path: Path, *, batches_done: int) -> str:
    """Write the first ``batches_done`` batches of a victim-set source in
    the stacked layout older runs checkpointed groups in (each counter
    stacked over the victims); returns that layout's statistics kind."""
    members = run_capture(source, batches=range(batches_done)).members
    if isinstance(members[0], CookieStatistics):
        kind = "multi-template-statistics"
        arrays = {
            "fm_counts": np.stack([m.fm_counts for m in members]),
            "absab_matrix": np.stack([m.absab_matrix for m in members]),
            "num_requests": np.asarray(
                [m.num_requests for m in members], np.int64
            ),
        }
        meta = {"layout": source.layout.to_meta(), "max_gap": source.max_gap}
        requests = sum(m.num_requests for m in members)
    else:
        kind = "multi-tkip-statistics"
        tsc_values = sorted(members[0].counts)
        arrays = {
            "counts": np.stack(
                [np.stack([m.counts[t] for m in members]) for t in tsc_values]
            ),
            "tsc_values": np.asarray(tsc_values, np.int64),
        }
        positions = source.positions
        meta = {
            "positions": [positions.start, positions.stop, positions.step],
            "plaintext_len": source.plaintext_len,
            "num_captured": members[0].num_captured,
        }
        requests = sum(m.num_captured for m in members)
    cursor = {
        "fingerprint": source.fingerprint(),
        "batch_digest": batch_digest(list(range(source.num_batches))),
        "batches_done": batches_done,
        "requests_done": requests,
    }
    meta.update(
        victim_ids=list(source.victim_ids),
        extra={"capture_checkpoint": cursor},
    )
    save_statistics(path, kind, arrays, meta)
    return kind


def _spawn(template: str, **fields) -> subprocess.Popen:
    script = template.format(
        src=str(SRC_DIR), tests=str(TESTS_DIR), pause=_PAUSE, **fields
    )
    return subprocess.Popen(
        [sys.executable, "-c", script],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )


def _kill_when(proc: subprocess.Popen, ready) -> None:
    """SIGKILL ``proc`` as soon as ``ready()`` holds."""
    try:
        deadline = time.monotonic() + 120
        while not ready():
            if proc.poll() is not None:
                pytest.fail(
                    "the child finished before it was killed:\n"
                    + proc.stderr.read()
                )
            if time.monotonic() > deadline:  # pragma: no cover - hung child
                pytest.fail("the child never reached its kill point")
            time.sleep(0.02)
        proc.send_signal(signal.SIGKILL)
    finally:
        proc.communicate(timeout=60)
    assert proc.returncode == -signal.SIGKILL


def _batches_done(source, path: Path) -> int:
    """Batches a checkpoint records (0 while none is published)."""
    if not path.exists():
        return 0
    _, extra = source.load(path)
    return extra["capture_checkpoint"]["batches_done"]


def _assert_same_counters(got, want) -> None:
    """Every counter cell equal, dtypes included: bare statistics of
    either attack, or a victim set of them member by member."""
    assert type(got) is type(want)
    if isinstance(want, VictimSet):
        assert got.victim_ids == want.victim_ids
        for mine, theirs in zip(got.members, want.members, strict=True):
            _assert_same_counters(mine, theirs)
    elif isinstance(want, CookieStatistics):
        assert got.num_requests == want.num_requests
        for name in ("fm_counts", "absab_matrix"):
            mine, theirs = getattr(got, name), getattr(want, name)
            assert mine.dtype == theirs.dtype, name
            assert np.array_equal(mine, theirs), name
    else:
        assert got.num_captured == want.num_captured
        assert sorted(got.counts) == sorted(want.counts)
        for tsc, table in want.counts.items():
            assert got.counts[tsc].dtype == table.dtype
            assert np.array_equal(got.counts[tsc], table)


class TestKillAndResume:
    @pytest.mark.parametrize(
        "factory", ["_https_victim_set", "_tkip"], ids=["https", "tkip"]
    )
    def test_sigkill_mid_capture_resumes_bit_identically(
        self, tmp_path, factory
    ):
        source = globals()[factory]()
        path = tmp_path / "capture.npz"
        proc = _spawn(_CAPTURE_CHILD, factory=factory, path=str(path))
        _kill_when(proc, lambda: _batches_done(source, path) > 0)
        # The kill left a whole checkpoint of part of the capture.
        assert 0 < _batches_done(source, path) < source.num_batches
        resumed = run_capture(source, checkpoint_path=path)
        _assert_same_counters(resumed, run_capture(source))
        assert _batches_done(source, path) == source.num_batches

    def test_sigkill_mid_campaign_resumes_to_the_same_outcomes(
        self, tmp_path
    ):
        checkpoint = tmp_path / "campaign"
        proc = _spawn(_CAMPAIGN_CHILD, path=str(checkpoint))
        _kill_when(proc, lambda: any(checkpoint.glob("*.done.json")))
        kept = {
            record.name: record.read_bytes()
            for record in checkpoint.glob("*.done.json")
        }
        assert 0 < len(kept) < _CAMPAIGN["population"]

        session = Session(_config())
        resumed = session.run(
            "campaign-https", **_CAMPAIGN, checkpoint=str(checkpoint)
        )
        whole_dir = tmp_path / "whole"
        whole = session.run(
            "campaign-https", **_CAMPAIGN, checkpoint=str(whole_dir)
        )
        assert resumed.metrics == whole.metrics
        # Each group's outcome record, resumed or kept from before the
        # kill, is byte for byte the uninterrupted campaign's.
        records = sorted(p.name for p in whole_dir.glob("*.done.json"))
        assert sorted(p.name for p in checkpoint.glob("*.done.json")) == records
        for name in records:
            assert (checkpoint / name).read_bytes() == (
                whole_dir / name
            ).read_bytes()
        for name, data in kept.items():
            assert (checkpoint / name).read_bytes() == data
