"""Results warehouse: store semantics, sweeps, and crash-tolerant resume.

Covers the ISSUE-7 tentpole guarantees: concurrent-append safety of the
JSONL index, canonical-JSON round-trip bit-identity, fingerprint-keyed
dedup, corrupt-record skip-with-warning, query filters, blob sidecars,
and sweep orchestration — including the acceptance sweep (two
experiments, three-plus points, plus a batched-capture attack run) and
a real kill-mid-sweep subprocess resume.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.__main__ import main
from repro.api import ExperimentResult, Session, get_experiment
from repro.analysis import metric_cell, sweep_table
from repro.config import ReproConfig
from repro.errors import ExperimentParamError, SweepError, WarehouseError
from repro.utils.serialization import append_jsonl, canonical_json, iter_jsonl
from repro.warehouse import (
    RunStore,
    SweepSpec,
    plan_sweep,
    result_fingerprint,
    run_fingerprint,
    run_sweep,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def _config(**overrides) -> ReproConfig:
    defaults = dict(seed=4321, scale=1.0)
    defaults.update(overrides)
    return ReproConfig(**defaults)


def _result(n: int = 1, *, seed: int = 4321, timing: float = 0.5,
            experiment: str = "dataset-single") -> ExperimentResult:
    """Synthetic result record — cheap fodder for store unit tests."""
    return ExperimentResult(
        experiment=experiment,
        params={"num_keys": n, "positions": 4},
        metrics={"total_counts": 4 * n, "kind": "single"},
        timings={"total": timing},
        provenance={"version": "0", "seed": seed, "scale": 1.0},
    )


# --------------------------------------------------------------------------
# append_jsonl / iter_jsonl primitives
# --------------------------------------------------------------------------


class TestJsonlPrimitives:
    def test_append_round_trips_bit_identically(self, tmp_path):
        path = tmp_path / "log.jsonl"
        records = [{"b": 2, "a": [1, "x"]}, {"z": None}, {"n": 2**40}]
        lines = [append_jsonl(path, r) for r in records]
        assert lines == [canonical_json(r) for r in records]
        read = list(iter_jsonl(path))
        assert [r for _, r in read] == [json.loads(line) for line in lines]
        # Re-serialising what was read reproduces the file bytes exactly.
        assert path.read_bytes() == "".join(
            canonical_json(r) + "\n" for _, r in read
        ).encode()

    def test_torn_trailing_line_is_isolated(self, tmp_path):
        path = tmp_path / "log.jsonl"
        append_jsonl(path, {"ok": 1})
        with open(path, "ab") as fh:
            fh.write(b'{"torn": tr')  # crashed writer, no newline
        append_jsonl(path, {"ok": 2})
        with pytest.warns(RuntimeWarning, match="corrupt"):
            records = [r for _, r in iter_jsonl(path)]
        assert records == [{"ok": 1}, {"ok": 2}]

    def test_corrupt_line_warns_and_skips(self, tmp_path):
        path = tmp_path / "log.jsonl"
        append_jsonl(path, {"ok": 1})
        path.write_text(path.read_text() + "not json\n" + '{"ok":2}\n')
        with pytest.warns(RuntimeWarning, match=r"log\.jsonl:2"):
            records = [r for _, r in iter_jsonl(path)]
        assert records == [{"ok": 1}, {"ok": 2}]


# --------------------------------------------------------------------------
# fingerprints
# --------------------------------------------------------------------------


class TestFingerprints:
    def test_covers_identity_not_execution(self):
        a = _result(256, timing=0.1)
        b = _result(256, timing=99.0)  # same run, different wall-clock
        assert result_fingerprint(a) == result_fingerprint(b)

    def test_distinguishes_params_seed_scale(self):
        base = _result(256)
        assert result_fingerprint(base) != result_fingerprint(_result(512))
        assert result_fingerprint(base) != result_fingerprint(
            _result(256, seed=5)
        )
        assert run_fingerprint(
            "dataset-single", {"num_keys": 256}, seed=1, scale=1.0
        ) != run_fingerprint(
            "dataset-single", {"num_keys": 256}, seed=1, scale=0.5
        )

    def test_matches_planned_runs(self):
        config = _config()
        plans = plan_sweep(
            [SweepSpec("dataset-single", grid={"num_keys": [256]},
                       base={"positions": 4})],
            config,
        )
        session = Session(config)
        result = session.run("dataset-single", **plans[0].params)
        assert result_fingerprint(result) == plans[0].fingerprint


#: The experiments that lost the ``distributed`` and ``job_dir``
#: parameters when multi-host capture was retired.
RETIRED_PARAM_EXPERIMENTS = [
    "attack-https", "attack-tkip", "campaign-https", "campaign-tkip",
]


class TestRetiredParams:
    """Dropping ``distributed``/``job_dir`` changed the fingerprint of
    every run of these experiments, so a sweep over an old store reruns
    those points once.  Old records still load: each is checked against
    its own stored params."""

    def test_old_record_loads_and_reports(self, tmp_path, capsys):
        config = _config()
        (plan,) = plan_sweep([SweepSpec("attack-https")], config)
        old_params = {**plan.params, "distributed": 0, "job_dir": ""}
        old = ExperimentResult(
            experiment="attack-https",
            params=old_params,
            metrics={"rank": 3, "cookie": "Q7!", "fleet": None},
            timings={"total": 1.0},
            provenance={"version": "0", "seed": config.seed,
                        "scale": config.scale},
        )
        fingerprint = run_fingerprint(
            "attack-https", old_params, seed=config.seed, scale=config.scale
        )
        append_jsonl(tmp_path / "runs.jsonl", {
            "format_version": 1, "fingerprint": fingerprint,
            "stored_at": 1.0, "blobs": [], "result": old.to_dict(),
        })
        store = RunStore(tmp_path)
        (run,) = store.runs()
        assert store.corrupt_records == 0
        assert run.fingerprint == fingerprint
        assert run.result == old
        # Today's run of the same point has a new fingerprint.
        assert plan.fingerprint not in store

        assert main([
            "store", "report", str(tmp_path), "--experiment", "attack-https",
            "--metric", "rank,cookie",
        ]) == 0
        report = capsys.readouterr().out
        assert "(1 runs)" in report
        assert canonical_json("Q7!") in report

    @pytest.mark.parametrize("experiment", RETIRED_PARAM_EXPERIMENTS)
    def test_distributed_is_rejected(self, experiment):
        with pytest.raises(ExperimentParamError) as caught:
            Session(_config()).run(experiment, distributed=2)
        message = str(caught.value)
        assert "'distributed'" in message
        valid = message.split("valid: ", 1)[1]
        assert valid == ", ".join(
            sorted(param.name for param in get_experiment(experiment).params)
        )


# --------------------------------------------------------------------------
# RunStore
# --------------------------------------------------------------------------


class TestRunStore:
    def test_append_query_round_trip(self, tmp_path):
        store = RunStore(tmp_path)
        stored = store.append(_result(256), stored_at=100.0)
        reread = RunStore(tmp_path)
        assert len(reread) == 1
        run = reread.runs()[0]
        assert run.result == stored.result
        assert run.stored_at == 100.0
        # Bit-identity: the index line is the canonical JSON of the record.
        line = tmp_path.joinpath("runs.jsonl").read_text().strip()
        assert line == canonical_json(run.to_record())

    def test_fingerprint_dedup_is_noop(self, tmp_path):
        store = RunStore(tmp_path)
        first = store.append(_result(256, timing=0.1), stored_at=1.0)
        second = store.append(_result(256, timing=9.9), stored_at=2.0)
        assert second is first  # pre-existing run wins, stored_at stable
        assert len(store) == 1
        assert len(tmp_path.joinpath("runs.jsonl").read_text().splitlines()) == 1

    def test_concurrent_appends_all_land(self, tmp_path):
        store_path = tmp_path / "wh"
        num_threads, per_thread = 8, 12
        barrier = threading.Barrier(num_threads)
        errors: list[Exception] = []

        def appender(worker: int) -> None:
            # Each thread gets its own store instance: separate offsets,
            # shared file — the multi-process access pattern.
            store = RunStore(store_path)
            barrier.wait()
            try:
                for i in range(per_thread):
                    store.append(_result(1000 * worker + i))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=appender, args=(w,))
            for w in range(num_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        merged = RunStore(store_path)
        assert len(merged) == num_threads * per_thread
        assert merged.corrupt_records == 0
        keys = {run.result.params["num_keys"] for run in merged.runs()}
        assert keys == {
            1000 * w + i for w in range(num_threads) for i in range(per_thread)
        }

    def test_corrupt_record_skipped_with_warning_once(self, tmp_path):
        store = RunStore(tmp_path)
        store.append(_result(256))
        with open(store.index_path, "a") as fh:
            fh.write("{broken\n")
        store.append(_result(512))
        reread = RunStore(tmp_path)
        with pytest.warns(RuntimeWarning, match="corrupt"):
            assert len(reread) == 2
        assert reread.corrupt_records == 1
        # The corrupt line is consumed, not re-warned on every refresh.
        assert len(reread) == 2
        assert reread.corrupt_records == 1

    def test_tampered_record_is_rejected(self, tmp_path):
        store = RunStore(tmp_path)
        run = store.append(_result(256))
        record = run.to_record()
        # Forged identity: params no longer hash to the claimed fingerprint.
        record["result"]["params"]["num_keys"] = 999
        append_jsonl(store.index_path, record)
        reread = RunStore(tmp_path)
        with pytest.warns(RuntimeWarning, match="does not match"):
            assert len(reread) == 1
        # Same-fingerprint duplicates (e.g. a racing appender) resolve by
        # first-record-wins, so the original metrics are authoritative.
        duplicate = run.to_record()
        duplicate["result"]["metrics"]["total_counts"] = 9999
        append_jsonl(store.index_path, duplicate)
        with pytest.warns(RuntimeWarning):  # the forged line, re-read
            runs = RunStore(tmp_path).runs()
        assert runs[0].result.metrics["total_counts"] == run.result.metrics[
            "total_counts"
        ]

    def test_query_filters(self, tmp_path):
        store = RunStore(tmp_path)
        store.append(_result(256), stored_at=100.0)
        store.append(_result(512), stored_at=200.0)
        store.append(
            _result(256, experiment="dataset-consec"), stored_at=300.0
        )
        store.append(_result(256, seed=9), stored_at=400.0)
        assert len(store.query(experiment="dataset-single")) == 3
        assert len(store.query(params={"num_keys": 256})) == 3
        assert len(
            store.query(experiment="dataset-single", params={"num_keys": 256})
        ) == 2
        assert len(store.query(provenance={"seed": 9})) == 1
        assert [
            r.stored_at for r in store.query(since=150.0, until=350.0)
        ] == [200.0, 300.0]
        # ISO strings work too (naive == UTC); bounds are inclusive.
        assert len(store.query(since="1970-01-01T00:03:20")) == 3
        assert len(store.query(since="1970-01-01T00:05:50")) == 1
        assert store.experiments() == ["dataset-consec", "dataset-single"]

    def test_query_rejects_bad_timestamp(self, tmp_path):
        store = RunStore(tmp_path)
        with pytest.raises(WarehouseError, match="ISO-8601"):
            store.query(since="not-a-date")

    def test_blob_round_trip_and_ownership(self, tmp_path):
        store = RunStore(tmp_path)
        arrays = {"counts": np.arange(12, dtype=np.int64).reshape(3, 4)}
        run = store.append(
            _result(256), blobs={"counters": (arrays, {"note": "raw"})}
        )
        assert run.blobs == ("counters",)
        loaded, meta = store.load_blob(run, "counters")
        np.testing.assert_array_equal(loaded["counts"], arrays["counts"])
        assert meta["note"] == "raw"
        assert meta["run_fingerprint"] == run.fingerprint
        # A blob copied under another run's directory is rejected: its
        # embedded fingerprint does not match the claimed owner.
        other_fp = result_fingerprint(_result(512))
        stray = store.blob_path(other_fp, "counters")
        stray.parent.mkdir(parents=True)
        stray.write_bytes(store.blob_path(run.fingerprint, "counters").read_bytes())
        with pytest.raises(WarehouseError, match="belong"):
            store.load_blob(other_fp, "counters")
        with pytest.raises(WarehouseError, match="blob name"):
            store.append(_result(512), blobs={"../evil": (arrays, {})})


# --------------------------------------------------------------------------
# sweep planning
# --------------------------------------------------------------------------


class TestSweepPlanning:
    def test_cartesian_expansion_is_deterministic(self):
        spec = SweepSpec(
            "dataset-single",
            grid={"num_keys": [512, 256], "positions": [2, 4]},
        )
        points = spec.points()
        assert points == [
            {"num_keys": 512, "positions": 2},
            {"num_keys": 512, "positions": 4},
            {"num_keys": 256, "positions": 2},
            {"num_keys": 256, "positions": 4},
        ]

    def test_declaration_errors(self):
        config = _config()
        with pytest.raises(SweepError, match="no parameter"):
            plan_sweep(
                [SweepSpec("dataset-single", grid={"bogus": [1]})], config
            )
        with pytest.raises(SweepError, match="empty"):
            plan_sweep(
                [SweepSpec("dataset-single", grid={"num_keys": []})], config
            )
        with pytest.raises(SweepError, match="both grid and base"):
            plan_sweep(
                [SweepSpec("dataset-single", grid={"num_keys": [1]},
                           base={"num_keys": 2})],
                config,
            )
        with pytest.raises(SweepError, match="duplicate"):
            plan_sweep(
                [SweepSpec("dataset-single", grid={"num_keys": [256, 256]})],
                config,
            )
        with pytest.raises(SweepError, match="zero runs"):
            plan_sweep([], config)

    def test_grid_values_coerced_like_cli(self):
        plans = plan_sweep(
            [SweepSpec("dataset-single", grid={"num_keys": ["256", "512"]},
                       base={"positions": "4"})],
            _config(),
        )
        assert [p.params["num_keys"] for p in plans] == [256, 512]
        assert all(p.params["positions"] == 4 for p in plans)


# --------------------------------------------------------------------------
# sweep execution + resume
# --------------------------------------------------------------------------


class TestSweepExecution:
    def test_run_skip_and_failure_statuses(self, tmp_path):
        config = _config()
        session = Session(config)
        store = RunStore(tmp_path)
        specs = [
            SweepSpec("dataset-single", grid={"num_keys": [256, 512]},
                      base={"positions": 2}),
            # checkpoint without capture=batched is a *run-time*
            # ExperimentParamError (plan-time validation only checks
            # names/kinds): recorded as failed, sweep continues.
            SweepSpec("attack-tkip", base={
                "num_tsc": 2, "keys_per_tsc": 256,
                "packets_per_tsc": 1 << 10, "max_candidates": 64,
                "checkpoint": str(tmp_path / "capture.npz"),
            }),
        ]
        statuses: list[tuple[str, str]] = []
        report = run_sweep(
            session, specs, store,
            progress=lambda plan, status: statuses.append(
                (plan.experiment, status)
            ),
        )
        assert report.counts() == {"ran": 2, "skipped": 0, "failed": 1}
        assert report.failed[0].plan.experiment == "attack-tkip"
        assert report.failed[0].error
        assert len(store) == 2  # failures are not stored
        assert statuses == [
            ("dataset-single", "ran"),
            ("dataset-single", "ran"),
            ("attack-tkip", "failed"),
        ]
        # Resume: stored runs skip without executing; the failed point
        # retries (its fingerprint never landed in the store).
        report2 = run_sweep(session, specs, store)
        assert report2.counts() == {"ran": 0, "skipped": 2, "failed": 1}
        for outcome in report2.skipped:
            assert outcome.run is store.get(outcome.plan.fingerprint)

    def test_session_store_auto_append_and_sweep(self, tmp_path):
        session = Session(_config(), store=tmp_path / "wh")
        result = session.run("dataset-single", num_keys=256, positions=2)
        assert result_fingerprint(result) in session.store
        report = session.sweep(
            [SweepSpec("dataset-single", grid={"num_keys": [256, 512]},
                       base={"positions": 2})]
        )
        # The session.run() result above is one of the sweep's points.
        assert report.counts() == {"ran": 1, "skipped": 1, "failed": 0}
        assert len(session.store) == 2


def _stored_lines(store: RunStore) -> dict[str, dict]:
    by_fp = {}
    for _, payload in iter_jsonl(store.index_path):
        by_fp.setdefault(payload["fingerprint"], payload)
    return by_fp


ACCEPTANCE_GRID = ["4096", "16384", "65536"]


class TestAcceptanceSweep:
    """>= 2 experiments x >= 3 points, an attack leg with a batched
    capture, full persistence, and bit-identical report cells."""

    def test_sweep_two_experiments_three_points_with_attack_leg(self, tmp_path):
        config = _config(scale=0.25)
        session = Session(config)
        store = RunStore(tmp_path / "wh")
        specs = [
            SweepSpec(
                "dataset-single",
                grid={"num_keys": [int(v) for v in ACCEPTANCE_GRID]},
                base={"positions": 4},
            ),
            SweepSpec(
                "dataset-consec",
                grid={"num_keys": [int(v) for v in ACCEPTANCE_GRID]},
                base={"positions": 4},
            ),
        ]
        report = run_sweep(session, specs, store)
        assert report.counts() == {"ran": 6, "skipped": 0, "failed": 0}
        assert len(store) == 6

        # Attack leg: the same warehouse absorbs a run of an *attack*
        # experiment whose capture ran through the batched engine.
        batched = session.run(
            "attack-https", cookie_len=2, num_candidates=1 << 13,
            max_gap=16, num_requests=1 << 14, capture="batched",
        )
        store.append(batched)
        assert len(store) == 7

        # Every stored cell in the regenerated comparison table is
        # bit-identical to the stored record's canonical JSON.
        runs = store.query(experiment="dataset-single")
        table = sweep_table(runs, ["total_counts", "kind"])
        raw = _stored_lines(store)
        for run in runs:
            payload = raw[run.fingerprint]
            for metric in ("total_counts", "kind"):
                cell = metric_cell(run.result.metrics[metric])
                stored_value = payload["result"]["metrics"][metric]
                assert cell == canonical_json(stored_value)
                assert cell in table

    def test_kill_mid_sweep_then_resume_skips_stored_runs(self, tmp_path):
        """SIGKILL a real sweep subprocess mid-flight; the resumed sweep
        must skip every stored fingerprint without recomputation."""
        store_dir = tmp_path / "wh"
        argv = [
            sys.executable, "-m", "repro", "--seed", "4321", "sweep",
            "dataset-single", "--store", str(store_dir),
            # Ascending cost: the first point lands fast, the 2^21-key
            # points leave a wide window to kill the process in.
            "--grid", "num_keys=4096,1048576,2097152",
            "--param", "positions=4", "--quiet",
        ]
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.Popen(
            argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
        )
        index = store_dir / "runs.jsonl"
        deadline = time.monotonic() + 120
        try:
            while time.monotonic() < deadline:
                if index.exists() and index.read_bytes().count(b"\n") >= 1:
                    break
                if proc.poll() is not None:
                    break
                time.sleep(0.02)
            else:  # pragma: no cover - hung subprocess
                pytest.fail("sweep subprocess never stored a run")
            proc.send_signal(signal.SIGKILL)
        finally:
            proc.wait(timeout=60)
        killed_after = RunStore(store_dir)
        stored_before = {
            run.fingerprint: run.stored_at for run in killed_after.runs()
        }
        assert 1 <= len(stored_before) < 3, "kill window missed"
        index_before = index.read_bytes()
        complete_before = index_before[: index_before.rfind(b"\n") + 1]

        # Resume in-process (same seed/scale => same fingerprints).
        session = Session(_config())
        store = RunStore(store_dir)
        report = run_sweep(
            session,
            [SweepSpec("dataset-single",
                       grid={"num_keys": [4096, 1048576, 2097152]},
                       base={"positions": 4})],
            store,
        )
        counts = report.counts()
        assert counts["failed"] == 0
        assert counts["skipped"] == len(stored_before)
        assert counts["ran"] == 3 - len(stored_before)
        # No recomputation: surviving records are untouched, byte-for-byte.
        assert index.read_bytes().startswith(complete_before)
        final = RunStore(store_dir)
        assert len(final) == 3
        for run in final.runs():
            if run.fingerprint in stored_before:
                assert run.stored_at == stored_before[run.fingerprint]
