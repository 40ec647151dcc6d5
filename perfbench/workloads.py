"""The three workloads: §6 recovery, §6 capture with a checkpoint, §5 search.

Each workload builds its inputs from the seed alone (``setup``), runs
the pipeline through the entry points a user calls (``solve``, the timed
part), and checks the outputs (``check``).  ``check`` also records the
work done in ``Outputs.work``: counters that must repeat exactly for a
given seed.
``corrupt`` damages a checked output in place, so the benchmark can show
that its checks report a broken pipeline as a failed operation.

Why these shapes, and which layers each one exercises and bypasses, is
written down in ``README.md`` next to this file.
"""

from __future__ import annotations

import json
import time
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

import numpy as np

#: §6 recovery: 16-character RFC 6265 cookie, 9 * 2^27 sampled requests.
RECOVER = {
    "cookie_len": 16,
    "browser": "generic",
    "num_requests": 9 << 27,
    "max_gap": 16,
    "num_candidates": 1 << 12,
}

#: §6 keystream-level capture: one default checkpoint interval (16
#: batches of 4096 fresh-connection requests), checkpointed at the end.
CAPTURE = {
    "cookie_len": 16,
    "browser": "generic",
    "max_gap": 8,
    "batch_size": 4096,
    "reconnect_every": 1,
    "num_batches": 16,
}

#: §5: per-TSC tables, batched capture, CRC walk with a fixed budget.
#: The walk's frontier grows with the seed's likelihoods (its heap held
#: 138k-296k entries at 2^16 across ten seeds); at 2^15 it stays a small
#: share of peak RSS, so peak RSS is comparable between seeds.
TKIP = {
    "num_tsc": 256,
    "keys_per_tsc": 1 << 13,
    "packets_per_tsc": 1 << 11,
    "walk_budget": 1 << 15,
}


@dataclass
class Context:
    """A workload's inputs, built once per process by ``setup``."""

    sim: Any
    checkpoint: Path | None = None
    tscs: list[int] | None = None


@dataclass
class Outputs:
    """What one ``solve`` produced, plus observations for the checks."""

    values: dict[str, Any] = field(default_factory=dict)
    work: dict[str, int] = field(default_factory=dict)


class Workload:
    """Shared no-op hooks; subclasses define the workload."""

    name = ""

    def cleanup(self, ctx: Context, out: Outputs) -> None:
        """Drop one repetition's outputs before the next one runs."""
        out.values.clear()


class HttpsRecover(Workload):
    name = "https-recover"
    shape = RECOVER
    throughput = "recover_cand_per_s"

    def setup(self, config, scratch: Path):
        from repro.simulate.https import HttpsAttackSimulation

        return Context(HttpsAttackSimulation(
            config,
            cookie_len=RECOVER["cookie_len"],
            max_gap=RECOVER["max_gap"],
            browser=RECOVER["browser"],
        ))

    def work_items(self) -> int:
        return RECOVER["num_candidates"]

    def solve(self, ctx: Context, tracer) -> Outputs:
        from repro.errors import AttackError

        sim = ctx.sim
        with tracer.span("simulate.sampled_statistics", "simulate"):
            stats = sim.sampled_statistics(RECOVER["num_requests"])
        result = None
        with tracer.span("simulate.attack", "simulate"):
            try:
                result = sim.attack(
                    stats, num_candidates=RECOVER["num_candidates"]
                )
            except AttackError as exc:
                # An exhausted list is a recorded outcome, not a failure.
                if not str(exc).startswith("brute force failed"):
                    raise
        return Outputs(values={
            "stats": stats,
            "result": result,
            "candidates": tracer.observed.get("candidates"),
            "attempts": tracer.counters["oracle.attempts"],
            "pruned": tracer.counters["oracle.pruned"],
        })

    def check(self, ctx: Context, out: Outputs) -> list[str]:
        sim = ctx.sim
        v = out.values
        n = RECOVER["num_candidates"]
        errors: list[str] = []
        stats = v["stats"]
        fm_rows = stats.fm_counts.reshape(stats.fm_counts.shape[0], -1).sum(1)
        if not np.all(fm_rows == RECOVER["num_requests"]):
            errors.append("a sampled digraph row does not sum to the requests")
        if not np.all(stats.absab_matrix.sum(1) == RECOVER["num_requests"]):
            errors.append("a sampled ABSAB row does not sum to the requests")
        cands = v["candidates"]
        if cands is None:
            return errors + ["Algorithm 2 returned no candidate matrix"]
        matrix, scores = cands.matrix, cands.log_likelihoods
        if matrix.shape != (n, RECOVER["cookie_len"]):
            errors.append(f"candidate matrix has shape {matrix.shape}")
        allowed = np.zeros(256, dtype=bool)
        allowed[np.frombuffer(sim.cookie_charset, dtype=np.uint8)] = True
        if not allowed[matrix].all():
            errors.append("a candidate byte is outside the cookie charset")
        if np.any(np.diff(scores) > 0):
            errors.append("candidate scores increase along the list")
        result = v["result"]
        if result is not None:
            if result.cookie != sim.secret:
                errors.append("the oracle accepted a cookie that is not the secret")
            if not 0 <= result.rank < n:
                errors.append(f"rank {result.rank} outside the list of {n}")
            depth = result.rank + 1
        else:
            depth = n
        if v["attempts"] + v["pruned"] != depth:
            errors.append(
                f"oracle attempts {v['attempts']} + pruned {v['pruned']} "
                f"!= walk depth {depth}"
            )
        out.work = {
            "simulate.cells_sampled": int(
                (stats.fm_counts.shape[0] + stats.absab_matrix.shape[0]) * 65536
            ),
            "candidates.emitted": int(matrix.shape[0]),
            "oracle.attempts": int(v["attempts"]),
            "oracle.pruned": int(v["pruned"]),
            "walk_depth": int(depth),
            "found": int(result is not None),
        }
        return errors

    def corrupt(self, ctx: Context, out: Outputs) -> str:
        from repro.core.candidates.matrix import CandidateMatrix

        cands = out.values["candidates"]
        out.values["candidates"] = CandidateMatrix(
            matrix=cands.matrix[::-1], log_likelihoods=cands.log_likelihoods[::-1]
        )
        return "candidate order reversed"


class HttpsCapture(Workload):
    name = "https-capture"
    shape = CAPTURE
    throughput = "capture_req_per_s"

    def setup(self, config, scratch: Path):
        from repro.simulate.https import HttpsAttackSimulation

        sim = HttpsAttackSimulation(
            config,
            cookie_len=CAPTURE["cookie_len"],
            max_gap=CAPTURE["max_gap"],
            browser=CAPTURE["browser"],
        )
        return Context(sim, checkpoint=scratch / "capture-checkpoint.npz")

    def work_items(self) -> int:
        return CAPTURE["num_batches"] * CAPTURE["batch_size"]

    def _source(self, ctx: Context):
        return ctx.sim.capture_source(
            self.work_items(),
            batch_size=CAPTURE["batch_size"],
            reconnect_every=CAPTURE["reconnect_every"],
        )

    def solve(self, ctx: Context, tracer) -> Outputs:
        from repro.capture import run_capture

        source = self._source(ctx)
        progress = []

        def on_progress(p) -> None:
            progress.append(p)
            if p.checkpointed:
                # run_capture checkpoints between the batch and this
                # callback, so that interval is the save + fsync + replace.
                done = tracer.last_end("capture.batch")
                if done is not None:
                    tracer.add_span(
                        "capture.checkpoint", "capture", done, time.perf_counter()
                    )

        with tracer.span("capture.run_capture", "capture"):
            stats = run_capture(
                source, checkpoint_path=ctx.checkpoint, progress=on_progress
            )
        return Outputs(values={"stats": stats, "progress": progress})

    def check(self, ctx: Context, out: Outputs) -> list[str]:
        stats = out.values["stats"]
        requests = self.work_items()
        errors: list[str] = []
        transitions = stats.fm_counts.shape[0]
        alignments = stats.absab_matrix.shape[0]
        fm_total = int(stats.fm_counts.sum())
        absab_total = int(stats.absab_matrix.sum())
        if fm_total != transitions * requests:
            errors.append(f"fm_counts sum {fm_total} != T*requests")
        if absab_total != alignments * requests:
            errors.append(f"absab_matrix sum {absab_total} != A*requests")
        if stats.num_requests != requests:
            errors.append(f"num_requests {stats.num_requests} != {requests}")
        marks = [p.batches_done for p in out.values["progress"] if p.checkpointed]
        if marks != [CAPTURE["num_batches"]]:
            errors.append(f"checkpoints written after batches {marks}")
        path = ctx.checkpoint
        size = path.stat().st_size if path.exists() else 0
        try:
            # Only the metadata member: the counters are not reloaded.
            with np.load(path, allow_pickle=False) as archive:
                meta = json.loads(bytes(archive["__meta__"]).decode("utf-8"))
            cursor = meta["extra"]["capture_checkpoint"]
            if cursor["batches_done"] != CAPTURE["num_batches"]:
                errors.append(f"checkpoint batches_done {cursor['batches_done']}")
            if cursor["requests_done"] != requests:
                errors.append(f"checkpoint requests_done {cursor['requests_done']}")
        except (OSError, KeyError, ValueError) as exc:
            errors.append(f"checkpoint metadata unreadable: {exc!r}")
        counter_bytes = stats.fm_counts.nbytes + stats.absab_matrix.nbytes
        out.work = {
            "requests": int(stats.num_requests),
            "capture.cells_counted": fm_total + absab_total,
            "capture.counter_bytes": int(counter_bytes),
            "capture.checkpoint_bytes_in": int(counter_bytes),
            "capture.checkpoint_bytes_out": int(size),
        }
        return errors

    def corrupt(self, ctx: Context, out: Outputs) -> str:
        # The bug run_capture's duplicate-index guard exists for: one
        # batch counted twice.  Counting it again in place costs no memory.
        self._source(ctx).capture_batch(out.values["stats"], 0)
        return "batch 0 counted twice"

    def cleanup(self, ctx: Context, out: Outputs) -> None:
        # A checkpoint left behind would make the next run_capture resume.
        ctx.checkpoint.unlink(missing_ok=True)
        out.values.clear()


class TkipSearch(Workload):
    name = "tkip-search"
    shape = TKIP
    throughput = "tkip_cand_per_s"

    def setup(self, config, scratch: Path):
        from repro.simulate.wifi import WifiAttackSimulation
        from repro.tkip.per_tsc import default_tsc_space

        return Context(
            WifiAttackSimulation(config),
            tscs=default_tsc_space(TKIP["num_tsc"]),
        )

    def work_items(self) -> int:
        return TKIP["walk_budget"]

    def solve(self, ctx: Context, tracer) -> Outputs:
        from repro.errors import AttackError
        from repro.tkip.per_tsc import generate_per_tsc

        sim = ctx.sim
        with tracer.span("tkip.per_tsc", "tkip"):
            per_tsc = generate_per_tsc(
                sim.config, ctx.tscs, TKIP["keys_per_tsc"],
                len(sim.true_plaintext),
            )
        with tracer.span("capture.run_capture", "capture"):
            capture = sim.batched_capture(ctx.tscs, TKIP["packets_per_tsc"])
        result = None
        with tracer.span("simulate.attack", "simulate"):
            try:
                result = sim.attack(
                    capture, per_tsc, max_candidates=TKIP["walk_budget"]
                )
            except AttackError as exc:
                # A walk that spends its budget is a recorded outcome.
                if not str(exc).startswith("no CRC-valid candidate"):
                    raise
        return Outputs(values={
            "per_tsc": per_tsc,
            "capture": capture,
            "result": result,
            "crc_rows": tracer.counters["tkip.crc_rows"],
        })

    def check(self, ctx: Context, out: Outputs) -> list[str]:
        sim = ctx.sim
        v = out.values
        errors: list[str] = []
        capture, result = v["capture"], v["result"]
        packets = TKIP["num_tsc"] * TKIP["packets_per_tsc"]
        if capture.num_captured != packets:
            errors.append(f"num_captured {capture.num_captured} != {packets}")
        cells = sum(int(t.sum()) for t in capture.counts.values())
        if cells != packets * len(capture.positions):
            errors.append(f"capture counts sum {cells} != packets * positions")
        sums = v["per_tsc"].dists.sum(axis=2)
        if not np.allclose(sums, 1.0):
            errors.append("a per-TSC distribution does not sum to 1")
        budget = TKIP["walk_budget"]
        if result is not None:
            known = sim.spec.msdu_data()
            crc = zlib.crc32(known + result.mic).to_bytes(4, "little")
            if crc != result.icv:
                errors.append("the accepted candidate fails the CRC-32 check")
            true_mic = sim.true_plaintext[len(known):len(known) + 8]
            if result.correct != (result.mic == true_mic):
                errors.append("the MIC verdict disagrees with the true MIC")
            depth = result.candidates_tried
            if not 1 <= depth <= budget or v["crc_rows"] < depth:
                errors.append(f"hit at depth {depth} with {v['crc_rows']} rows")
        else:
            depth = v["crc_rows"]
            if depth != budget:
                errors.append(f"walk checked {depth} rows, budget is {budget}")
        out.work = {
            "packets": int(capture.num_captured),
            "capture.cells_counted": cells,
            "tkip.crc_rows": int(v["crc_rows"]),
            "walk_depth": int(depth),
            "found": int(result is not None),
        }
        return errors

    def corrupt(self, ctx: Context, out: Outputs) -> str:
        result = out.values["result"]
        if result is not None:
            icv = bytes([result.icv[0] ^ 1]) + result.icv[1:]
            out.values["result"] = replace(result, icv=icv)
            return "accepted candidate's ICV flipped"
        out.values["crc_rows"] -= 1
        return "CRC walk stopped one row short of its budget"


WORKLOADS = {w.name: w for w in (HttpsRecover(), HttpsCapture(), TkipSearch())}
