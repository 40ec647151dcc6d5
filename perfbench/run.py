"""Paper-shape benchmark of the RC4 attack pipeline (§5 and §6).

Run from the root of a checkout:

    python3 perfbench/run.py --workload https-recover --seed 1 \\
        --seconds 20 --trace 0

One process runs one workload, closed loop: a single repetition at a
time, the next one only after the previous one finished and was checked,
until ``--seconds`` have passed.  Native kernels use at most ``nproc``
threads, and their compile cache lives in ``.bench_build/`` of the
checkout; a throwaway probe process fills it before anything is timed.

Set-up (``setup_s``) is timed from process start to the first timed
call -- interpreter start, imports, loading the native library and
building the simulation -- in fresh probe processes spread over the run;
the mean of the three fastest is reported.

Times are reported in units of a fixed reference loop (``reference.py``)
timed in the same process around every repetition: ``wall_ref`` is the
mean of the three fastest repetitions over the mean of the three fastest
reference passes.  Other jobs on the host only ever add time, so the
fastest tries are the least disturbed, and the host's slow and fast
spells stretch both alike and cancel in the ratio.  The plain seconds are
kept in the record.

``--trace 0`` prints the end-to-end metrics, measured with tracing off.
``--trace 1`` alternates untraced and traced repetitions, prints the
per-layer metrics of the traced ones and the tracing overhead, and
writes a Chrome trace-event file under ``.bench_build/traces/``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the
full record (provenance, every repetition, per-layer self times).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"

#: Fresh processes timed for ``setup_s`` at least (after one that warms
#: the cache); one runs before each repetition, the rest after the last.
SETUP_PROBES = 9
#: Timed repetitions run (per mode) even when they outlast ``--seconds``.
MIN_REPS = 3
#: Reference loops timed before each repetition and after the last one.
REF_CALLS = 2
#: ``wall_ref`` and ``setup_s`` average this many of the fastest samples.
FASTEST = 3


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def configure() -> int:
    """Point the program at this checkout; returns the thread count."""
    nproc = len(os.sched_getaffinity(0))
    os.environ["XDG_CACHE_HOME"] = str(BUILD / "cache")
    os.environ["REPRO_NATIVE_THREADS"] = str(nproc)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    return nproc


def build(workload_name: str, seed: int, scratch: Path):
    """Imports, native library load and workload set-up."""
    from repro.config import get_config
    from repro.rc4 import _native

    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    _native.available()
    config = replace(get_config(), seed=seed)
    return workload, workload.setup(config, scratch), config


def probe(args: argparse.Namespace) -> int:
    build(args.workload, args.seed, BUILD / "probe")
    print(repr(time.monotonic()))
    return 0


def setup_probe(args: argparse.Namespace, timeout: float = 120) -> float:
    """Set-up time of one fresh process.

    ``time.monotonic`` is one clock for every process on the machine,
    so the child's ready stamp minus the parent's spawn stamp is the
    child's set-up time including interpreter start.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0"]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1]) - spawned


def run_one(workload, ctx, tracer, self_test: bool) -> dict:
    """One checked repetition; ``wall_s`` covers ``solve`` alone."""
    from layers import SHIMS, absent_spans, rep_layers, rep_metrics
    from tracer import installed

    tracer.reset()
    # Start every repetition from the same collector state, so the
    # collections inside it fall at the same allocations each time.
    gc.collect()
    rep: dict = {"traced": tracer.timed, "errors": []}
    out = None
    with installed(SHIMS, tracer) as missing:
        start = time.perf_counter()
        try:
            with tracer.span("rep", "bench"):
                out = workload.solve(ctx, tracer)
        except Exception as exc:  # a failed op is recorded, not fatal
            rep["errors"].append(f"raised {exc!r}")
        rep["wall_s"] = time.perf_counter() - start
    spans = tracer.finish()
    if out is not None:
        try:
            rep["errors"] += workload.check(ctx, out)
            rep["work"] = dict(out.work)
            if tracer.timed:
                rep["work"].update(tracer.counters)
            if self_test:
                rep["selftest"] = run_self_test(workload, ctx, out)
        except Exception as exc:
            rep["errors"].append(f"check raised {exc!r}")
        finally:
            workload.cleanup(ctx, out)
    if tracer.timed:
        rep["spans"] = spans
        rep["metrics"] = rep_metrics(spans, rep.get("work", {}))
        rep["layers"] = rep_layers(spans)
        rep["absent"] = sorted(set(missing) | set(absent_spans(spans)))
    return rep


def run_self_test(workload, ctx, out) -> dict:
    """Damage a checked output and show the tally counts it as failed."""
    what = workload.corrupt(ctx, out)
    errors = workload.check(ctx, out)
    attempted, failed = tally([{"errors": errors}])
    return {"corruption": what, "errors": errors,
            "flagged": attempted == 1 and failed == 1}


def tally(reps: list[dict]) -> tuple[int, int]:
    """``(attempted, failed)``: a repetition fails on any error."""
    return len(reps), sum(1 for rep in reps if rep["errors"])


def check_repeats(reps: list[dict]) -> None:
    """Work counters must repeat exactly between repetitions of a mode."""
    for traced in (False, True):
        same = [r for r in reps if r["traced"] == traced and "work" in r]
        for rep in same[1:]:
            if rep["work"] != same[0]["work"]:
                diff = sorted(k for k in set(rep["work"]) | set(same[0]["work"])
                              if rep["work"].get(k) != same[0]["work"].get(k))
                rep["errors"].append(f"work counters differ: {diff}")


def provenance(args, workload, config, nproc: int) -> dict:
    import numpy
    from repro.rc4 import _native

    native = _native.available()
    if not native:
        simd = "none"
    elif not config.native_simd:
        simd = "off"
    elif _native.simd_available():
        simd = f"avx2x{_native.simd_lanes()}"
    else:
        simd = "unsupported"
    pages = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "shape": workload.shape,
        "native": native,
        "simd_tier": simd,
        "native_threads": _native.resolve_threads(None),
        "nproc": nproc,
        "total_ram_mib": pages // (1 << 20),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def fastest_mean(samples: list[float]) -> float:
    return statistics.mean(sorted(samples)[:FASTEST])


def summarize(args, workload, reps, ref_samples, setup_samples, peak_mib,
              prov) -> dict:
    from layers import COMPUTED
    from tracer import median

    timed = [r for r in reps if not r.get("warmup")]
    plain = [r["wall_s"] for r in timed if not r["traced"]]
    wall = statistics.median(plain)
    wall_ref = fastest_mean(plain) / fastest_mean(ref_samples)
    end_to_end = {
        "setup_s": fastest_mean(setup_samples),
        "wall_ref": wall_ref,
        "peak_rss_mib": peak_mib,
        "throughput_per_ref": workload.work_items() / wall_ref,
    }
    attempted, failed = tally(reps)
    record = {
        "provenance": prov,
        "end_to_end": end_to_end,
        "wall_s": wall,
        "wall_fastest_s": fastest_mean(plain),
        "reference_fastest_s": fastest_mean(ref_samples),
        workload.throughput: workload.work_items() / wall,
        "ops_failed_ratio": failed / attempted,
        "setup_samples_s": setup_samples,
        "reference_samples_s": ref_samples,
        "reps": [{"traced": r["traced"], "warmup": r.get("warmup", False),
                  "wall_s": r["wall_s"], "errors": r["errors"],
                  "work": r.get("work", {})}
                 for r in reps],
        "selftest": next((r["selftest"] for r in reps if "selftest" in r), None),
        "computed_bytes": list(COMPUTED),
    }
    traced = [r for r in timed if r["traced"]]
    if traced:
        names = traced[0]["metrics"].keys()
        layer_metrics = {n: median([r["metrics"][n] for r in traced])
                         for n in names}
        traced_wall = median([r["wall_s"] for r in traced])
        layers = {}
        for rep in traced:
            for layer, own in rep["layers"].items():
                layers.setdefault(layer, []).append(own)
        layer_self = {k: median(v) for k, v in sorted(layers.items())}
        unattributed = median([
            r["wall_s"] - sum(v for k, v in r["layers"].items() if k != "bench")
            for r in traced
        ])
        layer_metrics["capture.checkpoint_share"] = (
            layer_metrics["capture.checkpoint_s"] / traced_wall
        )
        layer_metrics["trace.wall_s"] = traced_wall
        layer_metrics["trace.overhead_s"] = traced_wall - wall
        layer_metrics["trace.unattributed_s"] = unattributed
        record["per_layer"] = layer_metrics
        record["layer_self_s"] = layer_self
        record["absent_spans"] = sorted(
            set().union(*(set(r["absent"]) for r in traced))
        )
    return record


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}; run it "
              "from the root of a full checkout", file=sys.stderr)
        return 2
    nproc = configure()
    if args.setup_probe:
        return probe(args)

    from reference import Reference
    from tracer import Tracer, chrome_trace, rss_hwm_mib, write_json

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    setup_probe(args, timeout=900)  # may compile the native library
    scratch = BUILD / "scratch" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        workload, ctx, config = build(args.workload, args.seed, scratch)
        prov = provenance(args, workload, config, nproc)
        untraced, traced = Tracer(timed=False), Tracer(timed=True)
        # The warm-up repetition is checked and counted but not timed: it
        # pays first-call costs (lazy imports, first page faults) that
        # every later repetition skips.
        warmup = run_one(workload, ctx, untraced, self_test=True)
        warmup["warmup"] = True
        # Every repetition does the same work (check_repeats holds them
        # to it), so the high-water mark after the warm-up is the
        # workload's peak; it is read before the reference loop's inputs
        # exist, which would otherwise count towards it.
        peak_mib = rss_hwm_mib()
        reference = Reference()
        reference.time()
        reps: list[dict] = [warmup]
        ref_samples: list[float] = []
        # Set-up probes are spread over the run, like the repetitions,
        # so that one slow spell at its start does not set ``setup_s``.
        setup_samples: list[float] = []
        deadline = time.perf_counter() + args.seconds
        min_reps = 1 + (2 * MIN_REPS if args.trace else MIN_REPS)
        step = 0.0  # the longest reference + repetition so far
        while len(reps) < min_reps or time.perf_counter() + step < deadline:
            began = time.perf_counter()
            ref_samples += [reference.time() for _ in range(REF_CALLS)]
            setup_samples.append(setup_probe(args))
            tracer = traced if args.trace and len(reps) % 2 else untraced
            reps.append(run_one(workload, ctx, tracer, self_test=False))
            step = max(step, time.perf_counter() - began)
        ref_samples += [reference.time() for _ in range(REF_CALLS)]
        while len(setup_samples) < SETUP_PROBES:
            setup_samples.append(setup_probe(args))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    check_repeats(reps)
    record = summarize(args, workload, reps, ref_samples, setup_samples,
                       peak_mib, prov)
    # The high-water mark including the reference loop, for comparison.
    record["peak_rss_end_mib"] = rss_hwm_mib()
    if args.trace:
        trace_path = BUILD / "traces" / f"{args.workload}-seed{args.seed}.json"
        write_json(trace_path, chrome_trace(
            [r["spans"] for r in reps if r["traced"]], prov))
        record["trace_file"] = str(trace_path.relative_to(ROOT))
    selftest = record["selftest"]
    attempted, failed = tally(reps)
    correct = failed == 0 and selftest is not None and selftest["flagged"]
    section = "per_layer" if args.trace else "end_to_end"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": record[section][m["name"]], "unit": m["unit"]}
               for m in spec[section]}
    print(json.dumps({"record": record}, sort_keys=True, default=str))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
