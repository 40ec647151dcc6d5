"""Command-line entry point: ``python -m repro <command>``.

Every command drives the unified experiment API (:mod:`repro.api`):

    list [--json]                 enumerate the experiment registry
    run <experiment> [--param k=v ...] [--json PATH|-]
                                  run any registered experiment
    sweep <exp> [...] --store DIR --grid k=v1,v2,...
                                  grid sweep into a results warehouse
                                  (resumable: stored runs are skipped)
    store query <dir> [filters]   query warehoused runs
    store report <dir> [filters]  comparison table / figure from stored runs
    info [--json]                 version, config, backend, registry inventory

Global flags ``--scale`` / ``--seed`` / ``--threads`` override the
``REPRO_SCALE`` / ``REPRO_SEED`` / ``REPRO_NATIVE_THREADS`` environment
defaults.  ``run --json -`` prints the canonical
:class:`~repro.api.ExperimentResult` JSON to stdout (machine-readable:
``from_json`` round-trips it bit-identically).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import __version__
from .api import (
    ExperimentSpec,
    ProgressEvent,
    Session,
    list_experiments,
)
from .config import ReproConfig, get_config
from .errors import ReproError


def _build_config(args: argparse.Namespace) -> ReproConfig:
    base = get_config()
    replacements = {}
    if args.scale is not None:
        replacements["scale"] = args.scale
    if args.seed is not None:
        replacements["seed"] = args.seed
    if getattr(args, "threads", None) is not None:
        replacements["native_threads"] = args.threads
    return dataclasses.replace(base, **replacements)


def _print_progress(event: ProgressEvent) -> None:
    # stderr, so `run --json -` keeps stdout purely machine-readable.
    print(f"[{event.experiment}/{event.stage}] {event.message}", file=sys.stderr)


def _parse_params(pairs: list[str]) -> dict[str, str]:
    overrides: dict[str, str] = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise ReproError(
                f"--param expects name=value, got {pair!r}"
            )
        overrides[name] = value
    return overrides


def _format_metric(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return repr(value) if isinstance(value, str) else str(value)


def _cmd_list(args: argparse.Namespace) -> int:
    specs = list_experiments()
    if args.json:
        print(json.dumps([spec.describe() for spec in specs], indent=2))
        return 0
    width = max(len(spec.name) for spec in specs)
    print(f"{len(specs)} registered experiments "
          f"(run with: python -m repro run <name>):")
    for spec in specs:
        section = f"{spec.section:>5}" if spec.section else "     "
        print(f"  {spec.name:<{width}}  {section}  {spec.description}")
    return 0


def _describe_params(spec: ExperimentSpec) -> str:
    names = [param.name for param in spec.params]
    return ", ".join(names) if names else "(none)"


def _cmd_run(args: argparse.Namespace) -> int:
    config = _build_config(args)
    session = Session(
        config, cache_dir=args.cache_dir, store=getattr(args, "store", None)
    )
    if not args.quiet:
        session.add_progress(_print_progress)
    overrides = _parse_params(args.param or [])
    result = session.run(args.experiment, **overrides)
    if args.json == "-":
        print(result.to_json())
    else:
        if args.json:
            result.save(args.json)
        print(f"{result.experiment}: done in {result.timings['total']:.2f}s")
        for key, value in result.metrics.items():
            print(f"  {key}: {_format_metric(value)}")
        if args.json:
            print(f"  (result JSON written to {args.json})")
    # Attacks report success; propagate it like the old tkip command did.
    correct = result.metrics.get("correct")
    return 0 if correct in (None, True) else 1


def _api_surface() -> list[tuple[str, str]]:
    """(name, first docstring line) for the public API entry points.

    The ``info`` command surfaces these so the docstring pass is
    discoverable from the CLI, not just from ``help()``.
    """
    from .api import ExperimentResult, Session
    from .capture import run_capture
    from .warehouse import RunStore, run_sweep

    surface = [
        ("repro.api.Session", Session),
        ("repro.api.Session.run", Session.run),
        ("repro.api.Session.sweep", Session.sweep),
        ("repro.api.ExperimentResult", ExperimentResult),
        ("repro.capture.run_capture", run_capture),
        ("repro.warehouse.RunStore", RunStore),
        ("repro.warehouse.run_sweep", run_sweep),
    ]
    lines = []
    for name, obj in surface:
        doc = (obj.__doc__ or "").strip().splitlines()
        lines.append((name, doc[0] if doc else "(undocumented)"))
    return lines


def _cmd_info(args: argparse.Namespace) -> int:
    from .rc4 import _native

    config = _build_config(args)
    specs = list_experiments()
    api = _api_surface()
    if args.json:
        print(json.dumps(
            {
                "version": __version__,
                "scale": config.scale,
                "seed": config.seed,
                "native": _native.available(),
                "native_threads": config.native_threads,
                "backend": _native.status(),
                "experiments": [spec.describe() for spec in specs],
                "api": [
                    {"name": name, "summary": summary} for name, summary in api
                ],
            },
            indent=2,
        ))
        return 0
    print(f"repro {__version__} — RC4 biases / WPA-TKIP / TLS reproduction")
    print(f"scale={config.scale} seed={config.seed}")
    print(f"backend: {_native.status()}")
    print("subsystems: rc4, stats, biases, datasets, core, net, tkip, tls, "
          "simulate, analysis, capture, warehouse, api")
    print(f"experiments ({len(specs)} registered):")
    for spec in specs:
        print(f"  {spec.name}: {spec.description} "
              f"[params: {_describe_params(spec)}]")
    print("public API (see help(<name>) for the full docstring):")
    for name, summary in api:
        print(f"  {name}: {summary}")
    print("docs: README.md (usage + Experiment API), docs/architecture.md "
          "(layer map), docs/experiment-atlas.md (paper-figure atlas), "
          "ROADMAP.md, PAPER.md (source paper abstract)")
    return 0


def _parse_grid(pairs: list[str]) -> dict[str, list[str]]:
    """Parse repeated ``--grid name=v1,v2,...`` into value lists.

    Values stay strings; each experiment's declared parameter kind
    coerces them (the same path ``run --param`` takes).
    """
    grid: dict[str, list[str]] = {}
    for pair in pairs:
        name, sep, values = pair.partition("=")
        if not sep or not name:
            raise ReproError(f"--grid expects name=v1,v2,..., got {pair!r}")
        items = [v for v in values.split(",") if v != ""]
        if not items:
            raise ReproError(f"--grid {name!r} has no values")
        grid[name] = items
    return grid


def _query_value(text: str) -> object:
    """Coerce a CLI filter value: JSON literal when it parses, else str."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .warehouse import RunStore, SweepSpec, run_sweep

    config = _build_config(args)
    session = Session(config, cache_dir=args.cache_dir)
    if not args.quiet:
        session.add_progress(_print_progress)
    grid = _parse_grid(args.grid or [])
    base = _parse_params(args.param or [])
    specs = [
        SweepSpec(name, grid=grid, base=base) for name in args.experiments
    ]
    store = RunStore(args.store)

    def progress(plan, status: str) -> None:
        if not args.quiet:
            print(
                f"[sweep] {status}: {plan.experiment} "
                f"{plan.overrides} ({plan.fingerprint[:16]})",
                file=sys.stderr,
            )

    report = run_sweep(session, specs, store, progress=progress)
    counts = report.counts()
    if args.json:
        print(json.dumps(
            {
                "store": str(store.root),
                "counts": counts,
                "outcomes": [
                    {
                        "experiment": o.plan.experiment,
                        "params": o.plan.params,
                        "fingerprint": o.plan.fingerprint,
                        "status": o.status,
                        "error": o.error,
                    }
                    for o in report.outcomes
                ],
            },
            indent=2,
        ))
    else:
        print(f"sweep over {', '.join(args.experiments)}: "
              f"{counts['ran']} ran, {counts['skipped']} skipped, "
              f"{counts['failed']} failed ({len(store)} runs in {store.root})")
        for outcome in report.failed:
            print(f"  failed: {outcome.plan.experiment} "
                  f"{outcome.plan.overrides}: {outcome.error}")
    return 0 if not report.failed else 1


def _store_query_runs(args: argparse.Namespace):
    from .warehouse import RunStore

    store = RunStore(args.store)
    params = {
        name: _query_value(value)
        for name, value in _parse_params(args.param or []).items()
    }
    runs = store.query(
        experiment=args.experiment,
        params=params or None,
        since=args.since,
        until=args.until,
    )
    return store, runs


def _cmd_store_query(args: argparse.Namespace) -> int:
    store, runs = _store_query_runs(args)
    if args.json:
        print(json.dumps([run.to_record() for run in runs], indent=2))
        return 0
    print(f"{len(runs)} of {len(store)} stored runs match")
    for run in runs:
        total = run.result.timings.get("total", 0.0)
        print(f"  {run.fingerprint[:16]}  {run.stored_at_iso}  "
              f"{run.result.experiment}  {run.result.params}  "
              f"({total:.2f}s)")
    return 0


def _cmd_store_report(args: argparse.Namespace) -> int:
    from .analysis import figure_summary, sweep_diff, sweep_table
    from .errors import WarehouseError

    store, runs = _store_query_runs(args)
    if not runs:
        print("no stored runs match the given filters", file=sys.stderr)
        return 1
    metrics = (
        [m for m in args.metric.split(",") if m] if args.metric else None
    )
    title = f"warehouse report: {store.root} ({len(runs)} runs)"
    if args.baseline is not None:
        matches = [
            r for r in store.runs() if r.fingerprint.startswith(args.baseline)
        ]
        if len(matches) != 1:
            raise WarehouseError(
                f"--baseline {args.baseline!r} matches {len(matches)} stored "
                "runs; pass a longer fingerprint prefix"
            )
        print(sweep_diff(runs, matches[0], metrics, title=title))
    else:
        print(sweep_table(runs, metrics, title=title))
    if args.figure:
        parts = args.figure.split(":")
        if len(parts) not in (2, 3):
            raise ReproError(
                f"--figure expects X_PARAM:METRIC[:SERIES_PARAM], "
                f"got {args.figure!r}"
            )
        series = parts[2] if len(parts) == 3 else None
        try:
            figure = figure_summary(
                runs, parts[0], parts[1], series_param=series,
                title=f"{parts[1]} vs {parts[0]}",
            )
        except ValueError as exc:
            raise ReproError(f"--figure: {exc}") from exc
        print()
        print(figure)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduction of 'All Your Biases Belong To Us' "
        "(RC4 attacks on WPA-TKIP and TLS).",
    )
    parser.add_argument("--scale", type=float, default=None,
                        help="sample-count multiplier (overrides REPRO_SCALE)")
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed (overrides REPRO_SEED)")
    parser.add_argument("--threads", type=int, default=None,
                        help="native kernel threads "
                        "(overrides REPRO_NATIVE_THREADS)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="enumerate registered experiments")
    p_list.add_argument("--json", action="store_true",
                        help="machine-readable registry dump")
    p_list.set_defaults(func=_cmd_list)

    p_run = sub.add_parser("run", help="run a registered experiment")
    p_run.add_argument("experiment", help="registry name (see: list)")
    p_run.add_argument("--param", action="append", metavar="NAME=VALUE",
                       help="override an experiment parameter (repeatable)")
    p_run.add_argument("--json", metavar="PATH", default=None,
                       help="write the ExperimentResult JSON to PATH "
                       "('-' prints it to stdout)")
    p_run.add_argument("--cache-dir", default=None,
                       help="on-disk dataset cache directory")
    p_run.add_argument("--store", default=None, metavar="DIR",
                       help="also append the result to this results "
                       "warehouse (created if needed)")
    p_run.add_argument("--quiet", action="store_true",
                       help="suppress progress output")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser(
        "sweep",
        help="run a parameter-grid sweep into a results warehouse",
        description="Expand --grid into a cartesian product of runs for "
        "every listed experiment, persist each result into the warehouse "
        "at --store, and skip any point whose fingerprint is already "
        "stored — re-running a killed sweep resumes where it left off.",
    )
    p_sweep.add_argument("experiments", nargs="+", metavar="EXPERIMENT",
                         help="registry names to sweep (see: list)")
    p_sweep.add_argument("--store", required=True, metavar="DIR",
                         help="results-warehouse directory (created if needed)")
    p_sweep.add_argument("--grid", action="append", metavar="NAME=V1,V2,...",
                         help="parameter values to sweep over (repeatable; "
                         "every listed experiment must declare NAME)")
    p_sweep.add_argument("--param", action="append", metavar="NAME=VALUE",
                         help="fixed override applied to every point "
                         "(repeatable)")
    p_sweep.add_argument("--cache-dir", default=None,
                         help="on-disk dataset cache directory")
    p_sweep.add_argument("--json", action="store_true",
                         help="machine-readable outcome dump")
    p_sweep.add_argument("--quiet", action="store_true",
                         help="suppress progress output")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_store = sub.add_parser(
        "store", help="query and report on a results warehouse"
    )
    store_sub = p_store.add_subparsers(dest="store_command", required=True)

    def _add_store_filters(p: argparse.ArgumentParser) -> None:
        p.add_argument("store", metavar="DIR",
                       help="results-warehouse directory")
        p.add_argument("--experiment", default=None,
                       help="filter: exact registry name")
        p.add_argument("--param", action="append", metavar="NAME=VALUE",
                       help="filter: parameter subset match (repeatable; "
                       "values parsed as JSON when possible)")
        p.add_argument("--since", default=None, metavar="WHEN",
                       help="filter: stored at/after (ISO date or unix time)")
        p.add_argument("--until", default=None, metavar="WHEN",
                       help="filter: stored at/before (ISO date or unix time)")

    p_query = store_sub.add_parser(
        "query", help="list stored runs matching filters"
    )
    _add_store_filters(p_query)
    p_query.add_argument("--json", action="store_true",
                         help="full stored records as JSON")
    p_query.set_defaults(func=_cmd_store_query)

    p_report = store_sub.add_parser(
        "report",
        help="comparison table (and optional figure) from stored runs",
        description="Tabulate metric cells across the stored runs matching "
        "the filters. Cells are rendered in canonical JSON — bit-identical "
        "to the stored ExperimentResult records.",
    )
    _add_store_filters(p_report)
    p_report.add_argument("--metric", default=None, metavar="M1,M2,...",
                          help="metrics to tabulate (default: all)")
    p_report.add_argument("--baseline", default=None, metavar="FINGERPRINT",
                          help="diff every run against this stored run "
                          "(fingerprint prefix)")
    p_report.add_argument("--figure", default=None,
                          metavar="X_PARAM:METRIC[:SERIES_PARAM]",
                          help="also regenerate an ASCII figure from the "
                          "matched runs")
    p_report.set_defaults(func=_cmd_store_report)

    p_info = sub.add_parser("info", help="version, config, and inventory")
    p_info.add_argument("--json", action="store_true",
                        help="machine-readable info dump")
    p_info.set_defaults(func=_cmd_info)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
