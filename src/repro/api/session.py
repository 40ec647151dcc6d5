"""The :class:`Session` facade — one object that runs any experiment.

A session owns a :class:`~repro.config.ReproConfig`, a dataset cache
(in-memory always, on-disk via :mod:`repro.datasets.store` when a cache
directory is given), and a list of progress callbacks.  ``run(name,
**overrides)`` resolves the experiment in the registry, validates and
completes its parameters, executes it under a :class:`RunContext`, and
returns a uniform :class:`~repro.api.result.ExperimentResult`.

Every consumer — the CLI, the examples, the benchmarks — drives this
facade, so orchestration lives in exactly one place.
"""

from __future__ import annotations

import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterator

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - avoids an api <-> warehouse cycle
    from ..warehouse import RunStore, SweepReport

from .._version import __version__
from ..config import ReproConfig, get_config
from ..datasets.manager import DatasetSpec, generate_dataset
from ..datasets.store import dataset_cache_path, load_dataset, save_dataset
from ..errors import DatasetError, ExperimentError
from ..rc4 import _native
from .registry import ExperimentSpec, get_experiment
from .result import ExperimentResult


@dataclass(frozen=True)
class ProgressEvent:
    """One progress notification from a running experiment.

    Attributes:
        experiment: registry name of the running experiment.
        stage: short machine-friendly stage label (also the timing key).
        message: human-readable one-liner.
        data: small JSON-able payload (counts, ranks, ...).
    """

    experiment: str
    stage: str
    message: str
    data: dict[str, Any] = field(default_factory=dict)


ProgressCallback = Callable[[ProgressEvent], None]


class Session:
    """Facade for running registered experiments under one configuration.

    Every consumer — the CLI, the examples, the benchmarks, the sweep
    orchestrator — drives experiments through a session, so seeding,
    dataset caching, progress, and result persistence live in exactly
    one place.

    Args:
        config: run configuration; ``None`` reads the environment
            (:func:`repro.config.get_config`).
        cache_dir: optional directory for the on-disk dataset cache.
            When unset, datasets are cached in memory only (fresh
            sessions regenerate — what benchmarks want).
        progress: optional initial progress callback.
        store: optional :class:`~repro.warehouse.RunStore` (or a path,
            which opens one).  When set, every :meth:`run` result is
            appended to the warehouse automatically, deduplicated by
            run fingerprint.

    Example:

        >>> from repro.api import Session
        >>> from repro.config import ReproConfig
        >>> session = Session(ReproConfig(seed=7, scale=1.0))
        >>> result = session.run("dataset-single", num_keys=256, positions=2)
        >>> result.experiment
        'dataset-single'
        >>> sorted(result.params) == ["num_keys", "positions"]
        True
    """

    def __init__(
        self,
        config: ReproConfig | None = None,
        *,
        cache_dir: str | Path | None = None,
        progress: ProgressCallback | None = None,
        store: "RunStore | str | Path | None" = None,
    ) -> None:
        self.config = config if config is not None else get_config()
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._callbacks: list[ProgressCallback] = []
        self._dataset_cache: dict[str, np.ndarray] = {}
        if store is not None and isinstance(store, (str, Path)):
            from ..warehouse import RunStore

            store = RunStore(store)
        self.store: "RunStore | None" = store
        if progress is not None:
            self.add_progress(progress)

    # --- progress ---------------------------------------------------------

    def add_progress(self, callback: ProgressCallback) -> None:
        """Subscribe ``callback`` to every :class:`ProgressEvent`."""
        self._callbacks.append(callback)

    def _emit(self, event: ProgressEvent) -> None:
        for callback in self._callbacks:
            callback(event)

    # --- dataset cache ----------------------------------------------------

    def dataset(
        self,
        spec: DatasetSpec,
        *,
        worker_chunk: int | None = None,
    ) -> np.ndarray:
        """Generate (or fetch from cache) the counters for ``spec``.

        The cache key covers every spec field plus the session seed, so
        two sessions at the same seed share disk entries while different
        seeds never collide.  Cached counters are returned as read-only
        views; copy before mutating.  A non-default ``worker_chunk``
        (a testing knob that changes shard key derivation, hence the
        counters) bypasses both cache layers entirely.  A cache file that
        fails to load (torn, corrupt or stale) is regenerated and
        overwritten, with a :class:`RuntimeWarning`.
        """
        if worker_chunk is not None:
            return generate_dataset(
                spec,
                self.config,
                worker_chunk=worker_chunk,
                threads=self.config.native_threads,
            )
        path = dataset_cache_path(self.cache_dir or "", spec, self.config)
        key = path.name
        cached = self._dataset_cache.get(key)
        if cached is not None:
            return cached
        counts = None
        if self.cache_dir is not None and path.exists():
            # expected_spec guards against hash collisions and stale files.
            try:
                counts, _ = load_dataset(path, expected_spec=spec)
            except DatasetError as exc:
                # A torn or stale entry is a cache miss: regenerate it and
                # overwrite the file.
                warnings.warn(
                    f"dataset cache entry unusable, regenerating: {exc}",
                    RuntimeWarning,
                    stacklevel=2,
                )
        if counts is None:
            counts = generate_dataset(
                spec, self.config, threads=self.config.native_threads
            )
            if self.cache_dir is not None:
                save_dataset(path, counts, spec)
        counts.setflags(write=False)
        self._dataset_cache[key] = counts
        return counts

    # --- running ----------------------------------------------------------

    def run(self, name: str, /, **overrides: Any) -> ExperimentResult:
        """Run a registered experiment and return its uniform result.

        Parameter defaults are scale-aware (resolved through the session
        config), overrides are validated against the registry schema,
        and the returned record carries full provenance.  When the
        session has a warehouse ``store``, the result is appended to it
        before returning (a fingerprint-duplicate append is a no-op).

        Example:

            >>> from repro.api import Session
            >>> from repro.config import ReproConfig
            >>> session = Session(ReproConfig(seed=7, scale=1.0))
            >>> session.run("dataset-single", num_keys=256).provenance["seed"]
            7

        Raises:
            UnknownExperimentError: ``name`` is not registered.
            ExperimentParamError: an override is unknown or ill-typed.
            ExperimentError: the experiment returned a malformed record.
        """
        spec = get_experiment(name)
        params = spec.resolve_params(self.config, overrides)
        ctx = RunContext(session=self, spec=spec, params=params)
        start = time.perf_counter()
        metrics = spec.fn(ctx)
        total = time.perf_counter() - start
        if not isinstance(metrics, dict):
            raise ExperimentError(
                f"experiment {name!r} returned {type(metrics).__name__}, "
                "expected a metrics dict"
            )
        timings = dict(ctx.timings)
        timings["total"] = total
        result = ExperimentResult(
            experiment=name,
            params=params,
            metrics=metrics,
            timings=timings,
            provenance=self._provenance(),
        )
        if self.store is not None:
            self.store.append(result)
        return result

    def sweep(
        self,
        specs: "Any",
        *,
        store: "RunStore | str | Path | None" = None,
        progress: "Callable[[Any, str], None] | None" = None,
    ) -> "SweepReport":
        """Run a parameter-grid sweep, persisting every run.

        A thin wrapper over :func:`repro.warehouse.run_sweep`: expands
        the given :class:`~repro.warehouse.SweepSpec` declarations
        against the registry, skips every point whose fingerprint the
        store already holds (crash-tolerant resume), and records
        ran/skipped/failed outcomes per point.

        Args:
            specs: iterable of :class:`~repro.warehouse.SweepSpec` (or
                pre-planned runs from
                :func:`repro.warehouse.plan_sweep`).
            store: destination warehouse; defaults to the session's own
                ``store``.  One of the two must be set.
            progress: optional ``callback(plan, status)`` per point.

        Example:

            >>> from repro.warehouse import SweepSpec
            >>> report = session.sweep(
            ...     [SweepSpec("dataset-single",
            ...                grid={"num_keys": [256, 512]})],
            ...     store="runs/",
            ... )  # doctest: +SKIP
            >>> report.counts()  # doctest: +SKIP
            {'ran': 2, 'skipped': 0, 'failed': 0}
        """
        from ..warehouse import RunStore, run_sweep

        if store is None:
            store = self.store
        elif isinstance(store, (str, Path)):
            store = RunStore(store)
        if store is None:
            raise ExperimentError(
                "sweep needs a run store: pass store=... or construct the "
                "Session with store=..."
            )
        return run_sweep(self, specs, store, progress=progress)

    def _provenance(self) -> dict[str, Any]:
        config = self.config
        return {
            "version": __version__,
            "seed": config.seed,
            "scale": config.scale,
            "native": _native.available(),
            "native_threads": config.native_threads,
            "native_simd": config.native_simd and _native.simd_available(),
        }


@dataclass
class RunContext:
    """What an experiment implementation receives.

    Wraps the session with run-scoped conveniences: resolved ``params``,
    a :meth:`timer` that records per-stage wall-clock into the result,
    :meth:`emit` for progress events, seeded :meth:`rng` streams, and the
    session dataset cache.
    """

    session: Session
    spec: ExperimentSpec
    params: dict[str, Any]
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def config(self) -> ReproConfig:
        return self.session.config

    def rng(self, *labels: object) -> np.random.Generator:
        """Child RNG namespaced under this experiment's name."""
        return self.config.rng("experiment", self.spec.name, *labels)

    def emit(self, stage: str, message: str, **data: Any) -> None:
        """Send a progress event to the session's subscribers."""
        self.session._emit(
            ProgressEvent(
                experiment=self.spec.name, stage=stage, message=message, data=data
            )
        )

    @contextmanager
    def timer(self, stage: str) -> Iterator[None]:
        """Record the wall-clock of a stage into the result timings."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.timings[stage] = (
                self.timings.get(stage, 0.0) + time.perf_counter() - start
            )

    def dataset(self, spec: DatasetSpec) -> np.ndarray:
        """Session-cached dataset generation (see :meth:`Session.dataset`)."""
        return self.session.dataset(spec)

    def capture_progress(self, stage: str = "capture", *, every: int = 8):
        """Progress callback bridging the capture engine to the session.

        Returns a callable for :func:`repro.capture.run_capture`'s
        ``progress`` argument that emits a :class:`ProgressEvent` every
        ``every`` batches, at every checkpoint write, and at completion.
        """

        def callback(progress) -> None:
            boundary = (
                progress.batches_done % every == 0
                or progress.batches_done == progress.num_batches
                or progress.checkpointed
            )
            if not boundary:
                return
            self.emit(
                stage,
                f"captured {progress.requests_done}/"
                f"{progress.total_requests} requests "
                f"(batch {progress.batches_done}/{progress.num_batches})",
                requests_done=progress.requests_done,
                total_requests=progress.total_requests,
                batches_done=progress.batches_done,
                num_batches=progress.num_batches,
                checkpointed=progress.checkpointed,
            )

        return callback
