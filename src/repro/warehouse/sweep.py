"""Parameter-grid sweeps over the experiment registry.

A sweep is declared, not scripted: a :class:`SweepSpec` names a
registered experiment, a ``grid`` of parameter value lists (expanded as
a cartesian product), and fixed ``base`` overrides shared by every
point.  :func:`plan_sweep` validates the declaration against the
registry — every grid/base key must be a declared parameter — resolves
each point to its full parameter dict, and computes the run fingerprint
*before* anything executes.

That up-front fingerprinting is what makes sweeps crash-tolerant:
:func:`run_sweep` skips every plan whose fingerprint the
:class:`~repro.warehouse.RunStore` already holds, so re-launching a
killed sweep re-runs only the missing points — the warehouse analogue
of :func:`repro.capture.run_capture`'s checkpoints (batches there,
whole runs here).

Sweep points run through the ordinary :meth:`~repro.api.Session.run`
path, exactly as a hand-typed CLI run would.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

from ..api.registry import get_experiment
from ..config import ReproConfig
from ..errors import ReproError, SweepError
from .store import RunStore, StoredRun, run_fingerprint

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..api.session import Session


@dataclass(frozen=True)
class SweepSpec:
    """One experiment's leg of a sweep.

    Attributes:
        experiment: registry name (must exist; checked at plan time).
        grid: ``{param: [value, ...]}`` — expanded as a cartesian
            product.  Values pass through the parameter's declared
            coercion, so CLI strings and Python literals both work.
        base: fixed overrides applied to every grid point (e.g.
            ``{"capture": "batched"}`` for a keystream-level leg).
    """

    experiment: str
    grid: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    base: Mapping[str, Any] = field(default_factory=dict)

    def points(self) -> list[dict[str, Any]]:
        """Expand the grid into override dicts (base merged in).

        Deterministic order: grid keys sorted, values in declared order.
        An empty grid yields the single ``base`` point.
        """
        overlap = sorted(set(self.grid) & set(self.base))
        if overlap:
            raise SweepError(
                f"sweep over {self.experiment!r}: parameter(s) "
                f"{', '.join(map(repr, overlap))} appear in both grid and base"
            )
        names = sorted(self.grid)
        for name in names:
            values = self.grid[name]
            if isinstance(values, (str, bytes)) or not isinstance(
                values, (Sequence, list, tuple)
            ):
                raise SweepError(
                    f"sweep over {self.experiment!r}: grid values for "
                    f"{name!r} must be a sequence, got {values!r}"
                )
            if len(values) == 0:
                raise SweepError(
                    f"sweep over {self.experiment!r}: grid for {name!r} is empty"
                )
        product = itertools.product(*(self.grid[name] for name in names))
        return [
            {**dict(self.base), **dict(zip(names, combo))} for combo in product
        ]


@dataclass(frozen=True)
class PlannedRun:
    """One fully resolved sweep point, fingerprinted before execution.

    Attributes:
        experiment: registry name.
        overrides: the grid/base overrides that produced this point.
        params: the complete resolved parameter dict (defaults filled,
            values coerced) — what the stored result will record.
        fingerprint: :func:`~repro.warehouse.run_fingerprint` of the
            resolved run; the resume/skip key.
    """

    experiment: str
    overrides: dict[str, Any]
    params: dict[str, Any]
    fingerprint: str


def plan_sweep(
    specs: Iterable[SweepSpec], config: ReproConfig
) -> list[PlannedRun]:
    """Expand and validate sweep specs into fingerprinted planned runs.

    Raises:
        SweepError: a grid is malformed, an override names an unknown
            parameter, or the expansion contains duplicate runs.
    """
    plans: list[PlannedRun] = []
    seen: dict[str, PlannedRun] = {}
    for spec in specs:
        experiment = get_experiment(spec.experiment)
        for overrides in spec.points():
            try:
                params = experiment.resolve_params(config, dict(overrides))
            except ReproError as exc:
                raise SweepError(
                    f"sweep over {spec.experiment!r}: {exc}"
                ) from exc
            fingerprint = run_fingerprint(
                spec.experiment, params, seed=config.seed, scale=config.scale
            )
            if fingerprint in seen:
                raise SweepError(
                    f"sweep expands to duplicate runs of {spec.experiment!r} "
                    f"(params {params!r} appear more than once)"
                )
            plan = PlannedRun(
                experiment=spec.experiment,
                overrides=dict(overrides),
                params=params,
                fingerprint=fingerprint,
            )
            seen[fingerprint] = plan
            plans.append(plan)
    if not plans:
        raise SweepError("sweep expands to zero runs")
    return plans


#: Outcome labels recorded per planned run.
SWEEP_STATUSES = ("ran", "skipped", "failed")


@dataclass(frozen=True)
class SweepOutcome:
    """What happened to one planned run.

    Attributes:
        plan: the planned run.
        status: ``"ran"`` (executed and stored), ``"skipped"`` (its
            fingerprint was already in the store), or ``"failed"``.
        run: the stored run for ran/skipped outcomes, else ``None``.
        error: the failure message for failed outcomes, else ``None``.
    """

    plan: PlannedRun
    status: str
    run: StoredRun | None = None
    error: str | None = None


@dataclass(frozen=True)
class SweepReport:
    """The full record of one :func:`run_sweep` invocation."""

    outcomes: tuple[SweepOutcome, ...]

    @property
    def ran(self) -> tuple[SweepOutcome, ...]:
        return tuple(o for o in self.outcomes if o.status == "ran")

    @property
    def skipped(self) -> tuple[SweepOutcome, ...]:
        return tuple(o for o in self.outcomes if o.status == "skipped")

    @property
    def failed(self) -> tuple[SweepOutcome, ...]:
        return tuple(o for o in self.outcomes if o.status == "failed")

    def counts(self) -> dict[str, int]:
        return {status: 0 for status in SWEEP_STATUSES} | {
            status: sum(1 for o in self.outcomes if o.status == status)
            for status in {o.status for o in self.outcomes}
        }


SweepProgress = Callable[[PlannedRun, str], None]


def run_sweep(
    session: "Session",
    specs: Iterable[SweepSpec] | Sequence[PlannedRun],
    store: RunStore,
    *,
    progress: SweepProgress | None = None,
) -> SweepReport:
    """Execute a sweep against ``store``, skipping already-stored runs.

    Every planned run whose fingerprint is already warehoused is
    skipped without executing — kill this function at any point and a
    re-invocation resumes exactly where the store left off.  A run that
    raises a :class:`~repro.errors.ReproError` is recorded as failed
    and the sweep continues; infrastructure errors (anything else)
    propagate.

    Args:
        session: the :class:`~repro.api.Session` to run points under
            (its seed/scale are part of every fingerprint).
        specs: sweep declarations, or pre-planned runs from
            :func:`plan_sweep`.
        store: destination :class:`~repro.warehouse.RunStore`.
        progress: optional ``callback(plan, status)`` invoked once per
            point with its final status.
    """
    items = list(specs)
    if items and isinstance(items[0], PlannedRun):
        plans = items  # pre-planned (e.g. by the CLI, for dry-run display)
    else:
        plans = plan_sweep(items, session.config)
    outcomes: list[SweepOutcome] = []
    for plan in plans:
        existing = store.get(plan.fingerprint)
        if existing is not None:
            outcomes.append(
                SweepOutcome(plan=plan, status="skipped", run=existing)
            )
            if progress is not None:
                progress(plan, "skipped")
            continue
        try:
            result = session.run(plan.experiment, **plan.params)
        except ReproError as exc:
            outcomes.append(
                SweepOutcome(plan=plan, status="failed", error=str(exc))
            )
            if progress is not None:
                progress(plan, "failed")
            continue
        stored = store.append(result)
        if stored.fingerprint != plan.fingerprint:
            raise SweepError(
                f"run of {plan.experiment!r} stored under fingerprint "
                f"{stored.fingerprint[:16]} but was planned as "
                f"{plan.fingerprint[:16]} — seed/scale changed mid-sweep?"
            )
        outcomes.append(SweepOutcome(plan=plan, status="ran", run=stored))
        if progress is not None:
            progress(plan, "ran")
    return SweepReport(outcomes=tuple(outcomes))
