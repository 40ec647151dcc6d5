"""Campaign orchestration: regime grouping, capture, per-victim attacks.

A campaign partitions the population by *keystream regime* — the axes
that determine the shared keystream schedule: (browser layout,
reconnect cadence) on the TLS side, packets-per-TSC budget on the TKIP
side — then chunks each regime into groups of at most ``group_size``
victims and runs one capture per group: an
:class:`~repro.capture.HttpsCaptureSource` or
:class:`~repro.capture.TkipCaptureSource` with one plaintext and one
victim id per member, so the expensive RC4 keystream generation is paid
once per group and each victim folds only its own template.

Grouping is canonical — victims sorted by index inside each regime,
regimes sorted by key — so group membership and key-derivation labels
are invariant under population permutation, and any single victim can
be reproduced bit-exactly by a one-plaintext capture with its group's
label (tests/test_campaign.py holds both properties).

Group captures ride :func:`repro.capture.run_capture`: resumable via a
per-group checkpoint NPZ plus a per-group outcome record inside
``checkpoint_dir``.  Each finished group is immediately reduced to
per-victim :class:`VictimOutcome` records (success, candidate rank,
time-to-first-recovery) and its counter banks are dropped, bounding
peak memory by the group size, not the population size.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Any, Callable, Sequence

from ..analysis.report import SurfaceCheck, check_surface_within_ci
from ..config import ReproConfig
from ..errors import AttackError, CampaignError, DatasetError
from ..simulate.https import HttpsAttackSimulation
from ..simulate.timing import tkip_timeline, tls_timeline
from ..simulate.wifi import WifiAttackSimulation
from ..tls.attack import recover_candidates
from ..tls.cookies import charset as charset_by_name
from ..utils.serialization import atomic_write_json, read_json
from .population import Population, VictimSpec

#: Axis names of the two campaign kinds' success surfaces.
HTTPS_AXES = ("browser", "charset", "reconnect_every")
TKIP_AXES = ("packets_per_tsc",)


def split_population(
    victims: Sequence[VictimSpec], num_groups: int
) -> list[list[VictimSpec]]:
    """Contiguous near-even victim groups, shard_batches-style.

    ``num_groups`` is clamped to the population size, so a population
    smaller than the requested group count yields fewer groups rather
    than empty ones, and an empty population yields no groups at all —
    the same edge-case contract :func:`repro.capture.shard_batches`
    gives batch ranges.
    """
    if num_groups < 0:
        raise CampaignError(f"num_groups must be >= 0, got {num_groups}")
    count = len(victims)
    num_groups = min(num_groups, count)
    if count == 0 or num_groups == 0:
        return []
    bounds = [
        count * g // num_groups for g in range(num_groups + 1)
    ]
    return [
        list(victims[bounds[g] : bounds[g + 1]]) for g in range(num_groups)
    ]


@dataclass(frozen=True)
class VictimOutcome:
    """Per-victim campaign verdict.

    Attributes:
        victim_id: the population member.
        cell: success-surface cell values, parallel to the campaign's
            axes tuple.
        success: whether the secret was recovered within the candidate
            budget.
        rank: 0-based candidate rank of the truth (None on failure).
        num_samples: ciphertexts captured for this victim.
        hours: projected wall-clock to first recovery at paper rates
            (capture plus candidate search down to the truth's rank);
            None on failure.
    """

    victim_id: str
    cell: tuple
    success: bool
    rank: int | None
    num_samples: int
    hours: float | None

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "victim_id": self.victim_id,
            "cell": list(self.cell),
            "success": self.success,
            "rank": self.rank,
            "num_samples": self.num_samples,
            "hours": self.hours,
        }

    @classmethod
    def from_jsonable(cls, fields: dict[str, Any]) -> "VictimOutcome":
        return cls(
            victim_id=str(fields["victim_id"]),
            cell=tuple(fields["cell"]),
            success=bool(fields["success"]),
            rank=None if fields["rank"] is None else int(fields["rank"]),
            num_samples=int(fields["num_samples"]),
            hours=None if fields["hours"] is None else float(fields["hours"]),
        )


@dataclass
class CampaignResult:
    """Everything a campaign run produces (counters already reduced).

    Attributes:
        kind: "https" or "tkip".
        label: the population label.
        axes: names of the success-surface dimensions.
        outcomes: one record per victim, population order.
        num_groups: shared-keystream groups the campaign ran.
    """

    kind: str
    label: str
    axes: tuple[str, ...]
    outcomes: list[VictimOutcome]
    num_groups: int = 0

    @property
    def trials(self) -> int:
        return len(self.outcomes)

    @property
    def successes(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.success)

    def success_surface(self) -> dict[tuple, dict[str, Any]]:
        """Per-cell success statistics keyed by the axes values."""
        cells: dict[tuple, dict[str, Any]] = {}
        for outcome in self.outcomes:
            cell = cells.setdefault(
                outcome.cell,
                {"successes": 0, "trials": 0, "hours": []},
            )
            cell["trials"] += 1
            if outcome.success:
                cell["successes"] += 1
                cell["hours"].append(outcome.hours)
        surface = {}
        for key, cell in sorted(cells.items(), key=lambda kv: str(kv[0])):
            hours = cell.pop("hours")
            cell["rate"] = cell["successes"] / cell["trials"]
            cell["mean_hours"] = (
                float(sum(hours) / len(hours)) if hours else None
            )
            surface[key] = cell
        return surface

    def surface_fit(
        self, reference: float | None = None, *, z: float = 4.0
    ) -> SurfaceCheck:
        """Fit every cell to a binomial CI around ``reference``.

        ``reference=None`` uses the pooled campaign success rate — a
        homogeneity verdict across the surface; pass a calibrated
        probability to fit against an external model instead.
        """
        if reference is None:
            reference = self.successes / self.trials if self.trials else 0.0
        cells = {
            "/".join(str(v) for v in key): (
                cell["successes"], cell["trials"], reference
            )
            for key, cell in self.success_surface().items()
        }
        return check_surface_within_ci(cells, z=z)

    def heat_cells(
        self, metric: str = "rate"
    ) -> dict[tuple[str, str], float]:
        """The surface flattened to 2-D for :func:`~repro.analysis
        .surface_table`: last axis as columns, the rest joined as rows."""
        cells = {}
        for key, cell in self.success_surface().items():
            if cell.get(metric) is None:
                continue
            row = "/".join(str(v) for v in key[:-1]) or self.axes[0]
            cells[(row, str(key[-1]))] = float(cell[metric])
        return cells

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "label": self.label,
            "axes": list(self.axes),
            "num_groups": self.num_groups,
            "trials": self.trials,
            "successes": self.successes,
            "outcomes": [outcome.to_jsonable() for outcome in self.outcomes],
        }


# ---------------------------------------------------------------------------
# Shared capture plumbing.
# ---------------------------------------------------------------------------


def _grouped(
    victims: Sequence[VictimSpec], key: Callable[[VictimSpec], tuple],
    group_size: int,
) -> list[tuple[tuple, int, list[VictimSpec]]]:
    """Canonical (regime_key, chunk_index, victims) triples.

    Victims are bucketed by regime key, sorted by index inside each
    bucket, and chunked into at most ``group_size``-victim groups —
    membership depends only on each victim's identity, never on the
    order the population was supplied in.
    """
    if group_size < 1:
        raise CampaignError(f"group_size must be >= 1, got {group_size}")
    buckets: dict[tuple, list[VictimSpec]] = {}
    for spec in victims:
        buckets.setdefault(key(spec), []).append(spec)
    groups = []
    for regime in sorted(buckets, key=str):
        members = sorted(buckets[regime], key=lambda s: s.index)
        chunks = split_population(
            members, math.ceil(len(members) / group_size)
        )
        for chunk_index, chunk in enumerate(chunks):
            groups.append((regime, chunk_index, chunk))
    return groups


def _load_done(
    checkpoint_dir: str | Path | None, tag: str, fingerprint: str
) -> list[VictimOutcome] | None:
    """Reuse a finished group's outcomes from a previous campaign run.

    A record that cannot be read back (say, torn by a crash on a
    filesystem that lost the unsynced write) is a miss: it warns, and
    the group is recomputed and its record rewritten.  A readable record
    of a different campaign raises :class:`CampaignError`.
    """
    if checkpoint_dir is None:
        return None
    path = Path(checkpoint_dir) / f"{tag}.done.json"
    if not path.exists():
        return None
    try:
        record = read_json(path)
        if record.get("fingerprint") != fingerprint:
            raise CampaignError(
                f"{path} records a different capture campaign — "
                "clear the checkpoint directory or fix the parameters"
            )
        return [
            VictimOutcome.from_jsonable(fields)
            for fields in record["outcomes"]
        ]
    except (DatasetError, KeyError, TypeError, ValueError) as exc:
        warnings.warn(
            f"{path}: unreadable outcome record ({exc}); recomputing the "
            "group",
            RuntimeWarning,
            stacklevel=2,
        )
        return None


def _store_done(
    checkpoint_dir: str | Path | None,
    tag: str,
    fingerprint: str,
    outcomes: Sequence[VictimOutcome],
) -> None:
    if checkpoint_dir is None:
        return
    directory = Path(checkpoint_dir)
    directory.mkdir(parents=True, exist_ok=True)
    atomic_write_json(
        directory / f"{tag}.done.json",
        {
            "fingerprint": fingerprint,
            "outcomes": [outcome.to_jsonable() for outcome in outcomes],
        },
    )


@dataclass
class Group:
    """One shared-keystream capture group of either attack: its members
    (``specs``), their simulations by victim id, and one capture source
    with one plaintext and victim id per member.  ``tag`` names the
    group's checkpoint and outcome record."""

    tag: str
    specs: list[VictimSpec]
    sims: dict[str, HttpsAttackSimulation | WifiAttackSimulation]
    source: Any


def _run_groups(
    groups: Sequence[Group],
    outcome: Callable[[VictimSpec, Any, Any], VictimOutcome],
    *,
    checkpoint_dir: str | Path | None,
    checkpoint_every: int,
    progress,
    on_group: Callable[[int, int, str], None] | None,
) -> dict[str, VictimOutcome]:
    """Every member's outcome by victim id, one group at a time.

    A group whose outcome record matches its source fingerprint is not
    captured again.  Any other is captured (resuming its checkpoint in
    ``checkpoint_dir``), ``outcome(spec, sim, stats)`` scores each
    member on its own statistics, and the group's counters are dropped
    before the next group, so peak memory is one group's counters.
    """
    from ..capture import run_capture

    outcomes: dict[str, VictimOutcome] = {}
    for group_index, group in enumerate(groups):
        if on_group is not None:
            on_group(group_index, len(groups), group.tag)
        fingerprint = group.source.fingerprint()
        done = _load_done(checkpoint_dir, group.tag, fingerprint)
        if done is None:
            path = Path(checkpoint_dir) / f"{group.tag}.npz" if checkpoint_dir else None
            stats = run_capture(
                group.source,
                checkpoint_path=path,
                checkpoint_every=checkpoint_every,
                progress=progress,
            )
            done = [
                outcome(spec, group.sims[spec.victim_id], stats.victim(spec.victim_id))
                for spec in group.specs
            ]
            del stats
            _store_done(checkpoint_dir, group.tag, fingerprint, done)
        for victim_outcome in done:
            outcomes[victim_outcome.victim_id] = victim_outcome
    return outcomes


# ---------------------------------------------------------------------------
# HTTPS campaigns (§6 over a victim population).
# ---------------------------------------------------------------------------


def plan_https_groups(
    config: ReproConfig,
    population: Population,
    *,
    num_requests: int,
    cookie_len: int = 2,
    max_gap: int = 4,
    batch_size: int = 4096,
    group_size: int = 8,
) -> list[Group]:
    """Expand a population into shared-keystream capture groups.

    Exposed separately so tests can rebuild any group member as a
    one-plaintext :class:`~repro.capture.HttpsCaptureSource` with the
    group's label and assert bit-identical counters.
    """
    from ..capture import HttpsCaptureSource

    groups = []
    for (browser, reconnect_every), chunk_index, chunk in _grouped(
        population.victims,
        lambda spec: (spec.browser, spec.reconnect_every),
        group_size,
    ):
        sims = {
            spec.victim_id: HttpsAttackSimulation(
                replace(config, seed=spec.seed),
                cookie_len=cookie_len,
                max_gap=max_gap,
                browser=spec.browser,
                charset=spec.charset,
            )
            for spec in chunk
        }
        layouts = {sim.layout for sim in sims.values()}
        if len(layouts) != 1:
            raise CampaignError(
                f"group {browser}/r{reconnect_every} mixes request "
                "layouts — victims sharing a keystream regime must share "
                "a layout"
            )
        tag = f"https-{browser}-r{reconnect_every}-g{chunk_index:04d}"
        source = HttpsCaptureSource(
            config=config,
            layout=next(iter(layouts)),
            plaintexts=tuple(
                sims[spec.victim_id].campaign.request_plaintext()
                for spec in chunk
            ),
            victim_ids=tuple(spec.victim_id for spec in chunk),
            num_requests=num_requests,
            batch_size=batch_size,
            reconnect_every=reconnect_every,
            max_gap=max_gap,
            label=f"{population.label}/{tag}",
        )
        groups.append(
            Group(tag=tag, specs=list(chunk), sims=sims, source=source)
        )
    return groups


def run_https_campaign(
    config: ReproConfig,
    population: Population,
    *,
    num_requests: int,
    cookie_len: int = 2,
    num_candidates: int = 256,
    max_gap: int = 4,
    batch_size: int = 4096,
    group_size: int = 8,
    checkpoint_dir: str | Path | None = None,
    checkpoint_every: int = 16,
    progress=None,
    on_group: Callable[[int, int, str], None] | None = None,
) -> CampaignResult:
    """The §6 attack over a whole victim population.

    Victims sharing (browser, reconnect regime) share keystream batches;
    each victim's statistics feed the standard Algorithm 2 recovery and
    score a (browser, charset, reconnect regime) success-surface cell.
    An empty population yields an empty result, not an exception.
    """
    groups = plan_https_groups(
        config,
        population,
        num_requests=num_requests,
        cookie_len=cookie_len,
        max_gap=max_gap,
        batch_size=batch_size,
        group_size=group_size,
    )
    outcomes = _run_groups(
        groups,
        partial(_https_outcome, num_candidates=num_candidates),
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=checkpoint_every,
        progress=progress,
        on_group=on_group,
    )
    return CampaignResult(
        kind="https", label=population.label, axes=HTTPS_AXES,
        outcomes=[outcomes[spec.victim_id] for spec in population.victims],
        num_groups=len(groups),
    )


def _https_outcome(
    spec: VictimSpec,
    sim: HttpsAttackSimulation,
    stats,
    *,
    num_candidates: int,
) -> VictimOutcome:
    candidates = recover_candidates(
        stats, num_candidates, charset=charset_by_name(spec.charset)
    )
    rank = candidates.rank_of(sim.secret)
    success = rank is not None
    hours = (
        tls_timeline(stats.num_requests, candidates=rank + 1).total_hours
        if success
        else None
    )
    return VictimOutcome(
        victim_id=spec.victim_id,
        cell=(spec.browser, spec.charset, spec.reconnect_every),
        success=success,
        rank=rank,
        num_samples=stats.num_requests,
        hours=hours,
    )


# ---------------------------------------------------------------------------
# TKIP campaigns (§5 over a victim population).
# ---------------------------------------------------------------------------


def plan_tkip_groups(
    config: ReproConfig,
    population: Population,
    *,
    tsc_values: Sequence[int],
    batch_size: int = 4096,
    group_size: int = 8,
) -> list[Group]:
    """Expand a population into shared-budget TKIP capture groups."""
    from ..capture import TkipCaptureSource

    groups = []
    for (budget,), chunk_index, chunk in _grouped(
        population.victims,
        lambda spec: (spec.packets_per_tsc,),
        group_size,
    ):
        sims = {
            spec.victim_id: WifiAttackSimulation(
                replace(config, seed=spec.seed)
            )
            for spec in chunk
        }
        tag = f"tkip-p{budget}-g{chunk_index:04d}"
        source = TkipCaptureSource(
            config=config,
            plaintexts=tuple(
                sims[spec.victim_id].true_plaintext for spec in chunk
            ),
            victim_ids=tuple(spec.victim_id for spec in chunk),
            tsc_values=tuple(tsc_values),
            packets_per_tsc=budget,
            batch_size=batch_size,
            label=f"{population.label}/{tag}",
        )
        groups.append(
            Group(tag=tag, specs=list(chunk), sims=sims, source=source)
        )
    return groups


def run_tkip_campaign(
    config: ReproConfig,
    population: Population,
    *,
    num_tsc: int,
    keys_per_tsc: int,
    max_candidates: int = 1 << 14,
    batch_size: int = 4096,
    group_size: int = 8,
    checkpoint_dir: str | Path | None = None,
    checkpoint_every: int = 16,
    progress=None,
    on_group: Callable[[int, int, str], None] | None = None,
) -> CampaignResult:
    """The §5 attack over a whole victim population.

    Victims sharing a packets-per-TSC budget share keystream batches;
    the per-TSC distribution map is measured once for the whole
    campaign (it depends on the key model, not the victim).  Success
    surfaces are keyed by the budget axis.
    """
    from ..tkip.per_tsc import default_tsc_space, generate_per_tsc

    if not population.victims:
        return CampaignResult(
            kind="tkip", label=population.label, axes=TKIP_AXES, outcomes=[]
        )
    tsc_values = default_tsc_space(num_tsc)
    groups = plan_tkip_groups(
        config,
        population,
        tsc_values=tsc_values,
        batch_size=batch_size,
        group_size=group_size,
    )
    plaintext_len = groups[0].source.plaintext_len
    per_tsc = generate_per_tsc(
        config,
        tsc_values,
        keys_per_tsc,
        length=plaintext_len,
        label=f"{population.label}/per-tsc",
    )
    outcomes = _run_groups(
        groups,
        partial(_tkip_outcome, per_tsc=per_tsc, max_candidates=max_candidates),
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=checkpoint_every,
        progress=progress,
        on_group=on_group,
    )
    return CampaignResult(
        kind="tkip", label=population.label, axes=TKIP_AXES,
        outcomes=[outcomes[spec.victim_id] for spec in population.victims],
        num_groups=len(groups),
    )


def _tkip_outcome(
    spec: VictimSpec,
    sim: WifiAttackSimulation,
    capture,
    per_tsc,
    *,
    max_candidates: int,
) -> VictimOutcome:
    try:
        result = sim.attack(
            capture, per_tsc, max_candidates=max_candidates
        )
        success = bool(result.correct)
        rank = result.candidates_tried
    except AttackError:
        success = False
        rank = None
    hours = (
        tkip_timeline(capture.num_captured).total_hours if success else None
    )
    return VictimOutcome(
        victim_id=spec.victim_id,
        cell=(spec.packets_per_tsc,),
        success=success,
        rank=rank,
        num_samples=capture.num_captured,
        hours=hours,
    )
