"""Campaign simulator: populations, grouping, multi-template identity.

The load-bearing property is that the shared-keystream multi-template
capture is *bit-identical* to running each victim alone: every victim's
counters from a group capture must equal a single-template capture with
the group's label, cell for cell, on both engine backends.  On top of
that: per-victim sampling is order-independent (pinned with
hypothesis), campaigns resume mid-flight bit-exactly from a checkpoint
directory, and the success surface fits a calibrated binomial
reference.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    assert_within_ci,
    check_surface_within_ci,
    surface_table,
)
from repro.campaign import (
    CampaignResult,
    Population,
    VictimOutcome,
    plan_https_groups,
    plan_tkip_groups,
    run_https_campaign,
    run_tkip_campaign,
    split_population,
)
from repro.capture import (
    HttpsCaptureSource,
    TkipCaptureSource,
    merge_shards,
    run_capture,
    shard_batches,
)
from repro.config import ReproConfig
from repro.errors import CampaignError
from repro.rc4 import _native
from repro.rc4.keygen import derive_keys
from repro.rc4.reference import rc4_keystream
from repro.tls.attack import CookieLayout, CookieStatistics


@pytest.fixture(params=["numpy", "native"])
def backend(request, monkeypatch):
    """Run the test body under each engine backend."""
    if request.param == "native":
        if not _native.available():
            pytest.skip("native backend unavailable (no C compiler?)")
    else:
        monkeypatch.setattr(_native, "available", lambda: False)
    return request.param


@pytest.fixture
def population(config):
    return Population.sample(config, 6, label="test-pop")


# --------------------------------------------------------------------------
# Population sampling
# --------------------------------------------------------------------------


class TestPopulation:
    def test_sampling_is_deterministic(self, config):
        a = Population.sample(config, 8, label="p")
        b = Population.sample(config, 8, label="p")
        assert a == b

    def test_victims_depend_only_on_their_index(self, config):
        """Truncating or extending the fleet never changes a victim."""
        small = Population.sample(config, 3, label="p")
        large = Population.sample(config, 9, label="p")
        assert large.victims[:3] == small.victims

    def test_victim_seeds_are_distinct(self, config):
        pop = Population.sample(config, 32, label="p")
        seeds = {spec.seed for spec in pop}
        assert len(seeds) == 32

    def test_axes_are_validated(self, config):
        with pytest.raises(CampaignError):
            Population.sample(config, 2, browsers=("netscape",))
        with pytest.raises(CampaignError):
            Population.sample(config, 2, charsets=("ebcdic",))
        with pytest.raises(CampaignError):
            Population.sample(config, 2, reconnect_regimes=(0,))
        with pytest.raises(CampaignError):
            Population.sample(config, 2, budgets=())
        with pytest.raises(CampaignError):
            Population.sample(config, -1)
        with pytest.raises(CampaignError):
            Population.sample(config, 2, label="")


class TestSplitPopulation:
    def test_empty_population_yields_no_groups(self):
        assert split_population([], 4) == []
        assert split_population([], 0) == []

    def test_population_smaller_than_group_count(self):
        """Fewer victims than groups: fewer groups, never empty ones."""
        groups = split_population(list(range(3)), 8)
        assert len(groups) == 3
        assert all(groups)
        assert [v for g in groups for v in g] == [0, 1, 2]

    def test_groups_are_near_even_and_ordered(self):
        groups = split_population(list(range(10)), 3)
        sizes = [len(g) for g in groups]
        assert max(sizes) - min(sizes) <= 1
        assert [v for g in groups for v in g] == list(range(10))

    def test_negative_group_count_rejected(self):
        with pytest.raises(CampaignError):
            split_population([1], -1)


# --------------------------------------------------------------------------
# Multi-template capture == N single-template captures, cell for cell
# --------------------------------------------------------------------------


def _single_https_stats(config, group, spec):
    """Re-capture one group member alone, with the group's label."""
    source = HttpsCaptureSource(
        config=config,
        layout=group.source.layout,
        plaintext=group.sims[spec.victim_id].campaign.request_plaintext(),
        num_requests=group.source.num_requests,
        batch_size=group.source.batch_size,
        reconnect_every=group.source.reconnect_every,
        max_gap=group.source.max_gap,
        label=group.source.label,
    )
    return run_capture(source)


class TestMultiTemplateIdentity:
    def test_https_group_matches_independent_captures(
        self, config, population, backend
    ):
        groups = plan_https_groups(
            config, population, num_requests=150, batch_size=64,
            cookie_len=2, max_gap=4, group_size=8,
        )
        assert sum(len(g.specs) for g in groups) == len(population)
        for group in groups:
            stats = run_capture(group.source)
            for spec in group.specs:
                mine = stats.victim(spec.victim_id)
                alone = _single_https_stats(config, group, spec)
                assert mine.num_requests == alone.num_requests
                assert np.array_equal(mine.fm_counts, alone.fm_counts)
                assert list(mine.absab_counts) == list(alone.absab_counts)
                for key in alone.absab_counts:
                    assert np.array_equal(
                        mine.absab_counts[key], alone.absab_counts[key]
                    ), key

    def test_tkip_group_matches_independent_captures(
        self, config, population, backend
    ):
        groups = plan_tkip_groups(
            config, population, tsc_values=[0, 1], batch_size=64,
            group_size=8,
        )
        for group in groups:
            stats = run_capture(group.source)
            for spec, plaintext in zip(group.specs, group.source.plaintexts):
                single = TkipCaptureSource(
                    config=config,
                    plaintext=plaintext,
                    tsc_values=group.source.tsc_values,
                    packets_per_tsc=group.source.packets_per_tsc,
                    batch_size=group.source.batch_size,
                    label=group.source.label,
                )
                alone = run_capture(single)
                mine = stats.victim(spec.victim_id)
                assert mine.num_captured == alone.num_captured
                assert sorted(mine.counts) == sorted(alone.counts)
                for tsc in alone.counts:
                    assert np.array_equal(
                        mine.counts[tsc], alone.counts[tsc]
                    ), tsc


def _per_request_reference(source, plaintext):
    """One victim's counters via reference RC4 + ingest_fragment."""
    stats = CookieStatistics.empty(source.layout, max_gap=source.max_gap)
    stride = source.layout.request_len + source.record_overhead
    per_conn = source.reconnect_every
    for index in range(source.num_batches):
        count = min(
            source.batch_size, source.num_requests - index * source.batch_size
        )
        keys = derive_keys(
            source.config, f"{source.label}/batch{index}", -(-count // per_conn)
        )
        for c, key in enumerate(keys):
            stream = rc4_keystream(
                bytes(key), (per_conn - 1) * stride + len(plaintext)
            )
            for q in range(min(per_conn, count - c * per_conn)):
                window = stream[q * stride : q * stride + len(plaintext)]
                stats.ingest_fragment(
                    bytes(s ^ p for s, p in zip(window, plaintext)),
                    offset=1 + q * stride,
                )
    return stats


class TestMultiTemplateKernelMatrix:
    """Group capture with distinct non-zero templates == the per-request
    reference for every victim, on the numpy fallback and the native
    kernel at 1-3 threads, across ABSAB gap caps and record churn.

    The request (134 bytes + 122 record-overhead bytes = one 256-byte
    stride) is just long enough for gap 128 after the one-byte cookie.
    37 requests in batches of 12 end on a partial batch and connection.
    """

    @staticmethod
    def _source(config, threads, victims, max_gap, reconnect_every):
        rng = np.random.default_rng(max_gap + victims)
        layout = CookieLayout(
            prefix=b"id=", suffix=bytes(rng.integers(1, 256, 130, np.uint8)),
            cookie_len=1,
        )
        return HttpsCaptureSource(
            config=dataclasses.replace(config, native_threads=threads),
            layout=layout,
            plaintexts=tuple(
                layout.prefix + bytes([65 + v]) + layout.suffix
                for v in range(victims)
            ),
            victim_ids=tuple(f"v{v}" for v in range(victims)),
            num_requests=37,
            batch_size=12,
            reconnect_every=reconnect_every,
            max_gap=max_gap,
            record_overhead=122,
            label="kernel-group",
        )

    @staticmethod
    def _assert_matches_per_request(source, stats):
        for victim_id, template in zip(source.victim_ids, source.plaintexts):
            mine = stats.victim(victim_id)
            alone = _per_request_reference(source, template)
            assert mine.num_requests == alone.num_requests == 37
            assert mine.fm_counts.dtype == np.uint32
            assert np.array_equal(mine.fm_counts, alone.fm_counts)
            assert list(mine.absab_counts) == list(alone.absab_counts)
            assert np.array_equal(mine.absab_matrix, alone.absab_matrix)

    @pytest.mark.parametrize(
        "max_gap,reconnect_every", [(8, 1), (32, 2), (128, 1), (128, 2)]
    )
    @pytest.mark.parametrize("victims", [1, 3])
    def test_group_matches_per_request(
        self, config, engine_threads, victims, max_gap, reconnect_every
    ):
        source = self._source(
            config, engine_threads, victims, max_gap, reconnect_every
        )
        self._assert_matches_per_request(source, run_capture(source))

    @pytest.mark.parametrize("checkpoint_every", [1, 3])
    def test_runs_and_shards_match_per_request(
        self, config, engine_threads, checkpoint_every, tmp_path
    ):
        """Runs that end at each checkpoint, and shards merged, count
        every victim's cells as the per-request reference does."""
        source = self._source(config, engine_threads, 3, 128, 2)
        whole = run_capture(
            source, checkpoint_path=tmp_path / "group.npz",
            checkpoint_every=checkpoint_every,
        )
        self._assert_matches_per_request(source, whole)
        shards = merge_shards(
            run_capture(source, batches=r, checkpoint_every=checkpoint_every)
            for r in shard_batches(source.num_batches, 3)
        )
        self._assert_matches_per_request(source, shards)


# --------------------------------------------------------------------------
# Order independence (hypothesis)
# --------------------------------------------------------------------------


class TestOrderIndependence:
    @settings(deadline=None, max_examples=5)
    @given(order=st.permutations(list(range(5))))
    def test_permuting_population_never_changes_any_victim(self, order):
        """Grouping is canonical: outcomes are a per-victim function."""
        config = ReproConfig(seed=1234)
        pop = Population.sample(config, 5, label="perm")
        permuted = Population(
            label=pop.label,
            victims=tuple(pop.victims[i] for i in order),
        )
        kwargs = dict(num_requests=192, cookie_len=2, num_candidates=16,
                      batch_size=64, group_size=2)
        base = run_https_campaign(config, pop, **kwargs)
        alt = run_https_campaign(config, permuted, **kwargs)
        by_id = {o.victim_id: o for o in alt.outcomes}
        assert [by_id[o.victim_id] for o in base.outcomes] == base.outcomes
        assert alt.num_groups == base.num_groups


# --------------------------------------------------------------------------
# Checkpoint / resume
# --------------------------------------------------------------------------


class _AbortAfter:
    """Progress callback that kills the capture after a few batches."""

    def __init__(self, batches):
        self.remaining = batches

    def __call__(self, progress):
        self.remaining -= 1
        if self.remaining <= 0:
            raise KeyboardInterrupt("simulated operator abort")


class TestCampaignResume:
    def _kwargs(self):
        return dict(num_requests=300, cookie_len=2, num_candidates=16,
                    batch_size=64, group_size=3, checkpoint_every=1)

    def test_resume_mid_campaign_is_bit_exact(self, config, tmp_path):
        pop = Population.sample(config, 5, label="resume")
        reference = run_https_campaign(config, pop, **self._kwargs())

        ckpt = tmp_path / "campaign"
        with pytest.raises(KeyboardInterrupt):
            run_https_campaign(
                config, pop, checkpoint_dir=ckpt,
                progress=_AbortAfter(7), **self._kwargs(),
            )
        resumed = run_https_campaign(
            config, pop, checkpoint_dir=ckpt, **self._kwargs(),
        )
        assert resumed.outcomes == reference.outcomes

    def test_finished_groups_are_not_recaptured(self, config, tmp_path):
        pop = Population.sample(config, 4, label="resume")
        ckpt = tmp_path / "campaign"
        first = run_https_campaign(
            config, pop, checkpoint_dir=ckpt, **self._kwargs(),
        )

        def explode(progress):
            raise AssertionError("capture ran despite finished groups")

        again = run_https_campaign(
            config, pop, checkpoint_dir=ckpt, progress=explode,
            **self._kwargs(),
        )
        assert again.outcomes == first.outcomes

    def test_torn_done_record_is_recomputed(self, config, tmp_path):
        """A truncated outcome record is a miss: the run warns, recomputes
        that group to the same outcomes and rewrites the record."""
        pop = Population.sample(config, 4, label="resume")
        ckpt = tmp_path / "campaign"
        first = run_https_campaign(
            config, pop, checkpoint_dir=ckpt, **self._kwargs(),
        )
        records = sorted(ckpt.glob("*.done.json"))
        assert records
        whole = records[0].read_bytes()
        records[0].write_bytes(whole[: len(whole) // 2])
        with pytest.warns(RuntimeWarning, match="unreadable outcome record"):
            again = run_https_campaign(
                config, pop, checkpoint_dir=ckpt, **self._kwargs(),
            )
        assert again.outcomes == first.outcomes
        assert records[0].read_bytes() == whole
        assert not list(ckpt.glob("*.tmp*"))

    def test_non_object_done_record_is_recomputed(self, config, tmp_path):
        """Valid JSON that is not an object is unreadable as a record."""
        pop = Population.sample(config, 4, label="resume")
        ckpt = tmp_path / "campaign"
        first = run_https_campaign(
            config, pop, checkpoint_dir=ckpt, **self._kwargs(),
        )
        records = sorted(ckpt.glob("*.done.json"))
        whole = records[0].read_bytes()
        records[0].write_text("[1, 2, 3]")
        with pytest.warns(RuntimeWarning, match="expected a JSON object"):
            again = run_https_campaign(
                config, pop, checkpoint_dir=ckpt, **self._kwargs(),
            )
        assert again.outcomes == first.outcomes
        assert records[0].read_bytes() == whole

    def test_mismatched_checkpoint_dir_is_rejected(self, config, tmp_path):
        pop = Population.sample(config, 3, label="resume")
        ckpt = tmp_path / "campaign"
        run_https_campaign(config, pop, checkpoint_dir=ckpt, **self._kwargs())
        kwargs = self._kwargs() | {"num_requests": 360}
        with pytest.raises(CampaignError):
            run_https_campaign(
                config, pop, checkpoint_dir=ckpt, **kwargs,
            )


# --------------------------------------------------------------------------
# Campaign results and surfaces
# --------------------------------------------------------------------------


class TestCampaignResults:
    def test_empty_population_yields_empty_result(self, config):
        empty = Population.sample(config, 0, label="empty")
        for result in (
            run_https_campaign(config, empty, num_requests=128),
            run_tkip_campaign(config, empty, num_tsc=2, keys_per_tsc=64),
        ):
            assert result.trials == 0
            assert result.successes == 0
            assert result.num_groups == 0
            assert result.success_surface() == {}
            assert result.surface_fit().ok

    def test_tkip_campaign_cells_track_budgets(self, config):
        pop = Population.sample(config, 4, label="tkip", budgets=(64, 128))
        result = run_tkip_campaign(
            config, pop, num_tsc=2, keys_per_tsc=64, group_size=2,
            max_candidates=8,
        )
        assert [o.victim_id for o in result.outcomes] == [
            s.victim_id for s in pop
        ]
        for outcome, spec in zip(result.outcomes, pop):
            assert outcome.cell == (spec.packets_per_tsc,)
            assert outcome.num_samples == 2 * spec.packets_per_tsc

    def test_success_surface_matches_calibrated_reference(self, config):
        """The hex-alphabet cells recover reliably at tiny scale (256
        cookie values, 256 candidates); base64 cells lag.  The pooled
        rate was calibrated once at this exact seed/scale and the
        deterministic rerun must stay inside a z=4 binomial CI."""
        pop = Population.sample(
            config, 12, label="fit", charsets=("hex", "base64"),
        )
        result = run_https_campaign(
            config, pop, num_requests=4096, cookie_len=2,
            num_candidates=256, group_size=8,
        )
        hex_cells = {
            k: v for k, v in result.success_surface().items()
            if k[1] == "hex"
        }
        assert hex_cells
        for cell in hex_cells.values():
            assert cell["rate"] == 1.0
        assert_within_ci(
            result.successes, result.trials, 0.5, z=4.0,
            label="campaign success rate",
        )
        fit = result.surface_fit(0.5)
        assert set(fit.cells) == {
            "/".join(str(v) for v in key)
            for key in result.success_surface()
        }

    def test_successful_outcomes_carry_recovery_time(self, config):
        pop = Population.sample(config, 4, label="t", charsets=("hex",))
        result = run_https_campaign(
            config, pop, num_requests=4096, cookie_len=2,
            num_candidates=256,
        )
        for outcome in result.outcomes:
            if outcome.success:
                assert outcome.hours is not None and outcome.hours > 0
                assert outcome.rank is not None
            else:
                assert outcome.hours is None

    def test_outcome_json_roundtrip(self):
        outcome = VictimOutcome(
            victim_id="victim-00001", cell=("chrome", "hex", 16),
            success=True, rank=3, num_samples=100, hours=1.5,
        )
        restored = VictimOutcome.from_jsonable(outcome.to_jsonable())
        assert restored == outcome

    def test_result_jsonable_is_complete(self):
        result = CampaignResult(
            kind="https", label="x", axes=("a",), outcomes=[], num_groups=0,
        )
        data = result.to_jsonable()
        assert data["trials"] == 0 and data["outcomes"] == []


# --------------------------------------------------------------------------
# Surface statistics and rendering
# --------------------------------------------------------------------------


class TestSurfaceStatistics:
    def test_degenerate_references_are_point_masses(self):
        check = check_surface_within_ci(
            {"a": (5, 5, 1.0), "b": (0, 4, 0.0)}
        )
        assert check.ok

    def test_degenerate_mismatch_fails(self):
        check = check_surface_within_ci({"a": (4, 5, 1.0)})
        assert not check.ok
        assert check.worst_label == "a"

    def test_out_of_range_reference_rejected(self):
        with pytest.raises(ValueError):
            check_surface_within_ci({"a": (1, 2, 1.5)})

    def test_empty_surface_passes_vacuously(self):
        check = check_surface_within_ci({})
        assert check.ok and check.worst_label is None

    def test_surface_table_renders_heat_cells(self):
        table = surface_table(
            {("hex", "1"): 1.0, ("hex", "16"): 0.5, ("b64", "1"): 0.0},
            row_label="charset", col_label="reconnect", fmt="{:.2f}",
        )
        assert "charset \\ reconnect" in table
        assert "1.00 @" in table
        assert "-" in table  # the missing (b64, 16) cell

    def test_surface_table_rejects_empty(self):
        with pytest.raises(ValueError):
            surface_table({})
