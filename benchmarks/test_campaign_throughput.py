"""Campaign throughput: shared-keystream groups vs independent captures.

The victim axis of a capture source exists for amortization — one
keystream batch XOR-counted against many victim templates.  ``group``
times one :class:`HttpsCaptureSource` (or :class:`TkipCaptureSource`)
over ``NUM_VICTIMS`` plaintexts with victim ids; ``independent`` times
the same victims as separate one-plaintext captures, each regenerating
the keystream it shares in the group path.  Both report
victim-requests/second on identical counting work, so the ratio is the
amortization factor directly.

``single_victim`` guards the other direction: a one-plaintext HTTPS
source runs the same kernel as a 1-row template matrix (held
bit-identical by tests/test_capture_equivalence.py), and must not
regress against the pre-routing capture baselines in
``BENCH_2026-07-30_capture_post.json``.

Recorded pre/post pairs live in ``BENCH_2026-08-08_campaign_*.json``.
"""

import pytest

from repro.capture import HttpsCaptureSource, TkipCaptureSource, run_capture
from repro.config import ReproConfig
from repro.simulate import HttpsAttackSimulation

NUM_VICTIMS = 8
NUM_REQUESTS = 1 << 11
TSC_VALUES = (0, 1024)
PACKETS_PER_TSC = 1 << 11

_CONFIG = ReproConfig(seed=20160801)


@pytest.fixture(scope="module")
def https_group():
    """One shared layout, NUM_VICTIMS distinct cookies."""
    sims = [
        HttpsAttackSimulation(
            ReproConfig(seed=20160801 + i), cookie_len=2, max_gap=8,
        )
        for i in range(NUM_VICTIMS)
    ]
    layout = sims[0].layout
    templates = tuple(sim.campaign.request_plaintext() for sim in sims)
    return layout, templates


def test_https_campaign_group_capture(benchmark, https_group):
    """NUM_VICTIMS victims sharing one keystream schedule."""
    layout, templates = https_group
    source = HttpsCaptureSource(
        config=_CONFIG,
        layout=layout,
        plaintexts=templates,
        victim_ids=tuple(f"v{i}" for i in range(NUM_VICTIMS)),
        num_requests=NUM_REQUESTS,
        batch_size=4096,
        max_gap=8,
        label="bench-campaign-group",
    )
    benchmark.extra_info["counts"] = NUM_REQUESTS * NUM_VICTIMS
    stats = benchmark(run_capture, source)
    for member in stats.members:
        assert member.num_requests == NUM_REQUESTS


def test_https_campaign_independent_captures(benchmark, https_group):
    """The same victims captured one by one, keystream regenerated."""
    layout, templates = https_group

    def capture_all():
        results = []
        for i, template in enumerate(templates):
            source = HttpsCaptureSource(
                config=_CONFIG,
                layout=layout,
                plaintext=template,
                num_requests=NUM_REQUESTS,
                batch_size=4096,
                max_gap=8,
                label="bench-campaign-group",
            )
            results.append(run_capture(source))
        return results

    benchmark.extra_info["counts"] = NUM_REQUESTS * NUM_VICTIMS
    results = benchmark(capture_all)
    assert results[0].num_requests == NUM_REQUESTS


def test_https_single_victim_routed_path(benchmark, https_group):
    """The 1-row-matrix case of the template kernel: a source without
    victim ids."""
    layout, templates = https_group
    source = HttpsCaptureSource(
        config=_CONFIG,
        layout=layout,
        plaintext=templates[0],
        num_requests=2 * NUM_REQUESTS,
        batch_size=4096,
        max_gap=8,
        label="bench-campaign-single",
    )
    benchmark.extra_info["counts"] = 2 * NUM_REQUESTS
    stats = benchmark(run_capture, source)
    assert stats.num_requests == 2 * NUM_REQUESTS


def test_tkip_campaign_group_capture(benchmark):
    """The §5 analogue: one keystream batch, NUM_VICTIMS packet bodies."""
    plaintexts = tuple(
        bytes((i + j) & 0xFF for j in range(64)) for i in range(NUM_VICTIMS)
    )
    source = TkipCaptureSource(
        config=_CONFIG,
        plaintexts=plaintexts,
        victim_ids=tuple(f"v{i}" for i in range(NUM_VICTIMS)),
        tsc_values=TSC_VALUES,
        packets_per_tsc=PACKETS_PER_TSC,
        label="bench-campaign-tkip",
    )
    total = len(TSC_VALUES) * PACKETS_PER_TSC * NUM_VICTIMS
    benchmark.extra_info["counts"] = total
    stats = benchmark(run_capture, source)
    for member in stats.members:
        assert member.num_captured == len(TSC_VALUES) * PACKETS_PER_TSC


def test_tkip_campaign_independent_captures(benchmark):
    plaintexts = tuple(
        bytes((i + j) & 0xFF for j in range(64)) for i in range(NUM_VICTIMS)
    )

    def capture_all():
        results = []
        for plaintext in plaintexts:
            source = TkipCaptureSource(
                config=_CONFIG,
                plaintext=plaintext,
                tsc_values=TSC_VALUES,
                packets_per_tsc=PACKETS_PER_TSC,
                label="bench-campaign-tkip",
            )
            results.append(run_capture(source))
        return results

    total = len(TSC_VALUES) * PACKETS_PER_TSC * NUM_VICTIMS
    benchmark.extra_info["counts"] = total
    results = benchmark(capture_all)
    assert results[0].num_captured == len(TSC_VALUES) * PACKETS_PER_TSC
