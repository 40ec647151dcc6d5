"""One capture source per attack: the victim axis and its descriptors.

:class:`HttpsCaptureSource` and :class:`TkipCaptureSource` each take
``plaintexts`` (V >= 1) and ``victim_ids`` (empty, or one unique id per
plaintext).  A source without ids returns the bare statistics of one
victim; a source with ids, even one, returns a :class:`VictimSet` of
them.  Only the statistics type, the descriptor's ``kind`` and its
plaintext key depend on that form, so the fingerprints pinned here, and
with them every campaign record written before the two forms shared a
class, stay valid.
"""

import numpy as np
import pytest

from repro.campaign import Population, plan_https_groups, plan_tkip_groups
from repro.capture import (
    HttpsCaptureSource,
    TkipCaptureSource,
    VictimSet,
    run_capture,
)
from repro.config import ReproConfig
from repro.errors import AttackError, CaptureError
from repro.simulate import HttpsAttackSimulation, WifiAttackSimulation
from repro.tkip.injection import CaptureSet
from repro.tls.attack import CookieLayout, CookieStatistics

_CONFIG = ReproConfig(seed=7)
_LAYOUT = CookieLayout(prefix=b"id=", suffix=b";path=/x", cookie_len=2)
_COOKIES = (b"ab", b"Q7", b"zz")


def _https_plaintexts(count: int = 3) -> tuple[bytes, ...]:
    return tuple(
        _LAYOUT.prefix + cookie + _LAYOUT.suffix for cookie in _COOKIES[:count]
    )


def _tkip_plaintexts(count: int = 3) -> tuple[bytes, ...]:
    return tuple(bytes((v + j) & 0xFF for j in range(20)) for v in range(count))


def _https(**overrides) -> HttpsCaptureSource:
    kwargs = dict(
        config=_CONFIG, layout=_LAYOUT, num_requests=200, batch_size=64,
        max_gap=8, label="sources",
    )
    kwargs.update(overrides)
    return HttpsCaptureSource(**kwargs)


def _tkip(**overrides) -> TkipCaptureSource:
    kwargs = dict(
        config=_CONFIG, tsc_values=(0, 1), packets_per_tsc=150,
        batch_size=64, label="sources",
    )
    kwargs.update(overrides)
    return TkipCaptureSource(**kwargs)


@pytest.fixture(scope="module")
def population():
    return Population.sample(_CONFIG, 6)


def _group(groups, tag):
    (group,) = [g for g in groups if g.tag == tag]
    return group


def _pinned_sources(population):
    """(source, parent descriptor kind, fingerprint) pinned from the
    descriptors written while each form had a class of its own."""
    https = plan_https_groups(_CONFIG, population, num_requests=1024)
    tkip = plan_tkip_groups(_CONFIG, population, tsc_values=[0, 1024])
    return [
        (
            HttpsAttackSimulation(_CONFIG, cookie_len=2, max_gap=8)
            .capture_source(4096),
            "https-capture",
            "bc2fa185bd1d4d5aa26f5f5cf036d70b6e806cebf854386ddd303dea256b6e0f",
        ),
        (
            WifiAttackSimulation(_CONFIG).capture_source([0, 1024], 2048),
            "tkip-capture",
            "1bfda50dbb72d899a0d3935fdb38f31c47a11f7b7c1a0c603a9943f25399be25",
        ),
        (
            _group(https, "https-safari-r16-g0000").source,
            "multi-https-capture",
            "84869bae48a7f3dfedc654d3575ba0da537a6a44ea892d14aad06dae14223d18",
        ),
        (
            _group(https, "https-chrome-r1-g0000").source,
            "multi-https-capture",
            "48666a81e08e1f17f8f88cd41f8ca2c336b48982f0356daf59768fb8b1dca0b3",
        ),
        (
            _group(tkip, "tkip-p4096-g0000").source,
            "multi-tkip-capture",
            "459c0e9fff5b3e705554a4305e37e1f2e2a6685b3d2e967ac677cc014d4588cb",
        ),
    ]


class TestCompatibility:
    def test_fingerprints_are_pinned(self, population):
        for source, kind, fingerprint in _pinned_sources(population):
            assert source.descriptor()["kind"] == kind
            assert source.fingerprint() == fingerprint, kind

    def test_group_sizes_behind_the_pins(self, population):
        https = plan_https_groups(_CONFIG, population, num_requests=1024)
        tkip = plan_tkip_groups(_CONFIG, population, tsc_values=[0, 1024])
        assert len(_group(https, "https-safari-r16-g0000").specs) == 2
        assert len(_group(https, "https-chrome-r1-g0000").specs) == 1
        assert len(_group(tkip, "tkip-p4096-g0000").specs) == 4


class TestVictimAxis:
    def test_a_source_without_ids_returns_bare_statistics(self):
        https = _https(plaintext=_https_plaintexts(1)[0])
        tkip = _tkip(plaintext=_tkip_plaintexts(1)[0])
        assert type(run_capture(https)) is CookieStatistics
        assert type(run_capture(tkip)) is CaptureSet
        assert https.descriptor()["kind"] == "https-capture"
        assert tkip.descriptor()["kind"] == "tkip-capture"

    def test_plaintext_is_shorthand_for_one_plaintext(self):
        plaintext = _https_plaintexts(1)[0]
        shorthand = _https(plaintext=plaintext)
        spelled_out = _https(plaintexts=(plaintext,))
        assert shorthand.plaintexts == (plaintext,)
        assert spelled_out.plaintext == plaintext
        assert shorthand.descriptor() == spelled_out.descriptor()

    def test_named_source_of_one_victim_returns_a_victim_set(self):
        plaintext = _https_plaintexts(1)[0]
        named = run_capture(_https(plaintexts=(plaintext,), victim_ids=("v",)))
        assert type(named) is VictimSet
        assert type(named.victim("v")) is CookieStatistics
        alone = run_capture(_https(plaintext=plaintext))
        assert np.array_equal(named.victim("v").fm_counts, alone.fm_counts)
        assert np.array_equal(
            named.victim("v").absab_matrix, alone.absab_matrix
        )

        packet = _tkip_plaintexts(1)[0]
        named = run_capture(_tkip(plaintexts=(packet,), victim_ids=("v",)))
        assert type(named) is VictimSet
        assert type(named.victim("v")) is CaptureSet
        alone = run_capture(_tkip(plaintext=packet))
        assert sorted(named.victim("v").counts) == sorted(alone.counts)
        for tsc, counts in alone.counts.items():
            assert np.array_equal(named.victim("v").counts[tsc], counts)

    @pytest.mark.parametrize(
        "make,plaintexts",
        [(_https, _https_plaintexts), (_tkip, _tkip_plaintexts)],
    )
    def test_duplicate_victim_ids_are_rejected(self, make, plaintexts):
        """A repeated id would hide every victim after its first."""
        with pytest.raises(CaptureError, match="duplicate victim ids"):
            make(plaintexts=plaintexts(2), victim_ids=("a", "a"))
        with pytest.raises(CaptureError, match=r"duplicate victim ids \['v'\]"):
            make(plaintexts=plaintexts(3), victim_ids=("v", "w", "v"))

    @pytest.mark.parametrize(
        "make,plaintexts",
        [(_https, _https_plaintexts), (_tkip, _tkip_plaintexts)],
    )
    def test_malformed_victim_axes_are_rejected(self, make, plaintexts):
        with pytest.raises(CaptureError, match="at least one plaintext"):
            make()
        with pytest.raises(CaptureError, match="one victim id each"):
            make(plaintexts=plaintexts(2))
        with pytest.raises(CaptureError, match="2 plaintexts for 1 victim"):
            make(plaintexts=plaintexts(2), victim_ids=("a",))
        with pytest.raises(CaptureError, match="not both"):
            make(plaintext=plaintexts(2)[0], plaintexts=plaintexts(2)[1:])

    def test_https_statistics_reject_repeated_ids(self, tmp_path):
        """Built empty or loaded from a hand-built checkpoint, victim-set
        statistics refuse a repeated id, naming it."""
        with pytest.raises(CaptureError, match=r"duplicate victim ids \['a'\]"):
            VictimSet(
                ("a", "b", "a"),
                [CookieStatistics.empty(_LAYOUT, max_gap=8) for _ in range(3)],
            )
        stats = _https(
            plaintexts=_https_plaintexts(2), victim_ids=("a", "b")
        ).empty()
        stats.victim_ids = ("a", "a")
        path = stats.save(tmp_path / "repeated.npz")
        with pytest.raises(
            CaptureError, match=r"repeated\.npz: duplicate victim ids \['a'\]"
        ):
            VictimSet.load(path, CookieStatistics)

    def test_tkip_statistics_reject_repeated_ids(self, tmp_path):
        with pytest.raises(CaptureError, match=r"duplicate victim ids \['v'\]"):
            VictimSet(
                ("v", "w", "v"),
                [
                    CaptureSet(positions=range(1, 21), plaintext_len=20)
                    for _ in range(3)
                ],
            )
        stats = run_capture(
            _tkip(plaintexts=_tkip_plaintexts(2), victim_ids=("v", "w"))
        )
        stats.victim_ids = ("v", "v")
        path = stats.save(tmp_path / "repeated.npz")
        with pytest.raises(
            CaptureError, match=r"repeated\.npz: duplicate victim ids \['v'\]"
        ):
            VictimSet.load(path, CaptureSet)

    def test_malformed_victim_sets_are_rejected(self):
        cookie = CookieStatistics.empty(_LAYOUT, max_gap=8)
        capture = CaptureSet(positions=range(1, 21), plaintext_len=20)
        with pytest.raises(CaptureError, match="at least one member"):
            VictimSet((), [])
        with pytest.raises(CaptureError, match="2 members for 1 victim ids"):
            VictimSet(("a",), [cookie, cookie.snapshot()])
        with pytest.raises(CaptureError, match="share one type"):
            VictimSet(("a", "b"), [cookie, capture])
        with pytest.raises(AttackError, match="no victim 'c'"):
            VictimSet(("a",), [capture]).victim("c")

    def test_plaintext_lengths_are_checked_per_victim(self):
        short = _https_plaintexts(2)[0][:-1]
        with pytest.raises(CaptureError, match="plaintext 1 is"):
            _https(
                plaintexts=(_https_plaintexts(1)[0], short),
                victim_ids=("a", "b"),
            )
        with pytest.raises(CaptureError, match="share one length"):
            _tkip(plaintexts=(bytes(20), bytes(21)), victim_ids=("a", "b"))
