"""Per-TSC distributions and the injection/capture machinery."""

import numpy as np
import pytest

from repro.errors import DatasetError
from repro.tkip import (
    InjectionCampaign,
    PerTscDistributions,
    TcpPacketSpec,
    TkipSession,
    default_tsc_space,
    generate_per_tsc,
)

TA = bytes.fromhex("105fb0e09f60")
DA = bytes.fromhex("aabbccddeeff")


class TestTscSpace:
    def test_even_spread(self):
        space = default_tsc_space(16)
        assert len(space) == 16
        assert space[0] == 0
        assert all(b - a == 4096 for a, b in zip(space, space[1:]))

    def test_full_space(self):
        assert len(default_tsc_space(65536)) == 65536

    def test_validation(self):
        with pytest.raises(ValueError):
            default_tsc_space(0)


class TestPerTscGeneration:
    def test_shapes_and_normalisation(self, config):
        dists = generate_per_tsc(config, [0, 100], keys_per_tsc=2048, length=8)
        assert dists.dists.shape == (2, 8, 256)
        assert np.allclose(dists.dists.sum(axis=2), 1.0)
        assert dists.length == 8

    def test_tsc_dependence_visible_at_z1(self, config):
        """Z1 distributions must differ across TSC values — the §5.1
        premise (K0..K2 are TSC-determined)."""
        dists = generate_per_tsc(
            config, [0x0000, 0x8040], keys_per_tsc=1 << 13, length=2
        )
        z1_a, z1_b = dists.dists[0, 0], dists.dists[1, 0]
        distance = np.abs(z1_a - z1_b).sum()
        assert distance > 0.02  # far beyond sampling noise at 2^13 keys

    def test_lookup_and_covers(self, config):
        dists = generate_per_tsc(config, [7], keys_per_tsc=512, length=4)
        assert dists.covers(7)
        assert dists.covers(0x10007)  # low 16 bits match
        assert not dists.covers(8)
        assert dists.for_tsc(7).shape == (4, 256)
        with pytest.raises(DatasetError):
            dists.for_tsc(8)

    def test_save_load_roundtrip(self, config, tmp_path):
        dists = generate_per_tsc(config, [3, 9], keys_per_tsc=256, length=4)
        path = tmp_path / "per_tsc.npz"
        dists.save(path)
        loaded = PerTscDistributions.load(path)
        assert loaded.tsc_values == [3, 9]
        assert np.allclose(loaded.dists, dists.dists)

    def test_truncated_file_raises_dataset_error(self, config, tmp_path):
        dists = generate_per_tsc(config, [3, 9], keys_per_tsc=256, length=4)
        path = dists.save(tmp_path / "per_tsc.npz")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(DatasetError, match="per_tsc.npz"):
            PerTscDistributions.load(path)

    def test_determinism(self, config):
        a = generate_per_tsc(config, [5], keys_per_tsc=256, length=4)
        b = generate_per_tsc(config, [5], keys_per_tsc=256, length=4)
        assert np.array_equal(a.dists, b.dists)


class TestInjectionCampaign:
    def _campaign(self, rng):
        session = TkipSession.random(rng, TA)
        spec = TcpPacketSpec(
            source_ip="192.168.1.101",
            dest_ip="203.0.113.7",
            source_port=51324,
            dest_port=80,
            payload=b"ATTACK!",
        )
        return InjectionCampaign(session=session, spec=spec, da=DA, sa=TA)

    def test_capture_counts_accumulate(self, rng):
        campaign = self._campaign(rng)
        capture = campaign.run(50)
        assert capture.num_captured == 50
        total = sum(int(t.sum()) for t in capture.counts.values())
        assert total == 50 * len(capture.positions)

    def test_capture_keyed_by_tsc_low(self, rng):
        campaign = self._campaign(rng)
        capture = campaign.run(10)
        assert set(capture.counts) == set(range(1, 11))

    def test_retransmissions_deduplicated(self, rng):
        campaign = self._campaign(rng)
        capture = campaign.run(30, retransmit_fraction=0.5, rng=rng)
        assert capture.num_captured == 30

    def test_foreign_frame_rejected_by_length(self, rng):
        campaign = self._campaign(rng)
        capture = campaign.run(5)
        from repro.tkip import TkipFrame

        foreign = TkipFrame(ta=TA, da=DA, sa=TA, tsc=999, ciphertext=b"short")
        assert not capture.add_frame(foreign)
        assert capture.num_captured == 5

    def test_ciphertext_equals_plaintext_xor_keystream(self, rng):
        """The captured counts must reflect real RC4 encryptions of the
        constant plaintext under the per-TSC key."""
        from repro.rc4 import rc4_crypt
        from repro.tkip.keymix import per_packet_key

        campaign = self._campaign(rng)
        plaintext = campaign.plaintext()
        session = campaign.session
        frame = session.encapsulate(campaign.spec.msdu_data(), DA, TA)
        key = per_packet_key(TA, session.tk, frame.tsc)
        assert frame.ciphertext == rc4_crypt(key, plaintext)

    def test_wall_clock_model(self, rng):
        campaign = self._campaign(rng)
        # The paper's 9.5 * 2^20 captures at 2500 pps is about 1.1 hours.
        hours = campaign.wall_clock_seconds(int(9.5 * 2**20)) / 3600
        assert 1.0 < hours < 1.2


class TestKeystreamReuse:
    """Beck's fragmentation-based keystream reuse (injection.py)."""

    def _setup(self, rng):
        from repro.tkip import KeystreamPool, build_protected_msdu

        session = TkipSession.random(rng, TA)
        spec = TcpPacketSpec(
            source_ip="192.168.1.101",
            dest_ip="203.0.113.7",
            source_port=51324,
            dest_port=80,
            payload=b"ATTACK!",
        )
        plaintext = build_protected_msdu(spec, session.mic_key, DA, TA)
        pool = KeystreamPool()
        for _ in range(6):
            frame = session.encapsulate(spec.msdu_data(), DA, TA)
            pool.add(frame, plaintext)
        return session, spec, plaintext, pool

    def test_recovered_keystream_decrypts_the_frame(self, rng):
        from repro.tkip import recover_keystream

        session, spec, plaintext, _ = self._setup(rng)
        frame = session.encapsulate(spec.msdu_data(), DA, TA)
        keystream = recover_keystream(frame, plaintext)
        decrypted = bytes(c ^ k for c, k in zip(frame.ciphertext, keystream))
        assert decrypted == plaintext

    def test_recover_keystream_length_mismatch(self, rng):
        from repro.errors import AttackError
        from repro.tkip import recover_keystream

        session, spec, plaintext, _ = self._setup(rng)
        frame = session.encapsulate(spec.msdu_data(), DA, TA)
        with pytest.raises(AttackError, match="length"):
            recover_keystream(frame, plaintext + b"x")

    def test_fragmented_forgery_reassembles_and_verifies(self, rng):
        from repro.tkip import (
            fragment_msdu,
            michael,
            michael_header,
            reassemble_fragments,
            recover_key,
            split_protected_msdu,
        )

        session, spec, plaintext, pool = self._setup(rng)
        data, mic, _ = split_protected_msdu(plaintext)
        mic_key = recover_key(michael_header(DA, TA) + data, mic)
        assert mic_key == session.mic_key
        # Forge an MSDU longer than any single banked keystream.
        forged = TcpPacketSpec(
            source_ip="203.0.113.7",
            dest_ip="192.168.1.101",
            source_port=80,
            dest_port=51324,
            payload=b"Z" * 120,
        ).msdu_data()
        assert len(forged) > len(plaintext)
        fragments = fragment_msdu(forged, mic_key, DA, TA, pool)
        assert len(fragments) >= 2
        assert fragments[-1].more is False
        assert all(f.more for f in fragments[:-1])
        protected = reassemble_fragments(session.tk, fragments)
        received, received_mic = protected[:-8], protected[-8:]
        assert received == forged
        assert received_mic == michael(
            session.mic_key, michael_header(DA, TA) + received
        )

    def test_reassembly_rejects_reordered_fragments(self, rng):
        from repro.errors import AttackError
        from repro.tkip import fragment_msdu, reassemble_fragments

        session, spec, plaintext, pool = self._setup(rng)
        forged = b"A" * 150
        fragments = fragment_msdu(forged, session.mic_key, DA, TA, pool)
        assert len(fragments) >= 3
        swapped = [fragments[1], fragments[0]] + fragments[2:]
        with pytest.raises(AttackError, match="index"):
            reassemble_fragments(session.tk, swapped)

    def test_fragment_budget_enforced(self, rng):
        from repro.errors import AttackError
        from repro.tkip import fragment_msdu

        session, spec, plaintext, pool = self._setup(rng)
        capacity = pool.capacity(max_fragments=1)
        with pytest.raises(AttackError, match="fragments"):
            fragment_msdu(
                b"B" * (capacity + 1), session.mic_key, DA, TA, pool,
                max_fragments=1,
            )

    def test_tampered_fragment_fails_icv(self, rng):
        from repro.errors import AttackError
        from repro.tkip import (
            TkipFragment,
            fragment_msdu,
            reassemble_fragments,
        )
        from repro.tkip.frames import TkipFrame

        session, spec, plaintext, pool = self._setup(rng)
        fragments = fragment_msdu(b"C" * 100, session.mic_key, DA, TA, pool)
        frame = fragments[0].frame
        flipped = bytes([frame.ciphertext[0] ^ 1]) + frame.ciphertext[1:]
        tampered = TkipFragment(
            frame=TkipFrame(
                ta=frame.ta, da=frame.da, sa=frame.sa, tsc=frame.tsc,
                ciphertext=flipped, priority=frame.priority,
            ),
            index=0,
            more=fragments[0].more,
        )
        with pytest.raises(AttackError, match="ICV"):
            reassemble_fragments(session.tk, [tampered] + fragments[1:])
