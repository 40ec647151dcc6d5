"""Reporting helpers, tables, byte ops, serialization, configuration."""


import numpy as np
import pytest

from repro.analysis import (
    ascii_curve,
    bias_comparison_table,
    probability_notation,
    series_to_csv,
    success_rate_table,
)
from repro.config import ReproConfig, child_seed, get_config
from repro.errors import ConfigError, DatasetError
from repro.utils.bytesops import (
    hexdump,
    mk16,
    rotl32,
    rotr16,
    rotr32,
    u16_hi,
    u16_lo,
    xor_bytes,
    xswap16,
    xswap32,
)
from repro.utils.serialization import load_arrays, save_arrays
from repro.utils.tables import format_table


class TestBytesOps:
    def test_xor_bytes(self):
        assert xor_bytes(b"\x0f\xf0", b"\xff\xff") == b"\xf0\x0f"
        with pytest.raises(ValueError):
            xor_bytes(b"\x00", b"\x00\x00")

    def test_rotations(self):
        assert rotl32(0x80000000, 1) == 1
        assert rotr32(1, 1) == 0x80000000
        assert rotl32(0x12345678, 0) == 0x12345678
        assert rotr16(0x0001, 1) == 0x8000

    def test_swaps(self):
        assert xswap16(0x1234) == 0x3412
        assert xswap32(0x12345678) == 0x34127856

    def test_word_helpers(self):
        assert mk16(0x12, 0x34) == 0x1234
        assert u16_hi(0x1234) == 0x12
        assert u16_lo(0x1234) == 0x34

    def test_hexdump_shape(self):
        dump = hexdump(bytes(range(40)))
        lines = dump.splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("00000000")


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        arrays = {"a": np.arange(10), "b": np.eye(3)}
        path = save_arrays(tmp_path / "x.npz", arrays, {"kind": "test"})
        loaded, meta = load_arrays(path)
        assert np.array_equal(loaded["a"], arrays["a"])
        assert meta["kind"] == "test"
        assert meta["format_version"] == 1

    def test_reserved_name_rejected(self, tmp_path):
        with pytest.raises(DatasetError):
            save_arrays(tmp_path / "y.npz", {"__meta__": np.zeros(1)}, {})

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError):
            load_arrays(tmp_path / "absent.npz")

    @pytest.mark.parametrize("compress", [True, False])
    def test_torn_file_raises_dataset_error(self, tmp_path, compress):
        """A truncated or flipped archive is a DatasetError naming the
        file, never a raw zipfile/zlib/EOF error."""
        arrays = {"a": np.arange(5000), "b": np.ones((8, 256))}
        path = save_arrays(tmp_path / "x.npz", arrays, {}, compress=compress)
        data = path.read_bytes()
        torn = tmp_path / "torn.npz"
        cuts = [bytes(data[:cut]) for cut in (0, 30, len(data) // 2, len(data) - 1)]
        flipped = bytearray(data)
        flipped[len(data) // 3] ^= 0xFF
        for blob in [*cuts, bytes(flipped)]:
            torn.write_bytes(blob)
            with pytest.raises(DatasetError, match="torn.npz"):
                load_arrays(torn)


class TestConfig:
    def test_scaled_clamps(self):
        config = ReproConfig(scale=0.001)
        assert config.scaled(100, minimum=8) == 8
        config2 = ReproConfig(scale=100.0)
        assert config2.scaled(100, maximum=500) == 500

    def test_rng_label_independence(self):
        config = ReproConfig(seed=5)
        a = config.rng("one").integers(0, 1 << 30, 8)
        b = config.rng("two").integers(0, 1 << 30, 8)
        assert not np.array_equal(a, b)

    def test_child_seed_deterministic(self):
        assert child_seed(5, "x", 1) == child_seed(5, "x", 1)
        assert child_seed(5, "x", 1) != child_seed(5, "x", 2)

    def test_invalid_values(self):
        with pytest.raises(ConfigError):
            ReproConfig(scale=0.0)
        with pytest.raises(ConfigError):
            ReproConfig(seed=-1)

    def test_env_parsing(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "2.5")
        monkeypatch.setenv("REPRO_SEED", "99")
        config = get_config()
        assert config.scale == 2.5 and config.seed == 99
        monkeypatch.setenv("REPRO_SCALE", "bogus")
        with pytest.raises(ConfigError):
            get_config()


class TestReporting:
    def test_probability_notation_roundtrip(self):
        text = probability_notation(2.0**-16 * (1 + 2.0**-8), 2.0**-16)
        assert text.startswith("2^-16.0")
        assert "(1 + 2^-8.0" in text

    def test_probability_notation_negative(self):
        text = probability_notation(2.0**-16 * (1 - 2.0**-5), 2.0**-16)
        assert "(1 - 2^-5.0" in text

    def test_bias_comparison_sign_agreement(self):
        table = bias_comparison_table(
            [("b1", 2.0**-16 * 1.01, 2.0**-16 * 1.02, 2.0**-16)]
        )
        assert "yes" in table
        table2 = bias_comparison_table(
            [("b2", 2.0**-16 * 1.01, 2.0**-16 * 0.99, 2.0**-16)]
        )
        assert "NO" in table2

    def test_success_rate_table(self):
        out = success_rate_table(
            "N", {"combined": [0.1, 0.9], "fm": [0.05, 0.4]}, ["2^27", "2^31"]
        )
        assert "90.0%" in out and "2^31" in out

    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [[1, 2.5], ["xyz", 3]])
        lines = out.splitlines()
        assert len(lines) == 4
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])


class TestFigures:
    def test_ascii_curve_contains_markers(self):
        out = ascii_curve([1, 2, 3], {"s": [0.1, 0.5, 0.9]}, width=20, height=5)
        assert "o" in out and "s" in out

    def test_ascii_curve_validation(self):
        with pytest.raises(ValueError):
            ascii_curve([1, 2], {"s": [1.0]})
        with pytest.raises(ValueError):
            ascii_curve([1], {})

    def test_csv_emission(self):
        csv = series_to_csv("x", [1, 2], {"y": [0.25, 0.75]})
        lines = csv.splitlines()
        assert lines[0] == "x,y"
        assert lines[1] == "1,0.25"
