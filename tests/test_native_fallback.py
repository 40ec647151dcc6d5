"""Graceful degradation of the compiled backend.

A missing or broken C toolchain must never break imports or change
results — the engine warns once and runs on the pure-numpy path.  The
simulated-breakage tests run in subprocesses because ``_native`` caches
its load attempt per process: ``REPRO_NATIVE_CC`` pins the compiler to
``/bin/false`` (exits nonzero without writing output, the
"died mid-write" case) and ``XDG_CACHE_HOME`` points at a throwaway
directory so no previously cached build can be picked up.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")

_PROBE = """
import json
import warnings

import numpy as np

with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    from repro.rc4 import _native
    from repro.datasets.generate import single_byte_counts

    available = _native.available()
    counts = single_byte_counts(
        np.arange(32, dtype=np.uint8).reshape(2, 16), 4
    )
print(json.dumps({
    "available": available,
    "status": _native.status(),
    "total": int(counts.sum()),
    "warnings": [str(w.message) for w in caught
                 if issubclass(w.category, RuntimeWarning)],
}))
"""


#: A run's provenance and ``info --json`` against the backend that loaded.
_PROVENANCE_PROBE = """
import contextlib
import io
import json

from repro.__main__ import main
from repro.api import Session
from repro.config import get_config
from repro.rc4 import _native

result = Session(get_config()).run("dataset-single", num_keys=256, positions=2)
info = io.StringIO()
with contextlib.redirect_stdout(info):
    main(["info", "--json"])
print(json.dumps({
    "available": _native.available(),
    "provenance": result.provenance,
    "info_native": json.loads(info.getvalue())["native"],
}))
"""


def _probe(
    extra_env: dict[str, str], tmp_path: Path, script: str = _PROBE
) -> dict:
    env = dict(os.environ)
    env.pop("REPRO_NATIVE", None)
    env["PYTHONPATH"] = REPO_SRC
    env["XDG_CACHE_HOME"] = str(tmp_path / "cache")
    env.update(extra_env)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_broken_compiler_falls_back_with_warning(tmp_path):
    """cc = /bin/false: import succeeds, numpy path used, one warning."""
    result = _probe({"REPRO_NATIVE_CC": "/bin/false"}, tmp_path)
    assert result["available"] is False
    assert "unavailable" in result["status"]
    # Counting still works (2 keys x 4 positions) via the numpy fallback.
    assert result["total"] == 8
    assert len(result["warnings"]) == 1
    assert "falling back" in result["warnings"][0]


def test_missing_compiler_falls_back_with_warning(tmp_path):
    """A compiler binary that does not exist at all degrades the same way."""
    result = _probe(
        {"REPRO_NATIVE_CC": str(tmp_path / "no-such-cc")}, tmp_path
    )
    assert result["available"] is False
    assert result["total"] == 8
    assert len(result["warnings"]) == 1


def test_explicit_disable_is_silent(tmp_path):
    """REPRO_NATIVE=0 is a deliberate choice: no warning noise."""
    result = _probe({"REPRO_NATIVE": "0"}, tmp_path)
    assert result["available"] is False
    assert "disabled via REPRO_NATIVE" in result["status"]
    assert result["total"] == 8
    assert result["warnings"] == []


@pytest.mark.parametrize("native", ["0", "1"])
def test_provenance_reports_the_backend_that_loaded(tmp_path, native):
    """Provenance and ``info --json`` say whether the compiled backend
    ran, on both ``REPRO_NATIVE`` legs, and name no tier that no kernel
    reads."""
    result = _probe({"REPRO_NATIVE": native}, tmp_path, _PROVENANCE_PROBE)
    if native == "0":
        assert result["available"] is False
    assert result["provenance"]["native"] is result["available"]
    assert result["info_native"] is result["available"]
    assert set(result["provenance"]) == {
        "version", "seed", "scale", "native", "native_threads", "native_simd"
    }


def test_truncated_artifact_is_not_promoted(tmp_path, monkeypatch):
    """A compiler that 'succeeds' but writes nothing must not poison the
    hash-keyed cache entry (the mid-write failure mode)."""
    from repro.rc4 import _native

    fake_cc = tmp_path / "fake-cc"
    fake_cc.write_text("#!/bin/sh\nexit 0\n")  # writes no output file
    fake_cc.chmod(0o755)
    monkeypatch.setenv("REPRO_NATIVE_CC", str(fake_cc))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    with pytest.raises(RuntimeError, match="compilation failed"):
        _native._compile()
    cache = tmp_path / "cache" / "repro-rc4"
    assert not list(cache.glob("librc4stats-*.so"))


def _fake_toolchain(monkeypatch, tmp_path, compile_outcomes):
    """Fake ``subprocess.run`` for :func:`_native._compile`.

    ``--version`` probes succeed; compile calls pop the next outcome
    (``"timeout"`` raises ``TimeoutExpired``, ``"ok"`` writes an object)
    and are recorded by compiler.  Sleeps are recorded, not slept, and
    the cache lives under ``tmp_path``.  Returns ``(compiles, sleeps)``.
    """
    from repro.rc4 import _native

    compiles, sleeps = [], []
    outcomes = list(compile_outcomes)

    def run(cmd, **kwargs):
        if cmd[1:] == ["--version"]:
            return subprocess.CompletedProcess(cmd, 0, f"{cmd[0]} 1.0\n", "")
        compiles.append(cmd[0])
        if outcomes.pop(0) == "timeout":
            raise subprocess.TimeoutExpired(cmd, kwargs["timeout"])
        Path(cmd[cmd.index("-o") + 1]).write_bytes(b"\x7fELF object")
        return subprocess.CompletedProcess(cmd, 0, "", "")

    monkeypatch.setattr(_native.subprocess, "run", run)
    monkeypatch.setattr(_native.time, "sleep", sleeps.append)
    monkeypatch.setattr(_native, "_cache_dir", lambda: tmp_path)
    return compiles, sleeps


def test_compile_retries_one_timeout_after_backoff(tmp_path, monkeypatch):
    """A compiler that times out once is retried once, after the backoff."""
    from repro.rc4 import _native

    monkeypatch.setenv("REPRO_NATIVE_CC", "slow-cc")
    compiles, sleeps = _fake_toolchain(
        monkeypatch, tmp_path, ["timeout", "ok"]
    )
    target = _native._compile()
    assert compiles == ["slow-cc", "slow-cc"]
    assert sleeps == [_native._CC_RETRY_BACKOFF]
    assert [p.name for p in tmp_path.iterdir()] == [target.name]
    assert target.read_bytes() == b"\x7fELF object"


def test_compile_moves_on_after_two_timeouts(tmp_path, monkeypatch):
    """Two timeouts give up on a compiler: its temp object is removed and
    the next compiler is tried; the error names the timeout."""
    from repro.rc4 import _native

    monkeypatch.setattr(_native, "_compilers", lambda: ("hung-a", "hung-b"))
    compiles, sleeps = _fake_toolchain(monkeypatch, tmp_path, ["timeout"] * 4)
    with pytest.raises(RuntimeError, match=r"hung-b: .*timed out"):
        _native._compile()
    assert compiles == ["hung-a", "hung-a", "hung-b", "hung-b"]
    assert sleeps == [_native._CC_RETRY_BACKOFF] * 2
    assert list(tmp_path.iterdir()) == []


def test_resolve_threads_env_and_clamps(monkeypatch):
    from repro.rc4 import _native

    monkeypatch.delenv("REPRO_NATIVE_THREADS", raising=False)
    assert _native.resolve_threads(None) == (os.cpu_count() or 1)
    assert _native.resolve_threads(4) == 4
    assert _native.resolve_threads(0) == 1
    monkeypatch.setenv("REPRO_NATIVE_THREADS", "3")
    assert _native.resolve_threads(None) == 3
    monkeypatch.setenv("REPRO_NATIVE_THREADS", "not-a-number")
    with pytest.raises(ValueError):
        _native.resolve_threads(None)
    # Private-counter scratch budget (4 GiB): a 512 MiB counter caps
    # threads at 8.
    assert _native.resolve_threads(64, counter_bytes=512 << 20) == 8
    assert _native.resolve_threads(64, counter_bytes=4 << 30) == 1


def test_resolve_threads_clamp_at_budget_boundary(monkeypatch):
    """Pin the clamp exactly at _THREAD_SCRATCH_BUDGET (4 GiB), including
    the SIMD lane-width scratch the wide kernels add per thread."""
    from repro.rc4 import _native

    monkeypatch.delenv("REPRO_NATIVE_THREADS", raising=False)
    budget = _native._THREAD_SCRATCH_BUDGET
    lane = _native._SIMD_LANE_SCRATCH
    assert budget == 4 << 30  # the docstring's stated budget
    assert lane > 0
    # Exactly at the boundary every requested thread survives; one byte
    # of extra per-thread scratch drops one.
    assert _native.resolve_threads(8, counter_bytes=budget // 8) == 8
    assert _native.resolve_threads(8, counter_bytes=budget // 8 + 1) == 7
    # The SIMD working set is charged on top of the counter block, so a
    # counter size that exactly fills the budget for 8 threads loses a
    # thread once the wide kernels' scratch rides along — wide kernels
    # can never push aggregate scratch past the cap.
    assert (
        _native.resolve_threads(8, counter_bytes=budget // 8, lane_bytes=lane)
        == 7
    )
    # Lane scratch alone (keystream kernels: no counter block) is far too
    # small to clamp a sane thread count.
    assert _native.resolve_threads(64, lane_bytes=lane) == 64
    # Degenerate oversized scratch still leaves one thread running.
    assert (
        _native.resolve_threads(64, counter_bytes=budget, lane_bytes=lane) == 1
    )


def test_cache_key_covers_compiler_and_flags():
    """Same source, different toolchain identity or flags => new artefact."""
    from repro.rc4 import _native

    source = b"int main(void) { return 0; }\n"
    base = _native._cache_key(source, "cc (Debian 12.2.0) 12.2.0")
    assert base == _native._cache_key(source, "cc (Debian 12.2.0) 12.2.0")
    assert base != _native._cache_key(source, "clang version 15.0.6")
    assert base != _native._cache_key(source + b"\n", "cc (Debian 12.2.0) 12.2.0")
    original = _native._CFLAGS
    try:
        _native._CFLAGS = (*original, "-DRC4_NO_SIMD")
        assert base != _native._cache_key(source, "cc (Debian 12.2.0) 12.2.0")
    finally:
        _native._CFLAGS = original


def test_pinned_compiler_does_not_reuse_stale_artifact(tmp_path):
    """Two pinned compilers with distinct identities must produce two
    distinct cache entries — the historical source-hash-only key silently
    served compiler A's artefact to compiler B."""
    real_cc = None
    for candidate in ("cc", "gcc", "clang"):
        probe = subprocess.run(
            [candidate, "--version"], capture_output=True, text=True
        )
        if probe.returncode == 0:
            real_cc = candidate
            break
    if real_cc is None:
        pytest.skip("no C compiler on PATH")
    wrappers = {}
    for variant in ("alpha", "beta"):
        wrapper = tmp_path / f"cc-{variant}"
        wrapper.write_text(
            "#!/bin/sh\n"
            'if [ "$1" = "--version" ]; then\n'
            f'  echo "fake-cc {variant} 1.0"\n'
            "  exit 0\n"
            "fi\n"
            f'exec {real_cc} "$@"\n'
        )
        wrapper.chmod(0o755)
        wrappers[variant] = wrapper
    for variant in ("alpha", "beta"):
        result = _probe({"REPRO_NATIVE_CC": str(wrappers[variant])}, tmp_path)
        assert result["available"] is True, result["status"]
        assert result["total"] == 8
    cache = tmp_path / "cache" / "repro-rc4"
    artifacts = sorted(cache.glob("librc4stats-*.so"))
    assert len(artifacts) == 2, artifacts


def test_numpy_kernels_ignore_threads(rng, monkeypatch):
    """The threads knob must be safe to pass when native is unavailable."""
    from repro.datasets.generate import single_byte_counts
    from repro.rc4 import _native

    monkeypatch.setattr(_native, "available", lambda: False)
    keys = rng.integers(0, 256, size=(8, 16), dtype=np.uint8)
    a = single_byte_counts(keys, 5, threads=1)
    b = single_byte_counts(keys, 5, threads=7)
    assert np.array_equal(a, b)


def test_numpy_kernels_ignore_simd(rng, monkeypatch):
    """The simd knob must be safe to pass when native is unavailable, and
    simd_available() must report False rather than raise."""
    from repro.datasets.generate import single_byte_counts
    from repro.rc4 import _native

    monkeypatch.setattr(_native, "available", lambda: False)
    monkeypatch.setattr(_native, "_load", lambda: None)
    keys = rng.integers(0, 256, size=(8, 16), dtype=np.uint8)
    a = single_byte_counts(keys, 5, simd=True)
    b = single_byte_counts(keys, 5, simd=False)
    assert np.array_equal(a, b)
    assert _native.simd_available() is False
    assert _native.simd_lanes() == 0
