"""Optional compiled backend for the RC4 statistics pipeline.

``_native.c`` (next to this module) implements per-key RC4 with the
256-byte state in L1, fused generate-and-count kernels, and two row
kernels: the §6 capture's (:func:`count_digraph_rows`: FM digraph and
ABSAB differential codes of a transposed keystream block, each row XORed
with its template constant and counted straight into its own 65536
uint32 cells) and the §6 statistic sampler's
(:func:`multinomial_rows`: numpy's own C ``random_multinomial``, one bit
generator per row, so the draws are numpy's bit for bit), plus four
single-threaded kernels that repeat their fallbacks' arithmetic in the
same order: the §5 CRC search's best-first walk (:func:`lazy_walk`, over
a binary heap in a numpy buffer the caller owns and grows), the
single-byte likelihoods (:func:`xor_loglik`), the §6 eq 22-25
likelihoods (:func:`transition_loglik`, one fused pass over the
counters) and Algorithm 2's lazy lists (:func:`lazy_lists`).  This module
compiles it on demand with the system C compiler (``gcc``/``cc``), caches
the shared object under ``~/.cache/repro-rc4/`` keyed by a hash of the
source *plus* the compiler identity and flags (so pinning a different
``REPRO_NATIVE_CC`` or changing CFLAGS can never load a stale artefact),
and exposes thin ctypes wrappers.

Two performance knobs ride on the kernels; the four single-threaded
kernels take neither and run on the calling thread:

- ``threads`` (default ``os.cpu_count()``, overridable per call or via
  ``REPRO_NATIVE_THREADS``): the C side runs one work-sharing fan-out.
  The calling thread starts at once and ``threads - 1`` POSIX helpers
  join it, each taking the next unit of work until none is left: 128
  keys for the RC4 kernels, one output row for the row kernels.  The
  calling thread counts straight into ``out`` and each helper into a
  private zeroed block added in after the join; exact int64 sums and
  rows that own their output make the result bit-exact for any thread
  count and any schedule.
- ``simd`` (default on, ``REPRO_NATIVE_SIMD=0`` to disable; RC4 kernels
  only): selects the AVX2 wide kernels that advance 32 states per loop
  in a transposed lane-major layout, with the scalar kernels taking
  any remainder of fewer than 32 keys.  The C side re-checks CPU
  support at runtime (``__builtin_cpu_supports("avx2")``), so enabling
  the knob on non-AVX2 hardware silently degrades to the scalar tier;
  every tier is bit-exact with every other.

The backend is strictly optional: if no compiler is present, compilation
fails, or ``REPRO_NATIVE=0`` is set, :func:`available` returns False and
callers (``repro.rc4.batch``, ``repro.datasets.generate``,
``repro.core.candidates.lazy``, ``repro.core.candidates.viterbi``,
``repro.core.likelihood.single``, ``repro.simulate.sampling``,
``repro.tls.attack``) fall back to the pure-numpy paths.
An unexpected failure (as opposed to an explicit disable) emits a single
:class:`RuntimeWarning` so slow runs are diagnosable;
``REPRO_NATIVE_CC`` pins the compiler for tests that simulate a broken
toolchain.  Both paths are bit-exact with :mod:`repro.rc4.reference`;
tests/test_dataset_equivalence.py compares them cell-for-cell,
tests/test_candidate_equivalence.py compares the walk with its
``heapq`` loop and Algorithm 2's C lists with its Python engine,
tests/test_simulate.py the multinomial rows with
``Generator.multinomial``, tests/test_core_likelihood.py the single-byte
likelihoods and tests/test_tls_attack.py the §6 likelihoods with their
numpy loops.

No third-party dependency is involved — only :mod:`ctypes` and a C
compiler that the pure-python fallback makes optional.  All ``REPRO_*``
environment parsing is delegated to :mod:`repro.config` (the single
env-reading module); this module only consumes the typed accessors.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import subprocess
import tempfile
import time
import warnings
from pathlib import Path
from typing import Iterator

import numpy as np

from ..config import (
    env_native_cc,
    env_native_enabled,
    env_native_simd,
    env_native_threads,
)
from ..errors import CandidateError, KeyLengthError
from ..utils.serialization import durable_replace

_SOURCE = Path(__file__).with_name("_native.c")

#: Per-invocation wall clock for the compile subprocess, and the backoff
#: before its single retry (timeouts only — a failing compiler is not
#: retried, the next one in the probe order is tried instead).
_CC_TIMEOUT = 120
_CC_RETRY_BACKOFF = 2.0

#: Aggregate private-counter budget across threads (bytes).  Wide
#: machines counting 256 MiB consec blocks would otherwise multiply that
#: by cpu_count; threads are clamped so scratch stays under this (32
#: threads for 128 MiB longterm counters, 16 for 256 MiB consec512).
_THREAD_SCRATCH_BUDGET = 4 << 30

#: Per-thread working set of the AVX2 wide kernels (transposed state,
#: key transpose, digraph window and staging — see rc4_wide/wide_ksa in
#: _native.c).  Charged against the scratch budget alongside the private
#: counter blocks so the wide tier can never push aggregate scratch past
#: the cap that the scalar tier was sized for.
_SIMD_LANE_SCRATCH = 32 << 10

#: Flags handed to every compiler candidate; part of the cache key.  The
#: AVX2 tier needs no -mavx2 here — the wide kernels carry their own
#: __attribute__((target("avx2"))) so the artefact stays loadable on any
#: x86-64 machine.  -ffp-contract=off keeps a multiply and the add after
#: it two rounded operations (no FMA), so xor_loglik and
#: transition_loglik give the numpy fallback's bits on every platform.
_CFLAGS = ("-O3", "-shared", "-fPIC", "-pthread", "-ffp-contract=off")

_lib: ctypes.CDLL | None = None
_load_attempted = False
_load_error: str | None = None


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro-rc4"


def _compilers() -> tuple[str, ...]:
    pinned = env_native_cc()
    if pinned:
        return (pinned,)
    return ("cc", "gcc", "clang")


def _compiler_id(compiler: str) -> str | None:
    """Identity string for the cache key: name plus ``--version`` line.

    Returns None when the compiler cannot be executed at all, so
    :func:`_compile` can skip it without burning a probe-order slot on a
    doomed compile attempt.  The version line (not just the name) is part
    of the identity: ``cc`` may resolve to a different toolchain after a
    system upgrade, and an artefact built by the old one must not be
    reused silently.
    """
    try:
        proc = subprocess.run(
            [compiler, "--version"],
            capture_output=True,
            text=True,
            timeout=_CC_TIMEOUT,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    first = (proc.stdout or proc.stderr).strip().splitlines() or [""]
    return f"{compiler} {first[0]}"


def _cache_key(source: bytes, compiler_id: str) -> str:
    """Cache digest over source, compiler identity, and CFLAGS.

    Keying on the source hash alone (the historical scheme) silently
    loads a stale artefact when ``REPRO_NATIVE_CC`` pins a different
    compiler or the build flags change; all three inputs are folded in.
    """
    blob = b"\0".join(
        [source, compiler_id.encode(), " ".join(_CFLAGS).encode()]
    )
    return hashlib.sha256(blob).hexdigest()[:16]


def _compile() -> Path:
    """Compile ``_native.c`` into the cache, reusing a key-matched build."""
    source = _SOURCE.read_bytes()
    cache = _cache_dir()
    last_error = "no C compiler found"
    for compiler in _compilers():
        compiler_id = _compiler_id(compiler)
        if compiler_id is None:
            last_error = f"{compiler}: not executable"
            continue
        target = cache / f"librc4stats-{_cache_key(source, compiler_id)}.so"
        if target.exists():
            return target
        cache.mkdir(parents=True, exist_ok=True)
        with tempfile.NamedTemporaryFile(
            dir=cache, suffix=".so.tmp", delete=False
        ) as tmp:
            tmp_path = Path(tmp.name)
        cmd = [compiler, *_CFLAGS, str(_SOURCE), "-o", str(tmp_path)]
        try:
            # A wedged compiler (hung license check, dead NFS) gets one
            # bounded retry after a backoff instead of hanging the
            # process; other failures fall through to the next compiler.
            for attempt in (0, 1):
                try:
                    proc = subprocess.run(
                        cmd, capture_output=True, text=True,
                        timeout=_CC_TIMEOUT,
                    )
                    break
                except subprocess.TimeoutExpired:
                    if attempt:
                        raise
                    time.sleep(_CC_RETRY_BACKOFF)
        except (OSError, subprocess.TimeoutExpired) as exc:
            tmp_path.unlink(missing_ok=True)
            last_error = f"{compiler}: {exc}"
            continue
        if proc.returncode != 0:
            tmp_path.unlink(missing_ok=True)
            last_error = f"{compiler}: {proc.stderr.strip()[:500]}"
            continue
        # A compiler that "succeeds" but writes nothing (or dies mid-write
        # leaving a truncated object) must not poison the cache: CDLL below
        # would fail and _load() records the error, but only a non-empty
        # artefact is ever promoted to the hash-keyed name.
        if tmp_path.stat().st_size == 0:
            tmp_path.unlink(missing_ok=True)
            last_error = f"{compiler}: produced an empty object"
            continue
        # Atomic and fsynced: safe under concurrent builds, and a crash
        # cannot leave a torn object under the key that later loads trust.
        durable_replace(tmp_path, target)
        return target
    raise RuntimeError(f"native backend compilation failed ({last_error})")


def _bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    # Every array goes in as its plain address (ndarray.ctypes.data):
    # data_as() pointers hold reference cycles that only the cyclic
    # garbage collector frees, and the kernels run per TSC, per batch or
    # per walk block.
    vp = ctypes.c_void_p
    ssize = ctypes.c_ssize_t
    cint = ctypes.c_int
    clong = ctypes.c_long
    lib.rc4_batch_keystream.argtypes = [
        vp, ssize, ssize, clong, clong, vp, cint, cint,
    ]
    lib.rc4_batch_keystream.restype = None
    lib.rc4_count_single.argtypes = [vp, ssize, ssize, clong, vp, cint, cint]
    lib.rc4_count_single.restype = None
    lib.rc4_count_digraph.argtypes = [vp, ssize, ssize, clong, vp, cint, cint]
    lib.rc4_count_digraph.restype = None
    lib.rc4_count_longterm.argtypes = [
        vp, ssize, ssize, clong, clong, clong, vp, cint, cint,
    ]
    lib.rc4_count_longterm.restype = None
    lib.rc4_count_digraph_rows.argtypes = [
        vp, ssize, ssize, ssize, vp, vp, vp, vp, cint,
    ]
    lib.rc4_count_digraph_rows.restype = None
    lib.rc4_multinomial_rows.argtypes = [
        vp, ctypes.c_int64, ssize, ssize, vp, vp, vp, cint,
    ]
    lib.rc4_multinomial_rows.restype = None
    lib.rc4_lazy_walk.argtypes = [
        vp, ssize, vp, ssize, ctypes.POINTER(ssize), ssize, vp, vp,
    ]
    lib.rc4_lazy_walk.restype = ssize
    lib.rc4_xor_loglik.argtypes = [vp, vp, ssize, vp]
    lib.rc4_xor_loglik.restype = None
    lib.rc4_transition_loglik.argtypes = [
        vp, vp, cint, ssize, vp, vp, vp, vp, ctypes.c_double, vp, vp, vp,
        vp, vp,
    ]
    lib.rc4_transition_loglik.restype = None
    lib.rc4_lazy_lists.argtypes = [
        vp, ssize, ssize, vp, ssize, cint, vp, vp, ctypes.c_int64, vp,
        ctypes.POINTER(ssize),
    ]
    lib.rc4_lazy_lists.restype = vp
    lib.rc4_lazy_lists_take.argtypes = [vp, ssize, vp, vp, vp]
    lib.rc4_lazy_lists_take.restype = None
    lib.rc4_lazy_lists_free.argtypes = [vp]
    lib.rc4_lazy_lists_free.restype = None
    lib.rc4_simd_available.argtypes = []
    lib.rc4_simd_available.restype = cint
    lib.rc4_simd_lanes.argtypes = []
    lib.rc4_simd_lanes.restype = cint
    return lib


def _load() -> ctypes.CDLL | None:
    global _lib, _load_attempted, _load_error
    if _load_attempted:
        return _lib
    _load_attempted = True
    if not env_native_enabled():
        _load_error = "disabled via REPRO_NATIVE"
        return None
    try:
        _lib = _bind(ctypes.CDLL(str(_compile())))
    except Exception as exc:  # any failure => pure-numpy fallback
        _load_error = str(exc)
        _lib = None
        warnings.warn(
            "repro native backend unavailable, falling back to the pure-"
            f"numpy engine (expect a slower statistics pipeline): {exc}",
            RuntimeWarning,
            stacklevel=2,
        )
    return _lib


def available() -> bool:
    """True when the compiled backend loaded (callers branch on this)."""
    return _load() is not None


def status() -> str:
    """Human-readable backend state for diagnostics and bench records.

    Never raises: a malformed ``REPRO_NATIVE_THREADS`` is something this
    function should report, not die from.
    """
    if available():
        try:
            threads = str(resolve_threads(None))
        except ValueError as exc:  # malformed REPRO_NATIVE_THREADS
            threads = f"invalid ({exc})"
        if not _simd(None):
            simd = "off"
        elif simd_available():
            simd = f"avx2 x{simd_lanes()}"
        else:
            simd = "unsupported"
        return f"native backend loaded (threads={threads}, simd={simd})"
    return f"native backend unavailable: {_load_error}"


def simd_available() -> bool:
    """True when the loaded backend can run the AVX2 wide kernels.

    False when the backend is unavailable, was compiled without the SIMD
    tier (non-GCC/Clang or non-x86-64), or the CPU lacks AVX2 — the
    runtime check is the C side's ``__builtin_cpu_supports("avx2")``.
    This reports hardware/build capability only; the ``REPRO_NATIVE_SIMD``
    knob is resolved separately per call.
    """
    lib = _load()
    return lib is not None and bool(lib.rc4_simd_available())


def simd_lanes() -> int:
    """RC4 states per SIMD group (0 when the wide tier is compiled out)."""
    lib = _load()
    return int(lib.rc4_simd_lanes()) if lib is not None else 0


def resolve_threads(
    threads: int | None, counter_bytes: int = 0, lane_bytes: int = 0
) -> int:
    """Effective thread count for a kernel call.

    ``None`` means "the configured default": ``REPRO_NATIVE_THREADS`` if
    set, else ``os.cpu_count()``.  The result is clamped to at least 1
    and, for counting kernels, so that
    ``threads * (counter_bytes + lane_bytes)`` of scratch stays within
    the 4 GiB ``_THREAD_SCRATCH_BUDGET``.  ``counter_bytes`` is one
    private counter block, of which the ``threads - 1`` helpers take one
    each (the calling thread counts into the caller's own ``out``, so
    the bound leaves one block to spare); ``lane_bytes`` is the
    per-thread SIMD working set (pass :data:`_SIMD_LANE_SCRATCH` when
    the wide tier may run) so wide kernels can't blow the cap the scalar
    tier was sized for.
    """
    if threads is None:
        # env_native_threads raises ConfigError (a ValueError) when the
        # variable is set but malformed.
        threads = env_native_threads()
        if threads is None:
            threads = os.cpu_count() or 1
    threads = max(1, int(threads))
    scratch = counter_bytes + lane_bytes
    if scratch > 0:
        threads = min(threads, max(1, _THREAD_SCRATCH_BUDGET // scratch))
    return threads


def _simd(simd: bool | None) -> int:
    """Resolve the SIMD knob (per-call override beats the env)."""
    if simd is None:
        return 1 if env_native_simd() else 0
    return 1 if simd else 0


def _check_keys(keys: np.ndarray) -> np.ndarray:
    """Keys as a C-contiguous uint8 ``(n, keylen)`` block, 1..256 bytes
    wide like :func:`repro.rc4.batch.batch_keystream` requires: the C
    KSA transposes at most 256 key bytes per SIMD group."""
    keys = np.ascontiguousarray(keys, dtype=np.uint8)
    if keys.ndim != 2:
        raise KeyLengthError(
            f"keys must be 2-D (n, keylen), got shape {keys.shape}"
        )
    if not 1 <= keys.shape[1] <= 256:
        raise KeyLengthError(
            f"RC4 key must be 1..256 bytes, got {keys.shape[1]}"
        )
    return keys


def batch_keystream(
    keys: np.ndarray,
    length: int,
    *,
    drop: int = 0,
    threads: int | None = None,
    simd: bool | None = None,
) -> np.ndarray:
    """Compiled equivalent of :func:`repro.rc4.batch.batch_keystream`."""
    keys = _check_keys(keys)
    n = keys.shape[0]
    out = np.empty((n, length), dtype=np.uint8)
    lib = _load()
    assert lib is not None, "call available() first"
    use_simd = _simd(simd)
    lib.rc4_batch_keystream(
        keys.ctypes.data, n, keys.shape[1], drop, length, out.ctypes.data,
        resolve_threads(
            threads, lane_bytes=_SIMD_LANE_SCRATCH if use_simd else 0
        ),
        use_simd,
    )
    return out


def count_single(
    keys: np.ndarray,
    positions: int,
    out: np.ndarray,
    *,
    threads: int | None = None,
    simd: bool | None = None,
) -> None:
    """Accumulate single-byte counts into ``out`` (positions, 256) int64."""
    keys = _check_keys(keys)
    lib = _load()
    assert lib is not None, "call available() first"
    assert out.dtype == np.int64 and out.flags.c_contiguous
    use_simd = _simd(simd)
    lib.rc4_count_single(
        keys.ctypes.data, keys.shape[0], keys.shape[1], positions, out.ctypes.data,
        resolve_threads(
            threads, out.nbytes,
            lane_bytes=_SIMD_LANE_SCRATCH if use_simd else 0,
        ),
        use_simd,
    )


def count_digraph(
    keys: np.ndarray,
    positions: int,
    out: np.ndarray,
    *,
    threads: int | None = None,
    simd: bool | None = None,
) -> None:
    """Accumulate consecutive-digraph counts into (positions, 256, 256)."""
    keys = _check_keys(keys)
    lib = _load()
    assert lib is not None, "call available() first"
    assert out.dtype == np.int64 and out.flags.c_contiguous
    use_simd = _simd(simd)
    lib.rc4_count_digraph(
        keys.ctypes.data, keys.shape[0], keys.shape[1], positions, out.ctypes.data,
        resolve_threads(
            threads, out.nbytes,
            lane_bytes=_SIMD_LANE_SCRATCH if use_simd else 0,
        ),
        use_simd,
    )


def count_longterm(
    keys: np.ndarray,
    stream_len: int,
    drop: int,
    gap: int,
    out: np.ndarray,
    *,
    threads: int | None = None,
    simd: bool | None = None,
) -> None:
    """Accumulate counter-binned long-term digraphs into (256, 256, 256)."""
    if not 0 <= gap <= 255:
        raise ValueError(f"gap must be 0..255, got {gap}")
    keys = _check_keys(keys)
    lib = _load()
    assert lib is not None, "call available() first"
    assert out.dtype == np.int64 and out.flags.c_contiguous
    use_simd = _simd(simd)
    lib.rc4_count_longterm(
        keys.ctypes.data, keys.shape[0], keys.shape[1], stream_len, drop, gap,
        out.ctypes.data,
        resolve_threads(
            threads, out.nbytes,
            lane_bytes=_SIMD_LANE_SCRATCH if use_simd else 0,
        ),
        use_simd,
    )


def count_digraph_rows(
    columns: np.ndarray,
    first: np.ndarray,
    partner: np.ndarray,
    xor: np.ndarray,
    out: list[np.ndarray],
    *,
    threads: int | None = None,
) -> None:
    """Accumulate templated digraph rows straight into their counters.

    Output row r (the r-th row of the ``out`` blocks, in order) counts,
    for every column k, the code ``(c[f, k] ^ c[p, k]) << 8 |
    (c[f + 1, k] ^ c[p + 1, k])`` XOR ``xor[r]``, where ``c`` is
    ``columns``, ``f = first[r]`` and ``p = partner[r]``; ``partner[r] <
    0`` drops the ``c[p]`` terms (a plain digraph row).  ``columns`` is a
    uint8 ``(L, n)`` block with unit column stride (row views of a wider
    block are fine) and every index must lie in ``0..L-2``; every
    ``out`` block is a C-contiguous uint32 ``(rows, 65536)`` array whose
    cells the caller keeps below 2^32.  The threads take the rows one at
    a time with no private counters, so the result is bit-exact for any
    thread count; a row that appears twice (two views of one counter)
    runs serially.
    """
    lib = _load()
    assert lib is not None, "call available() first"
    assert columns.dtype == np.uint8 and columns.ndim == 2
    assert columns.shape[1] <= 1 or columns.strides[1] == 1
    first = np.ascontiguousarray(first, dtype=np.intp)
    partner = np.ascontiguousarray(partner, dtype=np.intp)
    xor = np.ascontiguousarray(xor, dtype=np.uint16)
    pointers = []
    for block in out:
        assert block.dtype == np.uint32 and block.flags.c_contiguous
        assert block.ndim == 2 and block.shape[1] == 65536
        pointers.append(
            block.ctypes.data
            + np.arange(block.shape[0], dtype=np.uintp) * block.strides[0]
        )
    pointers = np.concatenate(pointers) if pointers else np.empty(0, np.uintp)
    rows = first.shape[0]
    assert partner.shape == xor.shape == pointers.shape == (rows,)
    threads = resolve_threads(threads)
    if np.unique(pointers).shape[0] != rows:
        threads = 1
    lib.rc4_count_digraph_rows(
        columns.ctypes.data, columns.strides[0], columns.shape[1], rows,
        first.ctypes.data, partner.ctypes.data, xor.ctypes.data,
        pointers.ctypes.data, threads,
    )


@functools.cache
def numpy_multinomial() -> int | None:
    """Address of numpy's exported C ``random_multinomial``, or None.

    The symbol is looked up in the shared object of
    ``numpy.random._generator``, as numpy's own
    ``random/_examples/cffi/extending.py`` does; None (a numpy build that
    does not export it) sends :func:`multinomial_rows`' callers to
    ``Generator.multinomial``, which draws the same bits.
    """
    try:
        lib = ctypes.CDLL(np.random._generator.__file__)
        return ctypes.cast(lib.random_multinomial, ctypes.c_void_p).value
    except (OSError, AttributeError):
        return None


def multinomial_rows(
    n: int,
    probs: list[np.ndarray],
    bitgens: list[np.random.BitGenerator],
    out: list[np.ndarray],
    *,
    threads: int | None = None,
) -> None:
    """Draw ``out[r] = multinomial(n, probs[r])`` on ``bitgens[r]``.

    Each row runs numpy's own C ``random_multinomial`` (see
    :func:`numpy_multinomial`) on its bit generator, into a zeroed row
    with a fresh binomial cache, so row r is bit-identical to
    ``np.random.Generator(bitgens[r]).multinomial(n, probs[r])`` from
    the same state and the generators advance as numpy's would.  The
    threads take the rows one at a time, so a thread whose CPU is busy
    elsewhere draws fewer rows instead of holding up the call with a
    fixed share; which thread draws a row changes no bit, so the result
    is bit-exact for any thread count.  ``probs`` and ``out`` hold
    C-contiguous float64 and int64 rows of one length, every row and
    generator distinct.  The C routine checks neither ``n`` nor the
    probabilities: the caller passes ``0 <= n < 2**63`` and rows numpy's
    ``multinomial`` would accept.  The generators must stay referenced
    until this returns (the caller's lists do that).
    """
    lib = _load()
    draw = numpy_multinomial()
    assert lib is not None and draw is not None, "call available() first"
    rows = len(out)
    if not len(probs) == len(bitgens) == rows:
        raise ValueError("probs, bitgens and out need one entry per row")
    if not 0 <= n < 1 << 63:
        raise ValueError(f"n must lie in [0, 2**63), got {n}")
    cells = out[0].shape[0] if rows else 0
    for p, o in zip(probs, out):
        if not (
            p.dtype == np.float64 and o.dtype == np.int64
            and p.shape == o.shape == (cells,)
            and p.flags.c_contiguous and o.flags.c_contiguous
            and o.flags.writeable
        ):
            raise ValueError(
                "rows must be C-contiguous 1-D float64 probabilities and "
                "writeable int64 outputs of one length"
            )
    prob_ptrs = np.array([p.ctypes.data for p in probs], dtype=np.uintp)
    out_ptrs = np.array([o.ctypes.data for o in out], dtype=np.uintp)
    gen_ptrs = np.array(
        [g.ctypes.bit_generator.value for g in bitgens], dtype=np.uintp
    )
    lib.rc4_multinomial_rows(
        draw, n, cells, rows, prob_ptrs.ctypes.data, gen_ptrs.ctypes.data,
        out_ptrs.ctypes.data, resolve_threads(threads),
    )


def lazy_walk_dtype(length: int) -> np.dtype:
    """One frontier entry of :func:`lazy_walk`, laid out as ``_native.c``'s
    ``walk_entry``: the score, the first position its children may
    increment, and its ``length`` per-position ranks."""
    return np.dtype(
        [("score", "<f8"), ("min_pos", "<u4"), ("ranks", "u1", (length,))],
        align=True,
    )


def lazy_walk(
    sorted_lam: np.ndarray,
    heap: np.ndarray,
    size: int,
    ranks: np.ndarray,
    scores: np.ndarray,
) -> tuple[int, int]:
    """Pop up to one block of the best-first walk over rank vectors.

    ``heap[:size]`` is a binary heap of :func:`lazy_walk_dtype` entries
    ordered by (score descending, ranks bytewise ascending).  Each pop
    writes its ranks to the next row of the uint8 ``(B, L)`` ``ranks``
    and its score to ``scores`` (B,), then pushes its children, scored
    from the float64 ``(L, 256)`` ``sorted_lam`` whose rows are in
    decreasing order.  The C side allocates nothing: ``heap`` must hold
    ``size + B * L`` entries, which the caller grows between calls.

    Returns:
        ``(popped, size)``: rows written (< B only once the walk runs
        dry) and the heap's new size.
    """
    lib = _load()
    assert lib is not None, "call available() first"
    length = sorted_lam.shape[0]
    block = scores.shape[0]
    if not (
        sorted_lam.dtype == np.float64 and sorted_lam.shape == (length, 256)
        and sorted_lam.flags.c_contiguous
        and heap.dtype == lazy_walk_dtype(length) and heap.ndim == 1
        and heap.flags.c_contiguous and heap.shape[0] >= size + block * length
        and ranks.dtype == np.uint8 and ranks.shape == (block, length)
        and ranks.flags.c_contiguous
        and scores.dtype == np.float64 and scores.flags.c_contiguous
        and length < 1 << 32
    ):
        raise ValueError(
            "lazy_walk needs C-contiguous (L, 256) float64 scores, a heap "
            "with room for size + B * L entries and (B, L) uint8 ranks"
        )
    new_size = ctypes.c_ssize_t(size)
    popped = lib.rc4_lazy_walk(
        sorted_lam.ctypes.data, length, heap.ctypes.data, heap.dtype.itemsize,
        ctypes.byref(new_size), block, ranks.ctypes.data, scores.ctypes.data,
    )
    return popped, new_size.value


def xor_loglik(counts: np.ndarray, log_p: np.ndarray) -> np.ndarray:
    """``out[r, mu] = sum_c counts[r, c] * log_p[r, mu ^ c]`` per row.

    Each cell adds its 256 terms in increasing ``c``, every product
    rounded before its add, on the calling thread; see
    :func:`repro.core.likelihood.single.xor_log_likelihoods`, which runs
    the same order in numpy.  ``counts`` and ``log_p`` are C-contiguous
    float64 ``(n, 256)`` arrays; returns a new float64 ``(n, 256)``.
    """
    lib = _load()
    assert lib is not None, "call available() first"
    if not (
        counts.dtype == log_p.dtype == np.float64
        and counts.ndim == 2 and counts.shape[1] == 256
        and counts.shape == log_p.shape
        and counts.flags.c_contiguous and log_p.flags.c_contiguous
    ):
        raise ValueError(
            "xor_loglik needs two C-contiguous float64 (n, 256) arrays"
        )
    out = np.empty(counts.shape, dtype=np.float64)
    lib.rc4_xor_loglik(
        counts.ctypes.data, log_p.ctypes.data, counts.shape[0], out.ctypes.data
    )
    return out


def transition_loglik(
    fm_rows: list[np.ndarray],
    cells: list[tuple[list[int], list[float], float]],
    total: float,
    alignments: list[list[tuple[np.ndarray, int, float, float]]],
) -> np.ndarray:
    """Eq 22-25 log-likelihoods of the §6 transitions, one row each.

    Row t starts from eq 15 over ``fm_rows[t]`` (65536 digraph
    counters): ``cells[t]`` holds the biased cells' keys ``(k1 << 8) |
    k2``, their ``log p`` and the transition's ``log u``.  Then each
    ``(counts, key, coef, offset)`` of ``alignments[t]`` adds
    ``counts[mu ^ key] * coef + offset`` to every cell ``mu``, in list
    order.  The arithmetic and its order are those of
    :func:`repro.tls.attack.transition_log_likelihoods`' numpy loop, so
    the bits match it; every weight is the caller's.  All counter rows
    are C-contiguous 65536-cell arrays of one dtype, uint32 or int64,
    read in place on the calling thread.  Returns a new float64
    ``(len(fm_rows), 65536)``.
    """
    lib = _load()
    assert lib is not None, "call available() first"
    rows = [counts for per_t in alignments for counts, _, _, _ in per_t]
    dtype = fm_rows[0].dtype if fm_rows else np.dtype(np.uint32)
    if not (
        len(cells) == len(alignments) == len(fm_rows)
        and dtype in (np.uint32, np.int64)
        and all(
            row.dtype == dtype and row.size == 65536 and row.flags.c_contiguous
            for row in [*fm_rows, *rows]
        )
    ):
        raise ValueError(
            "transition_loglik needs C-contiguous 65536-cell counter rows "
            "of one dtype, uint32 or int64, and one entry per transition"
        )

    def starts(lengths):
        return np.concatenate([[0], np.cumsum(lengths)]).astype(np.intp)

    cell_start = starts([len(keys) for keys, _, _ in cells])
    cell_key = np.array(
        [key for keys, _, _ in cells for key in keys], dtype=np.uint16
    )
    cell_logp = np.array(
        [lp for _, log_p, _ in cells for lp in log_p], dtype=np.float64
    )
    log_u = np.array([lu for _, _, lu in cells], dtype=np.float64)
    row_start = starts([len(per_t) for per_t in alignments])
    weights = [entry[1:] for per_t in alignments for entry in per_t]
    row_key = np.array([w[0] for w in weights], dtype=np.uint16)
    coef = np.array([w[1] for w in weights], dtype=np.float64)
    offset = np.array([w[2] for w in weights], dtype=np.float64)
    fm_ptrs = np.array([row.ctypes.data for row in fm_rows], dtype=np.uintp)
    row_ptrs = np.array([row.ctypes.data for row in rows], dtype=np.uintp)
    out = np.empty((len(fm_rows), 65536), dtype=np.float64)
    lib.rc4_transition_loglik(
        fm_ptrs.ctypes.data, row_ptrs.ctypes.data, int(dtype == np.int64),
        len(fm_rows), cell_start.ctypes.data, cell_key.ctypes.data,
        cell_logp.ctypes.data, log_u.ctypes.data, total,
        row_start.ctypes.data, row_key.ctypes.data, coef.ctypes.data,
        offset.ctypes.data, out.ctypes.data,
    )
    return out


def lazy_lists(
    lam: np.ndarray,
    alphabet: np.ndarray,
    last: int,
    best: np.ndarray,
    arg: np.ndarray,
    n: int,
) -> Iterator[np.ndarray | tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Algorithm 2's lazy lists, run by the C engine on the calling thread.

    The same walk as :func:`repro.core.candidates.viterbi._lazy_lists`
    (see that module for the order and arithmetic), asked for ``n`` (1
    to 2^32 - 1) rows over float64 likelihoods ``lam`` of shape
    ``(steps, 256, 256)`` whose inner two axes are C-contiguous (a
    broadcast first axis is fine).  ``alphabet`` holds the uint8 values
    of the unknown positions; ``best`` (float64) and ``arg`` (uint8) are
    ``(steps, k)`` arrays holding each node's rank 0 and its
    predecessor, the top step's one node in column 0.

    Yields the top node's scores (float64), then for each step from the
    top down to step 1 ``(preds, ranks, starts)``: the predecessor index
    (uint8) and rank (uint32) of every extension of the step's nodes,
    node after node, and each node's offset into them.  The C side holds
    the lists until the generator finishes or is closed.

    Raises:
        CandidateError: if the lists could not be allocated.
    """
    lib = _load()
    assert lib is not None, "call available() first"
    steps, k = best.shape
    if not (
        lam.dtype == np.float64 and lam.ndim == 3
        and lam.shape == (steps, 256, 256) and lam.strides[1:] == (2048, 8)
        and lam.strides[0] % 8 == 0
        and alphabet.dtype == np.uint8 and alphabet.shape == (k,)
        and best.dtype == np.float64 and arg.dtype == np.uint8
        and arg.shape == best.shape and steps >= 2
        and best.flags.c_contiguous and arg.flags.c_contiguous
        and alphabet.flags.c_contiguous and 1 <= n < 1 << 32
    ):
        raise ValueError(
            "lazy_lists needs (steps, 256, 256) float64 likelihoods, a "
            "uint8 alphabet, (steps, k) float64 best and uint8 arg, and "
            "1 <= n < 2**32"
        )
    counts = np.empty((steps, k), dtype=np.int64)
    held = ctypes.c_ssize_t(0)
    lists = lib.rc4_lazy_lists(
        lam.ctypes.data, lam.strides[0] // 8, steps, alphabet.ctypes.data, k,
        last, best.ctypes.data, arg.ctypes.data, n, counts.ctypes.data,
        ctypes.byref(held),
    )
    if not lists:
        raise CandidateError(
            f"Algorithm 2 ran out of memory for its lists at N = {n} "
            f"(holding {held.value / 2**20:.1f} MiB)"
        )
    try:
        top = steps - 1
        for step in range(top, 0, -1):
            nodes = counts[step, : 1 if step == top else k]
            size = int(nodes.sum())
            preds = np.empty(size, dtype=np.uint8)
            ranks = np.empty(size, dtype=np.uint32)
            scores = np.empty(size, dtype=np.float64) if step == top else None
            lib.rc4_lazy_lists_take(
                lists, step, preds.ctypes.data, ranks.ctypes.data,
                None if scores is None else scores.ctypes.data,
            )
            if scores is not None:
                yield scores
            yield preds, ranks, np.cumsum(nodes) - nodes
    finally:
        lib.rc4_lazy_lists_free(lists)
