"""Global scaling, randomness, and backend configuration.

The paper's statistics were computed from 2**44 .. 2**47 RC4 keystreams on
a distributed cluster; this reproduction exposes the same code paths at
laptop scale.  A handful of environment variables control every sample
count and backend knob in the library:

``REPRO_SCALE``
    A positive float multiplying the default sample counts (default 1.0).
    Benchmarks are sized so the whole suite finishes in minutes at 1.0;
    set e.g. ``REPRO_SCALE=16`` to spend more CPU and tighten the
    statistics.

``REPRO_SEED``
    Master seed for deterministic runs (default 20150812, the USENIX'15
    presentation date).  Every component derives child seeds from this
    via :func:`child_seed`, so independent subsystems never share streams.

``REPRO_NATIVE`` / ``REPRO_NATIVE_THREADS`` / ``REPRO_NATIVE_SIMD`` /
``REPRO_NATIVE_CC``
    The compiled statistics backend (:mod:`repro.rc4._native`): enabled
    flag, kernel thread count (default ``os.cpu_count()``), the
    runtime-dispatched AVX2 wide kernels (on by default, harmless on
    hardware without AVX2; off runs the scalar kernels), and a compiler
    pin.  All results are bit-exact for every setting.  The enabled flag
    and the compiler pin act once per process, when the backend first
    loads, so they have no :class:`ReproConfig` field.

This module is the *only* place in ``src/repro`` that reads ``REPRO_*``
environment variables.  Library code goes through :func:`get_config` (or
the ``env_native_*`` accessors for the process-global backend), so tests
can construct explicit :class:`ReproConfig` instances.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

DEFAULT_SEED = 20150812
_ENV_SCALE = "REPRO_SCALE"
_ENV_SEED = "REPRO_SEED"
_ENV_NATIVE = "REPRO_NATIVE"
_ENV_NATIVE_THREADS = "REPRO_NATIVE_THREADS"
_ENV_NATIVE_SIMD = "REPRO_NATIVE_SIMD"
_ENV_NATIVE_CC = "REPRO_NATIVE_CC"

#: Values that switch a boolean knob off (REPRO_NATIVE=0,
#: REPRO_NATIVE_SIMD=0).
_OFF_VALUES = ("0", "off", "false")


@dataclass(frozen=True)
class ReproConfig:
    """Immutable run configuration.

    Attributes:
        scale: multiplier applied to default sample counts (> 0).
        seed: master seed from which all child RNG streams derive.
        native_threads: thread count for the native kernels; ``None``
            means the backend default (``os.cpu_count()``).
        native_simd: allow the runtime-dispatched AVX2 wide kernels (32
            states per loop); silently degrades to the scalar tier on
            hardware or builds without AVX2.
    """

    scale: float = 1.0
    seed: int = DEFAULT_SEED
    native_threads: int | None = None
    native_simd: bool = True

    def __post_init__(self) -> None:
        if not (self.scale > 0.0):
            raise ConfigError(f"scale must be positive, got {self.scale!r}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative int, got {self.seed!r}")
        if self.native_threads is not None:
            if not isinstance(self.native_threads, int) or self.native_threads < 1:
                raise ConfigError(
                    f"native_threads must be a positive int or None, "
                    f"got {self.native_threads!r}"
                )

    def scaled(
        self, count: int, *, minimum: int = 1, maximum: int | None = None
    ) -> int:
        """Scale a default sample count by ``self.scale``, with clamping."""
        value = max(minimum, int(round(count * self.scale)))
        if maximum is not None:
            value = min(value, maximum)
        return value

    def rng(self, *labels: object) -> np.random.Generator:
        """Return a child RNG uniquely determined by ``(seed, *labels)``."""
        return np.random.default_rng(child_seed(self.seed, *labels))


def child_seed(master: int, *labels: object) -> int:
    """Derive a deterministic 63-bit child seed from a master seed and labels.

    Uses ``numpy``'s SeedSequence entropy spawning keyed by a stable hash of
    the labels, so distinct label tuples give independent streams.
    """
    key = [master]
    for label in labels:
        data = repr(label).encode("utf-8")
        acc = 2166136261
        for byte in data:
            acc = ((acc ^ byte) * 16777619) & 0xFFFFFFFF
        key.append(acc)
    seq = np.random.SeedSequence(key)
    return int(seq.generate_state(1, dtype=np.uint64)[0] >> 1)


def env_native_enabled() -> bool:
    """``REPRO_NATIVE``: False only on an explicit 0/off/false."""
    return os.environ.get(_ENV_NATIVE, "").strip() not in _OFF_VALUES


def env_native_threads() -> int | None:
    """``REPRO_NATIVE_THREADS`` as an int, or ``None`` when unset."""
    raw = os.environ.get(_ENV_NATIVE_THREADS, "").strip()
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(
            f"{_ENV_NATIVE_THREADS} must be an integer, got {raw!r}"
        ) from exc


def env_native_simd() -> bool:
    """``REPRO_NATIVE_SIMD``: False only on an explicit 0/off/false."""
    return os.environ.get(_ENV_NATIVE_SIMD, "").strip() not in _OFF_VALUES


def env_native_cc() -> str | None:
    """``REPRO_NATIVE_CC``: pinned compiler path, or ``None`` when unset."""
    pinned = os.environ.get(_ENV_NATIVE_CC, "").strip()
    return pinned or None


def get_config() -> ReproConfig:
    """Build a :class:`ReproConfig` from the environment (or defaults)."""
    raw_scale = os.environ.get(_ENV_SCALE, "1.0")
    raw_seed = os.environ.get(_ENV_SEED, str(DEFAULT_SEED))
    try:
        scale = float(raw_scale)
    except ValueError as exc:
        raise ConfigError(f"{_ENV_SCALE} must be a float, got {raw_scale!r}") from exc
    try:
        seed = int(raw_seed)
    except ValueError as exc:
        raise ConfigError(f"{_ENV_SEED} must be an int, got {raw_seed!r}") from exc
    threads = env_native_threads()
    if threads is not None:
        # The kernels clamp to >= 1 themselves; the typed field validates.
        threads = max(1, threads)
    return ReproConfig(
        scale=scale,
        seed=seed,
        native_threads=threads,
        native_simd=env_native_simd(),
    )
