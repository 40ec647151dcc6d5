"""Versioned on-disk storage for counter arrays and metadata.

Datasets are stored as ``.npz`` archives with a JSON metadata blob under
the reserved key ``__meta__``.  The format is self-describing so a dataset
generated at one scale can be validated before use at another.

The module also hosts the canonical-JSON helpers the experiment API
(:mod:`repro.api`) uses for :class:`~repro.api.ExperimentResult`
round-tripping: :func:`to_jsonable` normalises numpy scalars/arrays and
tuples into JSON-native values, and :func:`canonical_json` renders them
deterministically (sorted keys, fixed separators) so serialising the
same record twice is bit-identical.
"""

from __future__ import annotations

import json
import os
import warnings
import zipfile
import zlib
from pathlib import Path
from typing import Any, Iterator, Mapping

import numpy as np

from ..errors import DatasetError

FORMAT_VERSION = 1
_META_KEY = "__meta__"


def to_jsonable(value: Any) -> Any:
    """Recursively convert ``value`` into JSON-native types.

    Numpy integers/floats/bools become Python scalars, numpy arrays and
    tuples become lists, ``bytes`` become latin-1 strings (lossless for
    arbitrary byte values), and mappings get string keys.  Raises
    :class:`TypeError` for values with no faithful JSON form.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, bytes):
        return value.decode("latin-1")
    if isinstance(value, np.ndarray):
        return [to_jsonable(item) for item in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [to_jsonable(item) for item in value]
    if isinstance(value, Mapping):
        return {str(key): to_jsonable(item) for key, item in value.items()}
    raise TypeError(f"value of type {type(value).__name__} is not JSON-serialisable")


def canonical_json(value: Any) -> str:
    """Deterministic JSON rendering (sorted keys, fixed separators).

    ``canonical_json(json.loads(canonical_json(x))) == canonical_json(x)``
    for every jsonable ``x`` — the bit-identical round-trip property the
    experiment-result format relies on.  NaN/Infinity are rejected
    (``allow_nan=False``): they have no standard JSON form and NaN would
    silently break round-trip equality.
    """
    return json.dumps(
        to_jsonable(value), sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def append_jsonl(path: str | Path, record: Any) -> str:
    """Durably append one canonical-JSON line to ``path``.

    The line is rendered with :func:`canonical_json`, written with a
    single ``write(2)`` on an ``O_APPEND`` descriptor (atomic with
    respect to concurrent appenders on POSIX filesystems), and fsync'd
    before returning — the append-only discipline the results warehouse
    (:mod:`repro.warehouse`) builds on.  If the file currently ends in a
    torn line (a writer crashed mid-append, leaving no trailing
    newline), a newline is prefixed so the torn bytes become one
    isolated corrupt line instead of swallowing this record.

    Returns the exact line written (without the trailing newline).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    line = canonical_json(record)
    data = (line + "\n").encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        try:
            with open(path, "rb") as fh:
                fh.seek(0, os.SEEK_END)
                if fh.tell() > 0:
                    fh.seek(-1, os.SEEK_END)
                    if fh.read(1) != b"\n":
                        data = b"\n" + data
        except OSError:
            pass
        os.write(fd, data)
        os.fsync(fd)
    finally:
        os.close(fd)
    return line


def durable_replace(tmp: str | Path, path: str | Path) -> None:
    """Atomically publish the written file ``tmp`` as ``path``.

    fsyncs ``tmp``, renames it over ``path`` and then fsyncs the parent
    directory, which records the rename: after a crash ``path`` is the
    old file or the whole new one, and once this returns it stays the
    new one.
    """
    _fsync(tmp)
    os.replace(tmp, path)
    _fsync(Path(path).parent)


def _fsync(path: str | Path) -> None:
    """Flush a file's or a directory's entries to stable storage."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def iter_jsonl(
    path: str | Path, *, label: str = "record"
) -> Iterator[tuple[int, Any]]:
    """Yield ``(line_number, parsed_record)`` for each line of ``path``.

    Blank lines are ignored; lines that fail to parse as JSON are
    skipped with a :class:`RuntimeWarning` naming the line — corruption
    never silently hides the records around it, and never aborts a load.
    """
    path = Path(path)
    if not path.exists():
        return
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for lineno, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                yield lineno, json.loads(raw)
            except json.JSONDecodeError as exc:
                warnings.warn(
                    f"{path}:{lineno}: skipping corrupt {label} ({exc})",
                    RuntimeWarning,
                    stacklevel=2,
                )


def save_arrays(
    path: str | Path,
    arrays: Mapping[str, np.ndarray],
    metadata: Mapping[str, Any],
    *,
    compress: bool = True,
) -> Path:
    """Durably save named arrays plus JSON metadata to ``path`` (``.npz``).

    The archive is written to a temp name of this process
    (``<stem>.tmp.<pid>.npz``) and published with :func:`durable_replace`,
    so ``path`` is always the old archive or the whole new one, and is on
    stable storage when this returns.  Two processes writing one path
    never share a temp file, and a write that raises removes its temp
    file.

    ``compress=False`` stores the members uncompressed (``np.savez``):
    each member keeps its zip CRC-32, and :func:`load_arrays` reads both
    forms.  Returns the written path (``.npz`` appended when missing).
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    if _META_KEY in arrays:
        raise DatasetError(f"array name {_META_KEY!r} is reserved")
    meta = dict(metadata)
    meta["format_version"] = FORMAT_VERSION
    encoded = json.dumps(meta, sort_keys=True).encode("utf-8")
    blob = np.frombuffer(encoded, dtype=np.uint8)
    path.parent.mkdir(parents=True, exist_ok=True)
    save = np.savez_compressed if compress else np.savez
    # The temp name ends in .npz, or np.savez would append it.
    tmp = path.with_name(f"{path.stem}.tmp.{os.getpid()}.npz")
    try:
        save(tmp, **{_META_KEY: blob}, **arrays)
        durable_replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def atomic_write_json(path: str | Path, payload: Mapping[str, Any]) -> None:
    """Durably replace ``path`` with ``payload`` as canonical JSON.

    Written to a temp name of this process and published with
    :func:`durable_replace`, like :func:`save_arrays`.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        tmp.write_text(canonical_json(payload))
        durable_replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_json(path: str | Path) -> dict[str, Any]:
    """Read a JSON object written by :func:`atomic_write_json`.

    Raises:
        DatasetError: naming ``path`` when it cannot be read, is not
            JSON (say, torn by a crash) or holds something other than an
            object.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise DatasetError(f"{path}: unreadable JSON record ({exc})") from exc
    if not isinstance(payload, dict):
        raise DatasetError(f"{path}: expected a JSON object")
    return payload


def load_arrays(path: str | Path) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
    """Load arrays and metadata previously written by :func:`save_arrays`.

    Raises:
        DatasetError: naming ``path`` when it is missing, is not a repro
            archive, or is truncated or corrupt (a torn write surfaces
            here, never as a raw ``zipfile``/``zlib`` error).
    """
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"dataset not found: {path}")
    try:
        with np.load(path, allow_pickle=False) as archive:
            if _META_KEY not in archive:
                raise DatasetError(f"{path} has no metadata; not a repro dataset")
            meta = json.loads(bytes(archive[_META_KEY]).decode("utf-8"))
            version = meta.get("format_version")
            if version != FORMAT_VERSION:
                raise DatasetError(
                    f"{path}: unsupported format version {version!r} "
                    f"(expected {FORMAT_VERSION})"
                )
            arrays = {
                name: archive[name] for name in archive.files if name != _META_KEY
            }
    except (zipfile.BadZipFile, zlib.error, EOFError, ValueError) as exc:
        raise DatasetError(
            f"{path} is truncated or corrupt ({exc.__class__.__name__}: {exc})"
        ) from exc
    return arrays, meta
