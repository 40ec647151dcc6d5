"""On-disk dataset store: counters plus the spec that produced them.

Thin wrapper over :mod:`repro.utils.serialization` that records the
:class:`~repro.datasets.manager.DatasetSpec` fields in the metadata and
validates them on load, so cached statistics are never silently reused
for a different experiment.  :func:`dataset_cache_path` derives the
deterministic cache location the :class:`repro.api.Session` dataset
cache uses.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import asdict
from pathlib import Path
from typing import Self

import numpy as np

from ..config import ReproConfig
from ..errors import AttackError, DatasetError, StatisticsKindError
from ..utils.serialization import canonical_json, load_arrays, save_arrays
from .manager import DatasetSpec


def dataset_cache_path(
    root: str | Path, spec: DatasetSpec, config: ReproConfig
) -> Path:
    """Deterministic cache file for ``spec`` generated under ``config``.

    The digest covers every spec field plus the master seed — the two
    inputs that fully determine the counters (scale only influences how
    callers choose ``spec.num_keys``).  The kind and label stay in the
    filename so humans can tell cache entries apart.
    """
    payload = {"spec": _spec_to_meta(spec), "seed": config.seed}
    digest = hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()
    slug = re.sub(r"[^A-Za-z0-9_.-]+", "-", spec.label) or "dataset"
    return Path(root) / f"{spec.kind}-{slug}-{digest[:16]}.npz"


def save_dataset(path: str | Path, counts: np.ndarray, spec: DatasetSpec) -> Path:
    """Persist counters and their generating spec."""
    meta = {"spec": _spec_to_meta(spec)}
    return save_arrays(path, {"counts": counts}, meta)


def load_dataset(
    path: str | Path, expected_spec: DatasetSpec | None = None
) -> tuple[np.ndarray, DatasetSpec]:
    """Load counters; optionally require that the stored spec matches."""
    arrays, meta = load_arrays(path)
    if "counts" not in arrays:
        raise DatasetError(f"{path}: no 'counts' array")
    spec = _spec_from_meta(meta.get("spec"))
    if expected_spec is not None and spec != expected_spec:
        raise DatasetError(
            f"{path}: stored spec {spec} does not match expected {expected_spec}"
        )
    return arrays["counts"], spec


def save_statistics(
    path: str | Path,
    kind: str,
    arrays: dict[str, np.ndarray],
    meta: dict,
) -> Path:
    """Persist capture sufficient statistics (see :mod:`repro.capture`).

    Same NPZ container as the dataset store, tagged with a
    ``statistics_kind`` so a capture checkpoint is never mistaken for a
    dataset (or for the other attack's statistics) on load.  Written
    uncompressed: capture counters are checkpointed every few batches,
    and deflating their int64 cells took several times as long as the
    counting between two checkpoints.  Each member keeps its zip CRC-32,
    so a torn or flipped byte still fails the load.
    """
    payload = dict(meta)
    if "statistics_kind" in payload:
        raise DatasetError("'statistics_kind' is a reserved metadata key")
    payload["statistics_kind"] = kind
    return save_arrays(path, arrays, payload, compress=False)


def load_statistics(
    path: str | Path, kind: str
) -> tuple[dict[str, np.ndarray], dict]:
    """Load statistics written by :func:`save_statistics`, checking the kind.

    Raises:
        StatisticsKindError: (a :class:`DatasetError`) if the archive is
            readable but holds another ``statistics_kind``.
    """
    arrays, meta = load_arrays(path)
    found = meta.get("statistics_kind")
    if found != kind:
        raise StatisticsKindError(
            f"{path}: statistics kind {found!r} does not match expected "
            f"{kind!r}",
            found=found,
            expected=kind,
        )
    return arrays, meta


class ArchivedStatistics:
    """``save``/``load`` of capture statistics in archive form.

    A subclass names its ``statistics_kind`` in ``KIND`` and splits its
    NPZ form into ``archive() -> (arrays, meta)`` and the classmethod
    ``from_archive(arrays, meta)``.
    """

    KIND: str

    def save(self, path: str | Path, *, extra: dict | None = None) -> Path:
        """Uncompressed NPZ persistence (:func:`save_statistics`) of the
        archive, with ``extra`` in its metadata."""
        arrays, meta = self.archive()
        return save_statistics(
            path, self.KIND, arrays, {**meta, "extra": extra or {}}
        )

    @classmethod
    def load(cls, path: str | Path) -> tuple[Self, dict]:
        """Load what :meth:`save` wrote; returns (stats, extra).

        Raises:
            DatasetError: on an unreadable archive or another kind.
            AttackError: naming ``path``, on counters that do not match
                their metadata.
        """
        arrays, meta = load_statistics(path, cls.KIND)
        try:
            stats = cls.from_archive(arrays, meta)
        except AttackError as exc:
            raise AttackError(f"{path}: {exc}") from None
        return stats, meta.get("extra", {})


def _spec_to_meta(spec: DatasetSpec) -> dict:
    meta = asdict(spec)
    meta["pairs"] = [list(p) for p in spec.pairs]
    return meta


def _spec_from_meta(meta: object) -> DatasetSpec:
    if not isinstance(meta, dict):
        raise DatasetError("dataset metadata is missing the generating spec")
    fields = dict(meta)
    fields["pairs"] = tuple(tuple(p) for p in fields.get("pairs", ()))
    try:
        return DatasetSpec(**fields)
    except TypeError as exc:
        raise DatasetError(f"bad dataset spec metadata: {meta!r}") from exc
