"""Descriptor → :class:`~repro.capture.engine.CaptureSource` factories.

A fleet manifest carries only a JSON descriptor; every worker — possibly
on another machine — rebuilds the live source from it.  The mapping from
``descriptor["kind"]`` to a factory lives here, and is extensible so the
fault-injection tests can register deliberately broken sources without
touching production code.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from ..config import ReproConfig
from ..errors import ManifestError

SourceFactory = Callable[[dict, ReproConfig], Any]

_FACTORIES: Dict[str, SourceFactory] = {}


def register_source(kind: str, factory: SourceFactory) -> None:
    """Register (or override) the factory for a descriptor kind."""
    _FACTORIES[kind] = factory


def _https_factory(descriptor: dict, config: ReproConfig):
    from ..capture.https import HttpsCaptureSource

    return HttpsCaptureSource.from_descriptor(descriptor, config)


def _tkip_factory(descriptor: dict, config: ReproConfig):
    from ..capture.tkip import TkipCaptureSource

    return TkipCaptureSource.from_descriptor(descriptor, config)


# One source per attack; a source with victim ids records the multi-* kind.
register_source("https-capture", _https_factory)
register_source("multi-https-capture", _https_factory)
register_source("tkip-capture", _tkip_factory)
register_source("multi-tkip-capture", _tkip_factory)


def build_source(descriptor: dict, config: ReproConfig):
    """Rebuild the capture source a manifest descriptor records.

    The returned source must reproduce the originating campaign
    bit-exactly (the caller verifies ``source.fingerprint()`` against
    the manifest before trusting it).
    """
    kind = descriptor.get("kind")
    factory = _FACTORIES.get(kind)
    if factory is None:
        raise ManifestError(
            f"no capture-source factory registered for kind {kind!r} "
            f"(known: {sorted(_FACTORIES)})"
        )
    return factory(descriptor, config)
