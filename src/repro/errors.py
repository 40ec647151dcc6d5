"""Exception hierarchy for the :mod:`repro` library.

All library-specific failures derive from :class:`ReproError` so callers
can catch one base class.  Subclasses mirror the major subsystems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError, ValueError):
    """Invalid scaling/seed/backend configuration.

    Also a :class:`ValueError`: configuration failures are malformed
    values, and callers validating e.g. ``REPRO_NATIVE_THREADS`` catch
    ``ValueError`` without importing the repro hierarchy.
    """


class KeyLengthError(ReproError):
    """An RC4 key is empty or longer than 256 bytes."""


class DatasetError(ReproError):
    """A keystream-statistics dataset is malformed or incompatible."""


class StatisticsKindError(DatasetError):
    """A readable statistics archive holds another kind than expected.

    Attributes:
        found: the archive's ``statistics_kind`` (None if it has none).
        expected: the kind the loader asked for.
    """

    def __init__(self, message: str, *, found: object, expected: str):
        super().__init__(message)
        self.found = found
        self.expected = expected


class DistributionError(ReproError):
    """A keystream distribution is malformed (wrong shape, not normalised)."""


class LikelihoodError(ReproError):
    """Likelihood computation received inconsistent inputs."""


class CandidateError(ReproError):
    """Candidate enumeration received inconsistent inputs."""


class PacketError(ReproError):
    """A network packet could not be built or parsed."""


class MichaelError(ReproError):
    """Michael MIC computation or inversion failed."""


class TkipError(ReproError):
    """TKIP encapsulation/decapsulation failure (bad ICV, bad MIC, replay)."""


class TlsError(ReproError):
    """TLS record protocol failure (bad MAC, bad length, bad sequence)."""


class AttackError(ReproError):
    """An attack pipeline could not complete (e.g. no candidate survived)."""


class CaptureError(ReproError):
    """The capture engine was misconfigured or a checkpoint is unusable."""


class CampaignError(ReproError):
    """A victim-population campaign was declared or resumed inconsistently."""


class WarehouseError(ReproError):
    """The results warehouse hit a malformed store or record."""


class SweepError(WarehouseError):
    """A parameter sweep was declared inconsistently."""


class ExperimentError(ReproError):
    """The experiment registry or an experiment run failed."""


class UnknownExperimentError(ExperimentError):
    """A requested experiment name is not in the registry."""


class ExperimentParamError(ExperimentError):
    """An experiment received an unknown or ill-typed parameter."""
