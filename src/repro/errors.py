"""Exception hierarchy for the repro package.

All library-specific failures derive from :class:`ReproError` so callers can
catch one base class; parsing and simulation errors are distinguished
because dataset parsers are exercised against malformed input in tests.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(ReproError):
    """A dataset record or address literal could not be parsed."""


class DatasetError(ReproError):
    """A dataset is internally inconsistent (out of order, missing month)."""


class ObservabilityError(ReproError):
    """A trace file or metrics payload violates the repro.obs schema."""


class SupervisionError(ReproError):
    """The supervised executor could not keep its worker processes alive."""


class EnvelopeCorruptError(SupervisionError):
    """A shard result envelope failed its integrity seal check."""


class DistError(ReproError):
    """The distributed coordinator/worker runtime failed irrecoverably."""


class WireProtocolError(DistError):
    """A dist socket frame violated the length-prefixed wire protocol."""


class SimulationError(ReproError):
    """A scenario is invalid or the simulator reached an impossible state."""


class PoolExhaustedError(SimulationError):
    """An ISP address pool had no free address to allocate."""
