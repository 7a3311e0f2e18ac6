"""Ingestion policy and accounting for dataset readers.

The paper's pipeline ran over scraped operational data: truncated
connection logs, wrapped uptime counters, months missing from CAIDA's
pfx2as archive.  Every dataset reader therefore takes a
:class:`ReadPolicy`:

* ``STRICT`` (the default) keeps the historical all-or-nothing contract —
  the first malformed record raises :class:`~repro.errors.ParseError` /
  :class:`~repro.errors.DatasetError`;
* ``REPAIR`` survives dirty input — malformed records are *quarantined*,
  tolerably out-of-order records are re-sorted, wrapped counters are
  unwrapped — and every decision is accounted in an :class:`IngestReport`
  so results computed from a repaired load are auditable, never silently
  shaped by dropped data.

The invariant the fault-injection suite enforces: for every dataset,
``parsed + repaired + quarantined`` equals the number of record lines
actually presented to the reader.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field


class ReadPolicy(enum.Enum):
    """How a dataset reader treats malformed or inconsistent input."""

    #: Raise on the first bad record (historical behaviour, the default).
    STRICT = "strict"
    #: Quarantine bad records, repair recoverable ones, keep loading.
    REPAIR = "repair"


class IngestAction(enum.Enum):
    """What the reader did about one problematic record."""

    #: The record was recovered (re-ordered, counter unwrapped, ...).
    REPAIRED = "repaired"
    #: The record was dropped as unrecoverable.
    QUARANTINED = "quarantined"
    #: A dataset-level observation that is not tied to one record
    #: (missing month, missing file); does not enter record counts.
    NOTE = "note"


def format_line_error(source: str, line_number: int, message: object) -> str:
    """The unified location prefix for parser diagnostics.

    Every dataset parser (connlog, sosuptime, pfx2as, archive, kroot
    state) renders failures as ``<source>: line N: <message>`` so a
    failure inside a multi-file bundle is attributable to its file.
    """
    return "%s: line %d: %s" % (source, line_number, message)


def parse_probe_id(text: str) -> int:
    """``int(text)`` that fits an int64 column; ValueError otherwise."""
    probe_id = int(text)
    if not -2 ** 63 <= probe_id < 2 ** 63:
        raise ValueError("probe id out of range: %r" % (text,))
    return probe_id


def parse_finite(text: str) -> float:
    """``float(text)`` rejecting NaN and infinities with ValueError.

    A non-finite timestamp or counter is corrupt input, and it would
    make time-ordering (and REPAIR's re-sort) ill-defined.
    """
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("non-finite number: %r" % (text,))
    return value


@dataclass(frozen=True)
class IngestIssue:
    """One repaired/quarantined record or dataset-level note."""

    dataset: str
    source: str
    line: int | None
    action: IngestAction
    message: str

    def format(self) -> str:
        """Render as ``dataset source:line action message``."""
        location = self.source if self.line is None else (
            "%s:%d" % (self.source, self.line))
        return "[%s] %s %s: %s" % (
            self.dataset, self.action.value, location, self.message)

    def to_dict(self) -> dict[str, object]:
        """JSON-friendly representation."""
        return {
            "dataset": self.dataset,
            "source": self.source,
            "line": self.line,
            "action": self.action.value,
            "message": self.message,
        }


@dataclass
class DatasetIngest:
    """Record-level accounting for one dataset of a load."""

    name: str
    parsed: int = 0
    repaired: int = 0
    quarantined: int = 0

    @property
    def total(self) -> int:
        """All record lines presented to the reader."""
        return self.parsed + self.repaired + self.quarantined

    def to_dict(self) -> dict[str, object]:
        """JSON-friendly representation."""
        return {
            "name": self.name,
            "parsed": self.parsed,
            "repaired": self.repaired,
            "quarantined": self.quarantined,
            "total": self.total,
        }


@dataclass
class IngestReport:
    """Structured outcome of loading one bundle (or one stream).

    Readers call :meth:`parsed` / :meth:`repaired` / :meth:`quarantined`
    per record and :meth:`note` for dataset-level observations; callers
    render with :meth:`render` (text) or :meth:`to_dict` (JSON).
    """

    issues: list[IngestIssue] = field(default_factory=list)
    _datasets: dict[str, DatasetIngest] = field(default_factory=dict)

    def dataset(self, name: str) -> DatasetIngest:
        """Get-or-create the accounting row for one dataset."""
        if name not in self._datasets:
            self._datasets[name] = DatasetIngest(name)
        return self._datasets[name]

    def datasets(self) -> list[DatasetIngest]:
        """All dataset rows in first-touched order."""
        return list(self._datasets.values())

    # -- recording ---------------------------------------------------------

    def parsed(self, dataset: str, count: int = 1) -> None:
        """Count ``count`` clean records for a dataset."""
        self.dataset(dataset).parsed += count

    def repaired(self, dataset: str, source: str, line: int | None,
                 message: str) -> None:
        """Count one recovered record and remember why."""
        self.dataset(dataset).repaired += 1
        self.issues.append(IngestIssue(dataset, source, line,
                                       IngestAction.REPAIRED, message))

    def quarantined(self, dataset: str, source: str, line: int | None,
                    message: str) -> None:
        """Count one dropped record and remember why."""
        self.dataset(dataset).quarantined += 1
        self.issues.append(IngestIssue(dataset, source, line,
                                       IngestAction.QUARANTINED, message))

    def note(self, dataset: str, source: str, message: str) -> None:
        """Record a dataset-level observation outside the record counts."""
        self.dataset(dataset)
        self.issues.append(IngestIssue(dataset, source, None,
                                       IngestAction.NOTE, message))

    # -- queries -----------------------------------------------------------

    def issues_for(self, dataset: str) -> list[IngestIssue]:
        """All issues recorded against one dataset."""
        return [issue for issue in self.issues if issue.dataset == dataset]

    @property
    def clean(self) -> bool:
        """True when nothing was repaired, quarantined or noted."""
        return not self.issues

    # -- rendering ---------------------------------------------------------

    def render(self, max_issues: int = 20) -> str:
        """Human-readable summary table plus the first diagnostics."""
        lines = ["dataset      parsed  repaired  quarantined"]
        for ingest in self.datasets():
            lines.append("%-12s %6d  %8d  %11d" % (
                ingest.name, ingest.parsed, ingest.repaired,
                ingest.quarantined))
        if self.issues:
            lines.append("issues (%d total):" % len(self.issues))
            for issue in self.issues[:max_issues]:
                lines.append("  " + issue.format())
            if len(self.issues) > max_issues:
                lines.append("  ... %d more" % (len(self.issues) - max_issues))
        return "\n".join(lines)

    def to_dict(self) -> dict[str, object]:
        """JSON-friendly representation for ``--json`` style output."""
        return {
            "datasets": [ingest.to_dict() for ingest in self.datasets()],
            "issues": [issue.to_dict() for issue in self.issues],
        }
