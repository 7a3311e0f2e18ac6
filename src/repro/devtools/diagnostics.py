"""Structured diagnostics emitted by the lint checkers.

A :class:`Diagnostic` is a frozen value object so that checkers can be pure
functions from a file context to a stream of findings, and so the driver can
sort, deduplicate and serialize them without surprises.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Severity(enum.Enum):
    """How seriously a finding should be taken.

    ``ERROR`` findings fail the build; ``WARNING`` findings are reported but
    do not affect the exit status (reserved for checkers being phased in).
    """

    WARNING = "warning"
    ERROR = "error"


@dataclass(frozen=True, order=True)
class Diagnostic:
    """One finding: a rule fired at a location with a message.

    Field order matters: the dataclass is ``order=True`` so sorting a list of
    diagnostics groups them by file, then line, then column, then rule.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    severity: Severity = Severity.ERROR

    def format(self) -> str:
        """Render in the conventional ``path:line:col: RULE message`` shape."""
        return "%s:%d:%d: %s [%s] %s" % (
            self.path, self.line, self.col, self.severity.value.upper(),
            self.rule, self.message,
        )

    def to_dict(self) -> dict[str, object]:
        """JSON-friendly representation for ``repro-lint --json``."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "severity": self.severity.value,
            "message": self.message,
        }
