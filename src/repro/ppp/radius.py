"""A minimal Radius server for PPPoE session authorization and accounting.

Maier et al. (cited in Section 5.3 of the paper) observed that neither CPE
nor Radius servers remember addresses, and that the Radius `Session-Timeout`
attribute is how an ISP caps session length — the mechanism behind the
paper's *periodic* address changes.  Private communication in the paper
confirmed a large European ISP uses PPPoE + Radius with a 24 h limit.

:class:`RadiusServer` grants access with an optional ``Session-Timeout`` and
keeps accounting records (Start/Stop) like a real deployment would.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import SimulationError


class AcctStatus(enum.Enum):
    """Accounting-Request Acct-Status-Type values we model."""

    START = "Start"
    STOP = "Stop"


@dataclass(frozen=True)
class AccessAccept:
    """Access-Accept attributes relevant to address lifetime."""

    username: str
    session_timeout: float | None

    def __post_init__(self) -> None:
        if self.session_timeout is not None and self.session_timeout <= 0:
            raise SimulationError(
                "Session-Timeout must be positive, got %r"
                % (self.session_timeout,)
            )


@dataclass(frozen=True)
class AccountingRecord:
    """One accounting event for a subscriber session."""

    username: str
    status: AcctStatus
    timestamp: float
    session_id: int
    terminate_cause: str | None = None


class RadiusServer:
    """Authorizes subscribers and records session accounting.

    ``session_timeout`` is the ISP-wide session length cap in seconds
    (None = unlimited).  Authorization is deliberately permissive — the
    churn analysis does not depend on credential handling — but unknown
    users can be rejected via ``known_users`` for tests.
    """

    def __init__(self, session_timeout: float | None = None,
                 known_users: set[str] | None = None) -> None:
        if session_timeout is not None and session_timeout <= 0:
            raise SimulationError("session timeout must be positive")
        self._session_timeout = session_timeout
        self._known_users = known_users
        self._records: list[AccountingRecord] = []
        #: Ids of every session that has had an Accounting Start.
        self._started: set[int] = set()
        self._next_session_id = 1

    @property
    def session_timeout(self) -> float | None:
        """The configured Session-Timeout in seconds, or None."""
        return self._session_timeout

    @property
    def accounting_records(self) -> list[AccountingRecord]:
        """All accounting records in arrival order."""
        return list(self._records)

    def authorize(self, username: str) -> AccessAccept:
        """Handle an Access-Request; raises for unknown users."""
        if self._known_users is not None and username not in self._known_users:
            raise SimulationError("Access-Reject for %r" % username)
        return AccessAccept(username, self._session_timeout)

    def account_start(self, username: str, now: float) -> int:
        """Record an Accounting Start; returns the session id."""
        session_id = self._next_session_id
        self._next_session_id += 1
        self._records.append(
            AccountingRecord(username, AcctStatus.START, now, session_id)
        )
        self._started.add(session_id)
        return session_id

    def account_stop(self, username: str, now: float, session_id: int,
                     terminate_cause: str) -> None:
        """Record an Accounting Stop with a terminate cause.

        Any earlier Start for the session makes the Stop valid.
        """
        if session_id not in self._started:
            raise SimulationError(
                "accounting stop for unknown session %d" % session_id
            )
        self._records.append(
            AccountingRecord(username, AcctStatus.STOP, now, session_id,
                             terminate_cause=terminate_cause)
        )

    def session_durations(self, username: str) -> list[float]:
        """Return completed session lengths for a subscriber (for tests)."""
        starts: dict[int, float] = {}
        durations: list[float] = []
        for record in self._records:
            if record.username != username:
                continue
            if record.status is AcctStatus.START:
                starts[record.session_id] = record.timestamp
            elif record.session_id in starts:
                durations.append(record.timestamp - starts.pop(record.session_id))
        return durations
