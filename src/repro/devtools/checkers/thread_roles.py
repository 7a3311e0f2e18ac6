"""RPR011 — cross-thread shared state must be locked, confined, or safe.

The distributed layer runs threads: the coordinator's selector loop
runs beside the runner thread it serves, and loopback mode dials the
coordinator from worker threads in the same process.  A mutable
``self`` attribute or module global written from one *thread role* and
touched from another without a common lock is a data race — exactly
the interleaving hazard that silently corrupts the exact-accounting and
digest-equality guarantees the headline results rest on.

The analysis (:mod:`repro.devtools.concurrency`) infers roles from
``threading.Thread(target=...)`` sites and ``add_done_callback``
registrations, propagates them along resolved call edges, and checks
every shared location written outside the constructor.  An access is
exempt when:

* every racing pair shares a textual ``with <lock>`` guard — held
  locally or inherited interprocedurally (a callee whose every in-role
  call site sits under ``with self._lock`` is lock-dominated);
* the attribute is thread-confined — written only in ``__init__`` /
  ``__post_init__``, before another thread can see the object;
* the value is an intrinsically safe type (``threading.Event``,
  ``queue.Queue``, ... — the wire-contract-pinned
  :data:`~repro.devtools.concurrency.SAFE_TYPE_NAMES` set) or an
  RPR008 initializer-owned worker global.

A trigger looks like::

    class Server:
        def __init__(self):
            self.hits = 0
            threading.Thread(target=self._serve).start()
        def _serve(self):
            self.hits += 1       # written from thread '..._serve'
        def report(self):
            return self.hits     # read from main, no common lock

Fix by holding one consistent lock at every cross-thread access, or
suppress an intentional pattern on the *write* line with a reason::

    self._connections += 1  # repro: noqa[RPR011] -- one thread drives each instance; the roles are two deployments
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.devtools.concurrency import RaceAnalysis
from repro.devtools.registry import ProjectChecker, register

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.devtools.callgraph import Project
    from repro.devtools.diagnostics import Diagnostic
    from repro.devtools.effects import EffectAnalysis


@register
class ThreadRoleChecker(ProjectChecker):
    rule = "RPR011"
    summary = ("shared state crossing thread roles must be lock-guarded, "
               "thread-confined, or an intrinsically safe type")

    def check_project(self, project: "Project", effects: "EffectAnalysis",
                      ) -> Iterator["Diagnostic"]:
        analysis = RaceAnalysis(project)
        for finding in analysis.findings():
            yield self.project_diagnostic(finding.path, finding.line,
                                          finding.message)
