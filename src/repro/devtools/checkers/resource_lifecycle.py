"""RPR012 — every acquired resource must be closed on every path.

Sockets, ``Channel``s, file handles, executors and temporary
files/directories are acquired all over the dist/runtime layers — and
an acquisition that leaks on an exception path exhausts descriptors
under fault injection, wedges CI workers, and (for executors) strands
worker processes whose half-written artifacts poison exact accounting.

The analysis (:mod:`repro.devtools.concurrency`) walks each function
path-sensitively, tracking an obligation per acquired local.  An
obligation is discharged by:

* a ``with`` block (the context manager closes it);
* a close call (``close``/``shutdown``/``terminate``/``cleanup``)
  protected by ``try``/``finally`` or a closing ``except`` handler;
* ownership transfer — returning the resource, passing it to a callee
  (registering a socket with the selector loop that closes it
  transfers the obligation), or
  storing it on a ``self`` field that some method of the class closes.

Calls to project functions that *return* an open resource create the
same obligation in the caller — resolved by a project-level fixpoint,
so the witness chain crosses function boundaries.

A trigger looks like::

    def dial(host, port):
        sock = socket.create_connection((host, port))
        sock.settimeout(5.0)        # raises -> sock leaks
        return Channel(sock)

and is fixed by closing on the error path::

    sock = socket.create_connection((host, port))
    try:
        sock.settimeout(5.0)
    except OSError:
        sock.close()
        raise
    return Channel(sock)

Suppress an intentional leak on the *acquisition* line with a reason::

    pool = ProcessPoolExecutor(2)  # repro: noqa[RPR012] -- process-lifetime pool, reaped at exit
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.devtools.concurrency import LifecycleAnalysis
from repro.devtools.registry import ProjectChecker, register

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.devtools.callgraph import Project
    from repro.devtools.diagnostics import Diagnostic
    from repro.devtools.effects import EffectAnalysis


@register
class ResourceLifecycleChecker(ProjectChecker):
    rule = "RPR012"
    summary = ("sockets, channels, files, executors and tempdirs must be "
               "closed on every path or have their ownership transferred")

    def check_project(self, project: "Project", effects: "EffectAnalysis",
                      ) -> Iterator["Diagnostic"]:
        analysis = LifecycleAnalysis(project)
        for finding in analysis.findings():
            yield self.project_diagnostic(finding.path, finding.line,
                                          finding.message)
