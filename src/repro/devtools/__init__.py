"""repro.devtools — in-tree static analysis for the repro codebase.

A zero-dependency (stdlib :mod:`ast` only) lint framework that machine-checks
the invariants this reproduction depends on:

* **determinism** — every random draw flows through a seeded
  :class:`random.Random` substream (RPR001);
* **time-unit safety** — all time arithmetic is written in terms of the
  :mod:`repro.util.timeutil` constants, never magic second counts (RPR002);
* **layer architecture** — the package DAG
  ``util -> net -> {dhcp, ppp} -> isp -> atlas -> sim -> core -> runtime ->
  experiments`` only ever points downward (RPR003);
* **error policy** — no generic ``raise Exception`` or bare ``except:``
  (RPR004);
* **dataclass hygiene** — value-object dataclasses are frozen and mutable
  defaults use ``field(default_factory=...)`` (RPR005);
* **stage purity** — every function in the runtime stage graph infers PURE
  on the effect lattice (RPR006);
* **worker state** — worker tasks and process targets are picklable and
  worker modules mutate only initializer-owned globals (RPR008);
* **wire contracts** — serialized boundary types match the checked-in
  ``wire-contracts.json``, with a version bump on change (RPR010);
* **resource lifecycles** — sockets, channels, files, executors and
  temporary directories are closed on every path (RPR012).

RPR001–005 are per-file AST checks.  RPR006, RPR008, RPR010 and RPR012
are *interprocedural*:
:mod:`repro.devtools.callgraph` summarizes every file into a project-wide
call graph and import-reachability map, :mod:`repro.devtools.effects`
infers each function's position on the effect lattice
``PURE < READS_ENV < MUTATES_GLOBAL < IO < NONDETERMINISTIC`` by fixpoint
over that graph, and :mod:`repro.devtools.concurrency` runs the
must-close walk.

Run it as ``repro-lint src/repro`` (or ``python -m repro.devtools``); findings
on a line can be suppressed with a ``# repro: noqa[RPR001]`` comment.  The
driver supports incremental runs (``--cache``), SARIF output for CI
annotations (``--format sarif``) and regression gating against a
checked-in baseline (``--baseline`` / ``--update-baseline``).

This package sits outside the runtime layer DAG: nothing imports it, and it
imports only the leaf layers (``repro.errors``, ``repro.util``) so that it
can lint a broken tree.
"""

from repro.devtools.diagnostics import Diagnostic, Severity
from repro.devtools.driver import (
    FileContext,
    LintResult,
    lint_paths,
    lint_source,
    run_lint,
)
from repro.devtools.registry import (
    Checker,
    ProjectChecker,
    all_checkers,
    checker_for,
    register,
)

__all__ = [
    "Checker",
    "Diagnostic",
    "FileContext",
    "LintResult",
    "ProjectChecker",
    "Severity",
    "all_checkers",
    "checker_for",
    "lint_paths",
    "lint_source",
    "register",
    "run_lint",
]
