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
* **wire contracts** — serialized boundary types match the checked-in
  ``wire-contracts.json``, with a version bump on change (RPR010).

RPR001–005 are per-file AST checks.  RPR010 is a whole-project check
over the wire-contract declarations of every linted file.  Stage purity
and worker state are not lint rules: tests watch them as the code runs
(``tests/runtime/guards.py``, DESIGN §10).

Run it as ``repro-lint src/repro`` (or ``python -m repro.devtools``); findings
on a line can be suppressed with a ``# repro: noqa[RPR001]`` comment.
``--json`` prints a versioned payload, ``--rules`` runs a subset, and
``--contracts`` / ``--update-contracts`` pin and regenerate the RPR010
contract file.

This package sits outside the runtime layer DAG: nothing imports it, and it
imports only the leaf layers (``repro.errors``, ``repro.util``) so that it
can lint a broken tree.
"""

from repro.devtools.diagnostics import Diagnostic, Severity
from repro.devtools.driver import FileContext, lint_paths, lint_source
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
    "ProjectChecker",
    "Severity",
    "all_checkers",
    "checker_for",
    "lint_paths",
    "lint_source",
    "register",
]
