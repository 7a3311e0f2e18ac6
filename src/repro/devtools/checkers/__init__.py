"""Built-in checkers.

Importing this package registers every built-in rule:

======  ==========================================================
RPR001  determinism — no global-RNG or wall-clock calls
RPR002  time-unit safety — no magic second literals in arithmetic
RPR003  import layering — the package DAG only points downward
RPR004  error policy — no ``raise Exception`` / bare ``except:``
RPR005  dataclass hygiene — frozen value objects, safe defaults
RPR006  stage purity — runtime stage functions must infer PURE
RPR008  worker state — picklable worker tasks, initializer-owned globals
RPR010  wire contracts — serialized boundary types match the contract file
RPR012  resource lifecycle — acquisitions closed on every path
======  ==========================================================

RPR001–005 are per-file AST checks; RPR006, RPR008, RPR010 and RPR012
are whole-project (interprocedural) checks over the call graph, effect
lattice and resource-lifecycle summaries built by
:mod:`repro.devtools.callgraph`, :mod:`repro.devtools.effects` and
:mod:`repro.devtools.concurrency`.
"""

from repro.devtools.checkers import (  # noqa: F401  (registration imports)
    dataclass_hygiene,
    determinism,
    error_policy,
    layering,
    resource_lifecycle,
    stage_purity,
    time_units,
    wire_contracts,
    worker_state,
)
