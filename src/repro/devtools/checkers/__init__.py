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
======  ==========================================================

RPR001–005 are per-file AST checks; RPR006, RPR008 and RPR010 are
whole-project (interprocedural) checks over the call graph and effect
lattice built by :mod:`repro.devtools.callgraph` and
:mod:`repro.devtools.effects`.
"""

from repro.devtools.checkers import (  # noqa: F401  (registration imports)
    dataclass_hygiene,
    determinism,
    error_policy,
    layering,
    stage_purity,
    time_units,
    wire_contracts,
    worker_state,
)
