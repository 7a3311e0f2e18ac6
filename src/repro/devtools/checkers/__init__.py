"""Built-in checkers.

Importing this package registers every built-in rule:

======  ==========================================================
RPR001  determinism — no global-RNG or wall-clock calls
RPR002  time-unit safety — no magic second literals in arithmetic
RPR003  import layering — the package DAG only points downward
RPR004  error policy — no ``raise Exception`` / bare ``except:``
RPR005  dataclass hygiene — frozen value objects, safe defaults
RPR010  wire contracts — serialized boundary types match the contract file
======  ==========================================================

RPR001–005 are per-file AST checks; RPR010 is a whole-project check
over the wire-contract declarations of every linted file.
"""

from repro.devtools.checkers import (  # noqa: F401  (registration imports)
    dataclass_hygiene,
    determinism,
    error_policy,
    layering,
    time_units,
    wire_contracts,
)
