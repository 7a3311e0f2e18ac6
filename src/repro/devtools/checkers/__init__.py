"""Built-in checkers.

Importing this package registers every built-in rule:

======  ==========================================================
RPR001  determinism — no global-RNG or wall-clock calls
RPR002  time-unit safety — no magic second literals in arithmetic
RPR003  import layering — the package DAG only points downward
RPR004  error policy — no ``raise Exception`` / bare ``except:``
RPR005  dataclass hygiene — frozen value objects, safe defaults
RPR006  stage purity — runtime stage functions must infer PURE
RPR007  cache-key soundness — stage closure ⊆ hashed code_version set
RPR008  worker state — picklable worker tasks, initializer-owned globals
RPR009  order taint — no order-unstable values into digests/artifacts
RPR010  wire contracts — serialized boundary types match the contract file
RPR012  resource lifecycle — acquisitions closed on every path
======  ==========================================================

RPR001–005 are per-file AST checks; RPR006–010 and RPR012 are
whole-project (interprocedural) checks over the call graph, effect
lattice, order-dataflow and resource-lifecycle summaries built by
:mod:`repro.devtools.callgraph`, :mod:`repro.devtools.effects`,
:mod:`repro.devtools.ordering`, and :mod:`repro.devtools.concurrency`.
"""

from repro.devtools.checkers import (  # noqa: F401  (registration imports)
    cache_soundness,
    dataclass_hygiene,
    determinism,
    error_policy,
    layering,
    order_taint,
    resource_lifecycle,
    stage_purity,
    time_units,
    wire_contracts,
    worker_state,
)
