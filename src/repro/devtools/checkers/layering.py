"""RPR003 — import layering.

The package is a strict layer DAG; an import may only point at the same
layer or a lower one:

.. code-block:: text

    errors                                   (rank 0: leaf exception types)
      └─ obs                                 (rank 1: spans/metrics/trace —
           │                                  observability every layer may
           │                                  import, itself importing only
           │                                  errors)
           └─ util                           (rank 2: rng, timeutil, ingest)
                └─ net                       (rank 3: IPv4, pfx2as)
                     └─ dhcp    ppp          (rank 4: siblings — no imports
                          └──────┴─ isp       between them)   (rank 5)
                                    └─ atlas (rank 6: dataset containers)
                                         └─ sim   (rank 7: emits atlas
                                              │    datasets)
                                              └─ faults  (rank 8: corrupts
                                              │           bundles sim.io
                                              │           wrote, and carries
                                              │           the inert process-
                                              │           fault plans the
                                              │           runtime CLI feeds
                                              │           to supervised
                                              │           workers)
                                              └─ core     (rank 9: analysis)
                                                   └─ runtime    (rank 10:
                                                   │    sharded executor,
                                                   │    artifact cache and
                                                   │    the one lease loop,
                                                   │    protocol, transport
                                                   │    and lease client
                                                   │    that serve every
                                                   │    fan-out stage to
                                                   │    local or socket
                                                   │    workers; may
                                                   │    import faults —
                                                   │    downward — but its
                                                   │    worker path stays
                                                   │    plan-duck-typed)
                                                   └─ experiments  (rank 11)
                                                        └─ dist    (rank 12:
                                                             coordinator
                                                             config, loopback
                                                             mode and the
                                                             repro-dist CLI
                                                             over the runtime
                                                             lease loop; top
                                                             of the DAG,
                                                             nothing imports
                                                             it)

``repro.devtools`` (this lint framework) sits outside the DAG entirely:
nothing may import it, and it may import only the leaf layers ``errors``
and ``util`` (the incremental lint cache reuses ``repro.util.fingerprint``
rather than growing a second hashing implementation).  The root facade
module ``repro/__init__.py`` re-exports the public API and is exempt.

Keeping the DAG machine-checked is what lets later PRs refactor hot paths
aggressively without silently inverting a dependency.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.diagnostics import Diagnostic
from repro.devtools.driver import FileContext
from repro.devtools.registry import Checker, register

#: Layer ranks; an import must satisfy rank(target) <= rank(importer), and
#: equal-rank imports are only legal within one layer (dhcp and ppp are
#: siblings, not a unit).
LAYER_RANKS = {
    "errors": 0,
    "obs": 1,
    "util": 2,
    "net": 3,
    "dhcp": 4,
    "ppp": 4,
    "isp": 5,
    "atlas": 6,
    "sim": 7,
    "faults": 8,
    "core": 9,
    "runtime": 10,
    "experiments": 11,
    "dist": 12,
}

#: The lint framework: self-contained, outside the runtime DAG.
ISOLATED_LAYERS = frozenset({"devtools"})

#: Leaf layers an isolated layer may still use: pure value vocabulary with
#: no path back into the runtime stack.
ISOLATED_IMPORTABLE = frozenset({"errors", "util"})


@register
class LayeringChecker(Checker):
    rule = "RPR003"
    summary = "package imports must follow the layer DAG downward"

    def check(self, context: FileContext) -> Iterator[Diagnostic]:
        importer = context.layer
        if importer is None:
            # Not a repro submodule (the root facade, scripts, fixtures).
            return
        if importer not in LAYER_RANKS and importer not in ISOLATED_LAYERS:
            yield self.diagnostic(
                context, context.tree,
                "module %s is in unknown layer %r; add it to the layer DAG "
                "in repro.devtools.checkers.layering" % (context.module, importer),
            )
            return
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield from self._check_edge(
                        context, node, importer, alias.name.split("."))
            elif isinstance(node, ast.ImportFrom):
                base = self._resolve_base(context, node)
                if base is None:
                    continue
                for alias in node.names:
                    yield from self._check_edge(
                        context, node, importer, base + [alias.name])

    def _resolve_base(self, context: FileContext,
                      node: ast.ImportFrom) -> list[str] | None:
        """Absolute dotted path the ``from ... import`` names hang off."""
        if node.level == 0:
            return (node.module or "").split(".") if node.module else []
        package = context.module.split(".")
        if not context.is_package:
            package = package[:-1]
        drop = node.level - 1
        if drop:
            if drop >= len(package):
                return None
            package = package[:-drop]
        return package + (node.module.split(".") if node.module else [])

    def _check_edge(self, context: FileContext, node: ast.stmt,
                    importer: str, target: list[str]) -> Iterator[Diagnostic]:
        if not target or target[0] != "repro" or len(target) < 2:
            return
        layer = target[1]
        if layer not in LAYER_RANKS and layer not in ISOLATED_LAYERS:
            return  # plain symbol off the root facade, e.g. `repro.__version__`
        if importer in ISOLATED_LAYERS:
            if layer != importer and layer not in ISOLATED_IMPORTABLE:
                yield self.diagnostic(
                    context, node,
                    "repro.%s is outside the layer DAG and may import only "
                    "the leaf layers (%s), but imports repro.%s"
                    % (importer, ", ".join(sorted(ISOLATED_IMPORTABLE)), layer),
                )
            return
        if layer in ISOLATED_LAYERS:
            yield self.diagnostic(
                context, node,
                "repro.%s is a dev-only package; runtime layer repro.%s "
                "must not import it" % (layer, importer),
            )
            return
        importer_rank = LAYER_RANKS[importer]
        target_rank = LAYER_RANKS[layer]
        if target_rank > importer_rank:
            yield self.diagnostic(
                context, node,
                "upward import: repro.%s (rank %d) must not import repro.%s "
                "(rank %d); invert the dependency or move the shared code "
                "down the DAG" % (importer, importer_rank, layer, target_rank),
            )
        elif target_rank == importer_rank and layer != importer:
            yield self.diagnostic(
                context, node,
                "cross-layer import between siblings: repro.%s and repro.%s "
                "are independent peers" % (importer, layer),
            )
