"""RPR008 — worker-process state discipline.

``ShardedRunner`` ships work to worker processes that run module-level
functions (picklable by qualified name) over a per-process context
installed by an initializer (:mod:`repro.runtime.workers`).  Worker
modules are found through their entry points: a
``ProcessPoolExecutor(initializer=F)`` with its ``pool.map``/
``pool.submit`` tasks, or a ``Process(target=F)`` /
``ctx.Process(target=F)``, whose target is both task and initializer.
Two things break that contract statically:

* **Unpicklable task references** — a lambda or nested function handed to
  ``pool.map``/``pool.submit`` or as a ``Process`` target cannot be
  pickled by qualified name and fails (or worse, only fails under
  ``spawn``, which CI may not run).
* **Unsanctioned module-level mutation** — a worker module may only
  mutate the globals its initializer installs (those are re-established
  per process, so their state is a deterministic function of the
  context).  Any *other* module-level write is per-process state that
  fork-inherited workers share but spawn workers do not, making results
  depend on pool internals.

The sanctioned set is derived, not hard-coded: it is the union of the
module-level names the initializers and their same-module call closure
write (for :func:`repro.runtime.workers.serve`, which calls
``init_worker``, that is ``_context``, ``_colconn`` and ``_colup``).
Memoization caches pass exactly when an initializer clears them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.devtools.registry import ProjectChecker, register

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.devtools.callgraph import Project
    from repro.devtools.diagnostics import Diagnostic
    from repro.devtools.effects import EffectAnalysis


@register
class WorkerStateChecker(ProjectChecker):
    rule = "RPR008"
    summary = ("worker tasks must be picklable; worker globals "
               "initializer-owned")

    def check_project(self, project: "Project", effects: "EffectAnalysis",
                      ) -> Iterator["Diagnostic"]:
        initializer_funcs = project.initializers()
        worker_modules: set[str] = set()
        for qualname in initializer_funcs:
            func_module = project.resolve_module(qualname)
            if func_module is not None:
                worker_modules.add(func_module)

        # -- unpicklable or unresolvable task references ----------------------
        for module in sorted(project.summaries):
            summary = project.summaries[module]
            for site in summary.pool_sites:
                if site.role != "task":
                    continue
                target = site.target.rsplit(".", 1)[-1]
                if target == "<lambda>" or target.startswith("<nested:"):
                    yield self.project_diagnostic(
                        summary.path, site.line,
                        "worker task %s cannot be pickled by qualified "
                        "name; move it to module level" % site.target)
                    continue
                resolved = project.resolve_callable(site.target)
                if resolved is not None and resolved[0] == "function":
                    func_module = project.resolve_module(resolved[1])
                    if func_module is not None:
                        worker_modules.add(func_module)

        # -- module-level writes outside the initializer-owned set -----------
        for module in sorted(worker_modules):
            summary = project.summaries.get(module)
            if summary is None:
                continue
            sanctioned: set[str] = set()
            for qualname in initializer_funcs:
                if project.resolve_module(qualname) != module:
                    continue
                function = project.function(qualname)
                if function is not None:
                    sanctioned.update(
                        name for name, _ in function.global_writes)
            for function in summary.functions.values():
                qualname = "%s.%s" % (module, function.name)
                if qualname in initializer_funcs:
                    continue
                for name, line in function.global_writes:
                    if name in sanctioned:
                        continue
                    yield self.project_diagnostic(
                        summary.path, line,
                        "worker module function %s mutates module-level "
                        "'%s', which the worker initializer does not "
                        "install; per-process state outside the "
                        "initializer-owned set (%s) makes jobs=N results "
                        "depend on worker scheduling" % (qualname, name,
                                       ", ".join(sorted(sanctioned)) or
                                       "empty"))
