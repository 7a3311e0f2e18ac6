"""Project-wide call graph and import-reachability map.

The per-file checkers (RPR001–005) see one file at a time; the
interprocedural rules (RPR006, RPR008, RPR010) need to know what
a function *reaches* across the whole of ``src/repro``.  This module
provides the shared infrastructure: :func:`summarize_source` compresses
one parsed file into a :class:`FileSummary` — functions with their call
sites, module-level writes, imports, stage-graph declarations and
process-pool usage — and :class:`Project` stitches the summaries of
every linted file into a queryable graph.

Summaries are deliberately plain data (``to_dict``/``from_dict`` round-
trip through JSON) so the incremental lint cache can persist them: a warm
run rebuilds the whole-project graph from cached summaries without
re-parsing a single unchanged file.

Resolution is static and conservative.  Attribute calls rooted in an
imported name resolve to dotted paths; calls on objects fall back to
class-hierarchy analysis (every project class defining the method name is
a candidate); what cannot be resolved at all is *unknown*, and the effect
inference (:mod:`repro.devtools.effects`) treats unknown as impure.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

#: Container methods that mutate their receiver: a call on a module-level
#: receiver is a write to module state.
MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "clear", "pop",
    "popitem", "remove", "discard", "setdefault", "sort", "reverse",
    "appendleft", "extendleft", "popleft",
})

#: Executor methods that take a task callable as their first argument.
_POOL_DISPATCH = frozenset({"map", "submit"})


@dataclass(frozen=True)
class CallSite:
    """One call expression, resolved as far as a single file allows.

    ``kind`` is ``dotted`` (rooted in an import, target is the expanded
    dotted path), ``local`` (a bare name), ``method`` (attribute dispatch
    on an object, target is the method name), ``super`` (a
    ``super().meth()`` call, resolved against the calling class's
    recorded bases), or ``dynamic`` (the callee itself is computed and
    nothing useful is known).  Keyword names are
    recorded so the effect catalog can distinguish calls whose purity
    depends on an argument (``datetime.fromtimestamp(ts, tz=utc)``).
    """

    kind: str
    target: str
    line: int
    kwargs: tuple[str, ...] = ()

    def to_dict(self) -> dict[str, object]:
        return {"kind": self.kind, "target": self.target, "line": self.line,
                "kwargs": list(self.kwargs)}

    @classmethod
    def from_dict(cls, payload: dict) -> "CallSite":
        return cls(kind=str(payload["kind"]), target=str(payload["target"]),
                   line=int(payload["line"]),
                   kwargs=tuple(payload.get("kwargs", ())))


@dataclass(frozen=True)
class FunctionSummary:
    """One function or method: its call sites and module-state writes."""

    name: str  # module-relative: ``stage_filter`` or ``ProbeFilter.classify``
    line: int
    class_name: str | None
    decorators: tuple[str, ...]
    calls: tuple[CallSite, ...]
    #: ``(module-level name, line)`` pairs this function writes.
    global_writes: tuple[tuple[str, int], ...]
    #: Names of functions defined *inside* this one (their bodies are
    #: folded into this summary, so calls to them are internal).
    local_defs: frozenset[str]

    def to_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "line": self.line,
            "class_name": self.class_name,
            "decorators": list(self.decorators),
            "calls": [site.to_dict() for site in self.calls],
            "global_writes": [[name, line]
                              for name, line in self.global_writes],
            "local_defs": sorted(self.local_defs),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FunctionSummary":
        return cls(
            name=str(payload["name"]),
            line=int(payload["line"]),
            class_name=payload.get("class_name"),
            decorators=tuple(payload.get("decorators", ())),
            calls=tuple(CallSite.from_dict(site)
                        for site in payload.get("calls", ())),
            global_writes=tuple((str(name), int(line))
                                for name, line in
                                payload.get("global_writes", ())),
            local_defs=frozenset(payload.get("local_defs", ())),
        )


@dataclass(frozen=True)
class StageDecl:
    """One ``StageSpec(...)`` declaration found in a module."""

    stage: str
    func: str  # dotted target of the ``func=`` argument, best-effort
    line: int

    def to_dict(self) -> dict[str, object]:
        return {"stage": self.stage, "func": self.func, "line": self.line}

    @classmethod
    def from_dict(cls, payload: dict) -> "StageDecl":
        return cls(stage=str(payload["stage"]), func=str(payload["func"]),
                   line=int(payload["line"]))


@dataclass(frozen=True)
class PoolSite:
    """A task or initializer handed to a process-pool API."""

    target: str  # dotted path, ``<lambda>``, or ``<nested:NAME>``
    line: int
    role: str  # ``task`` or ``initializer``

    def to_dict(self) -> dict[str, object]:
        return {"target": self.target, "line": self.line, "role": self.role}

    @classmethod
    def from_dict(cls, payload: dict) -> "PoolSite":
        return cls(target=str(payload["target"]), line=int(payload["line"]),
                   role=str(payload["role"]))


@dataclass
class FileSummary:
    """Everything the project-level rules need to know about one file."""

    module: str
    path: str
    imports: tuple[str, ...] = ()
    functions: dict[str, FunctionSummary] = field(default_factory=dict)
    classes: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: Class name -> env-resolved dotted base refs (the effect analysis
    #: walks these so method resolution honours inheritance).
    class_bases: dict[str, tuple[str, ...]] = field(default_factory=dict)
    stage_decls: tuple[StageDecl, ...] = ()
    pool_sites: tuple[PoolSite, ...] = ()
    #: Wire-contract declarations (RPR010);
    #: :class:`~repro.devtools.wire.WireDecl` tuples.
    wire_decls: tuple = ()

    def to_dict(self) -> dict[str, object]:
        return {
            "module": self.module,
            "path": self.path,
            "imports": list(self.imports),
            "functions": {name: fn.to_dict()
                          for name, fn in self.functions.items()},
            "classes": {name: list(methods)
                        for name, methods in self.classes.items()},
            "class_bases": {name: list(bases)
                            for name, bases in self.class_bases.items()},
            "stage_decls": [decl.to_dict() for decl in self.stage_decls],
            "pool_sites": [site.to_dict() for site in self.pool_sites],
            "wire_decls": [decl.to_dict() for decl in self.wire_decls],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FileSummary":
        from repro.devtools.wire import WireDecl

        return cls(
            module=str(payload["module"]),
            path=str(payload["path"]),
            imports=tuple(payload.get("imports", ())),
            functions={name: FunctionSummary.from_dict(fn)
                       for name, fn in payload.get("functions", {}).items()},
            classes={name: tuple(methods)
                     for name, methods in payload.get("classes", {}).items()},
            class_bases={
                name: tuple(bases)
                for name, bases in payload.get("class_bases", {}).items()},
            stage_decls=tuple(StageDecl.from_dict(entry)
                              for entry in payload.get("stage_decls", ())),
            pool_sites=tuple(PoolSite.from_dict(site)
                             for site in payload.get("pool_sites", ())),
            wire_decls=tuple(WireDecl.from_dict(entry)
                             for entry in payload.get("wire_decls", ())),
        )


# -- summarization -----------------------------------------------------------

def _import_env(tree: ast.Module, module: str,
                is_package: bool) -> tuple[dict[str, str], list[str]]:
    """Local-name -> dotted-target bindings, plus every import target.

    ``from .. import x`` is resolved against ``module``/``is_package`` the
    same way the RPR003 checker does, so relative imports participate in
    reachability.
    """
    env: dict[str, str] = {}
    targets: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                targets.append(alias.name)
                if alias.asname:
                    env[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    env[root] = root
        elif isinstance(node, ast.ImportFrom):
            base = _absolute_base(node, module, is_package)
            if base is None:
                continue
            if base:
                targets.append(".".join(base))
            for alias in node.names:
                dotted = ".".join(base + [alias.name]) if base else alias.name
                targets.append(dotted)
                env[alias.asname or alias.name] = dotted
    return env, targets


def _absolute_base(node: ast.ImportFrom, module: str,
                   is_package: bool) -> list[str] | None:
    """Absolute dotted path a ``from ... import`` hangs its names off."""
    if node.level == 0:
        return node.module.split(".") if node.module else []
    package = module.split(".")
    if not is_package:
        package = package[:-1]
    drop = node.level - 1
    if drop:
        if drop >= len(package):
            return None
        package = package[:-drop]
    return package + (node.module.split(".") if node.module else [])


def _attribute_parts(expr: ast.expr) -> tuple[list[str], bool]:
    """Flatten an attribute chain; ``(parts, rooted_in_name)``.

    ``a.b.c`` gives ``(["a", "b", "c"], True)``; ``f().close`` gives
    ``(["close"], False)`` — the attribute suffix survives even when the
    root is dynamic, which is what method-dispatch fallback needs.
    """
    parts: list[str] = []
    current = expr
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    parts.reverse()
    if isinstance(current, ast.Name):
        return [current.id] + parts, True
    return parts, False


def _root_name(expr: ast.expr) -> str | None:
    """Base :class:`ast.Name` under a subscript/attribute chain, if any."""
    current = expr
    while isinstance(current, (ast.Attribute, ast.Subscript)):
        current = current.value
    if isinstance(current, ast.Name):
        return current.id
    return None


def _call_site(call: ast.Call, env: dict[str, str]) -> CallSite:
    """Resolve one call expression to a :class:`CallSite`."""
    parts, rooted = _attribute_parts(call.func)
    line = call.lineno
    kwargs = tuple(keyword.arg for keyword in call.keywords
                   if keyword.arg is not None)
    func = call.func
    if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Call)
            and isinstance(func.value.func, ast.Name)
            and func.value.func.id == "super"):
        # ``super().meth()``: dispatch is up the recorded base chain, not
        # open class-hierarchy analysis — the effect fixpoint resolves it
        # against ``FileSummary.class_bases``.
        return CallSite("super", func.attr, line, kwargs)
    if rooted:
        if len(parts) == 1:
            name = parts[0]
            if name in env:
                return CallSite("dotted", env[name], line, kwargs)
            return CallSite("local", name, line, kwargs)
        root = parts[0]
        if root in env:
            return CallSite("dotted",
                            ".".join([env[root]] + parts[1:]), line, kwargs)
        return CallSite("method", parts[-1], line, kwargs)
    if parts:
        return CallSite("method", parts[-1], line, kwargs)
    return CallSite("dynamic", "", line, kwargs)


def _resolve_ref(expr: ast.expr, env: dict[str, str], module: str,
                 local_defs: frozenset[str] = frozenset()) -> str | None:
    """Dotted target of a callable *reference* (not a call), best-effort."""
    if isinstance(expr, ast.Lambda):
        return "<lambda>"
    parts, rooted = _attribute_parts(expr)
    if not rooted or not parts:
        return None
    if len(parts) == 1:
        name = parts[0]
        if name in local_defs:
            return "<nested:%s>" % name
        if name in env:
            return env[name]
        return "%s.%s" % (module, name)
    root = parts[0]
    if root in env:
        return ".".join([env[root]] + parts[1:])
    return None


class _FunctionAnalyzer:
    """Extracts a :class:`FunctionSummary` plus pool sites from one def."""

    def __init__(self, node: ast.FunctionDef | ast.AsyncFunctionDef,
                 qualname: str, class_name: str | None,
                 env: dict[str, str], module: str,
                 module_names: frozenset[str]) -> None:
        self.node = node
        self.qualname = qualname
        self.class_name = class_name
        self.env = env
        self.module = module
        self.module_names = module_names
        self.pool_sites: list[PoolSite] = []
        self._locals: set[str] = set()

    def run(self) -> FunctionSummary:
        node = self.node
        global_decls: set[str] = set()
        local_defs: set[str] = set()
        locals_: set[str] = set()
        for child in ast.walk(node):
            if isinstance(child, ast.Global):
                global_decls.update(child.names)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef)) and child is not node:
                local_defs.add(child.name)
            elif isinstance(child, ast.Name) and isinstance(
                    child.ctx, ast.Store):
                locals_.add(child.id)
        for arg in ([*self.node.args.posonlyargs, *self.node.args.args,
                     *self.node.args.kwonlyargs]
                    + ([self.node.args.vararg] if self.node.args.vararg
                       else [])
                    + ([self.node.args.kwarg] if self.node.args.kwarg
                       else [])):
            locals_.add(arg.arg)
        locals_ -= global_decls

        calls: list[CallSite] = []
        writes: list[tuple[str, int]] = []
        frozen_defs = frozenset(local_defs)
        self._locals = locals_
        for child in ast.walk(node):
            if isinstance(child, ast.Call):
                site = _call_site(child, self.env)
                calls.append(site)
                self._check_pool(child, site, frozen_defs)
                self._check_mutator(child, locals_, writes)
            elif isinstance(child, (ast.Assign, ast.AugAssign,
                                    ast.AnnAssign)):
                self._check_store(child, global_decls, locals_, writes)
        decorators = tuple(
            ref for ref in (self._decorator_ref(dec)
                            for dec in node.decorator_list)
            if ref is not None)
        return FunctionSummary(
            name=self.qualname, line=node.lineno, class_name=self.class_name,
            decorators=decorators, calls=tuple(calls),
            global_writes=tuple(writes), local_defs=frozen_defs)

    def _decorator_ref(self, decorator: ast.expr) -> str | None:
        """Dotted name of one decorator (``@f(...)`` resolves ``f``)."""
        target = decorator.func if isinstance(decorator, ast.Call) \
            else decorator
        parts, rooted = _attribute_parts(target)
        if not rooted or not parts:
            return None
        if parts[0] in self.env:
            return ".".join([self.env[parts[0]]] + parts[1:])
        return ".".join(parts)

    def _check_store(self, node, global_decls: set[str], locals_: set[str],
                     writes: list[tuple[str, int]]) -> None:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target])
        for target in targets:
            for element in self._flatten_target(target):
                if isinstance(element, ast.Name):
                    if element.id in global_decls:
                        writes.append((element.id, node.lineno))
                elif isinstance(element, (ast.Attribute, ast.Subscript)):
                    root = _root_name(element)
                    if (root is not None and root not in locals_
                            and root not in ("self", "cls")
                            and root in self.module_names):
                        writes.append((root, node.lineno))

    @staticmethod
    def _flatten_target(target: ast.expr) -> list[ast.expr]:
        if isinstance(target, (ast.Tuple, ast.List)):
            return list(target.elts)
        return [target]

    def _check_mutator(self, call: ast.Call, locals_: set[str],
                       writes: list[tuple[str, int]]) -> None:
        func = call.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr not in MUTATOR_METHODS:
            return
        root = _root_name(func.value)
        if (root is not None and root not in locals_
                and root not in ("self", "cls")
                and root in self.module_names):
            writes.append((root, call.lineno))

    def _check_pool(self, call: ast.Call, site: CallSite,
                    local_defs: frozenset[str]) -> None:
        if site.kind == "method" and site.target in _POOL_DISPATCH:
            if not call.args:
                return
            task = call.args[0]
            if (isinstance(task, ast.Name) and task.id in self._locals
                    and task.id not in local_defs):
                return  # a task held in a local: nothing static to check
            ref = _resolve_ref(task, self.env, self.module, local_defs)
            if ref is not None:
                self.pool_sites.append(PoolSite(ref, call.lineno, "task"))
            return
        last = site.target.rsplit(".", 1)[-1] if site.target else ""
        if last == "ProcessPoolExecutor":
            for keyword in call.keywords:
                if keyword.arg == "initializer":
                    ref = _resolve_ref(keyword.value, self.env, self.module,
                                       local_defs)
                    if ref is not None:
                        self.pool_sites.append(
                            PoolSite(ref, call.lineno, "initializer"))
        elif last == "Process":
            # ``Process(target=F)`` / ``ctx.Process(target=F)``: F is both
            # the task (it must pickle by qualified name under spawn) and
            # the per-process initializer — it installs the worker state
            # itself, through its same-module call closure.
            for keyword in call.keywords:
                if keyword.arg == "target":
                    ref = _resolve_ref(keyword.value, self.env, self.module,
                                       local_defs)
                    if ref is not None:
                        self.pool_sites.append(
                            PoolSite(ref, call.lineno, "task"))
                        self.pool_sites.append(
                            PoolSite(ref, call.lineno, "initializer"))


def summarize_source(tree: ast.Module, module: str, path: str,
                     is_package: bool = False) -> FileSummary:
    """Compress one parsed file into a :class:`FileSummary`."""
    # Function-level import: wire imports helpers from this module, so a
    # top-level import would be a cycle.
    from repro.devtools.wire import extract_wire_decls

    env, targets = _import_env(tree, module, is_package)

    module_names: set[str] = set(env)
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            module_names.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    module_names.add(target.id)
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name):
                module_names.add(node.target.id)
    frozen_names = frozenset(module_names)

    functions: dict[str, FunctionSummary] = {}
    classes: dict[str, tuple[str, ...]] = {}
    class_bases: dict[str, tuple[str, ...]] = {}
    pool_sites: list[PoolSite] = []

    def analyze(node, qualname: str, class_name: str | None) -> None:
        analyzer = _FunctionAnalyzer(node, qualname, class_name, env,
                                     module, frozen_names)
        functions[qualname] = analyzer.run()
        pool_sites.extend(analyzer.pool_sites)

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            analyze(node, node.name, None)
        elif isinstance(node, ast.ClassDef):
            methods = []
            for item in node.body:
                if isinstance(item, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    methods.append(item.name)
                    analyze(item, "%s.%s" % (node.name, item.name),
                            node.name)
            classes[node.name] = tuple(methods)
            bases = []
            for base in node.bases:
                ref = _resolve_ref(base, env, module)
                if ref is not None and not ref.startswith("<"):
                    bases.append(ref)
            class_bases[node.name] = tuple(bases)

    stage_decls = _find_stage_decls(tree, env, module)

    return FileSummary(
        module=module, path=path, imports=tuple(targets),
        functions=functions, classes=classes, class_bases=class_bases,
        stage_decls=tuple(stage_decls),
        pool_sites=tuple(pool_sites),
        wire_decls=tuple(extract_wire_decls(tree, module)))


def _find_stage_decls(tree: ast.Module, env: dict[str, str],
                      module: str) -> list[StageDecl]:
    """Every ``StageSpec(name=..., func=...)`` call in the module."""
    decls: list[StageDecl] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        parts, rooted = _attribute_parts(node.func)
        if not parts or parts[-1] != "StageSpec":
            continue
        name: str | None = None
        func: str | None = None
        if node.args and isinstance(node.args[0], ast.Constant) \
                and isinstance(node.args[0].value, str):
            name = node.args[0].value
        if len(node.args) >= 5:
            func = _resolve_ref(node.args[4], env, module)
        for keyword in node.keywords:
            if keyword.arg == "name" and isinstance(keyword.value,
                                                    ast.Constant):
                name = str(keyword.value.value)
            elif keyword.arg == "func":
                func = _resolve_ref(keyword.value, env, module)
        if name is not None and func is not None:
            decls.append(StageDecl(name, func, node.lineno))
    return decls


# -- the project graph --------------------------------------------------------

class Project:
    """Every summary of one lint run, stitched into a queryable graph."""

    def __init__(self, summaries: list[FileSummary]) -> None:
        self.summaries: dict[str, FileSummary] = {
            summary.module: summary for summary in summaries}
        #: Path of the ``wire-contracts.json`` governing this run, if one
        #: was discovered or passed explicitly (consumed by RPR010).
        self.contracts_path: str | None = None
        self._methods: dict[str, list[str]] = {}
        self._closures: dict[str, frozenset[str]] = {}
        self._roots: frozenset[str] | None = None
        for module, summary in self.summaries.items():
            for function in summary.functions.values():
                if function.class_name is not None:
                    method = function.name.split(".")[-1]
                    self._methods.setdefault(method, []).append(
                        "%s.%s" % (module, function.name))

    # -- name resolution ----------------------------------------------------

    def resolve_module(self, dotted: str) -> str | None:
        """Longest project-module prefix of ``dotted``, if any."""
        parts = dotted.split(".")
        for length in range(len(parts), 0, -1):
            candidate = ".".join(parts[:length])
            if candidate in self.summaries:
                return candidate
        return None

    def resolve_callable(self, dotted: str,
                         _depth: int = 0) -> tuple[str, str] | None:
        """Resolve a dotted path to a project symbol.

        Returns ``("function", qualname)``, ``("class", qualname)`` or
        ``("module", name)``; chases one-hop re-exports through package
        ``__init__`` imports (bounded depth, so import cycles terminate).
        """
        module = self.resolve_module(dotted)
        if module is None:
            return None
        rest = dotted[len(module) + 1:] if len(dotted) > len(module) else ""
        if not rest:
            return "module", module
        summary = self.summaries[module]
        if rest in summary.functions:
            return "function", "%s.%s" % (module, rest)
        head = rest.split(".")[0]
        if head in summary.classes:
            return "class", "%s.%s" % (module, head)
        if head in summary.functions:
            return "function", "%s.%s" % (module, head)
        if _depth < 5:
            suffix = rest[len(head):]
            for target in summary.imports:
                if target.split(".")[-1] == head:
                    resolved = self.resolve_callable(target + suffix,
                                                     _depth + 1)
                    if resolved is not None:
                        return resolved
        return None

    def constructor_functions(self, class_qualname: str) -> list[str]:
        """``__init__``/``__post_init__`` qualnames of a project class."""
        module, _, class_name = class_qualname.rpartition(".")
        summary = self.summaries.get(module)
        if summary is None:
            return []
        found = []
        for dunder in ("__init__", "__post_init__"):
            name = "%s.%s" % (class_name, dunder)
            if name in summary.functions:
                found.append("%s.%s" % (module, name))
        return found

    def methods_named_from(self, method: str, module: str) -> list[str]:
        """CHA candidates visible from ``module``'s import closure.

        Unrestricted class-hierarchy analysis joins every project class
        defining ``method``, which lets e.g. a ``core`` caller inherit the
        effects of a same-named ``devtools`` method it could never
        dispatch to.  A receiver's class must be importable from the
        calling module (directly or transitively), so candidates are
        filtered to that closure; root-package facades are excluded from
        traversal so re-exports do not stitch every layer together.
        """
        candidates = self._methods.get(method, [])
        if not candidates:
            return []
        closure = self._dispatch_closure(module)
        return [qual for qual in candidates
                if self.resolve_module(qual) in closure]

    def function(self, qualname: str) -> FunctionSummary | None:
        """Look one function summary up by its full qualified name."""
        module = self.resolve_module(qualname)
        if module is None:
            return None
        rest = qualname[len(module) + 1:]
        summary = self.summaries[module]
        return summary.functions.get(rest)

    def initializers(self) -> set[str]:
        """Worker initializers plus their same-module call closure.

        Initializers are ``ProcessPoolExecutor(initializer=F)`` and
        ``Process(target=F)`` functions.  Helpers an initializer
        delegates to in its own module install worker state too, so the
        closure owns their module-level writes (RPR008).
        """
        queue: list[str] = []
        for module in sorted(self.summaries):
            for site in self.summaries[module].pool_sites:
                if site.role != "initializer":
                    continue
                resolved = self.resolve_callable(site.target)
                if resolved is not None and resolved[0] == "function":
                    queue.append(resolved[1])
        closure = set(queue)
        while queue:
            qual = queue.pop()
            module = self.resolve_module(qual)
            function = self.function(qual)
            if module is None or function is None:
                continue
            for call in function.calls:
                callee = None
                if call.kind == "local":
                    callee = "%s.%s" % (module, call.target)
                elif call.kind == "dotted":
                    resolved = self.resolve_callable(call.target)
                    if resolved is not None and resolved[0] == "function":
                        callee = resolved[1]
                if callee is None or callee in closure \
                        or self.resolve_module(callee) != module \
                        or self.function(callee) is None:
                    continue
                closure.add(callee)
                queue.append(callee)
        return closure

    # -- import reachability ------------------------------------------------

    def ancestor_modules(self, module: str) -> list[str]:
        """Enclosing package modules of ``module`` present in the project."""
        parts = module.split(".")
        found = []
        for length in range(1, len(parts)):
            candidate = ".".join(parts[:length])
            if candidate in self.summaries:
                found.append(candidate)
        return found

    def import_edges(self, module: str) -> set[str]:
        """Project modules that importing ``module`` pulls in directly."""
        summary = self.summaries.get(module)
        if summary is None:
            return set()
        edges: set[str] = set()
        for target in summary.imports:
            resolved = self.resolve_module(target)
            if resolved is not None and resolved != module:
                edges.add(resolved)
                edges.update(self.ancestor_modules(resolved))
        return edges

    def reachable_modules(self, roots: list[str],
                          exclude: frozenset[str] = frozenset(),
                          ) -> frozenset[str]:
        """Import closure of ``roots``.

        ``exclude`` names modules that are neither visited nor traversed
        (the root-package facade, conventionally).
        """
        queue = [root for root in roots
                 if root in self.summaries and root not in exclude]
        reached = set(queue)
        while queue:
            module = queue.pop()
            neighbors = self.import_edges(module)
            neighbors.update(self.ancestor_modules(module))
            for neighbor in neighbors - exclude - reached:
                reached.add(neighbor)
                queue.append(neighbor)
        return frozenset(reached)

    def root_packages(self) -> frozenset[str]:
        """Top-level packages with children: the facade modules.

        Their ``__init__`` re-exports would otherwise make every subpackage
        reachable from every other, so closure queries exclude them.
        """
        if self._roots is None:
            self._roots = frozenset(
                module for module in self.summaries
                if "." not in module and any(
                    other.startswith(module + ".")
                    for other in self.summaries))
        return self._roots

    def _dispatch_closure(self, module: str) -> frozenset[str]:
        """Memoized import closure of ``module`` for method dispatch."""
        cached = self._closures.get(module)
        if cached is None:
            cached = self.reachable_modules(
                [module], exclude=self.root_packages() - {module})
            self._closures[module] = cached
        return cached
