"""Thread-role and resource-lifecycle analysis (the RPR011/RPR012 engine).

PR 8's distributed layer made the codebase genuinely concurrent: the
coordinator spawns one handler thread per worker connection, workers run
daemon heartbeat threads, and sockets, channels and executors are opened
on many error paths.  The reproducibility story — bit-identical digests
and exact accounting — now depends on hand-maintained thread discipline
that nothing in RPR001–010 can see.  This module supplies the two
missing interprocedural analyses:

* **Thread roles (RPR011).**  Every function starts in the implicit
  ``main`` role; each ``threading.Thread(target=...)`` site (and each
  ``add_done_callback`` registration) roots a new role at its resolved
  target, and roles propagate along resolved call edges.  A shared
  location — a ``self`` attribute or a module-level data global —
  written from one role and accessed from another is a race unless
  every access holds one *consistent* ``with <lock>`` guard (locks are
  matched textually, and lock context propagates interprocedurally:
  a callee whose every in-role call site sits under ``with self._lock``
  inherits that guard as an entry guard), the attribute is
  thread-confined (written only in ``__init__``/``__post_init__``,
  before the object can be shared), or it is an intrinsically safe
  type (:data:`SAFE_TYPE_NAMES`, pinned as an RPR010 wire contract) or
  a sanctioned RPR008 initializer-owned worker global.

* **Resource lifecycles (RPR012).**  A path-sensitive walk of each
  function tracks obligations for sockets, channels, file handles,
  executors and temporary files/directories: every acquisition must be
  discharged on all paths by a ``with`` block, a close call reached
  from every path (``try``/``finally`` or a closing handler), or an
  ownership transfer — returning the resource, passing it to a callee
  (e.g. handing a socket to a handler thread), or storing it on a
  field that some method of the class releases.  Calls to project
  functions that *return* an open resource (found by a fixpoint over
  return facts) create the same obligation in the caller, which is
  what makes the witness chains interprocedural.

Both analyses run from serializable per-function facts
(:class:`FunctionConcurrencySummary`) stored on the
:class:`~repro.devtools.callgraph.FileSummary`, so warm incremental
runs replay the whole-project pass without re-parsing.

Known under-approximations (documented in DESIGN.md §15): closure
variables shared with nested thread targets are not tracked; lock
identity is textual (two locks spelled ``self._lock`` on different
objects unify); constructor accesses are assumed to happen before any
thread can see the object; and cross-instance aliasing is ignored, so
distinct per-thread instances of one class share an attribute group
(suppress with a justified noqa when instances are thread-confined).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

#: Types whose instances are intrinsically safe to share across thread
#: roles (internally synchronized by CPython).  Pinned as an RPR010 wire
#: contract: growing this set is a reviewed, versioned change.
SAFE_TYPE_NAMES = (
    "threading.Event",
    "threading.Lock",
    "threading.RLock",
    "threading.Condition",
    "threading.Semaphore",
    "threading.BoundedSemaphore",
    "threading.Barrier",
    "queue.Queue",
    "queue.LifoQueue",
    "queue.PriorityQueue",
    "queue.SimpleQueue",
)

__wire_contract__ = {"concurrency-safe-types": ("SAFE_TYPE_NAMES",)}

SAFE_TYPES = frozenset(SAFE_TYPE_NAMES)

#: Methods that release a tracked resource.
CLOSE_METHODS = frozenset({"close", "shutdown", "terminate", "cleanup"})

#: Dotted two-part suffixes that acquire a resource.
RESOURCE_SUFFIXES: dict[tuple[str, str], str] = {
    ("socket", "socket"): "socket",
    ("socket", "create_connection"): "socket",
    ("socket", "create_server"): "socket",
    ("tempfile", "TemporaryDirectory"): "temporary directory",
    ("tempfile", "NamedTemporaryFile"): "temporary file",
}

#: Bare class names (last dotted part) that acquire a resource.
RESOURCE_CLASSES: dict[str, str] = {
    "ProcessPoolExecutor": "executor",
    "ThreadPoolExecutor": "executor",
    "TemporaryDirectory": "temporary directory",
    "NamedTemporaryFile": "temporary file",
    "Channel": "channel",
    "FaultyChannel": "channel",
}

#: The implicit role every function can run under.
MAIN_ROLE = "<main>"

#: Cap on class-hierarchy candidates consulted per method call.
_MAX_CANDIDATES = 8


def _tuple_dicts(items) -> list:
    return [item.to_dict() for item in items]


@dataclass(frozen=True)
class ThreadSpawn:
    """One thread-root site: a Thread target or a done-callback."""

    target: str  # dotted, ``<nested:NAME>``, ``<self:NAME>`` or ``<lambda>``
    line: int
    kind: str  # ``thread`` | ``callback``

    def to_dict(self) -> dict[str, object]:
        return {"target": self.target, "line": self.line, "kind": self.kind}

    @classmethod
    def from_dict(cls, payload: dict) -> "ThreadSpawn":
        return cls(target=str(payload["target"]), line=int(payload["line"]),
                   kind=str(payload["kind"]))


@dataclass(frozen=True)
class SharedAccess:
    """One read or write of a shared location, with its lock context.

    ``owner`` is the name of the first-level nested function the access
    occurs in (thread targets are often nested), or ``""`` for the
    function body proper; ``guards`` are the textual ``with`` contexts
    (non-call name/attribute expressions, i.e. lock-shaped) active at
    the access.
    """

    scope: str  # ``attr`` | ``global``
    name: str
    line: int
    mode: str  # ``read`` | ``write``
    guards: tuple[str, ...] = ()
    owner: str = ""

    def to_dict(self) -> dict[str, object]:
        return {"scope": self.scope, "name": self.name, "line": self.line,
                "mode": self.mode, "guards": list(self.guards),
                "owner": self.owner}

    @classmethod
    def from_dict(cls, payload: dict) -> "SharedAccess":
        return cls(scope=str(payload["scope"]), name=str(payload["name"]),
                   line=int(payload["line"]), mode=str(payload["mode"]),
                   guards=tuple(payload.get("guards", ())),
                   owner=str(payload.get("owner", "")))


@dataclass(frozen=True)
class GuardedCall:
    """One call site annotated with lock context and nested-def owner.

    ``recv`` is a receiver-type hint for ``method`` calls: ``"<self>"``
    for ``self.meth()``, ``"<attr:NAME>"`` for ``self.NAME.meth()``
    (resolved through the class's recorded attribute types), or the
    dotted constructor type of a local receiver.  Empty means unknown,
    in which case resolution falls back to name-based CHA.
    """

    kind: str  # ``dotted`` | ``local`` | ``method``
    target: str
    line: int
    guards: tuple[str, ...] = ()
    owner: str = ""
    recv: str = ""

    def to_dict(self) -> dict[str, object]:
        return {"kind": self.kind, "target": self.target, "line": self.line,
                "guards": list(self.guards), "owner": self.owner,
                "recv": self.recv}

    @classmethod
    def from_dict(cls, payload: dict) -> "GuardedCall":
        return cls(kind=str(payload["kind"]), target=str(payload["target"]),
                   line=int(payload["line"]),
                   guards=tuple(payload.get("guards", ())),
                   owner=str(payload.get("owner", "")),
                   recv=str(payload.get("recv", "")))


@dataclass(frozen=True)
class Leak:
    """A resource acquired in this function that some path never closes.

    ``kind`` is ``exception`` (a statement between acquisition and
    discharge can raise while the obligation is open and unprotected)
    or ``unclosed`` (a path reaches function exit with it open).
    """

    kind: str
    resource: str
    name: str
    acq_line: int
    line: int  # the risky line (``exception``) or exit evidence line

    def to_dict(self) -> dict[str, object]:
        return {"kind": self.kind, "resource": self.resource,
                "name": self.name, "acq_line": self.acq_line,
                "line": self.line}

    @classmethod
    def from_dict(cls, payload: dict) -> "Leak":
        return cls(kind=str(payload["kind"]),
                   resource=str(payload["resource"]),
                   name=str(payload["name"]),
                   acq_line=int(payload["acq_line"]),
                   line=int(payload["line"]))


@dataclass(frozen=True)
class PendingLeak:
    """A would-be leak whose resource-ness depends on the callee.

    The local was bound from a project call; if the project-level
    fixpoint proves the callee returns an open resource, this becomes a
    real :class:`Leak` with an interprocedural witness chain.
    """

    kind: str  # ``exception`` | ``unclosed``
    call_kind: str  # ``dotted`` | ``local``
    call_target: str
    name: str
    acq_line: int
    line: int

    def to_dict(self) -> dict[str, object]:
        return {"kind": self.kind, "call_kind": self.call_kind,
                "call_target": self.call_target, "name": self.name,
                "acq_line": self.acq_line, "line": self.line}

    @classmethod
    def from_dict(cls, payload: dict) -> "PendingLeak":
        return cls(kind=str(payload["kind"]),
                   call_kind=str(payload["call_kind"]),
                   call_target=str(payload["call_target"]),
                   name=str(payload["name"]),
                   acq_line=int(payload["acq_line"]),
                   line=int(payload["line"]))


@dataclass(frozen=True)
class FieldTransfer:
    """An open resource stored on ``self``: the class now owns closing it.

    ``resource`` is empty (and ``call_kind``/``call_target`` set) when
    the stored value came from a project call whose resource-ness the
    project pass must resolve.
    """

    attr: str
    resource: str
    line: int
    call_kind: str = ""
    call_target: str = ""

    def to_dict(self) -> dict[str, object]:
        return {"attr": self.attr, "resource": self.resource,
                "line": self.line, "call_kind": self.call_kind,
                "call_target": self.call_target}

    @classmethod
    def from_dict(cls, payload: dict) -> "FieldTransfer":
        return cls(attr=str(payload["attr"]),
                   resource=str(payload["resource"]),
                   line=int(payload["line"]),
                   call_kind=str(payload.get("call_kind", "")),
                   call_target=str(payload.get("call_target", "")))


@dataclass(frozen=True)
class FunctionConcurrencySummary:
    """The concurrency/lifecycle facts of one function, serializable."""

    name: str
    class_name: str | None = None
    is_ctor: bool = False
    spawns: tuple[ThreadSpawn, ...] = ()
    accesses: tuple[SharedAccess, ...] = ()
    calls: tuple[GuardedCall, ...] = ()
    #: ``(attr, dotted constructor)`` for ``self.x = threading.Lock()``-
    #: style assigns; safe-type matching happens at project level.
    attr_types: tuple[tuple[str, str], ...] = ()
    leaks: tuple[Leak, ...] = ()
    pending_leaks: tuple[PendingLeak, ...] = ()
    field_transfers: tuple[FieldTransfer, ...] = ()
    #: Attributes some close method is called on (``self.x.close()``).
    attr_closes: tuple[str, ...] = ()
    #: ``(resource kind, acquisition line)`` when this function returns
    #: an open resource it acquired.
    returns_resource: tuple[str, int] | None = None
    #: ``(call kind, call target, line)`` when the returned value came
    #: from a call the project pass must resolve.
    pending_returns: tuple[tuple[str, str, int], ...] = ()

    @property
    def is_trivial(self) -> bool:
        return not (self.spawns or self.accesses or self.calls
                    or self.attr_types or self.leaks or self.pending_leaks
                    or self.field_transfers or self.attr_closes
                    or self.returns_resource or self.pending_returns)

    def to_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "class_name": self.class_name,
            "is_ctor": self.is_ctor,
            "spawns": _tuple_dicts(self.spawns),
            "accesses": _tuple_dicts(self.accesses),
            "calls": _tuple_dicts(self.calls),
            "attr_types": [[attr, dotted]
                           for attr, dotted in self.attr_types],
            "leaks": _tuple_dicts(self.leaks),
            "pending_leaks": _tuple_dicts(self.pending_leaks),
            "field_transfers": _tuple_dicts(self.field_transfers),
            "attr_closes": list(self.attr_closes),
            "returns_resource": (None if self.returns_resource is None
                                 else list(self.returns_resource)),
            "pending_returns": [list(entry)
                                for entry in self.pending_returns],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FunctionConcurrencySummary":
        returns = payload.get("returns_resource")
        return cls(
            name=str(payload["name"]),
            class_name=payload.get("class_name"),
            is_ctor=bool(payload.get("is_ctor", False)),
            spawns=tuple(ThreadSpawn.from_dict(entry)
                         for entry in payload.get("spawns", ())),
            accesses=tuple(SharedAccess.from_dict(entry)
                           for entry in payload.get("accesses", ())),
            calls=tuple(GuardedCall.from_dict(entry)
                        for entry in payload.get("calls", ())),
            attr_types=tuple((str(attr), str(dotted)) for attr, dotted
                             in payload.get("attr_types", ())),
            leaks=tuple(Leak.from_dict(entry)
                        for entry in payload.get("leaks", ())),
            pending_leaks=tuple(PendingLeak.from_dict(entry)
                                for entry in payload.get("pending_leaks",
                                                         ())),
            field_transfers=tuple(FieldTransfer.from_dict(entry)
                                  for entry in payload.get("field_transfers",
                                                           ())),
            attr_closes=tuple(payload.get("attr_closes", ())),
            returns_resource=(None if returns is None
                              else (str(returns[0]), int(returns[1]))),
            pending_returns=tuple(
                (str(kind), str(target), int(line))
                for kind, target, line in payload.get("pending_returns",
                                                      ())),
        )


# -- role/guard fact extraction ----------------------------------------------

def _guard_text(expr: ast.expr) -> str | None:
    """The lock-shaped text of a ``with`` context, or ``None``.

    Lock-shaped means a bare name or attribute chain (``lock``,
    ``self._lock``) — a call (``open(...)``, ``TemporaryDirectory()``)
    manages something, but does not name a re-enterable guard.
    """
    current = expr
    while isinstance(current, ast.Attribute):
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    try:
        return ast.unparse(expr)
    except (ValueError, AttributeError):  # pragma: no cover - unparse is
        return None                       # total on Name/Attribute chains


class _ConcurrencyExtractor:
    """Collects spawns, shared accesses and guarded calls from one def."""

    def __init__(self, node: ast.FunctionDef | ast.AsyncFunctionDef,
                 env: dict[str, str], module: str, class_name: str | None,
                 data_globals: frozenset[str]) -> None:
        self.node = node
        self.env = env
        self.module = module
        self.class_name = class_name
        self.data_globals = data_globals
        self.spawns: list[ThreadSpawn] = []
        self.accesses: list[SharedAccess] = []
        self.calls: list[GuardedCall] = []
        self.attr_types: list[tuple[str, str]] = []
        self.attr_closes: list[str] = []
        self._guards: list[str] = []
        self._owner = ""
        self._global_decls: set[str] = set()
        self._locals: set[str] = set()
        self._local_defs: frozenset[str] = frozenset()
        #: local name -> dotted constructor type (``board = LeaseBoard()``)
        self._local_types: dict[str, str] = {}
        #: local name -> element type of a list/comp of constructor calls
        self._elem_types: dict[str, str] = {}

    def run(self) -> None:
        node = self.node
        local_defs: set[str] = set()
        for child in ast.walk(node):
            if isinstance(child, ast.Global):
                self._global_decls.update(child.names)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef)) and child is not node:
                local_defs.add(child.name)
            elif isinstance(child, ast.Name) and isinstance(
                    child.ctx, ast.Store):
                self._locals.add(child.id)
        args = node.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                    *([args.vararg] if args.vararg else []),
                    *([args.kwarg] if args.kwarg else [])):
            self._locals.add(arg.arg)
            if arg.annotation is not None:
                dotted = self._annotation_type(arg.annotation)
                if dotted is not None:
                    self._local_types[arg.arg] = dotted
        self._locals -= self._global_decls
        self._local_defs = frozenset(local_defs)
        self._stmts(node.body)

    # -- recording helpers ---------------------------------------------------

    def _access(self, scope: str, name: str, line: int, mode: str) -> None:
        self.accesses.append(SharedAccess(
            scope=scope, name=name, line=line, mode=mode,
            guards=tuple(self._guards), owner=self._owner))

    def _self_attr(self, expr: ast.expr) -> str | None:
        """First-level attribute name of a ``self.x...`` chain, if any."""
        if self.class_name is None:
            return None
        current = expr
        while isinstance(current, (ast.Attribute, ast.Subscript)):
            if isinstance(current, ast.Attribute) and isinstance(
                    current.value, ast.Name) and current.value.id == "self":
                return current.attr
            current = current.value
        return None

    def _is_shared_global(self, name: str) -> bool:
        return (name in self.data_globals and name not in self._locals
                and name != name.upper())

    # -- statements ----------------------------------------------------------

    def _stmts(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A first-level nested def is a potential thread target: its
            # body runs in the spawned thread, with no inherited locks.
            outer_owner, outer_guards = self._owner, self._guards
            if not self._owner:
                self._owner = stmt.name
            self._guards = []
            try:
                self._stmts(stmt.body)
            finally:
                self._owner, self._guards = outer_owner, outer_guards
            return
        if isinstance(stmt, ast.ClassDef):
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            pushed = 0
            for item in stmt.items:
                guard = _guard_text(item.context_expr)
                if guard is not None:
                    self._guards.append(guard)
                    pushed += 1
                else:
                    self._expr(item.context_expr)
                if item.optional_vars is not None:
                    self._store_target(item.optional_vars, stmt.lineno)
            try:
                self._stmts(stmt.body)
            finally:
                for _ in range(pushed):
                    self._guards.pop()
            return
        if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            self._assign(stmt)
            return
        if isinstance(stmt, ast.Expr):
            self._expr(stmt.value)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._expr(stmt.iter)
            self._seed_loop_types(stmt.target, stmt.iter)
            self._store_target(stmt.target, stmt.lineno)
            self._stmts(stmt.body)
            self._stmts(stmt.orelse)
            return
        if isinstance(stmt, ast.While):
            self._expr(stmt.test)
            self._stmts(stmt.body)
            self._stmts(stmt.orelse)
            return
        if isinstance(stmt, ast.If):
            self._expr(stmt.test)
            self._stmts(stmt.body)
            self._stmts(stmt.orelse)
            return
        if isinstance(stmt, ast.Try):
            self._stmts(stmt.body)
            for handler in stmt.handlers:
                self._stmts(handler.body)
            self._stmts(stmt.orelse)
            self._stmts(stmt.finalbody)
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._expr(stmt.value)
            return
        if isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._expr(stmt.exc)
            if stmt.cause is not None:
                self._expr(stmt.cause)
            return
        if isinstance(stmt, ast.Assert):
            self._expr(stmt.test)
            if stmt.msg is not None:
                self._expr(stmt.msg)
            return
        if isinstance(stmt, ast.Delete):
            return
        if stmt.__class__.__name__ == "Match":
            self._expr(stmt.subject)  # type: ignore[attr-defined]
            for case in stmt.cases:  # type: ignore[attr-defined]
                self._stmts(case.body)
            return
        # Pass / Break / Continue / Import / Global / Nonlocal: no facts.

    def _assign(self, stmt) -> None:
        if isinstance(stmt, ast.AugAssign):
            targets = [stmt.target]
            # ``self.x += 1`` reads and writes; record the read too.
            attr = self._self_attr(stmt.target)
            if attr is not None:
                self._access("attr", attr, stmt.lineno, "read")
        else:
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target])
        if stmt.value is not None:
            self._expr(stmt.value)
        for target in targets:
            self._store_target(target, stmt.lineno)
        if isinstance(stmt, ast.Assign) and stmt.value is not None:
            self._bind_types(targets, stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            self._bind_types(targets, stmt.value,
                             annotation=stmt.annotation)

    def _ctor_type(self, expr: ast.expr) -> str | None:
        """Dotted type of a direct constructor call, if recognizable."""
        if not isinstance(expr, ast.Call):
            return None
        from repro.devtools.callgraph import _call_site

        site = _call_site(expr, self.env)
        if site.kind == "dotted":
            return site.target
        if site.kind == "local":
            return "%s.%s" % (self.module, site.target)
        return None

    def _annotation_type(self, ann: ast.expr) -> str | None:
        """Dotted type named by a plain annotation (``Channel``,
        ``socket.socket``, ``"Channel"``); subscripted forms stay unknown."""
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str) \
                and ann.value.isidentifier():
            name = ann.value
            return self.env.get(name, "%s.%s" % (self.module, name))
        if isinstance(ann, ast.Name):
            return self.env.get(ann.id, "%s.%s" % (self.module, ann.id))
        if isinstance(ann, ast.Attribute):
            from repro.devtools.callgraph import _attribute_parts

            parts, rooted = _attribute_parts(ann)
            if rooted and parts:
                root = parts[0]
                if root in self.env:
                    return ".".join([self.env[root]] + parts[1:])
                return ".".join(parts)
        return None

    def _bind_types(self, targets: list[ast.expr], value: ast.expr | None,
                    annotation: ast.expr | None = None) -> None:
        """Track constructed types: ``self.x = Lock()``, ``b = Board()``,
        annotated bindings, and element types of ``[Worker(...) for ...]``."""
        dotted = None
        if value is not None:
            dotted = self._ctor_type(value)
            if dotted is None and isinstance(value, ast.Name):
                dotted = self._local_types.get(value.id)
            if dotted is None and isinstance(value, ast.Attribute) \
                    and isinstance(value.value, ast.Name):
                # ``server = runner._server`` — defer to the project
                # pass, which knows the field types of ``runner``'s
                # class, via a symbolic ``<attrof:TYPE:ATTR>`` marker.
                base = value.value.id
                if base == "self" and self.class_name is not None:
                    base_type: str | None = "%s.%s" % (self.module,
                                                       self.class_name)
                else:
                    base_type = self._local_types.get(base)
                if base_type is not None and not base_type.startswith("<"):
                    dotted = "<attrof:%s:%s>" % (base_type, value.attr)
        if dotted is None and annotation is not None:
            dotted = self._annotation_type(annotation)
        if value is None:
            for target in targets:
                if isinstance(target, ast.Name) and dotted is not None:
                    self._local_types[target.id] = dotted
            return
        elem: str | None = None
        if dotted is None:
            if isinstance(value, (ast.ListComp, ast.SetComp,
                                  ast.GeneratorExp)):
                elem = self._ctor_type(value.elt)
            elif isinstance(value, (ast.List, ast.Tuple)) and value.elts:
                kinds = {self._ctor_type(e) for e in value.elts}
                if len(kinds) == 1:
                    elem = kinds.pop()
        for target in targets:
            if isinstance(target, ast.Name):
                # Rebinding invalidates any earlier inference for safety.
                self._local_types.pop(target.id, None)
                self._elem_types.pop(target.id, None)
                if dotted is not None:
                    self._local_types[target.id] = dotted
                elif elem is not None:
                    self._elem_types[target.id] = elem
            elif dotted is not None:
                attr = self._self_attr(target)
                if attr is not None and isinstance(target, ast.Attribute):
                    # ``self.x = threading.Lock()`` — the project pass
                    # uses these to spot intrinsically safe attributes
                    # and to type ``self.x.meth()`` receivers.
                    self.attr_types.append((attr, dotted))

    def _seed_loop_types(self, target: ast.expr, iterable: ast.expr) -> None:
        """``for w in workers`` gives ``w`` the tracked element type."""
        elem: str | None = None
        bind: ast.expr | None = target
        if isinstance(iterable, ast.Name):
            elem = self._elem_types.get(iterable.id)
        elif (isinstance(iterable, ast.Call)
              and isinstance(iterable.func, ast.Name)
              and iterable.func.id == "enumerate" and iterable.args
              and isinstance(iterable.args[0], ast.Name)):
            elem = self._elem_types.get(iterable.args[0].id)
            bind = (target.elts[1]
                    if isinstance(target, ast.Tuple)
                    and len(target.elts) == 2 else None)
        if elem is not None and isinstance(bind, ast.Name):
            self._local_types[bind.id] = elem

    def _store_target(self, target: ast.expr, line: int) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._store_target(element, line)
            return
        if isinstance(target, ast.Starred):
            self._store_target(target.value, line)
            return
        if isinstance(target, ast.Name):
            if (target.id in self._global_decls
                    and self._is_shared_global(target.id)):
                self._access("global", target.id, line, "write")
            return
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            attr = self._self_attr(target)
            if attr is not None:
                self._access("attr", attr, line, "write")
                return
            from repro.devtools.callgraph import _root_name

            root = _root_name(target)
            if root is not None and self._is_shared_global(root):
                self._access("global", root, line, "write")
            # Subscript/attribute stores evaluate their inner parts.
            if isinstance(target, ast.Subscript):
                self._expr(target.slice)

    # -- expressions ---------------------------------------------------------

    def _expr(self, expr: ast.expr) -> None:
        if isinstance(expr, ast.Call):
            self._call(expr)
            return
        if isinstance(expr, ast.Attribute):
            attr = self._self_attr(expr)
            if attr is not None:
                self._access("attr", attr, expr.lineno, "read")
                # ``self.x.prop`` on a typed field may dispatch into a
                # property of its class; record the edge so lock context
                # reaches property bodies too.
                if (isinstance(expr.value, ast.Attribute)
                        and isinstance(expr.value.value, ast.Name)
                        and expr.value.value.id == "self"):
                    self.calls.append(GuardedCall(
                        kind="method", target=expr.attr, line=expr.lineno,
                        guards=tuple(self._guards), owner=self._owner,
                        recv="<attr:%s>" % expr.value.attr))
                return
            if (isinstance(expr.value, ast.Name)
                    and expr.value.id in self._local_types):
                # ``board.done`` — a property read on a typed local.
                self.calls.append(GuardedCall(
                    kind="method", target=expr.attr, line=expr.lineno,
                    guards=tuple(self._guards), owner=self._owner,
                    recv=self._local_types[expr.value.id]))
                return
            self._expr(expr.value)
            return
        if isinstance(expr, ast.Name):
            if isinstance(expr.ctx, ast.Load) and self._is_shared_global(
                    expr.id):
                self._access("global", expr.id, expr.lineno, "read")
            return
        if isinstance(expr, ast.Lambda):
            self._expr(expr.body)
            return
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                self._expr(child)
            elif isinstance(child, ast.comprehension):
                self._expr(child.iter)
                for cond in child.ifs:
                    self._expr(cond)
            elif isinstance(child, ast.keyword):
                self._expr(child.value)

    def _spawn_ref(self, expr: ast.expr) -> str | None:
        """Resolve a thread-target reference, including ``self`` methods."""
        from repro.devtools.callgraph import _resolve_ref

        if (isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self"):
            return "<self:%s>" % expr.attr
        ref = _resolve_ref(expr, self.env, self.module, self._local_defs)
        return ref

    def _call(self, call: ast.Call) -> None:
        from repro.devtools.callgraph import (MUTATOR_METHODS, _call_site,
                                              _root_name)

        site = _call_site(call, self.env)
        if site.kind in ("dotted", "local", "method", "super"):
            recv = ""
            kind = site.kind
            if site.kind == "super":
                # ``super().meth()`` dispatches up the MRO; base-class
                # methods are analyzed directly, so don't let the bare
                # name smear across unrelated classes via CHA.  Recorded
                # as a method call so stored facts keep one vocabulary.
                kind = "method"
                recv = "<super>"
            elif site.kind == "method" \
                    and isinstance(call.func, ast.Attribute):
                base = call.func.value
                if isinstance(base, ast.Name):
                    recv = ("<self>" if base.id == "self"
                            else self._local_types.get(base.id, ""))
                elif (isinstance(base, ast.Attribute)
                        and isinstance(base.value, ast.Name)
                        and base.value.id == "self"):
                    recv = "<attr:%s>" % base.attr
            self.calls.append(GuardedCall(
                kind=kind, target=site.target, line=call.lineno,
                guards=tuple(self._guards), owner=self._owner, recv=recv))

        last = site.target.rsplit(".", 1)[-1] if site.target else ""
        if last == "Thread":
            for keyword in call.keywords:
                if keyword.arg == "target":
                    ref = self._spawn_ref(keyword.value)
                    if ref is not None:
                        self.spawns.append(ThreadSpawn(
                            target=ref, line=call.lineno, kind="thread"))
        elif site.kind == "method" and site.target == "add_done_callback" \
                and call.args:
            ref = self._spawn_ref(call.args[0])
            if ref is not None:
                self.spawns.append(ThreadSpawn(
                    target=ref, line=call.lineno, kind="callback"))

        func = call.func
        if isinstance(func, ast.Attribute):
            attr = self._self_attr(func.value)
            if attr is not None:
                if func.attr in CLOSE_METHODS:
                    self.attr_closes.append(attr)
                    self._access("attr", attr, call.lineno, "read")
                elif func.attr in MUTATOR_METHODS:
                    self._access("attr", attr, call.lineno, "write")
                else:
                    self._access("attr", attr, call.lineno, "read")
            else:
                root = _root_name(func.value)
                if (root is not None and func.attr in MUTATOR_METHODS
                        and self._is_shared_global(root)):
                    self._access("global", root, call.lineno, "write")
                self._expr(func.value)
        for arg in call.args:
            self._expr(arg)
        for keyword in call.keywords:
            self._expr(keyword.value)


# -- resource-lifecycle tracking ---------------------------------------------

class _Obligation:
    """Mutable per-path state of one acquired (or maybe-acquired) local."""

    __slots__ = ("resource", "call_kind", "call_target", "acq_line",
                 "state", "risky_line")

    def __init__(self, resource: str | None, call_kind: str,
                 call_target: str, acq_line: int) -> None:
        self.resource = resource  # None: pending project resolution
        self.call_kind = call_kind
        self.call_target = call_target
        self.acq_line = acq_line
        self.state = "open"
        self.risky_line: int | None = None

    def copy(self) -> "_Obligation":
        clone = _Obligation(self.resource, self.call_kind, self.call_target,
                            self.acq_line)
        clone.state = self.state
        clone.risky_line = self.risky_line
        return clone


def _classify_acquisition(site) -> str | None:
    """Resource kind of one call site, or ``None``."""
    if site.kind == "local" and site.target == "open":
        return "file handle"
    parts = tuple(site.target.split(".")) if site.kind == "dotted" else ()
    if len(parts) >= 2 and parts[-2:] in RESOURCE_SUFFIXES:
        return RESOURCE_SUFFIXES[parts[-2:]]
    last = parts[-1] if parts else (site.target if site.kind == "local"
                                    else "")
    if last in RESOURCE_CLASSES:
        return RESOURCE_CLASSES[last]
    return None


class _LifecycleTracker:
    """Path-sensitive must-close walk of one function body."""

    def __init__(self, node: ast.FunctionDef | ast.AsyncFunctionDef,
                 env: dict[str, str], class_name: str | None) -> None:
        self.node = node
        self.env = env
        self.class_name = class_name
        self.obligations: dict[str, _Obligation] = {}
        self.leaks: list[Leak] = []
        self.pending_leaks: list[PendingLeak] = []
        self.field_transfers: list[FieldTransfer] = []
        self.returns_resource: tuple[str, int] | None = None
        self.pending_returns: list[tuple[str, str, int]] = []
        self._protected: set[str] = set()
        self._finished: list[_Obligation] = []

    def run(self) -> None:
        terminated = self._stmts(self.node.body)
        if not terminated:
            end = getattr(self.node.body[-1], "end_lineno", None) \
                or self.node.body[-1].lineno
            for name, ob in self.obligations.items():
                if ob.state == "open" and ob.risky_line is None:
                    ob.risky_line = None
                    self._finish(name, ob, unclosed_line=end)
                    continue
                self._finish(name, ob)
        else:
            for name, ob in self.obligations.items():
                self._finish(name, ob)
        self._emit()

    # -- leak bookkeeping ----------------------------------------------------

    def _finish(self, name: str, ob: _Obligation,
                unclosed_line: int | None = None) -> None:
        """Final verdict on one obligation at scope exit."""
        ob_name = name
        if ob.risky_line is not None:
            self._record(ob, "exception", ob_name, ob.risky_line)
        elif ob.state == "open":
            self._record(ob, "unclosed", ob_name,
                         unclosed_line if unclosed_line is not None
                         else ob.acq_line)

    def _record(self, ob: _Obligation, kind: str, name: str,
                line: int) -> None:
        if ob.resource is not None:
            self.leaks.append(Leak(kind=kind, resource=ob.resource,
                                   name=name, acq_line=ob.acq_line,
                                   line=line))
        elif ob.call_kind in ("dotted", "local"):
            self.pending_leaks.append(PendingLeak(
                kind=kind, call_kind=ob.call_kind,
                call_target=ob.call_target, name=name,
                acq_line=ob.acq_line, line=line))

    def _emit(self) -> None:
        seen: set[tuple[str, int, str]] = set()
        self.leaks = [leak for leak in self.leaks
                      if (key := (leak.name, leak.acq_line, leak.kind))
                      not in seen and not seen.add(key)]
        seen.clear()
        self.pending_leaks = [
            leak for leak in self.pending_leaks
            if (key := (leak.name, leak.acq_line, leak.kind)) not in seen
            and not seen.add(key)]

    def _risky(self, line: int, skip: str | None = None) -> None:
        for name, ob in self.obligations.items():
            if name == skip or name in self._protected:
                continue
            if ob.state == "open" and ob.risky_line is None:
                ob.risky_line = line

    def _escape(self, name: str) -> None:
        ob = self.obligations.get(name)
        if ob is not None and ob.state == "open":
            ob.state = "escaped"

    def _escape_expr(self, expr: ast.expr | None) -> None:
        """Mark every open resource referenced by ``expr`` as handed off."""
        if expr is None:
            return
        for child in ast.walk(expr):
            if isinstance(child, ast.Name) and isinstance(child.ctx,
                                                          ast.Load):
                self._escape(child.id)

    # -- statements ----------------------------------------------------------

    def _stmts(self, body: list[ast.stmt]) -> bool:
        """Walk a body; returns True when every path raises/returns."""
        for stmt in body:
            if self._stmt(stmt):
                return True
        return False

    def _stmt(self, stmt: ast.stmt) -> bool:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            # A nested def closing over an open resource takes it along.
            for child in ast.walk(stmt):
                if isinstance(child, ast.Name) and isinstance(
                        child.ctx, ast.Load):
                    self._escape(child.id)
            return False
        if isinstance(stmt, ast.Return):
            self._return_value(stmt.value)
            self._escape_expr(stmt.value)
            self._eval(stmt.value)
            end = stmt.lineno
            for name, ob in list(self.obligations.items()):
                if ob.state == "open" and name not in self._protected:
                    self._record(ob, "unclosed", name, end)
                    del self.obligations[name]
            return True
        if isinstance(stmt, ast.Raise):
            self._eval(stmt.exc)
            self._eval(stmt.cause)
            self._risky(stmt.lineno)
            for name, ob in list(self.obligations.items()):
                # A protected name is closed by an enclosing handler or
                # finally on the way out — raising is not a leak for it.
                if name not in self._protected:
                    self._finish(name, ob)
                del self.obligations[name]
            return True
        if isinstance(stmt, ast.Assign):
            self._assign(stmt.targets, stmt.value, stmt.lineno)
            return False
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._assign([stmt.target], stmt.value, stmt.lineno)
            return False
        if isinstance(stmt, ast.AugAssign):
            self._eval(stmt.value)
            return False
        if isinstance(stmt, ast.Expr):
            self._eval(stmt.value)
            return False
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                context = item.context_expr
                if isinstance(context, ast.Call):
                    from repro.devtools.callgraph import _call_site

                    self._eval_call_args(context)
                    site = _call_site(context, self.env)
                    if _classify_acquisition(site) is None:
                        self._risky(context.lineno)
                    # Acquired under ``with``: discharged by protocol.
                elif isinstance(context, ast.Name):
                    ob = self.obligations.get(context.id)
                    if ob is not None:
                        ob.state = "closed"
                        ob.risky_line = None
            return self._stmts(stmt.body)
        if isinstance(stmt, ast.Try):
            return self._try(stmt)
        if isinstance(stmt, ast.If):
            self._eval(stmt.test)
            return self._branch([stmt.body, stmt.orelse])
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._eval(stmt.iter)
            self._escape_expr(stmt.iter)
            self._stmts(stmt.body)
            self._stmts(stmt.orelse)
            return False
        if isinstance(stmt, ast.While):
            self._eval(stmt.test)
            self._stmts(stmt.body)
            self._stmts(stmt.orelse)
            return False
        if isinstance(stmt, ast.Assert):
            self._eval(stmt.test)
            self._eval(stmt.msg)
            return False
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    ob = self.obligations.pop(target.id, None)
                    if ob is not None:
                        self._finish(target.id, ob)
            return False
        if stmt.__class__.__name__ == "Match":
            self._eval(stmt.subject)  # type: ignore[attr-defined]
            return self._branch(
                [case.body for case in stmt.cases])  # type: ignore
        return False

    def _branch(self, bodies: list[list[ast.stmt]]) -> bool:
        """Walk alternative bodies on env copies and merge survivors."""
        base = {name: ob.copy() for name, ob in self.obligations.items()}
        survivors: list[dict[str, _Obligation]] = []
        for body in bodies:
            self.obligations = {name: ob.copy()
                                for name, ob in base.items()}
            if not self._stmts(body):
                survivors.append(self.obligations)
        if not survivors:
            # every branch terminated; If without orelse still falls
            # through, which _branch callers encode as an empty body
            # (an empty body never terminates), so this means all paths
            # ended.
            self.obligations = {}
            return True
        merged = survivors[0]
        for other in survivors[1:]:
            for name, ob in other.items():
                mine = merged.get(name)
                if mine is None:
                    merged[name] = ob
                    continue
                # open beats closed/escaped: some path leaks.
                if ob.state == "open" and mine.state != "open":
                    merged[name] = ob
                elif ob.state == "open" and mine.state == "open":
                    if mine.risky_line is None:
                        mine.risky_line = ob.risky_line
        self.obligations = merged
        return False

    def _try(self, stmt: ast.Try) -> bool:
        protected = self._closed_names(stmt.finalbody)
        for handler in stmt.handlers:
            protected |= self._closed_names(handler.body)
        added = protected - self._protected
        self._protected |= added
        try:
            body_terminated = self._stmts(stmt.body)
        finally:
            self._protected -= added
        base = {name: ob.copy() for name, ob in self.obligations.items()}
        handler_base = base
        if len(stmt.body) == 1:
            # A handler is entered only when the body's sole statement
            # raised — in which case an acquisition *by* that statement
            # never completed, so its obligation does not exist on
            # handler paths (``try: sock = connect() except: retry``).
            lone = stmt.body[0]
            last = getattr(lone, "end_lineno", None) or lone.lineno
            handler_base = {
                name: ob for name, ob in base.items()
                if not lone.lineno <= ob.acq_line <= last}
        survivors: list[dict[str, _Obligation]] = []
        if not body_terminated:
            orelse_terminated = self._stmts(stmt.orelse)
            if not orelse_terminated:
                survivors.append(self.obligations)
        for handler in stmt.handlers:
            self.obligations = {name: ob.copy()
                                for name, ob in handler_base.items()}
            if not self._stmts(handler.body):
                survivors.append(self.obligations)
        if survivors:
            self.obligations = survivors[0]
            for other in survivors[1:]:
                for name, ob in other.items():
                    mine = self.obligations.get(name)
                    if mine is None or (ob.state == "open"
                                        and mine.state != "open"):
                        self.obligations[name] = ob
            terminated = self._stmts(stmt.finalbody)
            return terminated
        self.obligations = base
        self._stmts(stmt.finalbody)
        return True

    def _closed_names(self, body: list[ast.stmt]) -> set[str]:
        """Local names a cleanup body closes (``n.close()`` shaped)."""
        names: set[str] = set()
        for stmt in body:
            for child in ast.walk(stmt):
                if (isinstance(child, ast.Call)
                        and isinstance(child.func, ast.Attribute)
                        and child.func.attr in CLOSE_METHODS
                        and isinstance(child.func.value, ast.Name)):
                    names.add(child.func.value.id)
        return names

    # -- value flow ----------------------------------------------------------

    def _return_value(self, value: ast.expr | None) -> None:
        if value is None:
            return
        if isinstance(value, ast.Name):
            ob = self.obligations.get(value.id)
            if ob is not None and ob.state == "open":
                self._note_return(ob)
            return
        if isinstance(value, ast.Call):
            from repro.devtools.callgraph import _call_site

            site = _call_site(value, self.env)
            kind = _classify_acquisition(site)
            if kind is not None:
                self._note_return(_Obligation(kind, site.kind, site.target,
                                              value.lineno))
            elif site.kind in ("dotted", "local"):
                self.pending_returns.append(
                    (site.kind, site.target, value.lineno))

    def _note_return(self, ob: _Obligation) -> None:
        if ob.resource is not None:
            if self.returns_resource is None:
                self.returns_resource = (ob.resource, ob.acq_line)
        elif ob.call_kind in ("dotted", "local"):
            self.pending_returns.append(
                (ob.call_kind, ob.call_target, ob.acq_line))

    def _assign(self, targets: list[ast.expr], value: ast.expr,
                line: int) -> None:
        new_ob: _Obligation | None = None
        moved: str | None = None
        if isinstance(value, ast.Call):
            from repro.devtools.callgraph import _call_site

            self._eval_call_args(value)
            site = _call_site(value, self.env)
            kind = _classify_acquisition(site)
            if kind is not None:
                self._risky(line)
                new_ob = _Obligation(kind, site.kind, site.target, line)
            elif site.kind in ("dotted", "local"):
                self._risky(line)
                new_ob = _Obligation(None, site.kind, site.target, line)
            else:
                self._risky(line)
        elif isinstance(value, ast.Name):
            moved = value.id
        else:
            self._eval(value)

        simple = [t for t in targets if isinstance(t, ast.Name)]
        attrs = [t for t in targets if isinstance(t, ast.Attribute)]
        for target in targets:
            if not isinstance(target, (ast.Name, ast.Attribute)):
                self._escape_expr(value)
                new_ob = None
                moved = None

        if attrs and self.class_name is not None:
            for target in attrs:
                if isinstance(target.value, ast.Name) \
                        and target.value.id == "self":
                    if new_ob is not None:
                        self.field_transfers.append(FieldTransfer(
                            attr=target.attr,
                            resource=new_ob.resource or "",
                            line=line, call_kind=(new_ob.call_kind
                                                  if new_ob.resource is None
                                                  else ""),
                            call_target=(new_ob.call_target
                                         if new_ob.resource is None
                                         else "")))
                        new_ob = None
                    elif moved is not None:
                        ob = self.obligations.get(moved)
                        if ob is not None and ob.state == "open":
                            self.field_transfers.append(FieldTransfer(
                                attr=target.attr,
                                resource=ob.resource or "",
                                line=line,
                                call_kind=(ob.call_kind if ob.resource
                                           is None else ""),
                                call_target=(ob.call_target if ob.resource
                                             is None else "")))
                            ob.state = "escaped"
                            ob.risky_line = None
        elif attrs:
            if new_ob is None and moved is not None:
                self._escape(moved)
            new_ob = None

        for target in simple:
            existing = self.obligations.pop(target.id, None)
            if existing is not None and existing.state == "open":
                self._record(existing, "unclosed", target.id, line)
            if new_ob is not None:
                self.obligations[target.id] = new_ob.copy() \
                    if len(simple) > 1 else new_ob
            elif moved is not None and moved in self.obligations:
                self.obligations[target.id] = self.obligations.pop(moved)

    def _eval_call_args(self, call: ast.Call) -> None:
        """Arguments first: open resources passed along are handed off."""
        for arg in call.args:
            self._eval(arg)
            self._escape_expr(arg)
        for keyword in call.keywords:
            self._eval(keyword.value)
            self._escape_expr(keyword.value)

    def _eval(self, expr: ast.expr | None) -> None:
        if expr is None:
            return
        if isinstance(expr, ast.Call):
            from repro.devtools.callgraph import _call_site

            func = expr.func
            closes: str | None = None
            if isinstance(func, ast.Attribute) and isinstance(
                    func.value, ast.Name):
                if func.attr in CLOSE_METHODS:
                    closes = func.value.id
            self._eval_call_args(expr)
            if closes is not None:
                ob = self.obligations.get(closes)
                if ob is not None:
                    ob.state = "closed"
                    ob.risky_line = None
                    return
                return
            site = _call_site(expr, self.env)
            if _classify_acquisition(site) is not None:
                # Result dropped on the floor: acquired and unbound.
                self._risky(expr.lineno)
                return
            self._risky(expr.lineno)
            return
        if isinstance(expr, (ast.Yield, ast.YieldFrom)):
            self._escape_expr(expr.value)
            self._eval(expr.value)
            return
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                self._eval(child)
            elif isinstance(child, ast.comprehension):
                self._eval(child.iter)
            elif isinstance(child, ast.keyword):
                self._eval(child.value)


def concurrency_summary(node: ast.FunctionDef | ast.AsyncFunctionDef,
                        qualname: str, class_name: str | None,
                        env: dict[str, str], module: str,
                        data_globals: frozenset[str],
                        ) -> FunctionConcurrencySummary | None:
    """Concurrency/lifecycle facts of one function; ``None`` when trivial."""
    extractor = _ConcurrencyExtractor(node, env, module, class_name,
                                      data_globals)
    extractor.run()
    tracker = _LifecycleTracker(node, env, class_name)
    tracker.run()

    seen_access: set[tuple[str, str, str, tuple[str, ...], str]] = set()
    accesses = []
    for access in extractor.accesses:
        key = (access.scope, access.name, access.mode, access.guards,
               access.owner)
        if key not in seen_access:
            seen_access.add(key)
            accesses.append(access)
    seen_call: set[tuple[str, str, tuple[str, ...], str]] = set()
    calls = []
    for call in extractor.calls:
        ckey = (call.kind, call.target, call.guards, call.owner)
        if ckey not in seen_call:
            seen_call.add(ckey)
            calls.append(call)

    last = qualname.split(".")[-1]
    summary = FunctionConcurrencySummary(
        name=qualname, class_name=class_name,
        is_ctor=last in ("__init__", "__post_init__"),
        spawns=tuple(extractor.spawns),
        accesses=tuple(accesses),
        calls=tuple(calls),
        attr_types=tuple(dict.fromkeys(extractor.attr_types)),
        leaks=tuple(tracker.leaks),
        pending_leaks=tuple(tracker.pending_leaks),
        field_transfers=tuple(tracker.field_transfers),
        attr_closes=tuple(dict.fromkeys(extractor.attr_closes)),
        returns_resource=tracker.returns_resource,
        pending_returns=tuple(dict.fromkeys(tracker.pending_returns)),
    )
    return None if summary.is_trivial else summary


# -- the interprocedural role/race analysis ----------------------------------

@dataclass(frozen=True)
class ConcurrencyFinding:
    """One RPR011/RPR012 finding, ready for a project diagnostic."""

    path: str
    line: int
    message: str


_RACE_REMEDY = ("hold one consistent lock at every cross-thread access, "
                "confine writes to the constructor, use an intrinsically "
                "safe type, or suppress with a justified noqa[RPR011]")

_LEAK_REMEDY = ("close it with a with-block or try/finally, transfer "
                "ownership, or suppress with a justified noqa[RPR012]")


class RaceAnalysis:
    """Thread-role inference and cross-role shared-state race detection."""

    def __init__(self, project) -> None:
        self.project = project
        # qualname -> (module, FunctionConcurrencySummary)
        self._funcs: dict[str, tuple[str, FunctionConcurrencySummary]] = {}
        for module, summary in project.summaries.items():
            for name, facts in getattr(summary, "concurrency", {}).items():
                self._funcs["%s.%s" % (module, name)] = (module, facts)
        #: role id -> human label
        self._role_labels: dict[str, str] = {MAIN_ROLE: "main"}
        #: (qual, owner) -> role for nested thread targets
        self._nested_roles: dict[tuple[str, str], str] = {}
        self._roles: dict[str, set[str]] = {
            qual: {MAIN_ROLE} for qual in self._funcs}
        #: (role, qual) -> (caller qual, line) provenance, None at roots
        self._parents: dict[tuple[str, str], tuple[str, int] | None] = {}
        self._entry_cache: dict[str, dict[str, frozenset | None]] = {}
        self._resolved: dict[tuple, tuple[str, ...]] = {}
        self._attr_type_cache: dict[tuple[str, str], dict[str, str]] = {}
        self._seed_roles()
        self._propagate_roles()

    # -- resolution ----------------------------------------------------------

    def _attr_type_map(self, module: str, class_name: str) -> dict[str, str]:
        """attr -> dotted constructor type, merged over a class's methods."""
        key = (module, class_name)
        cached = self._attr_type_cache.get(key)
        if cached is not None:
            return cached
        merged: dict[str, str] = {}
        summary = self.project.summaries.get(module)
        if summary is not None:
            for facts in getattr(summary, "concurrency", {}).values():
                if facts.class_name != class_name:
                    continue
                for attr, dotted in facts.attr_types:
                    merged.setdefault(attr, dotted)
        self._attr_type_cache[key] = merged
        return merged

    def _mro_method(self, class_qual: str, meth: str,
                    depth: int = 0) -> str | None:
        """Qualname of ``meth`` on the class or a project base, if any.

        Unresolvable bases are treated as external: a method found
        nowhere on the project-visible MRO dispatches outside the
        project (or is a plain data attribute) and yields no edge.
        """
        if depth > 5:
            return None
        module, _, cls = class_qual.rpartition(".")
        summary = self.project.summaries.get(module)
        if summary is None:
            return None
        if meth in summary.classes.get(cls, ()):
            return "%s.%s" % (class_qual, meth)
        for ref in getattr(summary, "class_bases", {}).get(cls, ()):
            resolved = self.project.resolve_callable(ref)
            if resolved is not None and resolved[0] == "class":
                found = self._mro_method(resolved[1], meth, depth + 1)
                if found is not None:
                    return found
        return None

    def _typed_method(self, meth: str, recv: str, module: str,
                      class_name: str | None) -> tuple[str, ...] | None:
        """Receiver-typed method resolution; ``None`` = fall back to CHA.

        A known receiver type that resolves to no project class (e.g.
        ``threading.Lock``) dispatches outside the project — the empty
        tuple; so does a project class whose visible MRO lacks the
        method (a data attribute, or an external base's method).
        """
        if not recv:
            return None
        if recv == "<super>":
            # ``super().meth()``: dispatch starts at the first base.
            if class_name is None:
                return ()
            summary = self.project.summaries.get(module)
            if summary is None:
                return ()
            for ref in getattr(summary, "class_bases", {}).get(
                    class_name, ()):
                resolved = self.project.resolve_callable(ref)
                if resolved is not None and resolved[0] == "class":
                    found = self._mro_method(resolved[1], meth)
                    if found is not None:
                        return (found,) if found in self._funcs else ()
            return ()
        if recv == "<self>":
            if class_name is None:
                return None
            dotted = "%s.%s" % (module, class_name)
        elif recv.startswith("<attr:"):
            if class_name is None:
                return None
            dotted = self._attr_type_map(module, class_name).get(recv[6:-1])
            if dotted is None:
                return None
        else:
            dotted = recv
        for _ in range(3):  # ``<attrof:...>`` markers may chain briefly
            if not dotted.startswith("<attrof:"):
                break
            type_ref, _, attr = dotted[len("<attrof:"):-1].rpartition(":")
            resolved = self.project.resolve_callable(type_ref)
            if resolved is None or resolved[0] != "class":
                return None
            owner_mod, _, owner_cls = resolved[1].rpartition(".")
            next_dotted = self._attr_type_map(owner_mod,
                                              owner_cls).get(attr)
            if next_dotted is None:
                return None
            dotted = next_dotted
        else:
            return None
        resolved = self.project.resolve_callable(dotted)
        if resolved is None:
            return ()
        if resolved[0] != "class":
            return None
        found = self._mro_method(resolved[1], meth)
        if found is None:
            return ()
        return (found,) if found in self._funcs else ()

    def _resolve(self, kind: str, target: str, module: str,
                 recv: str = "", class_name: str | None = None,
                 ) -> tuple[str, ...]:
        """Project function qualnames one call may dispatch to."""
        key = (kind, target, module, recv, class_name)
        cached = self._resolved.get(key)
        if cached is not None:
            return cached
        project = self.project
        quals: list[str] = []
        if kind == "dotted":
            resolved = project.resolve_callable(target)
            if resolved is not None:
                if resolved[0] == "function":
                    quals.append(resolved[1])
                elif resolved[0] == "class":
                    quals.extend(project.constructor_functions(resolved[1]))
        elif kind == "local":
            summary = project.summaries.get(module)
            if summary is not None:
                if target in summary.functions:
                    quals.append("%s.%s" % (module, target))
                elif target in summary.classes:
                    quals.extend(project.constructor_functions(
                        "%s.%s" % (module, target)))
        else:  # method
            typed = self._typed_method(target, recv, module, class_name)
            if typed is not None:
                quals.extend(typed)
            else:
                quals.extend(project.methods_named_from(
                    target, module)[:_MAX_CANDIDATES])
        found = tuple(qual for qual in quals if qual in self._funcs)
        self._resolved[key] = found
        return found

    def _resolve_call(self, call: GuardedCall, module: str,
                      facts: FunctionConcurrencySummary) -> tuple[str, ...]:
        return self._resolve(call.kind, call.target, module,
                             recv=call.recv, class_name=facts.class_name)

    def _spawn_target(self, qual: str, module: str,
                      facts: FunctionConcurrencySummary,
                      spawn: ThreadSpawn) -> tuple[str, str | None] | None:
        """``(role id, rooted qual | None)`` for one spawn site.

        A rooted qual of ``None`` means the role lives in the spawning
        function's nested def (``<nested:NAME>`` targets).
        """
        target = spawn.target
        if target == "<lambda>":
            return None
        if target.startswith("<nested:"):
            name = target[len("<nested:"):-1]
            role = "%s.<%s>" % (qual, name)
            self._nested_roles[(qual, name)] = role
            return role, None
        if target.startswith("<self:"):
            name = target[len("<self:"):-1]
            if facts.class_name is None:
                return None
            rooted = "%s.%s.%s" % (module, facts.class_name, name)
            return rooted, rooted
        resolved = self._resolve("dotted", target, module)
        if resolved:
            return resolved[0], resolved[0]
        return None

    # -- role propagation ----------------------------------------------------

    def _seed_roles(self) -> None:
        for qual, (module, facts) in self._funcs.items():
            for spawn in facts.spawns:
                entry = self._spawn_target(qual, module, facts, spawn)
                if entry is None:
                    continue
                role, rooted = entry
                self._role_labels[role] = "thread '%s'" % role
                if rooted is not None and rooted in self._roles:
                    self._roles[rooted].add(role)
                    self._parents[(role, rooted)] = None

    def _call_roles(self, qual: str, call: GuardedCall) -> set[str]:
        """Roles a call site runs under (nested spawn bodies excepted)."""
        if call.owner:
            nested = self._nested_roles.get((qual, call.owner))
            if nested is not None:
                return {nested}
        return self._roles[qual]

    def _propagate_roles(self) -> None:
        changed = True
        while changed:
            changed = False
            for qual, (module, facts) in self._funcs.items():
                for call in facts.calls:
                    roles = self._call_roles(qual, call)
                    if not roles:
                        continue
                    for callee in self._resolve_call(call, module, facts):
                        for role in roles:
                            if role not in self._roles[callee]:
                                self._roles[callee].add(role)
                                self._parents[(role, callee)] = (qual,
                                                                 call.line)
                                changed = True

    # -- interprocedural lock domination -------------------------------------

    def _entry_guards(self, role: str) -> dict[str, frozenset | None]:
        """Entry-guard map for one role; ``None`` values mean unknown.

        A function's entry guards are the locks provably held at *every*
        in-role call site reaching it.  Role roots (thread targets, and
        main-role functions nobody in the project calls) enter with no
        locks held; everything else intersects over its incoming edges.
        Unknown (unreached) stays ``None``, which the race check treats
        as fully guarded — conservative toward silence.
        """
        cached = self._entry_cache.get(role)
        if cached is not None:
            return cached
        edges: dict[str, list[tuple[str | None, tuple[str, ...]]]] = {}
        for qual, (module, facts) in self._funcs.items():
            for call in facts.calls:
                roles = self._call_roles(qual, call)
                if role not in roles:
                    continue
                # A call inside a spawned nested def starts from a clean
                # stack: the thread entered holding nothing.
                caller: str | None = qual
                if call.owner and self._nested_roles.get(
                        (qual, call.owner)) == role:
                    caller = None
                for callee in self._resolve_call(call, module, facts):
                    edges.setdefault(callee, []).append(
                        (caller, call.guards))
        roots: set[str] = set()
        if role == MAIN_ROLE:
            for qual in self._funcs:
                if qual not in edges:
                    roots.add(qual)
        else:
            for (seen_role, qual), parent in self._parents.items():
                if seen_role == role and parent is None:
                    roots.add(qual)
        entry: dict[str, frozenset | None] = {root: frozenset()
                                              for root in roots}
        changed = True
        while changed:
            changed = False
            for callee, incoming in edges.items():
                if role not in self._roles.get(callee, ()):
                    continue
                values = []
                for caller, guards in incoming:
                    if caller is None:
                        values.append(frozenset(guards))
                        continue
                    caller_entry = entry.get(caller)
                    if caller_entry is None:
                        continue  # unknown caller: identity for ∩
                    values.append(caller_entry | frozenset(guards))
                if not values:
                    continue
                new = values[0]
                for value in values[1:]:
                    new = new & value
                if callee in roots:
                    new = frozenset()
                if entry.get(callee) != new:
                    entry[callee] = new
                    changed = True
        self._entry_cache[role] = entry
        return entry

    def _access_roles(self, qual: str, access: SharedAccess) -> set[str]:
        if access.owner:
            nested = self._nested_roles.get((qual, access.owner))
            if nested is not None:
                return {nested}
        return self._roles[qual]

    def _effective_guards(self, qual: str, access: SharedAccess,
                          role: str) -> frozenset | None:
        """Locks held at one access under one role; ``None`` = unknown."""
        if access.owner and self._nested_roles.get(
                (qual, access.owner)) == role:
            entry: frozenset | None = frozenset()
        else:
            entry = self._entry_guards(role).get(qual)
        if entry is None:
            return None
        return entry | frozenset(access.guards)

    # -- safe/sanctioned sets ------------------------------------------------

    def _safe_attrs(self, module: str, class_name: str) -> set[str]:
        """Attributes of one class constructed as intrinsically safe."""
        summary = self.project.summaries.get(module)
        safe: set[str] = set()
        if summary is None:
            return safe
        for facts in getattr(summary, "concurrency", {}).values():
            if facts.class_name != class_name:
                continue
            for attr, dotted in facts.attr_types:
                for name in SAFE_TYPES:
                    if dotted == name or dotted.endswith("." + name) \
                            or dotted.endswith("." + name.split(".")[-1]):
                        safe.add(attr)
        return safe

    def _sanctioned_globals(self) -> dict[str, set[str]]:
        """module -> RPR008 initializer-owned global names."""
        project = self.project
        sanctioned: dict[str, set[str]] = {}
        for qual in sorted(project.initializers()):
            module = project.resolve_module(qual)
            function = project.function(qual)
            if module is not None and function is not None:
                sanctioned.setdefault(module, set()).update(
                    name for name, _ in function.global_writes)
        return sanctioned

    # -- findings ------------------------------------------------------------

    def _role_chain(self, role: str, qual: str) -> list[str]:
        chain = [qual]
        seen = {qual}
        current = qual
        while True:
            parent = self._parents.get((role, current))
            if parent is None:
                break
            caller, _line = parent
            if caller in seen:
                break
            chain.append(caller)
            seen.add(caller)
            current = caller
        chain.reverse()
        return chain

    def _describe(self, role: str, qual: str, line: int,
                  mode: str) -> str:
        label = self._role_labels.get(role, role)
        chain = self._role_chain(role, qual)
        route = " -> ".join(chain) if len(chain) > 1 else chain[0]
        return "%s via %s (line %d, %s)" % (label, route, line, mode)

    def findings(self) -> list[ConcurrencyFinding]:
        groups: dict[tuple, list[tuple[str, SharedAccess]]] = {}
        for qual, (module, facts) in self._funcs.items():
            for access in facts.accesses:
                if access.scope == "attr":
                    if facts.class_name is None:
                        continue
                    key = ("attr", module, facts.class_name, access.name)
                else:
                    key = ("global", module, "", access.name)
                groups.setdefault(key, []).append((qual, access))

        sanctioned = self._sanctioned_globals()
        found: list[ConcurrencyFinding] = []
        for key in sorted(groups):
            scope, module, class_name, name = key
            entries = groups[key]
            if scope == "global" and name in sanctioned.get(module, set()):
                continue
            if scope == "attr" and name in self._safe_attrs(module,
                                                            class_name):
                continue
            writes = [(qual, access) for qual, access in entries
                      if access.mode == "write"
                      and not self._funcs[qual][1].is_ctor]
            if not writes:
                continue
            if not any(True for qual, _ in entries
                       if not self._funcs[qual][1].is_ctor):
                continue
            # thread-confined: every write happens in a constructor
            # (checked above: ``writes`` excludes constructors already).
            finding = self._race_in_group(scope, module, class_name, name,
                                          entries, writes)
            if finding is not None:
                found.append(finding)
        return sorted(found, key=lambda f: (f.path, f.line, f.message))

    def _race_in_group(self, scope: str, module: str, class_name: str,
                       name: str, entries, writes,
                       ) -> ConcurrencyFinding | None:
        for w_qual, write in sorted(writes,
                                    key=lambda e: (e[0], e[1].line)):
            for r1 in sorted(self._access_roles(w_qual, write)):
                g1 = self._effective_guards(w_qual, write, r1)
                for a_qual, access in sorted(
                        entries, key=lambda e: (e[0], e[1].line)):
                    if self._funcs[a_qual][1].is_ctor:
                        continue
                    for r2 in sorted(self._access_roles(a_qual, access)):
                        if r1 == r2:
                            continue
                        g2 = self._effective_guards(a_qual, access, r2)
                        if g1 is None or g2 is None:
                            continue
                        if g1 & g2:
                            continue
                        label = ("attribute '%s.%s'" % (class_name, name)
                                 if scope == "attr"
                                 else "module global '%s.%s'" % (module,
                                                                 name))
                        w_path = self.project.summaries[
                            self._funcs[w_qual][0]].path
                        message = (
                            "shared %s is written by %s and accessed by "
                            "%s with no common lock guard (%s)" % (
                                label,
                                self._describe(r1, w_qual, write.line,
                                               "write"),
                                self._describe(r2, a_qual, access.line,
                                               access.mode),
                                _RACE_REMEDY))
                        return ConcurrencyFinding(w_path, write.line,
                                                  message)
        return None


# -- the interprocedural lifecycle analysis ----------------------------------

class LifecycleAnalysis:
    """Must-close resolution over the project graph (RPR012)."""

    def __init__(self, project) -> None:
        self.project = project
        self._funcs: dict[str, tuple[str, FunctionConcurrencySummary]] = {}
        for module, summary in project.summaries.items():
            for name, facts in getattr(summary, "concurrency", {}).items():
                self._funcs["%s.%s" % (module, name)] = (module, facts)
        #: qual -> (resource kind, acquisition line)
        self._returners: dict[str, tuple[str, int]] = {}
        self._solve_returners()

    def _resolve(self, kind: str, target: str,
                 module: str) -> tuple[str, ...]:
        project = self.project
        if kind == "dotted":
            resolved = project.resolve_callable(target)
            if resolved is not None and resolved[0] == "function":
                return (resolved[1],)
            return ()
        if kind == "local":
            summary = project.summaries.get(module)
            if summary is not None and target in summary.functions:
                return ("%s.%s" % (module, target),)
        return ()

    def _solve_returners(self) -> None:
        for qual, (_module, facts) in self._funcs.items():
            if facts.returns_resource is not None:
                self._returners[qual] = facts.returns_resource
        changed = True
        while changed:
            changed = False
            for qual, (module, facts) in self._funcs.items():
                if qual in self._returners:
                    continue
                for kind, target, line in facts.pending_returns:
                    for callee in self._resolve(kind, target, module):
                        entry = self._returners.get(callee)
                        if entry is not None:
                            self._returners[qual] = (entry[0], line)
                            changed = True
                            break
                    if qual in self._returners:
                        break

    def _leak_message(self, qual: str, resource: str, leak_kind: str,
                      acq_line: int, line: int,
                      via: str | None = None) -> str:
        source = "%s (line %d)" % (qual, acq_line)
        if via is not None:
            source += " -> %s" % via
        if leak_kind == "exception":
            detail = ("line %d can raise before it is closed" % line)
        else:
            detail = ("a path reaches line %d with it still open" % line)
        return ("%s acquired in %s is not closed on every path: %s (%s)"
                % (resource, source, detail, _LEAK_REMEDY))

    def findings(self) -> list[ConcurrencyFinding]:
        found: list[ConcurrencyFinding] = []
        for qual in sorted(self._funcs):
            module, facts = self._funcs[qual]
            summary = self.project.summaries.get(module)
            path = summary.path if summary is not None else module
            for leak in facts.leaks:
                found.append(ConcurrencyFinding(
                    path, leak.acq_line,
                    self._leak_message(qual, leak.resource, leak.kind,
                                       leak.acq_line, leak.line)))
            for leak in facts.pending_leaks:
                for callee in self._resolve(leak.call_kind,
                                            leak.call_target, module):
                    entry = self._returners.get(callee)
                    if entry is None:
                        continue
                    via = ("%s (returns the open %s acquired at line %d)"
                           % (callee, entry[0], entry[1]))
                    found.append(ConcurrencyFinding(
                        path, leak.acq_line,
                        self._leak_message(qual, entry[0], leak.kind,
                                           leak.acq_line, leak.line,
                                           via=via)))
                    break
        found.extend(self._field_findings())
        seen: set[tuple[str, int, str]] = set()
        unique = [f for f in found
                  if (key := (f.path, f.line, f.message)) not in seen
                  and not seen.add(key)]
        return sorted(unique, key=lambda f: (f.path, f.line, f.message))

    def _field_findings(self) -> list[ConcurrencyFinding]:
        transfers: dict[tuple[str, str, str],
                        list[tuple[str, FieldTransfer]]] = {}
        closes: dict[tuple[str, str], set[str]] = {}
        for qual, (module, facts) in self._funcs.items():
            if facts.class_name is None:
                continue
            closes.setdefault((module, facts.class_name), set()).update(
                facts.attr_closes)
            for transfer in facts.field_transfers:
                key = (module, facts.class_name, transfer.attr)
                transfers.setdefault(key, []).append((qual, transfer))
        found: list[ConcurrencyFinding] = []
        for key in sorted(transfers):
            module, class_name, attr = key
            if attr in closes.get((module, class_name), set()):
                continue
            qual, transfer = sorted(transfers[key],
                                    key=lambda e: e[1].line)[0]
            resource = transfer.resource
            via = None
            if not resource:
                resolved = None
                for callee in self._resolve(transfer.call_kind,
                                            transfer.call_target, module):
                    resolved = self._returners.get(callee)
                    if resolved is not None:
                        via = callee
                        break
                if resolved is None:
                    continue
                resource = resolved[0]
            summary = self.project.summaries.get(module)
            path = summary.path if summary is not None else module
            source = "%s (line %d)" % (qual, transfer.line)
            if via is not None:
                source += " -> %s (returns the open %s)" % (via, resource)
            message = ("%s stored on %s.%s in %s but no %s method closes "
                       "self.%s (add a close/shutdown path that releases "
                       "it, or suppress with a justified noqa[RPR012])"
                       % (resource, class_name, attr, source, class_name,
                          attr))
            found.append(ConcurrencyFinding(path, transfer.line, message))
        return found
