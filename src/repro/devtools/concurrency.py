"""Resource-lifecycle analysis (the RPR012 engine).

Sockets, channels, file handles, executors and temporary
files/directories are opened on many error paths of the dist and
runtime layers.  A path-sensitive walk of each function tracks an
obligation per acquisition: every one must be discharged on all paths
by a ``with`` block, a close call reached from every path
(``try``/``finally`` or a closing handler), or an ownership transfer —
returning the resource, passing it to a callee (e.g. registering a
socket with the selector loop that closes it), or storing it on a field
that some method of the class releases.  Calls to project functions
that *return* an open resource (found by a fixpoint over return facts)
create the same obligation in the caller, which is what makes the
witness chains interprocedural.

The analysis runs from serializable per-function facts
(:class:`FunctionConcurrencySummary`) stored on the
:class:`~repro.devtools.callgraph.FileSummary`, so warm incremental
runs replay the whole-project pass without re-parsing.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

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


def _tuple_dicts(items) -> list:
    return [item.to_dict() for item in items]


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
    """The lifecycle facts of one function, serializable."""

    name: str
    class_name: str | None = None
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
        return not (self.leaks or self.pending_leaks
                    or self.field_transfers or self.attr_closes
                    or self.returns_resource or self.pending_returns)

    def to_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "class_name": self.class_name,
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


def _self_attr(expr: ast.expr) -> str | None:
    """First-level attribute name of a ``self.x...`` chain, if any."""
    current = expr
    while isinstance(current, (ast.Attribute, ast.Subscript)):
        if isinstance(current, ast.Attribute) and isinstance(
                current.value, ast.Name) and current.value.id == "self":
            return current.attr
        current = current.value
    return None


def _closed_attrs(node: ast.FunctionDef | ast.AsyncFunctionDef,
                  ) -> tuple[str, ...]:
    """``self`` attributes the body calls a close method on
    (``self.x.close()``, ``self.x[k].shutdown()``), nested defs included
    and nested classes skipped."""
    closed: list[str] = []
    todo: list[ast.AST] = list(node.body)
    while todo:
        child = todo.pop()
        if isinstance(child, ast.ClassDef):
            continue
        if (isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in CLOSE_METHODS):
            attr = _self_attr(child.func.value)
            if attr is not None:
                closed.append(attr)
        todo.extend(ast.iter_child_nodes(child))
    return tuple(dict.fromkeys(closed))


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
                        env: dict[str, str],
                        ) -> FunctionConcurrencySummary | None:
    """Lifecycle facts of one function; ``None`` when trivial."""
    tracker = _LifecycleTracker(node, env, class_name)
    tracker.run()
    summary = FunctionConcurrencySummary(
        name=qualname, class_name=class_name,
        leaks=tuple(tracker.leaks),
        pending_leaks=tuple(tracker.pending_leaks),
        field_transfers=tuple(tracker.field_transfers),
        attr_closes=(_closed_attrs(node) if class_name is not None
                     else ()),
        returns_resource=tracker.returns_resource,
        pending_returns=tuple(dict.fromkeys(tracker.pending_returns)),
    )
    return None if summary.is_trivial else summary


@dataclass(frozen=True)
class ConcurrencyFinding:
    """One RPR012 finding, ready for a project diagnostic."""

    path: str
    line: int
    message: str


_LEAK_REMEDY = ("close it with a with-block or try/finally, transfer "
                "ownership, or suppress with a justified noqa[RPR012]")


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
