"""Purity and determinism inference over the project call graph.

The runtime's cache-soundness story (DESIGN.md §9–10) rests on stage
functions being *pure*: their outputs a function of their inputs only, so
that ``H(fingerprint, stage, code_version, params)`` addresses exactly one
value.  This module infers, for every function in a
:class:`~repro.devtools.callgraph.Project`, where it sits on a small
effect lattice::

    PURE < READS_ENV < MUTATES_GLOBAL < IO < NONDETERMINISTIC

ordered by how badly the effect undermines caching: reading ambient
configuration makes a result machine-dependent, mutating module state
makes it order-dependent, I/O makes it world-dependent, and
nondeterminism (clocks, OS entropy) makes it unrepeatable outright.

Inference is a fixpoint over the call graph: a function's effect is the
join (max) of its *intrinsic* effects — calls into a catalog of impure
stdlib entry points, writes to module-level state — and the effects of
every callee the graph can resolve.  Unresolvable calls (dynamic
dispatch the class-hierarchy fallback cannot place, computed callables)
conservatively join to :attr:`Effect.NONDETERMINISTIC`: an analyzer that
guesses "pure" on unknown code would certify unsound cache keys.

Every non-PURE verdict carries a witness chain
(:meth:`EffectAnalysis.explain`) from the queried function down to the
intrinsic evidence, so RPR006 findings read as a call path, not a
verdict.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids a cycle
    from repro.devtools.callgraph import CallSite, FunctionSummary, Project


class Effect(enum.IntEnum):
    """The effect lattice; join is :func:`max` over the integer order."""

    PURE = 0
    READS_ENV = 1
    MUTATES_GLOBAL = 2
    IO = 3
    NONDETERMINISTIC = 4


#: Dotted-suffix catalog of impure stdlib entry points.  A call whose
#: resolved dotted path ends with a key (``time.time``, ``os.environ.get``
#: via ``("environ", "get")``) carries the mapped effect.
IMPURE_SUFFIXES: dict[tuple[str, ...], Effect] = {
    # -- nondeterminism: clocks and entropy
    ("time", "time"): Effect.NONDETERMINISTIC,
    ("time", "time_ns"): Effect.NONDETERMINISTIC,
    ("time", "monotonic"): Effect.NONDETERMINISTIC,
    ("time", "monotonic_ns"): Effect.NONDETERMINISTIC,
    ("time", "perf_counter"): Effect.NONDETERMINISTIC,
    ("time", "perf_counter_ns"): Effect.NONDETERMINISTIC,
    ("time", "process_time"): Effect.NONDETERMINISTIC,
    ("datetime", "now"): Effect.NONDETERMINISTIC,
    ("datetime", "utcnow"): Effect.NONDETERMINISTIC,
    ("datetime", "today"): Effect.NONDETERMINISTIC,
    ("date", "today"): Effect.NONDETERMINISTIC,
    ("os", "urandom"): Effect.NONDETERMINISTIC,
    ("uuid", "uuid1"): Effect.NONDETERMINISTIC,
    ("uuid", "uuid4"): Effect.NONDETERMINISTIC,
    # -- environment reads: results become machine-dependent
    ("os", "getenv"): Effect.READS_ENV,
    ("environ", "get"): Effect.READS_ENV,
    ("os", "getcwd"): Effect.READS_ENV,
    ("os", "getpid"): Effect.READS_ENV,
    ("os", "cpu_count"): Effect.READS_ENV,
    ("multiprocessing", "cpu_count"): Effect.READS_ENV,
    # -- I/O
    ("time", "sleep"): Effect.IO,
    ("os", "remove"): Effect.IO,
    ("os", "unlink"): Effect.IO,
    ("os", "rename"): Effect.IO,
    ("os", "replace"): Effect.IO,
    ("os", "mkdir"): Effect.IO,
    ("os", "makedirs"): Effect.IO,
    ("os", "utime"): Effect.IO,
    ("os", "system"): Effect.IO,
    ("os", "listdir"): Effect.IO,
    ("sys", "exit"): Effect.IO,
    ("stdout", "write"): Effect.IO,
    ("stderr", "write"): Effect.IO,
    ("json", "load"): Effect.IO,
    ("json", "dump"): Effect.IO,
    ("pickle", "load"): Effect.IO,
    ("pickle", "dump"): Effect.IO,
}

#: Module prefixes whose entire call surface carries one effect.
#: ``numpy.random`` and numpy's file I/O entry points are listed before
#: the blanket ``numpy.`` pure prefix below catches the rest.
IMPURE_PREFIXES: dict[str, Effect] = {
    "random.": Effect.NONDETERMINISTIC,
    "secrets.": Effect.NONDETERMINISTIC,
    "subprocess.": Effect.IO,
    "socket.": Effect.IO,
    "shutil.": Effect.IO,
    "logging.": Effect.IO,
    "tempfile.": Effect.IO,
    "platform.": Effect.READS_ENV,
    "numpy.random.": Effect.NONDETERMINISTIC,
    "numpy.load": Effect.IO,
    "numpy.save": Effect.IO,
    "numpy.loadtxt": Effect.IO,
    "numpy.savetxt": Effect.IO,
    "numpy.genfromtxt": Effect.IO,
    "numpy.fromfile": Effect.IO,
    "numpy.memmap": Effect.IO,
}

#: Exceptions to the prefix rules, checked first: a seeded
#: ``random.Random(seed)`` is a deterministic value constructor (RPR001
#: separately polices the unseeded form).
IMPURE_PREFIX_EXEMPT = frozenset({"random.Random"})

#: Stdlib module prefixes that are pure by contract (value computation
#: only).  ``json.load``/``pickle.dump`` stream variants are caught by the
#: suffix catalog before these prefixes apply.
PURE_PREFIXES = (
    "math.", "itertools.", "functools.", "statistics.", "heapq.",
    "bisect.", "collections.", "re.", "operator.", "string.", "textwrap.",
    "enum.", "dataclasses.", "copy.", "decimal.", "fractions.",
    "hashlib.", "struct.", "binascii.", "json.", "pickle.", "abc.",
    "typing.", "ipaddress.", "array.", "difflib.", "unicodedata.",
    "datetime.", "calendar.", "zoneinfo.",
    # The columnar kernels (DESIGN.md §16) are built on numpy's array
    # calculus, which is deterministic value computation; the
    # nondeterministic (numpy.random) and file-I/O entry points are
    # carved out by IMPURE_PREFIXES above, which win by catalog order.
    "numpy.",
)

#: Calls whose purity hinges on an argument.  ``datetime.fromtimestamp``
#: is a deterministic conversion when given an explicit ``tz``, but reads
#: the host timezone database without one.
TZ_SENSITIVE_SUFFIX = ("datetime", "fromtimestamp")

#: Builtins that compute values without observable effects.  Mutation of
#: *local* data (``setattr`` on an object the caller built) is treated as
#: pure: the analysis polices module-level state separately.
PURE_BUILTINS = frozenset({
    "abs", "all", "any", "ascii", "bin", "bool", "bytearray", "bytes",
    "callable", "chr", "classmethod", "complex", "dict", "divmod",
    "enumerate", "filter", "float", "format", "frozenset", "getattr",
    "hasattr", "hash", "hex", "id", "int", "isinstance", "issubclass",
    "iter", "len", "list", "map", "max", "min", "next", "object", "oct",
    "ord", "pow", "property", "range", "repr", "reversed", "round",
    "set", "setattr", "slice", "sorted", "staticmethod", "str", "sum",
    "super", "tuple", "type", "zip",
    # exception constructors raised by pure validation code
    "ArithmeticError", "AssertionError", "AttributeError", "BaseException",
    "Exception", "FileNotFoundError", "IndexError", "KeyError",
    "LookupError", "NotImplementedError", "OSError", "OverflowError",
    "RuntimeError", "StopIteration", "TypeError", "ValueError",
    "ZeroDivisionError",
})

#: Builtin callables with effects, matched on bare-name calls.
IMPURE_BUILTINS: dict[str, Effect] = {
    "open": Effect.IO,
    "print": Effect.IO,
    "input": Effect.IO,
    "breakpoint": Effect.IO,
    "exit": Effect.IO,
    "quit": Effect.IO,
    "globals": Effect.READS_ENV,
    "locals": Effect.READS_ENV,
    "vars": Effect.READS_ENV,
    "eval": Effect.NONDETERMINISTIC,
    "exec": Effect.NONDETERMINISTIC,
    "compile": Effect.NONDETERMINISTIC,
    "__import__": Effect.NONDETERMINISTIC,
}

#: Method names that perform I/O on any plausible receiver (file objects,
#: :class:`pathlib.Path`).  Checked only after class-hierarchy resolution
#: fails, so a project class may define e.g. ``write`` with pure meaning.
IO_METHODS = frozenset({
    "read", "write", "readline", "readlines", "writelines", "flush",
    "close", "seek", "read_text", "write_text", "read_bytes",
    "write_bytes", "unlink", "mkdir", "rmdir", "touch", "rename",
    "glob", "rglob", "iterdir", "stat", "exists", "is_file", "is_dir",
    "resolve", "hardlink_to", "symlink_to", "samefile",
})

#: Method names treated as pure when dispatch cannot be resolved to a
#: project class: the shared vocabulary of builtin containers, strings,
#: hashes and compiled regexes.  Receiver mutation (``append`` on a local
#: list) is pure under the local-mutation stance; mutator calls on
#: *module-level* receivers are caught as global writes instead.
PURE_METHODS = frozenset({
    # containers
    "append", "extend", "insert", "add", "update", "clear", "pop",
    "popitem", "remove", "discard", "setdefault", "get", "items", "keys",
    "values", "copy", "count", "index", "sort", "reverse",
    "union", "intersection", "difference", "symmetric_difference",
    "issubset", "issuperset", "isdisjoint", "most_common", "elements",
    # strings / bytes
    "join", "split", "rsplit", "splitlines", "partition", "rpartition",
    "strip", "lstrip", "rstrip", "startswith", "endswith", "lower",
    "upper", "title", "capitalize", "casefold", "replace", "format",
    "format_map", "encode", "decode", "find", "rfind", "ljust", "rjust",
    "center", "zfill", "isdigit", "isalpha", "isalnum", "isspace",
    "isupper", "islower", "isidentifier", "expandtabs", "removeprefix",
    "removesuffix",
    # hashlib digests
    "hexdigest", "digest", "copy",
    # re match objects / compiled patterns
    "match", "fullmatch", "search", "findall", "finditer", "sub", "subn",
    "group", "groups", "groupdict", "start", "end", "span", "compile",
    # namedtuple / dataclass conveniences
    "_replace", "_asdict",
    # datetime / date / time value accessors
    "timetuple", "utctimetuple", "toordinal", "timestamp", "isoformat",
    "weekday", "isoweekday", "isocalendar", "date", "time",
    # pathlib value accessors (no filesystem access)
    "as_posix", "with_suffix", "with_name", "relative_to", "joinpath",
    "is_absolute",
    # sorting conveniences
    "total_seconds",
    # numpy ndarray value computation (the columnar kernels' working
    # vocabulary; numpy file I/O goes through module-level functions
    # catalogued impure, not array methods)
    "tolist", "astype", "searchsorted", "cumsum", "nonzero", "reshape",
    "tobytes", "newbyteorder", "item", "argsort", "ravel", "clip",
    "take", "repeat", "fill", "view", "any", "all", "min", "max", "sum",
    "mean",
    # seeded random.Random drawing methods (the unseeded constructor is
    # RPR001's job, mirroring the random.Random prefix exemption)
    "shuffle", "choice", "sample", "randint", "randrange", "uniform",
    "random", "gauss", "betavariate", "expovariate",
})

#: Decorators that preserve the decorated function's effect verdict.
#: ``functools.lru_cache`` is the canonical member: memoizing a pure
#: function is observationally pure (and the runtime relies on exactly
#: this for its per-probe kernels).  Matched on the final path component.
PRESERVING_DECORATORS = frozenset({
    "lru_cache", "cache", "cached_property", "wraps", "property",
    "staticmethod", "classmethod", "abstractmethod", "contextmanager",
    "overload", "dataclass", "total_ordering", "final",
})


def catalog_effect(dotted: str) -> Effect | None:
    """Effect of a *non-project* dotted call target, ``None`` if unknown.

    Resolution order: exact exemptions, the impure suffix catalog, impure
    module prefixes, pure module prefixes.  ``None`` means the catalog
    has no opinion and the caller must treat the call as unresolved.
    """
    if dotted in IMPURE_PREFIX_EXEMPT:
        return Effect.PURE
    parts = tuple(dotted.split("."))
    for length in (3, 2):
        if len(parts) >= length and parts[-length:] in IMPURE_SUFFIXES:
            return IMPURE_SUFFIXES[parts[-length:]]
    for prefix, effect in IMPURE_PREFIXES.items():
        if dotted.startswith(prefix):
            return effect
    for prefix in PURE_PREFIXES:
        if dotted.startswith(prefix):
            return Effect.PURE
    return None


@dataclass(frozen=True)
class Evidence:
    """Why a function carries its effect.

    ``via`` is the qualified name of the callee the effect propagated
    from, or ``None`` when the evidence is intrinsic to the function —
    then ``detail``/``line`` point at the offending call or write.
    """

    effect: Effect
    detail: str
    line: int
    via: str | None = None


class EffectAnalysis:
    """Fixpoint effect inference over one :class:`Project`.

    Build once per lint run; :meth:`effect_of` and :meth:`explain` answer
    queries for every function the project defines.
    """

    def __init__(self, project: "Project") -> None:
        self.project = project
        self._effects: dict[str, Effect] = {}
        self._evidence: dict[str, Evidence] = {}
        self._edges: dict[str, list[str]] = {}
        self._seed()
        self._solve()

    # -- queries ------------------------------------------------------------

    def effect_of(self, qualname: str) -> Effect:
        """Inferred effect of a project function (PURE if undefined here)."""
        return self._effects.get(qualname, Effect.PURE)

    def explain(self, qualname: str) -> list[str]:
        """Witness chain from ``qualname`` down to intrinsic evidence."""
        chain: list[str] = []
        seen: set[str] = set()
        current: str | None = qualname
        while current is not None and current not in seen:
            seen.add(current)
            chain.append(current)
            evidence = self._evidence.get(current)
            if evidence is None:
                break
            if evidence.via is None:
                chain.append("%s (line %d)" % (evidence.detail, evidence.line))
                break
            current = evidence.via
        return chain

    # -- construction -------------------------------------------------------

    def _seed(self) -> None:
        """Intrinsic effects and call edges for every project function."""
        for module, summary in self.project.summaries.items():
            for function in summary.functions.values():
                qualname = "%s.%s" % (module, function.name)
                edges: list[str] = []
                worst = Evidence(Effect.PURE, "", 0)
                for name, line in function.global_writes:
                    worst = self._join(worst, Evidence(
                        Effect.MUTATES_GLOBAL,
                        "write to module-level '%s'" % name, line))
                for site in function.calls:
                    worst = self._join(worst, self._classify_call(
                        module, summary, function, site, edges))
                for decorator in function.decorators:
                    worst = self._join(worst, self._classify_decorator(
                        decorator, function, edges))
                self._effects[qualname] = worst.effect
                if worst.effect is not Effect.PURE:
                    self._evidence[qualname] = worst
                self._edges[qualname] = edges

    @staticmethod
    def _join(current: Evidence, candidate: Evidence | None) -> Evidence:
        if candidate is None or candidate.effect <= current.effect:
            return current
        return candidate

    def _classify_call(self, module: str, summary, function,
                       site: "CallSite", edges: list[str]) -> Evidence | None:
        """Evidence (or ``None``) for one call site; appends graph edges."""
        project = self.project
        if site.kind == "dynamic":
            return Evidence(Effect.NONDETERMINISTIC,
                            "call on a computed callable", site.line)
        if site.kind == "dotted":
            resolved = project.resolve_callable(site.target)
            if resolved is not None:
                kind, qualname = resolved
                if kind == "function":
                    edges.append(qualname)
                    return None
                if kind == "class":
                    edges.extend(project.constructor_functions(qualname))
                    return None
                return None  # bare module reference; not callable evidence
            parts = tuple(site.target.split("."))
            if parts[-2:] == TZ_SENSITIVE_SUFFIX:
                if "tz" in site.kwargs:
                    return None
                return Evidence(
                    Effect.READS_ENV,
                    "%s() without tz= reads the host timezone" % site.target,
                    site.line)
            effect = catalog_effect(site.target)
            if effect is None:
                return Evidence(
                    Effect.NONDETERMINISTIC,
                    "unresolvable call '%s()'" % site.target, site.line)
            if effect is Effect.PURE:
                return None
            return Evidence(effect, "%s()" % site.target, site.line)
        if site.kind == "local":
            name = site.target
            if name in function.local_defs:
                return None  # nested def: its body is folded into ours
            if name == "cls" and function.class_name is not None:
                # classmethod constructing its own class
                edges.extend(project.constructor_functions(
                    "%s.%s" % (module, function.class_name)))
                return None
            if name in summary.functions:
                edges.append("%s.%s" % (module, name))
                return None
            if name in summary.classes:
                edges.extend(project.constructor_functions(
                    "%s.%s" % (module, name)))
                return None
            if name in PURE_BUILTINS:
                return None
            if name in IMPURE_BUILTINS:
                return Evidence(IMPURE_BUILTINS[name], "%s()" % name,
                                site.line)
            return Evidence(Effect.NONDETERMINISTIC,
                            "unresolvable call '%s()'" % name, site.line)
        if site.kind == "super":
            # ``super().meth()``: resolve against the recorded base chain
            # for a precise edge; an external (non-project) base falls
            # through to the class-hierarchy fallback below.
            resolved_up = self._super_methods(module, function.class_name,
                                              site.target)
            if resolved_up:
                edges.extend(resolved_up)
                return None
        # method dispatch: class-hierarchy fallback over project classes
        # visible from the calling module's import closure, else the
        # builtin-method vocabulary, else unknown -> impure.
        candidates = project.methods_named_from(site.target, module)
        if candidates:
            edges.extend(candidates)
            return None
        if site.target in PURE_METHODS:
            return None
        if site.target in IO_METHODS:
            return Evidence(Effect.IO, ".%s()" % site.target, site.line)
        return Evidence(Effect.NONDETERMINISTIC,
                        "unresolved method '.%s()'" % site.target, site.line)

    def _super_methods(self, module: str, class_name: str | None,
                       method: str, _depth: int = 0) -> list[str]:
        """Qualnames a ``super().<method>()`` call can dispatch to.

        Walks the recorded base-class refs upward (bounded, so a base
        cycle terminates), collecting the nearest definition of
        ``method`` along each branch.  Returns ``[]`` when no project
        base defines it — the caller then falls back to plain
        class-hierarchy dispatch.
        """
        if class_name is None or _depth > 10:
            return []
        summary = self.project.summaries.get(module)
        if summary is None:
            return []
        found: list[str] = []
        for base in summary.class_bases.get(class_name, ()):
            resolved = self.project.resolve_callable(base)
            if resolved is None or resolved[0] != "class":
                continue
            base_module, _, base_class = resolved[1].rpartition(".")
            base_summary = self.project.summaries.get(base_module)
            if base_summary is None:
                continue
            name = "%s.%s" % (base_class, method)
            if name in base_summary.functions:
                found.append("%s.%s" % (base_module, name))
            else:
                found.extend(self._super_methods(
                    base_module, base_class, method, _depth + 1))
        return found

    def _classify_decorator(self, decorator: str, function,
                            edges: list[str]) -> Evidence | None:
        last = decorator.rsplit(".", 1)[-1]
        if last in PRESERVING_DECORATORS:
            return None
        resolved = self.project.resolve_callable(decorator)
        if resolved is not None and resolved[0] == "function":
            edges.append(resolved[1])
            return None
        if resolved is not None:
            return None  # decorating with a project class (rare, benign)
        return Evidence(
            Effect.NONDETERMINISTIC,
            "unknown decorator '@%s' may replace the function" % decorator,
            function.line)

    def _solve(self) -> None:
        """Iterate effect propagation to a fixpoint (lattice is finite)."""
        changed = True
        while changed:
            changed = False
            for qualname, edges in self._edges.items():
                current = self._effects[qualname]
                for callee in edges:
                    callee_effect = self._effects.get(callee, Effect.PURE)
                    if callee_effect > current:
                        current = callee_effect
                        self._evidence[qualname] = Evidence(
                            callee_effect, "calls %s" % callee, 0,
                            via=callee)
                        changed = True
                self._effects[qualname] = current


def render_chain(chain: Iterable[str]) -> str:
    """Human-readable witness chain for diagnostics."""
    return " -> ".join(chain)
