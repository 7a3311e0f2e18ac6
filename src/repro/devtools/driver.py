"""Lint driver: per-file pass, whole-project pass, incremental reuse.

The driver owns everything that is not rule-specific: discovering Python
files, parsing them, deriving dotted module names, attaching parent links to
AST nodes (several checkers need to know the context a node appears in),
honouring ``# repro: noqa[RULE]`` suppression comments, handing every
file's record to the whole-project rule (RPR010), and reusing cached
per-file results for files whose content fingerprint has not changed
(:mod:`repro.devtools.incremental`).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.devtools.diagnostics import Diagnostic
from repro.devtools.registry import ProjectChecker, select_checkers

#: Suppression comment: ``# repro: noqa`` silences every rule on the line,
#: ``# repro: noqa[RPR001]`` / ``# repro: noqa[RPR001,RPR003]`` only those.
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Za-z0-9_,\s]+)\])?"
)

#: Sentinel stored in the noqa map when a line suppresses every rule.
_ALL_RULES = frozenset({"*"})


@dataclass
class FileContext:
    """Everything a checker may want to know about one parsed file."""

    path: str
    module: str
    tree: ast.Module
    source: str
    lines: list[str] = field(default_factory=list)
    is_package: bool = False

    @property
    def layer(self) -> str | None:
        """The top-level ``repro`` subpackage this module lives in, if any."""
        parts = self.module.split(".")
        if len(parts) >= 2 and parts[0] == "repro":
            return parts[1]
        return None


def module_name_for(path: Path) -> str:
    """Derive the dotted module name of ``path`` from its package layout.

    Walks up through directories that contain ``__init__.py``, so it works
    for the real tree and for fixture trees in temporary directories alike.
    """
    path = path.resolve()
    parts: list[str] = [] if path.name == "__init__.py" else [path.stem]
    current = path.parent
    while (current / "__init__.py").is_file():
        parts.insert(0, current.name)
        parent = current.parent
        if parent == current:
            break
        current = parent
    return ".".join(parts) if parts else path.stem


def parse_source(source: str, path: str = "<string>",
                 module: str | None = None,
                 is_package: bool = False) -> FileContext:
    """Parse ``source`` into a :class:`FileContext` with parent links set."""
    tree = ast.parse(source, filename=path)
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            child.repro_parent = parent  # type: ignore[attr-defined]
    if module is None:
        module = Path(path).stem
    return FileContext(
        path=path,
        module=module,
        tree=tree,
        source=source,
        lines=source.splitlines(),
        is_package=is_package,
    )


def noqa_rules(context: FileContext) -> dict[int, frozenset[str]]:
    """Map 1-based line numbers to the rule ids suppressed on that line."""
    suppressed: dict[int, frozenset[str]] = {}
    for number, text in enumerate(context.lines, start=1):
        match = _NOQA_RE.search(text)
        if match is None:
            continue
        listed = match.group("rules")
        if listed is None:
            suppressed[number] = _ALL_RULES
        else:
            suppressed[number] = frozenset(
                rule.strip().upper() for rule in listed.split(",") if rule.strip()
            )
    return suppressed


def lint_source(source: str, path: str = "<string>",
                module: str | None = None,
                rules: Iterable[str] | None = None,
                is_package: bool = False) -> list[Diagnostic]:
    """Lint a source string; the workhorse behind :func:`lint_paths` and tests."""
    try:
        context = parse_source(source, path=path, module=module,
                               is_package=is_package)
    except SyntaxError as exc:
        return [Diagnostic(
            path=path, line=exc.lineno or 1, col=exc.offset or 0,
            rule="RPR000", message="syntax error: %s" % (exc.msg,),
        )]
    suppressed = noqa_rules(context)
    findings: list[Diagnostic] = []
    for checker in select_checkers(rules):
        for diagnostic in checker.check(context):
            on_line = suppressed.get(diagnostic.line)
            if on_line is not None and (on_line is _ALL_RULES
                                        or diagnostic.rule in on_line):
                continue
            findings.append(diagnostic)
    return sorted(findings)


def iter_python_files(paths: Sequence[str | Path]) -> Iterable[Path]:
    """Expand files/directories into a sorted, de-duplicated .py file list."""
    seen: set[Path] = set()
    collected: list[Path] = []
    for raw in paths:
        root = Path(raw)
        if root.is_dir():
            candidates = sorted(root.rglob("*.py"))
        else:
            candidates = [root]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved in seen:
                continue
            if "__pycache__" in resolved.parts:
                continue
            seen.add(resolved)
            collected.append(candidate)
    return collected


@dataclass
class LintResult:
    """Outcome of one :func:`run_lint` invocation."""

    diagnostics: list[Diagnostic]
    files_analyzed: int = 0
    files_skipped: int = 0


def _analyze_file(path: Path, source: str, source_hash: str):
    """Full per-file analysis: diagnostics (pre-noqa, all rules) + decls."""
    from repro.devtools.incremental import FileRecord
    from repro.devtools.wire import extract_wire_decls

    display = str(path)
    module = module_name_for(path)
    is_package = path.name == "__init__.py"
    try:
        context = parse_source(source, path=display, module=module,
                               is_package=is_package)
    except SyntaxError as exc:
        return FileRecord(
            path=display, source_hash=source_hash, module=module,
            diagnostics=[Diagnostic(
                path=display, line=exc.lineno or 1, col=exc.offset or 0,
                rule="RPR000", message="syntax error: %s" % (exc.msg,))])
    diagnostics: list[Diagnostic] = []
    for checker in select_checkers(None):
        diagnostics.extend(checker.check(context))
    return FileRecord(path=display, source_hash=source_hash, module=module,
                      diagnostics=sorted(diagnostics),
                      noqa=dict(noqa_rules(context)),
                      wire_decls=tuple(extract_wire_decls(context.tree,
                                                          module)))


def _visible(diagnostic: Diagnostic, selected: frozenset[str] | None,
             noqa: dict[int, frozenset[str]]) -> bool:
    """Apply rule selection and noqa suppression to one diagnostic."""
    if (selected is not None and diagnostic.rule != "RPR000"
            and diagnostic.rule not in selected):
        return False
    on_line = noqa.get(diagnostic.line)
    return not (on_line is not None
                and ("*" in on_line or diagnostic.rule in on_line))


def _discover_contracts(paths: Sequence[str | Path]) -> str | None:
    """The nearest ``wire-contracts.json`` at or above any linted path."""
    for raw in paths:
        root = Path(raw).resolve()
        for candidate in (root, *root.parents):
            found = candidate / "wire-contracts.json"
            if found.is_file():
                return str(found)
    return None


def run_lint(paths: Sequence[str | Path],
             rules: Iterable[str] | None = None,
             cache_path: str | Path | None = None,
             contracts_path: str | Path | None = None) -> LintResult:
    """Lint ``paths``: per-file rules, then the whole-project pass.

    With ``cache_path`` set, per-file results are reused for files whose
    content fingerprint is unchanged (see
    :mod:`repro.devtools.incremental`); the project-wide pass always
    re-runs over every file's record.  Cached entries hold pre-noqa,
    all-rule diagnostics, so ``rules`` narrows the *report*, never the
    cache.  ``contracts_path`` pins the ``wire-contracts.json`` RPR010
    checks against; when omitted, the nearest one at or above a linted
    path is used.
    """
    import repro.util.fingerprint as fp

    cache = None
    if cache_path is not None:
        from repro.devtools.incremental import LintCache
        cache = LintCache.load(cache_path)

    records = []
    analyzed = skipped = 0
    for path in iter_python_files(paths):
        source = path.read_text(encoding="utf-8")
        source_hash = fp.hash_text(source)
        key = str(path.resolve())
        record = cache.lookup(key, source_hash) if cache is not None else None
        if record is not None:
            skipped += 1
        else:
            record = _analyze_file(path, source, source_hash)
            analyzed += 1
            if cache is not None:
                cache.store(key, record)
        records.append(record)
    if cache is not None:
        cache.save()

    if contracts_path is None:
        contracts_path = _discover_contracts(paths)
    if contracts_path is not None:
        contracts_path = str(contracts_path)
    project_diagnostics: list[Diagnostic] = []
    for checker in select_checkers(rules):
        if isinstance(checker, ProjectChecker):
            project_diagnostics.extend(
                checker.check_project(records, contracts_path))

    selected = None if rules is None else frozenset(rules)
    noqa_by_path = {record.path: record.noqa for record in records}
    findings: list[Diagnostic] = []
    for record in records:
        findings.extend(d for d in record.diagnostics
                        if _visible(d, selected, record.noqa))
    findings.extend(
        d for d in project_diagnostics
        if _visible(d, selected, noqa_by_path.get(d.path, {})))
    return LintResult(diagnostics=sorted(findings),
                      files_analyzed=analyzed, files_skipped=skipped)


def lint_paths(paths: Sequence[str | Path],
               rules: Iterable[str] | None = None) -> list[Diagnostic]:
    """Lint every Python file reachable from ``paths``."""
    return run_lint(paths, rules=rules).diagnostics
