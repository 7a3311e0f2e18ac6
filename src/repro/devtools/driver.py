"""Lint driver: one per-file pass, then the whole-project pass.

The driver owns everything that is not rule-specific: discovering Python
files, parsing them, deriving dotted module names, attaching parent links to
AST nodes (several checkers need to know the context a node appears in),
honouring ``# repro: noqa[RULE]`` suppression comments, and handing every
file's record to the whole-project rule (RPR010).  :func:`lint_source` and
:func:`lint_paths` share the per-file pass (:func:`check_file`) and the
suppression filter.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.devtools.diagnostics import Diagnostic
from repro.devtools.registry import Checker, ProjectChecker, select_checkers
from repro.devtools.wire import WireDecl, extract_wire_decls

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


@dataclass
class FileRecord:
    """What the per-file pass learned from one file.

    ``diagnostics`` are pre-suppression; ``noqa`` maps 1-based line
    numbers to suppressed rule ids (``"*"`` meaning all); ``wire_decls``
    are the file's wire-contract declarations, which the whole-project
    pass (RPR010) reads.  A file that failed to parse has an RPR000
    diagnostic and nothing else.
    """

    path: str
    module: str
    diagnostics: list[Diagnostic]
    noqa: dict[int, frozenset[str]] = field(default_factory=dict)
    wire_decls: tuple[WireDecl, ...] = ()


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


def check_file(source: str, path: str, module: str, is_package: bool,
               checkers: Sequence[Checker]) -> FileRecord:
    """Parse one file and run ``checkers`` over it.

    A file that does not parse yields a single RPR000 diagnostic, whatever
    ``checkers`` holds, and no ``noqa`` map or wire declarations.
    """
    try:
        context = parse_source(source, path=path, module=module,
                               is_package=is_package)
    except SyntaxError as exc:
        return FileRecord(path=path, module=module, diagnostics=[Diagnostic(
            path=path, line=exc.lineno or 1, col=exc.offset or 0,
            rule="RPR000", message="syntax error: %s" % (exc.msg,))])
    return FileRecord(
        path=path, module=module,
        diagnostics=[diagnostic for checker in checkers
                     for diagnostic in checker.check(context)],
        noqa=noqa_rules(context),
        wire_decls=tuple(extract_wire_decls(context.tree, module)))


def file_records(paths: Sequence[str | Path],
                 checkers: Sequence[Checker]) -> list[FileRecord]:
    """:func:`check_file` over every Python file reachable from ``paths``."""
    return [check_file(path.read_text(encoding="utf-8"), str(path),
                       module_name_for(path), path.name == "__init__.py",
                       checkers)
            for path in iter_python_files(paths)]


def _unsuppressed(diagnostics: Iterable[Diagnostic],
                  noqa_by_path: dict[str, dict[int, frozenset[str]]]
                  ) -> list[Diagnostic]:
    """``diagnostics`` minus those a ``noqa`` comment on their line
    silences, sorted."""
    kept = []
    for diagnostic in diagnostics:
        on_line = noqa_by_path.get(diagnostic.path, {}).get(diagnostic.line,
                                                            frozenset())
        if "*" not in on_line and diagnostic.rule not in on_line:
            kept.append(diagnostic)
    return sorted(kept)


def lint_source(source: str, path: str = "<string>",
                module: str | None = None,
                rules: Iterable[str] | None = None,
                is_package: bool = False) -> list[Diagnostic]:
    """Lint a source string with the per-file rules (the checker tests)."""
    record = check_file(source, path, module or Path(path).stem, is_package,
                        select_checkers(rules))
    return _unsuppressed(record.diagnostics, {record.path: record.noqa})


def _discover_contracts(paths: Sequence[str | Path]) -> str | None:
    """The nearest ``wire-contracts.json`` at or above any linted path."""
    for raw in paths:
        root = Path(raw).resolve()
        for candidate in (root, *root.parents):
            found = candidate / "wire-contracts.json"
            if found.is_file():
                return str(found)
    return None


def lint_paths(paths: Sequence[str | Path],
               rules: Iterable[str] | None = None,
               contracts_path: str | Path | None = None
               ) -> list[Diagnostic]:
    """Lint every Python file reachable from ``paths``.

    Runs the per-file rules over each file, then the whole-project pass
    over every file's record.  ``contracts_path`` pins the
    ``wire-contracts.json`` RPR010 checks against; when omitted, the
    nearest one at or above a linted path is used.
    """
    checkers = select_checkers(rules)
    records = file_records(paths, checkers)
    if contracts_path is None:
        contracts_path = _discover_contracts(paths)
    if contracts_path is not None:
        contracts_path = str(contracts_path)
    findings = [diagnostic for record in records
                for diagnostic in record.diagnostics]
    for checker in checkers:
        if isinstance(checker, ProjectChecker):
            findings.extend(checker.check_project(records, contracts_path))
    return _unsuppressed(findings,
                         {record.path: record.noqa for record in records})
