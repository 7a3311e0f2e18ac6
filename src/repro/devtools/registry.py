"""Checker registry.

Each checker is a class with a ``rule`` id (``RPR###``), a one-line
``summary`` and a ``check(context)`` generator.  Decorating the class with
:func:`register` instantiates it and adds it to the global registry; the
driver then runs every registered checker (or a requested subset) over each
parsed file, and each :class:`ProjectChecker` once over the records of
every file in the run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Type, TypeVar

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.devtools.diagnostics import Diagnostic
    from repro.devtools.driver import FileContext, FileRecord


class Checker:
    """Base class for all lint checkers.

    Subclasses set ``rule`` and ``summary`` and implement :meth:`check` as a
    generator of diagnostics.  Checkers must be stateless: one instance is
    shared across every linted file.
    """

    rule: str = ""
    summary: str = ""

    def check(self, context: "FileContext") -> Iterator["Diagnostic"]:
        raise NotImplementedError

    def diagnostic(self, context: "FileContext", node, message: str) -> "Diagnostic":
        """Build a diagnostic for ``node`` (any ast node with a location)."""
        from repro.devtools.diagnostics import Diagnostic

        return Diagnostic(
            path=context.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.rule,
            message=message,
        )


class ProjectChecker(Checker):
    """Base class for whole-project checkers.

    Runs once per lint run over every linted file's
    :class:`~repro.devtools.driver.FileRecord` instead of per file.
    The per-file :meth:`Checker.check` hook is a no-op; subclasses
    implement :meth:`check_project`.  ``noqa`` suppression still applies:
    the driver filters project diagnostics against the suppression map of
    whichever file each diagnostic anchors in.
    """

    def check(self, context: "FileContext") -> Iterator["Diagnostic"]:
        return iter(())

    def check_project(self, records: list["FileRecord"],
                      contracts_path: str | None) -> Iterator["Diagnostic"]:
        """Yield diagnostics for one run's records and contract file."""
        raise NotImplementedError

    def project_diagnostic(self, path: str, line: int,
                           message: str) -> "Diagnostic":
        """Build a diagnostic anchored at an arbitrary file location."""
        from repro.devtools.diagnostics import Diagnostic

        return Diagnostic(path=path, line=line, col=0, rule=self.rule,
                          message=message)


_CHECKERS: dict[str, Checker] = {}

CheckerT = TypeVar("CheckerT", bound=Type[Checker])


def register(cls: CheckerT) -> CheckerT:
    """Class decorator: instantiate ``cls`` and add it to the registry."""
    checker = cls()
    if not checker.rule:
        raise ValueError("checker %r has no rule id" % (cls.__name__,))
    if checker.rule in _CHECKERS:
        raise ValueError("duplicate checker rule %s" % (checker.rule,))
    _CHECKERS[checker.rule] = checker
    return cls


def all_checkers() -> list[Checker]:
    """Every registered checker, sorted by rule id."""
    _load_builtin_checkers()
    return [_CHECKERS[rule] for rule in sorted(_CHECKERS)]


def checker_for(rule: str) -> Checker:
    """Look up one checker by rule id (raises ``KeyError`` if unknown)."""
    _load_builtin_checkers()
    return _CHECKERS[rule]


def select_checkers(rules: Iterable[str] | None) -> list[Checker]:
    """Resolve a rule-id subset (``None`` means all) to checker instances."""
    if rules is None:
        return all_checkers()
    return [checker_for(rule) for rule in sorted(set(rules))]


def _load_builtin_checkers() -> None:
    """Import the built-in checker modules, registering them as a side effect."""
    from repro.devtools import checkers  # noqa: F401  (registration import)
