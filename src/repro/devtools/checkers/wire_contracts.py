"""RPR010 — serialized boundary types must match ``wire-contracts.json``.

``ShardResult`` crosses the worker pickle boundary, cache entries
outlive the process that wrote them, and the ``repro-obs-trace-1``
payload is consumed by external tooling.  A field rename that would be a
private refactor anywhere else silently invalidates cached artifacts and
(once workers are remote) breaks mixed-version fleets.  This rule turns
such changes into explicit, reviewed events: every marked type/schema
(see :mod:`repro.devtools.wire`) must have an entry in the checked-in
contract file whose spec matches the source *and* whose digest matches
its recorded ``(name, version, spec)`` triple.

Intentional evolution is two commands away::

    repro-lint --contracts wire-contracts.json --update-contracts src/repro
    git add wire-contracts.json   # review the bumped version in the diff

Suppression (``# repro: noqa[RPR010]``) anchors on the marker line of
the declaring class or module.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.devtools.registry import ProjectChecker, register
from repro.devtools.wire import (
    MISSING,
    contract_digest,
    load_contracts,
)

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.devtools.diagnostics import Diagnostic
    from repro.devtools.driver import FileRecord

_REGENERATE = ("run `repro-lint --contracts wire-contracts.json "
               "--update-contracts` and commit the diff")


def _spec_drift(recorded: dict, current: dict) -> str:
    """A short human description of how a spec changed."""
    if recorded.get("kind") != current.get("kind"):
        return "declaration kind changed (%s -> %s)" % (
            recorded.get("kind"), current.get("kind"))
    if "fields" in current:
        before = {entry[0]: entry for entry in recorded.get("fields", [])}
        after = {entry[0]: entry for entry in current.get("fields", [])}
        added = sorted(set(after) - set(before))
        removed = sorted(set(before) - set(after))
        altered = sorted(name for name in set(before) & set(after)
                         if before[name] != after[name])
    else:
        before = recorded.get("constants", {})
        after = current.get("constants", {})
        added = sorted(set(after) - set(before))
        removed = sorted(set(before) - set(after))
        altered = sorted(name for name in set(before) & set(after)
                         if before[name] != after[name])
    parts = []
    if added:
        parts.append("added: %s" % ", ".join(added))
    if removed:
        parts.append("removed: %s" % ", ".join(removed))
    if altered:
        parts.append("changed: %s" % ", ".join(altered))
    return "; ".join(parts) or "spec changed"


@register
class WireContractChecker(ProjectChecker):
    rule = "RPR010"
    summary = ("serialized boundary types must match the checked-in "
               "wire-contracts.json (with a version bump on change)")

    def check_project(self, records: list["FileRecord"],
                      contracts_path: str | None) -> Iterator["Diagnostic"]:
        by_module = {record.module: record for record in records}
        decls = [(by_module[module].path, decl)
                 for module in sorted(by_module)
                 for decl in by_module[module].wire_decls]
        if not decls:
            return

        if contracts_path is None:
            for path, decl in decls:
                yield self.project_diagnostic(
                    path, decl.line,
                    "wire contract '%s' is declared but no "
                    "wire-contracts.json was found for this run; %s"
                    % (decl.contract, _REGENERATE))
            return
        try:
            contracts = load_contracts(contracts_path)
        except (OSError, ValueError) as error:
            for path, decl in decls:
                yield self.project_diagnostic(
                    path, decl.line,
                    "wire contract '%s' cannot be checked: %s is "
                    "unreadable (%s); %s"
                    % (decl.contract, contracts_path, error, _REGENERATE))
            return

        seen: dict[str, str] = {}
        matched: set[str] = set()
        for path, decl in decls:
            if decl.contract in seen:
                yield self.project_diagnostic(
                    path, decl.line,
                    "wire contract '%s' is declared more than once (also "
                    "in %s); contract names must be unique"
                    % (decl.contract, seen[decl.contract]))
                continue
            seen[decl.contract] = decl.qualname
            matched.add(decl.contract)
            for name, value in decl.constants:
                if value == MISSING:
                    yield self.project_diagnostic(
                        path, decl.line,
                        "wire contract '%s' names constant '%s', which "
                        "is not defined at module level in %s"
                        % (decl.contract, name, decl.qualname))
            entry = contracts.get(decl.contract)
            if entry is None:
                yield self.project_diagnostic(
                    path, decl.line,
                    "wire contract '%s' (%s) has no entry in %s; %s"
                    % (decl.contract, decl.qualname, contracts_path,
                       _REGENERATE))
                continue
            spec = decl.spec()
            version = int(entry.get("version", 0))
            recorded = entry.get("spec") or {}
            if recorded != spec:
                yield self.project_diagnostic(
                    path, decl.line,
                    "wire contract '%s' (%s) has drifted from %s version "
                    "%d — %s; wire changes must ship with a regenerated "
                    "entry and version bump: %s"
                    % (decl.contract, decl.qualname, contracts_path,
                       version, _spec_drift(recorded, spec), _REGENERATE))
                continue
            expected = contract_digest(decl.contract, version, recorded)
            if entry.get("digest") != expected:
                yield self.project_diagnostic(
                    path, decl.line,
                    "wire contract '%s' entry in %s fails its digest "
                    "check (hand-edited spec without a version bump?); %s"
                    % (decl.contract, contracts_path, _REGENERATE))

        for stale in sorted(set(contracts) - matched):
            anchor_path, anchor_decl = decls[0]
            yield self.project_diagnostic(
                anchor_path, anchor_decl.line,
                "wire contract '%s' exists in %s but no source "
                "declaration carries it; retiring a wire type must also "
                "retire its contract entry (%s)"
                % (stale, contracts_path, _REGENERATE))
