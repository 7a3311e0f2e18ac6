"""Wire-contract extraction and drift detection (the RPR010 engine).

Several value shapes in this codebase cross a process or persistence
boundary: ``ShardResult`` is pickled from worker to parent, artifact
cache entries are pickled to disk and read back by later runs, and the
``repro-obs-trace-1`` payload is JSON consumed by external tooling.
Changing one of these is not a private refactor — it silently breaks
cached artifacts from earlier code versions and, once the distributed
coordinator lands (ROADMAP item 3), mixed-version workers.

The forcing function is a checked-in ``wire-contracts.json``.  Types and
schema constants opt in with a syntactic marker the analyzer extracts
statically (no imports, no execution):

* a class-body marker names a dataclass contract, whose annotated
  fields/defaults become the spec::

      @dataclass
      class ShardResult:
          __wire_contract__ = "shard-result"
          payload: object
          spans: list = field(default_factory=list)

* a module-level marker maps contract names to the module constants that
  define a schema::

      __wire_contract__ = {"obs-trace": ("TRACE_SCHEMA", "_EVENT_FIELDS")}

Field annotations, defaults, and constant values are captured as
``ast.unparse`` source text, so specs survive values that are not JSON
(type objects in ``_EVENT_FIELDS``, ``field(default_factory=...)``).
RPR010 recomputes each spec from source and fails when it no longer
matches the contract file; regeneration (``repro-lint --contracts FILE
--update-contracts``) bumps the version of every changed entry and
refreshes its digest.  The digest covers ``(name, version, spec)``, so a
hand-edit that updates the spec without bumping the version is also
caught.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass
from pathlib import Path

import repro.util.fingerprint as fp

#: The class-body / module-level marker name.
MARKER = "__wire_contract__"

#: Version of the contract-file layout itself (not of any one contract).
WIRE_CONTRACT_FORMAT = 1

#: Spec value recorded when a declared schema constant does not exist.
MISSING = "<missing constant>"


@dataclass(frozen=True)
class WireField:
    """One annotated field of a contract-marked class."""

    name: str
    annotation: str
    default: str | None = None

    def to_dict(self) -> list[object]:
        return [self.name, self.annotation, self.default]


@dataclass(frozen=True)
class WireDecl:
    """One wire-contract declaration found in one module."""

    contract: str
    kind: str  # ``class`` | ``module``
    qualname: str  # dotted class name, or the module for constant sets
    line: int
    fields: tuple[WireField, ...] = ()
    constants: tuple[tuple[str, str], ...] = ()

    def spec(self) -> dict[str, object]:
        """The drift-checked shape of this declaration."""
        body: dict[str, object] = {"kind": self.kind,
                                   "source": self.qualname}
        if self.kind == "class":
            body["fields"] = [field.to_dict() for field in self.fields]
        else:
            body["constants"] = {name: value
                                 for name, value in self.constants}
        return body


def _marker_string(node: ast.stmt) -> str | None:
    """The contract name if ``node`` is ``__wire_contract__ = "..."``."""
    if not isinstance(node, ast.Assign) or len(node.targets) != 1:
        return None
    target = node.targets[0]
    if not (isinstance(target, ast.Name) and target.id == MARKER):
        return None
    if isinstance(node.value, ast.Constant) \
            and isinstance(node.value.value, str):
        return node.value.value
    return None


def _marker_mapping(node: ast.stmt) -> dict[str, tuple[str, ...]] | None:
    """Contract-name -> constant-names if ``node`` is the module marker."""
    if not isinstance(node, ast.Assign) or len(node.targets) != 1:
        return None
    target = node.targets[0]
    if not (isinstance(target, ast.Name) and target.id == MARKER):
        return None
    if not isinstance(node.value, ast.Dict):
        return None
    mapping: dict[str, tuple[str, ...]] = {}
    for key, value in zip(node.value.keys, node.value.values):
        if not (isinstance(key, ast.Constant)
                and isinstance(key.value, str)):
            continue
        names: list[str] = []
        if isinstance(value, (ast.Tuple, ast.List)):
            for element in value.elts:
                if isinstance(element, ast.Constant) \
                        and isinstance(element.value, str):
                    names.append(element.value)
        mapping[key.value] = tuple(names)
    return mapping or None


def extract_wire_decls(tree: ast.Module, module: str) -> list[WireDecl]:
    """Every wire-contract declaration in one parsed module."""
    decls: list[WireDecl] = []
    module_constants: dict[str, str] = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and node.targets[0].id != MARKER:
            module_constants[node.targets[0].id] = ast.unparse(node.value)
        elif isinstance(node, ast.AnnAssign) and node.value is not None \
                and isinstance(node.target, ast.Name):
            module_constants[node.target.id] = ast.unparse(node.value)

    for node in tree.body:
        mapping = _marker_mapping(node)
        if mapping is not None:
            for contract, names in sorted(mapping.items()):
                constants = tuple(
                    (name, module_constants.get(name, MISSING))
                    for name in names)
                decls.append(WireDecl(
                    contract=contract, kind="module", qualname=module,
                    line=node.lineno, constants=constants))
            continue
        if not isinstance(node, ast.ClassDef):
            continue
        contract = None
        marker_line = node.lineno
        fields: list[WireField] = []
        for item in node.body:
            name = _marker_string(item)
            if name is not None:
                contract = name
                marker_line = item.lineno
            elif isinstance(item, ast.AnnAssign) \
                    and isinstance(item.target, ast.Name):
                fields.append(WireField(
                    name=item.target.id,
                    annotation=ast.unparse(item.annotation),
                    default=None if item.value is None
                    else ast.unparse(item.value)))
        if contract is not None:
            decls.append(WireDecl(
                contract=contract, kind="class",
                qualname="%s.%s" % (module, node.name),
                line=marker_line, fields=tuple(fields)))
    return decls


# -- the contract file --------------------------------------------------------

def contract_digest(contract: str, version: int,
                    spec: dict[str, object]) -> str:
    """Digest binding a contract entry's name, version, and spec."""
    return fp.hash_text(json.dumps([contract, version, spec],
                                   sort_keys=True))


def load_contracts(path: str | Path) -> dict[str, dict]:
    """``contract-name -> entry`` from a contract file.

    Raises ``ValueError`` on malformed payloads (wrapped ``OSError``
    passes through for the caller to report).
    """
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict) \
            or payload.get("wire_contract_format") != WIRE_CONTRACT_FORMAT:
        raise ValueError("unsupported wire-contract format in %s" % (path,))
    contracts = payload.get("contracts")
    if not isinstance(contracts, dict):
        raise ValueError("no 'contracts' object in %s" % (path,))
    return contracts


def build_contracts(decls: list[WireDecl],
                    existing: dict[str, dict] | None = None
                    ) -> dict[str, object]:
    """The full contract-file payload for ``decls``.

    Entries whose spec is unchanged keep their version and digest; new
    entries start at version 1; changed entries get a version bump and a
    fresh digest.
    """
    existing = existing or {}
    contracts: dict[str, dict] = {}
    for decl in sorted(decls, key=lambda d: d.contract):
        spec = decl.spec()
        previous = existing.get(decl.contract)
        if previous is not None and previous.get("spec") == spec:
            contracts[decl.contract] = dict(previous)
            continue
        version = 1
        if previous is not None:
            version = int(previous.get("version", 0)) + 1
        contracts[decl.contract] = {
            "version": version,
            "digest": contract_digest(decl.contract, version, spec),
            "spec": spec,
        }
    return {"wire_contract_format": WIRE_CONTRACT_FORMAT,
            "contracts": contracts}


def write_contracts(payload: dict[str, object], path: str | Path) -> None:
    """Write a contract-file payload with a stable, diff-friendly layout."""
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
