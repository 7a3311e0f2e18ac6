"""Trigger / clean / noqa tests for RPR010 (wire-contract drift)."""

from __future__ import annotations

import json

from repro.devtools.cli import main
from repro.devtools.driver import lint_paths
from repro.devtools.wire import contract_digest, load_contracts

SHARD = (
    "from dataclasses import dataclass\n\n\n"
    "@dataclass(frozen=True)\n"
    "class ShardResult:\n"
    '    """One worker\'s slice of the run."""\n\n'
    '    __wire_contract__ = "shard-result"\n\n'
    "    shard_index: int\n"
    "    verdicts: dict\n"
)

SHARD_GREW = SHARD + "    metrics: dict\n"


def rules_of(findings) -> set[str]:
    return {d.rule for d in findings}


def generate(tree, contracts) -> None:
    assert main(["--contracts", str(contracts), "--update-contracts",
                 str(tree)]) == 0


# -------------------------------------------------------------- lifecycle

def test_marked_type_without_contract_file_is_flagged(make_tree):
    tree = make_tree({"pkg/workers.py": SHARD})
    findings = lint_paths([tree], rules=["RPR010"])
    assert rules_of(findings) == {"RPR010"}
    message = findings[0].message
    assert "no wire-contracts.json was found" in message
    assert "--update-contracts" in message


def test_generate_then_lint_is_clean(make_tree, tmp_path, capsys):
    tree = make_tree({"pkg/workers.py": SHARD})
    contracts = tmp_path / "wire-contracts.json"
    generate(tree, contracts)
    assert "wrote 1 wire contract(s)" in capsys.readouterr().err
    entry = load_contracts(contracts)["shard-result"]
    assert entry["version"] == 1
    assert entry["spec"]["fields"] == [["shard_index", "int", None],
                                       ["verdicts", "dict", None]]
    findings = lint_paths([tree], rules=["RPR010"],
                          contracts_path=contracts)
    assert findings == []


def test_added_field_without_regeneration_drifts(make_tree, tmp_path):
    # The acceptance fixture: grow ShardResult, keep the old contract.
    tree = make_tree({"pkg/workers.py": SHARD})
    contracts = tmp_path / "wire-contracts.json"
    generate(tree, contracts)
    (tree / "pkg" / "workers.py").write_text(SHARD_GREW, encoding="utf-8")
    findings = lint_paths([tree], rules=["RPR010"],
                          contracts_path=contracts)
    assert rules_of(findings) == {"RPR010"}
    message = findings[0].message
    assert "has drifted" in message
    assert "added: metrics" in message
    assert "version bump" in message


def test_regeneration_bumps_version_and_goes_clean(make_tree, tmp_path):
    tree = make_tree({"pkg/workers.py": SHARD})
    contracts = tmp_path / "wire-contracts.json"
    generate(tree, contracts)
    (tree / "pkg" / "workers.py").write_text(SHARD_GREW, encoding="utf-8")
    generate(tree, contracts)
    entry = load_contracts(contracts)["shard-result"]
    assert entry["version"] == 2
    assert ["metrics", "dict", None] in entry["spec"]["fields"]
    findings = lint_paths([tree], rules=["RPR010"],
                          contracts_path=contracts)
    assert findings == []


def test_regeneration_keeps_version_of_unchanged_contract(make_tree,
                                                          tmp_path):
    tree = make_tree({"pkg/workers.py": SHARD})
    contracts = tmp_path / "wire-contracts.json"
    generate(tree, contracts)
    generate(tree, contracts)
    assert load_contracts(contracts)["shard-result"]["version"] == 1


def test_hand_edited_entry_fails_digest_check(make_tree, tmp_path):
    # Same spec, tampered digest: the triple (name, version, spec) no
    # longer hashes to what the file records.
    tree = make_tree({"pkg/workers.py": SHARD})
    contracts = tmp_path / "wire-contracts.json"
    generate(tree, contracts)
    payload = json.loads(contracts.read_text(encoding="utf-8"))
    payload["contracts"]["shard-result"]["digest"] = "0" * 64
    contracts.write_text(json.dumps(payload), encoding="utf-8")
    findings = lint_paths([tree], rules=["RPR010"],
                          contracts_path=contracts)
    assert rules_of(findings) == {"RPR010"}
    assert ("hand-edited spec without a version bump?"
            in findings[0].message)


def test_stale_contract_entry_is_flagged(make_tree, tmp_path):
    tree = make_tree({"pkg/workers.py": SHARD})
    contracts = tmp_path / "wire-contracts.json"
    generate(tree, contracts)
    payload = json.loads(contracts.read_text(encoding="utf-8"))
    spec = {"kind": "class", "source": "pkg.old.Gone", "fields": []}
    payload["contracts"]["retired-type"] = {
        "version": 1, "spec": spec,
        "digest": contract_digest("retired-type", 1, spec)}
    contracts.write_text(json.dumps(payload), encoding="utf-8")
    findings = lint_paths([tree], rules=["RPR010"],
                          contracts_path=contracts)
    assert rules_of(findings) == {"RPR010"}
    message = findings[0].message
    assert "'retired-type'" in message
    assert "no source declaration carries it" in message


def test_project_pass_reads_every_file_when_one_changed(make_tree,
                                                         tmp_path):
    trace = ('SCHEMA = "pkg-trace-1"\n'
             '__wire_contract__ = {"pkg-trace": ("SCHEMA",)}\n')
    tree = make_tree({"pkg/workers.py": SHARD, "pkg/trace.py": trace})
    contracts = tmp_path / "wire-contracts.json"
    generate(tree, contracts)
    # The trace module loses its marker: its entry goes stale, and the
    # finding anchors in the unchanged workers module.
    (tree / "pkg" / "trace.py").write_text('SCHEMA = "pkg-trace-1"\n',
                                           encoding="utf-8")
    [finding] = lint_paths([tree], rules=["RPR010"],
                           contracts_path=contracts)
    assert finding.path == str(tree / "pkg" / "workers.py")
    assert "'pkg-trace'" in finding.message
    # A noqa in the file the finding points to suppresses it.
    (tree / "pkg" / "workers.py").write_text(SHARD.replace(
        '__wire_contract__ = "shard-result"',
        '__wire_contract__ = "shard-result"  # repro: noqa[RPR010]'),
        encoding="utf-8")
    assert lint_paths([tree], rules=["RPR010"],
                      contracts_path=contracts) == []
    # Restoring the marker clears the finding without the noqa.
    (tree / "pkg" / "workers.py").write_text(SHARD, encoding="utf-8")
    (tree / "pkg" / "trace.py").write_text(trace, encoding="utf-8")
    assert lint_paths([tree], rules=["RPR010"],
                      contracts_path=contracts) == []


def test_unreadable_contract_file_is_reported(make_tree, tmp_path):
    tree = make_tree({"pkg/workers.py": SHARD})
    contracts = tmp_path / "wire-contracts.json"
    contracts.write_text("{not json", encoding="utf-8")
    findings = lint_paths([tree], rules=["RPR010"],
                          contracts_path=contracts)
    assert rules_of(findings) == {"RPR010"}
    assert "unreadable" in findings[0].message


def test_duplicate_contract_names_are_flagged(make_tree, tmp_path):
    tree = make_tree({
        "pkg/workers.py": SHARD,
        "pkg/other.py": SHARD.replace("class ShardResult",
                                      "class ShardCopy"),
    })
    contracts = tmp_path / "wire-contracts.json"
    generate(tree, contracts)
    findings = lint_paths([tree], rules=["RPR010"],
                          contracts_path=contracts)
    assert rules_of(findings) == {"RPR010"}
    assert any("declared more than once" in d.message
               for d in findings)


# --------------------------------------------------- module-level schemas

def test_module_schema_contract_roundtrip(make_tree, tmp_path):
    tree = make_tree({"pkg/trace.py": (
        'SCHEMA = "pkg-trace-1"\n'
        'FIELDS = ("kind", "offset")\n\n'
        '__wire_contract__ = {"pkg-trace": ("SCHEMA", "FIELDS")}\n'
    )})
    contracts = tmp_path / "wire-contracts.json"
    generate(tree, contracts)
    entry = load_contracts(contracts)["pkg-trace"]
    assert entry["spec"]["kind"] == "module"
    assert entry["spec"]["constants"]["SCHEMA"] == "'pkg-trace-1'"
    assert lint_paths([tree], rules=["RPR010"],
                      contracts_path=contracts) == []


def test_module_schema_missing_constant_is_flagged(make_tree, tmp_path):
    tree = make_tree({"pkg/trace.py": (
        '__wire_contract__ = {"pkg-trace": ("SCHEMA",)}\n'
    )})
    contracts = tmp_path / "wire-contracts.json"
    generate(tree, contracts)
    findings = lint_paths([tree], rules=["RPR010"],
                          contracts_path=contracts)
    assert rules_of(findings) == {"RPR010"}
    assert "not defined at module level" in findings[0].message


# ------------------------------------------------------------------ noqa

def test_noqa_on_marker_line_suppresses(make_tree):
    marked = SHARD.replace(
        '__wire_contract__ = "shard-result"',
        '__wire_contract__ = "shard-result"'
        "  # repro: noqa[RPR010] -- contract file lands next commit")
    tree = make_tree({"pkg/workers.py": marked})
    assert lint_paths([tree], rules=["RPR010"]) == []


# ------------------------------------------------------------------- cli

def test_update_contracts_requires_contracts_path(capsys):
    assert main(["--update-contracts"]) == 2
    assert "requires --contracts" in capsys.readouterr().err


def test_contracts_file_discovered_above_linted_path(make_tree, tmp_path,
                                                     capsys):
    # lint_paths with no explicit contracts_path walks up from the linted
    # directory — the repo-root layout.
    tree = make_tree({"pkg/workers.py": SHARD})
    contracts = tmp_path / "wire-contracts.json"
    generate(tree, contracts)
    capsys.readouterr()
    findings = lint_paths([tree / "pkg"], rules=["RPR010"])
    assert findings == []


def test_real_tree_matches_checked_in_contracts():
    from pathlib import Path

    import repro

    src = Path(repro.__file__).resolve().parent
    findings = lint_paths([src], rules=["RPR010"])
    assert findings == [], [d.format() for d in findings]
