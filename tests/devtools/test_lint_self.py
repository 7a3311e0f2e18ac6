"""Self-lint: the shipped tree must be clean under its own static analysis.

This is the machine-checked architecture contract: any PR that introduces an
unseeded RNG, a magic time literal, an upward import, a generic raise or an
unfrozen value object fails this tier-1 test.  Run just this check with
``pytest -m lint``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro
from repro.devtools import lint_paths
from repro.devtools.cli import main

SRC_REPRO = Path(repro.__file__).resolve().parent

pytestmark = pytest.mark.lint


def test_source_tree_is_lint_clean():
    findings = lint_paths([SRC_REPRO])
    assert findings == [], "repro-lint findings:\n%s" % "\n".join(
        d.format() for d in findings)


def test_cli_exit_zero_on_clean_tree(capsys):
    assert main([str(SRC_REPRO)]) == 0
    assert capsys.readouterr().out == ""


def test_cli_reports_deliberate_violations(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import random\n"
        "def jitter(base):\n"
        "    return base + random.random() * 3600\n",
        encoding="utf-8",
    )
    assert main([str(bad)]) == 1
    out = capsys.readouterr().out
    assert "RPR001" in out and "RPR002" in out

    assert main(["--json", str(bad)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema_version"] == 3
    findings = payload["findings"]
    assert {entry["rule"] for entry in findings} == {"RPR001", "RPR002"}
    assert all(entry["path"] == str(bad) for entry in findings)


def test_cli_rule_subset_and_unknown_rule(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\nX = random.random()\n", encoding="utf-8")
    assert main(["--rules", "rpr002", str(bad)]) == 0
    capsys.readouterr()
    assert main(["--rules", "RPR999", str(bad)]) == 2


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in ("RPR001", "RPR002", "RPR003", "RPR004", "RPR005"):
        assert rule in out


def test_layering_rejects_util_to_core_import_on_disk(tmp_path, capsys):
    """End-to-end proof that the DAG rejects repro.util -> repro.core."""
    tree = tmp_path / "repro"
    (tree / "util").mkdir(parents=True)
    (tree / "core").mkdir()
    (tree / "__init__.py").write_text("", encoding="utf-8")
    (tree / "util" / "__init__.py").write_text("", encoding="utf-8")
    (tree / "core" / "__init__.py").write_text("", encoding="utf-8")
    (tree / "util" / "helpers.py").write_text(
        "from repro.core import pipeline\n", encoding="utf-8")

    findings = lint_paths([tree])
    layering = [d for d in findings if d.rule == "RPR003"]
    assert len(layering) == 1
    assert "upward import" in layering[0].message

    assert main([str(tree)]) == 1
    assert "RPR003" in capsys.readouterr().out
