"""Output formats (JSON schema, SARIF, ``--explain``) and the baseline
workflow."""

from __future__ import annotations

import json

from repro.devtools.baseline import filter_new, load_baseline, write_baseline
from repro.devtools.cli import JSON_SCHEMA_VERSION, main
from repro.devtools.diagnostics import Diagnostic
from repro.devtools.driver import run_lint
from repro.devtools.sarif import to_sarif

BAD = (
    "import random\n\n"
    "def roll():\n"
    "    return random.random()\n"
)


# ---------------------------------------------------------------- json

def test_json_output_carries_schema_version(make_tree, capsys):
    tree = make_tree({"pkg/bad.py": BAD})
    assert main(["--json", str(tree)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema_version"] == JSON_SCHEMA_VERSION
    assert {f["rule"] for f in payload["findings"]} == {"RPR001"}
    assert payload["files_analyzed"] >= 1


def test_format_json_equals_json_flag(make_tree, capsys):
    tree = make_tree({"pkg/bad.py": BAD})
    main(["--json", str(tree)])
    via_flag = capsys.readouterr().out
    main(["--format", "json", str(tree)])
    via_format = capsys.readouterr().out
    assert via_flag == via_format


def test_text_output_shape_unchanged(make_tree, capsys):
    tree = make_tree({"pkg/bad.py": BAD})
    assert main([str(tree)]) == 1
    out = capsys.readouterr().out
    line = out.splitlines()[0]
    # the stable pre-v2 shape: path:line:col: SEVERITY [RULE] message
    assert line.startswith(str(tree / "pkg" / "bad.py") + ":4:")
    assert "ERROR [RPR001]" in line


# ---------------------------------------------------------------- sarif

def test_sarif_structure_and_coordinates(make_tree):
    tree = make_tree({"pkg/bad.py": BAD})
    result = run_lint([tree])
    log = to_sarif(result.diagnostics)
    assert log["version"] == "2.1.0"
    run = log["runs"][0]
    rule_ids = [rule["id"] for rule in run["tool"]["driver"]["rules"]]
    assert rule_ids == ["RPR001", "RPR002", "RPR003", "RPR004", "RPR005",
                       "RPR010"]
    [finding] = run["results"]
    assert finding["ruleId"] == "RPR001"
    assert finding["level"] == "error"
    region = finding["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] == 4
    assert region["startColumn"] >= 1  # SARIF columns are 1-based


def test_sarif_carries_metadata_for_every_rule():
    rules = to_sarif([])["runs"][0]["tool"]["driver"]["rules"]
    for rule in rules:
        assert rule["shortDescription"]["text"]


def test_cli_writes_sarif_to_output_file(make_tree, tmp_path, capsys):
    tree = make_tree({"pkg/bad.py": BAD})
    out_file = tmp_path / "lint.sarif"
    assert main(["--format", "sarif", "--output", str(out_file),
                 str(tree)]) == 1
    assert capsys.readouterr().out == ""
    log = json.loads(out_file.read_text(encoding="utf-8"))
    assert log["runs"][0]["results"][0]["ruleId"] == "RPR001"


# ---------------------------------------------------------------- baseline

def test_baseline_roundtrip_and_gating(make_tree, tmp_path):
    tree = make_tree({"pkg/bad.py": BAD})
    result = run_lint([tree])
    baseline = tmp_path / "baseline.json"
    write_baseline(result.diagnostics, baseline)
    accepted = load_baseline(baseline)
    assert filter_new(result.diagnostics, accepted) == []
    extra = Diagnostic(path="pkg/new.py", line=1, col=0, rule="RPR004",
                       message="new finding")
    assert filter_new(list(result.diagnostics) + [extra], accepted) == [extra]


def test_baseline_is_a_multiset(make_tree, tmp_path):
    one = Diagnostic(path="p.py", line=3, col=0, rule="RPR001", message="m")
    twin = Diagnostic(path="p.py", line=9, col=0, rule="RPR001", message="m")
    baseline = tmp_path / "baseline.json"
    write_baseline([one], baseline)
    accepted = load_baseline(baseline)
    # the same finding at a shifted line stays absorbed...
    assert filter_new([twin], accepted) == []
    # ...but a *second* instance exceeds the accepted count
    assert filter_new([one, twin], accepted) == [twin]


def test_cli_baseline_gates_only_regressions(make_tree, tmp_path, capsys):
    tree = make_tree({"pkg/bad.py": BAD})
    baseline = tmp_path / "baseline.json"
    assert main(["--baseline", str(baseline), "--update-baseline",
                 str(tree)]) == 0
    capsys.readouterr()
    assert main(["--baseline", str(baseline), str(tree)]) == 0
    capsys.readouterr()
    # a regression: a second unseeded draw in another file
    (tree / "pkg" / "worse.py").write_text(BAD, encoding="utf-8")
    assert main(["--baseline", str(baseline), str(tree)]) == 1
    out = capsys.readouterr().out
    assert "worse.py" in out and "bad.py" not in out


def test_cli_update_baseline_requires_baseline_path(capsys):
    assert main(["--update-baseline"]) == 2
    assert "requires --baseline" in capsys.readouterr().err


def test_cli_missing_baseline_file_is_a_usage_error(make_tree, tmp_path,
                                                    capsys):
    tree = make_tree({"pkg/ok.py": "def f():\n    return 1\n"})
    assert main(["--baseline", str(tmp_path / "absent.json"),
                 str(tree)]) == 2
    assert "cannot load baseline" in capsys.readouterr().err


# ---------------------------------------------------------------- explain

def test_explain_prints_rule_documentation(capsys):
    assert main(["--explain", "RPR004"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("RPR004")
    assert "keyboardinterrupt" in out.lower()
    assert main(["--explain", "rpr004"]) == 0
    assert "RPR004" in capsys.readouterr().out


def test_explain_covers_every_registered_rule(capsys):
    from repro.devtools import all_checkers

    for checker in all_checkers():
        assert main(["--explain", checker.rule]) == 0
        out = capsys.readouterr().out
        # Every rule ships real documentation, not just its summary line.
        assert out.startswith(checker.rule)
        assert len(out.strip().splitlines()) > 1


def test_explain_unknown_rule_exits_2(capsys):
    assert main(["--explain", "RPR999"]) == 2
    assert "unknown rule" in capsys.readouterr().err
