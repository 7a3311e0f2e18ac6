"""Output formats: the JSON schema, the text shape and ``--explain``."""

from __future__ import annotations

import json

from repro.devtools.cli import JSON_SCHEMA_VERSION, main

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
    assert payload == {"schema_version": JSON_SCHEMA_VERSION,
                       "findings": payload["findings"]}
    assert {f["rule"] for f in payload["findings"]} == {"RPR001"}


def test_text_output_shape_unchanged(make_tree, capsys):
    tree = make_tree({"pkg/bad.py": BAD})
    assert main([str(tree)]) == 1
    out = capsys.readouterr().out
    line = out.splitlines()[0]
    # the stable pre-v2 shape: path:line:col: SEVERITY [RULE] message
    assert line.startswith(str(tree / "pkg" / "bad.py") + ":4:")
    assert "ERROR [RPR001]" in line


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
