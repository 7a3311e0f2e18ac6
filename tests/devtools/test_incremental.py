"""Incremental cache: warm runs skip, edits re-analyze, reuse is sound."""

from __future__ import annotations

import json

from repro.devtools.cli import main
from repro.devtools.driver import run_lint

FILES = {
    "pkg/a.py": "def f(x):\n    return x + 1\n",
    "pkg/b.py": (
        "import random\n\n"
        "def roll():\n"
        "    return random.random()\n"
    ),
}


def test_warm_run_skips_every_unchanged_file(make_tree, tmp_path):
    tree = make_tree(FILES)
    cache = tmp_path / "cache.json"
    cold = run_lint([tree], cache_path=cache)
    assert cold.files_analyzed > 0 and cold.files_skipped == 0
    warm = run_lint([tree], cache_path=cache)
    assert warm.files_analyzed == 0
    assert warm.files_skipped == cold.files_analyzed
    assert warm.diagnostics == cold.diagnostics


def test_edited_file_is_reanalyzed_alone(make_tree, tmp_path):
    tree = make_tree(FILES)
    cache = tmp_path / "cache.json"
    run_lint([tree], cache_path=cache)
    (tree / "pkg" / "a.py").write_text(
        "def f(x):\n    return x + 2\n", encoding="utf-8")
    warm = run_lint([tree], cache_path=cache)
    assert warm.files_analyzed == 1


def test_cached_entries_serve_any_rule_selection(make_tree, tmp_path):
    tree = make_tree(FILES)
    cache = tmp_path / "cache.json"
    run_lint([tree], rules=["RPR002"], cache_path=cache)
    warm = run_lint([tree], rules=["RPR001"], cache_path=cache)
    assert warm.files_analyzed == 0
    assert {d.rule for d in warm.diagnostics} == {"RPR001"}


def test_cached_noqa_still_suppresses(make_tree, tmp_path):
    files = dict(FILES)
    files["pkg/b.py"] = (
        "import random\n\n"
        "def roll():\n"
        "    return random.random()  # repro: noqa[RPR001]\n"
    )
    tree = make_tree(files)
    cache = tmp_path / "cache.json"
    cold = run_lint([tree], rules=["RPR001"], cache_path=cache)
    warm = run_lint([tree], rules=["RPR001"], cache_path=cache)
    assert warm.files_analyzed == 0
    assert cold.diagnostics == warm.diagnostics == []


def test_corrupt_cache_degrades_to_cold_run(make_tree, tmp_path):
    tree = make_tree(FILES)
    cache = tmp_path / "cache.json"
    run_lint([tree], cache_path=cache)
    cache.write_text("{not json", encoding="utf-8")
    rerun = run_lint([tree], cache_path=cache)
    assert rerun.files_skipped == 0
    # and the cache healed itself for the next run
    healed = run_lint([tree], cache_path=cache)
    assert healed.files_analyzed == 0


def test_stale_analysis_version_invalidates_everything(make_tree, tmp_path):
    tree = make_tree(FILES)
    cache = tmp_path / "cache.json"
    run_lint([tree], cache_path=cache)
    payload = json.loads(cache.read_text(encoding="utf-8"))
    payload["analysis_version"] = "0" * 64
    cache.write_text(json.dumps(payload), encoding="utf-8")
    rerun = run_lint([tree], cache_path=cache)
    assert rerun.files_skipped == 0


def test_interprocedural_rules_fire_from_cached_summaries(make_tree,
                                                          tmp_path):
    tree = make_tree({
        "pkg/graph.py": "class StageSpec:\n    pass\n",
        "pkg/stages.py": (
            "from pkg.graph import StageSpec\n"
            "import pkg.work\n"
            "STAGES = (StageSpec(name='one', inputs=(), outputs=('a',), "
            "fan_out=None, func=pkg.work.run_one),)\n"
        ),
        "pkg/work.py": (
            "import time\n\n"
            "def run_one(data):\n"
            "    return data, time.time()\n"
        ),
    })
    cache = tmp_path / "cache.json"
    cold = run_lint([tree], rules=["RPR006"], cache_path=cache)
    warm = run_lint([tree], rules=["RPR006"], cache_path=cache)
    assert warm.files_analyzed == 0
    assert [d.rule for d in cold.diagnostics] == ["RPR006"]
    assert warm.diagnostics == cold.diagnostics


def test_stage_purity_fires_from_cached_summaries_and_tracks_edits(
        make_tree, tmp_path):
    tree = make_tree({
        "pkg/graph.py": "class StageSpec:\n    pass\n",
        "pkg/stages.py": (
            "from pkg.graph import StageSpec\n"
            "import pkg.work\n"
            "STAGES = (StageSpec(name='one', inputs=(), outputs=('a',), "
            "fan_out=None, func=pkg.work.run_one),)\n"
        ),
        "pkg/work.py": (
            "from pkg import stamp\n\n"
            "def run_one(data):\n"
            "    return stamp.tag(data)\n"
        ),
        "pkg/stamp.py": (
            "import time\n\n"
            "def tag(data):\n"
            "    return data, time.time()\n"
        ),
    })
    cache = tmp_path / "cache.json"
    cold = run_lint([tree], rules=["RPR006"], cache_path=cache)
    assert [d.rule for d in cold.diagnostics] == ["RPR006"]
    # the project pass re-runs over the cached summaries of both modules
    warm = run_lint([tree], rules=["RPR006"], cache_path=cache)
    assert warm.files_analyzed == 0
    assert warm.diagnostics == cold.diagnostics
    # dropping the clock read re-analyzes only that file and clears it
    (tree / "pkg" / "stamp.py").write_text(
        "def tag(data):\n"
        "    return data, 0\n", encoding="utf-8")
    fixed = run_lint([tree], rules=["RPR006"], cache_path=cache)
    assert fixed.files_analyzed == 1
    assert fixed.diagnostics == []


def test_wire_contracts_checked_fresh_under_warm_cache(make_tree, tmp_path):
    shard = (
        "class ShardResult:\n"
        '    __wire_contract__ = "shard-result"\n\n'
        "    shard_index: int\n"
    )
    tree = make_tree({"pkg/workers.py": shard})
    contracts = tmp_path / "wire-contracts.json"
    assert main(["--contracts", str(contracts), "--update-contracts",
                 str(tree)]) == 0
    cache = tmp_path / "cache.json"
    cold = run_lint([tree], rules=["RPR010"], cache_path=cache,
                    contracts_path=contracts)
    assert cold.diagnostics == []
    # editing the contract file alone flips the warm run to a finding:
    # wire decls come from cached summaries, the contract is re-read
    payload = json.loads(contracts.read_text(encoding="utf-8"))
    payload["contracts"]["shard-result"]["spec"]["fields"] = []
    contracts.write_text(json.dumps(payload), encoding="utf-8")
    warm = run_lint([tree], rules=["RPR010"], cache_path=cache,
                    contracts_path=contracts)
    assert warm.files_analyzed == 0
    assert [d.rule for d in warm.diagnostics] == ["RPR010"]
    assert "has drifted" in warm.diagnostics[0].message


def test_cli_reports_skip_counts(make_tree, tmp_path, capsys):
    tree = make_tree({"pkg/a.py": "def f():\n    return 1\n"})
    cache = tmp_path / "cache.json"
    assert main(["--cache", str(cache), str(tree)]) == 0
    cold_err = capsys.readouterr().err
    assert "skipped 0 unchanged" in cold_err
    assert main(["--cache", str(cache), str(tree)]) == 0
    warm_err = capsys.readouterr().err
    assert "analyzed 0 file(s)" in warm_err
