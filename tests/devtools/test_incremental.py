"""Incremental cache: warm runs skip, edits re-analyze, reuse is sound."""

from __future__ import annotations

import json

import repro.util.fingerprint as fp
from repro.devtools.cli import main
from repro.devtools.driver import _analyze_file, iter_python_files, run_lint
from repro.devtools.incremental import FileRecord

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


SHARD = (
    "class ShardResult:\n"
    '    __wire_contract__ = "shard-result"\n\n'
    "    shard_index: int\n"
)

TRACE = (
    'SCHEMA = "pkg-trace-1"\n'
    '__wire_contract__ = {"pkg-trace": ("SCHEMA",)}\n'
)


def test_interprocedural_rules_fire_from_cached_summaries(make_tree,
                                                          tmp_path):
    tree = make_tree({"pkg/workers.py": SHARD, "pkg/trace.py": TRACE})
    contracts = tmp_path / "wire-contracts.json"
    assert main(["--contracts", str(contracts), "--update-contracts",
                 str(tree)]) == 0
    # retiring the trace module leaves its contract entry stale
    (tree / "pkg" / "trace.py").unlink()
    cache = tmp_path / "cache.json"
    cold = run_lint([tree], rules=["RPR010"], cache_path=cache)
    warm = run_lint([tree], rules=["RPR010"], cache_path=cache)
    assert warm.files_analyzed == 0
    assert [d.rule for d in cold.diagnostics] == ["RPR010"]
    assert warm.diagnostics == cold.diagnostics


def test_stale_contract_fires_from_cached_records_and_tracks_edits(
        make_tree, tmp_path):
    tree = make_tree({"pkg/workers.py": SHARD, "pkg/trace.py": TRACE})
    contracts = tmp_path / "wire-contracts.json"
    assert main(["--contracts", str(contracts), "--update-contracts",
                 str(tree)]) == 0
    # the trace schema loses its marker: its entry is stale, and the
    # finding anchors in the other module
    (tree / "pkg" / "trace.py").write_text('SCHEMA = "pkg-trace-1"\n',
                                           encoding="utf-8")
    cache = tmp_path / "cache.json"
    cold = run_lint([tree], rules=["RPR010"], cache_path=cache)
    assert [d.rule for d in cold.diagnostics] == ["RPR010"]
    # the project pass re-runs over the cached records of both modules
    warm = run_lint([tree], rules=["RPR010"], cache_path=cache)
    assert warm.files_analyzed == 0
    assert warm.diagnostics == cold.diagnostics
    # restoring the marker re-analyzes only that file and clears it
    (tree / "pkg" / "trace.py").write_text(TRACE, encoding="utf-8")
    fixed = run_lint([tree], rules=["RPR010"], cache_path=cache)
    assert fixed.files_analyzed == 1
    assert fixed.diagnostics == []


def test_file_record_round_trips_through_dict(make_tree):
    tree = make_tree({
        "pkg/workers.py": SHARD,
        "pkg/trace.py": TRACE,
        "pkg/b.py": FILES["pkg/b.py"] + "x = 1  # repro: noqa[RPR002]\n",
        "pkg/broken.py": "def f(:\n",
    })
    records = []
    for path in iter_python_files([tree]):
        source = path.read_text(encoding="utf-8")
        records.append(_analyze_file(path, source, fp.hash_text(source)))
    assert any(record.wire_decls for record in records)
    assert any(record.noqa for record in records)
    assert {d.rule for record in records
            for d in record.diagnostics} == {"RPR000", "RPR001"}
    for record in records:
        payload = json.loads(json.dumps(record.to_dict()))
        assert FileRecord.from_dict(payload) == record


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
    # wire decls come from cached records, the contract is re-read
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
