"""Trigger / clean / noqa tests for the interprocedural RPR006 and RPR008."""

from __future__ import annotations

from repro.devtools.driver import run_lint


def rules_of(result) -> set[str]:
    return {d.rule for d in result.diagnostics}


# A minimal runnable stage-graph skeleton the fixtures build on.
def stage_tree(stage_body: str, extra: dict[str, str] | None = None,
               noqa: str = "") -> dict[str, str]:
    files = {
        "pkg/graph.py": "class StageSpec:\n    pass\n",
        "pkg/stages.py": (
            "from pkg.graph import StageSpec\n"
            "import pkg.work\n"
            "STAGES = (\n"
            "    StageSpec(name='one', inputs=(), outputs=('a',), "
            "fan_out=None, func=pkg.work.run_one),%s\n"
            ")\n" % noqa
        ),
        "pkg/work.py": stage_body,
    }
    files.update(extra or {})
    return files


# ---------------------------------------------------------------- RPR006

def test_rpr006_flags_impure_stage(make_tree):
    tree = make_tree(stage_tree(
        "import time\n\n"
        "def run_one(data):\n"
        "    return data, time.time()\n"
    ))
    result = run_lint([tree], rules=["RPR006"])
    assert rules_of(result) == {"RPR006"}
    message = result.diagnostics[0].message
    assert "NONDETERMINISTIC" in message and "time.time()" in message


def test_rpr006_clean_on_pure_stage(make_tree):
    tree = make_tree(stage_tree(
        "def run_one(data):\n"
        "    return sorted(data)\n"
    ))
    assert run_lint([tree], rules=["RPR006"]).diagnostics == []


def test_rpr006_flags_unresolvable_stage_function(make_tree):
    files = stage_tree("def other():\n    return 1\n")
    files["pkg/stages.py"] = files["pkg/stages.py"].replace(
        "pkg.work.run_one", "pkg.work.missing")
    tree = make_tree(files)
    result = run_lint([tree], rules=["RPR006"])
    assert rules_of(result) == {"RPR006"}
    assert "does not resolve" in result.diagnostics[0].message


def test_rpr006_noqa_with_justification_suppresses(make_tree):
    tree = make_tree(stage_tree(
        "import time\n\n"
        "def run_one(data):\n"
        "    return data, time.time()\n",
        noqa="  # repro: noqa[RPR006] -- timing stage, not cached",
    ))
    assert run_lint([tree], rules=["RPR006"]).diagnostics == []


# ---------------------------------------------------------------- RPR008

def worker_tree(worker_body: str) -> dict[str, str]:
    return {
        "pkg/exec.py": (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "import pkg.work\n\n"
            "def run(shards):\n"
            "    pool = ProcessPoolExecutor(\n"
            "        initializer=pkg.work.init, initargs=())\n"
            "    return list(pool.map(pkg.work.task, shards))\n"
        ),
        "pkg/work.py": worker_body,
    }


def test_rpr008_flags_unsanctioned_global_write(make_tree):
    tree = make_tree(worker_tree(
        "_context = None\n"
        "_scratch = {}\n\n"
        "def init(ctx=None):\n"
        "    global _context\n"
        "    _context = ctx\n\n"
        "def task(shard):\n"
        "    _scratch[shard] = True\n"
        "    return shard\n"
    ))
    result = run_lint([tree], rules=["RPR008"])
    assert rules_of(result) == {"RPR008"}
    message = result.diagnostics[0].message
    assert "_scratch" in message and "_context" in message


def test_rpr008_clean_when_writes_are_initializer_owned(make_tree):
    tree = make_tree(worker_tree(
        "_context = None\n"
        "_memo = {}\n\n"
        "def init(ctx=None):\n"
        "    global _context\n"
        "    _context = ctx\n"
        "    _memo.clear()\n\n"
        "def task(shard):\n"
        "    _memo[shard] = shard\n"
        "    return _memo[shard]\n"
    ))
    assert run_lint([tree], rules=["RPR008"]).diagnostics == []


def test_rpr008_flags_lambda_pool_task(make_tree):
    files = worker_tree("def init(ctx=None):\n    pass\n")
    files["pkg/exec.py"] = files["pkg/exec.py"].replace(
        "pkg.work.task", "lambda s: s")
    tree = make_tree(files)
    result = run_lint([tree], rules=["RPR008"])
    assert rules_of(result) == {"RPR008"}
    assert "pickled" in result.diagnostics[0].message


def test_rpr008_flags_nested_function_pool_task(make_tree):
    files = worker_tree("def init(ctx=None):\n    pass\n")
    files["pkg/exec.py"] = (
        "from concurrent.futures import ProcessPoolExecutor\n"
        "import pkg.work\n\n"
        "def run(shards):\n"
        "    def task(shard):\n"
        "        return shard\n"
        "    pool = ProcessPoolExecutor(\n"
        "        initializer=pkg.work.init, initargs=())\n"
        "    return list(pool.map(task, shards))\n"
    )
    tree = make_tree(files)
    result = run_lint([tree], rules=["RPR008"])
    assert rules_of(result) == {"RPR008"}
    assert "module level" in result.diagnostics[0].message


def test_rpr008_noqa_suppresses(make_tree):
    tree = make_tree(worker_tree(
        "_context = None\n"
        "_stats = {}\n\n"
        "def init(ctx=None):\n"
        "    global _context\n"
        "    _context = ctx\n\n"
        "def task(shard):\n"
        "    _stats[shard] = True  # repro: noqa[RPR008] -- debug-only tally\n"
        "    return shard\n"
    ))
    assert run_lint([tree], rules=["RPR008"]).diagnostics == []


def process_tree(worker_body: str,
                 target: str = "pkg.work.serve") -> dict[str, str]:
    """A worker module reached only through ``ctx.Process(target=...)``."""
    return {
        "pkg/exec.py": (
            "import multiprocessing\n"
            "import pkg.work\n\n"
            "def start(conn):\n"
            "    ctx = multiprocessing.get_context('spawn')\n"
            "    process = ctx.Process(target=%s, args=(conn,))\n"
            "    process.start()\n"
            "    return process\n" % target
        ),
        "pkg/work.py": worker_body,
    }


#: ``serve`` installs ``_context`` through ``init`` and dispatches tasks
#: through a registry, like ``repro.runtime.workers.serve``.
SERVED_WORKER = (
    "_context = None\n"
    "_scratch = {}\n\n"
    "def init(ctx=None):\n"
    "    global _context\n"
    "    _context = ctx\n\n"
    "def task(shard):\n"
    "%s"
    "    return shard, _context\n\n"
    "TASKS = {'task': task}\n\n"
    "def serve(conn):\n"
    "    init(conn)\n"
    "    while True:\n"
    "        name, shard = conn.recv()\n"
    "        conn.send(TASKS[name](shard))\n"
)


def test_rpr008_flags_unsanctioned_global_write_behind_process_target(
        make_tree):
    tree = make_tree(process_tree(
        SERVED_WORKER % "    _scratch[shard] = True\n"))
    result = run_lint([tree], rules=["RPR008"])
    assert rules_of(result) == {"RPR008"}
    (diagnostic,) = result.diagnostics
    assert "pkg.work.task" in diagnostic.message
    assert "_scratch" in diagnostic.message
    assert "_context" in diagnostic.message


def test_rpr008_clean_when_process_target_installs_the_globals(make_tree):
    tree = make_tree(process_tree(SERVED_WORKER % ""))
    assert run_lint([tree], rules=["RPR008"]).diagnostics == []


def test_rpr008_flags_lambda_process_target(make_tree):
    files = process_tree(SERVED_WORKER % "", target="lambda c: c")
    files["pkg/exec.py"] = files["pkg/exec.py"].replace(
        "ctx.Process", "multiprocessing.Process")
    tree = make_tree(files)
    result = run_lint([tree], rules=["RPR008"])
    assert rules_of(result) == {"RPR008"}
    assert "pickled" in result.diagnostics[0].message


def test_rpr008_checks_the_real_worker_module(tmp_path):
    """The local supervisor reaches ``repro.runtime.workers`` only
    through ``Process(target=workers.serve)``; an unsanctioned global
    write there must still be found."""
    import shutil
    from pathlib import Path

    import repro

    copy = tmp_path / "repro"
    shutil.copytree(Path(repro.__file__).resolve().parent, copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    workers = copy / "runtime" / "workers.py"
    workers.write_text(
        workers.read_text(encoding="utf-8")
        + "\n\n_tally = {}\n\n\ndef _count(task_name):\n"
          "    _tally[task_name] = _tally.get(task_name, 0) + 1\n",
        encoding="utf-8")
    result = run_lint([copy], rules=["RPR008"])
    assert [d.rule for d in result.diagnostics] == ["RPR008"]
    assert "repro.runtime.workers._count" in result.diagnostics[0].message


def test_real_tree_is_clean_under_project_rules():
    import repro
    from pathlib import Path

    result = run_lint([Path(repro.__file__).resolve().parent],
                      rules=["RPR006", "RPR008"])
    assert result.diagnostics == [], [d.format() for d in result.diagnostics]
