"""Call-graph construction: summaries, resolution, reachability."""

from __future__ import annotations

from repro.devtools.callgraph import FileSummary


PKG = {
    "pkg/__init__.py": "from pkg.api import entry\n",
    "pkg/api.py": (
        "from pkg import helpers\n"
        "from pkg.helpers import double\n\n"
        "def entry(x):\n"
        "    return helpers.double(x) + double(x)\n"
    ),
    "pkg/helpers.py": (
        "def double(x):\n"
        "    return x * 2\n"
    ),
}


def test_dotted_and_from_imports_resolve_to_same_function(make_project):
    project = make_project(PKG)
    entry = project.summaries["pkg.api"].functions["entry"]
    targets = set()
    for site in entry.calls:
        resolved = project.resolve_callable(site.target)
        assert resolved is not None
        targets.add(resolved)
    assert targets == {("function", "pkg.helpers.double")}


def test_reexport_through_package_init_resolves(make_project):
    project = make_project(PKG)
    assert project.resolve_callable("pkg.entry") == \
        ("function", "pkg.api.entry")


def test_relative_imports_resolve(make_project):
    project = make_project({
        "pkg/a.py": "from . import b\n\ndef f():\n    return b.g()\n",
        "pkg/b.py": "def g():\n    return 1\n",
    })
    site = project.summaries["pkg.a"].functions["f"].calls[0]
    assert project.resolve_callable(site.target) == ("function", "pkg.b.g")


def test_import_cycle_reachability_terminates(make_project):
    project = make_project({
        "pkg/a.py": "import pkg.b\n",
        "pkg/b.py": "import pkg.c\n",
        "pkg/c.py": "import pkg.a\n",
    })
    closure = project.reachable_modules(["pkg.a"])
    assert {"pkg.a", "pkg.b", "pkg.c"} <= closure


def test_root_facade_excluded_from_closure(make_project):
    project = make_project({
        "pkg/__init__.py": "from pkg.heavy import everything\n",
        "pkg/light.py": "X = 1\n",
        "pkg/heavy.py": "def everything():\n    return 0\n",
    })
    assert project.root_packages() == frozenset({"pkg"})
    closure = project.reachable_modules(
        ["pkg.light"], exclude=project.root_packages())
    # without the exclusion, pkg.light -> pkg (ancestor) -> pkg.heavy
    assert closure == {"pkg.light"}


def test_stage_decls_found_by_keyword_and_position(make_project):
    project = make_project({
        "pkg/stages.py": (
            "from pkg.graph import StageSpec\n"
            "import pkg.work\n"
            "STAGES = (\n"
            "    StageSpec(name='one', inputs=(), outputs=('a',),\n"
            "              fan_out=None, func=pkg.work.run_one),\n"
            "    StageSpec('two', (), ('b',), None, pkg.work.run_two),\n"
            ")\n"
        ),
        "pkg/graph.py": "class StageSpec:\n    pass\n",
        "pkg/work.py": (
            "def run_one(data):\n    return data\n\n"
            "def run_two(data):\n    return data\n"
        ),
    })
    decls = project.summaries["pkg.stages"].stage_decls
    assert [(d.stage, d.func) for d in decls] == [
        ("one", "pkg.work.run_one"), ("two", "pkg.work.run_two")]


def test_pool_sites_initializer_and_unpicklable_tasks(make_project):
    project = make_project({
        "pkg/exec.py": (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "import pkg.work\n\n"
            "def run(shards):\n"
            "    pool = ProcessPoolExecutor(\n"
            "        initializer=pkg.work.init, initargs=())\n"
            "    pool.map(lambda s: s, shards)\n"
            "    pool.map(pkg.work.task, shards)\n"
            "    local = pkg.work.task\n"
            "    pool.map(local, shards)\n"
        ),
        "pkg/work.py": (
            "def init():\n    pass\n\n"
            "def task(s):\n    return s\n"
        ),
    })
    sites = project.summaries["pkg.exec"].pool_sites
    roles = sorted((s.role, s.target) for s in sites)
    # the local-variable task is skipped (nothing static to check), the
    # lambda and the module-level reference are both recorded
    assert roles == [
        ("initializer", "pkg.work.init"),
        ("task", "<lambda>"),
        ("task", "pkg.work.task"),
    ]


def test_global_writes_recorded_with_global_statement(make_project):
    project = make_project({
        "pkg/state.py": (
            "_CACHE = {}\n"
            "_MODE = None\n\n"
            "def install(mode):\n"
            "    global _MODE\n"
            "    _MODE = mode\n"
            "    _CACHE.clear()\n\n"
            "def pure_local():\n"
            "    cache = {}\n"
            "    cache.clear()\n"
            "    return cache\n"
        ),
    })
    functions = project.summaries["pkg.state"].functions
    assert sorted(name for name, _ in functions["install"].global_writes) == \
        ["_CACHE", "_MODE"]
    assert functions["pure_local"].global_writes == ()


def test_summary_round_trips_through_dict(make_project):
    project = make_project(PKG)
    for summary in project.summaries.values():
        clone = FileSummary.from_dict(summary.to_dict())
        assert clone == summary
