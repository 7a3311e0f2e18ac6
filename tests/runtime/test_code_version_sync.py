"""``code_version`` must cover every module that can change a result.

The artifact cache key hashes the program's source (DESIGN.md §9.3).  A
module left out of that hash could change behaviour without invalidating
cached artifacts, and a cache written by the old code would then serve
the old answer.  So the hash takes every module under ``repro`` except
the result-inert packages, and these tests pin both halves: what must be
hashed, what must not, and a warm cache that really misses after a
simulator edit.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.runtime import cache
from repro.runtime.stages import STAGES

SRC_REPRO = Path(repro.__file__).resolve().parent


@pytest.fixture
def hashed(monkeypatch) -> set[Path]:
    """The files one fresh ``code_version()`` call reads."""
    captured: list[Path] = []

    def record(paths):
        captured.extend(Path(path).resolve() for path in paths)
        return "0" * 64

    monkeypatch.setattr(cache.fp, "hash_files", record)
    cache.code_version.__wrapped__()
    return set(captured)


def _modules(package: str) -> set[Path]:
    return {path.resolve() for path in (SRC_REPRO / package).rglob("*.py")}


def test_stage_function_modules_are_hashed(hashed):
    for spec in STAGES:
        path = Path(sys.modules[spec.func.__module__].__file__).resolve()
        assert path in hashed, (
            "stage %r function lives in %s, which code_version() does not "
            "hash" % (spec.name, spec.func.__module__))


@pytest.mark.parametrize("package",
                         ["sim", "isp", "ppp", "dhcp", "experiments"])
def test_simulator_and_experiment_modules_are_hashed(hashed, package):
    modules = _modules(package)
    assert modules
    assert modules - hashed == set()


@pytest.mark.parametrize("package", ["obs", "devtools"])
def test_result_inert_packages_are_not_hashed(hashed, package):
    modules = _modules(package)
    assert modules
    assert modules & hashed == set()


def test_every_other_module_is_hashed(hashed):
    program = {path.resolve() for path in SRC_REPRO.rglob("*.py")}
    inert = set().union(*(_modules(package)
                          for package in cache.RESULT_INERT_PACKAGES))
    assert hashed == program - inert


def _run(src: Path, *flags: str) -> tuple[str, str]:
    """``(digest, cache line)`` of one ``repro-run`` over a copied tree."""
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-m", "repro.runtime.cli", "--scale", "0.05",
         *flags],
        env=env, capture_output=True, text=True, check=True).stdout
    fields = {line.split()[0]: line.split(None, 1)[1]
              for line in out.splitlines() if line.strip()}
    return fields["digest"], fields.get("cache", "")


def test_warm_world_cache_misses_after_a_simulator_edit(tmp_path):
    """An in-memory world's fingerprint is its config, so only the code
    version can tell a warm cache that the simulator changed."""
    src = tmp_path / "src"
    shutil.copytree(SRC_REPRO, src / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    store = str(tmp_path / "cache")
    before, _ = _run(src, "--cache-dir", store)

    timeline = src / "repro" / "sim" / "timeline.py"
    text = timeline.read_text(encoding="utf-8")
    edited = text.replace("CHANGE_DELAY = (15 * MINUTE, 25 * MINUTE)",
                          "CHANGE_DELAY = (16 * MINUTE, 26 * MINUTE)")
    assert edited != text
    timeline.write_text(edited, encoding="utf-8")

    warm, line = _run(src, "--cache-dir", store)
    fresh, _ = _run(src, "--no-cache")
    assert line.startswith("0 hit"), line
    assert warm == fresh != before
