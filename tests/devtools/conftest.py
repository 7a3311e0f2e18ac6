"""Shared fixtures for the devtools test suite."""

from __future__ import annotations

from pathlib import Path

import pytest


def write_tree(root: Path, files: dict[str, str]) -> Path:
    """Materialize ``{relative_path: source}`` under ``root``.

    Creates any missing parent packages' ``__init__.py`` so that
    :func:`module_name_for` derives the intended dotted names.
    """
    for relative, source in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        current = path.parent
        while current != root and current != current.parent:
            init = current / "__init__.py"
            if not init.exists():
                init.write_text("", encoding="utf-8")
            current = current.parent
        path.write_text(source, encoding="utf-8")
    return root


@pytest.fixture
def make_tree(tmp_path):
    """Factory: ``make_tree({"pkg/mod.py": "..."}) -> Path`` (for lint_paths)."""
    def build(files: dict[str, str]) -> Path:
        return write_tree(tmp_path, files)
    return build
