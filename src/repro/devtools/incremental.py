"""Incremental lint cache: warm runs skip unchanged files.

The per-file half of a lint run — parsing, the RPR001–005 checks, the
``noqa`` map, and the wire-contract declarations RPR010 reads — depends
only on one file's bytes.  So each analyzed file is cached under its
content fingerprint (:func:`repro.util.fingerprint.hash_text`), and a
warm run re-analyzes only files whose fingerprint moved.  The
whole-project pass (RPR010) is cheap relative to parsing and always
re-runs over every file's record, so its findings stay correct even
when *other* files changed.

Two guards keep reuse sound:

* entries store pre-``noqa``, all-rules diagnostics, so one cache serves
  any ``--rules`` selection (filtering happens at report time);
* the cache carries an ``analysis_version`` — the fingerprint of the
  ``repro.devtools`` sources themselves — so editing the analyzer
  invalidates every entry at once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import repro.util.fingerprint as fp
from repro.devtools.diagnostics import Diagnostic
from repro.devtools.wire import WireDecl

#: Bump when the entry layout changes shape (distinct from
#: ``analysis_version``, which tracks analyzer *behaviour*).
CACHE_FORMAT = 3


def analysis_version() -> str:
    """Fingerprint of the analyzer's own sources.

    Any edit to ``repro.devtools`` may change what a file's cached
    diagnostics or declarations would be, so it must invalidate the cache
    wholesale.
    """
    root = Path(__file__).resolve().parent
    return fp.hash_files(sorted(root.rglob("*.py")))


@dataclass
class FileRecord:
    """Everything the driver learned from one file, cache-round-trippable.

    ``diagnostics`` are pre-suppression and cover every per-file rule;
    ``noqa`` maps 1-based line numbers to suppressed rule ids (``"*"``
    meaning all); ``wire_decls`` are the file's wire-contract
    declarations, empty for files that failed to parse.
    """

    path: str
    source_hash: str
    module: str
    diagnostics: list[Diagnostic] = field(default_factory=list)
    noqa: dict[int, frozenset[str]] = field(default_factory=dict)
    wire_decls: tuple[WireDecl, ...] = ()

    def to_dict(self) -> dict[str, object]:
        return {
            "path": self.path,
            "source_hash": self.source_hash,
            "module": self.module,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "noqa": {str(line): sorted(rules)
                     for line, rules in self.noqa.items()},
            "wire_decls": [decl.to_dict() for decl in self.wire_decls],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FileRecord":
        return cls(
            path=str(payload["path"]),
            source_hash=str(payload["source_hash"]),
            module=str(payload["module"]),
            diagnostics=[Diagnostic.from_dict(d)
                         for d in payload["diagnostics"]],
            noqa={int(line): frozenset(rules)
                  for line, rules in payload["noqa"].items()},
            wire_decls=tuple(WireDecl.from_dict(decl)
                             for decl in payload["wire_decls"]),
        )


class LintCache:
    """On-disk map from file key to :class:`FileRecord`.

    A *key* is the resolved file path; a lookup hits only when the
    stored source fingerprint matches, so stale entries are simply
    re-analyzed (and overwritten) rather than ever served.
    """

    def __init__(self, path: Path, entries: dict[str, dict],
                 version: str) -> None:
        self.path = path
        self._entries = entries
        self._version = version
        self._dirty = False

    @classmethod
    def load(cls, path: str | Path) -> "LintCache":
        """Open (or start) the cache at ``path``.

        A missing, corrupt, format-bumped or analyzer-stale file all
        degrade to an empty cache: correctness never depends on the
        cache's contents.
        """
        path = Path(path)
        version = analysis_version()
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            if (payload.get("cache_format") == CACHE_FORMAT
                    and payload.get("analysis_version") == version):
                return cls(path, dict(payload["files"]), version)
        except (OSError, ValueError, KeyError):
            pass
        return cls(path, {}, version)

    def lookup(self, key: str, source_hash: str) -> FileRecord | None:
        """Cached record for ``key`` if its fingerprint still matches."""
        entry = self._entries.get(key)
        if entry is None or entry.get("source_hash") != source_hash:
            return None
        try:
            return FileRecord.from_dict(entry)
        except (KeyError, TypeError, ValueError):
            return None

    def store(self, key: str, record: FileRecord) -> None:
        self._entries[key] = record.to_dict()
        self._dirty = True

    def save(self) -> None:
        """Write the cache back atomically (rename over the old file)."""
        if not self._dirty:
            return
        payload = {
            "cache_format": CACHE_FORMAT,
            "analysis_version": self._version,
            "files": self._entries,
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        scratch = self.path.with_suffix(self.path.suffix + ".tmp")
        scratch.write_text(json.dumps(payload), encoding="utf-8")
        scratch.replace(self.path)
        self._dirty = False
