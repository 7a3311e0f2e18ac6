"""Content-addressed artifact cache for stage outputs.

An artifact is one stage's output bundle, pickled to disk under a key
derived from everything the output is a function of::

    key = H(bundle fingerprint, stage name, code version, parameters)

*Bundle fingerprint* is the content hash :mod:`repro.sim.io` computes
over the dataset files at load time; *code version* hashes the source of
every package that can influence stage results, so editing an analysis
function invalidates the cache without any manual version bump; the
*parameters* token covers scalar knobs such as ``min_connected``.  Keys
say nothing about ``jobs`` or shard counts — the executor guarantees
those do not change outputs, so a cache written by a parallel run warms
a serial one and vice versa.

The store is a flat directory of ``<key-prefix>/<key>.pkl`` files with
atomic writes (temp file + rename), corrupt-entry self-healing (an entry
that fails to unpickle is treated as a miss and deleted), and LRU
eviction by access time once the store exceeds ``max_bytes``.

Column-backed outputs (the maps and the filter artifact of
:mod:`repro.core.colartifact`) need no second codec: they pickle as
their meta block and numpy arrays, the same form they take on the
worker pipes, the dist sockets and the shard checkpoints.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import repro
from repro.util import fingerprint as fp

#: Packages whose source feeds the code-version hash: everything at or
#: below ``core`` in the layer DAG that analysis results flow through,
#: plus this package (executor/merge logic) and ``dist`` (the socket
#: execution tier decides which result envelope resolves each shard, and
#: its checkpoints must not survive a protocol change).
CODE_VERSION_PACKAGES = ("errors.py", "util", "net", "atlas", "core",
                         "runtime", "dist")

#: Default store budget; a paper-scale bundle's artifacts are ~tens of MB.
DEFAULT_MAX_BYTES = 2 * 1024 ** 3

#: Cached artifacts outlive the process that wrote them, and the key
#: semantics are defined by which packages feed the code-version hash —
#: so that set is a wire contract (RPR010): growing or shrinking it
#: changes what invalidates the cache and must be a reviewed, versioned
#: event in ``wire-contracts.json``.
__wire_contract__ = {"cache-entry": ("CODE_VERSION_PACKAGES",)}


@lru_cache(maxsize=1)
def code_version() -> str:
    """Fingerprint of the analysis-relevant source tree.

    Hashed once per process: the set of ``.py`` files (sorted by
    package-relative path) and their contents under
    :data:`CODE_VERSION_PACKAGES`.
    """
    root = Path(repro.__file__).parent
    paths: list[Path] = []
    for name in CODE_VERSION_PACKAGES:
        target = root / name
        if target.is_file():
            paths.append(target)
        else:
            paths.extend(sorted(target.rglob("*.py")))
    return fp.hash_files(paths)


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache handle's lifetime."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evicted: int = 0
    #: Corrupt entries deleted and served as misses (self-healing).
    healed: int = 0
    #: Cumulative artifact bytes written by this handle.
    bytes_stored: int = 0
    #: Stage names served from cache, in lookup order.
    hit_stages: list[str] = field(default_factory=list)
    miss_stages: list[str] = field(default_factory=list)


class ArtifactCache:
    """Disk-backed, content-addressed store for pickled stage outputs."""

    def __init__(self, directory: str | Path,
                 max_bytes: int = DEFAULT_MAX_BYTES) -> None:
        self.directory = Path(directory)
        self.max_bytes = max_bytes
        self.stats = CacheStats()
        self.directory.mkdir(parents=True, exist_ok=True)

    # -- keys ---------------------------------------------------------------

    @staticmethod
    def key(bundle_fingerprint: str, stage: str, version: str,
            params: str) -> str:
        """Content address of one stage's outputs."""
        return fp.combine(bundle_fingerprint, stage, version, params)

    def _path(self, key: str) -> Path:
        return self.directory / key[:2] / (key + ".pkl")

    def _heal(self, path: Path, stage: str, key: str) -> tuple[bool, object]:
        """Delete a broken entry and serve a miss."""
        path.unlink(missing_ok=True)
        # Each handle has one thread at a time (the coordinator's passes
        # from the runner thread to the loop thread with each stage); the
        # analyzer cannot tell handles or the handoff apart.
        self.stats.healed += 1  # repro: noqa[RPR011] -- per-handle accounting; every handle is used by one thread at a time
        self.stats.misses += 1
        self.stats.miss_stages.append(stage or key)
        return False, None

    # -- store/load ---------------------------------------------------------

    def load(self, key: str, stage: str = "") -> tuple[bool, object]:
        """Fetch an artifact; ``(False, None)`` on miss or corruption."""
        path = self._path(key)
        try:
            with open(path, "rb") as stream:
                value = pickle.load(stream)
        except FileNotFoundError:
            self.stats.misses += 1
            self.stats.miss_stages.append(stage or key)
            return False, None
        except (pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, ValueError, TypeError, IndexError,
                OverflowError, MemoryError, SystemError):
            # A stale entry (a class that no longer unpickles) or a
            # damaged one must behave exactly like a miss.  A flipped
            # byte can land in a name (UnicodeDecodeError, a ValueError),
            # an opcode's argument or a length (huge or negative sizes),
            # or the dtype state numpy rebuilds from (SystemError).
            return self._heal(path, stage, key)
        os.utime(path)  # refresh LRU access time
        self.stats.hits += 1
        self.stats.hit_stages.append(stage or key)
        return True, value

    def store(self, key: str, value: object) -> None:
        """Write an artifact atomically, then enforce the size budget."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp.%d" % os.getpid())
        with open(tmp, "wb") as stream:
            pickle.dump(value, stream, protocol=pickle.HIGHEST_PROTOCOL)
        self.stats.bytes_stored += tmp.stat().st_size
        os.replace(tmp, path)
        self.stats.stores += 1
        self.evict()

    # -- maintenance --------------------------------------------------------

    def _entries_with_stats(self) -> list[tuple[Path, os.stat_result]]:
        """Artifact files with their stat results, oldest access first.

        Files that vanish between ``glob`` and ``stat`` (a concurrent
        run evicting) are simply skipped; ties on ``st_mtime`` — common
        on filesystems with coarse timestamp granularity — break on the
        file name so the order stays deterministic.
        """
        found = []
        for path in self.directory.glob("*/*.pkl"):
            try:
                found.append((path, path.stat()))
            except FileNotFoundError:
                continue
        found.sort(key=lambda item: (item[1].st_mtime, item[0].name))
        return found

    def entries(self) -> list[Path]:
        """All artifact files, oldest access first."""
        return [path for path, _ in self._entries_with_stats()]

    def total_bytes(self) -> int:
        """Bytes currently stored."""
        return sum(stat.st_size for _, stat in self._entries_with_stats())

    def evict(self) -> int:
        """Drop least-recently-used artifacts until under ``max_bytes``.

        "Recently used" is ``st_mtime``, which :meth:`load` refreshes via
        ``os.utime`` on every hit — so an entry a warm run just served is
        the *last* eviction candidate even though it was written first.
        """
        entries = self._entries_with_stats()
        total = sum(stat.st_size for _, stat in entries)
        removed = 0
        for path, stat in entries:
            if total <= self.max_bytes:
                break
            total -= stat.st_size
            path.unlink(missing_ok=True)
            removed += 1
        self.stats.evicted += removed
        return removed

    def clear(self) -> int:
        """Remove every artifact (``repro-run --clear-cache``).

        Also sweeps the ``<key>.<name>.col`` sidecar files that earlier
        versions of the cache wrote next to their entries.
        """
        removed = 0
        for path in self.entries():
            path.unlink(missing_ok=True)
            removed += 1
        for path in self.directory.glob("*/*.col"):
            path.unlink(missing_ok=True)
        return removed
