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
atomic writes (temp file + rename), corrupt-entry self-healing (a
truncated pickle is treated as a miss and deleted), and LRU eviction by
access time once the store exceeds ``max_bytes``.

Columnar sidecars: output values registered with
:mod:`repro.util.colpack` are not pickled at all — each is written as a
``<key>.<name>.col`` container next to the entry's pickle, which holds a
:class:`ColumnarSidecarRef` placeholder instead.  Loads resolve the
placeholders via :func:`colpack.load_object`, memory-mapping the columns
so a warm run faults in only what it touches.  An entry and its sidecars
live and die together: eviction, healing and ``clear`` treat them as one
group, and a missing/corrupt/unreadable sidecar heals the whole entry
into a miss.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import repro
from repro.util import colpack
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


class ColumnarSidecarRef:
    """Pickled placeholder for a value stored as a ``.col`` sidecar file.

    Appears inside cached artifact dicts on disk, read back by later
    runs of different processes — a wire contract (RPR010).
    """

    __wire_contract__ = "columnar-sidecar-ref"

    def __init__(self, name: str) -> None:
        #: The output name within the artifact dict (doubles as the
        #: sidecar file-name component).
        self.name = name


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

    def _sidecar(self, key: str, name: str) -> Path:
        return self.directory / key[:2] / ("%s.%s.col" % (key, name))

    @staticmethod
    def _group(path: Path) -> list[Path]:
        """The entry's pickle plus its columnar sidecars, pickle first.

        Keys are hex digests, so ``path.stem`` is glob-safe.
        """
        return [path] + sorted(path.parent.glob(path.stem + ".*.col"))

    def _heal(self, path: Path, stage: str, key: str) -> tuple[bool, object]:
        """Delete a broken entry (with sidecars) and serve a miss."""
        for member in self._group(path):
            member.unlink(missing_ok=True)
        # Same confinement argument as the eviction counter below: each
        # runner owns a private handle, and dist-side loads all run under
        # the coordinator's cluster lock.
        self.stats.healed += 1  # repro: noqa[RPR011] -- per-handle accounting; dist accesses are serialized by the coordinator's cluster lock, runtime handles are main-thread-only
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
                ImportError):
            # A truncated or stale entry (e.g. a class that no longer
            # unpickles) must behave exactly like a miss.
            return self._heal(path, stage, key)
        try:
            value = self._resolve_sidecars(key, value)
        except (colpack.ColpackError, OSError, RuntimeError):
            # Truncated/missing sidecar, or a numpy-free process reading
            # a columnar entry: the whole entry behaves like a miss.
            return self._heal(path, stage, key)
        os.utime(path)  # refresh LRU access time
        self.stats.hits += 1
        self.stats.hit_stages.append(stage or key)
        return True, value

    def _resolve_sidecars(self, key: str, value: object) -> object:
        """Swap :class:`ColumnarSidecarRef` placeholders for mmap'd objects."""
        if not isinstance(value, dict):
            return value
        resolved = None
        for name, item in value.items():
            if isinstance(item, ColumnarSidecarRef):
                if resolved is None:
                    resolved = dict(value)
                resolved[name] = colpack.load_object(
                    self._sidecar(key, item.name))
        return value if resolved is None else resolved

    def store(self, key: str, value: object) -> None:
        """Write an artifact atomically, then enforce the size budget.

        Colpack-registered values inside a dict artifact go to ``.col``
        sidecars (written first — the pickle's rename publishes the
        entry, and healing covers a crash in between).
        """
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(value, dict):
            slim = None
            for name, item in value.items():
                if colpack.schema_of(item) is not None:
                    if slim is None:
                        slim = dict(value)
                    self.stats.bytes_stored += colpack.write_object(
                        self._sidecar(key, name), item)
                    slim[name] = ColumnarSidecarRef(name)
            if slim is not None:
                value = slim
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
        """Bytes currently stored (pickles and columnar sidecars)."""
        total = sum(stat.st_size for _, stat in self._entries_with_stats())
        for path in self.directory.glob("*/*.col"):
            try:
                total += path.stat().st_size
            except FileNotFoundError:
                continue
        return total

    def evict(self) -> int:
        """Drop least-recently-used artifacts until under ``max_bytes``.

        "Recently used" is ``st_mtime``, which :meth:`load` refreshes via
        ``os.utime`` on every hit — so an entry a warm run just served is
        the *last* eviction candidate even though it was written first.
        An entry's sidecars count toward its size and are removed with
        it.
        """
        removed = 0
        groups = []
        total = 0
        for path, stat in self._entries_with_stats():
            members = self._group(path)
            size = stat.st_size
            for member in members[1:]:
                try:
                    size += member.stat().st_size
                except FileNotFoundError:
                    continue
            groups.append((members, size))
            total += size
        for members, size in groups:
            if total <= self.max_bytes:
                break
            total -= size
            for member in members:
                member.unlink(missing_ok=True)
            removed += 1
        # Each runner owns a private cache handle: ShardedRunner touches
        # it from the main thread only, and in dist mode every access is
        # inside LeaseServer._on_result, which holds the cluster RLock —
        # the two roles never share one instance.
        self.stats.evicted += removed  # repro: noqa[RPR011] -- per-handle accounting; dist accesses are serialized by the coordinator's cluster lock, runtime handles are main-thread-only
        return removed

    def clear(self) -> int:
        """Remove every artifact (``repro-run --clear-cache``)."""
        removed = 0
        for path in self.entries():
            for member in self._group(path):
                member.unlink(missing_ok=True)
            removed += 1
        # Orphaned sidecars (their pickle healed away separately).
        for path in self.directory.glob("*/*.col"):
            path.unlink(missing_ok=True)
        return removed
