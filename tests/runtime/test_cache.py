"""Artifact cache: addressing, atomicity, self-healing, eviction."""

from __future__ import annotations

import random

from repro.runtime import RuntimeConfig, runner_for_bundle
from repro.runtime.cache import ArtifactCache, code_version


def _key(stage: str = "spans", fingerprint: str = "f" * 64) -> str:
    return ArtifactCache.key(fingerprint, stage, code_version(), "params")


def test_roundtrip(tmp_path):
    cache = ArtifactCache(tmp_path)
    payload = {"spans_by_probe": {1: ["a"], 2: []}}
    cache.store(_key(), payload)
    hit, value = cache.load(_key(), stage="spans")
    assert hit and value == payload
    assert cache.stats.hits == 1 and cache.stats.stores == 1


def test_miss_on_unknown_key(tmp_path):
    cache = ArtifactCache(tmp_path)
    hit, value = cache.load(_key("gaps"), stage="gaps")
    assert not hit and value is None
    assert cache.stats.miss_stages == ["gaps"]


def test_key_distinguishes_every_component():
    base = _key()
    assert _key(fingerprint="e" * 64) != base
    assert _key(stage="gaps") != base
    assert ArtifactCache.key("f" * 64, "spans", "other-version",
                             "params") != base
    assert ArtifactCache.key("f" * 64, "spans", code_version(),
                             "other-params") != base


def test_corrupt_entry_behaves_as_miss_and_heals(tmp_path):
    cache = ArtifactCache(tmp_path)
    cache.store(_key(), {"x": 1})
    (path,) = cache.entries()
    path.write_bytes(b"not a pickle")
    hit, _ = cache.load(_key())
    assert not hit
    assert not path.exists()


def test_eviction_drops_oldest_first(tmp_path):
    import os
    cache = ArtifactCache(tmp_path)
    cache.store(_key("a"), list(range(100)))
    (old,) = cache.entries()
    os.utime(old, (1, 1))  # definitely least-recently used
    # Budget fits exactly one entry: storing a second evicts the oldest.
    cache.max_bytes = cache.total_bytes() + 10
    cache.store(_key("b"), list(range(100)))
    remaining = cache.entries()
    assert old not in remaining and len(remaining) == 1
    assert cache.stats.evicted == 1


def test_clear_empties_store(tmp_path):
    cache = ArtifactCache(tmp_path)
    cache.store(_key("a"), 1)
    cache.store(_key("b"), 2)
    assert cache.clear() == 2
    assert cache.entries() == []
    assert cache.total_bytes() == 0


def test_code_version_is_stable_and_hexadecimal():
    assert code_version() == code_version()
    assert len(code_version()) == 64
    int(code_version(), 16)


def test_hit_protects_entry_from_eviction(tmp_path):
    import os
    cache = ArtifactCache(tmp_path)
    cache.store(_key("a"), list(range(100)))
    cache.store(_key("b"), list(range(100)))
    for path in cache.entries():
        os.utime(path, (1, 1))  # both look ancient
    # A hit refreshes the entry's access time via os.utime...
    hit, _ = cache.load(_key("a"), stage="a")
    assert hit
    # ...so when the budget forces one eviction, the *unread* entry goes.
    cache.max_bytes = cache.total_bytes() + 10
    cache.store(_key("c"), list(range(100)))
    remaining = {path.name for path in cache.entries()}
    assert _key("a") + ".pkl" in remaining
    assert _key("b") + ".pkl" not in remaining
    assert cache.stats.evicted == 1


def test_eviction_deterministic_under_coarse_utime_granularity(
        tmp_path, monkeypatch):
    """Filesystems with one-second timestamps collapse access times.

    When every entry carries the identical mtime the LRU order is
    undefined by time alone; eviction must still be deterministic (name
    tiebreak) and must still shrink the store below the budget.
    """
    import os as real_os

    from repro.runtime import cache as cache_mod

    true_utime = real_os.utime

    def coarse_utime(path, times=None):
        # A clock that only ever reads whole seconds, frozen at 1000.
        true_utime(path, (1000, 1000))

    monkeypatch.setattr(cache_mod.os, "utime", coarse_utime)
    cache = ArtifactCache(tmp_path)
    cache.store(_key("a"), list(range(100)))
    cache.store(_key("b"), list(range(100)))
    cache.store(_key("c"), list(range(100)))
    for path in cache.entries():
        true_utime(path, (1000, 1000))
    cache.load(_key("a"))  # refresh is a no-op at this granularity
    entry_size = cache.total_bytes() // 3
    cache.max_bytes = entry_size + 10  # keep exactly one entry
    removed = cache.evict()
    assert removed == 2
    (survivor,) = cache.entries()
    # Deterministic tiebreak: the lexicographically last name stays.
    expected = sorted(_key(stage) + ".pkl" for stage in "abc")[-1]
    assert survivor.name == expected


def test_corruption_heals_are_counted(tmp_path):
    cache = ArtifactCache(tmp_path)
    cache.store(_key(), {"x": 1})
    (path,) = cache.entries()
    path.write_bytes(b"not a pickle")
    cache.load(_key())
    assert cache.stats.healed == 1
    assert cache.stats.misses == 1


def test_bytes_stored_accumulates_written_sizes(tmp_path):
    cache = ArtifactCache(tmp_path)
    cache.store(_key("a"), list(range(50)))
    cache.store(_key("b"), list(range(50)))
    assert cache.stats.bytes_stored == cache.total_bytes()
    assert cache.stats.bytes_stored > 0


def test_flipped_bytes_in_any_entry_heal_instead_of_raising(bundle,
                                                           tmp_path):
    """A damaged entry never escapes ``load`` as an exception.

    One flipped byte per load, at seeded positions across every entry a
    real run stores; each file is restored after its load (a heal
    deletes it), so every flip damages an otherwise intact cache.
    """
    cache_dir = tmp_path / "cache"
    runner_for_bundle(bundle, RuntimeConfig(cache_dir=cache_dir)).run()
    entries = sorted(cache_dir.rglob("*.pkl"))
    assert entries
    rng = random.Random(2015)
    cache = ArtifactCache(cache_dir)
    for path in entries:
        original = path.read_bytes()
        for _ in range(150):
            damaged = bytearray(original)
            damaged[rng.randrange(len(damaged))] ^= rng.randrange(1, 256)
            path.write_bytes(bytes(damaged))
            try:
                cache.load(path.stem)
            finally:
                path.write_bytes(original)
    assert cache.stats.healed > 0  # the flips did reach the structure


def test_clear_sweeps_sidecar_groups_of_older_caches(tmp_path):
    """Caches written by earlier versions kept columns in
    ``<key>.<name>.col`` sidecar files next to each entry's pickle;
    ``--clear-cache`` must leave none of either behind."""
    cache = ArtifactCache(tmp_path)
    cache.store(_key("spans"), {"spans_by_probe": "placeholder"})
    (entry,) = cache.entries()
    for name in ("spans_by_probe", "durations_by_probe"):
        entry.with_name("%s.%s.col" % (entry.stem, name)).write_bytes(
            b"RCOL" + bytes(60))
    orphan = tmp_path / "ab" / ("ab" + "0" * 62 + ".gaps.col")
    orphan.parent.mkdir(exist_ok=True)
    orphan.write_bytes(b"RCOL" + bytes(60))
    assert cache.clear() == 1
    assert not list(tmp_path.rglob("*.pkl"))
    assert not list(tmp_path.rglob("*.col"))
