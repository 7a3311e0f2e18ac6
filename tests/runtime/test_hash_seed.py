"""Order stability, measured: one run under three ``PYTHONHASHSEED`` values.

String hashing is salted per process, so anything that walks a ``set``
(or a dict built from one) of strings can come out in a different order
under a different seed.  If such an order reaches the results digest, a
cache key or a stored artifact, two equal runs stop agreeing.  Instead of
proving that statically, this test runs the real CLI under seeds 0, 1
and 2 with a fresh cache each and compares everything it wrote:

* the printed results digest;
* the set of cache-key paths (stage artifacts, shard checkpoints and
  their manifests — a checkpoint key folds in the partition digest);
* the bytes of every stage artifact and ``CheckpointManifest``;
* the ``seal`` of every ``ShardResult`` checkpoint.  An envelope's own
  bytes differ even between two runs at one seed (it carries the
  shard's spans and metrics); the seal hashes the payload alone.

Two seeds order a two-element set of strings the same way about half
the time, so a third seed halves the chance that such a set slips
through (seeds 0 and 1 happen to agree on the shard-size sets of this
run's partitions).
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.runtime.workers import ShardResult

pytestmark = pytest.mark.runtime

SRC = Path(repro.__file__).resolve().parents[1]
SEEDS = (0, 1, 2)


def _run(seed: int, cache_dir: Path) -> str:
    env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-m", "repro.runtime.cli", "--scale", "0.05",
         "--jobs", "2", "--cache-dir", str(cache_dir)],
        env=env, capture_output=True, text=True, check=True).stdout
    [digest] = [line.split()[1] for line in out.splitlines()
                if line.startswith("digest")]
    return digest


def _entries(cache_dir: Path) -> dict[str, bytes]:
    return {path.relative_to(cache_dir).as_posix(): path.read_bytes()
            for path in sorted(cache_dir.glob("*/*.pkl"))}


def test_cli_run_is_identical_across_hash_seeds(tmp_path):
    digests = {seed: _run(seed, tmp_path / str(seed)) for seed in SEEDS}
    assert len(set(digests.values())) == 1, digests

    first, *others = (_entries(tmp_path / str(seed)) for seed in SEEDS)
    for other in others:
        assert first and sorted(first) == sorted(other)
    envelopes = 0
    for key, blob in first.items():
        value = pickle.loads(blob)
        for other in others:
            if isinstance(value, ShardResult):
                assert value.seal == pickle.loads(other[key]).seal, key
            else:
                assert blob == other[key], (key, type(value).__name__)
        envelopes += isinstance(value, ShardResult)
    assert 0 < envelopes < len(first)
