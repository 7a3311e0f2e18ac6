"""Deterministic probe sharding.

Shards are contiguous, balanced chunks of the *sorted* probe-id list, so
the partition is a pure function of the probe population — independent of
worker count, scheduling, or dict iteration order.  Merging shard results
in shard order therefore re-creates exactly the probe order the serial
pipeline iterates in, which is the cornerstone of the ``jobs=N`` ==
``jobs=1`` bit-identity guarantee.
"""

from __future__ import annotations

from typing import Sequence, TypeVar

T = TypeVar("T")

#: Shards per worker: small enough to keep task dispatch overhead low,
#: large enough that one slow shard cannot serialize the run's tail.
OVERSHARD = 4


def shard_count(jobs: int, items: int, shards: int | None = None) -> int:
    """Number of shards for a stage over ``items`` work units.

    An explicit ``shards`` wins; otherwise ``jobs * OVERSHARD``, clamped
    to the number of items so no shard is empty (and to 1 for tiny runs).
    """
    if shards is None:
        shards = jobs * OVERSHARD
    return max(1, min(shards, items)) if items else 1


def partition(items: Sequence[T], shards: int) -> list[list[T]]:
    """Split ``items`` into ``shards`` contiguous, balanced chunks.

    The first ``len(items) % shards`` chunks get one extra element, so
    chunk sizes differ by at most one.  Order within and across chunks
    preserves the input order; callers pass sorted probe ids.
    """
    if shards <= 0:
        raise ValueError("shards must be positive, got %r" % (shards,))
    base, extra = divmod(len(items), shards)
    chunks: list[list[T]] = []
    cursor = 0
    for index in range(shards):
        size = base + (1 if index < extra else 0)
        chunks.append(list(items[cursor:cursor + size]))
        cursor += size
    return [chunk for chunk in chunks if chunk]
