"""Deterministic-iteration helpers.

Reproducibility demands that anything feeding a digest, a cached
artifact, or a wire payload iterates in a stable order.  These helpers
are the sanctioned way to restore that order after an inherently
unordered step (a ``set``, a shard fan-in, a directory listing).  Order
stability is measured, not inferred: ``tests/runtime/test_hash_seed.py``
runs the pipeline under three ``PYTHONHASHSEED`` values and compares the
digest and every stage artifact byte for byte (DESIGN.md §12).
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, TypeVar

T = TypeVar("T")
K = TypeVar("K")
V = TypeVar("V")


def ordered(iterable: Iterable[T],
            key: Callable[[T], object] | None = None) -> list[T]:
    """``sorted()`` under a name that states *why*: determinism."""
    return sorted(iterable, key=key)  # type: ignore[type-var, arg-type]


def ordered_items(mapping: Mapping[K, V]) -> list[tuple[K, V]]:
    """A mapping's items in sorted-key order."""
    return sorted(mapping.items())  # type: ignore[type-var]


def ordered_merge(*mappings: Mapping[K, V]) -> dict[K, V]:
    """Merge mappings into one dict with sorted-key iteration order.

    Later mappings win on key collisions (plain ``update`` semantics),
    but the *result's* insertion order is sorted keys — so downstream
    iteration, serialization, and digests are independent of the order
    the inputs arrived in (e.g. shard completion order).
    """
    merged: dict[K, V] = {}
    for mapping in mappings:
        merged.update(mapping)
    return {key: merged[key] for key in sorted(merged)}  # type: ignore[type-var]
