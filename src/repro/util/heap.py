"""Keeping the cyclic garbage collector off long-lived objects.

An analysis run allocates hundreds of thousands of small result objects
(changes, spans, gap events), so the collector runs full collections
while it works -- and each one re-walks every object that already
existed: the loaded datasets' interval sets and archives.
:func:`frozen_heap` moves those objects to the permanent generation for
the duration of a block (``gc.freeze``) and back afterwards
(``gc.unfreeze``).  Frozen objects are still freed by reference counting;
only cyclic garbage that predates the block waits until it ends.

The simulator builds its long-lived heap (plants, pools, leases, staged
rows) and makes no cyclic garbage while it does, so
:func:`collector_paused` simply switches the collector off for the
build: every collection it would have run is a walk that frees nothing.

Nothing computed depends on either helper: they only change when the
collector spends its time.
"""

from __future__ import annotations

import contextlib
import gc
from typing import Iterator


@contextlib.contextmanager
def frozen_heap() -> Iterator[None]:
    """Exclude every object alive on entry from collections in the block."""
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


@contextlib.contextmanager
def collector_paused() -> Iterator[None]:
    """Disable the collector in the block; restore its previous state."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
