"""Keeping the cyclic garbage collector off long-lived inputs.

An analysis run allocates hundreds of thousands of small result objects
(changes, spans, gap events), so the collector runs full collections
while it works -- and each one re-walks every object that already
existed: the loaded datasets' interval sets and archives.
:func:`frozen_heap` moves those objects to the permanent generation for
the duration of a block (``gc.freeze``) and back afterwards
(``gc.unfreeze``).  Frozen objects are still freed by reference counting;
only cyclic garbage that predates the block waits until it ends.
Nothing computed depends on this: it only changes when the collector
spends its time.
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
