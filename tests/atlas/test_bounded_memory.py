"""Readers scan fixed blocks of lines, so their temporaries stay bounded.

``ConnectionLog.read`` scans :data:`repro.util.tsvscan.BLOCK_CHARS` of
text at a time.  What it allocates beyond what it returns (the
tracemalloc *transient*: peak minus retained) is then about one block's
scan plus a few bytes per parsed row, not a multiple of the whole text.
A whole-text scan makes the transient grow with the file: eight times
the lines, eight times the transient.
"""

from __future__ import annotations

import io
import tracemalloc

from repro.atlas.connlog import ConnectionLog
from repro.util import tsvscan

LINES = 4000


def connlog_text(lines: int) -> str:
    """Plain lines, 50 per probe, in the format ``write`` produces."""
    return "".join(
        "%d\t%d\t%d\t10.%d.%d.1\n" % (
            1 + row // 50, 1420070400 + 600 * row,
            1420070400 + 600 * row + 300, (row // 7) % 250, row % 250)
        for row in range(lines))


def transient_bytes(text: str) -> int:
    """Peak minus retained traced memory of one read of ``text``."""
    stream = io.StringIO(text)
    tracemalloc.start()
    try:
        log = ConnectionLog.read(stream)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert log.entry_count() == text.count("\n")
    return peak - retained


def test_read_transient_does_not_grow_with_the_file():
    small = connlog_text(LINES)
    # The small file already spans more than one block.
    assert len(small) > 2 * tsvscan.BLOCK_CHARS
    assert (transient_bytes(connlog_text(8 * LINES))
            <= 2 * transient_bytes(small))
