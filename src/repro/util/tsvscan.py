"""Vectorized scanning of tab-separated record files.

The connection-log and SOS-uptime readers parse files of many short,
fixed-shape lines (``probe<TAB>number<TAB>...``).  A :class:`TsvScan`
splits a whole text into lines and fields with a handful of numpy passes
over its bytes, then converts whole fields at once: decimal integers
(:meth:`TsvScan.decimal`) and dotted-quad IPv4 addresses
(:meth:`TsvScan.dotted_quad`).

The scan only vouches for *plain* lines: exactly the expected number of
tab-separated fields, built from ASCII digits, ``.``, ``:``, hex letters
and tabs.  Each conversion also returns an ``ok`` mask, and is strict
where the per-line parsers are lenient (no signs, spaces, underscores,
exponents or leading zeros in octets), so an accepted field always
converts to what ``int()``/``float()``/``IPv4Address.parse`` would give.
Every other line -- blank, comment, malformed, or merely unusual -- is
left to the caller's per-line parser, which keeps the exact ingest
semantics.

Line numbering matches iterating the stream: the text is split on
``"\\n"`` only, and line index ``i`` is line number ``i + 1``.
"""

from __future__ import annotations

import numpy as np

#: The bytes a plain line may contain (newlines separate lines).
_PLAIN = b"0123456789.:abcdefABCDEF\t\n"
#: ``bytes.translate`` tables mapping a byte to 1 or 0: bytes no plain
#: line holds, and plain bytes that may not appear inside a decimal field.
_ODD = bytes(int(byte not in _PLAIN) for byte in range(256))
_NON_DIGIT = bytes(int(chr(byte) in ".:abcdefABCDEF") for byte in range(256))
#: Longest decimal field :meth:`TsvScan.decimal` converts.
MAX_DIGITS = 18
#: ``48 * 11...1`` (k ones): the ASCII ``'0'`` offsets Horner's rule
#: accumulates over k digit bytes, subtracted once at the end.
_ZERO_OFFSETS = np.array([48 * (10 ** k - 1) // 9
                          for k in range(MAX_DIGITS + 1)], dtype=np.int64)


def _positions(mask, size: int):
    """Indexes where ``mask`` is set, then ``size`` sentinels: lookups up
    to two places past a ``searchsorted`` result stay in range."""
    return np.concatenate((np.flatnonzero(mask), [size] * 3))


class TsvScan:
    """A text split into lines; the plain lines also into fields.

    ``rows`` holds the line indexes of the plain lines (ascending); every
    per-field array the methods return is parallel to it.
    """

    def __init__(self, text: str, field_count: int) -> None:
        self._raw = text.encode("utf-8", "surrogatepass")
        size = len(self._raw)
        # Zero padding: reads a field's width past any start stay in range.
        data = np.frombuffer(self._raw + bytes(MAX_DIGITS), dtype=np.uint8)
        self._data = data
        # Tabs and newlines in file order; line i's tabs are the
        # separators between its predecessor's newline and its own.
        seps = np.flatnonzero((data == 9) | (data == 10))
        newline_at = np.flatnonzero(data[seps] == 10)
        newlines = seps[newline_at]
        self._line_starts = np.concatenate(([0], newlines + 1))
        self._line_ends = np.concatenate((newlines, [size]))
        self.line_count = len(self._line_starts)
        first_tab = np.concatenate(([0], newline_at + 1))
        tab_counts = np.concatenate((newline_at, [len(seps)])) - first_tab
        plain = tab_counts == field_count - 1
        if self._raw.translate(None, _PLAIN):
            odd = np.frombuffer(self._raw.translate(_ODD), dtype=np.uint8)
            plain[np.searchsorted(newlines,
                                  np.flatnonzero(odd.view(bool)))] = False
        self.rows = np.flatnonzero(plain)

        # Field k of row r spans [starts[k][r], ends[k][r]).
        first_tab = first_tab[self.rows]
        self._starts = [self._line_starts[self.rows]]
        self._ends = []
        for k in range(field_count - 1):
            tab = seps[first_tab + k]
            self._ends.append(tab)
            self._starts.append(tab + 1)
        self._ends.append(self._line_ends[self.rows])
        non_digit = np.frombuffer(self._raw.translate(_NON_DIGIT),
                                  dtype=np.uint8)
        self._non_digits = _positions(non_digit.view(bool), size)

    def line(self, index: int) -> str:
        """Line ``index`` (0-based) as text, without its newline."""
        return self._raw[self._line_starts[index]:
                         self._line_ends[index]].decode("utf-8",
                                                        "surrogatepass")

    def other_lines(self, accepted) -> np.ndarray:
        """Line indexes (ascending) not in the ``accepted`` index array."""
        mask = np.ones(self.line_count, dtype=bool)
        mask[accepted] = False
        return np.flatnonzero(mask)

    def contains(self, field: int, char: str) -> np.ndarray:
        """Whether each row's field holds the (ASCII) ``char``."""
        hits = _positions(self._data == ord(char), len(self._raw))
        starts = self._starts[field]
        return hits[np.searchsorted(hits, starts)] < self._ends[field]

    def text(self, field: int, where) -> list[str]:
        """The field's text for the rows selected by the mask ``where``."""
        return [self._raw[start:end].decode("ascii") for start, end
                in zip(self._starts[field][where].tolist(),
                       self._ends[field][where].tolist())]

    def decimal(self, field: int, max_digits: int):
        """``(values, ok)``: the field as an unsigned decimal integer.

        ``ok`` requires 1..``max_digits`` ASCII digits and nothing else
        (at most :data:`MAX_DIGITS`, so every value fits an int64 and, up
        to 15 digits, converts to float64 exactly).
        """
        return self._decimal(self._starts[field], self._ends[field],
                             max_digits)

    def dotted_quad(self, field: int):
        """``(values, ok)``: the field as a dotted-quad IPv4 address.

        ``ok`` requires four 1-3 digit octets of at most 255 without
        leading zeros -- the form ``IPv4Address.parse`` accepts.  Values
        are host-order ``uint32``.
        """
        starts, ends = self._starts[field], self._ends[field]
        dots = _positions(self._data == ord("."), len(self._raw))
        first = np.searchsorted(dots, starts)
        cuts = [dots[first + k] for k in range(3)]
        # At least three dots; a fourth fails the last octet's digits.
        ok = cuts[2] < ends
        values = np.zeros(len(starts), dtype=np.int64)
        for lo, hi in ((starts, cuts[0]), (cuts[0] + 1, cuts[1]),
                       (cuts[1] + 1, cuts[2]), (cuts[2] + 1, ends)):
            # Rows already rejected get an empty octet at a valid index.
            lo, hi = np.where(ok, lo, starts), np.where(ok, hi, starts)
            octet, fine = self._decimal(lo, hi, 3)
            leading_zero = (hi - lo > 1) & (self._data[lo] == ord("0"))
            ok &= fine & ~leading_zero & (octet <= 255)
            values = (values << 8) | octet
        return np.where(ok, values, 0).astype(np.uint32), ok

    def _decimal(self, starts, ends, max_digits: int):
        lengths = ends - starts
        next_non_digit = self._non_digits[np.searchsorted(self._non_digits,
                                                          starts)]
        ok = ((lengths >= 1) & (lengths <= max_digits)
              & (next_non_digit >= ends))
        values = np.zeros(len(starts), dtype=np.int64)
        if not ok.any():
            return values, ok
        # Horner's rule over the raw bytes, one digit position per pass;
        # rejected rows get an empty range and accumulate nothing.
        ends = np.where(ok, ends, starts)
        position = starts.copy()
        for _ in range(int(lengths[ok].max())):
            inside = position < ends
            np.multiply(values, 10, out=values, where=inside)
            np.add(values, self._data[position], out=values, where=inside)
            position += 1
        values -= _ZERO_OFFSETS[np.where(ok, lengths, 0)]
        return values, ok
