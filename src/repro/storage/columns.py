"""String dictionary encoding.

High-cardinality string columns (source domains, article URLs) are the
expensive part of GDELT rows.  The binary format stores them as integer
code columns plus one shared dictionary per namespace: an ``int64``
offsets array (size + 1 entries) into a single UTF-8 blob.  Lookups are
O(1) slices of the memory-mapped blob, and the whole dictionary never
needs to be materialized as Python strings unless asked for.  Strings
become those two arrays in one place, :func:`_encode` (one join and one
``encode`` per batch, not per string).  :class:`DictionaryBuilder`
appends to the same two arrays while ingest runs, so a built dictionary
is a view, never a re-encoding, and
:func:`concat_gather` builds a dictionary of composite strings (an
article URL is a site prefix + an event stem + a repeat suffix) by
gathering bytes from a few small ones instead of formatting each row.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "StringDictionary",
    "DictionaryBuilder",
    "concat_gather",
    "ensure_capacity",
    "readonly_prefix",
]


class StringDictionary:
    """An immutable id → string mapping backed by offsets + blob arrays."""

    def __init__(self, offsets: np.ndarray, blob: np.ndarray) -> None:
        """``offsets``: int64, len = size + 1, ascending, offsets[0] == 0.
        ``blob``: uint8 UTF-8 bytes, len == offsets[-1]."""
        offsets = np.asarray(offsets, dtype=np.int64)
        blob = np.asarray(blob, dtype=np.uint8)
        if len(offsets) == 0 or offsets[0] != 0:
            raise ValueError("offsets must start at 0")
        if len(blob) != int(offsets[-1]):
            raise ValueError("blob length does not match final offset")
        if np.any(np.diff(offsets) < 0):
            raise ValueError("offsets must be non-decreasing")
        self._offsets = offsets
        self._blob = blob

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def __getitem__(self, code: int) -> str:
        if not 0 <= code < len(self):
            raise IndexError(f"dictionary code {code} out of range")
        lo, hi = int(self._offsets[code]), int(self._offsets[code + 1])
        return self._blob[lo:hi].tobytes().decode("utf-8")

    def __iter__(self) -> Iterator[str]:
        for i in range(len(self)):
            yield self[i]

    def to_list(self) -> list[str]:
        """Materialize all entries (use sparingly on URL dictionaries)."""
        return self.take(np.arange(len(self)))

    def take(self, codes: np.ndarray) -> list[str]:
        """Entries ``codes`` as Python strings, one decode each."""
        codes = _checked(codes, len(self))
        view = memoryview(self._blob)
        return [
            str(view[lo:hi], "utf-8")
            for lo, hi in zip(
                self._offsets[codes].tolist(), self._offsets[codes + 1].tolist()
            )
        ]

    def lengths(self) -> np.ndarray:
        """Byte length of each entry, vectorized."""
        return np.diff(self._offsets)

    @property
    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self._offsets, self._blob

    @classmethod
    def from_strings(cls, strings: Iterable[str]) -> "StringDictionary":
        return cls(*_encode(list(strings)))


def _encode(strings: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """``(offsets, blob)`` of ``strings`` laid end to end as UTF-8.

    One join and one ``encode`` for the whole batch: the offsets are the
    running character lengths, mapped to bytes through the blob's
    character-start index only when the text is not ASCII (a character
    starts at every byte that is not a ``10xxxxxx`` continuation).
    """
    text = "".join(strings)
    data = text.encode("utf-8")
    blob = np.frombuffer(data, dtype=np.uint8)
    offsets = np.zeros(len(strings) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, strings), np.int64, len(strings)), out=offsets[1:])
    if len(data) != len(text):
        starts = np.flatnonzero((blob & 0xC0) != 0x80)
        offsets = np.append(starts, len(data))[offsets]
    return offsets, blob


# Rows per gather step in :func:`concat_gather`: the step's byte index
# array stays cache-sized instead of spanning the whole output.
_GATHER_BLOCK_ROWS = 1 << 14


def _checked(codes, size: int) -> np.ndarray:
    """``codes`` as int64, every one a valid code of a ``size``-entry
    dictionary (negative codes do not wrap around)."""
    codes = np.asarray(codes, dtype=np.int64)
    if len(codes) and not (0 <= codes.min() and codes.max() < size):
        raise IndexError(f"dictionary code out of range [0, {size})")
    return codes


def concat_gather(
    parts: Sequence[tuple[StringDictionary, np.ndarray]],
) -> StringDictionary:
    """The dictionary whose entry i is ``d[codes[i]]`` concatenated over
    the ``(d, codes)`` pairs of ``parts`` (one or more, all ``codes``
    equally long).

    Byte-level and row-free: with the parts' blobs laid end to end, the
    output is one gather from them, whose index array is each piece's
    source start repeated over its length plus a running byte counter.
    Rows go ``_GATHER_BLOCK_ROWS`` at a time, so the index array stays
    cache-sized and scratch memory is bounded by the block, not the
    output.
    """
    parts = [(d, _checked(codes, len(d))) for d, codes in parts]
    blob = np.concatenate([d.arrays[1] for d, _ in parts])
    bases = np.cumsum([0] + [len(d.arrays[1]) for d, _ in parts[:-1]])
    starts = [base + d.arrays[0][:-1] for base, (d, _) in zip(bases, parts)]
    # (rows, parts) piece lengths; row-major order is output byte order.
    lengths = np.stack([d.lengths()[codes] for d, codes in parts], axis=1)
    n = len(lengths)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths.sum(axis=1), out=offsets[1:])
    out = np.empty(int(offsets[-1]), dtype=np.uint8)
    for lo in range(0, n, _GATHER_BLOCK_ROWS):
        hi = min(n, lo + _GATHER_BLOCK_ROWS)
        first = np.stack([s[codes[lo:hi]] for s, (_, codes) in zip(starts, parts)], axis=1)
        piece = lengths[lo:hi].ravel()
        src = np.repeat(first.ravel() - (np.cumsum(piece) - piece), piece)
        src += np.arange(len(src))
        out[offsets[lo]:offsets[hi]] = blob[src]
    return StringDictionary(offsets, out)


def ensure_capacity(buf: np.ndarray, used: int, need: int) -> np.ndarray:
    """``buf`` if it holds ``need`` elements, else a fresh buffer of at
    least twice the size holding a copy of ``buf[:used]``.

    Append-only buffers grow through here: the old buffer is never
    written again, so views handed out over its prefix stay valid.
    """
    if need <= len(buf):
        return buf
    fresh = np.empty(max(need, 2 * len(buf), 64), dtype=buf.dtype)
    fresh[:used] = buf[:used]
    return fresh


def readonly_prefix(buf: np.ndarray, n: int) -> np.ndarray:
    """A read-only view of ``buf[:n]`` (the buffer itself stays writable)."""
    view = buf[:n]
    view.flags.writeable = False
    return view


class DictionaryBuilder:
    """Append-only string interner assigning codes by first occurrence.

    Codes live in a ``str → code`` dict; a batch's new strings are
    packed by :func:`_encode` and appended to a growing ``uint8`` blob
    with ``int64`` offsets, the layout :class:`StringDictionary` reads.
    :meth:`build` is therefore a read-only view of the prefix interned
    so far, not a copy, and a dictionary built earlier never changes as
    interning goes on.
    """

    def __init__(self) -> None:
        self._codes: dict[str, int] = {}
        self._offsets = np.zeros(1, dtype=np.int64)
        self._blob = np.empty(0, dtype=np.uint8)

    def __len__(self) -> int:
        return len(self._codes)

    def intern_many(self, strings: Sequence[str]) -> np.ndarray:
        """Codes (int64) of a whole column, interning unseen strings in
        order of first occurrence."""
        codes = self._codes
        n = len(codes)
        new = [s for s in dict.fromkeys(strings) if s not in codes]
        if new:
            codes.update(zip(new, range(n, n + len(new))))
            offsets, blob = _encode(new)
            start = int(self._offsets[n])
            end = start + len(blob)
            self._offsets = ensure_capacity(self._offsets, n + 1, len(codes) + 1)
            self._offsets[n + 1:len(codes) + 1] = start + offsets[1:]
            self._blob = ensure_capacity(self._blob, start, end)
            self._blob[start:end] = blob
        return np.fromiter(map(codes.__getitem__, strings), np.int64, len(strings))

    def build(self) -> StringDictionary:
        offsets = readonly_prefix(self._offsets, len(self._codes) + 1)
        return StringDictionary(offsets, readonly_prefix(self._blob, int(offsets[-1])))

