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
is a view, never a re-encoding; it finds a string again through a NumPy
hash index over its codes (12 B a slot), so the strings are held once,
as bytes, and never as Python objects.  :func:`concat_gather` builds a
dictionary of composite strings (an article URL is a site prefix + an
event stem + a repeat suffix) by gathering bytes from a few small ones
instead of formatting each row; :func:`gather_runs` is its byte gather,
which the raw-archive parser also slices cells out of a member with.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "StringDictionary",
    "DictionaryBuilder",
    "concat_gather",
    "ensure_capacity",
    "gather_runs",
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
        out[offsets[lo]:offsets[hi]] = gather_runs(blob, first.ravel(), lengths[lo:hi].ravel())
    return StringDictionary(offsets, out)


def gather_runs(blob: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The runs ``blob[starts[i]:starts[i] + lengths[i]]`` laid end to
    end, as one gather: its index array is each run's start repeated
    over its length plus a running byte counter."""
    ends = np.cumsum(lengths)
    src = np.repeat(starts - (ends - lengths), lengths)
    src += np.arange(len(src))
    return blob[src]


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


#: The interner's string hash: Python's own, which a ``str`` caches once
#: hashed (a batch's de-dup hashes every string it keeps).  It is salted
#: per process, which is fine: the index is never persisted, and codes
#: are first-occurrence whatever the hash, so files do not depend on it.
_hash = hash

#: What a free index slot holds, as its hash and as its code.  Python's
#: hash is never -1, but a string whose hash is may stop at a free slot
#: only to find it free: the code tells a free slot from an entry.
_FREE = -1

#: Slots of an empty builder's index (a power of two).
_MIN_SLOTS = 8

#: A lookup round probes a window of slots per string: the first round
#: about ``_WINDOW_SLOTS`` slots in all (a small batch settles in one
#: round, a large one probes home slots first), each later round four
#: times as many per string, never more than ``_MAX_WINDOW``.
_WINDOW_SLOTS, _MAX_WINDOW = 1 << 12, 64
_STEPS = np.arange(_MAX_WINDOW)


class DictionaryBuilder:
    """Append-only string interner assigning codes by first occurrence.

    The strings live once, as UTF-8 in a growing ``uint8`` blob with
    ``int64`` offsets, the layout :class:`StringDictionary` reads, so
    :meth:`build` is a read-only view of the prefix interned so far, not
    a copy, and a dictionary built earlier never changes as interning
    goes on.  They are found again through an open-addressing hash
    index over the codes: per slot an ``int64`` string hash and an
    ``int32`` code, a power-of-two number of slots at most half full, so
    24–48 B per entry besides the blob and offsets, and no Python object
    per entry.  A batch probes it linearly in vectorised rounds; a slot
    whose hash matches counts only once its stored bytes equal the
    string's, so the interner is exact under any hash function,
    collisions included.  The index grows by rebuilding itself from the
    hashes it stores.
    """

    def __init__(self) -> None:
        self._n = 0
        self._offsets = np.zeros(1, dtype=np.int64)
        self._blob = np.empty(0, dtype=np.uint8)
        self._slot_hashes = np.full(_MIN_SLOTS, _FREE, dtype=np.int64)
        self._slot_codes = np.full(_MIN_SLOTS, _FREE, dtype=np.int32)

    def __len__(self) -> int:
        return self._n

    def intern_many(self, strings: Sequence[str]) -> np.ndarray:
        """Codes (int64) of a whole column, interning unseen strings in
        order of first occurrence.

        One ``dict.fromkeys`` pass de-duplicates the batch; its distinct
        strings are hashed, packed by :func:`_encode` and looked up
        together, and the unseen ones are appended and indexed.
        """
        batch = dict.fromkeys(strings)
        uniq = list(batch)
        hashes = np.fromiter(map(_hash, uniq), np.int64, len(uniq))
        offsets, blob = _encode(uniq)
        codes, slots = self._find(hashes, offsets, blob)
        new = np.flatnonzero(codes < 0)
        if len(new):
            codes[new] = np.arange(self._n, self._n + len(new))
            self._append(new, offsets, blob)
            self._index(hashes[new], codes[new], slots[new])
        if len(uniq) == len(strings):
            return codes
        batch.update(zip(uniq, codes.tolist()))
        return np.fromiter(map(batch.__getitem__, strings), np.int64, len(strings))

    def build(self) -> StringDictionary:
        offsets = readonly_prefix(self._offsets, self._n + 1)
        return StringDictionary(offsets, readonly_prefix(self._blob, int(offsets[-1])))

    def _find(self, hashes, offsets, blob) -> tuple[np.ndarray, np.ndarray]:
        """Each batch string's code (-1 if unseen) and, for an unseen one,
        the first free slot of its probe sequence.

        A round stops each string at the first slot of its window that
        holds its hash or is free.  Free means unseen; an entry with the
        string's bytes is its code; any other entry is passed, and the
        string probes on from the slot after the stop (or the window).
        """
        mask = len(self._slot_codes) - 1
        codes = np.full(len(hashes), -1, dtype=np.int64)
        slots = np.empty(len(hashes), dtype=np.int64)
        rows, at = np.arange(len(hashes)), hashes & mask
        width = min(_MAX_WINDOW, max(1, _WINDOW_SLOTS // max(1, len(rows))))
        while len(rows):
            window = (at[:, None] + _STEPS[:width]) & mask
            held = self._slot_hashes[window]
            stop = (held == hashes[rows, None]) | (held == _FREE)
            pick = np.arange(len(rows)), stop.argmax(axis=1)
            stopped, at_stop = stop[pick], window[pick]
            slots[rows] = at_stop  # read only where the probe ends free
            found = np.where(stopped, self._slot_codes[at_stop], _FREE - 1)  # -2: no stop
            done = found == _FREE
            match = np.flatnonzero(found >= 0)
            if len(match):
                match = match[self._same(offsets, blob, rows[match], found[match])]
                codes[rows[match]] = found[match]
                done[match] = True
            rest = np.flatnonzero(~done)
            if not len(rest):
                break
            at = np.where(stopped[rest], at_stop[rest] + 1, at[rest] + width) & mask
            rows = rows[rest]
            width = min(4 * width, _MAX_WINDOW)
        return codes, slots

    def _same(self, offsets, blob, rows, codes) -> np.ndarray:
        """Whether batch string ``rows[i]`` (of ``offsets``/``blob``) has
        the bytes of entry ``codes[i]``, compared byte by byte at once."""
        lo, at = offsets[rows], self._offsets[codes]
        lengths = offsets[rows + 1] - lo
        same = lengths == self._offsets[codes + 1] - at
        lengths *= same  # a pair of unequal lengths compares no bytes
        # The pairs' bytes laid end to end: where each sits in the batch.
        start = np.cumsum(lengths) - lengths
        pos = np.arange(start[-1] + lengths[-1]) - np.repeat(start - lo, lengths)
        differ = blob[pos] != self._blob[pos + np.repeat(at - lo, lengths)]
        if differ.any():
            same[np.searchsorted(start, np.flatnonzero(differ), "right") - 1] = False
        return same

    def _append(self, new: np.ndarray, offsets, blob) -> None:
        """Append the bytes of batch strings ``new`` (ascending) as the next entries."""
        ends = offsets[1:]
        if len(new) < len(ends):  # some were found: keep the new ones' bytes
            lengths = np.diff(offsets)
            keep = np.zeros(len(lengths), dtype=bool)
            keep[new] = True
            blob, ends = blob[np.repeat(keep, lengths)], np.cumsum(lengths[new])
        n, m = self._n, len(new)
        start = int(self._offsets[n])
        self._offsets = ensure_capacity(self._offsets, n + 1, n + m + 1)
        np.add(ends, start, out=self._offsets[n + 1:n + m + 1])
        self._blob = ensure_capacity(self._blob, start, start + len(blob))
        self._blob[start:start + len(blob)] = blob
        self._n = n + m

    def _index(self, hashes, codes, slots) -> None:
        """Index the new entries ``codes`` (``_find`` stopped each at the
        free slot in ``slots``); if the index would be more than half
        full, rebuild it instead, at the power of two that is not."""
        if 2 * self._n <= len(self._slot_codes):
            self._place(hashes, codes, slots)
            return
        held = np.flatnonzero(self._slot_codes != _FREE)
        hashes = np.concatenate([self._slot_hashes[held], hashes])
        codes = np.concatenate([self._slot_codes[held], codes])
        size = 1 << (2 * self._n - 1).bit_length()
        # Entries put in order of home slot each take the first free slot
        # from home on: the later of their home and the slot after the
        # previous entry's, a running maximum.
        order = np.argsort(hashes & (size - 1))
        hashes, codes = hashes[order], codes[order]
        step = np.arange(len(order))
        at = np.maximum.accumulate((hashes & (size - 1)) - step) + step
        fit = int(np.searchsorted(at, size))
        self._slot_hashes = np.full(size, _FREE, dtype=np.int64)
        self._slot_codes = np.full(size, _FREE, dtype=np.int32)
        self._slot_hashes[at[:fit]] = hashes[:fit]
        self._slot_codes[at[:fit]] = codes[:fit]
        # Entries past the last slot wrap around to the first ones.
        self._place(hashes[fit:], codes[fit:], at[fit:] - size)

    def _place(self, hashes, codes, at) -> None:
        """Store entries absent from the index, each in the first free
        slot at or after ``at`` in its probe sequence: every round, each
        entry moves on to a free slot and writes its code there, and one
        writer wins a contested slot."""
        mask = len(self._slot_codes) - 1
        while len(codes):
            busy = self._slot_codes[at] != _FREE
            while busy.any():
                at[busy] = (at[busy] + 1) & mask
                busy = self._slot_codes[at] != _FREE
            self._slot_codes[at] = codes
            won = self._slot_codes[at] == codes
            if won.all():
                self._slot_hashes[at] = hashes
                return
            self._slot_hashes[at[won]] = hashes[won]
            lost = ~won
            hashes, codes, at = hashes[lost], codes[lost], at[lost]
