"""Binary columnar format: writers, readers, dictionaries."""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import (
    DatasetReader,
    DatasetWriter,
    Manifest,
    StorageError,
    StringDictionary,
)
from repro.storage import columns
from repro.storage.columns import DictionaryBuilder, concat_gather
from repro.storage.format import FORMAT_VERSION, ColumnMeta


def write_simple(tmp_path, rows=100):
    rng = np.random.default_rng(0)
    w = DatasetWriter(tmp_path / "db")
    cols = {
        "a": np.arange(rows, dtype=np.int64),
        "b": rng.random(rows).astype(np.float32),
        "c": rng.integers(0, 5, rows).astype(np.int16),
    }
    w.add_table("t", cols, dictionaries={"c": "names"})
    w.add_dictionary("names", StringDictionary.from_strings(["v0", "v1", "v2", "v3", "v4"]))
    w.finish(meta={"origin": "test"})
    return tmp_path / "db", cols


class TestRoundTrip:
    def test_columns_roundtrip(self, tmp_path):
        root, cols = write_simple(tmp_path)
        r = DatasetReader(root)
        for name, want in cols.items():
            assert np.array_equal(np.asarray(r.column("t", name)), want)

    def test_mmap_and_memory_modes_agree(self, tmp_path):
        root, cols = write_simple(tmp_path)
        a = DatasetReader(root, mode="mmap").column("t", "a")
        b = DatasetReader(root, mode="memory").column("t", "a")
        assert np.array_equal(np.asarray(a), b)

    def test_bad_mode_rejected(self, tmp_path):
        root, _ = write_simple(tmp_path)
        with pytest.raises(ValueError):
            DatasetReader(root, mode="turbo")

    def test_dictionary_roundtrip(self, tmp_path):
        root, _ = write_simple(tmp_path)
        d = DatasetReader(root).dictionary("names")
        assert d.to_list() == ["v0", "v1", "v2", "v3", "v4"]

    def test_meta_preserved(self, tmp_path):
        root, _ = write_simple(tmp_path)
        assert DatasetReader(root).manifest.meta["origin"] == "test"


class TestValidation:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(StorageError, match="manifest"):
            DatasetReader(tmp_path)

    def test_truncated_column_detected(self, tmp_path):
        root, _ = write_simple(tmp_path)
        victim = root / "t" / "a.bin"
        victim.write_bytes(victim.read_bytes()[:-8])
        with pytest.raises(StorageError, match="bytes"):
            DatasetReader(root)

    def test_missing_column_file(self, tmp_path):
        root, _ = write_simple(tmp_path)
        (root / "t" / "b.bin").unlink()
        with pytest.raises(StorageError, match="missing column"):
            DatasetReader(root)

    def test_version_mismatch(self, tmp_path):
        """Any version but the current one is refused, the previous one
        (4, which still carried an index section) included."""
        root, _ = write_simple(tmp_path)
        m = root / "manifest.json"
        current = m.read_text()
        for version in (4, 999):
            m.write_text(
                current.replace(f'"version": {FORMAT_VERSION}', f'"version": {version}')
            )
            with pytest.raises(StorageError, match=f"version {version} is not"):
                DatasetReader(root)

    def test_corrupt_manifest_json(self, tmp_path):
        root, _ = write_simple(tmp_path)
        (root / "manifest.json").write_text("{nope")
        with pytest.raises(StorageError, match="JSON"):
            DatasetReader(root)

    def test_ragged_table_rejected(self, tmp_path):
        w = DatasetWriter(tmp_path / "db2")
        with pytest.raises(StorageError, match="ragged"):
            w.add_table("t", {"a": np.zeros(3), "b": np.zeros(4)})

    def test_2d_column_rejected(self, tmp_path):
        w = DatasetWriter(tmp_path / "db3")
        with pytest.raises(StorageError, match="1-D"):
            w.add_table("t", {"a": np.zeros((2, 2))})

    def test_writer_finish_once(self, tmp_path):
        w = DatasetWriter(tmp_path / "db4")
        w.add_table("t", {"a": np.zeros(1)})
        w.finish()
        with pytest.raises(StorageError):
            w.add_table("u", {"a": np.zeros(1)})

    def test_unsupported_dtype(self):
        with pytest.raises(StorageError, match="dtype"):
            ColumnMeta(name="x", dtype="complex128")

    def test_manifest_unknown_lookups(self, tmp_path):
        root, _ = write_simple(tmp_path)
        m = DatasetReader(root).manifest
        with pytest.raises(StorageError):
            m.table("missing")
        with pytest.raises(StorageError):
            m.dictionary("missing")


#: Text over 1- to 4-byte UTF-8 characters, NUL included.
_TEXT = st.text(
    alphabet=st.one_of(st.sampled_from("a\x00é新🦉"), st.characters(codec="utf-8")),
    max_size=6,
)


#: Strings every interner reference test starts its pool with: empty,
#: NUL, 2-, 3- and 4-byte UTF-8, and equal-length strings that differ.
_EDGE_STRINGS = ["", "\x00", "é", "新", "🦉", "ab", "ba", "a\x00"]

#: The interner's string hash, and degenerate ones that collide often or
#: always (``-1`` is what a free index slot holds, ``-2`` homes every
#: string at the last slot, so probes wrap around).
_HASHES = {
    "python": hash,
    "constant": lambda s: 0,
    "length": len,
    "low_2_bits": lambda s: hash(s) & 3,
    "free_marker": lambda s: -1,
    "last_slot": lambda s: -2,
}


def _per_string_encode(strings) -> tuple[list[int], bytes]:
    """The reference packing: one ``encode`` per string."""
    encoded = [s.encode("utf-8") for s in strings]
    return np.cumsum([0] + [len(e) for e in encoded]).tolist(), b"".join(encoded)


class TestStringDictionary:
    def test_empty_strings_ok(self):
        d = StringDictionary.from_strings(["", "a", ""])
        assert d.to_list() == ["", "a", ""]

    def test_unicode(self):
        d = StringDictionary.from_strings(["nachrichten-köln.de", "新闻.cn"])
        assert d[0] == "nachrichten-köln.de"
        assert d[1] == "新闻.cn"

    def test_out_of_range(self):
        d = StringDictionary.from_strings(["a"])
        with pytest.raises(IndexError):
            d[1]
        with pytest.raises(IndexError):
            d[-1]

    def test_lengths(self):
        d = StringDictionary.from_strings(["ab", "", "xyz"])
        assert d.lengths().tolist() == [2, 0, 3]

    def test_invalid_offsets(self):
        with pytest.raises(ValueError):
            StringDictionary(np.array([1, 2]), np.zeros(2, dtype=np.uint8))

    def test_builder_first_occurrence_codes(self):
        b = DictionaryBuilder()
        codes = b.intern_many(["x", "y", "x", "z", "y"])
        assert codes.tolist() == [0, 1, 0, 2, 1]
        assert b.build().to_list() == ["x", "y", "z"]

    def test_builder_codes_across_batches(self):
        b = DictionaryBuilder()
        assert b.intern_many(["b", "a", "b"]).tolist() == [0, 1, 0]
        assert b.intern_many([]).tolist() == []
        assert b.intern_many(["c", "a", "d", "c"]).tolist() == [2, 1, 3, 2]
        assert b.intern_many(["d", "b"]).tolist() == [3, 0]
        assert len(b) == 4
        assert b.build().to_list() == ["b", "a", "c", "d"]

    def test_builder_empty_string_and_multibyte_utf8(self):
        b = DictionaryBuilder()
        strings = ["", "nachrichten-köln.de", "", "新闻.cn", "🦉"]
        assert b.intern_many(strings).tolist() == [0, 1, 0, 2, 3]
        d = b.build()
        assert d.to_list() == ["", "nachrichten-köln.de", "新闻.cn", "🦉"]
        assert d.lengths().tolist() == [0, 20, 9, 4]

    def test_earlier_build_unchanged_by_later_interning(self):
        b = DictionaryBuilder()
        b.intern_many(["alpha", "β"])
        early = b.build()
        offsets, blob = (a.copy() for a in early.arrays)
        for i in range(200):  # enough to regrow both buffers
            b.intern_many([f"s{i}", "alpha", f"long-entry-{i}-" * 3])
        assert early.to_list() == ["alpha", "β"]
        assert np.array_equal(early.arrays[0], offsets)
        assert np.array_equal(early.arrays[1], blob)
        assert not any(a.flags.writeable for a in early.arrays)
        assert len(b.build()) == 402

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.text(max_size=30), max_size=40))
    def test_encode_decode_property(self, strings):
        b = DictionaryBuilder()
        codes = b.intern_many(strings)
        d = b.build()
        assert [d[int(c)] for c in codes] == strings

    @settings(max_examples=80, deadline=None)
    @given(st.lists(_TEXT, max_size=40))
    def test_from_strings_equals_per_string_encode(self, strings):
        offsets, blob = StringDictionary.from_strings(strings).arrays
        want_offsets, want_blob = _per_string_encode(strings)
        assert offsets.tolist() == want_offsets
        assert blob.tobytes() == want_blob

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        pool=st.lists(_TEXT, max_size=12),
        string_hash=st.sampled_from(sorted(_HASHES)),
    )
    def test_intern_many_equals_per_string_reference(self, data, pool, string_hash):
        """Batches drawn from a pool repeat strings within and across
        batches; codes are first-occurrence order throughout, and the
        interner is exact whatever its hash."""
        pool = _EDGE_STRINGS + pool
        batches = data.draw(
            st.lists(st.lists(st.sampled_from(pool), max_size=15), max_size=5)
        )
        b = DictionaryBuilder()
        seen: dict[str, int] = {}
        with mock.patch.object(columns, "_hash", _HASHES[string_hash]):
            for batch in batches:
                want = [seen.setdefault(s, len(seen)) for s in batch]
                assert b.intern_many(batch).tolist() == want
        offsets, blob = b.build().arrays
        want_offsets, want_blob = _per_string_encode(list(seen))
        assert offsets.tolist() == want_offsets
        assert blob.tobytes() == want_blob

    @pytest.mark.parametrize("string_hash", _HASHES.values(), ids=list(_HASHES))
    def test_index_growth_keeps_every_code(self, string_hash):
        """Hundreds of strings over many batches: the index doubles and
        rebuilds, probes run long and wrap around its end, and every
        string keeps its first-occurrence code."""
        rng = np.random.default_rng(0)
        strings = [f"{i}" * (1 + i % 3) + "é" * (i % 2) for i in range(400)]
        b = DictionaryBuilder()
        seen: dict[str, int] = {}
        with mock.patch.object(columns, "_hash", string_hash):
            for top in range(40, 440, 40):
                batch = [strings[i] for i in rng.integers(0, top, 60)]
                want = [seen.setdefault(s, len(seen)) for s in batch]
                assert b.intern_many(batch).tolist() == want
            assert b.intern_many(list(seen)).tolist() == list(range(len(seen)))
        assert b.build().to_list() == list(seen)

    def test_retains_only_the_bytes_and_a_small_index(self):
        """50 000 distinct URLs interned: besides the blob and offsets,
        the builder keeps at most 32 B per entry (its index), and none of
        the batch's Python strings."""
        n = 50_000

        def intern() -> DictionaryBuilder:
            b = DictionaryBuilder()
            urls = [f"https://www.example{i % 97:02d}.com/news/{i:08d}.html" for i in range(n)]
            b.intern_many(urls)
            return b

        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            b = intern()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        offsets, blob = b.build().arrays
        assert len(b) == n and len(blob) == 44 * n
        assert retained <= blob.nbytes + offsets.nbytes + 32 * n

    def test_packer_edge_strings(self):
        strings = ["", "\x00", "é", "新", "🦉", "a\x00新🦉é", "", "🦉"]
        offsets, blob = StringDictionary.from_strings(strings).arrays
        assert (offsets.tolist(), blob.tobytes()) == _per_string_encode(strings)
        b = DictionaryBuilder()
        assert b.intern_many(strings[:4]).tolist() == [0, 1, 2, 3]
        assert b.intern_many(strings[3:]).tolist() == [3, 4, 5, 0, 4]
        assert b.build().to_list() == strings[:6]

    def test_manifest_size_check(self, tmp_path):
        root, _ = write_simple(tmp_path)
        # Corrupt the offsets file length.
        p = root / "dict" / "names.offsets.bin"
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(StorageError, match="entries"):
            DatasetReader(root).dictionary("names")


class TestConcatGather:
    """The byte-level kernel behind the URL dictionaries equals per-row
    string concatenation."""

    @settings(max_examples=80, deadline=None)
    @given(
        data=st.data(),
        parts=st.lists(st.lists(st.text(max_size=12), min_size=1, max_size=8),
                       min_size=1, max_size=4),
        n=st.integers(0, 60),
        block_rows=st.integers(1, 70),
    )
    def test_equals_per_row_concatenation(self, data, parts, n, block_rows):
        dicts = [StringDictionary.from_strings(p) for p in parts]
        codes = [np.array(data.draw(st.lists(st.integers(0, len(p) - 1),
                                             min_size=n, max_size=n)), dtype=np.int64)
                 for p in parts]
        with mock.patch.object(columns, "_GATHER_BLOCK_ROWS", block_rows):
            got = concat_gather(list(zip(dicts, codes)))
        want = ["".join(p[c[i]] for p, c in zip(parts, codes)) for i in range(n)]
        assert got.to_list() == want
        assert np.array_equal(got.arrays[0], StringDictionary.from_strings(want).arrays[0])

    def test_multibyte_nul_and_empty_pieces(self):
        heads = StringDictionary.from_strings(["https://新闻.cn/", "", "a\x00b"])
        tails = StringDictionary.from_strings(["", "🦉", "x"])
        got = concat_gather(
            [(heads, np.array([0, 1, 2, 2])), (tails, np.array([1, 0, 0, 2]))]
        )
        assert got.to_list() == ["https://新闻.cn/🦉", "", "a\x00b", "a\x00bx"]

    def test_zero_rows(self):
        d = StringDictionary.from_strings(["a", "b"])
        got = concat_gather([(d, np.empty(0, dtype=np.int64))])
        assert len(got) == 0 and got.to_list() == []

    @pytest.mark.parametrize("bad", [-1, 2])
    def test_code_out_of_range(self, bad):
        d = StringDictionary.from_strings(["a", "b"])
        with pytest.raises(IndexError):
            concat_gather([(d, np.array([0, bad]))])

    def test_take(self):
        d = StringDictionary.from_strings(["a", "", "köln", "🦉"])
        assert d.take(np.array([3, 0, 2, 2, 1])) == ["🦉", "a", "köln", "köln", ""]
        assert d.take(np.empty(0, dtype=np.int64)) == []
        with pytest.raises(IndexError):
            d.take([-1])
