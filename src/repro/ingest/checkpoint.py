"""Conversion checkpoint journal: crash-resume for the preprocessing tool.

A multi-hour conversion must not restart from zero because the process
died at hour three.  The converter therefore journals every chunk it
has fully parsed: the chunk's decoded text is spilled (zlib-compressed)
to a sidecar file, then a record is appended to ``journal.jsonl`` and
flushed — the append is the commit point.  On re-run, committed chunks
are *replayed* from their spills through the exact same parse path
instead of being re-fetched, so a resumed conversion is byte-identical
to an uninterrupted one (accumulator and dictionary state depend only
on row order, which replay preserves).

Layout, inside the output dataset directory (removed on success)::

    out_dir/.convert-journal/
      journal.jsonl            # one JSON record per committed chunk
      <chunk-name>.zlib        # compressed decoded text

Torn records (a crash mid-append) and spills with a bad CRC are
silently discarded — the chunk is simply reprocessed.
"""

from __future__ import annotations

import json
import logging
import os
import shutil
import zlib
from pathlib import Path

__all__ = ["CheckpointJournal", "JOURNAL_DIRNAME"]

JOURNAL_DIRNAME = ".convert-journal"

logger = logging.getLogger(__name__)


class CheckpointJournal:
    """Append-only per-chunk commit log for ``convert_raw_to_binary``."""

    def __init__(self, out_dir: Path) -> None:
        self.dir = Path(out_dir) / JOURNAL_DIRNAME
        self.journal_path = self.dir / "journal.jsonl"
        self._committed: dict[str, dict] = {}
        self._load()
        self.dir.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.journal_path, "a", encoding="utf-8")

    def _load(self) -> None:
        if not self.journal_path.exists():
            return
        for line in self.journal_path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail record from a crash mid-append
            if not isinstance(rec, dict) or "chunk" not in rec:
                continue
            spill = self.dir / rec.get("spill", "")
            if not spill.is_file():
                continue
            self._committed[rec["chunk"]] = rec
        if self._committed:
            logger.info(
                "checkpoint journal: %d committed chunks found in %s",
                len(self._committed), self.dir,
            )

    def __len__(self) -> int:
        return len(self._committed)

    def get_text(self, chunk_name: str) -> str | None:
        """Decoded text of a committed chunk, or ``None`` if absent/bad."""
        rec = self._committed.get(chunk_name)
        if rec is None:
            return None
        payload = (self.dir / rec["spill"]).read_bytes()
        if zlib.crc32(payload) != rec.get("crc32"):
            logger.warning(
                "checkpoint journal: spill for %s failed CRC; reprocessing",
                chunk_name,
            )
            del self._committed[chunk_name]
            return None
        return zlib.decompress(payload).decode("utf-8")

    def commit(self, chunk_name: str, text: str) -> None:
        """Durably record one fully-parsed chunk."""
        payload = zlib.compress(text.encode("utf-8"), 1)
        spill_name = chunk_name + ".zlib"
        spill = self.dir / spill_name
        tmp = spill.with_suffix(spill.suffix + ".tmp")
        tmp.write_bytes(payload)
        os.replace(tmp, spill)
        rec = {
            "chunk": chunk_name,
            "spill": spill_name,
            "crc32": zlib.crc32(payload),
            "bytes": len(text),
        }
        self._fh.write(json.dumps(rec, sort_keys=True) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._committed[chunk_name] = rec

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def discard(self) -> None:
        """Remove the journal (called after a successful conversion)."""
        self.close()
        shutil.rmtree(self.dir, ignore_errors=True)
