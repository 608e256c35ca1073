"""Offline dataset integrity verification (``repro-gdelt verify``).

Walks the manifest and checks every file the dataset claims to contain:
existence, byte size against row counts / stored sizes, and CRC32
against the checksums recorded at write time (format version 3+).
Checksums are computed over fixed-size blocks so verification streams
even multi-gigabyte columns without loading them whole.

Verification is read-only and independent of the query engine — it is
the tool you point at a dataset *before* trusting a long analysis run
to it, and the tool that pinpoints which file a corruption landed in
after a checksum mismatch surfaces at query time.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro.storage.format import (
    Manifest,
    StorageError,
    column_path,
    dict_blob_path,
    dict_offsets_path,
    manifest_path,
)

__all__ = [
    "VerifyIssue",
    "VerifyReport",
    "verify_dataset",
    "file_blocks",
    "file_crc32",
]

#: Streaming read granularity for checksumming.
_BLOCK = 1 << 20


def file_blocks(path: Path) -> Iterator[memoryview]:
    """A file's bytes in fixed-size blocks (the last one may be short).

    Every block is a view of one reused buffer, so streaming a file of
    any size holds ``_BLOCK`` bytes; a block is valid only until the
    next one is taken.
    """
    buf = bytearray(_BLOCK)
    view = memoryview(buf)
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(buf):
            yield view[:n]


def file_crc32(path: Path) -> int:
    """CRC32 of a file's bytes, streamed in fixed-size blocks."""
    crc = 0
    for block in file_blocks(path):
        crc = zlib.crc32(block, crc)
    return crc


@dataclass(slots=True)
class VerifyIssue:
    """One problem found in a dataset directory."""

    path: str  # dataset-relative path (or "." for directory-level issues)
    kind: str  # "missing" | "size" | "crc" | "manifest" | "unchecked"
    detail: str

    def __str__(self) -> str:
        return f"{self.path}: {self.kind}: {self.detail}"


@dataclass(slots=True)
class VerifyReport:
    """Outcome of :func:`verify_dataset`."""

    root: Path
    files_checked: int = 0
    bytes_checked: int = 0
    issues: list[VerifyIssue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def render(self) -> str:
        lines = [
            f"dataset: {self.root}",
            f"files checked: {self.files_checked}"
            f" ({self.bytes_checked} bytes)",
        ]
        if self.ok:
            lines.append("OK: all files present, sized, and checksum-clean")
        else:
            lines.append(f"FAILED: {len(self.issues)} issue(s)")
            lines.extend(f"  {issue}" for issue in self.issues)
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "root": str(self.root),
            "ok": self.ok,
            "files_checked": self.files_checked,
            "bytes_checked": self.bytes_checked,
            "issues": [
                {"path": i.path, "kind": i.kind, "detail": i.detail}
                for i in self.issues
            ],
        }


def _check_file(
    report: VerifyReport,
    path: Path,
    expect_size: int | None,
    expect_crc: int | None,
) -> None:
    rel = str(path.relative_to(report.root))
    if not path.exists():
        report.issues.append(VerifyIssue(rel, "missing", "file does not exist"))
        return
    size = path.stat().st_size
    report.files_checked += 1
    report.bytes_checked += size
    if expect_size is not None and size != expect_size:
        report.issues.append(
            VerifyIssue(rel, "size", f"{size} bytes, expected {expect_size}")
        )
        return  # a mis-sized file will fail CRC trivially; report once
    if expect_crc is None:
        report.issues.append(
            VerifyIssue(rel, "unchecked", "no CRC32 recorded in manifest")
        )
        return
    actual = file_crc32(path)
    if actual != expect_crc:
        report.issues.append(
            VerifyIssue(
                rel, "crc",
                f"CRC32 {actual:#010x}, manifest says {expect_crc:#010x}",
            )
        )


def verify_dataset(root: Path) -> VerifyReport:
    """Check every file in a dataset directory against its manifest.

    Returns a :class:`VerifyReport`; never raises on corruption — a bad
    or missing manifest is itself reported as an issue.
    """
    root = Path(root)
    report = VerifyReport(root=root)
    mpath = manifest_path(root)
    if not mpath.exists():
        report.issues.append(
            VerifyIssue(".", "manifest", "manifest.json missing — dataset "
                        "incomplete or not a dataset directory")
        )
        return report
    try:
        manifest = Manifest.from_json(mpath.read_text(encoding="utf-8"))
    except StorageError as exc:
        report.issues.append(VerifyIssue("manifest.json", "manifest", str(exc)))
        return report
    report.files_checked += 1
    report.bytes_checked += mpath.stat().st_size

    for t in manifest.tables:
        for c in t.columns:
            if c.codec == "raw":
                expect = t.rows * c.np_dtype().itemsize
            else:
                expect = c.stored_bytes
            _check_file(
                report, column_path(root, t.name, c.name), expect, c.crc32
            )
    for d in manifest.dictionaries:
        _check_file(
            report,
            dict_offsets_path(root, d.name),
            (d.size + 1) * 8,
            d.offsets_crc32,
        )
        _check_file(report, dict_blob_path(root, d.name), None, d.blob_crc32)
    return report
