"""Data-problem accounting (the paper's Table II).

The validator is intentionally forgiving: GDELT's real dump contains
defects (the paper found 53 malformed master-list entries, 8 missing
archives, 1 missing event source URL, 4 future-dated events), and the
preprocessing tool's job is to count and skip or repair them, never to
crash.  :class:`ProblemReport` is the ledger; every ingest stage appends
to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

__all__ = ["ProblemReport"]

#: Detail samples kept per problem class, to keep reports small.
_EXAMPLE_CAP = 20


@dataclass(slots=True)
class ProblemReport:
    """Counts and details of every defect class seen during ingest.

    The four named classes mirror Table II rows; ``bad_event_rows`` /
    ``bad_mention_rows`` cover unparseable rows (wrong width, non-numeric
    key fields), which the paper's converter also has to skip.
    """

    malformed_master_entries: int = 0
    missing_archives: int = 0
    missing_source_urls: int = 0
    future_event_dates: int = 0
    bad_event_rows: int = 0
    bad_mention_rows: int = 0
    #: Archives present but unreadable (bad zip).
    corrupt_archives: int = 0
    #: Archives whose md5 disagrees with the master-list entry.
    checksum_mismatch: int = 0
    #: Archives abandoned after exhausting fetch retries (permanent I/O
    #: failures); the rest of the conversion proceeds without them.
    quarantined_archives: int = 0

    #: Samples of offending inputs, ``_EXAMPLE_CAP`` per class.
    examples: dict[str, list[str]] = field(default_factory=dict)

    def note(self, kind: str, detail: str) -> None:
        """Increment ``kind`` and stash a detail sample."""
        setattr(self, kind, getattr(self, kind) + 1)
        bucket = self.examples.setdefault(kind, [])
        if len(bucket) < _EXAMPLE_CAP:
            bucket.append(detail)

    def total(self) -> int:
        """Problems of every class."""
        return sum(getattr(self, f.name) for f in fields(self) if f.name != "examples")

    def as_table(self) -> list[tuple[str, int]]:
        """Rows in the paper's Table II layout (named classes only)."""
        return [
            ("Missformatted dataset master list entries", self.malformed_master_entries),
            ("Missing archives for dataset chunks", self.missing_archives),
            ("Missing event source URL", self.missing_source_urls),
            (
                "Recorded event date is in future compared to the recorded "
                "first article publication date",
                self.future_event_dates,
            ),
        ]
