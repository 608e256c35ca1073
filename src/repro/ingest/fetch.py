"""Chunk fetching, with retry, timeout, and quarantine.

The paper's system downloads every archive referenced by the master file
list.  Offline, the "download" is a read of a local mirror file; the
interface is kept transport-shaped (resolve → read → verify) so a real
HTTP fetcher could be dropped in.  Each archive is read once: the md5 is
taken over the very bytes the caller then parses.  Missing archives are
a recorded problem class (8 in the paper's run), not an error.

Real GDELT mirrors add *operational* failure on top of missing data:
flaky reads, stalls, and archives that never come back.
:class:`RetryingFetcher` wraps any base fetcher with bounded retries
(exponential backoff with decorrelated jitter), treats over-deadline
fetches as transient failures, and quarantines archives that keep
failing — recorded in the :class:`~repro.ingest.validate.ProblemReport`
as ``quarantined_archives`` so a conversion degrades instead of dying.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.faults.injector import PermanentFault, TransientFault, fault_point
from repro.gdelt.masterlist import ChunkRef
from repro.ingest.validate import ProblemReport
from repro.obs import metrics as _metrics

__all__ = ["FetchResult", "LocalFetcher", "RetryPolicy", "RetryingFetcher"]

@dataclass(slots=True)
class FetchResult:
    """Outcome of fetching one chunk."""

    ref: ChunkRef
    path: Path | None  # None = missing or quarantined
    data: bytes | None = None  # the archive's bytes, as read (and verified)
    checksum_ok: bool | None = None  # None = not verified
    attempts: int = 1
    quarantined: bool = False


class LocalFetcher:
    """Resolves master-list chunk references against a local mirror."""

    def __init__(
        self,
        mirror_dir: Path,
        verify_checksums: bool = False,
        timeout_s: float | None = None,
    ) -> None:
        self.mirror_dir = Path(mirror_dir)
        self.verify_checksums = verify_checksums
        self.timeout_s = timeout_s

    def fetch(
        self, ref: ChunkRef, report: ProblemReport, attempt: int = 0
    ) -> FetchResult:
        """Resolve and read one chunk.

        Records a ``missing_archives`` problem when the referenced file
        does not exist and a ``checksum_mismatch`` problem when md5
        verification of the bytes read fails.  Raises
        :class:`TransientFault` when the fetch exceeded ``timeout_s``
        (retryable by a wrapping :class:`RetryingFetcher`); I/O errors
        propagate for the same reason.
        """
        name = ref.entry.url.rsplit("/", 1)[-1]
        path = self.mirror_dir / name
        if not path.exists():
            report.note("missing_archives", name)
            return FetchResult(ref=ref, path=None)
        t0 = time.perf_counter()
        fault_point("fetch.read", key=name, attempt=attempt)
        data = path.read_bytes()
        checksum_ok = None
        if self.verify_checksums:
            import hashlib  # lazy: loads OpenSSL, which only ingest needs

            checksum_ok = hashlib.md5(data).hexdigest() == ref.entry.md5
        if self.timeout_s is not None:
            elapsed = time.perf_counter() - t0
            if elapsed > self.timeout_s:
                _metrics.counter("ingest_timeouts_total").inc()
                raise TransientFault(
                    f"fetch of {name} took {elapsed:.3f}s "
                    f"(deadline {self.timeout_s}s)"
                )
        if checksum_ok is False:
            report.note("checksum_mismatch", name)
        return FetchResult(ref=ref, path=path, data=data, checksum_ok=checksum_ok)


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and decorrelated jitter.

    Delay for attempt *n* is ``min(max_delay_s, uniform(base_delay_s,
    prev_delay * 3))`` — the decorrelated-jitter scheme, which spreads
    retry storms without the synchronized waves plain exponential
    backoff produces.  ``sleep`` is injectable so tests run instantly.
    """

    max_attempts: int = 4
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    sleep: Callable[[float], None] = field(default=time.sleep, repr=False)


class RetryingFetcher:
    """Retry/quarantine wrapper around a base fetcher.

    Transient failures (injected or real ``OSError``) are retried up to
    ``policy.max_attempts`` with backoff; permanent failures — or
    transient ones that exhaust the budget — quarantine the archive:
    the problem report gains a ``quarantined_archives`` entry and the
    conversion continues without the chunk.  Counters:
    ``ingest_retries_total``, ``ingest_quarantined_total``.
    """

    def __init__(
        self,
        base: LocalFetcher,
        policy: RetryPolicy | None = None,
        seed: int = 0,
    ) -> None:
        self.base = base
        self.policy = policy or RetryPolicy()
        self._rng = random.Random(seed)

    def fetch(self, ref: ChunkRef, report: ProblemReport) -> FetchResult:
        name = ref.entry.url.rsplit("/", 1)[-1]
        delay = self.policy.base_delay_s
        for attempt in range(self.policy.max_attempts):
            try:
                result = self.base.fetch(ref, report, attempt=attempt)
            except PermanentFault as exc:
                return self._quarantine(ref, name, report, attempt + 1, exc)
            except (TransientFault, OSError) as exc:
                if attempt + 1 >= self.policy.max_attempts:
                    return self._quarantine(ref, name, report, attempt + 1, exc)
                _metrics.counter("ingest_retries_total").inc()
                delay = min(
                    self.policy.max_delay_s,
                    self._rng.uniform(self.policy.base_delay_s, delay * 3),
                )
                self.policy.sleep(delay)
            else:
                result.attempts = attempt + 1
                return result
        raise AssertionError("unreachable")  # pragma: no cover

    def _quarantine(
        self,
        ref: ChunkRef,
        name: str,
        report: ProblemReport,
        attempts: int,
        exc: BaseException,
    ) -> FetchResult:
        report.note("quarantined_archives", f"{name}: {exc}")
        _metrics.counter("ingest_quarantined_total").inc()
        return FetchResult(
            ref=ref, path=None, attempts=attempts, quarantined=True
        )
