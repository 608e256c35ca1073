"""Preprocessing: raw GDELT archives → indexed binary dataset.

This is the paper's "preprocessing tool": it walks the master file list,
fetches each 15-minute chunk archive, parses and validates the TSV rows,
and writes the indexed binary columnar dataset the query engine loads.
Data problems are not fatal — they are counted and itemized in a
:class:`~repro.ingest.validate.ProblemReport`, reproducing the paper's
Table II audit.

:mod:`repro.ingest.direct` is the vectorized fast path that converts an
in-memory synthetic dataset straight to the binary format (or to a live
store), bypassing TSV — used by benchmarks that do not measure ingest.

The names below resolve lazily, on first attribute access (PEP 562), as
:mod:`repro` does, so a process pays only for the code it runs: ``import
repro.ingest.direct`` runs this file first, and an eager import here
would load the raw-archive converter, the live follower and the engine
into a process that only writes a synthetic dataset.  ``from
repro.ingest import LiveFollower`` and ``from repro.ingest import *``
both resolve through :func:`__getattr__`.
"""

import importlib

#: Public name → the submodule that defines it.
_EXPORTS = {
    "LocalFetcher": "fetch",
    "FetchResult": "fetch",
    "RetryPolicy": "fetch",
    "RetryingFetcher": "fetch",
    "CheckpointJournal": "checkpoint",
    "ProblemReport": "validate",
    "EventAccumulator": "accumulate",
    "MentionAccumulator": "accumulate",
    "convert_raw_to_binary": "convert",
    "ConversionResult": "convert",
    "dataset_to_binary": "direct",
    "dataset_to_arrays": "direct",
    "LiveFollower": "stream",
    "PollResult": "stream",
}


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro.ingest' has no attribute {name!r}")
    return getattr(importlib.import_module(f"repro.ingest.{module}"), name)


__all__ = list(_EXPORTS)
