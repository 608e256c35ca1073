"""repro — a high-performance mining system for GDELT 2.0 data.

A complete Python reproduction of "A System for High Performance Mining
on GDELT Data" (Pogorelov, Schroeder, Filkukova, Langguth; IPDPS
workshops 2020): the indexed binary storage format, the parallel
in-memory query engine, the preprocessing/validation tool, a calibrated
synthetic GDELT 2.0 generator standing in for the (offline-unavailable)
real corpus, and every analysis from the paper's evaluation.

Quickstart::

    from repro import synth, ingest, engine, analysis

    ds = synth.generate_dataset(synth.small_config())
    events, mentions, dicts = ingest.dataset_to_arrays(ds)
    store = engine.GdeltStore.from_arrays(events, mentions, dicts)

    stats = analysis.dataset_statistics(store)        # Table I
    top = analysis.top_publishers(store, 10)          # Section VI-A
    f = analysis.follow_reporting(store, top)         # Table IV
    result = engine.aggregated_country_query(store)   # Tables V-VII

See DESIGN.md for the paper-to-module map and EXPERIMENTS.md for
paper-vs-measured results of every table and figure.

The seven subpackages import lazily, on first attribute access (PEP
562), so a process pays only for the code it runs: every ``import
repro.X`` runs this file first, and an eager import here would load
:mod:`repro.analysis` (with SciPy) and :mod:`repro.synth` into servers
that never call them.  ``from repro import analysis``,
``repro.analysis.f(...)`` and ``from repro import *`` all resolve
through :func:`__getattr__`.
"""

import importlib

__version__ = "1.0.0"

_SUBPACKAGES = frozenset(
    ("analysis", "engine", "gdelt", "ingest", "parallel", "storage", "synth")
)


def __getattr__(name):
    if name in _SUBPACKAGES:
        return importlib.import_module(f"repro.{name}")
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


def connect(address, **kwargs):
    """Connect to a serving endpoint: ``repro.connect("host:port")``.

    Returns a :class:`~repro.serve.remote.RemoteStore` whose fluent
    query surface matches a local :class:`~repro.engine.GdeltStore`, so
    the same query code runs against a local store, a single server, or
    a shard router.  Imported lazily so ``import repro`` stays free of
    the serving stack.
    """
    from repro.serve.remote import connect as _connect

    return _connect(address, **kwargs)


__all__ = [
    "analysis",
    "connect",
    "engine",
    "gdelt",
    "ingest",
    "parallel",
    "storage",
    "synth",
    "__version__",
]
