"""In-memory query execution engine.

The paper's core contribution: a read-only, specialized, parallel engine
over the converted binary tables.  After :class:`GdeltStore` loads the
columns (memory-mapped or resident), queries run as vectorized kernels
over row chunks ("morsels"), optionally fanned out over a thread team —
NumPy kernels release the GIL, so the chunked executor is a real
shared-memory parallel engine, standing in for the paper's OpenMP loops.

Layers:

* :mod:`repro.engine.store` — table container + derived columns
  (source→country via the TLD rule, interval→quarter) and the one
  event↔mention join, ``mention_event_row``;
* :mod:`repro.engine.expr` — vectorized filter expressions;
* :mod:`repro.engine.aggregate` — grouped aggregation kernels
  (bincount-based counts/sums, per-group min/max/median);
* :mod:`repro.engine.executor` — serial / threaded execution of
  chunked kernels;
* :mod:`repro.engine.planner` — zone-map chunk pruning and the LRU
  plan/result cache every query terminal runs through;
* :mod:`repro.engine.query` — the user-facing query builder, the one
  runner (plan → cache → fused scan) its terminals and the serving
  layer share, and the paper's aggregated country query;
* :mod:`repro.engine.baseline` — a row-at-a-time pure-Python engine
  (the generic-system baseline the paper compares against);
* :mod:`repro.engine.numa`, :mod:`repro.engine.costmodel` — the 8-node
  NUMA topology of the paper's EPYC 7601 testbed and the analytic
  scaling model used to extrapolate Fig 12 beyond this host's cores.

One engine runs on one node.  Spreading a dataset over processes or
machines — the paper's distributed-memory future work — is
:mod:`repro.shard`: contiguous mention ranges behind a router whose
merges are byte-identical to this engine's answers.
"""

from repro.engine.store import GdeltStore
from repro.engine.expr import col, const, Expr, parse_predicate
from repro.engine.planner import (
    FusedUnit,
    Plan,
    QueryCache,
    ScanUnit,
    fuse_plans,
    plan_query,
    request_key,
    result_cache,
)
from repro.engine.query import (
    CountryQueryResult,
    ExecutableOp,
    GroupedQuery,
    Query,
    QueryResult,
    aggregated_country_query,
    run_batch,
)
from repro.engine.executor import (
    SerialExecutor,
    ThreadExecutor,
    Executor,
)
from repro.engine.numa import NumaTopology, Placement
from repro.engine.costmodel import ScalingModel, calibrate_from_measurement

__all__ = [
    "GdeltStore",
    "col",
    "const",
    "Expr",
    "parse_predicate",
    "Query",
    "QueryResult",
    "GroupedQuery",
    "ExecutableOp",
    "run_batch",
    "Plan",
    "ScanUnit",
    "FusedUnit",
    "QueryCache",
    "plan_query",
    "request_key",
    "fuse_plans",
    "result_cache",
    "CountryQueryResult",
    "aggregated_country_query",
    "SerialExecutor",
    "ThreadExecutor",
    "Executor",
    "NumaTopology",
    "Placement",
    "ScalingModel",
    "calibrate_from_measurement",
]
