"""repro.serve — concurrent query serving over the repro engine.

Turns the single-caller query engine into a multi-tenant service:
admission control (bounded priority queues, per-client rate limits,
deadline-aware load shedding), single-flight deduplication of identical
in-flight queries, shared-scan batching of compatible ones, and a
line-delimited-JSON socket front end with a matching Python client.

In process::

    from repro.serve import QueryService, QueryRequest

    with QueryService(store, workers=4) as svc:
        resp = svc.query("mentions", op="count")
        assert resp.ok

Over a socket (``repro-gdelt serve data/``)::

    from repro.serve import ServeClient

    with ServeClient("127.0.0.1", 7311) as client:
        resp = client.query(table="mentions", op="count")

The HTTP ops plane (:class:`OpsServer`, :data:`METRICS_CONTENT_TYPE`)
resolves lazily, on first attribute access: :mod:`repro.serve.ops`
pulls in ``http.server`` and, through it, ``ssl`` — megabytes of
resident code that a server started without ``--ops-port`` and every
client never use.
"""

import importlib

from repro.engine.terminal import GROUP_OPS, OPS
from repro.serve.admission import AdmissionController, TokenBucket
from repro.serve.batcher import (
    BatchItem,
    ExecutableOp,
    compile_request,
    execute_batch,
)
from repro.serve.breaker import BreakerBoard, CircuitBreaker
from repro.serve.client import ServeClient, ViewSubscription, next_backoff
from repro.serve.lifecycle import (
    LifecycleError,
    ReloadResult,
    StoreLease,
    StoreLifecycle,
)
from repro.serve.protocol import RETRYABLE_CODES, ErrorCode, store_meta
from repro.serve.remote import (
    RemoteError,
    RemoteGroupedQuery,
    RemoteQuery,
    RemoteStore,
    connect,
)
from repro.serve.request import (
    QueryRequest,
    QueryResponse,
    request_from_wire,
)
from repro.serve.server import ServeServer
from repro.serve.service import PendingRequest, QueryService

_OPS_NAMES = frozenset(("METRICS_CONTENT_TYPE", "OpsServer"))


def __getattr__(name):
    if name in _OPS_NAMES:
        return getattr(importlib.import_module("repro.serve.ops"), name)
    raise AttributeError(f"module 'repro.serve' has no attribute {name!r}")


__all__ = [
    "AdmissionController",
    "BatchItem",
    "BreakerBoard",
    "CircuitBreaker",
    "ErrorCode",
    "ExecutableOp",
    "GROUP_OPS",
    "LifecycleError",
    "METRICS_CONTENT_TYPE",
    "OPS",
    "OpsServer",
    "PendingRequest",
    "QueryRequest",
    "QueryResponse",
    "QueryService",
    "RETRYABLE_CODES",
    "ReloadResult",
    "RemoteError",
    "RemoteGroupedQuery",
    "RemoteQuery",
    "RemoteStore",
    "ServeClient",
    "ServeServer",
    "StoreLease",
    "StoreLifecycle",
    "TokenBucket",
    "ViewSubscription",
    "compile_request",
    "connect",
    "execute_batch",
    "next_backoff",
    "request_from_wire",
    "store_meta",
]
