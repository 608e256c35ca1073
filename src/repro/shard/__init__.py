"""Multi-process sharded serving tier.

The single-store serving stack (:mod:`repro.serve`) scales to one
process.  This package scales it *out*:

* :mod:`repro.shard.partition` — split one binary dataset into N shard
  datasets: the capture-sorted mentions table is cut into contiguous
  row ranges, while the events table and the string dictionaries are
  replicated (they are small and every shard needs them for joins and
  group keys).  The split streams: it holds one column slice at a time
  and copies the dictionary files in blocks.
* :mod:`repro.shard.map` — the shard map a router builds from each
  backend's ``meta`` self-description: row counts, zone-map column
  bounds, group cardinalities.  The planner's interval analysis
  (:meth:`~repro.engine.expr.Expr.prune_chunks`) runs against the map
  with whole backends as "chunks", so a filtered query skips entire
  shards before any network hop.
* :mod:`repro.shard.router` — :class:`~repro.shard.router.ShardRouter`,
  a scatter-gather front end speaking the same LDJSON protocol as a
  single server, so clients cannot tell a router from a store.  It
  merges the backends' mergeable partial aggregates (the ``partials``
  wire mode) with the terminal algebra (:mod:`repro.engine.terminal`)
  into the same value a single-store run produces.
* :mod:`repro.shard.cluster` — per-shard server subprocess management
  for ``repro-gdelt shard-serve``.
"""

from repro.shard.cluster import ShardProcess, launch_shards
from repro.shard.map import ShardMap
from repro.shard.partition import split_dataset
from repro.shard.router import ShardRouter

__all__ = [
    "ShardMap",
    "ShardProcess",
    "ShardRouter",
    "launch_shards",
    "split_dataset",
]
