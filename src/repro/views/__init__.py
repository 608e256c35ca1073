"""Materialized views: exact incremental maintenance over append-only data.

See :mod:`repro.views.catalog` for the consistency model and
``docs/views.md`` for the user-facing guide.
"""

from repro.views.catalog import ViewCatalog, ViewError, ViewState
from repro.views.definition import ViewDefinition
from repro.views.delta import Segment, compute_segments

__all__ = [
    "Segment",
    "ViewCatalog",
    "ViewDefinition",
    "ViewError",
    "ViewState",
    "compute_segments",
]
