"""Materialized views: exact incremental maintenance over append-only data.

A view is one retained, folded partial over a table's rows, extended by
the engine's runner with the rows each refresh adds.  See
:mod:`repro.views.catalog` for the consistency model and
``docs/views.md`` for the user-facing guide.
"""

from repro.views.catalog import ViewCatalog, ViewError, ViewState
from repro.views.definition import ViewDefinition

__all__ = [
    "ViewCatalog",
    "ViewDefinition",
    "ViewError",
    "ViewState",
]
