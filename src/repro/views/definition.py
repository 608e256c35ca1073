"""Materialized-view definitions: a named, persistable query terminal.

A :class:`ViewDefinition` captures exactly one fluent-query terminal —
``store.query(table).filter(...).group_by(...).count()/sum()/...`` — in
a form that survives a process restart: the filter is stored as the
wire protocol's textual predicate conjuncts (the exact strings
:func:`repro.engine.expr.parse_predicate` accepts), so a definition
read back from disk can never execute anything, and the identity of
the terminal is the planner's canonical signature
(:meth:`repro.engine.terminal.Terminal.signature`) — the same key the
result cache and the serving single-flight layer use, which is what
lets :class:`~repro.serve.service.QueryService` recognise "this wire
request IS that view" without any per-request matching heuristics.

Definitions are append-only-friendly by construction: ``time_range``
restrictions are rejected (rows past the window arrive as the table
grows, so a windowed query is not incrementally maintainable).  The
group key is stored under the name the query used, which every store's
registry resolves; aliases (``Quarter`` / ``MentionQuarter``) still
answer as one view, because a view is matched by its request key,
whose terminal signature carries the canonical name.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.expr import Expr, parse_conjuncts, to_conjuncts
from repro.engine.query import GroupedQuery
from repro.engine.terminal import TerminalSpec

__all__ = ["ViewDefinition"]

#: View names become file names; keep them boring.
_NAME_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-.")


@dataclass(frozen=True)
class ViewDefinition:
    """One registered view: a named terminal over one table.

    Attributes:
        name: unique catalog name (also the on-disk state file stem).
        table: ``"events"`` or ``"mentions"``.
        op: terminal operation (``count``/``sum``/``mean``; grouped
            views additionally allow ``stats``/``top``).
        where: textual predicate conjuncts, ANDed (wire grammar only).
        column: aggregated column for ``sum``/``mean``/``stats``.
        group_by: group-key name (any registered name or alias).
        k: ``top`` views only — how many groups to keep.
    """

    name: str
    table: str = "mentions"
    op: str = "count"
    where: tuple[str, ...] = field(default_factory=tuple)
    column: str | None = None
    group_by: str | None = None
    k: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "where", tuple(str(w) for w in self.where))
        if self.k is not None:
            object.__setattr__(self, "k", int(self.k))

    # -- construction ------------------------------------------------------

    @classmethod
    def from_query(
        cls,
        name: str,
        query,
        op: str,
        column: str | None = None,
        k: int | None = None,
    ) -> "ViewDefinition":
        """Capture a fluent query plus a terminal name as a definition.

        ``query`` is a :class:`~repro.engine.query.Query` or
        :class:`~repro.engine.query.GroupedQuery` (the object you would
        have called the terminal on).  The filter is serialized through
        :func:`~repro.engine.expr.to_conjuncts`, so expressions outside
        the wire grammar (OR, NOT, arithmetic) raise ``ValueError`` —
        the same restriction remote queries live under.

        Raises:
            ValueError: on a query carrying a ``time_range`` window, even
                one that covers every current row (not incrementally
                maintainable), an inexpressible filter, or a bad name.
        """
        group_by = None
        if isinstance(query, GroupedQuery):
            group_by = query._name
            query = query._q
        if query.window is not None:
            raise ValueError(
                "materialized views cover whole tables; a time_range view "
                "is not incrementally maintainable (row positions shift "
                "as the table grows)"
            )
        defn = cls(
            name=name,
            table=query.table_name,
            op=op,
            where=tuple(to_conjuncts(query.where)),
            column=column,
            group_by=group_by,
            k=k,
        )
        defn.validate()
        return defn

    @classmethod
    def from_dict(cls, raw: dict) -> "ViewDefinition":
        defn = cls(
            name=str(raw["name"]),
            table=str(raw.get("table", "mentions")),
            op=str(raw.get("op", "count")),
            where=tuple(raw.get("where") or ()),
            column=raw.get("column"),
            group_by=raw.get("group_by"),
            k=raw.get("k"),
        )
        defn.validate()
        return defn

    def to_dict(self) -> dict:
        out: dict = {"name": self.name, "table": self.table, "op": self.op,
                     "where": list(self.where)}
        if self.column is not None:
            out["column"] = self.column
        if self.group_by is not None:
            out["group_by"] = self.group_by
        if self.k is not None:
            out["k"] = self.k
        return out

    # -- validation --------------------------------------------------------

    def validate(self) -> None:
        """Structural validation (no store access).

        Raises:
            ValueError: bad name, unknown table or op, missing/extra
                column — the same rules a wire request lives under.
        """
        if not self.name or not set(self.name) <= _NAME_OK:
            raise ValueError(
                f"bad view name {self.name!r} (letters, digits, _-. only)"
            )
        if self.table not in ("events", "mentions"):
            raise ValueError(f"unknown table {self.table!r}")
        parse_conjuncts(self.where)  # raises on grammar violations
        self.spec.validate()

    # -- derived forms -----------------------------------------------------

    @property
    def spec(self) -> TerminalSpec:
        """The view's terminal description."""
        return TerminalSpec(self.op, self.column, self.group_by, self.k)

    def parsed_where(self) -> Expr | None:
        return parse_conjuncts(self.where)

    def describe(self) -> str:
        """One-line human summary for ``view list`` and ``/varz``."""
        parts = [f"{self.table}"]
        if self.where:
            parts.append("where " + " AND ".join(self.where))
        if self.group_by is not None:
            parts.append(f"group_by {self.group_by}")
        term = self.op
        if self.column is not None:
            term += f"({self.column})"
        elif self.k is not None:
            term += f"({self.k})"
        else:
            term += "()"
        parts.append(term)
        return " | ".join(parts)
