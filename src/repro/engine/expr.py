"""Vectorized filter expressions.

A tiny expression tree compiled against a column table: ``col("Delay") >
96`` builds an :class:`Expr` whose :meth:`Expr.evaluate` returns a boolean
mask for any row range.  Expressions are pure descriptions — they carry
no data — so one expression object can be evaluated concurrently by many
worker threads over different chunks.

Supported: comparisons (``< <= == != >= >``), arithmetic (``+ - * //``),
boolean algebra (``& | ~``), and :meth:`Expr.isin`.

Beyond evaluation, expressions support the two static analyses the
query planner needs:

* :meth:`Expr.canonical` — a stable, evaluation-order-normalized string
  (commutative boolean operands sorted) used as a plan/result cache key;
* :meth:`Expr.prune_chunks` — interval analysis against per-chunk
  zone-map statistics, returning conservative ``(may_match,
  all_match)`` chunk vectors.  ``may_match=False`` chunks are skipped
  entirely; ``all_match=True`` chunks are scanned without evaluating
  the filter mask.  Nodes the analysis cannot bound (arithmetic,
  unknown ops) return ``None``, which the planner treats as
  "may match everywhere, guaranteed nowhere" — always sound.
"""

from __future__ import annotations

import re

import numpy as np

from repro.kernels import distinct

__all__ = [
    "Expr",
    "col",
    "const",
    "parse_predicate",
    "parse_conjuncts",
    "to_conjuncts",
]

Table = dict[str, np.ndarray]

#: Chunk-analysis result: (may_match, all_match) boolean vectors.
PruneResult = "tuple[np.ndarray, np.ndarray] | None"


class Expr:
    """A node of the expression tree."""

    def _eval(self, table: Table, sl: slice) -> np.ndarray:
        raise NotImplementedError

    def evaluate(self, table: Table, sl: slice | None = None) -> np.ndarray:
        """Evaluate over ``table`` rows ``sl`` (default: all rows).

        Returns a mask (or value array, for arithmetic nodes) of the
        slice's length.
        """
        if sl is None:
            sl = slice(0, _table_rows(table))
        return self._eval(table, sl)

    def columns(self) -> set[str]:
        """Names of all columns the expression touches."""
        out: set[str] = set()
        self._collect(out)
        return out

    def _collect(self, out: set[str]) -> None:
        pass

    def canonical(self) -> str:
        """Stable cache-key form of the expression.

        Structurally identical filters — including reordered operands of
        commutative boolean/arithmetic nodes — canonicalize to the same
        string, so ``a & b`` and ``b & a`` share one cache entry.
        """
        raise NotImplementedError

    def prune_chunks(self, stats) -> "PruneResult":
        """Chunk-level interval analysis against zone-map statistics.

        ``stats`` exposes ``min(col)`` / ``max(col)`` / ``nulls(col)``
        returning per-chunk arrays (or ``None`` for unmapped columns).
        Returns ``(may_match, all_match)`` boolean arrays over the
        chunks, or ``None`` when this node cannot be bounded.  Both
        directions are conservative: ``may_match`` over-approximates,
        ``all_match`` under-approximates.
        """
        return None

    # comparisons
    def __lt__(self, other):  # noqa: D105
        return _BinOp(self, _wrap(other), np.less)

    def __le__(self, other):  # noqa: D105
        return _BinOp(self, _wrap(other), np.less_equal)

    def __gt__(self, other):  # noqa: D105
        return _BinOp(self, _wrap(other), np.greater)

    def __ge__(self, other):  # noqa: D105
        return _BinOp(self, _wrap(other), np.greater_equal)

    def __eq__(self, other):  # type: ignore[override]  # noqa: D105
        return _BinOp(self, _wrap(other), np.equal)

    def __ne__(self, other):  # type: ignore[override]  # noqa: D105
        return _BinOp(self, _wrap(other), np.not_equal)

    __hash__ = None  # type: ignore[assignment]

    # arithmetic
    def __add__(self, other):  # noqa: D105
        return _BinOp(self, _wrap(other), np.add)

    def __sub__(self, other):  # noqa: D105
        return _BinOp(self, _wrap(other), np.subtract)

    def __mul__(self, other):  # noqa: D105
        return _BinOp(self, _wrap(other), np.multiply)

    def __floordiv__(self, other):  # noqa: D105
        return _BinOp(self, _wrap(other), np.floor_divide)

    # boolean algebra
    def __and__(self, other):  # noqa: D105
        return _BinOp(self, _wrap(other), np.logical_and)

    def __or__(self, other):  # noqa: D105
        return _BinOp(self, _wrap(other), np.logical_or)

    def __invert__(self):  # noqa: D105
        return _Unary(self, np.logical_not)

    def isin(self, values) -> "Expr":
        """Membership test against a fixed value set."""
        return _IsIn(self, np.asarray(list(values)))


#: Comparison mirror: ``const OP col`` rewrites to ``col FLIP[OP] const``.
_FLIP = {
    np.less: np.greater,
    np.less_equal: np.greater_equal,
    np.greater: np.less,
    np.greater_equal: np.less_equal,
    np.equal: np.equal,
    np.not_equal: np.not_equal,
}

#: Ops whose operand order is irrelevant for canonicalization.
_COMMUTATIVE = frozenset({"logical_and", "logical_or", "add", "multiply"})


def _scalar(v):
    """Normalize numpy scalars so canonical forms match Python literals."""
    return v.item() if isinstance(v, np.generic) else v


def _cmp_chunks(op, mins, maxs, nulls, c):
    """(may, all) chunk vectors for ``column OP c`` from chunk bounds.

    Bounds of an all-null chunk are NaN; NaN comparisons are False, so
    such chunks prune naturally for every range predicate.  ``all``
    requires a null-free chunk because NaN rows fail every comparison
    except ``!=`` (where null rows pass regardless of the bounds).
    """
    no_null = nulls == 0
    with np.errstate(invalid="ignore"):
        if op is np.greater:
            return maxs > c, (mins > c) & no_null
        if op is np.greater_equal:
            return maxs >= c, (mins >= c) & no_null
        if op is np.less:
            return mins < c, (maxs < c) & no_null
        if op is np.less_equal:
            return mins <= c, (maxs <= c) & no_null
        if op is np.equal:
            return (mins <= c) & (maxs >= c), (mins == c) & (maxs == c) & no_null
        if op is np.not_equal:
            may = ~((mins == c) & (maxs == c)) | (nulls > 0)
            return may, (maxs < c) | (mins > c)
    return None


def _col_stats(stats, name: str):
    """(mins, maxs, nulls) for a column, or None when unmapped."""
    mins = stats.min(name)
    if mins is None:
        return None
    return mins, stats.max(name), stats.nulls(name)


class _Col(Expr):
    def __init__(self, name: str) -> None:
        self.name = name

    def _eval(self, table: Table, sl: slice) -> np.ndarray:
        try:
            return table[self.name][sl]
        except KeyError:
            raise KeyError(
                f"no column {self.name!r}; available: {sorted(table)}"
            ) from None

    def _collect(self, out: set[str]) -> None:
        out.add(self.name)

    def canonical(self) -> str:
        return f"col({self.name!r})"

    def __repr__(self) -> str:
        return f"col({self.name!r})"


class _Const(Expr):
    def __init__(self, value) -> None:
        self.value = value

    def _eval(self, table: Table, sl: slice) -> np.ndarray:
        return self.value

    def canonical(self) -> str:
        return f"const({_scalar(self.value)!r})"

    def __repr__(self) -> str:
        return f"const({self.value!r})"


class _BinOp(Expr):
    def __init__(self, left: Expr, right: Expr, op) -> None:
        self.left, self.right, self.op = left, right, op

    def _eval(self, table: Table, sl: slice) -> np.ndarray:
        return self.op(self.left._eval(table, sl), self.right._eval(table, sl))

    def _collect(self, out: set[str]) -> None:
        self.left._collect(out)
        self.right._collect(out)

    def canonical(self) -> str:
        name = self.op.__name__
        a, b = self.left.canonical(), self.right.canonical()
        if name in _COMMUTATIVE and b < a:
            a, b = b, a
        return f"{name}({a},{b})"

    def prune_chunks(self, stats) -> "PruneResult":
        name = self.op.__name__
        if name in ("logical_and", "logical_or"):
            a = self.left.prune_chunks(stats)
            b = self.right.prune_chunks(stats)
            if a is None and b is None:
                return None
            # An unbounded side may match anywhere, is proven nowhere.
            known = a if a is not None else b
            if a is None:
                a = np.ones_like(known[0]), np.zeros_like(known[1])
            if b is None:
                b = np.ones_like(known[0]), np.zeros_like(known[1])
            if name == "logical_and":
                return a[0] & b[0], a[1] & b[1]
            return a[0] | b[0], a[1] | b[1]
        if self.op in _FLIP:
            left, right, op = self.left, self.right, self.op
            if isinstance(left, _Const) and isinstance(right, _Col):
                left, right, op = right, left, _FLIP[op]
            if isinstance(left, _Col) and isinstance(right, _Const):
                c = _scalar(right.value)
                if not isinstance(c, (bool, int, float)):
                    return None
                triple = _col_stats(stats, left.name)
                if triple is None:
                    return None
                return _cmp_chunks(op, *triple, c)
        return None

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op.__name__} {self.right!r})"


class _Unary(Expr):
    def __init__(self, inner: Expr, op) -> None:
        self.inner, self.op = inner, op

    def _eval(self, table: Table, sl: slice) -> np.ndarray:
        return self.op(self.inner._eval(table, sl))

    def _collect(self, out: set[str]) -> None:
        self.inner._collect(out)

    def __repr__(self) -> str:
        return f"{self.op.__name__}({self.inner!r})"

    def canonical(self) -> str:
        return f"{self.op.__name__}({self.inner.canonical()})"

    def prune_chunks(self, stats) -> "PruneResult":
        if self.op is not np.logical_not:
            return None
        r = self.inner.prune_chunks(stats)
        if r is None:
            return None
        may, all_ = r
        # Some row fails the inner predicate iff not all rows pass it;
        # all rows fail it iff none may pass it.  Conservativeness flips
        # with the negation, which is why both directions are tracked.
        return ~all_, ~may


class _IsIn(Expr):
    def __init__(self, inner: Expr, values: np.ndarray) -> None:
        self.inner = inner
        self.values = distinct(values)

    def _eval(self, table: Table, sl: slice) -> np.ndarray:
        x = self.inner._eval(table, sl)
        return np.isin(x, self.values)

    def _collect(self, out: set[str]) -> None:
        self.inner._collect(out)

    def __repr__(self) -> str:
        return f"{self.inner!r}.isin({self.values.tolist()!r})"

    def canonical(self) -> str:
        return f"isin({self.inner.canonical()},{self.values.tolist()!r})"

    def prune_chunks(self, stats) -> "PruneResult":
        if not isinstance(self.inner, _Col):
            return None
        vals = self.values
        if vals.size and not np.issubdtype(vals.dtype, np.number):
            return None
        triple = _col_stats(stats, self.inner.name)
        if triple is None:
            return None
        mins, maxs, nulls = triple
        if vals.size == 0:
            empty = np.zeros(len(mins), dtype=bool)
            return empty, empty.copy()
        # Smallest member >= chunk min; the chunk may match iff it also
        # sits below the chunk max (NaN bounds sort past every member).
        pos = np.searchsorted(vals, mins, side="left")
        has = pos < len(vals)
        nxt = vals[np.minimum(pos, len(vals) - 1)].astype(np.float64)
        with np.errstate(invalid="ignore"):
            may = has & (nxt <= maxs)
            all_ = (mins == maxs) & may & (nulls == 0)
        return may, all_


def col(name: str) -> Expr:
    """Reference a table column by name."""
    return _Col(name)


def const(value) -> Expr:
    """Wrap a Python scalar as an expression node."""
    return _Const(value)


def _wrap(x) -> Expr:
    return x if isinstance(x, Expr) else _Const(x)


def _table_rows(table: Table) -> int:
    for a in table.values():
        return len(a)
    return 0


# --- textual predicates ------------------------------------------------------

_PRED_IN = re.compile(r"^\s*(\w+)\s+in\s+(.+?)\s*$")
_PRED_CMP = re.compile(r"^\s*(\w+)\s*(<=|>=|==|!=|<|>)\s*(-?\d+(?:\.\d+)?)\s*$")


def parse_predicate(text: str) -> Expr:
    """Parse one textual conjunct into an :class:`Expr`.

    The grammar shared by the CLI's ``--where`` flags and the serving
    wire protocol: ``"Delay > 96"`` (any of ``< <= == != >= >``) or
    ``"SourceId in 1,2,3"``.  Values are numeric literals only — the
    parser never evaluates input, so it is safe on untrusted request
    strings.

    Raises:
        ValueError: on anything that does not match the grammar.
    """
    m = _PRED_IN.match(text)
    if m:
        raw = m.group(2).strip().strip("[]()")
        values = [
            float(v) if "." in v else int(v)
            for v in (p.strip() for p in raw.split(",")) if v
        ]
        return col(m.group(1)).isin(values)
    m = _PRED_CMP.match(text)
    if not m:
        raise ValueError(
            f"cannot parse predicate {text!r} "
            "(expected 'COLUMN OP NUMBER' or 'COLUMN in V1,V2,...')"
        )
    name, op, raw = m.groups()
    value = float(raw) if "." in raw else int(raw)
    c = col(name)
    return {
        "<": c < value, "<=": c <= value, ">": c > value,
        ">=": c >= value, "==": c == value, "!=": c != value,
    }[op]


#: Comparison ufunc -> wire operator text (the inverse of parse_predicate).
_OP_TEXT = {
    np.less: "<", np.less_equal: "<=", np.greater: ">",
    np.greater_equal: ">=", np.equal: "==", np.not_equal: "!=",
}


def _literal(value) -> str:
    """Render one numeric constant in the predicate grammar.

    Raises:
        ValueError: for values the grammar cannot carry (non-numeric,
            exponent-notation floats, NaN/inf).
    """
    value = _scalar(value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"constant {value!r} is not expressible on the wire")
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise ValueError(f"constant {value!r} is not expressible on the wire")
        if value.is_integer():
            return str(int(value))
        text = repr(value)
    else:
        text = str(value)
    if not re.fullmatch(r"-?\d+(?:\.\d+)?", text):
        raise ValueError(f"constant {value!r} is not expressible on the wire")
    return text


def _conjunct_text(node: Expr) -> str:
    """One leaf conjunct as predicate text; raises when inexpressible."""
    if isinstance(node, _BinOp) and node.op in _OP_TEXT:
        left, right, op = node.left, node.right, node.op
        if isinstance(left, _Const) and isinstance(right, _Col):
            left, right, op = right, left, _FLIP[op]
        if isinstance(left, _Col) and isinstance(right, _Const):
            return f"{left.name} {_OP_TEXT[op]} {_literal(right.value)}"
        raise ValueError(
            f"comparison {node!r} is not COLUMN-vs-CONSTANT; "
            "not expressible on the wire"
        )
    if isinstance(node, _IsIn) and isinstance(node.inner, _Col):
        values = ",".join(_literal(v) for v in node.values.tolist())
        if not values:
            raise ValueError("empty isin() is not expressible on the wire")
        return f"{node.inner.name} in {values}"
    raise ValueError(
        f"expression {node!r} is not expressible on the wire "
        "(only AND-ed COLUMN-vs-CONSTANT comparisons and isin)"
    )


def parse_conjuncts(texts) -> Expr | None:
    """AND-fold textual predicates into one :class:`Expr`.

    The inverse of :func:`to_conjuncts`, and the only reader of conjunct
    lists (wire requests, view definitions, ``--where`` flags); an
    empty list means "no filter".

    Raises:
        ValueError: from :func:`parse_predicate`, on the first
            conjunct outside the grammar.
    """
    expr: Expr | None = None
    for text in texts:
        conjunct = parse_predicate(str(text))
        expr = conjunct if expr is None else (expr & conjunct)
    return expr


def to_conjuncts(expr: Expr | None) -> list[str]:
    """Serialize a filter to the wire's textual conjunct list.

    The exact inverse of :func:`parse_conjuncts`: only conjunctions of
    column-vs-constant comparisons and numeric ``isin`` are expressible
    — the same grammar the server parses, so a remote filter can never
    widen the server's attack surface.  Used by :class:`repro.serve.remote.RemoteStore` to ship
    ``store.query(...).filter(expr)`` filters to a server or router.

    Raises:
        ValueError: when the expression uses arithmetic, OR/NOT, or
            non-numeric constants — with a message naming the offending
            node so callers can rewrite the filter.
    """
    if expr is None:
        return []
    if isinstance(expr, _BinOp) and expr.op is np.logical_and:
        return to_conjuncts(expr.left) + to_conjuncts(expr.right)
    return [_conjunct_text(expr)]
