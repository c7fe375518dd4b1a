"""Abstract syntax tree for the paper's SQL dialect.

The top-level statement shape (§2.3):

    SELECT <attribute(s) and/or aggregate function(s)>
    FROM <Table(s)>
    [WHERE <condition(s)>]
    [GROUP BY <grouping attribute(s)>]
    [HAVING <grouping condition(s)>]
    [SIZE <size condition(s)>]

Expression nodes are plain frozen dataclasses; evaluation lives in
:mod:`repro.sql.expressions` and aggregation in :mod:`repro.sql.aggregates`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any

from repro.exceptions import ProtocolError


class Expression:
    """Base class for expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Literal(Expression):
    """A constant: number, string, boolean or NULL."""

    value: Any

    def __str__(self) -> str:
        if self.value is None:
            return "NULL"
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        return str(self.value)


@dataclass(frozen=True)
class ColumnRef(Expression):
    """A (possibly qualified) column reference, e.g. ``C.district``."""

    name: str
    table: str | None = None

    def __str__(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class UnaryOp(Expression):
    """Unary ``-`` / ``+`` / ``NOT``."""

    op: str
    operand: Expression

    def __str__(self) -> str:
        if self.op == "NOT":
            return f"NOT ({self.operand})"
        return f"{self.op}({self.operand})"


@dataclass(frozen=True)
class BinaryOp(Expression):
    """Arithmetic, comparison, or logical binary operator."""

    op: str
    left: Expression
    right: Expression

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class InList(Expression):
    """``expr [NOT] IN (v1, v2, ...)``."""

    operand: Expression
    items: tuple[Expression, ...]
    negated: bool = False

    def __str__(self) -> str:
        inner = ", ".join(str(i) for i in self.items)
        negation = "NOT " if self.negated else ""
        return f"({self.operand} {negation}IN ({inner}))"


@dataclass(frozen=True)
class Between(Expression):
    """``expr [NOT] BETWEEN low AND high``."""

    operand: Expression
    low: Expression
    high: Expression
    negated: bool = False

    def __str__(self) -> str:
        negation = "NOT " if self.negated else ""
        return f"({self.operand} {negation}BETWEEN {self.low} AND {self.high})"


@dataclass(frozen=True)
class Like(Expression):
    """``expr [NOT] LIKE pattern`` with ``%`` and ``_`` wildcards."""

    operand: Expression
    pattern: str
    negated: bool = False

    def __str__(self) -> str:
        negation = "NOT " if self.negated else ""
        escaped = self.pattern.replace("'", "''")
        return f"({self.operand} {negation}LIKE '{escaped}')"


@dataclass(frozen=True)
class IsNull(Expression):
    """``expr IS [NOT] NULL``."""

    operand: Expression
    negated: bool = False

    def __str__(self) -> str:
        negation = "NOT " if self.negated else ""
        return f"({self.operand} IS {negation}NULL)"


@dataclass(frozen=True)
class FunctionCall(Expression):
    """A scalar function call, e.g. ``ROUND(cons, 1)`` — evaluated locally
    inside the TDS (see :mod:`repro.sql.functions`)."""

    name: str
    args: tuple[Expression, ...]

    def __str__(self) -> str:
        inner = ", ".join(str(a) for a in self.args)
        return f"{self.name}({inner})"


#: Aggregate function names supported by the engine.  MEDIAN is the holistic
#: representative (per [27] the paper handles distributive, algebraic and
#: holistic aggregates; COUNT/SUM/MIN/MAX are distributive, AVG algebraic,
#: MEDIAN and COUNT DISTINCT holistic).
AGGREGATE_FUNCTIONS = frozenset(
    {"COUNT", "SUM", "AVG", "MIN", "MAX", "MEDIAN", "STDDEV", "VARIANCE"}
)


@dataclass(frozen=True)
class AggregateCall(Expression):
    """``COUNT(*)``, ``SUM(x)``, ``COUNT(DISTINCT cid)``, ...

    ``argument is None`` encodes ``COUNT(*)``.
    """

    function: str
    argument: Expression | None
    distinct: bool = False

    def __post_init__(self) -> None:
        if self.function not in AGGREGATE_FUNCTIONS:
            raise ValueError(f"unknown aggregate function {self.function!r}")

    def __str__(self) -> str:
        if self.argument is None:
            return f"{self.function}(*)"
        qualifier = "DISTINCT " if self.distinct else ""
        return f"{self.function}({qualifier}{self.argument})"


@dataclass(frozen=True)
class SelectItem:
    """One item of the SELECT list: an expression plus optional alias."""

    expression: Expression
    alias: str | None = None

    @property
    def output_name(self) -> str:
        if self.alias:
            return self.alias
        return str(self.expression)

    def __str__(self) -> str:
        if self.alias:
            return f"{self.expression} AS {self.alias}"
        return str(self.expression)


@dataclass(frozen=True)
class TableRef:
    """A FROM-clause table with optional alias (``Power P``)."""

    name: str
    alias: str | None = None

    @property
    def binding(self) -> str:
        return self.alias or self.name

    def __str__(self) -> str:
        return f"{self.name} {self.alias}" if self.alias else self.name


@dataclass(frozen=True)
class SizeClause:
    """The StreamSQL SIZE clause: max tuple count and/or collection duration.

    ``SIZE 50000`` / ``SIZE 50000 TUPLES`` / ``SIZE 3600 SECONDS`` /
    ``SIZE 50000 TUPLES, 3600 SECONDS``.
    """

    max_tuples: int | None = None
    max_seconds: float | None = None

    def is_trivial(self) -> bool:
        return self.max_tuples is None and self.max_seconds is None

    def satisfied(self, tuple_count: int, elapsed_seconds: float) -> bool:
        """True when the collection phase may stop (§3.1: the SSI evaluates
        this in cleartext)."""
        if self.max_tuples is not None and tuple_count >= self.max_tuples:
            return True
        if self.max_seconds is not None and elapsed_seconds >= self.max_seconds:
            return True
        return False

    def __str__(self) -> str:
        parts = []
        if self.max_tuples is not None:
            parts.append(f"{self.max_tuples} TUPLES")
        if self.max_seconds is not None:
            seconds = self.max_seconds
            rendered = int(seconds) if float(seconds).is_integer() else seconds
            parts.append(f"{rendered} SECONDS")
        return "SIZE " + ", ".join(parts)


@dataclass(frozen=True)
class SelectStatement:
    """A full parsed query."""

    select_items: tuple[SelectItem, ...]
    from_tables: tuple[TableRef, ...]
    where: Expression | None = None
    group_by: tuple[Expression, ...] = field(default=())
    having: Expression | None = None
    size: SizeClause | None = None
    select_star: bool = False

    def aggregates(self) -> tuple[AggregateCall, ...]:
        """All aggregate calls appearing in SELECT or HAVING, in order of
        first appearance (deduplicated)."""
        return self._aggregates

    @functools.cached_property
    def _aggregates(self) -> tuple[AggregateCall, ...]:
        # Walked once per statement: callers ask per row and per message.
        # cached_property writes the instance dict directly, which a
        # frozen dataclass allows.
        found: list[AggregateCall] = []

        def walk(node: Expression | None) -> None:
            if node is None:
                return
            if isinstance(node, AggregateCall):
                if node not in found:
                    found.append(node)
                return
            if isinstance(node, UnaryOp):
                walk(node.operand)
            elif isinstance(node, BinaryOp):
                walk(node.left)
                walk(node.right)
            elif isinstance(node, InList):
                walk(node.operand)
                for item in node.items:
                    walk(item)
            elif isinstance(node, Between):
                walk(node.operand)
                walk(node.low)
                walk(node.high)
            elif isinstance(node, (Like, IsNull)):
                walk(node.operand)
            elif isinstance(node, FunctionCall):
                for arg in node.args:
                    walk(arg)

        for item in self.select_items:
            walk(item.expression)
        walk(self.having)
        return tuple(found)

    def is_aggregate_query(self) -> bool:
        """True when the query needs the Group-By protocols (§4) rather
        than the basic Select-From-Where protocol (§3.2)."""
        return bool(self.group_by) or bool(self.aggregates())

    def check_protocol(self, protocol: str) -> None:
        """Raise :class:`ProtocolError` unless *protocol* runs this kind
        of query.  The rule every TDS applies at collection; a querier,
        who holds the plaintext too, applies it before posting."""
        if self.is_aggregate_query() == (protocol == "basic"):
            raise ProtocolError(
                "the basic protocol runs plain Select-From-Where queries, "
                f"the aggregation protocols Group-By queries; {protocol!r} "
                "cannot run this one"
            )

    def __str__(self) -> str:
        select_list = "*" if self.select_star else ", ".join(str(i) for i in self.select_items)
        parts = [f"SELECT {select_list}"]
        parts.append("FROM " + ", ".join(str(t) for t in self.from_tables))
        if self.where is not None:
            parts.append(f"WHERE {self.where}")
        if self.group_by:
            parts.append("GROUP BY " + ", ".join(str(g) for g in self.group_by))
        if self.having is not None:
            parts.append(f"HAVING {self.having}")
        if self.size is not None and not self.size.is_trivial():
            parts.append(str(self.size))
        return " ".join(parts)
