"""Local query executor — what runs *inside* one TDS.

The paper allows "internal joins which can be executed locally by each TDS"
(§2.3, footnote 5): a TDS evaluates FROM (with cartesian products restricted
by WHERE), WHERE, and either projects result tuples (basic protocol, §3.2)
or computes aggregate contributions (Group-By protocols, §4).

This module also provides the *reference executor*: running the full query
on the union of all local databases, which the tests use as ground truth
for protocol correctness.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Iterable, Iterator, Mapping

from repro.exceptions import PlanningError
from repro.sql.aggregates import AggregateState, make_state
from repro.sql.ast import (
    AggregateCall,
    Between,
    BinaryOp,
    ColumnRef,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    Like,
    Literal,
    SelectStatement,
    UnaryOp,
)
from repro.sql.expressions import compile
from repro.sql.schema import Database, Row


def bind_rows(database: Database, statement: SelectStatement) -> Iterator[Row]:
    """Produce the FROM-clause rows: the cartesian product of the referenced
    tables, with every column bound under its qualified name
    (``binding.column``)."""
    tables: list[list[Row]] = []
    for table_ref in statement.from_tables:
        if not database.has_table(table_ref.name):
            raise PlanningError(f"unknown table {table_ref.name!r}")
        binding = table_ref.binding
        # qualified once per table row, not once per combination
        tables.append(
            [
                {f"{binding}.{column}": value for column, value in row.items()}
                for row in database.table(table_ref.name).rows()
            ]
        )
    bindings = [table_ref.binding for table_ref in statement.from_tables]
    if len(set(bindings)) != len(bindings):
        raise PlanningError("duplicate table binding in FROM clause")
    for parts in itertools.product(*tables):
        joined: Row = {}
        for part in parts:
            joined.update(part)
        yield joined


class StatementPlan:
    """Everything a TDS derives from the statement alone, derived once:
    the aggregate list, the columns the aggregation needs, and the WHERE
    predicate, group key, aggregate arguments, SELECT projection and
    HAVING as compiled closures.  Rows then only pass through it.

    Get it from :func:`plan_of`; it lives as long as its statement, which
    :func:`repro.sql.parser.parse` memoises by text."""

    def __init__(self, statement: SelectStatement) -> None:
        self.statement = statement
        self.aggregates = statement.aggregates()
        self._where = None if statement.where is None else compile(statement.where)
        keys = [compile(expr) for expr in statement.group_by]
        #: the GROUP BY expressions of one row, as a tuple; a query with
        #: aggregates but no GROUP BY maps every row to the empty key
        self.group_key: Callable[[Row], tuple[Any, ...]]
        if len(keys) == 1:
            (only,) = keys
            self.group_key = lambda row: (only(row),)
        else:
            self.group_key = lambda row: tuple([key(row) for key in keys])
        #: per aggregate, its compiled argument; None for COUNT(*)
        self._arguments = [
            None if call.argument is None else compile(call.argument)
            for call in self.aggregates
        ]
        needed = {
            str(ref)
            for expr in (*statement.group_by, *(c.argument for c in self.aggregates))
            for ref in column_refs(expr)
        }
        #: bound column name -> does the aggregation need it; filled as
        #: names are met, so bounded by the local schema
        self._needed = _NeededColumns(needed)
        self._projection = [
            (item.output_name, compile(item.expression))
            for item in statement.select_items
        ]
        self._having = (
            None
            if statement.having is None
            else compile(rewrite_grouped(statement.having, statement))
        )
        self._grouped_projection = [
            (item.output_name, compile(rewrite_grouped(item.expression, statement)))
            for item in statement.select_items
        ]
        #: FROM table -> its columns referenced anywhere in SELECT / WHERE /
        #: HAVING / GROUP BY (what access control checks grants against);
        #: an unqualified reference counts when there is only one table
        self.referenced_columns = _referenced_columns(statement)

    def matching_rows(self, rows: Iterable[Row]) -> Iterator[Row]:
        """Keep rows whose WHERE predicate is exactly TRUE."""
        where = self._where
        if where is None:
            return iter(rows)
        return (row for row in rows if where(row) is True)

    def reduce(self, row: Row) -> Row:
        """Project a bound row down to the columns the aggregation
        actually needs (grouping attributes + aggregate arguments),
        cutting tuple size st — the quantity the cost model charges for."""
        needed = self._needed
        return {key: value for key, value in row.items() if needed[key]}

    def project(self, row: Row) -> Row:
        """SELECT projection for non-aggregate queries."""
        statement = self.statement
        if statement.select_star:
            if len(statement.from_tables) == 1:
                return {_strip_binding(k): v for k, v in row.items()}
            return dict(row)
        return {name: value(row) for name, value in self._projection}

    def new_states(self) -> list[AggregateState]:
        """Fresh (empty) aggregate states for one group."""
        return [make_state(call) for call in self.aggregates]

    def update(self, states: list[AggregateState], row: Row) -> None:
        """Fold one source row into a group's aggregate states."""
        for argument, state in zip(self._arguments, states):
            if argument is None:
                state.update(1)  # COUNT(*)
                continue
            value = argument(row)
            if value is not None:  # SQL aggregates ignore NULLs
                state.update(value)

    def finalize(
        self, groups: Mapping[tuple[Any, ...], list[AggregateState]]
    ) -> list[Row]:
        """Apply HAVING and the SELECT projection to finished groups."""
        having = self._having
        output: list[Row] = []
        for key, states in groups.items():
            context = self._grouped_row(key, states)
            if having is not None and having(context) is not True:
                continue
            output.append(
                {name: value(context) for name, value in self._grouped_projection}
            )
        return output

    def _grouped_row(self, key: tuple[Any, ...], states: list[AggregateState]) -> Row:
        """The evaluation context of one finished group: group-by values
        (bound under their expression text, and for plain column
        references also under the column name) plus finalized aggregate
        values."""
        context: dict[str, Any] = {}
        for expr, value in zip(self.statement.group_by, key):
            context[str(expr)] = value
            if isinstance(expr, ColumnRef):
                context.setdefault(expr.name, value)
        for call, state in zip(self.aggregates, states):
            context[str(call)] = state.result()
        return context


class _NeededColumns(dict):
    """``bound name -> bool``: the name, or its bare form, is a needed
    column."""

    def __init__(self, needed: set[str]) -> None:
        super().__init__()
        self._names = needed

    def __missing__(self, key: str) -> bool:
        keep = self[key] = key in self._names or _strip_binding(key) in self._names
        return keep


def _referenced_columns(statement: SelectStatement) -> dict[str, set[str]]:
    table_of = {ref.binding: ref.name for ref in statement.from_tables}
    referenced: dict[str, set[str]] = {table: set() for table in table_of.values()}
    only_table = next(iter(referenced)) if len(referenced) == 1 else None
    expressions = [item.expression for item in statement.select_items]
    expressions += [statement.where, statement.having, *statement.group_by]
    for expression in expressions:
        for ref in column_refs(expression):
            table = only_table if ref.table is None else table_of.get(ref.table)
            if table is not None:
                referenced[table].add(ref.name)
    return referenced


def plan_of(statement: SelectStatement) -> StatementPlan:
    """The plan of *statement*, built on first use and kept on the
    statement itself (a frozen dataclass, so it is stored past
    ``__setattr__``, as ``functools.cached_property`` would).  Keyed by
    identity on purpose: ``Literal(1) == Literal(True)``, so two equal
    statements need not evaluate alike."""
    plan = vars(statement).get("_plan")
    if plan is None:
        plan = vars(statement)["_plan"] = StatementPlan(statement)
    return plan


def local_matching_rows(database: Database, statement: SelectStatement) -> list[Row]:
    """FROM + WHERE on one local database — the collection-phase work of a
    single TDS (step 3 of Fig. 2)."""
    return list(plan_of(statement).matching_rows(bind_rows(database, statement)))


def group_key(statement: SelectStatement, row: Row) -> tuple[Any, ...]:
    """Evaluate the GROUP BY expressions on *row*.

    For a query without GROUP BY but with aggregates, every row maps to the
    single empty key (one global group)."""
    return plan_of(statement).group_key(row)


def _strip_binding(key: str) -> str:
    return key.split(".", 1)[1] if "." in key else key


def project_row(statement: SelectStatement, row: Row) -> Row:
    """SELECT projection for non-aggregate queries."""
    return plan_of(statement).project(row)


def rewrite_grouped(expression: Expression, statement: SelectStatement) -> Expression:
    """Rewrite *expression* for evaluation against a grouped row: any
    subtree equal to a GROUP BY expression becomes a reference to its
    pre-computed value (keyed by the expression text in the group context).

    This is what lets ``SELECT x % 2 ... GROUP BY x % 2`` evaluate after
    aggregation, when the raw ``x`` values are gone."""
    group_map = {expr: str(expr) for expr in statement.group_by}

    def rewrite(node: Expression) -> Expression:
        if node in group_map:
            return ColumnRef(group_map[node])
        if isinstance(node, UnaryOp):
            return UnaryOp(node.op, rewrite(node.operand))
        if isinstance(node, BinaryOp):
            return BinaryOp(node.op, rewrite(node.left), rewrite(node.right))
        if isinstance(node, InList):
            return InList(
                rewrite(node.operand),
                tuple(rewrite(i) for i in node.items),
                node.negated,
            )
        if isinstance(node, Between):
            return Between(
                rewrite(node.operand), rewrite(node.low), rewrite(node.high), node.negated
            )
        if isinstance(node, Like):
            return Like(rewrite(node.operand), node.pattern, node.negated)
        if isinstance(node, IsNull):
            return IsNull(rewrite(node.operand), node.negated)
        if isinstance(node, FunctionCall):
            return FunctionCall(node.name, tuple(rewrite(a) for a in node.args))
        return node

    return rewrite(expression)


def finalize_groups(
    statement: SelectStatement,
    groups: Mapping[tuple[Any, ...], list[AggregateState]],
) -> list[Row]:
    """Apply HAVING and the SELECT projection to finished groups."""
    return plan_of(statement).finalize(groups)


def execute(database: Database, statement: SelectStatement) -> list[Row]:
    """Run the full query against one database (the reference executor).

    >>> from repro.sql.schema import Database, schema
    >>> from repro.sql.parser import parse
    >>> db = Database()
    >>> t = db.create_table(schema("T", g="TEXT", x="INTEGER"))
    >>> for g, x in [("a", 1), ("a", 3), ("b", 5)]:
    ...     t.insert({"g": g, "x": x})
    >>> execute(db, parse("SELECT g, SUM(x) AS s FROM T GROUP BY g"))
    [{'g': 'a', 's': 4}, {'g': 'b', 's': 5}]
    """
    validate_statement(statement, database)
    plan = plan_of(statement)
    rows = plan.matching_rows(bind_rows(database, statement))
    if not statement.is_aggregate_query():
        return [plan.project(row) for row in rows]
    groups: dict[tuple[Any, ...], list[AggregateState]] = {}
    for row in rows:
        key = plan.group_key(row)
        states = groups.get(key)
        if states is None:
            states = groups[key] = plan.new_states()
        plan.update(states, row)
    return plan.finalize(groups)


# ---------------------------------------------------------------------- #
# validation
# ---------------------------------------------------------------------- #
def _column_refs(expression: Expression | None) -> Iterator[ColumnRef]:
    if expression is None:
        return
    if isinstance(expression, ColumnRef):
        yield expression
    elif isinstance(expression, UnaryOp):
        yield from _column_refs(expression.operand)
    elif isinstance(expression, BinaryOp):
        yield from _column_refs(expression.left)
        yield from _column_refs(expression.right)
    elif isinstance(expression, InList):
        yield from _column_refs(expression.operand)
        for item in expression.items:
            yield from _column_refs(item)
    elif isinstance(expression, Between):
        yield from _column_refs(expression.operand)
        yield from _column_refs(expression.low)
        yield from _column_refs(expression.high)
    elif isinstance(expression, (Like, IsNull)):
        yield from _column_refs(expression.operand)
    elif isinstance(expression, AggregateCall):
        yield from _column_refs(expression.argument)
    elif isinstance(expression, FunctionCall):
        for arg in expression.args:
            yield from _column_refs(arg)
    elif isinstance(expression, Literal):
        return


#: Public alias: other subsystems (access control, discovery protocols)
#: legitimately need to enumerate the column references of an expression.
def column_refs(expression: Expression | None) -> Iterator[ColumnRef]:
    """Yield every column reference appearing in *expression*."""
    yield from _column_refs(expression)


def _non_aggregate_refs(expression: Expression | None) -> Iterator[ColumnRef]:
    """Column references *outside* any aggregate call."""
    if expression is None:
        return
    if isinstance(expression, AggregateCall):
        return
    if isinstance(expression, ColumnRef):
        yield expression
    elif isinstance(expression, UnaryOp):
        yield from _non_aggregate_refs(expression.operand)
    elif isinstance(expression, BinaryOp):
        yield from _non_aggregate_refs(expression.left)
        yield from _non_aggregate_refs(expression.right)
    elif isinstance(expression, InList):
        yield from _non_aggregate_refs(expression.operand)
        for item in expression.items:
            yield from _non_aggregate_refs(item)
    elif isinstance(expression, Between):
        yield from _non_aggregate_refs(expression.operand)
        yield from _non_aggregate_refs(expression.low)
        yield from _non_aggregate_refs(expression.high)
    elif isinstance(expression, (Like, IsNull)):
        yield from _non_aggregate_refs(expression.operand)
    elif isinstance(expression, FunctionCall):
        for arg in expression.args:
            yield from _non_aggregate_refs(arg)


def validate_statement(statement: SelectStatement, database: Database | None = None) -> None:
    """Static checks: tables exist, columns resolve, grouped SELECT lists
    only reference grouping expressions or aggregates.

    *database* may be None for purely syntactic validation (e.g. on the
    querier side, which has no data)."""
    if database is not None:
        binding_to_table = {}
        for table_ref in statement.from_tables:
            if not database.has_table(table_ref.name):
                raise PlanningError(f"unknown table {table_ref.name!r}")
            binding_to_table[table_ref.binding] = database.table(table_ref.name)
        all_exprs: list[Expression | None] = [
            item.expression for item in statement.select_items
        ]
        all_exprs += [statement.where, statement.having, *statement.group_by]
        for expression in all_exprs:
            for ref in _column_refs(expression):
                _check_ref(ref, binding_to_table)

    if statement.is_aggregate_query():
        if statement.select_star:
            raise PlanningError("SELECT * cannot be combined with aggregation")
        group_names = {
            expr.name for expr in statement.group_by if isinstance(expr, ColumnRef)
        }
        for item in statement.select_items:
            rewritten = rewrite_grouped(item.expression, statement)
            for ref in _non_aggregate_refs(rewritten):
                if ref.table is None and (ref.name in group_names or _is_group_key(ref, statement)):
                    continue
                raise PlanningError(
                    f"column {ref} must appear in GROUP BY or inside an aggregate"
                )
        if statement.having is not None:
            rewritten = rewrite_grouped(statement.having, statement)
            for ref in _non_aggregate_refs(rewritten):
                if ref.table is None and (ref.name in group_names or _is_group_key(ref, statement)):
                    continue
                raise PlanningError(
                    f"HAVING column {ref} must appear in GROUP BY or inside an aggregate"
                )
    elif statement.having is not None:
        raise PlanningError("HAVING requires GROUP BY or aggregates")


def _is_group_key(ref: ColumnRef, statement: SelectStatement) -> bool:
    """True when *ref* is a synthesized reference to a GROUP BY expression
    (produced by :func:`rewrite_grouped`)."""
    return any(ref.name == str(expr) for expr in statement.group_by)


def _check_ref(ref: ColumnRef, binding_to_table: dict[str, Any]) -> None:
    if ref.table is not None:
        table = binding_to_table.get(ref.table)
        if table is None:
            raise PlanningError(f"unknown table binding {ref.table!r} in {ref}")
        if not table.schema.has_column(ref.name):
            raise PlanningError(f"no column {ref.name!r} in table {table.name!r}")
        return
    matches = [
        binding
        for binding, table in binding_to_table.items()
        if table.schema.has_column(ref.name)
    ]
    if not matches:
        raise PlanningError(f"unknown column {ref.name!r}")
    if len(matches) > 1:
        raise PlanningError(f"ambiguous column {ref.name!r} (in {sorted(matches)})")
