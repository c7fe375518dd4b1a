"""Expression evaluation with SQL three-valued logic.

Rows are dictionaries mapping binding names to values; a qualified column
``C.district`` is looked up as ``C.district`` first and ``district`` as a
fallback, so the same evaluator serves single-table rows and joined rows.

NULL handling follows SQL semantics: comparisons and arithmetic involving
NULL yield NULL; ``AND``/``OR`` use Kleene logic; WHERE/HAVING keep a row
only when the predicate is exactly TRUE.

There is one evaluator: :func:`compile` turns an expression into a
closure over rows, so whoever evaluates it against many rows walks the
AST once; :func:`evaluate` is its one-row form.  Whatever can go wrong
(unknown column, type mismatch, division by zero, wrong arity) raises
:class:`EvaluationError` when the closure meets the row, never at
compile time: a predicate no row reaches fails for nobody.
"""

from __future__ import annotations

import operator
import re
from typing import Any, Callable, Mapping

from repro.exceptions import EvaluationError
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
    UnaryOp,
)
from repro.sql.functions import call_scalar

Row = Mapping[str, Any]
#: a compiled expression
Getter = Callable[[Row], Any]


def resolve_column(row: Row, ref: ColumnRef) -> Any:
    """Look up *ref* in *row*, trying qualified then bare names."""
    if ref.table is not None:
        qualified = f"{ref.table}.{ref.name}"
        if qualified in row:
            return row[qualified]
    if ref.name in row:
        return row[ref.name]
    # A bare reference may still match exactly one qualified binding.
    if ref.table is None:
        suffix = f".{ref.name}"
        matches = [key for key in row if key.endswith(suffix)]
        if len(matches) == 1:
            return row[matches[0]]
        if len(matches) > 1:
            raise EvaluationError(f"ambiguous column reference {ref.name!r}")
    raise EvaluationError(f"unknown column {ref}")


def _like_to_regex(pattern: str) -> re.Pattern[str]:
    """Translate a SQL LIKE pattern into an anchored regular expression."""
    out = ["^"]
    for char in pattern:
        if char == "%":
            out.append(".*")
        elif char == "_":
            out.append(".")
        else:
            out.append(re.escape(char))
    out.append("$")
    return re.compile("".join(out), re.DOTALL)


def _divide(left: Any, right: Any) -> Any:
    if right == 0:
        raise EvaluationError("division by zero")
    return left / right


def _modulo(left: Any, right: Any) -> Any:
    if right == 0:
        raise EvaluationError("modulo by zero")
    return left % right


_COMPARISONS: dict[str, Callable[[Any, Any], Any]] = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}
_ARITHMETIC: dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _divide,
    "%": _modulo,
}


def _compare(test: Callable[[Any, Any], Any], left: Any, right: Any) -> bool | None:
    if left is None or right is None:
        return None
    try:
        return test(left, right)
    except TypeError as exc:
        raise EvaluationError(f"cannot compare {left!r} and {right!r}") from exc


def _as_bool(value: Any) -> bool:
    if isinstance(value, bool):
        return value
    raise EvaluationError(f"expected a boolean, got {value!r}")


def _to_tristate(value: Any) -> bool | None:
    if value is None:
        return None
    return _as_bool(value)


def _kleene_and(left: bool | None, right: bool | None) -> bool | None:
    if left is False or right is False:
        return False
    if left is None or right is None:
        return None
    return True


def _kleene_or(left: bool | None, right: bool | None) -> bool | None:
    if left is True or right is True:
        return True
    if left is None or right is None:
        return None
    return False


def _raising(message: str) -> Getter:
    """A node the parser never builds: it fails when it is evaluated,
    like every other evaluation error."""

    def fail(row: Row) -> Any:
        raise EvaluationError(message)

    return fail


def compile(expression: Expression) -> Getter:  # noqa: A001 - the SQL sense
    """Compile *expression* into ``row -> value``.  The row may be a
    grouped row with pre-computed aggregate values keyed by
    ``str(aggregate_call)``."""
    if isinstance(expression, Literal):
        value = expression.value
        return lambda row: value
    if isinstance(expression, ColumnRef):
        ref = expression
        name = str(ref)

        def column(row: Row) -> Any:
            try:
                return row[name]
            except KeyError:
                return resolve_column(row, ref)

        return column
    if isinstance(expression, AggregateCall):
        key = str(expression)

        def aggregate(row: Row) -> Any:
            try:
                return row[key]
            except KeyError:
                raise EvaluationError(
                    f"aggregate {key} evaluated outside a grouped context"
                ) from None

        return aggregate
    if isinstance(expression, UnaryOp):
        return _compile_unary(expression.op, compile(expression.operand))
    if isinstance(expression, BinaryOp):
        return _compile_binary(
            expression.op, compile(expression.left), compile(expression.right)
        )
    if isinstance(expression, FunctionCall):
        function = expression.name
        args = [compile(arg) for arg in expression.args]
        return lambda row: call_scalar(function, [arg(row) for arg in args])
    if not isinstance(expression, (InList, Between, Like, IsNull)):
        return _raising(f"cannot evaluate node {type(expression).__name__}")
    operand = compile(expression.operand)
    negated = expression.negated
    if isinstance(expression, IsNull):
        return lambda row: (operand(row) is None) != negated
    if isinstance(expression, Like):
        pattern = _like_to_regex(expression.pattern)

        def like(row: Row) -> bool | None:
            value = operand(row)
            if value is None:
                return None
            if not isinstance(value, str):
                raise EvaluationError(
                    f"LIKE requires a string operand, got {value!r}"
                )
            return bool(pattern.match(value)) != negated

        return like
    if isinstance(expression, Between):
        low, high = compile(expression.low), compile(expression.high)

        def between(row: Row) -> bool | None:
            value, lowest, highest = operand(row), low(row), high(row)
            result = _kleene_and(
                _compare(operator.ge, value, lowest),
                _compare(operator.le, value, highest),
            )
            return None if result is None else result != negated

        return between
    items = [compile(item) for item in expression.items]

    def membership(row: Row) -> bool | None:
        value = operand(row)
        if value is None:
            return None
        saw_null = False
        for item in items:
            candidate = item(row)
            if candidate is None:
                saw_null = True
            elif candidate == value:
                return not negated
        return None if saw_null else negated

    return membership


def evaluate(expression: Expression, row: Row) -> Any:
    """Evaluate *expression* against one *row*."""
    return compile(expression)(row)


def _compile_unary(op: str, operand: Getter) -> Getter:
    if op == "NOT":

        def negation(row: Row) -> bool | None:
            value = operand(row)
            return None if value is None else not _as_bool(value)

        return negation
    if op not in ("-", "+"):
        return _raising(f"unknown unary operator {op!r}")
    sign = operator.neg if op == "-" else operator.pos

    def signed(row: Row) -> Any:
        value = operand(row)
        return None if value is None else sign(value)

    return signed


def _compile_binary(op: str, left: Getter, right: Getter) -> Getter:
    if op == "AND":

        def conjunction(row: Row) -> bool | None:
            first = _to_tristate(left(row))
            if first is False:
                return False
            return _kleene_and(first, _to_tristate(right(row)))

        return conjunction
    if op == "OR":

        def disjunction(row: Row) -> bool | None:
            first = _to_tristate(left(row))
            if first is True:
                return True
            return _kleene_or(first, _to_tristate(right(row)))

        return disjunction
    if op in _COMPARISONS:
        test = _COMPARISONS[op]
        return lambda row: _compare(test, left(row), right(row))
    if op not in _ARITHMETIC:
        return _raising(f"unknown arithmetic operator {op!r}")
    apply = _ARITHMETIC[op]

    def arithmetic(row: Row) -> Any:
        a, b = left(row), right(row)
        if a is None or b is None:
            return None
        try:
            return apply(a, b)
        except TypeError as exc:
            raise EvaluationError(
                f"bad operand types for {op!r}: {a!r}, {b!r}"
            ) from exc

    return arithmetic


def is_true(value: Any) -> bool:
    """WHERE/HAVING predicate check: only an exact TRUE keeps the row."""
    return value is True
