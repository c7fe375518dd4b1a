"""Recursive-descent parser for the paper's SQL dialect.

Grammar (informal)::

    statement   := SELECT select_list FROM table_list [WHERE expr]
                   [GROUP BY expr_list] [HAVING expr] [SIZE size_spec] EOF
    select_list := '*' | select_item (',' select_item)*
    select_item := expr [[AS] identifier]
    table_list  := table_ref (',' table_ref)*
    table_ref   := identifier [identifier]          -- optional alias
    size_spec   := INTEGER [TUPLES|SECONDS] (',' INTEGER [TUPLES|SECONDS])*

    expr        := or_expr
    or_expr     := and_expr (OR and_expr)*
    and_expr    := not_expr (AND not_expr)*
    not_expr    := NOT not_expr | predicate
    predicate   := additive [comparison | IN | BETWEEN | LIKE | IS NULL]
    additive    := multiplicative (('+'|'-') multiplicative)*
    multiplicative := unary (('*'|'/'|'%') unary)*
    unary       := ('-'|'+') unary | primary
    primary     := literal | aggregate | column | '(' expr ')'
"""

from __future__ import annotations

import functools

from repro.exceptions import SQLSyntaxError
from repro.sql.ast import (
    AGGREGATE_FUNCTIONS,
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
    SelectItem,
    SelectStatement,
    SizeClause,
    TableRef,
    UnaryOp,
)
from repro.sql.functions import is_scalar_function
from repro.sql.lexer import Token, TokenType, tokenize

_COMPARISON_OPS = {"=", "<>", "!=", "<", "<=", ">", ">="}


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._index = 0

    # ------------------------------------------------------------------ #
    # token helpers
    # ------------------------------------------------------------------ #
    @property
    def _current(self) -> Token:
        return self._tokens[self._index]

    def _advance(self) -> Token:
        token = self._current
        if token.type is not TokenType.EOF:
            self._index += 1
        return token

    def _error(self, message: str) -> SQLSyntaxError:
        token = self._current
        shown = token.value or "<end of query>"
        return SQLSyntaxError(f"{message} (found {shown!r})", token.position)

    def _expect_keyword(self, name: str) -> Token:
        if not self._current.is_keyword(name):
            raise self._error(f"expected {name}")
        return self._advance()

    def _expect_punct(self, char: str) -> Token:
        token = self._current
        if token.type is not TokenType.PUNCTUATION or token.value != char:
            raise self._error(f"expected {char!r}")
        return self._advance()

    def _match_keyword(self, *names: str) -> Token | None:
        if self._current.is_keyword(*names):
            return self._advance()
        return None

    def _match_punct(self, char: str) -> Token | None:
        token = self._current
        if token.type is TokenType.PUNCTUATION and token.value == char:
            return self._advance()
        return None

    def _match_operator(self, *ops: str) -> Token | None:
        token = self._current
        if token.type is TokenType.OPERATOR and token.value in ops:
            return self._advance()
        return None

    # ------------------------------------------------------------------ #
    # statement
    # ------------------------------------------------------------------ #
    def parse_statement(self) -> SelectStatement:
        self._expect_keyword("SELECT")
        select_star = False
        items: list[SelectItem] = []
        if self._match_operator("*"):
            select_star = True
        else:
            items.append(self._parse_select_item())
            while self._match_punct(","):
                items.append(self._parse_select_item())

        self._expect_keyword("FROM")
        tables = [self._parse_table_ref()]
        while self._match_punct(","):
            tables.append(self._parse_table_ref())

        where = None
        if self._match_keyword("WHERE"):
            where = self.parse_expression()

        group_by: list[Expression] = []
        if self._match_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by.append(self.parse_expression())
            while self._match_punct(","):
                group_by.append(self.parse_expression())

        having = None
        if self._match_keyword("HAVING"):
            having = self.parse_expression()

        size = None
        if self._match_keyword("SIZE"):
            size = self._parse_size_clause()

        if self._current.type is not TokenType.EOF:
            raise self._error("unexpected trailing input")
        return SelectStatement(
            select_items=tuple(items),
            from_tables=tuple(tables),
            where=where,
            group_by=tuple(group_by),
            having=having,
            size=size,
            select_star=select_star,
        )

    def _parse_select_item(self) -> SelectItem:
        expression = self.parse_expression()
        alias = None
        if self._match_keyword("AS"):
            token = self._current
            if token.type is not TokenType.IDENTIFIER:
                raise self._error("expected alias after AS")
            alias = self._advance().value
        elif self._current.type is TokenType.IDENTIFIER:
            alias = self._advance().value
        return SelectItem(expression, alias)

    def _parse_table_ref(self) -> TableRef:
        token = self._current
        if token.type is not TokenType.IDENTIFIER:
            raise self._error("expected table name")
        name = self._advance().value
        alias = None
        if self._current.type is TokenType.IDENTIFIER:
            alias = self._advance().value
        return TableRef(name, alias)

    def _parse_size_clause(self) -> SizeClause:
        max_tuples: int | None = None
        max_seconds: float | None = None
        while True:
            token = self._current
            if token.type not in (TokenType.INTEGER, TokenType.FLOAT):
                raise self._error("expected a number in SIZE clause")
            self._advance()
            if self._match_keyword("SECONDS"):
                if max_seconds is not None:
                    raise self._error("duplicate SECONDS bound in SIZE clause")
                max_seconds = float(token.value)
            else:
                self._match_keyword("TUPLES")
                if max_tuples is not None:
                    raise self._error("duplicate TUPLES bound in SIZE clause")
                if token.type is TokenType.FLOAT:
                    raise self._error("tuple bound must be an integer")
                max_tuples = int(token.value)
            if not self._match_punct(","):
                break
        return SizeClause(max_tuples=max_tuples, max_seconds=max_seconds)

    # ------------------------------------------------------------------ #
    # expressions
    # ------------------------------------------------------------------ #
    def parse_expression(self) -> Expression:
        return self._parse_or()

    def _parse_or(self) -> Expression:
        left = self._parse_and()
        while self._match_keyword("OR"):
            left = BinaryOp("OR", left, self._parse_and())
        return left

    def _parse_and(self) -> Expression:
        left = self._parse_not()
        while self._match_keyword("AND"):
            left = BinaryOp("AND", left, self._parse_not())
        return left

    def _parse_not(self) -> Expression:
        if self._match_keyword("NOT"):
            return UnaryOp("NOT", self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> Expression:
        left = self._parse_additive()
        op_token = self._match_operator(*_COMPARISON_OPS)
        if op_token is not None:
            op = "<>" if op_token.value == "!=" else op_token.value
            return BinaryOp(op, left, self._parse_additive())

        negated = bool(self._match_keyword("NOT"))
        if self._match_keyword("IN"):
            self._expect_punct("(")
            items = [self.parse_expression()]
            while self._match_punct(","):
                items.append(self.parse_expression())
            self._expect_punct(")")
            return InList(left, tuple(items), negated=negated)
        if self._match_keyword("BETWEEN"):
            low = self._parse_additive()
            self._expect_keyword("AND")
            high = self._parse_additive()
            return Between(left, low, high, negated=negated)
        if self._match_keyword("LIKE"):
            token = self._current
            if token.type is not TokenType.STRING:
                raise self._error("expected string pattern after LIKE")
            self._advance()
            return Like(left, token.value, negated=negated)
        if negated:
            raise self._error("expected IN, BETWEEN or LIKE after NOT")
        if self._match_keyword("IS"):
            is_negated = bool(self._match_keyword("NOT"))
            self._expect_keyword("NULL")
            return IsNull(left, negated=is_negated)
        return left

    def _parse_additive(self) -> Expression:
        left = self._parse_multiplicative()
        while True:
            op_token = self._match_operator("+", "-")
            if op_token is None:
                return left
            left = BinaryOp(op_token.value, left, self._parse_multiplicative())

    def _parse_multiplicative(self) -> Expression:
        left = self._parse_unary()
        while True:
            op_token = self._match_operator("*", "/", "%")
            if op_token is None:
                return left
            left = BinaryOp(op_token.value, left, self._parse_unary())

    def _parse_unary(self) -> Expression:
        op_token = self._match_operator("-", "+")
        if op_token is not None:
            operand = self._parse_unary()
            # fold the sign into numeric literals so "-1" is Literal(-1),
            # keeping text rendering and parsing symmetric
            if (
                op_token.value == "-"
                and isinstance(operand, Literal)
                and isinstance(operand.value, (int, float))
                and not isinstance(operand.value, bool)
            ):
                return Literal(-operand.value)
            return UnaryOp(op_token.value, operand)
        return self._parse_primary()

    def _parse_primary(self) -> Expression:
        token = self._current
        if token.type is TokenType.INTEGER:
            self._advance()
            return Literal(int(token.value))
        if token.type is TokenType.FLOAT:
            self._advance()
            return Literal(float(token.value))
        if token.type is TokenType.STRING:
            self._advance()
            return Literal(token.value)
        if token.is_keyword("NULL"):
            self._advance()
            return Literal(None)
        if token.is_keyword("TRUE"):
            self._advance()
            return Literal(True)
        if token.is_keyword("FALSE"):
            self._advance()
            return Literal(False)
        if token.is_keyword(*AGGREGATE_FUNCTIONS):
            return self._parse_aggregate()
        if self._match_punct("("):
            inner = self.parse_expression()
            self._expect_punct(")")
            return inner
        if token.type is TokenType.IDENTIFIER:
            self._advance()
            if self._match_punct("("):
                return self._parse_scalar_function(token.value)
            if self._match_punct("."):
                column = self._current
                if column.type is not TokenType.IDENTIFIER:
                    raise self._error("expected column name after '.'")
                self._advance()
                return ColumnRef(column.value, table=token.value)
            return ColumnRef(token.value)
        raise self._error("expected an expression")

    def _parse_scalar_function(self, name: str) -> Expression:
        upper = name.upper()
        if not is_scalar_function(upper):
            raise SQLSyntaxError(f"unknown function {name!r}")
        args: list[Expression] = []
        if not self._match_punct(")"):
            args.append(self.parse_expression())
            while self._match_punct(","):
                args.append(self.parse_expression())
            self._expect_punct(")")
        return FunctionCall(upper, tuple(args))

    def _parse_aggregate(self) -> Expression:
        function = self._advance().value
        self._expect_punct("(")
        if self._match_operator("*"):
            if function != "COUNT":
                raise self._error(f"{function}(*) is not valid")
            self._expect_punct(")")
            return AggregateCall("COUNT", None)
        distinct = bool(self._match_keyword("DISTINCT"))
        argument = self.parse_expression()
        self._expect_punct(")")
        return AggregateCall(function, argument, distinct=distinct)


@functools.lru_cache(maxsize=256)
def parse(text: str) -> SelectStatement:
    """Parse *text* into a :class:`SelectStatement`.

    Memoised by statement text: every TDS of a fleet parses the text of
    every query, and streaming windows re-post one text.  The AST is
    frozen dataclasses over tuples, so sharing one is safe; syntax
    errors are raised afresh each time.

    >>> stmt = parse("SELECT AVG(Cons) FROM Power GROUP BY district SIZE 100")
    >>> stmt.is_aggregate_query()
    True
    """
    return _Parser(tokenize(text)).parse_statement()


def parse_expression(text: str) -> Expression:
    """Parse a standalone expression (used by tests and tools)."""
    parser = _Parser(tokenize(text))
    expression = parser.parse_expression()
    if parser._current.type is not TokenType.EOF:
        raise SQLSyntaxError("unexpected trailing input", parser._current.position)
    return expression
