"""Recursive-descent SQL parser.

Supported grammar (enough for the paper's workloads, the transformation
queries of §2, the cache-reuse queries of §5, and general testing):

.. code-block:: text

   query      := SELECT [DISTINCT] item ("," item)*
                 FROM tableRef ("," tableRef)*
                 [WHERE expr] [GROUP BY expr ("," expr)*] [HAVING expr]
                 [ORDER BY orderItem ("," orderItem)*] [LIMIT int]
   item       := "*" | expr [[AS] ident]
   tableRef   := primaryRef (joinClause)*
   joinClause := [INNER | LEFT [OUTER]] JOIN primaryRef ON expr
   primaryRef := ident [[AS] ident]
               | TABLE "(" ident "(" tfInput ("," expr)* ")" ")" [[AS] ident]
               | "(" query ")" [AS] ident
   tfInput    := ident | "(" query ")"
   expr       := or-expr with AND/OR/NOT, comparisons, IS [NOT] NULL,
                 [NOT] IN, [NOT] BETWEEN, [NOT] LIKE, + - * / %,
                 CASE WHEN, function calls, literals, column refs
"""

from repro.common.errors import ParseError
from repro.sql.ast import (
    Join,
    NamedTable,
    OrderItem,
    SelectItem,
    SelectQuery,
    SubqueryRef,
    TableFunction,
    TableRef,
    UnionAll,
)
from repro.sql.expressions import (
    AGGREGATE_FUNCTIONS,
    AggregateCall,
    And,
    Arithmetic,
    Between,
    CaseWhen,
    ColumnRef,
    Comparison,
    Expr,
    FuncCall,
    InList,
    IsNull,
    Like,
    Literal,
    Negate,
    Not,
    Or,
    Star,
)
from repro.sql.lexer import Token, tokenize


def parse(sql: str) -> "SelectQuery | UnionAll":
    """Parse SQL text into a query AST (raises ParseError).

    Returns a :class:`SelectQuery`, or a :class:`UnionAll` when the text
    contains top-level ``UNION ALL`` branches.
    """
    return Parser(tokenize(sql)).parse_statement()


def parse_expression(sql: str) -> Expr:
    """Parse a standalone scalar/boolean expression (for tests and tools)."""
    parser = Parser(tokenize(sql))
    expr = parser.parse_expr()
    parser.expect_eof()
    return expr


class Parser:
    """One-token-lookahead recursive-descent parser over a token list."""

    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    # ------------------------------------------------------------- plumbing

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind != "eof":
            self._pos += 1
        return token

    def _accept_keyword(self, word: str) -> bool:
        if self._peek().is_keyword(word):
            self._advance()
            return True
        return False

    def _accept_op(self, op: str) -> bool:
        if self._peek().is_op(op):
            self._advance()
            return True
        return False

    def _expect_keyword(self, word: str) -> None:
        token = self._peek()
        if not token.is_keyword(word):
            raise ParseError(f"expected {word.upper()}, found {token.value!r}", token.position)
        self._advance()

    def _expect_op(self, op: str) -> None:
        token = self._peek()
        if not token.is_op(op):
            raise ParseError(f"expected {op!r}, found {token.value!r}", token.position)
        self._advance()

    def _expect_ident(self) -> str:
        token = self._peek()
        if token.kind != "ident":
            raise ParseError(f"expected identifier, found {token.value!r}", token.position)
        self._advance()
        return token.value

    def expect_eof(self) -> None:
        token = self._peek()
        if token.kind == "op" and token.value == ";":
            self._advance()
            token = self._peek()
        if token.kind != "eof":
            raise ParseError(f"unexpected trailing input {token.value!r}", token.position)

    # ------------------------------------------------------------ statement

    def parse_statement(self) -> "SelectQuery | UnionAll":
        query = self._parse_query()
        self.expect_eof()
        return query

    def _parse_query(self) -> "SelectQuery | UnionAll":
        branches = [self._parse_select()]
        while self._accept_keyword("union"):
            self._expect_keyword("all")
            branches.append(self._parse_select())
        if len(branches) == 1:
            return branches[0]
        return UnionAll(tuple(branches))

    def _parse_select(self) -> SelectQuery:
        self._expect_keyword("select")
        distinct = self._accept_keyword("distinct")
        items = [self._parse_select_item()]
        while self._accept_op(","):
            items.append(self._parse_select_item())
        self._expect_keyword("from")
        from_refs = [self._parse_table_ref()]
        while self._accept_op(","):
            from_refs.append(self._parse_table_ref())
        where = self.parse_expr() if self._accept_keyword("where") else None
        group_by: list[Expr] = []
        if self._accept_keyword("group"):
            self._expect_keyword("by")
            group_by.append(self.parse_expr())
            while self._accept_op(","):
                group_by.append(self.parse_expr())
        having = self.parse_expr() if self._accept_keyword("having") else None
        order_by: list[OrderItem] = []
        if self._accept_keyword("order"):
            self._expect_keyword("by")
            order_by.append(self._parse_order_item())
            while self._accept_op(","):
                order_by.append(self._parse_order_item())
        limit = None
        if self._accept_keyword("limit"):
            token = self._peek()
            if token.kind != "number" or "." in token.value:
                raise ParseError("LIMIT requires an integer", token.position)
            self._advance()
            limit = int(token.value)
        return SelectQuery(
            items=tuple(items),
            from_refs=tuple(from_refs),
            where=where,
            group_by=tuple(group_by),
            having=having,
            order_by=tuple(order_by),
            limit=limit,
            distinct=distinct,
        )

    def _parse_select_item(self) -> SelectItem:
        if self._peek().is_op("*"):
            self._advance()
            return SelectItem(Star())
        expr = self.parse_expr()
        alias = None
        if self._accept_keyword("as"):
            alias = self._expect_ident()
        elif self._peek().kind == "ident":
            alias = self._expect_ident()
        return SelectItem(expr, alias)

    def _parse_order_item(self) -> OrderItem:
        expr = self.parse_expr()
        ascending = True
        if self._accept_keyword("desc"):
            ascending = False
        else:
            self._accept_keyword("asc")
        return OrderItem(expr, ascending)

    # ----------------------------------------------------------- table refs

    def _parse_table_ref(self) -> TableRef:
        ref = self._parse_primary_ref()
        while True:
            kind = None
            if self._accept_keyword("join") or (
                self._accept_keyword("inner") and (self._expect_keyword("join") or True)
            ):
                kind = "inner"
            elif self._peek().is_keyword("left"):
                self._advance()
                self._accept_keyword("outer")
                self._expect_keyword("join")
                kind = "left"
            if kind is None:
                return ref
            right = self._parse_primary_ref()
            self._expect_keyword("on")
            condition = self.parse_expr()
            ref = Join(left=ref, right=right, kind=kind, condition=condition)

    def _parse_primary_ref(self) -> TableRef:
        token = self._peek()
        if token.is_keyword("table"):
            return self._parse_table_function()
        if token.is_op("("):
            self._advance()
            query = self._parse_query()
            self._expect_op(")")
            self._accept_keyword("as")
            alias = self._expect_ident()
            return SubqueryRef(query, alias)
        name = self._expect_ident()
        alias = None
        if self._accept_keyword("as"):
            alias = self._expect_ident()
        elif self._peek().kind == "ident":
            alias = self._expect_ident()
        return NamedTable(name, alias)

    def _parse_table_function(self) -> TableFunction:
        self._expect_keyword("table")
        self._expect_op("(")
        udf_name = self._expect_ident()
        self._expect_op("(")
        input_ref = self._parse_tf_input()
        args: list[Expr] = []
        while self._accept_op(","):
            args.append(self.parse_expr())
        self._expect_op(")")
        self._expect_op(")")
        alias = None
        if self._accept_keyword("as"):
            alias = self._expect_ident()
        elif self._peek().kind == "ident":
            alias = self._expect_ident()
        return TableFunction(udf_name, input_ref, tuple(args), alias)

    def _parse_tf_input(self) -> TableRef:
        if self._accept_op("("):
            query = self._parse_select()
            self._expect_op(")")
            return SubqueryRef(query, alias="_tf_input")
        name = self._expect_ident()
        return NamedTable(name, None)

    # ---------------------------------------------------------- expressions

    def parse_expr(self) -> Expr:
        return self._parse_or()

    def _parse_or(self) -> Expr:
        operands = [self._parse_and()]
        while self._accept_keyword("or"):
            operands.append(self._parse_and())
        if len(operands) == 1:
            return operands[0]
        return Or(tuple(operands))

    def _parse_and(self) -> Expr:
        operands = [self._parse_not()]
        while self._accept_keyword("and"):
            operands.append(self._parse_not())
        if len(operands) == 1:
            return operands[0]
        return And(tuple(operands))

    def _parse_not(self) -> Expr:
        if self._accept_keyword("not"):
            return Not(self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> Expr:
        left = self._parse_additive()
        token = self._peek()
        if token.kind == "op" and token.value in ("=", "<>", "<", "<=", ">", ">="):
            self._advance()
            right = self._parse_additive()
            return Comparison(token.value, left, right)
        if token.is_keyword("is"):
            self._advance()
            negated = self._accept_keyword("not")
            self._expect_keyword("null")
            return IsNull(left, negated)
        negated = False
        if token.is_keyword("not"):
            self._advance()
            negated = True
            token = self._peek()
        if token.is_keyword("in"):
            self._advance()
            self._expect_op("(")
            values = [self.parse_expr()]
            while self._accept_op(","):
                values.append(self.parse_expr())
            self._expect_op(")")
            return InList(left, tuple(values), negated)
        if token.is_keyword("between"):
            self._advance()
            low = self._parse_additive()
            self._expect_keyword("and")
            high = self._parse_additive()
            return Between(left, low, high, negated)
        if token.is_keyword("like"):
            self._advance()
            pattern_token = self._peek()
            if pattern_token.kind != "string":
                raise ParseError("LIKE requires a string pattern", pattern_token.position)
            self._advance()
            return Like(left, pattern_token.value, negated)
        if negated:
            raise ParseError("NOT must be followed by IN, BETWEEN, or LIKE here", token.position)
        return left

    def _parse_additive(self) -> Expr:
        left = self._parse_multiplicative()
        while True:
            token = self._peek()
            if token.kind == "op" and token.value in ("+", "-"):
                self._advance()
                right = self._parse_multiplicative()
                left = Arithmetic(token.value, left, right)
            else:
                return left

    def _parse_multiplicative(self) -> Expr:
        left = self._parse_unary()
        while True:
            token = self._peek()
            if token.kind == "op" and token.value in ("*", "/", "%"):
                self._advance()
                right = self._parse_unary()
                left = Arithmetic(token.value, left, right)
            else:
                return left

    def _parse_unary(self) -> Expr:
        if self._accept_op("-"):
            operand = self._parse_unary()
            # Fold a minus applied to a numeric literal into the literal, so
            # "-5" roundtrips as Literal(-5) rather than Negate(Literal(5)).
            if isinstance(operand, Literal) and isinstance(operand.value, (int, float)):
                return Literal(-operand.value)
            return Negate(operand)
        if self._accept_op("+"):
            return self._parse_unary()
        return self._parse_primary()

    def _parse_primary(self) -> Expr:
        token = self._peek()
        if token.kind == "number":
            self._advance()
            text = token.value
            if "." in text or "e" in text.lower():
                return Literal(float(text))
            return Literal(int(text))
        if token.kind == "string":
            self._advance()
            return Literal(token.value)
        if token.is_keyword("null"):
            self._advance()
            return Literal(None)
        if token.is_keyword("true"):
            self._advance()
            return Literal(True)
        if token.is_keyword("false"):
            self._advance()
            return Literal(False)
        if token.is_keyword("case"):
            return self._parse_case()
        if token.is_op("("):
            self._advance()
            expr = self.parse_expr()
            self._expect_op(")")
            return expr
        if token.kind == "ident":
            return self._parse_ident_expr()
        raise ParseError(f"unexpected token {token.value!r}", token.position)

    def _parse_case(self) -> Expr:
        self._expect_keyword("case")
        whens: list[tuple[Expr, Expr]] = []
        while self._accept_keyword("when"):
            condition = self.parse_expr()
            self._expect_keyword("then")
            result = self.parse_expr()
            whens.append((condition, result))
        if not whens:
            raise ParseError("CASE requires at least one WHEN", self._peek().position)
        otherwise = None
        if self._accept_keyword("else"):
            otherwise = self.parse_expr()
        self._expect_keyword("end")
        return CaseWhen(tuple(whens), otherwise)

    def _parse_ident_expr(self) -> Expr:
        name = self._expect_ident()
        if self._accept_op("("):
            return self._finish_call(name)
        if self._accept_op("."):
            column = self._expect_ident()
            return ColumnRef(name, column)
        return ColumnRef(None, name)

    def _finish_call(self, name: str) -> Expr:
        lowered = name.lower()
        distinct = False
        args: list[Expr] = []
        if self._peek().is_op(")"):
            self._advance()
            if lowered in AGGREGATE_FUNCTIONS:
                raise ParseError(f"{name} requires an argument", self._peek().position)
            return FuncCall(lowered, ())
        if lowered in AGGREGATE_FUNCTIONS and self._accept_keyword("distinct"):
            distinct = True
        if self._peek().is_op("*"):
            self._advance()
            self._expect_op(")")
            if lowered != "count":
                raise ParseError(f"{name}(*) is only valid for COUNT", self._peek().position)
            return AggregateCall("count", Star(), distinct)
        args.append(self.parse_expr())
        while self._accept_op(","):
            args.append(self.parse_expr())
        self._expect_op(")")
        if lowered in AGGREGATE_FUNCTIONS:
            if len(args) != 1:
                raise ParseError(f"{name} takes exactly one argument", self._peek().position)
            return AggregateCall(lowered, args[0], distinct)
        return FuncCall(lowered, tuple(args))
