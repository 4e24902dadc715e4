"""Arithmetic expression trees for auxiliary-variable formulas.

The grammar covers what rate formulas need: numeric literals, identifiers
(stocks, sum variables, parameters, the time symbol ``t``), the infix
operators ``+ - * / ^`` with usual precedence (``^`` binds tightest and is
right-associative), unary minus and parentheses.
"""
from __future__ import annotations

import math
import re
from typing import Callable, Mapping, NamedTuple, Union

Expression = Union["Num", "Ident", "Unary", "BinOp"]


# Tree nodes are NamedTuples: immutable, hashable and compared by value.
class Num(NamedTuple):
    value: float


class Ident(NamedTuple):
    name: str


class Unary(NamedTuple):
    operand: Expression  # unary minus


class BinOp(NamedTuple):
    op: str  # one of + - * / ^
    left: Expression
    right: Expression


class ExpressionError(Exception):
    pass


class ParseError(ExpressionError):
    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} at position {position}")
        self.position = position


class EvalError(ExpressionError):
    pass


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", pos + len(text[pos:]) - len(stripped))
        kind = m.lastgroup or ""
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens = _tokenize(text)
        self.k = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.k]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", pos)
        self.next()

    def parse(self) -> Expression:
        expr = self.sum()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {value!r}", pos)
        return expr

    def sum(self) -> Expression:
        expr = self.product()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.next()
                expr = BinOp(value, expr, self.product())
            else:
                return expr

    def product(self) -> Expression:
        expr = self.unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.next()
                expr = BinOp(value, expr, self.unary())
            else:
                return expr

    def unary(self) -> Expression:
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.next()
            return Unary(self.unary())
        return self.power()

    def power(self) -> Expression:
        base = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.next()
            return BinOp("^", base, self.unary())  # right-associative
        return base

    def atom(self) -> Expression:
        kind, value, pos = self.next()
        if kind == "num":
            number = float(value)
            if number != number or number in (float("inf"), float("-inf")):
                raise ParseError(f"literal {value!r} overflows a double", pos)
            return Num(number)
        if kind == "ident":
            return Ident(value)
        if kind == "op" and value == "(":
            expr = self.sum()
            self.expect_op(")")
            return expr
        raise ParseError(f"expected a value, found {value!r}" if value else "unexpected end of input", pos)


def parse_expression(text: str) -> Expression:
    return _Parser(text).parse()


def identifiers(expr: Expression) -> set[str]:
    if isinstance(expr, Num):
        return set()
    if isinstance(expr, Ident):
        return {expr.name}
    if isinstance(expr, Unary):
        return identifiers(expr.operand)
    return identifiers(expr.left) | identifiers(expr.right)


def compile_expression(expr: Expression) -> Callable[[Mapping[str, float]], float]:
    """Turn a tree into a closure over an environment mapping."""
    if isinstance(expr, Num):
        value = expr.value
        return lambda env: value
    if isinstance(expr, Ident):
        key = expr.name
        def lookup(env: Mapping[str, float], key=key) -> float:
            try:
                return env[key]
            except KeyError:
                raise EvalError(f"unbound identifier {key!r}") from None
        return lookup
    if isinstance(expr, Unary):
        inner = compile_expression(expr.operand)
        return lambda env: -inner(env)
    left = compile_expression(expr.left)
    right = compile_expression(expr.right)
    op = expr.op
    if op == "+":
        return lambda env: left(env) + right(env)
    if op == "-":
        return lambda env: left(env) - right(env)
    if op == "*":
        return lambda env: left(env) * right(env)
    if op == "/":
        def divide(env: Mapping[str, float]) -> float:
            denom = right(env)
            if denom == 0.0:
                raise EvalError("division by zero")
            return left(env) / denom
        return divide
    if op == "^":
        def power(env: Mapping[str, float]) -> float:
            base, exponent = left(env), right(env)
            try:
                value = base ** exponent
            except OverflowError:
                reason = "overflows a double"
            except ZeroDivisionError:
                reason = "raises zero to a negative power"
            else:
                if not isinstance(value, complex):
                    return value
                reason = "has a complex value"
            raise EvalError(f"({base!r})^({exponent!r}) {reason}")
        return power
    raise ExpressionError(f"unknown operator {op!r}")


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}


def format_expression(expr: Expression) -> str:
    """Deterministic text form; parse(format(e)) rebuilds the same tree."""
    return _format(expr, 0)


def _format(expr: Expression, parent_level: int) -> str:
    if isinstance(expr, Num):
        if math.copysign(1.0, expr.value) < 0:
            # The grammar has no negative literals; print as a negation.
            return _format(Unary(Num(-expr.value)), parent_level)
        return repr(expr.value)
    if isinstance(expr, Ident):
        return expr.name
    if isinstance(expr, Unary):
        # The operand needs parens unless it binds at least as tightly as ^,
        # otherwise "-a*b" would re-parse as (-a)*b instead of -(a*b).
        text = "-" + _format(expr.operand, 3)
        return f"({text})" if parent_level > 2 else text
    level = _PRECEDENCE[expr.op]
    if expr.op == "^":
        # Right-associative; the left side must be an atom to re-parse as-is.
        left = _format(expr.left, 4)
        right = _format(expr.right, 3)
    else:
        left = _format(expr.left, level)
        # +1 forces parens on right-nested same-precedence operands.
        right = _format(expr.right, level + 1)
    text = f"{left}{expr.op}{right}"
    return f"({text})" if parent_level > level else text
