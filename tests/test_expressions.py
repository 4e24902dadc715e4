import random

import pytest

from stockflow.expressions import (
    BinOp,
    EvalError,
    Ident,
    Num,
    ParseError,
    Unary,
    compile_expression,
    format_expression,
    identifiers,
    parse_expression,
)


def _ops(expr) -> int:
    if isinstance(expr, (Num, Ident)):
        return 0
    if isinstance(expr, Unary):
        return 1 + _ops(expr.operand)
    return 1 + _ops(expr.left) + _ops(expr.right)


def test_incidence_formula_shape():
    expr = parse_expression("beta*S*I/N")
    assert _ops(expr) == 3
    assert identifiers(expr) == {"beta", "S", "I", "N"}


def test_division_node():
    expr = parse_expression("E/tlatent")
    assert isinstance(expr, BinOp) and expr.op == "/"


def test_parenthesis_elimination():
    assert parse_expression("((S))") == Ident("S")


def test_precedence_and_associativity():
    assert compile_expression(parse_expression("2+3*4"))({}) == 14.0
    assert compile_expression(parse_expression("2^3^2"))({}) == 512.0  # right-assoc
    assert compile_expression(parse_expression("-2^2"))({}) == -4.0
    assert compile_expression(parse_expression("(2+3)*4"))({}) == 20.0
    assert compile_expression(parse_expression("10-4-3"))({}) == 3.0  # left-assoc
    assert compile_expression(parse_expression("2*-3"))({}) == -6.0


def test_syntax_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_expression("a+*b")
    assert err.value.position == 2
    with pytest.raises(ParseError):
        parse_expression("a$b")
    with pytest.raises(ParseError):
        parse_expression("(a+b")
    with pytest.raises(ParseError):
        parse_expression("")
    with pytest.raises(ParseError):
        parse_expression("a b")


def test_eval_incidence_at_measles_values():
    env = {"beta": 49.598, "S": 89070.0, "I": 930.0, "N": 863545.0}
    got = compile_expression(parse_expression("beta*S*I/N"))(env)
    assert got == 49.598 * 89070.0 * 930.0 / 863545.0


def test_time_symbol_is_plain_binding():
    assert compile_expression(parse_expression("t"))({"t": 3.5}) == 3.5


def test_division_by_zero_is_an_error():
    with pytest.raises(EvalError):
        compile_expression(parse_expression("I/trec"))({"I": 1.0, "trec": 0.0})


def test_unbound_identifier():
    with pytest.raises(EvalError):
        compile_expression(parse_expression("a+b"))({"a": 1.0})


def test_scientific_notation():
    assert compile_expression(parse_expression("1e-8+2.5E2"))({}) == 1e-8 + 250.0


def _random_tree(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Num(float(rng.randint(0, 99)) / 4.0)
        return Ident(rng.choice("abcxyz"))
    kind = rng.random()
    if kind < 0.15:
        return Unary(_random_tree(rng, depth - 1))
    op = rng.choice("+-*/^")
    return BinOp(op, _random_tree(rng, depth - 1), _random_tree(rng, depth - 1))


def test_format_parse_round_trip():
    rng = random.Random(11)
    for _ in range(300):
        tree = _random_tree(rng, 4)
        text = format_expression(tree)
        assert parse_expression(text) == tree, text


def test_format_of_models_is_stable():
    for text in ("mu*N", "beta*S*I/N", "E/tlatent", "beta*V*I*(1.0-e)/N",
                 "betaF*SF*(ff*NINI_F/NSNS_F+fm*NINI_M/NSNS_M)"):
        tree = parse_expression(text)
        once = format_expression(tree)
        assert format_expression(parse_expression(once)) == once
