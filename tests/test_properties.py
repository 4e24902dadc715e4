"""Laws checked on generated inputs: canonical bundle text and the
expression print/parse round trip."""
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from stockflow import bundle as bio
from stockflow.expressions import BinOp, Ident, Num, Unary, format_expression, parse_expression

# Names with what JSON must escape or keep verbatim: quotes, backslashes,
# control characters, line separators and non-ASCII text.
names = st.text(
    st.characters(exclude_categories=("Cs",)) | st.sampled_from('"\\\x00\x1f\x7f\n\t\u2028é€😀'),
    max_size=4,
)
numbers = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308])

# Trees the parser can produce: its literals are finite and non-negative
# (a minus sign is a Unary node).
literals = st.floats(min_value=0.0, allow_infinity=False) | st.sampled_from([0.0, 5e-324, 1e308, 1e16])
expressions = st.recursive(
    st.builds(Num, literals) | st.builds(Ident, st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,5}", fullmatch=True)),
    lambda inner: st.builds(Unary, inner) | st.builds(BinOp, st.sampled_from("+-*/^"), inner, inner),
    max_leaves=8,
)

pairs = st.lists(st.tuples(names, names), max_size=2)


@st.composite
def model_defs(draw):
    variables = draw(st.lists(names, max_size=3))
    with_formulas = draw(st.booleans())
    return bio.ModelDef(
        stocks=draw(st.lists(names, max_size=3)),
        flows=draw(st.lists(
            st.builds(bio.FlowDef, names, names, st.none() | names, st.none() | names), max_size=3
        )),
        variables=variables,
        expressions={v: draw(expressions) for v in variables} if with_formulas else {},
        sum_variables=draw(st.lists(names, max_size=3)),
        stock_variable_links=draw(pairs),
        stock_sum_links=draw(pairs),
        sum_variable_links=draw(pairs),
    )


bundles = st.builds(
    bio.ModelBundle,
    models=st.dictionaries(names, model_defs(), max_size=2),
    feet=st.dictionaries(names, st.builds(bio.FootDef, names, names, pairs), max_size=2),
    wiring=st.dictionaries(names, st.builds(
        bio.PatternDef,
        st.lists(names, max_size=3),
        st.lists(st.builds(bio.BoxDef, names, st.lists(names, max_size=2), st.lists(names, max_size=2)), max_size=2),
        st.lists(names, max_size=2),
    ), max_size=2),
    typings=st.dictionaries(names, st.builds(
        bio.TypingDef, names, names, *[st.dictionaries(names, names, max_size=3)] * 4
    ), max_size=2),
    parameters=st.dictionaries(names, st.dictionaries(names, numbers, max_size=3), max_size=2),
    initial=st.dictionaries(names, st.dictionaries(names, numbers, max_size=3), max_size=2),
)


@settings(max_examples=20, deadline=None)
@given(bundles)
def test_emitted_text_is_json_dumps_and_parses_back(b):
    text = bio.emit_json(b)
    assert text == json.dumps(json.loads(text), indent=2, ensure_ascii=False) + "\n"
    values = [x for section in (b.parameters, b.initial) for table in section.values() for x in table.values()]
    if not any(math.isnan(x) for x in values):  # NaN never compares equal
        assert bio.parse_json(text) == b


@settings(max_examples=100, deadline=None)
@given(expressions)
def test_format_then_parse_rebuilds_the_tree(e):
    assert parse_expression(format_expression(e)) == e
