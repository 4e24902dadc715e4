"""Laws checked on generated inputs: canonical bundle text, the
expression print/parse round trip and the pushout's classes and injections."""
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from stockflow import bundle as bio
from stockflow.acset import Instance, compose_hom, is_natural, pushout_quotient
from stockflow.expressions import BinOp, Ident, Num, Unary, format_expression, parse_expression
from stockflow.schema import schema_causalloop, schema_interface, schema_stockflow

from reference import identity_hom, morphisms_from

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


@st.composite
def instances(draw, schema):
    """A small instance with every column set; objects are sized codomains
    first, so a table with a column into an empty table stays empty."""
    n: dict[str, int] = {}
    columns: dict[str, list[int]] = {}
    while len(n) < len(schema.objects):
        obj = next(
            o for o in schema.objects
            if o not in n and all(cod in n for _, _, cod in morphisms_from(schema, o))
        )
        outgoing = morphisms_from(schema, obj)
        n[obj] = 0 if any(n[cod] == 0 for _, _, cod in outgoing) else draw(st.integers(0, 3))
        for m, _, cod in outgoing:
            columns[m] = draw(st.lists(st.integers(1, n[cod]), min_size=n[obj], max_size=n[obj])) if n[obj] else []
    names = {
        attr: draw(st.lists(st.sampled_from("abc"), min_size=n[carrier], max_size=n[carrier]))
        for attr, carrier in schema.name_attributes
    }
    return Instance(schema, n=n, columns=columns, names=names)


@st.composite
def gluings(draw):
    """Parts over one schema and identifications between their elements."""
    schema = draw(st.sampled_from([schema_causalloop(), schema_interface(), schema_stockflow()]))
    parts = draw(st.lists(instances(schema), min_size=1, max_size=3))
    elements = [(i, obj, e) for i, p in enumerate(parts) for obj in schema.objects for e in range(1, p.n[obj] + 1)]
    identifications = []
    if elements:
        for _ in range(draw(st.integers(0, 5))):
            part_a, obj, elem_a = draw(st.sampled_from(elements))
            part_b, _, elem_b = draw(st.sampled_from([x for x in elements if x[1] == obj]))
            identifications.append((part_a, obj, elem_a, part_b, elem_b))
    return parts, identifications


def _classes(parts, identifications):
    """Independent oracle: per object, a root for every (part, element),
    merging the identified pairs and then, until nothing changes, the images
    of merged elements under every morphism."""
    schema = parts[0].schema
    parent = {obj: {} for obj in schema.objects}

    def root(obj, key):
        while parent[obj].get(key, key) != key:
            key = parent[obj][key]
        return key

    def merge(obj, a, b):
        a, b = root(obj, a), root(obj, b)
        if a != b:
            parent[obj][max(a, b)] = min(a, b)
        return a != b

    for part_a, obj, elem_a, part_b, elem_b in identifications:
        merge(obj, (part_a, elem_a), (part_b, elem_b))
    changed = True
    while changed:
        changed = False
        for m, dom, cod in schema.morphisms:
            image_of_class = {}
            for i, p in enumerate(parts):
                for e, v in enumerate(p.columns[m], start=1):
                    cls = root(dom, (i, e))
                    if cls in image_of_class:
                        changed |= merge(cod, image_of_class[cls], (i, v))
                    else:
                        image_of_class[cls] = (i, v)
    return {
        obj: {(i, e): root(obj, (i, e)) for i, p in enumerate(parts) for e in range(1, p.n[obj] + 1)}
        for obj in schema.objects
    }


@settings(max_examples=200, deadline=None)
@given(gluings())
def test_pushout_injections_are_natural_and_classes_match_union_find(gluing):
    parts, identifications = gluing
    out, injections = pushout_quotient(parts, identifications)
    classes = _classes(parts, identifications)
    for p, inj in zip(parts, injections):
        assert is_natural(inj)
        assert compose_hom(identity_hom(p), inj) == inj == compose_hom(inj, identity_hom(out))
    for obj, roots in classes.items():
        # Quotient elements and oracle classes correspond one to one.
        images = {key: injections[key[0]].apply(obj, key[1]) for key in roots}
        assert out.n[obj] == len(set(roots.values())) == len(set(images.values()))
        assert len(set(zip(roots.values(), images.values()))) == out.n[obj]
        attr = out.schema.name_attribute_of(obj)
        if attr is not None:  # a class keeps the first of its members' names
            members: dict[int, list[str]] = {}
            for (i, e), k in images.items():
                members.setdefault(k, []).append(parts[i].names[attr][e - 1])
            assert out.names[attr] == [min(members[k]) for k in range(1, out.n[obj] + 1)]
    if not identifications and len(parts) == 1:
        assert out == parts[0]
