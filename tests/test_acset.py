import random

import pytest

from stockflow import models
from stockflow.acset import (
    AcsetError,
    Homomorphism,
    Instance,
    compose_hom,
    is_natural,
    naturality_failures,
    pullback,
    pushout_quotient,
    validate_instance,
)
from stockflow.schema import schema_causalloop, schema_interface, schema_stockflow

from reference import add_part, canonical_sort, identity_hom, incident, index_of, set_subpart, subpart


def test_schema_constants():
    sf = schema_stockflow()
    assert len(sf.objects) == 9
    assert len(sf.morphisms) == 11
    assert len(sf.name_attributes) == 4
    iface = schema_interface()
    assert iface.objects == ("S", "SV", "LS")
    assert {m[0] for m in iface.morphisms} == {"lss", "lssv"}
    cl = schema_causalloop()
    assert cl.objects == ("N", "E")
    assert {m[0] for m in cl.morphisms} == {"s", "t"}


def test_add_part_indices():
    inst = Instance(schema_stockflow())
    assert add_part(inst, "S", "S") == 1
    for name in ("E", "I", "R"):
        add_part(inst, "S", name)
    assert inst.n["S"] == 4
    for k in range(8):
        idx = add_part(inst, "F", f"f{k}")
    assert idx == 8 and inst.n["F"] == 8
    with pytest.raises(AcsetError):
        add_part(inst, "Q")


def test_subpart_write_read():
    inst = Instance(schema_stockflow())
    add_part(inst, "S", "S")
    add_part(inst, "V", "v")
    lv = add_part(inst, "LV")
    set_subpart(inst, "lvs", lv, 1)
    assert subpart(inst, "lvs", lv) == 1
    with pytest.raises(AcsetError):
        subpart(inst, "lvv", lv)  # never assigned
    with pytest.raises(AcsetError):
        set_subpart(inst, "lvs", lv, 2)  # out of range value
    with pytest.raises(AcsetError):
        set_subpart(inst, "lvs", 5, 1)  # out of range element


def test_seir_subpart_and_incident():
    seir = models.seir().inst
    inf = index_of(seir, "F", "inf")
    assert seir.name_of("V", subpart(seir, "fv", inf)) == "v_inf"

    s = index_of(seir, "S", "S")
    rows = incident(seir, "is", s)
    assert [seir.name_of("F", subpart(seir, "ifn", r)) for r in rows] == ["birth"]

    i = index_of(seir, "S", "I")
    rows = incident(seir, "os", i)
    assert {seir.name_of("F", subpart(seir, "ofn", r)) for r in rows} == {"rec", "deathI"}

    empty = Instance(schema_causalloop())
    add_part(empty, "N", "x")
    assert incident(empty, "s", 1) == []


def test_incident_subpart_consistency():
    # e is incident to v exactly when its column points at v.
    for inst in (models.seir().inst, models.sve().inst, models.type_system().inst):
        for m, dom, cod in inst.schema.morphisms:
            for v in range(1, inst.n[cod] + 1):
                hits = set(incident(inst, m, v))
                for e in range(1, inst.n[dom] + 1):
                    assert (e in hits) == (subpart(inst, m, e) == v)


def test_validate_bundled_models_clean():
    for d in (models.seir(), models.sve(), models.sis(), models.type_system(),
              models.seir_structure(), models.age_strata_structure()):
        assert validate_instance(d.inst) == []


def test_validate_flags_shared_inflow():
    inst = Instance(schema_stockflow())
    add_part(inst, "S", "A")
    add_part(inst, "S", "B")
    add_part(inst, "F", "f")
    add_part(inst, "V", "v")
    set_subpart(inst, "fv", 1, 1)
    for s in (1, 2):
        row = add_part(inst, "I")
        set_subpart(inst, "is", row, s)
        set_subpart(inst, "ifn", row, 1)
    problems = validate_instance(inst)
    assert len(problems) == 1 and "share flow" in problems[0]


def test_validate_flags_dangling_column():
    inst = Instance(schema_stockflow())
    add_part(inst, "S", "A")
    add_part(inst, "F", "f")
    add_part(inst, "V", "v")
    set_subpart(inst, "fv", 1, 1)
    row = add_part(inst, "O")
    set_subpart(inst, "os", row, 1)
    for dangler in (7, 2, 0):  # far out, and one past either end of F
        inst.columns["ofn"][row - 1] = dangler  # bypass the setter to plant a dangler
        problems = validate_instance(inst)
        assert len(problems) == 1 and "outside" in problems[0]


def test_identity_is_natural():
    seir = models.seir().inst
    assert is_natural(identity_hom(seir))


def test_bundled_typing_is_natural():
    t = models.seir_typed()
    assert is_natural(t.typing)
    assert naturality_failures(t.typing) == []


def test_mutated_typing_fails():
    t = models.seir_typed()
    comp = dict(t.typing.components)
    flows = list(comp["F"])
    flows[0] = 3 if flows[0] != 3 else 4
    comp["F"] = flows
    broken = Homomorphism(t.typing.source, t.typing.target, comp)
    assert not is_natural(broken)
    assert len(naturality_failures(broken)) >= 1


def _failures_by_element(h):
    """Reference: the per-element scan that naturality_failures runs only
    on columns whose whole-column comparison fails.  An entry that is unset
    or outside its codomain fails its square."""
    failures = []
    for m, dom, cod in h.source.schema.morphisms:
        for i in range(1, h.source.n[dom] + 1):
            v = h.source.columns[m][i - 1]
            if (
                v is None
                or not 1 <= v <= h.source.n[cod]
                or h.components[cod][v - 1] != h.target.columns[m][h.components[dom][i - 1] - 1]
            ):
                failures.append((m, i))
    return failures


def _mutants(rng, h, count):
    """Copies of `h` with some component entries redirected and some source
    column entries unset, 0, negative or past the end of their codomain."""
    for _ in range(count):
        comps = {obj: list(comp) for obj, comp in h.components.items()}
        for obj, comp in comps.items():
            for k in range(len(comp)):
                if rng.random() < 0.2:
                    comp[k] = rng.randint(1, h.target.n[obj])
        source = Instance(
            h.source.schema,
            n=dict(h.source.n),
            columns={m: list(col) for m, col in h.source.columns.items()},
            names=h.source.names,
        )
        for m, _, cod in source.schema.morphisms:
            col = source.columns[m]
            if col and rng.random() < 0.2:
                col[rng.randrange(len(col))] = rng.choice([None, 0, -1, source.n[cod] + 1])
        yield Homomorphism(source, h.target, comps)


def test_naturality_failures_match_the_per_element_scan():
    rng = random.Random(5)
    homs = [models.seir_typed().typing, models.sis_typed().typing, models.sex_strata_with_aging_typed().typing]
    for _ in range(40):
        homs.append(_random_hom_into(rng, _random_graph(rng)))
    checked = failing = 0
    for h in homs:
        assert naturality_failures(h) == _failures_by_element(h) == []
        for mutant in _mutants(rng, h, 10):
            expected = _failures_by_element(mutant)
            assert naturality_failures(mutant) == expected
            checked += 1
            failing += bool(expected)
    assert failing > checked // 4  # the mutants do reach the element walk


@pytest.mark.parametrize("value", [0, -1, "past the end"])
def test_out_of_range_column_values_fail_their_square(value):
    # Python's negative indexing once read is[0] = 0 or -1 as the last
    # image, and a value past the end raised a bare IndexError.
    h = models.seir_typed().typing
    columns = {m: list(col) for m, col in h.source.columns.items()}
    columns["is"][0] = h.source.n["S"] + 1 if value == "past the end" else value
    source = Instance(h.source.schema, n=dict(h.source.n), columns=columns, names=h.source.names)
    mutant = Homomorphism(source, h.target, h.components)
    assert naturality_failures(mutant) == [("is", 1)]
    assert not is_natural(mutant)


def test_components_must_be_total_and_in_range():
    t = models.seir_typed().typing
    for bad, message in ((0, "maps outside"), (t.target.n["F"] + 1, "maps outside"), (None, "is not total")):
        flows = list(t.components["F"])
        if bad is None:
            flows.pop()
        else:
            flows[-1] = bad
        with pytest.raises(AcsetError, match=f"component F {message}"):
            naturality_failures(Homomorphism(t.source, t.target, {**t.components, "F": flows}))


def test_identity_composition():
    seir = models.seir().inst
    t = models.seir_typed().typing
    assert compose_hom(identity_hom(t.source), t).components == t.components
    assert compose_hom(t, identity_hom(t.target)).components == t.components


def _random_graph(rng, max_n=6):
    inst = Instance(schema_causalloop())
    for k in range(rng.randint(1, max_n)):
        add_part(inst, "N", f"n{k}")
    for _ in range(rng.randint(0, max_n)):
        e = add_part(inst, "E")
        set_subpart(inst, "s", e, rng.randint(1, inst.n["N"]))
        set_subpart(inst, "t", e, rng.randint(1, inst.n["N"]))
    return inst


def _random_hom_into(rng, target, max_n=6):
    """A random instance with a natural map into `target`, built by choosing
    images first and then only structure the images support."""
    source = Instance(schema_causalloop())
    n_comp = []
    for k in range(rng.randint(1, max_n)):
        add_part(source, "N", f"m{k}")
        n_comp.append(rng.randint(1, target.n["N"]))
    e_comp = []
    if target.n["E"]:
        for _ in range(rng.randint(0, max_n)):
            te = rng.randint(1, target.n["E"])
            src_candidates = [i for i, v in enumerate(n_comp, 1) if v == subpart(target, "s", te)]
            dst_candidates = [i for i, v in enumerate(n_comp, 1) if v == subpart(target, "t", te)]
            if not src_candidates or not dst_candidates:
                continue
            e = add_part(source, "E")
            set_subpart(source, "s", e, rng.choice(src_candidates))
            set_subpart(source, "t", e, rng.choice(dst_candidates))
            e_comp.append(te)
    return Homomorphism(source, target, {"N": n_comp, "E": e_comp})


def test_composition_of_naturals_is_natural():
    rng = random.Random(7)
    for _ in range(50):
        c = _random_graph(rng)
        h = _random_hom_into(rng, c)
        g = _random_hom_into(rng, h.source)
        assert is_natural(g) and is_natural(h)
        assert is_natural(compose_hom(g, h))


def test_composition_associative():
    rng = random.Random(8)
    for _ in range(30):
        d = _random_graph(rng, max_n=3)
        h3 = _random_hom_into(rng, d, max_n=3)
        h2 = _random_hom_into(rng, h3.source, max_n=3)
        h1 = _random_hom_into(rng, h2.source, max_n=3)
        lhs = compose_hom(compose_hom(h1, h2), h3)
        rhs = compose_hom(h1, compose_hom(h2, h3))
        assert lhs.components == rhs.components


def test_kernel_endpoint_mismatches_are_rejected():
    seir = models.seir().inst
    sve = models.sve().inst
    with pytest.raises(AcsetError):
        compose_hom(identity_hom(seir), identity_hom(sve))
    with pytest.raises(AcsetError):
        pullback(identity_hom(seir), identity_hom(sve))
    cl = Instance(schema_causalloop())
    with pytest.raises(AcsetError):
        pullback(identity_hom(seir), identity_hom(cl))


def test_pushout_single_part_is_copy():
    seir = models.seir().inst
    out, (inj,) = pushout_quotient([seir], [])
    assert out == seir
    assert inj.components == identity_hom(seir).components


def test_pushout_glues_single_stock():
    a = Instance(schema_stockflow())
    add_part(a, "S", "S")
    b = Instance(schema_stockflow())
    add_part(b, "S", "S")
    out, injections = pushout_quotient([a, b], [(0, "S", 1, 1, 1)])
    assert out.n["S"] == 1
    assert all(inj.components["S"] == [1] for inj in injections)


def test_pushout_rejects_bad_references():
    a = Instance(schema_stockflow())
    add_part(a, "S", "S")
    with pytest.raises(AcsetError):
        pushout_quotient([a, a], [(0, "S", 1, 1, 5)])
    with pytest.raises(AcsetError):
        pushout_quotient([a, a], [(0, "Q", 1, 1, 1)])


def test_pushout_seir_sve_stock_counts():
    seir = models.seir().inst
    sve = models.sve().inst
    idents = []
    for name in ("S", "E", "I"):
        idents.append((0, "S", index_of(seir, "S", name), 1, index_of(sve, "S", name)))
    idents.append((0, "SV", 1, 1, 1))
    out, _ = pushout_quotient([seir, sve], idents)
    assert out.n["S"] == 5
    assert out.n["SV"] == 1
    assert sorted(out.names_of("S")) == ["E", "I", "R", "S", "V"]


def test_pullback_full_product_over_singleton_types():
    ts = models.type_system()
    t_seir = models.seir_typed(ts)
    t_age = models.age_strata_typed(ts)
    result = pullback(t_seir.typing, t_age.typing)
    assert result.apex.n["S"] == 4 * 3  # a single stock type forces the product


def test_pullback_flow_count_against_enumeration_oracle():
    ts = models.type_system()
    t_seir = models.seir_typed(ts)
    t_age = models.age_strata_typed(ts)
    result = pullback(t_seir.typing, t_age.typing)
    for obj in result.apex.schema.objects:
        expected = sum(
            1
            for i in range(t_seir.typing.source.n[obj])
            for j in range(t_age.typing.source.n[obj])
            if t_seir.typing.components[obj][i] == t_age.typing.components[obj][j]
        )
        assert result.apex.n[obj] == expected
    assert result.apex.n["F"] == 30
    assert is_natural(result.leg1) and is_natural(result.leg2)


def test_pullback_square_commutes():
    ts = models.type_system()
    t_seir = models.seir_typed(ts)
    t_age = models.age_strata_typed(ts)
    result = pullback(t_seir.typing, t_age.typing)
    via_left = compose_hom(result.leg1, t_seir.typing)
    via_right = compose_hom(result.leg2, t_age.typing)
    assert via_left.components == via_right.components


def test_pullback_of_identities_is_identity():
    seir = models.seir().inst
    ident = identity_hom(seir)
    result = pullback(ident, ident)
    assert {o: result.apex.n[o] for o in seir.schema.objects} == dict(seir.n)
    assert result.leg1.components == identity_hom(seir).components


def test_pullback_names_concatenate():
    ts = models.type_system()
    result = pullback(models.sis_typed(ts).typing, models.sex_strata_typed(ts).typing)
    assert result.apex.names_of("S") == ["SF", "SM", "IF", "IM"]
    assert "v_birthsv_birthsF" in result.apex.names_of("V")


def test_pullback_universal_property_exhaustive():
    # Desk-scale check: every commuting cone factors uniquely through the apex.
    rng = random.Random(42)
    for _ in range(20):
        t = _random_graph(rng, max_n=2)
        left = _random_hom_into(rng, t, max_n=3)
        right = _random_hom_into(rng, t, max_n=3)
        result = pullback(left, right)
        apex = result.apex
        u = _random_hom_into(rng, apex, max_n=2)
        q1 = compose_hom(u, result.leg1)
        q2 = compose_hom(u, result.leg2)
        # Exhaustively enumerate candidate maps Q -> apex.
        q = u.source
        candidates = [[]]
        for obj in ("N", "E"):
            new = []
            for partial in candidates:
                options = range(1, apex.n[obj] + 1)
                stack = [[]]
                for _ in range(q.n[obj]):
                    stack = [pre + [o] for pre in stack for o in options]
                for comp in stack:
                    new.append(partial + [comp])
            candidates = new
        matches = []
        for n_comp, e_comp in candidates:
            w = Homomorphism(q, apex, {"N": n_comp, "E": e_comp})
            if (
                compose_hom(w, result.leg1).components == q1.components
                and compose_hom(w, result.leg2).components == q2.components
            ):
                matches.append(w)
        assert len(matches) == 1
        assert matches[0].components == u.components


def test_canonical_sort_is_isomorphism_invariant():
    seir = models.seir().inst
    rng = random.Random(5)
    for _ in range(10):
        # A random relabelling of every table is isomorphic to the original.
        perm = {}
        back = {}
        for obj in seir.schema.objects:
            order = list(range(1, seir.n[obj] + 1))
            rng.shuffle(order)
            perm[obj] = order  # new position k holds old element order[k]
            back[obj] = {old: k + 1 for k, old in enumerate(order)}
        shuffled = Instance(seir.schema)
        for obj in seir.schema.objects:
            shuffled.n[obj] = seir.n[obj]
            attr = seir.schema.name_attribute_of(obj)
            if attr is not None:
                shuffled.names[attr] = [seir.names[attr][old - 1] for old in perm[obj]]
        for m, dom, cod in seir.schema.morphisms:
            shuffled.columns[m] = [
                back[cod][seir.columns[m][old - 1]] for old in perm[dom]
            ]
        assert canonical_sort(shuffled) == canonical_sort(seir)
