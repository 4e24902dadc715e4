import itertools

import pytest

from stockflow import models
from stockflow.acset import compose_hom, is_natural, validate_instance
from stockflow.diagrams import DiagramError, attach_dynamics, build_system_structure, flatten_names
from stockflow.odes import integrate_adaptive, vectorfield
from stockflow.stratify import make_typed, stratify, typed_stratify


def _pair_count_oracle(a, b, obj):
    """Independent enumeration: pairs of same-typed elements, straight from
    the component lists."""
    return sum(
        1
        for x in a.typing.components[obj]
        for y in b.typing.components[obj]
        if x == y
    )


def test_all_bundled_typings_accepted():
    ts = models.type_system()
    for build in (
        models.seir_typed,
        models.sis_typed,
        models.age_strata_typed,
        models.sex_strata_typed,
        models.sex_strata_with_aging_typed,
    ):
        typed = build(ts)
        assert is_natural(typed.typing)


def test_make_typed_rejects_swapped_flows():
    ts = models.type_system()
    good = models.seir_typed(ts)
    comps = {obj: list(v) for obj, v in good.typing.components.items()}
    comps["F"][0], comps["F"][1] = comps["F"][1], comps["F"][0]
    with pytest.raises(DiagramError) as err:
        make_typed(models.seir_structure(), ts, comps)
    assert "failing squares" in str(err.value)


def test_every_single_flow_mutation_is_rejected():
    ts = models.type_system()
    good = models.seir_typed(ts)
    n_types = ts.inst.n["F"]
    for k, current in enumerate(good.typing.components["F"]):
        for wrong in range(1, n_types + 1):
            if wrong == current:
                continue
            comps = {obj: list(v) for obj, v in good.typing.components.items()}
            comps["F"][k] = wrong
            with pytest.raises(DiagramError):
                make_typed(models.seir_structure(), ts, comps)


def test_seir_age_counts():
    ts = models.type_system()
    result = stratify(models.seir_typed(ts), models.age_strata_typed(ts))
    assert result.inst.n["S"] == 12
    assert result.inst.n["F"] == 30
    assert validate_instance(result.inst) == []


def test_sis_sex_counts():
    ts = models.type_system()
    result = stratify(models.sis_typed(ts), models.sex_strata_typed(ts))
    assert result.inst.n["S"] == 4
    assert result.stocks == ["SF", "SM", "IF", "IM"]


def test_triple_stratification_counts():
    ts = models.type_system()
    result = stratify(
        models.seir_typed(ts),
        models.sex_strata_with_aging_typed(ts),
        models.age_strata_typed(ts),
    )
    assert result.inst.n["S"] == 4 * 2 * 3
    assert validate_instance(result.inst) == []


def test_counts_match_enumeration_oracle():
    ts = models.type_system()
    combos = [
        (models.seir_typed(ts), models.age_strata_typed(ts)),
        (models.seir_typed(ts), models.sex_strata_typed(ts)),
        (models.sis_typed(ts), models.age_strata_typed(ts)),
        (models.sis_typed(ts), models.sex_strata_typed(ts)),
    ]
    for a, b in combos:
        result = stratify(a, b)
        for obj in result.inst.schema.objects:
            assert result.inst.n[obj] == _pair_count_oracle(a, b, obj)


def test_triple_count_matches_enumeration_oracle():
    ts = models.type_system()
    a = models.seir_typed(ts)
    b = models.sex_strata_with_aging_typed(ts)
    c = models.age_strata_typed(ts)
    result = stratify(a, b, c)
    for obj in result.inst.schema.objects:
        expected = sum(
            1
            for x, y, z in itertools.product(
                a.typing.components[obj],
                b.typing.components[obj],
                c.typing.components[obj],
            )
            if x == y == z
        )
        assert result.inst.n[obj] == expected


def test_stratification_is_symmetric_in_counts():
    ts = models.type_system()
    ab = stratify(models.seir_typed(ts), models.age_strata_typed(ts))
    ba = stratify(models.age_strata_typed(ts), models.seir_typed(ts))
    assert {o: ab.inst.n[o] for o in ab.inst.schema.objects} == {
        o: ba.inst.n[o] for o in ba.inst.schema.objects
    }


def test_typed_stratify_outputs_are_natural():
    ts = models.type_system()
    for a, b in [
        (models.seir_typed(ts), models.age_strata_typed(ts)),
        (models.seir_typed(ts), models.sex_strata_typed(ts)),
        (models.sis_typed(ts), models.age_strata_typed(ts)),
        (models.sis_typed(ts), models.sex_strata_typed(ts)),
    ]:
        typed = typed_stratify(a, b)
        assert is_natural(typed.typing)
        assert typed.type_system.inst == ts.inst


def test_typed_stratify_composes_first_projection():
    from stockflow.acset import pullback

    ts = models.type_system()
    a, b = models.seir_typed(ts), models.age_strata_typed(ts)
    typed = typed_stratify(a, b)
    raw = pullback(a.typing, b.typing)
    assert typed.typing.components == compose_hom(raw.leg1, a.typing).components


def test_stratify_along_identity_types_is_identity():
    ts = models.type_system()
    identity_typed = make_typed(
        ts, ts, {obj: list(range(1, ts.inst.n[obj] + 1)) for obj in ts.inst.schema.objects}
    )
    a = models.seir_typed(ts)
    result = stratify(a, identity_typed)
    assert {o: result.inst.n[o] for o in result.inst.schema.objects} == dict(
        a.diagram.inst.n
    )


def test_mismatched_type_systems_are_rejected():
    ts = models.type_system()
    other = models.seir_structure()
    a = models.seir_typed(ts)
    ident = make_typed(
        other, other, {obj: list(range(1, other.inst.n[obj] + 1)) for obj in other.inst.schema.objects}
    )
    with pytest.raises(DiagramError):
        stratify(a, ident)
    with pytest.raises(DiagramError):
        stratify(a)


def test_concatenated_name_clash_is_rejected():
    # S+Child and SC+hild both concatenate to SChild.
    ts = models.type_system()

    def stocks_only(names):
        d = build_system_structure({n: (None, None, None, None) for n in names}, {})
        return make_typed(d, ts, {"S": [1] * len(names)})

    with pytest.raises(DiagramError) as err:
        typed_stratify(stocks_only(["S", "SC"]), stocks_only(["Child", "hild"]))
    assert "stock" in str(err.value) and "SChild" in str(err.value)


def test_sis_sex_pipeline_names_and_solve():
    ts = models.type_system()
    structure = flatten_names(stratify(models.sis_typed(ts), models.sex_strata_typed(ts)))
    exprs = models.sis_sex_expressions()
    assert set(structure.variables) == set(exprs)
    diagram = attach_dynamics(structure, exprs)
    f = vectorfield(diagram, models.sis_sex_parameters())
    traj = integrate_adaptive(f, models.sis_sex_initial(), 0.0, 50.0)
    assert traj.times[-1] == 50.0
    for state in traj.states:
        assert all(v >= -1e-9 for v in state.values())
