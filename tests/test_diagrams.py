import pytest

from stockflow import models
from stockflow.acset import is_natural, validate_instance
from stockflow.diagrams import (
    DiagramError,
    attach_dynamics,
    build_stockflow,
    build_system_structure,
    flatten_names,
    foot,
    open_diagram,
    to_system_structure,
)

from reference import downstream, inflows_of, outflows_of, upstream


def test_seir_table_sizes():
    d = models.seir()
    assert {o: d.inst.n[o] for o in d.inst.schema.objects} == {
        "S": 4, "F": 8, "I": 4, "O": 7, "V": 8, "SV": 1, "LS": 4, "LV": 8, "LSV": 2,
    }
    assert validate_instance(d.inst) == []


def test_sve_table_sizes():
    d = models.sve()
    assert d.inst.n["S"] == 4
    assert d.inst.n["F"] == 3
    assert d.inst.n["V"] == 3
    assert d.inst.n["SV"] == 1


def test_empty_builds():
    d = build_stockflow({}, {}, {}, {})
    assert all(d.inst.n[o] == 0 for o in d.inst.schema.objects)
    s = build_system_structure({}, {})
    assert all(s.inst.n[o] == 0 for o in s.inst.schema.objects)


def test_type_system_shape():
    ts = models.type_system()
    assert ts.inst.n["S"] == 1
    assert ts.inst.n["F"] == 5
    assert ts.inst.n["SV"] == 3
    assert ts.inst.n["LS"] + ts.inst.n["LV"] + ts.inst.n["LSV"] == 10


def test_padded_seir_structure_shape():
    s = models.seir_structure()
    assert s.inst.n["S"] == 4
    assert s.inst.n["F"] == 12  # 8 flows plus one identity flow per stock


def test_builder_rejects_duplicates_and_danglers():
    with pytest.raises(DiagramError):
        build_system_structure({"S": (None, None, None, None)}, [("f", "v"), ("f", "v")])
    with pytest.raises(DiagramError):
        build_system_structure([("S", (None, None, None, None)), ("S", (None, None, None, None))], {})
    with pytest.raises(DiagramError):
        build_system_structure({"S": ("ghost", None, None, None)}, {})
    with pytest.raises(DiagramError):
        build_system_structure({"S": (None, None, None, "N")}, {})
    with pytest.raises(DiagramError):  # one flow entering two stocks
        build_system_structure(
            {"A": ("f", None, None, None), "B": ("f", None, None, None)}, {"f": "v"}
        )


def test_builder_rejects_stock_sum_name_clash():
    with pytest.raises(DiagramError) as err:
        build_system_structure(
            {"N": (None, None, None, "N")}, {}, {"N": None}
        )
    assert "share a name" in str(err.value)


def test_expression_linkage_enforced():
    with pytest.raises(DiagramError) as err:
        build_stockflow(
            {"S": (None, "f", None, None), "I": (None, None, None, None)},
            {"f": "v"},
            {"v": "beta*I"},  # I is a stock but not linked to v
        )
    assert "without a link" in str(err.value)


def test_attach_requires_exact_cover():
    s = to_system_structure(models.sis())
    with pytest.raises(DiagramError) as err:
        attach_dynamics(s, {"v_inf": "beta*S*I/N"})
    assert "v_rec" in str(err.value)
    with pytest.raises(DiagramError):
        attach_dynamics(s, {"v_inf": "beta*S*I/N", "v_rec": "I/tr", "v_ghost": "1"})


def test_structure_round_trip():
    d = models.seir()
    s = to_system_structure(d)
    assert {o: s.inst.n[o] for o in s.inst.schema.objects} == dict(d.inst.n)
    d2 = attach_dynamics(s, dict(d.expressions))
    assert d2 == d


def test_flatten_rules():
    cases = {"(inf, id_F)": "inf", "(id_S, id_F)": "id", "birth": "birth"}
    s = build_system_structure(
        {name: (None, None, None, None) for name in cases}, {}
    )
    flat = flatten_names(s)
    assert flat.stocks == list(cases.values())


def test_flatten_idempotent_and_duplicate_error():
    s = build_system_structure(
        {"(inf, id_F)": (None, None, None, None), "x": (None, None, None, None)}, {}
    )
    once = flatten_names(s)
    assert flatten_names(once).stocks == once.stocks
    clash = build_system_structure(
        {"(inf, id_F)": (None, None, None, None), "(inf, id_M)": (None, None, None, None)}, {}
    )
    with pytest.raises(DiagramError):
        flatten_names(clash)


def test_foot_shapes():
    f = foot("S", "N", [("S", "N")])
    assert (f.inst.n["S"], f.inst.n["SV"], f.inst.n["LS"]) == (1, 1, 1)
    bare = foot("S", "N")
    assert (bare.inst.n["S"], bare.inst.n["SV"], bare.inst.n["LS"]) == (1, 1, 0)
    f_i = foot("I", "N", [("I", "N")])
    assert f_i.inst.names_of("S") == ["I"]
    with pytest.raises(DiagramError):
        foot("S", "N", [("Q", "N")])


def test_open_diagram_matches_names():
    seir = models.seir()
    opened = open_diagram(seir, models.seirv_feet())
    assert len(opened.legs) == 3
    for ft, leg in zip(opened.feet, opened.legs):
        assert is_natural(leg)
        for i, name in enumerate(ft.inst.names_of("S"), start=1):
            assert seir.inst.name_of("S", leg.apply("S", i)) == name
        for i, name in enumerate(ft.inst.names_of("SV"), start=1):
            assert seir.inst.name_of("SV", leg.apply("SV", i)) == name


def test_open_diagram_with_no_feet():
    opened = open_diagram(models.seir(), [])
    assert opened.feet == [] and opened.legs == []


def test_open_diagram_unmatched_foot():
    with pytest.raises(DiagramError):
        open_diagram(models.seir(), [foot("Q", "N", [("Q", "N")])])


def test_open_diagram_ambiguous_name():
    dup = models.seir()
    dup.inst.names["sname"][1] = "S"  # forge a duplicate stock name
    with pytest.raises(DiagramError) as err:
        open_diagram(dup, [foot("S", "N", [("S", "N")])])
    assert "2 apex elements" in str(err.value)


def test_endpoint_queries():
    seir = models.seir()
    assert upstream(seir, "birth") is None  # enters from a cloud
    assert downstream(seir, "inf") == "I"
    assert upstream(seir, "inf") == "E"
    assert downstream(seir, "deathR") is None
    assert outflows_of(seir, "S") == ["incid", "deathS"]
    assert inflows_of(seir, "R") == ["rec"]
    with pytest.raises(Exception):
        upstream(seir, "ghost")


def test_each_flow_has_at_most_one_endpoint_of_each_kind():
    for d in (models.seir(), models.sve(), models.sis(), models.sis_sex()):
        inst = d.inst
        for f_idx in range(1, inst.n["F"] + 1):
            assert len([r for r in range(1, inst.n["I"] + 1) if inst.columns["ifn"][r - 1] == f_idx]) <= 1
            assert len([r for r in range(1, inst.n["O"] + 1) if inst.columns["ofn"][r - 1] == f_idx]) <= 1
