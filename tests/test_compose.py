import pytest

from stockflow import models
from stockflow.acset import is_natural, validate_instance
from stockflow.compose import Box, WiringPattern, apex, oapply
from stockflow.diagrams import (
    DiagramError,
    build_stockflow,
    foot,
    open_diagram,
    to_system_structure,
)
from stockflow.odes import vectorfield

from reference import canonical_sort


def _open_seirv_parts():
    feet = models.seirv_feet()
    return [
        open_diagram(models.seir(), feet),
        open_diagram(models.sve(), feet),
    ]


def test_seirv_counts():
    composed = apex(oapply(models.seirv_pattern(), _open_seirv_parts()))
    assert composed.inst.n["S"] == 5
    assert composed.inst.n["F"] == 11
    assert composed.inst.n["V"] == 11
    assert composed.inst.n["SV"] == 1
    assert composed.stocks == ["S", "E", "I", "R", "V"]
    assert validate_instance(composed.inst) == []


def test_seirv_expressions_carried_through():
    composed = apex(oapply(models.seirv_pattern(), _open_seirv_parts()))
    assert set(composed.expressions) == set(composed.variables)
    assert len(composed.expressions) == 11


def test_seirv_vectorfield_matches_hand_assembly():
    composed = apex(oapply(models.seirv_pattern(), _open_seirv_parts()))
    p = models.seirv_parameters()
    u = {"S": 9000.0, "E": 120.0, "I": 60.0, "R": 35.0, "V": 500.0}
    got = vectorfield(composed, p)(u, 0.0)
    N = sum(u.values())
    incid = p["beta"] * u["S"] * u["I"] / N
    incidv = p["beta"] * u["V"] * u["I"] * (1 - p["e"]) / N
    want = {
        "S": p["mu"] * N - incid - p["delta"] * u["S"] - p["alpha"] * u["S"],
        "E": incid + incidv - u["E"] / p["tlatent"] - p["delta"] * u["E"],
        "I": u["E"] / p["tlatent"] - u["I"] / p["trecovery"] - p["delta"] * u["I"],
        "R": u["I"] / p["trecovery"] - p["delta"] * u["R"],
        "V": p["alpha"] * u["S"] - p["delta"] * u["V"] - incidv,
    }
    for s in want:
        assert got[s] == pytest.approx(want[s], rel=1e-12)


def test_single_box_identity_wiring():
    opened = open_diagram(models.seir(), models.seirv_feet())
    pattern = WiringPattern(["S", "E", "I"], [Box("seir", ["S", "E", "I"])], ["S"])
    composed = oapply(pattern, [opened])
    assert canonical_sort(composed.apex.inst) == canonical_sort(models.seir().inst)
    assert len(composed.feet) == 1
    assert is_natural(composed.legs[0])


def test_disjoint_boxes_add_up():
    a = build_stockflow({"A": (None, None, None, None)}, {}, {}, {})
    b = build_stockflow({"B": (None, None, None, None)}, {}, {}, {})
    pattern = WiringPattern([], [Box("a", []), Box("b", [])], [])
    composed = apex(oapply(pattern, [open_diagram(a, []), open_diagram(b, [])]))
    assert composed.inst.n["S"] == 2


def test_gluing_identity_wire():
    # A box whose apex is exactly its foot acts as an identity for gluing.
    wire_apex = build_stockflow(
        {"S": (None, None, None, "N")}, {}, {}, {"N": None}
    )
    wire = open_diagram(wire_apex, [foot("S", "N", [("S", "N")])])
    opened = open_diagram(models.seir(), [models.seirv_feet()[0]])
    pattern = WiringPattern(["S"], [Box("seir", ["S"]), Box("wire", ["S"])], ["S"])
    composed = oapply(pattern, [opened, wire])
    assert canonical_sort(composed.apex.inst) == canonical_sort(models.seir().inst)


def test_commutativity_of_symmetric_pattern():
    composed_ab = apex(oapply(models.seirv_pattern(), _open_seirv_parts()))
    swapped = WiringPattern(
        ["S", "E", "I"],
        [Box("sve", ["S", "E", "I"]), Box("seir", ["S", "E", "I"])],
        [],
    )
    composed_ba = apex(oapply(swapped, list(reversed(_open_seirv_parts()))))
    assert canonical_sort(composed_ab.inst) == canonical_sort(composed_ba.inst)


def test_count_law_against_merge_counts():
    parts = [d.apex.inst for d in _open_seirv_parts()]
    composed = apex(oapply(models.seirv_pattern(), _open_seirv_parts()))
    # S, E and I merge once each; both copies of N collapse to one; the three
    # foot links merge pairwise; every other table is a disjoint union.
    merges = {"S": 3, "SV": 1, "LS": 3, "F": 0, "V": 0, "I": 0, "O": 0, "LV": 0, "LSV": 0}
    for obj, m in merges.items():
        assert composed.inst.n[obj] == sum(p.n[obj] for p in parts) - m


def test_apex_of_closed_wrapper_is_the_diagram():
    d = models.seir()
    assert apex(open_diagram(d, [])) is d


def test_arity_mismatches_are_rejected():
    opened = _open_seirv_parts()
    with pytest.raises(DiagramError):
        oapply(models.seirv_pattern(), opened[:1])
    bad_ports = WiringPattern(
        ["S", "E", "I"], [Box("seir", ["S"]), Box("sve", ["S", "E", "I"])], []
    )
    with pytest.raises(DiagramError):
        oapply(bad_ports, opened)


def test_non_isomorphic_feet_are_rejected():
    linkless = build_stockflow(
        {"S": (None, None, None, "N")}, {}, {}, {"N": None}
    )
    a = open_diagram(models.seir(), [models.seirv_feet()[0]])
    b = open_diagram(linkless, [foot("S", "N")])  # no link row in this foot
    pattern = WiringPattern(["S"], [Box("a", ["S"]), Box("b", ["S"])], [])
    with pytest.raises(DiagramError) as err:
        oapply(pattern, [a, b])
    assert "non-isomorphic" in str(err.value)


def test_duplicate_unglued_names_are_rejected():
    a = build_stockflow({"X": (None, None, None, None)}, {}, {}, {})
    pattern = WiringPattern([], [Box("a", []), Box("b", [])], [])
    with pytest.raises(DiagramError) as err:
        oapply(pattern, [open_diagram(a, []), open_diagram(a, [])])
    assert "duplicate" in str(err.value)


def test_bare_structures_are_rejected():
    feet = models.seirv_feet()
    opens = [open_diagram(to_system_structure(models.seir()), feet), open_diagram(models.sve(), feet)]
    with pytest.raises(DiagramError) as err:
        oapply(models.seirv_pattern(), opens)
    assert "no formulas" in str(err.value)


def test_self_gluing_merges_within_one_box():
    d = build_stockflow(
        {"A": (None, "f", "v", "N"), "B": ("f", None, None, "N")},
        {"f": "v"},
        {"v": "A"},
        {"N": None},
    )
    opened = open_diagram(d, [foot("A", "N"), foot("B", "N")])
    pattern = WiringPattern(["J"], [Box("d", ["J", "J"])], [])
    composed = apex(oapply(pattern, [opened]))
    assert composed.inst.n["S"] == 1  # A and B identified through one junction
    assert composed.stocks == ["A"]  # lexicographically-first name wins
    assert composed.inst.n["F"] == 1  # the flow is now a self-loop


def test_outer_ports_become_feet():
    feet = models.seirv_feet()
    pattern = WiringPattern(
        ["S", "E", "I"],
        [Box("seir", ["S", "E", "I"]), Box("sve", ["S", "E", "I"])],
        ["S", "I"],
    )
    composed = oapply(pattern, _open_seirv_parts())
    assert len(composed.feet) == 2
    for ft, leg in zip(composed.feet, composed.legs):
        assert is_natural(leg)
        for i, name in enumerate(ft.inst.names_of("S"), start=1):
            assert composed.apex.inst.name_of("S", leg.apply("S", i)) == name
    del feet
