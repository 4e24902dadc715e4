"""The whole-table passes read foreign-key columns directly; the one-element
accessors of `reference` (`subpart`, `incident`, `upstream`, `downstream`)
are their reference on every bundled model, a composite and a stratified diagram."""
import pytest

from stockflow import bundle as bio
from stockflow import models
from stockflow.compose import oapply
from stockflow.diagrams import open_diagram
from stockflow.odes import sumvar_values
from stockflow.stratify import stratify
from stockflow.views import to_causal_loop

from reference import downstream, incident, subpart, upstream


def _diagrams():
    out = []
    for file, b in sorted(models.bundles().items()):
        for name, md in b.models.items():
            out.append((f"{file}.{name}", bio.model_to_structure(md)))
    feet = models.seirv_feet()
    seirv = oapply(models.seirv_pattern(), [open_diagram(models.seir(), feet), open_diagram(models.sve(), feet)])
    out.append(("seirv-composed", seirv.apex))
    ts = models.type_system()
    out.append(("seir-x-age", stratify(models.seir_typed(ts), models.age_strata_typed(ts))))
    return out


DIAGRAMS = _diagrams()


def _links(inst, m1, obj1, m2, obj2):
    return [
        (inst.name_of(obj1, subpart(inst, m1, r)), inst.name_of(obj2, subpart(inst, m2, r)))
        for r in range(1, len(inst.columns[m1]) + 1)
    ]


@pytest.mark.parametrize("name, d", DIAGRAMS, ids=[name for name, _ in DIAGRAMS])
def test_diagram_to_model_matches_point_accessors(name, d):
    inst = d.inst
    md = bio.diagram_to_model(d)
    assert [fd.name for fd in md.flows] == d.flows
    for f_idx, fd in enumerate(md.flows, start=1):
        assert fd.variable == inst.name_of("V", subpart(inst, "fv", f_idx))
        assert fd.upstream == upstream(d, fd.name)
        assert fd.downstream == downstream(d, fd.name)
    assert md.stock_variable_links == _links(inst, "lvs", "S", "lvv", "V")
    assert md.stock_sum_links == _links(inst, "lss", "S", "lssv", "SV")
    assert md.sum_variable_links == _links(inst, "lsvsv", "SV", "lsvv", "V")


@pytest.mark.parametrize("name, d", DIAGRAMS, ids=[name for name, _ in DIAGRAMS])
def test_causal_loop_matches_point_accessors(name, d):
    src = d.inst
    labels = []
    for v_idx, v_name in enumerate(d.variables, start=1):
        flows = incident(src, "fv", v_idx)
        labels.append(src.name_of("F", flows[0]) if len(flows) == 1 else v_name)
    cl = to_causal_loop(d)
    assert cl.nodes == d.stocks + d.sum_variables + labels

    n_s, n_sv = src.n["S"], src.n["SV"]

    def var(v):
        return n_s + n_sv + v

    expected = (
        [(subpart(src, "lvs", r), var(subpart(src, "lvv", r))) for r in range(1, src.n["LV"] + 1)]
        + [(subpart(src, "lss", r), n_s + subpart(src, "lssv", r)) for r in range(1, src.n["LS"] + 1)]
        + [(n_s + subpart(src, "lsvsv", r), var(subpart(src, "lsvv", r))) for r in range(1, src.n["LSV"] + 1)]
        + [(var(subpart(src, "fv", subpart(src, "ifn", r))), subpart(src, "is", r)) for r in range(1, src.n["I"] + 1)]
        + [(subpart(src, "os", r), var(subpart(src, "fv", subpart(src, "ofn", r)))) for r in range(1, src.n["O"] + 1)]
    )
    assert cl.edges == expected


@pytest.mark.parametrize("name, d", DIAGRAMS, ids=[name for name, _ in DIAGRAMS])
def test_sumvar_values_match_point_accessors(name, d):
    inst = d.inst
    u = {s: float(k) for k, s in enumerate(d.stocks, start=1)}
    expected = {}
    for sv_idx, sv_name in enumerate(d.sum_variables, start=1):
        total = 0.0
        for row in incident(inst, "lssv", sv_idx):
            total += u[inst.name_of("S", subpart(inst, "lss", row))]
        expected[sv_name] = total
    assert sumvar_values(d, u) == expected
