"""`build_system_structure` fills whole columns; the per-row builder
`reference.reference_build` is its reference, on every bundled model, a
composite and stratified diagrams, and on every error branch."""
import pytest

from stockflow import bundle as bio
from stockflow import models
from stockflow.compose import oapply
from stockflow.diagrams import DiagramError, build_system_structure, open_diagram
from stockflow.stratify import stratify

from reference import canonical_sort, inflows_of, outflows_of, reference_build


def block_layout(d):
    """The builder arguments that rebuild `d`, read with the point accessors."""
    inst = d.inst
    cols = inst.columns
    stocks = [
        (
            s,
            (
                inflows_of(d, s),
                outflows_of(d, s),
                [inst.name_of("V", v) for st, v in zip(cols["lvs"], cols["lvv"]) if st == i],
                [inst.name_of("SV", sv) for st, sv in zip(cols["lss"], cols["lssv"]) if st == i],
            ),
        )
        for i, s in enumerate(d.stocks, start=1)
    ]
    flows = [(f, inst.name_of("V", v)) for f, v in zip(d.flows, cols["fv"])]
    sums = [
        (name, [inst.name_of("V", v) for sv, v in zip(cols["lsvsv"], cols["lsvv"]) if sv == i])
        for i, name in enumerate(d.sum_variables, start=1)
    ]
    return stocks, flows, sums, d.variables


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
    out.append((
        "seir-x-sexaging-x-age",
        stratify(models.seir_typed(ts), models.sex_strata_with_aging_typed(ts), models.age_strata_typed(ts)),
    ))
    return out


DIAGRAMS = _diagrams()


@pytest.mark.parametrize("name, d", DIAGRAMS, ids=[name for name, _ in DIAGRAMS])
def test_column_builder_matches_per_row_reference(name, d):
    stocks, flows, sums, variables = block_layout(d)
    for order in (None, variables):
        built = build_system_structure(stocks, flows, sums, variable_order=order)
        assert built.inst == reference_build(stocks, flows, sums, variable_order=order).inst
    # Composites and pullbacks do not keep stock-major row order; the
    # rebuild equals them up to row order.
    assert canonical_sort(built.inst) == canonical_sort(d.inst)
    assert build_system_structure(dict(stocks), dict(flows), dict(sums)).inst == reference_build(
        dict(stocks), dict(flows), dict(sums)
    ).inst


_EMPTY = (None, None, None, None)
ERROR_CASES = {
    "duplicate-stock": ([("S", _EMPTY), ("S", _EMPTY)], [], ()),
    "duplicate-flow": ([("S", _EMPTY)], [("f", "v"), ("f", "v")], ()),
    "duplicate-variable": ([("S", _EMPTY)], [("f", "v")], (), ["v", "w", "v"]),
    "duplicate-sum-variable": ([("S", _EMPTY)], [], [("N", None), ("N", None)]),
    "unknown-inflow": ([("S", ("f", None, None, None)), ("I", ("g", None, None, None))], [("f", "v")], ()),
    "unknown-outflow": ([("S", (None, ["f", "h"], None, None))], [("f", "v")], ()),
    "unknown-variable": ([("S", (None, None, "w", None))], [("f", "v")], (), ["v"]),
    "unknown-sum-variable": ([("S", (None, None, None, "N"))], [], ()),
    "stock-sum-name-clash": ([("S", (None, None, None, "S"))], [], [("S", None)]),
    "shared-inflow": ([("S", ("f", None, None, None)), ("I", ("f", None, None, None))], [("f", "v")], ()),
    "bad-stock-spec": ([("S", (None, None, None))], [], ()),
}


@pytest.mark.parametrize("case", ERROR_CASES.values(), ids=list(ERROR_CASES))
def test_column_builder_errors_match_reference(case):
    with pytest.raises(DiagramError) as expected:
        reference_build(*case)
    with pytest.raises(DiagramError) as got:
        build_system_structure(*case)
    assert str(got.value) == str(expected.value)
