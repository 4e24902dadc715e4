"""`build_system_structure` fills whole columns; the per-row `add_part` /
`set_subpart` builder below is its reference, on every bundled model, a
composite and stratified diagrams, and on every error branch."""
import pytest

from stockflow import bundle as bio
from stockflow import models
from stockflow.acset import add_part, canonical_sort, empty_instance, set_subpart, validate_instance
from stockflow.compose import oapply
from stockflow.diagrams import (
    DiagramError,
    StockFlowDiagram,
    build_system_structure,
    inflows_of,
    open_diagram,
    outflows_of,
)
from stockflow.schema import schema_stockflow
from stockflow.stratify import stratify


def _as_names(value):
    if value in (None, (), []):
        return []
    return [value] if isinstance(value, str) else list(value)


def reference_build(stocks, flows, sums=(), variable_order=None):
    """One element and one foreign key at a time, in block order."""
    stock_items = list(stocks.items() if isinstance(stocks, dict) else stocks)
    flow_items = list(flows.items() if isinstance(flows, dict) else flows)
    sum_items = list(sums.items() if isinstance(sums, dict) else sums)
    inst = empty_instance(schema_stockflow())
    stock_index, flow_index, var_index, sum_index = {}, {}, {}, {}
    for name, _ in stock_items:
        if name in stock_index:
            raise DiagramError(f"duplicate stock {name!r}")
        stock_index[name] = add_part(inst, "S", name)
    for name, _ in flow_items:
        if name in flow_index:
            raise DiagramError(f"duplicate flow {name!r}")
        flow_index[name] = add_part(inst, "F", name)
    if variable_order is not None:
        for var in variable_order:
            if var in var_index:
                raise DiagramError(f"duplicate variable {var!r}")
            var_index[var] = add_part(inst, "V", var)
    mentioned = [var for _, var in flow_items]
    mentioned += [var for _, spec in stock_items for var in _as_names(spec[2])]
    mentioned += [var for _, targets in sum_items for var in _as_names(targets)]
    for var in mentioned:
        if var not in var_index:
            if variable_order is not None:
                raise DiagramError(f"unknown variable {var!r}")
            var_index[var] = add_part(inst, "V", var)
    for name, _ in sum_items:
        if name in sum_index:
            raise DiagramError(f"duplicate sum variable {name!r}")
        sum_index[name] = add_part(inst, "SV", name)
    for flow, var in flow_items:
        set_subpart(inst, "fv", flow_index[flow], var_index[var])
    for stock, spec in stock_items:
        if len(spec) != 4:
            raise DiagramError(f"stock {stock!r}: expected (inflows, outflows, variables, sums)")
        inflows, outflows, link_vars, link_sums = spec
        s = stock_index[stock]
        for table, fk, flow_list, kind in (("I", "ifn", inflows, "inflow"), ("O", "ofn", outflows, "outflow")):
            for flow in _as_names(flow_list):
                if flow not in flow_index:
                    raise DiagramError(f"stock {stock!r} {kind} references unknown flow {flow!r}")
                row = add_part(inst, table)
                set_subpart(inst, "is" if table == "I" else "os", row, s)
                set_subpart(inst, fk, row, flow_index[flow])
        for var in _as_names(link_vars):
            row = add_part(inst, "LV")
            set_subpart(inst, "lvs", row, s)
            set_subpart(inst, "lvv", row, var_index[var])
        for sv in _as_names(link_sums):
            if sv not in sum_index:
                raise DiagramError(f"stock {stock!r} links unknown sum variable {sv!r}")
            row = add_part(inst, "LS")
            set_subpart(inst, "lss", row, s)
            set_subpart(inst, "lssv", row, sum_index[sv])
    for sv, targets in sum_items:
        for var in _as_names(targets):
            row = add_part(inst, "LSV")
            set_subpart(inst, "lsvsv", row, sum_index[sv])
            set_subpart(inst, "lsvv", row, var_index[var])
    clash = set(stock_index) & set(sum_index)
    if clash:
        raise DiagramError(f"stock and sum variable share a name: {', '.join(sorted(clash))}")
    problems = validate_instance(inst)
    if problems:
        raise DiagramError("; ".join(problems))
    return StockFlowDiagram(inst)


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
