"""Stock-flow and interface diagram types with builders.

One class, :class:`StockFlowDiagram`, serves both kinds of diagram: with
formulas it is a stock-flow diagram, without (``expressions`` None) a bare
system-structure diagram.

The builders take a four-block layout: a stock block (per stock: inflows,
outflows, linked variables, linked sum variables), a flow block (flow ->
rate variable), a variable block (variable -> formula; absent for bare
structures) and a sum block (sum variable -> the variables it feeds).

Element order is fixed by the blocks: stocks, flows, variables and sum
variables in block order; inflow/outflow/link rows in stock-major order;
sum-variable links in sum-major order.
"""
from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from itertools import chain, count
from typing import NamedTuple

from .acset import Homomorphism, Instance, _strip_punctuation, preimages, validate_instance
from .expressions import Expression, identifiers, parse_expression
from .schema import schema_interface, schema_stockflow


class DiagramError(Exception):
    """A builder input that does not describe a well-formed diagram."""


class StockFlowDiagram:
    """The instance tables plus one formula per auxiliary variable; a bare
    system-structure diagram has ``expressions`` None."""

    def __init__(self, inst: Instance, expressions: dict[str, Expression] | None = None) -> None:
        self.inst = inst
        self.expressions = expressions

    def __eq__(self, other: object) -> bool:
        if type(other) is not StockFlowDiagram:
            return NotImplemented
        return vars(self) == vars(other)

    @property
    def stocks(self) -> list[str]:
        return self.inst.names_of("S")

    @property
    def flows(self) -> list[str]:
        return self.inst.names_of("F")

    @property
    def variables(self) -> list[str]:
        return self.inst.names_of("V")

    @property
    def sum_variables(self) -> list[str]:
        return self.inst.names_of("SV")


class Foot(NamedTuple):
    inst: Instance  # over the interface schema


class OpenStockFlow(NamedTuple):
    apex: StockFlowDiagram
    feet: list[Foot]
    legs: list[Homomorphism]  # foot -> interface part of the apex


StockSpec = tuple
_NONE = (None, (), [])


def _as_names(value) -> list[str]:
    """Normalize a block entry: a bare name, a sequence of names, or none."""
    if value in _NONE:
        return []
    if isinstance(value, str):
        return [value]
    return list(value)


def _items(block) -> list[tuple]:
    return list(block.items() if isinstance(block, Mapping) else block)


def _numbering(names: list[str], kind: str) -> dict[str, int]:
    """Name -> 1-based row; the first repeated name is an error."""
    index = {name: i for i, name in enumerate(names, start=1)}
    if len(index) != len(names):
        seen: set[str] = set()
        for name in names:
            if name in seen:
                raise DiagramError(f"duplicate {kind} {name!r}")
            seen.add(name)
    return index


def _rows(index: dict[str, int], names: list[str], error: str, stock: str) -> list[int]:
    try:
        return [index[name] for name in names]
    except KeyError as exc:
        raise DiagramError(error.format(stock=stock, name=exc.args[0])) from None


_UNKNOWN_INFLOW = "stock {stock!r} inflow references unknown flow {name!r}"
_UNKNOWN_OUTFLOW = "stock {stock!r} outflow references unknown flow {name!r}"
_UNKNOWN_SUM = "stock {stock!r} links unknown sum variable {name!r}"


def build_system_structure(
    stocks: Mapping[str, StockSpec] | Sequence[tuple[str, StockSpec]],
    flows: Mapping[str, str] | Sequence[tuple[str, str]],
    sums: Mapping[str, object] | Sequence[tuple[str, object]] = (),
    variable_order: Sequence[str] | None = None,
) -> StockFlowDiagram:
    """Assemble the instance tables from the block layout (no formulas).

    The name lists and foreign-key columns are filled whole and wrapped in
    one instance; ``validate_instance`` then checks it."""
    stock_items, flow_items, sum_items = _items(stocks), _items(flows), _items(sums)
    stock_names = [name for name, _ in stock_items]
    flow_names = [name for name, _ in flow_items]
    sum_names = [name for name, _ in sum_items]
    stock_index = _numbering(stock_names, "stock")
    flow_index = _numbering(flow_names, "flow")
    for stock, spec in stock_items:
        if len(spec) != 4:
            raise DiagramError(f"stock {stock!r}: expected (inflows, outflows, variables, sums)")
    specs = [[_as_names(entry) for entry in spec] for _, spec in stock_items]
    targets = [_as_names(entry) for _, entry in sum_items]

    # An explicit order (the formula block) wins; otherwise variables appear
    # in flow-block order, then any extras from links.
    flow_vars = [var for _, var in flow_items]
    mentioned = chain(
        flow_vars,
        chain.from_iterable(spec[2] for spec in specs),
        chain.from_iterable(targets),
    )
    if variable_order is None:
        var_names = list(dict.fromkeys(mentioned))
        var_index = {var: i for i, var in enumerate(var_names, start=1)}
    else:
        var_names = list(variable_order)
        var_index = _numbering(var_names, "variable")
        for var in mentioned:
            if var not in var_index:
                raise DiagramError(f"unknown variable {var!r}")
    sum_index = _numbering(sum_names, "sum variable")

    cols: dict[str, list[int]] = {m: [] for m, _, _ in schema_stockflow().morphisms}
    cols["fv"] = [var_index[var] for var in flow_vars]
    for s, stock, (inflows, outflows, link_vars, link_sums) in zip(count(1), stock_names, specs):
        cols["is"] += [s] * len(inflows)
        cols["ifn"] += _rows(flow_index, inflows, _UNKNOWN_INFLOW, stock)
        cols["os"] += [s] * len(outflows)
        cols["ofn"] += _rows(flow_index, outflows, _UNKNOWN_OUTFLOW, stock)
        cols["lvs"] += [s] * len(link_vars)
        cols["lvv"] += [var_index[var] for var in link_vars]
        cols["lss"] += [s] * len(link_sums)
        cols["lssv"] += _rows(sum_index, link_sums, _UNKNOWN_SUM, stock)
    for sv, sv_targets in enumerate(targets, start=1):
        cols["lsvsv"] += [sv] * len(sv_targets)
        cols["lsvv"] += [var_index[var] for var in sv_targets]

    clash = set(stock_index) & set(sum_index)
    if clash:
        # Formulas resolve identifiers by name, so this would be ambiguous.
        raise DiagramError(f"stock and sum variable share a name: {', '.join(sorted(clash))}")
    inst = Instance(
        schema=schema_stockflow(),
        n={
            "S": len(stock_names), "F": len(flow_names), "I": len(cols["is"]),
            "O": len(cols["os"]), "V": len(var_names), "SV": len(sum_names),
            "LS": len(cols["lss"]), "LV": len(cols["lvs"]), "LSV": len(cols["lsvsv"]),
        },
        columns=cols,
        names={"sname": stock_names, "fname": flow_names, "vname": var_names, "svname": sum_names},
    )
    problems = validate_instance(inst)
    if problems:
        raise DiagramError("; ".join(problems))
    return StockFlowDiagram(inst)


def build_stockflow(
    stocks,
    flows,
    variables: Mapping[str, object] | Sequence[tuple[str, object]],
    sums=(),
) -> StockFlowDiagram:
    """Like :func:`build_system_structure` plus a formula per variable; the
    formula block fixes the variable order."""
    var_items = list(variables.items() if isinstance(variables, Mapping) else variables)
    structure = build_system_structure(
        stocks, flows, sums, variable_order=[name for name, _ in var_items]
    )
    return attach_dynamics(structure, dict(var_items))


def attach_dynamics(
    structure: StockFlowDiagram,
    exprs: Mapping[str, object],
) -> StockFlowDiagram:
    """Promote a structure to a stock-flow diagram by giving every auxiliary
    variable a formula (text or parsed).  Formulas may only mention linked
    quantities, parameters and ``t``."""
    inst = structure.inst
    compiled: dict[str, Expression] = {}
    for name, expr in exprs.items():
        compiled[name] = parse_expression(expr) if isinstance(expr, str) else expr

    var_names = structure.variables
    if len(set(var_names)) != len(var_names):
        raise DiagramError("variable names are not unique; formulas cannot be assigned")
    missing = [v for v in var_names if v not in compiled]
    if missing:
        raise DiagramError(f"missing formula for variable(s): {', '.join(missing)}")
    extra = [v for v in compiled if v not in var_names]
    if extra:
        raise DiagramError(f"formula for unknown variable(s): {', '.join(extra)}")

    stock_names, sum_names = structure.stocks, structure.sum_variables
    stocks, sums = set(stock_names), set(sum_names)
    linked_stocks: list[set[str]] = [set() for _ in var_names]
    for s, v in zip(inst.columns["lvs"], inst.columns["lvv"]):
        linked_stocks[v - 1].add(stock_names[s - 1])
    linked_sums: list[set[str]] = [set() for _ in var_names]
    for sv, v in zip(inst.columns["lsvsv"], inst.columns["lsvv"]):
        linked_sums[v - 1].add(sum_names[sv - 1])
    for v_name, var_stocks, var_sums in zip(var_names, linked_stocks, linked_sums):
        for ident in sorted(identifiers(compiled[v_name])):
            if ident in stocks and ident not in var_stocks:
                raise DiagramError(f"variable {v_name!r} uses stock {ident!r} without a link")
            if ident in sums and ident not in var_sums:
                raise DiagramError(f"variable {v_name!r} uses sum variable {ident!r} without a link")
    return StockFlowDiagram(inst, {v: compiled[v] for v in var_names})


def to_system_structure(d: StockFlowDiagram) -> StockFlowDiagram:
    """Forget the formulas, keeping the instance unchanged."""
    return StockFlowDiagram(d.inst)


def duplicate_names(inst: Instance) -> tuple[str, list[str]] | None:
    """The first of the stock, flow, variable and sum-variable tables that
    repeats a name, as ``(kind, repeated names)``; None if all are unique."""
    for obj, kind in (("S", "stock"), ("F", "flow"), ("V", "variable"), ("SV", "sum variable")):
        clash = sorted(name for name, k in Counter(inst.names_of(obj)).items() if k > 1)
        if clash:
            return kind, clash
    return None


def flatten_names(s: StockFlowDiagram) -> StockFlowDiagram:
    """Rewrite tuple-style composite names such as ``(inf, id_F)`` to plain
    labels: keep the first component not starting with ``id``, or ``id`` if
    every component does.  Plain names pass through unchanged."""
    inst = s.inst
    out = Instance(
        schema=inst.schema,
        n=dict(inst.n),
        columns={m: list(col) for m, col in inst.columns.items()},
        names={attr: [_flatten(nm) for nm in col] for attr, col in inst.names.items()},
    )
    dupes = duplicate_names(out)
    if dupes:
        raise DiagramError(f"flattening collides on {dupes[0]} names: {', '.join(dupes[1])}")
    return StockFlowDiagram(out)


def _flatten(name: str) -> str:
    if "(" not in name and "," not in name:
        return name
    for part in map(_strip_punctuation, name.split(",")):
        if not part.startswith("id"):
            return part
    return "id"


def foot(stock: str, sum_variable: str, links: Iterable[tuple[str, str]] = ()) -> Foot:
    """An interface with one stock, one sum variable and the given links."""
    links = list(links)
    for src, dst in links:
        if src != stock or dst != sum_variable:
            raise DiagramError(f"foot link ({src!r}, {dst!r}) references undeclared names")
    return Foot(Instance(
        schema_interface(),
        n={"S": 1, "SV": 1, "LS": len(links)},
        columns={"lss": [1] * len(links), "lssv": [1] * len(links)},
        names={"sname": [stock], "svname": [sum_variable]},
    ))


def interface_part(inst: Instance) -> Instance:
    """The stock/sum-variable/sum-link fragment of a stock-flow instance,
    with element indices unchanged."""
    return Instance(
        schema_interface(),
        n={obj: inst.n[obj] for obj in ("S", "SV", "LS")},
        columns={m: list(inst.columns[m]) for m in ("lss", "lssv")},
        names={attr: list(inst.names[attr]) for attr in ("sname", "svname")},
    )


def open_diagram(d: StockFlowDiagram, feet: Sequence[Foot]) -> OpenStockFlow:
    """Attach feet to a diagram, inferring each leg by unique name matching."""
    target = interface_part(d.inst)
    named = {obj: preimages(d.inst.names_of(obj)) for obj in ("S", "SV")}
    links = preimages(zip(target.columns["lss"], target.columns["lssv"]))
    legs = []
    for ft in feet:
        comps: dict[str, list[int]] = {"LS": []}
        for obj, kind in (("S", "stock"), ("SV", "sum variable")):
            comps[obj] = []
            for name in ft.inst.names_of(obj):
                hits = named[obj].get(name, [])
                if len(hits) != 1:
                    raise DiagramError(f"foot {kind} {name!r} matches {len(hits)} apex elements")
                comps[obj].append(hits[0])
        for s, sv in zip(ft.inst.columns["lss"], ft.inst.columns["lssv"]):
            hits = links.get((comps["S"][s - 1], comps["SV"][sv - 1]), [])
            if len(hits) != 1:
                raise DiagramError(
                    f"foot link {ft.inst.name_of('S', s)!r} -> "
                    f"{ft.inst.name_of('SV', sv)!r} matches {len(hits)} links"
                )
            comps["LS"].append(hits[0])
        legs.append(Homomorphism(ft.inst, target, comps))
    return OpenStockFlow(d, list(feet), legs)

