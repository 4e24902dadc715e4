"""The JSON model-bundle format.

A bundle is a single file that can hold everything one CLI invocation needs:
models (stock-flow or bare structures), interface feet, wiring patterns,
typings, parameter sets and initial states.  Emission is canonical (fixed key
order, two-space indent, LF, UTF-8) so identical bundles serialize to
identical bytes, and ``parse_json(emit_json(b)) == b``.
"""
from __future__ import annotations

import json
from typing import NamedTuple

from .acset import preimages
from .compose import Box, WiringPattern
from .diagrams import (
    DiagramError,
    Foot,
    StockFlowDiagram,
    build_system_structure,
    foot as make_foot,
)
from .expressions import Expression, ExpressionError, format_expression, parse_expression
from .jsontext import (
    NL,
    ShapeError,
    array,
    array_at,
    columns,
    mapping,
    number,
    number_fields,
    number_map,
    pair_array,
    pairs,
    quote,
    string,
    string_array,
    string_fields,
    string_map,
    strings,
    write_object,
)
from .stratify import TypedDiagram, make_typed

FORMAT = "stockflow-bundle"
VERSION = 1


class BundleError(Exception):
    """Malformed bundle text or a reference that does not resolve."""


class FlowDef(NamedTuple):
    name: str
    variable: str
    upstream: str | None = None
    downstream: str | None = None


class ModelDef(NamedTuple):
    stocks: list[str]
    flows: list[FlowDef]
    variables: list[str]
    expressions: dict[str, Expression]  # parsed formulas; empty for bare structures
    sum_variables: list[str]
    stock_variable_links: list[tuple[str, str]]
    stock_sum_links: list[tuple[str, str]]
    sum_variable_links: list[tuple[str, str]]


class FootDef(NamedTuple):
    stock: str
    sum_variable: str
    links: list[tuple[str, str]]


class BoxDef(NamedTuple):
    model: str
    feet: list[str]
    ports: list[str]


class PatternDef(NamedTuple):
    junctions: list[str]
    boxes: list[BoxDef]
    outer_ports: list[str]


class TypingDef(NamedTuple):
    model: str
    type_model: str
    stocks: dict[str, str]
    flows: dict[str, str]
    variables: dict[str, str]
    sum_variables: dict[str, str]


class ModelBundle:
    """The six named sections of a bundle; a section not given starts empty."""

    def __init__(
        self,
        models: dict[str, ModelDef] | None = None,
        feet: dict[str, FootDef] | None = None,
        wiring: dict[str, PatternDef] | None = None,
        typings: dict[str, TypingDef] | None = None,
        parameters: dict[str, dict[str, float]] | None = None,
        initial: dict[str, dict[str, float]] | None = None,
    ) -> None:
        self.models = {} if models is None else models
        self.feet = {} if feet is None else feet
        self.wiring = {} if wiring is None else wiring
        self.typings = {} if typings is None else typings
        self.parameters = {} if parameters is None else parameters
        self.initial = {} if initial is None else initial

    def __eq__(self, other: object) -> bool:
        if type(other) is not ModelBundle:
            return NotImplemented
        return vars(self) == vars(other)


# --- diagrams <-> bundle entries -------------------------------------------

def diagram_to_model(d: StockFlowDiagram) -> ModelDef:
    """Normal form of a diagram: inflow/outflow rows become per-flow
    upstream/downstream fields (well defined by injectivity)."""
    inst = d.inst
    cols = inst.columns
    stocks, variables, sums = inst.names_of("S"), inst.names_of("V"), inst.names_of("SV")
    upstream_of = {f: stocks[s - 1] for f, s in zip(cols["ofn"], cols["os"])}
    downstream_of = {f: stocks[s - 1] for f, s in zip(cols["ifn"], cols["is"])}
    flows = [
        FlowDef(
            name=f_name,
            variable=variables[v - 1],
            upstream=upstream_of.get(f_idx),
            downstream=downstream_of.get(f_idx),
        )
        for f_idx, (f_name, v) in enumerate(zip(inst.names_of("F"), cols["fv"]), start=1)
    ]
    return ModelDef(
        stocks=stocks,
        flows=flows,
        variables=variables,
        expressions={} if d.expressions is None else dict(d.expressions),
        sum_variables=sums,
        stock_variable_links=[(stocks[s - 1], variables[v - 1]) for s, v in zip(cols["lvs"], cols["lvv"])],
        stock_sum_links=[(stocks[s - 1], sums[sv - 1]) for s, sv in zip(cols["lss"], cols["lssv"])],
        sum_variable_links=[(sums[sv - 1], variables[v - 1]) for sv, v in zip(cols["lsvsv"], cols["lsvv"])],
    )


def model_to_structure(m: ModelDef) -> StockFlowDiagram:
    stocks: dict[str, tuple[list, list, list, list]] = {s: ([], [], [], []) for s in m.stocks}
    sums: dict[str, list[str]] = {sv: [] for sv in m.sum_variables}
    try:
        for fd in m.flows:
            if fd.downstream is not None:
                stocks[fd.downstream][0].append(fd.name)
            if fd.upstream is not None:
                stocks[fd.upstream][1].append(fd.name)
        for s, v in m.stock_variable_links:
            stocks[s][2].append(v)
        for s, sv in m.stock_sum_links:
            if sv not in sums:
                raise BundleError(f"stock-sum link references unknown sum variable {sv!r}")
            stocks[s][3].append(sv)
    except KeyError as exc:
        raise BundleError(f"reference to unknown stock {exc.args[0]!r}") from None
    for sv, v in m.sum_variable_links:
        if sv not in sums:
            raise BundleError(f"sum-variable link references unknown sum variable {sv!r}")
        sums[sv].append(v)
    try:
        # Lists, not the dicts above, so a repeated name is reported.
        return build_system_structure(
            [(s, stocks[s]) for s in m.stocks],
            [(fd.name, fd.variable) for fd in m.flows],
            [(sv, sums[sv]) for sv in m.sum_variables],
            variable_order=m.variables,
        )
    except DiagramError as exc:
        raise BundleError(str(exc)) from exc


def model_to_diagram(m: ModelDef) -> StockFlowDiagram:
    if not m.expressions and m.variables:
        raise BundleError("model has no formulas; it is a bare structure")
    structure = model_to_structure(m)
    try:
        return StockFlowDiagram(structure.inst, {v: m.expressions[v] for v in m.variables})
    except KeyError as exc:
        raise BundleError(f"missing formula for variable {exc.args[0]!r}") from exc


def def_to_foot(fd: FootDef) -> Foot:
    try:
        return make_foot(fd.stock, fd.sum_variable, fd.links)
    except DiagramError as exc:
        raise BundleError(str(exc)) from exc


def def_to_pattern(pd: PatternDef) -> WiringPattern:
    try:
        return WiringPattern(
            junctions=list(pd.junctions),
            boxes=[Box(b.model, list(b.ports)) for b in pd.boxes],
            outer_ports=list(pd.outer_ports),
        )
    except DiagramError as exc:
        raise BundleError(str(exc)) from exc


def typing_to_def(name_model: str, name_type: str, t: TypedDiagram) -> TypingDef:
    src, dst = t.diagram.inst, t.type_system.inst

    def table(obj: str) -> dict[str, str]:
        images = dst.names_of(obj)
        return dict(zip(src.names_of(obj), (images[j - 1] for j in t.typing.components[obj])))

    return TypingDef(
        model=name_model,
        type_model=name_type,
        stocks=table("S"),
        flows=table("F"),
        variables=table("V"),
        sum_variables=table("SV"),
    )


def def_to_typing(
    td: TypingDef,
    model: StockFlowDiagram,
    type_model: StockFlowDiagram,
) -> TypedDiagram:
    """Rebuild a typed diagram from the four name tables; the link and
    inflow/outflow components are forced by commutation and must resolve
    uniquely.  Errors do not name the typing; the caller knows its name."""
    src, dst = model.inst, type_model.inst

    def named(obj: str, table: dict[str, str]) -> list[int]:
        rows = preimages(dst.names_of(obj))
        out = []
        for name in src.names_of(obj):
            if name not in table:
                raise BundleError(f"no image for {obj} {name!r}")
            hits = rows.get(table[name], [])
            if len(hits) != 1:
                raise BundleError(f"image {table[name]!r} of {obj} {name!r} names {len(hits)} type elements")
            out.append(hits[0])
        return out

    comps: dict[str, list[int]] = {
        "S": named("S", td.stocks),
        "F": named("F", td.flows),
        "V": named("V", td.variables),
        "SV": named("SV", td.sum_variables),
    }

    def forced(obj: str, m1: str, cod1: str, m2: str, cod2: str) -> list[int]:
        rows = preimages(zip(dst.columns[m1], dst.columns[m2]))
        out = []
        for i, (a, b) in enumerate(zip(src.columns[m1], src.columns[m2]), start=1):
            hits = rows.get((comps[cod1][a - 1], comps[cod2][b - 1]), [])
            if len(hits) != 1:
                raise BundleError(f"{obj} row {i} resolves to {len(hits)} candidates")
            out.append(hits[0])
        return out

    comps["I"] = forced("I", "is", "S", "ifn", "F")
    comps["O"] = forced("O", "os", "S", "ofn", "F")
    comps["LV"] = forced("LV", "lvs", "S", "lvv", "V")
    comps["LS"] = forced("LS", "lss", "S", "lssv", "SV")
    comps["LSV"] = forced("LSV", "lsvsv", "SV", "lsvv", "V")
    try:
        return make_typed(model, type_model, comps)
    except DiagramError as exc:
        raise BundleError(str(exc)) from exc


# --- JSON text --------------------------------------------------------------

def emit_json(bundle: ModelBundle) -> str:
    out: list[str] = []
    write_object(out, [
        ("format", quote(FORMAT)),
        ("version", number(VERSION)),
        ("models", [(name, _model_fields(m)) for name, m in bundle.models.items()]),
        ("feet", [
            (name, [
                ("stock", quote(f.stock)),
                ("sum_variable", quote(f.sum_variable)),
                ("links", pair_array(f.links, 4)),
            ])
            for name, f in bundle.feet.items()
        ]),
        ("wiring", [
            (name, [
                ("junctions", string_array(p.junctions, 4)),
                ("boxes", _box_array(p.boxes)),
                ("outer_ports", string_array(p.outer_ports, 4)),
            ])
            for name, p in bundle.wiring.items()
        ]),
        ("typings", [
            (name, [
                ("model", quote(t.model)),
                ("type_model", quote(t.type_model)),
                ("stocks", string_fields(t.stocks)),
                ("flows", string_fields(t.flows)),
                ("variables", string_fields(t.variables)),
                ("sum_variables", string_fields(t.sum_variables)),
            ])
            for name, t in bundle.typings.items()
        ]),
        ("parameters", [(name, number_fields(p)) for name, p in bundle.parameters.items()]),
        ("initial", [(name, number_fields(u)) for name, u in bundle.initial.items()]),
    ], 1)
    out.append("\n")
    return "".join(out)


def _model_fields(m: ModelDef) -> list[tuple[str, str]]:
    key, close = NL[5], NL[4]
    flows = []
    for fd in m.flows:
        text = f'{{{key}"name": {quote(fd.name)},{key}"variable": {quote(fd.variable)}'
        if fd.upstream is not None:
            text += f',{key}"upstream": {quote(fd.upstream)}'
        if fd.downstream is not None:
            text += f',{key}"downstream": {quote(fd.downstream)}'
        flows.append(text + close + "}")
    variables = []
    for v in m.variables:
        text = f'{{{key}"name": {quote(v)}'
        if v in m.expressions:
            text += f',{key}"expression": {quote(format_expression(m.expressions[v]))}'
        variables.append(text + close + "}")
    return [
        ("stocks", string_array(m.stocks, 4)),
        ("flows", array(flows, 4)),
        ("variables", array(variables, 4)),
        ("sum_variables", string_array(m.sum_variables, 4)),
        ("stock_variable_links", pair_array(m.stock_variable_links, 4)),
        ("stock_sum_links", pair_array(m.stock_sum_links, 4)),
        ("sum_variable_links", pair_array(m.sum_variable_links, 4)),
    ]


def _box_array(boxes: list[BoxDef]) -> str:
    key, close = NL[5], NL[4]
    return array([
        f'{{{key}"model": {quote(b.model)},{key}"feet": {string_array(b.feet, 6)},'
        f'{key}"ports": {string_array(b.ports, 6)}{close}}}'
        for b in boxes
    ], 4)


def parse_json(text: str) -> ModelBundle:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BundleError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise BundleError("top level must be an object")
    if doc.get("format") != FORMAT:
        raise BundleError(f"format: expected {FORMAT!r}, found {doc.get('format')!r}")
    if doc.get("version") != VERSION:
        raise BundleError(f"version: expected {VERSION}, found {doc.get('version')!r}")
    try:
        return _read_sections(doc)
    except ShapeError as exc:
        raise BundleError(str(exc)) from exc


def _read_sections(doc: dict) -> ModelBundle:
    bundle = ModelBundle()
    for name, raw in mapping(doc, "models").items():
        path = f"models.{name}"
        flows = list(map(FlowDef, *columns(raw, "flows", path, ("name", "variable"), ("upstream", "downstream"))))
        variables, formulas = columns(raw, "variables", path, ("name",), ("expression",))
        expressions = {}
        for k, (vname, expr) in enumerate(zip(variables, formulas)):
            if expr is not None:
                try:
                    expressions[vname] = parse_expression(expr)
                except ExpressionError as exc:
                    raise BundleError(f"{path}.variables[{k}].expression: {exc}") from exc
        if expressions and set(expressions) != set(variables):
            raise BundleError(f"{path}: either all variables carry formulas or none do")
        bundle.models[name] = ModelDef(
            stocks=strings(raw, "stocks", path),
            flows=flows,
            variables=variables,
            expressions=expressions,
            sum_variables=strings(raw, "sum_variables", path),
            stock_variable_links=pairs(raw, "stock_variable_links", path),
            stock_sum_links=pairs(raw, "stock_sum_links", path),
            sum_variable_links=pairs(raw, "sum_variable_links", path),
        )
    for name, raw in mapping(doc, "feet").items():
        path = f"feet.{name}"
        bundle.feet[name] = FootDef(
            stock=string(raw, "stock", path),
            sum_variable=string(raw, "sum_variable", path),
            links=pairs(raw, "links", path),
        )
    for name, raw in mapping(doc, "wiring").items():
        path = f"wiring.{name}"
        boxes = []
        for k, br in enumerate(array_at(raw, "boxes", path)):
            bpath = f"{path}.boxes[{k}]"
            boxes.append(
                BoxDef(
                    model=string(br, "model", bpath),
                    feet=strings(br, "feet", bpath),
                    ports=strings(br, "ports", bpath),
                )
            )
        bundle.wiring[name] = PatternDef(
            junctions=strings(raw, "junctions", path),
            boxes=boxes,
            outer_ports=strings(raw, "outer_ports", path),
        )
    for name, raw in mapping(doc, "typings").items():
        path = f"typings.{name}"
        bundle.typings[name] = TypingDef(
            model=string(raw, "model", path),
            type_model=string(raw, "type_model", path),
            stocks=string_map(raw, "stocks", path),
            flows=string_map(raw, "flows", path),
            variables=string_map(raw, "variables", path),
            sum_variables=string_map(raw, "sum_variables", path),
        )
    for name, raw in mapping(doc, "parameters").items():
        bundle.parameters[name] = number_map(raw, f"parameters.{name}")
    for name, raw in mapping(doc, "initial").items():
        bundle.initial[name] = number_map(raw, f"initial.{name}")
    return bundle
