"""The JSON model-bundle format.

A bundle is a single file that can hold everything one CLI invocation needs:
models (stock-flow or bare structures), interface feet, wiring patterns,
typings, parameter sets and initial states.  Emission is canonical (fixed key
order, two-space indent, LF, UTF-8) so identical bundles serialize to
identical bytes, and ``parse_json(emit_json(b)) == b``.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

from .acset import preimages
from .compose import Box, WiringPattern
from .diagrams import (
    DiagramError,
    Foot,
    StockFlowDiagram,
    build_system_structure,
    foot as make_foot,
)
from .expressions import ExpressionError, format_expression, parse_expression
from .stratify import TypedDiagram, make_typed

FORMAT = "stockflow-bundle"
VERSION = 1


class BundleError(Exception):
    """Malformed bundle text or a reference that does not resolve."""


@dataclass
class FlowDef:
    name: str
    variable: str
    upstream: str | None = None
    downstream: str | None = None


@dataclass
class ModelDef:
    stocks: list[str]
    flows: list[FlowDef]
    variables: list[str]
    expressions: dict[str, str]  # empty for bare structures
    sum_variables: list[str]
    stock_variable_links: list[tuple[str, str]]
    stock_sum_links: list[tuple[str, str]]
    sum_variable_links: list[tuple[str, str]]


@dataclass
class FootDef:
    stock: str
    sum_variable: str
    links: list[tuple[str, str]]


@dataclass
class BoxDef:
    model: str
    feet: list[str]
    ports: list[str]


@dataclass
class PatternDef:
    junctions: list[str]
    boxes: list[BoxDef]
    outer_ports: list[str]


@dataclass
class TypingDef:
    model: str
    type_model: str
    stocks: dict[str, str]
    flows: dict[str, str]
    variables: dict[str, str]
    sum_variables: dict[str, str]


@dataclass
class ModelBundle:
    models: dict[str, ModelDef] = field(default_factory=dict)
    feet: dict[str, FootDef] = field(default_factory=dict)
    wiring: dict[str, PatternDef] = field(default_factory=dict)
    typings: dict[str, TypingDef] = field(default_factory=dict)
    parameters: dict[str, dict[str, float]] = field(default_factory=dict)
    initial: dict[str, dict[str, float]] = field(default_factory=dict)


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
    expressions = {}
    if d.expressions is not None:
        expressions = {v: format_expression(e) for v, e in d.expressions.items()}
    return ModelDef(
        stocks=stocks,
        flows=flows,
        variables=variables,
        expressions=expressions,
        sum_variables=sums,
        stock_variable_links=[(stocks[s - 1], variables[v - 1]) for s, v in zip(cols["lvs"], cols["lvv"])],
        stock_sum_links=[(stocks[s - 1], sums[sv - 1]) for s, sv in zip(cols["lss"], cols["lssv"])],
        sum_variable_links=[(sums[sv - 1], variables[v - 1]) for sv, v in zip(cols["lsvsv"], cols["lsvv"])],
    )


def model_to_structure(m: ModelDef) -> StockFlowDiagram:
    stocks: dict[str, list] = {s: [[], [], [], []] for s in m.stocks}
    for fd in m.flows:
        if fd.downstream is not None:
            _stock_slot(stocks, fd.downstream, 0, m).append(fd.name)
        if fd.upstream is not None:
            _stock_slot(stocks, fd.upstream, 1, m).append(fd.name)
    for s, v in m.stock_variable_links:
        _stock_slot(stocks, s, 2, m).append(v)
    sums: dict[str, list[str]] = {sv: [] for sv in m.sum_variables}
    for s, sv in m.stock_sum_links:
        if sv not in sums:
            raise BundleError(f"stock-sum link references unknown sum variable {sv!r}")
        _stock_slot(stocks, s, 3, m).append(sv)
    for sv, v in m.sum_variable_links:
        if sv not in sums:
            raise BundleError(f"sum-variable link references unknown sum variable {sv!r}")
        sums[sv].append(v)
    try:
        return build_system_structure(
            {s: tuple(slots) for s, slots in stocks.items()},
            {fd.name: fd.variable for fd in m.flows},
            sums,
            variable_order=m.variables,
        )
    except DiagramError as exc:
        raise BundleError(str(exc)) from exc


def _stock_slot(stocks: dict, name: str, slot: int, m: ModelDef) -> list:
    if name not in stocks:
        raise BundleError(f"reference to unknown stock {name!r}")
    return stocks[name][slot]


def model_to_diagram(m: ModelDef) -> StockFlowDiagram:
    if not m.expressions and m.variables:
        raise BundleError("model has no formulas; it is a bare structure")
    structure = model_to_structure(m)
    try:
        return StockFlowDiagram(
            structure.inst, {v: parse_expression(m.expressions[v]) for v in m.variables}
        )
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
    uniquely."""
    src, dst = model.inst, type_model.inst

    def named(obj: str, table: dict[str, str]) -> list[int]:
        rows = preimages(dst.names_of(obj))
        out = []
        for name in src.names_of(obj):
            if name not in table:
                raise BundleError(f"typing {td.model!r}: no image for {obj} {name!r}")
            hits = rows.get(table[name], [])
            if len(hits) != 1:
                raise BundleError(
                    f"typing {td.model!r}: image {table[name]!r} of {obj} {name!r} "
                    f"names {len(hits)} type elements"
                )
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
                raise BundleError(
                    f"typing {td.model!r}: {obj} row {i} resolves to {len(hits)} candidates"
                )
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
        raise BundleError(f"typing {td.model!r}: {exc}") from exc


# --- JSON text --------------------------------------------------------------

def emit_json(bundle: ModelBundle) -> str:
    doc = {
        "format": FORMAT,
        "version": VERSION,
        "models": {
            name: {
                "stocks": m.stocks,
                "flows": [
                    {
                        "name": fd.name,
                        "variable": fd.variable,
                        **({"upstream": fd.upstream} if fd.upstream is not None else {}),
                        **({"downstream": fd.downstream} if fd.downstream is not None else {}),
                    }
                    for fd in m.flows
                ],
                "variables": [
                    {"name": v, **({"expression": m.expressions[v]} if v in m.expressions else {})}
                    for v in m.variables
                ],
                "sum_variables": m.sum_variables,
                "stock_variable_links": [list(x) for x in m.stock_variable_links],
                "stock_sum_links": [list(x) for x in m.stock_sum_links],
                "sum_variable_links": [list(x) for x in m.sum_variable_links],
            }
            for name, m in bundle.models.items()
        },
        "feet": {
            name: {"stock": f.stock, "sum_variable": f.sum_variable, "links": [list(x) for x in f.links]}
            for name, f in bundle.feet.items()
        },
        "wiring": {
            name: {
                "junctions": p.junctions,
                "boxes": [{"model": b.model, "feet": b.feet, "ports": b.ports} for b in p.boxes],
                "outer_ports": p.outer_ports,
            }
            for name, p in bundle.wiring.items()
        },
        "typings": {
            name: {
                "model": t.model,
                "type_model": t.type_model,
                "stocks": t.stocks,
                "flows": t.flows,
                "variables": t.variables,
                "sum_variables": t.sum_variables,
            }
            for name, t in bundle.typings.items()
        },
        "parameters": bundle.parameters,
        "initial": bundle.initial,
    }
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


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

    bundle = ModelBundle()
    for name, raw in _mapping(doc, "models").items():
        path = f"models.{name}"
        flows = []
        for k, fr in enumerate(_list(raw, "flows", path)):
            fpath = f"{path}.flows[{k}]"
            flows.append(
                FlowDef(
                    name=_str(fr, "name", fpath),
                    variable=_str(fr, "variable", fpath),
                    upstream=_opt_str(fr, "upstream", fpath),
                    downstream=_opt_str(fr, "downstream", fpath),
                )
            )
        variables = []
        expressions = {}
        for k, vr in enumerate(_list(raw, "variables", path)):
            vpath = f"{path}.variables[{k}]"
            vname = _str(vr, "name", vpath)
            variables.append(vname)
            expr = _opt_str(vr, "expression", vpath)
            if expr is not None:
                try:
                    parse_expression(expr)
                except ExpressionError as exc:
                    raise BundleError(f"{vpath}.expression: {exc}") from exc
                expressions[vname] = expr
        if expressions and set(expressions) != set(variables):
            raise BundleError(f"{path}: either all variables carry formulas or none do")
        bundle.models[name] = ModelDef(
            stocks=_str_list(raw, "stocks", path),
            flows=flows,
            variables=variables,
            expressions=expressions,
            sum_variables=_str_list(raw, "sum_variables", path),
            stock_variable_links=_pairs(raw, "stock_variable_links", path),
            stock_sum_links=_pairs(raw, "stock_sum_links", path),
            sum_variable_links=_pairs(raw, "sum_variable_links", path),
        )
    for name, raw in _mapping(doc, "feet").items():
        path = f"feet.{name}"
        bundle.feet[name] = FootDef(
            stock=_str(raw, "stock", path),
            sum_variable=_str(raw, "sum_variable", path),
            links=_pairs(raw, "links", path),
        )
    for name, raw in _mapping(doc, "wiring").items():
        path = f"wiring.{name}"
        boxes = []
        for k, br in enumerate(_list(raw, "boxes", path)):
            bpath = f"{path}.boxes[{k}]"
            boxes.append(
                BoxDef(
                    model=_str(br, "model", bpath),
                    feet=_str_list(br, "feet", bpath),
                    ports=_str_list(br, "ports", bpath),
                )
            )
        bundle.wiring[name] = PatternDef(
            junctions=_str_list(raw, "junctions", path),
            boxes=boxes,
            outer_ports=_str_list(raw, "outer_ports", path),
        )
    for name, raw in _mapping(doc, "typings").items():
        path = f"typings.{name}"
        bundle.typings[name] = TypingDef(
            model=_str(raw, "model", path),
            type_model=_str(raw, "type_model", path),
            stocks=_str_map(raw, "stocks", path),
            flows=_str_map(raw, "flows", path),
            variables=_str_map(raw, "variables", path),
            sum_variables=_str_map(raw, "sum_variables", path),
        )
    for name, raw in _mapping(doc, "parameters").items():
        bundle.parameters[name] = _num_map(raw, f"parameters.{name}")
    for name, raw in _mapping(doc, "initial").items():
        bundle.initial[name] = _num_map(raw, f"initial.{name}")
    return bundle


def _mapping(doc: dict, key: str) -> dict:
    value = doc.get(key, {})
    if not isinstance(value, dict):
        raise BundleError(f"{key}: expected an object")
    return value


def _list(raw, key: str, path: str) -> list:
    if not isinstance(raw, dict) or not isinstance(raw.get(key, None), list):
        raise BundleError(f"{path}.{key}: expected an array")
    return raw[key]


def _str(raw, key: str, path: str) -> str:
    if not isinstance(raw, dict) or not isinstance(raw.get(key), str):
        raise BundleError(f"{path}.{key}: expected a string")
    return raw[key]


def _opt_str(raw: dict, key: str, path: str) -> str | None:
    value = raw.get(key)
    if value is None:
        return None
    if not isinstance(value, str):
        raise BundleError(f"{path}.{key}: expected a string")
    return value


def _str_list(raw, key: str, path: str) -> list[str]:
    value = _list(raw, key, path)
    if not all(isinstance(x, str) for x in value):
        raise BundleError(f"{path}.{key}: expected an array of strings")
    return list(value)


def _pairs(raw, key: str, path: str) -> list[tuple[str, str]]:
    value = _list(raw, key, path)
    out = []
    for k, item in enumerate(value):
        if not (isinstance(item, list) and len(item) == 2 and all(isinstance(x, str) for x in item)):
            raise BundleError(f"{path}.{key}[{k}]: expected a [source, target] pair")
        out.append((item[0], item[1]))
    return out


def _str_map(raw, key: str, path: str) -> dict[str, str]:
    value = raw.get(key, {})
    if not isinstance(value, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in value.items()
    ):
        raise BundleError(f"{path}.{key}: expected an object of strings")
    return dict(value)


def _num_map(raw, path: str) -> dict[str, float]:
    if not isinstance(raw, dict):
        raise BundleError(f"{path}: expected an object")
    out = {}
    for k, v in raw.items():
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise BundleError(f"{path}.{k}: expected a number")
        out[k] = float(v)
    return out
