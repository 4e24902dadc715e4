"""Per-row reads and writes of an instance, kept as test references.

The library touches instances only through whole columns
(``Instance.columns``, ``Instance.names``).  The one-element builder and
accessors below are the obvious per-row versions of the same reads and
writes; tests compare the column passes against them.  ``canonical_sort``,
``identity_hom`` and ``parse_csv`` are test oracles of the same kind.
"""
from __future__ import annotations

from stockflow.acset import AcsetError, Homomorphism, Instance, validate_instance
from stockflow.diagrams import DiagramError, StockFlowDiagram
from stockflow.odes import Trajectory
from stockflow.render import RenderError
from stockflow.schema import SchemaDef, schema_stockflow


def morphism(schema: SchemaDef, name: str) -> tuple[str, str, str]:
    for m in schema.morphisms:
        if m[0] == name:
            return m
    raise KeyError(f"unknown morphism: {name!r}")


def morphisms_from(schema: SchemaDef, obj: str) -> tuple[tuple[str, str, str], ...]:
    return tuple(m for m in schema.morphisms if m[1] == obj)


def index_of(inst: Instance, obj: str, name: str) -> int:
    """1-based index of the uniquely named element of `obj`."""
    hits = [i + 1 for i, nm in enumerate(inst.names_of(obj)) if nm == name]
    if not hits:
        raise AcsetError(f"no {obj} element named {name!r}")
    if len(hits) > 1:
        raise AcsetError(f"ambiguous {obj} name {name!r}")
    return hits[0]


def add_part(inst: Instance, obj: str, name: str = "") -> int:
    """Append a fresh element to `obj`; its outgoing columns start unset."""
    if obj not in inst.schema.objects:
        raise AcsetError(f"unknown object: {obj!r}")
    inst.n[obj] += 1
    for m, _, _ in morphisms_from(inst.schema, obj):
        inst.columns[m].append(None)
    attr = inst.schema.name_attribute_of(obj)
    if attr is not None:
        inst.names[attr].append(name)
    return inst.n[obj]


def set_subpart(inst: Instance, name: str, element: int, value: int) -> None:
    _, dom, cod = morphism(inst.schema, name)
    if not 1 <= element <= inst.n[dom]:
        raise AcsetError(f"{name}: element {element} out of range for {dom}")
    if not 1 <= value <= inst.n[cod]:
        raise AcsetError(f"{name}: value {value} out of range for {cod}")
    inst.columns[name][element - 1] = value


def subpart(inst: Instance, name: str, element: int) -> int:
    _, dom, _ = morphism(inst.schema, name)
    if not 1 <= element <= inst.n[dom]:
        raise AcsetError(f"{name}: element {element} out of range for {dom}")
    value = inst.columns[name][element - 1]
    if value is None:
        raise AcsetError(f"{name}: element {element} is unset")
    return value


def incident(inst: Instance, name: str, value: int) -> list[int]:
    """All domain elements whose column equals `value`, ascending."""
    _, _, cod = morphism(inst.schema, name)
    if not 1 <= value <= inst.n[cod]:
        raise AcsetError(f"{name}: value {value} out of range for {cod}")
    return [i + 1 for i, v in enumerate(inst.columns[name]) if v == value]


def _as_names(value):
    if value in (None, (), []):
        return []
    return [value] if isinstance(value, str) else list(value)


def reference_build(stocks, flows, sums=(), variable_order=None):
    """One element and one foreign key at a time, in block order."""
    stock_items = list(stocks.items() if isinstance(stocks, dict) else stocks)
    flow_items = list(flows.items() if isinstance(flows, dict) else flows)
    sum_items = list(sums.items() if isinstance(sums, dict) else sums)
    inst = Instance(schema_stockflow())
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


def upstream(d: StockFlowDiagram, flow: str) -> str | None:
    """The stock the flow drains, or None for a source cloud."""
    inst = d.inst
    rows = incident(inst, "ofn", index_of(inst, "F", flow))
    return inst.name_of("S", subpart(inst, "os", rows[0])) if rows else None


def downstream(d: StockFlowDiagram, flow: str) -> str | None:
    """The stock the flow fills, or None for a sink cloud."""
    inst = d.inst
    rows = incident(inst, "ifn", index_of(inst, "F", flow))
    return inst.name_of("S", subpart(inst, "is", rows[0])) if rows else None


def inflows_of(d: StockFlowDiagram, stock: str) -> list[str]:
    inst = d.inst
    return [
        inst.name_of("F", subpart(inst, "ifn", row))
        for row in incident(inst, "is", index_of(inst, "S", stock))
    ]


def outflows_of(d: StockFlowDiagram, stock: str) -> list[str]:
    inst = d.inst
    return [
        inst.name_of("F", subpart(inst, "ofn", row))
        for row in incident(inst, "os", index_of(inst, "S", stock))
    ]


def identity_hom(inst: Instance) -> Homomorphism:
    comps = {obj: list(range(1, inst.n[obj] + 1)) for obj in inst.schema.objects}
    return Homomorphism(inst, inst, comps)


def canonical_sort(inst: Instance) -> Instance:
    """Reorder every named table by name and remap columns; unnamed tables
    are then ordered by their remapped column tuples.

    For instances whose names are unique per table (every diagram built or
    composed here), equal canonical forms mean isomorphic instances.
    """
    perm: dict[str, list[int]] = {}
    for obj in inst.schema.objects:
        attr = inst.schema.name_attribute_of(obj)
        order = list(range(1, inst.n[obj] + 1))
        if attr is not None:
            order.sort(key=lambda i: (inst.names[attr][i - 1], i))
        perm[obj] = order  # new position k holds old element order[k]

    new_index: dict[str, dict[int, int]] = {
        obj: {old: k + 1 for k, old in enumerate(perm[obj])} for obj in inst.schema.objects
    }

    def remapped_row(obj: str, old: int) -> tuple:
        return tuple(
            None if (v := inst.columns[m][old - 1]) is None else new_index[cod][v]
            for m, _, cod in morphisms_from(inst.schema, obj)
        )

    # Order unnamed tables by their (already remapped) foreign keys.
    for obj in inst.schema.objects:
        if inst.schema.name_attribute_of(obj) is None:
            order = list(range(1, inst.n[obj] + 1))
            order.sort(key=lambda i: (remapped_row(obj, i), i))
            perm[obj] = order
            new_index[obj] = {old: k + 1 for k, old in enumerate(order)}

    out = Instance(inst.schema)
    for obj in inst.schema.objects:
        out.n[obj] = inst.n[obj]
        attr = inst.schema.name_attribute_of(obj)
        if attr is not None:
            out.names[attr] = [inst.names[attr][old - 1] for old in perm[obj]]
    for m, dom, cod in inst.schema.morphisms:
        col: list[int | None] = []
        for old in perm[dom]:
            v = inst.columns[m][old - 1]
            col.append(None if v is None else new_index[cod][v])
        out.columns[m] = col
    return out


def parse_csv(text: str) -> Trajectory:
    """Inverse of :func:`stockflow.render.emit_csv`."""
    lines = [ln for ln in text.split("\n") if ln]
    header = lines[0].split(",")
    if not header or header[0] != "t":
        raise RenderError("first column must be t")
    names = header[1:]
    times = []
    states = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(header):
            raise RenderError(f"row has {len(cells)} cells, expected {len(header)}")
        times.append(float(cells[0]))
        states.append({s: float(x) for s, x in zip(names, cells[1:])})
    return Trajectory(times, states, {"method": "csv"})
