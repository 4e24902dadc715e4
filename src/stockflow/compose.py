"""Gluing open diagrams along shared interfaces, driven by a wiring pattern.

A pattern declares junctions, boxes whose ports attach to junctions, and the
outer ports of the composite.  Feet wired to a common junction are identified
element-by-element (matched positionally after sorting by name), the apexes
are merged by :func:`stockflow.acset.pushout_quotient`, and each outer port
contributes one foot of the result.
"""
from __future__ import annotations

from typing import NamedTuple

from .acset import Homomorphism, pushout_quotient
from .diagrams import (
    DiagramError,
    Foot,
    OpenStockFlow,
    StockFlowDiagram,
    duplicate_names,
    interface_part,
)


class Box(NamedTuple):
    name: str
    ports: list[str]  # junction names, one per foot of the attached diagram


class WiringPattern:
    """Junctions, boxes wired to them and the composite's outer ports; every
    port must name a declared junction."""

    def __init__(self, junctions: list[str], boxes: list[Box], outer_ports: list[str] | None = None) -> None:
        self.junctions = junctions
        self.boxes = boxes
        self.outer_ports = [] if outer_ports is None else outer_ports
        declared = set(junctions)
        if len(declared) != len(junctions):
            raise DiagramError("duplicate junction name")
        for box in boxes:
            for port in box.ports:
                if port not in declared:
                    raise DiagramError(f"box {box.name!r} wires unknown junction {port!r}")
        for port in self.outer_ports:
            if port not in declared:
                raise DiagramError(f"outer port references unknown junction {port!r}")

    def __eq__(self, other: object) -> bool:
        if type(other) is not WiringPattern:
            return NotImplemented
        return vars(self) == vars(other)


def apex(open_diag: OpenStockFlow) -> StockFlowDiagram:
    """The underlying closed diagram, discarding feet and legs."""
    return open_diag.apex


def _foot_shape(ft: Foot) -> tuple[list[int], list[int], list[tuple[int, int]], list[int]]:
    """Name-sorted element orders plus the link pattern in sorted coordinates."""
    inst = ft.inst
    s_names, sv_names = inst.names_of("S"), inst.names_of("SV")
    s_order = sorted(range(1, inst.n["S"] + 1), key=lambda i: (s_names[i - 1], i))
    sv_order = sorted(range(1, inst.n["SV"] + 1), key=lambda i: (sv_names[i - 1], i))
    s_pos = {e: k for k, e in enumerate(s_order)}
    sv_pos = {e: k for k, e in enumerate(sv_order)}
    link_keys = [(s_pos[s], sv_pos[sv]) for s, sv in zip(inst.columns["lss"], inst.columns["lssv"])]
    ls_order = sorted(range(1, inst.n["LS"] + 1), key=lambda row: (link_keys[row - 1], row))
    return s_order, sv_order, sorted(link_keys), ls_order


def oapply(pattern: WiringPattern, opens: list[OpenStockFlow]) -> OpenStockFlow:
    """Compose one open diagram per box; formulas ride along unchanged."""
    if len(opens) != len(pattern.boxes):
        raise DiagramError(
            f"pattern has {len(pattern.boxes)} boxes but {len(opens)} diagrams were given"
        )
    for box, open_diag in zip(pattern.boxes, opens):
        if len(box.ports) != len(open_diag.feet):
            raise DiagramError(
                f"box {box.name!r} has {len(box.ports)} ports but the diagram has "
                f"{len(open_diag.feet)} feet"
            )
        if open_diag.apex.expressions is None:
            raise DiagramError(f"box {box.name!r} has no formulas; attach them before gluing")

    attachments: dict[str, list[tuple[int, int]]] = {j: [] for j in pattern.junctions}
    for box_i, box in enumerate(pattern.boxes):
        for port_i, junction in enumerate(box.ports):
            attachments[junction].append((box_i, port_i))

    parts = [open_diag.apex.inst for open_diag in opens]
    identifications: list[tuple[int, str, int, int, int]] = []
    junction_foot: dict[str, tuple[int, int]] = {}
    for junction, attached in attachments.items():
        if not attached:
            continue
        junction_foot[junction] = attached[0]
        base_box, base_port = attached[0]
        base_shape = _foot_shape(opens[base_box].feet[base_port])
        for box_i, port_i in attached[1:]:
            shape = _foot_shape(opens[box_i].feet[port_i])
            if (
                len(shape[0]) != len(base_shape[0])
                or len(shape[1]) != len(base_shape[1])
                or shape[2] != base_shape[2]
            ):
                raise DiagramError(f"junction {junction!r} joins non-isomorphic feet")
            for obj, key in (("S", 0), ("SV", 1), ("LS", 3)):
                base_leg = opens[base_box].legs[base_port]
                leg = opens[box_i].legs[port_i]
                for base_elem, elem in zip(base_shape[key], shape[key]):
                    identifications.append(
                        (
                            base_box,
                            obj,
                            base_leg.apply(obj, base_elem),
                            box_i,
                            leg.apply(obj, elem),
                        )
                    )

    glued, injections = pushout_quotient(parts, identifications)
    dupes = duplicate_names(glued)
    if dupes:
        raise DiagramError(
            f"composition leaves duplicate {dupes[0]} name(s): {', '.join(dupes[1])}"
            " (identify them through a junction or rename)"
        )

    expressions: dict[str, object] = {}
    glued_vars = glued.names_of("V")
    for open_diag, inj in zip(opens, injections):
        for v_name, g in zip(open_diag.apex.variables, inj.components["V"]):
            expressions[glued_vars[g - 1]] = open_diag.apex.expressions[v_name]
    composed = StockFlowDiagram(glued, expressions)

    target = interface_part(glued)
    feet: list[Foot] = []
    legs: list[Homomorphism] = []
    for junction in pattern.outer_ports:
        if junction not in junction_foot:
            raise DiagramError(f"outer port {junction!r} is wired to no box")
        box_i, port_i = junction_foot[junction]
        ft = opens[box_i].feet[port_i]
        leg = opens[box_i].legs[port_i]
        inj = injections[box_i]
        comps = {
            obj: [inj.apply(obj, leg.apply(obj, e)) for e in range(1, ft.inst.n[obj] + 1)]
            for obj in ("S", "SV", "LS")
        }
        feet.append(ft)
        legs.append(Homomorphism(ft.inst, target, comps))
    return OpenStockFlow(composed, feet, legs)
