"""Causal-loop extraction: the influence graph underlying a diagram.

Nodes are the stocks, sum variables and auxiliary variables; edges come from
the three link tables plus the inflow/outflow relations (a flow influences
its downstream stock, an upstream stock influences its flow).  Polarities are
not computed; the output is a plain directed multigraph.
"""
from __future__ import annotations

from dataclasses import dataclass

from .acset import Instance, add_part, empty_instance, incident, set_subpart, subpart
from .diagrams import StockFlowDiagram
from .schema import schema_causalloop


@dataclass
class CausalLoopGraph:
    inst: Instance  # over the causal-loop schema

    @property
    def nodes(self) -> list[str]:
        return self.inst.names_of("N")

    @property
    def edges(self) -> list[tuple[int, int]]:
        return [
            (subpart(self.inst, "s", e), subpart(self.inst, "t", e))
            for e in range(1, self.inst.n["E"] + 1)
        ]

    @property
    def edge_labels(self) -> list[tuple[str, str]]:
        names = self.nodes
        return [(names[s - 1], names[t - 1]) for s, t in self.edges]


def to_causal_loop(d: StockFlowDiagram) -> CausalLoopGraph:
    """Node order: stocks, sum variables, auxiliary variables.  Edge order:
    stock-to-variable links, sum links, sum-to-variable links, inflows,
    outflows.  A variable node borrows its flow's name when exactly one flow
    has that rate variable."""
    src = d.inst
    out = empty_instance(schema_causalloop())

    stock_node = [add_part(out, "N", name) for name in src.names_of("S")]
    sum_node = [add_part(out, "N", name) for name in src.names_of("SV")]
    var_node = []
    for v_idx, v_name in enumerate(src.names_of("V"), start=1):
        flows = incident(src, "fv", v_idx)
        label = src.name_of("F", flows[0]) if len(flows) == 1 else v_name
        var_node.append(add_part(out, "N", label))

    def edge(s: int, t: int) -> None:
        e = add_part(out, "E")
        set_subpart(out, "s", e, s)
        set_subpart(out, "t", e, t)

    for row in range(1, src.n["LV"] + 1):
        edge(stock_node[subpart(src, "lvs", row) - 1], var_node[subpart(src, "lvv", row) - 1])
    for row in range(1, src.n["LS"] + 1):
        edge(stock_node[subpart(src, "lss", row) - 1], sum_node[subpart(src, "lssv", row) - 1])
    for row in range(1, src.n["LSV"] + 1):
        edge(sum_node[subpart(src, "lsvsv", row) - 1], var_node[subpart(src, "lsvv", row) - 1])
    for row in range(1, src.n["I"] + 1):
        flow = subpart(src, "ifn", row)
        edge(var_node[subpart(src, "fv", flow) - 1], stock_node[subpart(src, "is", row) - 1])
    for row in range(1, src.n["O"] + 1):
        flow = subpart(src, "ofn", row)
        edge(stock_node[subpart(src, "os", row) - 1], var_node[subpart(src, "fv", flow) - 1])
    return CausalLoopGraph(out)
