"""Causal-loop extraction: the influence graph underlying a diagram.

Nodes are the stocks, sum variables and auxiliary variables; edges come from
the three link tables plus the inflow/outflow relations (a flow influences
its downstream stock, an upstream stock influences its flow).  Polarities are
not computed; the output is a plain directed multigraph.
"""
from __future__ import annotations

from typing import NamedTuple

from .acset import Instance, preimages
from .diagrams import StockFlowDiagram
from .schema import schema_causalloop


class CausalLoopGraph(NamedTuple):
    inst: Instance  # over the causal-loop schema

    @property
    def nodes(self) -> list[str]:
        return self.inst.names_of("N")

    @property
    def edges(self) -> list[tuple[int, int]]:
        return list(zip(self.inst.columns["s"], self.inst.columns["t"]))


def to_causal_loop(d: StockFlowDiagram) -> CausalLoopGraph:
    """Node order: stocks, sum variables, auxiliary variables.  Edge order:
    stock-to-variable links, sum links, sum-to-variable links, inflows,
    outflows.  A variable node borrows its flow's name when exactly one flow
    has that rate variable."""
    src = d.inst
    cols = src.columns
    fv = cols["fv"]
    rate_users = preimages(fv)
    flow_names = src.names_of("F")
    var_labels = []
    for v, v_name in enumerate(src.names_of("V"), start=1):
        flows = rate_users.get(v, [])
        var_labels.append(flow_names[flows[0] - 1] if len(flows) == 1 else v_name)
    nodes = src.names_of("S") + src.names_of("SV") + var_labels
    # Nodes are stocks, then sum variables, then variables: sum variable sv
    # is node sv0 + sv and variable v is node v0 + v.
    sv0 = src.n["S"]
    v0 = sv0 + src.n["SV"]
    edges = (
        [(s, v0 + v) for s, v in zip(cols["lvs"], cols["lvv"])]
        + [(s, sv0 + sv) for s, sv in zip(cols["lss"], cols["lssv"])]
        + [(sv0 + sv, v0 + v) for sv, v in zip(cols["lsvsv"], cols["lsvv"])]
        + [(v0 + fv[f - 1], s) for s, f in zip(cols["is"], cols["ifn"])]
        + [(s, v0 + fv[f - 1]) for s, f in zip(cols["os"], cols["ofn"])]
    )
    out = Instance(
        schema_causalloop(),
        n={"N": len(nodes), "E": len(edges)},
        columns={"s": [s for s, _ in edges], "t": [t for _, t in edges]},
        names={"nname": nodes},
    )
    return CausalLoopGraph(out)
