"""Graphviz DOT and CSV emission.

Stocks render as filled squares, sum variables as filled circles, auxiliary
variables as plaintext waypoints; each flow is a two-segment edge through its
variable's waypoint, labelled on the second segment.  The typed variant
colours every element by its image in the type system.  Output is
deterministic: node ids are s1.., v1.., sv1.. in table order.
"""
from __future__ import annotations

from .acset import preimages
from .diagrams import StockFlowDiagram, _flatten
from .odes import Trajectory
from .stratify import TypedDiagram
from .views import CausalLoopGraph

# Palettes for typed rendering, by flow, stock and sum kind; a type model
# with more kinds than colours reuses them in order.
FLOW_COLORS = ("antiquewhite4", "antiquewhite", "gold", "saddlebrown", "slateblue", "blueviolet", "olive")
STOCK_COLORS = ("deeppink", "darkorchid", "darkred", "coral")
SUM_COLORS = ("cornflowerblue", "cyan4", "cyan", "chartreuse")


class RenderError(Exception):
    pass


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _attrs(**kwargs: str) -> str:
    body = ", ".join(f"{k}={_quote(v)}" for k, v in kwargs.items())
    return f" [{body}]"


def _emit_diagram(
    d: StockFlowDiagram,
    stock_fill,
    sum_fill,
    var_color,
    flow_color,
) -> str:
    inst = d.inst
    lines = ["digraph G {", "  rankdir=LR;"]
    for i, name in enumerate(inst.names_of("S"), start=1):
        lines.append(
            f"  s{i}"
            + _attrs(label=name, shape="square", color="black", style="filled", fillcolor=stock_fill(i))
        )
    for i, name in enumerate(inst.names_of("SV"), start=1):
        lines.append(
            f"  sv{i}"
            + _attrs(label=name, shape="circle", color="black", style="filled", fillcolor=sum_fill(i))
        )
    for i, name in enumerate(inst.names_of("V"), start=1):
        lines.append(
            f"  v{i}" + _attrs(label=_flatten(name), shape="plaintext", fontcolor=var_color(i))
        )
    cols = inst.columns
    upstream_of = dict(zip(cols["ofn"], cols["os"]))
    downstream_of = dict(zip(cols["ifn"], cols["is"]))
    clouds = 0
    for f_idx, (f_name, v) in enumerate(zip(inst.names_of("F"), cols["fv"]), start=1):
        color = flow_color(f_idx)
        if f_idx in upstream_of:
            head = f"s{upstream_of[f_idx]}"
        else:
            clouds += 1
            head = f"cloud{clouds}"
            lines.append(f"  {head}" + _attrs(label="", shape="point", color=color))
        if f_idx in downstream_of:
            tail = f"s{downstream_of[f_idx]}"
        else:
            clouds += 1
            tail = f"cloud{clouds}"
            lines.append(f"  {tail}" + _attrs(label="", shape="point", color=color))
        lines.append(f"  {head} -> v{v}" + _attrs(arrowhead="none", color=color))
        lines.append(f"  v{v} -> {tail}" + _attrs(label=_flatten(f_name), labelfontsize="6", color=color))
    lines += [f"  s{s} -> v{v};" for s, v in zip(cols["lvs"], cols["lvv"])]
    lines += [f"  s{s} -> sv{sv};" for s, sv in zip(cols["lss"], cols["lssv"])]
    lines += [f"  sv{sv} -> v{v};" for sv, v in zip(cols["lsvsv"], cols["lsvv"])]
    lines.append("}")
    return "\n".join(lines) + "\n"


def emit_dot(d: StockFlowDiagram) -> str:
    return _emit_diagram(
        d,
        stock_fill=lambda i: "lightblue",
        sum_fill=lambda i: "lightgray",
        var_color=lambda i: "black",
        flow_color=lambda i: "black",
    )


def emit_dot_typed(t: TypedDiagram) -> str:
    """Colour stocks/sums by their kind and flows (plus their variables) by
    the flow kind; the flow edge uses the layered `c:invis:c` style."""
    rate_users = preimages(t.diagram.inst.columns["fv"])

    def color(palette: tuple[str, ...], obj: str, i: int) -> str:
        return palette[(t.typing.apply(obj, i) - 1) % len(palette)]

    def var_color(i: int) -> str:
        flows = rate_users.get(i, [])
        return color(FLOW_COLORS, "F", flows[0]) if len(flows) == 1 else "black"

    def flow_color(i: int) -> str:
        c = color(FLOW_COLORS, "F", i)
        return f"{c}:invis:{c}"

    return _emit_diagram(
        t.diagram,
        stock_fill=lambda i: color(STOCK_COLORS, "S", i),
        sum_fill=lambda i: color(SUM_COLORS, "SV", i),
        var_color=var_color,
        flow_color=flow_color,
    )


def emit_dot_causal(cl: CausalLoopGraph) -> str:
    lines = ["digraph G {", "  rankdir=LR;"]
    for i, name in enumerate(cl.nodes, start=1):
        lines.append(f"  n{i}" + _attrs(label=name))
    for s, t in cl.edges:
        lines.append(f"  n{s} -> n{t};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def emit_csv(traj: Trajectory) -> str:
    """Header ``t,<stocks...>``; values at full double precision."""
    if not traj.states:
        raise RenderError("empty trajectory")
    names = list(traj.states[0])
    lines = [",".join(["t"] + names)]
    for t, state in zip(traj.times, traj.states):
        lines.append(",".join([repr(t)] + [repr(state[s]) for s in names]))
    return "\n".join(lines) + "\n"

