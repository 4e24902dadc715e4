"""Output checks for every benchmark job.

None of these imports ``stockflow``: outputs are parsed with ``json``, plain
string splitting and regular expressions, and the expected values come from
the generated inputs, closed-form counts, or brute-force enumeration.  Each
check raises :class:`OracleError` naming what is wrong.
"""
from __future__ import annotations

import json
import math
import re


class OracleError(Exception):
    pass


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise OracleError(message)


def _sole(section: dict, what: str):
    _expect(len(section) == 1, f"expected one {what}, found {len(section)}")
    return next(iter(section.items()))


# --- simulate --------------------------------------------------------------

def check_simulation(bundle: dict, csv_text: str, t1: float, rel: float, rows: int | None = None) -> None:
    """Header names exactly the model's stocks, time runs from 0 to `t1`, the
    first row is the initial state, and total population stays within `rel`
    of its initial value at every row (the generated models conserve it)."""
    _, m = _sole(bundle["models"], "model")
    _, u0 = _sole(bundle["initial"], "initial state")
    lines = csv_text.split("\n")
    _expect(lines[-1] == "", "CSV does not end with a newline")
    header = lines[0].split(",")
    _expect(header[0] == "t", "first CSV column is not t")
    names = header[1:]
    _expect(sorted(names) == sorted(m["stocks"]), "CSV columns differ from the model's stocks")
    body = lines[1:-1]
    if rows is not None:
        _expect(len(body) == rows, f"CSV has {len(body)} rows, expected {rows}")
    _expect(len(body) >= 2, "CSV has fewer than two rows")
    total0 = sum(u0.values())
    t_prev = -math.inf
    for k, line in enumerate(body):
        cells = [float(x) for x in line.split(",")]
        _expect(len(cells) == len(header), f"row {k} has {len(cells)} cells")
        t = cells[0]
        _expect(t > t_prev, f"time does not increase at row {k}")
        t_prev = t
        state = dict(zip(names, cells[1:]))
        if k == 0:
            _expect(t == 0.0 and state == u0, "first row is not the initial state at t=0")
        total = sum(state.values())
        _expect(
            abs(total - total0) <= rel * total0,
            f"population {total!r} at t={t!r} departs from {total0!r} by more than {rel}",
        )
    _expect(t_prev == t1, f"last time is {t_prev!r}, expected {t1!r}")


# --- compose and causal loop -----------------------------------------------

def table_sizes(m: dict) -> dict[str, int]:
    """Row count of every schema table of a bundle model entry."""
    flows = m["flows"]
    return {
        "S": len(m["stocks"]),
        "F": len(flows),
        "V": len(m["variables"]),
        "SV": len(m["sum_variables"]),
        "I": sum(1 for f in flows if "downstream" in f),
        "O": sum(1 for f in flows if "upstream" in f),
        "LV": len(m["stock_variable_links"]),
        "LS": len(m["stock_sum_links"]),
        "LSV": len(m["sum_variable_links"]),
    }


def check_composed(bundle_in: dict, text: str, k: int) -> dict:
    """The composite of k patches: 4k stocks, 10k-2 flows, k sum variables,
    distinct names, and the input's parameters and initial states kept."""
    out = json.loads(text)
    _, m = _sole(out["models"], "model")
    sizes = table_sizes(m)
    _expect(sizes["S"] == 4 * k, f"composed model has {sizes['S']} stocks, expected {4 * k}")
    _expect(sizes["F"] == 10 * k - 2, f"composed model has {sizes['F']} flows, expected {10 * k - 2}")
    _expect(sizes["SV"] == k, f"composed model has {sizes['SV']} sum variables, expected {k}")
    _expect(len(set(m["stocks"])) == sizes["S"], "composed stock names are not distinct")
    _expect(out["parameters"] == bundle_in["parameters"], "parameters were not carried through")
    _expect(out["initial"] == bundle_in["initial"], "initial states were not carried through")
    return m


_CL_NODE = re.compile(r"  n(\d+) \[label=")
_CL_EDGE = re.compile(r"  n(\d+) -> n(\d+);")


def check_causal_loop(m: dict, dot: str) -> None:
    """Causal-loop law: nodes = S + SV + V and edges = LV + LS + LSV + I + O."""
    sizes = table_sizes(m)
    nodes = [int(x) for x in _CL_NODE.findall(dot)]
    edges = _CL_EDGE.findall(dot)
    want_nodes = sizes["S"] + sizes["SV"] + sizes["V"]
    want_edges = sizes["LV"] + sizes["LS"] + sizes["LSV"] + sizes["I"] + sizes["O"]
    _expect(nodes == list(range(1, want_nodes + 1)), f"causal loop has {len(nodes)} nodes, expected {want_nodes}")
    _expect(len(edges) == want_edges, f"causal loop has {len(edges)} edges, expected {want_edges}")
    _expect(all(1 <= int(e) <= want_nodes for pair in edges for e in pair), "edge endpoint out of range")


# --- stratify and typed graph ----------------------------------------------

def _type_keys(bundle: dict) -> dict[str, list[tuple]]:
    """Per table, the image in the type model of each row of the bundle's
    sole typed model, read from the name tables (rows of the derived tables
    map to the pair of their endpoints' images)."""
    _, t = _sole(bundle["typings"], "typing")
    m = bundle["models"][t["model"]]
    ts, tf, tv, tsv = t["stocks"], t["flows"], t["variables"], t["sum_variables"]
    flows = m["flows"]
    return {
        "S": [ts[s] for s in m["stocks"]],
        "F": [tf[f["name"]] for f in flows],
        "V": [tv[v["name"]] for v in m["variables"]],
        "SV": [tsv[sv] for sv in m["sum_variables"]],
        "I": [(ts[f["downstream"]], tf[f["name"]]) for f in flows if "downstream" in f],
        "O": [(ts[f["upstream"]], tf[f["name"]]) for f in flows if "upstream" in f],
        "LV": [(ts[s], tv[v]) for s, v in m["stock_variable_links"]],
        "LS": [(ts[s], tsv[sv]) for s, sv in m["stock_sum_links"]],
        "LSV": [(tsv[sv], tv[v]) for sv, v in m["sum_variable_links"]],
    }


def fiber_product_count(lists: list[list]) -> int:
    """Tuples with one entry from each list, all entries equal, counted by
    plain enumeration."""
    count = 0

    def rec(k: int, needed) -> None:
        nonlocal count
        if k == len(lists):
            count += 1
            return
        for value in lists[k]:
            if needed is None or value == needed:
                rec(k + 1, value)

    rec(0, None)
    return count


def expected_stratified(typed_bundles: list[dict]) -> dict[str, int]:
    keys = [_type_keys(b) for b in typed_bundles]
    return {obj: fiber_product_count([k[obj] for k in keys]) for obj in keys[0]}


def check_stratified(expected: dict[str, int], out_name: str, text: str) -> dict:
    """Every table of the stratified model has the enumerated size, names are
    distinct, and the induced typing covers every named element."""
    out = json.loads(text)
    _expect(out_name in out["models"], f"stratified bundle lacks model {out_name!r}")
    m = out["models"][out_name]
    sizes = table_sizes(m)
    for obj, want in expected.items():
        _expect(sizes[obj] == want, f"stratified {obj} has {sizes[obj]} rows, expected {want}")
    _, t = _sole(out["typings"], "typing")
    _expect(t["model"] == out_name, "typing does not type the stratified model")
    for key, table in (("stocks", m["stocks"]), ("sum_variables", m["sum_variables"]),
                       ("flows", [f["name"] for f in m["flows"]]),
                       ("variables", [v["name"] for v in m["variables"]])):
        _expect(len(set(table)) == len(table), f"stratified {key} names are not distinct")
        _expect(sorted(t[key]) == sorted(table), f"typing {key} table does not match the model")
    return m


_DOT_NODE = re.compile(r"  (s|sv|v|cloud)(\d+) \[")


def check_typed_dot(m: dict, dot: str) -> None:
    """One node per stock, sum variable and variable, one cloud per missing
    flow end, two edges per flow plus one per link."""
    sizes = table_sizes(m)
    found = {"s": 0, "sv": 0, "v": 0, "cloud": 0}
    for kind, _ in _DOT_NODE.findall(dot):
        found[kind] += 1
    want = {
        "s": sizes["S"],
        "sv": sizes["SV"],
        "v": sizes["V"],
        "cloud": 2 * sizes["F"] - sizes["I"] - sizes["O"],
    }
    _expect(found == want, f"typed graph nodes {found}, expected {want}")
    edges = dot.count(" -> ")
    want_edges = 2 * sizes["F"] + sizes["LV"] + sizes["LS"] + sizes["LSV"]
    _expect(edges == want_edges, f"typed graph has {edges} edges, expected {want_edges}")
