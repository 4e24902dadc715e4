"""Seeded input generators for the benchmark.

Every generator writes a model bundle as plain JSON and never imports
``stockflow``: the inputs must not depend on the code under test.  The
bundled files under ``models/`` are read only as inputs.  Each call takes a
``random.Random`` so one seed fixes every input of a run; table and box
order are shuffled per input so that no two jobs see identical bytes.
"""
from __future__ import annotations

import json
import random
from pathlib import Path

FORMAT = "stockflow-bundle"
VERSION = 1


def bundle(models, feet=None, wiring=None, typings=None, parameters=None, initial=None) -> dict:
    return {
        "format": FORMAT,
        "version": VERSION,
        "models": models,
        "feet": feet or {},
        "wiring": wiring or {},
        "typings": typings or {},
        "parameters": parameters or {},
        "initial": initial or {},
    }


def write(path: Path, doc: dict) -> None:
    """Compact JSON: the indented form takes the pure-Python encoder and would
    make input generation, not the program, the slow part of a run."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def load(models_dir: Path, name: str) -> dict:
    return json.loads((models_dir / f"{name}.json").read_text(encoding="utf-8"))


def shuffled(rng: random.Random, items) -> list:
    out = list(items)
    rng.shuffle(out)
    return out


def shuffle_model(rng: random.Random, m: dict) -> dict:
    """The same model with every table in a seed-drawn order."""
    return {key: shuffled(rng, value) for key, value in m.items()}


def model(stocks, flows, variables, sums, lv, ls, lsv) -> dict:
    """A model entry; `flows` holds (name, variable, upstream, downstream)
    tuples and `variables` holds (name, expression-or-None) pairs."""
    return {
        "stocks": list(stocks),
        "flows": [
            {
                "name": name,
                "variable": var,
                **({"upstream": up} if up is not None else {}),
                **({"downstream": down} if down is not None else {}),
            }
            for name, var, up, down in flows
        ],
        "variables": [
            {"name": name, **({"expression": expr} if expr is not None else {})}
            for name, expr in variables
        ],
        "sum_variables": list(sums),
        "stock_variable_links": [list(x) for x in lv],
        "stock_sum_links": [list(x) for x in ls],
        "sum_variable_links": [list(x) for x in lsv],
    }


# --- measles SEIR ----------------------------------------------------------

def measles(rng: random.Random, models_dir: Path) -> dict:
    """The bundled measles SEIR with parameters and initial state jittered.

    Births and deaths keep one shared rate (mu = delta), so total population
    is an exact invariant of the ODE."""
    doc = load(models_dir, "seir")
    (name, m), = doc["models"].items()
    (pname, p), = doc["parameters"].items()
    (iname, u0), = doc["initial"].items()
    rate = p["mu"] * rng.uniform(0.95, 1.05)
    params = {
        "beta": p["beta"] * rng.uniform(0.99, 1.01),
        "mu": rate,
        "delta": rate,
        "tlatent": p["tlatent"] * rng.uniform(0.99, 1.01),
        "trecovery": p["trecovery"] * rng.uniform(0.99, 1.01),
    }
    # The step count follows beta, trecovery, S and R closely (3% moves it
    # by about 5%), so those stay within 1% to keep jobs the same size.
    spread = {"S": 0.01, "E": 0.05, "I": 0.05, "R": 0.01}
    init = {s: u0[s] * rng.uniform(1 - spread[s], 1 + spread[s]) for s in shuffled(rng, u0)}
    return bundle({name: shuffle_model(rng, m)}, parameters={pname: params}, initial={iname: init})


# --- k-patch SEIR metapopulation -------------------------------------------

def _patch_tables(i: int):
    """Tables of SEIR patch `i`; rates use global tlatent/trecovery/mu/delta
    and a per-patch contact rate beta<i>."""
    S, E, I, R, N = (f"{x}{i}" for x in "SEIRN")
    flows = [
        (f"birth{i}", f"v_birth{i}", None, S),
        (f"incid{i}", f"v_incid{i}", S, E),
        (f"inf{i}", f"v_inf{i}", E, I),
        (f"rec{i}", f"v_rec{i}", I, R),
    ] + [(f"death{x}{i}", f"v_death{x}{i}", f"{x}{i}", None) for x in "SEIR"]
    variables = [
        (f"v_birth{i}", f"mu*{N}"),
        (f"v_incid{i}", f"beta{i}*{S}*{I}/{N}"),
        (f"v_inf{i}", f"{E}/tlatent"),
        (f"v_rec{i}", f"{I}/trecovery"),
    ] + [(f"v_death{x}{i}", f"{x}{i}*delta") for x in "SEIR"]
    lv = [
        (S, f"v_incid{i}"), (S, f"v_deathS{i}"), (E, f"v_inf{i}"), (E, f"v_deathE{i}"),
        (I, f"v_incid{i}"), (I, f"v_rec{i}"), (I, f"v_deathI{i}"), (R, f"v_deathR{i}"),
    ]
    ls = [(x, N) for x in (S, E, I, R)]
    lsv = [(N, f"v_birth{i}"), (N, f"v_incid{i}")]
    return [S, E, I, R], flows, variables, [N], lv, ls, lsv


def _migration_tables(i: int):
    """Two-way S migration between patches i and i+1."""
    a, b = f"S{i}", f"S{i + 1}"
    flows = [(f"mfwd{i}", f"v_mfwd{i}", a, b), (f"mbwd{i}", f"v_mbwd{i}", b, a)]
    variables = [(f"v_mfwd{i}", f"mf{i}*{a}"), (f"v_mbwd{i}", f"mb{i}*{b}")]
    lv = [(a, f"v_mfwd{i}"), (b, f"v_mbwd{i}")]
    ls = [(a, f"N{i}"), (b, f"N{i + 1}")]
    return [a, b], flows, variables, [f"N{i}", f"N{i + 1}"], lv, ls, []


def _patch_parameters(rng: random.Random, k: int) -> tuple[dict, dict]:
    rate = rng.uniform(5e-5, 1e-4)
    params = {"mu": rate, "delta": rate, "tlatent": rng.uniform(6.0, 10.0), "trecovery": rng.uniform(4.0, 7.0)}
    for i in range(1, k + 1):
        params[f"beta{i}"] = rng.uniform(0.8, 1.6)
    for i in range(1, k):
        params[f"mf{i}"] = rng.uniform(0.005, 0.05)
        params[f"mb{i}"] = rng.uniform(0.005, 0.05)
    seeded = set(rng.sample(range(1, k + 1), max(1, k // 4)))
    init = {}
    for i in range(1, k + 1):
        init[f"S{i}"] = rng.uniform(5e3, 5e4)
        init[f"E{i}"] = 0.0
        init[f"I{i}"] = rng.uniform(1.0, 20.0) if i in seeded else 0.0
        init[f"R{i}"] = rng.uniform(0.0, 1e3)
    return params, {s: init[s] for s in shuffled(rng, init)}


def patches(rng: random.Random, k: int) -> dict:
    """k SEIR patch boxes and k-1 migration boxes glued at the S<i> feet.

    Composed, this has 4k stocks, 10k-2 flows and k sum variables."""
    models = {}
    boxes = []
    feet = {f"footS{i}": {"stock": f"S{i}", "sum_variable": f"N{i}", "links": [[f"S{i}", f"N{i}"]]}
            for i in range(1, k + 1)}
    for i in range(1, k + 1):
        models[f"patch{i}"] = shuffle_model(rng, model(*_patch_tables(i)))
        boxes.append({"model": f"patch{i}", "feet": [f"footS{i}"], "ports": [f"S{i}"]})
    for i in range(1, k):
        models[f"mig{i}"] = shuffle_model(rng, model(*_migration_tables(i)))
        boxes.append({"model": f"mig{i}", "feet": [f"footS{i}", f"footS{i + 1}"], "ports": [f"S{i}", f"S{i + 1}"]})
    params, init = _patch_parameters(rng, k)
    wiring = {"patches": {
        "junctions": shuffled(rng, [f"S{i}" for i in range(1, k + 1)]),
        "boxes": shuffled(rng, boxes),
        "outer_ports": [],
    }}
    models = {name: models[name] for name in shuffled(rng, models)}
    feet = {name: feet[name] for name in shuffled(rng, feet)}
    return bundle(models, feet=feet, wiring=wiring, parameters={"patches": params}, initial={"patches": init})


def patches_flat(rng: random.Random, k: int) -> dict:
    """The composite of :func:`patches` written directly as one model."""
    tables = [[] for _ in range(7)]
    parts = [_patch_tables(i) for i in range(1, k + 1)] + [_migration_tables(i) for i in range(1, k)]
    for part in parts:
        for acc, rows in zip(tables, part):
            acc.extend(rows)
    stocks, flows, variables, sums, lv, ls, lsv = tables
    stocks = list(dict.fromkeys(stocks))
    sums = list(dict.fromkeys(sums))
    ls = list(dict.fromkeys(ls))
    params, init = _patch_parameters(rng, k)
    m = shuffle_model(rng, model(stocks, flows, variables, sums, lv, ls, lsv))
    return bundle({"patches": m}, parameters={"patches": params}, initial={"patches": init})


# --- age chain typed over s_type -------------------------------------------

def age_chain(rng: random.Random, n: int, models_dir: Path) -> dict:
    """n age groups with births into the first, aging along the chain and
    all-to-all NI/NS contact sums, typed over ``s_type`` by name tables."""
    groups = [f"A{j}" for j in range(1, n + 1)]
    flows = [("births", "v_births", None, groups[0])]
    flow_type = {"births": "births"}
    lv, ls = [], []
    lsv = [("N", "v_births")]
    for j, g in enumerate(groups):
        flows.append((f"newInfectious{g}", f"v_newInfectious{g}", g, g))
        flows.append((f"id_{g}", f"v_id_{g}", g, g))
        flows.append((f"deaths{g}", f"v_deaths{g}", g, None))
        flow_type.update({f"newInfectious{g}": "newInfectious", f"id_{g}": "firstOrderDelay",
                          f"deaths{g}": "deaths"})
        lv += [(g, f"v_deaths{g}"), (g, f"v_newInfectious{g}"), (g, f"v_id_{g}")]
        if j + 1 < n:
            flows.append((f"aging{g}", f"v_aging{g}", g, groups[j + 1]))
            flow_type[f"aging{g}"] = "aging"
            lv.append((g, f"v_aging{g}"))
        ls += [(g, f"NI_{g}"), (g, f"NS_{g}"), (g, "N")]
        for h in groups:
            lsv += [(f"NI_{g}", f"v_newInfectious{h}"), (f"NS_{g}", f"v_newInfectious{h}")]
    sums = ["N"] + [f"{kind}_{g}" for g in groups for kind in ("NI", "NS")]
    variables = [(var, None) for _, var, _, _ in flows]
    typing = {
        "model": "age_chain",
        "type_model": "s_type",
        "stocks": {g: "Pop" for g in groups},
        "flows": flow_type,
        "variables": {f"v_{name}": f"v_{kind}" for name, kind in flow_type.items()},
        "sum_variables": {sv: sv.split("_")[0] for sv in sums},
    }
    s_type = load(models_dir, "s_type")["models"]["s_type"]
    chain = shuffle_model(rng, model(groups, flows, variables, sums, lv, ls, lsv))
    return bundle({"age_chain": chain, "s_type": s_type}, typings={"t_age_chain": typing})


def shuffled_typed(rng: random.Random, models_dir: Path, name: str) -> dict:
    """A bundled typed model with its own model's tables shuffled; the type
    model keeps its order, since stratify compares it with ``--type``."""
    doc = load(models_dir, name)
    (typing,) = doc["typings"].values()
    doc["models"][typing["model"]] = shuffle_model(rng, doc["models"][typing["model"]])
    return doc
