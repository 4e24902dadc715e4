import math
import random

from stockflow import models
from stockflow.diagrams import build_stockflow
from stockflow.odes import Trajectory
from stockflow.render import (
    FLOW_COLORS,
    emit_csv,
    emit_dot,
    emit_dot_causal,
    emit_dot_typed,
)
from stockflow.stratify import make_typed
from stockflow.views import to_causal_loop

from reference import parse_csv


def test_seir_dot_shapes():
    dot = emit_dot(models.seir())
    assert dot.count('shape="square"') == 4
    assert dot.count('shape="circle"') == 1
    assert dot.count('shape="plaintext"') == 8
    # half-edges appear as point-shaped cloud nodes: birth in, 4 deaths out
    assert dot.count('shape="point"') == 5
    assert dot.startswith("digraph G {")


def test_dot_is_deterministic():
    assert emit_dot(models.seir()) == emit_dot(models.seir())
    cl = to_causal_loop(models.seir())
    assert emit_dot_causal(cl) == emit_dot_causal(cl)


def test_empty_diagram_is_a_valid_digraph():
    d = build_stockflow({}, {}, {}, {})
    dot = emit_dot(d)
    assert dot == "digraph G {\n  rankdir=LR;\n}\n"


def test_causal_dot_counts():
    cl = to_causal_loop(models.seir())
    dot = emit_dot_causal(cl)
    assert dot.count("label=") == 13
    assert dot.count(" -> ") == 25


def test_typed_identity_rendering_uses_palette():
    ts = models.type_system()
    ident = make_typed(
        ts, ts, {obj: list(range(1, ts.inst.n[obj] + 1)) for obj in ts.inst.schema.objects}
    )
    dot = emit_dot_typed(ident)
    assert "antiquewhite4" in dot  # first flow-kind colour
    for color in FLOW_COLORS[: ts.inst.n["F"]]:
        assert f'"{color}:invis:{color}"' in dot  # every flow kind distinct


def test_csv_two_points():
    traj = Trajectory([0.0, 1.0], [{"A": 1.0}, {"A": 2.0}])
    text = emit_csv(traj)
    assert text == "t,A\n0.0,1.0\n1.0,2.0\n"


def test_csv_header_order_follows_stocks():
    seir = models.seir()
    u0 = models.measles_initial()
    traj = Trajectory([0.0], [{s: u0[s] for s in seir.stocks}])
    assert emit_csv(traj).splitlines()[0] == "t,S,E,I,R"


def test_csv_round_trips_doubles_exactly():
    rng = random.Random(9)
    times = [0.0]
    states = []
    for _ in range(20):
        times.append(times[-1] + rng.random())
        states.append({"x": rng.uniform(-1e9, 1e9) * math.pi, "y": rng.random() ** 9})
    states.append({"x": 1.0, "y": 2.0})
    traj = Trajectory(times, states)
    back = parse_csv(emit_csv(traj))
    assert back.times == traj.times
    assert back.states == traj.states
