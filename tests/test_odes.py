import math
import random

import pytest

from stockflow import models
from stockflow.diagrams import build_stockflow, to_system_structure
from stockflow.expressions import compile_expression
from stockflow.odes import (
    OdeError,
    integrate_adaptive,
    integrate_fixed,
    sumvar_values,
    vectorfield,
)


def seir_rhs_by_hand(u, p):
    """The SEIR right-hand side written out term by term."""
    N = u["S"] + u["E"] + u["I"] + u["R"]
    incid = p["beta"] * u["I"] / N * u["S"]
    inf = u["E"] / p["tlatent"]
    rec = u["I"] / p["trecovery"]
    return {
        "S": p["mu"] * N - incid - p["delta"] * u["S"],
        "E": incid - inf - p["delta"] * u["E"],
        "I": inf - rec - p["delta"] * u["I"],
        "R": rec - p["delta"] * u["R"],
    }


def seir_jacobian_by_hand(u, p):
    """Analytic 4x4 Jacobian of the hand-written right-hand side."""
    S, E, I, R = u["S"], u["E"], u["I"], u["R"]
    N = S + E + I + R
    beta, mu, delta = p["beta"], p["mu"], p["delta"]
    tl, tr = p["tlatent"], p["trecovery"]
    # d(incid)/dx with incid = beta*S*I/N
    dinc = {
        "S": beta * I / N - beta * S * I / N**2,
        "E": -beta * S * I / N**2,
        "I": beta * S / N - beta * S * I / N**2,
        "R": -beta * S * I / N**2,
    }
    J = {s: {x: 0.0 for x in "SEIR"} for s in "SEIR"}
    for x in "SEIR":
        J["S"][x] = mu - dinc[x]
        J["E"][x] = dinc[x]
    J["S"]["S"] -= delta
    J["E"]["S"] += 0.0
    J["E"]["E"] -= 1.0 / tl + delta
    J["I"]["E"] = 1.0 / tl
    J["I"]["I"] = -1.0 / tr - delta
    J["R"]["I"] = 1.0 / tr
    J["R"]["R"] = -delta
    return J


def test_sumvar_values_measles():
    d = models.seir()
    u0 = models.measles_initial()
    assert sumvar_values(d, u0) == {"N": 89070.0 + 0.0 + 930.0 + 773545.0}
    # sums need no formulas, so the bare structure gives the same values
    assert sumvar_values(to_system_structure(d), u0) == sumvar_values(d, u0)


def test_sumvar_zero_links_and_disjoint_sums():
    d = build_stockflow(
        {"A": (None, None, None, "NA"), "B": (None, None, None, "NB")},
        {},
        {"v": "1"},
        {"NA": "v", "NB": "v", "NZ": None},
    )
    got = sumvar_values(d, {"A": 2.0, "B": 5.0})
    assert got == {"NA": 2.0, "NB": 5.0, "NZ": 0.0}


def test_vectorfield_matches_hand_rhs():
    d = models.seir()
    p = models.measles_parameters()
    u0 = models.measles_initial()
    f = vectorfield(d, p)
    got = f(u0, 0.0)
    want = seir_rhs_by_hand(u0, p)
    for s in "SEIR":
        assert got[s] == pytest.approx(want[s], rel=1e-12)
    # dE/dt at t=0 is exactly the incidence (E and its sinks start at zero)
    assert got["E"] == pytest.approx(49.598 * 89070.0 * 930.0 / 863545.0, rel=1e-12)


def test_vectorfield_no_flows_is_zero():
    d = build_stockflow({"A": (None, None, None, None)}, {}, {}, {})
    f = vectorfield(d, {})
    assert f({"A": 3.0}, 0.0) == {"A": 0.0}


def test_vectorfield_conserves_when_birth_balances_death():
    d = models.seir()
    p = models.measles_parameters()  # mu == delta
    f = vectorfield(d, p)
    du = f(models.measles_initial(), 0.0)
    assert sum(du.values()) == pytest.approx(0.0, abs=1e-9)


def test_vectorfield_rejects_bad_bindings():
    d = models.seir()
    with pytest.raises(OdeError):
        vectorfield(d, {})  # every parameter unbound
    with pytest.raises(OdeError):
        vectorfield(d, dict(models.measles_parameters(), t=1.0))
    with pytest.raises(OdeError):
        vectorfield(d, dict(models.measles_parameters(), N=1.0))  # shadows the sum
    f = vectorfield(d, models.measles_parameters())
    with pytest.raises(OdeError):
        f({"S": 1.0}, 0.0)  # missing stocks


def test_vectorfield_rejects_bare_structure():
    bare = to_system_structure(models.seir())
    with pytest.raises(OdeError) as err:
        vectorfield(bare, models.measles_parameters())
    assert "no formulas" in str(err.value)


def test_division_by_zero_sum_names_the_variable():
    d = models.seir()
    f = vectorfield(d, models.measles_parameters())
    with pytest.raises(OdeError) as err:
        f({"S": 0.0, "E": 0.0, "I": 0.0, "R": 0.0}, 0.0)
    assert "v_incid" in str(err.value)


def _random_closed_diagram(rng: random.Random):
    """A diagram where every flow has both endpoints; integer-valued rate
    formulas so float sums cancel exactly."""
    n_stocks = rng.randint(2, 5)
    stock_names = [f"X{k}" for k in range(n_stocks)]
    flows = {}
    variables = {}
    stock_spec = {s: [[], [], [], []] for s in stock_names}
    for k in range(rng.randint(1, 7)):
        src, dst = rng.sample(stock_names, 2)
        fname, vname = f"f{k}", f"vf{k}"
        flows[fname] = vname
        variables[vname] = f"{src}*{rng.randint(1, 4)}"
        stock_spec[src][1].append(fname)
        stock_spec[dst][0].append(fname)
        stock_spec[src][2].append(vname)
    return build_stockflow(
        {s: tuple(spec) for s, spec in stock_spec.items()}, flows, variables, {}
    )


def test_closed_diagrams_conserve_exactly():
    rng = random.Random(3)
    for _ in range(30):
        d = _random_closed_diagram(rng)
        f = vectorfield(d, {})
        u = {s: float(rng.randint(0, 9)) for s in d.stocks}
        du = f(u, 0.0)
        assert sum(du.values()) == 0.0


def test_vectorfield_agrees_with_per_stock_reevaluation():
    # Oracle: recompute every flow independently per stock from the tables.
    from reference import incident, subpart

    rng = random.Random(4)
    for _ in range(20):
        d = _random_closed_diagram(rng)
        p = {}
        f = vectorfield(d, p)
        u = {s: float(rng.randint(1, 9)) for s in d.stocks}
        got = f(u, 0.5)
        inst = d.inst
        sums = sumvar_values(d, u)
        for s_idx, s in enumerate(d.stocks, start=1):
            total = 0.0
            for row in incident(inst, "is", s_idx):
                v = d.variables[subpart(inst, "fv", subpart(inst, "ifn", row)) - 1]
                total += compile_expression(d.expressions[v])({**u, **sums, "t": 0.5})
            for row in incident(inst, "os", s_idx):
                v = d.variables[subpart(inst, "fv", subpart(inst, "ofn", row)) - 1]
                total -= compile_expression(d.expressions[v])({**u, **sums, "t": 0.5})
            assert got[s] == pytest.approx(total, rel=1e-12, abs=1e-12)


def test_finite_difference_jacobian():
    d = models.seir()
    p = models.measles_parameters()
    u0 = models.measles_initial()
    f = vectorfield(d, p)
    J = seir_jacobian_by_hand(u0, p)
    # Step scaled to the state magnitude, not the coordinate: E starts at 0
    # and a 1e-6 step there would drown the quotient in roundoff.
    h = 1e-6 * sum(abs(v) for v in u0.values())
    for x in "SEIR":
        up = dict(u0, **{x: u0[x] + h})
        dn = dict(u0, **{x: u0[x] - h})
        fu, fd = f(up, 0.0), f(dn, 0.0)
        for s in "SEIR":
            fd_val = (fu[s] - fd[s]) / (2 * h)
            scale = max(abs(J[s][x]), 1e-9)
            assert abs(fd_val - J[s][x]) / scale < 1e-6


def test_rk4_closed_form_decay():
    f = lambda u, t: {"u": -u["u"]}
    traj = integrate_fixed(f, {"u": 1.0}, 0.0, 1.0, 0.01)
    assert traj.final()["u"] == pytest.approx(math.exp(-1.0), abs=1e-8)
    assert traj.times[0] == 0.0 and traj.times[-1] == 1.0


def test_rk4_fourth_order_convergence():
    f = lambda u, t: {"u": -u["u"]}
    errs = []
    for dt in (0.1, 0.05, 0.025, 0.0125):
        traj = integrate_fixed(f, {"u": 1.0}, 0.0, 1.0, dt)
        errs.append(abs(traj.final()["u"] - math.exp(-1.0)))
    for a, b in zip(errs, errs[1:]):
        assert 8.0 < a / b < 32.0  # within a factor of two of 16


def test_rk4_partial_final_step_stays_uniform():
    f = lambda u, t: {"u": 1.0}
    traj = integrate_fixed(f, {"u": 0.0}, 0.0, 1.0, 0.3)  # 1.0/0.3 not integral
    assert traj.times[-1] == 1.0
    steps = [b - a for a, b in zip(traj.times, traj.times[1:])]
    assert max(steps) - min(steps) < 1e-12
    assert max(steps) <= 0.3 + 1e-12


def test_rk4_argument_validation():
    f = lambda u, t: {"u": 0.0}
    with pytest.raises(OdeError):
        integrate_fixed(f, {"u": 1.0}, 0.0, 1.0, 0.0)
    with pytest.raises(OdeError):
        integrate_fixed(f, {"u": 1.0}, 1.0, 1.0, 0.1)


def test_measles_conservation_with_rk4():
    d = models.seir()
    f = vectorfield(d, models.measles_parameters())
    u0 = models.measles_initial()
    traj = integrate_fixed(f, u0, 0.0, 120.0, 0.05)
    total = sum(u0.values())
    for state in traj.states:
        assert sum(state.values()) == pytest.approx(total, rel=1e-6)


def test_dp45_meets_abstol_on_decay():
    f = lambda u, t: {"u": -u["u"]}
    traj = integrate_adaptive(f, {"u": 1.0}, 0.0, 1.0, abstol=1e-8, reltol=1e-6)
    assert abs(traj.final()["u"] - math.exp(-1.0)) <= 1e-8
    assert traj.metadata["method"] == "dp45"


def test_dp45_seirv_vaccination_course():
    from stockflow.compose import apex, oapply
    from stockflow.diagrams import open_diagram

    feet = models.seirv_feet()
    composed = apex(
        oapply(
            models.seirv_pattern(),
            [open_diagram(models.seir(), feet), open_diagram(models.sve(), feet)],
        )
    )
    p = models.seirv_parameters()  # mu == delta
    u0 = models.seirv_initial()
    f = vectorfield(composed, p)
    traj = integrate_adaptive(f, u0, 0.0, 100.0)
    total = sum(u0.values())
    v_series = [u["V"] for u in traj.states]
    i_series = [u["I"] for u in traj.states]
    for state in traj.states:
        assert sum(state.values()) == pytest.approx(total, rel=1e-6)
        assert all(value >= -1e-9 for value in state.values())
    # V climbs as long as vaccination outpaces breakthrough infection and
    # background death; near the epidemic peak it starts to drain.
    for k in range(len(v_series) - 1):
        u = traj.states[k]
        net = p["alpha"] * u["S"] - p["delta"] * u["V"] - p["beta"] * u["V"] * u["I"] * (1 - p["e"]) / total
        if net > 0 and i_series[k] < i_series[k + 1]:
            assert v_series[k + 1] >= v_series[k] - 1e-9
    assert max(v_series) > 2000.0  # the course does vaccinate a real cohort


def test_dp45_stratified_sis_stays_nonnegative():
    d = models.sis_sex()
    f = vectorfield(d, models.sis_sex_parameters())
    traj = integrate_adaptive(f, models.sis_sex_initial(), 0.0, 50.0)
    for state in traj.states:
        assert all(value >= -1e-9 for value in state.values())


def test_dp45_reports_nonfinite_blowup():
    f = lambda u, t: {"u": u["u"] ** 2}
    with pytest.raises(OdeError):
        integrate_adaptive(f, {"u": 10.0}, 0.0, 10.0)


def test_dp45_step_underflow():
    f = lambda u, t: {"u": float("nan")}
    with pytest.raises(OdeError):
        integrate_adaptive(f, {"u": 1.0}, 0.0, 1.0)


@pytest.mark.parametrize("integrate", [
    lambda f, u0: integrate_fixed(f, u0, 0.0, 1.0, 0.1),
    lambda f, u0: integrate_adaptive(f, u0, 0.0, 1.0),
], ids=["rk4", "dp45"])
def test_initial_state_keys_must_be_stocks(integrate):
    f = vectorfield(models.seir(), models.measles_parameters())
    u0 = dict(models.measles_initial(), X=1.0)
    with pytest.raises(OdeError, match="not stocks: X"):
        integrate(f, u0)


def test_dp45_tolerance_validation():
    f = lambda u, t: {"u": 0.0}
    with pytest.raises(OdeError):
        integrate_adaptive(f, {"u": 1.0}, 0.0, 1.0, abstol=0.0)


@pytest.mark.parametrize("integrate, message", [
    (lambda f: integrate_fixed(f, {"u": 1.0}, 0.0, float("nan"), 0.1), "t1 must be finite, got nan"),
    (lambda f: integrate_fixed(f, {"u": 1.0}, 0.0, 1.0, float("nan")), "dt must be finite, got nan"),
    (lambda f: integrate_fixed(f, {"u": 1.0}, 0.0, 1.0, 1e-300), "needs more than 10000000 steps"),
    (lambda f: integrate_adaptive(f, {"u": 1.0}, float("nan"), 1.0), "t0 must be finite, got nan"),
    (lambda f: integrate_adaptive(f, {"u": 1.0}, 0.0, 1.0, abstol=float("nan")), "abstol must be finite"),
], ids=["rk4-t1", "rk4-dt", "rk4-steps", "dp45-t0", "dp45-abstol"])
def test_integrators_reject_non_finite_arguments(integrate, message):
    calls = []
    with pytest.raises(OdeError, match=message):
        integrate(lambda u, t: calls.append(t) or {"u": 0.0})
    assert calls == []  # rejected before the first right-hand-side call
