"""ODE semantics: the generated right-hand side and numerical integration.

Every stock evolves as the sum of its inflow rates minus the sum of its
outflow rates; a flow's rate is the value of its auxiliary variable, and sum
variables are evaluated first as plain sums of their linked stocks.
"""
from __future__ import annotations

import math
from typing import Callable, Mapping

from .diagrams import StockFlowDiagram
from .expressions import EvalError, compile_expression, identifiers

StateVector = dict[str, float]
Evaluator = Callable[[Mapping[str, float], float], StateVector]


class OdeError(Exception):
    pass


class Trajectory:
    """Sample times, the state at each, and integrator statistics."""

    def __init__(self, times: list[float], states: list[StateVector], metadata: dict | None = None) -> None:
        self.times = times
        self.states = states
        self.metadata = {} if metadata is None else metadata

    def __eq__(self, other: object) -> bool:
        if type(other) is not Trajectory:
            return NotImplemented
        return vars(self) == vars(other)

    def final(self) -> StateVector:
        return self.states[-1]


def sumvar_values(d: StockFlowDiagram, u: Mapping[str, float]) -> dict[str, float]:
    """Each sum variable as the sum of the stocks linked to it; formulas
    play no role, so a bare structure works too."""
    cols = d.inst.columns
    stocks = d.stocks
    totals = [0.0] * d.inst.n["SV"]
    for s, sv in zip(cols["lss"], cols["lssv"]):
        totals[sv - 1] += u[stocks[s - 1]]
    return dict(zip(d.sum_variables, totals))


def vectorfield(d: StockFlowDiagram, p: Mapping[str, float]) -> Evaluator:
    """Compile the diagram into ``f(u, t) -> du`` under parameters `p`.

    Raises up front on a bare structure (no formulas), on identifiers that
    are neither linked quantities, parameters nor ``t``, and on names
    shadowing each other.
    """
    if d.expressions is None:
        raise OdeError("diagram has no formulas; attach them with attach_dynamics")
    stocks = d.stocks
    sums = d.sum_variables
    var_names = d.variables

    if len(set(stocks)) != len(stocks) or len(set(sums)) != len(sums):
        raise OdeError("stock or sum-variable names are not unique")
    reserved = set(stocks) | set(sums)
    if len(reserved) != len(stocks) + len(sums):
        raise OdeError("a stock and a sum variable share a name")
    if "t" in reserved or "t" in p:
        raise OdeError("the name 't' is reserved for time")
    clash = reserved & set(p)
    if clash:
        raise OdeError(f"parameter name(s) shadow diagram quantities: {', '.join(sorted(clash))}")

    bound = reserved | set(p) | {"t"}
    for v_name in var_names:
        unknown = identifiers(d.expressions[v_name]) - bound
        if unknown:
            raise OdeError(f"variable {v_name!r} uses unbound identifier(s): {', '.join(sorted(unknown))}")

    compiled = [(name, compile_expression(d.expressions[name])) for name in var_names]
    cols = d.inst.columns
    sum_links: list[list[str]] = [[] for _ in sums]
    for s, sv in zip(cols["lss"], cols["lssv"]):
        sum_links[sv - 1].append(stocks[s - 1])
    fv = cols["fv"]
    inflow_vars = {s: [] for s in stocks}
    for s, f in zip(cols["is"], cols["ifn"]):
        inflow_vars[stocks[s - 1]].append(var_names[fv[f - 1] - 1])
    outflow_vars = {s: [] for s in stocks}
    for s, f in zip(cols["os"], cols["ofn"]):
        outflow_vars[stocks[s - 1]].append(var_names[fv[f - 1] - 1])

    base_env = dict(p)

    def f(u: Mapping[str, float], t: float) -> StateVector:
        missing = [s for s in stocks if s not in u]
        if missing:
            raise OdeError(f"state is missing stock(s): {', '.join(missing)}")
        env = {**base_env, **u, "t": t}
        for sv_name, linked in zip(sums, sum_links):
            env[sv_name] = sum(env[s] for s in linked) if linked else 0.0
        values = {}
        for name, fn in compiled:
            try:
                values[name] = fn(env)
            except EvalError as exc:
                raise OdeError(f"evaluating variable {name!r}: {exc}") from exc
        return {
            s: sum(values[v] for v in inflow_vars[s]) - sum(values[v] for v in outflow_vars[s])
            for s in stocks
        }

    return f


def _check_stocks(du: StateVector, names: list[str]) -> None:
    """Reject initial-state keys the first RHS result has no stock for."""
    extra = [s for s in names if s not in du]
    if extra:
        raise OdeError(f"initial state has key(s) that are not stocks: {', '.join(extra)}")


def _check_finite(u: StateVector, t: float) -> None:
    for name, value in u.items():
        if not math.isfinite(value):
            raise OdeError(f"non-finite value for {name!r} at t={t!r}")


def _check_arguments(t0: float, t1: float, **positive: float) -> None:
    """Reject non-finite times, step-control arguments that are not finite
    and positive, and an empty interval."""
    for name, value in {"t0": t0, "t1": t1, "t1 - t0": t1 - t0, **positive}.items():
        if not math.isfinite(value):
            raise OdeError(f"{name} must be finite, got {value!r}")
        if name in positive and value <= 0:
            raise OdeError(f"{name} must be positive")
    if t1 <= t0:
        raise OdeError("t1 must exceed t0")


_MAX_STEPS = 10_000_000  # per integration, for either method


def integrate_fixed(
    f: Evaluator,
    u0: Mapping[str, float],
    t0: float,
    t1: float,
    dt: float,
) -> Trajectory:
    """Classical fourth-order Runge-Kutta on a uniform grid ending at `t1`.

    The step is shrunk slightly when (t1 - t0) is not a multiple of `dt` so
    the grid stays uniform and includes the endpoint.  A grid of more than
    ``_MAX_STEPS`` steps is rejected before the first step.
    """
    _check_arguments(t0, t1, dt=dt)
    steps = (t1 - t0) / dt
    if steps > _MAX_STEPS:
        raise OdeError(f"dt={dt!r} needs more than {_MAX_STEPS} steps")
    steps = max(1, math.ceil(steps - 1e-9))
    h = (t1 - t0) / steps

    names = list(u0)
    u = dict(u0)
    times = [t0]
    states = [dict(u)]
    t = t0
    for k in range(steps):
        k1 = f(u, t)
        if k == 0:
            _check_stocks(k1, names)
        k2 = f({s: u[s] + 0.5 * h * k1[s] for s in names}, t + 0.5 * h)
        k3 = f({s: u[s] + 0.5 * h * k2[s] for s in names}, t + 0.5 * h)
        k4 = f({s: u[s] + h * k3[s] for s in names}, t + h)
        u = {s: u[s] + (h / 6.0) * (k1[s] + 2.0 * k2[s] + 2.0 * k3[s] + k4[s]) for s in names}
        t = t0 + (k + 1) * h
        _check_finite(u, t)
        times.append(t)
        states.append(dict(u))
    return Trajectory(times, states, {"method": "rk4", "dt": h})


# Dormand-Prince 5(4) tableau; the propagated solution is fifth order and the
# last row doubles as the first stage of the next step (FSAL).
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_ERR = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_PI_ALPHA = 0.7 / 5.0
_PI_BETA = 0.4 / 5.0


def integrate_adaptive(
    f: Evaluator,
    u0: Mapping[str, float],
    t0: float,
    t1: float,
    abstol: float = 1e-8,
    reltol: float = 1e-6,
) -> Trajectory:
    """Dormand-Prince 5(4) with PI step-size control; output at the accepted
    steps.  The initial step is (t1 - t0) / 100."""
    _check_arguments(t0, t1, abstol=abstol, reltol=reltol)

    names = list(u0)
    u = dict(u0)
    t = t0
    h = (t1 - t0) / 100.0
    times = [t0]
    states = [dict(u)]
    k_first = f(u, t)
    _check_stocks(k_first, names)
    err_prev = 1.0
    steps = 0
    while t < t1:
        if steps >= _MAX_STEPS:
            raise OdeError(f"step limit exceeded at t={t!r}")
        steps += 1
        h = min(h, t1 - t)
        if t + h <= t:
            raise OdeError(f"step size underflow at t={t!r}")

        k = [k_first]
        for stage in range(1, 7):
            arg = {
                s: u[s] + h * sum(a * k[j][s] for j, a in enumerate(_DP_A[stage]))
                for s in names
            }
            k.append(f(arg, t + _DP_C[stage] * h))
        u_new = arg  # the last stage is evaluated at the fifth-order solution

        err_sq = 0.0
        for s in names:
            e = h * sum(c * k[j][s] for j, c in enumerate(_DP_ERR))
            scale = abstol + reltol * max(abs(u[s]), abs(u_new[s]))
            err_sq += (e / scale) ** 2
        err = math.sqrt(err_sq / len(names))

        if err <= 1.0:
            t = t1 if t + h >= t1 else t + h
            u = u_new
            _check_finite(u, t)
            times.append(t)
            states.append(dict(u))
            k_first = k[6]  # FSAL: stage 7 evaluates f at (t+h, u_new)
            factor = _SAFETY * (err ** -_PI_ALPHA if err > 0 else _MAX_FACTOR) * err_prev**_PI_BETA
            err_prev = max(err, 1e-10)
        else:
            factor = _SAFETY * err**-_PI_ALPHA
        h *= min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
    return Trajectory(
        times, states, {"method": "dp45", "abstol": abstol, "reltol": reltol}
    )
