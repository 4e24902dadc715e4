"""Span tracing installed from outside the program.

:func:`installed` swaps module-level bindings for timing wrappers and puts
the originals back on exit, so untraced runs execute the program unchanged.
Wrapped are ``stockflow.cli.run``, the other layers' functions the CLI binds
by name, every public function of ``stockflow.bundle``, and the kernel
bindings ``stockflow.compose.pushout_quotient`` and
``stockflow.stratify.pullback``.  The closure ``vectorfield`` returns is
wrapped too: RHS calls are counted and timed as one roll-up per enclosing
span rather than one span each, which would cost more than the call.

Modules are fetched from ``sys.modules``: ``import stockflow.stratify``
yields the function of that name that ``stockflow/__init__.py`` re-exports.
"""
from __future__ import annotations

import contextlib
import functools
import sys
import types
from time import perf_counter

# Per-call counters taken from a layer's arguments or result.
_COUNTERS = {
    "acset.pushout_quotient": lambda args, result: {"identifications": len(args[1])},
    "acset.pullback": lambda args, result: {"apex_parts": sum(result.apex.n.values())},
    "odes.integrate_adaptive": lambda args, result: {"accepted": len(result.times) - 1},
}


class Tracer:
    """Spans of the current job, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, job, child_time]
        self.stack: list[int] = []
        self.job = None
        self.first = 0
        self.counts: dict[str, float] = {}

    def begin_job(self, job) -> None:
        self.job = job
        self.first = len(self.spans)
        self.counts = {"odes.rhs.calls": 0, "odes.rhs.s": 0.0}

    def _open(self, name: str) -> int:
        if self.job is None:
            raise RuntimeError(f"span {name!r} opened outside a job")
        parent = self.stack[-1] if self.stack else None
        if parent is None and name != "cli.run":
            raise RuntimeError(f"span {name!r} has no parent span")
        self.spans.append([name, perf_counter(), None, parent, self.job, 0.0])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span[2] = perf_counter()
        self.stack.pop()
        if span[3] is not None:
            self.spans[span[3]][5] += span[2] - span[1]

    def wrap(self, name: str, fn):
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if count is not None:
                for key, value in count(args, result).items():
                    self.counts[f"{name}.{key}"] = self.counts.get(f"{name}.{key}", 0) + value
            if name == "odes.vectorfield":
                result = self._wrap_rhs(result)
            return result

        return traced

    def _wrap_rhs(self, f):
        @functools.wraps(f)
        def rhs(u, t):
            start = perf_counter()
            try:
                return f(u, t)
            finally:
                elapsed = perf_counter() - start
                self.counts["odes.rhs.calls"] += 1
                self.counts["odes.rhs.s"] += elapsed
                self.spans[self.stack[-1]][5] += elapsed

        return rhs

    def job_summary(self, job, duration: float) -> dict[str, float]:
        """Inclusive and self seconds per span name, plus the counters, for
        one job; ``cli.run.self_s`` is the job time no other span or RHS
        roll-up covers."""
        out: dict[str, float] = dict(self.counts)
        covered = self.counts["odes.rhs.s"]
        for name, start, end, parent, span_job, child in self.spans[self.first:]:
            if span_job is not job:
                raise RuntimeError(f"span {name!r} belongs to another job")
            if end is None:
                raise RuntimeError(f"span {name!r} never closed")
            if parent is not None and self.spans[parent][4] is not job:
                raise RuntimeError(f"span {name!r} has a parent outside its job")
            out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + (end - start)
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + (end - start - child)
            if name != "cli.run":
                covered += end - start - child
        out["cli.run.self_s"] = duration - covered
        return out


def _layer_name(fn) -> str:
    return f"{fn.__module__.removeprefix('stockflow.')}.{fn.__name__}"


def _bindings() -> list[tuple[types.ModuleType, str]]:
    cli = sys.modules["stockflow.cli"]
    bundle = sys.modules["stockflow.bundle"]
    out = [(cli, "run")]
    out += [
        (cli, attr)
        for attr, value in vars(cli).items()
        if isinstance(value, types.FunctionType)
        and not attr.startswith("_")
        and value.__module__.startswith("stockflow.")
        and value.__module__ != "stockflow.cli"
    ]
    out += [
        (bundle, attr)
        for attr, value in vars(bundle).items()
        if isinstance(value, types.FunctionType)
        and not attr.startswith("_")
        and value.__module__ == "stockflow.bundle"
    ]
    out += [(sys.modules["stockflow.compose"], "pushout_quotient"), (sys.modules["stockflow.stratify"], "pullback")]
    return out


@contextlib.contextmanager
def installed(tracer: Tracer):
    saved = [(module, attr, getattr(module, attr)) for module, attr in _bindings()]
    try:
        for module, attr, fn in saved:
            setattr(module, attr, tracer.wrap(_layer_name(fn), fn))
        yield tracer
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)
