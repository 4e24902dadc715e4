"""The stockflow benchmark: real CLI jobs, timed end to end or traced by layer.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A single-process, closed-loop runner with one client runs *jobs* in-process
through ``stockflow.cli.run(argv)``: a job is the CLI command, or short
pipeline of commands, a user runs.  Every job gets its own generated input
(same size, seed-drawn parameters, initial states and table order), so
memoisation across jobs cannot pass for a gain.  All inputs are written
before timing starts, and every output is checked by an oracle in
``oracles.py`` that does not use the code under test.

``--trace 0`` times the named workload's jobs for ``--seconds`` of job time
and reports the end-to-end metrics: the p90 of job CPU time, the CPU time of
a cold process running the first job, and peak resident memory.  A summary
line before the result also gives wall-time p50 and p90, jobs per second and
the failed share.  The cold processes, run one at a time between stretches of
jobs, are the only other processes started.  ``--trace 1`` runs every
workload, its jobs alternately untraced and with span wrappers installed
(``spans.py``), plus a traced size sweep, and reports the per-layer metrics
named ``<workload>.<layer metric>``; the traced run therefore reports the
same metric set whatever ``--workload`` names.  Metric names and units are those
declared in ``BENCHMARK.json``.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time
from typing import Callable, Iterator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MODELS = ROOT / "models"
WORK = ROOT / ".perfbench_work"

import gen  # noqa: E402
import oracles  # noqa: E402
import spans  # noqa: E402

T1 = 120.0
SETUP_REPEATS = 7
SWEEP_REPEATS = 5
COMPOSE_K = 48
STRATIFY_N = 16
SWEEP_K = (12, 24, 48)
SWEEP_N = (4, 8, 16)
STRATIFIED = "seir_structure_sex_strata_aging_age_chain"


@dataclass
class Job:
    commands: list[list[str]]
    outputs: list[Path]
    check: Callable[[], None]
    dir: Path


def _load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


# --- workloads ---------------------------------------------------------------

def measles_job(rng: random.Random, d: Path) -> Job:
    """dp45 on the jittered measles SEIR: narrow state, long run."""
    src, out = d / "in.json", d / "out.csv"
    gen.write(src, gen.measles(rng, MODELS))
    cmd = ["simulate", str(src), "--t0", "0", "--t1", repr(T1), "--method", "dp45",
           "--abstol", "1e-8", "--out", str(out)]
    return Job([cmd], [out], lambda: oracles.check_simulation(_load(src), out.read_text(), T1, 1e-6), d)


def patches_rk4_job(rng: random.Random, d: Path) -> Job:
    """rk4 at dt=0.5 on a flat 12-patch SEIR metapopulation: wide state."""
    src, out = d / "in.json", d / "out.csv"
    gen.write(src, gen.patches_flat(rng, 12))
    cmd = ["simulate", str(src), "--t0", "0", "--t1", repr(T1), "--method", "rk4",
           "--dt", "0.5", "--out", str(out)]
    return Job([cmd], [out], lambda: oracles.check_simulation(_load(src), out.read_text(), T1, 1e-9, rows=241), d)


def compose_job(rng: random.Random, d: Path, k: int = COMPOSE_K) -> Job:
    """compose k patch boxes and k-1 migration boxes, then extract the causal loop."""
    src, composed, dot = d / "in.json", d / "composed.json", d / "composed.dot"
    gen.write(src, gen.patches(rng, k))

    def check() -> None:
        m = oracles.check_composed(_load(src), composed.read_text(), k)
        oracles.check_causal_loop(m, dot.read_text())

    return Job(
        [["compose", str(src), "--out", str(composed)],
         ["convert", str(composed), "--to", "causal-loop", "--out", str(dot)]],
        [composed, dot], check, d,
    )


def stratify_job(rng: random.Random, d: Path, n: int = STRATIFY_N) -> Job:
    """seir x sex-with-aging x an n-group age chain, then the typed graph."""
    inputs = [d / "seir.json", d / "sex.json", d / "age.json"]
    gen.write(inputs[0], gen.shuffled_typed(rng, MODELS, "seir_typed"))
    gen.write(inputs[1], gen.shuffled_typed(rng, MODELS, "sex_aging_typed"))
    gen.write(inputs[2], gen.age_chain(rng, n, MODELS))
    out, dot = d / "stratified.json", d / "stratified.dot"

    def check() -> None:
        expected = oracles.expected_stratified([_load(p) for p in inputs])
        m = oracles.check_stratified(expected, STRATIFIED, out.read_text())
        oracles.check_typed_dot(m, dot.read_text())

    return Job(
        [["stratify", "--aggregate", str(inputs[0]), "--strata", str(inputs[1]), str(inputs[2]),
          "--type", str(MODELS / "s_type.json"), "--out", str(out)],
         ["graph", str(out), "--typed", f"{STRATIFIED}_typing", "--out", str(dot)]],
        [out, dot], check, d,
    )


WORKLOADS: dict[str, Callable[[random.Random, Path], Job]] = {
    "measles-dp45": measles_job,
    "patches-rk4": patches_rk4_job,
    "patches-compose": compose_job,
    "age-stratify": stratify_job,
}

# Per-layer metrics each workload reports in the traced run, as the per-job
# median; every one of them is exercised by that workload's jobs.
LAYERS = {
    "measles-dp45": [
        "odes.rhs.calls", "odes.rhs.s", "odes.rhs.us_per_call", "odes.integrate_adaptive.self_s",
        "odes.steps.accepted", "odes.steps.rejected", "odes.vectorfield.s", "render.emit_csv.s",
        "bundle.parse_json.s", "bundle.model_to_diagram.s", "cli.run.self_s",
    ],
    "patches-rk4": [
        "odes.rhs.calls", "odes.rhs.s", "odes.rhs.us_per_call", "odes.integrate_fixed.self_s",
        "odes.vectorfield.s", "render.emit_csv.s", "bundle.parse_json.s", "bundle.model_to_diagram.s",
        "cli.run.self_s",
    ],
    "patches-compose": [
        "acset.pushout_quotient.s", "acset.pushout_quotient.identifications", "compose.oapply.self_s",
        "diagrams.open_diagram.s", "bundle.parse_json.s", "bundle.model_to_diagram.s",
        "bundle.diagram_to_model.s", "bundle.emit_json.s", "views.to_causal_loop.s",
        "render.emit_dot_causal.s", "cli.run.self_s",
    ],
    "age-stratify": [
        "acset.pullback.s", "acset.pullback.apex_parts", "stratify.typed_stratify.self_s",
        "bundle.parse_json.s", "bundle.model_to_structure.s", "bundle.def_to_typing.s",
        "bundle.diagram_to_model.s", "bundle.emit_json.s", "render.emit_dot_typed.s", "cli.run.self_s",
    ],
}


# --- running jobs --------------------------------------------------------------

@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    durations: list[float] = field(default_factory=list)
    cpu: list[float] = field(default_factory=list)
    summaries: list[dict[str, float]] = field(default_factory=list)


def run_commands(cli, job: Job) -> tuple[float, float]:
    """Wall and CPU seconds of one job's commands."""
    wall, cpu = perf_counter(), process_time()
    codes = [cli.run(cmd) for cmd in job.commands]
    wall, cpu = perf_counter() - wall, process_time() - cpu
    if any(codes):
        raise oracles.OracleError(f"exit codes {codes}")
    return wall, cpu


def timed_job(cli, job: Job, tally: Tally, tracer: spans.Tracer | None = None) -> float:
    """Run and check one job; returns the wall seconds it ran.  Garbage is
    collected, and the output checked, outside the timed span."""
    gc.collect()
    if tracer is not None:
        tracer.begin_job(job)
    tally.attempted += 1
    start = perf_counter()
    try:
        elapsed, cpu = run_commands(cli, job)
        job.check()
    except Exception as exc:  # a failing job is counted, not fatal
        tally.failed += 1
        print(f"job in {job.dir} failed: {exc!r}", file=sys.stderr)
        return perf_counter() - start
    finally:
        shutil.rmtree(job.dir)
    tally.durations.append(elapsed)
    tally.cpu.append(cpu)
    if tracer is not None:
        tally.summaries.append(tracer.job_summary(job, elapsed))
    return elapsed


def measure(cli, jobs: Iterator[Job], budget: float, tally: Tally) -> None:
    """Run jobs back to back until their summed time reaches `budget`."""
    total = 0.0
    while total < budget:
        job = next(jobs, None)
        if job is None:
            print(f"input pool ran out after {total:.3f} s of {budget} s", file=sys.stderr)
            return
        total += timed_job(cli, job, tally)


def warm_up(cli, name: str, seed: int, tally: Tally) -> tuple[Job, float]:
    """Run the warm-up input twice untimed; outputs must match byte for byte
    and pass the oracle.  Returns the job and its second run's time."""
    job = WORKLOADS[name](random.Random(f"{seed}:{name}:warmup"), WORK / name / "warmup")
    tally.attempted += 1
    try:
        run_commands(cli, job)
        first = [p.read_bytes() for p in job.outputs]
        elapsed, _ = run_commands(cli, job)
    except oracles.OracleError as exc:
        raise RuntimeError(f"{name} warm-up job failed: {exc}") from exc
    try:
        if [p.read_bytes() for p in job.outputs] != first:
            raise oracles.OracleError("warm-up outputs differ between two runs")
        job.check()
    except oracles.OracleError as exc:
        tally.failed += 1
        print(f"{name} warm-up: {exc}", file=sys.stderr)
    return job, elapsed


def pool(name: str, seed: int, count: int) -> list[Job]:
    make = WORKLOADS[name]
    return [make(random.Random(f"{seed}:{name}:{i}"), WORK / name / str(i)) for i in range(count)]


def pool_size(budget: float, per_job: float) -> int:
    """Inputs for half again the expected job count, so a faster stretch
    of the run does not exhaust them."""
    return math.ceil(1.5 * budget / max(per_job, 1e-3)) + 10


def cold_job(job: Job, tally: Tally, expected: list[bytes]) -> float | None:
    """CPU seconds of the warm-up job in a fresh process, counted from before
    ``import stockflow.cli``; its outputs must match the warm-up bytes."""
    commands = [word for cmd in job.commands for word in cmd + ["::"]][:-1]
    proc = subprocess.run(
        [sys.executable, str(HERE / "cold.py"), str(SRC), *commands],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    fields = proc.stdout.split()
    tally.attempted += 1
    if proc.returncode != 0 or len(fields) < 2 or any(code != "0" for code in fields[2:]):
        tally.failed += 1
        print(f"cold job failed: {proc.stderr.strip()}", file=sys.stderr)
        return None
    if [p.read_bytes() for p in job.outputs] != expected:
        tally.failed += 1
        print("cold job output differs from the warm-up output", file=sys.stderr)
    return float(fields[0])


# --- the two kinds of run -------------------------------------------------------

def end_to_end(cli, name: str, seed: int, seconds: float) -> tuple[Tally, dict[str, float]]:
    """Timed jobs in SETUP_REPEATS equal stretches with one cold set-up
    after each, so set-up samples the machine over the whole run.

    The bounded job metric is CPU time, not wall time: on a virtual machine
    the host takes the CPU away for stretches (steal time) that inflate wall
    times of some runs' tails by half, while CPU time leaves them out.  Wall
    times are reported on the summary line."""
    tally = Tally()
    warm, per_job = warm_up(cli, name, seed, tally)
    expected = [p.read_bytes() for p in warm.outputs]
    cold_job(warm, tally, expected)  # primes the bytecode cache; not counted
    jobs = iter(pool(name, seed, pool_size(seconds, per_job)))
    setup = []
    for _ in range(SETUP_REPEATS):
        measure(cli, jobs, seconds / SETUP_REPEATS, tally)
        cpu = cold_job(warm, tally, expected)
        if cpu is not None:
            setup.append(cpu)
    d, c = tally.durations, tally.cpu
    if len(d) < 2 or not setup:
        raise RuntimeError("too few successful jobs to report")

    def p90(xs: list[float]) -> float:
        return statistics.quantiles(xs, n=10, method="inclusive")[8]

    print(f"{name}: {len(d)} timed jobs, {sum(1 for x in c if x > p90(c))} beyond p90; "
          f"wall job_s.p50 {statistics.median(d):.6g} s, job_s.p90 {p90(d):.6g} s; "
          f"job_cpu_s.p50 {statistics.median(c):.6g} s; jobs_per_s {len(d) / sum(d):.6g} 1/s; "
          f"fail_share {tally.failed / tally.attempted:.6g} ({tally.failed}/{tally.attempted})")
    return tally, {
        "job_cpu_s.p90": p90(c),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def layer_values(s: dict[str, float]) -> dict[str, float]:
    """Derived per-job values: RHS cost per call and the DP45 step counts
    (each attempted step costs six RHS calls after the first call)."""
    out = dict(s)
    calls = s["odes.rhs.calls"]
    if calls:
        out["odes.rhs.us_per_call"] = s["odes.rhs.s"] / calls * 1e6
    if "odes.integrate_adaptive.accepted" in s:
        out["odes.steps.accepted"] = s["odes.integrate_adaptive.accepted"]
        out["odes.steps.rejected"] = (calls - 1) / 6 - out["odes.steps.accepted"]
    return out


def slope(xs, ys) -> float:
    """Least-squares slope of log y against log x."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def sweep(cli, seed: int, tally: Tally) -> dict[str, float]:
    """Traced compose and stratify jobs over growing sizes, reduced to
    log-log slopes of per-size median kernel times.  Sizes take turns, so
    a slow stretch of the machine touches every size alike."""
    parts = {(make, size): Tally() for make, sizes in ((compose_job, SWEEP_K), (stratify_job, SWEEP_N))
             for size in sizes}
    jobs = [
        (part, make(random.Random(f"{seed}:sweep:{make.__name__}:{size}:{r}"),
                    WORK / "sweep" / f"{make.__name__}-{size}-{r}", size))
        for r in range(SWEEP_REPEATS)
        for (make, size), part in parts.items()
    ]
    tracer = spans.Tracer()
    with spans.installed(tracer):
        for part, job in jobs:
            timed_job(cli, job, part, tracer)
    for part in parts.values():
        tally.attempted += part.attempted
        tally.failed += part.failed

    def exponent(make, sizes, key: str) -> float:
        if any(not parts[make, size].summaries for size in sizes):
            raise RuntimeError(f"sweep: no successful {make.__name__} at some size")
        return slope(sizes, [statistics.median(s[key] for s in parts[make, size].summaries) for size in sizes])

    return {
        "acset.pushout_quotient.exponent": exponent(compose_job, SWEEP_K, "acset.pushout_quotient.s"),
        "bundle.diagram_to_model.exponent": exponent(compose_job, SWEEP_K, "bundle.diagram_to_model.s"),
        "acset.pullback.exponent": exponent(stratify_job, SWEEP_N, "acset.pullback.s"),
    }


def traced(cli, first: str, seed: int, seconds: float) -> tuple[Tally, dict[str, float]]:
    """Every workload for an equal share of `seconds`, its jobs alternately
    untraced and traced so both halves see the same machine, then the
    sweep.  Reports per-job medians of the layer metrics."""
    tally = Tally()
    metrics: dict[str, float] = {}
    budget = seconds / len(WORKLOADS)
    for name in [first] + [w for w in WORKLOADS if w != first]:
        _, per_job = warm_up(cli, name, seed, tally)
        jobs = pool(name, seed, pool_size(budget, per_job))
        plain, layered = Tally(), Tally()
        tracer = spans.Tracer()
        total = 0.0
        for i, job in enumerate(jobs):
            if total >= budget:
                break
            if i % 2 == 0:
                total += timed_job(cli, job, plain)
                continue
            with spans.installed(tracer):
                total += timed_job(cli, job, layered, tracer)
        for part in (plain, layered):
            tally.attempted += part.attempted
            tally.failed += part.failed
        if not plain.durations or not layered.durations:
            raise RuntimeError(f"{name}: no successful jobs to report")
        values = [layer_values(s) for s in layered.summaries]
        for metric in LAYERS[name]:
            samples = [v[metric] for v in values if metric in v]
            if len(samples) != len(values):
                raise RuntimeError(f"{name}: no {metric} in some traced jobs")
            metrics[f"{name}.{metric}"] = statistics.median(samples)
        metrics[f"{name}.trace.overhead"] = statistics.median(layered.durations) / statistics.median(plain.durations)
        print(f"{name}: {len(plain.durations)} untraced and {len(layered.durations)} traced jobs")
    metrics.update(sweep(cli, seed, tally))
    return tally, metrics


# --- entry point ----------------------------------------------------------------

def import_cli():
    """The CLI module from this checkout's ``src``, never an installed copy."""
    missing = [p for p in (SRC / "stockflow" / "cli.py", MODELS / "seir.json", ROOT / "BENCHMARK.json")
               if not p.is_file()]
    if missing:
        sys.exit(f"benchmark: missing {', '.join(str(p.relative_to(ROOT)) for p in missing)}; "
                 "run from a full checkout")
    sys.path.insert(0, str(SRC))
    import stockflow.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"benchmark: stockflow was imported from {cli.__file__}, not {SRC}")
    return cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    cli = import_cli()
    declared = _load(ROOT / "BENCHMARK.json")["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    shutil.rmtree(WORK, ignore_errors=True)
    try:
        run = traced if args.trace else end_to_end
        tally, metrics = run(cli, args.workload, args.seed, args.seconds)
    except RuntimeError as exc:
        sys.exit(f"benchmark: {exc}")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    if set(metrics) != set(units):
        sys.exit(f"benchmark: measured {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    for name, value in metrics.items():
        print(f"  {name:<52} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
