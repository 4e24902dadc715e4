"""Self-test of the benchmark itself.

Run from the repository root: ``python3 perfbench/selftest.py``.  It checks
that every generated bundle passes ``stockflow validate`` at each size the
benchmark uses, that every oracle accepts the real output of its job, and
that each oracle rejects a deliberately corrupted output: one CSV row scaled
by 1.01, one stock dropped from a composed bundle, one flow removed from a
stratified bundle.  Exits non-zero on the first disagreement.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import sys
from pathlib import Path

import oracles
import run


def scale_row(path: Path) -> None:
    lines = path.read_text().split("\n")
    k = len(lines) // 2
    cells = lines[k].split(",")
    lines[k] = ",".join([cells[0]] + [repr(float(x) * 1.01) for x in cells[1:]])
    path.write_text("\n".join(lines))


def edit_model(path: Path, name: str | None, table: str) -> None:
    """Remove the last row of one table of a bundle model."""
    doc = json.loads(path.read_text())
    m = doc["models"][name] if name else next(iter(doc["models"].values()))
    m[table].pop()
    path.write_text(json.dumps(doc, indent=2) + "\n")


CASES = [
    ("measles-dp45", run.measles_job, (), "one CSV row scaled by 1.01", lambda job: scale_row(job.outputs[0])),
    ("patches-rk4", run.patches_rk4_job, (), "one CSV row scaled by 1.01", lambda job: scale_row(job.outputs[0])),
    *[(f"patches-compose k={k}", run.compose_job, (k,), "one stock dropped",
       lambda job: edit_model(job.outputs[0], None, "stocks")) for k in sorted({*run.SWEEP_K, run.COMPOSE_K})],
    *[(f"age-stratify n={n}", run.stratify_job, (n,), "one flow removed",
       lambda job: edit_model(job.outputs[0], run.STRATIFIED, "flows")) for n in sorted({*run.SWEEP_N, run.STRATIFY_N})],
]


def main() -> int:
    cli = run.import_cli()
    root = run.WORK
    shutil.rmtree(root, ignore_errors=True)
    failures = []
    try:
        for label, make, sizes, corruption, corrupt in CASES:
            job = make(random.Random(label), root / label.replace(" ", "_"), *sizes)
            for path in sorted(job.dir.glob("*.json")):
                with contextlib.redirect_stdout(io.StringIO()) as out:
                    code = cli.run(["validate", str(path)])
                if code != 0:
                    failures.append(f"{label}: {path.name} fails validate: {out.getvalue().strip()}")
            run.run_commands(cli, job)
            try:
                job.check()
            except oracles.OracleError as exc:
                failures.append(f"{label}: oracle rejects the real output: {exc}")
            corrupt(job)
            try:
                job.check()
                failures.append(f"{label}: oracle accepts the output with {corruption}")
            except oracles.OracleError as exc:
                print(f"{label}: {corruption} rejected ({exc})")
    finally:
        shutil.rmtree(root, ignore_errors=True)
    for line in failures:
        print(f"FAIL {line}")
    print("self-test", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
