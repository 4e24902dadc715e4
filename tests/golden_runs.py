"""The golden CLI corpus: a fixed set of ``stockflow`` runs and their bytes.

Each run is one in-process ``cli.run(argv)`` call made from a scratch working
directory that holds a copy of ``models/`` and a few bundles derived from it,
so every path on a command line or in a message is relative.  A run records
its exit code (or the exception that escaped ``run``), its stdout and stderr,
and every file it wrote; ``tests/golden/<run>/`` holds that record.
``tests/test_golden.py`` replays the runs and compares them byte for byte.

After an intended output change, rewrite the corpus with

    PYTHONPATH=src python tests/golden_runs.py

and name every run whose files changed, with the reason, in CHANGES.md.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

from stockflow import cli

ROOT = Path(__file__).resolve().parent.parent
MODELS = ROOT / "models"
GOLDEN = Path(__file__).resolve().parent / "golden"


def _seir(doc):
    return doc["models"]["seir"]


def _derived() -> dict[str, str]:
    """Bundles made from ``models/`` for the failing runs, by file name."""

    def mutated(model_file: str, mutate) -> str:
        doc = json.loads((MODELS / model_file).read_text(encoding="utf-8"))
        mutate(doc)
        return json.dumps(doc, indent=2) + "\n"

    def set_formula(name: str, text: str):
        def mutate(doc):
            for var in _seir(doc)["variables"]:
                if var["name"] == name:
                    var["expression"] = text
        return mutate

    stocks = ["A", "B", "C", "D", "E"]
    five_kinds = {
        "format": "stockflow-bundle",
        "version": 1,
        "models": {
            "five": {
                "stocks": stocks, "flows": [], "variables": [], "sum_variables": [],
                "stock_variable_links": [], "stock_sum_links": [], "sum_variable_links": [],
            },
        },
        "typings": {
            "t_five": {
                "model": "five", "type_model": "five", "stocks": {s: s for s in stocks},
                "flows": {}, "variables": {}, "sum_variables": {},
            },
        },
    }
    return {
        "not-json.json": '{"format": "stockflow-bundle",\n',
        "version9.json": '{"format": "stockflow-bundle", "version": 9}\n',
        "ghost-sum.json": mutated("seir.json", lambda d: _seir(d)["stock_sum_links"].append(["S", "GHOST"])),
        "bad-upstream.json": mutated("seir.json", lambda d: _seir(d)["flows"][2].__setitem__("upstream", 3)),
        "duplicate-stock.json": mutated("seir.json", lambda d: _seir(d)["stocks"].append("S")),
        "bad-formula.json": mutated("seir.json", set_formula("v_inf", "beta*")),
        "zero-sum.json": mutated("seir.json", lambda d: d["initial"]["measles"].update(S=0.0, E=0.0, I=0.0, R=0.0)),
        "unknown-type-image.json": mutated(
            "seir_typed.json", lambda d: d["typings"]["t_seir_structure"]["flows"].__setitem__("birth", "NOPE")
        ),
        "five-stock-kinds.json": json.dumps(five_kinds, indent=2) + "\n",
    }


def _bundle_models() -> dict[str, list[str]]:
    """Bundle file stem -> the names of its models, leaving out a model
    whose definition an earlier file already holds (the shared type model,
    and the SEIR of ``seirv.json``)."""
    seen: set[str] = set()
    out = {}
    for path in sorted(MODELS.glob("*.json")):
        out[path.stem] = []
        for name, model in json.loads(path.read_text(encoding="utf-8"))["models"].items():
            key = json.dumps(model, sort_keys=True)
            if key not in seen:
                seen.add(key)
                out[path.stem].append(name)
    return out


def runs() -> dict[str, list[str]]:
    """Run name -> argv.  Inputs are read from ``models/`` and ``inputs/``;
    each run writes its one output file under ``out/``."""
    out: dict[str, list[str]] = {}
    for stem, names in _bundle_models().items():
        path = f"models/{stem}.json"
        out[f"{stem}.validate"] = ["validate", path]
        out[f"{stem}.info"] = ["info", path]
        for name in names:
            pick = ["--model", name]
            out[f"{stem}.{name}.convert-ss"] = ["convert", path, *pick, "--to", "system-structure", "--out", "out/out.json"]
            out[f"{stem}.{name}.convert-cl"] = ["convert", path, *pick, "--to", "causal-loop", "--out", "out/out.dot"]
            out[f"{stem}.{name}.graph"] = ["graph", path, *pick, "--out", "out/out.dot"]
        for typing in json.loads((MODELS / f"{stem}.json").read_text(encoding="utf-8")).get("typings", {}):
            out[f"{stem}.{typing}.graph-typed"] = ["graph", path, "--typed", typing, "--out", "out/out.dot"]

    out["seirv.compose"] = ["compose", "models/seirv.json", "--out", "out/out.json"]
    stratify = ["stratify", "--type", "models/s_type.json", "--out", "out/out.json", "--aggregate"]
    out["stratify.seir-age"] = [*stratify, "models/seir_typed.json", "--strata", "models/age_typed.json"]
    out["stratify.sis-sex"] = [*stratify, "models/sis_typed.json", "--strata", "models/sex_typed.json"]
    out["stratify.sis-sex-flatten"] = [*out["stratify.sis-sex"], "--flatten"]
    out["stratify.seir-sexaging-age"] = [
        *stratify, "models/seir_typed.json", "--strata", "models/sex_aging_typed.json", "models/age_typed.json",
    ]
    for stem, t1, dt in (("seir", "5", "0.25"), ("sis_sex", "10", "0.5")):
        sim = ["simulate", f"models/{stem}.json", "--t0", "0", "--t1", t1, "--out", "out/out.csv"]
        out[f"{stem}.simulate-dp45"] = sim
        out[f"{stem}.simulate-rk4"] = [*sim, "--method", "rk4", "--dt", dt]

    # Failing runs: each must exit 1, 2 or 3 with one message.
    seir_sim = ["simulate", "models/seir.json", "--t0", "0", "--out", "out/out.csv"]
    out["fail.not-json"] = ["info", "inputs/not-json.json"]
    out["fail.version9"] = ["validate", "inputs/version9.json"]
    out["fail.ghost-sum"] = ["validate", "inputs/ghost-sum.json"]
    out["fail.bad-upstream"] = ["info", "inputs/bad-upstream.json"]
    out["fail.duplicate-stock"] = ["info", "inputs/duplicate-stock.json"]
    out["fail.bad-formula"] = ["simulate", "inputs/bad-formula.json", "--t0", "0", "--t1", "1", "--out", "out/out.csv"]
    out["fail.zero-sum"] = ["simulate", "inputs/zero-sum.json", "--t0", "0", "--t1", "1", "--out", "out/out.csv"]
    out["fail.unknown-type-image"] = ["validate", "inputs/unknown-type-image.json"]
    out["fail.bad-type"] = [
        "stratify", "--aggregate", "models/seir_typed.json", "--strata", "models/age_typed.json",
        "--type", "models/seir.json", "--out", "out/out.json",
    ]
    out["fail.rk4-no-dt"] = [*seir_sim, "--t1", "1", "--method", "rk4"]
    out["fail.rk4-diverges"] = [*seir_sim, "--t1", "10", "--method", "rk4", "--dt", "0.5"]
    out["fail.unknown-command"] = ["nonsense"]
    out["fail.graph-no-bundle"] = ["graph", "--out", "out/out.dot"]
    out["fail.missing-file"] = ["info", "missing.json"]
    out["fail.t1-nan"] = [*seir_sim, "--t1", "nan"]
    out["fail.rk4-dt-nan"] = [*seir_sim, "--t1", "5", "--method", "rk4", "--dt", "nan"]
    out["fail.abstol-nan"] = [*seir_sim, "--t1", "5", "--abstol", "nan"]
    out["five-stock-kinds.graph-typed"] = ["graph", "inputs/five-stock-kinds.json", "--typed", "t_five", "--out", "out/out.dot"]
    return out


def run_all(workdir: Path) -> dict[str, dict[str, bytes]]:
    """Run every run in `workdir` (made if missing); run name -> record,
    where a record maps ``exit``, ``stdout``, ``stderr`` and each output
    file's name to its bytes (empty streams are left out)."""
    workdir.mkdir(parents=True, exist_ok=True)
    shutil.copytree(MODELS, workdir / "models", dirs_exist_ok=True)
    (workdir / "inputs").mkdir(exist_ok=True)
    for name, text in _derived().items():
        (workdir / "inputs" / name).write_text(text, encoding="utf-8")
    records = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for name, argv in runs().items():
            shutil.rmtree("out", ignore_errors=True)
            os.mkdir("out")
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    status = f"{cli.run(argv)}\n"
                except Exception as exc:  # recorded: an escape is a result too
                    status = f"raised {type(exc).__name__}: {exc}\n"
            record = {"exit": status.encode()}
            for stream, text in (("stdout", stdout.getvalue()), ("stderr", stderr.getvalue())):
                if text:
                    record[stream] = text.encode()
            for path in sorted(Path("out").iterdir()):
                record[path.name] = path.read_bytes()
            records[name] = record
    finally:
        os.chdir(cwd)
    return records


def load(directory: Path = GOLDEN) -> dict[str, dict[str, bytes]]:
    return {
        run.name: {path.name: path.read_bytes() for path in sorted(run.iterdir())}
        for run in sorted(directory.iterdir())
        if run.is_dir()
    }


def write(records: dict[str, dict[str, bytes]], directory: Path = GOLDEN) -> None:
    shutil.rmtree(directory, ignore_errors=True)
    for name, record in records.items():
        (directory / name).mkdir(parents=True)
        for file, data in record.items():
            (directory / name / file).write_bytes(data)


def _numbers_agree(a: str, b: str) -> bool:
    """Whether two CSV lines hold the same cells up to the last digits."""
    cells_a, cells_b = a.split(","), b.split(",")
    if len(cells_a) != len(cells_b):
        return False
    try:
        pairs = [(float(x), float(y)) for x, y in zip(cells_a, cells_b)]
    except ValueError:
        return False
    return all(abs(x - y) <= 1e-12 * max(abs(x), abs(y), 1e-300) for x, y in pairs)


def differences(expected: dict[str, dict[str, bytes]], got: dict[str, dict[str, bytes]]) -> list[str]:
    """One line per run that differs, naming the file and its first
    differing line."""
    out = []
    for name in sorted(expected.keys() | got.keys()):
        if name not in got:
            out.append(f"{name}: in the corpus but no longer run")
            continue
        if name not in expected:
            out.append(f"{name}: run but not in the corpus")
            continue
        want, have = expected[name], got[name]
        for file in sorted(want.keys() | have.keys()):
            if file not in have or file not in want:
                out.append(f"{name}: {file} {'missing' if file not in have else 'unexpected'}")
                continue
            if want[file] == have[file]:
                continue
            lines_w = want[file].decode(errors="replace").split("\n")
            lines_h = have[file].decode(errors="replace").split("\n")
            k = next(
                (i for i, (w, h) in enumerate(zip(lines_w, lines_h)) if w != h),
                min(len(lines_w), len(lines_h)),
            )
            line_w = lines_w[k] if k < len(lines_w) else "<end of file>"
            line_h = lines_h[k] if k < len(lines_h) else "<end of file>"
            note = ""
            if file.endswith(".csv") and _numbers_agree(line_w, line_h):
                note = " (equal to 12 digits: the platform's pow may differ in the last ones)"
            out.append(f"{name}: {file} line {k + 1}: expected {line_w!r}, got {line_h!r}{note}")
    return out


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        records = run_all(Path(tmp))
    write(records)
    total = sum(len(data) for record in records.values() for data in record.values())
    print(f"wrote {len(records)} runs, {total} bytes, to {GOLDEN.relative_to(ROOT)}", file=sys.stderr)
