import json
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import stockflow
from stockflow import bundle as bio
from stockflow import cli, models
from stockflow.bundle import ModelBundle
from stockflow.cli import run
from stockflow.render import STOCK_COLORS
from stockflow.diagrams import build_system_structure
from stockflow.stratify import make_typed

from reference import parse_csv

MODELS_DIR = Path(__file__).resolve().parent.parent / "models"


@pytest.fixture()
def bundles_dir():
    # Read-only inputs; every test writes its outputs under tmp_path.
    return MODELS_DIR


def _b(bundles_dir, name):
    return str(bundles_dir / f"{name}.json")


def test_validate_clean_bundle(bundles_dir, capsys):
    assert run(["validate", _b(bundles_dir, "seir")]) == 0
    assert capsys.readouterr().out == ""


def test_validate_reports_violations(bundles_dir, tmp_path, capsys):
    doc = json.loads(Path(_b(bundles_dir, "seir")).read_text())
    doc["models"]["seir"]["stock_sum_links"].append(["S", "GHOST"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["validate", str(bad)]) == 2
    out = capsys.readouterr().out
    assert "GHOST" in out


def test_validate_rejects_wrong_version(tmp_path, capsys):
    path = tmp_path / "v9.json"
    path.write_text('{"format": "stockflow-bundle", "version": 9}')
    assert run(["validate", str(path)]) == 2


def test_info_prints_cardinalities(bundles_dir, capsys):
    assert run(["info", _b(bundles_dir, "seir")]) == 0
    out = capsys.readouterr().out
    assert "model seir" in out
    assert "S    4" in out and "F    8" in out and "O    7" in out


def test_simulate_conserves_population(bundles_dir, tmp_path, capsys):
    out_csv = tmp_path / "run.csv"
    code = run([
        "simulate", _b(bundles_dir, "seir"),
        "--t0", "0", "--t1", "120", "--method", "dp45",
        "--abstol", "1e-8", "--out", str(out_csv),
    ])
    assert code == 0
    traj = parse_csv(out_csv.read_text())
    assert traj.times[-1] == 120.0
    final = traj.states[-1]
    assert abs(sum(final.values()) - 863545.0) < 1.0
    header = out_csv.read_text().splitlines()[0]
    assert header == "t,S,E,I,R"


def test_simulate_rk4_needs_dt(bundles_dir, tmp_path):
    code = run([
        "simulate", _b(bundles_dir, "seir"),
        "--t0", "0", "--t1", "1", "--method", "rk4", "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 1


def test_simulate_runtime_failure_is_exit_3(bundles_dir, tmp_path):
    doc = json.loads(Path(_b(bundles_dir, "seir")).read_text())
    doc["initial"]["measles"] = {k: 0.0 for k in doc["initial"]["measles"]}
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    code = run([
        "simulate", str(path), "--t0", "0", "--t1", "1", "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 3  # division by the zero-valued sum variable


def test_convert_system_structure(bundles_dir, tmp_path):
    out = tmp_path / "structure.json"
    assert run(["convert", _b(bundles_dir, "seir"), "--to", "system-structure", "--out", str(out)]) == 0
    b = bio.parse_json(out.read_text())
    assert b.models["seir"].expressions == {}
    assert len(b.models["seir"].variables) == 8


def test_convert_causal_loop(bundles_dir, tmp_path):
    out = tmp_path / "seir.dot"
    assert run(["convert", _b(bundles_dir, "seir"), "--to", "causal-loop", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.count(" -> ") == 25


def test_compose_then_info_shows_five_stocks(bundles_dir, tmp_path, capsys):
    out = tmp_path / "seirv_out.json"
    assert run(["compose", _b(bundles_dir, "seirv"), "--out", str(out)]) == 0
    capsys.readouterr()
    assert run(["info", str(out)]) == 0
    assert "S    5" in capsys.readouterr().out
    # and the composed bundle simulates directly (params/initial carried over)
    csv_path = tmp_path / "seirv.csv"
    assert run([
        "simulate", str(out), "--t0", "0", "--t1", "100", "--out", str(csv_path),
    ]) == 0
    traj = parse_csv(csv_path.read_text())
    assert abs(sum(traj.states[-1].values()) - 10000.0) < 0.1


def test_stratify_counts_via_cli(bundles_dir, tmp_path, capsys):
    out = tmp_path / "seir_age.json"
    code = run([
        "stratify",
        "--aggregate", _b(bundles_dir, "seir_typed"),
        "--strata", _b(bundles_dir, "age_typed"),
        "--type", _b(bundles_dir, "s_type"),
        "--out", str(out),
    ])
    assert code == 0
    capsys.readouterr()
    assert run(["info", str(out)]) == 0
    text = capsys.readouterr().out
    section = text.split("model seir_structure_age_strata")[1].split("model ")[0]
    assert "S    12" in section and "F    30" in section
    b = bio.parse_json(out.read_text())
    assert "seir_structure_age_strata_typing" in b.typings


def test_stratify_flatten_flag(bundles_dir, tmp_path):
    out = tmp_path / "sis_sex.json"
    code = run([
        "stratify",
        "--aggregate", _b(bundles_dir, "sis_typed"),
        "--strata", _b(bundles_dir, "sex_typed"),
        "--type", _b(bundles_dir, "s_type"),
        "--flatten",
        "--out", str(out),
    ])
    assert code == 0
    b = bio.parse_json(out.read_text())
    assert b.models["sis_structure_sex_strata"].stocks == ["SF", "SM", "IF", "IM"]


def test_stratify_type_mismatch(bundles_dir, tmp_path):
    code = run([
        "stratify",
        "--aggregate", _b(bundles_dir, "seir_typed"),
        "--strata", _b(bundles_dir, "age_typed"),
        "--type", _b(bundles_dir, "seir"),  # not the type system
        "--out", str(tmp_path / "x.json"),
    ])
    assert code == 2


def test_stratify_names_the_type_file_and_model(bundles_dir, tmp_path, capsys):
    doc = json.loads(Path(_b(bundles_dir, "s_type")).read_text())
    doc["models"]["s_type"]["stock_sum_links"].append(["Pop", "GHOST"])
    bad = tmp_path / "type.json"
    bad.write_text(json.dumps(doc))
    code = run([
        "stratify",
        "--aggregate", _b(bundles_dir, "seir_typed"),
        "--strata", _b(bundles_dir, "age_typed"),
        "--type", str(bad),
        "--out", str(tmp_path / "x.json"),
    ])
    assert code == 2
    assert capsys.readouterr().err == (
        f"{bad}: model 's_type': stock-sum link references unknown sum variable 'GHOST'\n"
    )


def test_stratify_name_clash_is_exit_3(bundles_dir, tmp_path, capsys):
    ts = models.type_system()
    paths = []
    for name, stocks in (("agg", ["S", "SC"]), ("strata", ["Child", "hild"])):
        d = build_system_structure({s: (None, None, None, None) for s in stocks}, {})
        typed = make_typed(d, ts, {"S": [1] * len(stocks)})
        b = ModelBundle(
            models={name: bio.diagram_to_model(d), "s_type": bio.diagram_to_model(ts)},
            typings={f"t_{name}": bio.typing_to_def(name, "s_type", typed)},
        )
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(bio.emit_json(b))
    out = tmp_path / "out.json"
    code = run([
        "stratify", "--aggregate", str(paths[0]), "--strata", str(paths[1]),
        "--type", _b(bundles_dir, "s_type"), "--out", str(out),
    ])
    assert code == 3
    assert "SChild" in capsys.readouterr().err
    assert not out.exists()


def test_graph_plain_and_typed(bundles_dir, tmp_path):
    out = tmp_path / "seir.dot"
    assert run(["graph", _b(bundles_dir, "seir"), "--out", str(out)]) == 0
    assert out.read_text().count('shape="square"') == 4
    typed_out = tmp_path / "typed.dot"
    assert run([
        "graph", _b(bundles_dir, "seir_typed"), "--typed", "t_seir_structure",
        "--out", str(typed_out),
    ]) == 0
    assert "antiquewhite" in typed_out.read_text()


def test_graph_typed_repeats_colours_past_the_palette(tmp_path):
    # Five stock kinds against four stock colours: the fifth kind reuses the
    # first colour instead of failing the command.
    stocks = ["A", "B", "C", "D", "E"]
    d = build_system_structure({s: (None, None, None, None) for s in stocks}, {})
    b = ModelBundle(
        models={"five": bio.diagram_to_model(d)},
        typings={"t_five": bio.typing_to_def("five", "five", make_typed(d, d, {"S": [1, 2, 3, 4, 5]}))},
    )
    path, out = tmp_path / "five.json", tmp_path / "five.dot"
    path.write_text(bio.emit_json(b))
    assert run(["graph", str(path), "--typed", "t_five", "--out", str(out)]) == 0
    fills = re.findall(r'fillcolor="([^"]*)"', out.read_text())
    assert fills == [*STOCK_COLORS, STOCK_COLORS[0]]


def test_outputs_are_byte_identical_across_runs(bundles_dir, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert run([
            "simulate", _b(bundles_dir, "seir"),
            "--t0", "0", "--t1", "10", "--out", str(path),
        ]) == 0
    assert a.read_bytes() == b.read_bytes()
    da, db = tmp_path / "a.dot", tmp_path / "b.dot"
    for path in (da, db):
        assert run(["graph", _b(bundles_dir, "seir"), "--out", str(path)]) == 0
    assert da.read_bytes() == db.read_bytes()


def test_usage_errors(bundles_dir, tmp_path):
    assert run(["simulate", _b(bundles_dir, "seirv"), "--t0", "0", "--t1", "1",
                "--out", str(tmp_path / "x.csv")]) == 1  # two models, none picked
    assert run(["nonsense"]) == 1
    assert run(["info", str(tmp_path / "missing.json")]) == 1


def test_parser_is_built_once_and_keeps_no_state(bundles_dir, tmp_path, capsys):
    graph = ["graph", _b(bundles_dir, "seirv"), "--out", str(tmp_path / "x.dot")]
    assert run(graph + ["--model", "sve"]) == 0
    assert run(graph) == 1  # the previous call's --model does not carry over
    assert run(["graph"]) == 1
    assert run(graph + ["--model", "seir"]) == 0
    assert "usage: stockflow graph" in capsys.readouterr().err
    assert cli._parser() is cli._parser()


def test_cli_import_loads_no_dataclass_machinery():
    # Every command runs in a fresh process, so each pays for what importing
    # the CLI loads; dataclasses alone pulls in inspect, ast, dis and tokenize.
    # -S keeps site hooks from loading modules the CLI does not.
    src = str(Path(stockflow.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import stockflow.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_stratify_two_strata_dimensions(bundles_dir, tmp_path, capsys):
    out = tmp_path / "seir_sex_age.json"
    code = run([
        "stratify",
        "--aggregate", _b(bundles_dir, "seir_typed"),
        "--strata", _b(bundles_dir, "sex_aging_typed"), _b(bundles_dir, "age_typed"),
        "--type", _b(bundles_dir, "s_type"),
        "--out", str(out),
    ])
    assert code == 0
    capsys.readouterr()
    assert run(["info", str(out)]) == 0
    section = capsys.readouterr().out.split("model seir_structure_sex_strata_aging_age_strata")[1]
    assert "S    24" in section.split("model ")[0]


def test_shipped_stratified_bundle_simulates(tmp_path):
    # The criterion-9 pipeline driven purely through files and the CLI.
    csv_path = tmp_path / "sis_sex.csv"
    code = run([
        "simulate", str(MODELS_DIR / "sis_sex.json"),
        "--t0", "0", "--t1", "50", "--out", str(csv_path),
    ])
    assert code == 0
    traj = parse_csv(csv_path.read_text())
    assert traj.times[-1] == 50.0
    assert all(v >= -1e-9 for state in traj.states for v in state.values())


def test_shipped_bundles_validate():
    for path in sorted(MODELS_DIR.glob("*.json")):
        assert run(["validate", str(path)]) == 0, path


@pytest.mark.parametrize(
    "formula",
    ["(0-I)^0.5", "I^400", "I*0^(0-1)"],
    ids=["complex", "overflow", "zero-to-negative-power"],
)
def test_numeric_errors_in_formulas_are_exit_3(bundles_dir, tmp_path, capsys, formula):
    doc = json.loads(Path(_b(bundles_dir, "sis")).read_text())
    for var in doc["models"]["sis"]["variables"]:
        if var["name"] == "v_rec":
            var["expression"] = formula
    path = tmp_path / "blowup.json"
    path.write_text(json.dumps(doc))
    code = run(["simulate", str(path), "--t0", "0", "--t1", "10", "--out", str(tmp_path / "x.csv")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "v_rec" in err and "Traceback" not in err


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


# (simulate arguments, message, whether a regression could run forever)
NON_FINITE = {
    "t1-nan": (["--t0", "0", "--t1", "nan"], "t1 must be finite, got nan", False),
    "abstol-nan": (["--t0", "0", "--t1", "5", "--abstol", "nan"], "abstol must be finite, got nan", False),
    "reltol-inf": (["--t0", "0", "--t1", "5", "--reltol", "inf"], "reltol must be finite, got inf", False),
    "rk4-dt-nan": (["--t0", "0", "--t1", "5", "--method", "rk4", "--dt", "nan"], "dt must be finite, got nan", False),
    "t1-inf": (["--t0", "0", "--t1", "inf"], "t1 must be finite, got inf", True),
    "t0-inf": (["--t0=-inf", "--t1", "5"], "t0 must be finite, got -inf", True),
    "span-overflows": (["--t0=-1e308", "--t1", "1e308"], "t1 - t0 must be finite, got inf", True),
    "rk4-dt-tiny": (
        ["--t0", "0", "--t1", "5", "--method", "rk4", "--dt", "1e-300"],
        "dt=1e-300 needs more than 10000000 steps",
        True,
    ),
}


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("times, message, endless", NON_FINITE.values(), ids=list(NON_FINITE))
def test_non_finite_numeric_arguments_are_exit_3(tmp_path, capsys, times, message, endless):
    out = tmp_path / "x.csv"
    argv = ["simulate", str(MODELS_DIR / "seir.json"), *times, "--out", str(out)]
    if endless:
        # A fresh process under a timeout and a memory limit, so that a
        # regression fails the test instead of hanging the suite.
        src = str(Path(stockflow.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-m", "stockflow.cli", *argv], capture_output=True, text=True,
            timeout=60, env={"PYTHONPATH": src}, preexec_fn=_limit_memory,
        )
        code, err = proc.returncode, proc.stderr
    else:
        code, err = run(argv), capsys.readouterr().err
    assert (code, err) == (3, f"integration failed: {message}\n")
    assert not out.exists()


def _seir_typed_doc(bundles_dir):
    return json.loads(Path(_b(bundles_dir, "seir_typed")).read_text())


def _link_without_type_row(doc):
    # s_type has no (Pop, v_births) stock-variable link to type this row by.
    doc["models"]["seir_structure"]["stock_variable_links"].append(["S", "v_birth"])


def _parallel_type_links(doc):
    doc["models"]["s_type"]["sum_variable_links"].append(["N", "v_births"])


def _unknown_type_name(doc):
    doc["typings"]["t_seir_structure"]["flows"]["birth"] = "NOPE"


@pytest.mark.parametrize(
    "mutate, expected",
    [
        (_link_without_type_row, "LV row 4 resolves to 0 candidates"),
        (_parallel_type_links, "LSV row 1 resolves to 2 candidates"),
        (_unknown_type_name, "image 'NOPE' of F 'birth' names 0 type elements"),
    ],
    ids=["no-candidate", "two-candidates", "unknown-type-name"],
)
def test_validate_rejects_unresolvable_typings(bundles_dir, tmp_path, capsys, mutate, expected):
    doc = _seir_typed_doc(bundles_dir)
    mutate(doc)
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(doc))
    assert run(["validate", str(path)]) == 2
    # One prefix naming the typing, not a second one naming its model.
    assert capsys.readouterr().out == f"typing 't_seir_structure': {expected}\n"


def test_validate_reports_typed_model_failures_with_the_rest(bundles_dir, tmp_path, capsys):
    doc = _seir_typed_doc(bundles_dir)
    doc["models"]["seir_structure"]["stock_sum_links"].append(["S", "GHOST"])
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(doc))
    assert run(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    problem = "stock-sum link references unknown sum variable 'GHOST'"
    assert captured.out == (
        f"model 'seir_structure': {problem}\n"
        f"typing 't_seir_structure': model 'seir_structure': {problem}\n"
    )
    assert captured.err == ""
