import json
from pathlib import Path

import pytest

from stockflow import bundle as bio
from stockflow import models
from stockflow.bundle import BundleError, ModelBundle
from stockflow.diagrams import attach_dynamics, flatten_names
from stockflow.odes import vectorfield
from stockflow.stratify import stratify

from reference import canonical_sort

MODELS_DIR = Path(__file__).resolve().parent.parent / "models"


def test_round_trip_identity_for_every_bundle():
    for name, b in models.bundles().items():
        text = bio.emit_json(b)
        parsed = bio.parse_json(text)
        assert parsed == b, name
        assert bio.emit_json(parsed) == text, name


def test_emission_is_deterministic():
    for b in models.bundles().values():
        assert bio.emit_json(b) == bio.emit_json(b)


def test_shipped_files_are_canonical():
    # models/*.json is the source of truth, so hand edits must stay canonical.
    paths = sorted(MODELS_DIR.glob("*.json"))
    assert len(paths) == 10
    for path in paths:
        text = path.read_text(encoding="utf-8")
        assert bio.emit_json(bio.parse_json(text)) == text, path


def test_sis_sex_file_is_the_stratified_sis():
    ts = models.type_system()
    structure = flatten_names(stratify(models.sis_typed(ts), models.sex_strata_typed(ts)))
    derived = attach_dynamics(structure, models.sis_sex_expressions())
    assert bio.diagram_to_model(derived) == models.load("sis_sex").models["sis_sex"]


def test_missing_models_dir_names_the_path(monkeypatch, tmp_path):
    monkeypatch.setattr(models, "MODELS_DIR", tmp_path / "nowhere")
    with pytest.raises(FileNotFoundError) as err:
        models.seir()
    assert str(tmp_path / "nowhere" / "seir.json") in str(err.value)


def test_half_edge_flows_round_trip():
    md = bio.diagram_to_model(models.seir())
    birth = next(fd for fd in md.flows if fd.name == "birth")
    assert birth.upstream is None and birth.downstream == "S"
    text = bio.emit_json(ModelBundle(models={"seir": md}))
    assert '"upstream"' not in text.split('"name": "birth"')[1].split("}")[0]
    rebuilt = bio.parse_json(text).models["seir"]
    assert rebuilt == md


def test_diagram_reconstruction_is_isomorphic_and_equivalent():
    for d in (models.seir(), models.sve(), models.sis(), models.sis_sex()):
        rebuilt = bio.model_to_diagram(bio.diagram_to_model(d))
        assert canonical_sort(rebuilt.inst) == canonical_sort(d.inst)
        assert rebuilt.stocks == d.stocks
    # and the ODE semantics agree state-for-state
    d = models.seir()
    rebuilt = bio.model_to_diagram(bio.diagram_to_model(d))
    p, u0 = models.measles_parameters(), models.measles_initial()
    assert vectorfield(rebuilt, p)(u0, 0.0) == vectorfield(d, p)(u0, 0.0)


def test_structure_models_have_no_formulas():
    md = bio.diagram_to_model(models.seir_structure())
    assert md.expressions == {}
    structure = bio.model_to_structure(md)
    assert structure.inst.n["F"] == 12
    with pytest.raises(BundleError):
        bio.model_to_diagram(md)


def test_typing_tables_reconstruct_exact_components():
    ts = models.type_system()
    pairs = [
        ("seir", models.seir_typed(ts)),
        ("sis", models.sis_typed(ts)),
        ("age", models.age_strata_typed(ts)),
        ("sex", models.sex_strata_typed(ts)),
        ("sexage", models.sex_strata_with_aging_typed(ts)),
    ]
    for name, typed in pairs:
        td = bio.typing_to_def(name, "s_type", typed)
        rebuilt = bio.def_to_typing(td, typed.diagram, ts)
        assert rebuilt.typing.components == typed.typing.components, name


def test_typing_reconstruction_rejects_broken_tables():
    ts = models.type_system()
    typed = models.seir_typed(ts)
    td = bio.typing_to_def("seir", "s_type", typed)
    td.flows["birth"] = "deaths"  # forces a contradictory inflow component
    with pytest.raises(BundleError):
        bio.def_to_typing(td, typed.diagram, ts)


def test_version_and_format_mismatch():
    good = bio.emit_json(ModelBundle())
    with pytest.raises(BundleError):
        bio.parse_json(good.replace('"version": 1', '"version": 2'))
    with pytest.raises(BundleError):
        bio.parse_json(good.replace("stockflow-bundle", "mystery"))
    with pytest.raises(BundleError):
        bio.parse_json("not json at all")
    with pytest.raises(BundleError):
        bio.parse_json("[1,2,3]")


def test_schema_violations_carry_paths():
    text = bio.emit_json(models.bundles()["seir"])
    broken = text.replace('"stocks": [\n        "S",', '"stocks": [\n        5,', 1)
    with pytest.raises(BundleError) as err:
        bio.parse_json(broken)
    assert "models.seir.stocks" in str(err.value)

    broken2 = text.replace('"expression": "mu*N"', '"expression": "mu*("')
    with pytest.raises(BundleError) as err2:
        bio.parse_json(broken2)
    assert "expression" in str(err2.value)

    # Tables are type-checked whole; a failure still names the first bad row.
    for mutate, where in [
        (lambda m: m["stock_variable_links"][3].append("S"), "models.seir.stock_variable_links[3]:"),
        (lambda m: m["stock_sum_links"].__setitem__(1, ["S", 7]), "models.seir.stock_sum_links[1]:"),
        (lambda m: m["flows"][2].__setitem__("upstream", 3), "models.seir.flows[2].upstream:"),
        (lambda m: m["flows"][4].pop("variable"), "models.seir.flows[4].variable:"),
        (lambda m: m["variables"].__setitem__(5, "v"), "models.seir.variables[5].name:"),
    ]:
        doc = json.loads(text)
        mutate(doc["models"]["seir"])
        with pytest.raises(BundleError) as err:
            bio.parse_json(json.dumps(doc))
        assert str(err.value).startswith(where), err.value


def test_dangling_bundle_references():
    md = bio.diagram_to_model(models.seir())
    md.stock_sum_links.append(("S", "GHOST"))
    with pytest.raises(BundleError):
        bio.model_to_structure(md)
    # A repeated name is an error, not merged into one element.
    for table in ("stocks", "sum_variables"):
        md = bio.diagram_to_model(models.seir())
        getattr(md, table).append(getattr(md, table)[0])
        with pytest.raises(BundleError, match="duplicate"):
            bio.model_to_structure(md)
