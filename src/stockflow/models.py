"""Bundled example models, read from the JSON bundles under ``models/``: an
open-population SEIR measles model, the SVE vaccination fragment it composes
with, a small closed SIS model, the typed system-structure diagrams used by
the stratification examples and the sex-stratified SIS they produce.

The files are the only source of these models.  They are found in the
``models/`` directory next to ``src/``, so this module needs a source
checkout or an editable install; the CLI does not import it.
"""
from __future__ import annotations

from pathlib import Path

from . import bundle as bundle_io
from .bundle import ModelBundle
from .compose import WiringPattern
from .diagrams import Foot, StockFlowDiagram
from .expressions import Expression
from .stratify import TypedDiagram

MODELS_DIR = Path(__file__).resolve().parents[2] / "models"


def load(name: str) -> ModelBundle:
    """Parse ``models/<name>.json``."""
    path = MODELS_DIR / f"{name}.json"
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise FileNotFoundError(
            f"bundled model file {path} not found; stockflow.models reads the models/ "
            "directory next to src/, which needs a source checkout or an editable install"
        ) from exc
    return bundle_io.parse_json(text)


def bundles() -> dict[str, ModelBundle]:
    """Every shipped bundle, keyed by file stem."""
    return {path.stem: load(path.stem) for path in sorted(MODELS_DIR.glob("*.json"))}


def _diagram(name: str, model: str) -> StockFlowDiagram:
    return bundle_io.model_to_diagram(load(name).models[model])


def _structure(name: str, model: str) -> StockFlowDiagram:
    return bundle_io.model_to_structure(load(name).models[model])


def _typed(name: str, ts: StockFlowDiagram | None) -> TypedDiagram:
    """The bundle's one typing; `ts` replaces its own copy of the type system."""
    b = load(name)
    (td,) = b.typings.values()
    if ts is None:
        ts = bundle_io.model_to_structure(b.models[td.type_model])
    return bundle_io.def_to_typing(td, bundle_io.model_to_structure(b.models[td.model]), ts)


def seir() -> StockFlowDiagram:
    """Open-population SEIR: births into S, proportional deaths everywhere,
    incidence beta*S*I/N, latency and recovery as first-order delays."""
    return _diagram("seir", "seir")


def measles_parameters() -> dict[str, float]:
    return load("seir").parameters["measles"]


def measles_initial() -> dict[str, float]:
    return load("seir").initial["measles"]


def sve() -> StockFlowDiagram:
    """Vaccination fragment: S is vaccinated into V, V dies or suffers
    breakthrough infection into E; I only drives the infection rate."""
    return _diagram("seirv", "sve")


def seirv_pattern() -> WiringPattern:
    """Glue the SEIR and SVE boxes at S, E and I (each foot also carries N)."""
    return bundle_io.def_to_pattern(load("seirv").wiring["seirv"])


def seirv_feet() -> list[Foot]:
    return [bundle_io.def_to_foot(fd) for fd in load("seirv").feet.values()]


def seirv_parameters() -> dict[str, float]:
    return load("seirv").parameters["seirv"]


def seirv_initial() -> dict[str, float]:
    return load("seirv").initial["seirv"]


def sis() -> StockFlowDiagram:
    """Minimal closed SIS used by the semantics round-trip checks."""
    return _diagram("sis", "sis")


def type_system() -> StockFlowDiagram:
    """One stock kind plus the five flow kinds (births, deaths, new
    infections, aging, first-order delay) and three sum-variable kinds
    (total, subgroup, infectious-of-subgroup)."""
    return _structure("s_type", "s_type")


def seir_structure() -> StockFlowDiagram:
    """SEIR structure padded with one identity flow per stock so it exposes
    an aging-kind flow to stratify against."""
    return _structure("seir_typed", "seir_structure")


def age_strata_structure() -> StockFlowDiagram:
    """Three age groups with aging between neighbours; the identity flows
    carry the first-order-delay kind here."""
    return _structure("age_typed", "age_strata")


def seir_typed(ts: StockFlowDiagram | None = None) -> TypedDiagram:
    return _typed("seir_typed", ts)


def sis_typed(ts: StockFlowDiagram | None = None) -> TypedDiagram:
    """SIS structure with identity flows; recovery is a first-order delay
    back into S."""
    return _typed("sis_typed", ts)


def age_strata_typed(ts: StockFlowDiagram | None = None) -> TypedDiagram:
    return _typed("age_typed", ts)


def sex_strata_typed(ts: StockFlowDiagram | None = None) -> TypedDiagram:
    """Two sexes."""
    return _typed("sex_typed", ts)


def sex_strata_with_aging_typed(ts: StockFlowDiagram | None = None) -> TypedDiagram:
    """Two sexes with a self-loop aging flow per stock, so the model can join
    age-stratified pullbacks."""
    return _typed("sex_aging_typed", ts)


def sis_sex() -> StockFlowDiagram:
    """The sex-stratified SIS: the pullback of ``sis_typed`` and
    ``sex_strata_typed``, flattened, with formulas attached."""
    return _diagram("sis_sex", "sis_sex")


def sis_sex_expressions() -> dict[str, Expression]:
    """Parsed formulas for the sex-stratified SIS (names as produced by the
    pullback: concatenated component names)."""
    return load("sis_sex").models["sis_sex"].expressions


def sis_sex_parameters() -> dict[str, float]:
    return load("sis_sex").parameters["sis_sex"]


def sis_sex_initial() -> dict[str, float]:
    return load("sis_sex").initial["sis_sex"]
