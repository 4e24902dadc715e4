"""Typed diagrams and pullback stratification.

A typed diagram pairs a system-structure diagram with a structure-preserving
map into a small type system.  Stratifying two or more diagrams typed over
the same system takes their fiber product: elements are tuples agreeing on
type, so e.g. every disease stock is paired with every stratum stock of the
same kind.  Formulas do not transport; reattach them afterwards.
"""
from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

from .acset import (
    Homomorphism,
    compose_hom,
    is_natural,
    naturality_failures,
    pullback,
)
from .diagrams import DiagramError, StockFlowDiagram, duplicate_names


class TypedDiagram(NamedTuple):
    diagram: StockFlowDiagram
    type_system: StockFlowDiagram
    typing: Homomorphism  # diagram -> type system; names play no role


def make_typed(
    d: StockFlowDiagram,
    type_system: StockFlowDiagram,
    components: Mapping[str, Sequence[int]],
) -> TypedDiagram:
    """Check the per-object assignment and wrap it; rejects non-natural maps
    listing every failing square."""
    comps = {obj: list(components.get(obj, ())) for obj in d.inst.schema.objects}
    typing = Homomorphism(d.inst, type_system.inst, comps)
    failures = naturality_failures(typing)
    if failures:
        shown = ", ".join(f"({m}, {i})" for m, i in failures)
        raise DiagramError(f"typing is not structure-preserving; failing squares: {shown}")
    return TypedDiagram(d, type_system, typing)


def stratify(*typed: TypedDiagram) -> StockFlowDiagram:
    """The fiber product of two or more typed diagrams, with concatenated
    element names; raises DiagramError if two elements end up sharing one."""
    return typed_stratify(*typed).diagram


def typed_stratify(*typed: TypedDiagram) -> TypedDiagram:
    """Like :func:`stratify` but keeps the induced typing (first projection
    followed by the first argument's typing)."""
    if len(typed) < 2:
        raise DiagramError("stratification needs at least two typed diagrams")
    first = typed[0]
    for other in typed[1:]:
        if other.type_system.inst != first.type_system.inst:
            raise DiagramError("typed diagrams target different type systems")

    acc = first
    for other in typed[1:]:
        result = pullback(acc.typing, other.typing)
        acc = TypedDiagram(
            StockFlowDiagram(result.apex),
            first.type_system,
            compose_hom(result.leg1, acc.typing),
        )
    assert is_natural(acc.typing)
    dupes = duplicate_names(acc.diagram.inst)
    if dupes:
        # Pullback names concatenate without a separator, so distinct pairs
        # such as S+Child and SC+hild can meet.
        raise DiagramError(
            f"stratification yields duplicate {dupes[0]} name(s): {', '.join(dupes[1])}"
        )
    return acc
