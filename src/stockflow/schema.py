"""Schema constants for the three diagram languages.

A schema is a finite presentation of a database layout: a list of objects
(tables), a list of morphisms (foreign-key columns, each with a domain and
codomain object), and a list of name attributes (text columns attached to a
carrier object).  Diagrams are instances of these schemas; see ``acset``.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SchemaDef:
    """Objects, foreign-key morphisms and name attributes of a diagram kind."""

    objects: tuple[str, ...]
    morphisms: tuple[tuple[str, str, str], ...]  # (name, domain, codomain)
    name_attributes: tuple[tuple[str, str], ...]  # (attribute, carrier object)

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for name in (
            list(self.objects)
            + [m[0] for m in self.morphisms]
            + [a[0] for a in self.name_attributes]
        ):
            if name in seen:
                raise ValueError(f"duplicate schema name: {name!r}")
            seen.add(name)
        objs = set(self.objects)
        for name, dom, cod in self.morphisms:
            if dom not in objs or cod not in objs:
                raise ValueError(f"morphism {name!r} references unknown object")
        for attr, carrier in self.name_attributes:
            if carrier not in objs:
                raise ValueError(f"attribute {attr!r} references unknown object")
        # Lookup maps, built once; the dataclass is frozen, hence __setattr__.
        # The first attribute listed for a carrier is its name attribute.
        object.__setattr__(self, "_morphism", {m[0]: m for m in self.morphisms})
        object.__setattr__(self, "_morphisms_from", {
            obj: tuple(m for m in self.morphisms if m[1] == obj) for obj in self.objects
        })
        object.__setattr__(self, "_name_attribute", {
            carrier: attr for attr, carrier in reversed(self.name_attributes)
        })

    def morphism(self, name: str) -> tuple[str, str, str]:
        try:
            return self._morphism[name]
        except KeyError:
            raise KeyError(f"unknown morphism: {name!r}") from None

    def morphisms_from(self, obj: str) -> tuple[tuple[str, str, str], ...]:
        return self._morphisms_from.get(obj, ())

    def name_attribute_of(self, obj: str) -> str | None:
        return self._name_attribute.get(obj)


def schema_stockflow() -> SchemaDef:
    """The stock-flow layout: stocks, flows, in/outflow relations, auxiliary
    variables, sum variables and the three link tables."""
    return _STOCKFLOW


def schema_interface() -> SchemaDef:
    """The composition-interface layout: only stocks, sum variables and the
    links between them."""
    return _INTERFACE


def schema_causalloop() -> SchemaDef:
    """The causal-loop layout: a directed multigraph of named nodes."""
    return _CAUSALLOOP


_STOCKFLOW = SchemaDef(
    objects=("S", "F", "I", "O", "V", "SV", "LS", "LV", "LSV"),
    morphisms=(
        ("is", "I", "S"),       # inflow -> its downstream stock
        ("ifn", "I", "F"),      # inflow -> its flow
        ("os", "O", "S"),       # outflow -> its upstream stock
        ("ofn", "O", "F"),      # outflow -> its flow
        ("fv", "F", "V"),       # flow -> the variable giving its rate
        ("lvs", "LV", "S"),     # stock-to-variable link endpoints
        ("lvv", "LV", "V"),
        ("lss", "LS", "S"),     # stock-to-sum-variable link endpoints
        ("lssv", "LS", "SV"),
        ("lsvsv", "LSV", "SV"),  # sum-variable-to-variable link endpoints
        ("lsvv", "LSV", "V"),
    ),
    name_attributes=(
        ("sname", "S"),
        ("fname", "F"),
        ("vname", "V"),
        ("svname", "SV"),
    ),
)

_INTERFACE = SchemaDef(
    objects=("S", "SV", "LS"),
    morphisms=(("lss", "LS", "S"), ("lssv", "LS", "SV")),
    name_attributes=(("sname", "S"), ("svname", "SV")),
)

_CAUSALLOOP = SchemaDef(
    objects=("N", "E"),
    morphisms=(("s", "E", "N"), ("t", "E", "N")),
    name_attributes=(("nname", "N"),),
)
