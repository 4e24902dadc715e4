"""Schema constants for the three diagram languages.

A schema is a finite presentation of a database layout: a list of objects
(tables), a list of morphisms (foreign-key columns, each with a domain and
codomain object), and a list of name attributes (text columns attached to a
carrier object).  Diagrams are instances of these schemas; see ``acset``.
"""
from __future__ import annotations


class SchemaDef:
    """Objects, foreign-key morphisms and name attributes of a diagram kind."""

    def __init__(
        self,
        objects: tuple[str, ...],
        morphisms: tuple[tuple[str, str, str], ...],  # (name, domain, codomain)
        name_attributes: tuple[tuple[str, str], ...],  # (attribute, carrier object)
    ) -> None:
        self.objects = objects
        self.morphisms = morphisms
        self.name_attributes = name_attributes
        seen: set[str] = set()
        for name in [*objects, *(m[0] for m in morphisms), *(a[0] for a in name_attributes)]:
            if name in seen:
                raise ValueError(f"duplicate schema name: {name!r}")
            seen.add(name)
        objs = set(objects)
        for name, dom, cod in morphisms:
            if dom not in objs or cod not in objs:
                raise ValueError(f"morphism {name!r} references unknown object")
        for attr, carrier in name_attributes:
            if carrier not in objs:
                raise ValueError(f"attribute {attr!r} references unknown object")
        # Built once.  The first attribute listed for a carrier is its name
        # attribute.
        self._name_attribute = {carrier: attr for attr, carrier in reversed(name_attributes)}

    def __eq__(self, other: object) -> bool:
        if type(other) is not SchemaDef:
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self) -> int:
        return hash((self.objects, self.morphisms, self.name_attributes))

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
