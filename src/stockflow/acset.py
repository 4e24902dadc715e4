"""Generic instance store over a fixed schema, plus the categorical kernels.

An :class:`Instance` is a categorical database: one table per schema object,
one foreign-key column per morphism, one text column per name attribute.
Element identity is a dense 1-based integer per table.  Code reads and
builds instances a whole column at a time.

On top of instances live :class:`Homomorphism` (structure-preserving maps,
checked by :func:`is_natural`), the quotient used for gluing
(:func:`pushout_quotient`, a coproduct followed by a union-find coequalizer)
and the matched product used for stratification (:func:`pullback`).
"""
from __future__ import annotations

from itertools import accumulate
from typing import Hashable, Iterable, NamedTuple

from .schema import SchemaDef


class AcsetError(Exception):
    """Structural misuse of an instance, homomorphism or kernel operation."""


class Instance:
    """Row counts per object, a column per morphism and a name list per name
    attribute; what the arguments leave out starts empty."""

    def __init__(
        self,
        schema: SchemaDef,
        n: dict[str, int] | None = None,
        columns: dict[str, list[int | None]] | None = None,
        names: dict[str, list[str]] | None = None,
    ) -> None:
        self.schema = schema
        self.n = {} if n is None else n
        self.columns = {} if columns is None else columns
        self.names = {} if names is None else names
        for obj in schema.objects:
            self.n.setdefault(obj, 0)
        for m, _, _ in schema.morphisms:
            self.columns.setdefault(m, [])
        for attr, _ in schema.name_attributes:
            self.names.setdefault(attr, [])

    def __eq__(self, other: object) -> bool:
        if type(other) is not Instance:
            return NotImplemented
        return vars(self) == vars(other)

    def name_of(self, obj: str, index: int) -> str:
        attr = self.schema.name_attribute_of(obj)
        if attr is None:
            raise AcsetError(f"object {obj!r} has no name attribute")
        return self.names[attr][index - 1]

    def names_of(self, obj: str) -> list[str]:
        attr = self.schema.name_attribute_of(obj)
        if attr is None:
            raise AcsetError(f"object {obj!r} has no name attribute")
        return list(self.names[attr])


def preimages(column: Iterable[Hashable]) -> dict[Hashable, list[int]]:
    """Each value of `column` mapped to the 1-based positions holding it,
    ascending, in one pass."""
    out: dict[Hashable, list[int]] = {}
    for i, value in enumerate(column, start=1):
        out.setdefault(value, []).append(i)
    return out


def validate_instance(inst: Instance) -> list[str]:
    """Invariant violations as printable strings; empty means valid."""
    out: list[str] = []
    for m, dom, cod in inst.schema.morphisms:
        col = inst.columns[m]
        if len(col) != inst.n[dom]:
            out.append(f"column {m}: length {len(col)} != |{dom}| = {inst.n[dom]}")
            continue
        if None not in col and (not col or 1 <= min(col) and max(col) <= inst.n[cod]):
            continue  # the whole column is in range; otherwise name each bad element
        for i, v in enumerate(col, start=1):
            if v is None:
                out.append(f"column {m}: element {i} is unset")
            elif not 1 <= v <= inst.n[cod]:
                out.append(f"column {m}: element {i} points to {v}, outside {cod} (1..{inst.n[cod]})")
    for attr, carrier in inst.schema.name_attributes:
        if len(inst.names[attr]) != inst.n[carrier]:
            out.append(f"names {attr}: length {len(inst.names[attr])} != |{carrier}| = {inst.n[carrier]}")
    # Each flow may feed at most one downstream and one upstream stock.
    for m in ("ifn", "ofn"):
        if any(mm[0] == m for mm in inst.schema.morphisms):
            if len(set(inst.columns[m])) == len(inst.columns[m]):
                continue
            seen: dict[int, int] = {}
            for i, v in enumerate(inst.columns[m], start=1):
                if v is None:
                    continue
                if v in seen:
                    out.append(f"column {m}: elements {seen[v]} and {i} share flow {v}")
                else:
                    seen[v] = i
    return out


class Homomorphism(NamedTuple):
    source: Instance
    target: Instance
    components: dict[str, list[int]]  # per object: 1-based target indices

    def apply(self, obj: str, index: int) -> int:
        return self.components[obj][index - 1]


def compose_hom(g: Homomorphism, h: Homomorphism) -> Homomorphism:
    """Composite mapping each element through `g` and then `h`."""
    if g.target is not h.source and g.target != h.source:
        raise AcsetError("compose_hom: codomain of first map != domain of second")
    comps = {
        obj: [h.components[obj][v - 1] for v in g.components[obj]]
        for obj in g.source.schema.objects
    }
    return Homomorphism(g.source, h.target, comps)


def _check_components(h: Homomorphism) -> None:
    if h.source.schema != h.target.schema:
        raise AcsetError("homomorphism endpoints have different schemas")
    for obj in h.source.schema.objects:
        comp = h.components.get(obj)
        if comp is None or len(comp) != h.source.n[obj]:
            raise AcsetError(f"component {obj} is not total")
        if comp and not (1 <= min(comp) and max(comp) <= h.target.n[obj]):
            raise AcsetError(f"component {obj} maps outside the target")


def naturality_failures(h: Homomorphism) -> list[tuple[str, int]]:
    """(morphism, source element) pairs whose square fails to commute.

    A column value that is unset or outside its codomain fails its square.
    Name attributes are deliberately ignored: maps need not preserve labels.
    """
    _check_components(h)
    failures: list[tuple[str, int]] = []
    for m, dom, cod in h.source.schema.morphisms:
        col, images, dom_images = h.source.columns[m], h.components[cod], h.components[dom]
        if None not in col and (not col or 1 <= min(col) and max(col) <= len(images)):
            # Go round the square with whole columns (padded to take 1-based
            # indices); walk the elements only to name the failures.
            lhs, rhs = [0, *images], [0, *h.target.columns[m]]
            if [lhs[v] for v in col] == [rhs[k] for k in dom_images]:
                continue
        for i in range(1, h.source.n[dom] + 1):
            v = col[i - 1]
            if (
                v is None
                or not 1 <= v <= len(images)
                or images[v - 1] != h.target.columns[m][dom_images[i - 1] - 1]
            ):
                failures.append((m, i))
    return failures


def is_natural(h: Homomorphism) -> bool:
    return not naturality_failures(h)


class _UnionFind:
    def __init__(self, size: int) -> None:
        self.parent = list(range(size))

    def find(self, i: int) -> int:
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, i: int, j: int) -> bool:
        """Merge the classes of i and j; the smaller index wins as root."""
        ri, rj = self.find(i), self.find(j)
        if ri == rj:
            return False
        if rj < ri:
            ri, rj = rj, ri
        self.parent[rj] = ri
        return True


def pushout_quotient(
    parts: list[Instance],
    identifications: list[tuple[int, str, int, int, int]],
) -> tuple[Instance, list[Homomorphism]]:
    """Glue `parts` along `identifications`, returning the quotient and the
    injection of each part into it.

    Each identification is ``(part_a, object, element_a, part_b, element_b)``
    with 0-based part positions and 1-based elements.  The quotient is the
    disjoint union with identified elements merged; merging is closed under
    the schema morphisms so columns stay well defined even on inputs that are
    not leg-generated.  A merged element keeps the lexicographically first of
    its names; element order follows the smallest disjoint-union index.
    """
    if not parts:
        raise AcsetError("pushout_quotient: need at least one part")
    schema = parts[0].schema
    for p in parts:
        if p.schema != schema:
            raise AcsetError("pushout_quotient: parts over different schemas")

    # Disjoint union: part i's elements of `obj` occupy global positions
    # offsets[obj][i] .. offsets[obj][i + 1] - 1, and each morphism becomes
    # one global column (None where a part leaves its column unset).
    offsets = {
        obj: list(accumulate((p.n[obj] for p in parts), initial=0)) for obj in schema.objects
    }
    glob = {
        m: [
            None if v is None else off + v - 1
            for p, off in zip(parts, offsets[cod])
            for v in p.columns[m]
        ]
        for m, _, cod in schema.morphisms
    }

    uf = {obj: _UnionFind(offsets[obj][-1]) for obj in schema.objects}
    for part_a, obj, elem_a, part_b, elem_b in identifications:
        if obj not in schema.objects:
            raise AcsetError(f"identification on unknown object {obj!r}")
        for part_i, elem in ((part_a, elem_a), (part_b, elem_b)):
            if not 0 <= part_i < len(parts):
                raise AcsetError(f"identification references part {part_i}")
            if not 1 <= elem <= parts[part_i].n[obj]:
                raise AcsetError(f"identification references {obj} element {elem} of part {part_i}")
        uf[obj].union(
            offsets[obj][part_a] + elem_a - 1,
            offsets[obj][part_b] + elem_b - 1,
        )

    # Close the merge relation under the morphisms so columns are single-valued.
    changed = True
    while changed:
        changed = False
        for m, dom, cod in schema.morphisms:
            image_root: dict[int, int] = {}
            for g, img in enumerate(glob[m]):
                if img is None:
                    continue
                root = uf[dom].find(g)
                img_root = uf[cod].find(img)
                if root in image_root:
                    if uf[cod].union(image_root[root], img_root):
                        changed = True
                        image_root[root] = uf[cod].find(img_root)
                else:
                    image_root[root] = img_root

    # Number the classes 1.. in order of their smallest member, which is also
    # their union-find root; cls[obj][g] is the class of global element g.
    out = Instance(schema)
    cls: dict[str, list[int]] = {}
    for obj in schema.objects:
        number: dict[int, int] = {}
        cls[obj] = [
            number.setdefault(uf[obj].find(g), len(number) + 1) for g in range(offsets[obj][-1])
        ]
        out.n[obj] = len(number)
        attr = schema.name_attribute_of(obj)
        if attr is not None:
            merged: list[list[str]] = [[] for _ in range(out.n[obj])]
            for k, name in zip(cls[obj], (nm for p in parts for nm in p.names[attr])):
                merged[k - 1].append(name)
            out.names[attr] = [min(names) for names in merged]
    for m, dom, cod in schema.morphisms:
        col: list[int | None] = [None] * out.n[dom]
        for k, img in zip(cls[dom], glob[m]):
            if img is not None:
                col[k - 1] = cls[cod][img]
        out.columns[m] = col

    injections = [
        Homomorphism(
            p,
            out,
            {obj: cls[obj][offsets[obj][i] : offsets[obj][i + 1]] for obj in schema.objects},
        )
        for i, p in enumerate(parts)
    ]
    return out, injections


class PullbackResult(NamedTuple):
    apex: Instance
    leg1: Homomorphism  # apex -> left source
    leg2: Homomorphism  # apex -> right source
    pairs: dict[str, list[tuple[int, int]]]  # per object: (left, right) indices


def pullback(left: Homomorphism, right: Homomorphism) -> PullbackResult:
    """Fiber product of two maps into a shared target.

    Elements of the apex are the (left, right) pairs agreeing in the target,
    enumerated in lexicographic order; a paired element is named by the
    punctuation-free concatenation of its component names.
    """
    if left.source.schema != right.source.schema or left.target != right.target:
        raise AcsetError("pullback: maps must share schema and target")
    schema = left.source.schema

    pairs: dict[str, list[tuple[int, int]]] = {}
    pair_index: dict[str, dict[tuple[int, int], int]] = {}
    for obj in schema.objects:
        right_rows = preimages(right.components[obj])
        lst = [
            (i, j)
            for i, x in enumerate(left.components[obj], start=1)
            for j in right_rows.get(x, [])
        ]
        pairs[obj] = lst
        pair_index[obj] = {p: k + 1 for k, p in enumerate(lst)}

    apex = Instance(schema)
    for obj in schema.objects:
        apex.n[obj] = len(pairs[obj])
        attr = schema.name_attribute_of(obj)
        if attr is not None:
            apex.names[attr] = [
                _strip_punctuation(left.source.names[attr][i - 1])
                + _strip_punctuation(right.source.names[attr][j - 1])
                for i, j in pairs[obj]
            ]
    for m, dom, cod in schema.morphisms:
        col: list[int | None] = []
        for i, j in pairs[dom]:
            vi = left.source.columns[m][i - 1]
            vj = right.source.columns[m][j - 1]
            if vi is None or vj is None:
                raise AcsetError(f"pullback: column {m} has unset entries")
            key = (vi, vj)
            if key not in pair_index[cod]:
                raise AcsetError(f"pullback: column {m} image disagrees in the target (maps not natural?)")
            col.append(pair_index[cod][key])
        apex.columns[m] = col

    leg1 = Homomorphism(apex, left.source, {obj: [i for i, _ in pairs[obj]] for obj in schema.objects})
    leg2 = Homomorphism(apex, right.source, {obj: [j for _, j in pairs[obj]] for obj in schema.objects})
    return PullbackResult(apex, leg1, leg2, pairs)


def _strip_punctuation(name: str) -> str:
    return name.replace("(", "").replace(")", "").replace(":", "").replace(",", "").replace(" ", "")

