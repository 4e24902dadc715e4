"""JSON text mechanics under the bundle format, apart from its schema.

Writing produces exactly the text ``json.dumps(doc, indent=2,
ensure_ascii=False)`` gives, from pieces instead of a document: ``json.dumps``
with an indent runs its pure-Python encoder, while here strings go through
the C string encoder, arrays of strings and of small objects are joined
whole, and every other piece goes into one list that the caller joins once.
Indents are given as nesting levels, two spaces each.

Reading checks the shape of parsed JSON and names the path of the first bad
value.  JSON text parses to exact ``dict``, ``list`` and ``str`` types, so a
whole array is checked by the set of its item types; only a failure walks
the items, to find the first bad one.
"""
from __future__ import annotations

import json
import math
from itertools import chain

quote = json.encoder.encode_basestring
NL = tuple("\n" + "  " * level for level in range(7))  # line break and indent per level


class ShapeError(Exception):
    """Parsed JSON without the expected shape; the message starts with its path."""


# --- writing -----------------------------------------------------------------

def write_object(out: list[str], fields: list[tuple[str, object]], level: int) -> None:
    """Append an object whose keys sit at `level`; a field's value is its
    JSON text or, for a nested object, its own field list."""
    if not fields:
        out.append("{}")
        return
    sep = "{" + NL[level]
    for key, value in fields:
        out += (sep, quote(key), ": ")
        if isinstance(value, str):
            out.append(value)
        else:
            write_object(out, value, level + 1)
        sep = "," + NL[level]
    out += (NL[level - 1], "}")


def array(items: list[str], level: int) -> str:
    """An array of JSON texts whose items sit at `level`."""
    if not items:
        return "[]"
    return f"[{NL[level]}{(',' + NL[level]).join(items)}{NL[level - 1]}]"


def string_array(names: list[str], level: int) -> str:
    return array(list(map(quote, names)), level)


def pair_array(pairs: list[tuple[str, str]], level: int) -> str:
    inner, close = NL[level + 1], NL[level]
    return array([f"[{inner}{quote(a)},{inner}{quote(b)}{close}]" for a, b in pairs], level)


def string_fields(table: dict[str, str]) -> list[tuple[str, str]]:
    return list(zip(table, map(quote, table.values())))


def number_fields(table: dict[str, float]) -> list[tuple[str, str]]:
    return list(zip(table, map(number, table.values())))


def number(x) -> str:
    """A number as ``json.dumps`` writes it."""
    if isinstance(x, float):
        if x != x:
            return "NaN"
        if x in (math.inf, -math.inf):
            return "Infinity" if x > 0 else "-Infinity"
        return float.__repr__(x)
    return json.dumps(x)


# --- reading -----------------------------------------------------------------

def mapping(doc: dict, key: str) -> dict:
    value = doc.get(key, {})
    if not isinstance(value, dict):
        raise ShapeError(f"{key}: expected an object")
    return value


def array_at(raw, key: str, path: str) -> list:
    if not isinstance(raw, dict) or not isinstance(raw.get(key, None), list):
        raise ShapeError(f"{path}.{key}: expected an array")
    return raw[key]


def string(raw, key: str, path: str) -> str:
    if not isinstance(raw, dict) or not isinstance(raw.get(key), str):
        raise ShapeError(f"{path}.{key}: expected a string")
    return raw[key]


def optional_string(raw: dict, key: str, path: str) -> str | None:
    value = raw.get(key)
    if value is None:
        return None
    if not isinstance(value, str):
        raise ShapeError(f"{path}.{key}: expected a string")
    return value


def columns(raw, key: str, path: str, required: tuple[str, ...], optional: tuple[str, ...]) -> list[list]:
    """The named string fields of an array of objects, one list per field;
    a missing optional field reads None."""
    rows = array_at(raw, key, path)
    if {dict}.issuperset(map(type, rows)):
        out = [[row.get(f) for row in rows] for f in required + optional]
        if all({str}.issuperset(map(type, col)) for col in out[: len(required)]) and all(
            {str, type(None)}.issuperset(map(type, col)) for col in out[len(required):]
        ):
            return out
    for k, row in enumerate(rows):
        for f in required:
            string(row, f, f"{path}.{key}[{k}]")
        for f in optional:
            optional_string(row, f, f"{path}.{key}[{k}]")
    raise ShapeError(f"{path}.{key}: expected an array of objects")


def strings(raw, key: str, path: str) -> list[str]:
    value = array_at(raw, key, path)
    if not {str}.issuperset(map(type, value)):
        raise ShapeError(f"{path}.{key}: expected an array of strings")
    return list(value)


def pairs(raw, key: str, path: str) -> list[tuple[str, str]]:
    value = array_at(raw, key, path)
    if not (
        {list}.issuperset(map(type, value))
        and {2}.issuperset(map(len, value))
        and {str}.issuperset(map(type, chain.from_iterable(value)))
    ):
        k = next(k for k, item in enumerate(value) if not _is_pair(item))
        raise ShapeError(f"{path}.{key}[{k}]: expected a [source, target] pair")
    return list(map(tuple, value))


def _is_pair(item) -> bool:
    return type(item) is list and len(item) == 2 and {str}.issuperset(map(type, item))


def string_map(raw, key: str, path: str) -> dict[str, str]:
    value = raw.get(key, {})
    # JSON object keys are always strings; only the values need checking.
    if not isinstance(value, dict) or not {str}.issuperset(map(type, value.values())):
        raise ShapeError(f"{path}.{key}: expected an object of strings")
    return dict(value)


def number_map(raw, path: str) -> dict[str, float]:
    if not isinstance(raw, dict):
        raise ShapeError(f"{path}: expected an object")
    out = {}
    for k, v in raw.items():
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ShapeError(f"{path}.{k}: expected a number")
        out[k] = float(v)
    return out
