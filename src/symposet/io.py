"""Serialization: poset export in three formats and canonical report JSON.

All exports are deterministic byte for byte: elements are sorted by height,
then by the poset's own label order (``FinitePoset.positions``), covers by
that order, and JSON is emitted with sorted keys and fixed separators.
Labels round-trip through repr / ast.literal_eval, which covers the
nested-tuple keys used everywhere in this package.
"""

from __future__ import annotations

import ast
import json
from typing import List, Tuple

from .posets import FinitePoset

EXPORT_FORMATS = ("text", "structured", "dot")

# DOT is for eyeballing small examples; anything bigger belongs in the
# structured format.
DOT_ELEMENT_LIMIT = 600


def _sorted_elements(P: FinitePoset) -> List:
    # stable, so each height keeps the poset's order
    return sorted(P.elements, key=P.heights().__getitem__)


def _sorted_covers(P: FinitePoset) -> List[Tuple]:
    pos = P.positions()
    return [(a, b) for a in P
            for b in sorted(P.covers(a), key=pos.__getitem__)]


def export_poset(P: FinitePoset, format: str = "text") -> str:
    if format == "text":
        return _export_text(P)
    if format == "structured":
        return _export_structured(P)
    if format == "dot":
        return _export_dot(P)
    raise ValueError(f"unknown format {format!r}; pick one of {EXPORT_FORMATS}")


def _export_text(P: FinitePoset) -> str:
    h = P.heights()
    covers = _sorted_covers(P)
    lines = [f"poset with {len(P)} elements, dim {P.dim()}"]
    for x in _sorted_elements(P):
        lines.append(f"  h={h[x]} {x!r}")
    lines.append(f"covers ({len(covers)}):")
    for a, b in covers:
        lines.append(f"  {a!r} < {b!r}")
    return "\n".join(lines) + "\n"


def _export_structured(P: FinitePoset) -> str:
    h = P.heights()
    order = _sorted_elements(P)
    payload = {
        "kind": "finite-poset",
        "elements": [repr(x) for x in order],
        "heights": [h[x] for x in order],
        "covers": [[repr(a), repr(b)] for a, b in _sorted_covers(P)],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _export_dot(P: FinitePoset) -> str:
    if len(P) > DOT_ELEMENT_LIMIT:
        raise ValueError(
            f"poset has {len(P)} elements; dot export is capped at "
            f"{DOT_ELEMENT_LIMIT} to keep graphs renderable, use the "
            "structured format instead")
    ids = {x: f"n{i}" for i, x in enumerate(_sorted_elements(P))}
    lines = ["digraph poset {", "  rankdir=BT;"]
    for x in _sorted_elements(P):
        label = repr(x).replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  {ids[x]} [label="{label}"];')
    for a, b in _sorted_covers(P):
        lines.append(f"  {ids[a]} -> {ids[b]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _label(text):
    try:
        x = ast.literal_eval(text)
        hash(x)
    except (ValueError, TypeError, SyntaxError, MemoryError, RecursionError):
        raise ValueError(f"bad element label {text!r}") from None
    return x


def poset_from_structured(text: str) -> FinitePoset:
    """Inverse of the structured export (labels via ast.literal_eval).

    Raises ``ValueError`` on a payload that is not a well-formed poset:
    each height must be the int that the order gives the element, the
    length of the longest chain below it."""
    payload = json.loads(text)
    if not isinstance(payload, dict) or payload.get("kind") != "finite-poset":
        raise ValueError("not a poset payload")
    for key, kind in (("elements", str), ("heights", int), ("covers", list)):
        if not (isinstance(payload.get(key), list)
                and all(type(v) is kind for v in payload[key])):
            raise ValueError(f"poset payload needs a list of {key}")
    elements = [_label(s) for s in payload["elements"]]
    if len(elements) != len(payload["heights"]):
        raise ValueError(f"{len(elements)} elements but "
                         f"{len(payload['heights'])} heights")
    heights = dict(zip(elements, payload["heights"]))
    if len(heights) != len(elements):
        raise ValueError("duplicate element in poset payload")
    if any(len(pair) != 2 for pair in payload["covers"]):
        raise ValueError("a cover is not a pair")
    covers = [(_label(a), _label(b)) for a, b in payload["covers"]]
    for a, b in covers:
        for x in (a, b):
            if x not in heights:
                raise ValueError(f"cover endpoint {x!r} is not an element")
    P = FinitePoset(elements, covers)
    longest = P.heights()
    for x in elements:
        if heights[x] != longest[x]:
            raise ValueError(f"height {heights[x]} of {x!r} does not rise with "
                             f"the longest chain below it, which gives "
                             f"{longest[x]}")
    return P


# ---------------------------------------------------------------------------
# canonical report JSON

def canonical_json(payload: dict) -> str:
    """Stable JSON: sorted keys, no whitespace variation, trailing newline."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
