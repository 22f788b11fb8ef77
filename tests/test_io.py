"""Export formats, the structured round-trip, and its input checks."""

import json

import pytest

from symposet.io import (DOT_ELEMENT_LIMIT, canonical_json, export_poset,
                         poset_from_structured)
from symposet.posets import FinitePoset, check_isomorphism


def sample_poset():
    # a small poset with tuple labels, like the builders produce
    els = [(0,), (1,), (0, 1), (1, 0)]
    rel = [((0,), (0, 1)), ((1,), (0, 1)), ((0,), (1, 0)), ((1,), (1, 0))]
    return FinitePoset(els, rel)


def test_text_export_shape():
    out = export_poset(sample_poset(), "text")
    lines = out.splitlines()
    assert lines[0] == "poset with 4 elements, dim 1"
    assert sum(1 for ln in lines if ln.startswith("  h=")) == 4
    assert "covers (4):" in lines
    assert out.endswith("\n")


def test_export_is_deterministic():
    P = sample_poset()
    for fmt in ("text", "structured", "dot"):
        assert export_poset(P, fmt) == export_poset(P, fmt)


def test_unknown_format():
    with pytest.raises(ValueError):
        export_poset(sample_poset(), "yaml")


def test_structured_round_trip():
    P = sample_poset()
    text = export_poset(P, "structured")
    payload = json.loads(text)
    assert payload["kind"] == "finite-poset"
    Q = poset_from_structured(text)
    assert set(Q.elements) == set(P.elements)
    assert Q.heights() == P.heights()
    assert check_isomorphism(P, Q, {x: x for x in P})


def test_dot_export():
    out = export_poset(sample_poset(), "dot")
    assert out.startswith("digraph poset {")
    assert "rankdir=BT;" in out
    assert out.count("->") == 4


def test_dot_escapes_labels():
    P = FinitePoset(['a"b', "c\\d"], [('a"b', "c\\d")])
    out = export_poset(P, "dot")
    assert '\\"' in out and "\\\\" in out


def test_dot_element_cap():
    big = FinitePoset(list(range(DOT_ELEMENT_LIMIT + 1)), [])
    with pytest.raises(ValueError):
        export_poset(big, "dot")


def test_canonical_json():
    a = canonical_json({"b": 1, "a": [2, 3]})
    assert a == '{"a":[2,3],"b":1}\n'


def _structured_payload():
    return json.loads(export_poset(sample_poset(), "structured"))


@pytest.mark.parametrize("corrupt, message", [
    (lambda d: d.update(kind="finite-graph"), "not a poset payload"),
    (lambda d: d["heights"].pop(), "heights"),
    (lambda d: d.update(elements=d["elements"][:1] + d["elements"][:-1]),
     "duplicate element"),
    (lambda d: d["covers"].append(["(0,)", "(9,)"]), "not an element"),
    (lambda d: d["heights"].__setitem__(0, 5), "does not rise"),
    (lambda d: d.pop("covers"), "list of covers"),
    (lambda d: d["elements"].__setitem__(0, "(0,"), "bad element label"),
    (lambda d: d.update(elements=4), "list of elements"),
    (lambda d: d["heights"].__setitem__(0, "0"), "list of heights"),
    (lambda d: d["covers"].append(5), "list of covers"),
    (lambda d: d["covers"].append(["(0,)"]), "not a pair"),
    # still rising along every cover, but not the longest-chain height
    (lambda d: d["heights"].__setitem__(-1, 2), "longest chain"),
])
def test_structured_input_errors(corrupt, message):
    """Outside data is checked with ValueError, which python -O keeps."""
    payload = _structured_payload()
    corrupt(payload)
    with pytest.raises(ValueError, match=message):
        poset_from_structured(json.dumps(payload))
