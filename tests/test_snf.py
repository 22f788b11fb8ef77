"""The sparse Smith normal form of integer matrices.

``smith_invariants`` feeds every Betti number and torsion group in the
reports, so besides checking it against sympy this file pins its exact
outputs on seeded random sparse matrices, and checks the cases that must
reach the dense finish.
"""

import copy
import hashlib
import itertools
import json
import random

import pytest

from symposet import snf
from symposet.complexes import columns, order_complex
from symposet.posets import FinitePoset
from symposet.snf import smith_invariants

# sha256 of the canonical JSON dump of _dump(); it changes only when
# smith_invariants returns different invariants on some seeded case
PINNED_DUMP = "c69e63dd3a481098e88be7c9da927bf7fc8d30995d3ac6fdeee7d18845e889d5"

VALUES = [1, -1, 1, -1, 2, -2, 3, -3, 4, 6]


def _random_cols(rnd, n, m):
    """A sparse m x n matrix as n columns, with column keys spread over
    range(2n) and row keys over range(2m); some columns stay empty."""
    col_keys = rnd.sample(range(2 * n), n)
    row_keys = rnd.sample(range(2 * m), m)
    density = rnd.choice([0.1, 0.2, 0.35, 0.6])
    cols = {}
    for c in col_keys:
        cols[c] = {r: rnd.choice(VALUES) for r in row_keys
                   if rnd.random() < density}
    return cols, 2 * m


def _cases(count=400):
    """(cols, bound) pairs, the bound being one past the largest row key
    (or None): empty and all-zero ones, then seeded random ones of every
    shape up to 12 x 12."""
    rnd = random.Random(2003)
    out = [({}, None), ({}, 3), ({0: {}}, 1), ({0: {}, 5: {}}, 4),
           ({0: {0: 1}}, None), ({3: {1: -6}}, None)]
    for _ in range(count):
        out.append(_random_cols(rnd, rnd.randint(1, 12), rnd.randint(1, 12)))
    return out


def _dump():
    # the record keys date from when the SNF took rows and an ncols bound;
    # they stay, so the digest does too, as the Smith form of a matrix is
    # that of its transpose
    records = []
    for cols, bound in _cases():
        records.append({
            "rows": sorted([c, sorted(rs.items())] for c, rs in cols.items()),
            "ncols": bound,
            "invariants": smith_invariants(cols),
        })
    return records


def _digest(records):
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_outputs_match_the_pinned_bits():
    assert _digest(_dump()) == PINNED_DUMP


def test_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form
    torsion = 0
    for cols, _ in _cases()[6:126]:
        col_keys = sorted(cols)
        row_keys = sorted({r for rs in cols.values() for r in rs})
        if not row_keys:
            assert smith_invariants(cols) == []
            continue
        M = sympy.Matrix([[cols[c].get(r, 0) for c in col_keys]
                          for r in row_keys])
        D = smith_normal_form(M, domain=sympy.ZZ)
        want = [abs(int(D[i, i])) for i in range(min(D.shape)) if D[i, i]]
        got = smith_invariants(cols)
        assert got == sorted(want)
        torsion += any(v > 1 for v in got)
    assert torsion > 10


def _count_dense(monkeypatch):
    calls = []
    original = snf.dense_smith

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(snf, "dense_smith", counted)
    return calls


def test_late_unit_pivot_clears_a_deferred_column(monkeypatch):
    # column 0 has low entry 2 in row 1, which gets its unit pivot only
    # from column 1; the deferred column is cleared there and leaves the
    # unit in row 0 for the dense finish
    calls = _count_dense(monkeypatch)
    assert smith_invariants({0: {0: 1, 1: 2}, 1: {1: 1}}) == [1, 1]
    assert len(calls) == 1
    # same, but nothing of column 0 survives the clearing
    calls.clear()
    assert smith_invariants({0: {1: 2}, 1: {1: 1}}) == [1]
    assert len(calls) == 1


def _simplicial_d2(faces):
    """d_2 of the simplicial complex with the given triangles, as columns."""
    edges = sorted({e for f in faces for e in itertools.combinations(f, 2)})
    index = {e: i for i, e in enumerate(edges)}
    return {j: {index[(b, c)]: 1, index[(a, c)]: -1, index[(a, b)]: 1}
            for j, (a, b, c) in enumerate(sorted(faces))}


RP2 = [(1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
       (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6)]


def test_projective_plane_torsion_reaches_the_dense_finish(monkeypatch):
    calls = _count_dense(monkeypatch)
    # 15 edges and 10 triangles: rank 10, and H_1 = Z/2
    assert smith_invariants(_simplicial_d2(RP2)) == [1] * 9 + [2]
    assert len(calls) == 1


def test_input_is_left_unchanged():
    cases = [cols for cols, _ in _cases(120)]
    cases += [{0: {0: 1, 1: 2}, 1: {1: 1}}, _simplicial_d2(RP2)]
    reduced = 0
    for cols in cases:
        before = copy.deepcopy(cols)
        inv = smith_invariants(cols)
        assert cols == before
        # a column that gets reduced would be changed by in-place work
        reduced += len(inv) < sum(1 for rs in cols.values() if any(rs.values()))
    assert reduced > 20


def test_explicit_zero_entries_are_ignored():
    rnd = random.Random(5)
    for cols, _ in _cases(60):
        padded = {}
        for c, rs in cols.items():
            padded[c] = dict(rs)
            padded[c][rnd.randrange(100, 110)] = 0
        padded[999] = {0: 0}
        assert smith_invariants(padded) == smith_invariants(cols)


def test_explicit_zeros_stay_in_the_input_and_out_of_the_pivots():
    # a zero at the lowest row of a column would otherwise be taken for
    # its low entry: a non-unit, so a deferred column
    cols = {0: {0: 1, 3: 0}, 1: {0: 2, 1: 1, 2: 0}, 2: {2: 0},
            3: {1: 0, 3: 3}}
    before = copy.deepcopy(cols)
    lows = set()
    assert smith_invariants(cols, lows) == [1, 1, 3]
    assert lows == {0, 1}
    assert cols == before


def test_sphere_boundaries_make_no_dense_call(monkeypatch):
    # proper nonempty subsets of a 5-set: a 3-sphere, torsion-free
    elems = [frozenset(s) for r in range(1, 5)
             for s in itertools.combinations(range(5), r)]
    P = FinitePoset(elems, [(a, b) for a in elems for b in elems if a < b])
    cx = order_complex(P)
    calls = _count_dense(monkeypatch)
    ranks = [len(smith_invariants(columns(cx.boundary_rows(k))))
             for k in range(len(cx.by_dim))]
    assert calls == []
    sizes = [len(s) for s in cx.by_dim]
    # reduced Betti numbers: only the top one is nonzero
    betti = [sizes[k] - ranks[k] - (ranks[k + 1] if k + 1 < len(ranks) else 0)
             for k in range(len(sizes))]
    assert betti == [0, 0, 0, 1]
