"""Exact homology engine against independent oracles.

Sphere and surface face posets with known answers, a from-scratch chain
complex route through sympy's Smith normal form, and the mod-2 cross
check via universal coefficients.
"""

import itertools
import os
import random
import subprocess
import sys

import pytest

import symposet
from symposet import complexes, homology, pi1, posets, snf
from symposet.complexes import BudgetExceeded, OrderComplex, columns, \
    count_chains, order_complex, relative_boundary_rows
from symposet.homology import (HomologyProfile, cohen_macaulay_check,
                               homologically_connected, homology_spherical,
                               map_connectivity, reduced_homology,
                               relative_homology)
from symposet.builders import build_D, build_I, build_O, build_U
from symposet.posets import (FinitePoset, PosetMap, barycentric_subdivision,
                             constant_map, join, mapping_cone,
                             mapping_cylinder, random_monotone_map,
                             random_poset)
from symposet.snf import CertificateError, smith_invariants
from symposet.rings import PrimeField
from symposet.symplectic import SymplecticModule

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import smith_normal_form  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402


def face_poset(faces):
    """Inclusion poset of all nonempty faces of the given top cells."""
    cells = set()
    for f in faces:
        for r in range(1, len(f) + 1):
            for s in itertools.combinations(sorted(f), r):
                cells.add(frozenset(s))
    # each cell over its proper faces: the order is the closure of these
    rel = {(frozenset(s), c) for c in cells for r in range(1, len(c))
           for s in itertools.combinations(sorted(c), r)}
    return FinitePoset(cells, rel)


def identity_map(P):
    return PosetMap(P, P, {x: x for x in P})


def subsets_poset(n):
    """Proper nonempty subsets of an n-set: a sphere of dimension n - 2."""
    ground = range(n)
    elems = []
    for r in range(1, n):
        elems.extend(frozenset(c) for c in itertools.combinations(ground, r))
    rel = [(a, b) for a in elems for b in elems if a < b]
    return FinitePoset(elems, rel)


RP2_FACES = [(1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
             (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6)]

TORUS_FACES = [tuple(sorted(((i) % 7, (i + 1) % 7, (i + 3) % 7)))
               for i in range(7)] + \
              [tuple(sorted(((i) % 7, (i + 2) % 7, (i + 3) % 7)))
               for i in range(7)]


def test_spheres_from_subset_posets():
    for n in (3, 4, 5):
        prof = reduced_homology(subsets_poset(n))
        assert prof.betti == {n - 2: 1}
        assert prof.torsion == {}


def test_projective_plane_torsion():
    prof = reduced_homology(face_poset(RP2_FACES))
    assert prof.betti == {}
    assert prof.torsion == {1: (2,)}


def test_torus_homology():
    prof = reduced_homology(face_poset(TORUS_FACES))
    assert prof.betti == {1: 2, 2: 1}
    assert prof.torsion == {}


def test_order_complex_simplices_are_position_chains():
    # repr order differs from the insertion order and from 10 > 9 > 2
    labels = [10, 9, "a", (1, 2), 2, "b", (0,), 100, "c", (2,), -1, "B"]
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, len(labels))
        R = random_poset(rng, n, 0.4)
        names = rng.sample(labels, n)
        P = FinitePoset(names, [(names[a], names[b])
                                for a, b in R.relation_pairs()])
        assert list(P.elements) == sorted(names, key=repr)
        pos = P.positions()
        assert [pos[x] for x in P.elements] == list(range(n))
        cx = order_complex(P)
        chains = [(x,) for x in names]
        for simplices in cx.by_dim:
            assert simplices == sorted(tuple(pos[x] for x in c) for c in chains)
            chains = [c + (y,) for c in chains for y in names if P.lt(c[-1], y)]
        assert not chains


def _depth_first_order_complex(P, max_dim=None, budget=10**9):
    """The chains by one depth-first walk, counting each simplex as it is
    reached: ((by_dim, complete), or None past the budget)."""
    succ = P.successors()
    by_dim, count, capped = [], 0, False
    stack = [(v,) for v in reversed(range(len(succ)))]
    while stack:
        c = stack.pop()
        k = len(c) - 1
        count += 1
        if count > budget:
            return None
        while len(by_dim) <= k:
            by_dim.append([])
        by_dim[k].append(c)
        if max_dim is not None and k >= max_dim:
            capped = capped or bool(succ[c[-1]])
            continue
        stack.extend(c + (y,) for y in reversed(succ[c[-1]]))
    return by_dim, not capped


def test_order_complex_levels_match_the_depth_first_walk():
    rng = random.Random(1201)
    over = 0
    for _ in range(60):
        P = random_poset(rng, rng.randint(0, 10),
                         p=rng.choice((0.2, 0.5, 0.8)))
        for max_dim in (None, -1, 0, 1, 2, 4):
            for budget in (0, 3, 10, 40, 200, 10**6):
                want = _depth_first_order_complex(P, max_dim, budget)
                if want is None:
                    over += 1
                    with pytest.raises(BudgetExceeded):
                        order_complex(P, max_dim, budget)
                    continue
                cx = order_complex(P, max_dim, budget)
                assert (cx.by_dim, cx.complete) == want
    assert over > 100


def test_empty_and_point():
    assert reduced_homology(FinitePoset([])).betti == {-1: 1}
    assert reduced_homology(FinitePoset(["x"])).betti == {}


# ---------------------------------------------------------------------------
# dual route: chains enumerated from scratch, ranks and torsion via sympy

def brute_profile(P):
    elems = sorted(P.elements, key=repr)
    chains = {0: [(e,) for e in elems]}
    k = 0
    while chains[k]:
        nxt = []
        for c in chains[k]:
            for e in elems:
                if P.lt(c[-1], e):
                    nxt.append(c + (e,))
        k += 1
        chains[k] = nxt
    top = k - 1
    index = {c: i for d in range(top + 1) for i, c in enumerate(chains[d])}

    def boundary(d):
        rows = []
        for c in chains[d]:
            row = [0] * len(chains[d - 1])
            for j in range(len(c)):
                face = c[:j] + c[j + 1:]
                row[index[face]] += (-1) ** j
            rows.append(row)
        return sympy.Matrix(rows)

    ranks = [0] * (top + 2)
    ranks[0] = 1  # augmentation
    torsion = {}
    for d in range(1, top + 1):
        M = boundary(d)
        ranks[d] = M.rank()
        diag = smith_normal_form(M)
        tors = []
        for i in range(min(diag.shape)):
            v = abs(diag[i, i])
            if v > 1:
                tors.append(int(v))
        if tors:
            torsion[d - 1] = tuple(sorted(tors))
    betti = {}
    for d in range(top + 1):
        b = len(chains[d]) - ranks[d] - ranks[d + 1]
        if b:
            betti[d] = b
    return betti, torsion


def test_random_posets_match_sympy_route():
    rng = random.Random(2026)
    for _ in range(12):
        P = random_poset(rng, rng.randint(1, 7), p=rng.choice((0.2, 0.45)))
        prof = reduced_homology(P)
        betti, torsion = brute_profile(P)
        assert prof.betti == betti
        assert {k: tuple(sorted(v)) for k, v in prof.torsion.items()} == torsion


def test_projective_plane_matches_sympy_route():
    P = face_poset(RP2_FACES)
    betti, torsion = brute_profile(P)
    assert betti == {} and torsion == {1: (2,)}


def _universal_mod2(prof):
    """The F_2 Betti numbers that universal coefficients give for the
    integral ``prof``: rank plus the even torsion of degrees k and k - 1."""
    two = lambda d: sum(1 for v in prof.torsion.get(d, ()) if v % 2 == 0)
    top = max(list(prof.betti) + list(prof.torsion) + [0])
    expect = {k: prof.betti.get(k, 0) + two(k) + two(k - 1)
              for k in range(top + 2)}
    return {k: b for k, b in expect.items() if b}


def test_mod2_route_universal_coefficients():
    rng = random.Random(77)
    cases = [face_poset(RP2_FACES)]
    cases += [random_poset(rng, rng.randint(1, 8), p=0.3) for _ in range(10)]
    for P in cases:
        assert _betti_mod2(P) == _universal_mod2(reduced_homology(P))


def test_relative_homology_pairs():
    P = FinitePoset(range(3), [(0, 1), (1, 2)])
    assert relative_homology(P, {0}).betti == {}
    assert relative_homology(P, set()).betti == {0: 1}
    # collapsing the boundary circle of a disk leaves a 2-sphere class
    disk = subsets_poset(3)
    pair = relative_homology(face_poset([(1, 2, 3)]), set())
    assert pair.betti == {0: 1}
    assert reduced_homology(disk).betti == {1: 1}


def test_a_short_complex_is_refused():
    # the proper part of the Boolean lattice on 4 atoms is a 2-sphere; its
    # complex cut at dimension 1 cannot show H_2 and would read H_1 off a
    # d_2 it lacks, so homology through degree 3 from it is refused, on
    # both routes; so is another poset's complex.  A complex cut at
    # dimension through_degree + 1 is enough, and so is a complete one
    s2 = subsets_poset(4)
    short = order_complex(s2, max_dim=1)
    for run in (lambda cx: reduced_homology(s2, 3, cx=cx),
                lambda cx: relative_homology(s2, (), 3, cx=cx),
                lambda cx: reduced_homology(s2, cx=cx)):
        with pytest.raises(ValueError):
            run(short)
        with pytest.raises(ValueError):
            run(order_complex(subsets_poset(3)))
    assert reduced_homology(s2, 0, cx=short).betti == {}
    s3 = subsets_poset(5)
    prof = reduced_homology(s3, 1, cx=order_complex(s3, max_dim=2))
    assert (prof.betti, prof.through) == ({}, 1)
    prof = reduced_homology(s2, 3, cx=order_complex(s2, max_dim=2))
    assert (prof.betti, prof.through) == ({2: 1}, None)
    assert reduced_homology(s2, 3, cx=order_complex(s2)).betti == {2: 1}
    assert relative_homology(s2, (), 3, cx=order_complex(s2)).betti == \
        {0: 1, 2: 1}


def _nonconvex(P, rng):
    """A vertex set of P that holds both ends of a 2-chain but not its
    middle, so that its full subcomplex holds an edge over an outside
    vertex; None when P has no 2-chain."""
    by_dim = order_complex(P, max_dim=2).by_dim
    if len(by_dim) < 3:
        return None
    x, y, z = rng.choice(by_dim[2])
    more = {v for v in range(len(P)) if v != y and rng.random() < 0.3}
    return {P.elements[v] for v in more | {x, z}}


def test_pair_route_matches_sympy_on_every_kind_of_subcomplex():
    # the quotient complex, built from the chains outside the subcomplex
    # alone, against sympy on the reference columns: an empty subcomplex,
    # every vertex (no outside chain at all), isolated vertices, vertex
    # sets that are not convex, and the 13 mapping-cone pairs
    rng = random.Random(3001)
    cases, nonconvex = [], 0
    for _ in range(12):
        P = random_poset(rng, rng.randint(1, 8), p=rng.choice((0.2, 0.4, 0.6)))
        iso = [("iso", i) for i in range(rng.randint(1, 3))]
        cases += [(P, set()), (P, set(P.elements)),
                  (FinitePoset(list(P.elements) + iso, P.relation_pairs()),
                   set(iso))]
        sub = _nonconvex(P, rng)
        if sub is not None:
            cases.append((P, sub))
            nonconvex += 1
    maps = list(_random_maps(rng, 12))
    cases += [(C, set(src.values()) | {tip})
              for C, src, _, tip in map(mapping_cone, maps)]
    assert len(maps) == 13 and nonconvex >= 5
    for P, sub in cases:
        prof = relative_homology(P, sub)
        counts, boundary, rank0 = _chain_complex(P, sub)
        assert prof.counts == counts
        assert _untwisted(counts, boundary, rank0, _sympy_invariants) == \
            (prof.betti, prof.torsion)
        if len(sub) == len(P):
            assert (prof.betti, prof.torsion) == ({}, {}) and not any(counts)


def test_relative_homology_matches_the_mapping_cone():
    # H(M, A) is the reduced homology of M with a cone on A attached
    rng = random.Random(31)
    for _ in range(12):
        X = random_poset(rng, rng.randint(1, 6), p=rng.choice((0.2, 0.45)))
        Y = random_poset(rng, rng.randint(1, 6), p=rng.choice((0.2, 0.45)))
        f = random_monotone_map(rng, X, Y)
        M, src, _ = mapping_cylinder(f)
        pair = relative_homology(M, src.values())
        cone = reduced_homology(mapping_cone(f)[0])
        assert pair.betti == cone.betti
        assert pair.torsion == cone.torsion


def _count_calls(monkeypatch, owners, name):
    calls = []
    original = getattr(owners[0], name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for owner in owners:
        monkeypatch.setattr(owner, name, counted)
    return calls


def test_verdicts_enumerate_the_order_complex_once(monkeypatch):
    # zero times on a trivial level-1 probe, which fixes every rank the
    # verdict needs, and at most once otherwise: after a level-1 probe
    # that is not trivial (RP^2's), or on a verdict that reduces d_3
    calls = _count_calls(monkeypatch, (complexes, homology, pi1),
                         "order_complex")
    s2 = subsets_poset(4)
    v = homologically_connected(s2, 1)
    assert (v.status, v.basis) == ("verified", "homology+pi1")
    assert len(calls) == 0
    v = homology_spherical(s2, 2)
    assert (v.status, v.basis) == ("verified", "homology+pi1")
    assert len(calls) == 1
    calls.clear()
    v = homologically_connected(face_poset(RP2_FACES), 1)
    assert (v.status, v.basis) == ("refuted", "homology")
    assert len(calls) == 1


def test_map_connectivity_builds_one_cone_and_one_complex(monkeypatch):
    cones = _count_calls(monkeypatch, (posets, homology), "mapping_cone")
    cylinders = _count_calls(monkeypatch, (posets,), "mapping_cylinder")
    complexes_ = _count_calls(monkeypatch, (complexes, homology, pi1),
                              "order_complex")
    for n in (1, 2):
        for calls in (cones, cylinders, complexes_):
            calls.clear()
        v = map_connectivity(identity_map(subsets_poset(4)), n)
        assert (v.status, v.basis) == ("verified", "homology+pi1")
        assert (len(cones), len(cylinders), len(complexes_)) == (1, 0, 1)


def _random_maps(rng, count):
    """Seeded random monotone maps between int-labelled posets, whose
    source and target labels collide, then a map from the empty poset."""
    for _ in range(count):
        X = random_poset(rng, rng.randint(1, 6), p=rng.choice((0.2, 0.45)))
        Y = random_poset(rng, rng.randint(1, 6), p=rng.choice((0.2, 0.45)))
        yield random_monotone_map(rng, X, Y)
    yield PosetMap(FinitePoset([]), random_poset(rng, 4, p=0.4), {})


def test_cone_pair_has_the_cylinder_pair_homology():
    # excision: every chain through the tip lies in the coned source, so the
    # pair (cone, source with the tip) has the (cylinder, source) chains
    rng = random.Random(53)
    collided = 0
    for f in _random_maps(rng, 24):
        M, src, _ = mapping_cylinder(f)
        C, csrc, _, tip = mapping_cone(f)
        assert csrc == src
        collided += any(x in f.target for x in f.source)
        for through in (None, 0, 1, 2):
            pair = relative_homology(M, src.values(), through)
            cone = relative_homology(C, set(src.values()) | {tip}, through)
            assert (cone.betti, cone.torsion, cone.counts, cone.through) == \
                (pair.betti, pair.torsion, pair.counts, pair.through)
    assert collided >= 5


def _outside_positions(cx, k, sub):
    """Each k-simplex's index in ``cx.by_dim[k]`` mapped to its position
    among the k-simplices outside the full subcomplex on ``sub`` (all of
    them when ``sub`` is None): the indices of a pair's face rows."""
    sub = frozenset(sub or ())
    if not 0 <= k < len(cx.by_dim):
        return {}
    outside = (j for j, c in enumerate(cx.by_dim[k]) if not sub.issuperset(c))
    return {j: i for i, j in enumerate(outside)}


def _reindexed(cols, cx, k, sub):
    """Dict columns ``{simplex index: {face index: sign}}`` of d_k with
    indices among all simplices, renumbered to the positions among the
    simplices outside ``sub``."""
    at = _outside_positions(cx, k, sub)
    below = _outside_positions(cx, k - 1, sub)
    return {at[j]: {below[r]: v for r, v in col.items()}
            for j, col in cols.items()}


def _reference_boundary_rows(cx, k, sub=None):
    """d_k in the row form that the column builder replaced:
    {face index: {simplex index: sign}}, relative to ``sub`` if given,
    and then indexed among the simplices outside it."""
    if k <= 0:
        return {} if sub is not None else \
            {0: {j: 1 for j in range(cx.n_simplices(0))}}
    sub = frozenset(sub or ())
    faces = {c: i for i, c in enumerate(cx.by_dim[k - 1])
             if not sub.issuperset(c)}
    rows = {}
    for j, c in enumerate(cx.by_dim[k]):
        if sub.issuperset(c):
            continue
        sign = 1
        for i in range(len(c)):
            r = faces.get(c[:i] + c[i + 1:])
            if r is not None:
                rows.setdefault(r, {})[j] = sign
            sign = -sign
    return _transpose(_reindexed(_transpose(rows), cx, k, sub))


def _transpose(rows):
    cols = {}
    for r, cs in rows.items():
        for c, v in cs.items():
            cols.setdefault(c, {})[r] = v
    return cols


def _reference_columns(cx, k, sub=None):
    """d_k as the dict columns that the face rows replaced, {simplex index:
    {face index: sign}}, built one sliced face tuple at a time as the old
    column builder did; simplices and faces inside ``sub`` (vertex
    numbers), when given, are left out, and the rest indexed among the
    simplices outside it.  The d_0 of a pair is zero, a column with no
    face per outside vertex."""
    if k <= 0:
        return {j: {} for j in _outside_positions(cx, 0, sub).values()} \
            if sub is not None else \
            {j: {0: 1} for j in range(cx.n_simplices(0))}
    sub = frozenset(sub or ())
    lower = cx.by_dim[k - 1]
    faces = {c: i for i, c in enumerate(lower)}
    faces.update(dict.fromkeys(filter(sub.issuperset, lower)))
    cols = {}
    for j, c in enumerate(cx.by_dim[k]):
        if sub.issuperset(c):
            continue
        col = {}
        sign = 1
        for i in range(len(c)):
            r = faces[c[:i] + c[i + 1:]]
            if r is not None:
                col[r] = sign
            sign = -sign
        cols[j] = col
    return _reindexed(cols, cx, k, sub)


def _reference_dd_zero(lower, upper):
    """The dict check that the row comparison replaced: each column of
    ``upper`` mapped through ``lower`` term by term."""
    for col in upper.values():
        acc = {}
        for m, a in col.items():
            for r, b in lower.get(m, {}).items():
                acc[r] = acc.get(r, 0) + a * b
        if any(acc.values()):
            return False
    return True


def _summed_columns(rows):
    """The matrix of face rows as dict columns, with a repeated face summed
    rather than merged and -1 faces dropped: a plain loop that hands
    corrupted rows to the reference check as the matrix they are."""
    cols = {}
    for i, row in enumerate(rows):
        for j, r in enumerate(row):
            col = cols.setdefault(j, {})
            if r >= 0:
                col[r] = col.get(r, 0) + (-1) ** i
    return cols


def _face_row_cases():
    """(poset, its order complex, vertex numbers of a subcomplex or None)
    for seeded random posets, RP^2, the spheres subsets_poset(3..5) and
    seeded random mapping-cone pairs (cone, source with the tip)."""
    rng = random.Random(2111)
    cases = []
    for _ in range(30):
        P = random_poset(rng, rng.randint(1, 9), p=rng.choice((0.1, 0.3, 0.5)))
        cases.append((P, order_complex(P), None))
    for P in [face_poset(RP2_FACES)] + [subsets_poset(n) for n in (3, 4, 5)]:
        cases.append((P, order_complex(P), None))
    for C, src, _, tip in map(mapping_cone, _random_maps(rng, 12)):
        pos = C.positions()
        sub = frozenset(pos[x] for x in src.values()) | {pos[tip]}
        cases.append((C, order_complex(C), sub))
    return cases


def _rows(cx, sub, k):
    if sub is None:
        return cx.boundary_rows(k)
    return relative_boundary_rows(*cx.split(sub), k)


def test_boundary_columns_match_the_row_form_reference():
    rng = random.Random(1103)
    relative = 0
    for _ in range(25):
        n = rng.randint(1, 9)
        cx = order_complex(random_poset(rng, n, p=rng.choice((0.25, 0.5))))
        for k in range(len(cx.by_dim)):
            assert columns(cx.boundary_rows(k)) == \
                _transpose(_reference_boundary_rows(cx, k))
            if k >= 1:
                assert relative_boundary_rows(*cx.split(()), k) == \
                    cx.boundary_rows(k)
            for _ in range(3):
                sub = frozenset(rng.sample(range(n), rng.randint(0, n)))
                got = columns(relative_boundary_rows(*cx.split(sub), k))
                # a column per outside simplex; the row form has no zero
                # columns, which only the d_0 of a pair holds
                ref = _transpose(_reference_boundary_rows(cx, k, sub))
                assert got == {j: ref.get(j, {}) for j in
                               _outside_positions(cx, k, sub).values()}
                relative += any(got.values()) and bool(sub)
    assert relative > 50


def test_face_rows_match_the_old_columns_and_dd_check():
    # columns(rows), with and without cleared columns, against the old
    # builder, and the row check against the old dict check on every
    # consecutive pair of boundaries
    rng = random.Random(2113)
    disconnected = relative = 0
    for P, cx, sub in _face_row_cases():
        if sub is None:
            disconnected += reduced_homology(P, 0).betti_number(0) > 0
        else:
            relative += len(cx.by_dim) > 2
        rows = [_rows(cx, sub, k) for k in range(len(cx.by_dim))]
        for k, upper in enumerate(rows):
            ref = _reference_columns(cx, k, sub)
            assert columns(upper) == ref
            skip = set(rng.sample(range(len(upper[0])), len(upper[0]) // 3))
            assert columns(upper, skip) == \
                {j: col for j, col in ref.items() if j not in skip}
            if k:
                lower = _reference_columns(cx, k - 1, sub)
                assert _reference_dd_zero(lower, ref)
                assert OrderComplex.dd_zero_check(rows[k - 1], upper)
    assert disconnected >= 3 and relative >= 5


def _redirected(rows, i, j, size, rng):
    """A copy of ``rows`` whose face i of simplex j names another of the
    ``size`` faces, not one of that simplex's faces."""
    own = {row[j] for row in rows}
    bad = [list(row) for row in rows]
    bad[i][j] = rng.choice([r for r in range(size) if r not in own])
    return bad


def test_corrupted_face_rows_raise():
    # a redirected face index raises with the old check on the reduced
    # route, and whenever the old check does on a pair; a column that
    # names one face twice raises too, though the old dict check merged
    # it, and so does a face of the subcomplex that names an outside face
    # instead of -1: on a pair every index is that of an outside face, and
    # each outside face of dimension 1 or more has an outside face of its
    # own, which the other path to it reads as -1
    rng = random.Random(2117)
    redirected = repeated = sentinels = 0
    for P, cx, sub in _face_row_cases():
        for k in range(2, len(cx.by_dim)):
            lower, upper = _rows(cx, sub, k - 1), _rows(cx, sub, k)
            ref_lower = _summed_columns(lower)
            for _ in range(4):
                j, i = rng.randrange(len(upper[0])), rng.randrange(k + 1)
                if upper[i][j] < 0 or len(lower[0]) <= k + 1:
                    continue
                bad = _redirected(upper, i, j, len(lower[0]), rng)
                old = _reference_dd_zero(ref_lower, _summed_columns(bad))
                try:
                    new = OrderComplex.dd_zero_check(lower, bad)
                except CertificateError:
                    new = False
                if sub is None:
                    assert new is old is False
                else:
                    assert old or not new
                redirected += not new
                others = [m for m in range(k + 1)
                          if m != i and upper[m][j] >= 0]
                if others:
                    bad = [list(row) for row in upper]
                    bad[others[0]][j] = bad[i][j]
                    with pytest.raises(CertificateError):
                        columns(bad)
                    repeated += 1
            if sub is not None:
                for j in range(len(upper[0])):
                    i = next((i for i in range(k + 1) if upper[i][j] < 0),
                             None)
                    if i is None:
                        continue
                    bad = [list(row) for row in upper]
                    bad[i][j] = rng.randrange(len(lower[0]))
                    with pytest.raises(CertificateError):
                        OrderComplex.dd_zero_check(lower, bad)
                    sentinels += 1
                    break
    assert redirected > 100 and repeated > 100 and sentinels >= 5


def test_boundary_faces_must_be_simplices():
    # the face (1,) of (0, 1) is not a simplex, outside {0} or inside it
    cx = OrderComplex([[(0,)], [(0, 1)]], True)
    with pytest.raises(KeyError):
        cx.boundary_rows(1)
    with pytest.raises(KeyError):
        relative_boundary_rows(*cx.split({0}), 1)


def test_dd_zero_check_rejects_a_pair_that_does_not_compose_to_zero(
        monkeypatch):
    cx = order_complex(subsets_poset(4))
    d1, d2 = cx.boundary_rows(1), cx.boundary_rows(2)
    assert OrderComplex.dd_zero_check(d1, d2)
    broken = _redirected(d2, 0, 0, len(d1[0]), random.Random(7))
    with pytest.raises(CertificateError):
        OrderComplex.dd_zero_check(d1, broken)
    # a triangle whose three faces are one edge
    with pytest.raises(CertificateError):
        OrderComplex.dd_zero_check([[1], [0]], [[0], [0], [0]])
    # rows that do not fit, and a face index past the end
    with pytest.raises(CertificateError):
        OrderComplex.dd_zero_check(d1, d1)
    with pytest.raises(CertificateError):
        OrderComplex.dd_zero_check(d1, [row + [len(d1[0])] for row in d2])
    # the signs are checked, not assumed: equal signs do not cancel
    monkeypatch.setattr(complexes, "_signs", lambda n: (1,) * n)
    with pytest.raises(CertificateError):
        OrderComplex.dd_zero_check(d1, d2)


def test_dd_zero_is_checked_on_a_large_complex(monkeypatch):
    # the join of three 40-point antichains: 68,920 simplices, a wedge of
    # 39^3 two-spheres, and one consecutive pair of boundaries to check
    checked = _count_calls(monkeypatch, (OrderComplex,), "dd_zero_check")
    A, B, C = (FinitePoset([(tag, i) for i in range(40)]) for tag in "abc")
    P = join(join(A, B), C)
    prof = reduced_homology(P)
    assert sum(prof.counts) == 68_920
    assert (prof.betti, prof.torsion) == ({2: 59_319}, {})
    assert len(checked) == 1


def test_certificates_survive_optimized_python():
    # on the octahedron: a triangle whose faces are one edge, a redirected
    # face index, equal signs, a column that names a face twice, and an
    # edge outside the subcomplex {a, c, e} whose outside face reads -1, so
    # that the triangles that name it name a face of the subcomplex; then a
    # pair whose subcomplex is not a set of elements
    code = """
from symposet.complexes import OrderComplex, columns, order_complex, \\
    relative_boundary_rows
octahedron = FinitePoset("abcdef", [(x, y) for x in "ab" for y in "cdef"]
                         + [(x, y) for x in "cd" for y in "ef"])
cx = order_complex(octahedron)
d1, d2 = cx.boundary_rows(1), cx.boundary_rows(2)
check = OrderComplex.dd_zero_check
tripped(lambda: check([[1], [0]], [[0], [0], [0]]))
bad = [list(row) for row in d2]
bad[0][0] = min(set(range(len(d1[0]))) - {row[0] for row in d2})
tripped(lambda: check(d1, bad))
patched(complexes, "_signs", lambda n: (1,) * n, lambda: check(d1, d2))
bad = [list(row) for row in d2]
bad[1][0] = bad[0][0]
tripped(lambda: columns(bad))
outside, inside = cx.split({0, 2, 4})
r1, r2 = (relative_boundary_rows(outside, inside, k) for k in (1, 2))
bad = [list(row) for row in r1]
bad[0][outside[1].index((0, 3))] = -1
tripped(lambda: check(bad, r2))
try:
    homology.relative_homology(circle, {"z"})
except ValueError as e:
    print(e)
"""
    assert _run_optimized(code) == [
        "boundary of a boundary is nonzero",
        "boundary of a boundary is nonzero",
        "boundary signs do not cancel",
        "a boundary column repeats a face",
        "a face inside the subcomplex is not -1",
        "sub must be a set of elements of P"]


# ---------------------------------------------------------------------------
# the twist: _profile clears d_k at the unit pivot rows of d_{k+1}

def _sympy_invariants(cols):
    """The nonzero Smith diagonal of a column-form matrix, via sympy."""
    rows = sorted({r for col in cols.values() for r in col})
    if not rows:
        return []
    D = smith_normal_form(sympy.Matrix(
        [[col.get(r, 0) for r in rows] for col in cols.values()]))
    return sorted(abs(int(D[i, i])) for i in range(min(D.shape)) if D[i, i])


def _chain_complex(P, sub=None):
    """(counts, boundary, rank of d_0) of P's order complex, reduced, or
    relative to the full subcomplex on the labels ``sub``; the boundaries
    are the old builder's dict columns, not the program's face rows."""
    cx = order_complex(P)
    if sub is None:
        return tuple(map(len, cx.by_dim)), \
            lambda k: _reference_columns(cx, k), 1
    vs = frozenset(map(P.positions().__getitem__, sub))
    counts = tuple(sum(1 for c in simplices if not vs.issuperset(c))
                   for simplices in cx.by_dim)
    return counts, lambda k: _reference_columns(cx, k, vs), 0


def _untwisted(counts, boundary, rank0, invariants):
    """Betti numbers and torsion from the invariants of each full d_k."""
    ranks = [rank0] + [0] * len(counts)
    torsion = {}
    for k in range(1, len(counts)):
        inv = invariants(boundary(k))
        ranks[k] = len(inv)
        if any(v > 1 for v in inv):
            torsion[k - 1] = tuple(v for v in inv if v > 1)
    betti = {k: counts[k] - ranks[k] - ranks[k + 1]
             for k in range(len(counts))}
    return {k: b for k, b in betti.items() if b}, torsion


def _invariants_mod2(cols):
    """One unit invariant per pivot of an F_2 elimination of the dict
    columns ``cols``, on int bitsets."""
    pivots = {}
    for col in cols.values():
        mask = 0
        for r, v in col.items():
            if v & 1:
                mask |= 1 << r
        while mask:
            low = mask & -mask
            other = pivots.get(low)
            if other is None:
                pivots[low] = mask
                break
            mask ^= other
    return [1] * len(pivots)


def _betti_mod2(P):
    """Reduced Betti numbers of P with F_2 coefficients, by elimination on
    the untwisted dict columns: no face rows, no ``columns``, no dd=0 check
    and no ``_profile``, so it shares no boundary code with the integral
    route it cross-checks."""
    return _untwisted(*_chain_complex(P), _invariants_mod2)[0]


def test_twist_matches_the_full_boundaries_degree_by_degree(monkeypatch):
    handed = _count_calls(monkeypatch, (homology,), "smith_invariants")
    dense = _count_calls(monkeypatch, (snf,), "dense_smith")
    rng = random.Random(4242)
    randoms = [(random_poset(rng, rng.randint(1, 9),
                             p=rng.choice((0.1, 0.3, 0.5))), None)
               for _ in range(20)]
    pairs = [(C, set(src.values()) | {tip})
             for C, src, _, tip in map(mapping_cone, _random_maps(rng, 12))]
    rp2 = [(face_poset(RP2_FACES), None)]
    disconnected = 0
    for cases in (randoms, rp2, pairs):
        for calls in (handed, dense):
            calls.clear()
        full = 0
        for P, sub in cases:
            prof = reduced_homology(P) if sub is None else \
                relative_homology(P, sub)
            got = (prof.betti, prof.torsion)
            if cases is rp2:
                # its 2-torsion comes from the dense finish of the sparse SNF
                assert got == ({}, {1: (2,)}) and dense
            counts, boundary, rank0 = _chain_complex(P, sub)
            assert _untwisted(counts, boundary, rank0, smith_invariants) == got
            assert _untwisted(counts, boundary, rank0, _sympy_invariants) == got
            full += sum(len(boundary(k)) for k in range(1, len(counts)))
            if sub is None:
                disconnected += prof.betti_number(0) > 0
                assert _untwisted(counts, boundary, 1, _invariants_mod2)[0] \
                    == _universal_mod2(prof)
        # columns were cleared, so the comparison is not vacuous
        assert sum(len(args[0]) for args in handed) < full
    assert disconnected >= 3


def test_a_broken_boundary_stops_the_twist_before_it_clears(monkeypatch):
    # one face of d_2 of S^2 redirected to an edge outside its triangle:
    # d_2 reaches the SNF, then the check of the pair (d_1, d_2) raises
    # before d_1, cleared by d_2, follows it
    original = OrderComplex.boundary_rows

    def broken(cx, k):
        rows = original(cx, k)
        if k == 2:
            rows = _redirected(rows, 0, 0, cx.n_simplices(1),
                               random.Random(11))
        return rows

    monkeypatch.setattr(OrderComplex, "boundary_rows", broken)
    handed = []

    def split(rows, skip=(), free=None):
        cols = columns(rows, skip, free)
        handed.append(len(free) + len(cols))
        return cols

    monkeypatch.setattr(homology, "columns", split)
    s2 = subsets_poset(4)
    with pytest.raises(CertificateError):
        reduced_homology(s2)
    # every column of d_2 went to the SNF or was split off as a free pivot
    assert handed == [order_complex(s2).n_simplices(2)]


# ---------------------------------------------------------------------------
# free pivots: columns splits off every column that holds a free face

def _split_cases(rng):
    """(poset, vertex numbers of a subcomplex or None): seeded random
    posets, RP^2, S^2, cones with the apex as the minimum and as the
    maximum, and seeded random mapping-cone pairs (cone, source with the
    tip)."""
    randoms = [random_poset(rng, rng.randint(1, 10),
                            p=rng.choice((0.05, 0.1, 0.3, 0.5)))
               for _ in range(24)]
    apex = FinitePoset(["apex"])
    cases = [(P, None) for P in randoms]
    cases += [(face_poset(RP2_FACES), None), (subsets_poset(4), None)]
    cases += [(join(apex, P), None) for P in randoms[:8]]
    cases += [(join(P, apex), None) for P in randoms[8:16]]
    for C, src, _, tip in map(mapping_cone, _random_maps(rng, 12)):
        pos = C.positions()
        cases.append((C, frozenset(pos[x] for x in src.values())
                      | {pos[tip]}))
    return cases


def test_free_pivots_match_the_plain_snf_and_sympy():
    # the split (one 1 per free pivot, then the SNF of the rest) against
    # the SNF of every kept column and against sympy, with and without
    # columns cleared; each free face lies in exactly one kept column, no
    # column returned meets one, and a -1 face is never free
    rng = random.Random(2503)
    disconnected = split = rest_left = 0
    for P, sub in _split_cases(rng):
        cx = order_complex(P)
        for k in range(1, len(cx.by_dim)):
            rows = _rows(cx, sub, k)
            width = len(rows[0])
            for skip in (set(), set(rng.sample(range(width), width // 3))):
                kept = columns(rows, skip)
                free = []
                rest = columns(rows, skip, free)
                plain = smith_invariants(kept)
                assert [1] * len(free) + smith_invariants(rest) == plain
                assert _sympy_invariants(kept) == plain
                assert rest == {j: kept[j] for j in rest}
                assert len(free) + len(rest) == len(kept)
                assert len(set(free)) == len(free) and -1 not in free
                holders = [[j for j, col in kept.items() if f in col]
                           for f in free]
                assert all(len(h) == 1 for h in holders)
                assert sorted(h[0] for h in holders) == \
                    sorted(kept.keys() - rest.keys())
                split += len(free)
                rest_left += len(rest)
        prof = reduced_homology(P) if sub is None else \
            relative_homology(P, {P.elements[v] for v in sub})
        counts, boundary, rank0 = _chain_complex(
            P, None if sub is None else {P.elements[v] for v in sub})
        assert _untwisted(counts, boundary, rank0, _sympy_invariants) == \
            (prof.betti, prof.torsion)
        if sub is None:
            disconnected += prof.betti_number(0) > 0
    # both routes are exercised, and the random posets include some that
    # are not connected
    assert split > 0 and rest_left > 0
    assert disconnected >= 3


def test_free_pivots_keep_the_torsion_of_rp2():
    # RP^2 with a fin, a triangle glued along the edge 12: the fin's other
    # edges are free faces of d_2, and the columns left after the split
    # still carry RP^2's invariant 2
    fin = face_poset(RP2_FACES + [(1, 2, 7)])
    rows = order_complex(fin).boundary_rows(2)
    free = []
    rest = columns(rows, (), free)
    assert free and rest
    assert smith_invariants(rest) == smith_invariants(columns(rows))[
        len(free):]
    assert smith_invariants(rest)[-1] == 2
    prof = reduced_homology(fin)
    assert (prof.betti, prof.torsion) == ({}, {1: (2,)})


def test_a_minus_one_face_is_never_free():
    # column 0 names faces 0 and 1, which column 1 names too, and one face
    # of the subcomplex (-1), named once; only column 1, through face 2,
    # is a free pivot
    rows = [[0, 0], [1, 1], [-1, 2]]
    free = []
    assert columns(rows, (), free) == {0: {0: 1, 1: -1}}
    assert free == [2]


def test_free_column_certificates_survive_optimized_python():
    # the one triangle of a 3-chain: all its faces are free, so its column
    # is split off without a dict; a copy that names one face twice, in
    # adjacent rows and in rows 0 and 2, still raises, directly and
    # through the reduced homology
    code = """
chain3 = FinitePoset("abc", [("a", "b"), ("b", "c"), ("a", "c")])
rows = complexes.order_complex(chain3).boundary_rows(2)
free = []
complexes.columns(rows, (), free)
print(len(free))
for i in (1, 2):
    bad = [list(row) for row in rows]
    bad[i][0] = bad[0][0]
    tripped(lambda: complexes.columns(bad, (), []))
boundary_rows = complexes.OrderComplex.boundary_rows
def doubled(cx, k):
    rows = boundary_rows(cx, k)
    if k == 2:
        rows[1][0] = rows[0][0]
    return rows
patched(complexes.OrderComplex, "boundary_rows", doubled,
        lambda: homology.reduced_homology(chain3))
"""
    assert _run_optimized(code) == ["1"] + \
        ["a boundary column repeats a face"] * 3


def test_the_genus3_cones_split_with_no_subtraction(monkeypatch):
    # the 673-element cones (0, L] and [0, L) of the genus-3 U, and the
    # whole link sweeps of U and of I(genus 2, radical 1): every column
    # that reaches a pivot is free or pivots with no subtraction
    subtract = _count_calls(monkeypatch, (snf,), "_subtract")
    L = SymplecticModule.standard(PrimeField(2), 3)
    U = build_U(L)
    h = U.heights()
    bottom, top = min(U, key=h.__getitem__), max(U, key=h.__getitem__)
    for cone in (U.subposet_gt(bottom), U.subposet_lt(top)):
        assert len(cone) == 673
        prof = reduced_homology(cone)
        assert (prof.betti, prof.torsion) == ({}, {})
    I = build_I(SymplecticModule.standard(PrimeField(2), 2, r=1))
    assert cohen_macaulay_check(U, 3).detail == {"links_checked": 9414}
    assert cohen_macaulay_check(I, 1).detail == {"links_checked": 1501}
    assert subtract == []


def _graph_rows(P):
    """d_1 of P's order complex as face rows, and its vertex count."""
    cx = order_complex(P, max_dim=1)
    rows = cx.boundary_rows(1) if cx.n_simplices(1) else [[], []]
    return rows, cx.n_simplices(0)


def _sympy_rank(rows, n):
    """The rank of d_1 over the rationals, from sympy's sparse matrices,
    with one row per edge."""
    edges = {j: {a: 1, b: -1} for j, (a, b) in enumerate(zip(*rows))}
    return DomainMatrix(edges, (len(rows[0]), n), sympy.QQ).rank()


def test_graph_rank_matches_the_snf_and_sympy():
    # d_1 is the incidence matrix of a graph: the union-find's rank is the
    # SNF's and sympy's, and every invariant factor is 1, also without the
    # edges that a twist would clear
    rng = random.Random(2718)
    cases = [FinitePoset(range(k)) for k in (1, 5)]
    cases += [random_poset(rng, rng.randint(2, 9),
                           p=rng.choice((0.05, 0.15, 0.4)))
              for _ in range(30)]
    cases.append(face_poset(RP2_FACES))
    disconnected = 0
    for P in cases:
        rows, n = _graph_rows(P)
        edges = len(rows[0])
        for skip in (set(), set(rng.sample(range(edges), edges // 3))):
            rank = homology._graph_rank(rows, skip, n)
            cols = columns(rows, skip)
            assert smith_invariants(cols) == [1] * rank
            assert _sympy_invariants(cols) == [1] * rank
            kept = [[row[j] for j in range(edges) if j not in skip]
                    for row in rows]
            assert _sympy_rank(kept, n) == rank
        disconnected += homology._graph_rank(rows, (), n) < n - 1
    assert disconnected >= 5
    # the (0, L) interval of the genus-3 U: 672 vertices, 6,720 edges
    U = build_U(SymplecticModule.standard(PrimeField(2), 3))
    h = U.heights()
    bottom, top = min(U, key=h.__getitem__), max(U, key=h.__getitem__)
    rows, n = _graph_rows(U.open_interval(bottom, top))
    assert (n, len(rows[0])) == (672, 6720)
    rank = homology._graph_rank(rows, (), n)
    assert smith_invariants(columns(rows)) == [1] * rank
    assert _sympy_rank(rows, n) == rank == n - 1


def test_graph_certificates_survive_optimized_python():
    # an edge of the circle's d_1 whose head is its tail, handed to the
    # union-find directly and through the reduced homology, and a face
    # index that is not a vertex
    code = """
rows = complexes.order_complex(circle).boundary_rows(1)
rows[0][1] = rows[1][1]
tripped(lambda: homology._graph_rank(rows, (), 4))
boundary_rows = complexes.OrderComplex.boundary_rows
def looped(cx, k):
    rows = boundary_rows(cx, k)
    if k == 1:
        rows[0][0] = rows[1][0]
    return rows
patched(complexes.OrderComplex, "boundary_rows", looped,
        lambda: homology.reduced_homology(circle))
tripped(lambda: homology._graph_rank([[0, 4], [1, 2]], (), 4))
"""
    assert _run_optimized(code) == [
        "a boundary column repeats a face",
        "a boundary column repeats a face",
        "a face index out of range"]


def test_d1_goes_to_the_union_find_unless_a_face_lies_in_the_subcomplex(
        monkeypatch):
    # a d_1 whose face rows hold no -1 is a graph's incidence matrix on
    # either route: the reduced route, the pair with an empty subcomplex and
    # a pair whose subcomplex is isolated vertices rank it by union-find,
    # over every vertex outside the subcomplex, and only the boundaries
    # above it reach the SNF; a
    # mapping-cone pair, whose tip has edges into the coned source, keeps
    # the SNF for d_1.  Every answer is sympy's.
    graphs = _count_calls(monkeypatch, (homology,), "_graph_rank")
    handed = _count_calls(monkeypatch, (homology,), "smith_invariants")
    rng = random.Random(2323)
    posets_ = [random_poset(rng, rng.randint(1, 8),
                            p=rng.choice((0.2, 0.4, 0.6)))
               for _ in range(12)]
    posets_.append(face_poset(RP2_FACES))

    def routed(run, union_find):
        graphs.clear()
        handed.clear()
        prof = run()
        top = len(prof.counts) - 1
        if union_find:
            assert len(graphs) == (top >= 1)
            assert len(handed) == max(top - 1, 0)
        else:
            assert graphs == [] and len(handed) == top
        return prof.betti, prof.torsion

    def sympy_pair(P, sub):
        return _untwisted(*_chain_complex(P, sub), _sympy_invariants)

    ranked = 0
    for P in posets_:
        assert routed(lambda: reduced_homology(P), True) == brute_profile(P)
        assert routed(lambda: relative_homology(P, set()), True) == \
            sympy_pair(P, set())
        ranked += bool(graphs)
        # the isolated vertices take the lowest vertex numbers, so face
        # indices among all vertices, over a vertex count without them,
        # would run out of range; the faces are the outside positions
        iso = [("iso", i) for i in range(rng.randint(1, 3))]
        Q = FinitePoset(list(P.elements) + iso, P.relation_pairs())
        assert min(Q.positions()[v] for v in P.elements) == len(iso)
        assert routed(lambda: relative_homology(Q, iso), True) == \
            sympy_pair(Q, iso)
        assert [args[2] for args in graphs] == \
            [len(Q) - len(iso)] * len(graphs)
    assert ranked >= 10
    cones = 0
    for f in _random_maps(rng, 12):
        if len(f.source) == 0:
            continue
        C, src, _, tip = mapping_cone(f)
        sub = set(src.values()) | {tip}
        assert routed(lambda: relative_homology(C, sub), False) == \
            sympy_pair(C, sub)
        cones += 1
    assert cones == 12


# ---------------------------------------------------------------------------
# verdicts

def test_connectivity_verdicts():
    empty = FinitePoset([])
    assert homologically_connected(empty, -2).status == "verified"
    assert homologically_connected(empty, -1).status == "refuted"
    pt = FinitePoset(["x"])
    assert homologically_connected(pt, 3).status == "verified"
    s0 = FinitePoset([0, 1])
    assert homologically_connected(s0, -1).status == "verified"
    v = homologically_connected(s0, 0)
    assert v.status == "refuted" and not v.ok()


def test_spherical_verdicts():
    v = homology_spherical(FinitePoset(range(4)), 0)
    assert v.status == "verified" and v.detail["spheres"] == 3
    circle = subsets_poset(3)
    assert homology_spherical(circle, 1).ok()
    # wrong dimension is refuted outright
    assert homology_spherical(circle, 2).status == "refuted"
    # torsion hiding below the top degree must refute sphericity
    rp2 = face_poset(RP2_FACES)
    assert homology_spherical(rp2, 2).status == "refuted"


def test_spherical_probe_basis():
    s2 = subsets_poset(4)
    v = homology_spherical(s2, 2)
    assert v.ok() and v.basis == "homology+pi1"
    w = homology_spherical(s2, 2, probe=False)
    assert w.ok() and w.basis == "homology-only"


def test_cohen_macaulay_check():
    circle = subsets_poset(3)
    v = cohen_macaulay_check(circle, 1)
    assert v.ok() and v.detail["links_checked"] >= len(circle)
    lopsided = FinitePoset(["a", "b", "c"], [("b", "c")])
    assert cohen_macaulay_check(lopsided, 1).status == "refuted"


def test_cohen_macaulay_stops_at_the_first_refuted_task(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return homology_spherical(*args, **kwargs)

    monkeypatch.setattr(homology, "homology_spherical", counted)
    # two components: the whole poset is not 0-connected
    lopsided = FinitePoset(["a", "b", "c"], [("b", "c")])
    v = cohen_macaulay_check(lopsided, 1)
    assert (v.status, v.detail["part"]) == ("refuted", "whole")
    assert v.detail["links_checked"] == 0
    assert len(calls) == 1
    # a cone over an edge and a point: the whole poset and six links pass,
    # then the upper link of c, one point where a circle is due, fails;
    # the empty links, the upper links (cones on t) and the lower link of
    # b (at height 1, an antichain) come settled, so only the whole poset
    # computes
    calls.clear()
    cone = FinitePoset("abct", [("a", "b"), ("b", "t"), ("c", "t")])
    v = cohen_macaulay_check(cone, 2)
    assert (v.status, v.detail["part"], v.detail["at"]) == ("refuted", "above", "c")
    assert v.detail["links_checked"] == 6
    assert v.detail["sub"] == {"dim": 0, "expected": 1}
    assert len(calls) == 1


def test_cohen_macaulay_budget_reaches_the_links():
    U = build_U(SymplecticModule.standard(PrimeField(2), 2))
    assert homology_spherical(U, 2, budget=1).status == "inconclusive"
    v = cohen_macaulay_check(U, 2, budget=1)
    assert (v.status, v.basis) == ("inconclusive", "budget")
    assert v.detail["links_checked"] == 0


def _reference_tasks(P, n):
    """The sweep's tasks, (kind, tag, link, target), built one by one from
    the public link constructors; the intervals at each lower end go in
    the vertex order of their upper end."""
    h, pos = P.heights(), P.positions()
    yield ("whole", None, P, n)
    for x in P:
        yield ("below", x, P.subposet_lt(x), h[x] - 1)
        yield ("above", x, P.subposet_gt(x), n - 1 - h[x])
    for x in P:
        for y in sorted(P.above(x), key=pos.__getitem__):
            yield ("interval", (x, y), P.open_interval(x, y),
                   h[y] - h[x] - 2)


def _reference_cm(P, n, budget=homology.DEFAULT_BUDGET):
    """The sweep as a plain loop over every task, each link built by the
    public constructors and none settled."""
    if P.dim() != n:
        return ("refuted", "dimension", {"dim": P.dim(), "expected": n})
    checked = 0
    for kind, tag, sub, target in _reference_tasks(P, n):
        v = homology_spherical(sub, target, budget=budget, probe=False)
        if v.status == "refuted":
            return ("refuted", "homology",
                    {"part": kind, "at": tag, "sub": v.detail,
                     "links_checked": checked})
        if v.status == "inconclusive":
            return ("inconclusive", "budget",
                    {"part": kind, "at": tag, "links_checked": checked})
        checked += 1
    return ("verified", "homology-only", {"links_checked": checked})


def _counted_sweep(monkeypatch, P, n, budget=homology.DEFAULT_BUDGET):
    """The sweep's (status, basis, detail) and its number of computed
    links."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return homology_spherical(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(homology, "homology_spherical", counted)
        v = cohen_macaulay_check(P, n, budget=budget)
    return (v.status, v.basis, v.detail), len(calls)


def test_cohen_macaulay_sweep_matches_the_plain_loop(monkeypatch):
    rng = random.Random(19)
    tasks = computed = 0
    statuses = set()
    for _ in range(150):
        # the sizes and densities of the core-props draws
        P = random_poset(rng, rng.randint(1, 8),
                         p=rng.choice((0.15, 0.3, 0.5)))
        for n in (P.dim(), P.dim() + 1):
            want = _reference_cm(P, n)
            got, calls = _counted_sweep(monkeypatch, P, n)
            assert got == want
            statuses.add(got[0])
            tasks += got[2].get("links_checked", 0)
            computed += calls
    assert statuses == {"verified", "refuted"}
    assert computed < tasks
    L1 = SymplecticModule.standard(PrimeField(2), 1, 1)
    L2 = SymplecticModule.standard(PrimeField(2), 2)
    L3 = SymplecticModule.standard(PrimeField(2), 3)
    for P, n in ((build_U(L2), 2), (build_D(L2), 1), (build_I(L1), 0),
                 (build_U(L3), 3)):
        want = _reference_cm(P, n)
        got, calls = _counted_sweep(monkeypatch, P, n)
        assert got == want
        assert calls < len(list(_reference_tasks(P, n)))


def test_cohen_macaulay_refutes_after_many_links(monkeypatch):
    # two octahedra glued at the vertex 5: a wedge of two 2-spheres, whose
    # link at 5 is two circles, not one; the sweep computes 18 links, the
    # last of them the refuting one, after 66 tasks passed
    octahedra = [(a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)] + \
                [(a, b, c) for a in (5, 6) for b in (7, 8) for c in (9, 10)]
    P = face_poset(octahedra)
    want = _reference_cm(P, 2)
    got, calls = _counted_sweep(monkeypatch, P, 2)
    assert got == want
    assert (got[0], got[2]["part"], got[2]["at"]) == \
        ("refuted", "above", frozenset({5}))
    assert (got[2]["links_checked"], calls) == (66, 18)


def _with_bounds(P, bottom, top):
    """P with a global minimum "bot" adjoined when ``bottom``, and a global
    maximum "top" when ``top``."""
    elements, rel = list(P), list(P.relation_pairs())
    if bottom:
        rel += [("bot", x) for x in elements]
        elements.append("bot")
    if top:
        rel += [(x, "top") for x in elements]
        elements.append("top")
    return FinitePoset(elements, rel)


def test_cohen_macaulay_settled_tasks_match_the_plain_loop(monkeypatch):
    # random posets with a global bottom, top or both: their links on the
    # bounds are cones, and a poset that is not graded has an upper cone
    # link of the wrong dimension (the genus-2 and U_3(F_2) sweeps are in
    # test_cohen_macaulay_sweep_matches_the_plain_loop)
    rng = random.Random(28)
    seen = set()
    for _ in range(120):
        bottom, top = rng.choice(((True, False), (False, True), (True, True)))
        P = _with_bounds(random_poset(rng, rng.randint(0, 7),
                                      p=rng.choice((0.15, 0.3, 0.5))),
                         bottom, top)
        for n in (P.dim(), P.dim() + 1):
            want = _reference_cm(P, n)
            got, _ = _counted_sweep(monkeypatch, P, n)
            assert got == want
            detail = got[2]
            # a refuted link of dimension 0 or more is a cone of the wrong
            # dimension; one of dimension -1 is empty
            seen.add((got[0], detail.get("part"),
                      detail.get("sub", {}).get("dim", -1) >= 0))
    assert {("verified", None, False), ("refuted", "above", True),
            ("refuted", "above", False)} <= seen


def test_cohen_macaulay_sweeps_compute_the_whole_poset_and_the_graph(
        monkeypatch):
    # the U_3(F_2) sweep computes the whole poset and the graph (0, L); the
    # I(genus 2, radical 1) sweep the whole poset alone; heights settle
    # every other task (empty, a cone on a global bound, or an antichain;
    # the intervals of span 2 are U_3's Ubar_2), and none of them is
    # yielded, since all of them pass
    F2 = PrimeField(2)
    U = build_U(SymplecticModule.standard(F2, 3))
    I = build_I(SymplecticModule.standard(F2, 2, r=1))
    h = U.heights()
    bottom, top = min(U, key=h.__getitem__), max(U, key=h.__getitem__)
    graph = [i for i, (kind, tag, _, _) in enumerate(_reference_tasks(U, 3))
             if (kind, tag) == ("interval", (bottom, top))]
    for P, n, tasks, computed in ((U, 3, 9414, [0] + graph), (I, 1, 1501, [0])):
        (status, basis, detail), calls = _counted_sweep(monkeypatch, P, n)
        assert (status, basis, detail) == \
            ("verified", "homology-only", {"links_checked": tasks})
        assert calls == len(computed)
        yielded = list(homology._cm_tasks(P, n))
        assert [i for i, *_ in yielded] == computed
        assert all(keep is not None and dim is None
                   for _, _, _, keep, _, dim in yielded)


def test_cohen_macaulay_counts_every_task():
    # a verified sweep passed 1 + 2|P| + (order pairs) tasks: the whole
    # poset, two links per element and one interval per order pair
    F2 = PrimeField(2)
    U = build_U(SymplecticModule.standard(F2, 3))
    I = build_I(SymplecticModule.standard(F2, 2, r=1))
    for P, n, parts in ((U, 3, (1, 1348, 8065)), (I, 1, (1, 780, 720))):
        assert (1, 2 * len(P), len(list(P.relation_pairs()))) == parts
        assert cohen_macaulay_check(P, n).detail == \
            {"links_checked": sum(parts)}
    rng = random.Random(38)
    verified = 0
    for _ in range(200):
        bottom, top = rng.choice(((False, False), (True, False),
                                  (False, True), (True, True)))
        P = _with_bounds(random_poset(rng, rng.randint(0, 8),
                                      p=rng.choice((0.15, 0.3, 0.5))),
                         bottom, top)
        v = cohen_macaulay_check(P, P.dim())
        if v.ok():
            verified += 1
            tasks = 1 + 2 * len(P) + len(list(P.relation_pairs()))
            assert v.detail == {"links_checked": tasks}
            assert tasks == len(list(_reference_tasks(P, P.dim())))
    assert verified >= 20


def _settled_shape(link):
    """"empty", "points" or "cone" for a link that heights may settle, or
    None when it is none of them."""
    if len(link) == 0:
        return "empty"
    if link.dim() == 0:
        return "points" if len(link) > 1 else "cone"
    if any(len(u) == len(link) - 1
           for ends in (link.up_sets(), link.down_sets()) for u in ends):
        return "cone"
    return None


def _walk_tasks(P, n):
    """Walks ``_cm_tasks(P, n)`` against the reference tasks: yields, for
    each reference task, its kind, its link's shape, and "computed" or
    "refuted" when the sweep yields it, "passed" when it does not.

    A yielded task sits at its reference index.  A computed one's vertex
    set gives the reference link, with its order, and carries its target.
    A task that is not yielded is empty, a cone or an antichain, and
    ``homology_spherical`` without a probe verifies it; a yielded settled
    task is one too, and that call refutes it by its dimension, with the
    detail the sweep builds from the task."""
    yielded = {i: rest for i, *rest in homology._cm_tasks(P, n)}
    assert list(yielded) == sorted(yielded)
    reference = list(_reference_tasks(P, n))
    assert set(yielded) <= set(range(len(reference)))
    for i, (kind, tag, link, target) in enumerate(reference):
        shape = _settled_shape(link)
        keep = dim = None
        if i in yielded:
            got_kind, got_tag, keep, got_target, dim = yielded[i]
            assert (got_kind, got_tag, got_target) == (kind, tag, target)
        if keep is not None:
            assert dim is None
            sub = P.induced(map(P.elements.__getitem__, keep))
            assert sub.elements == link.elements
            assert sub.up_sets() == link.up_sets()
            assert (sub is P) == (kind == "whole")
            yield kind, shape, "computed"
            continue
        assert kind != "whole" and shape is not None
        v = homology_spherical(link, target, probe=False)
        if i not in yielded:
            assert v.ok()
            yield kind, shape, "passed"
        else:
            assert (v.status, v.basis) == ("refuted", "dimension")
            assert v.detail == {"dim": dim, "expected": target}
            yield kind, shape, "refuted"


def test_cohen_macaulay_task_vertex_sets_are_the_links():
    # seeded random posets at their own dimension and one above, and the
    # sweeps of U_2, D_2, I(genus 1, radical 1) and U_3 over F_2: each task
    # is yielded exactly when it is computed or refuted by its dimension,
    # at its reference index, and every computed vertex set is its link
    rng = random.Random(19)
    cases = []
    for _ in range(150):
        P = random_poset(rng, rng.randint(1, 8),
                         p=rng.choice((0.15, 0.3, 0.5)))
        cases += [(P, P.dim()), (P, P.dim() + 1)]
    L1 = SymplecticModule.standard(PrimeField(2), 1, 1)
    L2 = SymplecticModule.standard(PrimeField(2), 2)
    L3 = SymplecticModule.standard(PrimeField(2), 3)
    cases += [(build_U(L2), 2), (build_D(L2), 1), (build_I(L1), 0),
              (build_U(L3), 3)]
    seen = {}
    for P, n in cases:
        for kind, shape, how in _walk_tasks(P, n):
            seen[how] = seen.get(how, 0) + 1
    assert seen.keys() == {"computed", "passed", "refuted"}
    assert seen["computed"] < seen["passed"]
    assert sum(seen.values()) > 9414


def _settled_cases(rng, count):
    """(P, n) for ``count`` seeded random posets, most of them not graded,
    bare or with a global bottom, top or both, each at its own dimension,
    then U_2, U_3 and D_2 over F_2 and I(genus 2, radical 1)."""
    cases = []
    for _ in range(count):
        P = random_poset(rng, rng.randint(1, 9),
                         p=rng.choice((0.15, 0.3, 0.5)))
        bottom, top = rng.choice(((False, False), (True, False),
                                  (False, True), (True, True)))
        if bottom or top:
            P = _with_bounds(P, bottom, top)
        cases.append((P, P.dim()))
    F2 = PrimeField(2)
    L2 = SymplecticModule.standard(F2, 2)
    cases += [(build_U(L2), 2), (build_U(SymplecticModule.standard(F2, 3)), 3),
              (build_D(L2), 1),
              (build_I(SymplecticModule.standard(F2, 2, r=1)), 1)]
    return cases


def test_cohen_macaulay_settled_verdicts_are_homology_spherical():
    # every task that heights settle (empty, a cone on a global bound, or
    # an antichain) is verified by homology_spherical without a probe when
    # the sweep passes it unseen, and refuted by its dimension, with the
    # sweep's detail, when the sweep yields it; a lower link and an
    # interval of span 1 are never yielded settled, and a span-1 interval
    # is empty
    seen = set()
    for P, n in _settled_cases(random.Random(31), 300):
        seen.update(_walk_tasks(P, n))
        h = P.heights()
        for x in P:
            for y in P.above(x):
                if h[y] - h[x] == 1:
                    assert len(P.open_interval(x, y)) == 0
    assert ("below", "refuted") not in {(k, how) for k, _, how in seen}
    # antichains of every kind, passed and refuted, cones on the bounds,
    # and the empty span-2 intervals of posets that are not graded
    assert {("below", "points", "passed"), ("above", "points", "passed"),
            ("above", "points", "refuted"), ("above", "cone", "refuted"),
            ("below", "cone", "passed"), ("above", "cone", "passed"),
            ("interval", "points", "passed"),
            ("interval", "empty", "passed"),
            ("interval", "empty", "refuted")} <= seen


def _reduced_euler(up):
    """The reduced Euler characteristic of the order complex of the order
    whose up-sets are ``up``: by P. Hall's theorem, the Moebius value
    mu(0, 1) of the order with a bottom 0 and a top 1 adjoined.  One pass
    over the order pairs, in falling up-set size (a linear extension), sets
    m[x] = mu(0, x) = -1 - sum of m[y] over y < x; then mu(0, 1) is -1 less
    the sum of every m[x].  No chain and no matrix."""
    below = [0] * len(up)
    total = 0
    for y in sorted(range(len(up)), key=lambda v: len(up[v]), reverse=True):
        m = -1 - below[y]
        total += m
        for x in up[y]:
            below[x] += m
    return -1 - total


def test_sphere_counts_match_the_mobius_function(monkeypatch):
    # (-1)^n * spheres is the reduced Euler characteristic, read here off
    # the up-sets alone, for every computed link of the U_3(F_2) and
    # I(genus 2, radical 1) sweeps
    assert [_reduced_euler(P.up_sets()) for P in (
        FinitePoset([]), FinitePoset("a"), FinitePoset("abc"),
        subsets_poset(3), subsets_poset(4))] == [-1, 0, 2, -1, 1]
    F2 = PrimeField(2)
    U = build_U(SymplecticModule.standard(F2, 3))
    I = build_I(SymplecticModule.standard(F2, 2, r=1))
    for P, n, wanted in ((U, 3, 2), (I, 1, 1)):
        computed = []

        def spherical(*args, **kwargs):
            v = homology_spherical(*args, **kwargs)
            computed.append((args[0], args[1], v))
            return v

        with monkeypatch.context() as m:
            m.setattr(homology, "homology_spherical", spherical)
            assert cohen_macaulay_check(P, n).ok()
        assert len(computed) == wanted
        for link, target, v in computed:
            # an empty link is the one (-1)-sphere
            spheres = 1 if v.basis == "empty" else v.detail["spheres"]
            assert (-1) ** target * spheres == _reduced_euler(link.up_sets())


def test_cohen_macaulay_detail_does_not_follow_label_hashes():
    # a string-labelled random poset whose sweep is refuted at an interval
    # after other intervals at the same lower end passed: the intervals go
    # in vertex order, so the detail does not depend on the string hashes
    code = """
import random
from symposet.homology import cohen_macaulay_check
from symposet.posets import FinitePoset, random_poset
rng = random.Random(1)
for _ in range(240):
    P = random_poset(rng, 10, 0.3)
S = FinitePoset([f"v{x}" for x in P],
                [(f"v{a}", f"v{b}") for a, b in P.relation_pairs()])
v = cohen_macaulay_check(S, S.dim())
print(v.status, v.detail)
"""
    src = os.path.dirname(os.path.dirname(symposet.__file__))
    outs = [subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
    ).stdout for seed in ("0", "1")]
    assert outs[0] == outs[1]
    assert outs[0].startswith("refuted {'part': 'interval', 'at': ('v0', 'v9')")


def test_map_connectivity():
    P = subsets_poset(3)
    ident = identity_map(P)
    assert map_connectivity(ident, 5).ok()
    s0 = FinitePoset([0, 1])
    f = constant_map(s0, FinitePoset(["p"]), "p")
    # collapsing a 0-sphere is onto components but kills a 1-cycle of the pair
    assert map_connectivity(f, 0).ok()
    assert map_connectivity(f, 1).status == "refuted"


def test_budget_semantics():
    big = subsets_poset(5)
    with pytest.raises(BudgetExceeded):
        reduced_homology(big, budget=10)
    v = homologically_connected(big, 2, budget=10)
    assert v.status == "inconclusive"
    assert homology_spherical(big, 3, budget=10).status == "inconclusive"


def test_profile_accessors():
    prof = reduced_homology(subsets_poset(4), through_degree=0)
    assert prof.knows(0) and not prof.knows(2)
    assert prof.betti_number(0) == 0
    with pytest.raises(AssertionError):
        prof.betti_number(2)


# ---------------------------------------------------------------------------
# probe first: a trivial fundamental group fixes the ranks of d_1 and d_2

def _reference_step(P, level, through, degree, probe):
    """The verdict ladder with homology first and the probe after it,
    built from the public ``reduced_homology`` and ``pi1_probe``."""
    prof = reduced_homology(P, degree)
    bad = prof.first_nonzero_through(through)
    if bad is not None:
        return None, ("refuted", "homology",
                      {"degree": bad, "betti": prof.betti_number(bad),
                       "torsion": prof.torsion_at(bad)})
    if prof.torsion_at(degree):
        return None, ("refuted", "homology",
                      {"degree": degree, "torsion": prof.torsion_at(degree)})
    res = pi1.pi1_probe(P) if probe else "unknown"
    if res == "nontrivial":
        return None, ("refuted", "pi1",
                      {"reason": "fundamental group is nontrivial"})
    return prof, ("verified",
                  "homology+pi1" if res == "trivial" else "homology-only", {})


def reference_connected(P, d):
    return _reference_step(P, d, d, d, d >= 1)[1]


def reference_spherical(P, n):
    if P.dim() != n:
        return ("refuted", "dimension", {"dim": P.dim(), "expected": n})
    prof, (status, basis, detail) = _reference_step(P, n, n - 1, n, n >= 2)
    if prof is not None:
        detail = {"spheres": prof.betti_number(n)}
    return status, basis, detail


def _triple(v):
    return v.status, v.basis, v.detail


def test_probe_first_matches_homology_first():
    rng = random.Random(606)
    s0 = FinitePoset([0, 1])
    rp2, torus = face_poset(RP2_FACES), face_poset(TORUS_FACES)
    # suspensions of connected posets are simply connected: the probe says
    # trivial, and the torsion of RP^2 and every 1-class of a suspended
    # poset turn up in degree 2, from the SNF of d_3
    cases = [subsets_poset(3), subsets_poset(4), subsets_poset(5), rp2,
             torus, join(rp2, s0), join(torus, s0)]
    while len(cases) < 70:
        P = random_poset(rng, rng.randint(2, 9),
                         p=rng.choice((0.15, 0.3, 0.5)))
        cases.append(P)
        if len(cases) % 3 == 0:
            cases.append(barycentric_subdivision(P))
        Q = random_poset(rng, rng.randint(5, 9), p=rng.choice((0.3, 0.5)))
        cases.append(join(Q, s0))
    bases, disconnected, late = set(), 0, 0
    for P in cases:
        disconnected += reduced_homology(P, 0).betti_number(0) > 0
        got = {d: _triple(homologically_connected(P, d)) for d in (1, 2)}
        for d in (1, 2):
            assert got[d] == reference_connected(P, d)
            bases.add(got[d][:2])
        # a trivial probe, then a refutation in degree 2
        late += got[1][1] == "homology+pi1" and got[2][0] == "refuted"
        for n in {2, 3, max(P.dim(), 0)}:
            got = _triple(homology_spherical(P, n))
            assert got == reference_spherical(P, n)
            bases.add(got[:2])
    # a pi1 refutation needs a perfect group, which no input here has
    assert disconnected >= 5 and late >= 4
    assert bases >= {("verified", "homology+pi1"), ("refuted", "homology"),
                     ("verified", "homology-only"), ("refuted", "dimension")}


@pytest.mark.parametrize("answer", ["nontrivial", "unknown"])
def test_probe_first_keeps_a_probe_that_does_not_say_trivial(monkeypatch,
                                                             answer):
    # S^2 with a probe that cannot see its group is trivial, as for a
    # perfect fundamental group: the homology runs in full, then the answer
    probes = []
    monkeypatch.setattr(pi1, "pi1_probe",
                        lambda *a, **k: probes.append(a) or answer)
    calls = _count_calls(monkeypatch, (homology,), "smith_invariants")
    graphs = _count_calls(monkeypatch, (homology,), "_graph_rank")
    s2 = subsets_poset(4)
    for d in (1, 2):
        calls.clear()
        graphs.clear()
        probes.clear()
        got = _triple(homologically_connected(s2, d))
        # d_2 reaches the SNF and d_1 the union-find, and the probe runs
        # once
        assert len(calls) == 1 and len(graphs) == 1 and len(probes) == 1
        assert len(calls[0][0]) == order_complex(s2).n_simplices(2)
        assert len(graphs[0][0][0]) == order_complex(s2).n_simplices(1)
        assert got == reference_connected(s2, d)
    assert _triple(homology_spherical(s2, 2)) == reference_spherical(s2, 2)
    basis = "pi1" if answer == "nontrivial" else "homology-only"
    assert homologically_connected(s2, 1).basis == basis


def _count_snf_degrees(monkeypatch):
    """Boundary degrees handed to the SNF, and the number of SNF calls."""
    snf_calls = _count_calls(monkeypatch, (homology, pi1), "smith_invariants")
    built = []
    original = OrderComplex.boundary_rows

    def rows(cx, k):
        built.append(k)
        return original(cx, k)

    monkeypatch.setattr(OrderComplex, "boundary_rows", rows)
    return built, snf_calls


def test_trivial_probe_skips_the_low_degree_snfs(monkeypatch):
    built, snf_calls = _count_snf_degrees(monkeypatch)
    O = build_O(2, PrimeField(3))
    for P in (subsets_poset(4), join(O, FinitePoset(["apex"]))):
        built.clear()
        snf_calls.clear()
        v = homologically_connected(P, 1)
        assert (v.status, v.basis) == ("verified", "homology+pi1")
        assert snf_calls == [] and built == []
    # S^3 through degree 2: d_1 and d_2 are fixed, d_3 is computed
    built.clear()
    v = homologically_connected(subsets_poset(5), 2)
    assert (v.status, v.basis) == ("verified", "homology+pi1")
    assert built == [3] and len(snf_calls) == 1
    # S^4 through degree 3: top-down, d_4 then d_3, and dd=0 is certified
    # on the one pair the SNF gets
    checked = _count_calls(monkeypatch, (OrderComplex,), "dd_zero_check")
    built.clear()
    snf_calls.clear()
    v = homologically_connected(subsets_poset(6), 3)
    assert (v.status, v.basis) == ("verified", "homology+pi1")
    assert built == [4, 3] and len(checked) == 1 and len(snf_calls) == 2
    # the sweep's verdicts do not probe, and build every boundary
    built.clear()
    assert homology_spherical(subsets_poset(4), 2, probe=False).ok()
    assert built == [2, 1]


def _count_cases(rng):
    """Seeded random posets, some not connected, bare and with a global
    minimum, maximum or both; then RP^2, O(2, F_3) and O(3, F_2)."""
    cases = []
    for i in range(48):
        P = random_poset(rng, rng.randint(1, 10),
                         p=rng.choice((0.05, 0.15, 0.3, 0.5)))
        cases.append(_with_bounds(P, i % 4 in (1, 3), i % 4 in (2, 3)))
    cases.append(face_poset(RP2_FACES))
    cases += [build_O(2, PrimeField(3)), build_O(3, PrimeField(2))]
    return cases


def test_counted_chains_match_the_order_complex():
    # the counts of dimensions 0 to 2 and the completeness flag, read off
    # the poset, are those of the complex cut at dimension 2, and both
    # raise BudgetExceeded at the same budgets; the count leaves no
    # down-sets stored on the poset
    rng = random.Random(3003)
    disconnected = cut = 0
    for P in _count_cases(rng):
        cx = order_complex(P, max_dim=2)
        counts, complete = count_chains(P)
        assert (counts, complete) == (tuple(map(len, cx.by_dim)), cx.complete)
        assert P._down is None
        total = sum(counts)
        with pytest.raises(BudgetExceeded):
            count_chains(P, total - 1)
        with pytest.raises(BudgetExceeded):
            order_complex(P, max_dim=2, budget=total - 1)
        assert count_chains(P, total) == (counts, complete)
        assert order_complex(P, max_dim=2, budget=total).by_dim == cx.by_dim
        disconnected += reduced_homology(P, 0).betti_number(0) > 0
        cut += not complete
    assert disconnected >= 5 and cut >= 5


def test_counted_level1_verdicts_match_the_enumerating_route(monkeypatch):
    # a level-1 verdict with a trivial probe lists no chain; any other
    # lists them once; either way its status, basis and detail are those
    # of homology first and the probe after it, and the budget that the
    # complex cut at dimension 2 just fits is the one it just passes
    rng = random.Random(3007)
    listed = _count_calls(monkeypatch, (complexes, homology, pi1),
                          "order_complex")
    counted = enumerated = 0
    for P in _count_cases(rng):
        listed.clear()
        got = _triple(homologically_connected(P, 1))
        trivial = got[1] == "homology+pi1"
        assert len(listed) == (0 if trivial else 1)
        assert got == reference_connected(P, 1)
        total = sum(count_chains(P)[0])
        assert homologically_connected(P, 1, budget=total - 1).status == \
            "inconclusive"
        assert homologically_connected(P, 1, budget=total).status != \
            "inconclusive"
        counted += trivial
        enumerated += not trivial
    assert counted >= 5 and enumerated >= 5


def test_hurewicz_ranks_that_do_not_fit_raise(monkeypatch):
    # a probe that wrongly calls the circle simply connected would make
    # rank d_2 = c_1 - c_0 + 1 = 1, with no 2-simplex to carry it
    monkeypatch.setattr(pi1, "pi1_probe", lambda *a, **k: "trivial")
    with pytest.raises(CertificateError):
        homologically_connected(subsets_poset(3), 1)


# prefixed to the code that _run_optimized runs under python -O; tripped()
# prints the message of the CertificateError that its run raises, and
# patched() does so with one attribute monkeypatched
_PATCHED_PREAMBLE = """
from symposet import (builders, complexes, homology, nerve, pi1, posets,
                      symplectic, trees)
from symposet.builders import build_D, build_I, build_U, flag_to_decomposition
from symposet.posets import FinitePoset
from symposet.rings import ZZ, PrimeField
from symposet.snf import CertificateError
from symposet.symplectic import RadicalQuotient, Submodule, SymplecticModule

L = SymplecticModule.standard(PrimeField(2), 2)
circle = FinitePoset("abcd", [("a", "c"), ("a", "d"), ("b", "c"),
                              ("b", "d")])

def tripped(run):
    try:
        run()
    except CertificateError as e:
        print(e)

def patched(owner, name, value, run):
    original = getattr(owner, name)
    setattr(owner, name, value)
    try:
        tripped(run)
    finally:
        setattr(owner, name, original)
"""


def _run_optimized(code):
    src = os.path.dirname(os.path.dirname(symposet.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", _PATCHED_PREAMBLE + code],
                         env=env, capture_output=True, text=True, check=True)
    return out.stdout.splitlines()


def test_witness_certificates_survive_optimized_python():
    # each check is made to fail by a monkeypatched helper; under -O a
    # plain assert would let the bad witness through
    code = """
U_gt, D = build_U(L).subposet_gt(()), build_D(L)
patched(pi1, "pi1_probe", lambda *a, **k: "trivial",
        lambda: homology.homologically_connected(circle, 1))
patched(Submodule, "perp", lambda self: self.module.zero_submodule(),
        lambda: build_D(L))
patched(Submodule, "perp", lambda self: self.module.zero_submodule(),
        lambda: flag_to_decomposition(L, U_gt, D))
patched(nerve, "symplectic_dual_family", lambda full, es: es,
        lambda: nerve.isotropic_perp_cover(L, "positive"))
"""
    assert _run_optimized(code) == [
        "rank 1 of d_2 does not fit a 4 x 0 matrix",
        "perp complement has the wrong rank",
        "flag step is not unimodular",
        "block is not unimodular of rank 2"]


def test_enumeration_certificates_survive_optimized_python():
    # a doubled vertex, build_I's sequences without their one-letter
    # subwords, and every unimodular candidate enumerated twice
    code = """
import itertools, types
cx = complexes.order_complex(circle)
patched(cx, "by_dim", [cx.by_dim[0] * 2, cx.by_dim[1]],
        lambda: cx.boundary_rows(1))
subword_poset = builders._subword_poset
patched(builders, "_subword_poset",
        lambda els: subword_poset([e for e in els if len(e) > 1]),
        lambda: build_I(L))
twice = lambda *a, **k: [t for t in itertools.product(*a, **k) for _ in "ab"]
patched(symplectic, "itertools",
        types.SimpleNamespace(combinations=itertools.combinations,
                              product=twice),
        lambda: symplectic.enumerate_unimodular_submodules(L))
"""
    assert _run_optimized(code) == [
        "duplicate simplex in dimension 0",
        "subword escaped the poset",
        "a unimodular submodule was enumerated twice"]


def test_computed_value_certificates_survive_optimized_python():
    # a canonical form that leaves merged blocks unsorted, a Euclidean
    # quotient of 0, a retraction onto a foreign point, a face that repeats
    # its whole chain, a tree set without its contractions, a radical
    # quotient whose radical survives, an edge with one vertex, closed
    # relations that are reflexive, not antisymmetric or not transitive (as
    # up-sets over vertex numbers and from a short closure), a map that is
    # not monotone, a retraction that a reduction step swapping two points
    # makes not monotone, and a boundary whose square is not zero
    code = """
patched(builders, "_canonical_partition",
        lambda blocks: tuple(sorted(map(tuple, blocks))),
        lambda: builders.partitions_poset(range(4)))
patched(ZZ, "euclid_q", lambda a, b: 0,
        lambda: builders.rho_vector(ZZ, (0, 1), (0, 3), 2))
patched(builders, "rho_sequence", lambda *a: ("elsewhere",),
        lambda: builders.rho_poset_retraction(circle, ZZ, [(0, 1)], 0, 2))
F, _ = nerve.isotropic_perp_cover(L, "positive")
patched(F.A, "subposet_lt", lambda seq: [seq + seq],
        lambda: nerve._perp_cover_witness(L, RadicalQuotient(L), F))
enumerate_trees = trees.enumerate_trees
patched(trees, "enumerate_trees",
        lambda m, strict=False: [max(enumerate_trees(m, strict),
                                     key=lambda T: len(T.edges))],
        lambda: trees.build_T(4))
patched(SymplecticModule, "radical_rank", lambda self: 1,
        lambda: RadicalQuotient(L))
tripped(lambda: complexes.OrderComplex([[(0,), (1,)], [(0,)]], True))
tripped(lambda: FinitePoset._trusted(("a", "b"), [frozenset({0}),
                                                  frozenset()]))
tripped(lambda: FinitePoset._trusted(("a", "b"), [frozenset({1}),
                                                  frozenset({0})]))
tripped(lambda: FinitePoset._trusted(
    ("a", "b", "c"), [frozenset({1}), frozenset({2}), frozenset()]))
# a closure that leaves one up-set short, and a longer reach missing from
# an up-set handed to the trusted path
patched(posets, "_close", lambda succ: list(map(frozenset, succ)),
        lambda: FinitePoset("abc", [("a", "b"), ("b", "c")]))
tripped(lambda: FinitePoset._trusted(
    ("a", "b", "c", "d"),
    [frozenset({1, 2}), frozenset({3}), frozenset(), frozenset()]))
# PosetMap checks monotonicity itself, so the cylinder of a map that is
# not monotone is never built
tripped(lambda: posets.mapping_cylinder(posets.PosetMap(
    FinitePoset([0, 1], [(0, 1)]), FinitePoset("ab", [("a", "b")]),
    {0: "b", 1: "a"})))
patched(builders, "rho_sequence",
        lambda ring, w, i, seq, n: "b" if seq == "a" else "a",
        lambda: builders.rho_poset_retraction(
            FinitePoset("ab", [("a", "b")]), ZZ, [(0, 1)], 0, 2))
# the octahedron with one face of d_2 redirected to an edge outside its
# triangle: the twist would clear d_1 against a pair that does not compose
# to zero
boundary_rows = complexes.OrderComplex.boundary_rows
def redirected(cx, k):
    rows = boundary_rows(cx, k)
    if k == 2:
        rows[0][0] = min(set(range(cx.n_simplices(1)))
                         - {row[0] for row in rows})
    return rows
octahedron = FinitePoset("abcdef", [(x, y) for x in "ab" for y in "cdef"]
                         + [(x, y) for x in "cd" for y in "ef"])
patched(complexes.OrderComplex, "boundary_rows", redirected,
        lambda: homology.reduced_homology(octahedron))
"""
    assert _run_optimized(code) == [
        "coarsening is not a partition",
        "division step did not lower the norm",
        "retraction left the poset",
        "face is not a subsequence",
        "contraction is not a tree",
        "quotient by the radical is not unimodular of the ambient genus",
        "a 1-simplex without 2 vertices",
        "reflexive closure entry at 'a'",
        "antisymmetry violated at 'a', 'b'",
        "relation not transitively closed at 'a' < 'b'",
        "relation not transitively closed at 'a' < 'b'",
        "relation not transitively closed at 'a' < 'b'",
        "not monotone at 0 < 1",
        "not monotone at 'a' < 'b'",
        "boundary of a boundary is nonzero"]
