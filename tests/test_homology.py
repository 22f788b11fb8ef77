"""Exact homology engine against independent oracles.

Sphere and surface face posets with known answers, a from-scratch chain
complex route through sympy's Smith normal form, and the mod-2 cross
check via universal coefficients.
"""

import itertools
import random

import pytest

from symposet.complexes import BudgetExceeded
from symposet.homology import (HomologyProfile, cohen_macaulay_check,
                               homologically_connected, homology_spherical,
                               map_connectivity, reduced_betti_mod2,
                               reduced_homology, relative_homology)
from symposet.builders import build_U
from symposet.posets import (FinitePoset, PosetMap, constant_map,
                             identity_map, random_poset)
from symposet.rings import PrimeField
from symposet.symplectic import SymplecticModule

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import smith_normal_form  # noqa: E402


def face_poset(faces):
    """Inclusion poset of all nonempty faces of the given top cells."""
    cells = set()
    for f in faces:
        for r in range(1, len(f) + 1):
            for s in itertools.combinations(sorted(f), r):
                cells.add(frozenset(s))
    rel = [(a, b) for a in cells for b in cells if a < b]
    return FinitePoset(cells, rel)


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


def test_mod2_route_universal_coefficients():
    rng = random.Random(77)
    cases = [face_poset(RP2_FACES)]
    cases += [random_poset(rng, rng.randint(1, 8), p=0.3) for _ in range(10)]
    for P in cases:
        prof = reduced_homology(P)
        m2 = reduced_betti_mod2(P)
        expect = {}
        top = max(list(prof.betti) + list(prof.torsion) + [0])
        for k in range(top + 2):
            two = lambda d: sum(1 for v in prof.torsion.get(d, ()) if v % 2 == 0)
            b = prof.betti.get(k, 0) + two(k) + two(k - 1)
            if b:
                expect[k] = b
        assert m2 == expect


def test_relative_homology_pairs():
    P = FinitePoset(range(3), [(0, 1), (1, 2)])
    assert relative_homology(P, {0}).betti == {}
    assert relative_homology(P, set()).betti == {0: 1}
    # collapsing the boundary circle of a disk leaves a 2-sphere class
    disk = subsets_poset(3)
    pair = relative_homology(face_poset([(1, 2, 3)]), set())
    assert pair.betti == {0: 1}
    assert reduced_homology(disk).betti == {1: 1}


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


def test_cohen_macaulay_budget_reaches_the_links():
    U = build_U(SymplecticModule.standard(PrimeField(2), 2))
    assert homology_spherical(U, 2, budget=1).status == "inconclusive"
    for workers in (1, 2):
        v = cohen_macaulay_check(U, 2, budget=1, workers=workers)
        assert (v.status, v.basis) == ("inconclusive", "budget")


def test_cohen_macaulay_pool_matches_serial():
    U = build_U(SymplecticModule.standard(PrimeField(2), 2))
    serial = cohen_macaulay_check(U, 2)
    assert serial.ok() and serial.detail["links_checked"] == 86
    assert cohen_macaulay_check(U, 2, workers=2) == serial


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
