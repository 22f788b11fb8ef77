"""Poset builders over symplectic modules: counts, orders, and the
comparison maps between them.

Element counts below were frozen from independent first runs and double
checked against hand counts where feasible (the genus-1 and genus-2
cases can be enumerated on paper).
"""

import random
from collections import Counter

import pytest

from symposet.builders import (build_D, build_HU, build_I, build_O, build_U,
                               decomposition_members, flag_to_decomposition,
                               g_plus_map, genus_one_count,
                               hu_decomposition_map, is_partial_basis,
                               partition_sequences_poset, partitions_poset,
                               proper_subsets_poset, rho_sequence, rho_vector,
                               submodule_from_key)
from symposet.homology import map_connectivity, reduced_homology
from symposet.posets import check_isomorphism
from symposet.rings import IntegerRing, PrimeField, ZZ
from symposet.symplectic import SymplecticModule

F2 = PrimeField(2)
F3 = PrimeField(3)


def std(ring, g, r=0):
    return SymplecticModule.standard(ring, g, r)


def height_profile(P):
    return dict(Counter(P.heights().values()))


def relation_count(P):
    return sum(len(P.above(x)) for x in P)


# -- unimodular submodules --------------------------------------------------

def test_U_genus1():
    U = build_U(std(F2, 1))
    assert len(U) == 2
    assert U.dim() == 1


def test_U_genus2_count_and_heights():
    U = build_U(std(F2, 2))
    assert len(U) == 22
    # bottom, 20 hyperbolic planes, top
    assert height_profile(U) == {0: 1, 1: 20, 2: 1}
    zero = std(F2, 2).zero_submodule().key()
    assert all(U.le(zero, x) for x in U)


def test_U_genus3_counts():
    U = build_U(std(F2, 3))
    assert (len(U), relation_count(U)) == (674, 8065)
    assert height_profile(U) == {0: 1, 1: 336, 2: 336, 3: 1}


def test_U_relations_are_containment():
    L = std(F2, 2)
    U = build_U(L)
    rng = random.Random(31)
    elems = sorted(U.elements)
    for _ in range(40):
        a, b = rng.choice(elems), rng.choice(elems)
        expect = submodule_from_key(L, b).contains_submodule(
            submodule_from_key(L, a))
        assert U.le(a, b) == expect


def test_U_quasi_unimodular():
    U = build_U(std(F2, 2, r=1))
    assert len(U) == 97
    assert height_profile(U) == {0: 1, 1: 80, 2: 16}


# -- isotropic sequences ----------------------------------------------------

def test_I_counts():
    assert len(build_I(std(F2, 1))) == 3
    I = build_I(std(F2, 2))
    assert len(I) == 105
    assert height_profile(I) == {0: 15, 1: 90}
    assert len(build_I(std(F2, 1, r=1))) == 6
    I21 = build_I(std(F2, 2, r=1))
    assert len(I21) == 390
    assert height_profile(I21) == {0: 30, 1: 360}


def test_I_subword_closure():
    I = build_I(std(F2, 2))
    for seq in I:
        if len(seq) == 2:
            assert (seq[0],) in I and (seq[1],) in I
            assert I.lt((seq[0],), seq) and I.lt((seq[1],), seq)


# -- orthogonal decompositions ----------------------------------------------

def test_D_genus2():
    L = std(F2, 2)
    D = build_D(L)
    assert len(D) == 11
    P = build_D(L, strict=True)
    assert len(P) == 10 and P.dim() == 0
    full = (L.full_submodule().key(),)
    assert full in D and full not in P
    assert all(D.le(full, d) for d in D)


def test_D_parts_are_orthogonal_and_span():
    L = std(F2, 2)
    for lab in build_D(L, strict=True):
        parts = decomposition_members(L, lab)
        total = parts[0]
        for p in parts[1:]:
            total = total.add(p)
        assert total.rank == L.rank
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                for x in parts[i].basis:
                    for y in parts[j].basis:
                        assert L.pair(list(x), list(y)) == 0


def test_D_order_is_refinement():
    L = std(F2, 3)
    D = build_D(L, strict=True)
    rng = random.Random(41)
    labs = sorted(D.elements)
    for _ in range(30):
        a, b = rng.choice(labs), rng.choice(labs)
        if D.le(a, b):
            # every part of the refinement lies inside a part of a
            for part in b:
                sub = submodule_from_key(L, part)
                assert any(submodule_from_key(L, q).contains_submodule(sub)
                           for q in a)


def test_D_genus3_counts():
    D = build_D(std(F2, 3))
    assert (len(D), relation_count(D)) == (1457, 4816)
    assert height_profile(D) == {0: 1, 1: 336, 2: 1120}
    P = build_D(std(F2, 3), strict=True)
    assert (len(P), relation_count(P)) == (1456, 3360) and P.dim() == 1


def test_flag_map_labels():
    L = std(F2, 2)
    f = flag_to_decomposition(L)
    assert len(f.source) == 41   # chains in the 21-element positive part
    assert len(f.target) == 11
    # a maximal flag maps onto a full decomposition of matching length
    for chain in f.source:
        assert len(f(chain)) >= len(chain)


@pytest.mark.slow
def test_flag_map_genus3_conclusion():
    # about 650k simplices in the mapping cylinder; ~20s of exact homology
    L = std(F2, 3)
    f = flag_to_decomposition(L)
    assert len(f.source) == 14785 and len(f.target) == 1457
    v = map_connectivity(f, 2)
    assert v.ok()
    assert v.basis == "homology+pi1"


# -- set partitions ---------------------------------------------------------

def test_partitions_poset_counts():
    for n, count, dim in ((2, 1, 0), (3, 4, 1), (4, 14, 2), (5, 51, 3)):
        P = partitions_poset(tuple(range(n)))
        assert len(P) == count
        assert P.dim() == dim


def test_partitions_poset_has_discrete_top():
    P = partitions_poset((0, 1, 2, 3))
    top = tuple(sorted(((0,), (1,), (2,), (3,))))
    assert all(P.le(x, top) for x in P)


def test_g_plus_map():
    X = (0, 1, 2, 3)
    g = g_plus_map(X)
    S = proper_subsets_poset(X)
    assert len(S) == 14
    assert len(g.target) == len(partitions_poset(X))
    for chain in g.source:
        blocks = g(chain)
        assert sum(len(b) for b in blocks) == len(X)


# -- split-unimodular sequences ---------------------------------------------

def test_HU_counts():
    assert len(build_HU(1, F2)) == 6
    HU = build_HU(2, F2)
    assert len(HU) == 840
    assert height_profile(HU) == {0: 120, 1: 720}


def test_hu_map_fibers():
    h = hu_decomposition_map(2, F2)
    DP = h.target
    assert len(DP) == 10
    for lab in DP:
        assert genus_one_count(lab) == 2
        assert len(h.fiber_le(lab)) == 84


def test_partition_sequences_poset():
    Q = partition_sequences_poset([1, 2, 3], [[1], [2, 3]])
    # singles: 3; ordered pairs using both blocks: 2*2 = 4
    assert len(Q) == 7
    # two squares glued along the vertex (1,): a wedge of two circles
    assert reduced_homology(Q).betti == {1: 2}


# -- partial bases ----------------------------------------------------------

def test_O_counts():
    assert len(build_O(2, F2)) == 9
    assert len(build_O(3, F2)) == 217
    assert len(build_O(2, F3)) == 56


def test_O_is_partial_basis_everywhere():
    for P, ring, n in ((build_O(2, F3), F3, 2), (build_O(3, F2), F2, 3)):
        for seq in P:
            assert is_partial_basis(ring, [list(v) for v in seq], n)


def test_O_zero_bound_drops_a_rank():
    for ring in (F2, F3):
        for n in (2, 3):
            frozen = (tuple(0 for _ in range(n - 1)) + (1,),)
            Pn0 = build_O(n, ring, bound=0, frozen=frozen)
            Pm = build_O(n - 1, ring)
            mapping = {seq: tuple(v[:-1] for v in seq) for seq in Pn0}
            assert check_isomorphism(Pn0, Pm, mapping)


def test_O_frozen_changes_poset():
    # freezing a basis vector is not the same as the norm-0 cut
    P = build_O(3, F2, frozen=((0, 0, 1),))
    assert len(P) == 30
    assert len(build_O(3, F2, bound=0, frozen=((0, 0, 1),))) == 9


def test_O_integer_needs_pool():
    with pytest.raises(ValueError):
        build_O(2, ZZ)


def test_is_partial_basis_over_Z_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form
    rng = random.Random(55)
    agree = 0
    for _ in range(60):
        rows = [[rng.randint(-3, 3) for _ in range(4)]
                for _ in range(rng.randint(1, 3))]
        if any(not any(r) for r in rows):
            continue
        ours = is_partial_basis(ZZ, [list(r) for r in rows], 4)
        M = sympy.Matrix(rows)
        snf = smith_normal_form(M)
        k = min(snf.shape)
        diag = [abs(snf[i, i]) for i in range(k)]
        theirs = (M.rank() == len(rows)) and all(d == 1 for d in diag[:len(rows)])
        assert ours == theirs
        agree += 1
    assert agree >= 40


def test_rho_vector_properties():
    w = [3, 1, 4]
    v = [2, 5, 9]
    r = rho_vector(ZZ, w, v, 3)
    assert abs(r[2]) < abs(w[2])
    assert rho_vector(ZZ, w, list(r), 3) == r
    small = [1, 1, 2]
    assert rho_vector(ZZ, w, small, 3) == tuple(small)


def test_rho_sequence():
    w = [[0, 0, 5]]
    seq = ((1, 0, 7), (0, 1, 12))
    out = rho_sequence(ZZ, w, 0, seq, 3)
    assert out == ((1, 0, 2), (0, 1, 2))
    assert all(abs(v[2]) < 5 for v in out)
    assert is_partial_basis(ZZ, [list(v) for v in out], 3)
