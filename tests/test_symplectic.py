"""Alternating forms, canonical submodules, perps, and radical quotients."""

import random

import pytest

from symposet import linalg
from symposet.rings import IntegerRing, PrimeField, ZZ
from symposet.symplectic import (Submodule, SymplecticModule, Lv_submodule,
                                 enumerate_unimodular_submodules,
                                 is_isotropic_sequence, quotient_by_radical,
                                 symplectic_dual_family, unimodular_completion,
                                 unimodular_test)

F2 = PrimeField(2)
F3 = PrimeField(3)


def std(ring, g, r=0):
    return SymplecticModule.standard(ring, g, r)


def test_standard_module_pairing():
    for ring in (F2, F3, ZZ):
        L = std(ring, 2, r=1)
        e = [[1 if i == j else 0 for j in range(5)] for i in range(5)]
        assert L.pair(e[0], e[1]) == ring.reduce(1)
        assert L.pair(e[1], e[0]) == ring.reduce(-1)
        assert L.pair(e[0], e[2]) == 0
        assert L.pair(e[4], e[0]) == 0
        assert L.radical_rank() == 1
        assert L.genus == 2


def test_pairing_is_alternating():
    rng = random.Random(4)
    L = std(F3, 2)
    vecs = [[rng.randrange(3) for _ in range(4)] for _ in range(10)]
    for v in vecs:
        assert L.pair(v, v) == 0
        for w in vecs:
            assert L.pair(v, w) == F3.reduce(-L.pair(w, v))


def test_submodule_canonical_key_independent_of_generators():
    rng = random.Random(9)
    L = std(F2, 2)
    u = L.submodule([[1, 0, 0, 0], [0, 1, 0, 0]])
    for _ in range(10):
        a = [rng.randrange(2) for _ in range(2)]
        while not any(a):
            a = [rng.randrange(2) for _ in range(2)]
        rows = [[(a[0] * x + a[1] * y) % 2 for x, y in zip(*u.basis)],
                list(u.basis[0 if a != [1, 0] else 1])]
        v = L.submodule(rows)
        if v.rank == 2:
            assert v.key() == u.key()


def test_integer_submodule_saturation():
    L = std(ZZ, 1)
    u = L.submodule([[2, 0]])
    # spans are saturated: the primitive vector is recovered
    assert u.basis == ((1, 0),)
    w = L.submodule([[2, 2]])
    assert w.basis == ((1, 1),)


def test_perp_ranks_and_double_perp():
    L = std(F2, 2)
    for rows in ([[1, 0, 0, 0]], [[1, 0, 0, 0], [0, 1, 0, 0]],
                 [[0, 0, 1, 0], [0, 0, 0, 1]]):
        u = L.submodule(rows)
        p = u.perp()
        assert u.rank + p.rank == 4
        assert p.perp().key() == u.key()


def test_perp_contains_radical():
    L = std(F2, 1, r=2)
    u = L.submodule([[1, 0, 0, 0]])
    p = u.perp()
    for row in L.radical().basis:
        assert p.contains(row)


def test_unimodular_test_matches_gram_rank():
    L = std(F2, 2)
    hyper = L.submodule([[1, 0, 0, 0], [0, 1, 0, 0]])
    isot = L.submodule([[1, 0, 0, 0], [0, 0, 1, 0]])
    line = L.submodule([[1, 0, 0, 0]])
    assert hyper.is_unimodular()
    assert not isot.is_unimodular()
    assert not line.is_unimodular()
    assert L.zero_submodule().is_unimodular()
    assert L.full_submodule().is_unimodular()
    assert unimodular_test(hyper) == (True, 1)
    assert unimodular_test(isot) == (False, None)


def test_unimodular_enumeration_genus1():
    # of the five submodules of the standard genus-1 plane over F_2, only
    # the two trivial ones carry a unimodular form
    L = std(F2, 1)
    subs = enumerate_unimodular_submodules(L)
    assert len(subs) == 2
    ranks = sorted(s.rank for s in subs)
    assert ranks == [0, 2]


def test_genus_and_add_intersect():
    L = std(F2, 3)
    u = L.submodule([[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]])
    v = L.submodule([[0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0]])
    s = u.add(v)
    assert s.rank == 4 and s.genus() == 2
    assert u.intersect(v).rank == 0
    assert s.intersect(u).key() == u.key()


def _kernel_intersection(S, T):
    """The intersection as the common solutions of both spans' equations."""
    M = S.module
    eq = [list(r) for X in (S, T)
          for r in linalg.right_kernel(M.ring, [list(b) for b in X.basis], M.rank)]
    return linalg.canonical_span_basis(
        M.ring, linalg.right_kernel(M.ring, eq, M.rank), M.rank)


@pytest.mark.parametrize("ring,g,r,seed", [
    (F2, 2, 0, 1), (F2, 3, 0, 2), (F2, 1, 2, 3), (F3, 2, 0, 4), (F3, 1, 1, 5)])
def test_mask_route_matches_linear_algebra(ring, g, r, seed):
    rng = random.Random(seed)
    L = std(ring, g, r)
    n = L.rank
    subs = [L.zero_submodule(), L.full_submodule(), L.radical()]
    for _ in range(12):
        k = rng.randrange(n + 1)
        subs.append(L.submodule(
            [[rng.randrange(ring.p) for _ in range(n)] for _ in range(k)]))
    subs.extend(S.perp() for S in subs[:6])
    vectors = list(L.vectors())
    assert len(vectors) == ring.p ** n
    for S in subs:
        for v in vectors:
            expect = linalg.span_contains(ring, S.basis, v, n)
            assert S.contains(v) == expect
            assert S.contains([x - ring.p for x in v]) == expect
        for T in subs:
            assert S.contains_submodule(T) == all(
                linalg.span_contains(ring, S.basis, b, n) for b in T.basis)
            assert S.intersect(T).key() == _kernel_intersection(S, T)
        perp = S.perp()
        assert perp is S.perp()
        orthogonal = [v for v in vectors
                      if all(L.pair(v, b) == 0 for b in S.basis)]
        assert perp.key() == linalg.canonical_span_basis(ring, orthogonal, n)


def test_isotropic_sequences():
    L = std(F2, 2)
    e1 = [1, 0, 0, 0]
    e2 = [0, 0, 1, 0]
    f1 = [0, 1, 0, 0]
    assert is_isotropic_sequence(L, [e1])
    assert is_isotropic_sequence(L, [e1, e2])
    assert not is_isotropic_sequence(L, [e1, f1])   # pair to 1
    assert not is_isotropic_sequence(L, [e1, e1])   # dependent
    assert not is_isotropic_sequence(L, [[0, 0, 0, 0]])


def test_Lv_submodule():
    L = std(F2, 2)
    e1 = [1, 0, 0, 0]
    Lv = Lv_submodule(L, [e1])
    assert Lv.rank == 3
    assert Lv.contains(e1)
    for row in Lv.basis:
        assert L.pair(list(row), e1) == 0


def test_radical_quotient():
    L = std(F2, 2, r=2)
    quot = quotient_by_radical(L)
    M = quot.module
    assert M.radical_rank() == 0 and M.genus == 2 and M.rank == 4
    rng = random.Random(13)
    for _ in range(12):
        v = [rng.randrange(2) for _ in range(6)]
        w = [rng.randrange(2) for _ in range(6)]
        assert L.pair(v, w) == M.pair(list(quot.project(v)),
                                      list(quot.project(w)))
    for _ in range(6):
        vb = [rng.randrange(2) for _ in range(4)]
        assert list(quot.project(quot.lift(vb))) == vb


def test_quotient_requires_field():
    with pytest.raises(AssertionError):
        quotient_by_radical(std(ZZ, 1, r=1))


def test_symplectic_dual_family():
    L = std(F3, 3)
    es = [[1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]]
    fs = symplectic_dual_family(L.full_submodule(), es)
    for i, f in enumerate(fs):
        for j, e in enumerate(es):
            want = 1 if i == j else 0
            assert L.pair(e, list(f)) == want
    for i in range(len(fs)):
        for j in range(len(fs)):
            assert L.pair(list(fs[i]), list(fs[j])) == 0


def test_unimodular_completion():
    L = std(F2, 2)
    u = L.submodule([[1, 0, 0, 0], [0, 1, 0, 0]])
    uprime = L.submodule([[0, 0, 1, 0], [0, 0, 0, 1]])
    total, cert = unimodular_completion(L, u, uprime, [[1, 0, 0, 0]])
    assert total.is_unimodular() and total.genus() == 2
    assert total.contains_submodule(u)
    assert total.contains_submodule(uprime)
    assert cert
