"""Alternating forms, canonical submodules, perps, and radical quotients."""

import os
import random
import subprocess
import sys

import pytest

import symposet
from symposet import linalg
from symposet.rings import IntegerRing, PrimeField, ZZ
from symposet.symplectic import (RadicalQuotient, Submodule, SymplecticModule,
                                 enumerate_unimodular_submodules,
                                 is_isotropic_sequence, symplectic_dual_family)

F2 = PrimeField(2)
F3 = PrimeField(3)


def std(ring, g, r=0):
    return SymplecticModule.standard(ring, g, r)


@pytest.mark.parametrize("p, message", [(4, "not prime"),
                                        (11, "exceeds the bound")])
def test_prime_field_rejects(p, message):
    with pytest.raises(ValueError, match=message):
        PrimeField(p)


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


@pytest.mark.parametrize("ring,g,r", [(F3, 2, 1), (PrimeField(5), 2, 0),
                                      (ZZ, 2, 1)])
def test_restricted_gram_pairs_every_basis_pair(ring, g, r):
    # only i < j is paired; the rest must still be the full pairing
    rng = random.Random(6)
    L = std(ring, g, r)
    for _ in range(20):
        rows = [[rng.randint(-4, 4) for _ in range(L.rank)]
                for _ in range(rng.randint(1, L.rank))]
        u = L.submodule(rows)
        assert u.restricted_gram() == [[L.pair(a, b) for b in u.basis]
                                       for a in u.basis]


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
    assert hyper.rank // 2 == 1


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
    assert s.is_unimodular() and s.rank == 4
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


@pytest.mark.parametrize("ring,g,r,seed", [
    (F2, 2, 0, 21), (F2, 3, 0, 22), (F2, 1, 2, 23), (F3, 2, 0, 24),
    (F3, 1, 1, 25), (PrimeField(5), 1, 1, 26)])
def test_mask_born_submodules_match_the_echelon_route(ring, g, r, seed):
    # an intersection over a field keeps only its member mask; it must be
    # the submodule that an echelon form of the same span gives
    rng = random.Random(seed)
    L = std(ring, g, r)
    n = L.rank
    zero, full = L.zero_submodule(), L.full_submodule()
    pairs = [(full, full), (zero, full), (full, L.radical())]
    for _ in range(10):
        S, T = (L.submodule([[rng.randrange(ring.p) for _ in range(n)]
                             for _ in range(rng.randrange(n + 1))])
                for _ in range(2))
        pairs += [(S, T), (S, S.perp())]
    for S, T in pairs:
        X = S.intersect(T)
        R = Submodule(L, _kernel_intersection(S, T))
        assert X._basis is None  # born from its mask
        assert X.rank == R.rank
        assert X.members() == R.members()
        assert X._basis is None  # rank and members read no basis
        assert X.key() == R.key() and X.basis == R.basis
        assert X == R and R == X and hash(X) == hash(R)
        perp = Submodule(L, [v for v in L.vectors()
                             if all(L.pair(v, b) == 0 for b in R.basis)])
        for P in (X.perp(), R.perp()):
            assert P == perp and hash(P) == hash(perp)
            assert P.rank == perp.rank and P.members() == perp.members()
    assert full.intersect(full) == full and zero.intersect(full) == zero


@pytest.mark.parametrize("ring,g,r", [(F2, 2, 1), (F3, 2, 0), (F3, 1, 1),
                                      (PrimeField(5), 1, 0)])
def test_perp_masks_match_the_submodule_perp(ring, g, r):
    # bit i of the table's w-th mask: vector i pairs to zero with w
    L = std(ring, g, r)
    table = L.perp_masks()
    assert table is L.perp_masks()
    assert len(table) == ring.p ** L.rank
    for i, w in enumerate(L.vectors()):
        assert table[i] == Submodule(L, [w]).perp().members()


def test_integer_intersection_keeps_the_kernel_route():
    rng = random.Random(27)
    L = std(ZZ, 2)
    for _ in range(20):
        S, T = (L.submodule([[rng.randrange(-3, 4) for _ in range(4)]
                             for _ in range(rng.randrange(5))])
                for _ in range(2))
        X = S.intersect(T)
        assert X._mask is None
        assert X.key() == _kernel_intersection(S, T)
        assert X.rank == len(X.basis)


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
    Lv = Submodule(L, [e1]).perp()
    assert Lv.rank == 3
    assert Lv.contains(e1)
    for row in Lv.basis:
        assert L.pair(list(row), e1) == 0


def test_radical_quotient():
    rng = random.Random(13)
    for L in (std(F2, 2, r=2), std(F3, 1, r=1),
              # a radical spanned by e_1 + e_2, off the coordinate axes
              SymplecticModule(F2, [[0, 0, 1], [0, 0, 1], [1, 1, 0]])):
        quot = RadicalQuotient(L)
        M = quot.module
        assert M.radical_rank() == 0 and M.genus == L.genus
        assert M.rank == L.rank - L.radical_rank()
        # lift preserves the pairing
        p = L.ring.p
        for _ in range(12):
            v = [rng.randrange(p) for _ in range(M.rank)]
            w = [rng.randrange(p) for _ in range(M.rank)]
            assert L.pair(list(quot.lift(v)),
                          list(quot.lift(w))) == M.pair(v, w)
        # the lifts of a basis of the quotient and the radical span L
        lifts = [list(quot.lift(b)) for b in linalg.identity(M.rank)]
        rad = [list(r) for r in L.radical().basis]
        assert len(linalg.canonical_span_basis(L.ring, rad + lifts,
                                               L.rank)) == L.rank


def test_quotient_requires_field():
    with pytest.raises(ValueError, match="needs a field"):
        RadicalQuotient(std(ZZ, 1, r=1))


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


def test_input_checks_survive_optimized_python():
    # under -O a plain assert accepted a ragged gram as genus 1, built a
    # radical quotient over the integers, packed an infinite ring, summed
    # submodules of different modules and solved for duals of vectors
    # outside u or not mutually orthogonal
    code = """
from symposet.rings import PrimeField, ZZ
from symposet.symplectic import (RadicalQuotient, Submodule,
                                 SymplecticModule, symplectic_dual_family)

def run(check):
    try:
        check()
    except ValueError as e:
        print(e)

F2, F3 = PrimeField(2), PrimeField(3)
std = SymplecticModule.standard
run(lambda: SymplecticModule(F2, [[0, 1, 0], [1, 0]]))
run(lambda: std(ZZ, 1).packed())
run(lambda: std(F2, 1).full_submodule().add(std(F2, 2).full_submodule()))
run(lambda: RadicalQuotient(std(ZZ, 1, r=1)))
L = std(F3, 2)
run(lambda: symplectic_dual_family(Submodule(L, [[1, 0, 0, 0]]),
                                   [(0, 1, 0, 0)]))
run(lambda: symplectic_dual_family(L.full_submodule(),
                                   [(1, 0, 0, 0), (0, 1, 0, 0)]))
"""
    src = os.path.dirname(os.path.dirname(symposet.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == [
        "gram must be square",
        "packed vectors need a finite field",
        "submodules of different modules",
        "radical quotient needs a field",
        "e_i must lie in u",
        "e_i must be mutually orthogonal",
    ]


def test_image_and_dual_certificates_survive_optimized_python():
    # each check is made to fail by a broken input or helper; under -O a
    # plain assert would let the bad result through
    code = """
from symposet import symplectic
from symposet.builders import (build_U, flag_to_decomposition,
                               hu_decomposition_map)
from symposet.posets import FinitePoset
from symposet.rings import PrimeField
from symposet.snf import CertificateError
from symposet.symplectic import SymplecticModule, symplectic_dual_family

def run(check):
    try:
        check()
    except CertificateError as e:
        print(e)

F2, F3 = PrimeField(2), PrimeField(3)
L = SymplecticModule.standard(F2, 2)
nothing = FinitePoset([])
run(lambda: flag_to_decomposition(L, build_U(L).subposet_gt(()), nothing))
run(lambda: hu_decomposition_map(2, F2, DP=nothing))

full = SymplecticModule.standard(F3, 2).full_submodule()
# these solved duals pair to 2; with the correcting sum made a no-op
# the pair stays
type(F3).add = lambda self, a, b: a
run(lambda: symplectic_dual_family(full, [(0, 1, 0, 1), (1, 0, 2, 0)]))
# zero duals are isotropic but dual to nothing
symplectic.solve_left = lambda ring, P, delta, k: [0] * len(P)
run(lambda: symplectic_dual_family(full, [(1, 0, 0, 0)]))
"""
    src = os.path.dirname(os.path.dirname(symposet.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == [
        "flag image is not a decomposition",
        "split sequence image is not a strict decomposition",
        "dual family is not isotropic",
        "dual family is not dual to the e_i",
    ]
