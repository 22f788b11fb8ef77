"""Poset builders over symplectic modules: counts, orders, and the
comparison maps between them.

Element counts below were frozen from independent first runs and double
checked against hand counts where feasible (the genus-1 and genus-2
cases can be enumerated on paper).
"""

import itertools
import os
import random
import subprocess
import sys
from collections import Counter

import pytest

import symposet
from symposet import builders, linalg
from symposet.builders import (_subword_poset, build_D, build_HU, build_I,
                               build_O, build_U, flag_to_decomposition,
                               genus_one_count, hu_decomposition_map,
                               is_partial_basis, partition_sequences_poset,
                               partitions_poset, rho_sequence, rho_vector,
                               submodule_from_key)
from symposet.homology import reduced_homology
from symposet.posets import (FinitePoset, barycentric_subdivision,
                             check_isomorphism)
from symposet.rings import IntegerRing, PrimeField, ZZ
from symposet.symplectic import (Submodule, SymplecticModule,
                                 enumerate_unimodular_submodules,
                                 is_isotropic_sequence)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def std(ring, g, r=0):
    return SymplecticModule.standard(ring, g, r)


def height_profile(P):
    return dict(Counter(P.heights().values()))


def relation_count(P):
    return sum(len(P.above(x)) for x in P)


def same_poset(P, Q):
    return P.elements == Q.elements and P.up_sets() == Q.up_sets()


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


def _isotropic_by_filter(L):
    """Isotropic sequences, level by level, filtered by the reference test."""
    vectors = [tuple(v) for v in L.vectors()]
    current = [(v,) for v in vectors if is_isotropic_sequence(L, (v,))]
    elements = []
    while current:
        elements.extend(current)
        current = [seq + (v,) for seq in current for v in vectors
                   if is_isotropic_sequence(L, seq + (v,))]
    return elements


@pytest.mark.parametrize("ring,g,r", [(F2, 1, 0), (F2, 2, 0), (F2, 1, 1),
                                      (F2, 2, 1), (F3, 1, 0), (F3, 2, 0),
                                      (F3, 1, 1)])
def test_I_matches_isotropic_filter(ring, g, r):
    L = std(ring, g, r)
    I = build_I(L)
    want = _subword_poset(_isotropic_by_filter(L))
    assert I == want
    assert I.elements == want.elements
    assert I.heights() == want.heights()


def test_I_needs_no_echelon_form(monkeypatch):
    # the span of radical + sequence is a bitmask, so extending a sequence
    # is a bit test and no echelon form is computed
    L = std(F2, 2, r=1)
    calls = []
    original = linalg.rref_with_transform

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(linalg, "rref_with_transform", counted)
    assert len(build_I(L)) == 390
    assert not calls


@pytest.mark.parametrize("ring,g,r,pairings", [(F2, 2, 1, 1024),
                                               (F3, 2, 0, 6561)])
def test_I_pairs_only_to_build_the_perp_table(ring, g, r, pairings,
                                              monkeypatch):
    # one pairing per (vector, vector): the p^n * p^n of L.perp_masks(),
    # made once per module; the sequences are grown by ANDs of its masks
    L = std(ring, g, r)
    calls = []
    original = SymplecticModule.pair

    def counted(self, u, v):
        calls.append(1)
        return original(self, u, v)

    monkeypatch.setattr(SymplecticModule, "pair", counted)
    I = build_I(L)
    assert len(calls) == (ring.p ** L.rank) ** 2 == pairings
    assert same_poset(build_I(L), I)
    assert len(calls) == pairings


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
        parts = [submodule_from_key(L, k) for k in lab]
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


def test_D_merges_parts_by_span_mask(monkeypatch):
    # a merged pair of parts is looked up by its member mask, so building D
    # needs no echelon form of the pair's sum
    def refuse(self, other):
        raise AssertionError("build_D summed two parts with Submodule.add")

    monkeypatch.setattr(Submodule, "add", refuse)
    D = build_D(std(F2, 2))
    assert (len(D), relation_count(D)) == (11, 10)
    P = build_D(std(F2, 3), strict=True)
    assert (len(P), relation_count(P)) == (1456, 3360)


def test_flag_map_labels():
    L = std(F2, 2)
    f = flag_to_decomposition(L)
    assert len(f.source) == 41   # chains in the 21-element positive part
    assert len(f.target) == 11
    # a maximal flag maps onto a full decomposition of matching length
    for chain in f.source:
        assert len(f(chain)) >= len(chain)


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


# -- references: the pairwise scans the builders replaced ------------------

def pairwise_U(L):
    """U by testing every pair of ranks with ``contains_submodule``."""
    subs = enumerate_unimodular_submodules(L)
    by_rank = {}
    for s in subs:
        by_rank.setdefault(s.rank, []).append(s)
    rel = []
    ranks = sorted(by_rank)
    for i, r in enumerate(ranks):
        for bigger in ranks[i + 1:]:
            for t in by_rank[bigger]:
                for s in by_rank[r]:
                    if t.contains_submodule(s):
                        rel.append((s.key(), t.key()))
    return FinitePoset([s.key() for s in subs], rel)


def pairwise_D(L, strict=False):
    """D by testing every remaining candidate part for containment, with
    each merge summed by an echelon form."""
    parts = [s for s in enumerate_unimodular_submodules(L) if s.rank > 0]
    decs = []

    def extend(chosen, remaining, cands):
        if remaining.rank == 0:
            decs.append(tuple(sorted(chosen)))
            return
        fits = [s for s in cands if remaining.contains_submodule(s)]
        for idx, s in enumerate(fits):
            chosen.append(s.key())
            extend(chosen, remaining.intersect(s.perp()), fits[idx + 1:])
            chosen.pop()

    extend([], L.full_submodule(), parts)
    if strict:
        decs = [d for d in decs if len(d) > 1]
    decset = set(decs)
    rel = []
    for d in decs:
        for i, j in itertools.combinations(range(len(d)), 2):
            merged = submodule_from_key(L, d[i]).add(
                submodule_from_key(L, d[j])).key()
            rest = [k for t, k in enumerate(d) if t not in (i, j)]
            coarser = tuple(sorted(rest + [merged]))
            if coarser in decset:
                rel.append((coarser, d))
    return FinitePoset(decs, rel)


def pairwise_HU(g, ring):
    """HU by pairing each candidate vector with every member so far."""
    L = std(ring, g)
    vectors = list(L.vectors())
    one = ring.reduce(1)

    def extensions(seq):
        out = []
        flat = [v for pair in seq for v in pair]
        for v in vectors:
            if any(L.pair(v, w) != 0 for w in flat):
                continue
            for w in vectors:
                if L.pair(v, w) != one:
                    continue
                if any(L.pair(w, x) != 0 for x in flat):
                    continue
                out.append(seq + ((v, w),))
        return out

    elements = []
    current = extensions(())
    while current:
        elements.extend(current)
        current = [longer for seq in current for longer in extensions(seq)]
    return FinitePoset(elements, deletion_pairs(elements))


def submodule_flag_map(L, sd):
    """The flag map's labels by submodules: each step an intersection
    with the perp of the step before, certified by ``is_unimodular``."""
    full_key = L.full_submodule().key()
    mapping = {}
    for chain in sd:
        parts = [chain[0]]
        for prev, cur in zip(chain, chain[1:]):
            piece = submodule_from_key(L, cur).intersect(
                submodule_from_key(L, prev).perp())
            assert piece.rank > 0 and piece.is_unimodular()
            parts.append(piece.key())
        if chain[-1] != full_key:
            parts.append(submodule_from_key(L, chain[-1]).perp().key())
        mapping[chain] = tuple(sorted(parts))
    return mapping


def all_subwords(elements):
    """Nonempty sequences with every nonempty proper subword related."""
    rel = []
    for seq in elements:
        for k in range(1, len(seq)):
            for pos in itertools.combinations(range(len(seq)), k):
                rel.append((tuple(seq[i] for i in pos), seq))
    return FinitePoset(elements, rel)


@pytest.mark.parametrize("ring,g,r", [(F2, 1, 0), (F2, 2, 0), (F2, 3, 0),
                                      (F2, 2, 1), (F3, 2, 0), (F5, 2, 0)])
def test_U_matches_the_pairwise_scan(ring, g, r):
    L = std(ring, g, r)
    assert same_poset(build_U(L), pairwise_U(L))


@pytest.mark.parametrize("ring,g", [(F2, 2), (F2, 3), (F3, 2)])
@pytest.mark.parametrize("strict", [False, True])
def test_D_matches_the_pairwise_scan(ring, g, strict):
    L = std(ring, g)
    assert same_poset(build_D(L, strict=strict), pairwise_D(L, strict))


@pytest.mark.parametrize("ring,g", [(F2, 2), (F3, 1), (F5, 1)])
def test_HU_matches_the_pairwise_scan(ring, g):
    assert same_poset(build_HU(g, ring), pairwise_HU(g, ring))


@pytest.mark.parametrize("ring,g", [(F2, 2), (F3, 2), (F2, 3)])
def test_flag_map_matches_the_submodule_route(ring, g, monkeypatch):
    L = std(ring, g)
    U_gt, D = build_U(L).subposet_gt(()), build_D(L)
    sd = barycentric_subdivision(U_gt)
    want = submodule_flag_map(L, sd)

    # each piece is looked up by its member mask, with no echelon form
    # of an intersection and no determinant
    def refuse(self, *args):
        raise AssertionError("the flag map built a piece as a submodule")

    monkeypatch.setattr(Submodule, "intersect", refuse)
    monkeypatch.setattr(Submodule, "is_unimodular", refuse)
    f = flag_to_decomposition(L, U_gt, D)
    assert f.mapping == want
    assert f.source == sd and f.target is D


@pytest.mark.parametrize("build", [
    lambda: build_O(2, F3), lambda: build_O(3, F2),
    lambda: build_O(3, F2, frozen=((0, 0, 1),)),
    lambda: build_I(std(F2, 2, 1)), lambda: build_I(std(F3, 2)),
    lambda: build_HU(2, F2), lambda: build_HU(1, F3),
    lambda: partition_sequences_poset([1, 2, 3, 4], [[1], [2, 3], [4]])])
def test_sequence_posets_match_all_subwords(build):
    P = build()
    assert same_poset(P, all_subwords(P.elements))


# -- references: the label pairs of the public constructor ------------------
# the builders hand their relations as vertex ids to FinitePoset._from_ids;
# each must number and order its elements exactly as the public
# constructor does from the label pairs that the builders once made (U and
# D are compared so above, with the pairwise scans)

def deletion_pairs(elements):
    """Each sequence above its one-letter deletions, as label pairs."""
    return [(seq[:i] + seq[i + 1:], seq) for seq in elements if len(seq) > 1
            for i in range(len(seq))]


@pytest.mark.parametrize("build", [
    lambda: build_O(2, F2), lambda: build_O(2, F3), lambda: build_O(3, F2),
    lambda: build_O(3, F3), lambda: build_I(std(F2, 2, 1)),
    lambda: build_I(std(F3, 1, 1)), lambda: build_I(std(F3, 2)),
    lambda: build_HU(2, F2), lambda: build_HU(1, F3),
    lambda: partition_sequences_poset([1, 2, 3, 4], [[1], [2, 3], [4]])])
def test_sequence_posets_match_the_label_pair_reference(build, monkeypatch):
    made = []

    def recorded(elements):
        made.append(list(elements))
        return _subword_poset(elements)

    monkeypatch.setattr(builders, "_subword_poset", recorded)
    P = build()
    assert same_poset(P, FinitePoset(made[0], deletion_pairs(made[0])))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_partitions_poset_matches_the_label_pair_reference(n):
    def canonical(blocks):
        return tuple(sorted(tuple(sorted(b)) for b in blocks))

    partitions, rel = [], []
    for blocks in builders.set_partitions(list(range(n))):
        if len(blocks) > 1:
            p = canonical(blocks)
            partitions.append(p)
            if len(p) > 2:
                for i, j in itertools.combinations(range(len(p)), 2):
                    rest = [b for t, b in enumerate(p) if t not in (i, j)]
                    rel.append((canonical(rest + [p[i] + p[j]]), p))
    assert same_poset(partitions_poset(range(n)),
                      FinitePoset(partitions, rel))


def test_id_path_certificates_survive_optimized_python():
    # an index that says every listed subspace holds every span, a perp
    # complement that keeps the rank it had, a subword outside the poset,
    # and ids handed to FinitePoset._from_ids that put a vertex above
    # itself (as a generating relation and as a whole up-set) or name one
    # label twice; under -O a plain assert would let each through
    code = """
from symposet import builders, linalg, symplectic
from symposet.builders import build_D, build_U
from symposet.posets import FinitePoset
from symposet.rings import PrimeField
from symposet.snf import CertificateError

L = symplectic.SymplecticModule.standard(PrimeField(2), 2)

def run(build):
    try:
        build()
    except CertificateError as e:
        print(e)

def patched(owner, name, value, build):
    original = getattr(owner, name)
    setattr(owner, name, value)
    try:
        run(build)
    finally:
        setattr(owner, name, original)

everything = lambda self, rows: self.everything
patched(linalg.ContainmentIndex, "containing", everything, lambda: build_U(L))
patched(linalg.ContainmentIndex, "containing", everything, lambda: build_D(L))
patched(symplectic.Submodule, "intersect", lambda self, other: self,
        lambda: build_D(L))
run(lambda: builders._subword_poset([(1,), (1, 2)]))
run(lambda: FinitePoset._from_ids(["a", "b"], [[0, 1], []]))
run(lambda: FinitePoset._from_ids(["a", "b"], [[1], [1]], closed=True))
run(lambda: FinitePoset._from_ids(["a", "b", "a"], [[1], [], []]))
"""
    assert _run_optimized(code) == [
        "containment index put a submodule inside one that does not "
        "contain it",
        "containment index put a part outside the perp of the parts chosen",
        "perp complement has the wrong rank",
        "subword escaped the poset",
        "vertex id above itself at 'a'",
        "vertex id above itself at 'b'",
        "two vertex ids name one label",
    ]


@pytest.mark.slow
def test_U_genus3_over_F3():
    U = build_U(std(F3, 3))
    assert len(U) == 14744
    assert sum(map(len, U.up_sets())) == 692875
    assert height_profile(U) == {0: 1, 1: 7371, 2: 7371, 3: 1}


def _run_optimized(code):
    src = os.path.dirname(os.path.dirname(symposet.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.splitlines()


def test_builder_input_checks_survive_optimized_python():
    # under -O a plain assert let a degenerate module through build_D (an
    # empty poset), a frozen zero vector through build_O (3 elements), a
    # one-point set through partitions_poset (an empty poset) and
    # overlapping parts through partition_sequences_poset (2 elements)
    code = """
from symposet.builders import (build_D, build_HU, build_I, build_O,
                               partition_sequences_poset, partitions_poset)
from symposet.rings import PrimeField, ZZ
from symposet.symplectic import (SymplecticModule,
                                 enumerate_unimodular_submodules)

def run(build):
    try:
        build()
    except ValueError as e:
        print(e)

F2 = PrimeField(2)
run(lambda: build_D(SymplecticModule.standard(F2, 2, r=1)))
run(lambda: build_D(SymplecticModule.standard(ZZ, 1)))
run(lambda: build_O(2, F2, frozen=((0, 0),)))
run(lambda: build_I(SymplecticModule.standard(ZZ, 1)))
run(lambda: build_HU(0, F2))
run(lambda: build_HU(1, ZZ))
run(lambda: enumerate_unimodular_submodules(SymplecticModule.standard(ZZ, 1)))
run(lambda: partitions_poset((0,)))
run(lambda: partition_sequences_poset([1, 2], [[1], [1, 2]]))
run(lambda: partition_sequences_poset([1, 2, 3], [[1, 2]]))
run(lambda: partition_sequences_poset([1, 2], [[1], [], [2]]))
"""
    assert _run_optimized(code) == [
        "L must be unimodular",
        "enumerable over finite fields only",
        "frozen suffix must be a partial basis",
        "enumerable over finite fields only",
        "genus must be at least 1, not 0",
        "enumerable over finite fields only",
        "enumerable over finite fields only",
        "need at least two elements",
        "P must be a partition of A",
        "P must be a partition of A",
        "partition parts must be nonempty",
    ]


def test_a_false_index_bit_raises_under_optimized_python():
    # one false bit says that the k-th listed subspace holds vector b, the
    # second basis vector of a plane s listed before it, when it holds only
    # the first; build_U then puts s inside it, and build_D, whose index is
    # over the parts' perps, puts the k-th part inside the perp of s
    code = """
from symposet import builders, linalg
from symposet.builders import build_D, build_U
from symposet.rings import PrimeField
from symposet.snf import CertificateError
from symposet.symplectic import (SymplecticModule,
                                 enumerate_unimodular_submodules)

L = SymplecticModule.standard(PrimeField(2), 2)
subs = enumerate_unimodular_submodules(L)

def false_bit(masks):
    # U lists every submodule, D only those of positive rank
    listed = subs[len(subs) - len(masks):]
    for j, s in enumerate(listed):
        if s.rank == 2:
            a, b = (L.packed().index[v] for v in s.basis)
            for k in range(j + 1, len(masks)):
                if masks[k] >> a & 1 and not masks[k] >> b & 1:
                    return k, b

class Lying(linalg.ContainmentIndex):
    def __init__(self, space, masks):
        super().__init__(space, masks)
        k, b = false_bit(masks)
        self.by_vector[b] |= 1 << k

builders.ContainmentIndex = Lying
for build in (build_U, build_D):
    try:
        build(L)
    except CertificateError as e:
        print(e)
"""
    assert _run_optimized(code) == [
        "containment index put a submodule inside one that does not "
        "contain it",
        "containment index put a part outside the perp of the parts chosen",
    ]
