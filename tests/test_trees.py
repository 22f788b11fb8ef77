"""Labeled trees, edge contraction, and the tree-decorated decomposition
poset."""

import itertools
import os
import random
import subprocess
import sys

import pytest

import symposet
from symposet import linalg, suites, trees
from symposet.builders import build_D
from symposet.homology import reduced_homology
from symposet.posets import FinitePoset, check_isomorphism
from symposet.rings import PrimeField
from symposet.symplectic import SymplecticModule
from symposet.trees import (UTree, build_T, build_TD, contract,
                            contraction_unique, enumerate_plain_trees,
                            enumerate_trees, tree_certificate,
                            tree_forget_map)

F2 = PrimeField(2)


def test_plain_tree_counts():
    reps = enumerate_plain_trees(6)
    assert len(reps) == 24
    by_edges = {}
    for n, edges in reps:
        by_edges[len(edges)] = by_edges.get(len(edges), 0) + 1
    assert by_edges == {1: 1, 2: 1, 3: 2, 4: 3, 5: 6, 6: 11}


def test_certificate_relabel_invariance():
    # the 4-vertex star, two labelings of the same shape
    a = tree_certificate(4, ((0, 1), (0, 2), (0, 3)), lambda v: ())
    b = tree_certificate(4, ((1, 3), (2, 3), (0, 3)), lambda v: ())
    assert a == b
    path = tree_certificate(4, ((0, 1), (1, 2), (2, 3)), lambda v: ())
    assert path != a


def test_certificate_sees_annotation():
    edges = ((0, 1), (1, 2))
    left = tree_certificate(3, edges, lambda v: ("x",) if v == 0 else ())
    right = tree_certificate(3, edges, lambda v: ("x",) if v == 2 else ())
    mid = tree_certificate(3, edges, lambda v: ("x",) if v == 1 else ())
    assert left == right  # the flip matches the annotation
    assert left != mid


def test_utree_validation():
    with pytest.raises(ValueError):
        UTree(3, ((0, 1),), (0, 1, 2))  # disconnected
    with pytest.raises(ValueError):
        UTree(3, ((0, 1), (1, 2), (0, 2)), (0, 1, 2))  # cycle
    with pytest.raises(ValueError):
        # vertex 2 has degree 1 but carries no label
        UTree(3, ((0, 1), (1, 2)), (0, 1))
    T = UTree(3, ((0, 1), (1, 2)), (0, 1, 2))
    assert T.strict
    assert not UTree(3, ((0, 1), (1, 2)), (0, 1, 2, 0)).strict
    assert T.annotation(1) == (1,)
    assert sum(1 for e in T.edges if 1 in e) == 2


def automorphisms(T):
    """All vertex bijections of T preserving edges and commuting with the
    labeling; rigidity means only the identity shows up."""
    eset = set(T.edges)
    out = []
    for perm in itertools.permutations(range(T.n)):
        if any(perm[T.labeling[j]] != T.labeling[j] for j in range(T.m)):
            continue
        if all(tuple(sorted((perm[a], perm[b]))) in eset for a, b in eset):
            out.append(perm)
    return out


def test_strict_trees_are_rigid():
    for T in enumerate_trees(3, strict=True):
        assert len(automorphisms(T)) == 1


def test_enumerate_trees_m2():
    ts = enumerate_trees(2)
    # edge with both labels split, plus the two single-vertex-ish shapes
    # are excluded (a tree needs an edge), doubled labels on one end allowed
    assert all(T.m == 2 for T in ts)
    assert len(ts) == len({T.certificate() for T in ts})


def test_contract_path():
    # keeping the middle edge collapses both outer edges
    T = UTree(4, ((0, 1), (1, 2), (2, 3)), (0, 1, 2, 3))
    S = contract(T, [(1, 2)])
    assert S.n == 2 and len(S.edges) == 1
    assert sorted(S.annotation(v) for v in range(2)) == [(0, 1), (2, 3)]
    assert contract(T, T.edges) == T
    with pytest.raises(ValueError):
        contract(T, [])  # collapsing every edge is not a tree here


def test_tree_checks_survive_optimized_python():
    # under -O a plain assert accepted a forest as a tree, a cycle handed
    # to contraction_unique contracted into a collapsed or doubled kept
    # edge, and enumerate_trees(1) returned no trees
    code = """
from symposet.snf import CertificateError
from symposet.trees import (UTree, contract, contraction_unique,
                            enumerate_trees)

def run(build):
    try:
        build()
    except (ValueError, CertificateError) as e:
        print(type(e).__name__, e)

run(lambda: UTree(4, [(0, 1)], (0, 1)))
run(lambda: UTree(2, [(0, 1)], (0, 2)))
run(lambda: UTree(3, [(0, 1), (1, 2)], (0, 1)))
T = UTree(3, [(0, 1), (1, 2)], (0, 1, 2))
run(lambda: contract(T, []))
run(lambda: contract(T, [(0, 2)]))
triangle = ((0, 1), (0, 2), (1, 2))
run(lambda: contraction_unique(3, triangle, [(0, 1)], [(1, 2)]))
square = ((0, 1), (0, 3), (1, 2), (2, 3))
run(lambda: contraction_unique(4, square, [(0, 1), (2, 3)], [(0, 1)]))
run(lambda: enumerate_trees(1))
"""
    src = os.path.dirname(os.path.dirname(symposet.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == [
        "ValueError not a tree",
        "ValueError labels must be vertices",
        "ValueError labels must cover every vertex of degree at most 2",
        "ValueError need a nonempty edge set",
        "ValueError kept edges must be edges of the tree",
        "CertificateError kept edge collapsed",
        "CertificateError two kept edges join the same components",
        "ValueError trees need at least 2 labels, not 1",
    ]


def test_contraction_unique_examples():
    edges = ((0, 1), (1, 2))
    assert contraction_unique(3, edges, [(0, 1)], [(0, 1)])
    assert contraction_unique(3, edges, [(0, 1)], [(1, 2)])


def test_contraction_unique_exhaustive_small():
    for n, edges in enumerate_plain_trees(4):
        m = len(edges)
        subsets = [tuple(c) for k in range(1, m + 1)
                   for c in itertools.combinations(edges, k)]
        for E in subsets:
            for Ep in subsets:
                assert contraction_unique(n, edges, E, Ep)


def _pairwise_contraction_counts(max_edges):
    pairs = violations = 0
    for n, edges in enumerate_plain_trees(max_edges):
        m = len(edges)
        subsets = [tuple(c) for k in range(1, m + 1)
                   for c in itertools.combinations(edges, k)]
        for E in subsets:
            for Ep in subsets:
                pairs += 1
                violations += not contraction_unique(n, edges, E, Ep)
    return pairs, violations


def test_contraction_classes_count_the_pairwise_violations(monkeypatch):
    # the trees suite computes one certificate per edge subset and counts
    # m (m - 1) violations in a class of m subsets; that is the count of
    # ordered pairs that contraction_unique rejects, with the real
    # certificate and with one blind to the annotations, which merges
    # quotients of the same shape
    assert suites._contraction_counts(4) == \
        _pairwise_contraction_counts(4) == (783, 0)

    def blind(n, edges, keep):
        n2, edges2, _ = trees._contract_plain(n, edges, keep)
        return tree_certificate(n2, edges2, lambda c: ())

    monkeypatch.setattr(trees, "contraction_certificate", blind)
    monkeypatch.setattr(suites, "contraction_certificate", blind)
    pairs, violations = suites._contraction_counts(4)
    assert (pairs, violations) == _pairwise_contraction_counts(4)
    assert pairs == 783 and violations > 0


def test_T_counts_and_contractibility():
    for m, count in ((2, 1), (3, 7), (4, 63)):
        T = build_T(m)
        assert len(T) == count
        assert reduced_homology(T).betti == {}


def test_T_order_is_contraction():
    T = build_T(3)
    maxs = [t for t in T if not T.covers(t)]
    mins = [t for t in T if not any(T.lt(s, t) for s in T)]
    # three ways to split the labels over a single edge; one maximal shape
    assert len(mins) == 3
    assert len(maxs) == 1
    assert all(T.lt(b, maxs[0]) for b in mins)


def test_TD_genus2_is_DP():
    L = SymplecticModule.standard(F2, 2)
    DP = build_D(L, strict=True)
    TD = build_TD(L, DP=DP)
    assert len(TD) == len(DP) == 10
    assert check_isomorphism(TD, DP, {x: x[0] for x in TD})


@pytest.fixture(scope="module")
def genus3():
    L = SymplecticModule.standard(F2, 3)
    return L, build_D(L, strict=True)


@pytest.fixture(scope="module")
def forget3(genus3):
    L, DP = genus3
    TD = build_TD(L, DP=DP)
    return TD, tree_forget_map(L, TD=TD, DP=DP)


def test_forget_map_fibers_genus3(genus3, forget3):
    _, DP = genus3
    TD, p = forget3
    assert len(TD) == 4816
    assert sum(len(TD.above(x)) for x in TD) == 13440
    assert p.source is TD and p.target is DP
    rng = random.Random(7)
    three_parts = sorted(d for d in DP if len(d) == 3)
    for d in rng.sample(three_parts, 5):
        fib = p.fiber_le(d)
        assert len(fib) == 7
    two_parts = sorted(d for d in DP if len(d) == 2)
    for d in rng.sample(two_parts, 5):
        assert len(p.fiber_le(d)) == 1


def test_forget_map_fibers_from_the_index_match_a_scan(forget3):
    # a fiber is the induced subposet on the preimages of a lower or upper
    # set, read from the map's y -> f^-1(y) index
    _, p = forget3
    rng = random.Random(11)
    le = p.target.le
    for y in rng.sample(p.target.elements, 40):
        for fiber, keep in ((p.fiber_le(y), lambda x: le(p(x), y)),
                            (p.fiber_ge(y), lambda x: le(y, p(x)))):
            scan = p.source.induced(filter(keep, p.source))
            assert fiber == scan
            assert fiber.elements == scan.elements


def test_TD_genus3_needs_no_echelon_form(genus3, monkeypatch):
    # tree shapes are contracted once and coarsenings are read from DP, so
    # no part sum is put in echelon form
    L, DP = genus3
    calls = []
    original = linalg.rref_with_transform

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(linalg, "rref_with_transform", counted)
    assert len(build_TD(L, DP)) == 4816
    assert not calls


# -- references: the label pairs of the public constructor ------------------

def summed_TD(L, DP):
    """TD from label pairs: every strict tree on every decomposition
    contracted to each proper nonempty edge subset, with the parts that
    land on one quotient vertex summed by an echelon form."""
    shapes = {m: enumerate_trees(m, strict=True) for m in {len(d) for d in DP}}
    elements, rel = [], []
    for dec in DP:
        for T in shapes[len(dec)]:
            here = (dec, T.certificate())
            elements.append(here)
            for k in range(1, len(T.edges)):
                for E in itertools.combinations(T.edges, k):
                    S = contract(T, E)
                    rows = {}
                    for j, v in enumerate(S.labeling):
                        rows.setdefault(v, []).extend(dec[j])
                    key = {v: L.submodule(r).key() for v, r in rows.items()}
                    coarse = tuple(sorted(key.values()))
                    labeling = [v for c in coarse for v in key if key[v] == c]
                    cert = UTree(S.n, S.edges, labeling).certificate()
                    rel.append(((coarse, cert), here))
    return FinitePoset(elements, rel)


def _same_numbering(P, Q):
    return P.elements == Q.elements and P.up_sets() == Q.up_sets()


@pytest.mark.parametrize("ring", [F2, PrimeField(3)])
def test_TD_genus2_matches_the_label_pair_reference(ring):
    L = SymplecticModule.standard(ring, 2)
    DP = build_D(L, strict=True)
    assert _same_numbering(build_TD(L, DP), summed_TD(L, DP))


def test_TD_genus3_matches_the_label_pair_reference(genus3, forget3):
    L, DP = genus3
    TD, _ = forget3
    assert _same_numbering(TD, summed_TD(L, DP))


@pytest.mark.parametrize("m", [2, 3, 4])
def test_T_matches_the_label_pair_reference(m):
    shapes = enumerate_trees(m)
    rel = [(contract(T, E).certificate(), T.certificate()) for T in shapes
           for k in range(1, len(T.edges))
           for E in itertools.combinations(T.edges, k)]
    reference = FinitePoset([T.certificate() for T in shapes], rel)
    assert _same_numbering(build_T(m), reference)


def test_merge_certificates_survive_optimized_python():
    # under -O a plain assert would let a missing coarsening or a merged
    # part outside the enumeration through
    code = """
from symposet import builders
from symposet.builders import build_D
from symposet.rings import PrimeField
from symposet.snf import CertificateError
from symposet.symplectic import SymplecticModule
from symposet.trees import build_TD

L = SymplecticModule.standard(PrimeField(2), 3)
DP = build_D(L, strict=True)
gone = min(d for d in DP if len(d) == 2)
try:
    build_TD(L, DP.induced(d for d in DP if d != gone))
except CertificateError as e:
    print(e)

L2 = SymplecticModule.standard(PrimeField(2), 2)
enumerate_all = builders.enumerate_unimodular_submodules
# the full module is the last submodule; without it a merge of two genus-1
# parts has no part to land on
builders.enumerate_unimodular_submodules = lambda M: enumerate_all(M)[:-1]
try:
    build_D(L2)
except CertificateError as e:
    print(e)
"""
    src = os.path.dirname(os.path.dirname(symposet.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == [
        "a grouping of parts has no coarsening in DP",
        "merge left the decomposition poset",
    ]
