"""Order-theoretic core: construction, derived posets, joins, cylinders."""

import hashlib
import itertools
import os
import random
import subprocess
import sys

import pytest

import symposet
from symposet.posets import (FinitePoset, PosetMap, barycentric_subdivision,
                             check_isomorphism, constant_map,
                             cylinder_link_check, join,
                             mapping_cone, mapping_cylinder,
                             random_monotone_map, random_poset, thick_join)
from symposet.homology import reduced_homology, relative_homology
from symposet.snf import CertificateError


def chain(n):
    return FinitePoset(range(n), [(i, i + 1) for i in range(n - 1)])


def antichain(n):
    return FinitePoset(range(n))


def identity_map(P):
    return PosetMap(P, P, {x: x for x in P})


def test_constructor_closes_transitively():
    P = FinitePoset("abc", [("a", "b"), ("b", "c")])
    assert P.lt("a", "c")
    assert P.le("a", "a")
    assert not P.le("c", "a")


def test_constructor_rejects_cycles():
    with pytest.raises(ValueError):
        FinitePoset("ab", [("a", "b"), ("b", "a")])


def test_input_checks_survive_optimized_python():
    # a doubled label, a relation to a label that is not an element, an
    # open interval of a pair that is not x < y, and a map that misses a
    # source element or has a key outside the source; under -O a plain
    # assert would let each through.  The cylinder link identity of a map
    # whose source and target share labels holds under -O too.
    code = """
from symposet.posets import FinitePoset, PosetMap, cylinder_link_check
from symposet.snf import CertificateError

def run(build):
    try:
        build()
    except (ValueError, CertificateError) as e:
        print(e)

run(lambda: FinitePoset(['a', 'a', 'b'], [('a', 'b')]))
run(lambda: FinitePoset('ab', [('a', 'z')]))
run(lambda: FinitePoset('abc', [('a', 'b')]).open_interval('c', 'a'))
run(lambda: FinitePoset('abc', [('a', 'b')]).open_interval('b', 'a'))
edge = FinitePoset('ab', [('a', 'b')])
run(lambda: PosetMap(edge, edge, {'a': 'a'}))
run(lambda: PosetMap(edge, edge, {'a': 'a', 'b': 'b', 'c': 'b'}))
f = PosetMap(edge, edge, {'a': 'a', 'b': 'b'})
print([cylinder_link_check(f, y) for y in edge])
"""
    src = os.path.dirname(os.path.dirname(symposet.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == [
        "duplicate elements",
        "relation endpoint not an element: ('a', 'z')",
        "open interval needs 'c' < 'a'",
        "open interval needs 'b' < 'a'",
        "mapping must be total",
        "mapping has keys outside the source",
        "[True, True]",
    ]


def test_up_sets_name_the_order_not_the_labels():
    P = FinitePoset("abc", [("a", "b")])
    assert P.up_sets() == (frozenset({1}), frozenset(), frozenset())
    assert FinitePoset("xyz", [("x", "y")]).up_sets() == P.up_sets()
    assert FinitePoset("abc", [("a", "c")]).up_sets() != P.up_sets()
    assert P.subposet_gt("a").up_sets() == (frozenset(),)
    hash(P.up_sets())


def test_relation_pairs_and_linear_extension():
    rng = random.Random(11)
    for _ in range(20):
        P = random_poset(rng, rng.randint(1, 9), p=0.3)
        pos = {x: i for i, x in enumerate(P.linear_extension())}
        for a, b in P.relation_pairs():
            assert P.lt(a, b)
            assert pos[a] < pos[b]


def test_standard_heights_monotone():
    rng = random.Random(5)
    for _ in range(20):
        P = random_poset(rng, 8, p=0.4)
        h = P.heights()
        for a, b in P.relation_pairs():
            assert h[a] < h[b]
        assert all(h[x] == 0 for x in P.elements if not P.below(x))


def test_opposite_involution():
    rng = random.Random(3)
    for _ in range(10):
        P = random_poset(rng, 7, p=0.35)
        assert P.opposite().opposite() == P


def test_induced_and_intervals():
    P = FinitePoset("abcd", [("a", "b"), ("b", "c"), ("a", "d")])
    S = P.induced("abc")
    assert S.lt("a", "c") and "d" not in S
    assert set(P.open_interval("a", "c").elements) == {"b"}
    assert set(P.subposet_lt("c").elements) == {"a", "b"}
    assert P.covers("a") == frozenset({"b", "d"})


def test_derived_posets_keep_the_label_order():
    # repr order differs from insertion order and from 10 > 9 > 2
    labels = [10, 9, "a", (1, 2), 2, "b", (0,), 100, "c", (2,), -1, "B"]
    rng = random.Random(12)
    for _ in range(25):
        n = rng.randint(1, len(labels))
        R = random_poset(rng, n, 0.4)
        names = rng.sample(labels, n)
        P = FinitePoset(names, [(names[a], names[b])
                                for a, b in R.relation_pairs()])
        sub = rng.sample(names, rng.randint(0, n))
        S = P.induced(sub)
        assert S == FinitePoset(sub, [(a, b) for a, b in P.relation_pairs()
                                      if a in sub and b in sub])
        assert list(S.elements) == sorted(sub, key=repr)
        for Q in (S, P.opposite()):
            assert list(Q.elements) == sorted(Q.elements, key=repr)
            assert [Q.positions()[x] for x in Q.elements] == list(range(len(Q)))
        assert P.opposite().elements == P.elements


def test_link_is_comparables():
    # the link of b: everything comparable to it, b removed
    P = FinitePoset("abcd", [("a", "b"), ("b", "c"), ("a", "d")])
    link = P.induced(P.above("b") | P.below("b"))
    assert set(link.elements) == {"a", "c"}


def test_barycentric_subdivision_is_chain_poset():
    P = chain(3)
    S = barycentric_subdivision(P)
    # nonempty chains of a 3-chain
    assert len(S) == 7
    assert S.dim() == P.dim()
    assert all(isinstance(c, tuple) for c in S)


def test_barycentric_subdivision_homology():
    rng = random.Random(23)
    for _ in range(15):
        P = random_poset(rng, rng.randint(1, 8), p=0.3)
        S = barycentric_subdivision(P)
        assert reduced_homology(S).betti == reduced_homology(P).betti


def test_join_of_zero_spheres_is_circle():
    J = join(antichain(2), FinitePoset(["x", "y"]))
    assert reduced_homology(J).betti == {1: 1}


def test_join_empty_factor():
    # an empty factor is tagged as any other: the join is the other factor
    # with its labels tagged by origin, in its order
    P, E = chain(3), FinitePoset([])
    assert join(P, E).elements == ((0, 0), (0, 1), (0, 2))
    assert join(E, P).elements == ((1, 0), (1, 1), (1, 2))
    assert thick_join(P, E).elements == (("x", 0), ("x", 1), ("x", 2))
    assert thick_join(E, P).elements == (("y", 0), ("y", 1), ("y", 2))
    for J in (join(P, E), join(E, P), thick_join(P, E), thick_join(E, P)):
        assert J.up_sets() == P.up_sets()
    assert len(join(E, E)) == len(thick_join(E, E)) == 0


def test_thick_join_matches_join_homology():
    rng = random.Random(7)
    for _ in range(20):
        X = random_poset(rng, rng.randint(1, 6), p=0.35)
        Y = FinitePoset([("y", j) for j in range(rng.randint(1, 6))])
        a = reduced_homology(thick_join(X, Y)).betti
        b = reduced_homology(join(X, Y)).betti
        assert a == b


def test_thick_join_tagging():
    # tagged by origin whether the factors share labels or not
    X = antichain(2)
    W = thick_join(X, X)
    assert ("x", 0) in W and ("y", 0) in W and ("p", 0, 1) in W
    assert W.lt(("x", 0), ("p", 0, 1))
    assert W.lt(("y", 1), ("p", 0, 1))
    assert not W.le(("x", 0), ("y", 0)) and not W.le(("y", 0), ("x", 0))
    V = thick_join(X, FinitePoset("ab"))
    assert V.elements == (("x", 0), ("x", 1), ("y", "a"), ("y", "b"),
                          ("p", 0, "a"), ("p", 0, "b"),
                          ("p", 1, "a"), ("p", 1, "b"))
    assert V.up_sets() == W.up_sets()


def test_poset_map_validates_monotonicity():
    P = chain(2)
    Q = antichain(2)
    with pytest.raises(AssertionError):
        PosetMap(P, Q, {0: 0, 1: 1})
    f = PosetMap(P, P, {0: 0, 1: 1})
    assert f(1) == 1


def test_poset_map_names_missing_and_extra_keys():
    P = chain(2)
    with pytest.raises(CertificateError, match="mapping must be total"):
        PosetMap(P, P, {0: 0})
    with pytest.raises(CertificateError,
                       match="mapping has keys outside the source"):
        PosetMap(P, P, {0: 0, 1: 1, 2: 1})


def test_poset_map_fibers():
    P = chain(3)
    f = PosetMap(P, chain(2), {0: 0, 1: 0, 2: 1})
    assert set(f.fiber_le(0).elements) == {0, 1}
    assert set(f.fiber_ge(1).elements) == {2}


def test_map_composition_and_pointwise_order():
    P = chain(3)
    f = identity_map(P)
    g = constant_map(P, P, 2)
    assert all(P.le(f(x), g(x)) for x in P)
    assert not all(P.le(g(x), f(x)) for x in P)


def test_mapping_cylinder_retracts_to_target():
    rng = random.Random(17)
    for _ in range(15):
        X = random_poset(rng, rng.randint(1, 7), p=0.3)
        Y = FinitePoset(list(range(rng.randint(1, 6))), [])
        f = random_monotone_map(rng, X, Y)
        M, src, tgt = mapping_cylinder(f)
        assert len(M) == len(X) + len(Y)
        assert reduced_homology(M).betti == reduced_homology(Y).betti
        # the source sits above its image
        for x in X:
            assert M.le(tgt[f(x)], src[x])


def test_cylinder_link_identity():
    rng = random.Random(29)
    for _ in range(10):
        X = random_poset(rng, rng.randint(1, 6), p=0.4)
        Y = random_poset(rng, rng.randint(1, 5), p=0.4)
        f = random_monotone_map(rng, X, Y)
        for y in Y:
            assert cylinder_link_check(f, y)


def test_cylinder_link_identity_holds_on_colliding_labels():
    # the link of (0, y) in the cylinder and the join of Y_{<y} with the
    # fiber carry the same tags, so the identity holds when source and
    # target share labels: the identity of an edge, and random maps
    # between int-labelled posets
    edge = chain(2)
    maps = [identity_map(edge)]
    rng = random.Random(3401)
    for _ in range(40):
        X = random_poset(rng, rng.randint(1, 7), p=rng.choice((0.2, 0.45)))
        Y = random_poset(rng, rng.randint(1, 6), p=rng.choice((0.2, 0.45)))
        maps += [random_monotone_map(rng, X, Y), random_monotone_map(rng, X)]
    for f in maps:
        for y in f.target:
            assert cylinder_link_check(f, y)


def test_mapping_cone_of_identity_is_contractible():
    P = FinitePoset(range(4), [(0, 2), (1, 2), (0, 3)])
    C, src, _, tip = mapping_cone(identity_map(P))
    assert reduced_homology(C).betti == {}
    assert all(C.le(tip, src[x]) for x in P)


def test_mapping_cone_is_the_cylinder_with_a_tip_under_the_source():
    rng = random.Random(4)
    maps = [random_monotone_map(rng, random_poset(rng, 6, p=0.35))
            for _ in range(10)]
    maps.append(PosetMap(antichain(0), chain(2), {}))
    for f in maps:
        C, src, tgt, tip = mapping_cone(f)
        M, msrc, mtgt = mapping_cylinder(f)
        assert (src, tgt) == (msrc, mtgt)
        assert tip not in M
        assert C.induced(set(C) - {tip}) == M
        assert C.above(tip) == frozenset(src.values())
        assert not C.below(tip)


def test_cylinders_keep_their_parents_orders():
    # the target's vertices (0, y) in its order, then the source's (1, x),
    # then the tip ("cone",), with disjoint labels, colliding ones, an
    # empty source and a source holding the tip's label; a copy numbered by
    # repr has the same homology
    rng = random.Random(2401)
    maps = []
    for _ in range(30):
        X, _ = _random_labeled(rng, _MIXED, rng.randint(1, 8))
        Y, _ = _random_labeled(rng, [("q", a) for a in _MIXED],
                               rng.randint(1, 6))
        maps.append(random_monotone_map(rng, X, Y))
        maps.append(random_monotone_map(rng, X))
        maps.append(PosetMap(antichain(0), Y, {}))
    tips = FinitePoset([("cone",), ("cone", "cone")],
                       [(("cone",), ("cone", "cone"))])
    maps.append(constant_map(tips, chain(2), 1))
    reordered = 0
    for f in maps:
        want = (tuple((0, y) for y in f.target)
                + tuple((1, x) for x in f.source))
        M, src, tgt = mapping_cylinder(f)
        assert M.elements == want
        C, src, tgt, tip = mapping_cone(f)
        assert C.elements == want + (("cone",),)
        assert tip == ("cone",) and tip not in want
        reordered += C.elements != tuple(sorted(C.elements, key=repr))
        copy = FinitePoset(C.elements, C.relation_pairs())
        assert copy == C
        assert reduced_homology(C) == reduced_homology(copy)
        pair = set(src.values()) | {tip}
        assert relative_homology(C, pair) == relative_homology(copy, pair)
    assert reordered >= 30


def _chains_in_vertex_order(P):
    """Every nonempty chain of P, bottom to top, sorted lexicographically
    on P's vertex numbers."""
    pos, h = P.positions(), P.heights()
    found = []
    for r in range(1, len(P) + 1):
        for c in itertools.combinations(P.elements, r):
            if all(P.lt(a, b) or P.lt(b, a)
                   for a, b in itertools.combinations(c, 2)):
                found.append(tuple(sorted(c, key=h.__getitem__)))
    return tuple(sorted(found, key=lambda c: [pos[x] for x in c]))


def test_joins_and_subdivisions_keep_their_parents_orders():
    # a join numbers X's vertices (0, x), then Y's (1, y); a thick join X's
    # ("x", x), Y's ("y", y), then the products ("p", x, y) row-major; a
    # subdivision its chains lexicographically on the parent's vertex
    # numbers; with disjoint and colliding labels, and a copy numbered by
    # repr has the same homology
    rng = random.Random(2601)
    reordered = {"join": 0, "thick": 0, "sd": 0}
    for _ in range(30):
        X, _ = _random_labeled(rng, _MIXED, rng.randint(1, 5))
        Y, _ = _random_labeled(rng, [("q", a) for a in _MIXED],
                               rng.randint(1, 4))
        built = []
        for A, B in ((X, Y), (X, X)):
            T = thick_join(A, B)
            assert T.elements == (tuple(("x", a) for a in A)
                                  + tuple(("y", b) for b in B)
                                  + tuple(("p", a, b) for a in A for b in B))
            built.append(("thick", T))
        # the tags keep a factor in repr order in repr order, so join a
        # thick join, whose products come last, to reorder
        for A, B in ((X, Y), (X, X), (T, Y)):
            J = join(A, B)
            assert J.elements == (tuple((0, a) for a in A)
                                  + tuple((1, b) for b in B))
            built.append(("join", J))
        S = barycentric_subdivision(X)
        assert S.elements == _chains_in_vertex_order(X)
        built.append(("sd", S))
        for kind, P in built:
            reordered[kind] += P.elements != tuple(sorted(P.elements,
                                                          key=repr))
            copy = FinitePoset(P.elements, P.relation_pairs())
            assert copy == P
            assert reduced_homology(P) == reduced_homology(copy)
    assert min(reordered.values()) >= 10, reordered


class _Unprintable:
    """A label whose repr raises once the class is armed."""

    armed = False

    def __init__(self, n):
        self.n = n

    def __eq__(self, other):
        if not isinstance(other, _Unprintable):
            return NotImplemented
        return self.n == other.n

    def __hash__(self):
        return hash(self.n)

    def __repr__(self):
        if _Unprintable.armed:
            raise AssertionError("a label was turned into a string")
        return f"_Unprintable({self.n})"


def test_derived_posets_never_turn_a_label_into_a_string():
    rng = random.Random(2602)
    labels = [_Unprintable(i) for i in range(7)]
    X = FinitePoset(labels[:4], [(labels[0], labels[1]), (labels[0], labels[2]),
                                 (labels[1], labels[3])])
    Y = FinitePoset(labels[4:], [(labels[4], labels[5])])
    f = random_monotone_map(rng, X, Y)
    g = random_monotone_map(rng, X)
    _Unprintable.armed = True
    try:
        assert len(X.induced(labels[1:3])) == 2
        assert X.opposite().elements == X.elements
        assert (len(join(X, Y)), len(join(X, X))) == (7, 8)
        assert len(thick_join(X, Y)) == 4 + 3 + 12
        assert len(thick_join(X, X)) == 4 + 4 + 16
        assert len(barycentric_subdivision(X)) == 4 + 4 + 1
        for h in (f, g):
            M, _, _ = mapping_cylinder(h)
            C, _, _, _ = mapping_cone(h)
            assert len(C) == len(M) + 1 == len(h.source) + len(h.target) + 1
    finally:
        _Unprintable.armed = False


def _scan_fiber(f, y, down):
    """A fiber by testing the target order against every source element."""
    le = f.target.le
    return f.source.induced([x for x in f.source
                             if (le(f(x), y) if down else le(y, f(x)))])


def test_fibers_from_the_preimage_index_match_a_scan():
    rng = random.Random(61)
    for i in range(25):
        X = random_poset(rng, rng.randint(0, 8), p=rng.choice((0.2, 0.45)))
        Y = random_poset(rng, rng.randint(1, 6), p=rng.choice((0.2, 0.45)))
        f = random_monotone_map(rng, X, Y)
        for y in Y:
            for down, fiber in ((True, f.fiber_le(y)), (False, f.fiber_ge(y))):
                scan = _scan_fiber(f, y, down)
                assert fiber == scan
                assert fiber.elements == scan.elements
                assert fiber.up_sets() == scan.up_sets()


def test_vertex_subposets_match_the_label_route():
    # links and intervals come from vertex sets; each has the elements and
    # up-sets of the label route through the public induced, on posets
    # with labels out of insertion order, disconnected ones too
    labels = [10, 9, "a", (1, 2), 2, "b", (0,), 100, "c", (2,), -1, "B"]
    rng = random.Random(2303)
    disconnected = 0
    for _ in range(40):
        n = rng.randint(1, len(labels))
        R = random_poset(rng, n, rng.choice((0.1, 0.3, 0.6)))
        names = rng.sample(labels, n)
        P = FinitePoset(names, [(names[a], names[b])
                                for a, b in R.relation_pairs()])
        disconnected += reduced_homology(P, 0).betti_number(0) > 0
        pairs = []
        for x in P:
            pairs.append((P.subposet_lt(x), P.induced(P.below(x))))
            pairs.append((P.subposet_gt(x), P.induced(P.above(x))))
            for y in P.above(x):
                pairs.append((P.open_interval(x, y),
                              P.induced(P.above(x) & P.below(y))))
        for got, want in pairs:
            assert got.elements == want.elements
            assert got.up_sets() == want.up_sets()
        # a fiber over every element is the source itself
        f = constant_map(P, FinitePoset(["p"]), "p")
        assert f.fiber_le("p") is P and f.fiber_ge("p") is P
    assert disconnected >= 10


def test_mapping_cone_gives_cofiber():
    # the cofiber of the constant map off a 0-sphere is a circle
    X = antichain(2)
    pt = FinitePoset(["p"])
    C, _, _, _ = mapping_cone(constant_map(X, pt, "p"))
    assert reduced_homology(C).betti == {1: 1}


def test_check_isomorphism():
    P = chain(3)
    Q = FinitePoset("abc", [("a", "b"), ("b", "c")])
    assert check_isomorphism(P, Q, {0: "a", 1: "b", 2: "c"})
    assert not check_isomorphism(P, Q, {0: "b", 1: "a", 2: "c"})
    assert not check_isomorphism(P, antichain(3), {0: 0, 1: 1, 2: 2})
    # incomparable elements glued together pass every order test, but the
    # map is not onto a poset of the same size, or not onto at all
    flat = FinitePoset("abc")
    assert check_isomorphism(antichain(3), flat, {0: "c", 1: "a", 2: "b"})
    assert not check_isomorphism(antichain(3), flat, {0: "a", 1: "a", 2: "b"})
    assert not check_isomorphism(antichain(3), FinitePoset("ab"),
                                 {0: "a", 1: "a", 2: "b"})


def pairwise_isomorphism(P, Q, mapping):
    """The definition, pair by pair: the check that ``check_isomorphism``
    replaced by one comparison of up-sets."""
    if set(mapping) != set(P.elements):
        return False
    if len(P) != len(Q) or set(mapping.values()) != set(Q.elements):
        return False
    return all(P.lt(x, y) == Q.lt(mapping[x], mapping[y])
               for x in P for y in P if x != y)


def test_check_isomorphism_matches_the_pairwise_definition():
    # seeded random posets and random bijections, against the definition;
    # equality is the same comparison with every label kept
    rng = random.Random(13)
    outcomes = []
    for trial in range(80):
        n = rng.randrange(1, 9)
        P = random_poset(rng, n, p=rng.choice((0.2, 0.4)))
        # the other side is P itself, or a second random poset, each
        # relabeled by a random bijection f
        R = P if trial % 2 else random_poset(rng, n, p=0.3)
        names = [f"q{k}" for k in range(n)]
        rng.shuffle(names)
        f = dict(zip(range(n), names))
        Q = FinitePoset(names, [(f[x], f[y]) for x in R for y in R.above(x)])
        for g in (f, dict(zip(range(n), rng.sample(names, n)))):
            want = pairwise_isomorphism(P, Q, g)
            assert check_isomorphism(P, Q, g) == want
            outcomes.append(want)
        same = FinitePoset(reversed(range(n)),
                           [(x, y) for x in R for y in R.above(x)])
        identity = {x: x for x in P}
        assert (P == same) == pairwise_isomorphism(P, same, identity)
        outcomes.append(P == same)
    assert True in outcomes and False in outcomes


# ---------------------------------------------------------------------------
# the vertex-number core against a label-set reference

class _Ref:
    """A poset as the closed relation {label: frozenset of labels above it},
    built and queried with label sets only: the reference that the
    vertex-number core must agree with.  Its vertex order is ``order``,
    by default the labels sorted by repr."""

    def __init__(self, above, order=None):
        self.above = {x: frozenset(u) for x, u in above.items()}
        self.order = sorted(self.above, key=repr) if order is None else order

    @classmethod
    def close(cls, elements, relations):
        above = {x: set() for x in elements}
        for a, b in relations:
            above[a].add(b)
        for k in above:  # Warshall
            for x in above:
                if k in above[x]:
                    above[x] |= above[k]
        return cls(above)

    def below(self, x):
        return frozenset(y for y in self.above if x in self.above[y])

    def heights(self):
        h = {}

        def height(x):
            if x not in h:
                h[x] = 1 + max(map(height, self.below(x)), default=-1)
            return h[x]
        return {x: height(x) for x in self.order}

    def covers(self, x):
        up = self.above[x]
        return frozenset(y for y in up
                         if not any(y in self.above[z] for z in up))

    def induced(self, sub):
        sub = frozenset(sub)
        return _Ref({x: self.above[x] & sub for x in sub})

    def opposite(self):
        return _Ref({x: self.below(x) for x in self.above})


def _agrees(P, R):
    """Every query of P answers as the label-set reference R does."""
    assert P.elements == tuple(R.order)
    for x in R.order:
        assert P.above(x) == R.above[x]
        assert P.below(x) == R.below(x)
        assert P.covers(x) == R.covers(x)
        for y in R.order:
            assert P.lt(x, y) == (y in R.above[x])
    assert P.heights() == R.heights()
    assert P.dim() == max(R.heights().values(), default=-1)
    assert P.linear_extension() == sorted(R.order,
                                          key=lambda x: len(R.below(x)))
    assert list(P.relation_pairs()) == [
        (x, y) for x in R.order
        for y in sorted(R.above[x], key=R.order.index)]
    assert P == FinitePoset(R.order,
                            [(x, y) for x in R.order for y in R.above[x]])
    assert (P == FinitePoset(R.order)) == (not any(R.above.values()))


def _ref_join(X, Y):
    lx = lambda x: (0, x)
    ly = lambda y: (1, y)
    ytop = frozenset(map(ly, Y.above))
    above = {lx(x): frozenset(map(lx, u)) | ytop for x, u in X.above.items()}
    above.update((ly(y), frozenset(map(ly, u))) for y, u in Y.above.items())
    # X in its order, then Y in its order
    return _Ref(above, [lx(x) for x in X.order] + [ly(y) for y in Y.order])


def _ref_thick_join(X, Y):
    lx = lambda x: ("x", x)
    ly = lambda y: ("y", y)
    lp = lambda x, y: ("p", x, y)
    above = {}
    for x, u in X.above.items():
        above[lx(x)] = ({lx(v) for v in u}
                        | {lp(v, w) for v in u | {x} for w in Y.above})
    for y, u in Y.above.items():
        above[ly(y)] = ({ly(w) for w in u}
                        | {lp(v, w) for v in X.above for w in u | {y}})
    for x, u in X.above.items():
        for y, w in Y.above.items():
            above[lp(x, y)] = {lp(a, b) for a in u | {x}
                               for b in w | {y}} - {lp(x, y)}
    # X in its order, then Y in its order, then the products row-major
    order = ([lx(x) for x in X.order] + [ly(y) for y in Y.order]
             + [lp(x, y) for x in X.order for y in Y.order])
    return _Ref(above, order)


def _ref_cylinder(X, Y, f, cone):
    src = {x: (1, x) for x in X.above}
    tgt = {y: (0, y) for y in Y.above}
    above = {}
    for y, u in Y.above.items():
        above[tgt[y]] = ({tgt[w] for w in u}
                         | {src[x] for x in X.above if f[x] in u | {y}})
    for x, u in X.above.items():
        above[src[x]] = {src[v] for v in u}
    # the target in its order, then the source in its order, then the tip
    order = [tgt[y] for y in Y.order] + [src[x] for x in X.order]
    tip = None
    if cone:
        tip = ("cone",)
        above[tip] = set(src.values())
        order.append(tip)
    return _Ref(above, order), src, tgt, tip


def _ref_subdivision(R):
    chains = []

    def grow(c):
        chains.append(c)
        for y in sorted(R.above[c[-1]], key=R.order.index):
            grow(c + (y,))
    for x in R.order:
        grow((x,))
    # the chains in the order grow meets them
    return _Ref({c: {d for d in chains if set(c) < set(d)} for c in chains},
                chains)


_MIXED = [10, 9, "a", (1, 2), 2, "b", (0,), 100, "c", (2,), -1, "B",
          ((0, 1), (2,))]


def _random_labeled(rng, labels, n):
    """A seeded random poset on n mixed labels, and its reference:
    antichains and disjoint unions of two blocks included."""
    p = rng.choice((0.0, 0.25, 0.5))
    cut = rng.randint(0, n) if rng.random() < 0.4 else n
    names = rng.sample(labels, n)
    rel = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)
           if (i < cut) == (j < cut) and rng.random() < p]
    return FinitePoset(names, rel), _Ref.close(names, rel)


def _components(R):
    parent = {x: x for x in R.above}

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x
    for x, u in R.above.items():
        for y in u:
            parent[root(x)] = root(y)
    return len({root(x) for x in R.above})


def test_vertex_number_core_matches_a_label_set_reference():
    rng = random.Random(2024)
    seen = {"empty": 0, "antichain": 0, "disconnected": 0}
    for k in range(60):
        X, RX = _random_labeled(rng, _MIXED, k % 9)
        Y, RY = _random_labeled(rng, [("q", a) for a in _MIXED],
                                rng.randint(0, 8))
        seen["empty"] += len(X) == 0
        seen["antichain"] += len(X) > 1 and not any(RX.above.values())
        seen["disconnected"] += _components(RX) > 1
        for P, R in ((X, RX), (Y, RY)):
            _agrees(P, R)
            _agrees(P.opposite(), R.opposite())
            sub = rng.sample(R.order, rng.randint(0, len(R.order)))
            _agrees(P.induced(sub), R.induced(sub))
            if sub:
                assert P.induced(sub[1:]) != P.induced(sub)
        _agrees(join(X, Y), _ref_join(RX, RY))
        _agrees(join(X, X), _ref_join(RX, RX))
        _agrees(thick_join(X, Y), _ref_thick_join(RX, RY))
        _agrees(thick_join(X, X), _ref_thick_join(RX, RX))
        _agrees(barycentric_subdivision(X), _ref_subdivision(RX))
        if not len(Y):
            continue
        maps = [(random_monotone_map(rng, X, Y), RY)]
        if len(X):
            maps.append((random_monotone_map(rng, X), RX))
        for f, RT in maps:
            M, src, tgt = mapping_cylinder(f)
            RM, rsrc, rtgt, _ = _ref_cylinder(RX, RT, f.mapping, False)
            assert (src, tgt) == (rsrc, rtgt)
            _agrees(M, RM)
            C, src, tgt, tip = mapping_cone(f)
            RC, rsrc, rtgt, rtip = _ref_cylinder(RX, RT, f.mapping, True)
            assert (src, tgt, tip) == (rsrc, rtgt, rtip)
            _agrees(C, RC)
            # on disjoint labels (X -> Y) and colliding ones (X -> X)
            for y in f.target:
                fiber = RX.induced(x for x in RX.above
                                   if f(x) == y or f(x) in RT.above[y])
                _agrees(f.fiber_ge(y), fiber)
                _agrees(f.fiber_le(y), RX.induced(
                    x for x in RX.above if f(x) == y or y in RT.above[f(x)]))
                # the link of y in the cylinder, and the join it must equal
                link = RM.induced(RM.below(rtgt[y])
                                  | (RM.above[rtgt[y]] & set(rsrc.values())))
                expected = _ref_join(RT.induced(RT.below(y)), fiber)
                _agrees(join(f.target.subposet_lt(y), f.fiber_ge(y)),
                        expected)
                assert link.above == expected.above
                assert cylinder_link_check(f, y)
    assert min(seen.values()) >= 3, seen


def test_a_corrupted_up_set_fails_the_certificate():
    rng = random.Random(8)
    corrupted = 0
    for _ in range(40):
        P = random_poset(rng, rng.randint(2, 8), p=0.5)
        up = list(P._up)
        for i, u in enumerate(up):
            # drop from u a vertex that lies above another vertex of u
            drop = [k for j in u for k in up[j]]
            if drop:
                up[i] = u - {drop[0]}
                break
        else:
            continue
        with pytest.raises(CertificateError, match="not transitively closed"):
            FinitePoset._trusted(P.elements, up)
        corrupted += 1
    assert corrupted >= 10


# Draws of random_poset and random_monotone_map pinned before posets were
# stored over vertex numbers; the random-props benchmark and the
# core-props suite draw their inputs through them.  Per seed, three rounds
# of (|X|, relation pairs of X, |Y|, relation pairs of Y, f: X -> Y,
# g: X -> X), with Y's labels ("q", j) written as j.
_PINNED_DRAWS = {
    0: [(7, [(0, 1), (0, 4), (0, 5), (0, 6), (1, 4), (1, 5), (1, 6), (2, 3),
             (2, 6), (3, 6), (4, 5), (4, 6)],
         6, [(0, 5), (1, 5), (2, 5)],
         [5, 5, 0, 5, 5, 5, 5], [1, 4, 4, 4, 4, 6, 5]),
        (2, [],
         8, [(0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (1, 4), (1, 5), (1, 6),
             (2, 5), (3, 4), (3, 5), (3, 6), (3, 7), (4, 5), (4, 6)],
         [4, 3], [0, 1]),
        (5, [(1, 4), (3, 4)], 1, [], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0])],
    1: [(3, [(1, 2)], 8, [(0, 3), (1, 4), (1, 7), (2, 4), (2, 6)],
         [4, 0, 3], [2, 2, 2]),
        (3, [(1, 2)],
         6, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 4), (2, 5), (3, 4), (3, 5),
             (4, 5)],
         [5, 1, 3], [2, 2, 2]),
        (2, [], 2, [], [1, 1], [1, 0])],
    7: [(6, [(0, 2), (0, 4), (0, 5), (1, 4), (2, 5)], 1, [],
         [0, 0, 0, 0, 0, 0], [5, 5, 5, 5, 5, 5]),
        (5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4)],
         7, [(0, 4), (0, 5), (0, 6), (1, 2), (1, 4), (1, 6), (2, 4), (2, 6),
             (4, 6)],
         [6, 6, 6, 6, 6], [4, 4, 4, 4, 4]),
        (2, [],
         8, [(0, 2), (0, 3), (0, 5), (0, 6), (0, 7), (1, 2), (1, 3), (1, 4),
             (1, 5), (1, 6), (1, 7), (2, 3), (2, 5), (2, 6), (2, 7), (3, 5),
             (3, 6), (3, 7), (5, 6), (5, 7), (6, 7)],
         [6, 3], [0, 0])],
}

# sha256 of the repr of 300 rounds of random-props' draw sequence (X, Y and
# f: X -> Y as relation pairs and mapped values), per seed
_PINNED_DRAW_DIGESTS = {
    0: "75447a13d5834d5566aa1afe8fdfcf96e31ceca00bead05305240b6e7757e79f",
    7: "ef52c43acf2364203b10939281189c34ee7d3d3d256c7c3c9b892f337a57f349",
}


def _draw_pair(rng):
    # the size and density choices of random-props and core-props
    X = random_poset(rng, rng.randint(1, 8), p=rng.choice((0.15, 0.3, 0.5)))
    Yraw = random_poset(rng, rng.randint(1, 8),
                        p=rng.choice((0.15, 0.3, 0.5)))
    Y = FinitePoset([("q", y) for y in Yraw.elements],
                    [(("q", a), ("q", b)) for a, b in Yraw.relation_pairs()])
    return X, Y, random_monotone_map(rng, X, Y)


def test_random_draws_are_pinned():
    for seed, want in _PINNED_DRAWS.items():
        rng = random.Random(seed)
        got = []
        for _ in range(3):
            X, Y, f = _draw_pair(rng)
            g = random_monotone_map(rng, X)
            got.append((len(X), list(X.relation_pairs()), len(Y),
                        [(a[1], b[1]) for a, b in Y.relation_pairs()],
                        [f(x)[1] for x in X], [g(x) for x in X]))
        assert got == want, seed
    for seed, want in _PINNED_DRAW_DIGESTS.items():
        rng = random.Random(seed)
        draws = []
        for _ in range(300):
            X, Y, f = _draw_pair(rng)
            draws.append((list(X.relation_pairs()), list(Y.relation_pairs()),
                          [f(x) for x in X]))
        assert hashlib.sha256(repr(draws).encode()).hexdigest() == want, seed
