"""Order-theoretic core: construction, derived posets, joins, cylinders."""

import random

import pytest

from symposet.posets import (FinitePoset, PosetMap, barycentric_subdivision,
                             check_isomorphism, constant_map,
                             cylinder_link_check, join,
                             mapping_cone, mapping_cylinder,
                             random_monotone_map, random_poset, thick_join)
from symposet.homology import reduced_homology


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
    P = chain(3)
    assert join(P, FinitePoset([])) == P
    assert join(FinitePoset([]), P) == P


def test_thick_join_matches_join_homology():
    rng = random.Random(7)
    for _ in range(20):
        X = random_poset(rng, rng.randint(1, 6), p=0.35)
        Y = FinitePoset([("y", j) for j in range(rng.randint(1, 6))])
        a = reduced_homology(thick_join(X, Y)).betti
        b = reduced_homology(join(X, Y)).betti
        assert a == b


def test_thick_join_tagging():
    X = antichain(2)
    W = thick_join(X, X, tag_always=True)
    assert ("x", 0) in W and ("y", 0) in W and ("p", 0, 1) in W
    assert W.lt(("x", 0), ("p", 0, 1))
    assert W.lt(("y", 1), ("p", 0, 1))
    assert not W.le(("x", 0), ("y", 0)) and not W.le(("y", 0), ("x", 0))


def test_poset_map_validates_monotonicity():
    P = chain(2)
    Q = antichain(2)
    with pytest.raises(AssertionError):
        PosetMap(P, Q, {0: 0, 1: 1})
    f = PosetMap(P, P, {0: 0, 1: 1})
    assert f(1) == 1


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
        Y = FinitePoset([("q", j) for j in range(rng.randint(1, 6))],
                        [])
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
        Yr = random_poset(rng, rng.randint(1, 5), p=0.4)
        Y = FinitePoset([("q", y) for y in Yr.elements],
                        [(("q", a), ("q", b)) for a, b in Yr.relation_pairs()])
        f = random_monotone_map(rng, X, Y)
        for y in Y:
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
