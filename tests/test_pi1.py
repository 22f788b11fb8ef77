"""The fundamental-group layer on its own: Tietze reduction, coset
enumeration and the probe's verdicts on spaces with known groups."""

import random
from collections import deque

import pytest

from symposet import complexes, pi1
from symposet.builders import build_O, flag_to_decomposition
from symposet.complexes import order_complex
from symposet.homology import map_connectivity
from symposet.pi1 import (coset_enumeration_trivial, edge_path_presentation,
                          pi1_probe, tietze_reduce)
from symposet.posets import (FinitePoset, barycentric_subdivision,
                             mapping_cone, random_poset)
from symposet.rings import PrimeField
from symposet.symplectic import SymplecticModule
from symposet.trees import tree_forget_map

from test_homology import (RP2_FACES, _depth_first_order_complex, face_poset,
                           subsets_poset)


F2, F3 = PrimeField(2), PrimeField(3)


def skeleton_of(P):
    return order_complex(P, max_dim=2).by_dim


# ---------------------------------------------------------------------------
# references: the plain round loop that tietze_reduce must reproduce, and
# the edge-path presentation of the whole 2-skeleton, before any collapse

def _reference_reduce(w):
    out = []
    for g in w:
        if out and out[-1] == -g:
            out.pop()
        else:
            out.append(g)
    while len(out) >= 2 and out[0] == -out[-1]:
        out = out[1:-1]
    return out


def reference_tietze(n_gens, relators, rounds=200):
    words = [list(w) for w in relators]
    alive = set(range(1, n_gens + 1))
    for _ in range(rounds):
        words = [_reference_reduce(w) for w in words]
        words = [w for w in words if w]
        killed = {abs(w[0]) for w in words if len(w) == 1}
        if killed:
            alive -= killed
            words = [[g for g in w if abs(g) not in killed] for w in words]
            continue
        pair = next((w for w in words if len(w) == 2 and abs(w[0]) != abs(w[1])), None)
        if pair is not None:
            g, h = abs(pair[0]), abs(pair[1])
            s = 1 if pair[0] > 0 else -1
            t = 1 if pair[1] > 0 else -1
            e = -t * s
            words = [[l if abs(l) != g else (e * h if l > 0 else -e * h) for l in w]
                     for w in words]
            alive.discard(g)
            continue
        occ = {}
        for w in words:
            for l in w:
                occ[abs(l)] = occ.get(abs(l), 0) + 1
        lone = next((g for g in sorted(alive) if occ.get(g, 0) == 1), None)
        if lone is not None:
            words = [w for w in words if all(abs(l) != lone for l in w)]
            alive.discard(lone)
            continue
        break
    new_id = {g: i + 1 for i, g in enumerate(sorted(alive))}
    words = [[(new_id[abs(l)] if l > 0 else -new_id[abs(l)]) for l in w] for w in words]
    return len(alive), words


def _tree(n_verts, edges):
    """The edges of the probe's breadth-first spanning tree, in both
    orientations, or None if the graph is empty or disconnected: the root
    is a vertex of largest degree, the largest number among those, and
    neighbours are taken in vertex-number order."""
    if not n_verts:
        return None
    adj = [[] for _ in range(n_verts)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    root = max(range(n_verts), key=lambda v: (len(adj[v]), v))
    seen = {root}
    tree = set()
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for w in sorted(adj[v]):
            if w not in seen:
                seen.add(w)
                tree.update(((v, w), (w, v)))
                queue.append(w)
    if len(seen) < n_verts:
        return None
    return tree


def raw_edge_path_presentation(skeleton):
    """Every non-tree edge a generator, every triangle a relator."""
    verts, edges, tris = (*skeleton, [], [], [])[:3]
    tree = _tree(len(verts), edges)
    if tree is None:
        return None
    gen_of = {}
    n = 0
    for e in edges:
        if e in tree:
            gen_of[e] = 0
        else:
            n += 1
            gen_of[e] = n
    relators = []
    for x, y, z in tris:
        word = [g for g in (gen_of[(x, y)], gen_of[(y, z)], -gen_of[(x, z)])
                if g]
        if word:
            relators.append(word)
    return n, relators


def strip_skeleton(m):
    """A disk: m squares in a row, each cut into two triangles.  Its
    spanning tree leaves a kill chain about 2m rounds deep."""
    edges, tris = set(), []
    for i in range(m):
        a0, b0, a1, b1 = 2 * i, 2 * i + 1, 2 * i + 2, 2 * i + 3
        for x, y, z in ((a0, b0, b1), (a0, a1, b1)):
            tris.append((x, y, z))
            edges |= {(x, y), (y, z), (x, z)}
    return [[(v,) for v in range(2 * m + 2)], sorted(edges), tris]


def strip_poset(m):
    """The face poset of the strip: its order complex is the strip's
    barycentric subdivision, a disk whose kill chain is as deep."""
    return face_poset(strip_skeleton(m)[2])


def closure_oracle(skeleton):
    """The collapsed presentation by the triangle rule: from the spanning
    tree's edges, the third edge of every triangle with two dead edges
    dies, through a worklist over an edge -> triangle index, until no
    triangle has exactly one live edge.  The live edges are the generators
    1, 2, ... in edge order, and each triangle (x, y, z) with a live edge
    gives its live letters of xy, yz, (xz)^-1."""
    verts, edges, tris = (*skeleton, [], [], [])[:3]
    tree = _tree(len(verts), edges)
    if tree is None:
        return None
    dead = tree.intersection(edges)
    sides = [((x, y), (y, z), (x, z)) for x, y, z in tris]
    on = {e: [] for e in edges}
    for s in sides:
        for e in s:
            on[e].append(s)
    # each dead edge is looked at once; the later of a triangle's two
    # dead edges finds its third edge still live, if it is
    work = list(dead)
    while work:
        for s in on[work.pop()]:
            live = [e for e in s if e not in dead]
            if len(live) == 1:
                dead.add(live[0])
                work.append(live[0])
    gen = {e: k + 1 for k, e in enumerate(e for e in edges if e not in dead)}
    relators = []
    for xy, yz, xz in sides:
        word = [g for g in (gen.get(xy, 0), gen.get(yz, 0), -gen.get(xz, 0))
                if g]
        if word:
            relators.append(word)
    return len(gen), relators


def _random_presentation(rng):
    n = rng.randint(1, 9)
    relators = []
    # half the presentations have only relators of pairwise distinct
    # generators, as edge-path ones do
    distinct = rng.random() < 0.5
    for _ in range(rng.randint(0, 12)):
        length = rng.choice((0, 1, 1, 2, 2, 3, 3, 3, 4, 5, 7))
        if distinct or rng.random() < 0.6:
            gens = rng.sample(range(1, n + 1), min(length, n))
        else:
            gens = [rng.randint(1, n) for _ in range(length)]
        relators.append([rng.choice((1, -1)) * g for g in gens])
    return n, relators


def _abelianization(n_gens, relators):
    """(free rank, torsion factors) of the presented group's
    abelianization."""
    inv = pi1.abelianization_invariants(relators)
    return n_gens - len(inv), [v for v in inv if v > 1]


def test_tietze_keeps_the_abelianization_on_random_presentations():
    rng = random.Random(5)
    for _ in range(2500):
        n, relators = _random_presentation(rng)
        rounds = rng.choice((0, 1, 2, 3, 4, 6, 200))
        given = [list(w) for w in relators]
        assert _abelianization(*tietze_reduce(n, given, rounds)) == \
            _abelianization(n, relators)
        assert given == relators  # the input is not rewritten


def _agrees_with_the_raw_route(monkeypatch, P, rounds=200):
    """The collapsed presentation of P's order complex reduces as the raw
    one does, and the probe answers the same on both."""
    pres = edge_path_presentation(P)
    raw = raw_edge_path_presentation(skeleton_of(P))
    if raw is None:
        assert pres is None
        return False
    assert tietze_reduce(*pres) == reference_tietze(*raw, rounds)
    answer = pi1_probe(P)
    with monkeypatch.context() as m:
        m.setattr(pi1, "edge_path_presentation",
                  lambda P: raw_edge_path_presentation(skeleton_of(P)))
        assert pi1_probe(P) == answer
    return True


def test_collapsed_presentation_matches_the_raw_route(monkeypatch):
    rng = random.Random(8)
    checked = 0
    for _ in range(60):
        P = random_poset(rng, rng.randint(2, 9), p=rng.choice((0.2, 0.35, 0.5)))
        for Q in (P, barycentric_subdivision(P)):
            checked += _agrees_with_the_raw_route(monkeypatch, Q)
    assert checked >= 40
    for P in (face_poset(RP2_FACES), subsets_poset(3), subsets_poset(4),
              subsets_poset(5), FinitePoset([0, 1])):
        _agrees_with_the_raw_route(monkeypatch, P)


def test_collapse_has_no_round_cap(monkeypatch):
    # the raw route's Tietze rounds run out before the strip is gone (668
    # of its 1,800 generators are left after 200 rounds); the collapse
    # clears it, as the rounds do given rounds enough
    P = strip_poset(150)
    raw = raw_edge_path_presentation(skeleton_of(P))
    assert reference_tietze(*raw)[0] > 0
    assert edge_path_presentation(P) == (0, [])
    _agrees_with_the_raw_route(monkeypatch, P, rounds=1000)
    assert pi1_probe(P) == "trivial"


def renumbered(P, perm):
    """P with vertex i renumbered perm[i]: the same order, so the same
    complex, met by the collapse in another order."""
    up = P.up_sets()
    elements, new_up = [None] * len(up), [None] * len(up)
    for i, u in enumerate(up):
        elements[perm[i]] = P.elements[i]
        new_up[perm[i]] = frozenset(map(perm.__getitem__, u))
    return FinitePoset._trusted(elements, new_up)


def test_collapse_matches_the_closure_oracle():
    # the collapse kills an edge whose ends share a dead neighbour, the
    # oracle the last live edge of a triangle; on an order complex the
    # two rules are one, and each reaches the least closed set of dead
    # edges that holds the tree, whatever order it kills in.  The collapse
    # sweeps the vertices in tree order, so each poset is also met with
    # its vertices shuffled: kills then reach vertices the sweep has
    # passed, which must be visited again
    rng, shuffler = random.Random(2402), random.Random(3307)

    def shuffled(P):
        perm = list(range(len(P)))
        shuffler.shuffle(perm)
        return renumbered(P, perm)

    posets = []
    for _ in range(120):
        P = random_poset(rng, rng.randint(3, 8), p=rng.choice((0.3, 0.45, 0.6)))
        Q = barycentric_subdivision(P)
        posets += [P, Q, shuffled(P), shuffled(Q)]
    # O(3, F_2) collapses entirely, but one sweep in tree order that
    # visits no vertex twice leaves some of its edges live
    O = build_O(3, F2)
    posets += [face_poset(RP2_FACES), subsets_poset(5), build_O(2, F3),
               O, O.opposite(), shuffled(O)]
    L = SymplecticModule.standard(F2, 2)
    cone = mapping_cone(tree_forget_map(L))[0]
    flag_cone = mapping_cone(flag_to_decomposition(L))[0]
    strip = strip_poset(150)
    posets += [cone, flag_cone, strip]
    checked = collapsed = 0
    for P in posets:
        succ = P.successors()
        assert type(succ) is tuple and all(type(s) is tuple for s in succ)
        cx = order_complex(P, max_dim=2)
        assert (cx.by_dim, cx.complete) == _depth_first_order_complex(P, 2)
        s = cx.by_dim
        pres = edge_path_presentation(P)
        assert pres == closure_oracle(s)
        if pres is not None:
            checked += 1
            # fewer generators than the edges off the tree: a triangle fired
            collapsed += pres[0] < len(s[1]) - len(s[0]) + 1
    assert checked >= 200 and collapsed >= 160
    # the cones of the genus-2 forget and flag maps collapse entirely, as
    # do O(3, F_2) and the strip, a disk
    for P in (cone, flag_cone, O, strip):
        assert edge_path_presentation(P) == (0, [])
    # a kill chain thousands of edges deep: a loop that sweeps every edge
    # until a sweep kills nothing takes quadratic time here.  Reversing
    # the vertex numbers, or the order, runs the chain against the sweep
    P = strip_poset(2400)
    backwards = renumbered(P, range(len(P))[::-1])
    for Q in (P, backwards, P.opposite(), backwards.opposite()):
        s = skeleton_of(Q)
        assert len(s[1]) == 48_002
        assert edge_path_presentation(Q) == closure_oracle(s) == (0, [])


def test_successors_are_sorted_only_when_an_edge_survives(monkeypatch):
    # a collapse that leaves nothing numbers no generator and streams no
    # triangle, so it sorts no successor list; a probing map verdict then
    # sorts them once, for its order complex
    calls = []
    successors = FinitePoset.successors

    def counted(self):
        calls.append(self)
        return successors(self)

    monkeypatch.setattr(FinitePoset, "successors", counted)
    L = SymplecticModule.standard(F2, 2)
    maps = (tree_forget_map(L), flag_to_decomposition(L))
    # each poset with the number of sorts its probe makes
    cases = [(mapping_cone(f)[0], 0) for f in maps]
    cases += [(strip_poset(150), 0), (face_poset(RP2_FACES), 1),
              (build_O(2, F3), 1)]
    for P, sorts in cases:
        calls.clear()
        n_gens, _ = edge_path_presentation(P)
        assert (n_gens > 0) == sorts and len(calls) == sorts
        calls.clear()
        pi1_probe(P)
        assert len(calls) == sorts
    for f in maps:
        calls.clear()
        assert map_connectivity(f, 2).basis == "homology+pi1"
        assert len(calls) == 1


@pytest.mark.slow
def test_the_genus3_complexes_collapse_on_both_routes():
    # the two probes of the large benchmark, the cone of the genus-3
    # forget map and O(3, F_3), collapse entirely; the forget map's ends,
    # D_3^+ and TD_3, keep large presentations, which number generators
    # and stream triangles from the successor lists
    L = SymplecticModule.standard(F2, 3)
    f = tree_forget_map(L)
    for P in (mapping_cone(f)[0], build_O(3, F3)):
        assert edge_path_presentation(P) == \
            closure_oracle(skeleton_of(P)) == (0, [])
    for P, n_gens, n_relators in ((f.target, 1905, 0), (f.source, 5805, 3900)):
        pres = edge_path_presentation(P)
        assert pres == closure_oracle(skeleton_of(P))
        assert (pres[0], len(pres[1])) == (n_gens, n_relators)


def test_tietze_kills_in_rounds_not_all_at_once():
    # b dies one round after a; killing both before reducing the long
    # word would leave another cyclic rotation of it
    a, b, x, y = 1, 2, 3, 4
    relators = [[a, x, b, -x, y, -b, -x], [a], [b, a], [x, x, y]]
    assert tietze_reduce(4, relators) == reference_tietze(4, relators)
    for rounds in range(5):
        assert tietze_reduce(4, relators, rounds) == \
            reference_tietze(4, relators, rounds)


def test_kill_closure_frees_a_chain():
    # each kill leaves the next relator with one live letter, so the loop
    # takes one round per link
    n = 50
    relators = [[1]] + [[g, -(g + 1)] for g in range(1, n)]
    assert tietze_reduce(n, relators) == (0, [])
    assert tietze_reduce(n, relators, n)[0] == 0
    assert tietze_reduce(n, relators, n - 1)[0] == 1
    # with fewer rounds than links it stops where the plain loop does
    assert tietze_reduce(n, relators, 10) == reference_tietze(n, relators, 10)


# ---------------------------------------------------------------------------
# coset enumeration

def test_coset_enumeration_finds_the_order_of_a5():
    a, b = 1, 2
    relators = [[a, a], [b, b, b], [a, b] * 5]
    inv = pi1.abelianization_invariants(relators)
    assert inv == [1, 1]  # perfect: homology cannot see it
    assert coset_enumeration_trivial(2, relators) == 60


def test_coset_enumeration_proves_a_trivial_group():
    x, y = 1, 2
    relators = [[x, y, -x, -y, -y], [y, x, -y, -x, -x]]
    assert coset_enumeration_trivial(2, relators) == 1


def test_coset_enumeration_gives_up_past_its_bound():
    a, b = 1, 2
    relators = [[a, a], [b, b, b], [a, b] * 5]
    assert coset_enumeration_trivial(2, relators, max_cosets=20) is None


# ---------------------------------------------------------------------------
# the probe

def test_probe_verdicts_on_known_spaces():
    for P, answer in ((subsets_poset(3), "nontrivial"),  # a circle
                      (face_poset(RP2_FACES), "nontrivial"),  # Z/2
                      (subsets_poset(4), "trivial"),  # a 2-sphere
                      (FinitePoset([0, 1]), "unknown"),  # disconnected
                      (FinitePoset([]), "unknown")):  # empty, so not connected
        assert pi1_probe(P) == answer


def test_probe_reads_only_the_poset(monkeypatch):
    # the probe enumerates no complex: its edges and triangles come from
    # the successor tuples, and its presentation is the one the closure
    # oracle reads off the enumerated 2-skeleton
    L = SymplecticModule.standard(F2, 2)
    posets = [(build_O(2, F3), "nontrivial"),  # a graph: free of rank 41
              (face_poset(RP2_FACES), "nontrivial"),  # Z/2
              (mapping_cone(flag_to_decomposition(L))[0], "trivial")]
    expected = [closure_oracle(skeleton_of(P)) for P, _ in posets]

    def refuse(*args, **kwargs):
        raise AssertionError("the probe enumerated an order complex")

    monkeypatch.setattr(complexes, "order_complex", refuse)
    monkeypatch.setattr(pi1, "order_complex", refuse)
    for (P, answer), pres in zip(posets, expected):
        assert edge_path_presentation(P) == pres
        assert pi1_probe(P) == answer
