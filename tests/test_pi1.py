"""The fundamental-group layer on its own: Tietze reduction, coset
enumeration and the probe's verdicts on spaces with known groups."""

import random

from symposet import pi1
from symposet.complexes import order_complex
from symposet.pi1 import (coset_enumeration_trivial, edge_path_presentation,
                          pi1_probe, tietze_reduce)
from symposet.posets import FinitePoset, barycentric_subdivision, random_poset

from test_homology import RP2_FACES, face_poset, subsets_poset


# ---------------------------------------------------------------------------
# reference: the plain round loop that tietze_reduce must reproduce

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


def _random_presentation(rng):
    n = rng.randint(1, 9)
    relators = []
    # half the presentations have only relators of pairwise distinct
    # generators, the ones the kill closure takes
    distinct = rng.random() < 0.5
    for _ in range(rng.randint(0, 12)):
        length = rng.choice((0, 1, 1, 2, 2, 3, 3, 3, 4, 5, 7))
        if distinct or rng.random() < 0.6:
            gens = rng.sample(range(1, n + 1), min(length, n))
        else:
            gens = [rng.randint(1, n) for _ in range(length)]
        relators.append([rng.choice((1, -1)) * g for g in gens])
    return n, relators


def test_tietze_matches_the_round_loop_on_random_presentations():
    rng = random.Random(5)
    closed = 0
    for _ in range(2500):
        n, relators = _random_presentation(rng)
        rounds = rng.choice((0, 1, 2, 3, 4, 6, 200))
        given = [list(w) for w in relators]
        assert tietze_reduce(n, given, rounds) == \
            reference_tietze(n, relators, rounds)
        assert given == relators  # the input is not rewritten
        closed += rounds > 1 and any(len(w) == 1 for w in relators) and \
            all(len(set(map(abs, w))) == len(w) for w in relators)
    assert closed >= 500


def test_tietze_matches_the_round_loop_on_edge_path_presentations():
    rng = random.Random(8)
    checked = 0
    for _ in range(60):
        P = random_poset(rng, rng.randint(2, 9), p=rng.choice((0.2, 0.35, 0.5)))
        for Q in (P, barycentric_subdivision(P)):
            pres = edge_path_presentation(Q)
            if pres is not None:
                assert tietze_reduce(*pres) == reference_tietze(*pres)
                checked += 1
    assert checked >= 40


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
    # each kill leaves the next relator with one live letter
    n = 50
    relators = [[1]] + [[g, -(g + 1)] for g in range(1, n)]
    assert tietze_reduce(n, relators) == (0, [])
    words, dead, used = pi1._close_kills([list(w) for w in relators], 200)
    assert (words, dead, used) == ([], set(range(1, n + 1)), n)
    # with fewer rounds than links the loop stops where the plain one does
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
    assert pi1_probe(subsets_poset(3)) == "nontrivial"  # a circle
    assert pi1_probe(face_poset(RP2_FACES)) == "nontrivial"  # Z/2
    assert pi1_probe(subsets_poset(4)) == "trivial"  # a 2-sphere
    assert pi1_probe(FinitePoset([0, 1])) == "unknown"  # disconnected


def test_probe_on_a_given_skeleton_matches_its_own():
    for P in (subsets_poset(3), subsets_poset(4), face_poset(RP2_FACES)):
        skeleton = order_complex(P, max_dim=3).by_dim[:3]
        assert edge_path_presentation(P, skeleton=skeleton) == \
            edge_path_presentation(P)
        assert pi1_probe(P, skeleton=skeleton) == pi1_probe(P)
