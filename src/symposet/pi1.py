"""Bounded fundamental-group probe for order complexes.

The probe answers "trivial", "nontrivial", or "unknown" about the
fundamental group of the order complex of a connected poset, and it is
sound: a definite answer is backed either by a nontrivial abelianization
(certainly nontrivial), by a completed coset enumeration (exact group
order), or by a presentation that simplifies away entirely.  Whenever a
bound trips it says "unknown" instead of guessing.

The presentation is the classical edge-path one on the 2-skeleton: spanning
tree edges die, the remaining edges generate, triangles give relators.
Rooting the tree at a maximal-degree vertex makes cones collapse
immediately, since every non-tree edge then closes a triangle with two
tree edges through the apex.  A verdict whose homology step has already
enumerated the order complex through dimension 2 hands those simplex
lists over (``skeleton``), so the probe does not enumerate them again.

When every relator has pairwise distinct generators, as every edge-path
relator has, Tietze reduction first closes the generator kills: a relator
kills its last live generator, and a worklist over a generator -> relator
index finds every such relator as the kills spread, in the same rounds as
the plain loop, without rewriting the words.  The round loop then runs on
the words that still hold a live letter.
"""

from __future__ import annotations

from collections import deque

from .complexes import DEFAULT_BUDGET, order_complex
from .posets import FinitePoset
from .snf import smith_invariants

MAX_COSETS = 40_000
_MAX_RELATOR_MASS = 400_000
_TIETZE_ROUNDS = 200


def edge_path_presentation(P: FinitePoset, budget=DEFAULT_BUDGET,
                           skeleton=None):
    """(n_gens, relators) from the 2-skeleton, or None if disconnected.

    Relators are lists of signed generator indices (1-based); traversing
    the edge (a, b) with a < b forwards is +g, backwards is -g.  Vertices
    are the complex's vertex numbers; the tree is rooted at a vertex of
    largest degree, the largest number among those, and grown breadth
    first in vertex-number order.  ``skeleton`` is the simplex lists of
    dimensions 0 to 2 of P's order complex (``OrderComplex.by_dim[:3]``)
    when the caller has them; otherwise they are enumerated here.
    """
    if skeleton is None:
        skeleton = order_complex(P, max_dim=2, budget=budget).by_dim
    n_verts = len(skeleton[0]) if skeleton else 0
    edges = skeleton[1] if len(skeleton) > 1 else []
    tris = skeleton[2] if len(skeleton) > 2 else []
    if not n_verts:
        return 0, []
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
                # both orientations, so the complex's own edge matches
                tree.update(((v, w), (w, v)))
                queue.append(w)
    if len(seen) < n_verts:
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
        word = []
        for g in (gen_of[(x, y)], gen_of[(y, z)], -gen_of[(x, z)]):
            if g:
                word.append(g)
        if word:
            relators.append(word)
    return n, relators


def _free_cyclic_reduce(w):
    out = []
    for g in w:
        if out and out[-1] == -g:
            out.pop()
        else:
            out.append(g)
    while len(out) >= 2 and out[0] == -out[-1]:
        out = out[1:-1]
    return out


def _close_kills(words, rounds):
    """The opening kill rounds of ``tietze_reduce``, without rewriting
    every word, for words of pairwise distinct generators.

    Such words are freely and cyclically reduced and stay so as letters
    die, so a round only has to count each word's live letters, through an
    index from generators to words: a word down to one live letter kills
    it in the next round.  Stops when a round kills nothing, or with one
    round of the budget left, so that the loop ends exactly where it would
    have.  Returns the words that still hold a live letter, in order, the
    dead generators and the number of rounds used.
    """
    live = [len(w) for w in words]
    index = {}
    for i, w in enumerate(words):
        for l in w:
            index.setdefault(abs(l), []).append(i)
    dead = set()
    kills = {abs(w[0]) for w in words if len(w) == 1}
    used = 0
    while kills and used < rounds - 1:
        used += 1
        dead |= kills
        ones = []  # words that came down to one live letter
        for g in kills:
            for i in index.get(g, ()):
                live[i] -= 1
                if live[i] == 1:
                    ones.append(i)
        kills = {abs(l) for i in ones for l in words[i] if abs(l) not in dead}
    out = [w if n == len(w) else [l for l in w if abs(l) not in dead]
           for w, n in zip(words, live) if n]
    return out, dead, used


def tietze_reduce(n_gens, relators, rounds=_TIETZE_ROUNDS):
    """Shrink a presentation; returns (n_gens, relators) renumbered."""
    words = [list(w) for w in relators]
    alive = set(range(1, n_gens + 1))
    if rounds > 0 and all(len(set(map(abs, w))) == len(w) for w in words):
        words, dead, used = _close_kills(words, rounds)
        alive -= dead
        rounds -= used
    for _ in range(rounds):
        words = [_free_cyclic_reduce(w) for w in words]
        words = [w for w in words if w]
        killed = {abs(w[0]) for w in words if len(w) == 1}
        if killed:
            alive -= killed
            words = [[g for g in w if abs(g) not in killed] for w in words]
            continue
        pair = next((w for w in words if len(w) == 2 and abs(w[0]) != abs(w[1])), None)
        if pair is not None:
            # g^s h^t = 1, so g = h^(-t*s); rewrite g away
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
            # the single relator mentioning it defines it; drop both
            words = [w for w in words if all(abs(l) != lone for l in w)]
            alive.discard(lone)
            continue
        break
    new_id = {g: i + 1 for i, g in enumerate(sorted(alive))}
    words = [[(new_id[abs(l)] if l > 0 else -new_id[abs(l)]) for l in w] for w in words]
    return len(alive), words


def abelianization_invariants(relators):
    """Invariant factors of the relation matrix, one column per relator."""
    cols = {}
    for i, w in enumerate(relators):
        col = {}
        for g in w:
            r = abs(g) - 1
            col[r] = col.get(r, 0) + (1 if g > 0 else -1)
        cols[i] = {r: v for r, v in col.items() if v}
    return smith_invariants(cols)


def coset_enumeration_trivial(n_gens, relators, max_cosets=MAX_COSETS):
    """Order of the presented group if a bounded HLT enumeration closes.

    Returns None on overflow or if the finished table fails its own
    verification sweep; a returned N means a verified transitive action
    on N points exists, and by coset-enumeration completeness N is the
    group order.
    """
    rels = [w for w in relators if w]
    if n_gens == 0:
        return 1
    tab = [None, {}]
    p = [0, 1]
    pending = deque()
    nxt = 2

    def rep(a):
        r = a
        while p[r] != r:
            r = p[r]
        while p[a] != r:
            p[a], a = r, p[a]
        return r

    def join(a, b):
        a = rep(a)
        b = rep(b)
        if a != b:
            if a > b:
                a, b = b, a
            p[b] = a
            pending.append(b)

    def settle():
        # transfer each dead row onto representatives; never delete live
        # entries, stale values are normalized away at the end
        while pending:
            d = pending.popleft()
            row = tab[d]
            tab[d] = None
            for x, t in row.items():
                m = rep(d)
                rt = rep(t)
                cur = tab[m].get(x)
                if cur is None:
                    tab[m][x] = rt
                elif rep(cur) != rt:
                    join(rep(cur), rt)
                m = rep(d)
                rt = rep(t)
                cur = tab[rt].get(-x)
                if cur is None:
                    tab[rt][-x] = m
                elif rep(cur) != m:
                    join(rep(cur), m)

    def scan_and_fill(a, w):
        nonlocal nxt
        f = a
        i = 0
        b = a
        j = len(w) - 1
        while True:
            while i <= j:
                nf = tab[f].get(w[i])
                if nf is None:
                    break
                f = rep(nf)
                i += 1
            if i > j:
                if f != b:
                    join(f, b)
                    settle()
                return True
            while j >= i:
                nb = tab[b].get(-w[j])
                if nb is None:
                    break
                b = rep(nb)
                j -= 1
            if j < i:
                join(f, b)
                settle()
                return True
            if i == j:
                tab[f][w[i]] = b
                tab[b][-w[i]] = f
                return True
            if nxt > max_cosets:
                return False
            tab.append({})
            p.append(nxt)
            tab[f][w[i]] = nxt
            tab[nxt][-w[i]] = f
            nxt += 1

    alpha = 1
    while alpha < nxt:
        if p[alpha] != alpha:
            alpha += 1
            continue
        for w in rels:
            if not scan_and_fill(alpha, w):
                return None
            if p[alpha] != alpha:
                break
        if p[alpha] == alpha:
            for g in range(1, n_gens + 1):
                for x in (g, -g):
                    if x not in tab[alpha]:
                        if nxt > max_cosets:
                            return None
                        tab.append({})
                        p.append(nxt)
                        tab[alpha][x] = nxt
                        tab[nxt][-x] = alpha
                        nxt += 1
        alpha += 1
    live = [i for i in range(1, nxt) if p[i] == i]
    for a in live:
        row = tab[a]
        for x in list(row):
            row[x] = rep(row[x])
    for a in live:
        row = tab[a]
        for g in range(1, n_gens + 1):
            for x in (g, -g):
                t = row.get(x)
                if t is None or p[t] != t or tab[t].get(-x) != a:
                    return None
    for a in live:
        for w in rels:
            c = a
            for x in w:
                c = tab[c][x]
            if c != a:
                return None
    return len(live)


def pi1_probe(P: FinitePoset, budget=DEFAULT_BUDGET, skeleton=None) -> str:
    """"trivial" / "nontrivial" / "unknown" for the order complex group.

    ``skeleton`` is passed on to ``edge_path_presentation``.
    """
    pres = edge_path_presentation(P, budget, skeleton)
    if pres is None:
        return "unknown"
    n, rels = tietze_reduce(*pres)
    if n == 0:
        return "trivial"
    inv = abelianization_invariants(rels)
    if len(inv) < n or any(v != 1 for v in inv):
        return "nontrivial"
    if sum(len(w) for w in rels) > _MAX_RELATOR_MASS:
        return "unknown"
    order = coset_enumeration_trivial(n, rels)
    if order is None:
        return "unknown"
    return "trivial" if order == 1 else "nontrivial"
