"""Bounded fundamental-group probe for order complexes.

The probe answers "trivial", "nontrivial", or "unknown" about the
fundamental group of a poset's order complex, and it is sound: a definite
answer is backed either by a nontrivial abelianization (certainly
nontrivial), by a completed coset enumeration (exact group order), or by
a presentation that simplifies away entirely.  Whenever a bound trips,
and on an empty or disconnected complex, it says "unknown" instead of
guessing.

The presentation is the edge-path one, read off after two collapses
(Forman's discrete Morse theory): the edges of a spanning tree die, then
the last live edge of each triangle whose other edges are dead.  The
surviving edges generate and the triangles that keep one give relators;
Tietze reduction runs its rounds on those.  An order complex is a flag
complex: three pairwise comparable vertices form a chain, so a triangle.
The second collapse is therefore read off the vertices alone, with no
triangle index: an edge xz dies when x and z have a common dead
neighbour.  It runs as one sweep over the vertices in tree order, each
vertex rescanned until it kills nothing and visited again only when a
neighbour kills one of its edges.  That rule holds only on an order
complex, so the probe takes the poset alone and reads the vertices and
edges off its up-sets; only when some edge survives does it read the
sorted successor tuples, to number the generators and stream the
triangles in the order ``complexes.order_complex`` lists them.  Rooting
the tree at a vertex of largest degree makes cones collapse at once:
every other edge has two ends that the tree joins to the apex, a common
dead neighbour.
"""

from __future__ import annotations

from collections import deque

# bench/test_bench.py looks order_complex up here
from .complexes import order_complex  # noqa: F401
from .snf import smith_invariants

MAX_COSETS = 40_000
_MAX_RELATOR_MASS = 400_000
_TIETZE_ROUNDS = 200


def edge_path_presentation(P):
    """(n_gens, relators) of the 2-skeleton of P's order complex, or None
    if it is empty or disconnected.

    The vertices are P's vertex numbers, the edges the pairs (x, y) with y
    in ``succ[x]`` and the triangles the chains (x, y, z) with z in
    ``succ[y]``, for the successor tuples ``succ``, in that order.  The
    edges of a breadth-first spanning tree die first.  Then an edge xz
    dies when x and z have a common dead neighbour y: {x, y, z} is then
    pairwise comparable, a chain, so a triangle of the order complex whose
    other two edges are dead.  The kills are made in one sweep over the
    vertices in tree order: at each vertex v every live edge vu whose ends
    share a dead neighbour dies, and v is rescanned until it kills
    nothing; a vertex u that gains a dead neighbour so is queued to be
    visited again, as a live edge can newly die only at an end whose dead
    set grew.  The sweep ends when no vertex is queued.  The rule only
    ever adds dead edges, so the closure is the least set of dead edges
    that holds the tree and is closed under it, whatever order the kills
    come in.  Only when some edge survives are the successor tuples
    sorted: the surviving edges are the generators 1, 2, ... in edge
    order, and each triangle (x, y, z) that keeps one gives the relator of
    its live letters of xy, yz, (xz)^-1, in that order, where an edge
    (a, b) read from b to a is -g.
    """
    up = P.up_sets()
    n = len(up)
    if not n:
        return None
    down = [[] for _ in up]
    for x, u in enumerate(up):
        for y in u:
            down[y].append(x)
    # each vertex's neighbours, the ones above and then the ones below
    nbrs = [(*u, *d) for u, d in zip(up, down)]
    del down
    deg = list(map(len, nbrs))
    # the root is a vertex of largest degree, the largest number among
    # those, and each vertex meets its new neighbours in number order
    root = max(range(n), key=lambda v: (deg[v], v))
    dead = [None] * n  # each vertex's dead neighbours
    dead[root] = set()
    seen = bytearray(n)
    seen[root] = 1
    order = [root]
    for v in order:  # breadth first: the list grows as it is read
        if len(order) == n:
            break
        new = sorted(w for w in nbrs[v] if not seen[w])
        for w in new:
            seen[w] = 1
            dead[w] = {v}
        dead[v].update(new)
        order += new
    if len(order) < n:
        return None
    # sweep the vertices in tree order; a vertex is rescanned until it
    # kills nothing, and queued again when a neighbour kills its edge
    queued = bytearray(b"\x01") * n
    work = deque(order)
    while work:
        v = work.popleft()
        queued[v] = 0
        dv = dead[v]
        d = deg[v]
        killed = True
        while killed and len(dv) < d:
            killed = False
            for u in nbrs[v]:
                if u not in dv and not dv.isdisjoint(dead[u]):
                    dv.add(u)
                    dead[u].add(v)
                    killed = True
                    if not queued[u]:
                        queued[u] = 1
                        work.append(u)
    if sum(map(len, dead)) == sum(deg):
        return 0, []
    succ = P.successors()
    gen = {e: i for i, e in enumerate(
        ((x, y) for x, s in enumerate(succ) for y in s
         if y not in dead[x]), 1)}
    tris = ((x, y, z) for x, s in enumerate(succ) for y in s for z in succ[y])
    relators = ([g for g in (gen.get((x, y), 0), gen.get((y, z), 0),
                             -gen.get((x, z), 0)) if g] for x, y, z in tris)
    return len(gen), [w for w in relators if w]


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


def tietze_reduce(n_gens, relators, rounds=_TIETZE_ROUNDS):
    """Shrink a presentation; returns (n_gens, relators) renumbered."""
    words = [list(w) for w in relators]
    alive = set(range(1, n_gens + 1))
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


def pi1_probe(P) -> str:
    """"trivial" / "nontrivial" / "unknown" for the group of P's order
    complex; see ``edge_path_presentation``."""
    pres = edge_path_presentation(P)
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
