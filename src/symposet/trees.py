"""Finite labeled trees under edge contraction.

A tree here is a pair (vertex count n, edge set) with vertices 0..n-1,
at least one edge, and connected.  A labeled tree carries a map from m
label indices into the vertex set whose image contains every vertex of
degree at most two.  Isomorphism classes are represented by a canonical
certificate (a rooted encoding at the tree center with per-vertex label
annotations), so dictionary keys and poset labels are certificates.

The tree decompositions TD pair a strict decomposition with a strict
labeled tree on its parts.  ``build_TD`` contracts each strict tree shape
once, into templates that group label indices, and reads the coarsening a
template's grouping names from the decomposition poset it is given, so no
contraction or part sum is redone per decomposition.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Sequence, Tuple

from .posets import FinitePoset, PosetMap
from .snf import CertificateError


def _degrees(n: int, edges) -> List[int]:
    deg = [0] * n
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    return deg


def _is_tree(n: int, edges) -> bool:
    if len(edges) != n - 1 or n < 2:
        return False
    adj = _adjacency(n, edges)
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def _adjacency(n: int, edges) -> List[List[int]]:
    adj: List[List[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def _centers(n: int, edges) -> List[int]:
    """One or two middle vertices, by stripping leaves."""
    if n == 1:
        return [0]
    adj = [set(x) for x in _adjacency(n, edges)]
    alive = set(range(n))
    layer = [v for v in alive if len(adj[v]) <= 1]
    while len(alive) > 2:
        nxt = []
        for v in layer:
            alive.discard(v)
            for w in adj[v]:
                adj[w].discard(v)
                if len(adj[w]) == 1 and w in alive:
                    nxt.append(w)
        layer = nxt
    return sorted(alive)


def tree_certificate(n: int, edges, annotation) -> Tuple:
    """Canonical form of (tree, vertex annotation); two annotated trees have
    equal certificates exactly when an isomorphism matching annotations
    exists.  ``annotation`` maps a vertex to a hashable, comparable value.
    """
    adj = _adjacency(n, edges)

    def enc(v, parent):
        subs = sorted(enc(w, v) for w in adj[v] if w != parent)
        return (annotation(v), tuple(subs))

    centers = _centers(n, edges)
    if len(centers) == 1:
        return ("c", enc(centers[0], None))
    a, b = centers
    return ("e", tuple(sorted((enc(a, b), enc(b, a)))))


class UTree:
    """A tree with a labeling from m indices covering all degree-<=2 vertices."""

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]], labeling: Sequence[int]):
        edges = tuple(sorted(tuple(sorted(e)) for e in edges))
        if not _is_tree(n, edges):
            raise ValueError("not a tree")
        labeling = tuple(labeling)
        if not all(0 <= v < n for v in labeling):
            raise ValueError("labels must be vertices")
        deg = _degrees(n, edges)
        image = set(labeling)
        if not all(v in image for v in range(n) if deg[v] <= 2):
            raise ValueError(
                "labels must cover every vertex of degree at most 2")
        self.n = n
        self.edges = edges
        self.labeling = labeling
        self.m = len(labeling)

    @property
    def strict(self) -> bool:
        return len(set(self.labeling)) == self.m

    def annotation(self, v: int) -> Tuple:
        return tuple(j for j, w in enumerate(self.labeling) if w == v)

    def certificate(self) -> Tuple:
        return tree_certificate(self.n, self.edges, self.annotation)

    def __eq__(self, other):
        if not isinstance(other, UTree):
            return NotImplemented
        return self.certificate() == other.certificate()

    def __hash__(self):
        return hash(self.certificate())

    def __repr__(self):
        return f"UTree(n={self.n}, edges={self.edges}, labeling={self.labeling})"


def _contract_plain(n: int, edges, keep) -> Tuple[int, Tuple, List[int]]:
    """Contract every component of the tree minus ``keep``; returns the new
    vertex count, new edges, and the vertex -> component map."""
    keep = {tuple(sorted(e)) for e in keep}
    if not keep:
        raise ValueError("need a nonempty edge set")
    if not keep <= set(edges):
        raise ValueError("kept edges must be edges of the tree")
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in edges:
        if tuple(sorted(e)) not in keep:
            a, b = find(e[0]), find(e[1])
            if a != b:
                parent[a] = b
    reps = sorted({find(v) for v in range(n)})
    index = {r: i for i, r in enumerate(reps)}
    comp = [index[find(v)] for v in range(n)]
    new_edges = []
    for a, b in sorted(keep):
        ca, cb = comp[a], comp[b]
        if ca == cb:
            raise CertificateError("kept edge collapsed")
        new_edges.append(tuple(sorted((ca, cb))))
    if len(set(new_edges)) != len(new_edges):
        raise CertificateError("two kept edges join the same components")
    return len(reps), tuple(sorted(new_edges)), comp


def contract(T: UTree, E: Iterable[Tuple[int, int]]) -> UTree:
    """The quotient tree keeping exactly the edges E, with induced labeling."""
    n2, edges2, comp = _contract_plain(T.n, T.edges, E)
    return UTree(n2, edges2, tuple(comp[v] for v in T.labeling))


def contraction_certificate(n: int, edges, keep) -> Tuple:
    """The certificate of the quotient of the tree (n, edges) keeping the
    edges ``keep``, each vertex annotated with the tree's degree-<=2
    vertices that it contracts; see ``contraction_unique``."""
    edges = tuple(sorted(tuple(sorted(e)) for e in edges))
    deg = _degrees(n, edges)
    n2, edges2, comp = _contract_plain(n, edges, keep)
    sets = [tuple(v for v in range(n) if deg[v] <= 2 and comp[v] == c)
            for c in range(n2)]
    return tree_certificate(n2, edges2, sets.__getitem__)


def contraction_unique(n: int, edges, E, Eprime) -> bool:
    """True unless E != E' yet the two quotients are isomorphic compatibly
    with the projections on the degree-<=2 vertices."""
    E = frozenset(tuple(sorted(e)) for e in E)
    Eprime = frozenset(tuple(sorted(e)) for e in Eprime)
    return E == Eprime or contraction_certificate(n, edges, E) != \
        contraction_certificate(n, edges, Eprime)


def enumerate_plain_trees(max_edges: int) -> List[Tuple[int, Tuple]]:
    """One representative (n, edges) per isomorphism class, up to the given
    edge count, by edge count: each class with k + 1 edges is grown from
    those with k by a leaf at every vertex, and the first tree per
    certificate is kept."""
    layer = [(2, ((0, 1),))] if max_edges >= 1 else []
    out = list(layer)
    for _ in range(max_edges - 1):
        grown: Dict[Tuple, Tuple[int, Tuple]] = {}
        for n, edges in layer:
            for v in range(n):
                tree = tuple(sorted(edges + ((v, n),)))
                grown.setdefault(tree_certificate(n + 1, tree, lambda v: ()),
                                 (n + 1, tree))
        layer = list(grown.values())
        out += layer
    return out


def enumerate_trees(m: int, strict: bool = False) -> List[UTree]:
    """All labeled trees on m label indices up to isomorphism."""
    if m < 2:
        raise ValueError(f"trees need at least 2 labels, not {m}")
    reps = enumerate_plain_trees(2 * m - 3)
    found: Dict[Tuple, UTree] = {}
    for n, edges in reps:
        deg = _degrees(n, edges)
        needed = [v for v in range(n) if deg[v] <= 2]
        if len(needed) > m:
            continue
        for labeling in itertools.product(range(n), repeat=m):
            if strict and len(set(labeling)) != m:
                continue
            if not set(needed) <= set(labeling):
                continue
            T = UTree(n, edges, labeling)
            found.setdefault(T.certificate(), T)
    return [found[c] for c in sorted(found, key=repr)]


def build_T(m: int) -> FinitePoset:
    """The poset of labeled trees on m indices under edge contraction."""
    trees = enumerate_trees(m)
    certs = [T.certificate() for T in trees]
    ids = {c: i for i, c in enumerate(certs)}
    above = [[] for _ in certs]
    for j, T in enumerate(trees):
        for k in range(1, len(T.edges)):
            for E in itertools.combinations(T.edges, k):
                i = ids.get(contract(T, E).certificate())
                if i is None:
                    raise CertificateError("contraction is not a tree")
                above[i].append(j)
    return FinitePoset._from_ids(certs, above)


# ---------------------------------------------------------------------------
# tree decompositions over a symplectic module

def _contraction_templates(T: UTree) -> List[Tuple]:
    """Every contraction of T to a proper nonempty subset of its edges, as
    (vertex count, edges, vertex_of, grouping): vertex_of maps each group of
    label indices that land on one vertex of the quotient to that vertex,
    and grouping is the frozenset of those groups."""
    out = []
    for k in range(1, len(T.edges)):
        for E in itertools.combinations(T.edges, k):
            n2, edges2, comp = _contract_plain(T.n, T.edges, E)
            groups: Dict[int, List[int]] = {}
            for j, v in enumerate(T.labeling):
                groups.setdefault(comp[v], []).append(j)
            vertex_of = {frozenset(js): c for c, js in groups.items()}
            out.append((n2, edges2, vertex_of, frozenset(vertex_of)))
    return out


def build_TD(L, DP: FinitePoset = None) -> FinitePoset:
    """Pairs (strict decomposition, strict labeled tree on its parts); a pair
    sits above another when the decomposition refines it and a contraction
    matches the induced part surjection.

    Contraction depends only on the tree shape, so each strict tree on m
    labels is contracted once, into templates that group its label
    indices.  A decomposition's coarsenings are read from DP's down-sets,
    each matched to the grouping of the parts it sums by member-mask
    containment; the identity grouping stands for the decomposition
    itself (an edge contracted at an unlabeled vertex).  The place of a
    contracted labeled tree among the certificates is found once per
    (vertex count, edges, labeling).  The pairs are numbered in DP's
    vertex order, each decomposition's certificates in a row, so the
    relation is handed to ``FinitePoset._from_ids`` as those numbers.  A
    grouping with no coarsening in ``DP``, a contracted tree that is not
    strict and a contracted pair that is not an element raise
    ``CertificateError``.
    """
    from .builders import build_D, submodule_from_key

    if DP is None:
        DP = build_D(L, strict=True)
    decs = DP.elements
    shapes: Dict[int, List[Tuple]] = {}
    for m in sorted(set(map(len, decs))):
        shapes[m] = [(T.certificate(), _contraction_templates(T))
                     for T in enumerate_trees(m, strict=True)]
    # the pair (decs[v], the c-th certificate on len(decs[v]) labels) is
    # element first[v] + c
    first = list(itertools.accumulate(
        (len(shapes[len(dec)]) for dec in decs), initial=0))
    place = {m: {cert: c for c, (cert, _) in enumerate(shape)}
             for m, shape in shapes.items()}
    masks: Dict[Tuple, int] = {}

    def members(key) -> int:
        if key not in masks:
            masks[key] = submodule_from_key(L, key).members()
        return masks[key]

    parts = [list(map(members, dec)) for dec in decs]
    below = DP.down_sets()
    # a contracted labeled tree's place among the certificates
    certs: Dict[Tuple, int] = {}
    above = [[] for _ in range(first[-1])]
    for v, dec in enumerate(decs):
        # each coarsening with the group of dec's part indices under each
        # of its parts, keyed by the grouping
        singletons = tuple(frozenset([j]) for j in range(len(dec)))
        coarsenings = {frozenset(singletons): (v, singletons)}
        for u in below[v]:
            groups = tuple(frozenset(j for j, mj in enumerate(parts[v])
                                     if mj & ~big == 0)
                           for big in parts[u])
            coarsenings[frozenset(groups)] = (u, groups)
        for c, (cert, templates) in enumerate(shapes[len(dec)]):
            here = first[v] + c
            for n2, edges2, vertex_of, grouping in templates:
                hit = coarsenings.get(grouping)
                if hit is None:
                    raise CertificateError(
                        "a grouping of parts has no coarsening in DP")
                u, groups = hit
                key = (n2, edges2, tuple(vertex_of[g] for g in groups))
                c2 = certs.get(key)
                if c2 is None:
                    S = UTree(*key)
                    if not S.strict:
                        raise CertificateError("contracted tree is not strict")
                    c2 = place[len(decs[u])].get(S.certificate())
                    if c2 is None:
                        raise CertificateError(
                            "contracted pair is not an element of TD")
                    certs[key] = c2
                above[first[u] + c2].append(here)
    del masks, parts, certs
    return FinitePoset._from_ids(
        [(dec, cert) for dec in decs for cert, _ in shapes[len(dec)]], above)


def tree_forget_map(L, TD: FinitePoset = None, DP: FinitePoset = None) -> PosetMap:
    from .builders import build_D

    if DP is None:
        DP = build_D(L, strict=True)
    if TD is None:
        TD = build_TD(L, DP)
    return PosetMap(TD, DP, {x: x[0] for x in TD})
