"""Finite posets stored as one strict order relation over vertex numbers.

A poset numbers its elements 0..n-1 once, and that numbering is its
vertex numbering (``positions()``).  Only a poset built from labels, by
the public constructor or by the builders' id path ``_from_ids``, sorts
them by ``repr`` (``_numbered``, the one rule for both); every derived
poset keeps its parents' orders.
Induced subposets and opposites keep their parent's order.  A join
numbers the first factor's vertices, then the second's; a thick join
X's, then Y's, then the products row-major; a mapping cylinder or cone
the target's vertices, then the source's, then the tip; a subdivision
its chains lexicographically on the parent's vertex numbers.  Joins,
thick joins, cylinders and cones label each element by its origin,
whatever labels their inputs share, empty factors included: a join (0, x)
and (1, y); a thick join ("x", x), ("y", y) and ("p", x, y); a cylinder or
cone, as the join of the target below the source, (0, y) and (1, x), with
the cone's tip ("cone",).  The order
is stored once, as the up-set of each vertex: the frozenset of the vertex
numbers strictly above it, transitively closed.  Labels (often nested
tuples, whose hash is dear) appear only at the interface: ``above``,
``below``, ``covers``, ``heights`` and ``relation_pairs`` translate
vertex numbers into labels, and ``induced`` translates its labels into
vertex numbers with one lookup each.  Code below the poset, such as order
complexes, reads the sorted successor tuples (``successors()``) or the
up-sets themselves (``up_sets()``) and never hashes or orders labels
itself.

The public constructor accepts any acyclic generating relation between
labels and closes it.  The builders hold their relations as ids into the
label lists they made and hand them to ``_from_ids``, which renumbers
them and closes them, or takes them whole, with no label hashed per pair.
Derived constructions (induced subposets, opposites, joins, thick joins,
subdivisions, cylinders) build their closed relations over vertex numbers
and go through a trusted path.  All of them still check irreflexivity,
antisymmetry and transitivity on the vertex numbers, raising
CertificateError that names the labels involved, so the check survives
``python -O``.

Heights are derived from the order, never supplied: the height of an
element is the length of the longest chain ending at it, so minimal
elements sit at 0.  Induced subposets and opposites compute their own.
The dimension is the largest height, the length of the longest chain.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, chain
from typing import Dict, FrozenSet, Iterable, List, Tuple

from .snf import CertificateError


class FinitePoset:
    def __init__(self, elements: Iterable, relations: Iterable[Tuple] = ()):
        labels, pos = _numbered(elements)
        if len(pos) != len(labels):
            raise ValueError("duplicate elements")
        succ = [set() for _ in labels]
        for a, b in relations:
            i, j = pos.get(a), pos.get(b)
            if i is None or j is None:
                raise ValueError(
                    f"relation endpoint not an element: {(a, b)!r}")
            if i == j:
                raise ValueError(f"reflexive pair {a!r}")
            succ[i].add(j)
        self._init(labels, _close(succ), pos)

    @classmethod
    def _from_ids(cls, labels, above, closed=False) -> "FinitePoset":
        """The poset on ``labels``, a list in any order, in which labels[i]
        lies below labels[j] for each id j in ``above[i]``: a generating
        relation, closed here, or with ``closed`` the whole up-set.

        The labels are numbered as the public constructor numbers them
        (``_numbered``), and the relation is renumbered, closed and
        certified on ints, so builders that hold their relation as ids
        hash no label per relation pair.  A label given twice or an id
        above itself raises CertificateError.
        """
        elements, pos = _numbered(labels)
        if len(pos) != len(elements):
            raise CertificateError("two vertex ids name one label")
        # new[i]: the vertex number of labels[i], one int object per
        # vertex, shared by every up-set holding it
        new = list(map(pos.__getitem__, labels))
        renumber = new.__getitem__
        up = [None] * len(new)
        for i, k in enumerate(new):
            u = set(map(renumber, above[i]))
            if k in u:
                raise CertificateError(
                    f"vertex id above itself at {elements[k]!r}")
            up[k] = u
        del new
        # copied from a set, a frozenset is sized by its member count, as
        # _close sizes its up-sets; built from an iterator it is sized by
        # its growth steps (866 KB against 522 KB for U_3(F_2)'s up-sets)
        self = cls.__new__(cls)
        self._init(elements, list(map(frozenset, up)) if closed
                   else _close(up), pos)
        return self

    def _init(self, elements, up, pos=None):
        # elements: the labels in vertex order; up[i]: the frozenset of
        # vertex numbers strictly above vertex i
        self._elements = elements
        self._up = up
        self._pos = pos
        self._down = None
        self._height = None
        for i, u in enumerate(up):
            if i in u:
                raise CertificateError(
                    f"reflexive closure entry at {elements[i]!r}")
            for j in u:
                uj = up[j]
                if i in uj:
                    raise CertificateError(f"antisymmetry violated at "
                                           f"{elements[i]!r}, {elements[j]!r}")
                if not uj <= u:
                    raise CertificateError(
                        f"relation not transitively closed at "
                        f"{elements[i]!r} < {elements[j]!r}")

    @classmethod
    def _trusted(cls, elements, up, pos=None) -> "FinitePoset":
        """The poset whose vertex i is labeled elements[i] and lies below
        the vertex numbers up[i], a relation closed by construction."""
        self = cls.__new__(cls)
        self._init(elements, up, pos)
        return self

    # -- basic queries ------------------------------------------------------

    def __len__(self):
        return len(self._elements)

    def __iter__(self):
        return iter(self._elements)

    def __contains__(self, x):
        return x in self.positions()

    @property
    def elements(self):
        return self._elements

    def positions(self) -> Dict:
        """Each element's index in ``elements``: its vertex number."""
        if self._pos is None:
            self._pos = {x: i for i, x in enumerate(self._elements)}
        return self._pos

    def up_sets(self) -> Tuple[FrozenSet[int], ...]:
        """The stored order: for each vertex number, the frozenset of
        vertex numbers above it.  Hashable, and equal for two posets
        exactly when they have the same order on the same vertex numbers,
        whatever their labels."""
        return tuple(self._up)

    def down_sets(self) -> Tuple[FrozenSet[int], ...]:
        """For each vertex number, the frozenset of vertex numbers below
        it: the up-sets of the opposite order."""
        return tuple(self._down_sets())

    def successors(self) -> Tuple[Tuple[int, ...], ...]:
        """For each vertex number, the sorted vertex numbers above it, as
        tuples: unlike lists, the collector untracks tuples of ints, so
        the successor lists of a large poset do not age into its oldest
        generation and lengthen every full collection."""
        return tuple(map(tuple, map(sorted, self._up)))

    def _labels(self, ids):
        return map(self._elements.__getitem__, ids)

    def _down_sets(self) -> List[FrozenSet[int]]:
        if self._down is None:
            down = [[] for _ in self._up]
            for i, u in enumerate(self._up):
                for j in u:
                    down[j].append(i)
            self._down = list(map(frozenset, down))
        return self._down

    def above(self, x) -> FrozenSet:
        return frozenset(self._labels(self._up[self.positions()[x]]))

    def below(self, x) -> FrozenSet:
        return frozenset(self._labels(self._down_sets()[self.positions()[x]]))

    def lt(self, x, y) -> bool:
        pos = self.positions()
        return pos[y] in self._up[pos[x]]

    def le(self, x, y) -> bool:
        return x == y or self.lt(x, y)

    def maximal_elements(self):
        return [x for x, u in zip(self._elements, self._up) if not u]

    def relation_pairs(self):
        el = self._elements
        for x, u in zip(el, self._up):
            for j in sorted(u):
                yield (x, el[j])

    def linear_extension(self):
        """The elements by the number of elements below them, ties in
        vertex order."""
        below = [0] * len(self._up)
        for u in self._up:
            for j in u:
                below[j] += 1
        return list(self._labels(sorted(range(len(below)),
                                        key=below.__getitem__)))

    # -- heights ------------------------------------------------------------

    def _heights(self) -> List[int]:
        """Longest-chain height of every vertex, computed once."""
        if self._height is None:
            self._height = _chain_heights(self._up)
        return self._height

    def heights(self) -> Dict:
        """Longest-chain height of every element."""
        return dict(zip(self._elements, self._heights()))

    def dim(self) -> int:
        """Length of the longest chain; -1 for the empty poset."""
        return max(self._heights(), default=-1)

    # -- derived posets -----------------------------------------------------

    def induced(self, subset) -> "FinitePoset":
        """The full subposet on the labels ``subset``, its vertices in this
        poset's vertex order; the whole poset is this poset itself."""
        return self._induced(frozenset(map(self.positions().__getitem__,
                                           subset)))

    def _induced(self, keep) -> "FinitePoset":
        """The full subposet on the vertex numbers in the set ``keep``; the
        whole poset is this poset itself."""
        if len(keep) == len(self):
            return self
        ids = sorted(keep)
        new = {v: k for k, v in enumerate(ids)}
        return FinitePoset._trusted(
            tuple(self._labels(ids)),
            tuple(frozenset(map(new.__getitem__, self._up[v] & keep))
                  for v in ids))

    def opposite(self) -> "FinitePoset":
        return FinitePoset._trusted(self._elements, self._down_sets(),
                                    self._pos)

    def subposet_lt(self, x):
        return self._induced(self._down_sets()[self.positions()[x]])

    def subposet_gt(self, x):
        return self._induced(self._up[self.positions()[x]])

    def open_interval(self, x, y):
        pos = self.positions()
        i, j = pos[x], pos[y]
        if j not in self._up[i]:
            raise ValueError(f"open interval needs {x!r} < {y!r}")
        return self._induced(self._up[i] & self._down_sets()[j])

    def covers(self, x):
        """Elements immediately above x."""
        up = self._up
        u = up[self.positions()[x]]
        return frozenset(self._labels(u.difference(*(up[z] for z in u))))

    def __eq__(self, other):
        if not isinstance(other, FinitePoset):
            return NotImplemented
        # equal posets need not share a vertex order (a derived poset keeps
        # its parents' orders, the constructor sorts by repr, and two labels
        # may share a repr), so compare through the other poset's numbering
        pos = other.positions()
        perm = [pos.get(x) for x in self._elements]
        if len(self) != len(other) or None in perm:
            return False
        return all(frozenset(map(perm.__getitem__, u)) == other._up[perm[i]]
                   for i, u in enumerate(self._up))

    def __repr__(self):
        return f"FinitePoset({len(self._elements)} elements, dim {self.dim()})"


def _chain_heights(up) -> List[int]:
    """The length of the longest chain ending at each vertex of the order
    whose up-sets are ``up``; given the down-sets, the longest chain
    starting at each vertex."""
    sizes = list(map(len, up))
    h = [0] * len(up)
    # a vertex lies below vertices with smaller up-sets only, so falling
    # up-set size is a linear extension
    for i in sorted(range(len(up)), key=sizes.__getitem__, reverse=True):
        hi = h[i] + 1
        for j in up[i]:
            if h[j] < hi:
                h[j] = hi
    return h


def _numbered(labels):
    """The one numbering of a poset's labels: sorted by ``repr``, stably,
    so labels with equal reprs keep their given order.  Returns the labels
    in vertex order and each label's vertex number, a dict shorter than
    the labels when one is given twice."""
    elements = tuple(sorted(labels, key=repr))
    return elements, dict(zip(elements, range(len(elements))))


def _close(succ) -> List[FrozenSet[int]]:
    """Transitive closure of a generating relation over vertex numbers,
    given as the set of vertices above each vertex; raises ValueError on a
    cycle."""
    indeg = [0] * len(succ)
    for s in succ:
        for j in s:
            indeg[j] += 1
    # Kahn topological order; a leftover vertex means a cycle.
    stack = [i for i, d in enumerate(indeg) if d == 0]
    topo = []
    while stack:
        i = stack.pop()
        topo.append(i)
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                stack.append(j)
    if len(topo) != len(succ):
        raise ValueError("relation is not acyclic")
    up = [None] * len(succ)
    for i in reversed(topo):
        acc = set(succ[i])
        for j in succ[i]:
            acc |= up[j]
        up[i] = frozenset(acc)
    return up


def barycentric_subdivision(P: FinitePoset) -> FinitePoset:
    """Poset of nonempty chains of P ordered by refinement, numbered in the
    order ``grow`` meets them: lexicographic on P's vertex numbers."""
    succ = P.successors()
    chains = []

    def grow(c):
        chains.append(c)
        for y in succ[c[-1]]:
            grow(c + (y,))

    for v in range(len(succ)):
        grow((v,))
    index = {c: k for k, c in enumerate(chains)}
    covers = [set() for _ in chains]
    for c, v in index.items():
        if len(c) > 1:
            for i in range(len(c)):
                covers[index[c[:i] + c[i + 1:]]].add(v)
    return FinitePoset._trusted(tuple(tuple(P._labels(c)) for c in chains),
                                _close(covers))


def check_isomorphism(P: FinitePoset, Q: FinitePoset, mapping: Dict) -> bool:
    """Whether ``mapping`` is an order isomorphism from P onto Q."""
    if set(mapping) != set(P) or len(set(mapping.values())) != len(P):
        return False
    # with distinct labels, P relabeled equals Q exactly when the map is a
    # bijection onto Q that carries each up-set onto its image's
    return FinitePoset._trusted(
        tuple(map(mapping.__getitem__, P.elements)), P._up) == Q


class PosetMap:
    """A monotone map between finite posets, validated on construction:
    a map that is not total, has keys outside the source, leaves the
    target or is not monotone raises CertificateError."""

    def __init__(self, source: FinitePoset, target: FinitePoset, mapping: Dict):
        try:
            values = [mapping[x] for x in source.elements]
        except KeyError:
            raise CertificateError("mapping must be total") from None
        if len(mapping) != len(values):
            raise CertificateError("mapping has keys outside the source")
        tpos = target.positions()
        f = []
        for v in values:
            t = tpos.get(v)
            if t is None:
                raise CertificateError(f"value {v!r} not in target")
            f.append(t)
        tup = target._up
        for i, u in enumerate(source._up):
            fi = f[i]
            for j in u:
                if f[j] != fi and f[j] not in tup[fi]:
                    raise CertificateError(
                        f"not monotone at {source.elements[i]!r} < "
                        f"{source.elements[j]!r}")
        self.source = source
        self.target = target
        self.mapping = dict(mapping)
        self._f = f  # the map on vertex numbers
        self._index = None

    def __call__(self, x):
        return self.mapping[x]

    def _preimage(self, ys) -> list:
        """The source vertices mapped into the target vertices ``ys``, read
        from an index y -> f^-1(y) that is built once per map: the source
        vertices sorted by image, and where each image's run starts, both
        as machine-int arrays."""
        if self._index is None:
            f = self._f
            counts = [0] * len(self.target)
            for t in f:
                counts[t] += 1
            self._index = (array("l", accumulate(counts, initial=0)),
                           array("l", sorted(range(len(f)), key=f.__getitem__)))
        starts, members = self._index
        return [i for t in ys for i in members[starts[t]:starts[t + 1]]]

    def _fiber(self, y, part) -> FinitePoset:
        t = self.target.positions()[y]
        return self.source._induced(
            frozenset(self._preimage(chain(part[t], (t,)))))

    def fiber_le(self, y) -> FinitePoset:
        """f/y: induced subposet of the source on {x : f(x) <= y}."""
        return self._fiber(y, self.target._down_sets())

    def fiber_ge(self, y) -> FinitePoset:
        """y\\f: induced subposet of the source on {x : f(x) >= y}."""
        return self._fiber(y, self.target._up)

    def __eq__(self, other):
        if not isinstance(other, PosetMap):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.mapping == other.mapping)


def constant_map(P: FinitePoset, Q: FinitePoset, q) -> PosetMap:
    return PosetMap(P, Q, {x: q for x in P})


# ---------------------------------------------------------------------------
# joins and cylinders

def join(X: FinitePoset, Y: FinitePoset) -> FinitePoset:
    """Ordinal sum with every X element below every Y element, the X
    element x labeled (0, x) and the Y element y labeled (1, y).  Numbered
    X's vertices first, then Y's shifted by len(X)."""
    elements = tuple((0, x) for x in X) + tuple((1, y) for y in Y)
    # one int object per Y vertex, shared by every up-set holding it
    ys = list(range(len(X), len(elements)))
    shift = ys.__getitem__
    ytop = frozenset(ys)
    up = [u | ytop for u in X._up]
    up.extend(frozenset(map(shift, u)) for u in Y._up)
    return FinitePoset._trusted(elements, up)


def thick_join(X: FinitePoset, Y: FinitePoset) -> FinitePoset:
    """X and Y side by side with the product X x Y glued in above both.

    X elements are labeled ("x", x), Y elements ("y", y) and products
    ("p", x, y).  The vertices are X's, then Y's shifted by len(X), then
    the products row-major: (x_i, y_j) is len(X) + len(Y) + i * len(Y) + j.
    """
    nx, ny = len(X), len(Y)
    elements = (tuple(("x", x) for x in X) + tuple(("y", y) for y in Y)
                + tuple(("p", x, y) for x in X for y in Y))
    # one int object per vertex, shared by every up-set holding it
    ids = list(range(len(elements)))
    ry = ids[nx:nx + ny]
    rp = [ids[nx + ny + i * ny:nx + ny + (i + 1) * ny] for i in range(nx)]
    # each vertex with the vertices above it
    xle = [u | {i} for i, u in enumerate(X._up)]
    yle = [u | {j} for j, u in enumerate(Y._up)]
    up = [u.union(*(rp[v] for v in xle[i])) for i, u in enumerate(X._up)]
    for j, u in enumerate(Y._up):
        up.append(frozenset(map(ry.__getitem__, u)).union(
            rp[v][w] for v in range(nx) for w in yle[j]))
    for i in range(nx):
        for j in range(ny):
            up.append(frozenset(rp[v][w] for v in xle[i] for w in yle[j])
                      - {rp[i][j]})
    return FinitePoset._trusted(elements, up)


def _cylinder(f: PosetMap, cone: bool):
    """(M, src, tgt, tip): the mapping cylinder, in which x lies above y
    exactly when f(x) >= y, a relation closed already; with ``cone`` also a
    tip ("cone",) below the whole source, else tip None.  Labeled as the
    join of the target below the source: the label maps send the target
    element y to (0, y) and the source element x to (1, x).

    M keeps its parents' vertex orders: the target's vertices first, in the
    target's order, then the source's in the source's order, then the tip,
    so target vertex j stays j and source vertex i becomes len(target) + i.
    """
    X, Y = f.source, f.target
    src = {x: (1, x) for x in X}
    tgt = {y: (0, y) for y in Y}
    elements = tuple(tgt.values()) + tuple(src.values())
    # one int object per source vertex, shared by every up-set holding it
    sources = list(range(len(Y), len(Y) + len(X)))
    shift = sources.__getitem__
    up = [u.union(map(shift, f._preimage(chain(u, (j,)))))
          for j, u in enumerate(Y._up)]
    up.extend(frozenset(map(shift, u)) for u in X._up)
    tip = None
    if cone:
        tip = ("cone",)
        elements += (tip,)
        up.append(frozenset(sources))
    return FinitePoset._trusted(elements, up), src, tgt, tip


def mapping_cylinder(f: PosetMap):
    """Cylinder of a monotone map, with the target glued in below the source.

    Returns (M, src, tgt) where src and tgt map original labels to labels
    in M: the source element x is (1, x) and the target element y is
    (0, y).
    """
    return _cylinder(f, False)[:3]


def mapping_cone(f: PosetMap):
    """Cylinder plus a fresh vertex, the tip ("cone",), below all of the
    source.

    Coning off the source leaves the homotopy cofiber of the map; the
    target part is untouched.  The tip is added to the cylinder's relation,
    so one poset is built, labeled and numbered as the cylinder is with the
    tip last.  Returns (M, src, tgt, tip).
    """
    return _cylinder(f, True)


def cylinder_link_check(f: PosetMap, y) -> bool:
    """Check the cylinder link identity at a target element.

    In the cylinder truncated at the height of y, the link of y, which is
    everything below y and the sources above it, equals the join of the
    open lower set under y with the fiber {x : f(x) >= y} as labeled
    posets: both label a target element y' as (0, y') and a source element
    x as (1, x), whatever labels source and target share.
    """
    M, src, tgt = mapping_cylinder(f)
    link = M.induced(M.below(tgt[y]) | (M.above(tgt[y]) & set(src.values())))
    expected = join(f.target.subposet_lt(y), f.fiber_ge(y))
    return link == expected


# ---------------------------------------------------------------------------
# random instances for property checks

def random_poset(rng, n: int, p: float = 0.2) -> FinitePoset:
    rel = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                rel.append((i, j))
    return FinitePoset(range(n), rel)


def random_monotone_map(rng, P: FinitePoset, Q: FinitePoset = None) -> PosetMap:
    if Q is None:
        Q = P
    order = P.linear_extension()
    mapping = {}
    for x in order:
        cands = set(Q.elements)
        for p in P.below(x):
            fp = mapping[p]
            cands &= Q.above(fp) | {fp}
        if not cands:
            # lower bounds with no common upper bound; restart from scratch
            # by sending everything to one maximal element
            top = rng.choice(Q.maximal_elements())
            return constant_map(P, Q, top)
        mapping[x] = rng.choice(sorted(cands, key=Q.positions().__getitem__))
    return PosetMap(P, Q, mapping)
