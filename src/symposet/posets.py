"""Finite posets stored as transitively closed strict order relations.

Every poset keeps, for each element, the frozenset of elements strictly
above it.  Elements are labels (often nested tuples), and a poset has one
label order: the constructor sorts the labels by ``repr`` once and numbers
them 0..n-1 in that order (``positions()``); induced subposets and
opposites keep their parent's order instead of sorting again.
Code below the poset, such as order complexes, works on those vertex
numbers and never orders labels itself.  The public constructor accepts
any acyclic generating relation and closes it; derived constructions
(induced subposets, opposites, joins, cylinders) produce relations that
are closed by construction and go through a trusted path that still checks
irreflexivity, antisymmetry and transitivity, raising CertificateError, so
the check survives ``python -O``.

Heights are derived from the order, never supplied: the height of an
element is the length of the longest chain ending at it, so minimal
elements sit at 0.  Induced subposets and opposites compute their own.
The dimension is the largest height, the length of the longest chain.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Tuple

from .snf import CertificateError


class FinitePoset:
    def __init__(self, elements: Iterable, relations: Iterable[Tuple] = ()):
        elems = list(elements)
        succ = {x: set() for x in elems}
        assert len(succ) == len(elems), "duplicate elements"
        for a, b in relations:
            assert a in succ and b in succ, f"relation endpoint not an element: {(a, b)!r}"
            if a != b:
                succ[a].add(b)
            else:
                raise ValueError(f"reflexive pair {a!r}")
        # Kahn topological order; a leftover vertex means a cycle.
        indeg = {x: 0 for x in elems}
        for a in elems:
            for b in succ[a]:
                indeg[b] += 1
        stack = [x for x in elems if indeg[x] == 0]
        topo = []
        while stack:
            x = stack.pop()
            topo.append(x)
            for b in succ[x]:
                indeg[b] -= 1
                if indeg[b] == 0:
                    stack.append(b)
        if len(topo) != len(elems):
            raise ValueError("relation is not acyclic")
        above = {}
        for x in reversed(topo):
            acc = set(succ[x])
            for y in succ[x]:
                acc |= above[y]
            above[x] = frozenset(acc)
        self._init_from_closed(elems, above)

    def _init_from_closed(self, elems, above, ordered=False):
        # ``ordered``: elems are in repr order already, as a subsequence of
        # another poset's elements is
        self._elements = tuple(elems) if ordered else tuple(sorted(elems, key=repr))
        self._pos = {x: i for i, x in enumerate(self._elements)}
        self._above = above
        self._below = None
        self._height = None
        for x, up in above.items():
            if x in up:
                raise CertificateError(f"reflexive closure entry at {x!r}")
            for y in up:
                if x in above[y]:
                    raise CertificateError(f"antisymmetry violated at {x!r}, {y!r}")
                if not above[y] <= up:
                    raise CertificateError(f"relation not transitively closed at {x!r} < {y!r}")

    @classmethod
    def _from_closed(cls, elems, above, ordered=False):
        self = cls.__new__(cls)
        self._init_from_closed(list(elems), dict(above), ordered)
        return self

    # -- basic queries ------------------------------------------------------

    def __len__(self):
        return len(self._elements)

    def __iter__(self):
        return iter(self._elements)

    def __contains__(self, x):
        return x in self._pos

    @property
    def elements(self):
        return self._elements

    def positions(self) -> Dict:
        """Each element's index in ``elements``: its vertex number."""
        return self._pos

    def above(self, x) -> FrozenSet:
        return self._above[x]

    def _below_map(self) -> Dict:
        if self._below is None:
            below = {e: set() for e in self._elements}
            for a, up in self._above.items():
                for b in up:
                    below[b].add(a)
            self._below = {e: frozenset(s) for e, s in below.items()}
        return self._below

    def below(self, x) -> FrozenSet:
        return self._below_map()[x]

    def lt(self, x, y) -> bool:
        return y in self._above[x]

    def le(self, x, y) -> bool:
        return x == y or y in self._above[x]

    def maximal_elements(self):
        return [x for x in self._elements if not self._above[x]]

    def relation_pairs(self):
        for x in self._elements:
            for y in sorted(self._above[x], key=self._pos.__getitem__):
                yield (x, y)

    def linear_extension(self):
        return sorted(self._elements, key=lambda x: len(self.below(x)))

    # -- heights ------------------------------------------------------------

    def heights(self) -> Dict:
        """Longest-chain height of every element, computed once."""
        if self._height is None:
            h = {}
            for x in self.linear_extension():
                h[x] = 1 + max((h[p] for p in self.below(x)), default=-1)
            self._height = h
        return self._height

    def dim(self) -> int:
        """Length of the longest chain; -1 for the empty poset."""
        return max(self.heights().values(), default=-1)

    # -- derived posets -----------------------------------------------------

    def induced(self, subset) -> "FinitePoset":
        sub = frozenset(subset)
        assert sub <= self._pos.keys(), "induced subset must consist of elements"
        above = {x: self._above[x] & sub for x in sub}
        return FinitePoset._from_closed(sorted(sub, key=self._pos.__getitem__),
                                        above, ordered=True)

    def opposite(self) -> "FinitePoset":
        return FinitePoset._from_closed(self._elements, self._below_map(),
                                        ordered=True)

    def subposet_lt(self, x):
        return self.induced(self.below(x))

    def subposet_gt(self, x):
        return self.induced(self._above[x])

    def open_interval(self, x, y):
        assert self.lt(x, y)
        return self.induced(self._above[x] & self.below(y))

    def covers(self, x):
        """Elements immediately above x."""
        up = self._above[x]
        return frozenset(y for y in up if not (self.below(y) & up))

    def __eq__(self, other):
        if not isinstance(other, FinitePoset):
            return NotImplemented
        # the keys of the closed relation are the elements
        return self._above == other._above

    def __repr__(self):
        return f"FinitePoset({len(self._elements)} elements, dim {self.dim()})"


def barycentric_subdivision(P: FinitePoset) -> FinitePoset:
    """Poset of nonempty chains of P ordered by refinement."""
    chains = []

    def grow(prefix, last):
        chains.append(tuple(prefix))
        for y in sorted(P.above(last), key=P.positions().__getitem__):
            prefix.append(y)
            grow(prefix, y)
            prefix.pop()

    for x in P:
        grow([x], x)
    rel = []
    for c in chains:
        if len(c) > 1:
            for i in range(len(c)):
                rel.append((c[:i] + c[i + 1:], c))
    return FinitePoset(chains, rel)


def check_isomorphism(P: FinitePoset, Q: FinitePoset, mapping: Dict) -> bool:
    """Whether ``mapping`` is an order isomorphism from P onto Q."""
    if set(mapping) != set(P.elements):
        return False
    # as many values as elements of Q, all of them: a bijection
    if len(P) != len(Q) or set(mapping.values()) != set(Q.elements):
        return False
    for x in P:
        for y in P:
            if x != y and P.lt(x, y) != Q.lt(mapping[x], mapping[y]):
                return False
    return True


class PosetMap:
    """A monotone map between finite posets, validated on construction:
    a map that is not total, leaves the target or is not monotone raises
    CertificateError."""

    def __init__(self, source: FinitePoset, target: FinitePoset, mapping: Dict):
        if set(mapping) != set(source.elements):
            raise CertificateError("mapping must be total")
        for v in mapping.values():
            if v not in target:
                raise CertificateError(f"value {v!r} not in target")
        for x in source:
            fx = mapping[x]
            for y in source.above(x):
                if not target.le(fx, mapping[y]):
                    raise CertificateError(f"not monotone at {x!r} < {y!r}")
        self.source = source
        self.target = target
        self.mapping = dict(mapping)
        self._index = None

    def __call__(self, x):
        return self.mapping[x]

    def _preimage(self, ys) -> list:
        """The source elements mapped into ``ys``, read from an index
        y -> f^-1(y) that is built once per map."""
        if self._index is None:
            self._index = {}
            for x, y in self.mapping.items():
                self._index.setdefault(y, []).append(x)
        return [x for y in ys for x in self._index.get(y, ())]

    def fiber_le(self, y) -> FinitePoset:
        """f/y: induced subposet of the source on {x : f(x) <= y}."""
        return self.source.induced(self._preimage(self.target.below(y) | {y}))

    def fiber_ge(self, y) -> FinitePoset:
        """y\\f: induced subposet of the source on {x : f(x) >= y}."""
        return self.source.induced(self._preimage(self.target.above(y) | {y}))

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
    """Ordinal sum with every X element below every Y element."""
    if len(X) == 0:
        return Y
    if len(Y) == 0:
        return X
    collide = bool(set(X.elements) & set(Y.elements))
    lx = (lambda x: (0, x)) if collide else (lambda x: x)
    ly = (lambda y: (1, y)) if collide else (lambda y: y)
    ytop = frozenset(ly(y) for y in Y)
    above = {}
    for x in X:
        above[lx(x)] = frozenset(lx(v) for v in X.above(x)) | ytop
    for y in Y:
        above[ly(y)] = frozenset(ly(v) for v in Y.above(y))
    return FinitePoset._from_closed(list(above), above)


def thick_join(X: FinitePoset, Y: FinitePoset, tag_always: bool = False) -> FinitePoset:
    """X and Y side by side with the product X x Y glued in above both.

    Labels stay as-is when the three families cannot collide; otherwise
    X elements become ("x", x), Y elements ("y", y), products ("p", x, y).
    """
    if len(Y) == 0 and not tag_always:
        return X
    if len(X) == 0 and not tag_always:
        return Y
    plain = not tag_always
    if plain:
        labels = set(X.elements) | set(Y.elements) | {(x, y) for x in X for y in Y}
        plain = len(labels) == len(X) + len(Y) + len(X) * len(Y)
    if plain:
        lx = lambda x: x
        ly = lambda y: y
        lp = lambda x, y: (x, y)
    else:
        lx = lambda x: ("x", x)
        ly = lambda y: ("y", y)
        lp = lambda x, y: ("p", x, y)
    above = {}
    for x in X:
        upx = X.above(x)
        above[lx(x)] = (frozenset(lx(v) for v in upx)
                        | frozenset(lp(v, w) for v in (upx | {x}) for w in Y))
    for y in Y:
        upy = Y.above(y)
        above[ly(y)] = (frozenset(ly(v) for v in upy)
                        | frozenset(lp(v, w) for v in X for w in (upy | {y})))
    for x in X:
        upx = X.above(x) | {x}
        for y in Y:
            upy = Y.above(y) | {y}
            above[lp(x, y)] = frozenset(lp(v, w) for v in upx for w in upy) - {lp(x, y)}
    return FinitePoset._from_closed(list(above), above)


def _cylinder(f: PosetMap):
    """(above, src, tgt): the mapping cylinder's relation, x above y exactly
    when f(x) >= y, which is closed already, and the label maps, which tag
    ("src", x) and ("tgt", y) only when source and target share a label."""
    X, Y = f.source, f.target
    if set(X.elements) & set(Y.elements):
        src = {x: ("src", x) for x in X}
        tgt = {y: ("tgt", y) for y in Y}
    else:
        src, tgt = {x: x for x in X}, {y: y for y in Y}
    above = {}
    for y in Y:
        up = Y.above(y)
        srcs = map(src.__getitem__, f._preimage(up | {y}))
        above[tgt[y]] = frozenset(map(tgt.__getitem__, up)) | frozenset(srcs)
    for x in X:
        above[src[x]] = frozenset(map(src.__getitem__, X.above(x)))
    return above, src, tgt


def mapping_cylinder(f: PosetMap):
    """Cylinder of a monotone map, with the target glued in below the source.

    Returns (M, src, tgt) where src and tgt map original labels to labels
    in M.
    """
    above, src, tgt = _cylinder(f)
    return FinitePoset._from_closed(list(above), above), src, tgt


def mapping_cone(f: PosetMap):
    """Cylinder plus a fresh vertex, the tip, below all of the source.

    Coning off the source leaves the homotopy cofiber of the map; the
    target part is untouched.  The tip is added to the cylinder's relation,
    so one poset is built.  Returns (M, src, tgt, tip).
    """
    above, src, tgt = _cylinder(f)
    tip = ("cone",)
    while tip in above:
        tip = tip + ("cone",)
    above[tip] = frozenset(src.values())
    return FinitePoset._from_closed(list(above), above), src, tgt, tip


def cylinder_link_check(f: PosetMap, y) -> bool:
    """Check the cylinder link identity at a target element.

    In the cylinder truncated at the height of y, the link of y, which is
    everything below y and the sources above it, equals the join of the
    open lower set under y with the fiber {x : f(x) >= y} as labeled
    posets.  Requires disjoint label sets.
    """
    assert not (set(f.source.elements) & set(f.target.elements))
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
