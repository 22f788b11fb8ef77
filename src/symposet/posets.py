"""Finite posets stored as transitively closed strict order relations.

Every poset keeps, for each element, the frozenset of elements strictly
above it.  The public constructor accepts any acyclic generating relation
and closes it; derived constructions (induced subposets, opposites, joins,
cylinders) produce relations that are closed by construction and go through
a trusted path that still checks irreflexivity and antisymmetry, plus full
transitivity when the poset is small enough for that to be cheap.

Heights are data: by default the standard height (longest chain ending at
the element), but a poset can carry explicit heights, which induced
subposets keep.  The dimension is always the length of the longest chain.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Tuple

# full transitivity re-validation is quadratic-ish; skip above this closure size
_VALIDATE_CLOSURE_LIMIT = 200_000


def _label_key(x):
    return repr(x)


class FinitePoset:
    def __init__(self, elements: Iterable, relations: Iterable[Tuple] = (), heights: Dict = None):
        elems = list(elements)
        eset = set(elems)
        assert len(eset) == len(elems), "duplicate elements"
        succ = {x: set() for x in elems}
        for a, b in relations:
            assert a in eset and b in eset, f"relation endpoint not an element: {(a, b)!r}"
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
        self._init_from_closed(elems, above, heights)

    def _init_from_closed(self, elems, above, heights):
        self._elements = tuple(sorted(elems, key=_label_key))
        self._eset = frozenset(elems)
        self._above = above
        self._below = None
        self._heights = dict(heights) if heights is not None else None
        self._std_heights = None
        for x, up in above.items():
            assert x not in up, "reflexive closure entry"
        total = sum(len(up) for up in above.values())
        if total <= _VALIDATE_CLOSURE_LIMIT:
            for x, up in above.items():
                for y in up:
                    assert x not in above[y], f"antisymmetry violated at {x!r}, {y!r}"
                    assert above[y] <= up, f"relation not transitively closed at {x!r} < {y!r}"

    @classmethod
    def _from_closed(cls, elems, above, heights=None):
        self = cls.__new__(cls)
        self._init_from_closed(list(elems), dict(above), heights)
        return self

    # -- basic queries ------------------------------------------------------

    def __len__(self):
        return len(self._elements)

    def __iter__(self):
        return iter(self._elements)

    def __contains__(self, x):
        return x in self._eset

    @property
    def elements(self):
        return self._elements

    def above(self, x) -> FrozenSet:
        return self._above[x]

    def below(self, x) -> FrozenSet:
        if self._below is None:
            below = {e: set() for e in self._elements}
            for a, up in self._above.items():
                for b in up:
                    below[b].add(a)
            self._below = {e: frozenset(s) for e, s in below.items()}
        return self._below[x]

    def lt(self, x, y) -> bool:
        return y in self._above[x]

    def le(self, x, y) -> bool:
        return x == y or y in self._above[x]

    def comparable(self, x, y) -> bool:
        return x == y or y in self._above[x] or x in self._above[y]

    def minimal_elements(self):
        return [x for x in self._elements if not self.below(x)]

    def maximal_elements(self):
        return [x for x in self._elements if not self._above[x]]

    def relation_pairs(self):
        for x in self._elements:
            for y in sorted(self._above[x], key=_label_key):
                yield (x, y)

    def linear_extension(self):
        return sorted(self._elements, key=lambda x: (len(self.below(x)), _label_key(x)))

    # -- heights ------------------------------------------------------------

    def standard_heights(self) -> Dict:
        """Longest-chain height of every element."""
        if self._std_heights is None:
            h = {}
            for x in sorted(self._elements, key=lambda e: len(self.below(e))):
                lower = self.below(x)
                h[x] = 1 + max((h[p] for p in lower), default=-1)
            self._std_heights = h
        return self._std_heights

    def heights(self) -> Dict:
        return self._heights if self._heights is not None else self.standard_heights()

    def with_heights(self, heights: Dict) -> "FinitePoset":
        assert set(heights) == set(self._elements)
        for x in self._elements:
            for y in self._above[x]:
                assert heights[x] < heights[y], "heights must be strictly monotone"
        return FinitePoset._from_closed(self._elements, self._above, heights)

    def dim(self) -> int:
        """Length of the longest chain; -1 for the empty poset."""
        return max(self.standard_heights().values(), default=-1)

    # -- derived posets -----------------------------------------------------

    def induced(self, subset) -> "FinitePoset":
        sub = frozenset(subset)
        assert sub <= self._eset, "induced subset must consist of elements"
        above = {x: self._above[x] & sub for x in sub}
        h = None
        if self._heights is not None:
            h = {x: self._heights[x] for x in sub}
        return FinitePoset._from_closed(sub, above, h)

    def opposite(self) -> "FinitePoset":
        if self._below is None:
            below = {e: set() for e in self._elements}
            for a, up in self._above.items():
                for b in up:
                    below[b].add(a)
            self._below = {e: frozenset(s) for e, s in below.items()}
        h = None
        if self._heights is not None:
            h = {x: -v for x, v in self._heights.items()}
        return FinitePoset._from_closed(self._elements, dict(self._below), h)

    def subposet_lt(self, x):
        return self.induced(self.below(x))

    def subposet_gt(self, x):
        return self.induced(self._above[x])

    def subposet_ge(self, x):
        return self.induced(self._above[x] | {x})

    def open_interval(self, x, y):
        assert self.lt(x, y)
        return self.induced(self._above[x] & self.below(y))

    def link(self, x):
        """Induced subposet of everything comparable to x, x removed."""
        return self.induced(self._above[x] | self.below(x))

    def covers(self, x):
        """Elements immediately above x."""
        up = self._above[x]
        return frozenset(y for y in up if not (self.below(y) & up))

    def __eq__(self, other):
        if not isinstance(other, FinitePoset):
            return NotImplemented
        return self._eset == other._eset and self._above == other._above

    def __repr__(self):
        return f"FinitePoset({len(self._elements)} elements, dim {self.dim()})"


def barycentric_subdivision(P: FinitePoset) -> FinitePoset:
    """Poset of nonempty chains of P ordered by refinement."""
    chains = []

    def grow(prefix, last):
        chains.append(tuple(prefix))
        for y in sorted(P.above(last), key=_label_key):
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
    if sorted(map(_label_key, mapping.values())) != sorted(map(_label_key, Q.elements)):
        return False
    for x in P:
        for y in P:
            if x != y and P.lt(x, y) != Q.lt(mapping[x], mapping[y]):
                return False
    return True


class PosetMap:
    """A monotone map between finite posets, validated on construction."""

    def __init__(self, source: FinitePoset, target: FinitePoset, mapping: Dict):
        assert set(mapping) == set(source.elements), "mapping must be total"
        for v in mapping.values():
            assert v in target, f"value {v!r} not in target"
        for x in source:
            fx = mapping[x]
            for y in source.above(x):
                assert target.le(fx, mapping[y]), \
                    f"not monotone at {x!r} < {y!r}"
        self.source = source
        self.target = target
        self.mapping = dict(mapping)

    def __call__(self, x):
        return self.mapping[x]

    def compose(self, other: "PosetMap") -> "PosetMap":
        """self after other."""
        assert other.target is self.source or other.target == self.source
        return PosetMap(other.source, self.target,
                        {x: self.mapping[other.mapping[x]] for x in other.source})

    def opposite(self) -> "PosetMap":
        return PosetMap(self.source.opposite(), self.target.opposite(), self.mapping)

    def fiber_le(self, y) -> FinitePoset:
        """f/y: induced subposet of the source on {x : f(x) <= y}."""
        return self.source.induced([x for x in self.source if self.target.le(self.mapping[x], y)])

    def fiber_ge(self, y) -> FinitePoset:
        """y\\f: induced subposet of the source on {x : f(x) >= y}."""
        return self.source.induced([x for x in self.source if self.target.le(y, self.mapping[x])])

    def __eq__(self, other):
        if not isinstance(other, PosetMap):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.mapping == other.mapping)


def identity_map(P: FinitePoset) -> PosetMap:
    return PosetMap(P, P, {x: x for x in P})


def constant_map(P: FinitePoset, Q: FinitePoset, q) -> PosetMap:
    return PosetMap(P, Q, {x: q for x in P})


def pointwise_le(f: PosetMap, g: PosetMap) -> bool:
    assert f.source == g.source and f.target == g.target
    return all(f.target.le(f(x), g(x)) for x in f.source)


def inclusion_map(P: FinitePoset, Q: FinitePoset) -> PosetMap:
    return PosetMap(P, Q, {x: x for x in P})


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


def thick_join_collapse(X: FinitePoset, Y: FinitePoset, tag_always: bool = False):
    """The projection thick_join(X, Y) -> join(X, Y) sending (x, y) to y."""
    W = thick_join(X, Y, tag_always)
    J = join(X, Y)
    collide_j = bool(set(X.elements) & set(Y.elements))
    jx = (lambda x: (0, x)) if collide_j else (lambda x: x)
    jy = (lambda y: (1, y)) if collide_j else (lambda y: y)
    plain = not tag_always
    if plain:
        labels = set(X.elements) | set(Y.elements) | {(x, y) for x in X for y in Y}
        plain = len(labels) == len(X) + len(Y) + len(X) * len(Y)
    mapping = {}
    for x in X:
        mapping[x if plain else ("x", x)] = jx(x)
    for y in Y:
        mapping[y if plain else ("y", y)] = jy(y)
    for x in X:
        for y in Y:
            mapping[(x, y) if plain else ("p", x, y)] = jy(y)
    return PosetMap(W, J, mapping)


def _cylinder_labels(f: PosetMap):
    collide = bool(set(f.source.elements) & set(f.target.elements))
    if collide:
        return (lambda x: ("src", x)), (lambda y: ("tgt", y))
    return (lambda x: x), (lambda y: y)


def mapping_cylinder(f: PosetMap, truncate=None):
    """Cylinder of a monotone map, with the target glued in below the source.

    Returns (M, src, tgt) where src and tgt map original labels to labels
    in M.  x sits above y exactly when f(x) >= y, which is already a closed
    relation.  With ``truncate`` only the part of the target of height at
    most that value is kept; dropping everything gives back the source.
    """
    X, Y0 = f.source, f.target
    Y = Y0
    if truncate is not None:
        hy = Y0.heights()
        keep = [y for y in Y0 if hy[y] <= truncate]
        if not keep:
            return X, {x: x for x in X}, {}
        Y = Y0.induced(keep)
    lx, ly = _cylinder_labels(f)
    kept = set(Y.elements)
    up = {y: set(Y.above(y)) for y in Y}
    srcs_over = {y: set() for y in Y}
    for x in X:
        fx = f(x)
        for y in Y0.below(fx) | {fx}:
            if y in kept:
                srcs_over[y].add(x)
    above = {}
    for y in Y:
        above[ly(y)] = (frozenset(ly(v) for v in up[y])
                        | frozenset(lx(x) for x in srcs_over[y]))
    for x in X:
        above[lx(x)] = frozenset(lx(v) for v in X.above(x))
    M = FinitePoset._from_closed(list(above), above)
    return M, {x: lx(x) for x in X}, {y: ly(y) for y in Y}


def mapping_cone(f: PosetMap):
    """Cylinder plus a fresh vertex below all of the source.

    Coning off the source leaves the homotopy cofiber of the map; the
    target part is untouched.  Returns (M, src, tgt, tip).
    """
    M0, src, tgt = mapping_cylinder(f)
    tip = ("cone",)
    while tip in M0:
        tip = tip + ("cone",)
    srcset = frozenset(src.values())
    above = {e: M0.above(e) for e in M0}
    above[tip] = srcset
    M = FinitePoset._from_closed(list(above), above)
    return M, src, tgt, tip


def dual_cylinder(f: PosetMap):
    """Cylinder with the target above: x < y exactly when f(x) <= y."""
    X, Y = f.source, f.target
    lx, ly = _cylinder_labels(f)
    above = {}
    for x in X:
        fx = f(x)
        above[lx(x)] = (frozenset(lx(v) for v in X.above(x))
                        | frozenset(ly(y) for y in Y if Y.le(fx, y)))
    for y in Y:
        above[ly(y)] = frozenset(ly(v) for v in Y.above(y))
    M = FinitePoset._from_closed(list(above), above)
    return M, {x: lx(x) for x in X}, {y: ly(y) for y in Y}


def cylinder_link_check(f: PosetMap, y) -> bool:
    """Check the cylinder link identity at a target element.

    In the cylinder truncated at the height of y, the link of y is the
    join of the open lower set under y with the fiber {x : f(x) >= y},
    as an equality of labeled posets.  Requires disjoint label sets so
    both sides carry original labels.
    """
    assert not (set(f.source.elements) & set(f.target.elements))
    k = f.target.heights()[y]
    M, _, tgt = mapping_cylinder(f, truncate=k)
    link = M.link(tgt[y])
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
            top = rng.choice(sorted(Q.maximal_elements(), key=_label_key))
            return constant_map(P, Q, top)
        mapping[x] = rng.choice(sorted(cands, key=_label_key))
    return PosetMap(P, Q, mapping)
