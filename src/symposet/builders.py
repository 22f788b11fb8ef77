"""Posets built from symplectic modules: unimodular submodules, isotropic
sequences, orthogonal decompositions, split sequences, and partial bases.

Labels follow one convention throughout: a submodule is represented by its
canonical basis tuple, a sequence of vectors by a tuple of coordinate
tuples, and a decomposition by the sorted tuple of its members' keys.
Equality of labels is then exactly equality of the mathematical objects.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Sequence, Tuple

from .linalg import PackedSpace, matrix_rank
from .posets import FinitePoset, PosetMap, barycentric_subdivision
from .rings import EuclideanScalarRing, PrimeField, ZZ
from .snf import dense_smith
from .symplectic import (Submodule, SymplecticModule,
                         enumerate_unimodular_submodules,
                         is_isotropic_sequence)


# ---------------------------------------------------------------------------
# unimodular submodules

def build_U(L: SymplecticModule) -> FinitePoset:
    """All unimodular submodules of L ordered by inclusion, height = genus."""
    subs = enumerate_unimodular_submodules(L)
    by_rank: Dict[int, List[Submodule]] = {}
    for s in subs:
        by_rank.setdefault(s.rank, []).append(s)
    rel = []
    ranks = sorted(by_rank)
    for i, r in enumerate(ranks):
        for bigger in ranks[i + 1:]:
            for t in by_rank[bigger]:
                for s in by_rank[r]:
                    if t.contains_submodule(s):
                        rel.append((s.key(), t.key()))
    heights = {s.key(): s.rank // 2 for s in subs}
    return FinitePoset([s.key() for s in subs], rel, heights)


def submodule_from_key(L: SymplecticModule, key) -> Submodule:
    return Submodule(L, key, _canonical=True)


# ---------------------------------------------------------------------------
# isotropic sequences

def build_I(L: SymplecticModule) -> FinitePoset:
    """Nonempty isotropic sequences projecting to partial bases of L/rad,
    ordered by subword, height = length - 1."""
    assert isinstance(L.ring, PrimeField), "enumerable over finite fields only"
    vectors = [tuple(v) for v in L.vectors()]
    current = [(v,) for v in vectors if is_isotropic_sequence(L, (v,))]
    elements = []
    while current:
        elements.extend(current)
        nxt = []
        for seq in current:
            for v in vectors:
                if is_isotropic_sequence(L, seq + (v,)):
                    nxt.append(seq + (v,))
        current = nxt
    in_poset = set(elements)
    rel = _subword_relations(elements, in_poset)
    heights = {s: len(s) - 1 for s in elements}
    return FinitePoset(elements, rel, heights)


def _subword_relations(elements, in_poset):
    rel = []
    for seq in elements:
        n = len(seq)
        if n == 1:
            continue
        for k in range(1, n):
            for pos in itertools.combinations(range(n), k):
                sub = tuple(seq[i] for i in pos)
                assert sub in in_poset, "subword escaped the poset"
                rel.append((sub, seq))
    return rel


# ---------------------------------------------------------------------------
# unimodular decompositions

def build_D(L: SymplecticModule, strict: bool = False) -> FinitePoset:
    """Orthogonal decompositions of L into unimodular summands of positive
    genus, coarser below finer; ``strict`` drops the one-part minimum."""
    assert isinstance(L.ring, PrimeField), "enumerable over finite fields only"
    assert L.radical_rank() == 0, "L must be unimodular"
    parts = [s for s in enumerate_unimodular_submodules(L) if s.rank > 0]
    part_of = {s.key(): s for s in parts}
    decs: List[Tuple] = []

    def extend(chosen, remaining: Submodule, cands):
        if remaining.rank == 0:
            decs.append(tuple(sorted(chosen)))
            return
        fits = [s for s in cands
                if s.rank <= remaining.rank and remaining.contains_submodule(s)]
        for idx, s in enumerate(fits):
            rest = remaining.intersect(s.perp())
            assert rest.rank == remaining.rank - s.rank
            chosen.append(s.key())
            extend(chosen, rest, fits[idx + 1:])
            chosen.pop()

    extend([], L.full_submodule(), parts)
    if strict:
        decs = [d for d in decs if len(d) > 1]
    decset = set(decs)
    rel = []
    offset = 1 if strict else 0
    for d in decs:
        if len(d) < 2 or (strict and len(d) == 2):
            continue
        for i, j in itertools.combinations(range(len(d)), 2):
            merged = part_of[d[i]].add(part_of[d[j]])
            rest = tuple(k for t, k in enumerate(d) if t not in (i, j))
            coarser = tuple(sorted(rest + (merged.key(),)))
            assert coarser in decset, "merge left the decomposition poset"
            rel.append((coarser, d))
    if not strict:
        full = (L.full_submodule().key(),)
        for d in decs:
            if len(d) > 1:
                rel.append((full, d))
    heights = {d: len(d) - 1 - offset for d in decs}
    return FinitePoset(decs, rel, heights)


def decomposition_members(L: SymplecticModule, label) -> List[Submodule]:
    return [submodule_from_key(L, k) for k in label]


def flag_to_decomposition(L: SymplecticModule, U_gt=None, D=None) -> PosetMap:
    """The map from chains of nonzero unimodular submodules to decompositions:
    successive perpendicular differences, plus the top perp when the chain
    does not reach L."""
    if U_gt is None:
        U_gt = build_U(L).subposet_gt(())
    if D is None:
        D = build_D(L)
    sd = barycentric_subdivision(U_gt)
    full_key = L.full_submodule().key()
    step_cache: Dict[Tuple, Tuple] = {}
    perp_cache: Dict[Tuple, Tuple] = {}

    def perp_key(key):
        if key not in perp_cache:
            perp_cache[key] = submodule_from_key(L, key).perp().key()
        return perp_cache[key]

    def step(prev, cur):
        if (prev, cur) not in step_cache:
            piece = submodule_from_key(L, cur).intersect(
                submodule_from_key(L, perp_key(prev)))
            assert piece.is_unimodular() and piece.rank > 0
            step_cache[(prev, cur)] = piece.key()
        return step_cache[(prev, cur)]

    mapping = {}
    for chain in sd:
        members = [chain[0]]
        for prev, cur in zip(chain, chain[1:]):
            members.append(step(prev, cur))
        if chain[-1] != full_key:
            members.append(perp_key(chain[-1]))
        label = tuple(sorted(members))
        assert label in D, "flag image is not a decomposition"
        mapping[chain] = label
    return PosetMap(sd, D, mapping)


# ---------------------------------------------------------------------------
# set partitions (the simplicial counterpart of decompositions)

def _canonical_partition(blocks) -> Tuple:
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


def partitions_poset(X: Iterable) -> FinitePoset:
    """Strict set partitions of X under refinement (coarser below finer)."""
    ground = sorted(set(X))
    assert len(ground) >= 2, "need at least two elements"

    def gen(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for smaller in gen(rest):
            for i in range(len(smaller)):
                yield smaller[:i] + [[first] + smaller[i]] + smaller[i + 1:]
            yield [[first]] + smaller

    partitions = [_canonical_partition(p) for p in gen(ground) if len(p) > 1]
    pset = set(partitions)
    rel = []
    for p in partitions:
        if len(p) == 2:
            continue
        for i, j in itertools.combinations(range(len(p)), 2):
            rest = [b for t, b in enumerate(p) if t not in (i, j)]
            coarser = _canonical_partition(rest + [p[i] + p[j]])
            assert coarser in pset
            rel.append((coarser, p))
    heights = {p: len(p) - 2 for p in partitions}
    return FinitePoset(partitions, rel, heights)


def proper_subsets_poset(X: Iterable) -> FinitePoset:
    """Nonempty proper subsets of X ordered by inclusion."""
    ground = sorted(set(X))
    subs = []
    for k in range(1, len(ground)):
        subs.extend(itertools.combinations(ground, k))
    rel = [(a, b) for a in subs for b in subs
           if len(a) < len(b) and set(a) <= set(b)]
    return FinitePoset(subs, rel)


def g_plus_map(X: Iterable, DP: FinitePoset = None) -> PosetMap:
    """Chains of nested proper subsets to the strict partition they cut out."""
    ground = tuple(sorted(set(X)))
    if DP is None:
        DP = partitions_poset(ground)
    sd = barycentric_subdivision(proper_subsets_poset(ground))
    mapping = {}
    for chain in sd:
        blocks = [chain[0]]
        prev = set(chain[0])
        for cur in chain[1:]:
            blocks.append(tuple(sorted(set(cur) - prev)))
            prev = set(cur)
        blocks.append(tuple(sorted(set(ground) - prev)))
        label = _canonical_partition(blocks)
        assert label in DP
        mapping[chain] = label
    return PosetMap(sd, DP, mapping)


# ---------------------------------------------------------------------------
# split unimodular sequences

def build_HU(g: int, ring: EuclideanScalarRing) -> FinitePoset:
    """Sequences of hyperbolic pairs in the standard genus-g module, ordered
    by subword of pairs."""
    assert isinstance(ring, PrimeField), "enumerable over finite fields only"
    assert g >= 1
    L = SymplecticModule.standard(ring, g)
    vectors = [tuple(v) for v in L.vectors()]
    one = ring.reduce(1)

    def extensions(seq):
        out = []
        flat = [v for pair in seq for v in pair]
        for v in vectors:
            if any(L.pair(v, w) != 0 for w in flat):
                continue
            for w in vectors:
                if L.pair(v, w) != one:
                    continue
                if any(L.pair(w, x) != 0 for x in flat):
                    continue
                out.append(seq + ((v, w),))
        return out

    elements: List[Tuple] = []
    current = extensions(())
    while current:
        elements.extend(current)
        nxt = []
        for seq in current:
            nxt.extend(extensions(seq))
        current = nxt
    rel = _subword_relations(elements, set(elements))
    heights = {s: len(s) - 1 for s in elements}
    return FinitePoset(elements, rel, heights)


def hu_decomposition_map(g: int, ring: EuclideanScalarRing,
                         HU: FinitePoset = None, DP: FinitePoset = None) -> PosetMap:
    """Send a split sequence to its genus-1 summands plus the perp of their
    sum; the perp member is omitted exactly at full length g."""
    L = SymplecticModule.standard(ring, g)
    if HU is None:
        HU = build_HU(g, ring)
    if DP is None:
        DP = build_D(L, strict=True)
    mapping = {}
    for seq in HU:
        members = []
        span_rows: List[List] = []
        for v, w in seq:
            members.append(Submodule(L, [v, w]).key())
            span_rows.extend([list(v), list(w)])
        if len(seq) < g:
            members.append(Submodule(L, span_rows).perp().key())
        label = tuple(sorted(members))
        assert label in DP, "split sequence image is not a strict decomposition"
        mapping[seq] = label
    return PosetMap(HU, DP, mapping)


def genus_one_count(label) -> int:
    """Number of rank-2 members of a decomposition label."""
    return sum(1 for k in label if len(k) == 2)


def partition_sequences_poset(A: Iterable, P: Iterable) -> FinitePoset:
    """Nonempty sequences in A hitting every part of the partition P at most
    once, ordered by subword."""
    ground = sorted(set(A))
    parts = [frozenset(p) for p in P]
    assert all(parts), "partition parts must be nonempty"
    assert sum(len(p) for p in parts) == len(ground)
    assert frozenset(ground) == frozenset().union(*parts)
    part_index = {a: i for i, p in enumerate(parts) for a in p}

    def gen(seq, used):
        for a in ground:
            i = part_index[a]
            if i in used:
                continue
            ext = seq + (a,)
            yield ext
            yield from gen(ext, used | {i})

    elements = list(gen((), frozenset()))
    rel = _subword_relations(elements, set(elements))
    heights = {s: len(s) - 1 for s in elements}
    return FinitePoset(elements, rel, heights)


# ---------------------------------------------------------------------------
# partial bases

def is_partial_basis(ring: EuclideanScalarRing, rows: Sequence, n: int) -> bool:
    """Whether the rows extend to a basis of ring^n."""
    rows = [list(r) for r in rows]
    if not rows:
        return True
    if len(rows) > n:
        return False
    if ring.is_field():
        return matrix_rank(ring, rows, n) == len(rows)
    inv = dense_smith([list(r) for r in rows], n)
    return len(inv) == len(rows) and all(v == 1 for v in inv)


def build_O(n: int, ring: EuclideanScalarRing, bound: int = None,
            frozen: Sequence = (), pool: Sequence = None) -> FinitePoset:
    """Sequences extending ``frozen`` to a partial basis of ring^n, ordered
    by subword; ``bound`` caps the norm of the last coordinate.

    Over the integers an explicit finite ``pool`` of candidate vectors is
    required; finite fields enumerate the whole module.  Over a field the
    span of the current sequence is carried as a ``PackedSpace`` bitmask,
    and a vector extends the partial basis exactly when its bit is clear.
    """
    frozen = tuple(tuple(v) for v in frozen)
    assert is_partial_basis(ring, frozen, n), "frozen suffix must be a partial basis"
    if pool is None:
        if not isinstance(ring, PrimeField):
            raise ValueError("integer enumeration needs an explicit pool")
        pool = [tuple(v) for v in itertools.product(range(ring.p), repeat=n)]
    else:
        pool = [tuple(ring.reduce(c) for c in v) for v in pool]
    if bound is not None:
        pool = [v for v in pool if ring.norm(v[n - 1]) <= bound]

    if ring.is_field():
        packed = PackedSpace(ring.p, n)
        start = packed.span_mask(frozen)
        fits = lambda span, v: not span >> packed.index[v] & 1
        extend = packed.extend
    else:
        start = list(frozen)
        fits = lambda rows, v: is_partial_basis(ring, rows + [v], n)
        extend = lambda rows, v: rows + [v]
    elements: List[Tuple] = []
    room = n - len(frozen)

    def grow(seq, span):
        for v in pool:
            if v in seq or not fits(span, v):
                continue
            elements.append(seq + (v,))
            if len(seq) + 1 < room:  # a basis extends no further
                grow(seq + (v,), extend(span, v))

    grow((), start)
    rel = _subword_relations(elements, set(elements))
    heights = {s: len(s) - 1 for s in elements}
    return FinitePoset(elements, rel, heights)


def rho_vector(ring: EuclideanScalarRing, w_i: Sequence, v: Sequence, n: int):
    """v minus the Euclidean quotient of last coordinates times w_i."""
    assert ring.norm(w_i[n - 1]) > 0, "pivot vector needs a nonzero last coordinate"
    q = ring.euclid_q(v[n - 1], w_i[n - 1])
    out = tuple(ring.sub(a, ring.mul(q, b)) for a, b in zip(v, w_i))
    assert ring.norm(out[n - 1]) < ring.norm(w_i[n - 1])
    return out


def rho_sequence(ring: EuclideanScalarRing, w: Sequence, i: int, seq: Sequence, n: int):
    w_i = tuple(w[i])
    return tuple(rho_vector(ring, w_i, v, n) for v in seq)


def rho_poset_retraction(P: FinitePoset, ring: EuclideanScalarRing,
                         w: Sequence, i: int, n: int) -> PosetMap:
    """Elementwise application of the division step as a self-map of an
    O(n)_w poset; lands in the norm < ||last coord of w_i|| part."""
    mapping = {}
    for seq in P:
        out = rho_sequence(ring, w, i, seq, n)
        assert out in P, "retraction left the poset"
        mapping[seq] = out
    return PosetMap(P, P, mapping)
