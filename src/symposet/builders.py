"""Posets built from symplectic modules: unimodular submodules, isotropic
sequences, orthogonal decompositions, split sequences, and partial bases.

Labels follow one convention throughout: a submodule is represented by its
canonical basis tuple, a sequence of vectors by a tuple of coordinate
tuples, and a decomposition by the sorted tuple of its members' keys.
Equality of labels is then exactly equality of the mathematical objects.

Over F_p no builder scans pairs of submodules.  A ``ContainmentIndex``
maps each vector to the bitmask of the listed submodules that hold it, so
the submodules containing S are the AND of that mask over S's basis:
``build_U`` reads up-sets from an index over U, and ``build_D`` the parts
that fit beside those chosen from an index over the parts' perps.  Each
pair an index yields is confirmed by ``contains_submodule``, raising
CertificateError also under ``python -O``.  ``build_I`` and ``build_HU``
draw each next vector from the AND of their members' masks in
``SymplecticModule.perp_masks``, with no pairing scan, and
``flag_to_decomposition`` looks each piece of a flag up by member mask.
Masks grow by ``PackedSpace.extend``, which translates a whole mask by
shifts.

Every builder numbers its elements by their place in the list it made and
hands its relation as those ids to ``FinitePoset._from_ids``, which
numbers the labels by ``repr`` as the public constructor does and closes
and certifies the order on ints; no label is hashed per relation pair.
``build_U`` hands each whole up-set read from its index; the others hand
generating relations: the one-letter deletions of the sequence posets (I,
HU, O, partition sequences), and the merges of two parts or blocks of the
decomposition and partition posets.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, List, Sequence, Tuple

from .linalg import ContainmentIndex, PackedSpace, matrix_rank, set_bits
from .posets import FinitePoset, PosetMap, barycentric_subdivision
from .rings import EuclideanScalarRing, PrimeField
from .snf import CertificateError, dense_smith
from .symplectic import (Submodule, SymplecticModule,
                         enumerate_unimodular_submodules)


# ---------------------------------------------------------------------------
# unimodular submodules

def build_U(L: SymplecticModule) -> FinitePoset:
    """All unimodular submodules of L ordered by inclusion; the height of
    a submodule is its genus.

    The submodules containing S are read from a containment index over
    the whole list, one AND per basis vector of S, and each pair it yields
    is confirmed with ``contains_submodule``; no pair of submodules is
    tested otherwise.  The index gives every submodule containing S, so
    each up-set is whole and is handed over as ids, with no closure.
    """
    subs = enumerate_unimodular_submodules(L)
    index = ContainmentIndex(L.packed(), [s.members() for s in subs])
    # one int object per list position, shared by every up-set holding it
    ids = list(range(len(subs)))
    above = []
    for k, s in enumerate(subs):
        up = [ids[t] for t in set_bits(index.containing(s.basis) & ~(1 << k))]
        for t in up:
            if not subs[t].contains_submodule(s):
                raise CertificateError(
                    "containment index put a submodule inside one that "
                    "does not contain it")
        above.append(up)
    del index, ids
    return FinitePoset._from_ids([s.key() for s in subs], above, closed=True)


def submodule_from_key(L: SymplecticModule, key) -> Submodule:
    return Submodule(L, key, _canonical=True)


# ---------------------------------------------------------------------------
# isotropic sequences

def build_I(L: SymplecticModule) -> FinitePoset:
    """Nonempty isotropic sequences projecting to partial bases of L/rad,
    ordered by subword, height = length - 1.

    As in ``build_O``, each sequence carries the ``PackedSpace`` bitmask of
    span(radical + sequence), and also ``allowed``, the AND of its members'
    masks in ``L.perp_masks()``; the vectors extending it are the bits of
    ``allowed & ~span``, as ``is_isotropic_sequence`` with no echelon form.
    """
    if not isinstance(L.ring, PrimeField):
        raise ValueError("enumerable over finite fields only")
    packed, perp = L.packed(), L.perp_masks()
    current = [((), L.radical().members(), perp[0])]
    elements = []
    while current:
        nxt = []
        for seq, span, allowed in current:
            for i in set_bits(allowed & ~span):
                v = packed.vectors[i]
                nxt.append((seq + (v,), packed.extend(span, v),
                            allowed & perp[i]))
        elements.extend(seq for seq, _, _ in nxt)
        current = nxt
    return _subword_poset(elements)


def _subword_poset(elements) -> FinitePoset:
    """Nonempty sequences ordered by subword.

    The relation given is the one-letter deletions, as ids into
    ``elements``, closed by ``FinitePoset._from_ids``.  Each one-letter
    deletion of an element longer than one must be an element too, so by
    induction on length every nonempty proper subword is, and a sequence's
    height, the longest chain below it, is its length - 1.
    """
    ids = {seq: i for i, seq in enumerate(elements)}
    above = [[] for _ in elements]
    for j, seq in enumerate(elements):
        if len(seq) > 1:
            for i in range(len(seq)):
                sub = ids.get(seq[:i] + seq[i + 1:])
                if sub is None:
                    raise CertificateError("subword escaped the poset")
                above[sub].append(j)
    del ids
    return FinitePoset._from_ids(elements, above)


# ---------------------------------------------------------------------------
# unimodular decompositions

def build_D(L: SymplecticModule, strict: bool = False) -> FinitePoset:
    """Orthogonal decompositions of L into unimodular summands of positive
    genus, coarser below finer.  With ``strict``, D+: D without its
    one-part minimum {L}, taken from D by ``subposet_gt``.

    Merging two parts is a cover, so a decomposition into k parts sits at
    height k - 1, or k - 2 in D+.  The merges are the generating relation,
    and those of the two-part decompositions put {L} below every other.

    Parts are chosen in list order, each inside the perp of those chosen
    before it.  As L is unimodular, a part lies in that perp exactly when
    its own perp contains the parts chosen, so the candidates are read
    from a containment index over the parts' perps.  What remains of L is
    the intersection of the perps chosen, held as a member mask, so the
    recursion tests containment and rank with no echelon form.  A
    decomposition is held as the places of its parts in key order.  In a
    decomposition the span of two parts is the perp of the others, the
    AND of their perp masks, and is looked up among the parts by that
    mask.
    """
    if not isinstance(L.ring, PrimeField):
        raise ValueError("enumerable over finite fields only")
    if L.radical_rank() != 0:
        raise ValueError("L must be unimodular")
    parts = [s for s in enumerate_unimodular_submodules(L) if s.rank > 0]
    perps = [s.perp().members() for s in parts]
    orthogonal = ContainmentIndex(L.packed(), perps)
    beside = [orthogonal.containing(s.basis) for s in parts]
    # a decomposition is held as the sorted places of its parts in key
    # order, so its label is its parts' keys in that order
    order = sorted(range(len(parts)), key=lambda t: parts[t].key())
    place = [0] * len(parts)
    for r, t in enumerate(order):
        place[t] = r
    keys = [parts[t].key() for t in order]
    perp_at = [perps[t] for t in order]
    part_at = {parts[t].members(): r for r, t in enumerate(order)}
    decs: List[Tuple] = []

    def extend(chosen, remaining: Submodule, fits: int):
        # fits: the parts after the last one chosen that lie in remaining
        if remaining.rank == 0:
            decs.append(tuple(sorted(chosen)))
            return
        for t in set_bits(fits):
            s = parts[t]
            if not remaining.contains_submodule(s):
                raise CertificateError(
                    "containment index put a part outside the perp of the "
                    "parts chosen")
            rest = remaining.intersect(s.perp())
            if rest.rank != remaining.rank - s.rank:
                raise CertificateError("perp complement has the wrong rank")
            chosen.append(place[t])
            later = fits >> (t + 1) << (t + 1)
            extend(chosen, rest, later & beside[t])
            chosen.pop()

    extend([], L.full_submodule(), orthogonal.everything)
    del orthogonal, beside
    ids = {d: i for i, d in enumerate(decs)}
    everything = (1 << len(L.packed().vectors)) - 1
    above = [[] for _ in decs]
    for i_d, d in enumerate(decs):
        for i, j in itertools.combinations(range(len(d)), 2):
            rest = d[:i] + d[i + 1:j] + d[j + 1:]
            mask = everything
            for r in rest:
                mask &= perp_at[r]
            merged = part_at.get(mask)
            coarser = (ids.get(tuple(sorted(rest + (merged,))))
                       if merged is not None else None)
            if coarser is None:
                raise CertificateError("merge left the decomposition poset")
            above[coarser].append(i_d)
    del ids
    D = FinitePoset._from_ids(
        [tuple(map(keys.__getitem__, d)) for d in decs], above)
    return D.subposet_gt((keys[part_at[everything]],)) if strict else D


def flag_to_decomposition(L: SymplecticModule, U_gt=None, D=None) -> PosetMap:
    """The map from chains of nonzero unimodular submodules to decompositions:
    successive perpendicular differences, plus the top perp when the chain
    does not reach L.  Each piece, cur AND perp(prev) on member masks, is
    certified by finding its mask among those of ``U_gt``'s elements."""
    if U_gt is None:
        U_gt = build_U(L).subposet_gt(())
    if D is None:
        D = build_D(L)
    sd = barycentric_subdivision(U_gt)
    full_key = L.full_submodule().key()
    subs = {key: submodule_from_key(L, key) for key in U_gt}
    perps = {key: s.perp().members() for key, s in subs.items()}
    key_of = {s.members(): key for key, s in subs.items()}
    mapping = {}
    for chain in sd:
        pieces = [subs[cur].members() & perps[prev]
                  for prev, cur in zip(chain, chain[1:])]
        if chain[-1] != full_key:
            pieces.append(perps[chain[-1]])
        parts = [key_of.get(mask) for mask in pieces]
        if None in parts:
            raise CertificateError("flag step is not unimodular")
        label = tuple(sorted(parts + [chain[0]]))
        if label not in D:
            raise CertificateError("flag image is not a decomposition")
        mapping[chain] = label
    return PosetMap(sd, D, mapping)


# ---------------------------------------------------------------------------
# set partitions (the simplicial counterpart of decompositions)

def _canonical_partition(blocks) -> Tuple:
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


def set_partitions(items: Sequence) -> Iterator[list]:
    """Every set partition of ``items``, once each, as a list of blocks;
    each block lists its members in the order of ``items``."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in set_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [[first] + smaller[i]] + smaller[i + 1:]
        yield [[first]] + smaller


def partitions_poset(X: Iterable) -> FinitePoset:
    """Strict set partitions of X under refinement (coarser below finer)."""
    ground = sorted(set(X))
    if len(ground) < 2:
        raise ValueError("need at least two elements")
    partitions = [_canonical_partition(p) for p in set_partitions(ground)
                  if len(p) > 1]
    ids = {p: i for i, p in enumerate(partitions)}
    above = [[] for _ in partitions]
    for i_p, p in enumerate(partitions):
        if len(p) == 2:
            continue
        for i, j in itertools.combinations(range(len(p)), 2):
            rest = [b for t, b in enumerate(p) if t not in (i, j)]
            coarser = ids.get(_canonical_partition(rest + [p[i] + p[j]]))
            if coarser is None:
                raise CertificateError("coarsening is not a partition")
            above[coarser].append(i_p)
    return FinitePoset._from_ids(partitions, above)


# ---------------------------------------------------------------------------
# split unimodular sequences

def build_HU(g: int, ring: EuclideanScalarRing) -> FinitePoset:
    """Sequences of hyperbolic pairs in the standard genus-g module, ordered
    by subword of pairs.  With ``allowed`` the AND of a sequence's perp
    masks, a pair (v, w) extends it when v is a bit of ``allowed`` and w a
    bit of ``allowed & ~perp[v]`` with <v, w> = 1."""
    if not isinstance(ring, PrimeField):
        raise ValueError("enumerable over finite fields only")
    if g < 1:
        raise ValueError(f"genus must be at least 1, not {g}")
    L = SymplecticModule.standard(ring, g)
    vectors, perp = L.packed().vectors, L.perp_masks()
    elements: List[Tuple] = []
    current = [((), perp[0])]
    while current:
        nxt = []
        for seq, allowed in current:
            for i in set_bits(allowed):
                v = vectors[i]
                for j in set_bits(allowed & ~perp[i]):
                    w = vectors[j]
                    if L.pair(v, w) == 1:
                        nxt.append((seq + ((v, w),),
                                    allowed & perp[i] & perp[j]))
        elements.extend(seq for seq, _ in nxt)
        current = nxt
    return _subword_poset(elements)


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
        if label not in DP:
            raise CertificateError(
                "split sequence image is not a strict decomposition")
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
    if not all(parts):
        raise ValueError("partition parts must be nonempty")
    if sum(map(len, parts)) != len(ground) or \
            frozenset(ground) != frozenset().union(*parts):
        raise ValueError("P must be a partition of A")
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
    return _subword_poset(elements)


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
    if not is_partial_basis(ring, frozen, n):
        raise ValueError("frozen suffix must be a partial basis")
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
    return _subword_poset(elements)


def rho_vector(ring: EuclideanScalarRing, w_i: Sequence, v: Sequence, n: int):
    """v minus the Euclidean quotient of last coordinates times w_i."""
    if not ring.norm(w_i[n - 1]) > 0:
        raise ValueError("pivot vector needs a nonzero last coordinate")
    q = ring.euclid_q(v[n - 1], w_i[n - 1])
    out = tuple(ring.sub(a, ring.mul(q, b)) for a, b in zip(v, w_i))
    if not ring.norm(out[n - 1]) < ring.norm(w_i[n - 1]):
        raise CertificateError("division step did not lower the norm")
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
        if out not in P:
            raise CertificateError("retraction left the poset")
        mapping[seq] = out
    return PosetMap(P, P, mapping)
