"""Alternating forms over a Euclidean scalar ring and their submodules.

A module is a free module R^n with an alternating Gram matrix whose induced
form on the quotient by its radical is unimodular; constructors reject
anything else.  Submodules are always saturated spans in canonical form
(reduced echelon over a field, Hermite over the integers), so equal
submodules have equal basis tuples and the basis tuple can serve as a
dictionary key or poset label.

Over a prime field F_p a submodule of F_p^n also carries, built on first
use, its member bitmask of p^n bits: bit i is set when the i-th vector of
F_p^n in base-p order (``linalg.PackedSpace``) lies in the span.
Containment is then a bit test and an intersection an AND of two masks;
an intersection or a perp keeps only its mask and its rank, read from the
popcount, and computes its canonical basis when that is first read.
``SymplecticModule.perp_masks`` holds each vector's perp as a mask, so
orthogonality to a set is an AND.  Over the integers these operations
stay with linear algebra on the Hermite form (``rref_with_transform``).
"""

from __future__ import annotations

import itertools
from typing import List, Sequence, Tuple

from . import linalg
from .linalg import (PackedSpace, bareiss_det, canonical_span_basis,
                     left_kernel, mat_mul, solve_left, transpose)
from .rings import EuclideanScalarRing, PrimeField
from .snf import CertificateError, dense_smith


class SymplecticModule:
    def __init__(self, ring: EuclideanScalarRing, gram):
        n = len(gram)
        gram = [[ring.reduce(v) for v in row] for row in gram]
        if any(len(row) != n for row in gram):
            raise ValueError("gram must be square")
        for i in range(n):
            if ring.reduce(gram[i][i]) != 0:
                raise ValueError("gram has a nonzero diagonal entry")
            for j in range(n):
                if ring.reduce(ring.add(gram[i][j], gram[j][i])) != 0:
                    raise ValueError("gram is not skew symmetric")
        self.ring = ring
        self.gram = gram
        self.rank = n
        rad = left_kernel(ring, gram, n)
        self._radical_basis = canonical_span_basis(ring, rad, n)
        form_rank = n - len(self._radical_basis)
        if form_rank % 2 != 0:
            raise ValueError("form rank is odd")  # cannot happen for alternating
        self.genus = form_rank // 2
        self._packed = None
        self._perp_masks = None
        if not ring.is_field():
            inv = dense_smith(gram, n)
            if any(v != 1 for v in inv):
                raise ValueError(
                    "form is not quasi-unimodular: invariant factors "
                    f"{inv} on the quotient by the radical")

    @classmethod
    def standard(cls, ring: EuclideanScalarRing, g: int, r: int = 0) -> "SymplecticModule":
        """g hyperbolic planes followed by an r-dimensional radical."""
        n = 2 * g + r
        gram = [[0] * n for _ in range(n)]
        for i in range(g):
            gram[2 * i][2 * i + 1] = ring.reduce(1)
            gram[2 * i + 1][2 * i] = ring.reduce(-1)
        return cls(ring, gram)

    def pair(self, u, v):
        ring = self.ring
        acc = 0
        for i, ui in enumerate(u):
            if ui:
                row = self.gram[i]
                for j, vj in enumerate(v):
                    if vj and row[j]:
                        acc += ui * row[j] * vj
        return ring.reduce(acc)

    def radical(self) -> "Submodule":
        return Submodule(self, self._radical_basis, _canonical=True)

    def radical_rank(self) -> int:
        return len(self._radical_basis)

    def submodule(self, rows) -> "Submodule":
        return Submodule(self, rows)

    def zero_submodule(self) -> "Submodule":
        return Submodule(self, (), _canonical=True)

    def full_submodule(self) -> "Submodule":
        return Submodule(self, linalg.identity(self.rank))

    def packed(self) -> PackedSpace:
        """The numbering of all p^rank vectors; finite fields only."""
        if not isinstance(self.ring, PrimeField):
            raise ValueError("packed vectors need a finite field")
        if self._packed is None:
            self._packed = PackedSpace(self.ring.p, self.rank)
        return self._packed

    def vectors(self):
        """All vectors in base-p order; finite fields only."""
        return iter(self.packed().vectors)

    def perp_masks(self) -> List[int]:
        """For each packed vector w, the member mask of the vectors that
        pair to zero with w, made once from all p^(2n) pairings."""
        if self._perp_masks is None:
            vs = self.packed().vectors
            self._perp_masks = [int("".join(
                "0" if self.pair(v, w) else "1" for v in reversed(vs)), 2)
                for w in vs]
        return self._perp_masks

    def __eq__(self, other):
        return (isinstance(other, SymplecticModule)
                and self.ring == other.ring and self.gram == other.gram)

    def __repr__(self):
        return f"SymplecticModule({self.ring.name}, rank {self.rank}, genus {self.genus})"


class Submodule:
    """A saturated submodule in canonical basis form.

    Over a field an intersection or a perp is born from its member mask
    alone: its rank is read from the mask's popcount, p^rank, and its
    canonical basis is computed from the mask only when ``basis``,
    ``key()``, ``==`` or ``hash`` first reads it.  A chain of intersections
    that only tests containment and rank, as ``builders.build_D`` does,
    runs no echelon form.
    """

    def __init__(self, module: SymplecticModule, rows, _canonical=False):
        self.module = module
        if _canonical:
            self._basis = tuple(tuple(r) for r in rows)
        else:
            self._basis = canonical_span_basis(
                module.ring, [list(r) for r in rows], module.rank)
        self.rank = len(self._basis)
        self._mask = None
        self._perp = None

    @classmethod
    def _from_mask(cls, module: SymplecticModule, mask: int) -> "Submodule":
        """The subspace of F_p^n whose member mask is ``mask``."""
        self = cls.__new__(cls)
        self.module = module
        self._basis = None
        self._mask = mask
        self._perp = None
        p = module.ring.p
        size, rank = mask.bit_count(), 0
        while size > 1 and size % p == 0:
            size //= p
            rank += 1
        if size != 1:
            raise CertificateError("a member mask is not a subspace")
        self.rank = rank
        return self

    @property
    def basis(self) -> Tuple:
        if self._basis is None:
            M = self.module
            basis = canonical_span_basis(
                M.ring, M.packed().spanning_rows(self._mask), M.rank)
            if len(basis) != self.rank:
                raise CertificateError(
                    "a member mask's echelon rank differs from its size")
            self._basis = basis
        return self._basis

    def key(self) -> Tuple:
        return self.basis

    def members(self) -> int:
        """Bitmask of the vectors in the span; finite fields only."""
        if self._mask is None:
            self._mask = self.module.packed().span_mask(self.basis)
        return self._mask

    def contains(self, v) -> bool:
        M = self.module
        if M.ring.is_field():
            return bool(self.members() >> M.packed().index_of(v) & 1)
        return linalg.span_contains(M.ring, self.basis, v, M.rank)

    def contains_submodule(self, other: "Submodule") -> bool:
        if self.module.ring.is_field():
            return other.members() & ~self.members() == 0
        return all(self.contains(r) for r in other.basis)

    def restricted_gram(self):
        """The form on the basis.  The module's constructor certifies that
        the form is alternating, so only the pairs i < j are computed and
        the rest follows by antisymmetry."""
        M = self.module
        basis = self.basis
        k = len(basis)
        gram = [[0] * k for _ in range(k)]
        for i in range(k):
            for j in range(i + 1, k):
                v = M.pair(basis[i], basis[j])
                gram[i][j] = v
                gram[j][i] = M.ring.reduce(-v)
        return gram

    def is_unimodular(self) -> bool:
        """Restricted form nondegenerate with unit determinant."""
        if self.rank % 2 != 0:
            return False
        d = bareiss_det(self.restricted_gram())
        ring = self.module.ring
        if ring.is_field():
            return ring.reduce(d) != 0
        return abs(d) == 1

    def perp(self) -> "Submodule":
        if self._perp is None:
            M = self.module
            if self.rank == 0:
                self._perp = M.full_submodule()
            else:
                C = mat_mul(M.ring, M.gram,
                            transpose([list(r) for r in self.basis], M.rank),
                            bcols=self.rank)
                rows = left_kernel(M.ring, C, self.rank)
                if M.ring.is_field():
                    self._perp = Submodule._from_mask(
                        M, M.packed().span_mask(rows))
                else:
                    self._perp = Submodule(M, rows)
        return self._perp

    def add(self, other: "Submodule") -> "Submodule":
        if self.module is not other.module and self.module != other.module:
            raise ValueError("submodules of different modules")
        return Submodule(self.module, list(self.basis) + list(other.basis))

    def intersect(self, other: "Submodule") -> "Submodule":
        M = self.module
        if M.ring.is_field():
            return Submodule._from_mask(M, self.members() & other.members())
        eq = (list(linalg.right_kernel(M.ring, [list(r) for r in self.basis], M.rank))
              + list(linalg.right_kernel(M.ring, [list(r) for r in other.basis], M.rank)))
        rows = linalg.right_kernel(M.ring, eq, M.rank)
        return Submodule(M, rows)

    def __eq__(self, other):
        return (isinstance(other, Submodule) and self.module == other.module
                and self.basis == other.basis)

    def __hash__(self):
        return hash(self.basis)

    def __repr__(self):
        return f"Submodule(rank {self.rank} of {self.module!r})"


def enumerate_unimodular_submodules(L: SymplecticModule) -> List[Submodule]:
    """All unimodular submodules, every genus from 0 to g; finite field only.

    Enumerates subspaces of each even dimension by echelon pivot pattern,
    keeping those whose restricted form is nondegenerate.  Output is in a
    canonical deterministic order.
    """
    ring = L.ring
    if not isinstance(ring, PrimeField):
        raise ValueError("enumerable over finite fields only")
    p = ring.p
    n = L.rank
    found = [L.zero_submodule()]
    for k in range(2, n + 1, 2):
        for pivots in itertools.combinations(range(n), k):
            free_pos = []
            for i, c in enumerate(pivots):
                for j in range(c + 1, n):
                    if j not in pivots:
                        free_pos.append((i, j))
            for vals in itertools.product(range(p), repeat=len(free_pos)):
                rows = [[0] * n for _ in range(k)]
                for i, c in enumerate(pivots):
                    rows[i][c] = 1
                for (i, j), v in zip(free_pos, vals):
                    rows[i][j] = v
                S = Submodule(L, rows, _canonical=True)
                if S.is_unimodular():
                    found.append(S)
    found.sort(key=lambda s: (s.rank, s.basis))
    if len({s.basis for s in found}) != len(found):
        raise CertificateError("a unimodular submodule was enumerated twice")
    return found


def is_isotropic_sequence(L: SymplecticModule, lifts: Sequence) -> bool:
    """Pairwise orthogonal lifts projecting to a partial basis of L/radical."""
    lifts = [list(v) for v in lifts]
    for i in range(len(lifts)):
        for j in range(i + 1, len(lifts)):
            if L.pair(lifts[i], lifts[j]) != 0:
                return False
    rad = [list(r) for r in L._radical_basis]
    stacked = rad + lifts
    want = len(rad) + len(lifts)
    if len(canonical_span_basis(L.ring, stacked, L.rank)) != want:
        return False
    if not L.ring.is_field():
        # image must be a direct summand: the plain span must already be
        # saturated, which canonical_span_basis would otherwise enlarge
        H, _, piv = linalg.rref_with_transform(L.ring, stacked, L.rank)
        plain = tuple(tuple(H[i]) for i in range(len(piv)))
        if plain != canonical_span_basis(L.ring, stacked, L.rank):
            return False
    return True


class RadicalQuotient:
    """L/radical as a unimodular module, with a section ``lift``.

    The complement of the radical is spanned by the standard basis vectors
    at the non-pivot columns of the radical's canonical basis; ``lift``
    sends a quotient vector to its combination of those basis vectors, so
    the lifts and the radical together span L.
    """

    def __init__(self, L: SymplecticModule):
        ring = L.ring
        if not ring.is_field():
            raise ValueError("radical quotient needs a field")
        rad = [list(r) for r in L._radical_basis]
        pivots = set()
        for row in rad:
            for j, v in enumerate(row):
                if v:
                    pivots.add(j)
                    break
        comp = [j for j in range(L.rank) if j not in pivots]
        C = [[1 if j == c else 0 for j in range(L.rank)] for c in comp]
        gram = [[L.pair(a, b) for b in C] for a in C]
        self.ambient = L
        self.module = SymplecticModule(ring, gram)
        if self.module.radical_rank() != 0 or self.module.genus != L.genus:
            raise CertificateError("quotient by the radical is not unimodular "
                                   "of the ambient genus")
        self._comp = C

    def lift(self, w):
        return tuple(linalg.vec_mat(self.ambient.ring, list(w), self._comp,
                                    self.ambient.rank))


def symplectic_dual_family(u: Submodule, es: Sequence):
    """Vectors f_i in u with <e_i, f_j> = delta and <f_i, f_j> = 0.

    The e_i must lie in u and admit such duals (they do when they are part
    of a symplectic basis, e.g. lifted from an isotropic sequence); raises
    if the linear systems do not solve.
    """
    M = u.module
    ring = M.ring
    B = [list(r) for r in u.basis]
    k = len(es)
    for i in range(k):
        if not u.contains(es[i]):
            raise ValueError("e_i must lie in u")
        for j in range(i + 1, k):
            if M.pair(es[i], es[j]) != 0:
                raise ValueError("e_i must be mutually orthogonal")
    P = [[M.pair(e, b) for e in es] for b in B]  # P[b][i] = <e_i, b>
    fs = []
    for j in range(k):
        delta = [ring.reduce(1) if i == j else 0 for i in range(k)]
        y = solve_left(ring, P, delta, k)
        if y is None:
            raise ValueError("no symplectic dual family: e_i not part of a basis")
        fs.append(linalg.vec_mat(ring, y, B, M.rank))
    for i in range(k):
        for j in range(i + 1, k):
            c = M.pair(fs[i], fs[j])
            if c:
                fs[j] = [ring.add(a, ring.mul(c, b)) for a, b in zip(fs[j], es[i])]
            if M.pair(fs[i], fs[j]):
                raise CertificateError("dual family is not isotropic")
    for i in range(k):
        for j in range(k):
            want = ring.reduce(1) if i == j else 0
            if M.pair(es[i], fs[j]) != want:
                raise CertificateError("dual family is not dual to the e_i")
    return fs
