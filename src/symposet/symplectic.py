"""Alternating forms over a Euclidean scalar ring and their submodules.

A module is a free module R^n with an alternating Gram matrix whose induced
form on the quotient by its radical is unimodular; constructors reject
anything else.  Submodules are always saturated spans in canonical form
(reduced echelon over a field, Hermite over the integers), so equal
submodules have equal basis tuples and the basis tuple can serve as a
dictionary key or poset label.

Over a prime field F_p a submodule of F_p^n also carries, built on first
use, its member bitmask: bit i is set when the i-th vector of F_p^n in
base-p order (``linalg.PackedSpace``) lies in the span.  A mask costs p^n
bits, 64 at genus 3 over F_2, and the module caches the vector/index
table it refers to.  Containment of a vector or a submodule is then a bit
test and an intersection is an AND of two masks, followed by one echelon
call for the canonical basis.  Over the integers the module is infinite,
so these operations stay with Hermite-form linear algebra.
"""

from __future__ import annotations

import itertools
from typing import List, Sequence, Tuple

from . import linalg
from .linalg import (PackedSpace, bareiss_det, canonical_span_basis,
                     left_kernel, mat_mul, matrix_rank, solve_left, transpose)
from .rings import EuclideanScalarRing, PrimeField, ZZ
from .snf import dense_smith


class SymplecticModule:
    def __init__(self, ring: EuclideanScalarRing, gram):
        n = len(gram)
        gram = [[ring.reduce(v) for v in row] for row in gram]
        assert all(len(row) == n for row in gram), "gram must be square"
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
        assert isinstance(self.ring, PrimeField), "infinite ring"
        if self._packed is None:
            self._packed = PackedSpace(self.ring.p, self.rank)
        return self._packed

    def vectors(self):
        """All vectors in base-p order; finite fields only."""
        return iter(self.packed().vectors)

    def __eq__(self, other):
        return (isinstance(other, SymplecticModule)
                and self.ring == other.ring and self.gram == other.gram)

    def __repr__(self):
        return f"SymplecticModule({self.ring.name}, rank {self.rank}, genus {self.genus})"


class Submodule:
    """A saturated submodule in canonical basis form."""

    def __init__(self, module: SymplecticModule, rows, _canonical=False):
        self.module = module
        if _canonical:
            self.basis = tuple(tuple(r) for r in rows)
        else:
            self.basis = canonical_span_basis(
                module.ring, [list(r) for r in rows], module.rank)
        self.rank = len(self.basis)
        self._mask = None
        self._perp = None

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
        M = self.module
        return [[M.pair(a, b) for b in self.basis] for a in self.basis]

    def form_rank(self) -> int:
        return matrix_rank(self.module.ring, self.restricted_gram(), self.rank)

    def is_unimodular(self) -> bool:
        """Restricted form nondegenerate with unit determinant."""
        if self.rank % 2 != 0:
            return False
        d = bareiss_det(self.restricted_gram())
        ring = self.module.ring
        if ring.is_field():
            return ring.reduce(d) != 0
        return abs(d) == 1

    def genus(self) -> int:
        assert self.is_unimodular()
        return self.rank // 2

    def perp(self) -> "Submodule":
        if self._perp is None:
            M = self.module
            if self.rank == 0:
                self._perp = M.full_submodule()
            else:
                C = mat_mul(M.ring, M.gram,
                            transpose([list(r) for r in self.basis], M.rank),
                            bcols=self.rank)
                self._perp = Submodule(M, left_kernel(M.ring, C, self.rank))
        return self._perp

    def add(self, other: "Submodule") -> "Submodule":
        assert self.module is other.module or self.module == other.module
        return Submodule(self.module, list(self.basis) + list(other.basis))

    def intersect(self, other: "Submodule") -> "Submodule":
        M = self.module
        if M.ring.is_field():
            mask = self.members() & other.members()
            out = Submodule(M, M.packed().spanning_rows(mask))
            out._mask = mask
            return out
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


def unimodular_test(S: Submodule):
    """(is_unimodular, genus or None)."""
    if S.is_unimodular():
        return True, S.rank // 2
    return False, None


def enumerate_unimodular_submodules(L: SymplecticModule) -> List[Submodule]:
    """All unimodular submodules, every genus from 0 to g; finite field only.

    Enumerates subspaces of each even dimension by echelon pivot pattern,
    keeping those whose restricted form is nondegenerate.  Output is in a
    canonical deterministic order.
    """
    ring = L.ring
    assert isinstance(ring, PrimeField), "enumerable over finite fields only"
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
    assert len({s.basis for s in found}) == len(found)
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
        H, _, piv = linalg.hermite_with_transform(stacked, L.rank)
        plain = tuple(tuple(H[i]) for i in range(len(piv)))
        if plain != canonical_span_basis(L.ring, stacked, L.rank):
            return False
    return True


def Lv_submodule(L: SymplecticModule, lifts: Sequence) -> Submodule:
    """L_v as a submodule of L: everything pairing to zero with the lifts."""
    return Submodule(L, list(lifts)).perp()


def restrict_Lv(L: SymplecticModule, lifts: Sequence) -> SymplecticModule:
    """The symplectic module L_v (or L_bold-v) with its induced form.

    The result carries ``ambient`` and ``embedding`` attributes: embedding
    rows express its basis inside L.  Genus drops by the number of lifts
    and the radical grows by them.
    """
    assert is_isotropic_sequence(L, lifts), "lifts must form an isotropic sequence"
    sub = Lv_submodule(L, lifts)
    emb = [list(r) for r in sub.basis]
    gram = [[L.pair(a, b) for b in emb] for a in emb]
    out = SymplecticModule(L.ring, gram)
    assert out.genus == L.genus - len(lifts)
    rad = out.radical()
    for v in lifts:
        coords = solve_left(L.ring, emb, list(v), L.rank)
        assert coords is not None and rad.contains(coords)
    for r in L._radical_basis:
        coords = solve_left(L.ring, emb, list(r), L.rank)
        assert coords is not None and rad.contains(coords)
    out.ambient = L
    out.embedding = tuple(tuple(r) for r in emb)
    return out


class RadicalQuotient:
    """L/radical together with projection and a section.

    The complement of the radical is spanned by the standard basis vectors
    at the non-pivot columns of the radical's canonical basis, so over the
    standard modules the projection is just a coordinate selection.
    """

    def __init__(self, L: SymplecticModule):
        ring = L.ring
        assert ring.is_field(), "radical quotient needs a field"
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
        assert self.module.radical_rank() == 0
        assert self.module.genus == L.genus
        self._stack = rad + C
        self._nrad = len(rad)
        self._comp = C

    def project(self, v):
        x = solve_left(self.ambient.ring, self._stack, list(v), self.ambient.rank)
        assert x is not None
        return tuple(x[self._nrad:])

    def lift(self, w):
        return tuple(linalg.vec_mat(self.ambient.ring, list(w), self._comp,
                                    self.ambient.rank))


def quotient_by_radical(L: SymplecticModule) -> RadicalQuotient:
    return RadicalQuotient(L)


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
        assert u.contains(es[i])
        for j in range(i + 1, k):
            assert M.pair(es[i], es[j]) == 0, "e_i must be mutually orthogonal"
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
            assert M.pair(fs[i], fs[j]) == 0
    for i in range(k):
        for j in range(k):
            want = ring.reduce(1) if i == j else 0
            assert M.pair(es[i], fs[j]) == want
    return fs


def unimodular_completion(L: SymplecticModule, u: Submodule, uprime: Submodule,
                          lifts: Sequence):
    """Combine a genus-(k+1) block over an isotropic sequence with a block
    of its perpendicular restriction.

    ``u`` must be unimodular with the k+1 lifts projecting into its image
    in the quotient by the radical; ``uprime`` unimodular and orthogonal
    to the lifts.  Returns (u + uprime, certificate): the sum is unimodular
    of genus genus(uprime) + k + 1, and the certificate holds the corrected
    symplectic vectors witnessing an internal orthogonal splitting.
    """
    ring = L.ring
    k1 = len(lifts)
    assert u.is_unimodular() and u.rank == 2 * k1, "u must be unimodular of matching genus"
    assert uprime.is_unimodular(), "u' must be unimodular"
    for v in lifts:
        for b in uprime.basis:
            assert L.pair(v, b) == 0, "u' must be orthogonal to the lifts"
    # e_i: the lift moved into u modulo the radical
    stacked = [list(r) for r in u.basis] + [list(r) for r in L._radical_basis]
    es = []
    for v in lifts:
        x = solve_left(ring, stacked, list(v), L.rank)
        assert x is not None, "lift does not project into the image of u"
        e = linalg.vec_mat(ring, x[:u.rank], [list(r) for r in u.basis], L.rank)
        es.append(e)
    fs = symplectic_dual_family(u, es)
    # push each f into the perpendicular of u' using the unimodular Gram
    Bp = [list(r) for r in uprime.basis]
    Gp = [[L.pair(a, b) for b in Bp] for a in Bp]
    f_corr = []
    for f in fs:
        rhs = [L.pair(f, b) for b in Bp]
        z = solve_left(ring, Gp, rhs, uprime.rank)
        assert z is not None  # unimodular Gram always solves
        fp = linalg.vec_mat(ring, z, Bp, L.rank) if uprime.rank else [0] * L.rank
        f_corr.append([ring.sub(a, b) for a, b in zip(f, fp)])
    for e in es:
        for b in Bp:
            assert L.pair(e, b) == 0
    for fc in f_corr:
        for b in Bp:
            assert L.pair(fc, b) == 0
    for i, e in enumerate(es):
        for j, fc in enumerate(f_corr):
            want = ring.reduce(1) if i == j else 0
            assert L.pair(e, fc) == want
    utilde = Submodule(L, es + f_corr)
    assert utilde.rank == 2 * k1 and utilde.is_unimodular()
    total = u.add(uprime)
    assert total == utilde.add(uprime)
    assert utilde.intersect(uprime).rank == 0
    assert total.is_unimodular(), "sum failed the unimodularity certificate"
    genus = total.rank // 2
    assert genus == uprime.rank // 2 + k1
    assert total.contains_submodule(u) and total.contains_submodule(uprime)
    cert = {
        "e": [tuple(e) for e in es],
        "f": [tuple(f) for f in f_corr],
        "genus": genus,
        "block": utilde.key(),
    }
    return total, cert
