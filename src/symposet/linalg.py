"""Dense exact linear algebra over a prime field or the integers.

Matrices are lists of row lists of ints.  The empty matrix [] is allowed
everywhere; functions that cannot infer the column count from the data take
an explicit ``ncols`` argument.  Row operations are the main tool: most
routines here are a variation on "reduce rows, remember the transform".
The exception is ``PackedSpace``, which holds subspaces of a small F_p^n
as bitmasks over its p^n vectors.
"""

from __future__ import annotations

import itertools

from .rings import EuclideanScalarRing


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(M, ncols):
    return [[M[r][c] for r in range(len(M))] for c in range(ncols)]


def mat_mul(ring, A, B, bcols=None):
    """A @ B with entries reduced in the ring."""
    if bcols is None:
        assert B, "need bcols for an empty right factor"
        bcols = len(B[0])
    out = []
    for row in A:
        assert len(row) == len(B)
        acc = [0] * bcols
        for a, brow in zip(row, B):
            if a:
                for j, b in enumerate(brow):
                    if b:
                        acc[j] += a * b
        out.append([ring.reduce(x) for x in acc])
    return out


def vec_mat(ring, v, M, ncols=None):
    return mat_mul(ring, [list(v)], M, bcols=ncols)[0]


# ---------------------------------------------------------------------------
# field: reduced row echelon form and friends

def rref_with_transform(field, M, ncols=None):
    """Return (R, T, pivots) with T @ M = R in reduced row echelon form."""
    n = len(M)
    m = ncols if ncols is not None else (len(M[0]) if M else 0)
    R = [[field.reduce(x) for x in row] for row in M]
    T = identity(n)
    pivots = []
    row = 0
    for col in range(m):
        if row == n:
            break
        piv = None
        for r in range(row, n):
            if R[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        R[row], R[piv] = R[piv], R[row]
        T[row], T[piv] = T[piv], T[row]
        inv = field.inv(R[row][col])
        if inv != 1:
            R[row] = [field.mul(inv, x) for x in R[row]]
            T[row] = [field.mul(inv, x) for x in T[row]]
        for r in range(n):
            c = R[r][col]
            if r != row and c != 0:
                R[r] = [field.sub(x, field.mul(c, y)) for x, y in zip(R[r], R[row])]
                T[r] = [field.sub(x, field.mul(c, y)) for x, y in zip(T[r], T[row])]
        pivots.append(col)
        row += 1
    return R, T, pivots


def field_solve_left(field, A, b, ncols=None):
    """x with x @ A = b, or None.  b is a row vector."""
    R, T, pivots = rref_with_transform(field, A, ncols)
    b = [field.reduce(x) for x in b]
    y = [b[pc] for pc in pivots]
    res = list(b)
    for yi, row in zip(y, R):
        if yi:
            res = [field.sub(x, field.mul(yi, v)) for x, v in zip(res, row)]
    if any(res):
        return None
    x = [0] * len(A)
    for yi, trow in zip(y, T):
        if yi:
            x = [field.add(xv, field.mul(yi, tv)) for xv, tv in zip(x, trow)]
    return x


class PackedSpace:
    """F_p^n with its p^n vectors numbered in base-p order.

    Vector i is the i-th tuple of ``itertools.product(range(p), repeat=n)``:
    the first coordinate is the most significant digit.  A subset of the
    space, typically a subspace, packs into a Python int whose bit i is set
    when vector i belongs to it, so a subspace costs p^n bits and
    containment and intersection become integer bit operations.

    Because the numbering is base-p, the nonzero vectors whose first
    nonzero coordinate sits at position j are exactly the numbers in
    [p^(n-1-j), p^(n-j)); ``lead[j]`` is the mask of that range.
    """

    def __init__(self, p: int, n: int):
        self.p = p
        self.vectors = list(itertools.product(range(p), repeat=n))
        self.index = {v: i for i, v in enumerate(self.vectors)}
        self.lead = [(1 << p ** (n - j)) - (1 << p ** (n - 1 - j))
                     for j in range(n)]

    def index_of(self, v) -> int:
        return self.index[tuple(x % self.p for x in v)]

    def extend(self, mask: int, v) -> int:
        """Mask of span(S + v), given the mask of a subspace S."""
        p = self.p
        multiples = [[c * x % p for x in v] for c in range(1, p)]
        out = mask
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            w = self.vectors[low.bit_length() - 1]
            for cv in multiples:
                out |= 1 << self.index[tuple((a + b) % p
                                             for a, b in zip(w, cv))]
        return out

    def span_mask(self, rows) -> int:
        mask = 1  # the zero vector
        for r in rows:
            mask = self.extend(mask, r)
        return mask

    def spanning_rows(self, mask: int):
        """One member of the subspace ``mask`` per leading position.

        Members with distinct leading positions are independent, and every
        pivot column of the subspace's echelon form leads some member, so
        these rows are a basis.
        """
        rows = []
        for lead in self.lead:
            hit = mask & lead
            if hit:
                rows.append(list(self.vectors[(hit & -hit).bit_length() - 1]))
        return rows


# ---------------------------------------------------------------------------
# integers: Hermite form and friends

def hermite_with_transform(M, ncols=None):
    """Row Hermite form.  Return (H, U, pivots) with U @ M = H, U unimodular.

    Pivot entries are positive, entries above a pivot lie in [0, pivot),
    zero rows sit at the bottom.  For a fixed row lattice the nonzero part
    is unique, which is what makes it usable as a canonical key.
    """
    n = len(M)
    m = ncols if ncols is not None else (len(M[0]) if M else 0)
    H = [[int(x) for x in row] for row in M]
    U = identity(n)
    pivots = []
    row = 0
    for col in range(m):
        if row == n:
            break
        while True:
            piv = None
            best = None
            for r in range(row, n):
                v = abs(H[r][col])
                if v != 0 and (best is None or v < best):
                    best = v
                    piv = r
            if piv is None:
                break
            H[row], H[piv] = H[piv], H[row]
            U[row], U[piv] = U[piv], U[row]
            clean = True
            for r in range(row + 1, n):
                if H[r][col] != 0:
                    q = H[r][col] // H[row][col]
                    if q:
                        H[r] = [a - q * b for a, b in zip(H[r], H[row])]
                        U[r] = [a - q * b for a, b in zip(U[r], U[row])]
                    if H[r][col] != 0:
                        clean = False
            if clean:
                break
        if H[row][col] != 0:
            if H[row][col] < 0:
                H[row] = [-a for a in H[row]]
                U[row] = [-a for a in U[row]]
            p = H[row][col]
            for r in range(row):
                q = H[r][col] // p
                if q:
                    H[r] = [a - q * b for a, b in zip(H[r], H[row])]
                    U[r] = [a - q * b for a, b in zip(U[r], U[row])]
            pivots.append(col)
            row += 1
    return H, U, pivots


def int_solve_left(A, b, ncols=None):
    """Integer x with x @ A = b, or None."""
    m = ncols if ncols is not None else (len(A[0]) if A else len(b))
    H, U, pivots = hermite_with_transform(A, m)
    res = [int(x) for x in b]
    assert len(res) == m
    y = [0] * len(A)
    for i, pc in enumerate(pivots):
        p = H[i][pc]
        if res[pc] % p != 0:
            return None
        q = res[pc] // p
        if q:
            y[i] = q
            res = [a - q * h for a, h in zip(res, H[i])]
    if any(res):
        return None
    x = [0] * len(A)
    for yi, urow in zip(y, U):
        if yi:
            x = [a + yi * u for a, u in zip(x, urow)]
    return x


# ---------------------------------------------------------------------------
# ring dispatch

def solve_left(ring: EuclideanScalarRing, A, b, ncols=None):
    if ring.is_field():
        return field_solve_left(ring, A, b, ncols)
    return int_solve_left(A, b, ncols)


def left_kernel(ring: EuclideanScalarRing, M, ncols=None):
    """Basis rows for {x : x @ M = 0}."""
    if ring.is_field():
        _, T, pivots = rref_with_transform(ring, M, ncols)
        return [T[i] for i in range(len(pivots), len(M))]
    _, U, pivots = hermite_with_transform(M, ncols)
    return [U[i] for i in range(len(pivots), len(M))]


def right_kernel(ring: EuclideanScalarRing, M, ncols):
    """Basis rows for {v : M @ v = 0}, v of length ncols."""
    return left_kernel(ring, transpose(M, ncols), len(M))


def matrix_rank(ring: EuclideanScalarRing, M, ncols=None):
    if ring.is_field():
        return len(rref_with_transform(ring, M, ncols)[2])
    return len(hermite_with_transform(M, ncols)[2])


def int_saturation(M, ncols):
    """Basis of the saturation of the row span inside Z^ncols."""
    K = right_kernel_int(M, ncols)
    return right_kernel_int(K, ncols)


def right_kernel_int(M, ncols):
    Mt = transpose(M, ncols)
    _, U, pivots = hermite_with_transform(Mt, len(M))
    return [U[i] for i in range(len(pivots), ncols)]


def canonical_span_basis(ring: EuclideanScalarRing, rows, ncols):
    """Canonical basis of the span (field) or saturated span (integers).

    Returned as a tuple of row tuples; equal spans give equal values, so
    the result doubles as a dictionary key.
    """
    if ring.is_field():
        R, _, pivots = rref_with_transform(ring, rows, ncols)
        return tuple(tuple(R[i]) for i in range(len(pivots)))
    sat = int_saturation(rows, ncols)
    H, _, pivots = hermite_with_transform(sat, ncols)
    return tuple(tuple(H[i]) for i in range(len(pivots)))


def span_contains(ring: EuclideanScalarRing, basis, v, ncols):
    """Whether v lies in the (saturated, for Z) span of the basis rows."""
    if not basis:
        return not any(ring.reduce(x) for x in v)
    return solve_left(ring, [list(r) for r in basis], list(v), ncols) is not None


def bareiss_det(M):
    """Determinant of an integer matrix, fraction free."""
    n = len(M)
    if n == 0:
        return 1
    assert all(len(row) == n for row in M)
    A = [[int(x) for x in row] for row in M]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if A[r][k] != 0), None)
            if piv is None:
                return 0
            A[k], A[piv] = A[piv], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = A[k][k]
    return sign * A[n - 1][n - 1]
