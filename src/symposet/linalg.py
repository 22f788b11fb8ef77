"""Dense exact linear algebra over a prime field or the integers.

Matrices are lists of row lists of ints.  The empty matrix [] is allowed
everywhere; functions that cannot infer the column count from the data take
an explicit ``ncols`` argument.  Row operations are the main tool: the
solver, the kernels, the rank and the canonical span basis all read the
output of one echelon routine, ``rref_with_transform``, which follows the
Euclidean contract of ``rings`` and so gives the reduced row echelon form
over a field and the row Hermite form over the integers.  The exceptions
are ``PackedSpace``, which holds subspaces of a small F_p^n as bitmasks over
its p^n vectors and extends a span by translating its whole mask with
shifts, never listing its members, and ``ContainmentIndex``, which finds
among a list of such subspaces those that contain a given one.
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
        if not B:
            raise ValueError("need bcols for an empty right factor")
        bcols = len(B[0])
    out = []
    for row in A:
        if len(row) != len(B):
            raise ValueError("factor shapes do not fit")
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
# echelon form over a Euclidean ring

def rref_with_transform(ring, M, ncols=None):
    """Return (R, T, pivots) with T @ M = R in echelon form, T invertible.

    Over a field R is the reduced row echelon form; over the integers it is
    the row Hermite form.  Each column takes the least-norm pivot (the first
    unit, if any), clears the entries below it by Euclidean division until
    they vanish, turns the pivot into its canonical associate and reduces
    the entries above it to their canonical remainders.  Zero rows sit at
    the bottom, and for a fixed row span the nonzero part is unique, which
    is what makes it usable as a canonical key.
    """
    n = len(M)
    m = ncols if ncols is not None else (len(M[0]) if M else 0)
    red = ring.reduce
    R = [[red(x) for x in row] for row in M]
    T = identity(n)
    pivots = []
    row = 0
    for col in range(m):
        if row == n:
            break
        while True:
            piv = None
            best = None
            for r in range(row, n):
                v = ring.norm(R[r][col])
                if v and (best is None or v < best):
                    best = v
                    piv = r
                    if v == 1:
                        break
            if piv is None:
                break
            R[row], R[piv] = R[piv], R[row]
            T[row], T[piv] = T[piv], T[row]
            p = R[row][col]
            clean = True
            for r in range(row + 1, n):
                if R[r][col]:
                    q = ring.canonical_q(R[r][col], p)
                    if q:
                        R[r] = [red(a - q * b) for a, b in zip(R[r], R[row])]
                        T[r] = [red(a - q * b) for a, b in zip(T[r], T[row])]
                    if R[r][col]:
                        clean = False
            if clean:
                break
        if piv is None:
            continue
        u = ring.normalizing_unit(R[row][col])
        if u != 1:
            R[row] = [red(u * a) for a in R[row]]
            T[row] = [red(u * a) for a in T[row]]
        p = R[row][col]
        for r in range(row):
            q = ring.canonical_q(R[r][col], p)
            if q:
                R[r] = [red(a - q * b) for a, b in zip(R[r], R[row])]
                T[r] = [red(a - q * b) for a, b in zip(T[r], T[row])]
        pivots.append(col)
        row += 1
    return R, T, pivots


def solve_left(ring: EuclideanScalarRing, A, b, ncols=None):
    """x with x @ A = b, or None.  b is a row vector."""
    m = ncols if ncols is not None else (len(A[0]) if A else len(b))
    R, T, pivots = rref_with_transform(ring, A, m)
    res = [ring.reduce(v) for v in b]
    if len(res) != m:
        raise ValueError("b must have one entry per column of A")
    x = [0] * len(A)
    for i, pc in enumerate(pivots):
        # later rows vanish at this pivot column, so a nonzero remainder
        # left here survives to the final test
        q = ring.canonical_q(res[pc], R[i][pc])
        if q:
            res = [ring.reduce(a - q * h) for a, h in zip(res, R[i])]
            x = [ring.reduce(a + q * t) for a, t in zip(x, T[i])]
    if any(res):
        return None
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

    Coordinate j is the base-p digit of weight p^(n-1-j), so adding d to it
    (mod p) moves each vector whose digit there is below p - d up by
    d * p^(n-1-j), and every other vector down by (p - d) * p^(n-1-j).  For
    a whole mask that is two masked shifts: ``moves[j][d]`` holds the mask
    of the first kind, the mask of the second and the two shift lengths,
    computed once per space.
    """

    def __init__(self, p: int, n: int):
        self.p = p
        self.vectors = list(itertools.product(range(p), repeat=n))
        self.index = {v: i for i, v in enumerate(self.vectors)}
        self.lead = [(1 << p ** (n - j)) - (1 << p ** (n - 1 - j))
                     for j in range(n)]
        everything = (1 << p ** n) - 1
        self.moves = []
        for j in range(n):
            weight = p ** (n - 1 - j)
            period = p * weight
            # one bit at the start of each run of p * weight vectors
            starts = everything // ((1 << period) - 1)
            row = [None]
            for d in range(1, p):
                low = ((1 << (p - d) * weight) - 1) * starts
                row.append((low, everything ^ low, d * weight,
                            (p - d) * weight))
            self.moves.append(row)

    def index_of(self, v) -> int:
        return self.index[tuple(x % self.p for x in v)]

    def extend(self, mask: int, v) -> int:
        """Mask of span(S + v), given the mask of a subspace S: the union
        of the translates S + c * v, each made from the one before by
        adding v, one pair of masked shifts per nonzero coordinate of v."""
        p = self.p
        steps = [self.moves[j][x % p] for j, x in enumerate(v) if x % p]
        if not steps:
            return mask
        out = moved = mask
        for _ in range(p - 1):
            for low, high, up, down in steps:
                moved = (moved & low) << up | (moved & high) >> down
            out |= moved
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


class ContainmentIndex:
    """Which subspaces of a list, each a ``PackedSpace`` mask, contain a
    given subspace.

    ``by_vector[i]`` has bit k set when the k-th subspace holds vector i.
    A subspace lies in another exactly when its basis does, so the list
    positions of the subspaces containing span(rows) are the AND of
    ``by_vector`` over the rows: one AND per row, however long the list.
    """

    def __init__(self, space: PackedSpace, masks):
        holders = [bytearray((len(masks) + 7) // 8) for _ in space.vectors]
        for k, mask in enumerate(masks):
            byte, bit = k >> 3, 1 << (k & 7)
            for i in set_bits(mask):
                holders[i][byte] |= bit
        self.index = space.index
        self.everything = (1 << len(masks)) - 1
        self.by_vector = [int.from_bytes(h, "little") for h in holders]

    def containing(self, rows) -> int:
        """Bitmask of the list positions whose subspace holds every row;
        the rows are tuples of canonical residues."""
        out = self.everything
        for r in rows:
            out &= self.by_vector[self.index[r]]
        return out


def set_bits(mask: int):
    """The positions of the set bits of ``mask``, ascending.  One binary
    string per mask keeps the cost per bit flat however wide the mask."""
    digits = bin(mask)[:1:-1]
    i = digits.find("1")
    while i >= 0:
        yield i
        i = digits.find("1", i + 1)


def left_kernel(ring: EuclideanScalarRing, M, ncols=None):
    """Basis rows for {x : x @ M = 0}."""
    _, T, pivots = rref_with_transform(ring, M, ncols)
    return T[len(pivots):]


def right_kernel(ring: EuclideanScalarRing, M, ncols):
    """Basis rows for {v : M @ v = 0}, v of length ncols."""
    return left_kernel(ring, transpose(M, ncols), len(M))


def matrix_rank(ring: EuclideanScalarRing, M, ncols=None):
    return len(rref_with_transform(ring, M, ncols)[2])


def canonical_span_basis(ring: EuclideanScalarRing, rows, ncols):
    """Canonical basis of the span (field) or saturated span (integers).

    Returned as a tuple of row tuples; equal spans give equal values, so
    the result doubles as a dictionary key.  Over the integers the rows are
    first replaced by a basis of their saturation, the kernel of their
    kernel; over a field that step would be the identity.
    """
    if not ring.is_field():
        rows = right_kernel(ring, right_kernel(ring, rows, ncols), ncols)
    R, _, pivots = rref_with_transform(ring, rows, ncols)
    return tuple(tuple(R[i]) for i in range(len(pivots)))


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
    if any(len(row) != n for row in M):
        raise ValueError("determinant needs a square matrix")
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
