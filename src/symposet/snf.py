"""Smith normal form over the integers, tuned for boundary matrices.

A sparse matrix is given by its columns, ``{column: {row: value}}``.
``complexes`` stores a boundary matrix as face rows, checks d d = 0 on
them, and builds these columns from the checked rows (``columns``), with
the columns that the twist clears left out.  ``columns`` also splits off
the free pivots: a column that holds a face no other kept column
names is a pivot there with entry +-1.  With those pivots first the
pivot minor is block triangular with a unit diagonal, so the boundary's
invariant factors are one 1 per free pivot followed by those of the
columns that reach this module.  The sparse
phase is a column reduction, as in persistent homology: each column is
reduced by its lowest row against the unit (+-1) pivots found so far,
which is exact over the integers because every pivot entry is a unit.
Simplicial boundary matrices spend almost all of their mass there.  The
few columns whose lowest entry is not a unit are deferred; a dense
textbook algorithm finishes them, and also serves small dense matrices
directly.

Only the invariant factors come out; ranks and torsion are read off them.
"""

from __future__ import annotations


class CertificateError(AssertionError):
    """A self-check of an exact computation failed.

    Raised explicitly, so the check still runs under ``python -O``.
    """


def dense_smith(A, ncols=None):
    """The nonzero diagonal entries of the Smith form of A.

    They are positive and satisfy the divisibility chain d1 | d2 | ...
    """
    n = len(A)
    m = ncols if ncols is not None else (len(A[0]) if A else 0)
    M = [[int(x) for x in row] for row in A]
    diag = []
    t = 0
    while t < min(n, m):
        best = None
        bi = bj = -1
        for i in range(t, n):
            row = M[i]
            for j in range(t, m):
                v = row[j]
                if v and (best is None or abs(v) < best):
                    best = abs(v)
                    bi, bj = i, j
        if best is None:
            break
        if bi != t:
            M[t], M[bi] = M[bi], M[t]
        if bj != t:
            for row in M:
                row[t], row[bj] = row[bj], row[t]
        while True:
            again = False
            for i in range(t + 1, n):
                if M[i][t]:
                    q = M[i][t] // M[t][t]
                    if q:
                        M[i] = [a - q * b for a, b in zip(M[i], M[t])]
                    if M[i][t]:
                        M[t], M[i] = M[i], M[t]
                        again = True
                        break
            if again:
                continue
            for j in range(t + 1, m):
                if M[t][j]:
                    q = M[t][j] // M[t][t]
                    if q:
                        for row in M:
                            row[j] -= q * row[t]
                    if M[t][j]:
                        for row in M:
                            row[t], row[j] = row[j], row[t]
                        again = True
                        break
            if again:
                continue
            p = M[t][t]
            bad = None
            for i in range(t + 1, n):
                if any(v % p for v in M[i][t + 1:]):
                    bad = i
                    break
            if bad is None:
                break
            M[t] = [a + b for a, b in zip(M[t], M[bad])]
        if M[t][t] < 0:
            M[t] = [-a for a in M[t]]
        diag.append(M[t][t])
        t += 1
    if any(diag[i + 1] % diag[i] for i in range(len(diag) - 1)):
        raise CertificateError(f"Smith diagonal breaks divisibility: {diag}")
    return diag


def smith_invariants(cols, lows=None):
    """Invariant factors of a sparse integer matrix given by its columns.

    ``cols`` maps column key -> {row key -> value}; both keys are ints, and
    zero values are ignored.  Returns the nonzero diagonal of the Smith
    form as a list (ones first, then the rest in divisibility order).  The
    input is left as it was: each column is copied as it is reduced.  A
    set passed as ``lows`` receives the low rows of the unit pivots; for a
    boundary d_{k+1} those, with the free pivots' faces that ``columns``
    split off, are the columns of d_k that the twist clears (see
    ``homology._profile``).  Deferred columns add none.

    Columns are reduced in ascending key order by their lowest (largest)
    row; on boundary matrices other orders fill in far more (reversed
    columns made the genus-3 link sweeps' SNFs thirty times slower).
    While that row belongs to a pivot, the pivot's multiple that clears it
    is subtracted; that entry of a pivot is +-1, so the step is exact.  A
    column left with a unit low entry becomes that row's pivot, one with
    another low entry is deferred.  The pivot rows carry a triangular
    minor with unit diagonal, so each pivot gives one 1; the deferred
    columns, cleared at every pivot row, go to ``dense_smith``.
    """
    pivots = {}  # low row -> its column, whose entry there is +-1
    deferred = []
    for c in sorted(cols):
        # copy() keeps the table size; dict() would give a pair's column,
        # whose -1 face was popped, a larger table for the SNF's lifetime
        col = cols[c].copy()
        if 0 in col.values():
            col = {r: v for r, v in col.items() if v}
        while col:
            low = max(col)
            piv = pivots.get(low)
            if piv is None:
                if col[low] in (1, -1):
                    pivots[low] = col
                else:
                    deferred.append(col)
                break
            _subtract(col, col[low] * piv[low], piv)
    if lows is not None:
        lows.update(pivots)
    if not deferred:
        return [1] * len(pivots)
    for p in sorted(pivots, reverse=True):
        for col in deferred:
            if p in col:
                _subtract(col, col[p] * pivots[p][p], pivots[p])
    left = sorted({r for col in deferred for r in col})
    dense = [[col.get(r, 0) for r in left] for col in deferred]
    return [1] * len(pivots) + dense_smith(dense, len(left))


def _subtract(col, f, piv):
    """col -= f * piv, dropping the entries that cancel."""
    for r, v in piv.items():
        nv = col.get(r, 0) - f * v
        if nv:
            col[r] = nv
        else:
            del col[r]
