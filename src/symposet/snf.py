"""Smith normal form over the integers, tuned for boundary matrices.

A sparse phase splits off diagonal blocks using unit (+-1) pivots only,
which is where simplicial boundary matrices spend almost all of their
mass; a dense textbook algorithm finishes whatever survives, and also
serves small dense matrices directly.

Only the invariant factors come out; ranks and torsion are read off them.
"""

from __future__ import annotations

import heapq


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


def smith_invariants(rows, ncols=None):
    """Invariant factors of a sparse integer matrix.

    ``rows`` maps row key -> {column key -> nonzero value}.  Row and column
    keys can be anything hashable.  Returns the nonzero diagonal of the
    Smith form as a list (ones first, then the rest in divisibility order).
    """
    rows = {r: dict(cs) for r, cs in rows.items() if cs}
    col_rows = {}
    for r, cs in rows.items():
        for c, v in cs.items():
            assert v != 0
            col_rows.setdefault(c, set()).add(r)
    heap = []
    seq = 0  # tiebreaker so heterogeneous column keys never get compared
    for c, rs in col_rows.items():
        if any(abs(rows[r][c]) == 1 for r in rs):
            heap.append((len(rs), seq, c))
            seq += 1
    heapq.heapify(heap)
    ones = 0
    while heap:
        nnz, _, c = heapq.heappop(heap)
        rs = col_rows.get(c)
        if not rs:
            continue
        if len(rs) != nnz:
            heapq.heappush(heap, (len(rs), seq, c))
            seq += 1
            continue
        unit_rows = [r for r in rs if abs(rows[r][c]) == 1]
        if not unit_rows:
            continue
        pr = min(unit_rows, key=lambda r: len(rows[r]))
        pv = rows[pr][c]
        prow = rows.pop(pr)
        for cc in prow:
            s = col_rows.get(cc)
            if s is not None:
                s.discard(pr)
                if not s:
                    del col_rows[cc]
        touched = set()
        for r in list(col_rows.pop(c, ())):
            row = rows[r]
            f = row[c] * pv
            del row[c]
            for cc, v in prow.items():
                if cc == c:
                    continue
                nv = row.get(cc, 0) - f * v
                if nv:
                    if cc not in row:
                        col_rows.setdefault(cc, set()).add(r)
                    row[cc] = nv
                    touched.add(cc)
                elif cc in row:
                    del row[cc]
                    s = col_rows[cc]
                    s.discard(r)
                    if not s:
                        del col_rows[cc]
                    else:
                        touched.add(cc)
            if not row:
                del rows[r]
        ones += 1
        for cc in touched:
            if cc in col_rows:
                heap_entry = (len(col_rows[cc]), seq, cc)
                seq += 1
                heapq.heappush(heap, heap_entry)
    if not rows:
        return [1] * ones
    rl = sorted(rows, key=repr)
    cols = sorted({c for cs in rows.values() for c in cs}, key=repr)
    cidx = {c: j for j, c in enumerate(cols)}
    dense = [[0] * len(cols) for _ in rl]
    for i, r in enumerate(rl):
        for c, v in rows[r].items():
            dense[i][cidx[c]] = v
    rest = dense_smith(dense, len(cols))
    return [1] * ones + rest

