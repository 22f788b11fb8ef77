"""Order complexes: chains of a finite poset and their boundary matrices.

Chains are enumerated by an upward depth-first walk in a fixed label order,
so simplex lists are deterministic and lexicographic within each dimension.
A budget caps the number of simplices; blowing it raises BudgetExceeded so
callers can report an inconclusive verdict instead of thrashing.
"""

from __future__ import annotations

from .posets import FinitePoset, _label_key

DEFAULT_BUDGET = 5_000_000

# the dd=0 self-check is linear in the simplex count, about k^2 face pairs
# per k-simplex; cap its cost on large complexes
_DD_CHECK_LIMIT = 60_000


class BudgetExceeded(Exception):
    pass


class OrderComplex:
    """Simplices of the order complex grouped by dimension.

    by_dim[k] is the list of k-simplices, each a tuple of poset elements in
    increasing order.  ``complete`` records whether a max_dim cap actually
    cut off longer chains.
    """

    def __init__(self, by_dim, complete):
        self.by_dim = by_dim
        self.complete = complete
        for k, simp in enumerate(by_dim):
            assert all(len(c) == k + 1 for c in simp)

    def n_simplices(self, k):
        if 0 <= k < len(self.by_dim):
            return len(self.by_dim[k])
        return 0

    def total(self):
        return sum(len(s) for s in self.by_dim)

    def top_dim(self):
        return len(self.by_dim) - 1

    def boundary_rows(self, k):
        """The matrix of d_k as {face index: {simplex index: sign}}.

        For k = 0 this is the augmentation row (everything maps to the
        single empty-simplex generator with coefficient 1).
        """
        if k <= 0:
            return {0: {j: 1 for j in range(self.n_simplices(0))}}
        faces = {c: i for i, c in enumerate(self.by_dim[k - 1])}
        assert len(faces) == len(self.by_dim[k - 1]), "duplicate simplex"
        rows = {}
        for j, c in enumerate(self.by_dim[k]):
            sign = 1
            for i in range(len(c)):
                r = faces[c[:i] + c[i + 1:]]
                rows.setdefault(r, {})[j] = sign
                sign = -sign
        return rows

    def dd_zero_check(self, k):
        """Verify d_{k-1} after d_k vanishes, simplex by simplex."""
        if k < 1 or self.n_simplices(k) == 0:
            return True
        for c in self.by_dim[k]:
            acc = {}
            si = 1
            for i in range(len(c)):
                face = c[:i] + c[i + 1:]
                sj = 1
                for j in range(len(face)):
                    ff = face[:j] + face[j + 1:]
                    acc[ff] = acc.get(ff, 0) + si * sj
                    sj = -sj
                si = -si
            assert all(v == 0 for v in acc.values()), "dd != 0"
        return True


def order_complex(P: FinitePoset, max_dim=None, budget=DEFAULT_BUDGET) -> OrderComplex:
    succ = {x: sorted(P.above(x), key=_label_key) for x in P}
    by_dim = []
    count = 0
    capped = False
    starts = list(P.elements)
    starts.reverse()
    stack = [(x,) for x in starts]
    while stack:
        c = stack.pop()
        k = len(c) - 1
        count += 1
        if count > budget:
            raise BudgetExceeded(f"order complex exceeds {budget} simplices")
        while len(by_dim) <= k:
            by_dim.append([])
        by_dim[k].append(c)
        up = succ[c[-1]]
        if max_dim is not None and k >= max_dim:
            if up:
                capped = True
            continue
        for y in reversed(up):
            stack.append(c + (y,))
    cx = OrderComplex(by_dim, complete=not capped)
    if cx.total() <= _DD_CHECK_LIMIT:
        for k in range(2, len(by_dim)):
            cx.dd_zero_check(k)
    return cx


def relative_columns(cx: OrderComplex, sub):
    """Per dimension, indices of simplices not entirely inside ``sub``."""
    sub = frozenset(sub)
    keep = []
    for simplices in cx.by_dim:
        keep.append([j for j, c in enumerate(simplices)
                     if not all(v in sub for v in c)])
    return keep


def relative_boundary_rows(cx: OrderComplex, sub, k):
    """Boundary of the quotient complex by the full subcomplex on ``sub``.

    Rows and columns are restricted to simplices with a vertex outside
    ``sub``; faces falling entirely inside ``sub`` are dropped.
    """
    sub = frozenset(sub)
    if k < 1:
        return {}
    faces = {}
    for i, c in enumerate(cx.by_dim[k - 1]):
        if not all(v in sub for v in c):
            faces[c] = i
    rows = {}
    for j, c in enumerate(cx.by_dim[k]):
        if all(v in sub for v in c):
            continue
        sign = 1
        for i in range(len(c)):
            face = c[:i] + c[i + 1:]
            r = faces.get(face)
            if r is not None:
                rows.setdefault(r, {})[j] = sign
            sign = -sign
    return rows
