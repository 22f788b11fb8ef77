"""Order complexes: chains of a finite poset and their boundary matrices.

Vertices are the poset's vertex numbers (``FinitePoset.positions``), so a
simplex is a tuple of ints.  Chains are enumerated one dimension at a time
from the poset's sorted successor lists (``FinitePoset.successors``),
which never touches a label, so simplex lists are deterministic and
lexicographic within each dimension.  Boundary matrices are built as
columns, one per simplex, the form the sparse Smith normal form reduces.
A budget caps the number of simplices; blowing it raises BudgetExceeded so
callers can report an inconclusive verdict instead of thrashing.
"""

from __future__ import annotations

from .posets import FinitePoset
from .snf import CertificateError

DEFAULT_BUDGET = 5_000_000


class BudgetExceeded(Exception):
    pass


class OrderComplex:
    """Simplices of the order complex grouped by dimension.

    by_dim[k] is the list of k-simplices, each a chain of the poset written
    as a tuple of vertex numbers (positions in ``P.elements``), from its
    least element up.  ``complete`` records whether a max_dim cap actually
    cut off longer chains.
    """

    def __init__(self, by_dim, complete):
        self.by_dim = by_dim
        self.complete = complete
        for k, simp in enumerate(by_dim):
            if any(len(c) != k + 1 for c in simp):
                raise CertificateError(f"a {k}-simplex without {k + 1} vertices")

    def n_simplices(self, k):
        if 0 <= k < len(self.by_dim):
            return len(self.by_dim[k])
        return 0

    def total(self):
        return sum(len(s) for s in self.by_dim)

    def boundary_rows(self, k):
        """d_k as columns, {simplex index: {face index: sign}}.

        For k = 0 this is the augmentation (every vertex maps to the single
        empty-simplex generator with coefficient 1).
        """
        if k <= 0:
            return {j: {0: 1} for j in range(self.n_simplices(0))}
        return _boundary_columns(self, k, frozenset())

    @staticmethod
    def dd_zero_check(lower, upper):
        """Certify that the boundary ``lower`` after ``upper`` is zero.

        Both are sparse matrices in the column form of ``boundary_rows``:
        ``upper`` is d_k and ``lower`` is d_{k-1}, and each column of
        ``upper`` is mapped through ``lower`` by index lookup.  Each
        k-simplex meets about k^2 face pairs, so the check is linear.
        """
        for col in upper.values():
            acc = {}
            for m, a in col.items():
                for r, b in lower.get(m, {}).items():
                    acc[r] = acc.get(r, 0) + a * b
            if any(acc.values()):
                raise CertificateError("boundary of a boundary is nonzero")
        return True


def order_complex(P: FinitePoset, max_dim=None, budget=DEFAULT_BUDGET) -> OrderComplex:
    """The chains of P through dimension ``max_dim`` (all when None), as
    tuples of vertex numbers.  They are read from the poset's sorted int
    successor lists, so no label is hashed or compared; more than
    ``budget`` simplices raise BudgetExceeded.

    Each dimension is built from the one below, every chain extended by
    each successor of its top, so every list is lexicographic.  A level
    is counted before it is built, so a level that would pass the budget
    is never materialised.
    """
    succ = P.successors()
    count = len(succ)
    if count > budget:
        raise BudgetExceeded(f"order complex exceeds {budget} simplices")
    level = [(v,) for v in range(len(succ))]
    by_dim = []
    while level:
        by_dim.append(level)
        if max_dim is not None and len(by_dim) > max_dim:
            capped = any(succ[c[-1]] for c in level)
            return OrderComplex(by_dim, complete=not capped)
        count += sum(len(succ[c[-1]]) for c in level)
        if count > budget:
            raise BudgetExceeded(f"order complex exceeds {budget} simplices")
        level = [c + (y,) for c in level for y in succ[c[-1]]]
    return OrderComplex(by_dim, complete=True)


def relative_boundary_rows(cx: OrderComplex, sub, k):
    """d_k, as columns, of the quotient complex by the full subcomplex on
    ``sub``, a set of vertex numbers of ``cx``."""
    if k < 1:
        return {}
    return _boundary_columns(cx, k, frozenset(sub))


def _boundary_columns(cx, k, sub):
    """d_k (k >= 1) as columns, relative to the full subcomplex on ``sub``:
    simplices and faces inside ``sub`` are left out, and any other face
    missing from the face index raises."""
    lower = cx.by_dim[k - 1]
    faces = {c: i for i, c in enumerate(lower)}
    if len(faces) != len(lower):
        raise CertificateError(f"duplicate simplex in dimension {k - 1}")
    if sub:
        faces.update(dict.fromkeys(filter(sub.issuperset, lower)))
    cols = {}
    for j, c in enumerate(cx.by_dim[k]):
        if sub and sub.issuperset(c):
            continue
        col = {}
        sign = 1
        for i in range(len(c)):
            r = faces[c[:i] + c[i + 1:]]
            if r is not None:
                col[r] = sign
            sign = -sign
        cols[j] = col
    return cols
