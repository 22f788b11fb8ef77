"""Order complexes: chains of a finite poset and their boundary matrices.

Vertices are the poset's vertex numbers (``FinitePoset.positions``), so a
simplex is a tuple of ints.  Chains are enumerated one dimension at a time
from the poset's sorted successor tuples (``FinitePoset.successors``),
which never touches a label, so simplex lists are deterministic and
lexicographic within each dimension.

A boundary d_k is stored as its face rows: k + 1 int lists, where
``rows[i][j]`` is the index in ``by_dim[k - 1]`` of the k-simplex j with
its vertex i removed.  The sign of that entry is fixed, (-1)^i, so the
rows are the whole matrix.  A pair, P relative to the full subcomplex on
a vertex set, has as generators only the chains outside that subcomplex
(``OrderComplex.split``): there j is the position of the k-simplex among
the outside k-chains, an outside face reads its position among the
outside (k - 1)-chains, and a face inside the subcomplex reads -1.  Rows
are built by one dict lookup per face through ``map`` and checked for
d_{k-1} d_k = 0 by comparing whole rows (``OrderComplex.dd_zero_check``).
``columns`` turns certified rows into the ``{simplex: {face: sign}}``
columns that the sparse Smith normal form reduces, after splitting off
the free pivots: the columns that hold a face no other column names.
The chains of dimensions 0 to 2 can also be counted off the poset with
none listed (``count_chains``).  A budget caps the number of simplices;
blowing it raises BudgetExceeded so callers can report an inconclusive
verdict instead of thrashing.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, compress, filterfalse, repeat
from operator import eq, itemgetter, mod, mul, not_

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
            if set(map(len, simp)) - {k + 1}:
                raise CertificateError(f"a {k}-simplex without {k + 1} vertices")

    def n_simplices(self, k):
        if 0 <= k < len(self.by_dim):
            return len(self.by_dim[k])
        return 0

    def total(self):
        return sum(len(s) for s in self.by_dim)

    def boundary_rows(self, k):
        """d_k as face rows (see the module docstring).

        For k = 0 this is the augmentation: one row that maps every vertex
        to the empty simplex, index 0, with sign 1.
        """
        if k <= 0:
            return [[0] * self.n_simplices(0)]
        return _face_rows(self.by_dim[k - 1], self.by_dim[k], k)

    def split(self, sub):
        """(outside, inside): the simplices of each dimension outside and
        inside the full subcomplex on the vertex set ``sub``, each list in
        ``by_dim``'s order.  One ``issuperset`` test per simplex."""
        sub = frozenset(sub)
        outside, inside = [], []
        for simplices in self.by_dim:
            within = list(map(sub.issuperset, simplices))
            inside.append(list(compress(simplices, within)))
            outside.append(list(compress(simplices, map(not_, within))))
        return outside, inside

    @staticmethod
    def dd_zero_check(lower, upper):
        """Certify that the boundary ``lower`` after ``upper`` is zero.

        Both are face rows: ``upper`` is d_k, k + 1 rows, and ``lower`` is
        d_{k-1}, k rows.  For i < l, a k-simplex loses vertex i and then
        vertex l - 1 of what is left, or vertex l and then vertex i: both
        paths reach the same codimension-2 face, with the signs
        (-1)^(i+l-1) and (-1)^(i+l), which cancel.  These k(k + 1) paths
        are every term of d_{k-1} d_k, so the product is zero when each
        pair of paths lands on the same face.  That is checked a whole row
        at a time, ``lower[l-1][upper[i][j]] == lower[i][upper[l][j]]`` for
        every j, with ``lower`` padded by -1 so that a face inside the
        subcomplex of a pair stays inside it.  Every entry must be a face
        index or -1, and on a pair no entry may name a face whose own faces
        all lie in the subcomplex: that face lies there too and reads -1.
        """
        k = len(upper) - 1
        if len(lower) != k or len(set(map(len, lower))) > 1 or \
                len(set(map(len, upper))) > 1:
            raise CertificateError(
                f"face rows of d_{k} and d_{k - 1} do not fit")
        if not lower:
            return True
        size = len(lower[0])
        for row in upper:
            if row and not (-1 <= min(row) and max(row) < size):
                raise CertificateError("a face index out of range")
        if k > 1 and any(-1 in row for row in lower):
            highest = list(map(max, zip(*lower))) + [0]
            if any(-1 in map(highest.__getitem__, row) for row in upper):
                raise CertificateError(
                    "a face inside the subcomplex is not -1")
        pad = [row + [-1] for row in lower]
        signs = _signs(k + 1)
        for l in range(1, k + 1):
            for i in range(l):
                if signs[i] * signs[l - 1] + signs[l] * signs[i]:
                    raise CertificateError("boundary signs do not cancel")
                if list(map(pad[l - 1].__getitem__, upper[i])) != \
                        list(map(pad[i].__getitem__, upper[l])):
                    raise CertificateError("boundary of a boundary is nonzero")
        return True


def order_complex(P: FinitePoset, max_dim=None, budget=DEFAULT_BUDGET) -> OrderComplex:
    """The chains of P through dimension ``max_dim`` (all when None), as
    tuples of vertex numbers.  They are read from the poset's sorted int
    successor tuples, so no label is hashed or compared; more than
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
    sizes = list(map(len, succ))
    level = [(v,) for v in range(len(succ))]
    by_dim = []
    while level:
        by_dim.append(level)
        tops = map(sizes.__getitem__, map(itemgetter(-1), level))
        if max_dim is not None and len(by_dim) > max_dim:
            return OrderComplex(by_dim, complete=not any(tops))
        count += sum(tops)
        if count > budget:
            raise BudgetExceeded(f"order complex exceeds {budget} simplices")
        level = [c + (y,) for c in level for y in succ[c[-1]]]
    return OrderComplex(by_dim, complete=True)


def count_chains(P: FinitePoset, budget=DEFAULT_BUDGET):
    """(counts, complete) of ``order_complex(P, max_dim=2, budget)``, read
    off P's stored order with no chain listed.

    The 0-chains are the n vertices, the 1-chains the pairs v < w, and the
    2-chains x < y < w are counted by their middle vertex y, as
    |down(y)| |up(y)|; counts end at the last nonzero one, as
    ``by_dim`` does.  ``complete`` says that no 3-chain exists: P has
    dimension at most 2.  More than ``budget`` chains raise
    BudgetExceeded, as they do in ``order_complex``, which counts a level
    before it lists it.  |down(y)| is counted here, not read from
    ``P.down_sets()``, which would keep its sets on P.
    """
    up = P.up_sets()
    below = [0] * len(up)
    for w, n in Counter(chain.from_iterable(up)).items():
        below[w] = n
    counts = (len(up), sum(map(len, up)), sum(map(mul, map(len, up), below)))
    if sum(counts) > budget:
        raise BudgetExceeded(f"order complex exceeds {budget} simplices")
    while counts and not counts[-1]:
        counts = counts[:-1]
    return counts, P.dim() <= 2


def relative_boundary_rows(outside, inside, k):
    """d_k, as face rows, of the quotient complex by a subcomplex, from the
    simplices of each dimension ``outside`` and ``inside`` it
    (``OrderComplex.split``): a column per outside k-simplex, and a face
    inside the subcomplex reads -1.  The empty simplex lies in every
    subcomplex, so d_0 is all -1."""
    if k < 1:
        return [[-1] * len(outside[0] if outside else ())]
    return _face_rows(outside[k - 1], outside[k], k, inside[k - 1])


def columns(rows, skip=(), free=None):
    """The columns ``{simplex: {face: sign}}`` of the face rows ``rows``,
    as the sparse Smith normal form takes them.

    The simplices in ``skip`` (those the twist cleared) are left out, and
    so are -1 faces, those inside the subcomplex of a pair.  The rows of a
    pair have a column per simplex outside the subcomplex, and each such
    simplex of dimension 1 or more has a face outside it, so no column is
    left empty above d_0.  A column that names a face twice raises
    CertificateError, whether its dict is built or not: a dict would merge
    the two entries into one.

    A list passed as ``free`` receives the free pivots, and their columns
    are not returned.  A face is free when exactly one kept column names
    it; a -1 face never is.  Faces are counted once, over the kept
    columns.  A column that names a free face is a pivot there, with entry
    +-1 and no arithmetic, and ``free`` gets one face per such column: the
    free face in the last row that holds one.  No other kept column meets
    those faces, so with the free pivots first the pivot minor is block
    triangular with a unit diagonal: the invariant factors of the
    boundary are one 1 per free pivot, then those of the columns returned.
    """
    if not rows:
        return {}
    keep = range(len(rows[0]))
    if skip:
        keep = list(filterfalse(skip.__contains__, keep))
        rows = [list(map(row.__getitem__, keep)) for row in rows]
    relative = any(-1 in row for row in rows)
    for l, b in enumerate(rows):
        for a in rows[:l]:
            # only a face inside the subcomplex, -1, may repeat in a column
            if any(map(eq, a, b)) and set(compress(a, map(eq, a, b))) - {-1}:
                raise CertificateError("a boundary column repeats a face")
    if free is not None:
        count = Counter(chain.from_iterable(rows))
        count.pop(-1, None)
        single = list(compress(count, map((1).__eq__, count.values())))
        if single:
            # single is in row-major order, so each column keeps the free
            # face of the last row that has one
            n = len(keep)
            at = dict(zip(chain.from_iterable(rows), range(n * len(rows))))
            pivots = dict(zip(map(mod, map(at.__getitem__, single),
                                  repeat(n)), single))
            free.extend(pivots.values())
            rest = list(filterfalse(pivots.__contains__, range(n)))
            keep = map(keep.__getitem__, rest)
            rows = [list(map(row.__getitem__, rest)) for row in rows]
    cols = dict(zip(keep, map(dict, map(zip, zip(*rows),
                                        repeat(_signs(len(rows)))))))
    if relative:
        for col in cols.values():
            col.pop(-1, None)
    return cols


def _signs(n):
    """The fixed signs (-1)^i of the first n face rows."""
    return (1, -1) * (n // 2) + (1,) * (n % 2)


def _face_rows(lower, simplices, k, inside=()):
    """d_k (k >= 1) of the k-simplices ``simplices`` as face rows: a face
    reads its index in ``lower``, or -1 when it is one of ``inside``, and
    any other face raises KeyError."""
    faces = dict(zip(lower, range(len(lower))))
    faces.update(dict.fromkeys(inside, -1))
    if len(faces) != len(lower) + len(inside):
        raise CertificateError(f"duplicate simplex in dimension {k - 1}")
    rows = []
    for i in range(k + 1):
        keyed = map(itemgetter(*(m for m in range(k + 1) if m != i)),
                    simplices)
        if k == 1:
            keyed = zip(keyed)  # itemgetter of one index returns no tuple
        rows.append(list(map(faces.__getitem__, keyed)))
    return rows
