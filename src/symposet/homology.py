"""Exact integral homology of order complexes, and connectivity verdicts.

Everything here is integer-exact: ranks and torsion come from Smith normal
form of boundary matrices, or from exactness where a trivial fundamental
group fixes them.  Boundary matrices come from ``complexes`` as face rows
(the face index of each simplex with one vertex removed, one row per
vertex position), and the SNF gets the columns built from those rows.
Reduced and relative homology differ only in their generator counts and
boundary matrices, and share one loop, ``_profile``, that walks the
degrees top-down.  Each boundary first splits off its free pivots, the
columns that hold a face no other kept column names (an elementary
reduction, Kaczynski-Mrozek-Slusarek): each is a +-1 pivot and an
invariant factor 1, and only the other columns go to the SNF.  The free
pivots and the SNF report the rows of their pivots, and the
twist (Chen-Kerber) drops the columns at those rows from the next lower
boundary before its SNF: since d_k d_{k+1} = 0 they are integer
combinations of the columns kept, so the invariant factors do not
change.  That identity is certified, not assumed: on every complex the
loop checks, on the face rows that the SNF's columns are then built from,
that each pair of consecutive boundaries composes to zero, before the
twist clears against the pair.  A pair's generators are the chains
outside its subcomplex, split from the rest once per dimension, and its
face rows are built for those alone, indexed among them.  A d_1 with no
face inside a subcomplex (always so on reduced homology) is the
incidence matrix of a graph, of rank the number of vertices minus the
number of components and with every invariant factor 1, so a union-find
ranks it instead of the SNF.

A verdict never overstates its evidence.  ``status`` says what was
established, ``basis`` says with which tools; a fundamental-group probe can
upgrade a homological verdict or refute it, and a blown budget yields
"inconclusive", never a guess.  A verdict builds one poset and enumerates
its order complex at most once, before any probe; a verdict that probes
pi_1 does so from the poset alone, before any homology.  The probe
collapses an edge whose ends share a dead neighbour, which on an order
complex (a flag complex) is the last live edge of a triangle, so it
needs no triangle index and reads the edges and triangles off the
poset's order.  A map's poset is its
mapping cone, whose pair with the coned source has the chains of the
cylinder-source pair.  On reduced homology a trivial group makes the
complex connected with H_1 = 0 (Hurewicz: H_1 is the abelianization of
pi_1), which fixes the ranks of d_1 and d_2 with no torsion, so the SNF
stops at d_3.  At level 1 that leaves no boundary to reduce: the chains
of dimensions 0 to 2 are only counted, off the poset and under the same
budget, and listed only if the probe does not say trivial.  Every other
answer, and every answer for a map, waits for the full homology, so a
homology refutation still comes first.

The Cohen-Macaulay sweep walks its links as vertex sets of the poset's
stored order.  Heights settle most of its tasks with no poset: an empty
link, a lower or upper link that holds the global minimum or maximum (a
cone), and a link that heights show to be an antichain.  The sweep counts
those and looks only at the settled tasks whose dimension misses their
target, which refute it.  Every other task, the whole poset first, builds
its link once, by ``P.induced``, and runs the full homology route on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from .complexes import BudgetExceeded, DEFAULT_BUDGET, OrderComplex, \
    columns, count_chains, order_complex, relative_boundary_rows
from .posets import FinitePoset, PosetMap, _chain_heights, mapping_cone
from .snf import CertificateError, smith_invariants
from . import pi1


@dataclass
class HomologyProfile:
    """Betti numbers and torsion by degree.

    For a reduced profile ``betti`` holds reduced Betti numbers (degree -1
    appears only for the empty poset).  ``through`` is None when every
    degree is exact, otherwise degrees above it were never computed.
    ``counts`` are generator counts per dimension as far as enumerated:
    simplices, or for a pair the simplices not inside the subcomplex.
    """

    betti: Dict[int, int]
    torsion: Dict[int, Tuple[int, ...]]
    through: Optional[int]
    counts: Tuple[int, ...] = ()

    def knows(self, k: int) -> bool:
        return self.through is None or k <= self.through

    def _known(self, k: int) -> None:
        if not self.knows(k):
            raise CertificateError(f"degree {k} was not computed")

    def betti_number(self, k: int) -> int:
        self._known(k)
        return self.betti.get(k, 0)

    def torsion_at(self, k: int) -> Tuple[int, ...]:
        self._known(k)
        return self.torsion.get(k, ())

    def first_nonzero_through(self, d: int):
        for k in range(-1, d + 1):
            if self.betti_number(k) or self.torsion_at(k):
                return k
        return None


def _graph_rank(rows, skip, n):
    """The rank of d_1, given as its two face rows over n vertices, without
    the edges in ``skip``.

    d_1 is then the oriented incidence matrix of a graph, each column the
    head minus the tail of one edge: its rank is n minus the number of
    components, and every invariant factor is 1, over the integers and
    over F_2.  The rank is the number of edges that join two components
    of a union-find.  An edge whose two faces coincide raises
    CertificateError, as ``columns`` does, and so does a face index that
    is not a vertex.
    """
    heads, tails = rows
    edges = zip(heads, tails)
    if skip:
        edges = (e for j, e in enumerate(edges) if j not in skip)
    parent = list(range(n))
    rank = 0
    for a, b in edges:
        if a == b:
            raise CertificateError("a boundary column repeats a face")
        if not (0 <= a < n and 0 <= b < n):
            raise CertificateError("a face index out of range")
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[a] = b
            rank += 1
    return rank


def _profile(counts, complete, cap, boundary, known) -> HomologyProfile:
    """Betti numbers and torsion of one chain complex.

    ``counts[k]`` generators sit in degree k, through dimension ``cap``
    when ``complete`` is false (the chains were cut off there), and
    ``boundary(k)`` is the boundary d_k as face rows, which ``columns``
    turns into the sparse columns an SNF takes.  ``known`` holds the ranks
    of d_0, d_1, ... that need no SNF: that of d_0 always, and those of
    d_1 and d_2 too when a trivial fundamental group fixes them; those
    boundaries are free of torsion, and a known rank that does not fit its
    matrix raises CertificateError.  The other boundaries go through
    ``columns`` and ``smith_invariants`` top-down, from d_top to
    d_{len(known)}: the rank of d_k is the number of its invariant
    factors, and those above 1 are torsion in degree k - 1.  When
    ``known`` covers every degree in ``counts``, no boundary is built and
    ``boundary`` is never called, so the counts need not come from listed
    chains; the rank-fit and negative-Betti certificates still run.

    Free pivots: ``columns`` splits off each column of d_k that holds a
    free face, a face that no other kept column names, and reports one
    such face per column into ``free``.  Its entry there is +-1, so the
    rank of d_k is the number of free pivots plus the length of the
    invariant factors of the remaining columns, which go to
    ``smith_invariants`` even when there are none.  That is exact: with
    the free pivots first, their rows hold no entry of any other kept
    column, so the pivot minor is block triangular with a unit diagonal
    and the invariant factors are 1 per free pivot followed by the SNF of
    the rest.

    The twist (Chen-Kerber): ``lows`` collects the free faces and, from
    ``smith_invariants``, the rows of its unit pivots, and d_k goes to
    ``columns`` without its columns at the rows that d_{k+1} put there.
    Each pivot z of d_{k+1}, a free column or a reduced one, is an integer
    combination of its columns, so d_k z = 0.  On the pivot rows the free
    pivots come first: their rows meet no reduced pivot, so the minor is
    block triangular, a unit diagonal block for the free pivots and the
    SNF's triangular block with +-1 on the diagonal, invertible over the
    integers.  So d_k's columns at the pivot rows are integer combinations
    of its other columns: the columns kept span the same lattice as all of
    them, and ranks and torsion are unchanged.  That rests on
    d_k d_{k+1} = 0, so the face rows of d_{k+1} are kept until those of
    d_k have been built and ``dd_zero_check`` has passed on the pair; only
    then are d_k's columns built, without the cleared ones.  The check
    compares the very rows the columns come from, and ``columns`` raises
    on a column that names a face twice, so the pair certified is the pair
    the SNFs reduce.

    A d_1 whose face rows hold no -1, no face inside a subcomplex, is the
    oriented incidence matrix of a graph on the ``counts[0]`` vertices
    that are generators, on the reduced route and on a pair alike; its
    columns that survive the twist go to ``_graph_rank``, a union-find,
    instead of the SNF, after its face rows are built and certified
    against d_2, like those of every other boundary.  A d_1 with a -1
    face keeps the SNF.
    """
    top = len(counts) - 1
    ranks = list(known) + [0] * (top + 2 - len(known))
    size = lambda k: counts[k] if k < len(counts) else 0
    for k in range(1, len(known)):
        if not 0 <= known[k] <= min(size(k - 1), size(k)):
            raise CertificateError(
                f"rank {known[k]} of d_{k} does not fit a "
                f"{size(k - 1)} x {size(k)} matrix")
    torsion = {}
    upper, cleared = None, set()
    for k in range(top, len(known) - 1, -1):
        rows = boundary(k)
        if upper is not None:
            OrderComplex.dd_zero_check(rows, upper)
        # d_{k+1} is freed before this SNF; d_k is kept for d_{k-1}'s check
        upper, lows = rows, set()
        if k == 1 and not any(-1 in row for row in rows):
            ranks[1] = _graph_rank(rows, cleared, counts[0])
            continue
        free = []
        inv = smith_invariants(columns(rows, cleared, free), lows)
        lows.update(free)
        cleared = lows
        ranks[k] = len(free) + len(inv)
        tors = tuple(v for v in inv if v > 1)
        if tors:
            torsion[k - 1] = tors
    through = None if complete else cap - 1
    lim = top if through is None else min(top, through)
    betti = {}
    for k in range(lim + 1):
        b = counts[k] - ranks[k] - ranks[k + 1]
        if b < 0:
            raise CertificateError(f"negative Betti number {b} in degree {k}")
        if b:
            betti[k] = b
    if through is not None:
        torsion = {k: v for k, v in torsion.items() if k <= through}
    return HomologyProfile(betti, torsion, through, counts)


def _cap(through_degree):
    """The chain length needed for homology through ``through_degree``."""
    return None if through_degree is None else max(through_degree + 1, 0)


def _complex(P, cap, budget, cx):
    """P's order complex through dimension ``cap`` (all of it when None):
    enumerated here, or the caller's ``cx``, which must have a vertex per
    element of P and be complete or reach dimension ``cap``; a shorter one
    would pass its missing degrees off as zero."""
    if cx is None:
        return order_complex(P, max_dim=cap, budget=budget)
    if cx.n_simplices(0) != len(P):
        raise ValueError(f"cx has {cx.n_simplices(0)} vertices, "
                         f"P has {len(P)} elements")
    if not cx.complete and (cap is None or len(cx.by_dim) <= cap):
        raise ValueError(f"cx stops at dimension {len(cx.by_dim) - 1}, "
                         f"short of {'its top' if cap is None else cap}")
    return cx


def reduced_homology(P: FinitePoset, through_degree=None,
                     budget=DEFAULT_BUDGET, cx=None) -> HomologyProfile:
    """Reduced integral homology of P through ``through_degree`` (all
    degrees when None).  ``cx``, when the caller has enumerated P's order
    complex, must reach dimension ``through_degree + 1`` (be complete when
    that is None), else ValueError.  d_0 is the augmentation of a
    nonempty complex, of rank 1."""
    if len(P) == 0:
        return HomologyProfile(betti={-1: 1}, torsion={}, through=None,
                               counts=())
    cap = _cap(through_degree)
    cx = _complex(P, cap, budget, cx)
    return _profile(tuple(map(len, cx.by_dim)), cx.complete, cap,
                    cx.boundary_rows, (1,))


def relative_homology(P: FinitePoset, sub, through_degree=None,
                      budget=DEFAULT_BUDGET, cx=None) -> HomologyProfile:
    """Homology of the pair (P, full subposet on the vertex set ``sub``).

    Computed from the quotient chain complex, whose generators are the
    chains outside the subcomplex, split from the rest in one scan
    (``OrderComplex.split``); unreduced, no degree -1.  ``cx`` is as for
    ``reduced_homology``.
    """
    sub, positions = frozenset(sub), P.positions()
    if not sub <= positions.keys():
        raise ValueError("sub must be a set of elements of P")
    sub = frozenset(map(positions.__getitem__, sub))
    cap = _cap(through_degree)
    cx = _complex(P, cap, budget, cx)
    outside, inside = cx.split(sub)
    return _profile(tuple(map(len, outside)), cx.complete, cap,
                    lambda k: relative_boundary_rows(outside, inside, k), (0,))


# ---------------------------------------------------------------------------
# verdicts

@dataclass
class ConnectivityVerdict:
    level: int
    status: str  # "verified" | "refuted" | "inconclusive"
    basis: str
    detail: dict = field(default_factory=dict)

    def ok(self) -> bool:
        return self.status == "verified"


def _homology_step(P: FinitePoset, level: int, through: int, budget,
                   probe: bool, sub=None):
    """The homology and pi_1 steps of a verdict at ``level``: (verdict,
    profile), with the profile None when the verdict was settled before
    the homology verified.

    The homology is reduced, or with ``sub`` (a set of labels) that of the
    pair (P, sub), through ``level``, on P's order complex through
    dimension ``level + 1``, enumerated here at most once and before any
    probe, so that a blown budget is found first.  With ``probe``, and
    ``through`` at least 1, the fundamental group of P is probed first,
    from P alone.  On the reduced route a trivial answer means a connected
    complex with H_1 = 0, so rank d_1 = c_0 - 1 and rank d_2 = c_1 - rank
    d_1, both free, and the SNF stops at d_3.  At level 1 that leaves no
    boundary to reduce, so there the chains are only counted, under the
    same budget (``count_chains``), and listed only when the probe is not
    trivial.  Any other answer, and any answer on the pair route, is held
    until the homology has run in full, so refutations keep their basis
    and detail.  A budget overrun settles the verdict as inconclusive; a
    nonzero degree at or below ``through``, or torsion in ``level``, as
    refuted by homology; then a nontrivial group as refuted by pi_1.  A
    trivial one gives the basis homology+pi1.
    """
    res = cx = None
    cap = _cap(level)
    probing = probe and through >= 1
    counted = probing and sub is None and level == 1
    try:
        if counted:
            counts, complete = count_chains(P, budget)
        else:
            cx = order_complex(P, max_dim=cap, budget=budget)
            counts, complete = tuple(map(len, cx.by_dim)), cx.complete
        if probing:
            res = pi1.pi1_probe(P)
        if sub is not None:
            prof = relative_homology(P, sub, level, budget, cx=cx)
        elif res == "trivial":
            c0, c1 = (counts + (0,))[:2]
            prof = _profile(counts, complete, cap,
                            None if cx is None else cx.boundary_rows,
                            (1, c0 - 1, c1 - (c0 - 1)))
        else:
            prof = reduced_homology(P, level, budget, cx=cx)
    except BudgetExceeded as e:
        return ConnectivityVerdict(level, "inconclusive", "budget",
                                   {"reason": str(e)}), None
    bad = prof.first_nonzero_through(through)
    if bad is not None:
        return ConnectivityVerdict(
            level, "refuted", "homology",
            {"degree": bad, "betti": prof.betti_number(bad),
             "torsion": prof.torsion_at(bad)}), None
    if prof.torsion_at(level):
        return ConnectivityVerdict(
            level, "refuted", "homology",
            {"degree": level, "torsion": prof.torsion_at(level)}), None
    if res == "nontrivial":
        return ConnectivityVerdict(
            level, "refuted", "pi1",
            {"reason": "fundamental group is nontrivial"}), None
    basis = "homology+pi1" if res == "trivial" else "homology-only"
    return ConnectivityVerdict(level, "verified", basis), prof


def homologically_connected(P: FinitePoset, d: int, budget=DEFAULT_BUDGET,
                            probe: bool = True) -> ConnectivityVerdict:
    """Is P d-connected, as far as homology and a pi_1 probe can tell?

    d <= -2 is vacuous, d = -1 means nonempty.  For d >= 1 vanishing
    homology alone cannot see a perfect fundamental group, so a group
    probe runs too; if it cannot decide, the verdict stays "verified"
    with basis "homology-only" to record the weaker certificate.  The probe
    runs first: when it finds the group trivial, the ranks of d_1 and d_2
    follow by exactness and the SNF, with its dd=0 check, covers only d_3
    and up.
    """
    if d <= -2:
        return ConnectivityVerdict(d, "verified", "vacuous")
    if len(P) == 0:
        return ConnectivityVerdict(d, "refuted", "nonempty", {"reason": "empty poset"})
    if d == -1:
        return ConnectivityVerdict(d, "verified", "nonempty")
    return _homology_step(P, d, d, budget, probe)[0]


def homology_spherical(P: FinitePoset, n: int, budget=DEFAULT_BUDGET,
                       probe: bool = True) -> ConnectivityVerdict:
    """Does P look like a wedge of n-spheres?

    Checks the dimension, (n-1)-connectivity, and freeness of the top
    homology; the sphere count lands in the detail.  For n >= 2 a pi_1
    probe runs first, as in ``homologically_connected``: a trivial group
    fixes the ranks of d_1 and d_2, and the SNF and its dd=0 check stop
    at d_3.
    """
    dim = P.dim()
    if dim != n:
        return ConnectivityVerdict(n, "refuted", "dimension",
                                   {"dim": dim, "expected": n})
    if n == -1:
        return ConnectivityVerdict(n, "verified", "empty")
    verdict, prof = _homology_step(P, n, n - 1, budget, probe)
    if prof is not None:
        verdict.detail["spheres"] = prof.betti_number(n)
    return verdict


def _cm_tasks(P: FinitePoset, n: int):
    """The sweep's tasks that need a look, in order, each as (index, kind,
    tag, keep, target, dim), its index the number of tasks before it.

    The tasks are the whole poset, then the lower and the upper link of
    each vertex v, then the open interval (v, w) for each w in
    ``sorted(up[v])``, v in vertex order: an order that follows the vertex
    numbers, never a label's hash.  So there are 1 + 2|P| + (order pairs)
    of them.  Each is a vertex set of P's stored order: ``range(len(P))``,
    ``down[v]``, ``up[v]`` or ``up[v] & down[w]``.

    Heights settle a task in O(1), with no poset, when its link is empty,
    a cone, or an antichain: then ``homology_spherical(link, target,
    probe=False)`` refutes it exactly when its dimension misses its target.
    A lower link that holds the global minimum of P, or an upper link that
    holds the global maximum, is a cone.  An element x strictly between v
    and w lies below no other such element y when h(w) - h(v) <= 2, for
    v < x < y < w would make h(w) >= h(v) + 3.  So an interval of span
    h(w) - h(v) = 1 is empty, with no intersection taken, and one of span 2
    is an antichain, as is a lower link with h(v) = 1 and an upper link
    whose longest chain above v has length 1.

    Settled tasks are counted, and yielded only when refuted, with ``keep``
    None and their dimension as ``dim``.  A settled lower link has
    dimension h(v) - 1, its target, and an interval of span 1 dimension -1,
    its target, so neither is ever yielded.  A settled upper link has the
    longest chain above v less one, which in a poset that is not graded
    need not be its target n - 1 - h(v); an empty interval of span 2 or
    more has dimension -1 against a target span - 2 >= 0.  Every other
    task is computed, the whole poset first, and comes with ``keep``, its
    vertex set, the target its link must be spherical in, and ``dim``
    None.  On U_3(F_2), 9,412 of the 9,414 tasks are settled and 2 are
    computed, the whole poset and the graph (0, L); on I(genus 2,
    radical 1), 1,500 of 1,501, and only the whole poset is computed.
    """
    up, down, el = P.up_sets(), P.down_sets(), P.elements
    h = P._heights()
    last = len(el) - 1
    # the global minimum and maximum, or -1, which no vertex set holds
    bottom = next((v for v, u in enumerate(up) if len(u) == last), -1)
    top = next((v for v, d in enumerate(down) if len(d) == last), -1)
    depth = _chain_heights(down)
    yield 0, "whole", None, range(len(el)), n, None
    for v, x in enumerate(el):
        d, u, target = down[v], up[v], n - 1 - h[v]
        if h[v] > 1 and bottom not in d:
            yield 1 + 2 * v, "below", x, d, h[v] - 1, None
        if depth[v] > 1 and top not in u:
            yield 2 + 2 * v, "above", x, u, target, None
        elif depth[v] - 1 != target:
            yield 2 + 2 * v, "above", x, None, target, depth[v] - 1
    i = 1 + 2 * len(el)
    for v, x in enumerate(el):
        u, hv = up[v], h[v]
        for j, w in enumerate(sorted(u), i):
            span = h[w] - hv
            if span > 1:
                keep = u & down[w]
                if not keep:
                    yield j, "interval", (x, el[w]), None, span - 2, -1
                elif span > 2:
                    yield j, "interval", (x, el[w]), keep, span - 2, None
        i += len(u)


def cohen_macaulay_check(P: FinitePoset, n: int,
                         budget=DEFAULT_BUDGET) -> ConnectivityVerdict:
    """Homological Cohen-Macaulay test over the integers.

    The whole poset, every lower and upper link, and every open interval
    must be spherical of the dimension dictated by the longest-chain heights.
    Purely homological; no group probes on the links.  The sweep is one
    serial loop over ``_cm_tasks``, in vertex order, and each link gets the
    whole ``budget``.  The sweep stops at the first task that is refuted or
    inconclusive, and records in ``links_checked`` how many tasks passed
    before it; a verified sweep records them all.

    A settled task is refuted by its dimension, with the detail that
    ``homology_spherical`` gives.  The budget cannot turn a settled task
    inconclusive, because the whole poset runs first under the same budget
    and every link's complex is a subcomplex of the whole poset's.  Every
    computed task has its link built once, by ``P.induced`` on the labels
    of its vertex set (the whole poset's is P itself), and runs
    ``homology_spherical`` on it without a probe: the full homology route
    with its dd=0 check.
    """
    if P.dim() != n:
        return ConnectivityVerdict(n, "refuted", "dimension",
                                   {"dim": P.dim(), "expected": n})
    el = P.elements
    for checked, kind, tag, keep, target, dim in _cm_tasks(P, n):
        if keep is None:
            sub = {"dim": dim, "expected": target}
        else:
            v = homology_spherical(P.induced(map(el.__getitem__, keep)),
                                   target, budget=budget, probe=False)
            if v.status == "inconclusive":
                return ConnectivityVerdict(n, "inconclusive", "budget",
                                           {"part": kind, "at": tag,
                                            "links_checked": checked})
            if v.ok():
                continue
            sub = v.detail
        return ConnectivityVerdict(n, "refuted", "homology",
                                   {"part": kind, "at": tag, "sub": sub,
                                    "links_checked": checked})
    return ConnectivityVerdict(
        n, "verified", "homology-only",
        {"links_checked": 1 + 2 * len(el) + sum(map(len, P.up_sets()))})


def map_connectivity(f: PosetMap, n: int,
                     budget=DEFAULT_BUDGET) -> ConnectivityVerdict:
    """n-connectivity of a map, read off its mapping cone.

    The cylinder-source pair homology must vanish through degree n; it is
    that of (cone, source with the tip), with the same generators, faces
    and column order.  For n >= 1 a probe on the cone's complex runs first;
    after the homology it refutes on a nontrivial group and strengthens the
    basis on a trivial one.
    """
    if n <= -1:
        return ConnectivityVerdict(n, "verified", "vacuous")
    C, src, _, tip = mapping_cone(f)
    return _homology_step(C, n, n, budget, True,
                          frozenset(src.values()) | {tip})[0]
