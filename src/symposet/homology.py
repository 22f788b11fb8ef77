"""Exact integral homology of order complexes, and connectivity verdicts.

Everything here is integer-exact: ranks and torsion come from Smith normal
form of boundary matrices.  Degrees are processed one at a time so only a
single boundary matrix is alive at once.

A verdict never overstates its evidence.  ``status`` says what was
established, ``basis`` says with which tools; a fundamental-group probe can
upgrade a homological verdict or refute it, and a blown budget yields
"inconclusive", never a guess.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from .complexes import BudgetExceeded, DEFAULT_BUDGET, order_complex, \
    relative_boundary_rows, relative_columns
from .posets import FinitePoset, PosetMap, mapping_cone, mapping_cylinder
from .snf import smith_invariants
from . import pi1


@dataclass
class HomologyProfile:
    """Betti numbers and torsion by degree.

    For a reduced profile ``betti`` holds reduced Betti numbers (degree -1
    appears only for the empty poset).  ``through`` is None when every
    degree is exact, otherwise degrees above it were never computed.
    ``counts`` are simplex counts per dimension as far as enumerated.
    """

    betti: Dict[int, int]
    torsion: Dict[int, Tuple[int, ...]]
    through: Optional[int]
    counts: Tuple[int, ...] = ()

    def knows(self, k: int) -> bool:
        return self.through is None or k <= self.through

    def betti_number(self, k: int) -> int:
        assert self.knows(k), f"degree {k} was not computed"
        return self.betti.get(k, 0)

    def torsion_at(self, k: int) -> Tuple[int, ...]:
        assert self.knows(k), f"degree {k} was not computed"
        return self.torsion.get(k, ())

    def first_nonzero_through(self, d: int):
        for k in range(-1, d + 1):
            if self.betti_number(k) or self.torsion_at(k):
                return k
        return None


def reduced_homology(P: FinitePoset, through_degree=None,
                     budget=DEFAULT_BUDGET) -> HomologyProfile:
    if len(P) == 0:
        return HomologyProfile(betti={-1: 1}, torsion={}, through=None, counts=())
    cap = None if through_degree is None else max(through_degree + 1, 0)
    cx = order_complex(P, max_dim=cap, budget=budget)
    top = cx.top_dim()
    counts = tuple(cx.n_simplices(k) for k in range(top + 1))
    ranks = [0] * (top + 2)
    ranks[0] = 1  # augmentation of a nonempty complex
    torsion = {}
    for k in range(1, top + 1):
        inv = smith_invariants(cx.boundary_rows(k))
        ranks[k] = len(inv)
        tors = tuple(v for v in inv if v > 1)
        if tors:
            torsion[k - 1] = tors
    through = None if cx.complete else cap - 1
    lim = top if through is None else min(top, through)
    betti = {}
    for k in range(lim + 1):
        b = counts[k] - ranks[k] - ranks[k + 1]
        assert b >= 0
        if b:
            betti[k] = b
    if through is not None:
        torsion = {k: v for k, v in torsion.items() if k <= through}
    return HomologyProfile(betti, torsion, through, counts)


def relative_homology(P: FinitePoset, sub, through_degree=None,
                      budget=DEFAULT_BUDGET) -> HomologyProfile:
    """Homology of the pair (P, full subposet on the vertex set ``sub``).

    Computed from the quotient chain complex; unreduced, no degree -1.
    """
    sub = frozenset(sub)
    assert sub <= frozenset(P.elements)
    cap = None if through_degree is None else max(through_degree + 1, 0)
    cx = order_complex(P, max_dim=cap, budget=budget)
    keep = relative_columns(cx, sub)
    top = cx.top_dim()
    counts = tuple(len(keep[k]) for k in range(top + 1))
    ranks = [0] * (top + 2)
    torsion = {}
    for k in range(1, top + 1):
        inv = smith_invariants(relative_boundary_rows(cx, sub, k))
        ranks[k] = len(inv)
        tors = tuple(v for v in inv if v > 1)
        if tors:
            torsion[k - 1] = tors
    through = None if cx.complete else cap - 1
    lim = top if through is None else min(top, through)
    betti = {}
    for k in range(lim + 1):
        b = counts[k] - ranks[k] - ranks[k + 1]
        assert b >= 0
        if b:
            betti[k] = b
    if through is not None:
        torsion = {k: v for k, v in torsion.items() if k <= through}
    return HomologyProfile(betti, torsion, through, counts)


def reduced_betti_mod2(P: FinitePoset, through_degree=None,
                       budget=DEFAULT_BUDGET) -> Dict[int, int]:
    """Reduced Betti numbers with F_2 coefficients, via bitset elimination.

    An independent cross-check on the integral route: by universal
    coefficients these equal rank + two-torsion contributions.
    """
    if len(P) == 0:
        return {-1: 1}
    cap = None if through_degree is None else max(through_degree + 1, 0)
    cx = order_complex(P, max_dim=cap, budget=budget)
    top = cx.top_dim()

    def rank2(rows):
        pivots = {}
        r = 0
        for cdict in rows.values():
            mask = 0
            for c, v in cdict.items():
                if v & 1:
                    mask |= 1 << c
            while mask:
                low = mask & -mask
                other = pivots.get(low)
                if other is None:
                    pivots[low] = mask
                    r += 1
                    break
                mask ^= other
        return r

    ranks = [0] * (top + 2)
    ranks[0] = 1
    for k in range(1, top + 1):
        ranks[k] = rank2(cx.boundary_rows(k))
    through = None if cx.complete else cap - 1
    lim = top if through is None else min(top, through)
    out = {}
    for k in range(lim + 1):
        b = cx.n_simplices(k) - ranks[k] - ranks[k + 1]
        if b:
            out[k] = b
    return out


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

    def summary(self) -> str:
        return f"{self.status} (level {self.level}, {self.basis})"


def homologically_connected(P: FinitePoset, d: int, budget=DEFAULT_BUDGET,
                            probe: bool = True) -> ConnectivityVerdict:
    """Is P d-connected, as far as homology and a pi_1 probe can tell?

    d <= -2 is vacuous, d = -1 means nonempty.  For d >= 1 vanishing
    homology alone cannot see a perfect fundamental group, so a group
    probe runs on top; if it cannot decide, the verdict stays "verified"
    with basis "homology-only" to record the weaker certificate.
    """
    if d <= -2:
        return ConnectivityVerdict(d, "verified", "vacuous")
    if d == -1:
        if len(P) > 0:
            return ConnectivityVerdict(d, "verified", "nonempty")
        return ConnectivityVerdict(d, "refuted", "nonempty", {"reason": "empty poset"})
    if len(P) == 0:
        return ConnectivityVerdict(d, "refuted", "nonempty", {"reason": "empty poset"})
    try:
        prof = reduced_homology(P, through_degree=d, budget=budget)
    except BudgetExceeded as e:
        return ConnectivityVerdict(d, "inconclusive", "budget", {"reason": str(e)})
    bad = prof.first_nonzero_through(d)
    if bad is not None:
        return ConnectivityVerdict(
            d, "refuted", "homology",
            {"degree": bad, "betti": prof.betti_number(bad),
             "torsion": prof.torsion_at(bad)})
    if d >= 1 and probe:
        try:
            res = pi1.pi1_probe(P, budget=budget)
        except BudgetExceeded:
            res = "unknown"
        if res == "nontrivial":
            return ConnectivityVerdict(d, "refuted", "pi1",
                                       {"reason": "fundamental group is nontrivial"})
        if res == "trivial":
            return ConnectivityVerdict(d, "verified", "homology+pi1")
    return ConnectivityVerdict(d, "verified", "homology-only")


def homology_spherical(P: FinitePoset, n: int, budget=DEFAULT_BUDGET,
                       probe: bool = True) -> ConnectivityVerdict:
    """Does P look like a wedge of n-spheres?

    Checks the dimension, (n-1)-connectivity, and freeness of the top
    homology; the sphere count lands in the detail.
    """
    dim = P.dim()
    if dim != n:
        return ConnectivityVerdict(n, "refuted", "dimension",
                                   {"dim": dim, "expected": n})
    if n == -1:
        return ConnectivityVerdict(n, "verified", "empty")
    try:
        prof = reduced_homology(P, through_degree=n, budget=budget)
    except BudgetExceeded as e:
        return ConnectivityVerdict(n, "inconclusive", "budget", {"reason": str(e)})
    bad = prof.first_nonzero_through(n - 1)
    if bad is not None:
        return ConnectivityVerdict(
            n, "refuted", "homology",
            {"degree": bad, "betti": prof.betti_number(bad),
             "torsion": prof.torsion_at(bad)})
    if prof.torsion_at(n):
        return ConnectivityVerdict(n, "refuted", "homology",
                                   {"degree": n, "torsion": prof.torsion_at(n)})
    basis = "homology-only"
    if n >= 2 and probe:
        try:
            res = pi1.pi1_probe(P, budget=budget)
        except BudgetExceeded:
            res = "unknown"
        if res == "nontrivial":
            return ConnectivityVerdict(n, "refuted", "pi1",
                                       {"reason": "fundamental group is nontrivial"})
        if res == "trivial":
            basis = "homology+pi1"
    return ConnectivityVerdict(n, "verified", basis,
                               {"spheres": prof.betti_number(n)})


def _cm_tasks(P: FinitePoset, n: int):
    h = P.standard_heights()
    yield ("whole", None, P, n)
    for x in P:
        yield ("below", x, P.subposet_lt(x), h[x] - 1)
        yield ("above", x, P.subposet_gt(x), n - 1 - h[x])
    for x in P:
        for y in P.above(x):
            yield ("interval", (x, y), P.open_interval(x, y), h[y] - h[x] - 2)


def _cm_run_one(args):
    kind, tag, sub, target, budget = args
    v = homology_spherical(sub, target, budget=budget, probe=False)
    return kind, tag, v


def cohen_macaulay_check(P: FinitePoset, n: int, budget=DEFAULT_BUDGET,
                         workers: int = 1) -> ConnectivityVerdict:
    """Homological Cohen-Macaulay test over the integers.

    The whole poset, every lower and upper link, and every open interval
    must be spherical of the dimension dictated by the standard heights.
    Purely homological; no group probes on the links.  Each link gets the
    whole ``budget``, on the pool path too.
    """
    if P.dim() != n:
        return ConnectivityVerdict(n, "refuted", "dimension",
                                   {"dim": P.dim(), "expected": n})
    tasks = [task + (budget,) for task in _cm_tasks(P, n)]
    results = []
    if workers > 1:
        import multiprocessing
        with multiprocessing.Pool(workers) as pool:
            results = pool.map(_cm_run_one, tasks, chunksize=64)
    else:
        results = [_cm_run_one(t) for t in tasks]
    checked = 0
    for kind, tag, v in results:
        if v.status == "refuted":
            return ConnectivityVerdict(n, "refuted", "homology",
                                       {"part": kind, "at": tag, "sub": v.detail})
        if v.status == "inconclusive":
            return ConnectivityVerdict(n, "inconclusive", "budget",
                                       {"part": kind, "at": tag})
        checked += 1
    return ConnectivityVerdict(n, "verified", "homology-only",
                               {"links_checked": checked})


def map_connectivity(f: PosetMap, n: int, budget=DEFAULT_BUDGET,
                     probe: bool = True) -> ConnectivityVerdict:
    """n-connectivity of a map, read off the cylinder-source pair.

    The pair homology must vanish through degree n.  For n >= 1 a probe on
    the mapping cone checks the fundamental-group condition: a nontrivial
    cone group refutes, a trivial one strengthens the basis.
    """
    if n <= -1:
        return ConnectivityVerdict(n, "verified", "vacuous")
    M, src, tgt = mapping_cylinder(f)
    try:
        prof = relative_homology(M, frozenset(src.values()),
                                 through_degree=n, budget=budget)
    except BudgetExceeded as e:
        return ConnectivityVerdict(n, "inconclusive", "budget", {"reason": str(e)})
    for k in range(n + 1):
        if prof.betti_number(k) or prof.torsion_at(k):
            return ConnectivityVerdict(
                n, "refuted", "homology",
                {"degree": k, "betti": prof.betti_number(k),
                 "torsion": prof.torsion_at(k)})
    basis = "homology-only"
    if n >= 1 and probe:
        C, _, _, _ = mapping_cone(f)
        try:
            res = pi1.pi1_probe(C, budget=budget)
        except BudgetExceeded:
            res = "unknown"
        if res == "nontrivial":
            return ConnectivityVerdict(n, "refuted", "pi1",
                                       {"reason": "cone group is nontrivial"})
        if res == "trivial":
            basis = "homology+pi1"
    return ConnectivityVerdict(n, "verified", basis)
