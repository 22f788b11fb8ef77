"""Covering families of downward-closed subposets and their nerve data.

A cover assigns to every index a of a poset A a full subposet X_a of X,
downward closed and reversing order (bigger index, smaller subposet).
From this the pair poset Z and its two projections are built, hypothesis
tables for the fiberwise connectivity criterion are evaluated, and
explicit contraction witnesses (section maps s_a, envelopes e_a, and a
zig-zag of comparable maps ending in a constant) are checked link by link.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .complexes import DEFAULT_BUDGET
from .homology import (ConnectivityVerdict, homologically_connected,
                       map_connectivity)
from .posets import FinitePoset, PosetMap, thick_join
from .snf import CertificateError
from .symplectic import (RadicalQuotient, Submodule, SymplecticModule,
                         symplectic_dual_family)


class CoverFamily:
    """Index poset A, target poset X, and a member set for every index."""

    def __init__(self, A: FinitePoset, X: FinitePoset, members: Dict):
        if set(members) != set(A.elements):
            raise ValueError("one member set per index")
        self.A = A
        self.X = X
        self.members = {a: frozenset(s) for a, s in members.items()}
        ground = frozenset(X.elements)
        for a, s in self.members.items():
            if not s <= ground:
                raise ValueError(f"members of {a!r} escape X")
        self._posets: Dict = {}

    def member_poset(self, a) -> FinitePoset:
        if a not in self._posets:
            self._posets[a] = self.X.induced(self.members[a])
        return self._posets[a]

    def indices_over(self, x) -> List:
        """A_x: all indices whose member set contains x."""
        return [a for a in self.A if x in self.members[a]]


@dataclass
class CoverReport:
    violations: List[Tuple] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_cover(F: CoverFamily) -> CoverReport:
    """Downward closure in X and order reversal along A, exhaustively."""
    report = CoverReport()
    for a, s in F.members.items():
        for x in s:
            for y in F.X.below(x):
                if y not in s:
                    report.violations.append(("downward", a, x, y))
    for a in F.A:
        for b in F.A.above(a):
            if not F.members[b] <= F.members[a]:
                missing = min(F.members[b] - F.members[a], key=F.X.positions().get)
                report.violations.append(("reversal", a, b, missing))
    return report


def build_Z(F: CoverFamily):
    """The poset of pairs (a, x) with x in X_a, ordered opposite-A times X,
    with its projections f: Z^op -> A and g: Z -> X."""
    if not validate_cover(F).ok:
        raise ValueError("invalid cover")
    elements = [(a, x) for a in F.A for x in F.X if x in F.members[a]]
    rel = []
    for (a, x) in elements:
        for (b, y) in elements:
            if (a, x) != (b, y) and F.A.le(b, a) and F.X.le(x, y):
                rel.append(((a, x), (b, y)))
    Z = FinitePoset(elements, rel)
    f = PosetMap(Z.opposite(), F.A, {z: z[0] for z in elements})
    g = PosetMap(Z, F.X, {z: z[1] for z in elements})
    return Z, f, g


# ---------------------------------------------------------------------------
# hypothesis tables

@dataclass
class FiberTransferReport:
    n: int
    rows: List[dict]
    conclusion: ConnectivityVerdict

    @property
    def hypotheses_ok(self) -> bool:
        return all(r["link"].ok() and r["fiber"].ok() for r in self.rows)

    @property
    def ok(self) -> bool:
        return self.hypotheses_ok and self.conclusion.ok()


def fiber_transfer_check(f: PosetMap, t, n: int,
                         budget=DEFAULT_BUDGET) -> FiberTransferReport:
    """Fiberwise connectivity tables for a poset map, plus the conclusion.

    For every y in the target, Y_{>y} must be (n-t(y)-2)-connected and the
    downward fiber f/y must be (t(y)-1)-connected.  ``t`` is a dict from
    target elements to levels, or None for the target's longest-chain
    heights.  Per-element rows are homological; the conclusion is
    map_connectivity(f, n).
    """
    Y = f.target
    tmap = Y.heights() if t is None else t
    rows = []
    for y in Y:
        rows.append({
            "y": y,
            "t": tmap[y],
            "link": homologically_connected(
                Y.subposet_gt(y), n - tmap[y] - 2, budget=budget,
                probe=False),
            "fiber": homologically_connected(
                f.fiber_le(y), tmap[y] - 1, budget=budget, probe=False),
        })
    return FiberTransferReport(n, rows, map_connectivity(f, n, budget=budget))


@dataclass
class NerveHypothesesReport:
    n: int
    rows: List[dict]

    @property
    def hypotheses_hold(self) -> bool:
        return all(r["verdict"].ok() for r in self.rows)


def check_nerve_hypotheses(F: CoverFamily, n: int,
                           budget=DEFAULT_BUDGET) -> NerveHypothesesReport:
    """The four per-element connectivity requirements of the nerve setup.

    With t_A and t_X the longest-chain heights of A and X: for every index
    a, A_{<a} at t_A(a)-2 and the member poset X_a at n-t_A(a)-1; for every
    x, X_{<x} at t_X(x)-2 and the index poset A_x at n-t_X(x)-1.  All
    homological.
    """
    tA = F.A.heights()
    tX = F.X.heights()
    rows = []
    for a in F.A:
        rows.append({"kind": "A<a", "at": a, "level": tA[a] - 2,
                     "verdict": homologically_connected(
                         F.A.subposet_lt(a), tA[a] - 2, budget=budget,
                         probe=False)})
        rows.append({"kind": "X_a", "at": a, "level": n - tA[a] - 1,
                     "verdict": homologically_connected(
                         F.member_poset(a), n - tA[a] - 1, budget=budget,
                         probe=False)})
    for x in F.X:
        rows.append({"kind": "X<x", "at": x, "level": tX[x] - 2,
                     "verdict": homologically_connected(
                         F.X.subposet_lt(x), tX[x] - 2, budget=budget,
                         probe=False)})
        Ax = F.A.induced(F.indices_over(x))
        rows.append({"kind": "A_x", "at": x, "level": n - tX[x] - 1,
                     "verdict": homologically_connected(
                         Ax, n - tX[x] - 1, budget=budget, probe=False)})
    return NerveHypothesesReport(n, rows)


# ---------------------------------------------------------------------------
# contraction witnesses

@dataclass
class NerveWitness:
    """Per-index section and envelope maps with a zig-zag certificate.

    ``s[a]`` maps each b < a to an element of X, ``e[a]`` maps pairs
    (b, x in X_a) to X, and ``zigzag[a]`` is a list of maps (as dicts) on
    the thick join of (A_{<a})^op with X_a, consecutive ones
    pointwise comparable, the first the assembled map, the last constant.
    """

    s: Dict
    e: Dict
    zigzag: Dict


def witness_domain(F: CoverFamily, a) -> FinitePoset:
    return thick_join(F.A.subposet_lt(a).opposite(), F.member_poset(a))


def assembled_map(F: CoverFamily, W: NerveWitness, a) -> Dict:
    out = {}
    for b in F.A.subposet_lt(a):
        out[("x", b)] = W.s[a][b]
    for x in F.members[a]:
        out[("y", x)] = x
    for b in F.A.subposet_lt(a):
        for x in F.members[a]:
            out[("p", b, x)] = W.e[a][(b, x)]
    return out


@dataclass
class WitnessReport:
    problems: List[Tuple] = field(default_factory=list)
    checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.problems


def check_nerve_witness(F: CoverFamily, W: NerveWitness) -> WitnessReport:
    """Membership, the two inequalities, and the zig-zag, link by link."""
    rep = WitnessReport()
    X = F.X
    for a in F.A:
        below = list(F.A.subposet_lt(a).elements)
        for b in below:
            sab = W.s[a][b]
            if sab not in F.members[b]:
                rep.problems.append(("s-membership", a, b))
            for x in F.members[a]:
                eabx = W.e[a][(b, x)]
                if eabx not in F.members[b]:
                    rep.problems.append(("e-membership", a, b, x))
                if not X.le(sab, eabx):
                    rep.problems.append(("s<=e", a, b, x))
                if not X.le(x, eabx):
                    rep.problems.append(("x<=e", a, b, x))
                rep.checked += 1
        # the zig-zag: monotone maps, comparable in alternation, constant end
        Wa = witness_domain(F, a)
        chain = W.zigzag[a]
        if not chain:
            rep.problems.append(("zigzag-empty", a))
            continue
        if chain[0] != assembled_map(F, W, a):
            rep.problems.append(("zigzag-start", a))
        usable = []
        for i, h in enumerate(chain):
            if set(h) != set(Wa.elements):
                rep.problems.append(("zigzag-domain", a, i))
                usable.append(False)
                continue
            good = True
            for z in Wa:
                if h[z] not in X:
                    rep.problems.append(("zigzag-range", a, i, z))
                    good = False
            if good:
                for z in Wa:
                    for w in Wa.above(z):
                        if not X.le(h[z], h[w]):
                            rep.problems.append(
                                ("zigzag-monotone", a, i, z, w))
            usable.append(good)
        for i in range(len(chain) - 1):
            if not (usable[i] and usable[i + 1]):
                continue
            h, k = chain[i], chain[i + 1]
            up = all(X.le(h[z], k[z]) for z in Wa)
            down = all(X.le(k[z], h[z]) for z in Wa)
            if not (up or down):
                rep.problems.append(("zigzag-comparability", a, i))
        last = chain[-1]
        if len(set(last.values())) > 1:
            rep.problems.append(("zigzag-constant", a))
        rep.checked += 1
    return rep


# ---------------------------------------------------------------------------
# the unimodular-poset instantiation

def isotropic_perp_cover(L: SymplecticModule, mode: str = "positive"):
    """The cover of the positive-genus part (or the open interval) of the
    unimodular-submodule poset by the perpendicular subposets of isotropic
    sequences, with a contraction witness in positive mode.

    Returns (CoverFamily, NerveWitness or None).  The heights of both
    posets come from their order: length - 1 on sequences, genus - 1 on
    targets.  A sequence's perp is the AND of its lifts' masks in
    ``L.perp_masks()``.
    """
    from .builders import build_I, build_U

    if mode not in ("interval", "positive"):
        raise ValueError(f"mode must be 'interval' or 'positive', not {mode!r}")
    quot = RadicalQuotient(L)
    A = build_I(quot.module)
    U = build_U(L)
    zero = ()
    if mode == "interval":
        if L.radical_rank():
            raise ValueError("open interval needs L unimodular")
        full = L.full_submodule().key()
        X = U.open_interval(zero, full)
    else:
        X = U.subposet_gt(zero)
    packed, perp = L.packed(), L.perp_masks()
    lift_perp = {v: perp[packed.index_of(quot.lift(v))]
                 for v in quot.module.vectors()}
    targets = [(u, Submodule(L, u, _canonical=True).members()) for u in X]
    members = {}
    for seq in A:
        # L_v: everything pairing to zero with the lifts
        allowed = perp[0]
        for v in seq:
            allowed &= lift_perp[v]
        members[seq] = frozenset(
            u for u, mask in targets if not mask & ~allowed)
    F = CoverFamily(A, X, members)
    if mode == "interval":
        return F, None
    witness = _perp_cover_witness(L, quot, F)
    return F, witness


def _perp_cover_witness(L: SymplecticModule, quot, F: CoverFamily) -> NerveWitness:
    """Spans of lifted dual pairs: genus-one blocks u_i through each v_i,
    pairwise perpendicular; unions give the sections, sums the envelopes,
    and adding the full block span contracts everything to one point."""
    full_bar = quot.module.full_submodule()
    s: Dict = {}
    e: Dict = {}
    zig: Dict = {}
    for seq in F.A:
        es = [list(v) for v in seq]
        fs = symplectic_dual_family(full_bar, es)
        blocks = []
        for v, f in zip(es, fs):
            u = Submodule(L, [quot.lift(v), quot.lift(f)])
            if not (u.rank == 2 and u.is_unimodular()):
                raise CertificateError("block is not unimodular of rank 2")
            blocks.append(u)
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                for x in blocks[i].basis:
                    for y in blocks[j].basis:
                        if L.pair(x, y) != 0:
                            raise CertificateError(
                                "blocks must be perpendicular")
        entries = [tuple(v) for v in seq]

        def span_over(positions):
            acc = blocks[positions[0]]
            for i in positions[1:]:
                acc = acc.add(blocks[i])
            return acc

        u_empty = span_over(range(len(blocks)))
        if u_empty.key() not in F.X:
            raise CertificateError("full block span left the poset")
        s[seq] = {}
        e[seq] = {}
        for b in F.A.subposet_lt(seq):
            positions = [i for i, v in enumerate(entries) if v not in b]
            if len(positions) != len(entries) - len(b):
                raise CertificateError("face is not a subsequence")
            ub = span_over(positions)
            if ub.key() not in F.members[b]:
                raise CertificateError("section value must lie in X_b")
            s[seq][b] = ub.key()
            for x in F.members[seq]:
                val = Submodule(L, list(x) + list(ub.basis))
                if not val.is_unimodular():
                    raise CertificateError("envelope failed unimodularity")
                if val.key() not in F.members[b]:
                    raise CertificateError("envelope value must lie in X_b")
                e[seq][(b, x)] = val.key()
        first = assembled_map(F, NerveWitness(s, e, {}), seq)
        second = {}
        for z in first:
            if z[0] == "y":
                grown = Submodule(L, list(z[1]) + list(u_empty.basis))
            elif z[0] == "p":
                grown = Submodule(L, list(z[2]) + list(u_empty.basis))
            else:
                grown = u_empty
            if not (grown.is_unimodular() and grown.key() in F.X):
                raise CertificateError("zig-zag step left the poset")
            second[z] = grown.key()
        third = {z: u_empty.key() for z in first}
        zig[seq] = [first, second, third]
    return NerveWitness(s, e, zig)
