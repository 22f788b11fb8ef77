"""Named verification suites.

Each suite runs a fixed list of checks against the poset builders and the
homology engine and collects one record per claim: an identifier, a plain
statement of what was checked, the verdict with its evidential basis, and
any counts that pin the instance down.  Reports serialize to canonical
JSON; with timings stripped the bytes depend only on the configuration,
the seed, and the code version.

Suite names:

    um          unimodular-submodule posets (genus 2 always, genus 3 if asked)
    dec         orthogonal decompositions and set partitions
    maazen      partial-basis posets and the norm-reducing retraction
    stability   isotropic sequences and the split-unimodular comparison
    nerve       covering families, hypothesis tables, witnesses
    trees       labeled trees over decompositions
    core-props  generic poset-homotopy machinery on random instances

Only ``um``, ``dec`` and ``trees`` read ``--genus``: at 3 or more each adds
its genus-3 records.  The others ignore it; every report records it.

Verdicts never exceed their evidence: a check that relies on homology
alone says so, and a refuted or budget-starved record drives the process
exit status (1 and 2 respectively).
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate
from operator import mul
from typing import Dict, Iterator, List, Tuple

from . import __version__
from .builders import (build_D, build_HU, build_I, build_O, build_U,
                       flag_to_decomposition, genus_one_count,
                       hu_decomposition_map, is_partial_basis,
                       partition_sequences_poset, partitions_poset,
                       rho_poset_retraction, rho_vector, set_partitions)
from .complexes import BudgetExceeded, DEFAULT_BUDGET
from .homology import (ConnectivityVerdict, cohen_macaulay_check,
                       homologically_connected, homology_spherical,
                       map_connectivity, reduced_homology)
from .io import canonical_json
from .nerve import (CoverFamily, NerveWitness, build_Z, fiber_transfer_check,
                    check_nerve_hypotheses, check_nerve_witness,
                    isotropic_perp_cover, validate_cover)
from .posets import (barycentric_subdivision, check_isomorphism,
                     cylinder_link_check, join, mapping_cylinder,
                     random_monotone_map, random_poset, thick_join)
from .rings import PrimeField, ZZ, ring_from_name
from .snf import CertificateError
from .symplectic import SymplecticModule
from .trees import (build_T, build_TD, contraction_certificate,
                    enumerate_plain_trees, tree_forget_map)

SUITE_NAMES = ("um", "dec", "maazen", "stability", "nerve", "trees",
               "core-props")


@dataclass
class SuiteConfig:
    ring: str = "p2"
    genus: int = 2
    budget: int = DEFAULT_BUDGET
    seed: int = 0

    def ring_object(self):
        return ring_from_name(self.ring)

    def describe(self) -> dict:
        return {"ring": self.ring, "genus": self.genus, "budget": self.budget,
                "seed": self.seed}


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in sorted(obj.items(),
                                                        key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (int, float, str, bool)) or obj is None:
        return obj
    return repr(obj)


def make_record(claim: str, statement: str, verdict, basis: str = None,
                **counts) -> dict:
    rec = {"claim": claim, "statement": statement}
    if isinstance(verdict, ConnectivityVerdict):
        rec["verdict"] = verdict.status
        rec["basis"] = verdict.basis
        rec["level"] = verdict.level
        if verdict.detail:
            rec["detail"] = _jsonable(verdict.detail)
    elif isinstance(verdict, bool):
        rec["verdict"] = "verified" if verdict else "refuted"
        rec["basis"] = basis or "exact"
    else:
        rec["verdict"] = str(verdict)
        rec["basis"] = basis or "exact"
    if counts:
        rec["counts"] = _jsonable(counts)
    return rec


@dataclass
class VerificationReport:
    suite: str
    config: SuiteConfig
    records: List[dict] = field(default_factory=list)

    def verdicts(self) -> List[str]:
        return [r["verdict"] for r in self.records]

    @property
    def ok(self) -> bool:
        return all(v == "verified" for v in self.verdicts())

    def payload(self, include_timings: bool = False) -> dict:
        records = self.records
        if not include_timings:
            records = [{k: v for k, v in r.items() if k != "seconds"}
                       for r in records]
        return {"suite": self.suite, "version": __version__,
                "config": self.config.describe(), "records": records}

    def to_json(self, include_timings: bool = False) -> str:
        return canonical_json(self.payload(include_timings))

    def summary_lines(self) -> List[str]:
        lines = []
        for r in self.records:
            lines.append(f"[{r['verdict']:<12}] {r['claim']}: {r['statement']}")
        return lines


def exit_status(report: VerificationReport) -> int:
    """1 for any refuted record, 2 for any inconclusive one, else 0.

    Depends only on the multiset of verdicts."""
    verdicts = report.verdicts()
    if "refuted" in verdicts:
        return 1
    if "inconclusive" in verdicts:
        return 2
    return 0


def _expect(claim: str, statement: str, actual, expected, **counts) -> dict:
    ok = actual == expected
    counts.setdefault("actual", actual)
    counts.setdefault("expected", expected)
    return make_record(claim, statement, ok, **counts)


# ---------------------------------------------------------------------------
# um: unimodular-submodule posets

def _symplectic_group_order(q: int, g: int) -> int:
    """|Sp_2g(F_q)| = q^(g^2) (q^2 - 1)(q^4 - 1)...(q^2g - 1)."""
    order = q ** (g * g)
    for i in range(1, g + 1):
        order *= q ** (2 * i) - 1
    return order


def unimodular_count(q: int, g: int) -> int:
    """Number of unimodular submodules of the genus-g symplectic space over
    F_q.  Sp_2g acts transitively on those of genus a (Witt), with the
    stabilizer Sp_2a x Sp_2(g-a) of the splitting, so the count is the sum
    over a of |Sp_2g| / (|Sp_2a| |Sp_2(g-a)|)."""
    full = _symplectic_group_order(q, g)
    return sum(full // (_symplectic_group_order(q, a)
                        * _symplectic_group_order(q, g - a))
               for a in range(g + 1))


def genus_one_submodules(q: int, g: int) -> int:
    """The a = 1 term of ``unimodular_count``."""
    return _symplectic_group_order(q, g) // (
        _symplectic_group_order(q, 1) * _symplectic_group_order(q, g - 1))


def decomposition_count(q: int, g: int) -> int:
    """|D| at genus g = 2 or 3 over F_q: {L}; a genus-1 part with its perp,
    each pair met twice at genus 2; and at genus 3 three genus-1 parts, met
    as V_1 and then V_2 in its genus-2 perp in all 3! orders."""
    n2 = genus_one_submodules(q, 2)
    if g == 2:
        return 1 + n2 // 2
    n3 = genus_one_submodules(q, 3)
    return 1 + n3 + n3 * n2 // 6


def isotropic_sequence_count(q: int, g: int, r: int = 0) -> int:
    """|I(L)| for L of genus g and radical rank r over F_q: the vector after
    i of them lies in their span's perp, off the span: q^(2g+r-i) - q^(r+i)
    ways."""
    return sum(accumulate((q ** (2 * g + r - i) - q ** (r + i)
                           for i in range(g)), mul))


def split_unimodular_count(q: int, g: int) -> int:
    """|HU| at genus g over F_q: the hyperbolic pair after i of them lies in
    their genus-(g - i) perp: (q^(2(g-i)) - 1) q^(2(g-i)-1) ways."""
    return sum(accumulate(((q ** (2 * (g - i)) - 1) * q ** (2 * (g - i) - 1)
                           for i in range(g)), mul))


def criterion_unimodular_genus2(cfg: SuiteConfig) -> Iterator[dict]:
    ring = cfg.ring_object()
    L = SymplecticModule.standard(ring, 2)
    U = build_U(L)
    count = unimodular_count(ring.p, 2)
    yield _expect("um.g2.count",
                  f"genus-2 unimodular-submodule poset has {count} elements",
                  len(U), count)
    v = cohen_macaulay_check(U, 2, budget=cfg.budget)
    yield make_record(
        "um.g2.cm", "genus-2 poset is homologically Cohen-Macaulay of dim 2",
        v, links=v.detail.get("links_checked") if v.detail else None)
    zero = L.zero_submodule().key()
    full = L.full_submodule().key()
    inner = U.open_interval(zero, full)
    prof = reduced_homology(inner, budget=cfg.budget)
    # the genus-1 submodules between 0 and L form an antichain, a wedge of
    # one zero-sphere fewer than its points
    spheres = count - 3
    yield _expect(
        "um.g2.interval",
        f"open interval between bottom and top is a wedge of {spheres} "
        f"zero-spheres",
        prof.betti, {0: spheres}, elements=len(inner))


def criterion_unimodular_genus3(cfg: SuiteConfig) -> Iterator[dict]:
    if cfg.genus < 3:
        return
    ring = cfg.ring_object()
    L = SymplecticModule.standard(ring, 3)
    U = build_U(L)
    count = unimodular_count(ring.p, 3)
    yield _expect("um.g3.count",
                  f"genus-3 unimodular-submodule poset has {count} elements",
                  len(U), count)
    zero = L.zero_submodule().key()
    full = L.full_submodule().key()
    inner = U.open_interval(zero, full)
    v = homologically_connected(inner, 0, budget=cfg.budget)
    yield make_record(
        "um.g3.interval",
        "open interval between bottom and top is homologically 0-connected",
        v, elements=len(inner))
    v = cohen_macaulay_check(U, 3, budget=cfg.budget)
    yield make_record(
        "um.g3.cm",
        "genus-3 poset is homologically Cohen-Macaulay of dim 3: every link "
        "is spherical in its prescribed dimension",
        v, links=v.detail.get("links_checked") if v.detail else None)


# ---------------------------------------------------------------------------
# dec: orthogonal decompositions and set partitions

def criterion_decomposition_cm(cfg: SuiteConfig) -> Iterator[dict]:
    ring = cfg.ring_object()
    L2 = SymplecticModule.standard(ring, 2)
    D2 = build_D(L2)
    count = decomposition_count(ring.p, 2)
    yield _expect("dec.g2.count",
                  f"genus-2 decomposition poset has {count} elements",
                  len(D2), count)
    v = cohen_macaulay_check(D2, 1, budget=cfg.budget)
    yield make_record(
        "dec.g2.cm", "genus-2 decomposition poset is homologically "
        "Cohen-Macaulay of dim 1", v)
    P2 = build_D(L2, strict=True)
    prof = reduced_homology(P2, budget=cfg.budget)
    ok = (len(P2) == count - 1 and P2.dim() == 0
          and prof.betti == {0: count - 2})
    yield make_record(
        "dec.g2.proper",
        f"proper genus-2 decompositions form a {count - 1}-element antichain "
        f"with {count - 2} reduced zero-cycles", ok,
        elements=len(P2), dim=P2.dim(), betti=_jsonable(prof.betti))
    f2 = flag_to_decomposition(L2, D=D2)
    rep = fiber_transfer_check(f2, None, 1, budget=cfg.budget)
    yield make_record(
        "dec.g2.flag",
        "flag map from the subdivided positive part onto decompositions "
        "satisfies the downward fiber criterion at level 1 and is 1-connected",
        rep.conclusion if rep.hypotheses_ok else False,
        rows=len(rep.rows))
    if cfg.genus >= 3:
        L3 = SymplecticModule.standard(ring, 3)
        D3 = build_D(L3)
        count = decomposition_count(ring.p, 3)
        yield _expect("dec.g3.count",
                      f"genus-3 decomposition poset has {count} elements",
                      len(D3), count)
        v = cohen_macaulay_check(D3, 2, budget=cfg.budget)
        yield make_record(
            "dec.g3.cm", "genus-3 decomposition poset is homologically "
            "Cohen-Macaulay of dim 2", v)
        P3 = build_D(L3, strict=True)
        prof = reduced_homology(P3, through_degree=0, budget=cfg.budget)
        ok = (len(P3) == count - 1 and P3.dim() == 1
              and prof.betti.get(0, 0) == 0)
        yield make_record(
            "dec.g3.proper",
            f"proper genus-3 decompositions: {count - 1} elements, dim 1, "
            "connected",
            ok, elements=len(P3), dim=P3.dim())
        f3 = flag_to_decomposition(L3, D=D3)
        v = map_connectivity(f3, 2, budget=cfg.budget)
        yield make_record(
            "dec.g3.flag",
            "genus-3 flag map from the subdivided positive part onto "
            "decompositions is 2-connected",
            v, source=len(f3.source), target=len(f3.target))


def criterion_partition_spheres(cfg: SuiteConfig) -> Iterator[dict]:
    for size in (2, 3, 4, 5):
        X = tuple(range(1, size + 1))
        P = partitions_poset(X)
        v = homology_spherical(P, size - 2, budget=cfg.budget)
        yield make_record(
            f"dec.partitions.{size}",
            f"proper partitions of a {size}-set are spherical of dim {size - 2}",
            v, elements=len(P))


# ---------------------------------------------------------------------------
# maazen: partial-basis posets

def criterion_partial_basis(cfg: SuiteConfig) -> Iterator[dict]:
    for p in (2, 3):
        ring = PrimeField(p)
        for n in (1, 2, 3):
            P = build_O(n, ring)
            v = homologically_connected(P, n - 2, budget=cfg.budget)
            yield make_record(
                f"maazen.conn.p{p}.n{n}",
                f"partial-basis poset in rank {n} over F_{p} is "
                f"homologically {n - 2}-connected",
                v, elements=len(P))
        for n in (2, 3):
            frozen = (tuple(0 for _ in range(n - 1)) + (1,),)
            Pn0 = build_O(n, ring, bound=0, frozen=frozen)
            Pm = build_O(n - 1, ring)
            mapping = {seq: tuple(v[:-1] for v in seq) for seq in Pn0}
            ok = check_isomorphism(Pn0, Pm, mapping)
            yield make_record(
                f"maazen.iso.p{p}.n{n}",
                f"rank-{n} poset at norm bound 0 matches the rank-{n - 1} "
                "poset under dropping the last coordinate",
                ok, elements=len(Pn0))
    yield _rho_random_record(cfg)
    yield _rho_retraction_record(cfg)


def _random_unimodular(rng: random.Random, n: int, steps: int = 12):
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return rows


def _rho_random_record(cfg: SuiteConfig) -> dict:
    """Norm decrease, idempotence, and bounded-norm fixpoints of the
    one-step reduction, on seeded random integer instances."""
    rng = random.Random(cfg.seed + 101)
    trials = fixed = 0
    ok = True
    while trials < 1000:
        n = rng.randint(2, 4)
        rows = _random_unimodular(rng, n)
        w = rows[-1]
        if w[n - 1] == 0:
            continue
        v = rows[rng.randrange(n - 1)]
        trials += 1
        r = rho_vector(ZZ, w, v, n)
        if not abs(r[n - 1]) < abs(w[n - 1]):
            ok = False
        if not is_partial_basis(ZZ, [list(r), list(w)], n):
            ok = False
        if rho_vector(ZZ, w, list(r), n) != r:
            ok = False
        if abs(v[n - 1]) < abs(w[n - 1]):
            fixed += 1
            if r != tuple(v):
                ok = False
    return make_record(
        "maazen.rho.random",
        "one-step reduction lowers the pivot norm, preserves partial bases, "
        "is idempotent, and fixes vectors already under the bound",
        ok, trials=trials, fixed_cases=fixed)


def _rho_retraction_record(cfg: SuiteConfig) -> dict:
    """The reduction as a poset retraction on a pooled integer instance."""
    rng = random.Random(cfg.seed + 202)
    n = 3
    raw = set()
    for _ in range(60):
        rows = _random_unimodular(rng, n, steps=6)
        for r in rows:
            if max(abs(a) for a in r) <= 3:
                raw.add(tuple(r))
    w = next(v for v in sorted(raw) if abs(v[n - 1]) >= 2)
    k = abs(w[n - 1])
    # close the pool under the reduction so images stay inside the poset
    pool = sorted(raw | {rho_vector(ZZ, w, list(v), n) for v in raw})
    P = build_O(n, ZZ, pool=pool, frozen=(w,))
    try:
        rho = rho_poset_retraction(P, ZZ, (w,), 0, n)
        ok = all(abs(y[n - 1]) < k for x in P for y in rho(x))
        ok = ok and all(
            rho(x) == x for x in P
            if all(abs(v[n - 1]) < k for v in x))
    except CertificateError:
        ok = False
    return make_record(
        "maazen.rho.retraction",
        "elementwise reduction against a frozen vector is a monotone map "
        "into the bounded-norm part fixing everything already there",
        ok, poset=len(P), pool=len(pool))


# ---------------------------------------------------------------------------
# stability: isotropic sequences and the split-unimodular comparison

def criterion_isotropic_cm(cfg: SuiteConfig) -> Iterator[dict]:
    ring = cfg.ring_object()
    for tag, g, r in (("g1", 1, 0), ("g2", 2, 0), ("g1r1", 1, 1),
                      ("g2r1", 2, 1)):
        I = build_I(SymplecticModule.standard(ring, g, r=r))
        count, n = isotropic_sequence_count(ring.p, g, r), g - 1
        yield _expect(f"stability.iso.{tag}.count",
                      f"isotropic-sequence poset {tag} has {count} "
                      "elements", len(I), count)
        v = cohen_macaulay_check(I, n, budget=cfg.budget)
        yield make_record(
            f"stability.iso.{tag}.cm",
            f"isotropic-sequence poset {tag} is homologically Cohen-Macaulay "
            f"of dim {n}", v)


def criterion_split_unimodular(cfg: SuiteConfig) -> Iterator[dict]:
    ring = cfg.ring_object()
    g = 2
    HU = build_HU(g, ring)
    count = split_unimodular_count(ring.p, g)
    yield _expect("stability.hu.count",
                  f"genus-2 split-unimodular sequence poset has {count} "
                  "elements", len(HU), count)
    h = hu_decomposition_map(g, ring, HU=HU)
    DP = h.target
    ineq_ok = True
    for lab in DP:
        t_parts = genus_one_count(lab)
        s_parts = len(lab) - t_parts
        if not 2 * s_parts + t_parts <= g:
            ineq_ok = False
    yield make_record(
        "stability.hu.inequality",
        "every proper decomposition satisfies: twice the higher-genus part "
        "count plus the genus-one part count is at most the genus",
        ineq_ok, targets=len(DP))
    tprime = {lab: genus_one_count(lab) - 1 for lab in DP}
    n = (g - 3) // 2
    rep = fiber_transfer_check(h, tprime, n, budget=cfg.budget)
    yield make_record(
        "stability.hu.table",
        "the comparison map onto proper decompositions passes the opposite "
        f"fiber criterion elementwise at level {n}",
        rep.conclusion if rep.hypotheses_ok else False,
        rows=len(rep.rows))
    fibers_ok = True
    spheres = []
    for lab in DP:
        fib = h.fiber_le(lab)
        t_parts = genus_one_count(lab)
        v = homology_spherical(fib, t_parts - 1, budget=cfg.budget,
                               probe=False)
        spheres.append(len(fib))
        if not v.ok():
            fibers_ok = False
    yield make_record(
        "stability.hu.fibers",
        "every lower fiber of the comparison map is spherical of dimension "
        "one less than its genus-one part count",
        fibers_ok, sizes=sorted(set(spheres)))
    yield _partition_sequence_record(cfg)


def _partition_sequence_record(cfg: SuiteConfig) -> dict:
    ok = True
    cases = 0
    for size in range(1, 7):
        ground = tuple(range(size))
        for part in set_partitions(ground):
            if len(part) > 3:
                continue
            canon = tuple(sorted(tuple(sorted(b)) for b in part))
            Q = partition_sequences_poset(ground, [list(b) for b in canon])
            v = homology_spherical(Q, len(canon) - 1, budget=cfg.budget,
                                   probe=False)
            cases += 1
            if not v.ok():
                ok = False
    return make_record(
        "stability.sequences.spherical",
        "sequence posets over every partition with at most 3 blocks of a "
        "ground set of size at most 6 are spherical of dim (blocks - 1)",
        ok, cases=cases)


# ---------------------------------------------------------------------------
# nerve: covering families

def criterion_cover_nerve(cfg: SuiteConfig) -> Iterator[dict]:
    ring = cfg.ring_object()
    L = SymplecticModule.standard(ring, 2)

    F, _ = isotropic_perp_cover(L, "interval")
    rep = validate_cover(F)
    hyp = check_nerve_hypotheses(F, 0, budget=cfg.budget)
    yield make_record(
        "nerve.interval.family",
        "the perp cover of the open interval validates and satisfies the "
        "hypothesis table at level 0",
        rep.ok and hyp.hypotheses_hold,
        indices=len(F.A), target=len(F.X), rows=len(hyp.rows))
    vA = homologically_connected(F.A, -1, budget=cfg.budget)
    vX = homologically_connected(F.X, -1, budget=cfg.budget)
    yield make_record(
        "nerve.interval.base",
        "index poset and target are both homologically (-1)-connected, "
        "matching the two-way transfer at the level below",
        vA.ok() and vX.ok())
    prof = reduced_homology(F.X, budget=cfg.budget)
    cycles = genus_one_submodules(ring.p, 2) - 1
    yield _expect(
        "nerve.interval.sharpness",
        f"without a witness the target is not 0-connected: {cycles} reduced "
        "zero-cycles remain", prof.betti, {0: cycles})

    F1, W1 = isotropic_perp_cover(L, "positive")
    rep1 = validate_cover(F1)
    hyp1 = check_nerve_hypotheses(F1, 0, budget=cfg.budget)
    wrep = check_nerve_witness(F1, W1)
    vX1 = homologically_connected(F1.X, 0, budget=cfg.budget)
    yield make_record(
        "nerve.positive.witness",
        "positive-part cover validates, passes hypotheses at level 0, "
        "carries a full contraction witness, and the target is 0-connected",
        rep1.ok and hyp1.hypotheses_hold and wrep.ok and vX1.ok(),
        witness_checks=wrep.checked)

    Z, fz, gz = build_Z(F1)
    rng = random.Random(cfg.seed + 303)
    zok = len(Z) == sum(len(s) for s in F1.members.values())
    for a in rng.sample(sorted(F1.A.elements), 3):
        if reduced_homology(fz.fiber_ge(a)).betti != \
                reduced_homology(F1.member_poset(a)).betti:
            zok = False
    for x in rng.sample(F1.X.elements, 3):
        Ax = F1.A.induced(F1.indices_over(x))
        if reduced_homology(gz.fiber_le(x)).betti != \
                reduced_homology(Ax).betti:
            zok = False
    yield make_record(
        "nerve.pairs.fibers",
        "pair-poset projections have fibers matching member posets on one "
        "side and index posets on the other, in homology",
        zok, pairs=len(Z))

    yield from _nerve_negative_controls(F1, W1)

    if cfg.ring == "p2":
        L21 = SymplecticModule.standard(ring, 2, r=1)
        F2, W2 = isotropic_perp_cover(L21, "positive")
        hyp2 = check_nerve_hypotheses(F2, 0, budget=cfg.budget)
        w2 = check_nerve_witness(F2, W2)
        v2 = homologically_connected(F2.X, 0, budget=cfg.budget)
        yield make_record(
            "nerve.radical.pipeline",
            "the quasi-unimodular pipeline (radical quotient, lifted dual "
            "blocks) validates and the positive part is 0-connected",
            validate_cover(F2).ok and hyp2.hypotheses_hold and w2.ok
            and v2.ok(),
            indices=len(F2.A), target=len(F2.X))


def _nerve_negative_controls(F: CoverFamily,
                             W: NerveWitness) -> Iterator[dict]:
    import copy
    full_keys = [x for x in F.X if not F.X.above(x)]
    bad = {a: set(s) for a, s in F.members.items()}
    a0 = next(a for a in F.A if len(a) == 1)
    bad[a0].add(full_keys[0])
    r1 = validate_cover(CoverFamily(F.A, F.X, bad))
    caught = (not r1.ok) and any(v[0] == "downward" for v in r1.violations)

    bad2 = {a: set(s) for a, s in F.members.items()}
    pair = next(a for a in F.A if len(a) == 2)
    single = next(b for b in F.A.below(pair) if len(b) == 1)
    stray = next(x for x in F.X
                 if F.X.above(x) and x not in F.members[single])
    bad2[pair].add(stray)
    r2 = validate_cover(CoverFamily(F.A, F.X, bad2))
    caught = caught and (not r2.ok) and any(
        v[0] == "reversal" for v in r2.violations)
    yield make_record(
        "nerve.controls.family",
        "corrupted families are refuted: a missing face trips downward "
        "closure, a stray member trips order reversal",
        caught)

    Wb = NerveWitness(copy.deepcopy(W.s), copy.deepcopy(W.e),
                      copy.deepcopy(W.zigzag))
    for a, table in Wb.s.items():
        if table:
            b = next(iter(table))
            table[b] = next(x for x in F.X
                            if F.X.above(x) and x not in F.members[b])
            break
    r3 = check_nerve_witness(F, Wb)
    Wz = NerveWitness(copy.deepcopy(W.s), copy.deepcopy(W.e),
                      copy.deepcopy(W.zigzag))
    for a, chain in Wz.zigzag.items():
        if len(chain) >= 2 and chain[1]:
            z = next(iter(chain[1]))
            chain[1][z] = next(x for x in F.X if x != chain[1][z])
            break
    r4 = check_nerve_witness(F, Wz)
    yield make_record(
        "nerve.controls.witness",
        "corrupted witnesses are refuted: a wrong section value and a "
        "broken zig-zag link are both reported",
        (not r3.ok) and (not r4.ok),
        section_problems=sorted({p[0] for p in r3.problems}),
        zigzag_problems=sorted({p[0] for p in r4.problems}))


# ---------------------------------------------------------------------------
# trees

def _contraction_counts(max_edges: int) -> Tuple[int, int]:
    """(pairs, violations): the ordered pairs of nonempty edge subsets of
    each tree with at most ``max_edges`` edges, and those that
    ``contraction_unique`` rejects, m (m - 1) in a certificate class of m."""
    pairs = violations = 0
    for n, edges in enumerate_plain_trees(max_edges):
        m = len(edges)
        classes = Counter(
            contraction_certificate(
                n, edges, [e for i, e in enumerate(edges) if mask >> i & 1])
            for mask in range(1, 1 << m))
        pairs += ((1 << m) - 1) ** 2
        violations += sum(c * (c - 1) for c in classes.values())
    return pairs, violations


def criterion_tree_posets(cfg: SuiteConfig) -> Iterator[dict]:
    pairs, violations = _contraction_counts(6)
    yield make_record(
        "trees.contraction.unique",
        "over every tree with at most 6 edges, distinct nonempty edge sets "
        "never give matching contractions: no counterexamples",
        violations == 0, pairs=pairs, violations=violations)
    for m in (2, 3, 4):
        T = build_T(m)
        prof = reduced_homology(T, budget=cfg.budget)
        yield make_record(
            f"trees.T{m}.contractible",
            f"the poset of {m}-labeled trees has trivial reduced homology",
            prof.betti == {}, elements=len(T))
    ring = cfg.ring_object()
    L2 = SymplecticModule.standard(ring, 2)
    DP2 = build_D(L2, strict=True)
    TD2 = build_TD(L2, DP=DP2)
    p2 = tree_forget_map(L2, TD=TD2, DP=DP2)
    iso2 = check_isomorphism(TD2, DP2, {x: x[0] for x in TD2})
    yield make_record(
        "trees.g2.iso",
        "at genus 2 the tree poset is isomorphic to the decomposition "
        "poset under forgetting the tree",
        iso2, elements=len(TD2))
    if cfg.genus >= 3:
        L3 = SymplecticModule.standard(ring, 3)
        DP3 = build_D(L3, strict=True)
        TD3 = build_TD(L3, DP=DP3)
        p3 = tree_forget_map(L3, TD=TD3, DP=DP3)
        # 1 strict tree on 2 parts, an edge, and 4 on 3 parts, a path with
        # any part in the middle or a star
        pairs = genus_one_submodules(ring.p, 3)
        count = pairs + 4 * (decomposition_count(ring.p, 3) - 1 - pairs)
        yield _expect(
            "trees.g3.count", f"genus-3 tree poset has {count} elements",
            len(TD3), count)
        M, _, _ = mapping_cylinder(p3)
        v = map_connectivity(p3, M.dim(), budget=cfg.budget)
        yield make_record(
            "trees.g3.equivalence",
            "forgetting the tree induces a homology isomorphism onto the "
            "proper decomposition poset in all degrees",
            v, source=len(TD3), target=len(DP3))


# ---------------------------------------------------------------------------
# core-props: generic machinery on random instances

def criterion_homotopy_toolkit(cfg: SuiteConfig) -> Iterator[dict]:
    rng = random.Random(cfg.seed)
    trials = 100
    join_ok = cyl_ok = link_ok = sd_ok = True
    for k in range(trials):
        nx = rng.randint(1, 8)
        ny = rng.randint(1, 8)
        X = random_poset(rng, nx, p=rng.choice((0.15, 0.3, 0.5)))
        Y = random_poset(rng, ny, p=rng.choice((0.15, 0.3, 0.5)))
        if reduced_homology(thick_join(X, Y)).betti != \
                reduced_homology(join(X, Y)).betti:
            join_ok = False
        f = random_monotone_map(rng, X, Y)
        M, _, _ = mapping_cylinder(f)
        if reduced_homology(M).betti != reduced_homology(Y).betti:
            cyl_ok = False
        for y in Y:
            if not cylinder_link_check(f, y):
                link_ok = False
        P = X if k % 2 else Y
        if reduced_homology(barycentric_subdivision(P)).betti != \
                reduced_homology(P).betti:
            sd_ok = False
    yield make_record("core.join",
                      "thick join and join agree in reduced homology on "
                      f"{trials} random pairs", join_ok)
    yield make_record("core.cylinder",
                      "mapping cylinders have the homology of their targets "
                      "on random monotone maps", cyl_ok)
    yield make_record("core.cylinder-links",
                      "the cylinder link identity holds exactly at every "
                      "target element", link_ok)
    yield make_record("core.subdivision",
                      "barycentric subdivision preserves reduced homology",
                      sd_ok)


# ---------------------------------------------------------------------------
# assembly

SUITES: Dict[str, Tuple] = {
    "um": (criterion_unimodular_genus2, criterion_unimodular_genus3),
    "dec": (criterion_decomposition_cm, criterion_partition_spheres),
    "maazen": (criterion_partial_basis,),
    "stability": (criterion_isotropic_cm, criterion_split_unimodular),
    "nerve": (criterion_cover_nerve,),
    "trees": (criterion_tree_posets,),
    "core-props": (criterion_homotopy_toolkit,),
}


def run_suite(name: str, cfg: SuiteConfig = None) -> VerificationReport:
    """Run every criterion of a suite and collect their records.

    Criteria yield records one at a time; when a computation overruns the
    simplex budget, the records a criterion already yielded stay and one
    ``*.budget`` record follows them.  Each record's ``seconds`` is the
    wall time from the criterion's previous record (or its start) to this
    one, so it covers every computation behind the record's verdict.
    """
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; pick one of {SUITE_NAMES}")
    cfg = cfg or SuiteConfig()
    report = VerificationReport(name, cfg)
    for fn in SUITES[name]:
        since = time.monotonic()
        try:
            for rec in fn(cfg):
                since = _append_stamped(report.records, rec, since)
        except BudgetExceeded as exc:
            _append_stamped(report.records, make_record(
                fn.__name__.replace("criterion_", "") + ".budget",
                f"aborted by the simplex budget: {exc}", "inconclusive",
                basis="budget"), since)
    return report


def _append_stamped(records: List[dict], rec: dict, since: float) -> float:
    """Append ``rec`` with the seconds elapsed since ``since``; return now."""
    now = time.monotonic()
    rec["seconds"] = round(now - since, 3)
    records.append(rec)
    return now
