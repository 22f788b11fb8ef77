"""Cover families, the pair poset, hypothesis tables, and contraction
witnesses, exercised on a hand-built toy before the symplectic cases."""

import copy
import os
import random
import subprocess
import sys

import pytest

import symposet
from symposet import builders, nerve
from symposet.builders import build_U
from symposet.homology import reduced_homology
from symposet.nerve import (CoverFamily, NerveWitness, assembled_map, build_Z,
                            fiber_transfer_check, check_nerve_hypotheses,
                            check_nerve_witness, isotropic_perp_cover,
                            validate_cover, witness_domain)
from symposet.posets import FinitePoset, PosetMap
from symposet.rings import PrimeField
from symposet.symplectic import RadicalQuotient, Submodule, SymplecticModule

F2 = PrimeField(2)
F3 = PrimeField(3)


def toy_cover():
    A = FinitePoset(["a1", "a2"], [("a1", "a2")])
    X = FinitePoset(["x0", "x1", "x2"], [("x0", "x1"), ("x1", "x2")])
    members = {"a1": {"x0", "x1"}, "a2": {"x0", "x1"}}
    return CoverFamily(A, X, members)


def toy_witness(F):
    s = {"a1": {}, "a2": {"a1": "x0"}}
    e = {"a1": {}, "a2": {("a1", "x0"): "x0", ("a1", "x1"): "x1"}}
    W = NerveWitness(s, e, {})
    for a in ("a1", "a2"):
        asm = assembled_map(F, W, a)
        const = {z: "x1" for z in witness_domain(F, a)}
        W.zigzag[a] = [asm, const]
    return W


def test_cover_family_accessors():
    F = toy_cover()
    assert F.indices_over("x0") == ["a1", "a2"] or \
        set(F.indices_over("x0")) == {"a1", "a2"}
    assert set(F.member_poset("a1").elements) == {"x0", "x1"}
    assert F.member_poset("a1").le("x0", "x1")
    with pytest.raises(ValueError):
        CoverFamily(F.A, F.X, {"a1": {"x0"}})  # missing index
    with pytest.raises(ValueError):
        CoverFamily(F.A, F.X, {"a1": {"x0"}, "a2": {"zz"}})


def test_validate_cover_positive():
    assert validate_cover(toy_cover()).ok


def test_validate_cover_downward_violation():
    F = toy_cover()
    bad = CoverFamily(F.A, F.X, {"a1": {"x1"}, "a2": {"x1"}})
    rep = validate_cover(bad)
    assert not rep.ok
    assert ("downward", "a1", "x1", "x0") in rep.violations


def test_validate_cover_reversal_violation():
    F = toy_cover()
    bad = CoverFamily(F.A, F.X, {"a1": {"x0"}, "a2": {"x0", "x1"}})
    rep = validate_cover(bad)
    kinds = {v[0] for v in rep.violations}
    assert "reversal" in kinds
    assert ("reversal", "a1", "a2", "x1") in rep.violations


def test_build_Z_toy():
    F = toy_cover()
    Z, f, g = build_Z(F)
    assert len(Z) == 4
    # opposite-A times X: a 2x2 grid
    assert Z.le(("a2", "x0"), ("a1", "x1"))
    assert Z.le(("a2", "x0"), ("a2", "x1"))
    assert not Z.le(("a1", "x0"), ("a2", "x0"))
    assert not Z.le(("a1", "x0"), ("a2", "x1"))
    assert set(f.fiber_ge("a2").elements) == {("a2", "x0"), ("a2", "x1")}
    assert set(g.fiber_le("x0").elements) == {("a1", "x0"), ("a2", "x0")}
    assert reduced_homology(Z).betti == {}


def test_build_Z_rejects_invalid():
    F = toy_cover()
    bad = CoverFamily(F.A, F.X, {"a1": {"x1"}, "a2": {"x1"}})
    with pytest.raises(ValueError):
        build_Z(bad)


def test_witness_accepts_valid():
    F = toy_cover()
    W = toy_witness(F)
    rep = check_nerve_witness(F, W)
    assert rep.ok
    assert rep.checked > 0


def corrupted(F, mutate):
    W = toy_witness(F)
    W = NerveWitness(copy.deepcopy(W.s), copy.deepcopy(W.e),
                     copy.deepcopy(W.zigzag))
    mutate(W)
    return {p[0] for p in check_nerve_witness(F, W).problems}


def test_witness_section_membership():
    F = toy_cover()
    kinds = corrupted(F, lambda W: W.s["a2"].__setitem__("a1", "x2"))
    assert "s-membership" in kinds
    assert "zigzag-start" in kinds  # the assembled map moved too


def test_witness_envelope_membership():
    F = toy_cover()
    kinds = corrupted(
        F, lambda W: W.e["a2"].__setitem__(("a1", "x0"), "x2"))
    assert "e-membership" in kinds


def test_witness_section_below_envelope():
    F = toy_cover()

    def mutate(W):
        W.s["a2"]["a1"] = "x1"
        W.zigzag["a2"][0] = assembled_map(F, W, "a2")
    kinds = corrupted(F, mutate)
    assert "s<=e" in kinds
    assert "zigzag-start" not in kinds  # start was repaired on purpose


def test_witness_member_below_envelope():
    F = toy_cover()

    def mutate(W):
        W.e["a2"][("a1", "x1")] = "x0"
        W.zigzag["a2"][0] = assembled_map(F, W, "a2")
    kinds = corrupted(F, mutate)
    assert "x<=e" in kinds
    assert "s<=e" not in kinds


def test_witness_zigzag_empty_and_domain():
    F = toy_cover()
    kinds = corrupted(F, lambda W: W.zigzag["a1"].clear())
    assert "zigzag-empty" in kinds

    def drop_key(W):
        z = next(iter(W.zigzag["a1"][1]))
        del W.zigzag["a1"][1][z]
    assert "zigzag-domain" in corrupted(F, drop_key)


def test_witness_zigzag_range():
    F = toy_cover()

    def mutate(W):
        z = next(iter(W.zigzag["a1"][1]))
        W.zigzag["a1"][1][z] = "nowhere"
    assert "zigzag-range" in corrupted(F, mutate)


def test_witness_zigzag_breaks():
    F = toy_cover()

    def mutate(W):
        W.zigzag["a2"][1][("p", "a1", "x1")] = "x0"
    kinds = corrupted(F, mutate)
    assert "zigzag-monotone" in kinds
    assert "zigzag-comparability" in kinds
    assert "zigzag-constant" in kinds


def test_witness_zigzag_missing_constant_end():
    F = toy_cover()
    kinds = corrupted(F, lambda W: W.zigzag["a1"].pop())
    assert kinds == {"zigzag-constant"}


def test_hypotheses_table_toy():
    F = toy_cover()
    hyp = check_nerve_hypotheses(F, 0)
    # 2 rows per index + 2 per target element
    assert len(hyp.rows) == 2 * 2 + 2 * 3
    kinds = {r["kind"] for r in hyp.rows}
    assert kinds == {"A<a", "X_a", "X<x", "A_x"}


def chain_poset(k):
    return FinitePoset(list(range(k)), [(i, i + 1) for i in range(k - 1)])


def test_fiber_transfer_identity_map():
    C = chain_poset(3)
    f = PosetMap(C, C, {x: x for x in C})
    rep = fiber_transfer_check(f, None, 2)
    assert rep.hypotheses_ok
    assert rep.conclusion.ok()
    assert rep.ok


def test_fiber_transfer_t_forms_agree():
    C = chain_poset(3)
    f = PosetMap(C, C, {x: x for x in C})
    h = C.heights()
    by_none = fiber_transfer_check(f, None, 1)
    by_dict = fiber_transfer_check(f, dict(h), 1)
    base = {(r["y"], r["t"]) for r in by_none.rows}
    assert {(r["y"], r["t"]) for r in by_dict.rows} == base


def test_fiber_transfer_detects_bad_fiber():
    # two points mapping to one: the fiber over the point is S^0, which
    # at level 1 must be 0-connected
    S0 = FinitePoset(["u", "v"], [])
    P = FinitePoset(["p"], [])
    f = PosetMap(S0, P, {"u": "p", "v": "p"})
    rep = fiber_transfer_check(f, {"p": 1}, 1)
    assert not rep.hypotheses_ok
    bad = [r for r in rep.rows if not r["fiber"].ok()]
    assert len(bad) == 1 and bad[0]["y"] == "p"


# -- the symplectic instantiation -------------------------------------------

def test_perp_cover_interval():
    L = SymplecticModule.standard(F2, 2)
    F, _ = isotropic_perp_cover(L, "interval")
    assert len(F.X) == 20
    assert len(F.A) == 105
    assert validate_cover(F).ok
    # every member poset is a downward closed piece of the interval
    sizes = sorted(len(s) for s in F.members.values())
    assert sizes[0] == 0 and sizes[-1] <= len(F.X)


def test_perp_cover_positive_and_witness():
    L = SymplecticModule.standard(F2, 2)
    F, W = isotropic_perp_cover(L, "positive")
    assert len(F.X) == 21
    assert validate_cover(F).ok
    rep = check_nerve_witness(F, W)
    assert rep.ok
    Z, f, g = build_Z(F)
    assert len(Z) == sum(len(s) for s in F.members.values())


def test_perp_cover_radical_case():
    L = SymplecticModule.standard(F2, 1, r=1)
    F, W = isotropic_perp_cover(L, "positive")
    assert validate_cover(F).ok
    assert check_nerve_witness(F, W).ok


def submodule_members(L, X, A):
    """Each sequence's member set by submodules: the perp of its lifts,
    and ``contains_submodule`` against each target."""
    quot = RadicalQuotient(L)
    targets = [Submodule(L, u, _canonical=True) for u in X]
    out = {}
    for seq in A:
        Lv = Submodule(L, [quot.lift(v) for v in seq]).perp()
        out[seq] = frozenset(
            t.key() for t in targets if Lv.contains_submodule(t))
    return out


@pytest.mark.parametrize("ring,r", [(F2, 0), (F2, 1), (F3, 0), (F3, 1)])
def test_perp_cover_matches_the_submodule_route(ring, r, monkeypatch):
    # each sequence's allowed mask is an AND of perp masks, and each
    # target is a member mask read once, so no submodule is built per
    # (sequence, target)
    L = SymplecticModule.standard(ring, 2, r)
    U = build_U(L)
    monkeypatch.setattr(builders, "build_U", lambda L: U)
    monkeypatch.setattr(nerve, "_perp_cover_witness", lambda *a: None)
    made = []
    original = Submodule.__init__

    def counted(self, *args, **kwargs):
        made.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Submodule, "__init__", counted)
    F, _ = isotropic_perp_cover(L, "positive")
    # one per target, and build_I's radical
    assert len(made) == len(F.X) + 1
    monkeypatch.undo()
    assert F.members == submodule_members(L, F.X, F.A)


def test_perp_cover_matches_the_submodule_route_at_genus_3():
    L = SymplecticModule.standard(F2, 3)
    F, _ = isotropic_perp_cover(L, "interval")
    assert (len(F.A), len(F.X)) == (24633, 672)
    sample = random.Random(37).sample(sorted(F.A.elements), 100)
    want = submodule_members(L, F.X, sample)
    assert {seq: F.members[seq] for seq in sample} == want


def test_cover_input_checks_survive_optimized_python():
    # under -O a plain assert let a cover with an index missing through
    # CoverFamily, and built a 2-element Z from a cover that is not
    # downward closed
    code = """
from symposet.nerve import CoverFamily, build_Z, isotropic_perp_cover
from symposet.posets import FinitePoset
from symposet.rings import PrimeField
from symposet.symplectic import SymplecticModule

def run(build):
    try:
        build()
    except ValueError as e:
        print(e)

A = FinitePoset(["a1", "a2"], [("a1", "a2")])
X = FinitePoset(["x0", "x1", "x2"], [("x0", "x1"), ("x1", "x2")])
run(lambda: CoverFamily(A, X, {"a1": {"x0"}}))
run(lambda: CoverFamily(A, X, {"a1": {"x0"}, "a2": {"zz"}}))
run(lambda: build_Z(CoverFamily(A, X, {"a1": {"x1"}, "a2": {"x1"}})))
L = SymplecticModule.standard(PrimeField(2), 1, r=1)
run(lambda: isotropic_perp_cover(L, "closed"))
run(lambda: isotropic_perp_cover(L, "interval"))
"""
    src = os.path.dirname(os.path.dirname(symposet.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == [
        "one member set per index",
        "members of 'a2' escape X",
        "invalid cover",
        "mode must be 'interval' or 'positive', not 'closed'",
        "open interval needs L unimodular",
    ]
