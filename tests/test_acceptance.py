"""Acceptance gate: every deliverable claim, one pass/fail line each.

Each test drives the corresponding suite criterion at full depth (genus 3
where the claim calls for it), requires every produced record to verify,
and enforces the agreed wall-clock ceilings.  The terminal summary hook
in conftest prints the one-line outcomes after the run.
"""

import time

import pytest

from conftest import record_acceptance

from symposet.suites import (SuiteConfig, criterion_cover_nerve,
                             criterion_decomposition_cm,
                             criterion_homotopy_toolkit,
                             criterion_isotropic_cm, criterion_partial_basis,
                             criterion_partition_spheres,
                             criterion_split_unimodular,
                             criterion_tree_posets,
                             criterion_unimodular_genus2,
                             criterion_unimodular_genus3)

CFG = SuiteConfig()
CFG3 = SuiteConfig(genus=3)


def run(fn, cfg):
    t0 = time.monotonic()
    recs = list(fn(cfg))
    return recs, time.monotonic() - t0


def verify(key, recs, dt, limit=None, extra_ok=True, extra_note=""):
    bad = [r["claim"] for r in recs if r["verdict"] != "verified"]
    ok = (not bad) and extra_ok and (limit is None or dt < limit)
    detail = f"{len(recs)} records, {dt:.1f}s"
    if limit is not None:
        detail += f" (limit {limit:.0f}s)"
    if bad:
        detail += ", failing: " + ", ".join(bad)
    if not extra_ok and extra_note:
        detail += ", " + extra_note
    record_acceptance(key, ok, detail)
    assert ok, (bad, round(dt, 1), extra_note)


def test_criterion_01_unimodular_genus2():
    recs, dt = run(criterion_unimodular_genus2, CFG)
    verify("01 unimodular poset, genus 2", recs, dt, limit=10)


def test_criterion_02_unimodular_genus3():
    recs, dt = run(criterion_unimodular_genus3, CFG3)
    verify("02 unimodular poset, genus 3", recs, dt, limit=600)


def test_criterion_03_isotropic_sequences():
    recs, dt = run(criterion_isotropic_cm, CFG)
    verify("03 isotropic sequences Cohen-Macaulay", recs, dt)


@pytest.mark.slow
def test_criterion_04_decompositions():
    recs, dt = run(criterion_decomposition_cm, CFG3)
    verify("04 decomposition posets Cohen-Macaulay", recs, dt, limit=900)


def test_criterion_05_partition_spheres():
    recs, dt = run(criterion_partition_spheres, CFG)
    by_claim = {r["claim"]: r for r in recs}
    probed = all(by_claim[f"dec.partitions.{s}"]["basis"] == "homology+pi1"
                 for s in (4, 5))
    verify("05 partition posets spherical", recs, dt,
           extra_ok=probed, extra_note="fundamental-group probe missing")


def test_criterion_06_split_unimodular():
    recs, dt = run(criterion_split_unimodular, CFG)
    verify("06 split-unimodular comparison", recs, dt)


def test_criterion_07_partial_bases():
    recs, dt = run(criterion_partial_basis, CFG)
    rho = next(r for r in recs if r["claim"] == "maazen.rho.random")
    enough = rho["counts"]["trials"] == 1000
    verify("07 partial-basis connectivity and reduction", recs, dt,
           extra_ok=enough, extra_note="reduction trial count off")


def test_criterion_08_homotopy_toolkit():
    recs, dt = run(criterion_homotopy_toolkit, CFG)
    verify("08 poset-homotopy toolkit", recs, dt, limit=60)


def test_criterion_09_cover_nerve():
    recs, dt = run(criterion_cover_nerve, CFG)
    verify("09 cover families and nerve transfer", recs, dt)


@pytest.mark.slow
def test_criterion_10_tree_posets():
    recs, dt = run(criterion_tree_posets, CFG3)
    verify("10 tree posets over decompositions", recs, dt)
