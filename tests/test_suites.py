"""Report assembly, exit semantics, and reproducibility of suite runs."""

import json
import os
import time

import pytest

from symposet import suites
from symposet.builders import build_D, build_HU, build_I, build_U
from symposet.homology import ConnectivityVerdict
from symposet.rings import PrimeField
from symposet.suites import (SUITE_NAMES, SuiteConfig, VerificationReport,
                             decomposition_count, exit_status,
                             genus_one_submodules, isotropic_sequence_count,
                             make_record, run_suite, split_unimodular_count,
                             unimodular_count)
from symposet.symplectic import SymplecticModule


def rec(verdict):
    # run_suite stamps each record's seconds
    return {**make_record("c", "s", verdict), "seconds": 0.0}


def report(*verdicts):
    return VerificationReport("um", SuiteConfig(),
                              [rec(v) for v in verdicts])


def test_exit_status_pure():
    assert exit_status(report("verified", "verified")) == 0
    assert exit_status(report("verified", "refuted")) == 1
    assert exit_status(report("inconclusive", "verified")) == 2
    # refutation outranks starvation
    assert exit_status(report("inconclusive", "refuted", "verified")) == 1
    assert exit_status(report()) == 0


def test_make_record_from_bool():
    r = make_record("a.b", "words", True, items=3)
    assert r["verdict"] == "verified"
    assert r["basis"] == "exact"
    assert "seconds" not in r
    assert r["counts"] == {"items": 3}
    assert make_record("a", "s", False)["verdict"] == "refuted"


def test_make_record_from_verdict():
    v = ConnectivityVerdict(1, "verified", "homology", {"spheres": 4})
    r = make_record("a", "s", v)
    assert r["verdict"] == "verified"
    assert r["basis"] == "homology"
    assert r["level"] == 1
    assert r["detail"] == {"spheres": 4}


def test_make_record_from_string():
    r = make_record("a", "s", "inconclusive", basis="budget")
    assert r["verdict"] == "inconclusive"
    assert r["basis"] == "budget"


def test_payload_strips_timings():
    rep = report("verified")
    assert all("seconds" not in r for r in rep.payload()["records"])
    kept = rep.payload(include_timings=True)["records"]
    assert all("seconds" in r for r in kept)


def test_record_seconds_cover_the_verdict(monkeypatch):
    """A record's seconds run from the criterion's previous record, so the
    homology behind dec.partitions.2 counts, not only the poset build."""
    call_through = suites.homology_spherical

    def slow(*args, **kwargs):
        time.sleep(0.05)
        return call_through(*args, **kwargs)

    monkeypatch.setattr(suites, "homology_spherical", slow)
    records = run_suite("dec", SuiteConfig()).payload(
        include_timings=True)["records"]
    by_claim = {r["claim"]: r for r in records}
    assert by_claim["dec.partitions.2"]["seconds"] >= 0.05


def test_report_json_is_canonical():
    rep = report("verified")
    text = rep.to_json()
    assert text.endswith("\n")
    assert json.loads(text)["suite"] == "um"
    assert ": " not in text.split('"statement"')[0]


def test_run_suite_unknown_name():
    with pytest.raises(ValueError):
        run_suite("nope", SuiteConfig())


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def golden(name, genus, filename, ring="p2", slow=False):
    # the test id leaves the ring out: the file name carries it
    return pytest.param(name, genus, ring, filename,
                        marks=[pytest.mark.slow] if slow else [],
                        id=f"{name}-{genus}-{filename}")


@pytest.mark.parametrize("name, genus, ring, filename",
                         [golden(n, 2, f"{n}.json") for n in SUITE_NAMES]
                         + [golden("um", 3, "um.g3.json"),
                            golden("maazen", 3, "maazen.g3.json"),
                            golden("stability", 2, "stability.p3.json", "p3"),
                            golden("nerve", 2, "nerve.p3.json", "p3"),
                            golden("dec", 3, "dec.g3.json", slow=True),
                            golden("trees", 3, "trees.g3.json", slow=True)])
def test_report_matches_golden(name, genus, ring, filename):
    """Refactors keep reports byte for byte; a deliberate report change
    regenerates tests/golden with
    ``symposet <suite> --genus G --ring R --out``."""
    with open(os.path.join(GOLDEN, filename), encoding="utf-8") as fh:
        want = fh.read()
    assert run_suite(name, SuiteConfig(genus=genus, ring=ring)).to_json() == want


def test_unimodular_counts_follow_the_ring():
    assert [unimodular_count(q, g) for q, g in
            ((2, 2), (2, 3), (3, 2), (3, 3), (2, 4))] == [
                22, 674, 92, 14744, 102274]
    # the um.p3.json golden, from ``symposet um --genus 2 --ring p3 --out``
    with open(os.path.join(GOLDEN, "um.p3.json"), encoding="utf-8") as fh:
        want = fh.read()
    assert run_suite("um", SuiteConfig(ring="p3")).to_json() == want
    records = json.loads(want)["records"]
    assert [r["verdict"] for r in records] == ["verified"] * 3


def test_expected_counts_follow_closed_formulas():
    # the suites expect counts from closed formulas in q, never from the
    # builders they check; here the formulas meet the builders' sizes
    for q in (2, 3):
        F = PrimeField(q)
        L2 = SymplecticModule.standard(F, 2)
        assert genus_one_submodules(q, 2) == len(build_U(L2)) - 2
        assert decomposition_count(q, 2) == len(build_D(L2))
        for g, r in ((1, 0), (2, 0), (1, 1)):
            assert isotropic_sequence_count(q, g, r) == \
                len(build_I(SymplecticModule.standard(F, g, r=r)))
    F2 = PrimeField(2)
    assert isotropic_sequence_count(2, 2, 1) == \
        len(build_I(SymplecticModule.standard(F2, 2, r=1)))
    assert split_unimodular_count(2, 2) == len(build_HU(2, F2))
    L3 = SymplecticModule.standard(F2, 3)
    DP3 = build_D(L3, strict=True)
    assert genus_one_submodules(2, 3) == sum(len(d) == 2 for d in DP3)
    assert decomposition_count(2, 3) == len(DP3) + 1 == len(build_D(L3))
    # the F_2 numbers the goldens hold (trees.g3.json checks the genus-3
    # tree count), and the F_3 ones of the p3 goldens
    assert [decomposition_count(2, 2), genus_one_submodules(2, 2) - 1,
            split_unimodular_count(2, 2), decomposition_count(2, 3)] == \
        [11, 19, 840, 1457]
    assert [decomposition_count(3, 2), genus_one_submodules(3, 2) - 1,
            isotropic_sequence_count(3, 2, 1),
            split_unimodular_count(3, 2)] == [46, 89, 17520, 54000]
    # the dec.p3.json golden, from ``symposet dec --genus 2 --ring p3 --out``
    with open(os.path.join(GOLDEN, "dec.p3.json"), encoding="utf-8") as fh:
        want = fh.read()
    report = run_suite("dec", SuiteConfig(ring="p3"))
    assert report.ok
    assert report.to_json() == want


@pytest.mark.slow
def test_run_suite_byte_reproducible():
    cfg = SuiteConfig(seed=5)
    a = run_suite("core-props", cfg).to_json()
    b = run_suite("core-props", SuiteConfig(seed=5)).to_json()
    assert a == b
    c = run_suite("core-props", SuiteConfig(seed=6)).to_json()
    assert c != a


def test_run_suite_budget_starvation_is_inconclusive():
    rep = run_suite("um", SuiteConfig(budget=10))
    assert exit_status(rep) == 2
    starved = [r for r in rep.records if r["verdict"] == "inconclusive"]
    assert starved and all(r["basis"] == "budget" for r in starved)


def test_budget_overrun_keeps_earlier_records():
    rep = run_suite("um", SuiteConfig(budget=10))
    by_claim = {r["claim"]: r for r in rep.records}
    assert by_claim["um.g2.count"]["verdict"] == "verified"
    assert "um.g2.cm" in by_claim
    assert rep.records[-1]["claim"] == "unimodular_genus2.budget"


def test_genus_gating():
    base = run_suite("um", SuiteConfig())
    deep = run_suite("um", SuiteConfig(genus=3))
    assert len(deep.records) > len(base.records)
    assert any(r["claim"].startswith("um.g3") for r in deep.records)
    assert not any(r["claim"].startswith("um.g3") for r in base.records)


def test_suite_names_cover_registry():
    for name in SUITE_NAMES:
        assert isinstance(name, str) and name
    assert len(set(SUITE_NAMES)) == 7


def test_summary_lines_mention_verdicts():
    rep = report("verified", "refuted")
    lines = rep.summary_lines()
    assert len(lines) == 2
    assert lines[0].startswith("[verified")
    assert "refuted" in lines[1]
