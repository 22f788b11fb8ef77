"""The benchmark's own tests, on the quick (genus-2) workloads.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import tracing
import workloads

import symposet
from symposet import builders, complexes, homology, snf

BENCH = Path(__file__).resolve().parent


def _snapshot():
    """Every attribute of every symposet module and patched class."""
    owners = [m for n, m in sys.modules.items()
              if n == "symposet" or n.startswith("symposet.")]
    owners += [symposet.FinitePoset, complexes.OrderComplex,
               symposet.Submodule]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def _quick(name, trace=True, seed=0, expected=None):
    r = run.Run(name, seed, 0.0, trace, quick=True, expected=expected)
    detail, values = r.execute()
    return r, detail, values


def test_wrappers_sit_at_lookup_sites_and_restore_exactly():
    before = _snapshot()
    inst = tracing.Instrumentation()
    inst.install()
    try:
        original_oc = before[(id(complexes), "order_complex")]
        assert homology.order_complex is not original_oc
        assert symposet.pi1.order_complex is not original_oc
        assert homology.pi1.pi1_probe.__wrapped__ is not None
        # only the sparse route's dense finish is wrapped
        assert snf.dense_smith is not builders.dense_smith
        assert complexes.OrderComplex.boundary_rows.__wrapped__ is not None
    finally:
        inst.restore()
    after = _snapshot()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_expected_layer_fires(name):
    before = _snapshot()
    r, detail, values = _quick(name)
    assert not r.failures, r.failures
    assert detail["counts_repeat"]
    silent = [layer for layer in workloads.HITS[name]
              if not values.get(layer + ".calls")]
    assert not silent
    assert all(_snapshot()[k] is v for k, v in before.items())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_repeat_across_traced_runs(name):
    counts = []
    for _ in range(2):
        _, _, values = _quick(name)
        counts.append({k: v for k, v in values.items()
                       if isinstance(v, int)})
    assert counts[0] == counts[1]
    assert counts[0]


def test_wrong_expectation_is_a_failure_not_a_crash():
    w = workloads.WORKLOADS["links-g3"]
    wrong = dict(w.expected(None, True), **{"U.elements": 23})
    r, detail, _ = _quick("links-g3", trace=False, expected=wrong)
    result = r.result({}, {"end_to_end": [], "per_layer": []})
    assert result["correct"] is False
    assert result["failed"] == detail["pass_s"]["n"]
    assert result["attempted"] == 4 * detail["pass_s"]["n"]
    assert {f["record"] for f in r.failures} == {"U.elements"}


def test_crash_keeps_earlier_records(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(homology, "homologically_connected", broken)
    r, detail, _ = _quick("large-g3", trace=False)
    failed = {f["record"] for f in r.failures}
    assert failed == {"O.connectivity"}
    assert len(r.failures) == detail["pass_s"]["n"]
    assert all(f["error"] == "RuntimeError: injected" for f in r.failures)


def test_speedometer_credits_work_and_restores_the_alarm():
    previous = signal.getsignal(signal.SIGALRM)
    meter = run.Speedometer()
    out, seconds, ref = meter.measure(lambda: time.sleep(0.5) or "done")
    assert out == "done"
    # ticks that fall inside the sleep come out of it
    assert 0.4 <= seconds <= 0.6
    assert ref > 0
    assert len(meter.loop_s) >= 3  # start, end and at least one tick
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_random_props_passes_on_the_holdout_seed():
    r, detail, _ = _quick("random-props", trace=False, seed=run.HOLDOUT_SEED)
    assert not r.failures
    assert detail["records_per_pass"] >= 4


def test_random_props_inputs_follow_the_seed():
    w = workloads.WORKLOADS["random-props"]
    a, b, c = (w.setup(s, True) for s in (3, 3, 4))
    key = lambda inp: [(X.elements, sorted(X.relation_pairs()),
                        sorted(Y.relation_pairs()))
                       for X, Y, _, _ in inp["pairs"]]
    assert key(a) == key(b)
    assert key(a) != key(c)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "links-g3",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_result_line_matches_the_spec():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        r, _, values = _quick("links-g3", trace=trace)
        result = r.result(values, spec)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert list(result["metrics"]) == [m["name"] for m in spec[key]]
