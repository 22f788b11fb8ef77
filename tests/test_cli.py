"""The command-line interface, driven through main() directly."""

import hashlib
import json
import os

import pytest

from symposet.cli import main
from symposet.io import poset_from_structured


def test_export_stdout_structured(capsys):
    code = main(["export", "--poset", "U", "--genus", "1",
                 "--format", "structured"])
    assert code == 0
    out = capsys.readouterr().out
    P = poset_from_structured(out)
    assert len(P) == 2


def test_export_to_file(tmp_path):
    target = tmp_path / "u.txt"
    code = main(["export", "--poset", "U", "--genus", "2",
                 "--out", str(target)])
    assert code == 0
    text = target.read_text()
    assert text.startswith("poset with 22 elements")


def test_export_dot(capsys):
    assert main(["export", "--poset", "D+", "--format", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph poset {")
    assert out.count("label=") == 10


def test_export_ring_choice(capsys):
    assert main(["export", "--poset", "O", "--ring", "p3", "--genus", "2",
                 "--format", "structured"]) == 0
    P = poset_from_structured(capsys.readouterr().out)
    assert len(P) == 56


def test_export_O_rejects_integers():
    with pytest.raises(SystemExit):
        main(["export", "--poset", "O", "--ring", "Z"])


def test_export_HU_rejects_radical():
    with pytest.raises(SystemExit):
        main(["export", "--poset", "HU", "--radical", "1"])


def test_export_radical_module(capsys):
    assert main(["export", "--poset", "I", "--genus", "1", "--radical", "1",
                 "--format", "structured"]) == 0
    P = poset_from_structured(capsys.readouterr().out)
    assert len(P) == 6


@pytest.mark.parametrize("flags", [
    ["--poset", "T", "--genus", "1"],
    ["--poset", "HU", "--genus", "0"],
    ["--poset", "D", "--genus", "-1"],
    ["--poset", "U", "--radical", "-1"],
])
def test_export_rejects_out_of_range_sizes(flags, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["export"] + flags)
    assert exc.value.code == 2
    assert "must" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["um", "--ring", "p11"],
    ["um", "--ring", "q2"],
    ["export", "--poset", "HU", "--format", "dot"],
    ["um", "--workers", "2"],
    ["um", "--ring", "Z"],
    ["export", "--poset", "U", "--ring", "Z"],
    ["export", "--poset", "O", "--ring", "Z"],
    ["export", "--poset", "HU", "--radical", "1"],
])
def test_bad_input_is_a_usage_error(argv, capsys):
    # exit 1 means a refuted record, so bad input must not end that way
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len([ln for ln in err.splitlines() if "error:" in ln]) == 1


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

# flags of each pinned export, named by its file in exports.sha256; every
# one is over the default ring p2, at genus 2 unless its name says .g3
PINNED_EXPORTS = {
    "U.json": ["--poset", "U"],
    "I.json": ["--poset", "I", "--radical", "1"],
    "D.json": ["--poset", "D"],
    "D+.json": ["--poset", "D+"],
    "HU.json": ["--poset", "HU"],
    "O.json": ["--poset", "O"],
    "TD.json": ["--poset", "TD"],
    "T.json": ["--poset", "T", "--genus", "4"],
    "D+.g3.json": ["--poset", "D+", "--genus", "3"],
    "TD.g3.json": ["--poset", "TD", "--genus", "3"],
    "I.p3.json": ["--poset", "I", "--ring", "p3"],
    "I.p3.g1r1.json": ["--poset", "I", "--ring", "p3", "--genus", "1",
                       "--radical", "1"],
    "U.g3.json": ["--poset", "U", "--genus", "3"],
    "U.g2r1.json": ["--poset", "U", "--genus", "2", "--radical", "1"],
    "U.p3.json": ["--poset", "U", "--ring", "p3", "--genus", "2"],
    "D.p3.json": ["--poset", "D", "--ring", "p3", "--genus", "2"],
    "O.g3.p3.json": ["--poset", "O", "--genus", "3", "--ring", "p3"],
    # the frontier poset U_3(F_3), 14,744 elements: its builder runs on
    # masks and vertex ids, so its every byte is pinned
    "U.g3.p3.json": ["--poset", "U", "--genus", "3", "--ring", "p3"],
}


def _pinned_hashes():
    with open(os.path.join(GOLDEN, "exports.sha256"), encoding="utf-8") as fh:
        return dict(reversed(line.split()) for line in fh)


def test_pinned_exports_are_listed():
    assert set(_pinned_hashes()) == set(PINNED_EXPORTS)


@pytest.mark.parametrize("filename", sorted(PINNED_EXPORTS))
def test_export_matches_pinned_hash(filename, tmp_path):
    """Structured exports keep their bytes; the pins are in sha256sum
    format, so ``sha256sum -c`` checks files written by the CLI too."""
    target = tmp_path / filename
    assert main(["export", "--format", "structured", "--out", str(target)]
                + PINNED_EXPORTS[filename]) == 0
    digest = hashlib.sha256(target.read_bytes()).hexdigest()
    assert digest == _pinned_hashes()[filename]


def test_export_has_no_cache_flag(capsys):
    with pytest.raises(SystemExit):
        main(["export", "--help"])
    assert "--cache" not in capsys.readouterr().out


def test_suite_run_writes_report(tmp_path, capsys):
    code = main(["um", "--out", str(tmp_path), "--quiet"])
    assert code == 0
    out = capsys.readouterr().out
    assert "suite um:" in out and "exit 0" in out
    data = json.loads((tmp_path / "um.json").read_text())
    assert data["suite"] == "um"
    assert all(r["verdict"] == "verified" for r in data["records"])
    assert all("seconds" not in r for r in data["records"])


def test_suite_timings_flag(tmp_path):
    main(["um", "--out", str(tmp_path), "--quiet", "--timings"])
    data = json.loads((tmp_path / "um.json").read_text())
    assert all("seconds" in r for r in data["records"])


def test_suite_budget_starvation(capsys):
    code = main(["um", "--budget", "10", "--quiet"])
    assert code == 2
    assert "exit 2" in capsys.readouterr().out


def test_suite_summary_lines(capsys):
    main(["core-props", "--seed", "3"])
    out = capsys.readouterr().out
    assert "verified" in out
    assert "suite core-props:" in out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "symposet" in capsys.readouterr().out


def test_unknown_command():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_command():
    with pytest.raises(SystemExit):
        main([])
