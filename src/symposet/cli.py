"""Command-line front end: run verification suites, export posets.

Each suite name is its own subcommand; ``export`` builds one of the named
poset families and writes it in any supported format.  Suite runs exit
with 0 when every record verifies, 1 on any refutation, and 2 when a
record is inconclusive (typically budget starvation).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from . import __version__
from .builders import (build_D, build_HU, build_I, build_O, build_U)
from .complexes import DEFAULT_BUDGET
from .io import DOT_ELEMENT_LIMIT, EXPORT_FORMATS, export_poset
from .rings import ring_from_name
from .suites import (SUITE_NAMES, SuiteConfig, exit_status, run_suite)
from .symplectic import SymplecticModule
from .trees import build_T, build_TD

POSET_CHOICES = ("U", "I", "D", "D+", "HU", "O", "T", "TD")


def _suite_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--ring", default="p2",
                    help="scalar ring: p<prime> (default p2)")
    sp.add_argument("--genus", type=int, default=2,
                    help="3 adds the genus-3 records of um, dec and trees; "
                         "the others only record it (default 2)")
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                    help="simplex budget per homology computation")
    sp.add_argument("--seed", type=int, default=0,
                    help="seed for randomized property checks")
    sp.add_argument("--out", default=None,
                    help="directory to write the report JSON into")
    sp.add_argument("--timings", action="store_true",
                    help="keep per-record timings in the written report")
    sp.add_argument("--quiet", action="store_true",
                    help="suppress the per-record summary")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="symposet",
        description="verification suites and exports for symplectic poset "
                    "topology")
    p.add_argument("--version", action="version",
                   version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    for name in SUITE_NAMES:
        sp = sub.add_parser(name, help=f"run the {name} verification suite")
        _suite_flags(sp)
    ex = sub.add_parser("export", help="build one poset and print or save it")
    ex.add_argument("--poset", required=True, choices=POSET_CHOICES,
                    help="which family to build")
    ex.add_argument("--ring", default="p2",
                    help="scalar ring: p<prime> (default p2)")
    ex.add_argument("--genus", type=int, default=2,
                    help="genus, rank, or label count, depending on family")
    ex.add_argument("--radical", type=int, default=0,
                    help="radical rank of the standard module, for U and I "
                         "only (default 0)")
    ex.add_argument("--format", default="text", choices=EXPORT_FORMATS)
    ex.add_argument("--out", default=None,
                    help="output file (default: stdout)")
    return p


def _build_named_poset(args):
    ring = ring_from_name(args.ring)
    name = args.poset
    if name == "T":
        return build_T(args.genus)
    if name == "O":
        return build_O(args.genus, ring)
    L = SymplecticModule.standard(ring, args.genus, r=args.radical)
    if name == "U":
        return build_U(L)
    if name == "I":
        return build_I(L)
    if name == "D":
        return build_D(L)
    if name == "D+":
        return build_D(L, strict=True)
    if name == "HU":
        return build_HU(args.genus, ring)
    if name == "TD":
        return build_TD(L)
    raise SystemExit(f"unknown poset {name!r}")


def _cmd_export(args, P) -> int:
    text = export_poset(P, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_suite(name: str, args) -> int:
    cfg = SuiteConfig(ring=args.ring, genus=args.genus, budget=args.budget,
                      seed=args.seed)
    report = run_suite(name, cfg)
    if not args.quiet:
        for line in report.summary_lines():
            print(line)
    code = exit_status(report)
    print(f"suite {name}: {len(report.records)} records, exit {code}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(report.to_json(include_timings=args.timings))
        print(f"report written to {path}")
    return code


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if not ring_from_name(args.ring).is_field():
            raise ValueError("the suites and exports run over a prime field "
                             "only; use p<prime>")
    except ValueError as exc:
        parser.error(f"--ring {args.ring}: {exc}")
    if args.command == "export":
        least = 2 if args.poset == "T" else 1
        if args.genus < least:
            parser.error(f"--genus must be at least {least} for --poset {args.poset}")
        if args.radical < 0:
            parser.error("--radical must not be negative")
        if args.radical and args.poset not in ("U", "I"):
            parser.error(f"--radical must be 0 for --poset {args.poset}: "
                         "only U and I take a module with a radical")
        P = _build_named_poset(args)
        if args.format == "dot" and len(P) > DOT_ELEMENT_LIMIT:
            parser.error(f"--format dot takes at most {DOT_ELEMENT_LIMIT} "
                         f"elements and --poset {args.poset} has {len(P)}; "
                         "use --format structured")
        return _cmd_export(args, P)
    return _cmd_suite(args.command, args)


if __name__ == "__main__":
    sys.exit(main())
