"""Command-line front end: enumerate, verify, conjugation, polytope, corollary.

Data goes to stdout (or --json PATH); progress goes to stderr.  Exit codes:
0 all requested checks passed; 1 invalid input (arguments, unreadable file,
unwritable output path, presentation parse error, a member too large for the
coset geometry's element cap); 2 enumeration exhausted the coset cap (with
--require-complete, or mid-verification); 3 checks ran but some failed.

``verify`` checks its members one after another in this process, each
read off its family's voltage cover, and logs each to stderr as it
finishes; its report lines go to stdout only once every member has run,
so a run that a cap stops prints none.  ``polytope`` and
``verify --axioms`` compare each member's certified order with the
geometry's element cap before building any member.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .coset import DEFAULT_MAX_COSETS, EnumerationConfig, enumerate_cosets
from .families import (FAMILIES, EnumerationIncomplete, MemberReport,
                       VerifyOptions, certified_order, corollary_orders,
                       member_triple, verify_conjugation_action, verify_member)
from .polytope import (GeometryCapError, build_coset_geometry,
                       check_element_cap, section_type, verify_axioms)
from .words import ParseError, PresentationError, parse_presentation

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CAP = 2
EXIT_FAILED = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _log(msg: str):
    print(msg, file=sys.stderr)


def _write(path: str, text: str) -> bool:
    """Write text to path; log and return False when it cannot be written."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        _log(f"cannot write {path}: {exc}")
        return False
    return True


def _parse_m_range(text: str) -> list[int]:
    out: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            lo, hi = part.split("..", 1)
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    if not out or min(out) < 1:
        raise ValueError(f"bad m range {text!r}")
    return sorted(set(out))


_CAP_HELP = ("coset cap for the m = 1 enumeration and for the one-time proof of "
             "the conjugation relations that certifies every m >= 2 member, "
             "traced from every coset of U's partial tables (about 2,100 "
             "cosets for P and 3,600 for Q); exit 2 when exhausted")


def _add_max_cosets(parser: argparse.ArgumentParser, help: str | None = None):
    parser.add_argument("--max-cosets", type=int, default=DEFAULT_MAX_COSETS, help=help)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="chiral444",
        description="Construct and verify two families of chiral {4,4,4} polytope groups.",
        epilog="exit codes: 0 pass, 1 bad input, 2 coset cap exhausted, 3 checks failed",
    )
    parser.add_argument("--version", action="version", version=f"chiral444 {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="run a coset enumeration on a presentation file")
    p_enum.add_argument("file", help="presentation file path")
    p_enum.add_argument("--subgroup", default="", help="comma-separated subgroup generator words")
    _add_max_cosets(p_enum)
    p_enum.add_argument("--require-complete", action="store_true",
                        help="exit 2 when the enumeration does not complete")
    p_enum.add_argument("--dump", action="store_true",
                        help="print the standardized table (complete enumerations)")

    p_verify = sub.add_parser("verify", help="verify family members end to end, one at a time")
    p_verify.add_argument("--family", choices=list(FAMILIES), required=True)
    p_verify.add_argument("--m", default="1", help="range like 1..4, or a comma list")
    _add_max_cosets(p_verify, _CAP_HELP)
    p_verify.add_argument("--axioms", action="store_true",
                          help="run the axiom suite for every member (default: m = 1 only)")
    p_verify.add_argument("--json", metavar="PATH", help="write the JSON report here")

    p_conj = sub.add_parser("conjugation",
                            help="prove the conjugation relations by partial enumeration, "
                                 "each with the coset whose trace closes")
    p_conj.add_argument("--family", choices=list(FAMILIES), required=True)
    _add_max_cosets(p_conj)

    p_poly = sub.add_parser("polytope", help="build one member's geometry and verify the axioms")
    p_poly.add_argument("--family", choices=list(FAMILIES), required=True)
    p_poly.add_argument("--m", type=int, default=1)
    _add_max_cosets(p_poly, _CAP_HELP)
    p_poly.add_argument("--dump-geometry", metavar="PATH", help="write the face-incidence dump here")

    p_cor = sub.add_parser("corollary", help="verify the 2-power orders 2^(10+2k), 2^(11+2k)")
    p_cor.add_argument("--k-max", type=int, default=5,
                       help="largest k; the default 5 reaches orders 2^20 and 2^21")
    _add_max_cosets(p_cor, _CAP_HELP)
    return parser


def cmd_enumerate(args) -> int:
    try:
        with open(args.file, encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        _log(f"cannot read {args.file}: {exc}")
        return EXIT_INPUT
    try:
        pres = parse_presentation(text)
        words = pres.parse_words(args.subgroup) if args.subgroup.strip() else []
    except (ParseError, PresentationError) as exc:
        _log(f"parse error: {exc}")
        return EXIT_INPUT
    t0 = time.perf_counter()
    table = enumerate_cosets(pres, words, EnumerationConfig(max_cosets=args.max_cosets))
    dt = time.perf_counter() - t0
    _log(f"[enumerate] felsch definitions={table.definitions} time={dt:.2f}s")
    if table.is_complete:
        print(f"index {table.degree}")
        if args.dump:
            sys.stdout.write(table.standardize().dump())
        return EXIT_OK
    print(f"partial (cap {args.max_cosets} exhausted, {table.degree} live cosets)")
    return EXIT_CAP if args.require_complete else EXIT_OK


def _member_lines(r: MemberReport) -> str:
    ax = "-"
    if r.axioms is not None:
        ax = "P1-P4 " + ("pass" if r.axioms.all_ok else "FAIL") + f", {r.axioms.flag_count} flags"
    status = "pass" if r.passed else "FAIL"
    return (f"{r.family} m={r.m}: order {r.order} (expected {r.expected_order}), "
            f"type {{{r.schlafli[0]},{r.schlafli[1]},{r.schlafli[2]}}}, "
            f"solvable={r.solvable} (derived length {r.derived_length}), "
            f"intersection={r.intersection_condition}, criterion={r.quotient_criterion}, "
            f"verdict={r.verdict} (witness order {r.witness_order}), axioms={ax} -> {status}")


def cmd_verify(args) -> int:
    try:
        ms = _parse_m_range(args.m)
    except ValueError as exc:
        _log(str(exc))
        return EXIT_INPUT
    opts = VerifyOptions(max_cosets=args.max_cosets, axioms=True if args.axioms else None)
    t0 = time.perf_counter()
    reports = []
    try:
        if args.axioms:
            # every member within the geometry's element cap, before any runs
            for m in ms:
                check_element_cap(certified_order(args.family, m, opts))
        for m in ms:
            reports.append(verify_member(args.family, m, opts))
            _log(f"[verify] {args.family} m={m} done")
    except EnumerationIncomplete as exc:
        _log(str(exc))
        return EXIT_CAP
    except GeometryCapError as exc:
        _log(str(exc))
        return EXIT_INPUT
    for r in reports:
        print(_member_lines(r))
    aggregate = all(r.passed for r in reports)
    print(f"aggregate: {'pass' if aggregate else 'FAIL'} "
          f"({len(reports)} members, {time.perf_counter() - t0:.1f}s)")
    if args.json:
        doc = {
            "schema_version": 1,
            "tool": "chiral444",
            "version": __version__,
            "config": {"family": args.family, "m": ms, "max_cosets": args.max_cosets,
                       "strategy": VerifyOptions.strategy, "axioms": bool(args.axioms)},
            "members": [r.to_json_dict() for r in reports],
            "aggregate_pass": aggregate,
        }
        if not _write(args.json, json.dumps(doc, indent=2, sort_keys=True) + "\n"):
            return EXIT_INPUT
        _log(f"[verify] JSON written to {args.json}")
    return EXIT_OK if aggregate else EXIT_FAILED


def cmd_conjugation(args) -> int:
    checks = verify_conjugation_action(args.family, cap=args.max_cosets)
    width = max(len(c.label) for c in checks)
    for c in checks:
        if c.verified:
            print(f"{c.label:<{width}}  verified   (cap {c.cosets_used}, "
                  f"coset {c.witness_coset})")
        else:
            print(f"{c.label:<{width}}  unverified within cap {args.max_cosets}")
    return EXIT_OK if all(c.verified for c in checks) else EXIT_FAILED


def cmd_polytope(args) -> int:
    if args.m < 1:
        _log(f"bad m {args.m}: must be a positive integer")
        return EXIT_INPUT
    opts = VerifyOptions(max_cosets=args.max_cosets)
    try:
        check_element_cap(certified_order(args.family, args.m, opts))
    except EnumerationIncomplete as exc:
        _log(str(exc))
        return EXIT_CAP
    except GeometryCapError as exc:
        _log(str(exc))
        return EXIT_INPUT
    geom = build_coset_geometry(member_triple(args.family, args.m, opts))
    rpt = verify_axioms(geom)
    counts = geom.face_counts()
    print(f"{args.family} m={args.m}: order {geom.group_order}")
    print(f"faces by rank: {counts[0]} vertices, {counts[1]} edges, "
          f"{counts[2]} polygons, {counts[3]} facets")
    print(f"P1 {rpt.p1_ok}  P2 {rpt.p2_ok}  P3 {rpt.p3_ok}  P4 {rpt.p4_ok}  "
          f"equivelar {rpt.equivelar}")
    print(f"flags: {rpt.flag_count} (2*order = {2 * geom.group_order})")
    if rpt.equivelar:
        ftype, vtype = section_type(geom)
        print(f"schlafli: {rpt.schlafli}  facets {ftype}  vertex figures {vtype}")
    if args.dump_geometry:
        if not _write(args.dump_geometry, geom.dump()):
            return EXIT_INPUT
        _log(f"[polytope] geometry dump written to {args.dump_geometry}")
    ok = rpt.all_ok and rpt.flag_count == 2 * geom.group_order
    return EXIT_OK if ok else EXIT_FAILED


def cmd_corollary(args) -> int:
    if args.k_max < 0:
        _log(f"bad k-max {args.k_max}: must be nonnegative")
        return EXIT_INPUT
    opts = VerifyOptions(max_cosets=args.max_cosets)
    try:
        entries = corollary_orders(args.k_max, opts)
    except EnumerationIncomplete as exc:
        _log(str(exc))
        return EXIT_CAP
    for e in entries:
        print(f"n={e.n}: family {e.family}, m={e.m}, order {e.order} = 2^{e.n}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.max_cosets < 1:
        _log(f"bad max-cosets {args.max_cosets}: must be a positive integer")
        return EXIT_INPUT
    handlers = {
        "enumerate": cmd_enumerate,
        "verify": cmd_verify,
        "conjugation": cmd_conjugation,
        "polytope": cmd_polytope,
        "corollary": cmd_corollary,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
