"""Command-line surface: every computation and verification as a subcommand.

Exit codes: 0 all verifications passed, 1 a verification failed (the
report is still emitted) or a data-integrity check aborted the run (a
one-line report on stderr), 2 usage error, 3 enumeration budget exceeded.
Counts and coefficients are serialized as decimal strings so arbitrary
precision survives JSON consumers.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from . import g2 as g2mod
from .errors import (
    BadCharacteristic,
    DuplicateAbscissa,
    InsufficientPoints,
    InvalidRankSequence,
    NonIntegerCoefficients,
    NotPrime,
    PredicateMismatch,
    TooLarge,
)
from .fields import field_of_order
from .intpoly import IntPoly, irreducibility, split_qfactors
from .partitions import Partition, partitions_of
from .typea import (
    brute_force_census,
    kirillov_recursion,
    reducibility_scan,
    valuation_profile,
    vla_table_n4,
)

DEFAULT_BUDGET = g2mod.DEFAULT_BUDGET


def _poly_json(p: IntPoly) -> list[str]:
    return [str(c) for c in p.coeffs]


def _route(args) -> str:
    return "exhaustive" if args.exhaustive else "weighted"


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (payload, rows, ok), where ok is None
# for a command that computes without verifying anything
# ---------------------------------------------------------------------------


def _cmd_typea_poly(args):
    lam = Partition.from_text(args.partition)
    poly = kirillov_recursion(lam)
    split = split_qfactors(poly)
    profile = valuation_profile(lam)
    ok = profile.matches(split)
    payload = {
        "command": "typea poly",
        "partition": lam.text(),
        "polynomial": _poly_json(poly),
        "polynomial_text": poly.text(),
        "split": {"a": split.a, "b": split.b, "r": _poly_json(split.r),
                  "r_text": split.r.text()},
        "profile": {"a": profile.a, "b": profile.b, "deg_r": profile.deg_r,
                    "lead_r": profile.lead_r},
        "profile_matches_split": ok,
    }
    rows = [{"partition": lam.text(), "polynomial": poly.text(),
             "a": split.a, "b": split.b, "r": split.r.text()}]
    return payload, rows, ok


def _cmd_typea_census(args):
    ctx = field_of_order(args.q)
    counts = brute_force_census(args.n, ctx, workers=args.workers,
                                budget=args.budget)
    expected = {lam: kirillov_recursion(lam)(args.q)
                for lam in partitions_of(args.n)}
    expected = {lam: v for lam, v in expected.items() if v}
    ok = counts == expected
    payload = {
        "command": "typea census",
        "n": args.n,
        "q": args.q,
        "counts": {lam.text(): str(counts[lam]) for lam in sorted(counts, reverse=True)},
        "total": str(sum(counts.values())),
        "recursion_match": ok,
    }
    rows = [{"partition": lam.text(), "count": counts[lam],
             "recursion": expected.get(lam, 0)}
            for lam in sorted(counts, reverse=True)]
    return payload, rows, ok


def _cmd_typea_scan(args):
    report = reducibility_scan(args.n_max)
    reducible = [
        {
            "partition": lam.text(),
            "factors": [_poly_json(f) for f in factors],
            "factors_text": " * ".join(f"({f.text()})" for f in factors),
        }
        for lam, factors in report.reducible
    ]
    payload = {
        "command": "typea scan",
        "n_max": args.n_max,
        "partitions_scanned": len(report.verdicts),
        "reducible": reducible,
    }
    rows = [{"partition": lam.text(), "verdict": v.kind, "method": v.method,
             "factors": " * ".join(f"({f.text()})" for f in v.factors)}
            for lam, v in report.verdicts.items()]
    return payload, rows, None


def _cmd_typea_table4(args):
    report = vla_table_n4()
    payload = {
        "command": "typea table4",
        "identities": [
            {"partition": lam.text(), "table_sum": _poly_json(table_sum),
             "recursion": _poly_json(expected), "ok": ok}
            for lam, table_sum, expected, ok in report.identities
        ],
        "class_count": _poly_json(report.class_count),
        "class_count_expected": _poly_json(report.class_count_expected),
        "class_count_ok": report.class_count_ok,
        "passed": report.passed,
    }
    rows = [{"partition": lam.text(), "table_sum": table_sum.text(),
             "recursion": expected.text(), "ok": ok}
            for lam, table_sum, expected, ok in report.identities]
    rows.append({"partition": "(classes)", "table_sum": report.class_count.text(),
                 "recursion": report.class_count_expected.text(),
                 "ok": report.class_count_ok})
    return payload, rows, report.passed


def _cmd_typea_profile(args):
    rows = []
    all_ok = True
    for n in range(1, args.n_max + 1):
        for lam in partitions_of(n):
            split = split_qfactors(kirillov_recursion(lam))
            prof = valuation_profile(lam)
            ok = (prof.matches(split)
                  and split.r.constant_term == 1
                  and all(c > 0 for c in split.r.coeffs))
            all_ok &= ok
            rows.append({"partition": lam.text(), "a": prof.a, "b": prof.b,
                         "deg_r": prof.deg_r, "lead_r": prof.lead_r, "ok": ok})
    payload = {"command": "typea profile", "n_max": args.n_max,
               "rows": rows, "passed": all_ok}
    return payload, rows, all_ok


def _cmd_g2_build(args):
    basis = g2mod.build_chevalley()
    report = g2mod.verify_displayed_powers()
    template_ok = not report.template_mismatches
    payload = {
        "command": "g2 build",
        "roots": {},
        "template_ok": template_ok,
    }
    rows = []
    for root in g2mod.POSITIVE_ROOTS:
        mat = basis[root]
        name = f"{root[0]}a1+{root[1]}a2"
        payload["roots"][name] = [list(r) for r in mat]
        rows.append({"root": name,
                     "matrix": "; ".join(" ".join(str(x) for x in r) for r in mat)})
    return payload, rows, template_ok


def _cmd_g2_powers(args):
    report = g2mod.verify_displayed_powers()
    payload = {
        "command": "g2 powers",
        "template_mismatches": [
            {"i": i, "j": j, "expected": e.text(), "got": g.text()}
            for i, j, e, g in report.template_mismatches
        ],
        "power_mismatches": [
            {"power": pw, "i": i, "j": j, "expected": e.text(), "got": g.text()}
            for pw, i, j, e, g in report.power_mismatches
        ],
        "passed": report.passed,
    }
    rows = [{"check": "template", "mismatches": len(report.template_mismatches)},
            {"check": "powers 2..6", "mismatches": len(report.power_mismatches)}]
    return payload, rows, report.passed


def _cmd_g2_census(args):
    import time

    ctx = field_of_order(args.q)
    started = time.monotonic()
    report = g2mod.g2_census(ctx, workers=args.workers, budget=args.budget,
                             exhaustive=args.exhaustive)
    elapsed_ms = int((time.monotonic() - started) * 1000)
    expected = {lam: poly(args.q)
                for lam, poly in g2mod.expected_polynomials().items()}
    counts_ok = report.counts == {lam: v for lam, v in expected.items() if v}
    closed_ok = all(report.cases.get((cc.case, cc.rank_seq), 0) == cc.count
                    for cc in g2mod.closed_form_case_counts(args.q))
    ok = counts_ok and closed_ok and report.total == args.q**6
    payload = {
        "command": "g2 census",
        "q": args.q,
        "route": _route(args),
        "counts": {lam.text(): str(report.counts[lam])
                   for lam in sorted(report.counts, reverse=True)},
        "cases": [{"case": case, "rank_seq": list(seq), "count": str(cnt)}
                  for (case, seq), cnt in report.cases.items()],
        "total": str(report.total),
        "counts_match_polynomials": counts_ok,
        "cases_match_closed_forms": closed_ok,
        "elapsed_ms": elapsed_ms,
    }
    rows = [{"partition": lam.text(), "count": report.counts[lam],
             "polynomial_value": expected.get(lam, 0)}
            for lam in sorted(report.counts, reverse=True)]
    return payload, rows, ok


def _cmd_g2_interpolate(args):
    result = g2mod.g2_interpolate(orders=args.primes, workers=args.workers,
                                  budget=args.budget, exhaustive=args.exhaustive)
    payload = {
        "command": "g2 interpolate",
        "orders": list(result.orders),
        "route": _route(args),
        "polynomials": {lam.text(): _poly_json(result.polynomials[lam])
                        for lam in sorted(result.polynomials, reverse=True)},
        "routes": {lam.text(): result.routes[lam]
                   for lam in sorted(result.routes, reverse=True)},
        "complement_ok": result.complement_ok,
        "matches_expected": {lam.text(): result.matches_expected[lam]
                             for lam in sorted(result.matches_expected, reverse=True)},
        "passed": result.passed,
    }
    rows = [{"partition": lam.text(),
             "polynomial": result.polynomials[lam].text(),
             "route": result.routes[lam],
             "matches": result.matches_expected[lam]}
            for lam in sorted(result.polynomials, reverse=True)]
    return payload, rows, result.passed


def _cmd_g2_springer(args):
    report = g2mod.springer_check()
    payload = {
        "command": "g2 springer",
        "orbits": [
            {"orbit": orbit, "partition": expected.text(),
             "computed": computed.text(), "leading": lead,
             "dimension": dim, "ok": ok}
            for orbit, expected, computed, lead, dim, ok in report.orbit_entries
        ],
        "typea_leading_ok": all(e[-1] for e in report.typea_entries),
        "typea_checked": len(report.typea_entries),
        "passed": report.passed,
    }
    rows = [{"orbit": orbit, "partition": expected.text(),
             "computed": computed.text(), "leading": lead, "dimension": dim,
             "ok": ok}
            for orbit, expected, computed, lead, dim, ok in report.orbit_entries]
    return payload, rows, report.passed


def _cmd_poly_split(args):
    poly = IntPoly.from_text(args.coeffs)
    split = split_qfactors(poly)
    payload = {
        "command": "poly split",
        "polynomial": _poly_json(poly),
        "polynomial_text": poly.text(),
        "a": split.a,
        "b": split.b,
        "r": _poly_json(split.r),
        "r_text": split.r.text(),
    }
    rows = [{"polynomial": poly.text(), "a": split.a, "b": split.b,
             "r": split.r.text()}]
    return payload, rows, None


def _cmd_poly_irred(args):
    poly = IntPoly.from_text(args.coeffs)
    verdict = irreducibility(poly)
    payload = {
        "command": "poly irred",
        "polynomial": _poly_json(poly),
        "polynomial_text": poly.text(),
        "verdict": verdict.kind,
        "method": verdict.method,
        "witness": list(verdict.witness),
        "factors": [_poly_json(f) for f in verdict.factors],
        "factors_text": [f.text() for f in verdict.factors],
    }
    rows = [{"polynomial": poly.text(), "verdict": verdict.kind,
             "method": verdict.method,
             "factors": " * ".join(f"({f.text()})" for f in verdict.factors)}]
    return payload, rows, None


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _render(payload, rows, ok, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        rows = rows or [payload]
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
        return buf.getvalue()
    # table
    rows = rows or [payload]
    cols = list(rows[0].keys())
    widths = {c: max(len(str(c)), max(len(str(r.get(c, ""))) for r in rows))
              for c in cols}
    lines = ["  ".join(str(c).ljust(widths[c]) for c in cols)]
    lines.append("  ".join("-" * widths[c] for c in cols))
    for r in rows:
        lines.append("  ".join(str(r.get(c, "")).ljust(widths[c]) for c in cols))
    if ok is not None:
        lines.append(f"status: {'PASS' if ok else 'FAIL'}")
    return "\n".join(lines) + "\n"


def _add_census_route(parser):
    parser.add_argument("--exhaustive", action="store_true",
                        help="enumerate all q^6 tuples instead of the 4q^4 "
                             "torus representatives")


def _worker_count(text: str) -> int:
    """The ``--workers`` type: an integer >= 1."""
    try:
        workers = int(text)
    except ValueError:
        workers = 0
    if workers < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 1, got {text!r}")
    return workers


def _add_common(parser, workers=False, budget=False):
    parser.add_argument("--format", choices=("table", "json", "csv"),
                        default="table")
    parser.add_argument("--out", default=None,
                        help="write output to this path instead of stdout")
    if workers:
        # a string default goes through the type too, so a bad
        # $KIRILLOV_WORKERS is a usage error, and only where --workers is
        parser.add_argument("--workers", type=_worker_count,
                            default=os.environ.get("KIRILLOV_WORKERS", "1"),
                            help="parallel census workers "
                                 "(default: $KIRILLOV_WORKERS or 1)")
    if budget:
        parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                            help="max tuples to enumerate on the chosen route")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kirillov",
        description="Jordan-type counts of nilpotent matrices over finite "
                    "fields: type A recursion and the g2 census.")
    top = parser.add_subparsers(dest="group", required=True)

    typea = top.add_parser("typea", help="type A commands").add_subparsers(
        dest="action", required=True)
    sub = typea.add_parser("poly", help="counting polynomial of a partition")
    sub.add_argument("partition", help="comma-separated parts, e.g. 3,2,1,1")
    _add_common(sub)
    sub.set_defaults(func=_cmd_typea_poly)

    sub = typea.add_parser("census", help="brute-force census vs recursion")
    sub.add_argument("n", type=int)
    sub.add_argument("q", type=int)
    _add_common(sub, workers=True, budget=True)
    sub.set_defaults(func=_cmd_typea_census)

    sub = typea.add_parser("scan", help="reducibility scan of the R factors")
    sub.add_argument("n_max", type=int)
    _add_common(sub)
    sub.set_defaults(func=_cmd_typea_scan)

    sub = typea.add_parser("table4", help="verify the n=4 conjugacy-type table")
    _add_common(sub)
    sub.set_defaults(func=_cmd_typea_table4)

    sub = typea.add_parser("profile", help="split statistics for all n <= n_max")
    sub.add_argument("n_max", type=int)
    _add_common(sub)
    sub.set_defaults(func=_cmd_typea_profile)

    g2 = top.add_parser("g2", help="g2 commands").add_subparsers(
        dest="action", required=True)
    sub = g2.add_parser("build", help="positive-root matrices and X template")
    _add_common(sub)
    sub.set_defaults(func=_cmd_g2_build)

    sub = g2.add_parser("powers", help="verify the closed forms of X^2..X^6")
    _add_common(sub)
    sub.set_defaults(func=_cmd_g2_powers)

    sub = g2.add_parser("census", help="census of all q^6 matrices over GF(q), "
                                       "torus-weighted unless --exhaustive")
    sub.add_argument("q", type=int)
    _add_census_route(sub)
    _add_common(sub, workers=True, budget=True)
    sub.set_defaults(func=_cmd_g2_census)

    sub = g2.add_parser("interpolate",
                        help="recover the counting polynomials from censuses")
    sub.add_argument("--primes", type=int, nargs="+",
                     default=list(g2mod.DEFAULT_PRIMES))
    _add_census_route(sub)
    _add_common(sub, workers=True, budget=True)
    sub.set_defaults(func=_cmd_g2_interpolate)

    sub = g2.add_parser("springer", help="orbit representatives and leading "
                                         "coefficients")
    _add_common(sub)
    sub.set_defaults(func=_cmd_g2_springer)

    poly = top.add_parser("poly", help="polynomial utilities").add_subparsers(
        dest="action", required=True)
    coeff_help = ("comma-separated coefficients, lowest degree first "
                  "(prefix with -- if the constant term is negative)")
    sub = poly.add_parser("split", help="split q^a (q-1)^b R")
    sub.add_argument("coeffs", help=coeff_help)
    _add_common(sub)
    sub.set_defaults(func=_cmd_poly_split)

    sub = poly.add_parser("irred", help="irreducibility over Z[q]")
    sub.add_argument("coeffs", help=coeff_help)
    _add_common(sub)
    sub.set_defaults(func=_cmd_poly_irred)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, rows, ok = args.func(args)
    except TooLarge as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (PredicateMismatch, NonIntegerCoefficients,
            InvalidRankSequence) as exc:
        print(f"verification failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1
    except (NotPrime, BadCharacteristic, InsufficientPoints,
            DuplicateAbscissa, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = _render(payload, rows, ok, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 1 if ok is False else 0


if __name__ == "__main__":
    sys.exit(main())
