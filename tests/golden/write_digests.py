"""Golden digests of the census routes, of the reducibility verdicts and
of the field tables the census kernels gather from: what each outputs,
hashed.

Run from the repository root to rewrite ``digests.json`` next to this file:

    PYTHONPATH=src python tests/golden/write_digests.py

Each label is one census call, the verdicts of one reducibility scan, or
one ``FieldTables(ctx, n)``: its element type and its ``inv_t``,
``add_t``, ``sub_t`` and ``mul_t`` tables, or the message of the
OverflowError it raises.  Its output is written in one canonical form,
JSON with sorted keys and plain ints (no pickle, no repr of numpy
scalars), and ``digests.json`` keeps the sha256 of that text together
with the route, the field (with its modulus over GF(p^k)) and the worker
count of a census, or the n of a scan or of the tables.  ``tests/test_golden.py`` recomputes every label and compares, so
a change that moves any count of any route fails the default suite
(``LABELS``) or ``pytest -m slow`` (``SLOW_LABELS``, the larger fields).
Rewrite the file only for a change that is meant to move an output, and
name the labels that moved, and why, in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from kirillov._kernels import FieldTables
from kirillov.fields import field_of_order
from kirillov.g2 import DIM, g2_census
from kirillov.typea import brute_force_census, reducibility_scan

PATH = Path(__file__).with_name("digests.json")

# label -> (route, q, n, workers), with None for what the route does not
# take; the default suite checks these
LABELS = {
    **{f"g2 exhaustive GF({q}) {w}w": ("g2-exhaustive", q, None, w)
       for q in (5, 7) for w in (1, 2)},
    # the one label whose exhaustive batches cut a block inside a slice
    "g2 exhaustive GF(11) 1w": ("g2-exhaustive", 11, None, 1),
    **{f"g2 weighted GF({q})": ("g2-weighted", q, None, 1)
       for q in (5, 7, 13)},
    # the weighted route with two workers
    "g2 weighted GF(13) 2w": ("g2-weighted", 13, None, 2),
    **{f"typea n={n} GF({q})": ("typea", q, n, 1)
       for n, qs in ((4, (2, 3, 4, 5, 7, 8, 9)), (5, (2, 3, 4)), (6, (2,)))
       for q in qs},
    # several workers, and the sizes with no matrix left to rank (n = 1)
    # or none but the zero matrix (n = 2)
    "typea n=4 GF(7) 2w": ("typea", 7, 4, 2),
    "typea n=4 GF(9) 2w": ("typea", 9, 4, 2),
    "typea n=5 GF(3) 3w": ("typea", 3, 5, 3),
    **{f"typea n={n} GF(5)": ("typea", 5, n, 1) for n in (1, 2)},
    # partition, kind, method, witness and factors of each of the 372 R
    # factors up to n = 13 (about 0.3 s)
    "typea verdicts n<=13": ("typea-verdicts", None, 13, None),
}

# the prime powers from 16 to 125
_N3_FIELDS = (16, 17, 19, 23, 25, 27, 29, 31, 32, 37, 41, 43, 47, 49, 53, 59,
              61, 64, 67, 71, 73, 79, 81, 83, 89, 97, 101, 103, 107, 109, 113,
              121, 125)

# labels only ``pytest -m slow`` checks.  Weighted g2 over GF(49) alone
# takes about 16 s.  The n = 3 labels over GF(107), GF(109) and GF(113)
# are the only ones whose prime-field kernels run on int32.  Type A with
# n = 6 over GF(3) holds 3^15 matrices, 3^10 of them behind each setting
# of the superdiagonal, more than ``DEFAULT_BATCH``.
SLOW_LABELS = {
    **{f"g2 weighted GF({q})": ("g2-weighted", q, None, 1)
       for q in (23, 25, 49)},
    **{f"typea n={n} GF({q})": ("typea", q, n, 1)
       for n, qs in ((4, (16,)), (2, (169,)), (3, _N3_FIELDS), (6, (3,)))
       for q in qs},
}


def _tables_labels(census: dict) -> dict:
    """One label for each ``FieldTables(ctx, n)`` a census label builds:
    n is the matrix size, DIM for g2."""
    labels = {}
    for route, q, n, _ in census.values():
        if route != "typea-verdicts":
            n = DIM if n is None else n
            labels[f"tables GF({q}) n={n}"] = ("tables", q, n, None)
    return labels


# the tables of every field a census label uses, all of them together in
# well under a second, and of a prime field whose (p-1)^2 overflows int64,
# which the tables refuse
LABELS.update(_tables_labels({**LABELS, **SLOW_LABELS}))
LABELS["tables GF(3037000507) n=1"] = ("tables", 3037000507, 1, None)

ALL_LABELS = {**LABELS, **SLOW_LABELS}


def _plain(counts: dict) -> list:
    return sorted([list(key), int(cnt)] for key, cnt in counts.items())


def output(label: str) -> dict:
    """The output of the census, scan or tables ``label`` names, in plain
    ints and lists."""
    route, q, n, workers = ALL_LABELS[label]
    if route == "typea-verdicts":
        verdicts = reducibility_scan(n).verdicts
        return {"verdicts": sorted(
            [list(lam.parts), v.kind, v.method, list(v.witness),
             [list(f.coeffs) for f in v.factors]]
            for lam, v in verdicts.items())}
    ctx = field_of_order(q)
    if route == "tables":
        try:
            tables = FieldTables(ctx, n)
        except OverflowError as exc:
            return {"overflow": str(exc)}
        return {"dtype": np.dtype(tables.dtype).name,
                **{name: None if table is None else table.tolist()
                   for name, table in (("inv_t", tables.inv_t),
                                       ("add_t", tables.add_t),
                                       ("sub_t", tables.sub_t),
                                       ("mul_t", tables.mul_t))}}
    if route == "typea":
        return {"counts": _plain(brute_force_census(n, ctx, workers=workers))}
    report = g2_census(ctx, workers=workers,
                       exhaustive=route == "g2-exhaustive")
    return {"cases": sorted([case, list(seq), int(cnt)]
                            for (case, seq), cnt in report.cases.items()),
            "counts": _plain(report.counts),
            "total": int(report.total)}


def digest(label: str) -> str:
    text = json.dumps(output(label), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def record(label: str) -> dict:
    route, q, n, workers = ALL_LABELS[label]
    if q is None:
        return {"route": route, "n": n, "sha256": digest(label)}
    ctx = field_of_order(q)
    return {"route": route, "n": n, "q": q, "p": ctx.p, "k": ctx.k,
            "modulus": None if ctx.modulus is None else list(ctx.modulus),
            "workers": workers, "sha256": digest(label)}


def main() -> None:
    records = {label: record(label) for label in ALL_LABELS}
    PATH.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")


if __name__ == "__main__":
    main()
