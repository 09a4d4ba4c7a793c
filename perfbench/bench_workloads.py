"""The benchmark workloads, each with an exact check on every pass.

A workload object has
- ``items``: problem-size items one pass verifies (matrices classified
  for a census, partitions checked for the symbolic path);
- ``sizes``: the inputs, for the run record;
- ``warm()``: the program's own set-up (field contexts, tables, the g2
  basis), timed separately as ``setup_s`` and kept out of the passes;
- ``reference()``: the exact expected values, computed once;
- ``run_pass(rng)``: one pass through the public entry points, returning
  ``(problems, digest)``.  ``problems`` lists every disagreement with the
  reference (empty when the pass verified); ``digest`` is a canonical form
  of the result, which must be identical on every pass of a run.

The inputs are exhaustive, so ``rng`` (seeded from ``--seed``) only
orders the calls within a pass.
"""

from __future__ import annotations

from math import comb

from kirillov import g2, intpoly, typea
from kirillov._kernels import FieldTables
from kirillov.fields import field_of_order
from kirillov.intpoly import IntPoly, Q
from kirillov.partitions import partitions_of


class G2Census:
    """``g2_census(GF(q))``: every pass classifies all q^6 matrices.

    Checked against ``expected_polynomials`` (per Jordan type),
    ``closed_form_case_counts`` plus the per-case totals (which pin the
    complement sequences the closed forms leave out), and the total q^6.
    """

    def __init__(self, q: int, workers: int):
        self.q = q
        self.workers = workers
        self.items = q**6
        self.sizes = {"q": q, "workers": workers, "matrices": q**6}

    def warm(self) -> None:
        self.ctx = field_of_order(self.q)
        g2.build_chevalley()
        FieldTables(self.ctx)

    def reference(self) -> None:
        q = self.q
        self.expected_counts = {lam: poly(q) for lam, poly
                                in g2.expected_polynomials().items()}
        self.expected_cases = {(c.case, c.rank_seq): c.count
                               for c in g2.closed_form_case_counts(q)}
        # case 1: a,f != 0; 2: a = 0 != f; 3: f = 0 != a; 4: a = f = 0
        self.case_totals = {1: (q - 1) ** 2 * q**4, 2: (q - 1) * q**4,
                            3: (q - 1) * q**4, 4: q**4}

    def run_pass(self, rng) -> tuple[list[str], object]:
        report = g2.g2_census(self.ctx, workers=self.workers)
        problems = []
        if report.counts != self.expected_counts:
            problems.append(f"q={self.q}: counts {report.counts} "
                            f"!= expected {self.expected_counts}")
        for key, count in self.expected_cases.items():
            if report.cases.get(key) != count:
                problems.append(f"q={self.q}: case {key} counted "
                                f"{report.cases.get(key)}, closed form {count}")
        totals: dict[int, int] = {}
        for (case, _), count in report.cases.items():
            totals[case] = totals.get(case, 0) + count
        if totals != self.case_totals:
            problems.append(f"q={self.q}: case totals {totals} "
                            f"!= {self.case_totals}")
        if report.total != self.q**6:
            problems.append(f"q={self.q}: total {report.total} != {self.q**6}")
        return problems, tuple(sorted(report.cases.items()))


class TypeACensus:
    """``brute_force_census(n, GF(q))`` for each order, in seeded order.

    Checked against ``kirillov_recursion`` evaluated at q for every
    partition of n.
    """

    def __init__(self, n: int, orders: tuple[int, ...]):
        self.n = n
        self.orders = orders
        self.items = sum(q ** comb(n, 2) for q in orders)
        self.sizes = {"n": n, "orders": list(orders), "matrices": self.items}

    def warm(self) -> None:
        self.ctxs = {q: field_of_order(q) for q in self.orders}
        for ctx in self.ctxs.values():
            FieldTables(ctx)

    def reference(self) -> None:
        self.expected = {
            q: {lam: typea.kirillov_recursion(lam)(q)
                for lam in partitions_of(self.n)}
            for q in self.orders}

    def run_pass(self, rng) -> tuple[list[str], object]:
        order = list(self.orders)
        rng.shuffle(order)
        problems, digest = [], []
        for q in order:
            counts = typea.brute_force_census(self.n, self.ctxs[q], workers=1)
            if counts != self.expected[q]:
                problems.append(f"n={self.n} q={q}: counts {counts} "
                                f"!= recursion {self.expected[q]}")
            digest.append((q, tuple(sorted(counts.items()))))
        return problems, tuple(sorted(digest))


class Symbolic:
    """The exact-algebra path (no numpy), from a cold recursion cache.

    Steps, in seeded order: the reducibility scan to ``scan_n`` with its
    factors re-multiplied; the split statistics against
    ``valuation_profile`` plus conservation for every n <= ``scan_n``;
    ``verify_displayed_powers``; ``springer_check(springer_n)``; and
    interpolation of the five g2 polynomials from their values at
    ``orders``, which must give them back and sum to q^6.
    """

    def __init__(self, scan_n: int, springer_n: int,
                 orders: tuple[int, ...] = g2.DEFAULT_PRIMES):
        self.scan_n = scan_n
        self.springer_n = springer_n
        self.orders = orders
        self.items = sum(len(partitions_of(n)) for n in range(1, scan_n + 1))
        self.sizes = {"scan_n": scan_n, "springer_n": springer_n,
                      "orders": list(orders), "partitions": self.items}

    def warm(self) -> None:
        g2.build_chevalley()

    def reference(self) -> None:
        self.expected_polys = g2.expected_polynomials()
        self.conservation = {n: Q ** comb(n, 2)
                             for n in range(1, self.scan_n + 1)}

    def run_pass(self, rng) -> tuple[list[str], object]:
        # cleared on the cached function itself, which tracing leaves unwrapped
        typea._recurse.cache_clear()
        steps = [self._scan, self._structure, self._powers, self._springer,
                 self._interpolate]
        rng.shuffle(steps)
        problems, digest = [], []
        for step in steps:
            found, part = step(rng)
            problems.extend(found)
            digest.append((step.__name__, part))
        return problems, tuple(sorted(digest))

    def _scan(self, rng):
        report = typea.reducibility_scan(self.scan_n)
        problems = []
        if len(report.verdicts) != self.items:
            problems.append(f"scan covered {len(report.verdicts)} partitions, "
                            f"expected {self.items}")
        for lam, verdict in report.verdicts.items():
            if verdict.kind not in ("unit", "irreducible", "reducible"):
                problems.append(f"{lam}: verdict kind {verdict.kind}")
        for lam, factors in report.reducible:
            product = IntPoly((1,))
            for f in factors:
                product = product * f
            r = intpoly.split_qfactors(typea.kirillov_recursion(lam)).r
            if len(factors) < 2 or product != r:
                problems.append(f"{lam}: factors {factors} do not give R = {r}")
        return problems, tuple((lam.parts, tuple(f.coeffs for f in factors))
                               for lam, factors in report.reducible)

    def _structure(self, rng):
        problems = []
        for n in range(1, self.scan_n + 1):
            total = IntPoly()
            for lam in partitions_of(n):
                poly = typea.kirillov_recursion(lam)
                split = intpoly.split_qfactors(poly)
                prof = typea.valuation_profile(lam)
                if ((split.a, split.b, split.r.degree, split.r.leading)
                        != (prof.a, prof.b, prof.deg_r, prof.lead_r)
                        or split.reconstruct() != poly):
                    problems.append(f"{lam}: split {split} vs profile {prof}")
                total = total + poly
            if total != self.conservation[n]:
                problems.append(f"n={n}: conservation sum {total}")
        return problems, None

    def _powers(self, rng):
        report = g2.verify_displayed_powers()
        return ([] if report.passed else [f"powers: {report}"]), None

    def _springer(self, rng):
        report = g2.springer_check(self.springer_n)
        return ([] if report.passed else [f"springer: {report}"]), None

    def _interpolate(self, rng):
        problems = []
        total = IntPoly()
        for lam, poly in self.expected_polys.items():
            points = [(q, poly(q)) for q in self.orders]
            rng.shuffle(points)
            got = intpoly.poly_interpolate(points)
            if got != poly:
                problems.append(f"{lam}: interpolated {got}, expected {poly}")
            total = total + got
        if total != Q**6:
            problems.append(f"interpolated g2 counts sum to {total}, not q^6")
        return problems, None


FULL = {
    "g2-prime": lambda: G2Census(7, workers=1),
    "typea-ext": lambda: TypeACensus(4, (8, 9)),
    "symbolic": lambda: Symbolic(scan_n=12, springer_n=8),
    "g2-parallel": lambda: G2Census(7, workers=2),
}

SMOKE = {
    "g2-prime": lambda: G2Census(5, workers=1),
    "typea-ext": lambda: TypeACensus(3, (4,)),
    "symbolic": lambda: Symbolic(scan_n=6, springer_n=4),
    "g2-parallel": lambda: G2Census(5, workers=2),
}


def make(name: str, smoke: bool = False):
    return (SMOKE if smoke else FULL)[name]()
