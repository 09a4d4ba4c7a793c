"""Shared brute-force oracles for the test suite.

These stay deliberately naive and independent of the library code paths
they check: cells are enumerated and re-validated directly, tableaux are
counted by backtracking, and factor searches try every divisor tuple.
"""

from __future__ import annotations

import itertools

from hypothesis import settings

from kirillov.fields import FieldCtx, FMatrix
from kirillov.intpoly import IntPoly
from kirillov.partitions import Partition

# Property tests replay the same examples on every run and stay cheap
# enough for the default suite; a failure reproduces without a database.
settings.register_profile("kirillov", derandomize=True, deadline=None,
                          max_examples=25, database=None)
settings.load_profile("kirillov")


def oracle_removable_cells(parts: tuple[int, ...]) -> list[tuple[int, int]]:
    """All (row, col) whose removal leaves a partition, by definition."""
    out = []
    for row in range(1, len(parts) + 1):
        col = parts[row - 1]
        candidate = list(parts)
        candidate[row - 1] -= 1
        # still weakly decreasing with the decremented entry in place
        # (only a trailing zero may be dropped)
        if all(candidate[i] >= candidate[i + 1] for i in range(len(candidate) - 1)):
            out.append((row, col))
    return sorted(out, key=lambda rc: rc[1])


def oracle_count_syt(parts: tuple[int, ...]) -> int:
    """Count standard Young tableaux by direct backtracking."""
    n = sum(parts)
    rows = len(parts)
    filled = [[0] * p for p in parts]

    def place(value: int) -> int:
        if value > n:
            return 1
        total = 0
        for r in range(rows):
            c = next((j for j in range(parts[r]) if filled[r][j] == 0), None)
            if c is None:
                continue
            if c > 0 and filled[r][c - 1] == 0:
                continue
            if r > 0 and (c >= parts[r - 1] or filled[r - 1][c] == 0):
                continue
            filled[r][c] = value
            total += place(value + 1)
            filled[r][c] = 0
        return total

    return place(1)


def oracle_partitions(n: int) -> set[tuple[int, ...]]:
    """All partitions of n as tuples, by unbounded recursion."""
    if n == 0:
        return {()}
    out = set()
    for first in range(1, n + 1):
        for rest in oracle_partitions(n - first):
            if not rest or rest[0] <= first:
                out.add((first,) + rest)
    return out


def oracle_kronecker_reducible(poly: IntPoly):
    """Naive complete Kronecker test: the first nontrivial factor, or None.

    Tries every candidate degree and every divisor tuple, interpolating
    through points 0, 1, -1, 2, -2, ...; used only to cross-check the
    pipeline verdicts on small inputs.
    """

    def divisors(n):
        n = abs(n)
        out = [d for d in range(1, n + 1) if n % d == 0]
        return [x for d in out for x in (d, -d)]

    deg = poly.degree
    for d in range(1, deg // 2 + 1):
        xs = [0]
        step = 1
        while len(xs) < d + 1:
            xs.append(step)
            if len(xs) < d + 1:
                xs.append(-step)
            step += 1
        vals = [poly(x) for x in xs]
        if any(v == 0 for v in vals):
            root = xs[vals.index(0)]
            return IntPoly((-root, 1))
        for combo in itertools.product(*[divisors(v) for v in vals]):
            coeffs = _lagrange_fracs(xs, combo)
            if coeffs is None or len(coeffs) - 1 != d:
                continue
            g = IntPoly(coeffs)
            if g.leading < 0:
                g = -g
            quot, has_rem = _divmod_int(poly, g)
            if quot is None or has_rem:
                continue
            return g
    return None


def _lagrange_fracs(xs, ys):
    from fractions import Fraction

    coeffs = [Fraction(0)] * len(xs)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        num = [Fraction(1)]
        den = Fraction(1)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            num = [Fraction(0)] + num
            for t in range(len(num) - 1):
                num[t] -= xj * num[t + 1]
            den *= xi - xj
        for t in range(len(num)):
            coeffs[t] += yi * num[t] / den
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    if any(c.denominator != 1 for c in coeffs):
        return None
    return [int(c) for c in coeffs]


def _divmod_int(a: IntPoly, b: IntPoly):
    """(quotient, remainder-is-nonzero) over Z, or (None, True) if non-integral."""
    from fractions import Fraction

    rem = [Fraction(c) for c in a.coeffs]
    quot = [Fraction(0)] * max(a.degree - b.degree + 1, 0)
    for shift in range(a.degree - b.degree, -1, -1):
        f = rem[shift + b.degree] / b.leading
        quot[shift] = f
        for i, c in enumerate(b.coeffs):
            rem[shift + i] -= f * c
    if any(c.denominator != 1 for c in quot):
        return None, True
    return IntPoly(int(c) for c in quot), any(r != 0 for r in rem)


def jordan_block_matrix(ctx: FieldCtx, parts) -> FMatrix:
    """Direct sum of nilpotent Jordan blocks of the given sizes."""
    n = sum(parts)
    rows = [[0] * n for _ in range(n)]
    offset = 0
    for size in parts:
        for i in range(size - 1):
            rows[offset + i][offset + i + 1] = 1
        offset += size
    return FMatrix(ctx, rows)


def as_partition(parts) -> Partition:
    return Partition(parts)
