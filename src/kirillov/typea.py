"""Jordan-type counts for strictly upper triangular matrices.

The counting polynomials satisfy a recursion over removable cells of the
Young diagram: for a partition of n with dual d,

    P(lam) = sum over removable cells (row, col) of
             (q^(n - d[col]) - q^(n - 1 - d[col - 1])) * P(lam minus cell)

where the subtracted term is omitted for cells in column 1.  This module
implements the recursion, the structural statistics of the split form
q^a (q-1)^b R, a brute-force census oracle over small fields, the n = 4
conjugacy-type table reconciliation, and the scan for partitions whose
R-factor is reducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import comb

import numpy as np

from ._kernels import (
    DEFAULT_BATCH,
    DEFAULT_BUDGET,
    FieldTables,
    assemble,
    cut_ranges,
    decode_mixed_radix,
    encode_sequences,
    merge_tallies,
    power_rank_sequences,
    run_census,
    single_block_mask,
    tally_keys,
    usable_workers,
)
from .errors import TooLarge, check_budget
from .fields import FieldCtx
from .intpoly import IntPoly, Q, Q_MINUS_1, Verdict, irreducibility, split_qfactors
from .partitions import Partition, jordan_type_from_ranks, partitions_of


def kirillov_recursion(lam: Partition) -> IntPoly:
    """Count of strictly upper triangular matrices of Jordan type ``lam``,
    as an exact polynomial in the field order."""
    return _recurse(lam.parts)


@cache
def _recurse(parts: tuple[int, ...]) -> IntPoly:
    if not parts:
        return IntPoly((1,))
    lam = Partition(parts)
    n = lam.n
    dual = lam.dual().parts
    total = IntPoly()
    for cell in lam.removable_cells():
        y = cell.col
        factor = Q ** (n - dual[y - 1])
        if y >= 2:
            factor = factor - Q ** (n - 1 - dual[y - 2])
        total = total + factor * _recurse(lam.remove_cell(cell.index).parts)
    return total


# ---------------------------------------------------------------------------
# structural statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValuationProfile:
    """Predicted split exponents plus degree/leading coefficient of R."""

    a: int
    b: int
    deg_r: int
    lead_r: int

    def matches(self, split) -> bool:
        """Whether the ``SplitForm`` ``split`` has these exponents and this
        degree and leading coefficient of R."""
        return (split.a == self.a and split.b == self.b
                and split.r.degree == self.deg_r
                and split.r.leading == self.lead_r)


def valuation_profile(lam: Partition) -> ValuationProfile:
    """Split statistics computed from the partition alone.

    a = C(n,2) - C(N,2) - sum d_i d_{i+1} over the dual, b = n - N,
    deg R = sum d_i d_{i+1} - sum_{i>=2} C(d_i + 1, 2), and the leading
    coefficient of R is the hook-length dimension.
    """
    dual = lam.dual().parts
    cross = sum(dual[i] * dual[i + 1] for i in range(len(dual) - 1))
    return ValuationProfile(
        a=comb(lam.n, 2) - comb(len(lam), 2) - cross,
        b=lam.n - len(lam),
        deg_r=cross - sum(comb(dual[i] + 1, 2) for i in range(1, len(dual))),
        lead_r=lam.hook_dimension(),
    )


def conservation_sum(n: int) -> IntPoly:
    """Sum of the counting polynomials over all partitions of n.

    Equals q^C(n,2): every strictly upper triangular matrix has exactly
    one Jordan type.
    """
    total = IntPoly()
    for lam in partitions_of(n):
        total = total + kirillov_recursion(lam)
    return total


# ---------------------------------------------------------------------------
# brute-force census
# ---------------------------------------------------------------------------


def _terms(n: int, coords) -> list:
    """The terms of X whose coordinates are the rows of ``coords``, in the
    census's order: the superdiagonal, then the other strictly upper
    entries row by row; with only n - 1 rows, the superdiagonal alone."""
    positions = ([(i, i + 1) for i in range(n - 1)]
                 + [(i, j) for i in range(n) for j in range(i + 2, n)])
    return [(i, j, x, 1) for (i, j), x in zip(positions, coords)]


def _census_chunk(tables: FieldTables, n: int, prefixes: np.ndarray,
                  ranges: list) -> dict:
    inner = tables.q ** comb(n - 1, 2)
    tally: dict[tuple, int] = {}
    for lo, hi in ranges:
        # matrix lo + i has superdiagonal prefixes[:, (lo + i) // inner];
        # its other entries are the trailing digits of lo + i
        first, last = lo // inner, (hi - 1) // inner
        ends = np.minimum(np.arange(first + 1, last + 2) * inner, hi)
        digits = decode_mixed_radix(lo, hi, tables.q, comb(n, 2),
                                    dtype=tables.dtype).T
        coords = [*prefixes[:, first:last + 1].repeat(
            np.diff(ends, prepend=lo), axis=1), *digits[n - 1:]]
        mats = assemble(_terms(n, coords), n, hi - lo, tables)
        del coords  # the repeated prefixes are not kept through the ranks
        seqs = power_rank_sequences(tables.embed(mats.transpose(2, 0, 1)),
                                    tables)
        tally_keys(tally, encode_sequences(seqs), n - 1)
    return tally


def brute_force_census(n: int, ctx: FieldCtx, workers: int = 1,
                       budget: int = DEFAULT_BUDGET) -> dict[Partition, int]:
    """Tally Jordan types of all strictly upper triangular n x n matrices.

    The q^(n-1) settings of the superdiagonal (the prefixes) are decoded
    once.  X is a single Jordan block exactly when its superdiagonal
    entries are all nonzero (``single_block_mask``), so each such prefix
    adds q^C(n-1,2) matrices, one for every setting of the other entries,
    with the sequence (n-1, ..., 1).  Every matrix of the other prefixes
    is ranked: their matrices, prefix by prefix with the entries above
    the superdiagonal as a mixed-radix counter, are cut into index ranges
    of sizes differing by at most one (the work units of ``run_census``),
    and each range is assembled and ranked in one batch.  There are as
    few ranges of at most ``DEFAULT_BATCH`` as there can be, rounded up
    to a multiple of the workers that run at once (as many as there are
    usable CPUs), so that every worker gets as many ranges; never more
    ranges than matrices.  Returns the per-partition counts.
    Raises TooLarge when the matrices exceed ``budget``, or over GF(p^k)
    the q^2 entries of each gather table, checked before any table is
    built; OverflowError when the field's values overflow int64
    (``FieldTables``), checked before anything is counted; and ValueError
    unless ``workers`` >= 1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    check_budget(ctx.q ** comb(n, 2), budget, "matrices")
    if ctx.k > 1:
        check_budget(ctx.q**2, budget, f"GF({ctx.q}) table entries")
    tables = FieldTables(ctx, n)
    prefixes = decode_mixed_radix(0, ctx.q ** (n - 1), ctx.q, n - 1,
                                  dtype=tables.dtype).T
    single = single_block_mask(n, _terms(n, prefixes), ctx.p,
                               prefixes.shape[1])
    inner = ctx.q ** comb(n - 1, 2)
    singles = {(tuple(range(n - 1, 0, -1)),):
               int(np.count_nonzero(single)) * inner}
    prefixes = prefixes.compress(~single, axis=1)
    space = prefixes.shape[1] * inner
    count = -(-space // DEFAULT_BATCH)
    parts = usable_workers(workers)
    count = min(space, -(-count // parts) * parts)
    tally = run_census(_census_chunk, (tables, n, prefixes),
                       cut_ranges(0, space, count), workers)
    return merge_tallies([singles, tally],
                         lambda key: jordan_type_from_ranks(key[0], n))


# ---------------------------------------------------------------------------
# the n = 4 conjugacy-type table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VlaRow:
    """One transcribed conjugacy-type row for n = 4.

    ``conjugacy_type`` lists the six entry markers in the fixed entry
    order (3,4) < (2,3) < (2,4) < (1,2) < (1,3) < (1,4); the class count
    is q^q_exp * (q-1)^bullets.
    """

    conjugacy_type: str
    jordan: Partition
    q_exp: int
    bullets: int

    @property
    def count(self) -> IntPoly:
        return Q**self.q_exp * Q_MINUS_1**self.bullets


def _row(type_str: str, jordan: tuple, q_exp: int) -> VlaRow:
    return VlaRow(conjugacy_type=type_str, jordan=Partition(jordan),
                  q_exp=q_exp, bullets=type_str.count("•"))


VLA_TABLE_N4 = (
    _row("θ,θ,θ,θ,θ,θ", (1, 1, 1, 1), 0),
    _row("θ,θ,θ,θ,θ,•", (2, 1, 1), 0),
    _row("θ,θ,•,θ,θ,0", (2, 1, 1), 1),
    _row("θ,•,0,θ,0,θ", (2, 1, 1), 2),
    _row("•,θ,0,θ,θ,0", (2, 1, 1), 2),
    _row("•,θ,0,•,•,0", (3, 1), 2),
    _row("θ,θ,θ,θ,•,0", (2, 1, 1), 1),
    _row("θ,θ,•,θ,•,0", (2, 2), 1),
    _row("θ,•,0,θ,0,•", (2, 2), 2),
    _row("•,θ,0,θ,•,0", (3, 1), 2),
    _row("•,•,0,θ,0,0", (3, 1), 3),
    _row("θ,θ,θ,•,0,0", (2, 1, 1), 2),
    _row("θ,θ,•,•,0,0", (3, 1), 2),
    _row("θ,•,0,•,0,0", (3, 1), 3),
    _row("•,θ,0,•,θ,0", (2, 2), 2),
    _row("•,•,0,•,0,0", (4,), 3),
)

ADJOINT_ORBIT_COUNT_N4 = IntPoly((0, -2, 1, 2))  # 2q^3 + q^2 - 2q


@dataclass
class VlaTableReport:
    """Outcome of reconciling the transcribed table against the recursion."""

    identities: list  # (partition, table_sum, recursion_poly, ok)
    class_count: IntPoly
    class_count_expected: IntPoly

    @property
    def class_count_ok(self) -> bool:
        return self.class_count == self.class_count_expected

    @property
    def passed(self) -> bool:
        return self.class_count_ok and all(ok for *_, ok in self.identities)


def vla_table_n4() -> VlaTableReport:
    """Check the two table identities: per-Jordan-type sums equal the
    recursion output, and the conjugacy-class count matches."""
    sums: dict[Partition, IntPoly] = {}
    classes = IntPoly()
    for row in VLA_TABLE_N4:
        sums[row.jordan] = sums.get(row.jordan, IntPoly()) + row.count
        classes = classes + Q_MINUS_1**row.bullets
    identities = []
    for lam in partitions_of(4):
        table_sum = sums.get(lam, IntPoly())
        expected = kirillov_recursion(lam)
        identities.append((lam, table_sum, expected, table_sum == expected))
    return VlaTableReport(identities=identities, class_count=classes,
                          class_count_expected=ADJOINT_ORBIT_COUNT_N4)


# ---------------------------------------------------------------------------
# reducibility scan
# ---------------------------------------------------------------------------


@dataclass
class ScanReport:
    """Irreducibility verdicts for all R-factors with n <= n_max."""

    n_max: int
    verdicts: dict  # Partition -> Verdict
    reducible: list  # (Partition, factors tuple)


def reducibility_scan(n_max: int = 10) -> ScanReport:
    """Factor every R with n <= n_max; collect the reducible ones.

    Every reported factorization is re-multiplied against R before it is
    returned.  Raises TooLarge, naming the partition and deg R, when a
    Kronecker search would exceed ``intpoly.KRONECKER_BUDGET``.
    """
    verdicts: dict[Partition, Verdict] = {}
    reducible = []
    for n in range(1, n_max + 1):
        for lam in partitions_of(n):
            r = split_qfactors(kirillov_recursion(lam)).r
            try:
                verdict = irreducibility(r)
            except TooLarge as exc:
                raise TooLarge(f"R{lam.parts} of degree {r.degree}: "
                               f"{exc}") from exc
            verdicts[lam] = verdict
            if verdict.is_reducible:
                product = IntPoly((1,))
                for f in verdict.factors:
                    product = product * f
                if product != r:
                    raise AssertionError(f"factors of R for {lam} do not multiply back")
                reducible.append((lam, verdict.factors))
    return ScanReport(n_max=n_max, verdicts=verdicts, reducible=reducible)
