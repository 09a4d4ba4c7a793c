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

import multiprocessing as mp
from dataclasses import dataclass
from functools import cache
from math import comb

import numpy as np

from ._kernels import (
    FieldTables,
    decode_mixed_radix,
    decode_sequence,
    encode_sequences,
    power_rank_sequences,
)
from .errors import TooLarge
from .fields import FieldCtx
from .intpoly import IntPoly, Q, Q_MINUS_1, Verdict, irreducibility, split_qfactors
from .partitions import Partition, jordan_type_from_ranks, partitions_of

DEFAULT_BUDGET = 200_000_000
DEFAULT_BATCH = 1 << 15


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


def _upper_positions(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _census_chunk(p: int, k: int, modulus, n: int,
                  start: int, stop: int, batch: int) -> dict:
    ctx = FieldCtx(p, k, _modulus=modulus)
    tables = FieldTables(ctx, n)
    positions = _upper_positions(n)
    tally: dict[tuple, int] = {}
    for lo in range(start, stop, batch):
        hi = min(lo + batch, stop)
        digits = decode_mixed_radix(lo, hi, ctx.q, len(positions),
                                    dtype=tables.dtype)
        mats = np.zeros((hi - lo, n, n), dtype=tables.dtype)
        for pos, (i, j) in enumerate(positions):
            mats[:, i, j] = digits[:, pos]
        seqs = power_rank_sequences(tables.embed(mats), tables)
        keys, counts = np.unique(encode_sequences(seqs), return_counts=True)
        for key, cnt in zip(keys, counts):
            t = decode_sequence(int(key), n - 1)
            tally[t] = tally.get(t, 0) + int(cnt)
    return tally


def brute_force_census(n: int, ctx: FieldCtx, workers: int = 1,
                       budget: int = DEFAULT_BUDGET, max_n: int = 6,
                       batch: int = DEFAULT_BATCH) -> dict[Partition, int]:
    """Tally Jordan types of all strictly upper triangular n x n matrices.

    Enumerates all q^(n(n-1)/2) matrices with a mixed-radix counter over
    the free entries, computes rank sequences in batches, and returns the
    per-partition counts.  Raises TooLarge beyond the configured bounds.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > max_n:
        raise TooLarge(f"n={n} exceeds the configured bound {max_n}")
    space = ctx.q ** (n * (n - 1) // 2)
    if space > budget:
        raise TooLarge(f"{space} matrices exceed the budget {budget}")
    if n == 1:
        return {Partition((1,)): 1}
    workers = max(1, int(workers))
    bounds = np.linspace(0, space, workers + 1, dtype=np.int64)
    args = [(ctx.p, ctx.k, ctx.modulus, n, int(lo), int(hi), batch)
            for lo, hi in zip(bounds, bounds[1:]) if lo < hi]
    if len(args) == 1:
        partials = [_census_chunk(*args[0])]
    else:
        with mp.get_context("fork").Pool(len(args)) as pool:
            partials = pool.starmap(_census_chunk, args)
    merged: dict[tuple, int] = {}
    for part in partials:
        for key, cnt in part.items():
            merged[key] = merged.get(key, 0) + cnt
    counts: dict[Partition, int] = {}
    for seq, cnt in merged.items():
        lam = jordan_type_from_ranks(seq, n)
        counts[lam] = counts.get(lam, 0) + cnt
    return counts


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


def reducibility_scan(n_max: int = 10, max_n: int = 12) -> ScanReport:
    """Factor every R with n <= n_max; collect the reducible ones.

    Every reported factorization is re-multiplied against R before it is
    returned.
    """
    if n_max > max_n:
        raise TooLarge(f"scan to n={n_max} exceeds the configured bound {max_n}")
    verdicts: dict[Partition, Verdict] = {}
    reducible = []
    for n in range(1, n_max + 1):
        for lam in partitions_of(n):
            r = split_qfactors(kirillov_recursion(lam)).r
            verdict = irreducibility(r)
            verdicts[lam] = verdict
            if verdict.is_reducible:
                product = IntPoly((1,))
                for f in verdict.factors:
                    product = product * f
                if product != r:
                    raise AssertionError(f"factors of R for {lam} do not multiply back")
                reducible.append((lam, verdict.factors))
    return ScanReport(n_max=n_max, verdicts=verdicts, reducible=reducible)
