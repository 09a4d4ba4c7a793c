"""Jordan-type counts for the exceptional Lie algebra g2.

The 14-dimensional algebra acts faithfully on a 7-dimensional space; the
six positive-root basis elements are built from the two generators by
exact integer brackets (with 1/2 and 1/3 scalings that must divide
exactly).  A general positive-root combination is the strictly upper
triangular matrix X parametrized by six field coefficients a..f.  This
module verifies the closed forms of X^2..X^6 symbolically, predicts rank
sequences from polynomial predicates in the parameters, counts the q^6
matrices per Jordan type by census, exhaustively or on the torus-weighted
route (validating the predicates on every tuple it enumerates),
interpolates the counts back to polynomials in q, and checks the leading
coefficients against the Weyl-group dimensions attached to the nilpotent
orbits.

Characteristic 2 and 3 are excluded throughout (the structure constants
involve 2 and 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from types import MappingProxyType
from typing import NamedTuple

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
from .errors import (
    BadCharacteristic,
    DuplicateAbscissa,
    InexactDivision,
    InsufficientPoints,
    PredicateMismatch,
    check_budget,
)
from .fields import FieldCtx, FMatrix, field_of_order, make_prime_field, jordan_type
from .intpoly import IntPoly, Q, Q_MINUS_1, poly_interpolate
from .multipoly import A, B, C, D, E, F, MultiPoly, ZERO
from .partitions import Partition, jordan_type_from_ranks, partitions_of

DIM = 7
DEFAULT_PRIMES = (5, 7, 11, 13, 17, 19, 23)

FULL_RANK_SEQ = (6, 5, 4, 3, 2, 1)

# positive roots m*alpha1 + n*alpha2 as (m, n); alpha1 is the short root
POSITIVE_ROOTS = ((1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2))
# the coefficient letters a..f attach to the roots in this order
PARAM_ROOTS = ((1, 0), (1, 1), (2, 1), (3, 1), (3, 2), (0, 1))


class G2Params(NamedTuple):
    """Field-encoded coefficients of the positive-root basis elements."""

    a: int
    b: int
    c: int
    d: int
    e: int
    f: int


def _require_char(ctx: FieldCtx) -> None:
    if ctx.p <= 3:
        raise BadCharacteristic(f"characteristic must exceed 3, got {ctx.p}")


# ---------------------------------------------------------------------------
# Chevalley construction
# ---------------------------------------------------------------------------


def _matmul(x, y, zero):
    """The product of two 7x7 matrices whose entries add up from ``zero``
    (integers or ``MultiPoly``)."""
    return [[sum((x[i][k] * y[k][j] for k in range(DIM)), zero)
             for j in range(DIM)] for i in range(DIM)]


def _bracket(x, y):
    xy, yx = _matmul(x, y, 0), _matmul(y, x, 0)
    return [[xy[i][j] - yx[i][j] for j in range(DIM)] for i in range(DIM)]


def _scale_exact(mat, divisor: int):
    out = []
    for row in mat:
        new_row = []
        for v in row:
            if v % divisor:
                raise InexactDivision(f"entry {v} is not divisible by {divisor}")
            new_row.append(v // divisor)
        out.append(new_row)
    return out


@cache
def build_chevalley() -> MappingProxyType:
    """The six positive-root matrices of the 7-dimensional representation,
    as a read-only mapping root (m, n) -> 7x7 tuple of tuples of ints
    (every caller shares the cached one).

    The generator images are fixed 7x7 integer matrices; the remaining
    basis elements follow by brackets, with exact divisions by 2 and 3.
    All six come out strictly upper triangular.
    """
    e1 = _sparse({(1, 2): 1, (3, 4): 2, (4, 5): 1, (6, 7): 1}, 0)
    e2 = _sparse({(2, 3): 1, (5, 6): 1}, 0)
    e12 = _bracket(e1, e2)
    e112 = _scale_exact(_bracket(e12, e1), 2)
    e1112 = _scale_exact(_bracket(e112, e1), 3)
    e11122 = _bracket(e1112, e2)
    matrices = {
        (1, 0): e1,
        (0, 1): e2,
        (1, 1): e12,
        (2, 1): e112,
        (3, 1): e1112,
        (3, 2): e11122,
    }
    for root, mat in matrices.items():
        for i in range(DIM):
            for j in range(i + 1):
                if mat[i][j]:
                    raise AssertionError(f"basis element {root} is not strictly upper")
    return MappingProxyType({r: tuple(tuple(row) for row in m)
                             for r, m in matrices.items()})


@cache
def entry_table() -> tuple[tuple[int, int, int, int], ...]:
    """``(i, j, param, coefficient)``: entry (i, j) of X (0-based) holds
    ``coefficient`` times parameter ``param`` (0..5 for a..f).  Derived
    from ``build_chevalley()``; ``verify_displayed_powers`` checks the X
    it assembles against the transcribed template.

    No two terms share a position (``_kernels.assemble`` checks it on
    every batch): by the grading that ``torus_weights`` checks, an entry
    (i, j) of E(m, n) has w_i - w_j = (m, n), so one position lies on one
    root.
    """
    return tuple((i, j, param, v) for param, root in enumerate(PARAM_ROOTS)
                 for i, row in enumerate(build_chevalley()[root])
                 for j, v in enumerate(row) if v)


def x_of(params: G2Params, ctx: FieldCtx) -> FMatrix:
    """The matrix a*E(1,0) + b*E(1,1) + c*E(2,1) + d*E(3,1) + e*E(3,2) + f*E(0,1)
    with entries reduced into ``ctx``."""
    _require_char(ctx)
    rows = [[0] * DIM for _ in range(DIM)]
    for i, j, param, coeff in entry_table():
        rows[i][j] = ctx.add(rows[i][j], ctx.scale_int(coeff, params[param]))
    return FMatrix(ctx, rows)


def torus_weights(matrices=None) -> tuple[tuple[int, int], ...]:
    """Weights of the seven basis vectors, in simple-root coordinates.

    The maximal torus element s = (s1, s2) acts as diag(s1^w1 * s2^w2)
    over the weights w of the basis vectors.  Conjugating by it multiplies
    the coefficient of E(m, n) by s1^m * s2^n exactly when w_i - w_j =
    (m, n) for every nonzero entry (i, j) of E(m, n).  The weights are
    propagated from w = (0, 0) for the first basis vector along those
    entries (of ``build_chevalley()`` unless ``matrices`` is given) and
    then checked against every entry, together with the placement of a on
    the root (1, 0) and f on (0, 1); any failure raises AssertionError.
    """
    if PARAM_ROOTS[0] != (1, 0) or PARAM_ROOTS[-1] != (0, 1):
        raise AssertionError(f"a and f must sit on the simple roots, "
                             f"got {PARAM_ROOTS}")
    if matrices is None:
        matrices = build_chevalley()
    entries = [(i, j, root) for root, mat in matrices.items()
               for i in range(DIM) for j in range(DIM) if mat[i][j]]
    weights = {0: (0, 0)}
    grew = True
    while grew:
        grew = False
        for i, j, (m, n) in entries:
            if j in weights and i not in weights:
                weights[i] = (weights[j][0] + m, weights[j][1] + n)
                grew = True
            elif i in weights and j not in weights:
                weights[j] = (weights[i][0] - m, weights[i][1] - n)
                grew = True
    if len(weights) != DIM:
        raise AssertionError(f"the entries reach only basis vectors "
                             f"{sorted(weights)}")
    for i, j, root in entries:
        diff = (weights[i][0] - weights[j][0], weights[i][1] - weights[j][1])
        if diff != root:
            raise AssertionError(f"entry ({i + 1},{j + 1}) of E{root} joins "
                                 f"weights differing by {diff}")
    return tuple(weights[i] for i in range(DIM))


# ---------------------------------------------------------------------------
# symbolic matrices and the transcribed closed forms
# ---------------------------------------------------------------------------


def symbolic_generic_matrix() -> list[list[MultiPoly]]:
    """X assembled from the Chevalley basis with symbolic coefficients."""
    variables = (A, B, C, D, E, F)
    out = [[ZERO for _ in range(DIM)] for _ in range(DIM)]
    for i, j, param, coeff in entry_table():
        out[i][j] = out[i][j] + coeff * variables[param]
    return out


def reference_matrix(power: int) -> list[list[MultiPoly]]:
    """Transcribed closed form of X^power for power 1..6."""
    z = ZERO
    if power == 1:
        return [
            [z, A, B, 2 * C, D, E, z],
            [z, z, F, -2 * B, -C, z, E],
            [z, z, z, 2 * A, z, -C, -D],
            [z, z, z, z, A, B, C],
            [z, z, z, z, z, F, -B],
            [z, z, z, z, z, z, A],
            [z, z, z, z, z, z, z],
        ]
    if power == 2:
        return [
            [z, z, A * F, z, A * C, B * C + D * F, 2 * A * E - 2 * B * D + 2 * C * C],
            [z, z, z, 2 * A * F, -2 * A * B, -2 * B * B - 2 * C * F, -(B * C) - D * F],
            [z, z, z, z, 2 * A * A, 2 * A * B, A * C],
            [z, z, z, z, z, A * F, z],
            [z, z, z, z, z, z, A * F],
            [z, z, z, z, z, z, z],
            [z, z, z, z, z, z, z],
        ]
    if power == 3:
        aaf = A * A * F
        return _sparse({(1, 4): 2 * aaf, (2, 5): 2 * aaf,
                        (3, 6): 2 * aaf, (4, 7): aaf})
    if power == 4:
        return _sparse({
            (1, 5): 2 * A * A * A * F,
            (1, 6): 2 * A * A * B * F,
            (1, 7): 2 * A * A * C * F,
            (2, 6): 2 * A * A * F * F,
            (2, 7): -2 * A * A * B * F,
            (3, 7): 2 * A * A * A * F,
        })
    if power == 5:
        v = 2 * A * A * A * F * F
        return _sparse({(1, 6): v, (2, 7): v})
    if power == 6:
        return _sparse({(1, 7): 2 * A * A * A * A * F * F})
    raise ValueError(f"no transcribed closed form for power {power}")


def _sparse(entries: dict, zero=ZERO) -> list[list]:
    """The 7x7 matrix with the given 1-based entries and ``zero`` elsewhere."""
    out = [[zero for _ in range(DIM)] for _ in range(DIM)]
    for (i, j), v in entries.items():
        out[i - 1][j - 1] = v
    return out


@dataclass
class PowersReport:
    """Entrywise comparison of computed symbolic powers vs. closed forms."""

    template_mismatches: list  # (i, j, expected, got) for X itself
    power_mismatches: list  # (power, i, j, expected, got)

    @property
    def passed(self) -> bool:
        return not self.template_mismatches and not self.power_mismatches


def verify_displayed_powers() -> PowersReport:
    """Compare symbolic X and X^2..X^6 against the transcribed matrices."""
    generic = symbolic_generic_matrix()
    template = reference_matrix(1)
    template_mismatches = [
        (i + 1, j + 1, template[i][j], generic[i][j])
        for i in range(DIM) for j in range(DIM)
        if generic[i][j] != template[i][j]
    ]
    power_mismatches = []
    current = generic
    for power in range(2, 7):
        current = _matmul(current, generic, ZERO)
        expected = reference_matrix(power)
        for i in range(DIM):
            for j in range(DIM):
                if current[i][j] != expected[i][j]:
                    power_mismatches.append(
                        (power, i + 1, j + 1, expected[i][j], current[i][j]))
    return PowersReport(template_mismatches=template_mismatches,
                        power_mismatches=power_mismatches)


# ---------------------------------------------------------------------------
# rank-sequence prediction
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4)  # the tables of GF(13^3) alone take about 60 MB
def _field_tables(ctx: FieldCtx) -> FieldTables:
    """The ``FieldTables`` of a field, built once per field: contexts hash
    and compare by the field's definition, so equal contexts share them."""
    return FieldTables(ctx)


def predicted_rank_sequence(params: G2Params, ctx: FieldCtx) -> tuple[int, ...]:
    """Rank sequence of X predicted from polynomial predicates alone: the
    one-tuple case of ``_predicted_batch``, which defines the predicates."""
    _require_char(ctx)
    t = _field_tables(ctx)
    a, b, c, d, e, f = params
    b, c, d, e = (np.array([x], dtype=t.dtype) for x in (b, c, d, e))
    return tuple(int(r) for r in
                 _predicted_batch(t, _case_of(a, f), a, f, b, c, d, e)[0])


def _predicted_batch(t: FieldTables, case, a, f, b, c, d, e) -> np.ndarray:
    """Rank sequences of X predicted from polynomial predicates alone, one
    row for each tuple of the b..e arrays (of ``t.dtype``), all in the
    ``case`` of ``_case_of``.  ``f`` is one value or the batch's f column.

    Outside case 1 every power beyond X^2 vanishes, so the sequence is
    determined by rank X and rank X^2:

    1. a, f nonzero: always (6,5,4,3,2,1).
    2. a = 0, f != 0: (2,0,...) iff b^2+cf = 0 = bc+df; otherwise rank X^2
       drops to 1 exactly when (bc+df)^2 - 4(b^2+cf)(c^2-bd) = 0.
    3. a != 0, f = 0: rank X is always 4; rank X^2 is 1 iff 4ae-4bd+3c^2 = 0.
    4. a = f = 0: rank X is 4 unless b = c = 0 (then 2 unless d = e = 0);
       rank X^2 is 1 iff (b != 0 and 3c^2-4bd = 0) or (b = 0 and c != 0).

    These are the only copy of the predicates (``g2_census`` checks them).
    """
    out = np.zeros((6, len(b)), dtype=b.dtype).T  # columns stored batch-last
    if case == 1:
        out[:] = FULL_RANK_SEQ
        return out
    if case == 2:
        u = t.add(t.mul(b, b), t.mul(c, f))
        v = t.add(t.mul(b, c), t.mul(d, f))
        w = t.sub(t.mul(c, c), t.mul(b, d))
        disc = t.sub(t.mul(v, v), t.scale_int(4, t.mul(u, w)))
        quiet = (u == 0) & (v == 0)
        out[:, 0] = np.where(quiet, 2, 4)
        out[:, 1] = np.where(quiet, 0, np.where(disc == 0, 1, 2))
        return out
    if case == 3:
        val = t.add(t.sub(t.scale_int(4, t.mul(a, e)),
                          t.scale_int(4, t.mul(b, d))),
                    t.scale_int(3, t.mul(c, c)))
        out[:, 0] = 4
        out[:, 1] = np.where(val == 0, 1, 2)
        return out
    bc_zero = (b == 0) & (c == 0)
    de_zero = (d == 0) & (e == 0)
    val = t.sub(t.scale_int(3, t.mul(c, c)), t.scale_int(4, t.mul(b, d)))
    out[:, 0] = np.where(bc_zero, np.where(de_zero, 0, 2), 4)
    out[:, 1] = np.where(bc_zero, 0,
                         np.where(b != 0, np.where(val == 0, 1, 2), 1))
    return out


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------


@dataclass
class CensusReport:
    """Per-Jordan-type counts of all q^6 matrices over one field."""

    q: int
    counts: dict  # Partition -> int
    cases: dict  # (case, rank sequence) -> int; case 1: af!=0, 2: a=0, 3: f=0, 4: both
    total: int


def _case_of(a: int, f: int) -> int:
    if a and f:
        return 1
    if f:
        return 2
    if a:
        return 3
    return 4


# The most tuples in one g2 batch (see ``_census_units``): three slices
# over GF(7) keep most of the speed of larger batches for under half their
# memory (BENCH_g2-batches.json, BENCH_g2-ranges.json).
_SHARED_BATCH = DEFAULT_BATCH // 4


def _census_units(q: int, exhaustive: bool) -> list[tuple[int, int, int, int]]:
    """The (a, lo, hi, weight) units a census walks: at fixed a, the index
    range lo..hi-1 of the q^5 tuples (f, b, c, d, e) in radix q, f most
    significant, so that the slice of one f is a run of q^4 indices.

    Each case block is cut into the fewest units of at most
    ``_SHARED_BATCH`` tuples, of sizes differing by at most one
    (``cut_ranges``), so each unit has one case.
    Exhaustive: at every a, the blocks f = 0 and
    f != 0, with weight 1.  Weighted: the torus (see ``torus_weights``)
    scales a by any nonzero s1 and f by any nonzero s2 while it maps the
    (b, c, d, e) of a slice bijectively onto those of the image slice and
    keeps every Jordan type.  So all slices with a != 0 tally alike, and
    likewise for f; the blocks are the slices (a, f) in {0, 1}^2, each
    standing for (q-1)^([a != 0] + [f != 0]) slices.
    """
    inner = q**4
    if exhaustive:
        blocks = [(a, lo, hi, 1) for a in range(q)
                  for lo, hi in ((0, inner), (inner, q * inner))]
    else:
        torus_weights()  # raises unless the basis is graded as assumed above
        blocks = [(a, f * inner, (f + 1) * inner, (q - 1) ** (a + f))
                  for a in (0, 1) for f in (0, 1)]
    return [(a, x, y, weight) for a, lo, hi, weight in blocks
            for x, y in cut_ranges(lo, hi, -(-(hi - lo) // _SHARED_BATCH))]


def _terms(a, fbcde) -> list:
    """The terms of X, as ``_kernels.single_block_mask`` and
    ``_kernels.assemble`` read them, for the value ``a`` and the rows
    (f, b, c, d, e) of a decoded batch."""
    coords = (a, *fbcde[1:], fbcde[0])
    return [(i, j, coords[param], coeff)
            for i, j, param, coeff in entry_table()]


def _g2_chunk(ctx: FieldCtx, units: list) -> dict:
    tables = FieldTables(ctx, DIM)
    q = ctx.q
    tally: dict[tuple, int] = {}
    for a_val, lo, hi, weight in units:
        digits = decode_mixed_radix(lo, hi, q, 5, dtype=tables.dtype).T
        f, b, c, d, e = digits
        case = _case_of(a_val, lo // q**4)
        single = single_block_mask(DIM, _terms(a_val, digits), ctx.p, hi - lo)
        singles = int(np.count_nonzero(single))
        rest = digits
        if singles:
            full = (case, FULL_RANK_SEQ)
            tally[full] = tally.get(full, 0) + weight * singles
            rest = digits.compress(~single, axis=1)
        mats = assemble(_terms(a_val, rest), DIM, rest.shape[1], tables)
        seqs = power_rank_sequences(tables.embed(mats.transpose(2, 0, 1)),
                                    tables)
        # every tuple is checked, the single blocks against (6,5,4,3,2,1)
        computed = seqs
        if singles:
            computed = np.empty((DIM - 1, hi - lo), dtype=tables.dtype).T
            computed[:] = FULL_RANK_SEQ
            computed[~single] = seqs
        pred = _predicted_batch(tables, case, a_val, f, b, c, d, e)
        bad = (computed != pred).any(axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            bcdef = ",".join(str(x[i]) for x in (b, c, d, e, f))
            raise PredicateMismatch(
                f"q={q} params (a,b,c,d,e,f)=({a_val},{bcdef}): predicted "
                f"{tuple(pred[i].tolist())}, "
                f"computed {tuple(computed[i].tolist())}")
        tally_keys(tally, encode_sequences(seqs), DIM - 1, weight, (case,))
    return tally


def _check_budget(q: int, exhaustive: bool, budget: int) -> None:
    """Raise TooLarge when the route enumerates more than ``budget`` tuples."""
    route = "exhaustive" if exhaustive else "weighted"
    check_budget((q**2 if exhaustive else 4) * q**4, budget,
                 f"tuples on the {route} route")


def g2_census(ctx: FieldCtx, workers: int = 1, budget: int = DEFAULT_BUDGET,
              exhaustive: bool = True) -> CensusReport:
    """Tally the Jordan types of all q^6 parameter tuples.

    By default the census walks all q^6 tuples.  ``exhaustive=False``
    enumerates only the 4q^4 tuples with a, f in {0, 1} and weights each
    (a, f) slice by the number of slices its torus orbit covers.  The work
    units of ``run_census`` are the ranges of ``_census_units``, each a
    batch of one case that takes one call of the rank kernel and one of
    the predicate.

    Rank sequences are computed from the matrices themselves.  The single
    Jordan blocks, whose superdiagonal entries a, f, 2a, a, f, a are all
    nonzero (the tuples of case 1), are read off the decoded batch
    (``single_block_mask``) and counted with the sequence
    (6,5,4,3,2,1); only the rest is assembled and ranked.  The polynomial
    predicates of ``_predicted_batch`` are validated against the computed
    sequence for every enumerated tuple, single blocks included, and any
    disagreement aborts the census with PredicateMismatch.  Raises
    BadCharacteristic in characteristic 2 or 3, TooLarge when the route
    enumerates more than ``budget`` tuples, and ValueError unless
    ``workers`` >= 1.
    """
    _require_char(ctx)
    _check_budget(ctx.q, exhaustive, budget)
    cases = run_census(_g2_chunk, (ctx,), _census_units(ctx.q, exhaustive),
                       workers)
    counts = merge_tallies([cases],
                           lambda key: jordan_type_from_ranks(key[1], DIM))
    return CensusReport(q=ctx.q, counts=counts,
                        cases=dict(sorted(cases.items())),
                        total=sum(counts.values()))


_census_cache: dict[tuple[int, bool], CensusReport] = {}


def census_cached(q: int, workers: int = 1, budget: int = DEFAULT_BUDGET,
                  exhaustive: bool = True) -> CensusReport:
    """Census for GF(q), memoized per field order and route (results are pure).

    The budget and the worker count are checked on every call, cached or
    not.
    """
    _check_budget(q, exhaustive, budget)
    usable_workers(workers)
    key = (q, exhaustive)
    if key not in _census_cache:
        _census_cache[key] = g2_census(field_of_order(q), workers=workers,
                                       budget=budget, exhaustive=exhaustive)
    return _census_cache[key]


class CaseCount(NamedTuple):
    case: int
    rank_seq: tuple
    count: int


def closed_form_case_counts(q: int) -> list[CaseCount]:
    """The per-case closed-form tallies, evaluated at q.

    Only the directly counted case/sequence pairs appear; the
    (4,2,0,0,0,0) sequences are recovered by complement.
    """
    _require_char(field_of_order(q))
    return [
        CaseCount(1, FULL_RANK_SEQ, (q - 1) ** 2 * q**4),
        CaseCount(2, (2, 0, 0, 0, 0, 0), q**2 * (q - 1)),
        CaseCount(2, (4, 1, 0, 0, 0, 0), q**2 * (q - 1) ** 2),
        CaseCount(3, (4, 1, 0, 0, 0, 0), q**3 * (q - 1)),
        CaseCount(4, (4, 1, 0, 0, 0, 0), 2 * q**2 * (q - 1)),
        CaseCount(4, (2, 0, 0, 0, 0, 0), (q - 1) * (q + 1)),
        CaseCount(4, (0, 0, 0, 0, 0, 0), 1),
    ]


# ---------------------------------------------------------------------------
# the five counting polynomials
# ---------------------------------------------------------------------------


@cache
def expected_polynomials() -> dict:
    """The five nonzero counting polynomials, in factored closed form."""
    one_plus_2q = IntPoly((1, 2))
    return {
        Partition((7,)): Q**4 * Q_MINUS_1**2,
        Partition((3, 3, 1)): Q**2 * Q_MINUS_1**2 * one_plus_2q,
        Partition((3, 2, 2)): Q**2 * Q_MINUS_1 * one_plus_2q,
        Partition((2, 2, 1, 1, 1)): Q_MINUS_1 * IntPoly((1, 1, 1)),
        Partition((1,) * 7): IntPoly((1,)),
    }


COMPLEMENT_PARTITION = Partition((3, 3, 1))  # recovered as q^6 minus the rest
DEGREE6_PARTITION = Partition((7,))  # the one that needs 7 interpolation points


@dataclass
class InterpolationResult:
    orders: tuple
    polynomials: dict  # Partition -> IntPoly
    routes: dict  # Partition -> "interpolated" | "complement"
    complement_ok: bool
    matches_expected: dict  # Partition -> bool

    @property
    def passed(self) -> bool:
        return self.complement_ok and all(self.matches_expected.values())


def g2_interpolate(orders=None, workers: int = 1, budget: int = DEFAULT_BUDGET,
                   exhaustive: bool = False) -> InterpolationResult:
    """Recover the counting polynomials from censuses at several orders.

    The censuses take the weighted route (q = 23 alone would be 1.5*10^8
    tuples on the exhaustive one) unless ``exhaustive`` is set.

    With >= 7 orders every polynomial is interpolated directly and the
    complement identity (q^6 minus the other four) is cross-checked for
    the (3,3,1) count.  With exactly 6 orders the degree-6 count for (7)
    is recovered through the complement instead, and its census values
    are verified against that polynomial.
    """
    orders = tuple(orders) if orders is not None else DEFAULT_PRIMES
    if len(set(orders)) != len(orders):
        raise DuplicateAbscissa(f"duplicate field orders in {orders}")
    if len(orders) < 6:
        raise InsufficientPoints(
            f"need at least 6 field orders, got {len(orders)}")
    reports = {q: census_cached(q, workers=workers, budget=budget,
                                exhaustive=exhaustive)
               for q in orders}
    lams = list(expected_polynomials().keys())
    points = {lam: [(q, reports[q].counts.get(lam, 0)) for q in orders]
              for lam in lams}

    # the complement (q^6 minus the rest) is checked against the census
    # points of the target: (3,3,1) with >= 7 orders, where agreeing at
    # N >= 7 points is being equal to the degree-<N interpolant, and (7)
    # with 6 orders, too few for its degree 6, where it stands in for it
    many = len(orders) >= 7
    target = COMPLEMENT_PARTITION if many else DEGREE6_PARTITION
    polynomials = {lam: poly_interpolate(points[lam])
                   for lam in lams if lam != target}
    complement = Q**6
    for poly in polynomials.values():
        complement = complement - poly
    complement_ok = all(complement(q) == count for q, count in points[target])
    routes = dict.fromkeys(polynomials, "interpolated")
    polynomials[target] = poly_interpolate(points[target]) if many else complement
    routes[target] = "interpolated" if many else "complement"
    matches = {lam: polynomials[lam] == expected_polynomials()[lam]
               for lam in lams}
    return InterpolationResult(orders=orders, polynomials=polynomials,
                               routes=routes, complement_ok=complement_ok,
                               matches_expected=matches)


# ---------------------------------------------------------------------------
# nilpotent orbits and Weyl-group dimensions
# ---------------------------------------------------------------------------


class SpringerRow(NamedTuple):
    """A nilpotent orbit: weighted Dynkin diagram (short root first),
    representative as a sum of positive-root basis elements, Jordan type,
    and the dimension of the attached Weyl-group representation."""

    orbit: str
    diagram: tuple
    representative: tuple  # roots (m, n) to add up
    partition: Partition
    dimension: int


SPRINGER_TABLE = (
    SpringerRow("0", (0, 0), (), Partition((1,) * 7), 1),
    SpringerRow("A1", (0, 1), ((3, 2),), Partition((2, 2, 1, 1, 1)), 1),
    SpringerRow("A1-tilde", (1, 0), ((2, 1),), Partition((3, 2, 2)), 2),
    SpringerRow("G2(a1)", (0, 2), ((1, 0), (2, 1)), Partition((3, 3, 1)), 2),
    SpringerRow("G2", (2, 2), ((1, 0), (0, 1)), Partition((7,)), 1),
)


@dataclass
class SpringerReport:
    orbit_entries: list  # (orbit, expected partition, computed, lead, dim, ok)
    typea_entries: list  # (partition, leading, hook dimension, ok)

    @property
    def passed(self) -> bool:
        return (all(e[-1] for e in self.orbit_entries)
                and all(e[-1] for e in self.typea_entries))


def springer_check(typea_max_n: int = 8) -> SpringerReport:
    """Check orbit representatives and leading coefficients.

    Each representative is built over GF(5) and its Jordan type compared
    with the tabulated partition; each counting polynomial's leading
    coefficient is compared with the tabulated Weyl-group dimension; and
    for every partition with n <= typea_max_n the type-A leading
    coefficient is compared with the hook-length dimension.
    """
    from .typea import kirillov_recursion

    ctx = make_prime_field(5)
    orbit_entries = []
    for row in SPRINGER_TABLE:
        params = G2Params(*(int(root in row.representative)
                            for root in PARAM_ROOTS))
        computed = jordan_type(x_of(params, ctx))
        lead = expected_polynomials()[row.partition].leading
        ok = computed == row.partition and lead == row.dimension
        orbit_entries.append((row.orbit, row.partition, computed, lead,
                              row.dimension, ok))
    typea_entries = []
    for n in range(1, typea_max_n + 1):
        for lam in partitions_of(n):
            lead = kirillov_recursion(lam).leading
            hook = lam.hook_dimension()
            typea_entries.append((lam, lead, hook, lead == hook))
    return SpringerReport(orbit_entries=orbit_entries,
                          typea_entries=typea_entries)
