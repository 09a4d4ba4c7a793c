import multiprocessing as mp
import os
import platform
import random
import resource
import subprocess
import sys
import time
import tracemalloc
from functools import lru_cache
from math import comb
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kirillov._kernels import (
    FieldTables,
    _band_product,
    _generator_powers,
    _mod_p,
    assemble,
    cut_ranges,
    decode_mixed_radix,
    decode_sequence,
    encode_sequences,
    power_rank_sequences,
    rank_batch,
    run_census,
    single_block_mask,
)
from kirillov.errors import NotAField
from kirillov.fields import (
    FieldCtx,
    FMatrix,
    field_of_order,
    make_prime_field,
    rank_sequence,
)

from conftest import deadline

# the fields of the property tests: p in {5, 7, 11, 13}, k in {1, 2, 3}
FIELDS = [(p, k) for p in (5, 7, 11, 13) for k in (1, 2, 3)]
# share of nonzero entries, from all nonzero (single Jordan blocks when
# strictly upper) to all zero
DENSITIES = (1.0, 0.9, 0.6, 0.3, 0.1, 0.0)


@lru_cache(maxsize=1)  # the GF(13^3) tables take about 60 MB
def _field(p: int, k: int) -> tuple[FieldCtx, FieldTables]:
    ctx = FieldCtx(p, k)
    return ctx, FieldTables(ctx, 6)


def _random_rows(rng, q: int, nrows: int, ncols: int, upper: bool):
    density = rng.choice(DENSITIES)
    return [[rng.randrange(1, q) if (j > i or not upper)
             and rng.random() < density else 0
             for j in range(ncols)] for i in range(nrows)]


def test_dtype_switches_where_the_products_leave_int32():
    # a mod-p product of 28 x 28 matrices: int32 holds 28 (p-1)^2 up to
    # p = 8758, between the primes 8753 and 8761, and well short of 8999
    m = 28
    assert m * 8757**2 < 2**31 <= m * 8758**2
    assert FieldTables(make_prime_field(8753), m).dtype is np.int32
    assert FieldTables(make_prime_field(8761), m).dtype is np.int64
    assert FieldTables(make_prime_field(8999), m).dtype is np.int64
    assert FieldTables(make_prime_field(8999), 7).dtype is np.int32
    # the worst case at the switch point is exact in the chosen type
    for p in (8753, 8761):
        mats = np.full((1, m, m), p - 1,
                       dtype=FieldTables(make_prime_field(p), m).dtype)
        assert int(np.matmul(mats, mats)[0, 0, 0]) == m * (p - 1) ** 2
    with pytest.raises(OverflowError):
        FieldTables(make_prime_field(2**31 - 1), 28)


@pytest.mark.parametrize("p, dtype", [(5, np.int8), (7, np.int16),
                                      (67, np.int16), (71, np.int32)])
def test_dtype_narrows_to_int8_and_int16_where_the_products_fit(p, dtype):
    # 7 products of residues mod p: 112 (p = 5) fits int8 and 252 (p = 7)
    # does not; 30,492 (p = 67) fits int16 and 34,300 (p = 71) does not
    assert FieldTables(make_prime_field(p), 7).dtype is dtype
    mats = np.full((1, 7, 7), p - 1, dtype=dtype)
    worst = np.matmul(mats, mats)[0, 0, 0]
    assert worst.dtype == dtype and int(worst) == 7 * (p - 1) ** 2


def test_field_tables_check_the_bound_before_building_a_table(monkeypatch):
    # a walk over the 2^31 - 1 (or 2^32) elements would take minutes and
    # gigabytes; the element type is refused before it starts
    import kirillov._kernels as kernels

    def walk(ctx):
        raise AssertionError(f"GF({ctx.q}) was walked before its bound "
                             f"was checked")

    monkeypatch.setattr(kernels, "_generator_powers", walk)
    with pytest.raises(OverflowError, match="int64"):
        FieldTables(make_prime_field(2**31 - 1), 28)
    with pytest.raises(OverflowError, match="int64"):
        FieldTables(FieldCtx(2, 32))


def test_power_ranks_refuse_a_dtype_the_products_overflow():
    tables = FieldTables(make_prime_field(8761), 28)  # above the switch
    mats = np.zeros((1, 28, 28), dtype=np.int32)
    with pytest.raises(OverflowError, match="int32"):
        power_rank_sequences(mats, tables)


def test_rank_batch_refuses_a_dtype_the_delayed_reduction_overflows():
    # the elimination reduces only the current column and the pivot row,
    # so with c columns an entry can accumulate c (p-1)^2 before it is
    # reduced: 28 columns at p = 8761 leave int32, 27 do not
    tables = FieldTables(make_prime_field(8761), 28)
    assert 27 * 8760**2 < 2**31 <= 28 * 8760**2
    with pytest.raises(OverflowError, match="int32"):
        rank_batch(np.zeros((1, 5, 28), dtype=np.int32), tables)
    assert list(rank_batch(np.zeros((1, 28, 27), dtype=np.int32),
                           tables)) == [0]


class _NotToEliminate(np.ndarray):
    """A batch that fails the test if the elimination reads a column of
    it (or of its copy, which keeps the subclass)."""

    def __getitem__(self, key):
        raise AssertionError("a column of an all-zero batch was read")


@pytest.mark.parametrize("q", [7, 9])
def test_rank_batch_returns_all_zero_batches_without_eliminating(q):
    ctx = field_of_order(q)
    tables = FieldTables(ctx, 6)
    for shape in ((0, 5, 5), (4, 3, 3), (3, 2, 6), (2, 6, 1)):
        zeros = np.zeros(shape, dtype=tables.dtype).view(_NotToEliminate)
        ranks = rank_batch(zeros, tables)
        assert ranks.shape == (shape[0],) and not ranks.any()
        assert ranks.dtype == tables.dtype


@pytest.mark.parametrize("p, dtype", [(3, np.int8), (31, np.int16),
                                      (37, np.int32), (8753, np.int32),
                                      (8761, np.int64)])
def test_rank_batch_is_exact_at_the_edge_of_its_dtype(p, dtype):
    # 28 columns of residues mod p: the widest band the dtype holds (int8
    # up to p = 3, int16 up to p = 35, int32 up to p = 8758, see above),
    # dense enough that every entry accumulates many unreduced products
    ctx = make_prime_field(p)
    tables = FieldTables(ctx, 28)
    assert tables.dtype is dtype
    rng = random.Random(p)
    rows = [[[p - 1] * 28 for _ in range(28)]]
    for density in (1.0, 1.0, 0.9, 0.5):
        rows.append([[rng.randrange(1, p) if rng.random() < density else 0
                      for _ in range(28)] for _ in range(28)])
    # rank-deficient: the last rows are combinations of the first ones
    base = rows[1]
    for _ in range(8):
        coeffs = [rng.randrange(p) for _ in range(3)]
        base = base + [[sum(c * x for c, x in zip(coeffs, col)) % p
                        for col in zip(*base[:3])]]
    rows.append(base[:20] + base[28:])
    band = np.array(rows, dtype=dtype)
    expected = [FMatrix(ctx, m).rank() for m in rows]
    assert expected[0] == 1 and expected[-1] <= 20 and 28 in expected
    assert [int(r) for r in rank_batch(band, tables)] == expected
    # a non-square slice of the same batch
    sub = band[:, 3:, :]
    expected = [FMatrix(ctx, [[0] * 28] * 3 + m[3:]).rank() for m in rows]
    assert [int(r) for r in rank_batch(sub, tables)] == expected


def _g2_slice(ctx: FieldCtx, a: int, rng, size: int) -> list:
    """Rows of the g2 matrix X for ``size`` random tuples with the given a.

    Every entry of X^3 is a multiple of a^2 f, so X^3 = 0 when a = 0.
    """
    from kirillov.g2 import G2Params, x_of

    return [list(x_of(G2Params(a, *(rng.randrange(ctx.q) for _ in range(5))),
                      ctx).rows) for _ in range(size)]


@pytest.mark.parametrize("q", [7, 25])
def test_power_ranks_stop_multiplying_past_the_first_zero_power(q,
                                                                monkeypatch):
    import kirillov._kernels as kernels

    ctx = field_of_order(q)
    tables = FieldTables(ctx, 7)
    rng = random.Random(q)
    zero_from_3 = _g2_slice(ctx, 0, rng, 60)
    mixed = zero_from_3[:30] + [_random_rows(rng, q, 7, 7, upper=True)
                                for _ in range(30)]
    shapes, products, batch_last = [], [], []
    rank = kernels.rank_batch
    band_product = kernels._band_product

    def counted_rank(mats, t):
        shapes.append(mats.shape)
        batch_last.append(mats.transpose(1, 2, 0).flags.c_contiguous)
        return rank(mats, t)

    def counted_product(t, power, base, i):
        products.append(i)
        return band_product(t, power, base, i)

    monkeypatch.setattr(kernels, "rank_batch", counted_rank)
    monkeypatch.setattr(kernels, "_band_product", counted_product)
    for rows, last_product in ((zero_from_3, 3), (mixed, 6)):
        shapes.clear()
        products.clear()
        batch_last.clear()
        seqs = power_rank_sequences(np.array(rows, dtype=tables.dtype), tables)
        assert [tuple(int(x) for x in seq) for seq in seqs] == \
            [rank_sequence(FMatrix(ctx, row)) for row in rows]
        # one rank per power on every matrix passed in, single Jordan
        # blocks included, on the band of each power, zero or not
        assert shapes == [(len(rows), 7 - i, 7 - i) for i in range(1, 7)]
        if ctx.k > 1:
            assert products == list(range(2, last_product + 1))
        # the all-zero bands past the first zero power are built batch-last
        assert batch_last[last_product:] == [True] * (6 - last_product)
    # the mixed batch: X^3 = 0 on its g2 rows but not on every random one
    assert all(seq[2:] == (0, 0, 0, 0) for seq in map(tuple, seqs[:30]))
    assert any(seq[2] > 0 for seq in map(tuple, seqs[30:]))


def test_power_ranks_refuse_a_dtype_the_table_indices_overflow():
    # extension fields multiply by table gathers, not integer matmuls, so
    # the type only has to hold the indices x*q + y, whatever the size
    assert FieldTables(field_of_order(25), 1000).dtype is np.int16
    tables = FieldTables(field_of_order(125))  # indices up to 125^2 - 1
    with pytest.raises(OverflowError, match="int8"):
        power_rank_sequences(np.zeros((1, 3, 3), dtype=np.int8), tables)


def test_rank_batch_refuses_a_dtype_the_table_indices_overflow():
    # over GF(25) an int8 index x*q + y wraps (it reaches 24*25 + 24), and
    # the gathers would then read wrong sums and products; int16 holds it
    ctx = field_of_order(25)
    tables = FieldTables(ctx)
    rng = random.Random(25)
    mats = []
    for _ in range(300):  # rank <= 1: outer products u v^T
        u = [rng.randrange(25) for _ in range(4)]
        v = [rng.randrange(1, 25) for _ in range(4)]
        mats.append([[ctx.mul(x, y) for y in v] for x in u])
    with pytest.raises(OverflowError, match="int8"):
        rank_batch(np.array(mats, dtype=np.int8), tables)
    ranks = rank_batch(np.array(mats, dtype=np.int16), tables)
    assert [int(r) for r in ranks] == [FMatrix(ctx, m).rank() for m in mats]


def test_field_tables_size_the_dtype_by_the_embedded_dimension():
    ctx = make_prime_field(8761)
    assert FieldTables(ctx).dtype is np.int32
    assert FieldTables(ctx, 28).dtype is np.int64
    # over GF(p^k) the type holds the table indices up to q^2 - 1 and the
    # ranks up to n, each at the exact switch point
    gf4 = field_of_order(4)
    for n, dtype in ((127, np.int8), (128, np.int16), (2**15 - 1, np.int16),
                     (2**15, np.int32), (2**31 - 1, np.int32),
                     (2**31, np.int64)):
        assert FieldTables(gf4, n).dtype is dtype
    for q, dtype in ((9, np.int8), (16, np.int16), (169, np.int16),
                     (243, np.int32)):
        assert FieldTables(field_of_order(q), 7).dtype is dtype


def test_ranks_beyond_the_element_type_raise_rather_than_wrap():
    # over GF(4) the indices fit int8, but a rank of 130 does not: it
    # would wrap to -126
    ctx = field_of_order(4)
    tables = FieldTables(ctx, 130)
    assert tables.dtype is np.int16
    eye = np.eye(130, dtype=np.int8)[None]
    with pytest.raises(OverflowError, match="int8"):
        rank_batch(eye, tables)
    assert rank_batch(eye.astype(tables.dtype), tables).tolist() == [130]
    # two nilpotent Jordan blocks of size 65: X^i has rank 2 (65 - i)
    blocks = np.eye(130, k=1, dtype=np.int8)
    blocks[64, 65] = 0
    with pytest.raises(OverflowError, match="int8"):
        power_rank_sequences(blocks[None], tables)
    seqs = power_rank_sequences(blocks[None].astype(tables.dtype), tables)
    assert seqs.tolist() == [[2 * max(65 - i, 0) for i in range(1, 130)]]


def test_one_bound_covers_products_indices_and_ranks():
    # GF(p): the products of m residues; GF(p^k): the table indices up to
    # q^2 - 1, or the ranks once m is larger
    assert FieldTables(make_prime_field(7), 7).bound(7) == 7 * 36
    assert FieldTables(make_prime_field(2)).bound(130) == 130
    gf4 = FieldTables(field_of_order(4), 200)
    assert gf4.bound(5) == 15 and gf4.bound(200) == 200
    assert gf4.dtype is np.int16
    # a wide batch is refused on its column count even where its ranks,
    # at most 5, and its indices would fit int8
    mats = np.zeros((2, 5, 200), dtype=np.int8)
    mats[0, :, :5] = np.eye(5, dtype=np.int8)
    mats[1, 0, 199] = 1
    with pytest.raises(OverflowError, match="200 columns overflow int8"):
        rank_batch(mats, gf4)
    assert rank_batch(mats.astype(np.int16), gf4).tolist() == [5, 1]


@pytest.mark.parametrize("q", [4, 8, 9, 25, 27, 49])
def test_field_tables_match_the_field_arithmetic(q):
    ctx = field_of_order(q)
    t = FieldTables(ctx)
    for x in range(q):
        assert t.inv_t[x] == (ctx.inv(x) if x else 0)
        for y in range(q):
            assert t.add_t[x, y] == ctx.add(x, y)
            assert t.sub_t[x, y] == ctx.sub(x, y)
            assert t.mul_t[x, y] == ctx.mul(x, y)
        for m in (-4, 3, ctx.p + 2):
            assert t.scale_int(m, x) == ctx.scale_int(m, x)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_prime_field_tables_match_the_field_arithmetic(p):
    # over GF(p) the inverses come from the generator's logarithms, as over
    # GF(p^k); GF(2) has the generator 1, whose only power is g^0
    ctx = make_prime_field(p)
    t = FieldTables(ctx)
    assert t.inv_t[0] == 0
    for x in range(1, p):
        assert t.inv_t[x] == ctx.inv(x) == pow(x, -1, p)
    for x in range(p):
        for m in (-4, 3, p + 2):
            assert t.scale_int(m, x) == ctx.scale_int(m, x)
    if p == 2:
        assert _generator_powers(ctx).tolist() == [1]


def test_generator_search_raises_on_a_product_that_is_not_a_field():
    # multiplication mod 8 has no element of order 7, and 2, 4 and 6 walk
    # into 0 and never come back to 1; the fake raises instead of letting
    # an unbounded walk grow its list of powers
    calls = []

    def mul(x, y):
        calls.append(None)
        if len(calls) > 10_000:
            raise RuntimeError("the generator walk did not stop")
        return x * y % 8

    with pytest.raises(NotAField, match=r"GF\(8\)"):
        _generator_powers(SimpleNamespace(q=8, mul=mul))
    assert len(calls) <= 7 * 6


def test_rank_sequence_packing_round_trip_and_range():
    seqs = np.array([[15, 0, 7], [0, 0, 0]], dtype=np.int32)
    keys = encode_sequences(seqs)
    assert [decode_sequence(int(k), 3) for k in keys] == [(15, 0, 7), (0, 0, 0)]
    for bad in (16, -1):
        with pytest.raises(OverflowError, match="4-bit"):
            encode_sequences(np.array([[1, bad]], dtype=np.int32))


def test_rank_sequence_packing_refuses_more_ranks_than_the_key_holds():
    # 17 ranks of 4 bits would shift the first out of the int64 key, so
    # (1, 0, ..., 0) and (0, ..., 0) would share key 0 and their tallies
    # would merge
    seqs = np.zeros((2, 17), dtype=np.int8)
    seqs[0, 0] = 1
    with pytest.raises(OverflowError, match="17 ranks"):
        encode_sequences(seqs)
    # 16 ranks fill the key; a first rank of 15 sets its sign bit
    edge = np.array([list(range(15, -1, -1)), [15] + [0] * 15,
                     [0] * 15 + [15], [0] * 16], dtype=np.int8)
    keys = encode_sequences(edge)
    assert keys[0] < 0 and keys[1] < 0 and len(set(keys.tolist())) == 4
    assert ([decode_sequence(int(k), 16) for k in keys]
            == [tuple(row) for row in edge.tolist()])


# the narrowest type that holds 16^m - 1, the largest key of m ranks
# (int16 for the 3 ranks of type A at n = 4, int32 for the 6 of g2); 16
# ranks fill an int64, sign bit included
KEY_TYPES = {m: np.int8 if m == 1 else np.int16 if m <= 3 else
             np.int32 if m <= 7 else np.int64 for m in range(1, 17)}


@pytest.mark.parametrize("m", range(1, 17))
def test_rank_keys_are_the_narrowest_type_that_holds_them(m):
    zeros = np.zeros((2, m), dtype=np.int8)
    fifteens = np.full((2, m), 15, dtype=np.int16)
    for seqs in (zeros, fifteens):
        keys = encode_sequences(seqs)
        assert keys.dtype == KEY_TYPES[m]
        assert [decode_sequence(int(k), m) for k in keys] == \
            [tuple(row) for row in seqs.tolist()]
    widths = (np.int8, np.int16, np.int32, np.int64)
    narrower = widths[:widths.index(KEY_TYPES[m])]
    assert all(16**m - 1 > np.iinfo(t).max for t in narrower)
    # all fifteens is 16^m - 1, or -1 once the first rank takes the sign bit
    assert int(encode_sequences(fifteens)[0]) == (16**m - 1 if m < 16 else -1)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 8, 15, 16])
def test_distinct_rank_sequences_get_distinct_keys(m):
    rng = np.random.default_rng(m)
    seqs = rng.integers(0, 16, size=(3000, m)).astype(np.int32)
    keys = encode_sequences(seqs)
    assert len(np.unique(keys)) == len(np.unique(seqs, axis=0))
    assert [decode_sequence(int(k), m) for k in keys[:200]] == \
        [tuple(row) for row in seqs[:200].tolist()]


@pytest.mark.parametrize("q", [7, 9])
def test_power_ranks_agree_with_exact_elimination(q):
    # batches mixing single Jordan blocks (all superdiagonal entries
    # nonzero) with every sparser shape are compared with exact
    # per-matrix linear algebra
    ctx = field_of_order(q)
    n = 5
    tables = FieldTables(ctx, n)
    rng = random.Random(q)
    rows = []
    for density in DENSITIES:
        for _ in range(40):
            rows.append([[rng.randrange(1, q) if j > i and rng.random() < density
                          else 0 for j in range(n)] for i in range(n)])
    mats = np.array(rows, dtype=tables.dtype)
    seqs = power_rank_sequences(tables.embed(mats), tables)
    kinds = set()
    for row, seq in zip(rows, seqs):
        expected = rank_sequence(FMatrix(ctx, row))
        assert tuple(int(x) for x in seq) == expected, row
        kinds.add(expected)
    assert (4, 3, 2, 1) in kinds and (0, 0, 0, 0) in kinds and len(kinds) > 4


@pytest.mark.parametrize("q", [7, 9])
def test_power_ranks_with_no_all_or_some_single_jordan_blocks(q):
    # the kernel ranks single Jordan blocks (no superdiagonal zero) like
    # any other matrix, although the censuses count them before assembly;
    # batches with none, only and some of them, down to n = 2
    ctx = field_of_order(q)
    rng = random.Random(q)
    for n in (2, 3, 5):
        tables = FieldTables(ctx, n)
        regular = [[[rng.randrange(1, q) if j == i + 1 else
                     rng.randrange(q) if j > i else 0 for j in range(n)]
                    for i in range(n)] for _ in range(20)]
        other = []
        for row in regular:
            row = [r[:] for r in row]
            gap = rng.randrange(n - 1)
            row[gap][gap + 1] = 0
            other.append(row)
        block = tuple(range(n - 1, 0, -1))
        assert all(rank_sequence(FMatrix(ctx, row)) == block
                   for row in regular)
        for rows in (regular, other, regular[:7] + other[:9] + regular[7:]):
            seqs = power_rank_sequences(np.array(rows, dtype=tables.dtype),
                                        tables)
            assert seqs.shape == (len(rows), n - 1)
            assert seqs.dtype == tables.dtype
            assert [tuple(int(x) for x in seq) for seq in seqs] == \
                [rank_sequence(FMatrix(ctx, row)) for row in rows]


@pytest.mark.parametrize("q", [7, 9])
def test_single_block_mask_finds_the_matrices_of_one_jordan_block(q):
    # X is assembled from terms coeff * value; a superdiagonal entry is
    # zero where its value is, where its coefficient is a multiple of p,
    # or where X has no term; the mask must agree with the exact rank
    # sequences
    ctx = field_of_order(q)
    rng = random.Random(q)
    size = 300
    for n in (1, 2, 4, 5):
        block = tuple(range(n - 1, 0, -1))
        for trial in range(12):
            density = (1.0, 0.95, 0.6, 0.0)[trial % 4]
            terms = []
            for i in range(n):
                for j in range(i + 1, n):
                    if j == i + 1 and trial == 11:
                        continue  # no term on this superdiagonal position
                    coeff = rng.choice((1, 2, -1, ctx.p + 3) if trial != 10
                                       else (ctx.p, 2 * ctx.p))
                    if j == i + 2 and trial % 3 == 0:
                        value = rng.randrange(q)  # one value for all
                    else:
                        value = np.array([rng.randrange(1, q)
                                          if rng.random() < density else 0
                                          for _ in range(size)])
                    terms.append((i, j, value, coeff))
            mats = [[[0] * n for _ in range(n)] for _ in range(size)]
            for i, j, value, coeff in terms:
                for m in range(size):
                    v = int(value if np.isscalar(value) else value[m])
                    mats[m][i][j] = ctx.scale_int(coeff, v)
            single = single_block_mask(n, terms, ctx.p, size)
            assert single.dtype == bool and single.shape == (size,)
            assert single.tolist() == \
                [rank_sequence(FMatrix(ctx, m)) == block for m in mats]


@pytest.mark.parametrize("q", [7, 25])
def test_assembled_g2_batch_is_the_matrix_x_of_each_tuple(q):
    # the terms of X for one a and a batch of (f, b, c, d, e), as the g2
    # census builds them, assemble to x_of of every tuple; over GF(25)
    # every coefficient other than 1 is scaled by a table gather.  The
    # census fixes a and decodes f per tuple, or fixes f and decodes a
    import kirillov.g2 as g2

    ctx = field_of_order(q)
    tables = FieldTables(ctx, g2.DIM)
    rng = random.Random(q)
    for fixed in range(q):
        for a_fixed in (True, False):
            lead, b, c, d, e = np.array(
                [[rng.randrange(q) for _ in range(40)] for _ in range(5)],
                dtype=tables.dtype)
            a, f = (fixed, lead) if a_fixed else (lead, fixed)
            mats = assemble(g2._terms(a, f, (b, c, d, e)), g2.DIM, 40, tables)
            assert mats.shape == (g2.DIM, g2.DIM, 40)
            assert mats.dtype == tables.dtype
            for m in range(40):
                params = g2.G2Params(*(int(x if np.ndim(x) == 0 else x[m])
                                       for x in (a, b, c, d, e, f)))
                assert [tuple(row) for row in mats[:, :, m].tolist()] == \
                    list(g2.x_of(params, ctx).rows)


@pytest.mark.parametrize("n, q", [(3, 4), (4, 4), (5, 2)])
def test_assembled_type_a_batch_holds_its_coordinates_above_the_diagonal(
        n, q):
    # every strictly upper n x n matrix over GF(q), decoded as type A
    # decodes it (the superdiagonal first, then the other entries row by
    # row, which differs from column by column from n = 5 on), holds its
    # coordinates there and zeros elsewhere
    import kirillov.typea as typea

    width = comb(n, 2)
    tables = FieldTables(field_of_order(q), n)
    coords = decode_mixed_radix(0, q**width, q, width, tables.dtype).T
    mats = assemble(typea._terms(n, coords), n, q**width, tables)
    expected = np.zeros((n, n, q**width), dtype=tables.dtype)
    diag = np.arange(n - 1)
    expected[diag, diag + 1] = coords[:n - 1]
    expected[np.triu_indices(n, 2)] = coords[n - 1:]
    assert mats.dtype == tables.dtype and np.array_equal(mats, expected)


def test_assemble_rejects_two_terms_on_one_position():
    # each entry is written once, so a second term on a position would be
    # lost; here the entry (0, 2) of a type-A terms list appears twice
    import kirillov.typea as typea

    tables = FieldTables(field_of_order(5), 3)
    coords = np.arange(15, dtype=tables.dtype).reshape(3, 5) % 5
    terms = typea._terms(3, coords)
    assert assemble(terms, 3, 5, tables)[0, 2].tolist() == \
        coords[2].tolist()
    with pytest.raises(AssertionError, match="share a position"):
        assemble(terms + [(0, 2, coords[0], 1)], 3, 5, tables)
    # an empty batch writes no term, and is checked all the same
    empty = typea._terms(3, coords[:, :0])
    assert assemble(empty, 3, 0, tables).shape == (3, 3, 0)
    with pytest.raises(AssertionError, match="share a position"):
        assemble(empty + [(0, 2, coords[0, :0], 1)], 3, 0, tables)


@pytest.mark.parametrize("lo, hi, count", [
    (0, 43_561, 2), (0, 158_193, 6), (7, 7, 0), (3, 10, 7), (5, 105, 3)])
def test_cut_ranges_tiles_its_range_in_sizes_differing_by_at_most_one(
        lo, hi, count):
    ranges = cut_ranges(lo, hi, count)
    assert len(ranges) == count
    if count:
        assert ranges[0][0] == lo and ranges[-1][1] == hi
        assert all(prev[1] == nxt[0] for prev, nxt in zip(ranges, ranges[1:]))
        sizes = [y - x for x, y in ranges]
        assert min(sizes) > 0 and max(sizes) - min(sizes) <= 1


@pytest.mark.parametrize("q", [7, 9])
def test_rank_batch_with_a_column_that_has_a_pivot_in_some_matrices_only(q):
    # column 0 has a pivot in the first two matrices and none in the
    # others, whose first free row must stay free for a later column
    ctx = field_of_order(q)
    tables = FieldTables(ctx, 4)
    rows = [
        [[1, 2, 3], [4, 5, 6], [0, 1, 1]],
        [[0, 0, 0], [3, 1, 0], [2, 0, 1]],
        [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
        [[0, 0, 1], [0, 1, 0], [0, 0, 0]],
        [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
    ]
    ranks = rank_batch(np.array(rows, dtype=tables.dtype), tables)
    assert [int(r) for r in ranks] == [_padded_rank(ctx, m) for m in rows]
    assert [int(r) for r in ranks][2:] == [1, 2, 0]


@pytest.mark.parametrize("p, k", FIELDS)
@given(n=st.integers(2, 6), size=st.integers(1, 12),
       seed=st.integers(0, 2**32 - 1))
def test_power_ranks_match_exact_rank_sequences(p, k, n, size, seed):
    ctx, tables = _field(p, k)
    rng = random.Random(seed)
    rows = [_random_rows(rng, ctx.q, n, n, upper=True) for _ in range(size)]
    seqs = power_rank_sequences(np.array(rows, dtype=tables.dtype), tables)
    assert [tuple(int(x) for x in seq) for seq in seqs] == \
        [rank_sequence(FMatrix(ctx, row)) for row in rows]


@pytest.mark.parametrize("p, dtype", [(8753, np.int32), (8761, np.int64)])
@given(n=st.integers(2, 6), size=st.integers(1, 12),
       seed=st.integers(0, 2**32 - 1))
def test_power_ranks_match_exact_rank_sequences_at_the_dtype_switch(
        p, dtype, n, size, seed):
    # tables sized for 28 x 28 products sit on either side of the switch
    # (int32 up to p = 8758, see above), and the same kernels then run on
    # the small batches in the chosen type
    ctx = make_prime_field(p)
    tables = FieldTables(ctx, 28)
    assert tables.dtype is dtype
    rng = random.Random(seed)
    rows = [_random_rows(rng, p, n, n, upper=True) for _ in range(size)]
    seqs = power_rank_sequences(np.array(rows, dtype=dtype), tables)
    assert [tuple(int(x) for x in seq) for seq in seqs] == \
        [rank_sequence(FMatrix(ctx, row)) for row in rows]


def _padded_rank(ctx: FieldCtx, rows: list) -> int:
    """Rank of a (possibly non-square) matrix by ``FMatrix``, which is
    square: padded with zero rows or columns."""
    side = max(len(rows), len(rows[0]))
    return FMatrix(ctx, [[row[j] if j < len(row) else 0 for j in range(side)]
                         for row in rows]
                   + [[0] * side] * (side - len(rows))).rank()


@pytest.mark.parametrize("p, k", FIELDS)
@given(nrows=st.integers(1, 6), ncols=st.integers(1, 6),
       size=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_rank_batch_matches_exact_rank_on_band_slices(p, k, nrows, ncols,
                                                      size, seed):
    # a non-square, non-contiguous slice of a batch, as power_rank_sequences
    # passes the band of a power
    ctx, tables = _field(p, k)
    rng = random.Random(seed)
    full = np.array([_random_rows(rng, ctx.q, 6, 6, upper=False)
                     for _ in range(size)], dtype=tables.dtype)
    band = full[:, :nrows, 6 - ncols:]
    expected = [_padded_rank(ctx, m.tolist()) for m in band]
    assert [int(r) for r in rank_batch(band, tables)] == expected


@pytest.mark.parametrize("q", [7, 9])
def test_rank_batch_reaches_rows_below_later_leading_ones(q):
    # rows out of lead order (a row's lead is its first column that is
    # nonzero in some matrix of the batch): column 0 has to reach row 1
    # past the zero row 0, so the rows an elimination step touches end at
    # the last row with lead <= col, not after as many rows as lead there
    ctx = field_of_order(q)
    tables = FieldTables(ctx, 4)
    batches = (
        [[[0, 0, 1], [1, 0, 0]]],
        [[[0, 0, 0], [0, 0, 0], [0, 2, 1]], [[0, 0, 0], [0, 0, 0], [0, 0, 0]]],
        [[[0, 0, 0, 3], [0, 0, 0, 0], [1, 1, 0, 0], [0, 1, 0, 0]],
         [[0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [2, 0, 5, 1]]],
    )
    for rows in batches:
        ranks = rank_batch(np.array(rows, dtype=tables.dtype), tables)
        assert [int(r) for r in ranks] == [_padded_rank(ctx, m) for m in rows]


@pytest.mark.parametrize("p, k", FIELDS)
@given(nrows=st.integers(1, 6), ncols=st.integers(1, 6),
       size=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_rank_batch_matches_exact_rank_with_shuffled_leads(p, k, nrows, ncols,
                                                           size, seed):
    # every row is zero left of a column shared by the whole batch (its
    # lead, ncols for an all-zero row), and the leads are in random order
    ctx, tables = _field(p, k)
    rng = random.Random(seed)
    leads = [rng.randrange(ncols + 1) for _ in range(nrows)]
    rows = [[[rng.randrange(ctx.q) if j >= leads[i] else 0
              for j in range(ncols)] for i in range(nrows)]
            for _ in range(size)]
    ranks = rank_batch(np.array(rows, dtype=tables.dtype), tables)
    assert [int(r) for r in ranks] == [_padded_rank(ctx, m) for m in rows]


def _edge_batches(q: int, kind: str) -> list:
    """Batches of 30 matrices over GF(q), each entry nonzero with
    probability 0.6 unless ``kind`` zeroes it, at an edge of the column
    rules of ``rank_batch``."""
    rng = random.Random(f"{q} {kind}")

    def batch(nrows, ncols, zero=lambda i, j: False):
        return [[[rng.randrange(1, q) if not zero(i, j) and rng.random() < 0.6
                  else 0 for j in range(ncols)] for i in range(nrows)]
                for _ in range(30)]

    if kind == "r x 1":
        return [batch(r, 1) for r in range(1, 7)]
    if kind == "1 x c":
        return [batch(1, c) for c in range(1, 7)]
    if kind == "column 0 on row 0 only":
        return [batch(r, c, lambda i, j: i > 0 and j == 0)
                for r, c in ((2, 2), (3, 3), (4, 6), (6, 6))]
    return [batch(r, c, lambda i, j, mid=mid: j == mid)
            for r, c, mid in ((3, 3, 1), (4, 5, 2), (6, 6, 3))]


@pytest.mark.parametrize("kind", ["r x 1", "1 x c", "column 0 on row 0 only",
                                  "zero middle column"])
@pytest.mark.parametrize("q", [7, 9, 25])
def test_rank_batch_is_exact_where_columns_skip_the_row_update(q, kind):
    # an r x 1 band has only a last column, which adds its pivots without
    # an update; every column of a 1 x c band reaches row 0 alone, so row
    # 0 pivots at most once however many of its entries are nonzero; a
    # column 0 that reaches one row is followed by a column 1 that reaches
    # several; and a column that is zero in every matrix has no pivot
    ctx = field_of_order(q)
    tables = FieldTables(ctx, 6)
    seen = set()
    for rows in _edge_batches(q, kind):
        mats = np.array(rows, dtype=tables.dtype)
        if kind == "column 0 on row 0 only":
            assert mats[:, 1:, 1].any()
        expected = [_padded_rank(ctx, m) for m in rows]
        assert [int(r) for r in rank_batch(mats, tables)] == expected, rows
        seen.update(expected)
    if kind in ("r x 1", "1 x c"):
        assert seen == {0, 1}


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 127])
@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64])
def test_mod_p_equals_the_remainder(dtype, p):
    # every value of int8 and int16; for the wider types a random sample
    # and both ends, where x // p * p wraps below the minimum
    info = np.iinfo(dtype)
    if info.bits <= 16:
        x = np.arange(info.min, info.max + 1, dtype=dtype)
    else:
        rng = np.random.default_rng(p)
        x = np.concatenate([
            rng.integers(info.min, info.max, 1 << 16, dtype=dtype,
                         endpoint=True),
            np.array([info.min, info.min + 1, -1, 0, 1, info.max],
                     dtype=dtype)])
    expected = x % p
    got = _mod_p(x, p)
    assert got is x and got.dtype == dtype
    assert np.array_equal(got, expected)


def test_mod_p_allocates_one_temporary():
    # x - x // p * p as one expression holds x // p and its product with
    # p at once, two arrays the size of x; numpy reports its buffers to
    # tracemalloc
    x = np.arange(1 << 19, dtype=np.int16)  # 1 MiB
    expected = x % 7
    tracemalloc.start()
    try:
        _mod_p(x, 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(x, expected)
    assert x.nbytes <= peak < 1.5 * x.nbytes


@pytest.mark.parametrize("p", [5, 7, 11])
def test_band_products_hold_residues_over_prime_fields(p):
    # every band of X^2 .. X^(n-1) must come out reduced into 0..p-1, not
    # only congruent to the power: an entry off by a multiple of p would
    # still rank alike wherever the kernels reduce again, so the bands
    # are compared with the exact powers, on batches that hold p - 1
    n = 7
    tables = FieldTables(make_prime_field(p), n)
    rng = random.Random(p)
    rows = [[[p - 1 if j > i else 0 for j in range(n)] for i in range(n)]]
    rows += [[[p - 1 if j > i and rng.random() < 0.5 else
               rng.randrange(p) if j > i else 0 for j in range(n)]
              for i in range(n)] for _ in range(80)]
    assert sum(row.count(p - 1) for m in rows for row in m) > 800
    x = np.array(rows, dtype=tables.dtype).transpose(1, 2, 0).copy()
    exact = np.array(rows, dtype=np.int64)
    power, want = x, exact
    for i in range(2, n):
        power = _band_product(tables, power, x, i)
        want = want @ exact % p
        assert power.dtype == tables.dtype
        assert 0 <= power.min() and power.max() <= p - 1, i
        assert np.array_equal(power.transpose(2, 0, 1), want[:, :n - i]), i


def _competing_rows(rng, q: int, n: int, col: int) -> list:
    """An n x n matrix over GF(q) whose column ``col`` has no pivot
    candidate in row 0 but two or more in later rows: row 0 is zero there
    (col = 0) or has already pivoted in column 0 (col = 1)."""
    rows = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
    if col == 1:
        rows[0][0] = rng.randrange(1, q)
        for row in rows[1:]:
            row[0] = 0
    rows[0][col] = 0
    rivals = rng.sample(range(1, n), rng.randrange(2, n))
    for r in range(1, n):
        rows[r][col] = rng.randrange(1, q) if r in rivals else 0
    return rows


@pytest.mark.parametrize("q, dtype", [(5, np.int8), (7, np.int16),
                                      (9, np.int8), (25, np.int16)])
@pytest.mark.parametrize("col", [0, 1])
def test_rank_batch_picks_the_first_of_several_later_pivot_rows(q, dtype,
                                                                 col):
    # the one-hot pivot must keep only the first candidate row of each
    # matrix; GF(5) at n = 7 runs on int8, whose maximum 127 is just above
    # the bound 7 (5-1)^2 = 112 of the delayed reduction
    n = 7
    ctx = field_of_order(q)
    tables = FieldTables(ctx, n)
    assert tables.dtype is dtype
    rng = random.Random(f"{q} {col}")
    rows = [_competing_rows(rng, q, n, col) for _ in range(40)]
    for ncols in (n, 3):
        band = [[row[:ncols] for row in m] for m in rows]
        ranks = rank_batch(np.array(band, dtype=dtype), tables)
        assert [int(r) for r in ranks] == \
            [_padded_rank(ctx, m) for m in band]


def _layouts(rows: list, dtype) -> dict:
    """One batch in the layouts the kernels may be given: C-contiguous
    (B, n, n), the (B, n, n) view of a C-contiguous batch-last (n, n, B)
    array (as the censuses pass it), and a strided slice of a larger
    buffer."""
    c_order = np.array(rows, dtype=dtype)
    batch_last = c_order.transpose(1, 2, 0).copy(order="C")
    bsize, nrows, ncols = c_order.shape
    buffer = np.full((2 * bsize, nrows + 2, ncols + 3), 1, dtype=dtype)
    buffer[::2, 1:nrows + 1, 2:ncols + 2] = c_order
    return {"c_order": c_order, "batch_last": batch_last.transpose(2, 0, 1),
            "strided": buffer[::2, 1:nrows + 1, 2:ncols + 2]}


@pytest.mark.parametrize("q", [7, 9])
def test_kernels_give_equal_results_on_every_layout_and_keep_the_input(q):
    ctx = field_of_order(q)
    n = 6
    tables = FieldTables(ctx, n)
    rng = random.Random(q)
    upper = [_random_rows(rng, q, n, n, upper=True) for _ in range(60)]
    general = [_random_rows(rng, q, n - 1, n, upper=False) for _ in range(60)]
    sequences = [rank_sequence(FMatrix(ctx, m)) for m in upper]
    ranks = [_padded_rank(ctx, m) for m in general]
    for name, mats in _layouts(upper, tables.dtype).items():
        saved = mats.copy()
        seqs = power_rank_sequences(mats, tables)
        assert [tuple(int(x) for x in seq) for seq in seqs] == sequences, name
        assert np.array_equal(mats, saved), name
    for name, mats in _layouts(general, tables.dtype).items():
        saved = mats.copy()
        assert [int(r) for r in rank_batch(mats, tables)] == ranks, name
        assert np.array_equal(mats, saved), name


def _division_decode(start: int, stop: int, radix: int, width: int):
    """The digits of start..stop-1 divided out of every index, one digit at
    a time: the slow oracle of ``decode_mixed_radix``."""
    idx = np.arange(start, stop, dtype=np.int64)
    digits = np.empty((width, stop - start), dtype=np.int64)
    for pos in range(width - 1, -1, -1):
        digits[pos] = idx % radix
        idx //= radix
    return digits.T


def test_decode_mixed_radix_from_a_nonzero_start_across_a_carry():
    radix, width = 7, 4
    start, stop = 7**3 - 5, 2 * 7**3 + 9  # the third digit carries into the top
    digits = decode_mixed_radix(start, stop, radix, width, np.int32)
    assert len(digits) == stop - start
    expected = _division_decode(start, stop, radix, width).tolist()
    assert digits.tolist() == expected
    assert expected[4] == [0, 6, 6, 6] and expected[5] == [1, 0, 0, 0]


@given(data=st.data(), radix=st.integers(2, 49), width=st.integers(0, 6))
def test_decode_mixed_radix_matches_the_division_decode(data, radix, width):
    # from any start, ranges from empty to several periods of the low
    # digits (a period of the digit of weight w is radix * w indices)
    space = radix**width
    start = data.draw(st.integers(0, space), label="start")
    stop = start + data.draw(st.integers(0, min(space - start, 3000)),
                             label="count")
    digits = decode_mixed_radix(start, stop, radix, width, np.int32)
    assert digits.shape == (stop - start, width)
    assert digits.dtype == np.int32
    assert np.array_equal(digits, _division_decode(start, stop, radix, width))


@pytest.mark.parametrize("start, stop, radix, width", [
    (0, 3 * 49**2 + 5, 49, 3),      # three whole periods of the middle digit
    (49**2 - 1, 49**3, 49, 3),      # from a carry to the top of the space
    (0, 2**6, 2, 6),                # the whole space
    (0, 1, 7, 0),                   # no digits: the space holds one index
    (7**4, 7**4, 7, 4),             # empty, at the top
])
def test_decode_mixed_radix_at_the_edges_of_its_space(start, stop, radix,
                                                      width):
    digits = decode_mixed_radix(start, stop, radix, width, np.int64)
    assert digits.shape == (stop - start, width)
    assert np.array_equal(digits, _division_decode(start, stop, radix, width))


def test_decode_mixed_radix_allocates_per_index_not_per_period():
    # one index at the top of 49^6: a decode that built whole periods of
    # the top digit would allocate 49^6 entries; numpy reports its
    # buffers to tracemalloc
    top = 49**6
    tracemalloc.start()
    try:
        digits = decode_mixed_radix(top - 1, top, 49, 6, np.int64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert digits.tolist() == [[48] * 6]
    assert peak < 1 << 20


@pytest.mark.parametrize("start, stop, radix, width", [
    (0, 7**4 + 1, 7, 4),    # past the top, which would wrap the top digit
    (7**4, 7**4 + 1, 7, 4),
    (0, 2, 7, 0),           # no digits: only index 0
    (-1, 3, 7, 4),
    (5, 4, 7, 4),
    (0, 1, 1, 3),
    (0, 0, 0, 3),
    (0, 0, 7, -1),
])
def test_decode_mixed_radix_refuses_a_range_outside_its_space(start, stop,
                                                              radix, width):
    with pytest.raises(ValueError, match="radix"):
        decode_mixed_radix(start, stop, radix, width, np.int32)


def test_decode_mixed_radix_refuses_a_dtype_its_digits_overflow():
    # digits in radix 200 reach 199, past int8, where 999 = 4 * 200 + 199
    # would decode to [4, -57]; the check does not depend on the range
    for start, stop in ((0, 1000), (0, 10)):
        with pytest.raises(OverflowError, match="int8"):
            decode_mixed_radix(start, stop, 200, 2, np.int8)
    digits = decode_mixed_radix(0, 1000, 200, 2, np.int16)
    assert digits.dtype == np.int16
    assert digits.tolist() == [list(divmod(k, 200)) for k in range(1000)]
    assert decode_mixed_radix(0, 256, 128, 2, np.int8).max() == 127


def _tilings(calls: list) -> int:
    """How many times the recorded decode ranges, in the order they were
    decoded, cover [0, space) exactly; fails on a range that leaves a gap,
    overlaps or leaves the space."""
    tilings, covered = 0, 0
    for start, stop, space in calls:
        assert start == covered and start < stop <= space
        covered = stop % space
        tilings += stop == space
    assert covered == 0
    return tilings


def _non_single_count(n: int, q: int) -> int:
    """The strictly upper n x n matrices over GF(q) with a zero on the
    superdiagonal: all but the q^C(n-1,2) (q-1)^(n-1) single Jordan
    blocks."""
    return q**comb(n, 2) - q**comb(n - 1, 2) * (q - 1) ** (n - 1)


def test_censuses_decode_their_spaces_exactly(monkeypatch):
    # both census callers decode ranges inside radix**width.  Type A
    # decodes the q^(n-1) settings of the superdiagonal once, then each
    # unit's range of the matrices it ranks, as an index below q^C(n,2);
    # the ranges tile those matrices once.  g2 decodes each unit's range
    # of the q^5 tuples (free, b, c, d, e) once, and the ranges tile each
    # enumerated slice (a, f) once: q^2 slices (exhaustive) or 4
    # (weighted).  Every unit runs in this process, with the ranges a
    # two-worker census cuts too
    import kirillov._kernels as kernels
    import kirillov.g2 as g2
    import kirillov.typea as typea

    calls, units = [], []

    def recording(start, stop, radix, width, dtype):
        calls.append((start, stop, radix**width))
        return decode_mixed_radix(start, stop, radix, width, dtype)

    def in_process(chunk, head, work, workers):
        units.extend(work)
        return chunk(*head, work)

    monkeypatch.setattr(kernels, "_usable_cpus", lambda: 2)
    for module in (g2, typea):
        monkeypatch.setattr(module, "decode_mixed_radix", recording)
        monkeypatch.setattr(module, "run_census", in_process)
    for n, q, workers, count in ((5, 3, 1, 2), (4, 4, 2, 2), (4, 9, 1, 5)):
        calls.clear()
        units.clear()
        typea.brute_force_census(n, field_of_order(q), workers=workers)
        assert _tilings(calls[:1]) == 1 and calls[0][2] == q ** (n - 1)
        assert calls[1:] == [(lo, hi, q**comb(n, 2)) for lo, hi in units]
        space = _non_single_count(n, q)
        assert _tilings([(lo, hi, space) for lo, hi in units]) == 1
        assert len(units) == count
    q, inner = 5, 5**4
    for exhaustive, slices in ((True, q**2), (False, 4)):
        calls.clear()
        units.clear()
        g2.g2_census(field_of_order(q), exhaustive=exhaustive)
        assert calls == [(lo, hi, q**5) for _, _, lo, hi, _ in units]
        # each unit's range, cut at the slice boundaries, in the slice
        # (a, f) of each value of its free coordinate
        pieces: dict = {}
        for unit in units:
            _, _, lo, hi, _ = unit
            for free in range(lo // inner, -(-hi // inner)):
                piece = (max(lo, free * inner) - free * inner,
                         min(hi, (free + 1) * inner) - free * inner, inner)
                pieces.setdefault(g2._a_and_f(unit, free), []).append(piece)
        assert len(pieces) == slices
        assert all(_tilings(sorted(p)) == 1 for p in pieces.values())


def _upper_keys(mats: np.ndarray, q: int) -> np.ndarray:
    """Each matrix of a (B, n, n) batch as the integer whose radix-q
    digits are its entries above the diagonal, row by row."""
    rows, cols = np.triu_indices(mats.shape[1], 1)
    weights = q ** np.arange(len(rows) - 1, -1, -1, dtype=np.int64)
    return mats[:, rows, cols].astype(np.int64) @ weights


def _non_single_keys(n: int, q: int) -> np.ndarray:
    """The ``_upper_keys`` of every strictly upper n x n matrix over GF(q)
    with a zero on the superdiagonal, in increasing order."""
    rows, cols = np.triu_indices(n, 1)
    keys = np.arange(q ** len(rows), dtype=np.int64)
    single = np.ones(keys.size, dtype=bool)
    for pos in np.flatnonzero(cols == rows + 1):
        single &= keys // q ** (len(rows) - 1 - pos) % q != 0
    return keys[~single]


@pytest.mark.parametrize("batch", [None, 100])
def test_type_a_census_ranks_each_non_single_matrix_once(monkeypatch, batch):
    # the matrices handed to the rank kernel are, as a multiset, exactly
    # the strictly upper ones with a zero on the superdiagonal.  Every
    # range runs in this process, cut as for 1 to 3 workers; ranges of at
    # most 100 matrices end inside the run of one superdiagonal prefix
    # (q^C(n-1,2) matrices, 729 for n = 5 over GF(3)) or between runs
    import kirillov._kernels as kernels
    import kirillov.typea as typea

    keys = []
    power_ranks = typea.power_rank_sequences

    def recording(mats, t):
        keys.append(_upper_keys(mats, t.q))
        return power_ranks(mats, t)

    monkeypatch.setattr(kernels, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(typea, "power_rank_sequences", recording)
    monkeypatch.setattr(typea, "run_census",
                        lambda chunk, head, work, workers: chunk(*head, work))
    if batch is not None:
        monkeypatch.setattr(typea, "DEFAULT_BATCH", batch)
    for q in (2, 3, 4):
        for n in range(1, 6 if batch is None or q < 4 else 5):
            expected = _non_single_keys(n, q)
            for workers in (1, 2, 3):
                keys.clear()
                typea.brute_force_census(n, field_of_order(q),
                                         workers=workers)
                ranked = np.sort(np.concatenate([np.zeros(0, np.int64)]
                                                + keys))
                assert np.array_equal(ranked, expected), (n, q, workers)


# ---------------------------------------------------------------------------
# the census engine
# ---------------------------------------------------------------------------


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs, so that two workers fork one child on any machine.
    A census that hangs fails after a minute, and no child may outlive
    the test."""
    import kirillov._kernels as kernels

    monkeypatch.setattr(kernels, "_usable_cpus", lambda: 2)
    with deadline(60):
        yield
    assert mp.active_children() == []


def _pid_chunk(share: list) -> dict:
    return {os.getpid(): len(share)}


def _exit_in_child(caller: int, share: list) -> dict:
    if os.getpid() != caller:
        os._exit(3)
    return {}


def _raise_in_caller(caller: int, share: list) -> dict:
    if os.getpid() == caller:
        raise ValueError("the caller's share failed")
    time.sleep(60)
    return {}


def test_census_runs_one_share_in_the_caller_and_one_in_a_child(two_cpus):
    tally = run_census(_pid_chunk, (), list(range(5)), workers=2)
    assert tally.pop(os.getpid()) == 3  # units 0, 2 and 4
    assert list(tally.values()) == [2]


def _large_chunk(share: list) -> dict:
    return {(unit, key): 1 for unit in share for key in range(50_000)}


def test_census_receives_a_tally_larger_than_the_pipe_buffer(two_cpus):
    # about 0.5 MB pickled, so the child blocks in send until it is read
    tally = run_census(_large_chunk, (), [0, 1], workers=2)
    assert len(tally) == 100_000 and set(tally.values()) == {1}


def test_census_reraises_a_predicate_mismatch_from_the_child(two_cpus,
                                                             monkeypatch):
    import kirillov.g2 as g2mod
    from kirillov.errors import PredicateMismatch
    from kirillov.g2 import g2_census

    original = g2mod._predicted_batch
    caller = os.getpid()

    def wrong_in_a_child(t, case, a, f, b, c, d, e):
        out = original(t, case, a, f, b, c, d, e)
        if os.getpid() != caller:
            out[-1, 0] = 0
        return out

    # patched before the fork, so the child inherits the wrong predicate;
    # its weighted share is the slices (0, 1) and (1, 1)
    monkeypatch.setattr(g2mod, "_predicted_batch", wrong_in_a_child)
    with pytest.raises(PredicateMismatch, match=r"=\(0,4,4,4,4,1\)"):
        g2_census(make_prime_field(5), workers=2, exhaustive=False)


def _checking_no_single_blocks(power_ranks, sizes: list):
    """``power_ranks`` behind a check that no matrix it gets is a single
    Jordan block (all superdiagonal entries nonzero); the batch sizes of
    the calls in this process go to ``sizes``.  In a forked child the
    check raises, and the census re-raises it in the caller."""

    def checked(mats, t):
        n = mats.shape[1]
        single = np.ones(len(mats), dtype=bool)
        for i in range(n - 1):
            single &= mats[:, i, i + 1] != 0
        if single.any():
            raise AssertionError(f"{int(single.sum())} single Jordan blocks "
                                 f"of size {n} reached the rank kernel")
        sizes.append(len(mats))
        return power_ranks(mats, t)

    return checked


@pytest.mark.parametrize("workers", [1, 2])
def test_censuses_hand_the_rank_kernel_no_single_jordan_block(two_cpus,
                                                              monkeypatch,
                                                              workers):
    # the censuses count the single Jordan blocks from the decoded
    # superdiagonal and rank only the other matrices: q^C(n,2) -
    # q^C(n-1,2) (q-1)^(n-1) of type A, and the tuples outside case 1
    # (a f != 0) of g2.  Type A decodes its q^(n-1) superdiagonal
    # prefixes once and then ranks each decoded range whole, in one call;
    # g2 ranks each decoded batch in one call
    import kirillov.g2 as g2
    import kirillov.typea as typea

    sizes = []
    for module in (g2, typea):
        monkeypatch.setattr(module, "power_rank_sequences",
                            _checking_no_single_blocks(
                                module.power_rank_sequences, sizes))
    decodes = []

    def counted(start, stop, radix, width, dtype):
        decodes.append(stop - start)
        return decode_mixed_radix(start, stop, radix, width, dtype)

    for module in (g2, typea):
        monkeypatch.setattr(module, "decode_mixed_radix", counted)
    for n, q in ((1, 3), (2, 3), (3, 3), (4, 3), (5, 3), (3, 4), (4, 4)):
        sizes.clear()
        decodes.clear()
        typea.brute_force_census(n, field_of_order(q), workers=workers)
        assert decodes[0] == q ** (n - 1) and sizes == decodes[1:]
        if workers == 1:
            assert sum(sizes) == _non_single_count(n, q)
    q = 5
    for exhaustive, others in ((True, q**6 - q**4 * (q - 1) ** 2),
                               (False, 3 * q**4)):
        sizes.clear()
        decodes.clear()
        g2.g2_census(field_of_order(q), workers=workers,
                     exhaustive=exhaustive)
        assert len(sizes) == len(decodes)
        if workers == 1:
            assert sum(sizes) == others


def test_census_names_the_exit_code_of_a_child_that_dies(two_cpus):
    with pytest.raises(RuntimeError, match="exited with code 3"):
        run_census(_exit_in_child, (os.getpid(),), [0, 1], workers=2)


def test_census_reaps_the_children_when_the_callers_share_raises(two_cpus):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="the caller's share failed"):
        run_census(_raise_in_caller, (os.getpid(),), [0, 1], workers=2)
    # the sleeping child was terminated, not waited for
    assert time.perf_counter() - start < 30


class _InlineFork:
    """Stands in for the fork context: a child runs its target in the
    calling process when it starts, and the children are counted."""

    def __init__(self):
        self.children = 0

    def Pipe(self, duplex=True):
        end = _InlineEnd()
        return end, end

    def Process(self, target, args, daemon):
        def start():
            self.children += 1
            target(*args)

        return SimpleNamespace(start=start, is_alive=lambda: False,
                               join=lambda: None)


class _InlineEnd:
    def __init__(self):
        self.sent = []

    def send(self, obj):
        self.sent.append(obj)

    def recv(self):
        return self.sent.pop(0)

    def close(self):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


@pytest.mark.parametrize("cpus", [None, 3])
def test_censuses_fork_at_most_one_child_per_other_usable_cpu(monkeypatch,
                                                              cpus):
    import kirillov._kernels as kernels
    import kirillov.typea as typea
    from kirillov.g2 import g2_census
    from kirillov.typea import brute_force_census

    if cpus is not None:
        monkeypatch.setattr(kernels, "_usable_cpus", lambda: cpus)
    usable = kernels._usable_cpus()
    fork = _InlineFork()
    monkeypatch.setattr(kernels, "mp",
                        SimpleNamespace(get_context=lambda method: fork))
    units = []

    def capture(chunk, head, share, workers):
        units.append(len(share))
        return run_census(chunk, head, share, workers)

    monkeypatch.setattr(typea, "run_census", capture)
    ctx = make_prime_field(3)
    single = brute_force_census(4, ctx, workers=1)
    assert fork.children == 0
    assert brute_force_census(4, ctx, workers=1000) == single
    assert fork.children == usable - 1
    # the ranges are cut for the usable workers, not for 1000 of them
    assert brute_force_census(4, ctx, workers=usable) == single
    assert units[1] == units[2] < 3**6

    fork.children = 0
    ctx = make_prime_field(7)
    assert g2_census(ctx, workers=1000).cases == g2_census(ctx).cases
    assert fork.children == usable - 1


@pytest.mark.parametrize("workers", [0, -5])
def test_censuses_reject_fewer_than_one_worker(workers):
    from kirillov.g2 import census_cached, g2_census
    from kirillov.typea import brute_force_census

    with pytest.raises(ValueError, match="workers must be >= 1"):
        run_census(_pid_chunk, (), [0, 1], workers)
    with pytest.raises(ValueError, match="workers must be >= 1"):
        g2_census(make_prime_field(5), workers=workers)
    with pytest.raises(ValueError, match="workers must be >= 1"):
        census_cached(5, workers=workers)
    with pytest.raises(ValueError, match="workers must be >= 1"):
        brute_force_census(3, make_prime_field(3), workers=workers)


# What a fresh process prints: the minor faults of a census with no work,
# so of the allocation alone, then those of a second type-A and a second
# weighted g2 census.  Faults count the pages made resident; ru_maxrss
# cannot show them, because a child started by this process begins with
# this process's peak.
_HEAP_PROBE = """
import resource

from kirillov._kernels import run_census
from kirillov.fields import field_of_order
from kirillov.g2 import g2_census
from kirillov.typea import brute_force_census

faults = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_minflt
start = faults()
run_census(lambda share: {}, (), [0], 1)
print(faults() - start)
for census in (lambda: brute_force_census(4, field_of_order(9)),
               lambda: g2_census(field_of_order(13), exhaustive=False)):
    census()
    start = faults()
    census()
    print(faults() - start)
"""


@pytest.mark.skipif(sys.platform != "linux"
                    or platform.libc_ver()[0] != "glibc",
                    reason="the dynamic mmap threshold is glibc's")
def test_census_batches_reuse_heap_pages_without_growing_resident_memory():
    import kirillov

    src = os.path.dirname(os.path.dirname(kirillov.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _HEAP_PROBE], env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True).stdout
    alloc_faults, typea_faults, g2_faults = map(int, out.split())
    # the 2 MiB allocation makes less than 1 MiB resident
    assert alloc_faults * resource.getpagesize() < 1 << 20
    # without the threshold raised, these took about 1,200 and 3,700
    assert typea_faults < 50 and g2_faults < 50
