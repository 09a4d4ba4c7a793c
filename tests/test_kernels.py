import random
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kirillov._kernels import (
    FieldTables,
    decode_sequence,
    dtype_for,
    encode_sequences,
    power_rank_sequences,
    rank_batch,
)
from kirillov.fields import (
    FieldCtx,
    FMatrix,
    field_of_order,
    make_prime_field,
    rank_sequence,
)

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
    # p = 8758, well short of 9000
    m = 28
    assert m * 8757**2 < 2**31 <= m * 8758**2
    assert dtype_for(8758, m) is np.int32
    assert dtype_for(8759, m) is np.int64
    assert dtype_for(8999, m) is np.int64
    assert dtype_for(8999, 7) is np.int32
    # the worst case at the switch point is exact in the chosen type
    for p in (8758, 8759):
        mats = np.full((1, m, m), p - 1, dtype=dtype_for(p, m))
        assert int(np.matmul(mats, mats)[0, 0, 0]) == m * (p - 1) ** 2
    with pytest.raises(OverflowError):
        dtype_for(2**31, 28)


def test_power_ranks_refuse_a_dtype_the_products_overflow():
    tables = FieldTables(make_prime_field(8761), 28)  # above the switch
    mats = np.zeros((1, 28, 28), dtype=np.int32)
    with pytest.raises(OverflowError, match="int32"):
        power_rank_sequences(mats, tables)


def test_power_ranks_refuse_a_dtype_the_table_indices_overflow():
    # extension fields multiply by table gathers, not integer matmuls, so
    # the type only has to hold the indices x*q + y, whatever the size
    assert FieldTables(field_of_order(25), 1000).dtype is np.int32
    tables = FieldTables(field_of_order(125))  # indices up to 125^2 - 1
    with pytest.raises(OverflowError, match="int8"):
        power_rank_sequences(np.zeros((1, 3, 3), dtype=np.int8), tables)


def test_field_tables_size_the_dtype_by_the_embedded_dimension():
    ctx = make_prime_field(8761)
    assert FieldTables(ctx).dtype is np.int32
    assert FieldTables(ctx, 28).dtype is np.int64


@pytest.mark.parametrize("q", [4, 8, 9, 25, 27, 49])
def test_field_tables_match_the_field_arithmetic(q):
    ctx = field_of_order(q)
    t = FieldTables(ctx)
    for x in range(q):
        assert t.neg_t[x] == ctx.neg(x)
        assert t.inv_t[x] == (ctx.inv(x) if x else 0)
        for y in range(q):
            assert t.add_t[x, y] == ctx.add(x, y)
            assert t.sub_t[x, y] == ctx.sub(x, y)
            assert t.mul_t[x, y] == ctx.mul(x, y)


def test_rank_sequence_packing_round_trip_and_range():
    seqs = np.array([[15, 0, 7], [0, 0, 0]], dtype=np.int32)
    keys = encode_sequences(seqs)
    assert [decode_sequence(int(k), 3) for k in keys] == [(15, 0, 7), (0, 0, 0)]
    for bad in (16, -1):
        with pytest.raises(OverflowError, match="4-bit"):
            encode_sequences(np.array([[1, bad]], dtype=np.int32))


@pytest.mark.parametrize("q", [7, 9])
def test_power_ranks_agree_with_exact_elimination(q):
    # the kernel skips single Jordan blocks (all superdiagonal entries
    # nonzero); batches mixing them with every sparser shape are compared
    # with exact per-matrix linear algebra
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
    side = max(nrows, ncols)  # FMatrix is square: pad with zeros
    expected = [FMatrix(ctx, [[int(m[i, j]) if i < nrows and j < ncols else 0
                               for j in range(side)] for i in range(side)]).rank()
                for m in band]
    assert [int(r) for r in rank_batch(band, tables)] == expected
