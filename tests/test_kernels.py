import random

import numpy as np
import pytest

from kirillov._kernels import (
    FieldTables,
    decode_sequence,
    dtype_for,
    encode_sequences,
    power_rank_sequences,
)
from kirillov.fields import FMatrix, field_of_order, make_prime_field, rank_sequence


def test_dtype_switches_where_the_products_leave_int32():
    # g2 over GF(p^4) multiplies 28 x 28 matrices: int32 holds 28 (p-1)^2
    # up to p = 8758, well short of 9000
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
    p = 8761  # prime, above the int32 switch for m = 28
    mats = np.zeros((1, 28, 28), dtype=np.int32)
    with pytest.raises(OverflowError, match="int32"):
        power_rank_sequences(mats, p, np.zeros(p, dtype=np.int32), 7, 4)


def test_field_tables_size_the_dtype_by_the_embedded_dimension():
    ctx = make_prime_field(8761)
    assert FieldTables(ctx).dtype is np.int32
    assert FieldTables(ctx, 28).dtype is np.int64


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
    for density in (1.0, 0.9, 0.6, 0.3, 0.1, 0.0):
        for _ in range(40):
            rows.append([[rng.randrange(1, q) if j > i and rng.random() < density
                          else 0 for j in range(n)] for i in range(n)])
    mats = np.array(rows, dtype=tables.dtype)
    seqs = power_rank_sequences(tables.embed(mats), ctx.p, tables.inv_mod_p,
                                n, ctx.k)
    kinds = set()
    for row, seq in zip(rows, seqs):
        expected = rank_sequence(FMatrix(ctx, row))
        assert tuple(int(x) for x in seq) == expected, row
        kinds.add(expected)
    assert (4, 3, 2, 1) in kinds and (0, 0, 0, 0) in kinds and len(kinds) > 4
