import multiprocessing as mp
import os
import random
import signal
import time
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kirillov._kernels import (
    FieldTables,
    decode_mixed_radix,
    decode_sequence,
    dtype_for,
    encode_sequences,
    power_rank_sequences,
    rank_batch,
    run_census,
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


@pytest.mark.parametrize("p, dtype", [(8753, np.int32), (8761, np.int64)])
def test_rank_batch_is_exact_at_the_edge_of_its_dtype(p, dtype):
    # 28 columns of residues mod p: the widest band the dtype holds (int32
    # up to p = 8758, see above), dense enough that every entry
    # accumulates many unreduced products
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
    shapes, products = [], []
    rank = kernels.rank_batch
    band_product = kernels._band_product

    def counted_rank(mats, t):
        shapes.append(mats.shape)
        return rank(mats, t)

    def counted_product(t, power, base, i):
        products.append(i)
        return band_product(t, power, base, i)

    monkeypatch.setattr(kernels, "rank_batch", counted_rank)
    monkeypatch.setattr(kernels, "_band_product", counted_product)
    for rows, last_product in ((zero_from_3, 3), (mixed, 6)):
        shapes.clear()
        products.clear()
        seqs = power_rank_sequences(np.array(rows, dtype=tables.dtype), tables)
        assert [tuple(int(x) for x in seq) for seq in seqs] == \
            [rank_sequence(FMatrix(ctx, row)) for row in rows]
        # one rank per power, on the band of each power, zero or not; the
        # single Jordan blocks (superdiagonal all nonzero) are not ranked
        live = sum(not all(row[i][i + 1] for i in range(6)) for row in rows)
        assert shapes == [(live, 7 - i, 7 - i) for i in range(1, 7)]
        if ctx.k > 1:
            assert products == list(range(2, last_product + 1))
    # the mixed batch: X^3 = 0 on its g2 rows but not on every random one
    assert all(seq[2:] == (0, 0, 0, 0) for seq in map(tuple, seqs[:30]))
    assert any(seq[2] > 0 for seq in map(tuple, seqs[30:]))


def test_power_ranks_refuse_a_dtype_the_table_indices_overflow():
    # extension fields multiply by table gathers, not integer matmuls, so
    # the type only has to hold the indices x*q + y, whatever the size
    assert FieldTables(field_of_order(25), 1000).dtype is np.int32
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


def test_decode_mixed_radix_from_a_nonzero_start_across_a_carry():
    radix, width = 7, 4
    start, stop = 7**3 - 5, 2 * 7**3 + 9  # the third digit carries into the top
    digits = decode_mixed_radix(start, stop, radix, width, np.int32)
    assert len(digits) == stop - start
    expected = []
    for x in range(start, stop):
        row = []
        for _ in range(width):
            x, digit = divmod(x, radix)
            row.append(digit)
        expected.append(row[::-1])
    assert digits.tolist() == expected
    assert expected[4] == [0, 6, 6, 6] and expected[5] == [1, 0, 0, 0]


# ---------------------------------------------------------------------------
# the census engine
# ---------------------------------------------------------------------------


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs, so that two workers fork one child on any machine.
    A census that hangs fails after a minute, and no child may outlive
    the test."""
    import kirillov._kernels as kernels

    def hung(signum, frame):
        raise TimeoutError("the census did not return within 60 s")

    monkeypatch.setattr(kernels, "_usable_cpus", lambda: 2)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
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

    def wrong_in_a_child(t, a, f, b, c, d, e):
        out = original(t, a, f, b, c, d, e)
        if os.getpid() != caller:
            out[-1, 0] = 0
        return out

    # patched before the fork, so the child inherits the wrong predicate;
    # its weighted share is the slices (0, 1) and (1, 1)
    monkeypatch.setattr(g2mod, "_predicted_batch", wrong_in_a_child)
    with pytest.raises(PredicateMismatch, match=r"=\(0,4,4,4,4,1\)"):
        g2_census(make_prime_field(5), workers=2, exhaustive=False)


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
