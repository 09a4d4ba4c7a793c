import pytest

from kirillov.errors import NotNilpotent, NotPrime
from kirillov.fields import (
    FieldCtx,
    FMatrix,
    field_of_order,
    make_prime_field,
    rank_sequence,
)
from kirillov.intpoly import IntPoly, ddf_degrees


def test_prime_field_examples():
    ctx = make_prime_field(5)
    assert ctx.inv(2) == 3
    assert make_prime_field(2).inv(1) == 1
    with pytest.raises(NotPrime):
        make_prime_field(6)
    with pytest.raises(NotPrime):
        make_prime_field(1)


def test_extension_field_moduli():
    gf4 = FieldCtx(2, 2)
    assert gf4.modulus == (1, 1, 1)  # x^2 + x + 1, the only irreducible choice
    gf9 = FieldCtx(3, 2)
    # brute-force check: x^2 + 1 has no roots mod 3, hence irreducible
    assert all((x * x + 1) % 3 for x in range(3))
    assert gf9.modulus == (1, 0, 1)
    with pytest.raises(NotPrime):
        FieldCtx(4, 2)
    # the encoding of every extension field hangs on the modulus search
    pinned = {4: (1, 1, 1), 8: (1, 1, 0, 1), 9: (1, 0, 1),
              16: (1, 1, 0, 0, 1), 25: (2, 0, 1), 27: (1, 2, 0, 1),
              32: (1, 0, 1, 0, 0, 1), 49: (1, 0, 1), 81: (2, 1, 0, 0, 1),
              121: (1, 0, 1), 125: (1, 1, 0, 1), 169: (2, 0, 1)}
    for q, modulus in pinned.items():
        assert field_of_order(q).modulus == modulus, q


def test_field_contexts_pickle_by_value():
    # a context pickles by value, so it can cross a process boundary
    import pickle

    for q in (7, 49):
        ctx = field_of_order(q)
        copy = pickle.loads(pickle.dumps(ctx))
        assert copy == ctx and hash(copy) == hash(ctx)
        assert (copy.q, copy.modulus) == (ctx.q, ctx.modulus)


def test_modulus_is_irreducible_by_ddf():
    for p, k in ((2, 2), (2, 3), (3, 2), (5, 2), (5, 3), (7, 2), (2, 4)):
        ctx = FieldCtx(p, k)
        assert ddf_degrees(IntPoly(ctx.modulus), p) == [k]


def test_field_axioms_exhaustive_small_orders():
    for q in (2, 3, 4, 5, 8, 9, 25):
        ctx = field_of_order(q)
        elements = range(q)
        for x in elements:
            assert ctx.add(x, 0) == x
            assert ctx.mul(x, 1) == x
            assert ctx.add(x, ctx.sub(0, x)) == 0
            if x:
                assert ctx.mul(x, ctx.inv(x)) == 1
        for x in elements:
            for y in elements:
                assert ctx.add(x, y) == ctx.add(y, x)
                assert ctx.mul(x, y) == ctx.mul(y, x)
                assert ctx.sub(x, y) == ctx.add(x, ctx.sub(0, y))
                for z in elements[:: max(1, q // 5)]:
                    assert ctx.mul(x, ctx.add(y, z)) == ctx.add(
                        ctx.mul(x, y), ctx.mul(x, z))
                    assert ctx.mul(ctx.mul(x, y), z) == ctx.mul(x, ctx.mul(y, z))


def test_field_of_order():
    assert field_of_order(7).k == 1
    assert field_of_order(49).k == 2
    assert field_of_order(8).q == 8
    with pytest.raises(NotPrime):
        field_of_order(6)
    with pytest.raises(NotPrime):
        field_of_order(12)


def test_quadratic_character_matches_explicit_squares():
    for q in (5, 7, 9, 11, 13, 25, 49):
        ctx = field_of_order(q)
        squares = {ctx.mul(x, x) for x in range(q)}
        for x in range(q):
            char = ctx.quadratic_character(x)
            if x == 0:
                assert char == 0
            elif x in squares:
                assert char == 1
            else:
                assert char == -1


def test_rank_basic():
    ctx = make_prime_field(5)
    assert FMatrix(ctx, [[0] * 7 for _ in range(7)]).rank() == 0
    assert FMatrix(ctx, [[int(i == j) for j in range(7)]
                         for i in range(7)]).rank() == 7
    m = FMatrix(ctx, [[1, 2], [2, 4]])
    assert m.rank() == 1


def test_rank_product_bound_on_samples():
    import random

    rng = random.Random(7)
    for q in (2, 5, 9):
        ctx = field_of_order(q)
        for _ in range(25):
            n = rng.randrange(1, 6)
            a = FMatrix(ctx, [[rng.randrange(q) for _ in range(n)] for _ in range(n)])
            b = FMatrix(ctx, [[rng.randrange(q) for _ in range(n)] for _ in range(n)])
            assert (a @ b).rank() <= min(a.rank(), b.rank())


def test_rank_invariant_under_permutation():
    import random

    rng = random.Random(3)
    ctx = make_prime_field(7)
    for _ in range(20):
        n = 5
        rows = [[rng.randrange(7) for _ in range(n)] for _ in range(n)]
        m = FMatrix(ctx, rows)
        perm = list(range(n))
        rng.shuffle(perm)
        permuted = FMatrix(ctx, [rows[i] for i in perm])
        assert permuted.rank() == m.rank()


def test_rank_sequence_properties():
    ctx = make_prime_field(5)
    nil = FMatrix(ctx, [
        [0, 1, 0],
        [0, 0, 1],
        [0, 0, 0],
    ])
    seq = rank_sequence(nil)
    assert seq == (2, 1)
    assert all(seq[i] >= seq[i + 1] for i in range(len(seq) - 1))
    with pytest.raises(NotNilpotent):
        rank_sequence(FMatrix(ctx, [[int(i == j) for j in range(4)]
                                    for i in range(4)]))


def test_rank_sequence_zero_stays_zero():
    import random

    rng = random.Random(11)
    ctx = make_prime_field(5)
    for _ in range(40):
        n = 5
        rows = [[rng.randrange(5) if j > i else 0 for j in range(n)]
                for i in range(n)]
        seq = rank_sequence(FMatrix(ctx, rows))
        for i in range(len(seq) - 1):
            assert seq[i] >= seq[i + 1]
            if seq[i] == 0:
                assert seq[i + 1] == 0
