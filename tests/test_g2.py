import random

import pytest

from kirillov.errors import (
    BadCharacteristic,
    InsufficientPoints,
    NotPrime,
    PredicateMismatch,
    TooLarge,
)
from kirillov.fields import (
    FMatrix,
    field_of_order,
    make_prime_field,
    rank_sequence,
)
from kirillov.g2 import (
    COMPLEMENT_PARTITION,
    DIM,
    PARAM_ROOTS,
    SPRINGER_TABLE,
    G2Params,
    build_chevalley,
    census_cached,
    closed_form_case_counts,
    entry_table,
    expected_polynomials,
    g2_census,
    g2_interpolate,
    predicted_rank_sequence,
    reference_matrix,
    springer_check,
    symbolic_generic_matrix,
    torus_weights,
    verify_displayed_powers,
    x_of,
)
from kirillov.intpoly import (
    IntPoly,
    Q,
    Q_MINUS_1,
    irreducibility,
    poly_interpolate,
    split_qfactors,
)
from kirillov.multipoly import MultiPoly
from kirillov.partitions import Partition, jordan_type_from_ranks


def test_generator_matrices():
    basis = build_chevalley()
    e1 = basis[(1, 0)]
    expected1 = [[0] * 7 for _ in range(7)]
    expected1[0][1] = 1
    expected1[2][3] = 2
    expected1[3][4] = 1
    expected1[5][6] = 1
    assert [list(r) for r in e1] == expected1
    e2 = basis[(0, 1)]
    expected2 = [[0] * 7 for _ in range(7)]
    expected2[1][2] = 1
    expected2[4][5] = 1
    assert [list(r) for r in e2] == expected2


def test_assembled_template_entries():
    generic = symbolic_generic_matrix()
    c = MultiPoly.variable("c")
    b = MultiPoly.variable("b")
    assert generic[0][3] == 2 * c  # entry (1,4)
    assert generic[1][3] == -2 * b  # entry (2,4)
    assert generic == reference_matrix(1)


def test_verify_displayed_powers_clean():
    report = verify_displayed_powers()
    assert report.passed
    assert report.template_mismatches == []
    assert report.power_mismatches == []


def test_power3_structure():
    cube = reference_matrix(3)
    nonzero = {(i + 1, j + 1): cube[i][j]
               for i in range(DIM) for j in range(DIM)
               if not cube[i][j].is_zero()}
    a, f = MultiPoly.variable("a"), MultiPoly.variable("f")
    assert set(nonzero) == {(1, 4), (2, 5), (3, 6), (4, 7)}
    assert nonzero[(4, 7)] == a * a * f
    assert all(nonzero[key] == 2 * a * a * f for key in ((1, 4), (2, 5), (3, 6)))
    # setting a = 0 kills the cube entirely
    for i in range(DIM):
        for j in range(DIM):
            assert cube[i][j].evaluate((0, 1, 2, 3, 4, 5)) == 0


def test_power6_structure():
    six = reference_matrix(6)
    a, f = MultiPoly.variable("a"), MultiPoly.variable("f")
    for i in range(DIM):
        for j in range(DIM):
            expected = 2 * a**4 * f**2 if (i, j) == (0, 6) else MultiPoly()
            assert six[i][j] == expected


def test_symbolic_seventh_power_vanishes():
    from kirillov.g2 import _matmul
    from kirillov.multipoly import ZERO

    generic = symbolic_generic_matrix()
    current = generic
    for _ in range(6):
        current = _matmul(current, generic, ZERO)
    assert all(entry.is_zero() for row in current for entry in row)


def test_x_of_examples():
    ctx = make_prime_field(5)
    zero = x_of(G2Params(0, 0, 0, 0, 0, 0), ctx)
    assert zero.is_zero()
    x = x_of(G2Params(1, 0, 0, 0, 0, 1), ctx)
    assert x.rows[2][3] == 2  # entry (3,4) = 2a
    assert x.rows[1][2] == 1  # entry (2,3) = f
    assert x.rank() == 6
    with pytest.raises(BadCharacteristic):
        x_of(G2Params(1, 0, 0, 0, 0, 1), make_prime_field(3))


def test_x_matches_symbolic_template_on_samples():
    rng = random.Random(77)
    generic = symbolic_generic_matrix()
    for q in (5, 7, 25):
        ctx = field_of_order(q)
        for _ in range(10):
            params = G2Params(*(rng.randrange(q) for _ in range(6)))
            x = x_of(params, ctx)
            for i in range(DIM):
                for j in range(DIM):
                    assert x.rows[i][j] == generic[i][j].evaluate(params, ctx)


def test_x_is_nilpotent_of_order_seven():
    rng = random.Random(3)
    for q in (5, 7, 25, 49):
        ctx = field_of_order(q)
        for _ in range(8):
            params = G2Params(*(rng.randrange(q) for _ in range(6)))
            # raises NotNilpotent unless X^7 = 0
            assert len(rank_sequence(x_of(params, ctx))) == DIM - 1


def test_predicted_rank_sequence_examples():
    ctx = make_prime_field(5)
    rng = random.Random(1)
    for _ in range(10):
        b, c, d, e = (rng.randrange(5) for _ in range(4))
        assert predicted_rank_sequence(G2Params(1, b, c, d, e, 1), ctx) == \
            (6, 5, 4, 3, 2, 1)
    assert predicted_rank_sequence(G2Params(0, 0, 0, 0, 1, 1), ctx) == \
        (2, 0, 0, 0, 0, 0)
    assert predicted_rank_sequence(G2Params(0, 0, 0, 1, 0, 0), ctx) == \
        (2, 0, 0, 0, 0, 0)
    assert predicted_rank_sequence(G2Params(0, 0, 0, 0, 0, 0), ctx) == \
        (0, 0, 0, 0, 0, 0)


def test_predicted_matches_actual_on_samples():
    rng = random.Random(13)
    for q in (5, 7, 11, 25, 49):
        ctx = field_of_order(q)
        for _ in range(60):
            params = G2Params(*(rng.randrange(q) for _ in range(6)))
            assert predicted_rank_sequence(params, ctx) == \
                rank_sequence(x_of(params, ctx)), (q, params)


def test_predicted_rank_sequence_builds_the_tables_once_per_field(
        monkeypatch):
    import kirillov.g2 as g2mod

    builds = []

    class CountedTables(g2mod.FieldTables):
        def __init__(self, ctx, n=1):
            builds.append(ctx.q)
            super().__init__(ctx, n)

    monkeypatch.setattr(g2mod, "FieldTables", CountedTables)
    g2mod._field_tables.cache_clear()
    rng = random.Random(49)
    try:
        for _ in range(200):
            ctx = field_of_order(49)  # a new context object on every call
            params = G2Params(*(rng.randrange(49) for _ in range(6)))
            assert predicted_rank_sequence(params, ctx) == \
                rank_sequence(x_of(params, ctx)), params
    finally:
        g2mod._field_tables.cache_clear()
    assert builds == [49]


def test_entry_table_rejects_two_terms_on_one_position(monkeypatch):
    # the census writes each entry of X once, which is right only while
    # no two terms of the table share a position
    import kirillov.g2 as g2mod
    matrices = {root: [list(row) for row in mat]
                for root, mat in build_chevalley().items()}
    i, j, _, _ = next(term for term in entry_table() if term[2] == 0)
    matrices[PARAM_ROOTS[1]][i][j] = 1  # b onto a position of a
    monkeypatch.setattr(g2mod, "build_chevalley",
                        lambda: matrices)
    entry_table.cache_clear()
    try:
        with pytest.raises(AssertionError, match="share a position"):
            entry_table()
    finally:
        entry_table.cache_clear()


def test_census_gf5_counts():
    report = census_cached(5)
    expected = {
        Partition((7,)): 10000,
        Partition((3, 3, 1)): 4400,
        Partition((3, 2, 2)): 1100,
        Partition((2, 2, 1, 1, 1)): 124,
        Partition((1,) * 7): 1,
    }
    assert report.counts == expected
    assert report.total == 5**6


def test_census_case_tallies_gf5_and_gf7():
    for q in (5, 7):
        report = census_cached(q)
        for cc in closed_form_case_counts(q):
            assert report.cases[(cc.case, cc.rank_seq)] == cc.count, (q, cc)
        # per-case totals partition q^6
        assert sum(report.cases.values()) == q**6


def test_closed_form_case_counts_sum_to_the_polynomials():
    # per Jordan type, the closed forms (with (3,3,1) as q^6 minus the
    # rest) equal the counting polynomials as polynomials in q: 8 points
    # pin a polynomial of degree at most 7
    points = {lam: [] for lam in expected_polynomials()}
    for q in (5, 7, 11, 13, 17, 19, 23, 25):
        sums = {}
        for cc in closed_form_case_counts(q):
            lam = jordan_type_from_ranks(cc.rank_seq, DIM)
            sums[lam] = sums.get(lam, 0) + cc.count
        assert COMPLEMENT_PARTITION not in sums
        sums[COMPLEMENT_PARTITION] = q**6 - sum(sums.values())
        assert sums.keys() == points.keys()
        for lam, count in sums.items():
            points[lam].append((q, count))
    for lam, pts in points.items():
        assert poly_interpolate(pts) == expected_polynomials()[lam], lam


def test_closed_form_values_at_5():
    forms = {(cc.case, cc.rank_seq): cc.count for cc in closed_form_case_counts(5)}
    assert forms[(2, (2, 0, 0, 0, 0, 0))] == 100
    assert forms[(4, (2, 0, 0, 0, 0, 0))] == 24
    assert forms[(3, (4, 1, 0, 0, 0, 0))] == 500


def test_census_counts_match_polynomials_for_7():
    report = census_cached(7)
    assert report.counts == {lam: poly(7)
                             for lam, poly in expected_polynomials().items()}
    assert report.total == 7**6


def test_census_rejects_bad_characteristic_and_budget():
    with pytest.raises(BadCharacteristic):
        g2_census(make_prime_field(3))
    with pytest.raises(TooLarge):
        g2_census(make_prime_field(23), budget=10**6)


def test_census_worker_determinism(monkeypatch):
    import kirillov._kernels as kernels

    # three CPUs, so that three workers split three ways on fewer cores
    monkeypatch.setattr(kernels, "_usable_cpus", lambda: 3)
    single = g2_census(make_prime_field(5), workers=1)
    for workers in (2, 3):
        split = g2_census(make_prime_field(5), workers=workers)
        assert single.counts == split.counts
        assert single.cases == split.cases


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("q", [5, 7])
def test_weighted_census_equals_exhaustive(q, workers):
    ctx = make_prime_field(q)
    weighted = g2_census(ctx, workers=workers, exhaustive=False)
    exhaustive = g2_census(ctx, workers=workers, exhaustive=True)
    assert weighted.cases == exhaustive.cases
    assert weighted.counts == exhaustive.counts
    assert weighted.total == exhaustive.total == q**6


@pytest.mark.parametrize("exhaustive", [False, True])
def test_census_checks_the_predicate_on_both_routes(monkeypatch, exhaustive):
    import kirillov.g2 as g2mod

    original = g2mod._predicted_batch

    def wrong_on_last_tuple(t, a, f, b, c, d, e):
        out = original(t, a, f, b, c, d, e)
        if (a, f) == (1, 1):
            out[-1, 0] = 0
        return out

    monkeypatch.setattr(g2mod, "_predicted_batch", wrong_on_last_tuple)
    with pytest.raises(PredicateMismatch, match=r"=\(1,4,4,4,4,1\)"):
        g2_census(make_prime_field(5), exhaustive=exhaustive)


def test_census_budget_counts_tuples_on_the_chosen_route():
    ctx = make_prime_field(5)
    assert g2_census(ctx, budget=4 * 5**4, exhaustive=False).total == 5**6
    with pytest.raises(TooLarge):
        g2_census(ctx, budget=4 * 5**4 - 1, exhaustive=False)
    assert g2_census(ctx, budget=5**6).total == 5**6
    with pytest.raises(TooLarge):
        g2_census(ctx, budget=5**6 - 1)


def test_cached_census_still_checks_the_budget(monkeypatch):
    import kirillov.g2 as g2mod

    monkeypatch.setattr(g2mod, "_census_cache", {})
    assert census_cached(5).total == 5**6
    with pytest.raises(TooLarge):
        census_cached(5, budget=10)
    with pytest.raises(TooLarge):
        census_cached(5, budget=4 * 5**4 - 1, exhaustive=False)


def test_torus_weights_grade_every_root_matrix():
    weights = torus_weights()
    assert weights[0] == (0, 0) and len(set(weights)) == DIM
    for root, mat in build_chevalley().items():
        for i in range(DIM):
            for j in range(DIM):
                if mat[i][j]:
                    assert (weights[i][0] - weights[j][0],
                            weights[i][1] - weights[j][1]) == root
    assert PARAM_ROOTS[0] == (1, 0) and PARAM_ROOTS[-1] == (0, 1)


def test_torus_weights_reject_an_ungraded_basis(monkeypatch):
    import kirillov.g2 as g2mod

    matrices = {root: [list(row) for row in mat]
                for root, mat in build_chevalley().items()}
    matrices[(1, 1)][0][6] = 1  # entry (1,7) needs root (4, 2), not (1, 1)
    with pytest.raises(AssertionError, match="joins weights differing"):
        torus_weights(matrices)
    # a and f swapped onto the other simple root
    swapped = (PARAM_ROOTS[-1],) + PARAM_ROOTS[1:-1] + (PARAM_ROOTS[0],)
    monkeypatch.setattr(g2mod, "PARAM_ROOTS", swapped)
    with pytest.raises(AssertionError, match="simple roots"):
        torus_weights()


def test_census_kernel_agrees_with_reference_path_gf25():
    """The batched kernel, whose GF(25) arithmetic is gathers from the
    field's addition, subtraction, multiplication and inverse tables,
    equals per-tuple exact linear algebra over GF(25) on a sample of
    tuples."""
    from kirillov._kernels import FieldTables, power_rank_sequences
    import numpy as np

    ctx = field_of_order(25)
    tables = FieldTables(ctx, DIM)
    rng = random.Random(99)
    samples = [G2Params(*(rng.randrange(25) for _ in range(6))) for _ in range(150)]
    mats = np.zeros((len(samples), DIM, DIM), dtype=tables.dtype)
    for row, params in enumerate(samples):
        for i, j, param, coeff in entry_table():
            mats[row, i, j] = ctx.add(int(mats[row, i, j]),
                                      ctx.scale_int(coeff, params[param]))
    seqs = power_rank_sequences(tables.embed(mats), tables)
    for row, params in enumerate(samples):
        assert tuple(int(x) for x in seqs[row]) == \
            rank_sequence(x_of(params, ctx))


def _admissible_orders(limit: int) -> list[int]:
    """Every prime power q <= limit of characteristic above 3."""
    orders = []
    for q in range(5, limit + 1):
        try:
            if field_of_order(q).p > 3:
                orders.append(q)
        except NotPrime:
            pass
    return orders


@pytest.mark.slow
def test_weighted_census_matches_at_every_admissible_order_to_49():
    # beyond the seven interpolation primes: the primes 29..47 and the
    # extension fields GF(25) and GF(49)
    orders = _admissible_orders(49)
    assert orders == [5, 7, 11, 13, 17, 19, 23, 25, 29, 31, 37, 41, 43, 47, 49]
    for q in orders:
        report = g2_census(field_of_order(q), exhaustive=False)
        assert report.counts == {lam: poly(q) for lam, poly
                                 in expected_polynomials().items()}, q
        assert report.total == q**6
        for cc in closed_form_case_counts(q):
            assert report.cases[(cc.case, cc.rank_seq)] == cc.count, (q, cc)


def _synthetic_census(q):
    """CensusReport with counts read off the known polynomials (used to
    exercise the interpolation plumbing without the big censuses; the
    real end-to-end runs live in the acceptance suite)."""
    from kirillov.g2 import CensusReport

    counts = {lam: poly(q) for lam, poly in expected_polynomials().items()}
    return CensusReport(q=q, counts=counts, cases={}, total=sum(counts.values()))


def test_interpolation_routes_with_synthetic_censuses(monkeypatch):
    import kirillov.g2 as g2mod

    monkeypatch.setattr(g2mod, "census_cached",
                        lambda q, workers=1, budget=0, exhaustive=True:
                        _synthetic_census(q))
    reduced = g2mod.g2_interpolate(orders=(5, 7, 11, 13, 17, 19))
    assert reduced.passed
    assert reduced.routes[Partition((7,))] == "complement"
    assert reduced.routes[Partition((3, 3, 1))] == "interpolated"
    assert reduced.polynomials == expected_polynomials()

    full = g2mod.g2_interpolate(orders=(5, 7, 11, 13, 17, 19, 23))
    assert full.passed
    assert all(route == "interpolated" for route in full.routes.values())
    assert full.complement_ok
    assert full.polynomials == expected_polynomials()


def test_interpolation_requires_enough_points():
    with pytest.raises(InsufficientPoints):
        g2_interpolate(orders=(5, 7, 11))


def test_expected_polynomials_structure():
    polys = expected_polynomials()
    assert polys[Partition((7,))] == Q**4 * Q_MINUS_1**2
    assert polys[Partition((3, 3, 1))] == Q**2 * Q_MINUS_1**2 * IntPoly((1, 2))
    assert polys[Partition((2, 2, 1, 1, 1))] == Q_MINUS_1 * IntPoly((1, 1, 1))
    total = IntPoly()
    for poly in polys.values():
        total = total + poly
    assert total == Q**6
    for poly in polys.values():
        split = split_qfactors(poly)
        assert split.r.constant_term == 1
        assert all(c > 0 for c in split.r.coeffs)
        verdict = irreducibility(split.r)
        assert verdict.kind in ("unit", "irreducible")


def test_square_classification_drives_case2_solution_counts():
    """With a = 0, d != 0: the number of f solving the rank-drop equation
    is 2 / 1 / 0 according to whether c^2 - bd is a nonzero square, zero,
    or a non-square."""
    for q in (5, 7):
        ctx = field_of_order(q)
        for b in range(q):
            for c in range(q):
                for d in range(q):
                    if d == 0:
                        continue
                    disc = ctx.sub(ctx.mul(c, c), ctx.mul(b, d))
                    solutions = 0
                    for f in range(q):
                        u = ctx.add(ctx.mul(b, b), ctx.mul(c, f))
                        v = ctx.add(ctx.mul(b, c), ctx.mul(d, f))
                        w = ctx.sub(ctx.mul(c, c), ctx.mul(b, d))
                        lhs = ctx.sub(ctx.mul(v, v),
                                      ctx.scale_int(4, ctx.mul(u, w)))
                        if lhs == 0:
                            solutions += 1
                    char = ctx.quadratic_character(disc)
                    expected = 2 if char == 1 else (1 if char == 0 else 0)
                    assert solutions == expected, (q, b, c, d)


def test_springer_table_content():
    rows = {row.orbit: row for row in SPRINGER_TABLE}
    assert rows["G2"].representative == ((1, 0), (0, 1))
    assert rows["G2"].partition == Partition((7,))
    assert rows["G2"].dimension == 1
    assert rows["A1-tilde"].partition == Partition((3, 2, 2))
    assert rows["A1-tilde"].dimension == 2
    assert rows["0"].partition == Partition((1,) * 7)
    diagrams = {row.diagram for row in SPRINGER_TABLE}
    assert diagrams == {(0, 0), (0, 1), (1, 0), (0, 2), (2, 2)}


def test_springer_check_passes():
    report = springer_check()
    assert report.passed
    by_orbit = {entry[0]: entry for entry in report.orbit_entries}
    orbit, expected, computed, lead, dim, ok = by_orbit["G2"]
    assert computed == Partition((7,)) and lead == 1 and dim == 1
    orbit, expected, computed, lead, dim, ok = by_orbit["A1-tilde"]
    assert computed == Partition((3, 2, 2)) and lead == 2 and dim == 2
    orbit, expected, computed, lead, dim, ok = by_orbit["0"]
    assert computed == Partition((1,) * 7) and lead == 1 and dim == 1
