import dataclasses

import pytest

from kirillov.errors import TooLarge
from kirillov.fields import field_of_order, make_prime_field
from kirillov.intpoly import IntPoly, Q, Q_MINUS_1, split_qfactors
from kirillov.partitions import Partition, partitions_of
from kirillov.typea import (
    ADJOINT_ORBIT_COUNT_N4,
    VLA_TABLE_N4,
    brute_force_census,
    conservation_sum,
    kirillov_recursion,
    reducibility_scan,
    valuation_profile,
    vla_table_n4,
)

P = kirillov_recursion


def test_recursion_known_small_values():
    assert P(Partition((4,))) == Q**3 * Q_MINUS_1**3
    assert P(Partition((3, 1))) == Q**2 * Q_MINUS_1**2 * IntPoly((1, 3))
    assert P(Partition((2, 2))) == Q * Q_MINUS_1**2 * IntPoly((1, 2))
    assert P(Partition((2, 1, 1))) == Q_MINUS_1 * IntPoly((1, 2, 3))
    assert P(Partition((1, 1, 1, 1))) == IntPoly((1,))


def test_recursion_expanded_seven_row_example():
    expected = IntPoly((0, 0, 0, 0, 0, -1, -2, -3, -3, 4, 25, 11, -23, -43, 35))
    assert P(Partition((3, 2, 1, 1))) == expected


def test_recursion_base_cases():
    assert P(Partition(())) == IntPoly((1,))
    assert P(Partition((1,))) == IntPoly((1,))
    assert P(Partition((2,))) == Q_MINUS_1


def test_conservation():
    for n in range(1, 11):
        assert conservation_sum(n) == Q ** (n * (n - 1) // 2)


def test_valuation_profile_examples():
    # derived from the split of q (q-1)^2 (1+2q)
    split = split_qfactors(P(Partition((2, 2))))
    assert (split.a, split.b, split.r.degree, split.r.leading) == (1, 2, 1, 2)
    prof = valuation_profile(Partition((2, 2)))
    assert (prof.a, prof.b, prof.deg_r, prof.lead_r) == (1, 2, 1, 2)
    for n in range(1, 9):
        assert valuation_profile(Partition((n,))).b == n - 1
        ones = valuation_profile(Partition((1,) * n))
        assert (ones.a, ones.b, ones.deg_r, ones.lead_r) == (0, 0, 0, 1)


def test_valuation_profile_matches_only_its_own_split():
    split = split_qfactors(P(Partition((2, 2))))
    prof = valuation_profile(Partition((2, 2)))
    assert prof.matches(split)
    for field in ("a", "b", "deg_r", "lead_r"):
        off = dataclasses.replace(prof, **{field: getattr(prof, field) + 1})
        assert not off.matches(split), field


def test_structure_suite_to_n10():
    for n in range(1, 11):
        for lam in partitions_of(n):
            split = split_qfactors(P(lam))
            prof = valuation_profile(lam)
            assert split.a == prof.a, lam
            assert split.b == prof.b, lam
            assert split.r.degree == prof.deg_r, lam
            assert split.r.leading == prof.lead_r, lam
            assert split.r.constant_term == 1, lam
            assert all(c > 0 for c in split.r.coeffs), lam


def test_census_n2_gf2_by_hand():
    counts = brute_force_census(2, make_prime_field(2))
    assert counts == {Partition((2,)): 1, Partition((1, 1)): 1}


def test_census_n4_examples():
    counts = brute_force_census(4, make_prime_field(2))
    assert counts[Partition((3, 1))] == 28  # = q^2 (q-1)^2 (1+3q) at q=2
    counts3 = brute_force_census(4, make_prime_field(3))
    assert sum(counts3.values()) == 3**6


def test_census_matches_recursion_small_grid():
    for q in (2, 3, 4, 5):
        ctx = field_of_order(q)
        for n in range(2, 5):
            counts = brute_force_census(n, ctx)
            expected = {lam: P(lam)(q) for lam in partitions_of(n)}
            assert counts == expected, (n, q)


def test_census_worker_split_deterministic(monkeypatch):
    import kirillov._kernels as kernels

    # three CPUs, so that three workers split three ways on fewer cores
    monkeypatch.setattr(kernels, "_usable_cpus", lambda: 3)
    ctx = field_of_order(3)
    single = brute_force_census(5, ctx, workers=1)
    # 3^10 matrices in 16 and 24 index ranges, dealt round-robin
    for workers in (2, 3):
        assert brute_force_census(5, ctx, workers=workers) == single
    # more workers than matrices: GF(2)'s two 2 x 2 matrices, one range each
    assert brute_force_census(2, make_prime_field(2), workers=3) == \
        {Partition((2,)): 1, Partition((1, 1)): 1}


def test_census_cuts_several_ranges_per_worker(monkeypatch):
    import kirillov.typea as typea

    units = []
    run_census = typea.run_census

    def capture(chunk, head, share, workers):
        units.append(share)
        return run_census(chunk, head, share, workers)

    monkeypatch.setattr(typea, "run_census", capture)
    ctx = make_prime_field(7)
    space, batch = 7**6, typea.DEFAULT_BATCH
    counts = brute_force_census(4, ctx, workers=1)
    assert brute_force_census(4, ctx, workers=2) == counts
    one, two = units
    # one worker: batch-sized ranges, as the census has always cut them
    assert one == [(lo, min(lo + batch, space))
                   for lo in range(0, space, batch)]
    assert len(one) == 4
    # two workers: enough ranges that each gets UNITS_PER_WORKER of them
    assert len(two) >= 2 * typea.UNITS_PER_WORKER
    assert max(hi - lo for lo, hi in two) <= batch
    for ranges in (one, two):
        assert ranges[0][0] == 0 and ranges[-1][1] == space
        assert all(prev[1] == nxt[0] for prev, nxt in zip(ranges, ranges[1:]))


def test_census_budget_guards():
    with pytest.raises(TooLarge):
        brute_force_census(7, make_prime_field(2))
    with pytest.raises(TooLarge):
        brute_force_census(6, make_prime_field(5), budget=10**6)


def test_vla_table_shape():
    assert len(VLA_TABLE_N4) == 16
    for row in VLA_TABLE_N4:
        markers = row.conjugacy_type.split(",")
        assert len(markers) == 6
        assert set(markers) <= {"θ", "•", "0"}
        assert row.bullets == markers.count("•")
        # count = q^j (q-1)^bullets as transcribed
        assert row.count == Q**row.q_exp * Q_MINUS_1**row.bullets


def test_vla_table_identities():
    report = vla_table_n4()
    assert report.passed
    for lam, table_sum, expected, ok in report.identities:
        assert ok
        assert table_sum == expected
    assert report.class_count == ADJOINT_ORBIT_COUNT_N4
    # spot values: the Jordan type (2,2) rows sum to q (q-1)^2 (1+2q)
    sums = {lam: s for lam, s, _, _ in report.identities}
    assert sums[Partition((2, 2))] == Q * Q_MINUS_1**2 * IntPoly((1, 2))
    assert sums[Partition((4,))] == Q**3 * Q_MINUS_1**3


def test_class_count_value():
    assert ADJOINT_ORBIT_COUNT_N4 == 2 * Q**3 + Q**2 - 2 * Q


def test_scan_to_n5_is_empty():
    report = reducibility_scan(5)
    assert report.reducible == []
    assert all(v.kind in ("irreducible", "unit")
               for v in report.verdicts.values())


def test_scan_finds_the_two_reducible_cases_to_n8():
    # the other reducible partitions all have n in {9, 10}
    report = reducibility_scan(8)
    found = {lam.parts for lam, _ in report.reducible}
    assert found == {(3, 2, 1), (4, 3, 1)}


def test_r_factors_of_the_conjugate_pair_432_and_3321():
    # Conjugate partitions share the leading coefficient (equal hook
    # dimensions) but not the polynomial: the degree formula gives 7 for
    # (4,3,2) and 9 for (3,3,2,1).  Both are divisible by 2q+1.  See the
    # comment above PRINTED_FACTORIZATIONS in tests/test_acceptance.py for
    # the source-data conflict around this pair.
    r432 = split_qfactors(P(Partition((4, 3, 2)))).r
    r3321 = split_qfactors(P(Partition((3, 3, 2, 1)))).r
    assert r432 != r3321
    assert (r432.degree, r3321.degree) == (7, 9)
    assert r432.leading == r3321.leading == 168
    assert r432 == IntPoly((1, 2)) * IntPoly((1, 6, 23, 57, 108, 141, 84))
    assert r3321 == IntPoly((1, 2)) * IntPoly((1, 5, 18, 47, 100, 171, 219, 195, 84))


def test_scan_bound():
    with pytest.raises(TooLarge):
        reducibility_scan(13)
