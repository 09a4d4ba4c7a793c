import collections
import dataclasses
import os

import pytest

from kirillov.errors import TooLarge
from kirillov.fields import field_of_order, make_prime_field
from kirillov.intpoly import (
    CERTIFICATE_PRIMES,
    IntPoly,
    Q,
    Q_MINUS_1,
    _first_primes_over_3,
    ddf_degrees,
    split_qfactors,
)
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

from conftest import deadline

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
    # the 47,385 of the 3^10 matrices that are ranked, in 2 and 3 index
    # ranges, dealt round-robin
    for workers in (2, 3):
        assert brute_force_census(5, ctx, workers=workers) == single
    # more workers than ranges: of GF(2)'s two 2 x 2 matrices only the
    # zero matrix is ranked, in one range
    assert brute_force_census(2, make_prime_field(2), workers=3) == \
        {Partition((2,)): 1, Partition((1, 1)): 1}


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_census_of_sizes_with_at_most_one_matrix_to_rank(monkeypatch,
                                                         workers):
    import kirillov._kernels as kernels

    # n = 1 leaves no matrix to rank and n = 2 only the zero matrix, so
    # the census cuts no range or one, however many workers it is given
    monkeypatch.setattr(kernels, "_usable_cpus", lambda: 3)
    with deadline(60):
        for q in (2, 4, 5):
            ctx = field_of_order(q)
            assert brute_force_census(1, ctx, workers=workers) == \
                {Partition((1,)): 1}
            assert brute_force_census(2, ctx, workers=workers) == \
                {Partition((2,)): q - 1, Partition((1, 1)): 1}


def test_census_refuses_a_field_too_large_before_counting(monkeypatch):
    import kirillov.typea as typea

    # n = 1 has nothing to rank, yet (p-1)^2 overflows int64 for this p
    # and the field tables refuse it before any prefix is decoded or any
    # range is counted
    def counted(*args):
        raise AssertionError("counted before the tables were built")

    monkeypatch.setattr(typea, "decode_mixed_radix", counted)
    monkeypatch.setattr(typea, "run_census", counted)
    with pytest.raises(OverflowError, match="int64"):
        brute_force_census(1, make_prime_field(3037000507))


def _ranges_by_process(chunk, *args) -> dict:
    """The tally of ``chunk(*args)``, plus the number of ranges this
    process ran, under the key ("ranges", pid)."""
    tally = chunk(*args)
    tally[("ranges", os.getpid())] = len(args[-1])
    return tally


def test_census_cuts_several_ranges_per_worker(monkeypatch):
    # as few ranges of at most DEFAULT_BATCH as there can be, rounded up
    # to a multiple of the workers, of sizes differing by at most one and
    # tiling the matrices ranked (all 7^6 but the 7^3 6^3 single Jordan
    # blocks over GF(7), all 9^6 but 9^3 8^3 over GF(9)).  Over GF(9) the
    # fewest ranges are 5, which two workers would share 3 and 2; it takes
    # 6, 3 for each worker
    import kirillov._kernels as kernels
    import kirillov.typea as typea

    units, shares = [], []
    run_census = typea.run_census

    def capture(chunk, head, work, workers):
        units.append(work)
        tally = run_census(_ranges_by_process, (chunk, *head), work, workers)
        shares.append(sorted(tally.pop(key) for key in list(tally)
                             if key[0] == "ranges"))
        return tally

    monkeypatch.setattr(kernels, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(typea, "run_census", capture)
    for q, sizes in ((7, {1: [21_780, 21_781], 2: [21_780, 21_781]}),
                     (9, {1: [31_638] * 2 + [31_639] * 3,
                          2: [26_365] * 3 + [26_366] * 3})):
        space = q**6 - q**3 * (q - 1) ** 3
        units.clear()
        shares.clear()
        ctx = field_of_order(q)
        with deadline(60):
            counts = brute_force_census(4, ctx, workers=1)
            assert brute_force_census(4, ctx, workers=2) == counts
        for ranges, workers in zip(units, (1, 2)):
            assert ranges[0][0] == 0 and ranges[-1][1] == space
            assert all(prev[1] == nxt[0]
                       for prev, nxt in zip(ranges, ranges[1:]))
            assert sorted(hi - lo for lo, hi in ranges) == sizes[workers]
        assert shares == ([[2], [1, 1]] if q == 7 else [[5], [3, 3]])


def test_census_budget_guards():
    # n = 7 over GF(2) is 2^21 matrices: one more than the budget allows
    with pytest.raises(TooLarge):
        brute_force_census(7, make_prime_field(2), budget=2**21 - 1)
    with pytest.raises(TooLarge):
        brute_force_census(6, make_prime_field(5), budget=10**6)


def test_census_charges_the_gather_tables_to_its_budget(monkeypatch):
    # n = 2 over GF(2^20) is 2^20 matrices, within the default budget, but
    # its gather tables would hold 2^40 entries each; the census refuses
    # them before the generator walk that builds the first table
    import kirillov._kernels as kernels

    def walk(ctx):
        raise AssertionError(f"GF({ctx.q}) was walked before the budget "
                             f"was checked")

    monkeypatch.setattr(kernels, "_generator_powers", walk)
    with deadline(5), pytest.raises(TooLarge, match="table entries"):
        brute_force_census(2, field_of_order(2**20))
    # GF(9) at n = 2: 9 matrices and 81 table entries
    with pytest.raises(TooLarge, match="81 GF\\(9\\) table entries"):
        brute_force_census(2, field_of_order(9), budget=80)
    monkeypatch.undo()
    counts = brute_force_census(2, field_of_order(9), budget=81)
    assert counts == {Partition((2,)): 8, Partition((1, 1)): 1}


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


def test_scan_to_n12_takes_the_pinned_certificate_routes():
    # how each of the 271 R factors is decided: a change to the primes, the
    # degree pruning or the Kronecker search moves these counts
    report = reducibility_scan(12)
    methods = collections.Counter(v.method for v in report.verdicts.values())
    assert methods == {"mod-p": 116, "degree-set": 111, "unit": 23,
                       "degree-1": 11, "kronecker": 9,
                       "kronecker-exhausted": 1}


def test_degree_set_witnesses_are_the_primes_examined():
    # a degree-set verdict names the certificate primes up to the first at
    # which no factor degree in 1..deg R // 2 is left: the factor-degree
    # sets mod its primes intersect to nothing, and those mod all but its
    # last prime do not
    def degrees_mod(r, p):
        sums = {0}
        for d in ddf_degrees(r, p):
            sums |= {s + d for s in sums}
        return sums

    report = reducibility_scan(12)
    lengths = collections.Counter()
    for lam, verdict in report.verdicts.items():
        if verdict.method != "degree-set":
            continue
        r = split_qfactors(P(lam)).r
        primes = _first_primes_over_3(CERTIFICATE_PRIMES, abs(r.leading))
        assert verdict.witness == tuple(primes[:len(verdict.witness)])
        candidate = set(range(1, r.degree // 2 + 1))
        for p in verdict.witness[:-1]:
            candidate &= degrees_mod(r, p)
        assert candidate, lam
        assert not candidate & degrees_mod(r, verdict.witness[-1]), lam
        lengths[len(verdict.witness)] += 1
    assert sum(lengths.values()) == 111 and min(lengths) >= 2


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
    # n = 14 reaches R(3,3,2,2,1,1,1,1), whose Kronecker search would try
    # 859,963,392 candidates (about 1.3 h): the scan refuses it instead
    with deadline(10), pytest.raises(TooLarge, match="Kronecker candidates"):
        reducibility_scan(14)
