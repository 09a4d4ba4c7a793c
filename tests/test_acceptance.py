"""Acceptance suite: one test per criterion, every check exact.

Each test prints one `ACCEPTANCE <k> <name>: PASS/FAIL` line (visible
with `pytest -s` and in failure output).  Criterion 4 carries a known
source-data conflict for the partition (4,3,2); the evidence is in the
comment above `PRINTED_FACTORIZATIONS`.  The heaviest enumerations (the
5^10 and 2^21 type-A census points and the six- and seven-prime
interpolations on the exhaustive q^6 route) are exercised by the
slow-marked variants: `pytest -m slow`.
"""

import os
import time

import pytest

from kirillov.fields import field_of_order
from kirillov.g2 import (
    closed_form_case_counts,
    census_cached,
    expected_polynomials,
    g2_interpolate,
    springer_check,
    verify_displayed_powers,
)
from kirillov.intpoly import IntPoly, Q, Q_MINUS_1, split_qfactors
from kirillov.partitions import Partition, partitions_of
from kirillov.typea import (
    ADJOINT_ORBIT_COUNT_N4,
    brute_force_census,
    kirillov_recursion,
    reducibility_scan,
    valuation_profile,
    vla_table_n4,
)

WORKERS = min(4, os.cpu_count() or 1)

P = kirillov_recursion


def _report(num, name, ok, started, detail=""):
    elapsed = time.time() - started
    tail = f"  [{elapsed:.1f}s]" + (f"  ({detail})" if detail else "")
    print(f"ACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'}{tail}")


# -- criterion 1: recursion golden set --------------------------------------

GOLDEN_N4 = {
    (4,): Q**3 * Q_MINUS_1**3,
    (3, 1): Q**2 * Q_MINUS_1**2 * IntPoly((1, 3)),
    (2, 2): Q * Q_MINUS_1**2 * IntPoly((1, 2)),
    (2, 1, 1): Q_MINUS_1 * IntPoly((1, 2, 3)),
    (1, 1, 1, 1): IntPoly((1,)),
}

EXPANDED_3211 = IntPoly((0, 0, 0, 0, 0, -1, -2, -3, -3, 4, 25, 11, -23, -43, 35))


def test_criterion_1_recursion_golden_set():
    started = time.time()
    ok = all(P(Partition(parts)) == expected
             for parts, expected in GOLDEN_N4.items())
    ok = ok and P(Partition((3, 2, 1, 1))) == EXPANDED_3211
    _report(1, "recursion-golden-set", ok, started)
    for parts, expected in GOLDEN_N4.items():
        assert P(Partition(parts)) == expected, parts
    assert P(Partition((3, 2, 1, 1))) == EXPANDED_3211


# -- criterion 2: census equals recursion ------------------------------------


def _census_grid_matches(n, q):
    ctx = field_of_order(q)
    counts = brute_force_census(n, ctx, workers=WORKERS)
    expected = {lam: P(lam)(q) for lam in partitions_of(n)}
    return counts == expected


def test_criterion_2_census_oracle_equivalence():
    started = time.time()
    grid = [(n, q) for n in range(1, 5) for q in (2, 3, 4, 5)]
    grid += [(5, 2), (5, 3), (5, 4), (6, 2)]
    failures = [(n, q) for n, q in grid if not _census_grid_matches(n, q)]
    _report(2, "census-oracle-equivalence", not failures, started,
            detail="n<=5 grid; the 5^10 and 2^21 points are in the slow suite")
    assert not failures, failures


@pytest.mark.slow
def test_criterion_2_census_oracle_equivalence_slow_point():
    started = time.time()
    failures = [(n, q) for n, q in ((5, 5), (7, 2))
                if not _census_grid_matches(n, q)]
    _report(2, "census-oracle-equivalence-5^10-2^21", not failures, started)
    assert not failures, failures


# -- criterion 3: structure suite --------------------------------------------


def test_criterion_3_structure_suite():
    started = time.time()
    failures = []
    for n in range(1, 11):
        for lam in partitions_of(n):
            split = split_qfactors(P(lam))
            prof = valuation_profile(lam)
            checks = (
                split.a == prof.a,
                split.b == prof.b,
                split.r.degree == prof.deg_r,
                split.r.leading == prof.lead_r,
                split.r.constant_term == 1,
                all(c > 0 for c in split.r.coeffs),
            )
            if not all(checks):
                failures.append((lam.parts, checks))
    _report(3, "structure-suite-n<=10", not failures, started)
    assert not failures, failures


# -- criterion 4: reducibility scan ------------------------------------------

# The nine factorization lines as printed in the source (ascending
# coefficients).  NOTE: the (4,3,2) line as printed duplicates the
# (3,3,2,1) product and contradicts the source's own degree formula
# (degree 7 expected, 9 printed); the computed factorization is
# (2q+1)(84q^6+141q^5+108q^4+57q^3+23q^2+6q+1).  This comment is the
# record of that conflict.  The comparison below is kept faithful to the
# printed data, so this criterion fails on exactly that one line.
PRINTED_FACTORIZATIONS = {
    (3, 2, 1): ((1, 2), (1, 3, 8, 8)),
    (4, 3, 1): ((1, 4, 5), (1, 3, 10, 14)),
    (5, 3, 1): ((1, 2), (1, 6, 23, 57, 81)),
    (4, 4, 1): ((1, 2), (1, 5, 18, 39, 42)),
    (4, 3, 2): ((1, 2), (1, 5, 18, 47, 100, 171, 219, 195, 84)),
    (4, 2, 2, 1): ((1, 2, 3), (1, 5, 15, 38, 73, 111, 72)),
    (3, 3, 2, 1): ((1, 2), (1, 5, 18, 47, 100, 171, 219, 195, 84)),
    (7, 3): ((1, 5), (1, 4, 15)),
    (4, 4, 2): ((1, 2), (1, 6, 24, 62, 126, 180, 126)),
}


def test_criterion_4_reducibility_scan():
    started = time.time()
    report = reducibility_scan(10)
    found = {lam.parts: tuple(tuple(f.coeffs) for f in factors)
             for lam, factors in report.reducible}

    # exactly the nine partitions come out reducible
    assert set(found) == set(PRINTED_FACTORIZATIONS)
    # every returned factorization re-multiplies to its R
    for lam, factors in report.reducible:
        product = IntPoly((1,))
        for f in factors:
            product = product * f
        assert product == split_qfactors(P(lam)).r, lam
    # every other R receives an irreducibility certificate
    for lam, verdict in report.verdicts.items():
        if lam.parts not in found:
            assert verdict.kind in ("unit", "irreducible"), lam
            assert verdict.method in ("unit", "degree-1", "mod-p",
                                      "degree-set", "kronecker-exhausted")

    mismatches = {parts: (found[parts], printed)
                  for parts, printed in PRINTED_FACTORIZATIONS.items()
                  if found[parts] != printed}
    _report(4, "reducibility-scan-n<=10", not mismatches, started,
            detail="known source misprint for (4,3,2), see the comment above "
            "PRINTED_FACTORIZATIONS"
            if mismatches else "")
    assert not mismatches, (
        "scan disagrees with the printed factorization lines: "
        f"{mismatches}; the printed (4,3,2) line duplicates the (3,3,2,1) "
        "product and cannot re-multiply to R(4,3,2) (degree formula gives "
        "7, the printed product has degree 9); see the comment above "
        "PRINTED_FACTORIZATIONS in tests/test_acceptance.py")


# -- criterion 5: the n=4 conjugacy-type table --------------------------------


def test_criterion_5_vla_table():
    started = time.time()
    report = vla_table_n4()
    _report(5, "n4-conjugacy-table", report.passed, started)
    for lam, table_sum, expected, ok in report.identities:
        assert ok, (lam, table_sum.text(), expected.text())
    assert report.class_count == ADJOINT_ORBIT_COUNT_N4
    assert report.class_count == 2 * Q**3 + Q**2 - 2 * Q


# -- criterion 6: g2 construction ---------------------------------------------


def test_criterion_6_g2_symbolic_construction():
    started = time.time()
    report = verify_displayed_powers()
    _report(6, "g2-symbolic-construction", report.passed, started)
    assert report.template_mismatches == []
    assert report.power_mismatches == []


# -- criterion 7: g2 census vs the closed forms --------------------------------


def test_criterion_7_g2_census_matches_polynomials():
    started = time.time()
    failures = []
    for q in (5, 7, 11, 13):
        report = census_cached(q, workers=WORKERS, exhaustive=True)
        weighted = census_cached(q, workers=WORKERS, exhaustive=False)
        if (weighted.counts, weighted.cases) != (report.counts, report.cases):
            failures.append((q, "weighted route"))
        expected = {lam: poly(q) for lam, poly in expected_polynomials().items()}
        if report.counts != expected:
            failures.append((q, "counts"))
        if report.total != q**6:
            failures.append((q, "total"))
        for cc in closed_form_case_counts(q):
            if report.cases.get((cc.case, cc.rank_seq), 0) != cc.count:
                failures.append((q, cc))
    # the census itself validates predicted_rank_sequence on every tuple
    # (a mismatch raises PredicateMismatch before we get here)
    _report(7, "g2-census-vs-closed-forms", not failures, started,
            detail="q in {5,7,11,13}; predicates validated on all q^6 tuples; "
                   "the weighted route agrees")
    assert not failures, failures


# -- criterion 8: interpolation ------------------------------------------------


def _check_reduced_mode(name, exhaustive):
    started = time.time()
    result = g2_interpolate(orders=(5, 7, 11, 13, 17, 19), workers=WORKERS,
                            exhaustive=exhaustive)
    ok = result.passed and result.routes[Partition((7,))] == "complement"
    _report(8, name, ok, started,
            detail="six primes; degree-6 count via the complement")
    assert result.complement_ok
    assert result.polynomials == expected_polynomials()


def _check_full_mode(name, exhaustive):
    started = time.time()
    result = g2_interpolate(orders=(5, 7, 11, 13, 17, 19, 23), workers=WORKERS,
                            exhaustive=exhaustive)
    ok = result.passed and all(route == "interpolated"
                               for route in result.routes.values())
    _report(8, name, ok, started)
    assert result.complement_ok
    assert result.polynomials == expected_polynomials()


def test_criterion_8_interpolation_reduced_mode():
    _check_reduced_mode("interpolation-reduced-mode", exhaustive=False)


@pytest.mark.slow
def test_criterion_8_interpolation_reduced_mode_exhaustive():
    _check_reduced_mode("interpolation-reduced-mode-exhaustive",
                        exhaustive=True)


def test_criterion_8_interpolation_full_mode():
    _check_full_mode("interpolation-full-mode", exhaustive=False)


@pytest.mark.slow
def test_criterion_8_interpolation_full_mode_exhaustive():
    _check_full_mode("interpolation-full-mode-exhaustive", exhaustive=True)


# -- criterion 9: leading coefficients ------------------------------------------


def test_criterion_9_springer_leading_coefficients():
    started = time.time()
    report = springer_check(typea_max_n=8)
    _report(9, "springer-leading-coefficients", report.passed, started)
    for orbit, expected, computed, lead, dim, ok in report.orbit_entries:
        assert computed == expected, orbit
        assert lead == dim, orbit
    for lam, lead, hook, ok in report.typea_entries:
        assert lead == hook, lam


# -- criterion 10: conservation --------------------------------------------------


def test_criterion_10_conservation():
    started = time.time()
    ok = True
    for n in range(1, 11):
        total = IntPoly()
        for lam in partitions_of(n):
            total = total + P(lam)
        ok &= total == Q ** (n * (n - 1) // 2)
        assert total == Q ** (n * (n - 1) // 2), n
    g2_total = IntPoly()
    for poly in expected_polynomials().values():
        g2_total = g2_total + poly
    ok &= g2_total == Q**6
    assert g2_total == Q**6
    for q in (5, 7, 11, 13):
        report = census_cached(q, workers=WORKERS)
        ok &= report.total == q**6
        assert report.total == q**6
    _report(10, "conservation", ok, started)
