import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kirillov.errors import (
    BadPrime,
    DuplicateAbscissa,
    NonIntegerCoefficients,
    TooLarge,
    ZeroPolynomial,
)
from kirillov.intpoly import (
    IntPoly,
    Q,
    Q_MINUS_1,
    _PackedRing,
    _divide_exact,
    _kronecker_search,
    ddf_degrees,
    irreducibility,
    poly_interpolate,
    split_qfactors,
)

from conftest import (
    _divmod_int,
    _lagrange_fracs,
    _pdivmod,
    _pmonic,
    _pmul,
    _ptrim,
    deadline,
    oracle_kronecker_reducible,
)


@pytest.mark.parametrize("coeffs", [(0.5,), (2.7, 1), ("3",), (1, 2.0),
                                    (Fraction(4, 2),), (np.float64(1),)])
def test_constructor_rejects_non_integral_coefficients(coeffs):
    # int() would truncate 0.5 to 0 and 2.7 to 2 and parse "3"
    with pytest.raises(TypeError):
        IntPoly(coeffs)


def test_constructor_takes_any_integer_as_a_python_int():
    poly = IntPoly((True, np.int64(-3), np.uint8(7), 0))
    assert poly.coeffs == (1, -3, 7)
    assert all(type(c) is int for c in poly.coeffs)
    big = IntPoly((np.int64(2**62),)) ** 2
    assert big.coeffs == (2**124,)


def test_eval_examples():
    p = Q**3 * Q_MINUS_1**3
    # expand by hand: q^3 (q-1)^3 at 2 is 8 * 1
    assert p(2) == 8
    assert IntPoly((1,))(12345) == 1
    p31 = Q**2 * Q_MINUS_1**2 * IntPoly((1, 3))
    assert p31(2) == 28


def test_eval_is_ring_homomorphism():
    rng = random.Random(5)
    for _ in range(50):
        a = IntPoly(rng.randrange(-9, 10) for _ in range(rng.randrange(1, 6)))
        b = IntPoly(rng.randrange(-9, 10) for _ in range(rng.randrange(1, 6)))
        x = rng.randrange(-5, 6)
        assert (a + b)(x) == a(x) + b(x)
        assert (a * b)(x) == a(x) * b(x)


def test_interpolate_quadratic():
    assert poly_interpolate([(0, 1), (1, 3), (2, 7)]) == IntPoly((1, 1, 1))


def test_interpolate_recovers_cubic_product():
    # oracle first: evaluate q^3 (q-1)^3 at the abscissas
    target = Q**3 * Q_MINUS_1**3
    xs = [0, 1, 2, 3, 5, 7, 11]
    pts = [(x, target(x)) for x in xs]
    assert [v for _, v in pts] == [0, 0, 8, 216, 8000, 74088, 1331000]
    got = poly_interpolate(pts)
    assert got == target
    assert got(0) == 0


def test_interpolate_duplicate_abscissa():
    with pytest.raises(DuplicateAbscissa):
        poly_interpolate([(0, 1), (0, 2), (1, 5)])


@pytest.mark.parametrize("points", [[(0, 0.5), (1, 2.7)],
                                    [(0.9, 1), ("2", 3)],
                                    [(0, 1), (Fraction(2, 1), 3)],
                                    [(np.float64(0), 1)]])
def test_interpolate_rejects_non_integer_points(points):
    # int() would truncate 0.5 to 0, 2.7 to 2 and 0.9 to 0 and parse "2"
    with pytest.raises(TypeError):
        poly_interpolate(points)


def test_interpolate_takes_any_integer_point():
    pts = [(True, np.int64(3)), (np.uint8(2), 7), (0, np.int8(1))]
    assert poly_interpolate(pts) == IntPoly((1, 1, 1))


def test_interpolate_non_integer():
    # three points of q/2-like data: no integer quadratic passes through
    with pytest.raises(NonIntegerCoefficients):
        poly_interpolate([(0, 0), (2, 1), (4, 0)])


def test_interpolate_round_trip_random():
    rng = random.Random(17)
    for _ in range(40):
        deg = rng.randrange(0, 9)
        poly = IntPoly([rng.randrange(-100, 101) for _ in range(deg)] + [rng.randrange(1, 101)])
        xs = rng.sample(range(-40, 40), poly.degree + 1)
        assert poly_interpolate([(x, poly(x)) for x in xs]) == poly


@st.composite
def _interpolation_data(draw):
    """Distinct integer abscissas with the values of an integer polynomial
    of any degree, the same with one value perturbed, or random values."""
    xs = draw(st.lists(st.integers(-30, 30), unique=True, max_size=8))
    kind = draw(st.sampled_from(("exact", "perturbed", "random")))
    if kind == "random":
        return xs, [draw(st.integers(-10**6, 10**6)) for _ in xs]
    poly = IntPoly(draw(st.lists(st.integers(-100, 100), max_size=10)))
    ys = [poly(x) for x in xs]
    if kind == "perturbed" and xs:
        ys[draw(st.integers(0, len(xs) - 1))] += draw(st.integers(1, 3))
    return xs, ys


@settings(max_examples=300)
@given(_interpolation_data())
def test_interpolate_matches_the_lagrange_oracle(data):
    xs, ys = data
    expected = _lagrange_fracs(xs, ys)
    if expected is None:
        with pytest.raises(NonIntegerCoefficients):
            poly_interpolate(zip(xs, ys))
    else:
        assert poly_interpolate(zip(xs, ys)) == IntPoly(expected)


@st.composite
def _division_cases(draw):
    """A nonzero divisor with any nonzero leading coefficient, negative
    and non-monic ones included, and a dividend that is a multiple of it,
    a multiple plus a small polynomial, any polynomial or zero."""
    small = st.integers(-6, 6)
    b = IntPoly(draw(st.lists(small, max_size=4)) +
                [draw(st.integers(-5, 5).filter(bool))])
    kind = draw(st.sampled_from(("multiple", "near", "any", "zero")))
    if kind == "zero":
        return IntPoly(), b
    if kind == "any":
        return IntPoly(draw(st.lists(st.integers(-40, 40), max_size=9))), b
    a = b * IntPoly(draw(st.lists(small, max_size=5)))
    if kind == "near":
        a = a + IntPoly(draw(st.lists(st.integers(-2, 2), max_size=3)))
    return a, b


@settings(max_examples=300)
@given(_division_cases())
@example((IntPoly((1, 2)), IntPoly((1, 1, 1))))  # deg a < deg b
@example((IntPoly((1, 3)), IntPoly((1, 2))))  # non-integral quotient
@example((IntPoly((-3, 0, 6)), IntPoly((1, -2))))  # negative leading term
@example((IntPoly((3, -5, -2)), IntPoly((1, -2))))  # ... dividing exactly
def test_divide_exact_matches_the_fraction_oracle(case):
    a, b = case
    quot, has_rem = _divmod_int(a, b)
    got = _divide_exact(a, b)
    if quot is None or has_rem:
        assert got is None
    else:
        assert got == quot
    assert _divide_exact(a, IntPoly()) is None


def test_split_examples():
    p7 = Q**4 * Q_MINUS_1**2
    s = split_qfactors(p7)
    assert (s.a, s.b, s.r) == (4, 2, IntPoly((1,)))
    s = split_qfactors(Q_MINUS_1)
    assert (s.a, s.b, s.r) == (0, 1, IntPoly((1,)))
    with pytest.raises(ZeroPolynomial):
        split_qfactors(IntPoly())


def test_split_reconstructs():
    rng = random.Random(23)
    for _ in range(60):
        base = IntPoly([rng.randrange(-6, 7) for _ in range(rng.randrange(1, 5))] + [1])
        poly = Q ** rng.randrange(0, 4) * Q_MINUS_1 ** rng.randrange(0, 4) * base
        if poly.is_zero():
            continue
        s = split_qfactors(poly)
        assert s.reconstruct() == poly
        assert s.r(0) != 0
        assert s.r(1) != 0


_int_polys = st.lists(st.integers(-10**6, 10**6), min_size=1,
                      max_size=9).map(IntPoly)
# c q^d, zero included, which powers without products
_monomials = st.builds(lambda c, d: IntPoly([0] * d + [c]),
                       st.integers(-50, 50), st.integers(0, 6))


@given(_int_polys, st.integers(0, 4), st.integers(0, 4))
def test_split_round_trip(base, a, b):
    poly = Q**a * Q_MINUS_1**b * base
    if poly.is_zero():
        return
    s = split_qfactors(poly)
    assert s.reconstruct() == poly
    assert s.r(0) != 0 and s.r(1) != 0
    assert s.a >= a and s.b >= b
    if base(0) != 0 and base(1) != 0:
        assert (s.a, s.b, s.r) == (a, b, base)


@given(_int_polys | _monomials, _int_polys | _monomials,
       _int_polys | _monomials, st.integers(-50, 50), st.integers(0, 4))
def test_ring_laws(f, g, h, x, e):
    zero, one = IntPoly(), IntPoly((1,))
    assert zero ** 0 == one and Q ** 0 == one
    assert IntPoly((0, 0, -2)) ** 3 == IntPoly((0,) * 6 + (-8,))
    power = one
    for _ in range(e):
        power = power * f
    assert f ** e == power
    # normal form: no zero on top, and the zero polynomial is ()
    for result in (f + g, f - g, g - f, -f, f * g, f ** e, 1 - f, f + 3):
        assert not result.coeffs or result.coeffs[-1] != 0
    assert (f - f).coeffs == ()
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f + g == g + f
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h
    assert f + zero == f and f * one == f and (f - f).is_zero()
    assert (f + g)(x) == f(x) + g(x)
    assert (f * g)(x) == f(x) * g(x)


@given(_int_polys, st.randoms(use_true_random=False))
def test_interpolate_round_trip(poly, rng):
    xs = rng.sample(range(-60, 61), max(poly.degree, 0) + 1)
    assert poly_interpolate([(x, poly(x)) for x in xs]) == poly


def test_ddf_examples():
    # roots of q^2+1 mod 5: exhaustive search finds 2 and 3
    assert [x for x in range(5) if (x * x + 1) % 5 == 0] == [2, 3]
    assert ddf_degrees(IntPoly((1, 0, 1)), 5) == [1, 1]
    # no roots mod 3
    assert [x for x in range(3) if (x * x + 1) % 3 == 0] == []
    assert ddf_degrees(IntPoly((1, 0, 1)), 3) == [2]
    # q^2+q+1 has no roots mod 2
    assert ddf_degrees(IntPoly((1, 1, 1)), 2) == [2]


def test_ddf_multiplicities():
    # (q+1)^2 mod 3
    assert ddf_degrees(IntPoly((1, 1)) * IntPoly((1, 1)), 3) == [1, 1]
    # (q^2+1)^2 mod 3 stays a squared irreducible
    sq = IntPoly((1, 0, 1))
    assert ddf_degrees(sq * sq, 3) == [2, 2]
    # q^5 - q mod 5 splits into all five linear factors
    assert ddf_degrees(IntPoly((0, -1, 0, 0, 0, 1)), 5) == [1] * 5
    # (q+1)^5 mod 5 = q^5 + 1: one linear factor, split off five times
    fifth = IntPoly((1, 1)) ** 5
    assert ddf_degrees(fifth, 5) == [1] * 5
    # q^5 (q+1) mod 5: q splits off five times and q+1 once, so the
    # p-th power counts five times, not 25
    assert ddf_degrees(IntPoly((0, 0, 0, 0, 0, 1, 1)), 5) == [1] * 6
    assert ddf_degrees(IntPoly((1, 1)) ** 7 * IntPoly((1, 0, 1)), 7) == \
        [1] * 7 + [2]


def test_ddf_bad_prime():
    with pytest.raises(BadPrime):
        ddf_degrees(IntPoly((1, 0, 5)), 5)


def test_ddf_of_a_nonzero_constant_is_empty():
    assert ddf_degrees(IntPoly((3,)), 5) == []
    assert ddf_degrees(IntPoly((1,)), 2) == []


def test_ddf_total_degree_preserved():
    rng = random.Random(31)
    for p in (5, 7, 11):
        for _ in range(15):
            poly = IntPoly([rng.randrange(-9, 10) for _ in range(rng.randrange(1, 7))] + [1])
            assert sum(ddf_degrees(poly, p)) == poly.degree


# -- the distinct-degree factorization against slow references -----------


def _pgcd(a, b, p):
    # the list gcd the distinct-degree loop used before it ran on packed
    # ints, kept as the oracle for the packed remainder sequence
    a, b = list(a), list(b)
    while b:
        _, r = _pdivmod(a, b, p)
        a, b = b, r
    return _pmonic(a, p)


def _ppowmod(base, e, mod, p):
    result = [1]
    base = _pdivmod(base, mod, p)[1]
    while e:
        if e & 1:
            result = _pdivmod(_pmul(result, base, p), mod, p)[1]
        base = _pdivmod(_pmul(base, base, p), mod, p)[1]
        e >>= 1
    return result


def _ddf_by_powering(poly, p):
    # each degree step raises h to the p-th power mod g by square and
    # multiply, then splits gcd(h - x, g) off g until it is 1, reducing h
    # modulo the shrinking g after every split: an irreducible factor of
    # degree d divides h - x, so it is in every gcd until g has lost all
    # of its copies
    g = _pmonic(_ptrim([c % p for c in poly.coeffs]), p)
    degrees = []
    h = [0, 1]
    d = 0
    while len(g) - 1 > 0:
        d += 1
        if 2 * d > len(g) - 1:
            degrees.append(len(g) - 1)
            break
        h = _ppowmod(h, p, g, p)
        while True:
            diff = list(h) + [0] * max(0, 2 - len(h))
            diff[1] = (diff[1] - 1) % p
            gd = _pgcd(_ptrim(diff), g, p)
            if len(gd) - 1 == 0:
                break
            degrees.extend([d] * ((len(gd) - 1) // d))
            g = _pdivmod(g, gd, p)[0]
            h = _pdivmod(h, g, p)[1]
    return sorted(degrees)


def _factor_degrees_by_trial_division(poly, p):
    # strip monic divisors of increasing degree: the first one that
    # divides is irreducible, since its factors would have divided first
    rest = [c % p for c in poly.coeffs]
    degrees = []
    d = 1
    while 2 * d <= len(rest) - 1:
        for tail in itertools.product(range(p), repeat=d):
            div = list(tail) + [1]
            while True:
                quot, rem = _naive_divmod(rest, div, p)
                if any(rem):
                    break
                rest = quot
                degrees.append(d)
        d += 1
    if len(rest) > 1:
        degrees.append(len(rest) - 1)
    return sorted(degrees)


def _naive_divmod(a, monic, p):
    a = list(a)
    m = len(monic) - 1
    quot = [0] * max(len(a) - m, 1)
    for top in range(len(a) - 1, m - 1, -1):
        c = a[top]
        quot[top - m] = c
        for i, b in enumerate(monic):
            a[top - m + i] = (a[top - m + i] - c * b) % p
    return quot, a[:m]


@st.composite
def _ddf_cases(draw, primes=(2, 3, 5, 7, 37, 8761, 2**31 - 1),
               max_degree=30):
    """A prime and a polynomial of degree <= max_degree with leading
    coefficient prime to it: dense, or a product of random factors with
    multiplicities, optionally times a p-th power g^p, so the degree loop
    splits off repeated factors, p-th powers among them."""
    p = draw(st.sampled_from(primes))
    residues = st.integers(0, p - 1)
    lead = draw(st.integers(1, p - 1))
    if draw(st.booleans()):
        deg = draw(st.integers(1, max_degree))
        return p, IntPoly(draw(st.lists(residues, min_size=deg,
                                        max_size=deg)) + [lead])
    poly, budget = IntPoly((lead,)), max_degree
    if p <= max_degree and draw(st.booleans()):
        e = draw(st.integers(1, max_degree // p))
        poly = poly * IntPoly(draw(st.lists(residues, min_size=e,
                                            max_size=e)) + [1]) ** p
        budget -= e * p
    while budget and (poly.degree < 1 or draw(st.booleans())):
        deg = draw(st.integers(1, min(budget, 8)))
        mult = draw(st.integers(1, min(3, budget // deg)))
        factor = IntPoly(draw(st.lists(residues, min_size=deg,
                                       max_size=deg)) + [1])
        poly = poly * factor ** mult
        budget -= deg * mult
    return p, poly


@settings(max_examples=200)
@given(_ddf_cases())
def test_ddf_matches_square_and_multiply_frobenius(case):
    p, poly = case
    degrees = ddf_degrees(poly, p)
    assert sum(degrees) == poly.degree
    assert degrees == _ddf_by_powering(poly, p)


@settings(max_examples=60)
@given(_ddf_cases(primes=(5,), max_degree=6))
def test_ddf_matches_factoring_by_trial_division(case):
    p, poly = case
    assert ddf_degrees(poly, p) == _factor_degrees_by_trial_division(poly, p)


# GF(8) and GF(9) take their moduli from characteristics 2 and 3, and
# derivatives vanish most often there
@pytest.mark.parametrize("p, max_degree", [(2, 8), (3, 5), (5, 4)])
def test_ddf_splits_every_monic_polynomial_of_low_degree(p, max_degree):
    for deg in range(max_degree + 1):
        for tail in itertools.product(range(p), repeat=deg):
            poly = IntPoly(list(tail) + [1])
            assert ddf_degrees(poly, p) == \
                _factor_degrees_by_trial_division(poly, p), poly


@pytest.mark.parametrize("p", [2, 5, 8761, 2**31 - 1])
def test_frobenius_table_packing_holds_its_largest_sum(p):
    rng = random.Random(p)
    for n in (2, 3, 7, 30):
        f = [rng.randrange(p) for _ in range(n)] + [1]
        ring = _PackedRing(f, p)
        assert ring.unpack(ring.mu) == \
            _pdivmod([0] * (2 * n - 2) + [1], f, p)[0]
        # two all-(p-1) operands fill the middle slot of their product
        # with n (p-1)^2
        top = [p - 1] * n
        got = ring.mul(ring.pack(top), ring.pack(top))
        assert ring.unpack(got) == _pdivmod(_pmul(top, top, p), f, p)[1]
        # and h^p = sum h_i x^(i p) against square and multiply
        assert ring.unpack(ring.frobenius(ring.pack(top))) == \
            _ppowmod(top, p, f, p)
        for i in (1, n - 1):
            assert ring.unpack(ring.rows[i]) == \
                _ppowmod([0] * i + [1], p, f, p)
        # a divisor of degree about n/2 puts the most quotient steps on
        # one slot of a degree-n dividend
        for db in range(n + 1):
            quot, rem = ring.divmod(ring.pack([p - 1] * (n + 1)),
                                    ring.pack([p - 1] * (db + 1)))
            assert [ring.unpack(quot), ring.unpack(rem)] == \
                list(_pdivmod([p - 1] * (n + 1), [p - 1] * (db + 1), p))
        # the slot reduction at the largest slot it admits, 2^a - 1, and
        # at the multiples of p next to it, in every slot of a product; a
        # is the bit length of the largest slot the class forms, derived in
        # its docstring
        a = ((p - 1) * (1 + n * p)).bit_length()
        k = (2**a - 1) // p
        values = [2**a - 1] + [v for v in (k * p - 1, k * p, k * p + 1)
                               if v < 2**a]
        slots = (values * (2 * n))[:2 * n - 1]
        assert ring.unpack(ring.reduce(ring.pack(slots))) == \
            _ptrim([v % p for v in slots])


@st.composite
def _packed_cases(draw):
    """A prime, a monic f of degree n, two residue lists of length n
    (factors of a product mod f), a dividend of degree <= n, a divisor of
    degree <= n with any nonzero leading coefficient, and a cofactor whose
    product with the divisor has degree <= n."""
    p = draw(st.sampled_from((2, 3, 5, 37, 8761, 2**31 - 1)))
    n = draw(st.integers(2, 30))
    residues = st.integers(0, p - 1)

    def poly(max_degree):
        deg = draw(st.integers(0, max_degree))
        return draw(st.lists(residues, min_size=deg, max_size=deg)) + \
            [draw(st.integers(1, p - 1))]

    f = draw(st.lists(residues, min_size=n, max_size=n)) + [1]
    factors = [draw(st.lists(residues, min_size=n, max_size=n))
               for _ in range(2)]
    dividend = _ptrim(draw(st.lists(residues, max_size=n + 1)))
    divisor = poly(n)
    cofactor = poly(n - len(divisor) + 1)
    return p, f, factors, dividend, divisor, cofactor


@settings(max_examples=200)
@given(_packed_cases())
def test_packed_ring_matches_the_list_arithmetic(case):
    p, f, (u, v), a, b, c = case
    ring = _PackedRing(f, p)
    pack = ring.pack
    assert ring.unpack(ring.mul(pack(u), pack(v))) == \
        _pdivmod(_pmul(u, v, p), f, p)[1]
    quot, rem = ring.divmod(pack(a), pack(b))
    assert [ring.unpack(quot), ring.unpack(rem)] == \
        list(_pdivmod(a, b, p))
    assert ring.divmod(pack(a), pack(b), quotient=False) == (0, rem)
    # an exact quotient, and gcds up to a unit
    cb = _pmul(c, b, p)
    assert ring.divmod(pack(cb), pack(b)) == (pack(c), 0)
    assert _pmonic(ring.unpack(ring.gcd(pack(a), pack(b))), p) == \
        _pgcd(a, b, p)
    assert _pmonic(ring.unpack(ring.gcd(pack(cb), pack(b))), p) == \
        _pgcd(cb, b, p) == _pmonic(b, p)


def test_irreducibility_examples():
    # R for (3,2,1): (2q+1)(8q^3+8q^2+3q+1)
    r321 = IntPoly((1, 2)) * IntPoly((1, 3, 8, 8))
    verdict = irreducibility(r321)
    assert verdict.is_reducible
    assert verdict.factors == (IntPoly((1, 2)), IntPoly((1, 3, 8, 8)))
    assert irreducibility(IntPoly((1, 1, 1))).kind == "irreducible"
    assert irreducibility(IntPoly((1,))).kind == "unit"
    assert irreducibility(IntPoly((-1,))).kind == "unit"
    with pytest.raises(ZeroPolynomial):
        irreducibility(IntPoly())


def test_irreducibility_requires_nonzero_constant():
    with pytest.raises(ValueError):
        irreducibility(Q)


def test_irreducible_certificates_reverify():
    polys = [
        IntPoly((1, 1, 1)),
        IntPoly((1, 5, 15, 34, 58, 62, 35)),
        IntPoly((1, 3, 8, 8)),
        IntPoly((1, 4, 5)),
        IntPoly((1, 6, 15, 81)),
    ]
    for poly in polys:
        verdict = irreducibility(poly)
        if verdict.method == "mod-p":
            (p,) = verdict.witness
            assert ddf_degrees(poly, p) == [poly.degree]


def test_reducible_factors_multiply_back():
    rng = random.Random(41)
    for _ in range(30):
        a = IntPoly([rng.choice((-1, 1))] + [rng.randrange(-4, 5) for _ in range(rng.randrange(1, 3))] + [rng.randrange(1, 5)])
        b = IntPoly([rng.choice((-1, 1))] + [rng.randrange(-4, 5) for _ in range(rng.randrange(1, 3))] + [rng.randrange(1, 5)])
        prod = a * b
        if prod.constant_term == 0:
            continue
        verdict = irreducibility(prod)
        assert verdict.is_reducible
        acc = IntPoly((1,))
        for f in verdict.factors:
            acc = acc * f
        assert acc == prod


def test_irreducibility_agrees_with_naive_kronecker():
    rng = random.Random(53)
    checked = 0
    while checked < 120:
        deg = rng.randrange(2, 5)
        coeffs = [rng.choice((-1, 1))] + \
            [rng.randrange(-5, 6) for _ in range(deg - 1)] + \
            [rng.randrange(-5, 6)]
        if coeffs[-1] == 0:
            continue
        poly = IntPoly(coeffs)
        checked += 1
        factor = oracle_kronecker_reducible(poly)
        verdict = irreducibility(poly)
        from math import gcd
        content = 0
        for c in poly.coeffs:
            content = gcd(content, c)
        if content > 1:
            assert verdict.is_reducible
        elif factor is None:
            assert verdict.kind == "irreducible", (poly.text(), verdict)
        else:
            assert verdict.is_reducible, (poly.text(), factor.text())


# R of the type-A partition (3,3,2,2,1,1,1,1), degree 27: the certificate
# primes leave only degree 4, and the divisor counts of its values at 0, 1,
# -1, 2, -2 multiply to 859,963,392 candidates, about 1.3 h of search
R_33221111 = IntPoly((
    1, 8, 38, 136, 405, 1055, 2479, 5361, 10810, 20509, 36843, 62887,
    102188, 158206, 233346, 327549, 436568, 550455, 653138, 724354, 744479,
    700532, 593754, 443338, 283010, 146874, 55965, 12012))


def test_an_oversized_kronecker_search_is_refused_before_it_runs():
    with deadline(5), pytest.raises(
            TooLarge, match="859963392 Kronecker candidates of degree 4"):
        irreducibility(R_33221111)


def test_kronecker_search_sizes_each_loop_against_the_budget(monkeypatch):
    import kirillov.intpoly as intpoly

    # q^2 + 1 at degree 1: values 1 and 2, so 2 x 4 signed divisor tuples
    monkeypatch.setattr(intpoly, "KRONECKER_BUDGET", 7)
    with pytest.raises(TooLarge, match="8 Kronecker candidates of degree 1"):
        _kronecker_search(IntPoly((1, 0, 1)), {1})
    monkeypatch.setattr(intpoly, "KRONECKER_BUDGET", 8)
    assert _kronecker_search(IntPoly((1, 0, 1)), {1}) is None
    # r(0) = 81 needs isqrt(81) = 9 trial divisions: refused before any

    def divide(n):
        raise AssertionError(f"trial division of {n} was not sized first")

    monkeypatch.setattr(intpoly, "_divisors_signed", divide)
    with pytest.raises(TooLarge, match="9 trial divisions of r\\(0\\)"):
        _kronecker_search(IntPoly((81, 0, 1)), {1})


def test_content_is_pulled_out():
    verdict = irreducibility(IntPoly((2, 4)))
    assert verdict.is_reducible
    assert verdict.factors == (IntPoly((2,)), IntPoly((1, 2)))


def test_text_and_parse():
    poly = IntPoly((1, 0, -3, 5))
    assert poly.text() == "1 - 3q^2 + 5q^3"
    assert IntPoly.from_text("1, 0, -3, 5") == poly
    assert IntPoly().text() == "0"
    assert IntPoly((0, 1)).text() == "q"
