"""Exact univariate integer polynomials in the indeterminate q.

Coefficients are arbitrary-precision Python ints stored lowest degree
first; the zero polynomial has an empty coefficient tuple.  On top of the
ring arithmetic this module provides the pieces the counting results rely
on: exact interpolation from integer sample points, the split of a
polynomial into q^a * (q-1)^b * R with R(0), R(1) nonzero, the degrees
of the irreducible factors modulo a prime, and a certificate-producing
irreducibility test over Z[q] (mod-p certificates, factor-degree pruning
across primes, and a complete Kronecker search as the fallback).

The factor degrees modulo p come from one distinct-degree factorization
that splits off each factor once per multiplicity, so it needs no
squarefree decomposition first.  It runs entirely on the packed ints of
`_PackedRing`, the package's one implementation of GF(p)[x] modulo a
monic f (Kronecker substitution, one polynomial per int), which also
multiplies the elements of GF(p^k) in `fields`: one multiply, shift and
mask reduces every coefficient mod p at once, products are reduced mod f
by Barrett's method, and Euclid's algorithm subtracts whole multiples of
the divisor.  Frobenius h -> h^p, which is GF(p)-linear, is a table: the
rows x^(i p) mod f are built once per (f, p), so each degree step is a
linear combination of big ints instead of a square-and-multiply.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache
from math import gcd, isqrt, prod
from operator import index

from .errors import (
    BadPrime,
    DuplicateAbscissa,
    NonIntegerCoefficients,
    ZeroPolynomial,
    check_budget,
)


class IntPoly:
    """Univariate polynomial over Z, coefficient of q^i at index i.

    The constructor accepts any integers (ints, bools, numpy integers) and
    raises TypeError for anything else, floats and rationals included,
    instead of truncating them.  Results of the ring operations are built
    by `_of` from lists that already hold Python ints.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [int(index(c)) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors ---------------------------------------------------

    @classmethod
    def _of(cls, cs: list) -> "IntPoly":
        """The polynomial of a list of Python ints, trimmed in place and
        not coerced: the constructor for results the module computes."""
        while cs and cs[-1] == 0:
            cs.pop()
        poly = object.__new__(cls)
        poly.coeffs = tuple(cs)
        return poly

    @classmethod
    def from_text(cls, text: str) -> "IntPoly":
        """Parse a comma-separated coefficient list, lowest degree first."""
        parts = [p.strip() for p in text.split(",")]
        return cls(int(p) for p in parts if p)

    # -- structure ------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    @property
    def constant_term(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        longer, shorter = self.coeffs, _coerce(other).coeffs
        if len(longer) < len(shorter):
            longer, shorter = shorter, longer
        out = list(longer)
        for i, c in enumerate(shorter):
            out[i] += c
        return IntPoly._of(out)

    __radd__ = __add__

    def __neg__(self):
        return IntPoly._of([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        if self.is_zero() or other.is_zero():
            return IntPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly._of(out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        e = index(e)
        if e < 0:
            raise ValueError("negative exponent")
        cs = self.coeffs
        if cs and not any(cs[:-1]):
            # a monomial c q^d: the power is c^e q^(d e)
            return IntPoly._of([0] * ((len(cs) - 1) * e) + [cs[-1] ** e])
        result = IntPoly._of([1])
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, IntPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == IntPoly((other,)).coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    # -- evaluation -----------------------------------------------------

    def __call__(self, x: int) -> int:
        """Horner evaluation at an integer point."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- presentation ---------------------------------------------------

    def text(self) -> str:
        """ASCII form, lowest degree first, e.g. ``1 + 2q - 3q^2``."""
        if self.is_zero():
            return "0"
        chunks = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            elif i == 1:
                body = "q" if mag == 1 else f"{mag}q"
            else:
                body = f"q^{i}" if mag == 1 else f"{mag}q^{i}"
            if not chunks:
                chunks.append(body if c > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(chunks)

    def __repr__(self):
        return f"IntPoly({self.text()!r})"


def _coerce(x) -> IntPoly:
    if isinstance(x, IntPoly):
        return x
    if isinstance(x, int):
        return IntPoly((x,))
    raise TypeError(f"cannot coerce {type(x).__name__} to IntPoly")


Q = IntPoly((0, 1))
Q_MINUS_1 = IntPoly((-1, 1))


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------


def poly_interpolate(points) -> IntPoly:
    """Exact interpolating polynomial through integer ``(x, y)`` points.

    Newton's divided differences, in integers.  At distinct integer
    abscissas every divided difference of an integer polynomial is an
    integer (it is a Z-combination of the complete symmetric polynomials
    of the abscissas), and the divided differences of the data are those
    of its unique interpolant of degree below the number of points.  So
    the first divided difference that is not an integer proves that the
    interpolant has a non-integer coefficient, and raises
    NonIntegerCoefficients; a table of integers expands to integer
    coefficients.  Either way the samples come from an integer
    polynomial of that degree exactly when this returns.  Coordinates are
    read as the constructor reads coefficients: any integer (bool, numpy
    integer) is taken as a Python int, and a float, Fraction or string
    raises TypeError rather than being truncated or parsed.
    """
    pts = [(int(index(x)), int(index(y))) for x, y in points]
    xs = [x for x, _ in pts]
    if len(set(xs)) != len(xs):
        raise DuplicateAbscissa(f"duplicate abscissa in {sorted(xs)}")
    if not pts:
        return IntPoly()
    # divided-difference table, in place
    coefs = [y for _, y in pts]
    for level in range(1, len(pts)):
        for i in range(len(pts) - 1, level - 1, -1):
            num = coefs[i] - coefs[i - 1]
            den = xs[i] - xs[i - level]
            if num % den:
                raise NonIntegerCoefficients(
                    f"divided difference {num}/{den} is not an integer")
            coefs[i] = num // den
    # expand the Newton form: P = c0 + (q - x0)(c1 + (q - x1)(c2 + ...))
    poly = [coefs[-1]]
    for i in range(len(pts) - 2, -1, -1):
        # multiply by (q - xs[i]) then add coefs[i]
        x = xs[i]
        shifted = [coefs[i]] + poly
        for j, c in enumerate(poly):
            shifted[j] -= x * c
        poly = shifted
    return IntPoly._of(poly)


# ---------------------------------------------------------------------------
# the q^a (q-1)^b split
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SplitForm:
    """``q^a * (q-1)^b * r`` with ``r(0)`` and ``r(1)`` nonzero."""

    a: int
    b: int
    r: IntPoly

    def reconstruct(self) -> IntPoly:
        return Q**self.a * Q_MINUS_1**self.b * self.r


def split_qfactors(p: IntPoly) -> SplitForm:
    """Split off the maximal powers of q and q-1."""
    if p.is_zero():
        raise ZeroPolynomial("cannot split the zero polynomial")
    a = 0
    while p.coeff(a) == 0:
        a += 1
    rest = IntPoly._of(list(p.coeffs[a:]))
    b = 0
    while rest(1) == 0:
        rest = _divide_by_q_minus_1(rest)
        b += 1
    return SplitForm(a=a, b=b, r=rest)


def _divide_by_q_minus_1(p: IntPoly) -> IntPoly:
    # synthetic division by (q - 1); caller guarantees p(1) == 0
    out = [0] * p.degree
    carry = 0
    for i in range(p.degree, 0, -1):
        carry += p.coeffs[i]
        out[i - 1] = carry
    return IntPoly._of(out)


# ---------------------------------------------------------------------------
# arithmetic of polynomials modulo a prime, on packed ints
# ---------------------------------------------------------------------------


class _PackedRing:
    """GF(p)[x] arithmetic for one monic f of degree n >= 2, on packed ints.

    This is the only GF(p)[x] code of the package: `ddf_degrees` runs on
    it, and `fields.FieldCtx` multiplies GF(p^k) elements with it, f being
    the field's modulus.  A polynomial is one int (Kronecker substitution):
    coefficient i sits in slot i, bits [i w, (i + 1) w); `pack` and
    `unpack` convert from and to coefficient lists, lowest first.  Sums
    and products act on every slot at once and leave residue sums in the
    slots; `reduce` then takes every slot mod p with one multiply, shift
    and mask (Granlund and Montgomery's division by an invariant integer,
    applied to all slots together):

        v - p * (((v * m) >> s) & M),   m = ceil(2^s / p),  s = a + L,

    where L is the bit length of p and M keeps the low w - s bits of each
    of the 2n - 1 slots a product can have.  With m = (2^s + e) / p and
    0 <= e < p, a slot c < 2^a gives c m / 2^s = c / p + c e / (p 2^s), and
    the error is below 2^(a - s) = 2^-L < 1/p, too little to reach the next
    multiple of 1/p: the quotient is floor(c / p) exactly.  The slot holds
    c m < 2^w, since w is the bit length of (2^a - 1) m, so no product
    spills into the next slot before the shift; the low s bits it does
    leave in the slot below are cut off by M.  (m > 2^a, so w >= 2a > s.)

    a is the bit length of (p-1)(1 + n p), which bounds every slot any
    operation forms from reduced operands (slots below p).  All terms are
    nonnegative:

    - a product of two polynomials of degree < n, or a Frobenius image
      sum h_i x^(i p), adds at most n products of two residues per slot:
      at most n (p-1)^2;
    - Barrett's remainder P - quot f adds (n-1) p (p-1), a multiple of p,
      to each of the low n slots of the reduced P before subtracting
      quot f, which has at most n - 1 products of residues per slot:
      at most (p-1) + (n-1) p (p-1);
    - a Euclid quotient step adds D - c b, with c < p and D holding
      p (p-1), the least multiple of p that is at least (p-1)^2; a slot
      takes at most min(deg b, deg a - deg b) + 1 steps before the one
      reduction per remainder, which is at most n for the operands of
      `divmod`: at most (p-1) + n p (p-1).

    (p-1)(1 + n p) is the largest of the three, so `reduce` is exact on
    every slot this class forms, for any prime p.  Reduced ints carry no
    zero slots on top, so the degree is read off the bit length.
    """

    def __init__(self, f, p):
        n = len(f) - 1
        self.p, self.n = p, n
        a = ((p - 1) * (1 + n * p)).bit_length()
        self.inv_shift = a + p.bit_length()
        self.inv_p = -(-(1 << self.inv_shift) // p)
        w = self.width = ((2**a - 1) * self.inv_p).bit_length()
        self.mask = (1 << w) - 1

        def ones(slots):  # 1 in each of the low `slots` slots
            return ((1 << slots * w) - 1) // self.mask

        self.quot_mask = ((1 << w - self.inv_shift) - 1) * ones(2 * n - 1)
        self.offset = p * (p - 1) * ones(n + 1)  # D, for divisors up to x^n
        self.barrett_offset = (n - 1) * (self.offset >> w)
        self.low = (1 << n * w) - 1
        self.f = self.pack(f)
        self.mu = self.divmod(1 << (2 * n - 2) * w, self.f)[0]
        # the rows of Berlekamp's Q-matrix, x^(i p) mod f for i < n
        x = xp = 1 << w
        for bit in bin(p)[3:]:
            xp = self.mul(xp, xp)
            if bit == "1":
                xp = self.mul(xp, x)
        self.rows = [1, xp]
        while len(self.rows) < n:
            self.rows.append(self.mul(self.rows[-1], xp))

    def pack(self, coeffs):
        v = 0
        for c in reversed(coeffs):
            v = (v << self.width) | c
        return v

    def unpack(self, v):
        """The coefficients of reduced v, lowest first, no zeros on top."""
        return [v >> self.width * i & self.mask
                for i in range(self.degree(v) + 1)]

    def reduce(self, v):
        """Every slot of v mod p."""
        return v - self.p * (v * self.inv_p >> self.inv_shift & self.quot_mask)

    def degree(self, v):
        """Degree of reduced v, with -1 for zero."""
        return (v.bit_length() - 1) // self.width

    def mul(self, a, b):
        """a b mod f for reduced a, b of degree < n, by Barrett reduction:
        quot = floor(floor(P / x^n) mu / x^(n-2)) with mu = floor(x^(2n-2)
        / f) is the exact quotient of P = a b, of degree <= 2n - 2, by f."""
        n, w = self.n, self.width
        prod = self.reduce(a * b)
        quot = self.reduce((prod >> n * w) * self.mu) >> (n - 2) * w
        return self.reduce(
            (prod + self.barrett_offset - quot * self.f) & self.low)

    def divmod(self, a, b, quotient=True):
        """Quotient and remainder of reduced a by reduced b != 0, both of
        degree <= n, or x^(2n-2) by f for mu (n - 1 steps per slot).  The
        remainder is reduced; the quotient is left 0 unless asked for.

        Each step adds (D - c b) << pos, with c b congruent to the slot
        that is now on top, which keeps every slot nonnegative and leaves a
        multiple of p there.  So the slots above the one a step reads are
        all multiples of p: they change neither its residue nor, after the
        final reduction, the remainder, and no later step touches them.
        """
        w, p = self.width, self.p
        db = self.degree(b)
        inv = pow(b >> db * w, -1, p)
        offset = self.offset >> (self.n - db) * w
        quot = 0
        for pos in range((self.degree(a) - db) * w, -1, -w):
            c = (a >> pos + db * w) * inv % p
            if c:
                a += (offset - c * b) << pos
                if quotient:
                    quot |= c << pos
        return quot, self.reduce(a)

    def gcd(self, a, b):
        """A gcd of reduced a and b, not made monic."""
        while b:
            a, b = b, self.divmod(a, b, quotient=False)[1]
        return a

    def frobenius(self, h):
        """h^p mod f for reduced h of degree < n: sum h_i x^(i p)."""
        acc = 0
        for row in self.rows:
            c = h & self.mask
            if c:
                acc += c * row
            h >>= self.width
        return self.reduce(acc)


def ddf_degrees(f: IntPoly, p: int) -> list[int]:
    """Degrees (with multiplicity) of the irreducible factors of f mod p.

    One distinct-degree loop over g, the monic reduction of f mod p.  Step
    d computes h = x^(p^d) mod f as a linear combination of the rows
    x^(i p) mod f, built once per (f, p), and takes gd = gcd(h - x, g):
    the distinct factors of degree d left in g.  Dividing g by gd and
    taking gd = gcd(gd, g) until it is 1 splits each of them off once per
    multiplicity.  h stays reduced modulo f, not g: g divides f, so the
    gcd is unchanged.  Once 2d > deg g, every factor of degree below d is
    gone with its multiplicity, so g is one irreducible factor.  Every
    polynomial is a packed int of `_PackedRing`: products, remainders and
    gcds reduce all coefficients mod p at once, and the only loops run over
    the rows of a Frobenius image and the terms of a quotient.
    """
    if f.leading % p == 0:
        raise BadPrime(f"{p} divides the leading coefficient {f.leading}")
    inv = pow(f.leading, -1, p)
    fbar = [c * inv % p for c in f.coeffs]
    if len(fbar) <= 2:
        return [1] * (len(fbar) - 1)
    ring = _PackedRing(fbar, p)
    minus_x = (p - 1) << ring.width
    degrees = []
    g, h, d = ring.f, 1 << ring.width, 0
    while (dg := ring.degree(g)) > 0:
        d += 1
        if 2 * d > dg:
            degrees.append(dg)
            break
        h = ring.frobenius(h)
        gd = ring.gcd(ring.reduce(h + minus_x), g)
        while (dd := ring.degree(gd)) > 0:
            degrees.extend([d] * (dd // d))
            g = ring.divmod(g, gd)[0]
            gd = ring.gcd(gd, g)
    return sorted(degrees)


# ---------------------------------------------------------------------------
# irreducibility over Z[q]
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    """Outcome of the irreducibility test.

    kind is one of ``unit``, ``irreducible``, ``reducible``.  For
    irreducible verdicts ``method``/``witness`` identify the certificate:
    ``degree-1``; ``mod-p`` with the prime; ``degree-set`` with the primes
    whose factor-degree sets have empty intersection; or
    ``kronecker-exhausted`` after a complete factor search.  Reducible
    verdicts carry factors that multiply back to the input.
    """

    kind: str
    method: str = ""
    witness: tuple = ()
    factors: tuple = ()

    @property
    def is_reducible(self) -> bool:
        return self.kind == "reducible"


CERTIFICATE_PRIMES = 10  # primes tried for mod-p certificates and degree sets
# Steps allowed in one loop of the Kronecker search: trial divisions of one
# value, or candidates of one degree (about a minute at 5.4 us each).  The
# largest search of a scan to n = 13 tries 1,728 candidates.
KRONECKER_BUDGET = 10**7


@cache  # the certificate primes of every irreducibility call
def is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, isqrt(n) + 1))


def _first_primes_over_3(count: int, avoid: int):
    """First ``count`` primes > 3 that do not divide ``avoid``."""
    primes = []
    n = 5
    while len(primes) < count:
        if is_prime(n) and avoid % n != 0:
            primes.append(n)
        n += 2
    return primes


def _subset_sums(degrees) -> set[int]:
    sums = {0}
    for d in degrees:
        sums |= {s + d for s in sums}
    return sums


def _divisors_signed(n: int) -> list[int]:
    """Divisors of |n| with both signs, ordered by (|d|, sign)."""
    n = abs(n)
    small, large = [], []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    out = []
    for d in small + large[::-1]:
        out.extend((d, -d))
    return out


def _divide_exact(a: IntPoly, b: IntPoly):
    """Exact quotient a / b over Z, or None if b does not divide a.

    Long division in integers.  Each step divides the top coefficient of
    the remainder by b's leading coefficient.  While every step is exact,
    the quotient and remainder are those of the division over Q, and b
    divides a over Z exactly when nothing is left.  A step that leaves a
    remainder means the quotient over Q has a non-integer coefficient, so
    the division stops there (the remainder would keep that coefficient
    anyway: later steps only change lower degrees).
    """
    if b.is_zero():
        return None
    db, lead = b.degree, b.leading
    rem = list(a.coeffs)
    quot = [0] * max(a.degree - db + 1, 0)
    for shift in range(a.degree - db, -1, -1):
        f, r = divmod(rem[shift + db], lead)
        if r:
            return None
        quot[shift] = f
        if f:
            for i, c in enumerate(b.coeffs):
                rem[shift + i] -= f * c
    if any(rem):
        return None
    return IntPoly._of(quot)


def _kronecker_points(count: int):
    """Evaluation abscissas 0, 1, -1, 2, -2, ..."""
    return [0] + [s * k for k in range(1, count) for s in (1, -1)][:count - 1]


def _kronecker_search(r: IntPoly, candidate_degrees):
    """Complete factor search over the candidate degrees, smallest first.

    Any factor of degree d is pinned by its values at d+1 points, and each
    value must divide r there; tuples are scanned in a fixed order so the
    reported factorization is deterministic.  Each loop is sized before it
    runs (isqrt |r(x)| trial divisions per value, the product of the
    divisor counts per degree); past ``KRONECKER_BUDGET`` it raises TooLarge.
    """
    for d in sorted(candidate_degrees):
        xs = _kronecker_points(d + 1)
        vals = [r(x) for x in xs]
        if 0 in vals:
            # integer root: immediate linear factor
            g = IntPoly((-xs[vals.index(0)], 1))
            return g, _divide_exact(r, g)
        for x, v in zip(xs, vals):
            check_budget(isqrt(abs(v)), KRONECKER_BUDGET,
                         f"trial divisions of r({x})")
        divisors = [_divisors_signed(v) for v in vals]
        check_budget(prod(map(len, divisors)), KRONECKER_BUDGET,
                     f"Kronecker candidates of degree {d}")
        for combo in itertools.product(*divisors):
            try:
                g = poly_interpolate(zip(xs, combo))
            except NonIntegerCoefficients:
                continue
            if g.degree != d:
                continue
            if g.leading < 0:
                g = -g
            if g.constant_term == 0:
                continue
            quot = _divide_exact(r, g)
            if quot is not None:
                return g, quot
    return None


def irreducibility(r: IntPoly) -> Verdict:
    """Classify r as unit / irreducible / reducible over Z[q].

    The pipeline: trivial degrees, then mod-p irreducibility certificates,
    then pruning of achievable factor degrees across the certificate
    primes, then a complete Kronecker search over whatever degrees remain,
    which raises TooLarge past ``KRONECKER_BUDGET``.  A
    ``kronecker-exhausted`` verdict is a proof, not a heuristic.
    """
    if r.is_zero():
        raise ZeroPolynomial("irreducibility of the zero polynomial")
    if r.constant_term == 0:
        raise ValueError("expected r(0) != 0; split off powers of q first")
    if r.degree == 0:
        if abs(r.constant_term) == 1:
            return Verdict(kind="unit", method="unit")
        return Verdict(kind="reducible", method="content",
                       factors=(IntPoly((r.constant_term,)),))
    content = 0
    for c in r.coeffs:
        content = gcd(content, c)
    if content > 1:
        prim = IntPoly._of([c // content for c in r.coeffs])
        return Verdict(kind="reducible", method="content",
                       factors=(IntPoly((content,)), prim))
    if r.degree == 1:
        return Verdict(kind="irreducible", method="degree-1")

    primes = _first_primes_over_3(CERTIFICATE_PRIMES, abs(r.leading))
    candidate = set(range(1, r.degree // 2 + 1))
    for i, p in enumerate(primes):
        degs = ddf_degrees(r, p)
        if degs == [r.degree]:
            return Verdict(kind="irreducible", method="mod-p", witness=(p,))
        candidate &= _subset_sums(degs)
        if not candidate:
            return Verdict(kind="irreducible", method="degree-set",
                           witness=tuple(primes[:i + 1]))
    found = _kronecker_search(r, candidate)
    if found is not None:
        g, h = found
        return Verdict(kind="reducible", method="kronecker", factors=(g, h))
    return Verdict(kind="irreducible", method="kronecker-exhausted",
                   witness=tuple(sorted(candidate)))
