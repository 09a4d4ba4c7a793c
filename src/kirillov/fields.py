"""Finite fields GF(p^k) and exact dense matrix algebra over them.

Elements are encoded as integers 0..q-1.  For prime fields the encoding
is the residue itself; for extension fields the base-p digits of the
encoding are the coefficients of a degree-<k polynomial, reduced modulo a
monic irreducible modulus found by deterministic search (smallest
canonical encoding first).  Everything is exact; there is no tolerance
anywhere.
"""

from __future__ import annotations

from itertools import zip_longest
from math import isqrt

from .errors import NotNilpotent, NotPrime
from .intpoly import IntPoly, _pdivmod, _pmul, _ptrim, ddf_degrees
from .partitions import Partition, jordan_type_from_ranks


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, isqrt(n) + 1))


class FieldCtx:
    """Immutable arithmetic context for GF(p^k)."""

    __slots__ = ("p", "k", "q", "modulus")

    def __init__(self, p: int, k: int = 1):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if k < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = None if k == 1 else _find_modulus(p, k)

    # -- element plumbing ------------------------------------------------

    def from_int(self, n: int) -> int:
        """Reduce an integer into the prime subfield."""
        return n % self.p

    def _vec(self, x: int):
        digits = []
        for _ in range(self.k):
            digits.append(x % self.p)
            x //= self.p
        return digits

    def _enc(self, vec) -> int:
        out = 0
        for d in reversed(vec[: self.k]):
            out = out * self.p + d
        return out

    # -- arithmetic -------------------------------------------------------

    def add(self, x: int, y: int) -> int:
        if self.k == 1:
            return (x + y) % self.p
        return self._enc([(a + b) % self.p for a, b in zip(self._vec(x), self._vec(y))])

    def sub(self, x: int, y: int) -> int:
        if self.k == 1:
            return (x - y) % self.p
        return self._enc([(a - b) % self.p for a, b in zip(self._vec(x), self._vec(y))])

    def mul(self, x: int, y: int) -> int:
        if self.k == 1:
            return (x * y) % self.p
        prod = _pmul(self._vec(x), self._vec(y), self.p)
        return self._enc(_pdivmod(prod, self.modulus, self.p)[1])

    def scale_int(self, m: int, x: int) -> int:
        """Integer multiple m*x (m reduced into the prime subfield)."""
        return self.mul(self.from_int(m), x)

    def inv(self, x: int) -> int:
        """Multiplicative inverse of a nonzero element (extended Euclid)."""
        if x == 0:
            raise ZeroDivisionError("0 has no inverse")
        if self.k == 1:
            return pow(x, -1, self.p)
        return self._enc(_polyinv(self._vec(x), self.modulus, self.p))

    def pow(self, x: int, e: int) -> int:
        result = 1
        base = x
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    # -- quadratic character ----------------------------------------------

    def quadratic_character(self, x: int) -> int:
        """1 for nonzero squares, -1 for non-squares, 0 for zero.

        Prime fields use the Euler criterion directly; extensions reduce
        to the prime subfield through the norm map x -> x^((q-1)/(p-1)).
        """
        if x == 0:
            return 0
        if self.p == 2:
            return 1
        if self.k == 1:
            return 1 if pow(x, (self.p - 1) // 2, self.p) == 1 else -1
        norm = self.pow(x, (self.q - 1) // (self.p - 1))
        return 1 if pow(norm, (self.p - 1) // 2, self.p) == 1 else -1

    # -- presentation -------------------------------------------------------

    def __repr__(self):
        return f"FieldCtx(q={self.q})"

    def __eq__(self, other):
        if isinstance(other, FieldCtx):
            return (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))


def _polyinv(vec, modulus, p):
    # extended Euclid in GF(p)[x] against the modulus
    r0, r1 = list(modulus), _ptrim(list(vec))
    s0, s1 = [], [1]
    while r1:
        quot, rem = _pdivmod(r0, r1, p)
        r0, r1 = r1, rem
        s0, s1 = s1, _ptrim([(a - b) % p for a, b in
                             zip_longest(s0, _pmul(quot, s1, p), fillvalue=0)])
    # r0 is a nonzero constant gcd; normalize
    inv_c = pow(r0[0], p - 2, p)
    out = [(c * inv_c) % p for c in s0]
    out += [0] * (len(modulus) - 1 - len(out))
    return out


def _find_modulus(p: int, k: int):
    """Smallest (by canonical encoding) monic irreducible of degree k."""
    for enc in range(p**k):
        coeffs = []
        e = enc
        for _ in range(k):
            coeffs.append(e % p)
            e //= p
        coeffs.append(1)
        if ddf_degrees(IntPoly(coeffs), p) == [k]:
            return tuple(coeffs)
    raise RuntimeError("no irreducible modulus found")  # unreachable


def make_prime_field(p: int) -> FieldCtx:
    """GF(p) for prime p."""
    return FieldCtx(p, 1)


def field_of_order(q: int) -> FieldCtx:
    """GF(q) for a prime power q."""
    if q < 2:
        raise NotPrime(f"{q} is not a prime power")
    p = min(d for d in range(2, isqrt(q) + 1) if q % d == 0) if not is_prime(q) else q
    k = 0
    rest = q
    while rest % p == 0:
        rest //= p
        k += 1
    if rest != 1:
        raise NotPrime(f"{q} is not a prime power")
    return FieldCtx(p, k)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


class FMatrix:
    """Dense square matrix over a FieldCtx, value-semantic."""

    __slots__ = ("ctx", "n", "rows")

    def __init__(self, ctx: FieldCtx, rows):
        self.ctx = ctx
        self.rows = tuple(tuple(int(x) for x in row) for row in rows)
        self.n = len(self.rows)
        if any(len(row) != self.n for row in self.rows):
            raise ValueError("matrix must be square")

    def __eq__(self, other):
        if isinstance(other, FMatrix):
            return self.ctx == other.ctx and self.rows == other.rows
        return NotImplemented

    def __hash__(self):
        return hash((self.ctx, self.rows))

    def is_zero(self) -> bool:
        return all(all(x == 0 for x in row) for row in self.rows)

    def __matmul__(self, other):
        ctx = self.ctx
        cols = list(zip(*other.rows))
        out = []
        for row in self.rows:
            out_row = []
            for col in cols:
                acc = 0
                for a, b in zip(row, col):
                    if a and b:
                        acc = ctx.add(acc, ctx.mul(a, b))
                out_row.append(acc)
            out.append(out_row)
        return FMatrix(ctx, out)

    def rank(self) -> int:
        """Rank by exact forward elimination with row pivoting."""
        ctx = self.ctx
        a = [list(row) for row in self.rows]
        n = self.n
        rank = 0
        for col in range(n):
            pivot = next((r for r in range(rank, n) if a[r][col]), None)
            if pivot is None:
                continue
            a[rank], a[pivot] = a[pivot], a[rank]
            inv = ctx.inv(a[rank][col])
            a[rank] = [ctx.mul(inv, x) for x in a[rank]]
            for r in range(rank + 1, n):
                f = a[r][col]
                if f:
                    a[r] = [ctx.sub(x, ctx.mul(f, y)) for x, y in zip(a[r], a[rank])]
            rank += 1
        return rank


def rank_sequence(m: FMatrix) -> tuple[int, ...]:
    """(rank M, rank M^2, ..., rank M^(n-1)) for a nilpotent matrix."""
    power = m
    ranks = []
    for _ in range(m.n - 1):
        ranks.append(power.rank())
        power = power @ m
    if not power.is_zero():
        raise NotNilpotent(f"M^{m.n} is not zero")
    return tuple(ranks)


def jordan_type(m: FMatrix) -> Partition:
    """Jordan type of a nilpotent matrix."""
    return jordan_type_from_ranks(rank_sequence(m), m.n)
