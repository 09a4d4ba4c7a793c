"""Finite fields GF(p^k) and exact dense matrix algebra over them.

Elements are encoded as integers 0..q-1.  The k base-p digits of the
encoding are the coefficients of a degree-<k polynomial, reduced modulo a
monic irreducible modulus found by deterministic search (smallest
canonical encoding first); for prime fields the one digit is the residue
itself, and every operation but the product follows the same rule for
any k.  Everything is exact; there is no tolerance anywhere.
"""

from __future__ import annotations

from math import isqrt

from .errors import NotNilpotent, NotPrime
from .intpoly import IntPoly, _PackedRing, ddf_degrees, is_prime
from .partitions import Partition, jordan_type_from_ranks


class FieldCtx:
    """Immutable arithmetic context for GF(p^k)."""

    __slots__ = ("p", "k", "q", "modulus", "ring")

    def __init__(self, p: int, k: int = 1):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if k < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = None if k == 1 else _find_modulus(p, k)
        self.ring = None if k == 1 else _PackedRing(self.modulus, p)

    # -- element plumbing ------------------------------------------------

    def from_int(self, n: int) -> int:
        """Reduce an integer into the prime subfield."""
        return n % self.p

    # -- arithmetic -------------------------------------------------------

    def add(self, x, y):
        """x + y, digit by digit mod p, on ints or integer numpy arrays
        (broadcast); ``FieldTables`` builds its sum table this way."""
        p, k = self.p, self.k
        return _from_digits([(a + b) % p for a, b
                             in zip(_digits(x, p, k), _digits(y, p, k))], p)

    def sub(self, x, y):
        """x - y, digit by digit mod p, on ints or integer numpy arrays
        (broadcast); ``FieldTables`` builds its difference table this way."""
        p, k = self.p, self.k
        return _from_digits([(a - b) % p for a, b
                             in zip(_digits(x, p, k), _digits(y, p, k))], p)

    def mul(self, x: int, y: int) -> int:
        p, k = self.p, self.k
        if k == 1:
            return (x * y) % p
        ring = self.ring
        prod = ring.mul(ring.pack(_digits(x, p, k)),
                        ring.pack(_digits(y, p, k)))
        return _from_digits(ring.unpack(prod), p)

    def scale_int(self, m: int, x: int) -> int:
        """Integer multiple m*x (m reduced into the prime subfield)."""
        return self.mul(self.from_int(m), x)

    def inv(self, x: int) -> int:
        """Multiplicative inverse of a nonzero element: x^(q-2), since
        x^(q-1) = 1 (Fermat's little theorem when q = p)."""
        if x == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self.pow(x, self.q - 2)

    def pow(self, x: int, e: int) -> int:
        if e < 0:
            raise ValueError("negative exponent")
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

        x is a square in GF(q) exactly when its norm x^((q-1)/(p-1)) is a
        square in GF(p), which the Euler criterion decides; when q = p the
        norm is x itself.
        """
        if x == 0:
            return 0
        if self.p == 2:
            return 1
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


def _digits(x, p: int, k: int) -> list:
    """The k base-p digits of x (an int or an integer numpy array), lowest
    first: the coefficients of the polynomial that the element x encodes."""
    return [x // p**i % p for i in range(k)]


def _from_digits(ds, p: int):
    """The element with base-p digits ``ds``, lowest first (ints or
    integer numpy arrays); the inverse of ``_digits``."""
    return sum(d * p**i for i, d in enumerate(ds))


def _find_modulus(p: int, k: int):
    """Smallest (by canonical encoding) monic irreducible of degree k."""
    for enc in range(p**k):
        coeffs = _digits(enc, p, k) + [1]
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
    p = next((d for d in range(2, isqrt(q) + 1) if q % d == 0), q)
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
