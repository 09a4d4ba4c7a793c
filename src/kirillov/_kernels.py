"""Vectorized GF(q) linear algebra for the enumeration censuses.

The censuses walk q^6 (or q^(n(n-1)/2)) parameter tuples, so rank
sequences are computed in numpy batches of field-encoded n x n matrices.
Prime fields work directly on residues mod p: products are integer
matmuls reduced mod p, and elimination subtracts and reduces in place.
Extension fields GF(p^k) work on the same n x n matrices: every sum,
difference, product and inverse is a gather from a table that
``FieldTables`` builds once per field (the table-lookup arithmetic of
small-field linear algebra libraries).  Both run the same lockstep
elimination, so the batched route computes the same ranks as the exact
reference implementation in ``fields`` (cross-checked in the tests).

All matrices fed in here are strictly upper triangular, so the i-th
power is supported on the band column - row >= i; products and ranks
are restricted to that band to save work.
"""

from __future__ import annotations

import numpy as np

from .fields import FieldCtx


def _check_fits(bound: int, dtype, what: str) -> None:
    if bound > np.iinfo(dtype).max:
        raise OverflowError(f"{what} overflow {np.dtype(dtype).name}")


def _check_products_fit(p: int, m: int, dtype) -> None:
    """Raise unless a sum of m products of residues mod p fits ``dtype``.

    A matrix product over GF(p) with inner dimension m accumulates up to
    m * (p-1)^2 before it is reduced, and the numpy product is exact only
    while that stays inside the integer type.
    """
    _check_fits(m * (p - 1) ** 2, dtype,
                f"{m} products of residues mod {p}")


def _check_indices_fit(q: int, dtype) -> None:
    """Raise unless ``dtype`` holds x*q + y for field elements x, y: the
    index of a gather from a flattened q x q table."""
    _check_fits(q * q - 1, dtype, f"indices into {q} x {q} tables")


def dtype_for(p: int, m: int):
    """The narrowest integer type that holds m * (p-1)^2: the largest sum a
    mod-p matrix product with inner dimension m accumulates."""
    fits32 = m * (p - 1) ** 2 <= np.iinfo(np.int32).max
    dtype = np.int32 if fits32 else np.int64
    _check_products_fit(p, m, dtype)
    return dtype


def decode_mixed_radix(start: int, stop: int, radix: int, width: int,
                       dtype=np.int64) -> np.ndarray:
    """Digits (most significant first) of start..stop-1 in the given radix."""
    idx = np.arange(start, stop, dtype=np.int64)
    digits = np.empty((stop - start, width), dtype=dtype)
    for pos in range(width - 1, -1, -1):
        digits[:, pos] = idx % radix
        idx //= radix
    return digits


def rank_batch(mats: np.ndarray, t: "FieldTables") -> np.ndarray:
    """Ranks over GF(q) of a batch of field-encoded matrices, shape (B, r, c).

    Forward elimination with row pivoting, run lockstep over the whole
    batch; matrices that lack a pivot in the current column simply sit
    out the step (their update factors are masked to zero).  Exact: for
    k = 1 all arithmetic is mod p on integers, for k > 1 it is gathers
    from the field's tables.
    """
    p, prime = t.p, t.k == 1
    a = mats % p if prime else mats.copy()
    bsize, nrows, ncols = a.shape
    if bsize == 0:
        return np.zeros(0, dtype=a.dtype)
    rank = np.zeros(bsize, dtype=a.dtype)
    row = np.zeros(bsize, dtype=a.dtype)
    rows = np.arange(nrows, dtype=a.dtype)[None, :]
    bidx = np.arange(bsize)
    for col in range(ncols):
        colv = a[:, :, col]
        cand = (colv != 0) & (rows >= row[:, None])
        has = cand.any(axis=1)
        if not has.any():
            continue
        all_has = has.all()
        rcur = np.minimum(row, nrows - 1)
        piv = np.where(has, cand.argmax(axis=1), rcur)
        # swap the pivot row up; unpivoted rows are zero left of col, so
        # swapping the col: tail suffices
        if (piv != rcur).any():
            pv = a[bidx, piv, col:].copy()
            rv = a[bidx, rcur, col:].copy()
            a[bidx, piv, col:] = rv
            a[bidx, rcur, col:] = pv
        scale = t.inv_t[a[bidx, rcur, col]] if all_has \
            else np.where(has, t.inv_t[a[bidx, rcur, col]], 0)
        below = rows > rcur[:, None]
        f = np.where(below if all_has else below & has[:, None], colv, 0)
        tail = a[:, :, col:]
        if prime:
            pivrow = (a[bidx, rcur, col:] * scale[:, None]) % p
            np.subtract(tail, f[:, :, None] * pivrow[:, None, :], out=tail)
            np.mod(tail, p, out=tail)
        else:
            pivrow = t.mul(scale[:, None], a[bidx, rcur, col:])
            tail[...] = t.sub(tail, t.mul(f[:, :, None], pivrow[:, None, :]))
        if all_has:
            a[bidx, rcur, col:] = pivrow
        else:
            a[bidx[has], rcur[has], col:] = pivrow[has]
        row += has
        rank += has
        if (row == nrows).all():
            break
    return rank


def _band_product(t: "FieldTables", power: np.ndarray, base: np.ndarray,
                  i: int) -> np.ndarray:
    """Rows 0..n-i-1 of X^i = X^(i-1) X by table gathers (k > 1).

    ``power`` holds the rows of X^(i-1) that can be nonzero.  Entry (r, c)
    sums X^(i-1)[r, l] X[l, c] over r + i - 1 <= l < c, so term l touches
    only rows r <= l - i + 1 and columns c > l.
    """
    bsize, _, n = base.shape
    out = np.zeros((bsize, n - i, n), dtype=base.dtype)
    for l in range(i - 1, n - 1):
        r_hi = min(l - i + 2, n - i)
        block = out[:, :r_hi, l + 1:]
        block[...] = t.add(block, t.mul(power[:, :r_hi, l, None],
                                        base[:, None, l, l + 1:]))
    return out


def power_rank_sequences(mats: np.ndarray, t: "FieldTables") -> np.ndarray:
    """Rank sequences (r_1 .. r_{n-1}) for strictly upper triangular input.

    ``mats`` has shape (B, n, n) and holds field-encoded entries; the
    i-th power is supported on rows 0..n-i-1 and columns i..n-1, so each
    product keeps only the rows that can still be nonzero and each rank
    is taken on that band.  Powers are integer matmuls mod p for k = 1
    and table gathers for k > 1.  Raises OverflowError when the products
    (k = 1) or the table indices (k > 1) could overflow the dtype of
    ``mats``.

    The corner entry of X^(n-1) is the product of the superdiagonal
    entries.  So when none of them is zero, X^(n-1) != 0, X is a single
    Jordan block and r_i = n - i: those matrices are neither multiplied
    nor eliminated.
    """
    bsize, _, n = mats.shape
    if t.k == 1:
        _check_products_fit(t.p, n, mats.dtype)
    else:
        _check_indices_fit(t.q, mats.dtype)
    seqs = np.zeros((bsize, n - 1), dtype=mats.dtype)
    regular = np.ones(bsize, dtype=bool)
    for i in range(n - 1):
        regular &= mats[:, i, i + 1] != 0
    seqs[regular] = np.arange(n - 1, 0, -1)
    live = np.flatnonzero(~regular)
    base = power = mats if live.size == bsize else mats[live]
    for i in range(1, n):
        if i > 1 and t.k == 1:
            power = np.matmul(power[:, :n - i, :], base)
            np.mod(power, t.p, out=power)
        elif i > 1:
            power = _band_product(t, power, base, i)
        seqs[live, i - 1] = rank_batch(power[:, :n - i, i:], t)
    return seqs


def encode_sequences(seqs: np.ndarray) -> np.ndarray:
    """Pack small rank sequences into single ints (4 bits per entry).

    Raises OverflowError for a rank outside 0..15, which 4 bits cannot hold.
    """
    if seqs.size and (seqs.min() < 0 or seqs.max() > 15):
        raise OverflowError(f"ranks {int(seqs.min())}..{int(seqs.max())} do "
                            f"not fit the 4-bit packing")
    keys = np.zeros(seqs.shape[0], dtype=np.int64)
    for i in range(seqs.shape[1]):
        keys = (keys << 4) | seqs[:, i].astype(np.int64)
    return keys


def decode_sequence(key: int, length: int) -> tuple[int, ...]:
    out = []
    for _ in range(length):
        out.append(int(key & 0xF))
        key >>= 4
    return tuple(reversed(out))


def _generator_powers(ctx: FieldCtx) -> np.ndarray:
    """g^0 .. g^(q-2) for the first generator g of the multiplicative group."""
    for g in range(2, ctx.q):
        powers = [1]
        x = g
        while x != 1:
            powers.append(x)
            x = ctx.mul(x, g)
        if len(powers) == ctx.q - 1:
            return np.array(powers)
    raise AssertionError(f"GF({ctx.q}) has no generator")  # unreachable


class FieldTables:
    """Lookup tables for vectorized arithmetic in GF(q), q = p^k.

    Arrays hold field-encoded elements.  For k = 1 the helpers are plain
    residue arithmetic mod p.  For k > 1 every operation is a gather from
    a q x q table (``add_t``, ``sub_t``, ``mul_t``) or a size-q table
    (``neg_t``): sums and differences act digit by digit on the base-p
    encodings, and products come from the discrete logarithms to a
    generator found with ``ctx.mul``.  ``inv_t`` (size q, 0 -> 0) serves
    both.  ``n`` is the size of the matrices the kernels will multiply;
    for k = 1 it sets the integer type (see ``dtype_for``), for k > 1 the
    type only has to hold the table indices.
    """

    def __init__(self, ctx: FieldCtx, n: int = 1):
        self.ctx = ctx
        q, k, p = ctx.q, ctx.k, ctx.p
        self.q, self.k, self.p = q, k, p
        if k == 1:
            self.dtype = dtype_for(p, n)
            self.inv_t = np.zeros(p, dtype=self.dtype)
            for x in range(1, p):
                self.inv_t[x] = pow(x, -1, p)
            self.add_t = self.sub_t = self.mul_t = self.neg_t = None
            return
        self.dtype = np.int32 if q * q <= np.iinfo(np.int32).max else np.int64
        _check_indices_fit(q, self.dtype)
        elems = np.arange(q, dtype=self.dtype)
        self.add_t = np.zeros((q, q), dtype=self.dtype)
        self.sub_t = np.zeros((q, q), dtype=self.dtype)
        for i in range(k):
            digit = elems // p**i % p
            self.add_t += (digit[:, None] + digit[None, :]) % p * p**i
            self.sub_t += (digit[:, None] - digit[None, :]) % p * p**i
        self.neg_t = self.sub_t[0].copy()
        exp = _generator_powers(ctx).astype(self.dtype)
        log = np.zeros(q, dtype=self.dtype)
        log[exp] = np.arange(q - 1)
        self.mul_t = exp[(log[:, None] + log[None, :]) % (q - 1)]
        self.mul_t[0, :] = self.mul_t[:, 0] = 0
        self.inv_t = np.zeros(q, dtype=self.dtype)
        self.inv_t[1:] = exp[-log[1:] % (q - 1)]

    # vectorized field ops on integer-encoded arrays -----------------------

    def _gather(self, table, x, y):
        return table.ravel().take(np.multiply(x, self.q) + y)

    def add(self, x, y):
        if self.k == 1:
            return (x + y) % self.p
        return self._gather(self.add_t, x, y)

    def sub(self, x, y):
        if self.k == 1:
            return (x - y) % self.p
        return self._gather(self.sub_t, x, y)

    def mul(self, x, y):
        if self.k == 1:
            return (x * y) % self.p
        return self._gather(self.mul_t, x, y)

    def neg(self, x):
        if self.k == 1:
            return (-x) % self.p
        return self.neg_t[x]

    def scale_int(self, m: int, x):
        if self.k == 1:
            return (m * x) % self.p
        return self.mul_t[m % self.p][x]

    def embed(self, elem_mats: np.ndarray) -> np.ndarray:
        """The batch the rank kernels take: the field-encoded batch itself.

        The kernels work on field-encoded matrices for every q, so nothing
        is converted.  The census chunks still pass each assembled batch
        through here once, so that assembly and rank computation meet at
        one named boundary, which the ``perfbench`` tracer times as the
        ``kernels.embed`` layer.
        """
        return elem_mats
