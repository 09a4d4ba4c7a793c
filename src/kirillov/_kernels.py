"""Vectorized mod-p linear algebra for the enumeration censuses.

The censuses walk q^6 (or q^(n(n-1)/2)) parameter tuples, so rank
sequences are computed in numpy batches.  Prime fields work directly mod
p.  Extension fields are handled by restriction of scalars: each element
becomes its k x k multiplication matrix over GF(p), and the matrix rank
over GF(p^k) is the GF(p) rank of the blown-up matrix divided by k.
Both facts are standard linear algebra, so the batched route computes
the same ranks as the exact reference implementation (cross-checked in
the tests).

All matrices fed in here are strictly upper triangular in k x k blocks,
so the i-th power is supported on the block band (column - row >= i);
products and ranks are restricted to that band to save work.
"""

from __future__ import annotations

import numpy as np

from .fields import FieldCtx


def _check_products_fit(p: int, m: int, dtype) -> None:
    """Raise unless a sum of m products of residues mod p fits ``dtype``.

    A matrix product over GF(p) with inner dimension m accumulates up to
    m * (p-1)^2 before it is reduced, and the numpy product is exact only
    while that stays inside the integer type.
    """
    if m * (p - 1) ** 2 > np.iinfo(dtype).max:
        raise OverflowError(f"{m} products of residues mod {p} overflow "
                            f"{np.dtype(dtype).name}")


def dtype_for(p: int, m: int):
    """The narrowest integer type that holds m * (p-1)^2: the largest sum a
    mod-p matrix product with inner dimension m accumulates."""
    fits32 = m * (p - 1) ** 2 <= np.iinfo(np.int32).max
    dtype = np.int32 if fits32 else np.int64
    _check_products_fit(p, m, dtype)
    return dtype


def inverse_table(p: int, dtype=None) -> np.ndarray:
    """inv[x] for x in 1..p-1 (index 0 maps to 0, used as a mask)."""
    table = np.zeros(p, dtype=dtype or dtype_for(p, 1))
    for x in range(1, p):
        table[x] = pow(x, -1, p)
    return table


def decode_mixed_radix(start: int, stop: int, radix: int, width: int,
                       dtype=np.int64) -> np.ndarray:
    """Digits (most significant first) of start..stop-1 in the given radix."""
    idx = np.arange(start, stop, dtype=np.int64)
    digits = np.empty((stop - start, width), dtype=dtype)
    for pos in range(width - 1, -1, -1):
        digits[:, pos] = idx % radix
        idx //= radix
    return digits


def rank_batch(mats: np.ndarray, p: int, inv: np.ndarray) -> np.ndarray:
    """Ranks over GF(p) of a batch of matrices, shape (B, r, c).

    Forward elimination with row pivoting, run lockstep over the whole
    batch; matrices that lack a pivot in the current column simply sit
    out the step (their update factors are masked to zero).  Exact: all
    arithmetic is mod p on integers.
    """
    a = mats % p
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
        scale = inv[a[bidx, rcur, col]] if all_has \
            else np.where(has, inv[a[bidx, rcur, col]], 0)
        pivrow = (a[bidx, rcur, col:] * scale[:, None]) % p
        below = rows > rcur[:, None]
        f = np.where(below if all_has else below & has[:, None], colv, 0)
        tail = a[:, :, col:]
        np.subtract(tail, f[:, :, None] * pivrow[:, None, :], out=tail)
        np.mod(tail, p, out=tail)
        if all_has:
            a[bidx, rcur, col:] = pivrow
        else:
            a[bidx[has], rcur[has], col:] = pivrow[has]
        row += has
        rank += has
        if (row == nrows).all():
            break
    return rank


def power_rank_sequences(mats: np.ndarray, p: int, inv: np.ndarray,
                         n_blocks: int, k: int = 1) -> np.ndarray:
    """Rank sequences (r_1 .. r_{n-1}) for block-strictly-upper input.

    ``mats`` has shape (B, n_blocks*k, n_blocks*k); the i-th power is
    supported on block rows 0..n-i-1 and block columns i..n-1, so each
    product keeps only the rows that can still be nonzero and each rank
    is taken on the corresponding band.  With k > 1 the GF(p^k) rank is
    the GF(p) rank divided by k.  Raises OverflowError when the products
    could overflow the dtype of ``mats``.

    The corner block of X^(n-1) is the product of the superdiagonal
    blocks, each the multiplication matrix of a field element.  So when
    none of them is zero, X^(n-1) != 0, X is a single Jordan block and
    r_i = n - i: those matrices are neither multiplied nor eliminated.
    """
    bsize, _, m = mats.shape
    _check_products_fit(p, m, mats.dtype)
    seqs = np.zeros((bsize, n_blocks - 1), dtype=mats.dtype)
    regular = np.ones(bsize, dtype=bool)
    for i in range(n_blocks - 1):
        block = mats[:, i * k:(i + 1) * k, (i + 1) * k:(i + 2) * k]
        regular &= block.any(axis=(1, 2))
    seqs[regular] = np.arange(n_blocks - 1, 0, -1)
    live = np.flatnonzero(~regular)
    base = power = mats if live.size == bsize else mats[live]
    for i in range(1, n_blocks):
        live_rows = (n_blocks - i) * k
        if i > 1:
            power = np.matmul(power[:, :live_rows, :], base)
            np.mod(power, p, out=power)
        ranks = rank_batch(power[:, :live_rows, i * k:], p, inv)
        if k > 1:
            if (ranks % k).any():
                raise AssertionError("restriction-of-scalars rank not divisible by k")
            ranks //= k
        seqs[live, i - 1] = ranks
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


class FieldTables:
    """Lookup tables for vectorized arithmetic in a small field.

    For k = 1 the helpers are plain residue arithmetic; for k > 1 they
    drive table-gather arithmetic plus the restriction-of-scalars
    embedding via per-element multiplication (companion) matrices.
    ``n_blocks`` is the size of the field matrices that will be embedded
    and multiplied; it sets the integer type (see ``dtype_for``).
    """

    def __init__(self, ctx: FieldCtx, n_blocks: int = 1):
        self.ctx = ctx
        q, k, p = ctx.q, ctx.k, ctx.p
        self.q, self.k, self.p = q, k, p
        self.dtype = dtype_for(p, n_blocks * k)
        self.inv_mod_p = inverse_table(p, self.dtype)
        if k == 1:
            self.add_t = self.mul_t = self.neg_t = None
            self.companion = None
            return
        self.add_t = np.empty((q, q), dtype=self.dtype)
        self.mul_t = np.empty((q, q), dtype=self.dtype)
        for x in range(q):
            for y in range(q):
                self.add_t[x, y] = ctx.add(x, y)
                self.mul_t[x, y] = ctx.mul(x, y)
        self.neg_t = np.array([ctx.neg(x) for x in range(q)], dtype=self.dtype)
        # companion[e][i][j]: digit i of e * x^j, the multiplication matrix of e
        comp = np.empty((q, k, k), dtype=self.dtype)
        for e in range(q):
            for j in range(k):
                col = ctx._vec(ctx.mul(e, p**j))
                for i in range(k):
                    comp[e, i, j] = col[i]
        self.companion = comp

    # vectorized field ops on integer-encoded arrays -----------------------

    def add(self, x, y):
        if self.k == 1:
            return (x + y) % self.p
        return self.add_t[x, y]

    def mul(self, x, y):
        if self.k == 1:
            return (x * y) % self.p
        return self.mul_t[x, y]

    def neg(self, x):
        if self.k == 1:
            return (-x) % self.p
        return self.neg_t[x]

    def scale_int(self, m: int, x):
        if self.k == 1:
            return (m * x) % self.p
        return self.mul_t[m % self.p, x]

    def embed(self, elem_mats: np.ndarray) -> np.ndarray:
        """(B, n, n) field-encoded -> (B, n*k, n*k) over GF(p)."""
        if self.k == 1:
            return elem_mats
        bsize, n, _ = elem_mats.shape
        blocks = self.companion[elem_mats]  # (B, n, n, k, k)
        return blocks.transpose(0, 1, 3, 2, 4).reshape(
            bsize, n * self.k, n * self.k)
