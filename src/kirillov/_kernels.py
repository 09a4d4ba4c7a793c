"""Vectorized GF(q) linear algebra for the enumeration censuses, and the
census engine both of them run on (``run_census``).

The censuses walk q^6 (or q^(n(n-1)/2)) parameter tuples, so rank
sequences are computed in numpy batches of field-encoded n x n matrices:
on residues mod p over GF(p), and over GF(p^k) by gathers from the tables
``FieldTables`` builds once per field (the table-lookup arithmetic of
small-field linear algebra libraries).  The ranks are those of the exact
reference implementation in ``fields`` (cross-checked in the tests).  All
matrices fed in here are strictly upper triangular, so the i-th power is
supported on the band column - row >= i; products and ranks are
restricted to that band to save work.

The layout is batch-last.  The kernels take batches as (B, n, n) arrays
but compute on (n, n, B) arrays, so that numpy's innermost loop runs
over the B matrices rather than over a row of 2 to 7 entries
(``BENCH_batch-last.json``).  The censuses assemble (n, n, B) arrays
(``assemble``) and pass their (B, n, n) transposed views, which the
kernels turn back without a copy.  For the same reason no kernel
reduces or indexes across the row axis of a (rows, B) array: numpy runs
``argmax`` over that axis, and a fancy index across it, one matrix at a
time, while an elementwise step on each row is vectorized along the
batch.

Every limit on the element type is one number, ``FieldTables.bound(m)``:
the largest value any kernel forms on matrices with m columns, m (p-1)^2
over GF(p) and max(q^2 - 1, m) over GF(p^k).  Each value formed in an
array of the element type stays within it: decoded digits, assembled
entries and table values are below q; in ``g2._predicted_batch`` sums,
differences and products of residues are at most (p-1)^2; band products
are at most (n-1)(p-1)^2; the delayed elimination stays within c (p-1)^2
(see ``rank_batch``); gather indices are at most q^2 - 1; the log sums
that build ``mul_t`` are at most 2(q-2); and ranks are at most m.
``FieldTables`` holds every batch in the narrowest signed integer type
that holds ``bound(n)`` (``_narrowest_int``), so the n = 4 type-A census
over GF(8) and GF(9) runs on int8, and the 7 x 7 g2 matrices over GF(7)
on int16.  Both rank kernels raise OverflowError unless the type of their
input holds ``bound`` of its column count, so a wide matrix over GF(p^k)
is refused even when its ranks would fit.  The two kernels around them
check their own limits: ``decode_mixed_radix`` raises unless its type
holds the largest digit, and ``encode_sequences`` unless each sequence
fits a 64-bit key.  The Python ints mixed into these arrays
(q in ``_gather``, p in ``_mod_p``, the Chevalley coefficients once
``scale_int`` has reduced them) fit too; under numpy 2 (NEP 50) one that
did not would raise, not wrap.  The one value formed outside these
limits is ``x // p * p`` in ``_mod_p``, which lies in [x - (p-1), x]: it
can fall below the type's minimum only for x within p - 2 of it, and
there it wraps.  The wrap cancels in the subtraction that follows,
because numpy's integer arithmetic is two's complement (exact mod
2^bits) and the residue x mod p fits the type, so the result is exact on
every value of the type (checked on every int8 and int16 value in the
tests).  The narrowest type is chosen for speed: each batch operation
then moves the fewest bytes (``BENCH_narrow-dtype.json``).
"""

from __future__ import annotations

import multiprocessing as mp
import os

import numpy as np

from .errors import NotAField
from .fields import FieldCtx

DEFAULT_BUDGET = 200_000_000
DEFAULT_BATCH = 1 << 15


def _check_fits(bound: int, dtype, what: str) -> None:
    if bound > np.iinfo(dtype).max:
        raise OverflowError(f"{what} overflow {np.dtype(dtype).name}")


def _mod_p(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in place, as x - x // p * p with one temporary, exact on
    every value of the type (see the module docstring).  Not ``%``: numpy
    vectorizes floor division by a scalar (division by an invariant
    integer, Granlund and Montgomery, PLDI 1994) but computes the
    remainder one element at a time (``BENCH_floor-mod.json``)."""
    r = x // p
    r *= p
    x -= r
    return x


def _narrowest_int(bound: int, what: str):
    """The first of int8, int16, int32 and int64 that holds ``bound``.
    Raises OverflowError, naming ``what``, when even int64 does not."""
    for dtype in (np.int8, np.int16, np.int32):
        if bound <= np.iinfo(dtype).max:
            return dtype
    _check_fits(bound, np.int64, what)
    return np.int64


def decode_mixed_radix(start: int, stop: int, radix: int, width: int,
                       dtype) -> np.ndarray:
    """Digits (most significant first) of start..stop-1 in the given radix.

    Returns a (stop - start, width) array: the transpose of the batch-last
    (width, stop - start) array the digits are written into, so that each
    digit column is one contiguous row of memory.

    Nothing is divided per index (``BENCH_index-bookkeeping.json``).  The
    digit of weight w = radix^j is k % radix across the block of indices
    k*w .. k*w + w - 1, so each column repeats a pattern of period
    radix * w.  Where whole periods fit in the range, the pattern is built
    once and copied over them; otherwise the range touches at most
    count / w + 2 blocks, and the column repeats each block's digit over
    the part of the block inside the range.  Work and memory stay
    O(count * width) however large radix**width is.  Raises ValueError
    unless radix >= 2, width >= 0 and 0 <= start <= stop <= radix**width,
    and OverflowError unless ``dtype`` holds radix - 1, the largest digit.
    """
    if radix < 2 or width < 0 or not 0 <= start <= stop <= radix**width:
        raise ValueError(f"no range {start}..{stop} of {width} digits in "
                         f"radix {radix}")
    _check_fits(radix - 1, dtype, f"digits in radix {radix}")
    count = stop - start
    digits = np.empty((width, count), dtype=dtype)
    weight = 1
    for pos in range(width - 1, -1, -1):
        col = digits[pos]
        period = radix * weight
        if period <= count:
            pattern = np.arange(radix, dtype=dtype).repeat(weight)
            off = start % period
            head = period - off
            body = head + (count - head) // period * period
            col[:head] = pattern[off:]
            col[head:body].reshape(-1, period)[...] = pattern
            col[body:] = pattern[:count - body]
        elif count:
            # blocks first..last; all but the end ones lie inside the
            # range, which then holds more than weight indices
            first, last = start // weight, (stop - 1) // weight
            lengths = np.full(last - first + 1, min(weight, count))
            lengths[0] = min((first + 1) * weight, stop) - start
            lengths[-1] = stop - max(last * weight, start)
            blocks = (first % radix + np.arange(lengths.size)) % radix
            col[:] = blocks.repeat(lengths)
        weight *= radix
    return digits.T


def rank_batch(mats: np.ndarray, t: "FieldTables") -> np.ndarray:
    """Ranks over GF(q) of a batch of field-encoded matrices, shape (B, r, c).

    Forward elimination run lockstep over the whole batch, without row
    swaps: each matrix keeps a mask of its free rows, those without a
    pivot yet.  In each column the first free row with a nonzero entry is
    the pivot, and every other free row subtracts its multiple of the
    pivot row from the columns to the right; the rank is the number of
    pivots.  Exact: for k = 1 all arithmetic is on integers mod p, for
    k > 1 it is gathers from the field's tables.  It runs on a fresh
    batch-last (r, c, B) copy, never a view of ``mats``, so the caller's
    batch is left as it was, in any layout.

    The pivots are a one-hot (rows, B) mask, ``first``, not an index: a
    running OR, ``has``, down the candidate rows (free and nonzero in the
    column) keeps in each matrix only the first of them, and says at the
    end which matrices have a pivot.  The pivot value is the sum of the
    column under that mask and the pivot row the sum of the trailing
    block under it, each sum having one nonzero term; the pivot leaves
    the free mask by clearing it.  Every step is elementwise along the
    batch, where ``argmax`` over the rows and a fancy index of the pivot
    across them are not (the layout of the module docstring;
    ``BENCH_floor-mod.json``).

    A row whose first nonzero column anywhere in the batch (its lead) lies
    beyond the current column has never been touched: each earlier
    column found it zero, so it was neither a pivot nor updated.  Column
    ``col`` therefore works on rows 0..reach[col]-1, up to the last one
    with lead <= col (an all-zero row leads at c).

    Only a column with entries to its right and more than one row it
    reaches is eliminated.  On the last column the update has no entries
    to change, so its pivots are added to the rank and the loop ends.  A
    column that reaches one row can hold a nonzero entry only in row 0,
    so row 0 is its pivot wherever there is one and no other row is
    updated: the pivots are added and row 0 leaves the free mask.  Column
    0 of every strictly upper band is of that kind, so for n = 4 the 2 x 2
    band of X^2 runs no update and the 3 x 3 band of X one of three
    (``BENCH_rank-shortcuts.json``).

    For k = 1 the reduction mod p is delayed (Dumas, Giorgi and Pernet,
    FFLAS-FFPACK): only the current column and the pivot row are reduced,
    in place by ``_mod_p``, for the zero test and the update factors,
    while the trailing block is not.  Each column subtracts at most
    (p-1)^2 from an entry, so over c columns entries stay within
    (p-1) + (c-1)(p-1)^2 of zero, which is below ``t.bound(c)``.  The
    entries of ``mats`` must be field-encoded (residues in 0..p-1 for
    k = 1), so the batch is copied without a reduction.  Raises
    OverflowError unless the dtype of ``mats`` holds ``t.bound(c)``; the
    ranks, at most c, are returned in that dtype.  A batch with no nonzero
    entry (an empty batch, or one of the all-zero bands that
    ``power_rank_sequences`` ranks past the first zero power) has rank 0
    and is not eliminated; the zero test runs on the contiguous copy,
    which costs far less than on a strided band.
    """
    p, prime = t.p, t.k == 1
    bsize, nrows, ncols = mats.shape
    _check_fits(t.bound(ncols), mats.dtype,
                f"GF({t.q}) values on {ncols} columns")
    a = mats.transpose(1, 2, 0).copy(order="C")
    rank = np.zeros(bsize, dtype=a.dtype)
    if not a.any():
        return rank
    nonzero = a.any(axis=2)
    lead = (~np.logical_or.accumulate(nonzero, axis=1)).sum(axis=1)
    reach = np.zeros(ncols + 1, dtype=np.intp)
    np.maximum.at(reach, lead, np.arange(1, nrows + 1))
    reach = np.maximum.accumulate(reach)
    free = np.ones((nrows, bsize), dtype=bool)
    for col in range(ncols):
        hi = reach[col]
        colv = _mod_p(a[:hi, col], p) if prime else a[:hi, col]
        first = free[:hi] & (colv != 0)
        has = np.zeros(bsize, dtype=bool)
        for r in range(hi):
            first[r] &= ~has
            has |= first[r]
        if not has.any():
            continue
        rank += has
        if col == ncols - 1:
            break
        if hi == 1:
            free[0] &= ~has
            continue
        scale = t.inv_t.take((colv * first).sum(axis=0, dtype=a.dtype))
        # the pivot leaves the free mask before the factors are masked by
        # it, which zeroes them on the pivot row and on earlier pivot
        # rows, so those keep their echelon entries (the ranks never read
        # them again); a matrix without a pivot here is zero on its free
        # rows, so its factors are all zero
        free[:hi] &= ~first
        f = colv * free[:hi]
        tail = a[:hi, col + 1:]
        pivrow = (tail * first[:, None, :]).sum(axis=0, dtype=a.dtype)
        if prime:
            f *= scale
            _mod_p(f, p)
            _mod_p(pivrow, p)
            tail -= f[:, None, :] * pivrow
        else:
            f = t.mul(f, scale)
            tail[...] = t.sub(tail, t.mul(f[:, None, :], pivrow))
        if (rank == nrows).all():
            break
    return rank


def _band_product(t: "FieldTables", power: np.ndarray, base: np.ndarray,
                  i: int) -> np.ndarray:
    """Rows 0..n-i-1 of X^i = X^(i-1) X, batch-last: shape (n-i, n, B).

    ``power`` holds the rows of X^(i-1) that can be nonzero and ``base``
    is X, both batch-last.  Entry (r, c) sums X^(i-1)[r, l] X[l, c] over
    r + i - 1 <= l < c, so term l touches only rows r <= l - i + 1 and
    columns c > l.  For k = 1 the terms are added as integers and reduced
    mod p once at the end, by ``_mod_p`` (at most n - 1 products of
    residues, which ``t.bound(n)`` covers); for k > 1 every product and
    sum is a table gather.
    """
    n = base.shape[0]
    out = np.zeros((n - i, n, base.shape[2]), dtype=base.dtype)
    for l in range(i - 1, n - 1):
        r_hi = min(l - i + 2, n - i)
        block = out[:r_hi, l + 1:]
        if t.k == 1:
            block += power[:r_hi, l, None] * base[None, l, l + 1:]
        else:
            block[...] = t.add(block, t.mul(power[:r_hi, l, None],
                                            base[None, l, l + 1:]))
    if t.k == 1:
        _mod_p(out, t.p)
    return out


def single_block_mask(n: int, terms, p: int, size: int) -> np.ndarray:
    """Which matrices of a batch of strictly upper triangular n x n
    matrices over GF(p^k) are single Jordan blocks, told from their
    decoded coordinates before the batch is assembled.

    ``terms`` lists the terms of X as ``(i, j, values, coeff)``: entry
    (i, j) holds the integer ``coeff`` times ``values``, a decoded
    coordinate along the batch (an array of ``size`` field elements, or
    one element for all of them), with at most one term per position.
    The corner entry of X^(n-1) is the product of the superdiagonal
    entries, so X is a single Jordan block, with rank sequence
    (n-1, ..., 1), exactly when every entry (i, i+1) is nonzero: when its
    coefficient is nonzero mod p and its coordinate is nonzero.  A
    superdiagonal position with no term is zero.  Returns a boolean
    array of ``size``.

    Most matrices a census enumerates are single blocks (q^C(n-1,2)
    (q-1)^(n-1) of the q^C(n,2)), so the censuses count them from this
    mask and rank only the rest (``BENCH_single-blocks.json``).
    """
    diag = {i: (values, coeff % p) for i, j, values, coeff in terms
            if j == i + 1}
    single = np.ones(size, dtype=bool)
    for i in range(n - 1):
        values, coeff = diag.get(i, (0, 0))
        if not coeff:
            return np.zeros(size, dtype=bool)
        single &= values != 0
    return single


def assemble(terms, n: int, size: int, t: "FieldTables") -> np.ndarray:
    """The batch-last (n, n, size) batch, in ``t.dtype``, of the matrices
    whose terms ``terms`` lists as ``single_block_mask`` reads them.

    Entry (i, j) is ``values`` itself where ``coeff`` is 1 mod p and
    ``t.scale_int(coeff, values)`` otherwise; a position with no term is
    zero.  Each entry is written, not added into, so this is the one place
    that checks, for every family and batch, that no two terms share a
    position: raises AssertionError if two do.
    """
    positions = [(i, j) for i, j, _, _ in terms]
    if len(set(positions)) != len(positions):
        raise AssertionError(f"two terms of X share a position: {positions}")
    mats = np.zeros((n, n, size), dtype=t.dtype)
    for i, j, values, coeff in terms:
        mats[i, j] = values if coeff % t.p == 1 else t.scale_int(coeff, values)
    return mats


def power_rank_sequences(mats: np.ndarray, t: "FieldTables") -> np.ndarray:
    """Rank sequences (r_1 .. r_{n-1}) for strictly upper triangular input.

    ``mats`` has shape (B, n, n), holds field-encoded entries and is only
    read; the work runs batch-last, on ``mats.transpose(1, 2, 0)`` (see
    the module docstring).  The i-th power is supported on rows 0..n-i-1
    and columns i..n-1, so each product (``_band_product``) keeps only the
    rows that can still be nonzero and each rank is taken on that band.
    Raises OverflowError unless the dtype of ``mats`` holds ``t.bound(n)``;
    the sequences keep that dtype.

    Once a power has rank 0 on every matrix, all higher powers are zero
    too: they are not multiplied out, and each is ranked as an all-zero
    band of its shape.
    """
    bsize, _, n = mats.shape
    _check_fits(t.bound(n), mats.dtype, f"GF({t.q}) values on {n} columns")
    base = power = mats.transpose(1, 2, 0)
    seqs = np.empty((n - 1, bsize), dtype=mats.dtype)
    zero = False
    for i in range(1, n):
        if zero:
            band = np.zeros((bsize, n - i, n - i), dtype=mats.dtype)
        else:
            if i > 1:
                power = _band_product(t, power, base, i)
            band = power[:n - i, i:].transpose(2, 0, 1)
        seqs[i - 1] = rank_batch(band, t)
        zero = not seqs[i - 1].any()
    return seqs.T


def encode_sequences(seqs: np.ndarray) -> np.ndarray:
    """Pack rank sequences into single integer keys (4 bits per entry).

    The keys of m ranks are built in place, shifted and or-ed one column
    at a time, in the narrowest signed type that holds 16^m - 1 (int16
    for the 3 ranks of the n = 4 type-A census, int32 for the 6 of g2),
    not in int64 with every column widened first
    (``BENCH_rank-shortcuts.json``); 16 ranks fill an int64, the first
    one's top bit in the sign bit.  Raises OverflowError for more than 16
    entries, the first of which would be shifted out of the key, and for
    a rank outside 0..15, which 4 bits cannot hold.
    """
    if seqs.shape[1] > 16:
        raise OverflowError(f"{seqs.shape[1]} ranks do not fit a 64-bit key "
                            f"of 4-bit fields")
    if seqs.size and (seqs.min() < 0 or seqs.max() > 15):
        raise OverflowError(f"ranks {int(seqs.min())}..{int(seqs.max())} do "
                            f"not fit the 4-bit packing")
    m = seqs.shape[1]
    keys = np.zeros(seqs.shape[0], dtype=np.int64 if m == 16 else
                    _narrowest_int(16**m - 1, f"keys of {m} ranks"))
    for i in range(m):
        keys <<= 4
        keys |= seqs[:, i]
    return keys


def decode_sequence(key: int, length: int) -> tuple[int, ...]:
    out = []
    for _ in range(length):
        out.append(int(key & 0xF))
        key >>= 4
    return tuple(reversed(out))


def _generator_powers(ctx: FieldCtx) -> np.ndarray:
    """g^0 .. g^(q-2) for the first generator g of the multiplicative group.

    Each walk stops after q - 1 steps, so a ``ctx.mul`` that is not a field
    product raises NotAField instead of walking forever.
    """
    for g in range(1, ctx.q):
        powers = [1]
        x = g
        while x != 1 and len(powers) < ctx.q - 1:
            powers.append(x)
            x = ctx.mul(x, g)
        if x == 1 and len(powers) == ctx.q - 1:
            return np.array(powers)
    raise NotAField(f"no element of GF({ctx.q}) has multiplicative order "
                    f"{ctx.q - 1}")


class FieldTables:
    """Lookup tables for vectorized arithmetic in GF(q), q = p^k.

    Arrays hold field-encoded elements in ``dtype``, the element type of
    the module docstring for matrices of size n; it is chosen, and
    checked, before any table is built.  For every q, ``inv_t`` (0 -> 0)
    comes from the discrete logarithms to a generator found with
    ``ctx.mul``.  For k = 1 the other helpers are residue
    arithmetic mod p; for k > 1 they gather from q x q tables: ``add_t``
    and ``sub_t`` are ``ctx.add`` and ``ctx.sub`` on every pair, and
    ``mul_t`` comes from the logarithms.
    """

    def __init__(self, ctx: FieldCtx, n: int = 1):
        q, k = ctx.q, ctx.k
        self.q, self.k, self.p = q, k, ctx.p
        self.dtype = _narrowest_int(self.bound(n),
                                    f"GF({q}) values on {n} columns")
        exp = _generator_powers(ctx).astype(self.dtype)
        log = np.zeros(q, dtype=self.dtype)
        log[exp] = np.arange(q - 1)
        self.inv_t = np.zeros(q, dtype=self.dtype)
        self.inv_t[1:] = exp[-log[1:] % (q - 1)]
        self.add_t = self.sub_t = self.mul_t = None
        if k > 1:
            elems = np.arange(q, dtype=self.dtype)
            self.add_t = ctx.add(elems[:, None], elems[None, :])
            self.sub_t = ctx.sub(elems[:, None], elems[None, :])
            self.mul_t = exp[(log[:, None] + log[None, :]) % (q - 1)]
            self.mul_t[0, :] = self.mul_t[:, 0] = 0

    def bound(self, m: int) -> int:
        """The largest value any kernel forms on matrices with m columns
        (the module docstring shows that each kernel stays within it)."""
        if self.k == 1:
            return m * (self.p - 1) ** 2
        return max(self.q * self.q - 1, m)

    # vectorized field ops on integer-encoded arrays -----------------------

    def _gather(self, table, x, y):
        return table.ravel().take(np.multiply(x, self.q) + y)

    def add(self, x, y):
        if self.k == 1:
            return _mod_p(x + y, self.p)
        return self._gather(self.add_t, x, y)

    def sub(self, x, y):
        if self.k == 1:
            return _mod_p(x - y, self.p)
        return self._gather(self.sub_t, x, y)

    def mul(self, x, y):
        if self.k == 1:
            return _mod_p(x * y, self.p)
        return self._gather(self.mul_t, x, y)

    def scale_int(self, m: int, x):
        return self.mul(m % self.p, x)

    def embed(self, elem_mats: np.ndarray) -> np.ndarray:
        """The field-encoded batch itself, which the rank kernels take for
        every q.  The census chunks pass each assembled batch through here
        once, so that assembly and rank computation meet at one named
        boundary, which the ``perfbench`` tracer times as the
        ``kernels.embed`` layer."""
        return elem_mats


# ---------------------------------------------------------------------------
# the census engine
# ---------------------------------------------------------------------------


def tally_keys(tally: dict, keys: np.ndarray, length: int, weight: int = 1,
               prefix: tuple = ()) -> None:
    """Add ``weight`` to ``tally[prefix + (seq,)]`` for every packed rank
    sequence ``keys`` holds, ``seq`` being its decoded ``length``-tuple."""
    uniq, counts = np.unique(keys, return_counts=True)
    for key, cnt in zip(uniq, counts):
        seq = prefix + (decode_sequence(int(key), length),)
        tally[seq] = tally.get(seq, 0) + weight * int(cnt)


def merge_tallies(tallies, key=None) -> dict:
    """Add up the counts of several tallies, each entry under ``key(k)``
    (under k itself when ``key`` is None)."""
    out: dict = {}
    for tally in tallies:
        for k, cnt in tally.items():
            k = k if key is None else key(k)
            out[k] = out.get(k, 0) + cnt
    return out


def cut_ranges(lo: int, hi: int, count: int) -> list[tuple[int, int]]:
    """lo..hi-1 cut into ``count`` consecutive ranges whose sizes differ by
    at most one (none when ``count`` is 0)."""
    return [(lo + (hi - lo) * i // count, lo + (hi - lo) * (i + 1) // count)
            for i in range(count)]


def _usable_cpus() -> int:
    """The CPUs this process may run on (all of them where the platform
    cannot say)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def usable_workers(workers: int) -> int:
    """``workers`` capped at the usable CPUs: the most shares a census runs
    at once.  Raises ValueError unless ``workers`` >= 1."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return min(workers, _usable_cpus())


def _send_share(conn, chunk, head: tuple, share: list) -> None:
    """The body of a forked child: send ``(True, tally)`` or, if the chunk
    raises, ``(False, exception)``."""
    try:
        result = (True, chunk(*head, share))
    except Exception as exc:
        result = (False, exc)
    conn.send(result)


def _receive(proc, conn) -> dict:
    """The tally the child ``proc`` sends over ``conn``; re-raises the
    child's exception, or raises RuntimeError if it exits without sending."""
    try:
        ok, value = conn.recv()
    except EOFError:
        proc.join()
        raise RuntimeError(f"census worker {proc.pid} exited with code "
                           f"{proc.exitcode} before sending a result") from None
    if not ok:
        raise value
    return value


def run_census(chunk, head: tuple, units: list, workers: int) -> dict:
    """Sum the tallies ``chunk(*head, share)`` for up to ``workers`` shares.

    The units are dealt round-robin, so neighbours go to different shares
    (g2's costly units, those whose matrices are not single Jordan blocks,
    lead the block of every a).  There are at most as many shares as
    units and usable CPUs.  The caller computes share 0 while one forked
    child per other share computes its own and sends the tally back over
    a pipe, so a tally, or the exception a chunk raises, must pickle;
    ``chunk`` itself is not pickled, since the children fork.
    Every result is received before any child is joined: a large tally
    would fill the pipe and block its sender.  A child's exception is
    re-raised as it is, a child that dies without sending raises
    RuntimeError, and on every path the children still running are
    terminated and all are joined.  Tallies add up in share order, so the
    result is the same for any number of workers.  Raises ValueError
    unless ``workers`` >= 1.

    Every call forks afresh and keeps no pool (``BENCH_pool-free.json``):
    a process forked earlier would run the code as it was at that fork,
    and so miss the wrappers a profiler installs between calls (or a
    test's monkeypatches), and it could outlive the caller's run.

    ``run_census`` first allocates one array of ``DEFAULT_BATCH * 64``
    bytes (2 MiB) and drops it at once, to tune glibc's allocator.  glibc
    maps a block above its mmap threshold (128 KiB at start) on its own, and
    when such a block of at most 32 MiB is freed, it raises that threshold
    to the block's size and its trim threshold to twice that (``mallopt(3)``,
    dynamic adjustment of M_MMAP_THRESHOLD).  From then on, every array
    below 2 MiB comes from the heap, and the free top of the heap goes back
    to the system only once it exceeds 4 MiB, so a census whose batches
    hold less than that at once reuses the same pages from batch to batch,
    in forked children too; otherwise the next batch faults its pages in
    again.  The size is 64 bytes per matrix of a full batch, more than any
    one batch array of a census within the default budget takes (at most
    49; g2's batches hold a quarter as many matrices in up to four bytes an
    entry), and below 4 MiB, the size from which numpy advises the kernel to
    back an array with huge pages (``madvise``).  ``np.empty`` writes none
    of the array, so resident memory does not grow, and nothing is held: a
    buffer kept alive would leave no large free block, and the threshold
    would stay down.  Under an allocator without this rule the call is one
    short-lived allocation.  ``BENCH_heap-threshold.json`` records what it
    changes.
    """
    np.empty(DEFAULT_BATCH * 64, dtype=np.uint8)  # tunes glibc; see above
    parts = max(1, min(usable_workers(workers), len(units)))
    shares = [units[w::parts] for w in range(parts)]
    if parts == 1:
        return merge_tallies([chunk(*head, shares[0])])
    ctx = mp.get_context("fork")
    children = []
    try:
        for share in shares[1:]:
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_send_share,
                               args=(send, chunk, head, share), daemon=True)
            # only the child keeps the sending end open, so its death
            # reads as end of file
            with send:
                proc.start()
            children.append((proc, recv))
        tallies = [chunk(*head, shares[0])]
        tallies += [_receive(proc, recv) for proc, recv in children]
        for proc, _ in children:
            proc.join()
    finally:
        for proc, recv in children:
            if proc.is_alive():
                proc.terminate()
            proc.join()
            recv.close()
    return merge_tallies(tallies)
