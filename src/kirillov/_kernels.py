"""Vectorized GF(q) linear algebra for the enumeration censuses.

The censuses walk q^6 (or q^(n(n-1)/2)) parameter tuples, so rank
sequences are computed in numpy batches of field-encoded n x n matrices.
Prime fields work directly on residues mod p: products are integer
multiply-adds reduced mod p once per power, and elimination subtracts in
place and delays the reduction of the trailing block (see ``rank_batch``
for the bound that keeps it exact).  Extension fields GF(p^k) work on
the same n x n matrices: every sum, difference, product and inverse is a
gather from a table that ``FieldTables`` builds once per field (the
table-lookup arithmetic of small-field linear algebra libraries).  Both
run the same lockstep elimination, which never swaps rows but tracks the
rows still without a pivot, so the batched route computes the same ranks
as the exact reference implementation in ``fields`` (cross-checked in
the tests).

All matrices fed in here are strictly upper triangular, so the i-th
power is supported on the band column - row >= i; products and ranks
are restricted to that band to save work.

The kernels take batches as (B, n, n) arrays but compute batch-last, on
(n, n, B) arrays.  The matrices are small (n <= 7): with the batch first,
an elementwise operation on a block of rows runs numpy's innermost loop
over a row of 2 to 7 entries; batch-last, that loop runs over the B
matrices.  On 6,881 matrices of 5 x 5 residues mod 7 the update
``a -= f * pivrow`` of one elimination step took 0.53 ms batch-first and
0.07 ms batch-last (2-vCPU Xeon, numpy 2.4).  The censuses therefore
assemble (n, n, B) arrays and pass their (B, n, n) transposed views,
which the kernels turn back without a copy.

Both censuses run on ``run_census``: a family supplies a chunk function
and its work units, and the engine deals them into shares and adds the
tallies.  With several shares the calling process computes the first
itself and forks one child per other share, so two workers cost a
single fork.  Every call forks afresh and keeps no pool: a
process forked earlier would run the code as it was at that fork, and so
miss the wrappers a profiler installs between calls (or a test's
monkeypatches), and it could outlive the caller's run.  The number of
shares is capped at the CPUs the process may run on.
"""

from __future__ import annotations

import multiprocessing as mp
import os

import numpy as np

from .errors import TooLarge
from .fields import FieldCtx

DEFAULT_BUDGET = 200_000_000
DEFAULT_BATCH = 1 << 15


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
                       dtype) -> np.ndarray:
    """Digits (most significant first) of start..stop-1 in the given radix.

    Returns a (stop - start, width) array: the transpose of the batch-last
    (width, stop - start) array the digits are written into, so that each
    digit column is one contiguous row of memory.
    """
    idx = np.arange(start, stop, dtype=np.int64)
    digits = np.empty((width, stop - start), dtype=dtype)
    for pos in range(width - 1, -1, -1):
        digits[pos] = idx % radix
        idx //= radix
    return digits.T


def rank_batch(mats: np.ndarray, t: "FieldTables") -> np.ndarray:
    """Ranks over GF(q) of a batch of field-encoded matrices, shape (B, r, c).

    Forward elimination run lockstep over the whole batch, without row
    swaps: each matrix keeps a mask of its free rows, those without a
    pivot yet.  In each column the first free row with a nonzero entry is
    the pivot, and every other free row subtracts its multiple of the
    pivot row from the columns to the right; the rank is the number of
    pivots.  Exact: for k = 1 all arithmetic is on integers mod p, for
    k > 1 it is gathers from the field's tables.

    The elimination runs on a batch-last (r, c, B) copy: every operation
    then loops over the B matrices in its innermost loop rather than over
    a row of 2 to 7 entries.  It is a fresh copy (never a view of
    ``mats``, which the elimination would overwrite), so the caller's
    batch is left as it was, in any layout.

    A row whose first nonzero column anywhere in the batch (its lead) lies
    beyond the current column has never been touched: each earlier
    column found it zero, so it was neither a pivot nor updated.  Column
    ``col`` therefore works on rows up to the last one with lead <= col.

    For k = 1 the reduction mod p is delayed (Dumas, Giorgi and Pernet,
    FFLAS-FFPACK): only the current column and the pivot row are reduced,
    for the zero test and the update factors, while the trailing block
    is not.  Each column subtracts at most (p-1)^2 from an entry, so over
    c columns entries stay within (p-1) + (c-1)(p-1)^2 of zero.  Raises
    OverflowError unless c (p-1)^2 fits the dtype of ``mats``, whose
    entries must be field-encoded (residues in 0..p-1 for k = 1), so the
    batch is copied without a reduction.  For k > 1 it raises unless the
    dtype holds the table indices x*q + y of the gathers.  A batch with
    no nonzero entry (an empty batch, or one of the all-zero bands that
    ``power_rank_sequences`` ranks past the first zero power) has rank 0
    and is not eliminated; the zero test runs on the contiguous copy,
    which costs far less than on a strided band.
    """
    p, prime = t.p, t.k == 1
    bsize, nrows, ncols = mats.shape
    if prime:
        _check_products_fit(p, ncols, mats.dtype)
    else:
        _check_indices_fit(t.q, mats.dtype)
    a = mats.transpose(1, 2, 0).copy(order="C")
    rank = np.zeros(bsize, dtype=a.dtype)
    if not a.any():
        return rank
    # reach[col]: 1 + the last row whose lead is at most col, where the
    # lead of a row is its first column that is nonzero in some matrix
    # (an all-zero row leads at ncols)
    nonzero = a.any(axis=2)
    lead = np.where(nonzero.any(axis=1), nonzero.argmax(axis=1), ncols)
    reach = np.zeros(ncols + 1, dtype=np.intp)
    np.maximum.at(reach, lead, np.arange(1, nrows + 1))
    reach = np.maximum.accumulate(reach)
    free = np.ones((nrows, bsize), dtype=bool)
    bidx = np.arange(bsize)
    flat = a.reshape(-1)
    for col in range(ncols):
        hi = reach[col]
        colv = a[:hi, col] % p if prime else a[:hi, col]
        cand = free[:hi] & (colv != 0)
        has = cand.any(axis=0)
        if not has.any():
            continue
        piv = cand.argmax(axis=0)
        scale = t.inv_t[colv[piv, bidx]]
        # the pivot leaves the free mask before the factors are masked by
        # it, which zeroes them on the pivot row and on earlier pivot
        # rows, so those keep their echelon entries (the ranks never read
        # them again); a matrix without a pivot here is zero on its free
        # rows, so its factors are all zero
        free[piv, bidx] &= ~has
        f = np.where(free[:hi], colv, 0)
        tail = a[:hi, col + 1:]
        # the pivot rows right of col, batch-last: entry (j, b) is
        # a[piv[b], j, b], at flat index (piv[b] * ncols + j) * bsize + b
        pivrow = flat.take((piv * ncols + np.arange(col + 1, ncols)[:, None])
                           * bsize + bidx)
        if prime:
            f = f * scale % p
            np.mod(pivrow, p, out=pivrow)
            tail -= f[:, None, :] * pivrow
        else:
            f = t.mul(f, scale)
            tail[...] = t.sub(tail, t.mul(f[:, None, :], pivrow))
        rank += has
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
    mod p once at the end (at most n - 1 products of residues, which
    ``power_rank_sequences`` checks the dtype holds); for k > 1 every
    product and sum is a table gather.
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
        np.mod(out, t.p, out=out)
    return out


def power_rank_sequences(mats: np.ndarray, t: "FieldTables") -> np.ndarray:
    """Rank sequences (r_1 .. r_{n-1}) for strictly upper triangular input.

    ``mats`` has shape (B, n, n) and holds field-encoded entries; the
    i-th power is supported on rows 0..n-i-1 and columns i..n-1, so each
    product keeps only the rows that can still be nonzero and each rank
    is taken on that band.  Powers come from ``_band_product``: integer
    multiply-adds reduced mod p for k = 1, table gathers for k > 1.
    Raises OverflowError when the products (k = 1) or the table indices
    (k > 1) could overflow the dtype of ``mats``.

    The work runs batch-last, on ``mats.transpose(1, 2, 0)`` with shape
    (n, n, B), so numpy's inner loops run over the batch and not over
    rows of at most n entries.  The censuses assemble their batches as
    (n, n, B) arrays and pass the (B, n, n) view of them, for which that
    transpose is contiguous again.  ``mats`` is only read.

    The corner entry of X^(n-1) is the product of the superdiagonal
    entries.  So when none of them is zero, X^(n-1) != 0, X is a single
    Jordan block and r_i = n - i: those matrices are neither multiplied
    nor eliminated.  Once a power has rank 0 on every remaining matrix,
    all higher powers are zero too: they are not multiplied out, and each
    is ranked as an all-zero band of its shape.
    """
    bsize, _, n = mats.shape
    if t.k == 1:
        _check_products_fit(t.p, n, mats.dtype)
    else:
        _check_indices_fit(t.q, mats.dtype)
    x = mats.transpose(1, 2, 0)
    seqs = np.zeros((n - 1, bsize), dtype=mats.dtype)
    regular = np.ones(bsize, dtype=bool)
    for i in range(n - 1):
        regular &= x[i, i + 1] != 0
    seqs[:, regular] = np.arange(n - 1, 0, -1)[:, None]
    live = np.flatnonzero(~regular)
    base = power = x if live.size == bsize else x[:, :, live]
    zero = False
    for i in range(1, n):
        if zero:
            band = np.zeros((live.size, n - i, n - i), dtype=mats.dtype)
        else:
            if i > 1:
                power = _band_product(t, power, base, i)
            band = power[:n - i, i:].transpose(2, 0, 1)
        ranks = rank_batch(band, t)
        seqs[i - 1, live] = ranks
        zero = not ranks.any()
    return seqs.T


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
    a q x q table (``add_t``, ``sub_t``, ``mul_t``): sums and differences
    act digit by digit on the base-p encodings, and products come from
    the discrete logarithms to a generator found with ``ctx.mul``.
    ``inv_t`` (size q, 0 -> 0) serves both.  ``n`` is the size of the
    matrices the kernels will multiply; for k = 1 it sets the integer
    type (see ``dtype_for``), for k > 1 the type only has to hold the
    table indices.
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
            self.add_t = self.sub_t = self.mul_t = None
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


# ---------------------------------------------------------------------------
# the census engine
# ---------------------------------------------------------------------------


def check_budget(space: int, budget: int, what: str) -> None:
    """Raise TooLarge when a census would enumerate more than ``budget``."""
    if space > budget:
        raise TooLarge(f"{space} {what} exceed the budget {budget}")


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

    The units are dealt round-robin, because the costly ones (those whose
    matrices are not single Jordan blocks) cluster at the start of both
    families' unit lists.  There are at most as many shares as units and
    usable CPUs.  The caller computes share 0 while one forked child per
    other share computes its own and sends the tally back over a pipe, so
    ``chunk`` must be a module-level function.  Every result is received
    before any child is joined: a large tally would fill the pipe and
    block its sender.  A child's exception is re-raised as it is, a child
    that dies without sending raises RuntimeError, and on every path the
    children still running are terminated and all are joined.  Tallies
    add up in share order, so the result is the same for any number of
    workers.  Raises ValueError unless ``workers`` >= 1.
    """
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
