"""Exact weight distributions, MacWilliams transforms, derived distances.

The enumeration core counts all Q^k codewords of an [n, k]_Q code while
scanning about one in Q-1 of them: nonzero multiples of a word share its
weight.  It scans the span of the last `inner` rows (the block table, zero
word included) once, and for each outer row i the words rows[i] +
span(rows[i+1:]), whose first nonzero message digit is 1, counted Q-1 times.

Words are bit-sliced, 64 symbols to a uint64 word per bit plane: one plane
per GF(2) coordinate, added by XOR, or two per GF(3) coordinate ("= 2" and
"= 1"), added by the formula of Boothby and Bradshaw (arXiv:0901.1413).  A
weight is the popcount of the OR of the planes.  Histograms are numpy int64
per work unit and exact Python ints once scaled and summed.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from qcqec.errors import BudgetExceeded, SpecError
from qcqec import famat
from qcqec.gf import Field, field_make

# the one enumeration gate: a code of more than this many messages is not
# enumerated.  2^29 keeps dimension 14 over GF(4), 9 over GF(9) and 4 over
# GF(81), each a desk-scale run, and leaves out the next one up
DEFAULT_BUDGET = 2 ** 29
_BLOCK_BYTES = 1 << 20  # block table size cap
_KRAWTCHOUK_CACHE_N = 32  # longest code whose MacWilliams columns are cached


@dataclass(frozen=True)
class WeightEnumerator:
    """Exact weight distribution of a code: counts[w] words of weight w."""

    n: int
    k: int
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) != self.n + 1:
            raise ValueError("counts must have length n + 1")
        if self.counts[0] != 1:
            raise ValueError("a linear code has exactly one word of weight 0")

    def distance(self) -> int | None:
        """Minimum nonzero weight, or None for the zero code."""
        for w in range(1, self.n + 1):
            if self.counts[w]:
                return w
        return None

    def total(self) -> int:
        return sum(self.counts)

    def to_json_map(self) -> dict[str, str]:
        """Sparse weight -> count map, both as decimal strings."""
        return {str(w): str(c) for w, c in enumerate(self.counts) if c}


# --- bit-sliced vectors ---------------------------------------------------------


class BitPlanes:
    """Bit-sliced vectors of length n over GF(Q).

    A batch of R vectors is a uint64 array of shape (P, W, R): P bit planes
    of W = ceil(n/64) words each, bit j of a word standing for symbol j of
    that word.  Vectors are the last axis, so that a scan step runs over long
    contiguous columns.  Zero encodes to all-zero bits.
    """

    def __init__(self, field: Field, n: int):
        self.field, self.n = field, n
        self.P, self.W = self.shape(field, n)
        bits = np.array([field.coeffs(d) for d in field.digits], dtype=np.uint8)
        if field.p == 3:  # planes "coordinate = 2", then "coordinate = 1"
            bits = np.concatenate([bits == 2, bits == 1], axis=1)
        self._bits = bits.astype(np.uint8)
        self._mul = np.array(field.mul_table, dtype=np.intp)

    @staticmethod
    def shape(field: Field, n: int) -> tuple[int, int]:
        """(P, W): m planes (p = 2) or 2m (p = 3), each of ceil(n/64) words."""
        if field.p not in (2, 3):
            raise SpecError(f"no bit-sliced encoding for GF({field.Q})")
        return field.m * (field.p - 1), max(1, -(-n // 64))

    def encode(self, digits) -> np.ndarray:
        """Planes of the rows of an (R, n) digit array, shape (P, W, R)."""
        digits = np.asarray(digits, dtype=np.intp).reshape(-1, self.n)
        bits = np.zeros((self.P, len(digits), 64 * self.W), dtype=np.uint8)
        bits[:, :, : self.n] = self._bits[digits].transpose(2, 0, 1)
        words = np.packbits(bits, axis=-1, bitorder="little").view(np.uint64)
        return np.ascontiguousarray(words.transpose(0, 2, 1))

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.field.p == 2:
            return a ^ b
        m = self.field.m
        ah, al, bh, bl = a[:m], a[m:], b[:m], b[m:]
        t = (al | bh) ^ (ah | bl)
        return np.concatenate([(al | bl) ^ t, (ah | bh) ^ t])

    def neg(self, a: np.ndarray) -> np.ndarray:
        if self.field.p == 2:
            return a
        m = self.field.m
        return np.concatenate([a[m:], a[:m]])

    def weights(self, a: np.ndarray) -> np.ndarray:
        """Hamming weight of each vector of a (P, W, R) batch."""
        ones = np.bitwise_count(np.bitwise_or.reduce(a, axis=0))
        return ones[0] if self.W == 1 else ones.sum(axis=0, dtype=np.intp)

    def multiples(self, row) -> np.ndarray:
        """Planes of s . row for every digit s, shape (P, W, Q)."""
        return self.encode(self._mul[:, list(row)])

    def span(self, rows) -> np.ndarray:
        """All Q^r codewords spanned by r digit rows, shape (P, W, Q^r)."""
        table = np.zeros((self.P, self.W, 1), dtype=np.uint64)
        for row in rows:
            table = self.add(table[:, :, None, :], self.multiples(row)[:, :, :, None])
            table = table.reshape(self.P, self.W, -1)
        return table


# --- message scans ----------------------------------------------------------------


def _work_units(Q: int, outer: int, inner: int, workers: int):
    """Work units, dealt into at most `workers` lists of about equal work.

    A unit (head, multiplier) stands for multiplier x the weight histogram
    of the words head . rows[:len(head)] + span(rows[len(head):]), one block
    table per prefix of the outer rows.  The first units are the projective
    split.  A unit is then cut by its next digit while its prefixes outnumber
    the table rows, or, with workers > 1, while it holds over 1/(8 workers)
    of the work."""
    units = [((0,) * outer, 1)]
    units += [((0,) * i + (1,), Q - 1) for i in range(outer)]
    total = sum(Q ** (outer - len(head)) for head, _ in units)
    cut = []
    while units:
        head, mult = units.pop()
        free = outer - len(head)
        if free > inner or (workers > 1 and free and 8 * workers * Q ** free > total):
            units += [(head + (s,), mult) for s in range(Q)]
        else:
            cut.append((Q ** free, head, mult))
    chunks = [[] for _ in range(workers)]
    loads = [0] * workers
    for cost, head, mult in sorted(cut, reverse=True):
        i = loads.index(min(loads))
        chunks[i].append((head, mult))
        loads[i] += cost
    return [chunk for chunk in chunks if chunk]


def _scan(job) -> list[int]:
    """Sum over the units of multiplier x weight histogram of their words."""
    q, rows, inner, units = job
    bp = BitPlanes(field_make(q), len(rows[0]))
    outer = len(rows) - inner
    table = bp.span(rows[outer:])
    work = np.empty_like(table)
    counts = [0] * (bp.n + 1)
    for head, mult in units:
        offset = bp.span(())
        for s, row in zip(head, rows):
            offset = bp.add(offset, bp.multiples(row)[:, :, s : s + 1])
        # weight(t + b) = weight(t - (-b)): a symbol of t + b is zero exactly
        # where its planes equal those of -b, so XOR with -b shows the support
        keys = bp.neg(bp.add(bp.span(rows[len(head) : outer]), offset))
        hist = np.zeros(bp.n + 1, dtype=np.int64)
        for i in range(keys.shape[2]):
            np.bitwise_xor(table, keys[:, :, i : i + 1], out=work)
            hist += np.bincount(bp.weights(work), minlength=bp.n + 1)
        for w, c in enumerate(hist.tolist()):
            counts[w] += mult * c
    return counts


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def enumerate_code(
    g: famat.Mat,
    budget: int = DEFAULT_BUDGET,
    workers: int = 1,
) -> WeightEnumerator:
    """Exact weight enumerator of the row space of g by full traversal.

    g must have full row rank so that messages and codewords are in
    bijection.  Raises BudgetExceeded before doing any work if Q^k is past
    the budget (the budget counts all Q^k messages, scanned or implied by
    scaling).  With workers > 1 the work units are spread over a process
    pool, no larger than the CPUs this process may use, and their histograms
    summed, so the result does not depend on the partitioning.
    """
    field = g.field
    k, n = g.nrows, g.ncols
    total = field.Q ** k
    workers = max(1, min(workers, _usable_cpus()))
    if total > budget:
        raise BudgetExceeded(total, budget)
    if k and famat.rank(g) != k:
        raise ValueError("generator matrix must have full row rank")

    if k == 0:
        counts = [1] + [0] * n
    else:
        # the block table stays under _BLOCK_BYTES, and one row stays outer
        # when k >= 2 so that the projective scan saves work on small codes
        inner, (P, W) = 1, BitPlanes.shape(field, n)
        while inner + 1 < k and field.Q ** (inner + 1) * 8 * P * W <= _BLOCK_BYTES:
            inner += 1
        chunks = _work_units(field.Q, k - inner, inner, workers)
        rows = [tuple(r) for r in g.rows]
        jobs = [(field.q, rows, inner, chunk) for chunk in chunks]
        if len(jobs) == 1:
            partials = [_scan(jobs[0])]
        else:
            with ProcessPoolExecutor(max_workers=workers) as ex:
                partials = list(ex.map(_scan, jobs))
        counts = [sum(parts) for parts in zip(*partials)]

    enum = WeightEnumerator(n, k, tuple(counts))
    if enum.total() != total:
        raise AssertionError(f"enumerator total {enum.total()} != Q^k = {total}")
    return enum


def enumerate_code_naive(g: famat.Mat) -> WeightEnumerator:
    """Reference enumeration by plain message products; exponential and slow,
    kept as the oracle the fast path is checked against."""
    field = g.field
    k, n = g.nrows, g.ncols
    counts = [0] * (n + 1)
    for msg in itertools.product(field.digits, repeat=k):
        cw = [0] * n
        for c, row in zip(msg, g.rows):
            if c:
                cw = [field.add(x, field.mul(c, y)) for x, y in zip(cw, row)]
        counts[sum(1 for x in cw if x)] += 1
    return WeightEnumerator(n, k, tuple(counts))


# --- MacWilliams ----------------------------------------------------------------


def krawtchouk_columns(Q: int, n: int):
    """Yield for i = 0..n the column K_0(i)..K_n(i), the coefficients of
    (1 + (Q-1)y)^(n-i) (1 - y)^i; column i+1 is column i times
    (1 - y) / (1 + (Q-1)y), a division that is exact."""
    col = [comb(n, j) * (Q - 1) ** j for j in range(n + 1)]
    yield col
    for _ in range(n):
        nxt = [col[0]]
        for j in range(1, n + 1):
            nxt.append(col[j] - col[j - 1] - (Q - 1) * nxt[j - 1])
        col = nxt
        yield col


@lru_cache(maxsize=2)
def _krawtchouk_table(Q: int, n: int) -> tuple[tuple[int, ...], ...]:
    """All columns of krawtchouk_columns(Q, n), for the last two (Q, n):
    a search transforms codes of one or two short lengths over and over."""
    return tuple(map(tuple, krawtchouk_columns(Q, n)))


def macwilliams(enum: WeightEnumerator, Q: int) -> WeightEnumerator:
    """Dual weight distribution B_j = Q^-k sum_i A_i K_j(i).

    Every B_j must come out a nonnegative integer and B_0 = 1, which is a
    strong end-to-end checksum on the enumeration; failures raise rather
    than round.
    """
    n, k = enum.n, enum.k
    scale = Q ** k
    sums = [0] * (n + 1)
    # longer codes' columns are streamed, not kept: a table run transforms
    # each length once or twice, and a kept table adds to the peak memory
    # (41 KB at n = 32 over GF(4), 0.15 MB at n = 59, 0.8 MB at n = 127)
    cols = _krawtchouk_table(Q, n) if n <= _KRAWTCHOUK_CACHE_N else krawtchouk_columns(Q, n)
    for col, a in zip(cols, enum.counts):
        if a:
            sums = [acc + a * c for acc, c in zip(sums, col)]
    out = []
    for j, acc in enumerate(sums):
        b, r = divmod(acc, scale)
        if r or b < 0:
            raise AssertionError(
                f"MacWilliams checksum failed at weight {j}: {acc}/{scale}"
            )
        out.append(b)
    dual = WeightEnumerator(n, n - k, tuple(out))
    if dual.total() != Q ** (n - k):
        raise AssertionError(f"dual total {dual.total()} != Q^(n-k) = {Q ** (n - k)}")
    return dual


def impure_distance(
    primal: WeightEnumerator, dual: WeightEnumerator
) -> int | None:
    """Smallest w >= 1 with B_w > A_w.

    For a self-orthogonal code this is the error-correction distance of the
    induced quantum code: dual words that are not codewords. Returns None
    when no weight qualifies (only possible for the full space)."""
    if primal.n != dual.n:
        raise ValueError("length mismatch")
    for w in range(1, primal.n + 1):
        if dual.counts[w] > primal.counts[w]:
            return w
    return None
