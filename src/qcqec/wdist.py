"""Exact weight distributions, MacWilliams transforms, derived distances.

The enumeration core walks every message of GF(Q)^k.  Messages are split
into an outer part, scanned one step at a time in Gray order (each step adds
a scalar multiple of one generator row to the running prefix), and an inner
part, whose full subcode is materialized once as a table so that each outer
step costs a single vectorized add + weight histogram over the table.

Vector arithmetic uses packed coefficient encodings: characteristic 2 packs
GF(4) coordinates into bit pairs where addition is XOR; characteristic 3
packs each GF(3) coordinate of an element into its own nibble, and addition
is carried out by a branch-free nibble-wise mod-3 correction.  Counts are
held as numpy int64 histograms per block and accumulated into Python ints,
so the final distribution is exact at any size.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from math import comb

import numpy as np

from qcqec.errors import BudgetExceeded, SpecError
from qcqec import famat
from qcqec.gf import Field, field_make

DEFAULT_BUDGET = 2 ** 32
_BLOCK_TARGET = 1 << 17  # inner-table rows; ~17 MB at length 131


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


# --- packed coefficient encodings -------------------------------------------


class PackedOps:
    """Vectorized field arithmetic on packed coefficient encodings.

    Packing maps each digit to an integer whose bit fields are the GF(p)
    coefficients of the element, so zero packs to zero and addition never
    needs a Q x Q table gather.
    """

    def __init__(self, field: Field):
        p, m = field.p, field.m
        self.field = field
        if p == 2:
            if m > 8:
                raise SpecError("packed encoding supports char-2 fields to 2^8")
            self.dtype = np.uint8
            self._nib_one = None
            packs = [self._pack_bits(field.coeffs(d)) for d in field.digits]
        elif p == 3 and m <= 4:
            self.dtype = np.uint8 if m <= 2 else np.uint16
            self._nib_one = self.dtype(int("11" * ((m + 1) // 2), 16))
            self._nib_mask = self.dtype(int("44" * ((m + 1) // 2), 16))
            packs = [self._pack_nibbles(field.coeffs(d)) for d in field.digits]
        else:
            raise SpecError(f"no packed encoding for GF({field.Q})")
        self.from_digit = np.array(packs, dtype=self.dtype)
        self._digit_of = {int(v): d for d, v in enumerate(self.from_digit)}

    @staticmethod
    def _pack_bits(coeffs):
        v = 0
        for i, c in enumerate(coeffs):
            v |= c << i
        return v

    @staticmethod
    def _pack_nibbles(coeffs):
        v = 0
        for i, c in enumerate(coeffs):
            v |= c << (4 * i)
        return v

    def pack_digits(self, digits) -> np.ndarray:
        return self.from_digit[np.asarray(digits, dtype=np.int64)]

    def digit_of(self, packed_value: int) -> int:
        return self._digit_of[int(packed_value)]

    def add(self, a, b, out=None):
        if self._nib_one is None:
            return np.bitwise_xor(a, b, out=out)
        w = np.add(a, b, out=out)  # nibble sums <= 4: no carry between fields
        t = w + self._nib_one
        np.bitwise_and(t, self._nib_mask, out=t)
        np.right_shift(t, 2, out=t)
        t *= 3
        w -= t
        return w

    def scaled_packed_row(self, scalar_digit: int, row_digits) -> np.ndarray:
        mul = self.field.mul
        return self.pack_digits([mul(scalar_digit, d) for d in row_digits])


# --- message scans ------------------------------------------------------------


def _split_inner(Q: int, k: int) -> int:
    """How many low message coordinates to absorb into the block table."""
    inner = 1
    while inner < k and Q ** (inner + 1) <= _BLOCK_TARGET:
        inner += 1
    return min(inner, k)


def _block_table(pops: PackedOps, rows_digits) -> np.ndarray:
    """All codewords of the subcode spanned by the given rows, in lex order
    of the message (first row most significant)."""
    Q = pops.field.Q
    ncols = len(rows_digits[0]) if rows_digits else 0
    table = np.zeros((1, ncols), dtype=pops.dtype)
    for row in reversed(rows_digits):
        scaled = [pops.scaled_packed_row(s, row) for s in range(Q)]
        parts = [pops.add(table, sc[None, :]) for sc in scaled]
        table = np.concatenate(parts, axis=0)
    return table


def _gray_steps(Q: int, count: int, coords: int):
    """Yield (coord, old_digit) per step of the modular Gray walk; the digit
    at `coord` advances one place in the cyclic digit order 0,1,...,Q-1."""
    counter = [0] * coords
    gray = [0] * coords
    for _ in range(count - 1):
        j = 0
        while counter[j] == Q - 1:
            counter[j] = 0
            j += 1
        counter[j] += 1
        old = gray[j]
        gray[j] = (old + 1) % Q
        yield j, old


def _shard_histogram(field, rows_digits, offset_digits) -> list[int]:
    """Weight histogram of {offset + m . rows : m in GF(Q)^k}, exact."""
    n = len(offset_digits)
    k = len(rows_digits)
    Q = field.Q
    pops = PackedOps(field)
    counts = np.zeros(n + 1, dtype=np.int64)
    offset = pops.pack_digits(offset_digits)

    if k == 0:
        w = int(np.count_nonzero(offset))
        counts[w] += 1
        return [int(c) for c in counts]

    inner = _split_inner(Q, k)
    table = _block_table(pops, rows_digits[k - inner :])
    outer_rows = rows_digits[: k - inner]
    work = np.empty_like(table)

    # per outer coordinate: packed delta rows for each cyclic digit step
    steps = [
        [
            pops.pack_digits(
                [field.mul(field.sub((s + 1) % Q, s), d) for d in row]
            )
            for s in range(Q)
        ]
        for row in outer_rows
    ]

    prefix = offset
    def _flush():
        pops.add(table, prefix[None, :], out=work)
        weights = np.count_nonzero(work, axis=1)
        np.add(counts, np.bincount(weights, minlength=n + 1), out=counts)

    _flush()
    if outer_rows:
        for j, old in _gray_steps(Q, Q ** len(outer_rows), len(outer_rows)):
            prefix = pops.add(prefix, steps[j][old])
            _flush()
    return [int(c) for c in counts]


def _shard_worker(args):
    q, rows_digits, offset_digits = args
    return _shard_histogram(field_make(q), rows_digits, offset_digits)


def enumerate_code(
    g: famat.Mat,
    budget: int = DEFAULT_BUDGET,
    workers: int = 1,
) -> WeightEnumerator:
    """Exact weight enumerator of the row space of g by full traversal.

    g must have full row rank so that messages and codewords are in
    bijection.  Raises BudgetExceeded before doing any work if Q^k is past
    the budget.  With workers > 1 the top message coordinates are fixed per
    shard and shards merge by summation, so the result does not depend on
    the partitioning.
    """
    field = g.field
    k, n = g.nrows, g.ncols
    total = field.Q ** k
    if total > budget:
        raise BudgetExceeded(total, budget)
    if k and famat.rank(g) != k:
        raise ValueError("generator matrix must have full row rank")

    rows = [tuple(r) for r in g.rows]
    zero = (0,) * n
    if workers <= 1 or k <= 1:
        counts = _shard_histogram(field, rows, zero)
    else:
        t = min(k, max(1, math.ceil(math.log(workers, field.Q))))
        jobs = []
        for fixed in itertools.product(range(field.Q), repeat=t):
            offset = zero
            for s, row in zip(fixed, rows[:t]):
                offset = tuple(
                    field.add(x, field.mul(s, y)) for x, y in zip(offset, row)
                )
            jobs.append((field.q, rows[t:], offset))
        with ProcessPoolExecutor(max_workers=workers) as ex:
            partials = list(ex.map(_shard_worker, jobs))
        counts = [sum(parts) for parts in zip(*partials)]

    enum = WeightEnumerator(n, k, tuple(int(c) for c in counts))
    assert enum.total() == total
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


def krawtchouk(Q: int, n: int, j: int, i: int) -> int:
    """K_j(i) = sum_s (-1)^s (Q-1)^(j-s) C(i,s) C(n-i,j-s), exact."""
    acc = 0
    for s in range(j + 1):
        term = (Q - 1) ** (j - s) * comb(i, s) * comb(n - i, j - s)
        acc += -term if s & 1 else term
    return acc


def macwilliams(enum: WeightEnumerator, Q: int) -> WeightEnumerator:
    """Dual weight distribution B_j = Q^-k sum_i A_i K_j(i).

    Every B_j must come out a nonnegative integer and B_0 = 1, which is a
    strong end-to-end checksum on the enumeration; failures raise rather
    than round.
    """
    n, k = enum.n, enum.k
    scale = Q ** k
    support = [(i, a) for i, a in enumerate(enum.counts) if a]
    out = []
    for j in range(n + 1):
        acc = 0
        for i, a in support:
            acc += a * krawtchouk(Q, n, j, i)
        b, r = divmod(acc, scale)
        if r or b < 0:
            raise AssertionError(
                f"MacWilliams checksum failed at weight {j}: {acc}/{scale}"
            )
        out.append(b)
    dual = WeightEnumerator(n, n - k, tuple(out))
    assert dual.total() == Q ** (n - k)
    return dual


def dual_distance(enum: WeightEnumerator, Q: int) -> int | None:
    return macwilliams(enum, Q).distance()


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
