"""Exact weight distributions, MacWilliams transforms, derived distances.

The enumeration core counts all Q^k codewords of an [n, k]_Q code while
scanning about one in Q-1 of them: nonzero multiples of a word share its
weight.  It scans the span of the last `inner` rows (the block table, zero
word included) once, and for each outer row i the words rows[i] +
span(rows[i+1:]), whose first nonzero message digit is 1, counted Q-1 times.
A small code, whose whole span fits _ONE_STEP_BYTES (2^17 bytes: 4^6 words
of up to 64 symbols over GF(4), 9^3 over GF(9), 81 over GF(81)), is
scanned in one step instead: all k rows make the block table, and one
weight pass counts every word, since there the projective split's saving is
smaller than the cost of its extra steps.  The multiples s . row of all rows
come from one encode, and the heads and spans of every step are read from
them.

A quasi-cyclic code can go further (`qcc` makes the plan; Ling and Sole,
"On the algebraic structure of quasi-cyclic codes I", IEEE Trans. IT 47,
2001).  Its messages are R_h = GF(Q)[x]/(h), and a word's weight is kept
by m -> x m (the double shift) as by m -> s m.  For an irreducible factor
m of h of degree d, the words whose message is r != 0 modulo m make the
fiber c(r) + C', C' the code of the messages divisible by m, of dimension
k - d; multiplying by H1 = <x mod m, GF(Q)*> permutes the fibers and keeps
weights.  So the words with a nonzero m-residue are counted as |H1| times
the fibers of N = (Q^d - 1)/|H1| coset representatives r = gamma^j, each
scanned as the key offset c(r) plus the span of C', and C' is split again
or scanned projectively.  A `ScanPlan` writes this as scan rows (a basis
of the code adapted to the levels, given as combinations of the rows of the
g passed in) and one list of levels (mult, reps), each taking len(reps[0])
rows and making a unit (head, mult) per rep, one per fiber.  The projective
split is a level too: a row scanned projectively is (Q - 1, ((1,),)), its
first nonzero digit set to 1.  The list is the `cols` columns of an
extension, scanned projectively first so that only its all-zero part, the
base code, is split; then the orbit levels; then every row down to the
block table, whose span ends it.  A unit may span fewer rows than the
block table: the table holds the span of the last rows, the last row
first, so its first Q^j words span the last j rows.  `unit_seconds` is the
cost model the plan is chosen by, with a key at _KEY_S and a table word at
_WORD_S per plane word.

The same model decides where a scan runs.  With workers > 1 a process
pool starts only when the one-worker scan's estimate, times the share
1 - 1/workers that the other workers would take off it, passes _POOL_S,
the cost of starting and shutting down a pool; a smaller scan runs in the
main process, as with one worker.

Every scan runs under a `ScanPlan`: `qcc.Generator.scan_plan` makes one
per column count, and a call without one gets the plan of no extension
column and no level.  The plan makes every scan decision and keeps every
result that the next scan under it can reuse: the table rows, the work
units and their one-worker estimate, and their deal to each worker count,
which depend only on the plan; the multiples of each extension row
(x1 | 0 | alpha) scanned so far; and the base part of the last base code
C scanned, with the extension rows as the outer ones of the split of Ling
and Sole: the multiples of the base rows, the block table over them, and
the histogram of the units whose extension digits are zero, the words of
C.  That part is keyed by the rows of G it was made from, the first
k - cols, which are all that the basis rows after the extension rows read
(a plan whose base rows read an extension row is refused when made).  A scan whose
base rows match reuses it and weighs only its extension units, x1 + C with
multiplier Q - 1 for one column, through `_scan` against its table; any
other scan rebuilds it first.  A scan on more than one worker shares
nothing: it makes its own table in each job.

Words are bit-sliced, 64 symbols to a uint64 word per bit plane: one plane
per GF(2) coordinate, added by XOR, or two per GF(3) coordinate ("= 2" and
"= 1"), added by the formula of Boothby and Bradshaw (arXiv:0901.1413).
A scan step takes a batch of B keys, the planes of -b, and weighs the
words t + b as the distances of its unit's R table words t from each key,
in one `BitPlanes.weights` call that allocates nothing: each plane of the
table is XORed with each key's into one reused (W, B, R) buffer and ORed
into a reused accumulator, whose popcounts go into a reused uint8 buffer;
for W > 1 the words are summed in place in the narrowest dtype that holds
n (uint8 up to 255, uint16 above).  B = max(1, _BATCH_WORDS // (R W)), so
a small table (9^4 words over GF(9), 81^2 over GF(81)) pays a step's
numpy calls once for several keys, and a table of _BATCH_WORDS plane words
or more (a full GF(4) table: 4^8 words at W = 1, 4^7 at W = 2) takes one
key a step.  A scan keeps one buffer set, sized by its largest batch.  A
bincount makes the step's histogram.  At W = 1 (n <= 64) a weight fits a
byte, and the weights of keys 2i and 2i + 1 against a word are adjacent
bytes, read as one uint16 bin w + 256 w' of a bincount over 256 (n + 1)
bins; a unit that pairs keys folds those counts into its histogram once,
by summing both axes, so byte order does not matter.  An odd last key of
a step, and every step at W > 1, takes a bincount of its own weights.
Histograms are numpy int64 per work unit and exact Python ints once
scaled and summed.

No elimination checks the generator matrix: the scan counts every message,
so a weight-0 count above 1 is the sign of dependent rows.
"""

from __future__ import annotations

import os
import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from qcqec.errors import InvariantError, SpecError
from qcqec import famat
from qcqec.gf import Field, field_make

_BLOCK_BYTES = 1 << 20  # block table size cap
_BATCH_WORDS = 1 << 15  # the plane words a scan step weighs (module docstring)
_ONE_STEP_BYTES = 1 << 17  # the largest span scanned in one step
# the scan's cost model (`unit_seconds`): a key costs _KEY_S, unit overhead
# included, and each table word it is weighed against _WORD_S per plane
# word; both timed once, as `_scan` of one-unit jobs over GF(4), GF(9) and
# GF(81) at W = 1 and 2, on a 2-core x86-64 (Python 3.11, numpy 2.4)
_KEY_S = 30e-6
_WORD_S = 2.3e-9
# a process pool pays when the scan time it saves, (1 - 1/workers) of the
# one-worker estimate, passes _POOL_S, the pool's start and shutdown: timed
# as a 2-worker ProcessPoolExecutor mapping a trivial call, 13-21 ms over 8
# tries on the same machine, with the fork start method (Linux's default up
# to Python 3.13) from a process that had imported the package.  Where a
# start costs more (spawn; forkserver, Linux's default from 3.14), the rule
# errs toward pooling, as every scan of two or more work units once did
_POOL_S = 0.02


@dataclass(frozen=True)
class WeightEnumerator:
    """Exact weight distribution of a code: counts[w] words of weight w."""

    n: int
    k: int
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) != self.n + 1:
            raise ValueError("counts must have length n + 1")

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

    def add(self, a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """a + b, written into out when given (out must not overlap a or b)."""
        if self.field.p == 2:
            return np.bitwise_xor(a, b, out=out)
        if out is None:
            out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.uint64)
        m = self.field.m
        ah, al, bh, bl = a[:m], a[m:], b[:m], b[m:]
        t = (al | bh) ^ (ah | bl)
        np.bitwise_xor(al | bl, t, out=out[:m])
        np.bitwise_xor(ah | bh, t, out=out[m:])
        return out

    def neg(self, a: np.ndarray) -> np.ndarray:
        if self.field.p == 2:
            return a
        m = self.field.m
        return np.concatenate([a[m:], a[:m]])

    def weight_store(self, size: int) -> tuple:
        """Flat arrays that hold the buffers of `weight_buffers(B, R)` for
        any B R <= size."""
        W = self.W
        return (np.empty(W * size, np.uint64), np.empty(W * size, np.uint64),
                np.empty(W * size, np.uint8), np.empty(size if W > 1 else 0, np.min_scalar_type(self.n)))

    def weight_buffers(self, B: int, R: int, store: tuple | None = None) -> tuple:
        """Buffers for `weights` of B keys against R vectors, as views into
        store (from weight_store(size), B R <= size; fresh by default).  At
        W = 1 the uint8 weights are the transpose of a C-contiguous (R, B)
        array, so that the weights of a vector from keys 2i and 2i + 1 are
        adjacent bytes."""
        W = self.W
        x, acc, ones, total = self.weight_store(B * R) if store is None else store
        x, acc = x[: W * B * R].reshape(W, B, R), acc[: W * B * R].reshape(W, B, R)
        if W == 1:
            return x, acc, ones[: B * R].reshape(R, B).T[None], None
        return x, acc, ones[: W * B * R].reshape(W, B, R), total[: B * R].reshape(B, R)

    def weights(self, a: np.ndarray, keys: np.ndarray | None = None, bufs=None) -> np.ndarray:
        """Symbols in which each vector of a (P, W, R) batch differs from
        each of B keys ((P, W, B) planes; one zero key by default), shape
        (B, R).  With bufs from weight_buffers(B, R, store) nothing is
        allocated, and the result is a view into them."""
        P, W, R = a.shape
        B = 1 if keys is None else keys.shape[2]
        x, acc, ones, total = self.weight_buffers(B, R) if bufs is None else bufs
        a = a[:, :, None]
        keys = np.zeros((P, W, 1, 1), np.uint64) if keys is None else keys[:, :, :, None]
        for p in range(P):
            np.bitwise_xor(a[p], keys[p], out=x if p else acc)
            if p:
                np.bitwise_or(acc, x, out=acc)
        np.bitwise_count(acc, out=ones)
        return ones[0] if W == 1 else np.add.reduce(ones, axis=0, dtype=total.dtype, out=total)

    def multiples(self, rows) -> np.ndarray:
        """Planes of s . row for every row and digit s, in one encode:
        shape (P, W, len(rows), Q)."""
        rows = np.asarray(rows, dtype=np.intp).reshape(-1, self.n)
        words = self.encode(self._mul[rows].transpose(0, 2, 1))  # mul is symmetric
        return words.reshape(self.P, self.W, len(rows), self.field.Q)

    def span(self, mults: np.ndarray, start: np.ndarray | None = None) -> np.ndarray:
        """The Q^r words start + m . rows (start: (P, W, 1) planes, or zero),
        m in base-Q order, shape (P, W, Q^r), from mults = multiples(rows), in
        one allocation: row j makes block s of the first Q^(j+1) words block 0 +
        s . row, all blocks in one XOR over GF(2^m), one by one over GF(3^m) to
        keep the temporaries small."""
        Q, r = self.field.Q, mults.shape[2]
        table = np.empty((self.P, self.W, Q ** r), dtype=np.uint64)
        table[:, :, :1] = 0 if start is None else start
        step = Q - 1 if self.field.p == 2 else 1
        for j in range(r):
            blocks = table.reshape(self.P, self.W, -1, Q, Q ** j)[:, :, 0]  # a view
            for s in range(1, Q, step):
                self.add(blocks[:, :, :1], mults[:, :, j, s : s + step, None],
                         out=blocks[:, :, s : s + step])
        return table


@lru_cache(maxsize=32)
def _bit_planes(q: int, n: int) -> BitPlanes:
    """The BitPlanes of a (q, n), made once in a process."""
    return BitPlanes(field_make(q), n)


# --- message scans ----------------------------------------------------------------


def table_rows(field: Field, k: int, n: int) -> int:
    """Rows of the block table of an [n, k]_Q scan: all k when their span
    fits _ONE_STEP_BYTES (one step), else the most whose span fits
    _BLOCK_BYTES, keeping at least one row outside the table."""
    P, W = BitPlanes.shape(field, n)
    word_bytes = 8 * P * W
    if field.Q ** k * word_bytes <= min(_ONE_STEP_BYTES, _BLOCK_BYTES):
        return k
    inner = 1
    while inner + 1 < k and field.Q ** (inner + 1) * word_bytes <= _BLOCK_BYTES:
        inner += 1
    return inner


def unit_seconds(field: Field, n: int, inner: int, free: int) -> float:
    """Estimated time of a work unit of `free` free rows at length n, with
    a table of `inner` rows: Q^max(0, free - inner) keys, each weighed
    against Q^min(free, inner) words of P W plane words."""
    P, W = BitPlanes.shape(field, n)
    Q = field.Q
    return Q ** max(0, free - inner) * (_KEY_S + Q ** min(free, inner) * P * W * _WORD_S)


def projective_seconds(field: Field, n: int, inner: int, rows: int) -> float:
    """Estimated time of the projective scan of the span of the last `rows`
    rows (the units a `ScanPlan` makes for them)."""
    return (unit_seconds(field, n, inner, min(rows, inner))
            + sum(unit_seconds(field, n, inner, free) for free in range(inner, rows)))


def _block_table(bp: BitPlanes, mults: np.ndarray, inner: int) -> np.ndarray:
    """The span of the last `inner` rows of mults, the last row first, so
    that its first Q^j words are the span of the last j rows."""
    return bp.span(mults[:, :, mults.shape[2] - inner :][:, :, ::-1])


def _scan(job) -> list[int]:
    """Sum over the units of multiplier x weight histogram of their words,
    from the multiples of the rows at length n, weighed against the block
    table of the rows, made here unless given, in batches of keys (module
    docstring)."""
    q, n, mults, inner, units, table = job
    bp = _bit_planes(q, n)
    Q, k = bp.field.Q, mults.shape[2]
    if table is None:
        table = _block_table(bp, mults, inner)
    # each unit's table words, the span of its last min(free, inner) rows,
    # its keys and its batch size
    shapes = []
    for head, _ in units:
        free = k - len(head)
        R, K = Q ** min(free, inner), Q ** max(0, free - inner)
        shapes.append((R, K, min(K, max(1, _BATCH_WORDS // (R * bp.W)))))
    store, views = bp.weight_store(max(R * B for R, _, B in shapes)), {}
    counts = [0] * (n + 1)
    for (head, mult), (R, K, B) in zip(units, shapes):
        offset = np.zeros((bp.P, bp.W, 1), dtype=np.uint64)
        for i, s in enumerate(head):
            if s:
                offset = bp.add(offset, mults[:, :, i, s : s + 1])
        words = table[:, :, :R]
        # weight(t + b) is the distance of t from -b, and the keys -b run over
        # -offset + span(the free rows outside the table), a span being
        # closed under -1; with no such row, -offset is the one key
        keys = bp.neg(offset)
        if len(head) < k - inner:
            keys = bp.span(mults[:, :, len(head) : k - inner], start=keys)
        hist = np.zeros(n + 1, np.int64)
        pairs = None
        for lo in range(0, K, B):
            b = min(B, K - lo)
            if (b, R) not in views:
                views[b, R] = bp.weight_buffers(b, R, store)
            w = bp.weights(words, keys[:, :, lo : lo + b], views[b, R])
            even = len(w) & ~1 if bp.W == 1 else 0
            if even:  # keys 2i and 2i + 1 as the low and high byte of one bin
                step = np.bincount(w.T[:, :even].view(np.uint16).ravel(), minlength=256 * (n + 1))
                pairs = step if pairs is None else np.add(pairs, step, out=pairs)
            if even < len(w):
                hist += np.bincount(w[even:].ravel(), minlength=n + 1)
        if pairs is not None:
            pairs = pairs.reshape(n + 1, 256)[:, : n + 1]
            hist += pairs.sum(axis=0) + pairs.sum(axis=1)
        counts = [c + mult * h for c, h in zip(counts, hist.tolist())]
    return counts


def _scan_rows(field: Field, g: famat.Mat, basis) -> list[tuple]:
    """The rows basis . g over GF(Q), or g's own rows without a basis; a
    unit basis row picks its row of g."""
    if basis is None:
        return [tuple(r) for r in g.rows]
    add, mul = field.add_table, field.mul_table
    out = []
    for b in basis:
        if b.count(0) == len(b) - 1 and 1 in b:
            out.append(tuple(g.rows[b.index(1)]))
            continue
        acc = [0] * g.ncols
        for c, row in zip(b, g.rows):
            if c:
                acc = [add[a][mul[c][x]] for a, x in zip(acc, row)]
        out.append(tuple(acc))
    return out


class ScanPlan:
    """How to scan the [n, k]_Q codes of one generator extended by `cols`
    columns, and what their scans share (module docstring).  Scan row i is
    sum_j basis[i][j] g.rows[j], for the g passed to `counts`, or g.rows[i]
    with no basis.  `levels` holds the orbit levels (mult, reps) alone; the
    work units are made from them, the extension rows before them and the
    projective rows after them, in one loop."""

    def __init__(self, field: Field, k: int, n: int, basis=None, levels=(), cols=0):
        if basis is not None and any(any(b[k - cols:]) for b in basis[cols:]):
            raise ValueError("the plan's base rows read a lead row")
        self.field, self.k, self.n = field, k, n
        self.basis, self.levels, self.cols = basis, tuple(levels), cols
        Q, inner = field.Q, table_rows(field, k, n)
        row = (Q - 1, ((1,),))
        tail = k - inner - cols - sum(len(reps[0]) for _, reps in self.levels)
        units, at = [], 0
        for mult, reps in (row,) * cols + self.levels + (row,) * max(0, tail):
            units += [((0,) * at + rep, mult) for rep in reps]
            at += len(reps[0])
        units.append(((0,) * at, 1))
        # the table spans no more rows than the largest unit, and no extension
        # row, so that the base part holds it
        self.inner = min(inner, k - cols, max(k - len(head) for head, _ in units))
        self._units, self._chunks = units, {}
        (one,) = self.chunks(1)
        self.seconds = sum(unit_seconds(field, n, self.inner, k - len(head)) for head, _ in one)
        self.lead_units = [(head, mult) for head, mult in one if any(head[:cols])]
        self.base_units = [(head[cols:], mult) for head, mult in one if not any(head[:cols])]
        # the multiples of each extension row by its digits, and the base part
        # of the last base scanned: (its rows of g, the multiples of its scan
        # rows, the block table, the histogram of the base units)
        self.lead_mults, self.base = {}, None

    def chunks(self, workers: int) -> list:
        """The work units dealt into at most `workers` lists of about equal
        work.  A unit (head, multiplier) stands for multiplier x the weight
        histogram of the words head . rows[:len(head)] + span(rows[len(head):]).
        A unit is cut by its next digit while it has more keys than table
        words, or, with workers > 1, while it holds over 1/(8 workers) of the
        work."""
        if workers not in self._chunks:
            Q, k, inner = self.field.Q, self.k, self.inner
            units, cut = list(self._units), []
            total = sum(Q ** (k - len(head)) for head, _ in units)
            while units:
                head, mult = units.pop()
                free = k - len(head)
                if free > 2 * inner or (workers > 1 and free > inner and 8 * workers * Q ** free > total):
                    units += [(head + (s,), mult) for s in range(Q)]
                else:
                    cut.append((Q ** free, head, mult))
            chunks, loads = [[] for _ in range(workers)], [0] * workers
            for cost, head, mult in sorted(cut, reverse=True):
                i = loads.index(min(loads))
                chunks[i].append((head, mult))
                loads[i] += cost
            self._chunks[workers] = [chunk for chunk in chunks if chunk]
        return self._chunks[workers]

    def counts(self, g: famat.Mat, workers: int = 1) -> list[int]:
        """The weight histogram of the row space of g: on a pool of `workers`
        processes when the one-worker estimate passes break-even, each job
        making its own table; otherwise here, the base part's histogram,
        reused when g's base rows are the ones it was made from and made
        otherwise, plus the extension units', which `_scan` weighs against
        the base part's table."""
        field, k, n, cols = self.field, self.k, self.n, self.cols
        if (g.field.Q, g.nrows, g.ncols) != (field.Q, k, n):
            raise ValueError(f"a plan for [{n}, {k}]_{field.Q} codes cannot scan G")
        bp = _bit_planes(field.q, n)
        if workers > 1 and self.seconds * (1 - 1 / workers) > _POOL_S:
            mults = bp.multiples(_scan_rows(field, g, self.basis))
            jobs = [(field.q, n, mults, self.inner, chunk, None) for chunk in self.chunks(workers)]
            with ProcessPoolExecutor(max_workers=workers) as ex:
                return [sum(parts) for parts in zip(*ex.map(_scan, jobs))]
        rows = [tuple(row) for row in g.rows[: k - cols]]
        if self.base is None or self.base[0] != rows:
            self.base = None  # the last base part goes before this one is made
            mults = bp.multiples(_scan_rows(field, g, self.basis and self.basis[cols:]))
            table = _block_table(bp, mults, self.inner)
            self.base = rows, mults, table, _scan((field.q, n, mults, self.inner, self.base_units, table))
        _, base_mults, table, base_counts = self.base
        if not cols:
            return base_counts
        lead_mults = []
        for row in _scan_rows(field, g, self.basis[:cols]):
            if row not in self.lead_mults:
                self.lead_mults[row] = bp.multiples([row])
            lead_mults.append(self.lead_mults[row])
        mults = np.concatenate(lead_mults + [base_mults], axis=2)
        counts = _scan((field.q, n, mults, self.inner, self.lead_units, table))
        return [a + b for a, b in zip(base_counts, counts)]


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def enumerate_code(
    g: famat.Mat,
    workers: int = 1,
    plan: ScanPlan | None = None,
) -> WeightEnumerator:
    """Exact weight enumerator of the row space of g by full traversal.

    g must have full row rank so that messages and codewords are in
    bijection.  The scan itself checks this: it counts every message, so
    its weight-0 count is Q^(k - rank g), and anything but 1 raises
    ValueError.  A plan (`ScanPlan`, made by `qcc.Generator.scan_plan`
    for a quasi-cyclic g) splits the scan by double-shift orbits and keeps
    what later scans under it reuse (module docstring); its basis must be
    invertible, which the weight-0 count checks too.  With workers > 1 the
    work units are spread over a process pool, no larger than the CPUs this
    process may use, and their histograms summed, so the result does not
    depend on the partitioning.  The pool starts only when the scan's
    estimate passes break-even (module docstring); a smaller scan runs in
    this process, as with one worker.
    """
    field = g.field
    k, n = g.nrows, g.ncols
    total = field.Q ** k
    workers = min(workers, _usable_cpus()) if workers > 1 else 1
    counts = [1] + [0] * n if k == 0 else (plan or ScanPlan(field, k, n)).counts(g, workers)

    if counts[0] != 1:
        raise ValueError("generator matrix must have full row rank")
    enum = WeightEnumerator(n, k, tuple(counts))
    if enum.total() != total:
        raise InvariantError(f"enumerator total {enum.total()} != Q^k = {total}")
    return enum


# --- MacWilliams ----------------------------------------------------------------


def macwilliams(enum: WeightEnumerator, Q: int) -> WeightEnumerator:
    """Dual weight distribution B_j = Q^-k sum_i A_i K_j(i).

    Every B_j must come out a nonnegative integer and B_0 = 1, which is a
    strong end-to-end checksum on the enumeration; failures raise rather
    than round.  Q^k B_j is the coefficient of y^j in sum_i A_i u^(n-i) v^i,
    u = 1 + (Q-1)y, v = 1 - y, which Horner's rule evaluates at y = 2^S in
    one integer by shifts and adds.  |Q^k B_j| <= Q^n sum_i |A_i| < 2^(S-1),
    so that integer is sum_j c_j 2^(Sj) with every c_j in (-2^(S-1), 2^(S-1)),
    and the B_j are read off its S-bit slots: in one struct call while every
    B_j <= Q^(n-k) fits a 64-bit word (`_quotient_words`), and otherwise,
    or to name the weight that fails, one by one, a bias 2^(S-1) in each
    slot keeping a negative one negative.
    """
    n, k = enum.n, enum.k
    scale = Q ** k
    # bytes a slot, at least the 8 of a 64-bit word
    size = max(8, ((Q ** n * sum(map(abs, enum.counts))).bit_length() + 9) // 8)
    S = 8 * size
    acc, vpow = 0, 1
    for a in enum.counts:  # acc = acc . u + A_i v^i, vpow = v^i
        acc += (Q - 1) * acc << S
        if a:
            acc += a * vpow
        vpow -= vpow << S
    out = _quotient_words(acc, scale, size, n + 1) if 0 <= n - k and Q ** (n - k) < 1 << 64 else None
    if out is None:
        slot_bias = bytes(size - 1) + b"\x80"  # 2^(S-1)
        acc += int.from_bytes(slot_bias * (n + 1), "little")
        slots = acc.to_bytes(size * (n + 1), "little")
        out = []
        for j in range(n + 1):
            c = int.from_bytes(slots[j * size : (j + 1) * size], "little") - (1 << (S - 1))
            b, r = divmod(c, scale)
            if r or b < 0:
                raise InvariantError(
                    f"MacWilliams checksum failed at weight {j}: {c}/{scale}"
                )
            out.append(b)
    dual = WeightEnumerator(n, n - k, tuple(out))
    if dual.total() != Q ** (n - k):
        raise InvariantError(f"dual total {dual.total()} != Q^(n-k) = {Q ** (n - k)}")
    return dual


def _quotient_words(acc: int, scale: int, size: int, slots: int) -> tuple | None:
    """The `slots` slots of acc / scale, each of 8 size bits, read as 64-bit
    words in one struct call; None unless acc = scale e, e >= 0, and every
    slot e_j of e fits 64 bits with scale e_j < 2^(S-1), S = 8 size.

    acc is sum_j c_j 2^(Sj) with every c_j in (-2^(S-1), 2^(S-1)), and no
    other such sum gives it (`macwilliams`).  Under those conditions
    sum_j (scale e_j) 2^(Sj) is one, so c_j = scale e_j for every j."""
    S = 8 * size
    e, r = divmod(acc, scale)
    if acc < 0 or r or e.bit_length() > S * slots:
        return None
    # each slot of e as a 64-bit word and the bytes above it
    words = struct.unpack("<" + f"Q{size - 8}s" * slots, e.to_bytes(size * slots, "little"))
    low = words[::2]
    if words[1::2].count(bytes(size - 8)) != slots or max(low) > ((1 << (S - 1)) - 1) // scale:
        return None
    return low


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
