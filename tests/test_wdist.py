"""Weight distribution tests.

The fast enumerator is checked against the naive message-product oracle, the
MacWilliams transform against actual enumeration of the Hermitian dual, and
Krawtchouk numbers against their generating function.
"""

import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import oracles
from qcqec.errors import InvariantError
from qcqec.gf import field_make
from qcqec import famat as fm
from qcqec import wdist

GF4 = field_make(2)
GF9 = field_make(3)
GF81 = field_make(9)


def rand_full_rank(rng, field, k, n):
    while True:
        m = fm.Mat(
            field, [[rng.randrange(field.Q) for _ in range(n)] for _ in range(k)]
        )
        if oracles.rank(m) == k:
            return m


# --- bit-sliced vectors ------------------------------------------------------------


@pytest.mark.parametrize("field", [GF4, GF9, GF81])
def test_packed_add_matches_field(field):
    bp = wdist.BitPlanes(field, 1)
    pairs = list(itertools.product(field.digits, repeat=2))
    a = bp.encode([[x] for x, _ in pairs])
    b = bp.encode([[y] for _, y in pairs])
    want = bp.encode([[field.add(x, y)] for x, y in pairs])
    assert np.array_equal(bp.add(a, b), want)
    neg = bp.encode([[field.neg(x)] for x, _ in pairs])
    assert np.array_equal(bp.neg(a), neg)


@pytest.mark.parametrize("field", [GF4, GF9, GF81])
def test_packed_zero_is_zero(field):
    bp = wdist.BitPlanes(field, 1)
    planes = bp.encode([[d] for d in field.digits])[:, 0, :].T
    assert not planes[0].any()
    assert len({tuple(p) for p in planes}) == field.Q  # injective


def test_scaled_packed_row():
    bp = wdist.BitPlanes(GF9, 4)
    row = (0, 1, 5, 8)
    want = bp.encode([[GF9.mul(s, d) for d in row] for s in GF9.digits])
    assert np.array_equal(bp.multiples([row])[:, :, 0], want)


@pytest.mark.parametrize("field", [GF4, GF9, GF81])
@pytest.mark.parametrize("n", [1, 63, 64, 65, 128, 129, 255, 256, 257])
def test_plane_weight_is_symbol_weight(field, n):
    rng = random.Random(n * field.Q)
    bp = wdist.BitPlanes(field, n)
    digits = [[rng.randrange(field.Q) if rng.random() < 0.7 else 0
               for _ in range(n)] for _ in range(20)]
    digits += [[0] * n, [field.Q - 1] * n]
    want = [sum(1 for d in row if d) for row in digits]
    words = bp.encode(digits)
    weights = bp.weights(words)
    assert weights.tolist() == [want]
    # a batch of keys: row i holds the distances of the vectors from key i,
    # in fresh buffers and in reused ones sized for a larger batch
    keys = digits[::3]
    dist = [[sum(1 for a, b in zip(row, key) if a != b) for row in digits] for key in keys]
    store = bp.weight_store(len(keys) * len(digits) + 5)
    for batch in (keys, keys[:2], keys[:3], keys):
        bufs = bp.weight_buffers(len(batch), len(digits), store)
        assert bp.weights(words, bp.encode(batch), bufs).tolist() == dist[: len(batch)]
    assert bp.weights(words, bp.encode(keys)).tolist() == dist
    # np.bincount casts its input to intp under the 'safe' rule
    assert np.can_cast(weights.dtype, np.intp)
    # the narrowest unsigned dtype that holds n
    assert weights.dtype == (np.uint8 if n <= 255 else np.uint16)


@pytest.mark.parametrize("field", [GF4, GF9, GF81])
def test_plane_span_is_the_row_space(field):
    rng = random.Random(7 + field.Q)
    rows = [[rng.randrange(field.Q) for _ in range(5)] for _ in range(2)]
    bp = wdist.BitPlanes(field, 5)
    words = [
        [field.add(field.mul(s, x), field.mul(t, y)) for x, y in zip(*rows)]
        for s in field.digits for t in field.digits
    ]
    got = bp.span(bp.multiples(rows))
    assert got.shape == (bp.P, bp.W, field.Q ** 2)
    assert sorted(map(tuple, got.reshape(-1, field.Q ** 2).T.tolist())) == sorted(
        map(tuple, bp.encode(words).reshape(-1, field.Q ** 2).T.tolist()))


@pytest.mark.parametrize("field,r,n", [(GF4, 8, 100), (GF9, 5, 83), (GF81, 2, 100)])
def test_span_peak_is_about_the_table(field, r, n):
    # the table is allocated once and filled block by block: a scan holds
    # little more than its block table while building it
    rng = random.Random(n + field.Q)
    rows = [[rng.randrange(field.Q) for _ in range(n)] for _ in range(r)]
    bp = wdist.BitPlanes(field, n)
    tracemalloc.start()
    try:
        table = bp.span(bp.multiples(rows))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.nbytes >= 1 << 18
    assert peak <= 1.5 * table.nbytes, peak / table.nbytes


# --- enumeration ----------------------------------------------------------------


def test_full_space_enumerator():
    enum = wdist.enumerate_code(oracles.identity(GF4, 2))
    assert enum.counts == (1, 6, 9)


def test_zero_code():
    enum = wdist.enumerate_code(fm.Mat(GF4, [], ncols=5))
    assert enum.counts == (1, 0, 0, 0, 0, 0)
    assert enum.distance() is None


@pytest.mark.parametrize(
    "field,kmax,trials",
    [(GF4, 6, 25), (GF9, 4, 15), (GF81, 2, 6)],
)
def test_enumerate_matches_naive_oracle(field, kmax, trials):
    rng = random.Random(field.Q)
    for _ in range(trials):
        k = rng.randrange(1, kmax + 1)
        n = rng.randrange(k, k + 9)
        g = rand_full_rank(rng, field, k, n)
        fast = wdist.enumerate_code(g)
        slow = oracles.enumerate_code_naive(g)
        assert fast == slow


def test_enumerate_crosses_block_boundary():
    # force a code big enough that the inner table cannot hold everything
    rng = random.Random(99)
    g = rand_full_rank(rng, GF4, 10, 12)  # 4^10 > block target
    enum = wdist.enumerate_code(g)
    assert enum.total() == 4 ** 10
    dual = wdist.macwilliams(enum, 4)
    assert dual.counts[0] == 1  # checksum exercised


# 255, 256, 257: the weight sum of a scan step is uint8 up to 255, uint16 above
@pytest.mark.parametrize("n", [63, 64, 65, 128, 129, 255, 256, 257])
@pytest.mark.parametrize("field,k", [(GF4, 4), (GF9, 3), (GF81, 2)])
def test_enumerate_matches_naive_oracle_at_word_edges(field, k, n):
    rng = random.Random(n + field.Q)
    g = rand_full_rank(rng, field, k, n)
    assert wdist.enumerate_code(g) == oracles.enumerate_code_naive(g)


@pytest.mark.parametrize("field,k,n", [(GF9, 6, 12), (GF81, 4, 8)])
def test_enumerate_crosses_block_boundary_odd_characteristic(
    field, k, n, monkeypatch
):
    rng = random.Random(field.Q)
    g = rand_full_rank(rng, field, k, n)
    enum = wdist.enumerate_code(g)
    assert enum.total() == field.Q ** k
    assert wdist.macwilliams(enum, field.Q).counts[0] == 1
    # a one-row block table cuts the scan into different work units
    monkeypatch.setattr(wdist, "_BLOCK_BYTES", 0)
    assert wdist.enumerate_code(g) == enum


@pytest.mark.parametrize("field,k", [(GF4, 5), (GF9, 4), (GF81, 2)])
def test_one_row_block_table_matches_naive_oracle(field, k, monkeypatch):
    monkeypatch.setattr(wdist, "_BLOCK_BYTES", 0)
    rng = random.Random(3 * field.Q)
    g = rand_full_rank(rng, field, k, k + 4)
    assert wdist.enumerate_code(g) == oracles.enumerate_code_naive(g)


def test_one_row_block_table_at_n_256(monkeypatch):
    monkeypatch.setattr(wdist, "_BLOCK_BYTES", 0)
    g = rand_full_rank(random.Random(256), GF9, 3, 256)
    assert wdist.enumerate_code(g) == oracles.enumerate_code_naive(g)


def test_enumerate_workers_agree_at_n_256(monkeypatch, pool_always):
    monkeypatch.setattr(wdist, "_usable_cpus", lambda: 3)
    g = rand_full_rank(random.Random(257), GF4, 6, 256)
    one = wdist.enumerate_code(g, workers=1)
    assert wdist.enumerate_code(g, workers=3) == one
    assert one.total() == 4 ** 6


# a one-row block table makes units of at most Q keys against Q words, and
# _BATCH_WORDS sets B = 1, 2 or 3 keys a batch: 3 does not divide GF(4)'s 4
# keys and 2 does not divide 9 or 81, so some batch is short or odd.  At
# n <= 64 (W = 1) a batch of two or more pairs its keys.  The codes are the
# smallest whose units keep Q keys when dealt to two workers; a pool whose
# workers fork sees the patched batch size, one that spawns them the default
@pytest.mark.parametrize("n", [63, 64, 65, 255, 256, 257])
@pytest.mark.parametrize("field,k", [(GF4, 5), (GF9, 5), (GF81, 4)],
                         ids=["Q4", "Q9", "Q81"])
def test_batched_scans_agree_at_the_batch_edges(field, k, n, monkeypatch, request):
    monkeypatch.setattr(wdist, "_BLOCK_BYTES", 0)
    monkeypatch.setattr(wdist, "_usable_cpus", lambda: 2)
    W = wdist.BitPlanes.shape(field, n)[1]
    g = rand_full_rank(random.Random(field.Q * 1000 + n), field, k, n)
    naive = field.Q ** k <= 4 ** 6
    if naive:
        want = oracles.enumerate_code_naive(g)
    else:  # the B = 1 scan, whose step weighs one key
        monkeypatch.setattr(wdist, "_BATCH_WORDS", 1)
        want = wdist.enumerate_code(g)
    for workers in (1, 2):
        if workers > 1:
            request.getfixturevalue("pool_always")
        for B in (1, 2, 3) if naive or workers > 1 else (2, 3):
            monkeypatch.setattr(wdist, "_BATCH_WORDS", B * field.Q * W)
            assert wdist.enumerate_code(g, workers=workers) == want, (workers, B)


# random codes of four scan shapes: a full GF(4) table at W = 1 (4^8 words)
# and at W = 2 (4^7), and the batched [35,9]_9 of table 3 and [22,5]_81 of
# the GF(81) spec; a scan holds its block table, its keys and one batch's
# buffers
@pytest.mark.parametrize("field,k,n", [(GF4, 10, 47), (GF4, 9, 127), (GF9, 9, 35), (GF81, 5, 22)],
                         ids=["47-4", "127-4", "35-9", "22-81"])
def test_scan_peak_is_within_three_block_tables(field, k, n):
    g = rand_full_rank(random.Random(field.Q * 1000 + n), field, k, n)
    tracemalloc.start()
    try:
        wdist.enumerate_code(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * wdist._BLOCK_BYTES, peak / wdist._BLOCK_BYTES


def test_enumerate_rejects_rank_deficient():
    for rows in ([[1, 2, 0], [2, 3, 0]], [[0, 0, 0]]):
        with pytest.raises(ValueError, match="full row rank"):
            wdist.enumerate_code(fm.Mat(GF4, rows))


# k = 7 over GF(4) and k = 4 over GF(9) are past the one-step span and keep
# one outer row; k = 4 over GF(81) keeps two, its block table capped at two
# rows
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("where", ["table", "outer"])
@pytest.mark.parametrize("field,n,rank", [(GF4, 12, 6), (GF9, 10, 3), (GF81, 6, 3)],
                         ids=["Q4", "Q9", "Q81"])
def test_rank_deficiency_is_caught_by_the_scan(field, n, rank, where, workers, monkeypatch,
                                               request):
    # no elimination runs: the scan's weight-0 count Q^(k - rank) must refuse
    # a dependent row, last (in the block table) or first (an outer row),
    # and two workers must run a pool, small as these codes are
    monkeypatch.setattr(wdist, "_usable_cpus", lambda: 2)
    if workers > 1:
        request.getfixturevalue("pool_always")
    rng = random.Random(field.Q + n)
    rows = rand_full_rank(rng, field, rank, n).rows
    s = rng.randrange(1, field.Q)
    dependent = [field.mul(s, field.add(a, b)) for a, b in zip(rows[0], rows[2])]
    rows = rows + [dependent] if where == "table" else [dependent] + rows
    with pytest.raises(ValueError, match="full row rank"):
        wdist.enumerate_code(fm.Mat(field, rows), workers=workers)


def one_step(field, k, n):
    """Whether enumerate_code scans an [n, k]_Q code in one step."""
    P, W = wdist.BitPlanes.shape(field, n)
    return field.Q ** k * 8 * P * W <= min(wdist._ONE_STEP_BYTES, wdist._BLOCK_BYTES)


# each side of the one-step span: over GF(4) 4^6 words fit and 4^7 do not, at
# W = 1, and at W = 3 4^6 no longer fits; GF(9) 9^3 and 9^4; GF(81) 81 and 81^2
@pytest.mark.parametrize("field,k,n,fits", [
    (GF4, 6, 20, True), (GF4, 7, 20, False), (GF4, 5, 130, True), (GF4, 6, 130, False),
    (GF9, 3, 12, True), (GF9, 4, 12, False), (GF81, 1, 9, True), (GF81, 2, 9, False),
])
def test_one_step_and_projective_scans_agree(field, k, n, fits, monkeypatch):
    assert one_step(field, k, n) == fits
    rng = random.Random(field.Q * 1000 + k * 100 + n)
    codes = [rand_full_rank(rng, field, k, n) for _ in range(3)]
    default = [wdist.enumerate_code(g) for g in codes]
    # with the one-step span at 0 every code takes the projective scan, and
    # with it at the block table cap every code that fits takes one step
    monkeypatch.setattr(wdist, "_ONE_STEP_BYTES", 0)
    assert not one_step(field, k, n)
    assert [wdist.enumerate_code(g) for g in codes] == default
    monkeypatch.setattr(wdist, "_ONE_STEP_BYTES", wdist._BLOCK_BYTES)
    assert one_step(field, k, n)
    assert [wdist.enumerate_code(g) for g in codes] == default
    if field.Q ** k <= 4 ** 5:
        assert default == [oracles.enumerate_code_naive(g) for g in codes]


def test_enumerate_workers_agree(monkeypatch, pool_always):
    # the pool is capped at the usable CPUs; lift the cap so that three
    # workers are three processes on any machine
    monkeypatch.setattr(wdist, "_usable_cpus", lambda: 3)
    rng = random.Random(5)
    g = rand_full_rank(rng, GF4, 7, 9)  # past the one-step span: work units
    one = wdist.enumerate_code(g, workers=1)
    many = wdist.enumerate_code(g, workers=3)
    assert one == many


@pytest.mark.parametrize("field,k,n", [(GF9, 6, 12), (GF81, 4, 8)])
def test_enumerate_workers_agree_odd_characteristic(field, k, n, monkeypatch, pool_always):
    monkeypatch.setattr(wdist, "_usable_cpus", lambda: 3)
    rng = random.Random(11 + field.Q)
    g = rand_full_rank(rng, field, k, n)
    one = wdist.enumerate_code(g, workers=1)
    assert wdist.enumerate_code(g, workers=2) == one
    assert wdist.enumerate_code(g, workers=3) == one


@pytest.mark.parametrize("affinity, cpu_count, pool", [
    ({0, 1, 2}, 8, [3]),  # the CPUs this process may use, not the machine's
    (None, 3, [3]),       # no affinity call: all CPUs
    (None, None, []),     # nothing known: one worker, no pool
])
def test_pool_is_capped_at_usable_cpus(monkeypatch, affinity, cpu_count, pool, pool_always,
                                       pools_started):
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    g = rand_full_rank(random.Random(5), GF4, 7, 9)  # past the one-step span
    one = wdist.enumerate_code(g, workers=1)
    assert wdist.enumerate_code(g, workers=10 ** 6) == one
    assert pools_started == pool


def test_scan_below_break_even_runs_here(monkeypatch, pools_started):
    # a [9, 7]_4 scan is estimated at under a millisecond, far below a
    # pool's start and shutdown: two workers scan it here, as one does
    monkeypatch.setattr(wdist, "_usable_cpus", lambda: 2)
    g = rand_full_rank(random.Random(5), GF4, 7, 9)  # past the one-step span
    one = wdist.enumerate_code(g, workers=1)
    assert wdist.enumerate_code(g, workers=2) == one
    assert pools_started == []
    # a pool that starts for nothing pays for any scan of two work units
    monkeypatch.setattr(wdist, "_POOL_S", 0.0)
    assert wdist.enumerate_code(g, workers=2) == one
    assert pools_started == [2]


# past the one-step span, on each side of a 64-symbol word; each code is
# dealt to two workers as two jobs, and is far below break-even
@pytest.mark.parametrize("field,k,n", [
    (GF4, 7, 9), (GF4, 8, 64), (GF4, 7, 70), (GF9, 4, 12), (GF9, 5, 65),
    (GF81, 2, 9), (GF81, 3, 66),
], ids=lambda v: getattr(v, "Q", v))
def test_scans_here_and_on_a_pool_agree(field, k, n, monkeypatch):
    monkeypatch.setattr(wdist, "_usable_cpus", lambda: 2)
    g = rand_full_rank(random.Random(field.Q * 1000 + k * 100 + n), field, k, n)
    here = wdist.enumerate_code(g, workers=2)
    monkeypatch.setattr(wdist, "_POOL_S", 0.0)
    assert wdist.enumerate_code(g, workers=2) == here
    if field.Q ** k <= 4 ** 5:
        assert here == oracles.enumerate_code_naive(g)


def test_corrupt_histogram_is_caught_under_optimize():
    # python -O strips assert statements; the total check must survive it
    program = """
from qcqec import famat, wdist
from qcqec.errors import InvariantError
from qcqec.gf import field_make

assert False, "assert statements are live"
scan = wdist._scan

def corrupt(job):
    counts = scan(job)
    counts[1] += 1
    return counts

wdist._scan = corrupt
try:
    wdist.enumerate_code(famat.Mat(field_make(2), [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
except InvariantError as exc:
    print("caught:", exc)
"""
    src_dir = str(Path(wdist.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src_dir)
    done = subprocess.run([sys.executable, "-O", "-c", program], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("caught: enumerator total 65 != Q^k = 64")


def test_corrupt_histogram_is_caught_on_a_shared_base_under_optimize():
    # an extension whose base part another extension of its base made
    # scans only its lead units, and the total check still sees them
    program = """
from qcqec import pipeline, qcc, refdata, wdist
from qcqec.errors import InvariantError
from qcqec.gf import field_make

assert False, "assert statements are live"
spec = refdata.find_reference("q2-n15-extend-one")
base = pipeline.Evaluation(field_make(2), spec.n, spec.f, spec.g)
x1 = qcc.find_extension_vector(base.code, 1)
base.extended((spec.x1,)).enum  # makes the base part, uncorrupted
scan = wdist._scan

def corrupt(job):
    counts = scan(job)
    counts[1] += 1
    return counts

wdist._scan = corrupt
try:
    base.extended((x1,)).enum
except InvariantError as exc:
    print("caught:", exc)
"""
    src_dir = str(Path(wdist.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src_dir)
    done = subprocess.run([sys.executable, "-O", "-c", program], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("caught: enumerator total 16385 != Q^k = 16384")


def test_corrupt_histogram_is_caught_on_a_second_base_of_its_generator_under_optimize():
    # a second base of the same generator reads the plan, its work units and
    # the lead rows' multiples that the first base made; its extensions'
    # totals are still checked
    program = """
from qcqec import pipeline, qcc, refdata, wdist
from qcqec.errors import InvariantError
from qcqec.gf import field_make

assert False, "assert statements are live"
spec = refdata.find_reference("q2-n15-extend-one")
first = pipeline.Evaluation(field_make(2), spec.n, spec.f, spec.g)
x1 = qcc.find_extension_vector(first.code, 1)
for xs in ((spec.x1,), (x1,)):
    first.extended(xs).enum
second = pipeline.Evaluation(field_make(2), spec.n, (1, 1), spec.g)
second.extended((spec.x1,)).enum  # makes its base part, uncorrupted
scan = wdist._scan

def corrupt(job):
    counts = scan(job)
    counts[1] += 1
    return counts

wdist._scan = corrupt
try:
    second.extended((x1,)).enum
except InvariantError as exc:
    print("caught:", exc)
"""
    src_dir = str(Path(wdist.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src_dir)
    done = subprocess.run([sys.executable, "-O", "-c", program], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("caught: enumerator total 16385 != Q^k = 16384")


def test_enumerator_counts_are_python_ints():
    enum = wdist.enumerate_code(oracles.identity(GF4, 2))
    assert all(type(c) is int for c in enum.counts)


# --- Krawtchouk / MacWilliams -----------------------------------------------------


def oracle_krawtchouk_row(Q, n, i):
    """Coefficients of (1 + (Q-1)y)^(n-i) (1 - y)^i over the integers."""
    poly = [1]
    for _ in range(n - i):
        nxt = [0] * (len(poly) + 1)
        for t, c in enumerate(poly):
            nxt[t] += c
            nxt[t + 1] += (Q - 1) * c
        poly = nxt
    for _ in range(i):
        nxt = [0] * (len(poly) + 1)
        for t, c in enumerate(poly):
            nxt[t] += c
            nxt[t + 1] -= c
        poly = nxt
    return poly


@pytest.mark.parametrize("Q,n", [(4, 8), (9, 6), (81, 4)])
def test_krawtchouk_generating_function(Q, n):
    cols = list(oracles.krawtchouk_columns(Q, n))
    assert cols == [oracle_krawtchouk_row(Q, n, i) for i in range(n + 1)]


def test_krawtchouk_frozen_value():
    assert list(oracles.krawtchouk_columns(4, 2))[1][1] == 2


@pytest.mark.parametrize("field,k,n", [
    (GF4, 7, 30), (GF4, 8, 31), (GF4, 4, 127), (GF9, 3, 41), (GF81, 2, 22),
])
def test_macwilliams_matches_krawtchouk_sums(field, k, n):
    # the packed Horner evaluation against the column-by-column sums, on
    # real codes and at the lengths a search and a table run transform
    g = rand_full_rank(random.Random(n * field.Q), field, k, n)
    enum = wdist.enumerate_code(g)
    want = [c // field.Q ** k for c in oracles.krawtchouk_sums(enum.counts, field.Q)]
    assert list(wdist.macwilliams(enum, field.Q).counts) == want


@pytest.mark.parametrize("counts, weight", [
    ((1, 0, 1, 14), 1),   # sums divisible by 4^2, but B_1 = -2
    ((1, 0, 13, 2), 2),   # B_2 = -2
    ((1, 1, 1, 13), 1),   # B_1 is not an integer
])
def test_macwilliams_rejects_distributions_without_a_code(counts, weight):
    # [3, 2]_4 distributions with the right total that no code has
    enum = wdist.WeightEnumerator(3, 2, counts)
    with pytest.raises(InvariantError, match=f"checksum failed at weight {weight}:"):
        wdist.macwilliams(enum, 4)


@pytest.mark.parametrize("Q", [4, 9])
def test_macwilliams_returns_exactly_when_every_sum_is_a_count(Q):
    # random distributions, most of them no code's, some with counts past
    # 64 bits or negative: the transform returns exactly when every
    # Krawtchouk sum is a nonnegative multiple of Q^k and the quotients
    # total Q^(n-k), and then returns those quotients
    rng = random.Random(Q)
    returned = refused = 0
    for _ in range(3000):
        n = rng.randrange(1, 7)
        k = rng.randrange(0, 3)
        top = rng.choice([3, 2 ** 70])
        counts = (1,) + tuple(rng.randrange(-1, top) for _ in range(n))
        sums = oracles.krawtchouk_sums(counts, Q)
        quotients = [c // Q ** k for c in sums]
        if (all(c % Q ** k == 0 and c >= 0 for c in sums)
                and sum(quotients) == Q ** (n - k)):
            returned += 1
            assert wdist.macwilliams(wdist.WeightEnumerator(n, k, counts), Q).counts == tuple(quotients)
        else:
            refused += 1
            with pytest.raises(InvariantError):
                wdist.macwilliams(wdist.WeightEnumerator(n, k, counts), Q)
    # real codes, both sides of a 64-bit dual count
    for field, k, n in [(GF4 if Q == 4 else GF9, 2, 9), (GF4 if Q == 4 else GF9, 1, 40)]:
        enum = wdist.enumerate_code(rand_full_rank(rng, field, k, n))
        want = [c // Q ** k for c in oracles.krawtchouk_sums(enum.counts, Q)]
        assert list(wdist.macwilliams(enum, Q).counts) == want
        returned += 1
    assert returned > 2 and refused > 2000


@pytest.mark.parametrize("field", [GF4, GF9])
def test_macwilliams_equals_actual_dual_enumerator(field):
    rng = random.Random(31 + field.Q)
    for _ in range(20):
        k = rng.randrange(1, 4)
        n = rng.randrange(k + 1, 8)
        g = rand_full_rank(rng, field, k, n)
        primal = wdist.enumerate_code(g)
        dual_mat = oracles.hermitian_dual_basis(g)
        dual_direct = wdist.enumerate_code(dual_mat)
        assert wdist.macwilliams(primal, field.Q) == dual_direct


def test_macwilliams_involution_small():
    rng = random.Random(77)
    for _ in range(30):
        k = rng.randrange(1, 5)
        n = rng.randrange(k, 10)
        g = rand_full_rank(rng, GF4, k, n)
        enum = wdist.enumerate_code(g)
        back = wdist.macwilliams(wdist.macwilliams(enum, 4), 4)
        assert back == enum


def test_dual_distance_repetition_code():
    g = fm.Mat(GF4, [[1, 1, 1]])
    enum = wdist.enumerate_code(g)
    assert enum.counts == (1, 0, 0, 3)
    assert wdist.macwilliams(enum, 4).distance() == 2


def test_impure_distance():
    # self-dual single row (1,1): dual equals primal, so no separating weight
    enum = wdist.enumerate_code(fm.Mat(GF4, [[1, 1]]))
    dual = wdist.macwilliams(enum, 4)
    assert wdist.impure_distance(enum, dual) is None
    # repetition [3,1]: dual has weight-2 words the code lacks
    enum3 = wdist.enumerate_code(fm.Mat(GF4, [[1, 1, 1]]))
    dual3 = wdist.macwilliams(enum3, 4)
    assert wdist.impure_distance(enum3, dual3) == 2


def test_json_map_round_trip():
    enum = wdist.enumerate_code(fm.Mat(GF4, [[1, 1, 1]]))
    assert enum.to_json_map() == {"0": "1", "3": "3"}
