"""Exact linear algebra tests, anchored by naive oracles.

char_poly gets a Leibniz-expansion oracle (practical up to 4x4), rank gets
the cyclic-code dimension formula, and the test-only hull_dim of oracles.py
is exercised through its own built-in double computation plus
hand-checkable cases.  The matrix arithmetic that only tests use (products,
sums, daggers, stacking, elimination, rank, inverses) lives in oracles.py
and is checked here too.
"""

import itertools
import random

import pytest

import oracles
from qcqec.gf import field_make
from qcqec import famat as fm
from qcqec import polyring as pr

GF4 = field_make(2)
GF9 = field_make(3)


def rand_mat(rng, field, r, c):
    return fm.Mat(field, [[rng.randrange(field.Q) for _ in range(c)] for _ in range(r)])


def rand_full_rank(rng, field, r, c):
    while True:
        m = rand_mat(rng, field, r, c)
        if oracles.rank(m) == r:
            return m


# --- circulants --------------------------------------------------------------


def test_circulant_rows_are_shifts():
    g = pr.parse_compact(GF4, "1220310131", n=15)
    m = fm.circulant(GF4, g, 6)
    assert m.row(0) == (1, 2, 2, 0, 3, 1, 0, 1, 3, 1, 0, 0, 0, 0, 0)
    assert m.row(3) == (0, 0, 0, 1, 2, 2, 0, 3, 1, 0, 1, 3, 1, 0, 0)
    # row i is x^i * g as a ring element
    for i in range(6):
        assert m.row(i) == pr.ring_mul(GF4, 15, g, pr.ring_from_plain(GF4, 15, (0,) * i + (1,)))


def test_circulant_rank_is_cyclic_code_dimension():
    # dim <g> = n - deg g even when all n shifts are stacked
    g = pr.parse_compact(GF4, "1220310131")
    m = oracles.mat_from_poly(GF4, 15, g, 15)
    assert oracles.rank(m) == 15 - pr.deg(g)


# --- ring structure of Mat ----------------------------------------------------


def test_mat_ring_identities():
    rng = random.Random(11)
    for field in (GF4, GF9):
        a = rand_mat(rng, field, 4, 5)
        b = rand_mat(rng, field, 5, 3)
        c = rand_mat(rng, field, 5, 3)
        i4 = oracles.identity(field, 4)
        assert oracles.mul(i4, a) == a
        lhs = oracles.mul(a, oracles.add(b, c))
        rhs = oracles.add(oracles.mul(a, b), oracles.mul(a, c))
        assert lhs == rhs
        # dagger is an anti-homomorphism
        dag = oracles.dagger
        assert dag(oracles.mul(a, b)) == oracles.mul(dag(b), dag(a))
        assert dag(dag(a)) == a


def test_hstack_vstack():
    a = fm.Mat(GF4, [[1, 2], [3, 0]])
    b = fm.Mat(GF4, [[0, 1], [1, 1]])
    assert oracles.hstack(a, b).rows == [[1, 2, 0, 1], [3, 0, 1, 1]]
    assert oracles.vstack(a, b).rows == [[1, 2], [3, 0], [0, 1], [1, 1]]


# --- elimination ---------------------------------------------------------------


def test_rank_extremes():
    assert oracles.rank(oracles.identity(GF9, 7)) == 7
    assert oracles.rank(oracles.zeros(GF9, 3, 5)) == 0
    assert oracles.rank(fm.Mat(GF4, [], ncols=4)) == 0


def test_rank_row_and_column_agree():
    rng = random.Random(12)
    for _ in range(50):
        m = rand_mat(rng, GF9, rng.randrange(1, 6), rng.randrange(1, 6))
        assert oracles.rank(m) == oracles.rank(oracles.transpose(m))


def test_inverse_round_trip():
    rng = random.Random(13)
    for field in (GF4, GF9):
        for n in (1, 2, 5, 8):
            m = rand_full_rank(rng, field, n, n)
            mi = oracles.inverse(m)
            assert oracles.mul(m, mi) == oracles.identity(field, n)
            assert oracles.mul(mi, m) == oracles.identity(field, n)


def test_inverse_singular_raises():
    m = fm.Mat(GF4, [[1, 2], [2, 3]])  # row2 = alpha * row1
    assert oracles.rank(m) == 1
    with pytest.raises(oracles.SingularMatrixError):
        oracles.inverse(m)


def test_nullspace_is_kernel():
    rng = random.Random(14)
    for field in (GF4, GF9):
        for _ in range(30):
            m = rand_mat(rng, field, rng.randrange(1, 5), rng.randrange(1, 7))
            ns = oracles.nullspace(m)
            assert ns.nrows == m.ncols - oracles.rank(m)
            if ns.nrows:
                assert oracles.rank(ns) == ns.nrows
                prod = oracles.mul(m, oracles.transpose(ns))
                assert oracles.is_zero(prod)


def test_row_space_contains():
    m = fm.Mat(GF4, [[1, 0, 1], [0, 1, 2]])
    assert oracles.row_space_contains(m, (1, 1, 3))  # row0 + row1
    assert not oracles.row_space_contains(m, (0, 0, 1))


# --- characteristic polynomial --------------------------------------------------


def oracle_char_poly(m):
    """Leibniz expansion of det(xI - M); exponential, fine for n <= 4."""
    f = m.field
    n = m.nrows
    total = ()
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        sign = f.one if inversions % 2 == 0 else f.neg(f.one)
        poly = (sign,)
        for i in range(n):
            e = m.rows[i][perm[i]]
            entry = (f.neg(e), 1) if i == perm[i] else (f.neg(e),)
            poly = pr.poly_mul(f, poly, entry)
        total = pr.poly_add(f, total, poly)
    return tuple(total) + (0,) * (n + 1 - len(total))


@pytest.mark.parametrize("field", [GF4, GF9])
def test_char_poly_vs_leibniz_oracle(field):
    rng = random.Random(16 + field.Q)
    for n in (1, 2, 3, 4):
        for _ in range(40):
            m = rand_mat(rng, field, n, n)
            got = fm.char_poly(m)
            want = oracle_char_poly(m)
            assert len(got) == n + 1 and got[-1] == 1
            assert got == want


def test_char_poly_identity():
    # (x - 1)^n
    for field in (GF4, GF9):
        for n in (1, 3, 6):
            got = fm.char_poly(oracles.identity(field, n))
            want = (1,)
            for _ in range(n):
                want = pr.poly_mul(field, want, (field.neg(1), 1))
            assert got == want


def test_char_poly_companion():
    # the companion matrix of a monic polynomial has it as char poly
    rng = random.Random(17)
    for field in (GF4, GF9):
        for n in (2, 4, 6):
            p = tuple(rng.randrange(field.Q) for _ in range(n)) + (1,)
            rows = [[0] * n for _ in range(n)]
            for i in range(1, n):
                rows[i][i - 1] = 1
            for i in range(n):
                rows[i][n - 1] = field.neg(p[i])
            assert fm.char_poly(fm.Mat(field, rows)) == p


def test_char_poly_similarity_invariant():
    rng = random.Random(18)
    for field in (GF4, GF9):
        for _ in range(20):
            n = rng.randrange(2, 7)
            m = rand_mat(rng, field, n, n)
            s = rand_full_rank(rng, field, n, n)
            conjugated = oracles.mul(oracles.mul(s, m), oracles.inverse(s))
            assert fm.char_poly(conjugated) == fm.char_poly(m)


# --- hull ------------------------------------------------------------------------


def test_hull_dim_random_cross_check():
    # hull_dim runs its own two-route comparison internally; this exercises it
    rng = random.Random(19)
    for field in (GF4, GF9):
        for _ in range(60):
            k = rng.randrange(1, 5)
            n = rng.randrange(k, 9)
            g = rand_full_rank(rng, field, k, n)
            h = oracles.hull_dim(g)
            assert 0 <= h <= k


def test_hull_dim_self_orthogonal_is_k():
    # <x+1> repetition-style code over GF(4) length 2: [1 1] has <v,v> = 0
    g = fm.Mat(GF4, [[1, 1]])
    assert oracles.hull_dim(g) == 1


def test_hull_dim_trivial_intersection():
    g = fm.Mat(GF4, [[1, 0]])
    # <(1,0)> has dual {(0,c)}: hull is zero
    assert oracles.hull_dim(g) == 0


def test_gram_hermitian_entries():
    g = fm.Mat(GF4, [[1, 2, 3], [0, 1, 1]])
    gram = oracles.gram_hermitian(g)
    f = GF4
    want00 = 0
    for x in (1, 2, 3):
        want00 = f.add(want00, f.mul(x, f.conj(x)))
    assert gram.rows[0][0] == want00
