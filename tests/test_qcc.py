"""Construction and extension tests pinned to worked reference codes.

The anchor data are full generator/parity-check matrices of small codes over
GF(4), GF(9) and GF(81) whose parameters were independently verified, so any
drift in circulant orientation, conjugation or extension layout fails loudly.
GF(81) digits follow the usual convention: 0 is zero and digit e+1 is zeta^e.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
from qcqec import famat, pipeline, polyring, qcc
from qcqec.errors import PreconditionError, SpecError
from qcqec.gf import field_make

GF4 = field_make(2)
GF9 = field_make(3)
GF81 = field_make(9)

# GF(4): n=15, self-orthogonal by the divisibility test, one-column extension
G15 = (1, 2, 2, 0, 3, 1, 0, 1, 3, 1)
F15 = (1, 2, 2, 2)
X15 = (1, 3, 2) * 5

EXT15_ROWS = [
    [1, 2, 2, 0, 3, 1, 0, 1, 3, 1, 0, 0, 0, 0, 0, 1, 0, 3, 2, 3, 3, 3, 2, 3, 2, 1, 3, 2, 0, 0, 0],
    [0, 1, 2, 2, 0, 3, 1, 0, 1, 3, 1, 0, 0, 0, 0, 0, 1, 0, 3, 2, 3, 3, 3, 2, 3, 2, 1, 3, 2, 0, 0],
    [0, 0, 1, 2, 2, 0, 3, 1, 0, 1, 3, 1, 0, 0, 0, 0, 0, 1, 0, 3, 2, 3, 3, 3, 2, 3, 2, 1, 3, 2, 0],
    [0, 0, 0, 1, 2, 2, 0, 3, 1, 0, 1, 3, 1, 0, 0, 2, 0, 0, 1, 0, 3, 2, 3, 3, 3, 2, 3, 2, 1, 3, 0],
    [0, 0, 0, 0, 1, 2, 2, 0, 3, 1, 0, 1, 3, 1, 0, 3, 2, 0, 0, 1, 0, 3, 2, 3, 3, 3, 2, 3, 2, 1, 0],
    [0, 0, 0, 0, 0, 1, 2, 2, 0, 3, 1, 0, 1, 3, 1, 1, 3, 2, 0, 0, 1, 0, 3, 2, 3, 3, 3, 2, 3, 2, 0],
    [1, 3, 2, 1, 3, 2, 1, 3, 2, 1, 3, 2, 1, 3, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
]

# GF(9): n=10, two-column extension
G10 = (5, 3, 1, 0, 5, 7, 1)
F10 = (1, 5, 2, 1)
X10A = (1, 1, 8, 2, 1, 2, 2, 6, 0, 1)
X10B = (1, 7, 3, 8, 5, 7, 7, 0, 3, 2)

EXT10_ROWS = [
    [5, 3, 1, 0, 5, 7, 1, 0, 0, 0, 5, 8, 2, 7, 6, 4, 5, 2, 5, 1, 0, 0],
    [0, 5, 3, 1, 0, 5, 7, 1, 0, 0, 1, 5, 8, 2, 7, 6, 4, 5, 2, 5, 0, 0],
    [0, 0, 5, 3, 1, 0, 5, 7, 1, 0, 5, 1, 5, 8, 2, 7, 6, 4, 5, 2, 0, 0],
    [0, 0, 0, 5, 3, 1, 0, 5, 7, 1, 2, 5, 1, 5, 8, 2, 7, 6, 4, 5, 0, 0],
    [1, 1, 8, 2, 1, 2, 2, 6, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 7, 3, 8, 5, 7, 7, 0, 3, 2, 0, 1],
]

# GF(4): n=7 and n=11, entanglement certificate codes
G7 = (1, 1)
F7 = (0, 3, 2, 3, 2, 1)
G11 = (1, 2, 2, 0, 3, 3, 1)
F11 = (0, 1, 3, 2, 1)

# GF(81): n=10, certificate base plus rank-preserving two-column extension
G81 = (49, 45, 11, 37, 53, 59, 45, 1)
F81 = (1, 3, 15)
X81A = (45, 72, 57, 23, 53, 74, 34, 59, 59, 34)
X81B = (19, 42, 41, 11, 18, 32, 72, 62, 67, 76)


def build15():
    return qcc.build(GF4, 15, F15, G15)


def build10():
    return qcc.build(GF9, 10, F10, G10)


def build81():
    return qcc.build(GF81, 10, F81, G81)


def test_build_gf4_n15():
    code = build15()
    assert code.k == 6
    assert code.length == 30
    assert code.orthogonal_divisibility
    assert code.orthogonal_gram
    assert oracles.is_zero(oracles.gram_hermitian(code.G))
    # left block is the circulant of g, right block the circulant of f*g
    assert code.G.row(0)[:15] == G15 + (0,) * 5
    assert code.G.row(0)[15:] == (1, 0, 3, 2, 3, 3, 3, 2, 3, 2, 1, 3, 2, 0, 0)
    assert code.G.row(3)[15:] == polyring.cyclic_shift(code.G.row(0)[15:], 3)
    assert code.G is code.G


def test_extend_one_gf4_n15_matches_reference():
    ext = qcc.extend_one(build15(), X15)
    assert ext.rule == qcc.RULE_ORTHOGONAL
    assert ext.length == 31 and ext.dim == 7
    assert ext.G == famat.Mat(GF4, EXT15_ROWS)
    assert ext.G is ext.G
    assert oracles.is_zero(oracles.gram_hermitian(ext.G))
    assert qcc.hermitian_self_product(GF4, ext.xs[0]) == 1


def test_extend_two_gf9_n10_matches_reference():
    code = build10()
    assert code.orthogonal_divisibility and code.orthogonal_gram
    ext = qcc.extend_two(code, X10A, X10B)
    assert ext.rule == qcc.RULE_ORTHOGONAL
    assert ext.length == 22 and ext.dim == 6
    assert ext.G == famat.Mat(GF9, EXT10_ROWS)
    # <x,x> = 2 in the prime subfield for both extension vectors
    assert [qcc.hermitian_self_product(GF9, x) for x in ext.xs] == [GF9.neg(GF9.one)] * 2


def test_parity_check_gf4_n7():
    code = qcc.build(GF4, 7, F7, G7)
    assert code.dual_g == (1,) * 7
    H1, H2, H = oracles.parity_check(GF4, 7, code.dual_g, code.f)
    assert H1 == famat.Mat(GF4, [[1] * 7])
    assert H2 == oracles.circulant(GF4, (0, 0, 1, 3, 2, 3, 2), 7)
    assert H.nrows == 8 and H.ncols == 14
    assert oracles.is_zero(oracles.mul(code.G, oracles.dagger(H)))
    assert code.f_coprime


def test_certificate_gf4_n7():
    cert = qcc.entanglement_certificate(qcc.build(GF4, 7, F7, G7))
    assert cert.h1_gram_nonsingular
    assert cert.one_not_eigenvalue
    assert cert.satisfied
    assert cert.p_row == (0, 0, 2, 3, 2, 3, 0)
    assert cert.char_poly_p == (0, 1, 0, 0, 1, 0, 0, 1)  # x^7 + x^4 + x


def test_parity_check_gf4_n11():
    code = qcc.build(GF4, 11, F11, G11)
    assert code.dual_g == (1, 2, 1, 1, 3, 1)
    _, H2, _ = oracles.parity_check(GF4, 11, code.dual_g, code.f)
    assert H2.row(0) == (0,) * 7 + (1, 3, 2, 1)
    assert qcc.entanglement_certificate(code).satisfied


def test_build_gf81_n10():
    code = build81()
    assert code.k == 3
    assert code.dual_g == (1, 37, 13, 9)
    H1, H2, _ = oracles.parity_check(GF81, 10, code.dual_g, code.f)
    assert H1.row(0) == (1, 37, 13, 9) + (0,) * 6
    assert H2 == oracles.circulant(GF81, (41, 0, 0, 0, 0, 0, 0, 0, 7, 59), 10)
    assert code.G.row(0) == (49, 45, 11, 37, 53, 59, 45, 1, 0, 0) + (49, 59, 19, 16, 37, 57, 25, 24, 66, 15)
    assert code.G.row(1)[10:] == (15, 49, 59, 19, 16, 37, 57, 25, 24, 66)
    assert not code.orthogonal_gram


def test_certificate_gf81_n10():
    cert = qcc.entanglement_certificate(build81())
    assert cert.satisfied
    assert cert.p_row == (61, 20, 1, 29, 42, 0, 50, 13, 1, 12)
    # zeta-power factorization: x (x+z^10)(x+z^30)(x+z^50)(x+z^70)(x+z^60)^2(x+z^20)^3
    want = (0, 1)
    for const in (11, 31, 51, 71, 61, 61, 21, 21, 21):
        want = polyring.poly_mul(GF81, want, (const, 1))
    assert cert.char_poly_p == want
    assert oracles.poly_eval(GF81, want, 1) != 0


def test_extend_two_gf81_rank_rule():
    code = build81()
    ext = qcc.extend_two(code, X81A, X81B)
    assert ext.rule == qcc.RULE_GRAM_RANK
    assert [qcc.hermitian_self_product(GF81, x) for x in ext.xs] == [61, 51]
    assert ext.gram_rank == 5
    assert ext.length == 22 and ext.dim == 5
    assert ext.G.row(3) == X81A + (0,) * 10 + (1, 0)
    assert ext.G.row(4) == (0,) * 10 + X81B + (0, 1)


def test_double_shift_closure():
    for code in (build15(), build10(), build81()):
        for i in range(code.k):
            shifted = oracles.double_shift(code.G.row(i))
            assert oracles.row_space_contains(code.G, shifted)


def test_block_code_generators():
    code = build15()
    # the block code of side 1 is <g>: its dual is generated by dual_gen(g)
    # and has dimension deg g
    left = (polyring.ring_from_plain(GF4, 15, polyring.dual_gen(GF4, 15, G15)), polyring.deg(G15))
    assert qcc.block_dual(code, 1) == left
    # f coprime to x^n - 1 leaves the right block code equal to <g>
    assert code.f_coprime
    assert qcc.block_dual(code, 2) == left
    assert oracles.rank(oracles.generator_blocks(GF4, 15, code.f, G15)[1]) == code.k

    zero_f = qcc.build(GF4, 15, (0,), G15)
    assert not any(any(row[15:]) for row in zero_f.G.rows)
    assert not zero_f.f_coprime
    assert oracles.mat_from_poly(GF4, 15, *qcc.block_dual(zero_f, 2)) == oracles.identity(GF4, 15)
    with pytest.raises(ValueError):
        qcc.block_dual(code, 3)


def test_g_must_divide():
    with pytest.raises(PreconditionError) as e:
        qcc.build(GF4, 15, F15, (0, 1))
    assert e.value.code == "g-not-divisor"


# a negative digit would index the field tables from the end, and one past
# Q out of them: the pipeline refuses both before any stage runs
@pytest.mark.parametrize("bad", [-1, 4])
@pytest.mark.parametrize("where", ["f", "g", "x1", "alpha"])
def test_evaluation_rejects_out_of_range_digits(where, bad):
    parts = {"f": F15, "g": G15, "x1": X15, "alpha": (1,)}
    digits = parts[where]
    parts[where] = digits[:2] + (bad,) + digits[3:]
    with pytest.raises(SpecError, match=f"{where} digit {bad} out of range for GF\\(4\\)"):
        pipeline.Evaluation(GF4, 15, parts["f"], parts["g"], (parts["x1"],), parts["alpha"])
    # extended() goes through the same check
    base = pipeline.Evaluation(GF4, 15, F15, G15)
    if where in ("x1", "alpha"):
        with pytest.raises(SpecError, match="out of range"):
            base.extended((parts["x1"],), parts["alpha"])


def test_extension_vector_not_in_dual():
    code = build15()
    bad = (1,) + (0,) * 14
    with pytest.raises(PreconditionError) as e:
        qcc.extend_one(code, bad)
    assert e.value.code == "not-in-dual"


def test_extension_wrong_field_size():
    # over GF(4) only the unit-alpha rule exists; g itself lies in the dual
    # but has even weight, so <g,g> = 0 != 1
    code = build15()
    with pytest.raises(PreconditionError) as e:
        qcc.extend_one(code, G15 + (0,) * 5)
    assert e.value.code == "wrong-field-size"
    with pytest.raises(PreconditionError) as e:
        qcc.extend_one(code, X15, alpha1=2)
    assert e.value.code == "wrong-field-size"


def test_extension_wrong_self_product():
    code = build10()
    scaled = tuple(GF9.mul(2, d) for d in X10A)  # norm(2) <x,x> = 2*2 = 1
    with pytest.raises(PreconditionError) as e:
        qcc.extend_one(code, scaled, alpha1=2)
    assert e.value.code == "wrong-self-product"


def test_extension_rank_rule_needs_full_gram():
    # a self-orthogonal base has zero Gram, so the rank rule cannot apply
    code = build10()
    with pytest.raises(PreconditionError) as e:
        qcc.extend_one(code, X10A, alpha1=2)
    assert e.value.code == "base-gram-rank-deficient"


def test_extension_base_not_self_orthogonal():
    code = build81()
    scaled = tuple(GF81.mul(7, d) for d in X81A)  # rescaled to <x,x> = 2
    assert qcc.hermitian_self_product(GF81, scaled) == GF81.neg(GF81.one)
    with pytest.raises(PreconditionError) as e:
        qcc.extend_one(code, scaled)
    assert e.value.code == "base-not-self-orthogonal"


def test_extension_alpha_zero_and_length():
    code = build15()
    with pytest.raises(PreconditionError) as e:
        qcc.extend_one(code, X15, alpha1=0)
    assert e.value.code == "alpha-zero"
    with pytest.raises(PreconditionError) as e:
        qcc.extend_one(code, X15[:-1])
    assert e.value.code == "bad-extension-length"


def test_find_extension_vector_gf4():
    code = build15()
    v = qcc.find_extension_vector(code, 1)
    assert v == qcc.find_extension_vector(code, 1)
    G1, _ = oracles.generator_blocks(GF4, 15, code.f, code.g)
    assert oracles.orthogonal_to_rows(v, G1)
    assert qcc.hermitian_self_product(GF4, v) == 1
    assert oracles.row_space_contains(oracles.mat_from_poly(GF4, 15, *qcc.block_dual(code, 1)), v)
    # the reference extension vector qualifies too
    assert oracles.orthogonal_to_rows(X15, G1)
    assert qcc.hermitian_self_product(GF4, X15) == 1


def test_find_extension_vector_without_a_qualifying_vector():
    # the block dual of <x^3 + x + 1> at n = 7 over GF(4) is isotropic:
    # every word has <x,x> = 0, never p - 1
    code = qcc.build(GF4, 7, (1,), (1, 1, 0, 1))
    d, r = qcc.block_dual(code, 1)
    assert oracles.is_zero(oracles.gram_hermitian(oracles.mat_from_poly(GF4, 7, d, r)))
    with pytest.raises(PreconditionError) as e:
        qcc.find_extension_vector(code, 1)
    assert e.value.code == "no-qualifying-vector"
    assert oracles.first_extension_vector(code, 1) is None


def test_find_extension_vector_extends_cleanly():
    code = build10()
    v1 = qcc.find_extension_vector(code, 1)
    v2 = qcc.find_extension_vector(code, 2)
    ext = qcc.extend_two(code, v1, v2)
    assert ext.rule == qcc.RULE_ORTHOGONAL
    assert oracles.is_zero(oracles.gram_hermitian(ext.G))


def first_nonzero_shift(code, side) -> tuple[int, int | None]:
    """(r, t0): the block dual's dimension and the least t < r at which
    d d̄ has a nonzero coefficient, None when there is none."""
    field, n = code.field, code.n
    d, r = qcc.block_dual(code, side)
    c = polyring.ring_mul(field, n, d, polyring.conj_rev(field, n, d))
    return r, next((t for t in range(r) if c[t]), None)


@pytest.mark.parametrize("build, r, t0, alphas", [
    (build81, 7, 1, (None, 1, 2)),  # the first word lies on the last two rows
    (build15, 9, 0, (None,)),       # and here on the last row
], ids=["gf81-n10", "gf4-n15"])
def test_find_extension_vector_of_a_large_dual(build, r, t0, alphas):
    # 81^7 and 4^9 messages, which no walk over the dual could afford
    code = build()
    for side in (1, 2):
        assert first_nonzero_shift(code, side) == (r, t0)
        for alpha in alphas:
            v = qcc.find_extension_vector(code, side, alpha)
            assert v == oracles.first_extension_vector(code, side, alpha)


def test_find_extension_vector_rank_rule():
    code = build81()
    v = qcc.find_extension_vector(code, 1, alpha=1)
    assert oracles.orthogonal_to_rows(v, oracles.generator_blocks(GF81, 10, code.f, code.g)[0])
    assert qcc.hermitian_self_product(GF81, v) != GF81.neg(GF81.one)


def test_find_extension_vector_rank_rule_needs_q_above_2():
    # _extend refuses every rank-rule vector over GF(4), so none is sought
    code = build15()
    for alpha in (1, 2, 3):
        with pytest.raises(PreconditionError) as e:
            qcc.find_extension_vector(code, 1, alpha)
        assert e.value.code == "wrong-field-size"
        x = oracles.first_extension_vector(code, 1, alpha)
        with pytest.raises(PreconditionError) as e:
            qcc.extend_one(code, x, alpha)
        assert e.value.code == "wrong-field-size"


WALK_GRID = [(GF4, 7, (None, 1, 3)), (GF4, 15, (None, 1, 3)), (GF4, 17, (None, 1, 3)),
             (GF4, 21, (None, 1, 3)), (GF4, 31, (None, 1, 3)),
             (GF9, 8, (None, 1, 2, 5, 8)), (GF9, 10, (None, 1, 2, 5, 8)),
             (GF9, 13, (None, 1, 2, 5, 8)), (GF81, 10, (None, 1, 2, 41, 80))]


@pytest.mark.parametrize("field,n,alphas", WALK_GRID,
                         ids=[f"gf{field.Q}-n{n}" for field, n, _ in WALK_GRID])
def test_find_extension_vector_matches_the_product_walk(field, n, alphas):
    # a word x of the block dual with <x,x> = a != 0 has scalar multiples
    # with every self product in GF(q)^*, so the orthogonality rule finds
    # no vector iff every word is isotropic, and over q > 2 the rank rule
    # always finds one; walks of all Q^r messages stop at 4^9.  Over GF(4)
    # the rank rule is refused before any search
    rng = random.Random(field.Q * n)
    gs = oracles.proper_divisors(field, n)
    found = {True: 0, False: 0}
    for g in rng.sample(gs, min(8, len(gs))):
        for f in ([rng.randrange(field.Q) for _ in range(n)], g, (0,)):
            code = qcc.build(field, n, f, g)
            for side in (1, 2):
                d, r = qcc.block_dual(code, side)
                basis = oracles.mat_from_poly(field, n, d, r)
                isotropic = oracles.is_zero(oracles.gram_hermitian(basis))
                for alpha in alphas:
                    if field.q == 2 and alpha is not None:
                        with pytest.raises(PreconditionError) as e:
                            qcc.find_extension_vector(code, side, alpha)
                        assert e.value.code == "wrong-field-size"
                        continue
                    try:
                        got = qcc.find_extension_vector(code, side, alpha)
                    except PreconditionError as exc:
                        assert exc.code == "no-qualifying-vector"
                        got = None
                    assert (got is None) == (isotropic and alpha is None)
                    if got is not None or field.Q ** r <= 4 ** 9:
                        assert got == oracles.first_extension_vector(code, side, alpha)
                    found[got is not None] += 1
    assert found[True]


def test_certificate_needs_coprime_f():
    code = qcc.build(GF4, 15, (1, 1), G15)
    assert not code.f_coprime
    with pytest.raises(PreconditionError) as e:
        qcc.entanglement_certificate(code)
    assert e.value.code == "f-not-coprime"


def test_certificate_singular_h1_gram():
    # a self-orthogonal left block makes H1 H1^dag rank deficient
    cert = qcc.entanglement_certificate(qcc.build(GF4, 15, (1,), G15))
    assert not cert.h1_gram_nonsingular
    assert not cert.satisfied
    assert cert.p_row is None and cert.char_poly_p is None


# --- the per-generator cache ---------------------------------------------------


@pytest.mark.parametrize("field,n", [(GF4, 15), (GF9, 10), (GF81, 10)])
def test_cached_build_and_certificate_match_reference(field, n):
    # two rounds over more generators than the cache holds, two f per
    # generator in a row: hits, misses and evictions all occur
    rng = random.Random(field.Q + n)
    gs = rng.sample(oracles.proper_divisors(field, n), 10)
    satisfied = 0
    for _ in range(2):
        for g in gs:
            for i in range(2):
                f = [rng.randrange(field.Q) for _ in range(n)]
                if i:
                    f[0] = 0  # often a multiple of x - 1, so not coprime
                _, cert = oracles.check_code(field, n, f, g)
                satisfied += bool(cert and cert.satisfied)
    assert satisfied


def test_cached_matrices_do_not_leak():
    # writing into the matrices a code or a certificate hands out must not
    # reach the cache behind the next code built from the same g
    for _ in range(2):
        code, cert = oracles.check_code(GF4, 7, F7, G7)
        assert cert.satisfied
        for row in code.G.rows:
            row[:] = [1] * len(row)


def test_left_parity_check_is_caught_under_optimize():
    # python -O strips assert statements; the cached left-block check must
    # still run and raise when H1 is wrong
    program = """
from qcqec import polyring, qcc
from qcqec.gf import field_make

assert False, "assert statements are live"
polyring.dual_gen = lambda field, n, g: (1,)
qcc._generator_blocks.cache_clear()
try:
    qcc.build(field_make(2), 7, (0, 3, 2, 3, 2, 1), (1, 1))
except AssertionError as exc:
    print("caught:", exc)
"""
    src_dir = str(Path(qcc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src_dir)
    done = subprocess.run([sys.executable, "-O", "-c", program], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "caught: parity check violated on left block\n"
