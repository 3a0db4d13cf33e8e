"""Polynomial layer tests: compact notation, ring ops, duals, factorization.

The worked generator polynomials used throughout the test suite double as a
smoke test of the field convention: they only divide x^n - 1 if the digit
encoding agrees with the one the reference parameters were computed under.
"""

import math
import random

import numpy as np
import pytest

import oracles
from qcqec.errors import PreconditionError, SpecError
from qcqec.gf import field_make
from qcqec import polyring as pr

GF4 = field_make(2)
GF9 = field_make(3)
GF81 = field_make(9)


def rand_poly(rng, field, max_deg):
    return pr.trim([rng.randrange(field.Q) for _ in range(max_deg + 1)])


# --- compact notation ------------------------------------------------------


def test_parse_compact_basics():
    assert pr.parse_compact(GF4, "101^3") == (1, 0, 1, 1, 1)
    assert pr.parse_compact(GF4, "(13)^23^21") == (1, 3, 1, 3, 3, 3, 1)
    assert pr.parse_compact(GF4, "1^30^21^3") == (1, 1, 1, 0, 0, 1, 1, 1)
    assert pr.parse_compact(GF4, "12") == (1, 2)
    assert pr.parse_compact(GF4, "1^{12}212") == (1,) * 12 + (2, 1, 2)
    # adjacent exponent binds to the single preceding digit
    assert pr.parse_compact(GF4, "0^33") == (0, 0, 0, 3)


def test_parse_compact_padding():
    assert pr.parse_compact(GF4, "12", n=5) == (1, 2, 0, 0, 0)
    with pytest.raises(SpecError):
        pr.parse_compact(GF4, "1^6", n=5)


def test_parse_compact_nested_groups():
    assert pr.parse_compact(GF4, "((12)^20)^2") == (1, 2, 1, 2, 0) * 2


def test_parse_compact_rejects_junk():
    for bad in ["1(2", "12)", "^3", "1^", "1^{2", "1x2", "()", "1^0", "1^{0}"]:
        with pytest.raises(SpecError):
            pr.parse_compact(GF4, bad)
    with pytest.raises(SpecError):
        pr.parse_compact(GF4, "14")  # digit out of range for GF(4)
    with pytest.raises(SpecError):
        pr.parse_compact(GF9, "19")


def test_parse_digit_list_gf81():
    assert pr.parse_compact(GF81, "49,45,11,37,53,59,45,1") == (
        49, 45, 11, 37, 53, 59, 45, 1,
    )
    assert pr.parse_compact(GF81, "z^48, z^44, 0, 1") == (49, 45, 0, 1)
    assert pr.parse_compact(GF81, "z") == (2,)
    with pytest.raises(SpecError):
        pr.parse_compact(GF81, "81,0")
    with pytest.raises(SpecError):
        pr.parse_compact(GF81, "z^81")


@pytest.mark.parametrize("field", [GF4, GF9, GF81])
def test_render_round_trip(field):
    rng = random.Random(42 + field.Q)
    for _ in range(200):
        coeffs = tuple(rng.randrange(field.Q) for _ in range(rng.randrange(1, 30)))
        text = pr.render_compact(field, coeffs)
        assert pr.parse_compact(field, text) == coeffs


def test_render_uses_braces_for_long_runs():
    text = pr.render_compact(GF4, (1,) * 12 + (2,))
    assert text == "1^{12}2"
    assert pr.parse_compact(GF4, text) == (1,) * 12 + (2,)


# --- plain polynomial arithmetic -------------------------------------------


def test_divmod_reconstructs():
    rng = random.Random(5)
    for field in (GF4, GF9):
        for _ in range(200):
            a = rand_poly(rng, field, 12)
            b = rand_poly(rng, field, 6)
            if not b:
                continue
            q, r = pr.poly_divmod(field, a, b)
            assert pr.deg(r) < pr.deg(b) or not r
            back = pr.poly_add(field, pr.poly_mul(field, q, b), r)
            assert back == pr.trim(a)


def test_gcd_properties():
    rng = random.Random(6)
    for field in (GF4, GF9):
        for _ in range(100):
            a = rand_poly(rng, field, 8)
            b = rand_poly(rng, field, 8)
            g = pr.poly_gcd(field, a, b)
            if not a and not b:
                assert g == ()
                continue
            assert g[-1] == 1  # monic
            if a:
                assert pr.divides(field, g, a)
            if b:
                assert pr.divides(field, g, b)
            # any common divisor divides the gcd: check with b's factor
            c = rand_poly(rng, field, 3)
            if c:
                g2 = pr.poly_gcd(
                    field, pr.poly_mul(field, a, c), pr.poly_mul(field, b, c)
                )
                assert pr.divides(field, pr.monic(field, c), g2)


def test_gcd_known():
    # over GF(4): x^2 + 1 = (x + 1)^2
    assert pr.poly_gcd(GF4, (1, 0, 1), (1, 1)) == (1, 1)
    assert pr.poly_gcd(GF4, (1, 1, 1), (1, 1)) == (1,)


# --- ring vectors -----------------------------------------------------------


def test_ring_mul_reduces_mod_xn_minus_1():
    # x^6 * x^2 = x^8 = x mod x^7 - 1
    n = 7
    a = pr.ring_from_plain(GF4, n, (0, 0, 0, 0, 0, 0, 1))
    b = pr.ring_from_plain(GF4, n, (0, 0, 1))
    assert pr.ring_mul(GF4, n, a, b) == (0, 1, 0, 0, 0, 0, 0)


def _gf4_operands(rng, n):
    """Pairs of GF(4) factors for ring_mul at length n: random ones of
    equal and of unequal lengths, zero and constant ones, ones with n + 1
    coefficients (x^n - 1 among them) and ones with more than 2n."""
    def rand(length):
        return tuple(rng.randrange(4) for _ in range(length))

    xn1 = pr.x_pow_n_minus_1(GF4, n)
    return [
        (rand(n), rand(n)),
        (rand(n), rand(rng.randrange(1, n + 1))),
        (rand(rng.randrange(1, n + 1)), rand(n)),
        ((), rand(n)), ((0,) * n, rand(n)), (rand(n), (0,)),
        ((1,), rand(n)), (rand(n), (3,)), ((2,), (3,)),
        (rand(n + 1), rand(n + 1)), (xn1, rand(n)), (rand(n), xn1),
        (rand(2 * n + 3), rand(3)),
    ]


@pytest.mark.parametrize("n", [1, 2, 7, 15, 63, 127, 255, 256, 300])
def test_gf4_product_matches_table_loop(n):
    # the integer product over GF(4) against the schoolbook table loop,
    # in the ring and as plain polynomials
    rng = random.Random(n)
    for a, b in _gf4_operands(rng, n):
        plain = pr._poly_mul_table(GF4, a, b)
        assert pr.poly_mul(GF4, a, b) == plain
        assert pr.ring_mul(GF4, n, a, b) == pr.ring_from_plain(GF4, n, plain)


@pytest.mark.parametrize("terms", [254, 255, 256])
def test_gf4_product_at_the_slot_bound(terms):
    # a slot of the integer product counts up to min(len a, len b) ones:
    # 255 fit in a byte, 256 must take the table loop.  With every digit
    # 1 or 3 the plane products count the most ones.
    rng = random.Random(terms)
    odd = tuple(rng.choice((1, 3)) for _ in range(terms + 40))
    for a, b in (((1,) * terms, (1,) * terms), ((3,) * terms, (3,) * (terms + 7)),
                 (odd[:terms], odd[::-1]), (odd, odd[:terms])):
        plain = pr._poly_mul_table(GF4, a, b)
        assert pr.poly_mul(GF4, a, b) == plain
        for n in (terms - 1, terms, 2 * terms):
            assert pr.ring_mul(GF4, n, a, b) == pr.ring_from_plain(GF4, n, plain)


def test_cyclic_shift():
    v = (1, 2, 3, 0, 0)
    assert pr.cyclic_shift(v, 1) == (0, 1, 2, 3, 0)
    assert pr.cyclic_shift(v, 5) == v
    n = 5
    assert pr.cyclic_shift(v, 2) == pr.ring_mul(GF4, n, v, (0, 0, 1))


def test_bar_reversal():
    f = (0, 3, 2, 3, 2, 1, 0)  # 3x + 2x^2 + 3x^3 + 2x^4 + x^5, n = 7
    assert pr.bar(f) == (0, 0, 1, 2, 3, 2, 3)
    assert pr.bar(pr.bar(f)) == f


def test_bar_is_multiplicative():
    rng = random.Random(8)
    n = 9
    for _ in range(100):
        a = tuple(rng.randrange(4) for _ in range(n))
        b = tuple(rng.randrange(4) for _ in range(n))
        lhs = pr.bar(pr.ring_mul(GF4, n, a, b))
        rhs = pr.ring_mul(GF4, n, pr.bar(a), pr.bar(b))
        assert lhs == rhs


def test_frob_poly():
    f = (0, 0, 1, 2, 3, 2, 3)
    assert pr.frob_poly(GF4, f) == (0, 0, 1, 3, 2, 3, 2)
    rng = random.Random(9)
    n = 8
    for _ in range(50):
        a = tuple(rng.randrange(9) for _ in range(n))
        b = tuple(rng.randrange(9) for _ in range(n))
        assert pr.frob_poly(GF9, pr.ring_mul(GF9, n, a, b)) == pr.ring_mul(
            GF9, n, pr.frob_poly(GF9, a), pr.frob_poly(GF9, b)
        )


# --- reference generator polynomials (field-convention anchors) ------------


REFERENCE_DIVISORS = [
    (GF4, 15, pr.parse_compact(GF4, "1220310131")),   # quasi-cyclic seed, n=15
    (GF4, 7, (1, 1)),                                  # x + 1
    (GF4, 11, pr.parse_compact(GF4, "1220331")),
    (GF9, 10, pr.parse_compact(GF9, "5310571")),
    (GF81, 10, (49, 45, 11, 37, 53, 59, 45, 1)),
    (
        GF4,
        51,
        (2, 2, 2, 1, 0, 2, 0, 0, 0, 3, 1, 1, 2, 2, 0, 3, 0, 2, 3, 0, 2, 0,
         2, 1, 2, 1, 2, 0, 0, 0, 3, 0, 3, 3, 2, 1),
    ),
]


@pytest.mark.parametrize("field,n,g", REFERENCE_DIVISORS)
def test_reference_generators_divide(field, n, g):
    assert pr.divides(field, g, pr.x_pow_n_minus_1(field, n))


def test_dual_gen_all_ones():
    # <x + 1> in length 7 over GF(4): dual generated by 1 + x + ... + x^6
    assert pr.dual_gen(GF4, 7, (1, 1)) == (1,) * 7


def test_dual_gen_gf81_reference():
    g = (49, 45, 11, 37, 53, 59, 45, 1)
    # 1 + z^36 x + z^12 x^2 + z^8 x^3, the non-monic reciprocal normalization
    assert pr.dual_gen(GF81, 10, g) == (1, 37, 13, 9)


@pytest.mark.parametrize("field,n,g", REFERENCE_DIVISORS)
def test_dual_gen_properties(field, n, g):
    d = pr.dual_gen(field, n, g)
    assert pr.deg(d) == n - pr.deg(g)
    assert pr.divides(field, d, pr.x_pow_n_minus_1(field, n))
    if g[-1] == 1:
        assert d[0] == 1


def test_dual_gen_rejects_non_divisor():
    with pytest.raises(PreconditionError) as exc:
        pr.dual_gen(GF4, 7, (1, 2))
    assert exc.value.code == "g-not-divisor"


def test_dual_gen_involution_up_to_units():
    # dualizing twice returns <g> itself, so the monic forms agree
    for field, n, g in REFERENCE_DIVISORS:
        dd = pr.dual_gen(field, n, pr.dual_gen(field, n, g))
        assert pr.monic(field, dd) == pr.monic(field, g)


# --- factorization ----------------------------------------------------------


def oracle_irreducible_over(field, f):
    """Trial division by all monic polynomials of degree <= deg(f)/2."""
    d = pr.deg(f)
    for dd in range(1, d // 2 + 1):
        for idx in range(field.Q ** dd):
            cand = []
            t = idx
            for _ in range(dd):
                cand.append(t % field.Q)
                t //= field.Q
            cand.append(1)
            if pr.divides(field, tuple(cand), f):
                return False
    return True


def test_cyclotomic_cosets_partition():
    for Q, n in [(4, 7), (4, 15), (9, 10), (9, 8), (4, 23)]:
        cosets = pr.cyclotomic_cosets(Q, n)
        flat = sorted(s for c in cosets for s in c)
        assert flat == list(range(n))
        for c in cosets:
            assert all(s * Q % n in c for s in c)


@pytest.mark.parametrize(
    "field,n,expected_degrees",
    [
        (GF4, 7, [1, 3, 3]),
        (GF4, 15, [1, 1, 1, 2, 2, 2, 2, 2, 2]),
        (GF4, 1, [1]),
        (GF9, 10, [1, 1, 2, 2, 2, 2]),
        (GF9, 8, [1] * 8),
        (GF4, 11, [1, 5, 5]),
        (GF81, 10, [1] * 10),
    ],
)
def test_factor_degrees_match_cosets(field, n, expected_degrees):
    factors = pr.factor_xn_minus_1(field, n)
    degrees = sorted(pr.deg(f) for f in factors)
    assert degrees == sorted(expected_degrees)
    # coset sizes are an independent oracle for the degrees
    coset_sizes = sorted(len(c) for c in pr.cyclotomic_cosets(field.Q, n))
    assert degrees == coset_sizes


@pytest.mark.parametrize("field,n", [(GF4, 7), (GF4, 15), (GF9, 10), (GF4, 23)])
def test_factors_are_monic_irreducible_and_multiply_back(field, n):
    factors = pr.factor_xn_minus_1(field, n)
    prod = (1,)
    for f in factors:
        assert f[-1] == 1
        assert oracle_irreducible_over(field, f) or pr.deg(f) > 6
        prod = pr.poly_mul(field, prod, f)
    assert prod == pr.x_pow_n_minus_1(field, n)


def test_factor_large_order_extension():
    # n = 23 over GF(4): x - 1 and two irreducible factors of degree 11;
    # each nonconstant coset sum is 1 on x - 1 and on one of the others, so
    # it takes both of them to separate all three
    factors = pr.factor_xn_minus_1(GF4, 23)
    assert sorted(pr.deg(f) for f in factors) == [1, 11, 11]


FACTOR_GRID = [
    (field, n)
    for field in (GF4, GF9, GF81)
    for n in range(1, 65)
    if math.gcd(n, field.p) == 1
] + [(GF81, 127)]


@pytest.mark.parametrize(
    "field,n", FACTOR_GRID, ids=[f"Q{f.Q}-n{n}" for f, n in FACTOR_GRID]
)
def test_factorization_is_complete(field, n):
    # x^n - 1 has exactly one monic irreducible factor per Q-cyclotomic
    # coset, of the coset's size, so monic factors with those degrees whose
    # product is x^n - 1 are the complete factorization into irreducibles
    factors = pr.factor_xn_minus_1(field, n)
    assert all(f[-1] == 1 for f in factors)
    coset_sizes = sorted(len(c) for c in pr.cyclotomic_cosets(field.Q, n))
    assert sorted(pr.deg(f) for f in factors) == coset_sizes
    prod = (1,)
    for f in factors:
        prod = pr.poly_mul(field, prod, f)
    assert prod == pr.x_pow_n_minus_1(field, n)


def test_factor_rejects_p_dividing_n():
    with pytest.raises(PreconditionError) as exc:
        pr.factor_xn_minus_1(GF4, 6)
    assert exc.value.code == "p-divides-n"
    with pytest.raises(PreconditionError):
        pr.factor_xn_minus_1(GF9, 9)


def test_reference_generators_are_products_of_factors():
    # every reference g must be a subset product of the irreducible factors
    for field, n, g in REFERENCE_DIVISORS[:5]:
        factors = pr.factor_xn_minus_1(field, n)
        rem = pr.monic(field, g)
        for f in factors:
            while pr.deg(rem) >= 1 and pr.divides(field, f, rem):
                rem = oracles.quotient_exact(field, rem, f)
        assert pr.deg(rem) == 0


# --- powers, orders and primitive elements modulo a factor ----------------


@pytest.mark.parametrize("field", [GF4, GF9, GF81])
def test_poly_powmod_is_repeated_multiplication(field):
    rng = random.Random(field.Q)
    for _ in range(10):
        m = pr.monic(field, rand_poly(rng, field, 5) + (1,))
        a = rand_poly(rng, field, 7)
        acc = pr.poly_mod(field, (field.one,), m)
        for e in range(12):
            assert pr.poly_powmod(field, a, e, m) == acc
            acc = pr.poly_mod(field, pr.poly_mul(field, acc, a), m)


def test_prime_factors():
    for N in list(range(1, 300)) + [4 ** 18 - 1, 9 ** 11 - 1, 2 ** 31 - 1]:
        primes = pr.prime_factors(N)
        assert list(primes) == sorted(set(primes))
        rest = N
        for p in primes:
            assert all(p % d for d in range(2, math.isqrt(p) + 1))
            while rest % p == 0:
                rest //= p
        assert rest == 1, N


def powers_of(field, a, m):
    """a^0, a^1, ... modulo m until the first repeat of 1."""
    out, r = [pr.poly_mod(field, (field.one,), m)], pr.poly_mod(field, a, m)
    while r != out[0]:
        out.append(r)
        r = pr.poly_mod(field, pr.poly_mul(field, r, a), m)
    return out


@pytest.mark.parametrize("field,n", [(GF4, 5), (GF4, 9), (GF4, 21), (GF9, 8), (GF9, 13),
                                     (GF81, 11), (GF81, 16)])
def test_x_order_and_primitive_element_by_brute_force(field, n):
    for m in pr.factor_xn_minus_1(field, n):
        d = pr.deg(m)
        assert pr.x_order(field, m, n) == len(powers_of(field, (0, 1), m))
        if field.Q ** d <= 6561:
            gamma = pr.primitive_element(field, m)
            assert len(gamma) <= d
            assert len(set(powers_of(field, gamma, m))) == field.Q ** d - 1


# --- characteristic polynomial of a circulant -------------------------------


@pytest.mark.parametrize("field", [GF4, GF9, GF81], ids=["Q4", "Q9", "Q81"])
def test_circulant_char_poly_matches_hessenberg(field):
    # every n from 1 to 21, the multiples of p among them (x^n - 1 then has
    # repeated factors): the zero vector, x (circ(x) has char poly
    # lambda^n - 1) and three seeded draws, against the matrix route
    rng = random.Random(field.Q + 1)
    for n in range(1, 22):
        x = pr.ring_from_plain(field, n, (0, 1))
        draws = [(0,) * n, x] + [tuple(rng.randrange(field.Q) for _ in range(n))
                                 for _ in range(3)]
        for a in draws:
            got = pr.circulant_char_poly(field, a)
            assert len(got) == n + 1 and got[-1] == field.one, (n, a)
            assert got == oracles.char_poly(oracles.circulant(field, a, n)), (n, a)
        assert pr.circulant_char_poly(field, draws[0]) == (0,) * n + (1,)
        assert pr.circulant_char_poly(field, x) == pr.x_pow_n_minus_1(field, n)


# --- units mod x^n - 1 -----------------------------------------------------


def unit_by_euclid(field, n, f):
    return pr.poly_gcd(field, f, pr.x_pow_n_minus_1(field, n)) == (1,)


def test_is_unit_exhaustive_gf4_n7():
    units = 0
    for code in range(4 ** 7):
        f = [code >> 2 * i & 3 for i in range(7)]
        got = pr.is_unit(GF4, 7, f)
        assert got == unit_by_euclid(GF4, 7, f), f
        units += got
    # x^7 - 1 = (x - 1) p(x) q(x) with p, q of degree 3 over GF(4)
    assert units == 3 * 63 * 63


# factor degrees (for the p | n cases, those of the p-free part of n)
UNIT_GRID = [
    (GF4, 15),   # 1, 1, 1, 2 x 6
    (GF4, 23),   # 1, 11, 11
    (GF4, 14),   # 2 | n: (x^7 - 1)^2
    (GF9, 11),   # 1, 5, 5
    (GF9, 12),   # 3 | n: (x^4 - 1)^3
    (GF81, 10),  # ten linear factors
    (GF81, 11),  # 1, 5, 5
    (GF81, 6),   # 3 | n: (x^2 - 1)^3
]


# long lengths, with many factors and planes hundreds of bits wide; Euclid
# is slow there, so these draw fewer samples
LONG_UNIT_GRID = [
    (GF4, 63),   # 1, 1, 1, 3 x 20
    (GF4, 127),  # 1, 7 x 18
    (GF9, 35),   # 1, 2, 2, 3, 3, 6 x 4
    (GF9, 41),   # 1, 4 x 10
    (GF81, 22),  # 1, 1, 5 x 4
]


@pytest.mark.parametrize("field,n", UNIT_GRID + LONG_UNIT_GRID,
                         ids=[f"Q{f.Q}-n{n}" for f, n in UNIT_GRID + LONG_UNIT_GRID])
def test_is_unit_matches_euclid(field, n):
    # random f, f longer than n, and non-units made as a multiple of one
    # irreducible factor, 2000 samples in all (600 past n = 32); plus f = 0
    rng = random.Random(field.Q * 1000 + n)
    core = n
    while core % field.p == 0:
        core //= field.p
    factors = pr.factor_xn_minus_1(field, core)
    outcomes = set()
    for i in range(2000 if n <= 32 else 600):
        kind = i % 3
        if kind == 0:
            f = [rng.randrange(field.Q) for _ in range(n)]
        elif kind == 1:
            f = [rng.randrange(field.Q) for _ in range(2 * n + 3)]
        else:
            f = pr.poly_mul(field, rand_poly(rng, field, n - 1), rng.choice(factors))
        got = pr.is_unit(field, n, f)
        assert got == unit_by_euclid(field, n, f), (f, n)
        outcomes.add((kind, got))
    assert {(0, True), (1, True), (2, False)} <= outcomes
    for zero in ((), (0,) * n, (0,) * (3 * n)):
        assert not pr.is_unit(field, n, zero)
    assert pr.is_unit(field, n, (1,))


@pytest.mark.parametrize("field,n", UNIT_GRID + LONG_UNIT_GRID,
                         ids=[f"Q{f.Q}-n{n}" for f, n in UNIT_GRID + LONG_UNIT_GRID])
def test_units_batch_matches_is_unit_and_euclid(field, n):
    # one batch of rows against one is_unit call and one Euclid per row:
    # full-length rows, short rows (a degree cap), multiples of one factor
    # and zero rows
    rng = random.Random(field.Q * 1000 + n + 3)
    core = n
    while core % field.p == 0:
        core //= field.p
    factors = pr.factor_xn_minus_1(field, core)
    for width in sorted({n, min(n, 4), 1}):
        rows = [[rng.randrange(field.Q) for _ in range(width)] for _ in range(60)]
        for fac in factors:
            if len(fac) <= width:
                row = pr.poly_mul(field, rand_poly(rng, field, width - len(fac)), fac)
                rows.append(list(row) + [0] * (width - len(row)))
        rows.append([0] * width)
        got = pr.units(field, n, np.array(rows, dtype=np.uint8)).tolist()
        assert got == [pr.is_unit(field, n, row) for row in rows]
        assert got == [unit_by_euclid(field, n, row) for row in rows], width
        assert True in got and False in got
    assert pr.units(field, n, np.zeros((0, n), dtype=np.uint8)).tolist() == []


@pytest.mark.parametrize("field,n", UNIT_GRID, ids=[f"Q{f.Q}-n{n}" for f, n in UNIT_GRID])
def test_unit_density_is_the_share_of_units(field, n):
    rng = random.Random(field.Q * 1000 + n + 4)
    rows = np.array([[rng.randrange(field.Q) for _ in range(n)] for _ in range(4000)])
    share = pr.units(field, n, rows).mean()
    assert abs(share - pr.unit_density(field, n)) < 0.04


@pytest.mark.parametrize("field,n", UNIT_GRID, ids=[f"Q{f.Q}-n{n}" for f, n in UNIT_GRID])
def test_ring_inv(field, n):
    # a unit times its inverse is 1 mod x^n - 1; a non-unit is refused
    rng = random.Random(field.Q * 1000 + n + 1)
    one = (1,) + (0,) * (n - 1)
    inverted = refused = 0
    for _ in range(200):
        f = [rng.randrange(field.Q) for _ in range(n + rng.randrange(3))]
        if pr.is_unit(field, n, f):
            assert pr.ring_mul(field, n, f, pr.ring_inv(field, n, f)) == one, f
            inverted += 1
        else:
            with pytest.raises(PreconditionError):
                pr.ring_inv(field, n, f)
            refused += 1
    assert inverted and refused


@pytest.mark.parametrize("field,n", UNIT_GRID, ids=[f"Q{f.Q}-n{n}" for f, n in UNIT_GRID])
def test_ring_inv_modulo_a_divisor(field, n):
    # modulo a divisor m of x^n - 1, a times its inverse is 1 mod m exactly
    # when gcd(a, m) = 1, and the inverse has degree below deg m
    rng = random.Random(field.Q * 1000 + n + 2)
    inverted = refused = 0
    for m in rng.sample(oracles.proper_divisors(field, n), 6):
        for _ in range(20):
            a = [rng.randrange(field.Q) for _ in range(n)]
            if pr.poly_gcd(field, a, m) == (1,):
                inv = pr.ring_inv(field, n, a, m)
                assert len(inv) == n and pr.deg(inv) < pr.deg(m)
                assert pr.poly_mod(field, pr.poly_mul(field, a, inv), m) == (1,)
                inverted += 1
            else:
                with pytest.raises(PreconditionError):
                    pr.ring_inv(field, n, a, m)
                refused += 1
    assert inverted and refused


def test_is_unit_rejects_bad_length():
    for n in (0, -3):
        with pytest.raises(SpecError):
            pr.is_unit(GF4, n, (1,))
