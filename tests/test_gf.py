"""Field arithmetic tests.

The construction itself is cross-checked against small brute-force oracles
written independently here (irreducibility by trial division, addition via
explicit polynomial vectors), then the algebraic identities are exercised
exhaustively for every supported field.
"""

import math
import random

import pytest

import oracles
from qcqec.errors import SpecError
from qcqec.gf import Field, field_make

ALL_Q = [2, 3, 9]


# --- oracle helpers (kept deliberately naive) ---------------------------


def oracle_poly_mod(a, b, p):
    """Remainder of a by b over GF(p), dense ascending coefficient lists."""
    a = list(a)
    while len(a) >= len(b):
        if a[-1] == 0:
            a.pop()
            continue
        c = a[-1] * pow(b[-1], -1, p) % p
        off = len(a) - len(b)
        for i, bc in enumerate(b):
            a[off + i] = (a[off + i] - c * bc) % p
        a.pop()
    return a


def oracle_irreducible(f, p):
    deg = len(f) - 1
    for d in range(1, deg // 2 + 1):
        for idx in range(p ** (d + 1)):
            cand = []
            t = idx
            for _ in range(d + 1):
                cand.append(t % p)
                t //= p
            if cand[-1] == 0:
                continue
            r = oracle_poly_mod(f, cand, p)
            if not any(r):
                return False
    return True


# --- construction -------------------------------------------------------


def test_moduli_are_irreducible_by_trial_division():
    for q in ALL_Q:
        f = field_make(q)
        assert oracle_irreducible(list(f.modulus), f.p), (q, f.modulus)


def test_field_sizes_and_subfield():
    for q in ALL_Q:
        f = field_make(q)
        assert f.Q == q * q
        assert f.q == q
        # conj fixes exactly the subfield GF(q)
        fixed = [d for d in f.digits if f.conj(d) == d]
        assert len(fixed) == q


def test_unsupported_q_rejected():
    for q in (4, 5, 27, 0, 1):
        with pytest.raises(SpecError):
            field_make(q)


def test_reducible_modulus_rejected():
    # the primitivity loop alone refuses these: it proves the residues a field
    for p, modulus in [
        (2, (1, 0, 1)),        # x^2 + 1 = (x + 1)^2
        (2, (0, 1, 1)),        # x^2 + x = x (x + 1)
        (3, (1, 1, 1)),        # x^2 + x + 1 = (x + 2)^2
        (3, (1, 0, 0, 0, 1)),  # x^4 + 1 = (x^2 + x + 2)(x^2 + 2x + 2)
        (3, (2, 1, 1, 0, 1)),
    ]:
        assert not oracle_irreducible(list(modulus), p)
        with pytest.raises(SpecError):
            Field(p, modulus)
    # and a modulus that is not monic of degree >= 1 never reaches it
    for p, modulus in [
        (2, (1, 1, 0)),  # x + 1 with a zero leading digit: would build GF(4)
        (3, (2, 2, 2)),  # 2 (x^2 + x + 1)
        (2, (1,)),       # degree 0: would fail indexing
        (2, ()),
    ]:
        with pytest.raises(SpecError, match="not monic of degree >= 1"):
            Field(p, modulus)


def test_non_primitive_modulus_rejected():
    # x^2 + 1 over GF(3) is irreducible but x has order 4, not 8.
    with pytest.raises(SpecError):
        Field(3, (1, 0, 1))


def test_addition_matches_polynomial_vectors():
    # Independent check of the addition table against coefficient vectors.
    for q in ALL_Q:
        f = field_make(q)
        for a in f.digits:
            for b in f.digits:
                want = tuple(
                    (x + y) % f.p for x, y in zip(f.coeffs(a), f.coeffs(b))
                )
                assert f.coeffs(f.add(a, b)) == want


# --- frozen single-value anchors ----------------------------------------


def test_gf4_anchors():
    f = field_make(2)
    assert f.mul(2, 3) == 1          # alpha * alpha^2 = alpha^3 = 1
    assert f.add(2, 3) == 1          # alpha + alpha^2 = 1
    assert f.conj(2) == 3
    assert f.conj(3) == 2
    assert f.neg(f.one) == 1         # -1 = 1 in characteristic 2


def test_gf9_anchors():
    f = field_make(3)
    assert f.conj(2) == 4            # alpha^q = alpha^3, digit 4
    assert f.neg(f.one) == 5         # -1, the integer 2, is alpha^4
    assert f.mul(f.neg(f.one), f.neg(f.one)) == 1


def test_gf81_anchors():
    f = field_make(9)
    assert f.neg(f.one) == 41        # -1 = 2 = alpha^40
    assert f.conj(2) == 10           # alpha^9, digit 10
    assert f.norm_q(2) == 11         # alpha^(q+1) = alpha^10


# --- algebraic laws -----------------------------------------------------


@pytest.mark.parametrize("q", ALL_Q)
def test_field_axioms(q):
    f = field_make(q)
    rng = random.Random(1000 + q)
    digits = list(f.digits)
    # commutativity + inverses, exhaustive
    for a in digits:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
        for b in digits:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
    # associativity + distributivity, exhaustive for Q <= 9, sampled beyond
    if f.Q <= 9:
        triples = [(a, b, c) for a in digits for b in digits for c in digits]
    else:
        triples = [
            (rng.choice(digits), rng.choice(digits), rng.choice(digits))
            for _ in range(4000)
        ]
    for a, b, c in triples:
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("q", ALL_Q)
def test_frobenius_identities_exhaustive(q):
    f = field_make(q)
    for a in f.digits:
        assert f.conj(f.conj(a)) == a
        assert f.pow_(a, f.Q) == a if a else True
        assert oracles.in_subfield_q(f, f.norm_q(a))
        for b in f.digits:
            assert f.conj(f.add(a, b)) == f.add(f.conj(a), f.conj(b))
            assert f.conj(f.mul(a, b)) == f.mul(f.conj(a), f.conj(b))


@pytest.mark.parametrize("q", ALL_Q)
def test_char_p_scalar(q):
    f = field_make(q)
    for a in f.digits:
        acc = 0
        for _ in range(f.p):
            acc = f.add(acc, a)
        assert acc == 0  # p * a = 0


def test_pow_consistency():
    f = field_make(3)
    rng = random.Random(7)
    for _ in range(200):
        a = rng.randrange(1, f.Q)
        e = rng.randrange(0, 50)
        brute = 1
        for _ in range(e):
            brute = f.mul(brute, a)
        assert f.pow_(a, e) == brute


# --- lookup tables ------------------------------------------------------


@pytest.mark.parametrize("q", ALL_Q)
def test_tables_match_log_antilog_arithmetic(q):
    # every entry of every table, and the method that reads it, against
    # arithmetic on the digit encoding done here: nonzero digits multiply by
    # adding exponents mod Q-1, and add by adding coefficient vectors mod p
    f = field_make(q)
    Qm1 = f.Q - 1
    digit_of = {f.coeffs(d): d for d in f.digits}

    def mul(a, b):
        return 0 if a == 0 or b == 0 else (a - 1 + b - 1) % Qm1 + 1

    def add(a, b):
        return digit_of[tuple((x + y) % f.p for x, y in zip(f.coeffs(a), f.coeffs(b)))]

    def neg(a):
        return digit_of[tuple(-x % f.p for x in f.coeffs(a))]

    def conj(a):
        acc = 1
        for _ in range(q):
            acc = mul(acc, a)
        return acc

    tables = (f.add_table, f.sub_table, f.mul_table)
    assert all(len(t) == f.Q and all(len(row) == f.Q for row in t) for t in tables)
    assert len(f.neg_table) == len(f.conj_table) == f.Q
    for a in f.digits:
        assert f.neg_table[a] == f.neg(a) == neg(a)
        assert f.conj_table[a] == f.conj(a) == conj(a)
        for b in f.digits:
            assert f.add_table[a][b] == f.add(a, b) == add(a, b)
            assert f.sub_table[a][b] == f.sub(a, b) == add(a, neg(b))
            assert f.mul_table[a][b] == f.mul(a, b) == mul(a, b)
