"""Polynomials over GF(Q) and the ambient ring GF(Q)[x]/(x^n - 1).

Two shapes of data live here.  "Plain" polynomials are tuples of digits in
ascending degree order with no length contract (used for divisor arithmetic:
gcd, exact quotients, factorizations).  "Ring" vectors are length-n digit
tuples representing classes mod x^n - 1 (used for codeword manipulation).
Functions take the field, and where needed n, as explicit context arguments.

Products over GF(4) are integer products, by Kronecker substitution (cf.
Harvey, "Faster polynomial multiplication via multipoint Kronecker
substitution", J. Symb. Comput. 44, 2009): each GF(2) coordinate plane of
a polynomial is packed one coefficient per byte into a Python int, three
int products give the product's planes (see _gf4_product), and x^n = 1 is
a shift and an XOR.  A byte slot holds a sum of up to 255 ones, so the
path serves factors of which the shorter has at most 255 coefficients;
longer ones, and GF(9) and GF(81), take the schoolbook loop over the
field's tables.

Compact notation
----------------
Polynomials are written as digit strings in ascending degree order, e.g.
``101^3`` is 1 + x^2 + x^3 + x^4.  The grammar is::

    seq  := item+
    item := atom ('^' exponent)?
    atom := digit | '(' seq ')'

where ``exponent`` is a single decimal digit or a braced integer ``{12}``,
and an exponent repeats its atom.  Fields with more than ten elements use
comma-separated digit tokens instead; a token is a decimal digit value or
``z^K`` for the element alpha^K (``z`` alone is alpha).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from qcqec.errors import PreconditionError, SpecError
from qcqec.gf import Field

# --- plain polynomial helpers --------------------------------------------


def trim(coeffs) -> tuple[int, ...]:
    """Drop trailing zero coefficients; the zero polynomial becomes ()."""
    end = len(coeffs)
    while end and coeffs[end - 1] == 0:
        end -= 1
    return tuple(coeffs[:end])


def deg(coeffs) -> int:
    """Degree, with deg 0 = -1 by the usual dense-list convention."""
    return len(trim(coeffs)) - 1


def poly_add(field, a, b) -> tuple[int, ...]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = field.add(out[i], c)
    return trim(out)


def poly_scale(field, c: int, a) -> tuple[int, ...]:
    if c == 0:
        return ()
    m = field.mul_table[c]
    return tuple(m[x] for x in a)


def poly_neg(field, a) -> tuple[int, ...]:
    neg = field.neg_table
    return tuple(neg[x] for x in a)


def poly_mul(field, a, b) -> tuple[int, ...]:
    if field.p == 2 and min(len(a), len(b)) <= _SLOT_TERMS:
        c = _gf4_product(a, b)
        return tuple(c.to_bytes((c.bit_length() + 7) // 8, "little"))
    return _poly_mul_table(field, a, b)


def _poly_mul_table(field, a, b) -> tuple[int, ...]:
    """The schoolbook product by table lookups: the path of GF(9) and
    GF(81), and the reference for the GF(4) integer product."""
    a, b = trim(a), trim(b)
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    add, mul = field.add_table, field.mul_table
    for i, x in enumerate(a):
        if x:
            m = mul[x]
            out[i : i + len(b)] = [add[o][m[y]] for o, y in zip(out[i:], b)]
    return tuple(out)


def poly_divmod(field, a, b) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Quotient and remainder; b must be nonzero."""
    b = trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(trim(a))
    db = len(b) - 1
    add, mul, neg = field.add_table, field.mul_table, field.neg_table
    by_inv_lead = mul[field.inv(b[-1])]
    quo = [0] * max(0, len(rem) - db)
    while len(rem) - 1 >= db:
        if rem[-1] == 0:
            rem.pop()
            continue
        c = by_inv_lead[rem[-1]]
        shift = len(rem) - 1 - db
        quo[shift] = c
        m = mul[neg[c]]
        rem[shift:] = [add[x][m[y]] for x, y in zip(rem[shift:], b)]
        rem.pop()
    return trim(quo), trim(rem)


def poly_mod(field, a, b) -> tuple[int, ...]:
    return poly_divmod(field, a, b)[1]


def divides(field, a, b) -> bool:
    """True iff a | b (unit-insensitive; a must be nonzero)."""
    return not poly_mod(field, b, a)


def monic(field, a) -> tuple[int, ...]:
    a = trim(a)
    if not a:
        return a
    return poly_scale(field, field.inv(a[-1]), a)


def poly_gcd(field, a, b) -> tuple[int, ...]:
    """Monic gcd; gcd(0, 0) = 0."""
    a, b = trim(a), trim(b)
    while b:
        a, b = b, poly_mod(field, a, b)
    return monic(field, a)


def x_pow_n_minus_1(field, n: int) -> tuple[int, ...]:
    out = [0] * (n + 1)
    out[0] = field.neg(1)
    out[n] = 1
    return tuple(out)


# The GF(4) product packs digit i of a polynomial into byte i of an int.
# Slot k of the integer product of two such packings of GF(2) planes sums
# the a_i b_j with i + j = k, at most min(len a, len b) ones, so up to
# _SLOT_TERMS terms no sum carries into the next slot.
_SLOT_TERMS = 255


@lru_cache(maxsize=64)
def _slot_ones(slots: int) -> int:
    """The int with a 1 at the bottom of each of its first `slots` bytes."""
    return int.from_bytes(b"\x01" * slots, "little")


def _gf4_product(a, b) -> int:
    """a b over GF(4), packed one digit per byte, low degree first.

    The digit of c0 + c1 alpha is c0 + 2 c1, so bit j of a digit is its
    coordinate j and a sum of digits is their XOR.  With alpha^2 =
    alpha + 1, (a0 + a1 alpha)(b0 + b1 alpha) has the coordinates
    c0 = p0 + p2 and c1 = p0 + p1 for the three plane products p0 = a0 b0,
    p2 = a1 b1 and p1 = (a0 + a1)(b0 + b1) (Karatsuba).  Each is one
    integer product whose slots hold counts; a count's parity is its
    slot's low bit.
    """
    A = int.from_bytes(bytes(a), "little")
    B = int.from_bytes(bytes(b), "little")
    ones = _slot_ones(len(a) + len(b))
    a0, a1 = A & ones, A >> 1 & ones
    b0, b1 = B & ones, B >> 1 & ones
    p0 = a0 * b0
    p1 = (a0 ^ a1) * (b0 ^ b1)
    p2 = a1 * b1
    return (p0 ^ p2) & ones | ((p0 ^ p1) & ones) << 1


# --- compact notation -----------------------------------------------------


def parse_compact(field, text: str, n: int | None = None) -> tuple[int, ...]:
    """Expand compact notation to a digit tuple (see module docstring).

    With n given, the result is zero-padded to length n; an expansion longer
    than n is an error.
    """
    text = text.strip()
    if field.Q > 9 or "," in text:
        digits = _parse_digit_list(field, text)
    else:
        digits, pos = _parse_seq(field, text, 0)
        if pos != len(text):
            raise SpecError(f"unexpected {text[pos]!r} at position {pos} in {text!r}")
    if n is not None:
        if len(digits) > n:
            raise SpecError(
                f"{text!r} expands to {len(digits)} digits, more than n={n}"
            )
        digits = digits + [0] * (n - len(digits))
    return tuple(digits)


def _parse_seq(field, s: str, i: int, closing: str | None = None):
    out: list[int] = []
    while i < len(s):
        ch = s[i]
        if ch == closing:
            return out, i
        if ch == "(":
            atom, i = _parse_seq(field, s, i + 1, ")")
            if i >= len(s) or s[i] != ")":
                raise SpecError(f"unbalanced '(' in {s!r}")
            if not atom:
                raise SpecError(f"empty group in {s!r}")
            i += 1
        elif ch.isdigit():
            atom = [field.check_digit(int(ch))]
            i += 1
        else:
            raise SpecError(f"unexpected {ch!r} at position {i} in {s!r}")
        if i < len(s) and s[i] == "^":
            i += 1
            if i < len(s) and s[i] == "{":
                j = s.find("}", i)
                if j < 0:
                    raise SpecError(f"unbalanced '{{' in {s!r}")
                exp_text = s[i + 1 : j]
                i = j + 1
            elif i < len(s) and s[i].isdigit():
                exp_text = s[i]
                i += 1
            else:
                raise SpecError(f"missing exponent at position {i} in {s!r}")
            if not exp_text.isdigit() or int(exp_text) < 1:
                raise SpecError(f"bad exponent {exp_text!r} in {s!r}")
            atom = atom * int(exp_text)
        out.extend(atom)
    if closing is not None:
        raise SpecError(f"unbalanced '(' in {s!r}")
    return out, i


def _parse_digit_list(field, text: str) -> list[int]:
    if not text:
        return []
    out = []
    for token in text.split(","):
        token = token.strip()
        if token == "z":
            out.append(2)
        elif token.startswith("z^"):
            k = token[2:]
            if not k.isdigit():
                raise SpecError(f"bad token {token!r}")
            out.append(field.check_digit(int(k) + 1))
        elif token.isdigit():
            out.append(field.check_digit(int(token)))
        else:
            raise SpecError(f"bad token {token!r}")
    return out


def render_compact(field, coeffs) -> str:
    """Canonical inverse of parse_compact: run-length encoded digit string
    (no parentheses), or a comma-separated list for fields past GF(9)."""
    if field.Q > 9:
        return ",".join(str(d) for d in coeffs)
    parts = []
    i = 0
    while i < len(coeffs):
        j = i
        while j < len(coeffs) and coeffs[j] == coeffs[i]:
            j += 1
        run = j - i
        if run == 1:
            parts.append(str(coeffs[i]))
        elif run <= 9:
            parts.append(f"{coeffs[i]}^{run}")
        else:
            parts.append(f"{coeffs[i]}^{{{run}}}")
        i = j
    return "".join(parts)


# --- ring vectors (length n, mod x^n - 1) ---------------------------------


def ring_from_plain(field, n: int, coeffs) -> tuple[int, ...]:
    out = [0] * n
    add = field.add_table
    for i, c in enumerate(coeffs):
        if c:
            out[i % n] = add[out[i % n]][c]
    return tuple(out)


def ring_mul(field, n: int, a, b) -> tuple[int, ...]:
    # (at n = 0 the fold would never end)
    if field.p == 2 and n > 0 and min(len(a), len(b)) <= _SLOT_TERMS:
        c = _gf4_product(a, b)
        # x^n = 1: fold the slots from n up back onto the first n
        w = 8 * n
        low = (1 << w) - 1
        while c >> w:
            c = c & low ^ c >> w
        return tuple(c.to_bytes(n, "little"))
    return ring_from_plain(field, n, _poly_mul_table(field, a, b))


def cyclic_shift(vec, i: int) -> tuple[int, ...]:
    """Multiply by x^i: rotate coefficients right by i."""
    n = len(vec)
    i %= n
    return tuple(vec[n - i :]) + tuple(vec[: n - i])


def bar(vec) -> tuple[int, ...]:
    """The reversal a(x) -> a(x^-1) mod x^n - 1: fixes the constant term and
    reverses the rest."""
    vec = tuple(vec)
    return (vec[0],) + tuple(reversed(vec[1:]))


def frob_poly(field, vec) -> tuple[int, ...]:
    """Coefficient-wise q-power Frobenius."""
    conj = field.conj_table
    return tuple(conj[c] for c in vec)


def conj_rev(field, n: int, a) -> tuple[int, ...]:
    """The involution a(x) -> conj(a)(x^-1) mod x^n - 1, so that
    circulant(conj_rev(a)) is the conjugate transpose of circulant(a)."""
    return frob_poly(field, bar(ring_from_plain(field, n, a)))


def ring_inv(field, n: int, a, m=None) -> tuple[int, ...]:
    """The inverse of a modulo m (default x^n - 1, of degree at most n),
    by the extended Euclidean algorithm, as a length-n ring vector;
    raises PreconditionError when gcd(a, m) != 1."""
    r0, r1 = x_pow_n_minus_1(field, n) if m is None else trim(m), trim(a)
    s0, s1 = (), (field.one,)
    while r1:
        quo, rem = poly_divmod(field, r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, poly_add(field, s0, poly_neg(field, poly_mul(field, quo, s1)))
    if len(r0) != 1:
        raise PreconditionError("not-a-unit", "gcd(a, m) != 1: a has no inverse mod m")
    return ring_from_plain(field, n, poly_scale(field, field.inv(r0[0]), s0))


# --- duals and factorization ----------------------------------------------


def reciprocal(coeffs) -> tuple[int, ...]:
    """x^deg(h) * h(1/x): the coefficient reversal of a trimmed polynomial."""
    return tuple(reversed(trim(coeffs)))


def dual_gen(field, n: int, g) -> tuple[int, ...]:
    """Generator of the Hermitian dual of the cyclic code <g> of length n.

    Returns the coefficient-conjugated reciprocal of h = (x^n - 1)/g, exactly
    as assembled (constant term 1 for monic g); generators are only defined
    up to units and this is the normalization the parity-check circulants use.
    """
    g = trim(g)
    if not g:
        raise PreconditionError("g-not-divisor", "g must be nonzero")
    h = quotient_exact_checked(field, n, g)
    return frob_poly(field, reciprocal(h))


def quotient_exact_checked(field, n: int, g) -> tuple[int, ...]:
    xn1 = x_pow_n_minus_1(field, n)
    q, r = poly_divmod(field, xn1, g)
    if r:
        raise PreconditionError(
            "g-not-divisor", f"g does not divide x^{n} - 1 over GF({field.Q})"
        )
    return q


def cyclotomic_cosets(Q: int, n: int) -> list[tuple[int, ...]]:
    """Q-cyclotomic cosets mod n, each sorted, ordered by smallest member."""
    if math.gcd(Q, n) != 1:
        raise PreconditionError("p-divides-n", f"gcd({Q}, {n}) != 1")
    seen = [False] * n
    out = []
    for s in range(n):
        if seen[s]:
            continue
        orbit = []
        t = s
        while not seen[t]:
            seen[t] = True
            orbit.append(t)
            t = t * Q % n
        out.append(tuple(sorted(orbit)))
    return out


def factor_xn_minus_1(field: Field, n: int) -> tuple[tuple[int, ...], ...]:
    """Complete factorization of x^n - 1 over GF(Q) into monic irreducibles.

    There is one factor per Q-cyclotomic coset mod n, of the coset's size.
    The factors come sorted by (length, coefficients), and their product is
    re-verified against x^n - 1.  Requires gcd(n, p) = 1.
    """
    if n < 1:
        raise SpecError(f"n must be positive, got {n}")
    if math.gcd(n, field.p) != 1:
        raise PreconditionError(
            "p-divides-n",
            f"x^{n} - 1 is not squarefree over GF({field.Q}): p={field.p} divides n",
        )
    return _factor_cached(field, n)


@lru_cache(maxsize=None)
def _factor_cached(field: Field, n: int) -> tuple[tuple[int, ...], ...]:
    """Berlekamp splitting with a basis known in advance.

    A ring element v = sum a_s x^s with digits in GF(Q) satisfies
    v^Q = v mod x^n - 1 exactly when a_s is constant on each Q-cyclotomic
    coset, so the coset sums v_C = sum_{s in C} x^s are a basis of the
    Berlekamp subalgebra and there is no linear system to solve.  Modulo
    any squarefree divisor h, v_C is congruent to a constant on each
    irreducible factor, so h is the product of gcd(h, v_C - c) over
    c in GF(Q); splitting every current factor on every basis element
    separates all irreducible factors.
    """
    xn1 = x_pow_n_minus_1(field, n)
    cosets = cyclotomic_cosets(field.Q, n)
    factors = [xn1]
    for orbit in cosets:
        if len(factors) == len(cosets):
            break
        v = [0] * n
        for s in orbit:
            v[s] = field.one
        split = []
        for h in factors:
            r = poly_mod(field, v, h)
            left = deg(h)
            for c in field.digits:
                part = poly_gcd(field, h, poly_add(field, r, (field.neg(c),)))
                if deg(part) >= 1:
                    split.append(part)
                    left -= deg(part)
                    if not left:
                        break
        factors = split

    if len(factors) != len(cosets):
        raise AssertionError(
            f"found {len(factors)} factors of x^{n} - 1 over GF({field.Q}), "
            f"expected one per cyclotomic coset ({len(cosets)})"
        )
    product = (1,)
    for fac in factors:
        product = poly_mul(field, product, fac)
    if product != xn1:
        raise AssertionError(
            f"factor product mismatch for x^{n} - 1 over GF({field.Q})"
        )
    return tuple(sorted(factors, key=lambda f: (len(f), f)))


def poly_powmod(field, a, e: int, m) -> tuple[int, ...]:
    """a^e mod m, by square and multiply."""
    out, a = poly_mod(field, (field.one,), m), poly_mod(field, a, m)
    while e:
        if e & 1:
            out = poly_mod(field, poly_mul(field, out, a), m)
        e >>= 1
        if e:
            a = poly_mod(field, poly_mul(field, a, a), m)
    return out


def prime_factors(N: int) -> tuple[int, ...]:
    """The distinct primes dividing N >= 1, by trial division."""
    out, p = [], 2
    while p * p <= N:
        if N % p == 0:
            out.append(p)
            while N % p == 0:
                N //= p
        p += 1 if p == 2 else 2
    return tuple(out + [N] * (N > 1))


def x_order(field, m, n: int) -> int:
    """The order of x modulo an irreducible factor m of x^n - 1: the least
    divisor e of n with m | x^e - 1."""
    order = n
    for p in prime_factors(n):
        while order % p == 0 and divides(field, m, x_pow_n_minus_1(field, order // p)):
            order //= p
    return order


def primitive_element(field, m) -> tuple[int, ...]:
    """The first element of order Q^d - 1 of GF(Q)[x]/(m), m irreducible of
    degree d, in the base-Q order of its digits (low degree first): the first
    a with a^((Q^d - 1)/p) != 1 for every prime p dividing Q^d - 1."""
    Q, d = field.Q, deg(m)
    size = Q ** d - 1
    primes = prime_factors(size)
    for t in range(1 if d == 1 else Q, size + 1):  # past d = 1, no constant is one
        a = trim(tuple(t // Q ** i % Q for i in range(d)))
        if all(poly_powmod(field, a, size // p, m) != (field.one,) for p in primes):
            return a
    raise AssertionError(f"no primitive element modulo {m}: it is not irreducible")


def _p_split(field, n: int) -> tuple[int, int]:
    """(n', p^s), n = n' p^s with p not dividing n': x^n - 1 = (x^n' - 1)^(p^s)."""
    power = 1
    while n % field.p == 0:
        n, power = n // field.p, power * field.p
    return n, power


def circulant_char_poly(field: Field, a) -> tuple[int, ...]:
    """det(lambda I - circ(a)), circ(a) the matrix of rows x^i a for a ring
    vector a of length n = n' p^s, p not dividing n': ascending digits,
    monic of length n + 1.

    circ(a) is multiplication by a on GF(Q)[x]/(x^n - 1), by the Chinese
    remainder theorem the product of the GF(Q)[x]/(m^(p^s)) over the
    irreducible factors m of x^n' - 1.  Each has p^s layers m^i / m^(i+1),
    copies of GF(Q^d) = GF(Q)[x]/(m) where a acts as beta = a mod m, with
    characteristic polynomial prod_{j<d} (lambda - beta^(Q^j)) (Lidl and
    Niederreiter, Finite Fields, ch. 2).  That product is formed over
    GF(Q)[x]/(m), where its coefficients come out constant.
    """
    core, power = _p_split(field, len(a))
    out = (field.one,)
    for m in factor_xn_minus_1(field, core):
        beta = poly_mod(field, a, m)
        coeffs = [(field.one,)]  # of lambda^0, lambda^1, ...
        for _ in range(deg(m)):
            neg_beta = poly_neg(field, beta)  # times lambda - beta: c_i <- c_(i-1) - beta c_i
            coeffs = [poly_mod(field, poly_add(field, hi, poly_mul(field, neg_beta, lo)), m)
                      for lo, hi in zip(coeffs + [()], [()] + coeffs)]
            beta = poly_powmod(field, beta, field.Q, m)
        factor = tuple(c[0] if c else 0 for c in coeffs)
        for _ in range(power):
            out = poly_mul(field, out, factor)
    return out


def is_unit(field: Field, n: int, f) -> bool:
    """True iff gcd(f, x^n - 1) = 1, i.e. f is a unit mod x^n - 1.

    f may have any length; it is reduced mod x^n - 1 and tested as one row
    of `units`.
    """
    if n < 1:
        raise SpecError(f"n must be positive, got {n}")
    return bool(units(field, n, [ring_from_plain(field, n, f)])[0])


def units(field: Field, n: int, rows) -> np.ndarray:
    """Whether each row is a unit mod x^n - 1, as a bool array.

    rows is an (R, L) array of digits, L <= n, row f standing for
    f_0 + f_1 x + ... + f_(L-1) x^(L-1).  By the Chinese remainder theorem
    (the decomposition of quasi-cyclic codes by Ling and Sole, IEEE Trans.
    IT 47, 2001) f is a unit exactly when f mod m != 0 for every irreducible
    factor m of x^n - 1.  With n = n' p^e and p not dividing n', those are
    the factors of x^n' - 1, and x^i = x^(i mod n') modulo each of them.

    Write h = (x^n' - 1)/m.  Then f mod m = 0 iff f h = 0 mod x^n' - 1, and
    f h lies in the cyclic code <h> of dimension deg m, in which any deg m
    consecutive coordinates are an information set.  So f mod m = 0 iff
    coordinates 0 to deg m - 1 of f h vanish, and coordinate k of f h is
    the sum over i of f_i h_((k - i) mod n').  These are GF(p)-linear in
    the GF(p) coordinates of the f_i: a batch is one matrix product mod p
    with the map of `_unit_map`, and one more product that sums each
    factor's block, nonzero iff the block is.
    """
    umap = _unit_map(field, n)
    rows = np.asarray(rows)
    R, L = rows.shape
    coords = np.take(umap.coords, rows, axis=0).reshape(R, L * field.m)
    residues = coords @ umap.matrix[: L * field.m]
    residues -= field.p * np.floor(residues / field.p)  # exact: small integers
    return (residues @ umap.blocks).all(axis=1)


def unit_density(field: Field, n: int) -> float:
    """The share of units among the ring elements: the product of
    1 - Q^(-deg m) over the irreducible factors m of x^n' - 1."""
    return _unit_map(field, n).density


class _UnitMap(NamedTuple):
    # float32 throughout, for BLAS products: every sum is an integer far
    # below 2^24, so each is exact
    matrix: np.ndarray   # (n m, m n'): the GF(p) map of f to the f h
    coords: np.ndarray   # (Q, m): the GF(p) coordinates of a digit
    blocks: np.ndarray   # (m n', F): column j is 1 on factor j's coordinates
    density: float


@lru_cache(maxsize=8)
def _unit_map(field: Field, n: int) -> _UnitMap:
    """The map of `units` for one (field, n).

    Row (i, t) holds coordinate u of alpha^t h_((k - i) mod n') in column
    (u, k), for each factor's h and k < deg m, factor by factor.  Each h is
    a product of a prefix and a suffix of the factor list, so 3 F products
    make all F of them; the rest is gathers from the field's tables.
    """
    if n < 1:
        raise SpecError(f"n must be positive, got {n}")
    core = _p_split(field, n)[0]
    factors = factor_xn_minus_1(field, core)
    prefix = [(field.one,)]
    for fac in factors[:-1]:
        prefix.append(poly_mul(field, fac, prefix[-1]))
    hs, suffix = [None] * len(factors), (field.one,)
    for j in reversed(range(len(factors))):
        hs[j] = poly_mul(field, prefix[j], suffix)
        suffix = poly_mul(field, factors[j], suffix)
    H = np.zeros((len(factors), core), dtype=np.uint8)  # digits
    for j, h in enumerate(hs):
        H[j, : len(h)] = h
    degs = [len(fac) - 1 for fac in factors]
    which = np.repeat(np.arange(len(factors)), degs)  # the factor of output k
    first = np.cumsum([0] + degs[:-1])
    k = np.arange(core) - first[which]
    # the (n', n) digits h_((k - i) mod n'), their multiples by alpha^t
    # (digit t + 1), and the coordinates u of those, at [u, k, i, t]
    entries = np.take(H, which[:, None] * core + (k[:, None] - np.arange(n)) % core)
    coords = np.array([field.coeffs(d) for d in field.digits], dtype=np.float32)
    by_alpha_t = np.array(field.mul_table[1 : field.m + 1], dtype=np.uint8).T
    images = np.take(coords.T, np.take(by_alpha_t, entries, axis=0), axis=1)
    matrix = np.ascontiguousarray(images.reshape(field.m * core, n * field.m).T)
    blocks = np.tile(np.eye(len(factors), dtype=np.float32)[which], (field.m, 1))
    density = math.prod(1 - field.Q ** -d for d in degs)
    for shared in (matrix, coords, blocks):  # cached: every caller gets these
        shared.setflags(write=False)
    return _UnitMap(matrix, coords, blocks, density)
