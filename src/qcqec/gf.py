"""Finite field arithmetic for GF(q^2), q in {2, 3, 9}.

Field elements are plain int "digits": digit 0 is the zero element and digit
d >= 1 stands for alpha^(d-1) for a fixed primitive element alpha.  GF(4)
therefore reads {0, 1, 2, 3} = {0, 1, alpha, alpha^2}, GF(9) uses digits
0..8 and GF(81) digits 0..80.  Multiplication of nonzero digits is addition
of exponents mod Q-1; addition follows the polynomial representation over
the prime field.

Each field holds dense Q x Q tables for add, sub and mul and length-Q
tables for neg and conj (at most 4 x 6561 + 162 entries, for GF(81)), so
each of those operations is one lookup.  Hot loops elsewhere bind a table
row, e.g. ``m = field.mul_table[c]``, and index it per element instead of
calling a method per element.

The moduli are the Conway polynomials, with alpha the residue class of x,
so digit strings printed by common computer algebra systems line up with
this encoding element for element.
"""

from __future__ import annotations

import math
from functools import lru_cache

from qcqec.errors import InvariantError, SpecError

# Modulus per supported field size, coefficients ascending over GF(p).
# x is a primitive root of each, which the Field constructor re-verifies.
_MODULI = {
    4: (2, (1, 1, 1)),          # x^2 + x + 1 over GF(2)
    9: (3, (2, 2, 1)),          # x^2 + 2x + 2 over GF(3)
    81: (3, (2, 0, 0, 2, 1)),   # x^4 + 2x^3 + 2 over GF(3)
}

SUPPORTED_Q = (2, 3, 9)


class Field:
    """GF(Q) for Q = q^2 <= 81, with digit log/antilog tables.

    Attributes:
        p: characteristic.
        q: square root of the field size (the quantum alphabet size).
        Q: field size q^2.
        m: extension degree over the prime field.
        modulus: defining polynomial, ascending coefficients over GF(p).
    """

    zero = 0
    one = 1

    def __init__(self, p: int, modulus: tuple[int, ...]):
        if len(modulus) < 2 or modulus[-1] % p != 1:
            raise SpecError(f"modulus {modulus} is not monic of degree >= 1")
        self.p = p
        self.modulus = tuple(modulus)
        self.m = len(modulus) - 1
        self.Q = p ** self.m
        q = math.isqrt(self.Q)
        if q * q != self.Q:
            raise SpecError(f"field size {self.Q} is not a square")
        self.q = q
        self._Qm1 = self.Q - 1

        # digit -> coefficient vector, and its inverse: zero, then
        # alpha^i = x^i by repeated multiplication by x.  x must have full
        # order Q-1 (primitivity), which also proves the modulus
        # irreducible: Q-1 distinct powers make every nonzero residue a unit.
        coeffs = self._coeffs = [(0,) * self.m]
        digit_of = {coeffs[0]: 0}
        vec = (1,) + coeffs[0][1:]
        for i in range(self._Qm1):
            if vec in digit_of:
                raise SpecError(f"x has order {i} < {self._Qm1} mod {modulus}")
            digit_of[vec] = len(coeffs)
            coeffs.append(vec)
            vec = _shift_mod(vec, modulus, p)
        if vec != coeffs[1]:
            raise SpecError(f"x is not primitive mod {modulus}")

        Qm1 = self._Qm1
        self.add_table = [
            [digit_of[tuple((x + y) % p for x, y in zip(a, b))] for b in coeffs]
            for a in coeffs
        ]
        self.neg_table = [digit_of[tuple(-x % p for x in a)] for a in coeffs]
        self.sub_table = [[row[b] for b in self.neg_table] for row in self.add_table]
        self.mul_table = [[0] * self.Q] + [
            [0] + [(a + b) % Qm1 + 1 for b in range(Qm1)] for a in range(Qm1)
        ]
        self.conj_table = [0] + [a * q % Qm1 + 1 for a in range(Qm1)]

        self.digits = range(self.Q)

    # --- arithmetic on digits -------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def neg(self, a: int) -> int:
        return self.neg_table[a]

    def sub(self, a: int, b: int) -> int:
        return self.sub_table[a][b]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of the zero element")
        return (-(a - 1)) % self._Qm1 + 1

    def pow_(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("negative power of the zero element")
            return 0
        return (a - 1) * e % self._Qm1 + 1

    def conj(self, a: int) -> int:
        """Frobenius a -> a^q, the conjugation of the Hermitian form."""
        return self.conj_table[a]

    def norm_q(self, a: int) -> int:
        """a^(q+1), which always lands in the subfield GF(q)."""
        return self.pow_(a, self.q + 1)

    def coeffs(self, d: int) -> tuple[int, ...]:
        """Coefficient vector of digit d over GF(p), ascending basis powers."""
        return self._coeffs[d]

    def check_digit(self, d) -> int:
        if not isinstance(d, int) or isinstance(d, bool) or not 0 <= d < self.Q:
            raise SpecError(f"digit {d!r} out of range for GF({self.Q})")
        return d

    def __repr__(self):
        return f"Field(GF({self.Q}))"


def _shift_mod(vec: tuple[int, ...], modulus: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Multiply a coefficient vector by x and reduce by the monic modulus."""
    m = len(vec)
    top = vec[m - 1]
    out = [0, *vec[: m - 1]]
    if top:
        for t in range(m):
            out[t] = (out[t] - top * modulus[t]) % p
    return tuple(out)


@lru_cache(maxsize=None)
def field_make(q: int) -> Field:
    """The field GF(q^2) for q in {2, 3, 9}."""
    Q = q * q
    if Q not in _MODULI:
        raise SpecError(f"unsupported q={q}; supported: {SUPPORTED_Q}")
    p, modulus = _MODULI[Q]
    f = Field(p, modulus)
    if f.q != q:
        raise InvariantError(f"GF({Q}) reports q = {f.q}, expected {q}")
    return f
