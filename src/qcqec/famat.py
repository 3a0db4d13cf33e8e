"""Digit matrices over the GF(q^2) digit fields.

Matrices are lists of digit rows wrapped in a thin Mat class, at most a few
hundred rows in size.  The constructor copies the rows it is given.

The per-code tests run in the polynomial ring (see `qcc`), so matrices
are only built for what reads them: the generator matrices that are
enumerated, and the P matrix whose characteristic polynomial a report
prints.  The one piece of matrix arithmetic left is that polynomial, by a
Hessenberg reduction that updates a row with one list comprehension over
a bound row of the multiplication table.  Elimination, and the matrix
routes the ring forms replaced, live with the tests, in tests/oracles.py.
"""

from __future__ import annotations

from qcqec.polyring import cyclic_shift


class Mat:
    """A rows-of-digits matrix over a digit field."""

    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field, rows, ncols=None):
        self.field = field
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        if self.nrows:
            self.ncols = len(self.rows[0])
            if len(set(map(len, self.rows))) != 1:
                raise ValueError("ragged rows")
        else:
            if ncols is None:
                raise ValueError("empty matrix needs an explicit ncols")
            self.ncols = ncols

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.field is other.field
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"Mat({self.nrows}x{self.ncols} over GF({self.field.Q}))"

    def row(self, i) -> tuple:
        return tuple(self.rows[i])


def circulant(field, vec, nrows: int) -> Mat:
    """nrows x len(vec) matrix whose i-th row is x^i * a(x): ascending
    coefficients of a, cyclically shifted right i places."""
    vec = tuple(vec)
    return Mat(field, [cyclic_shift(vec, i) for i in range(nrows)], len(vec))


# --- characteristic polynomial ----------------------------------------------


def char_poly(m: Mat) -> tuple[int, ...]:
    """Characteristic polynomial det(xI - M), ascending digit coefficients.

    The matrix is first brought to upper Hessenberg form by similarity
    transformations (exact pivoting, any field), then the polynomial follows
    from the leading-principal-minor recurrence, so no polynomial-entry
    elimination is ever needed.
    """
    if m.nrows != m.ncols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    f = m.field
    n = m.nrows
    if n == 0:
        return (1,)
    h = [list(r) for r in m.rows]
    add, mul, neg, inv = f.add_table, f.mul_table, f.neg_table, f.inv

    for j in range(n - 2):
        piv = None
        for i in range(j + 1, n):
            if h[i][j]:
                piv = i
                break
        if piv is None:
            continue
        if piv != j + 1:
            h[piv], h[j + 1] = h[j + 1], h[piv]
            for row in h:
                row[piv], row[j + 1] = row[j + 1], row[piv]
        iv = inv(h[j + 1][j])
        for i in range(j + 2, n):
            if not h[i][j]:
                continue
            c = mul[h[i][j]][iv]
            m = mul[neg[c]]
            h[i] = [add[x][m[y]] for x, y in zip(h[i], h[j + 1])]
            m = mul[c]
            for row in h:
                row[j + 1] = add[row[j + 1]][m[row[i]]]

    # p_k = (x - h_kk) p_{k-1} - sum_i h_ik (prod_j h_{j,j-1}) p_{i-1}
    ps = [(1,)]
    for k in range(1, n + 1):
        hkk = h[k - 1][k - 1]
        prev = ps[k - 1]
        m = mul[neg[hkk]]
        cur = [0] + list(prev)
        cur[:-1] = [add[x][m[c]] for x, c in zip(cur, prev)]
        prod = 1
        for i in range(k - 1, 0, -1):
            prod = mul[prod][h[i][i - 1]]
            if prod == 0:
                break
            coef = mul[h[i - 1][k - 1]][prod]
            if coef:
                m = mul[neg[coef]]
                cur[:i] = [add[x][m[c]] for x, c in zip(cur, ps[i - 1])]
        ps.append(tuple(cur))
    return ps[n]
