"""Digit matrices over the GF(q^2) digit fields.

`Mat` holds digit rows (copied), their field and their shape: the
generator matrices that `wdist.enumerate_code` scans.  It does no
arithmetic; the matrix routes that the library replaced by computations in
the ring, char(P) included, live with the tests in tests/oracles.py.

`Mat` stays because the benchmark reads it: bench/spans.py imports `famat`
and wraps `Mat`'s methods by name, and bench/checks.py reads `.field`,
`.nrows` and `.ncols`.  Digit rows for `enumerate_code`, and deleting this
module, wait on a benchmark that needs neither.
"""


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
