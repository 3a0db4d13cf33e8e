"""Quasi-cyclic codes over GF(q^2) and the quantum codes they induce."""

from qcqec.errors import (
    BudgetExceeded,
    PreconditionError,
    QcqecError,
    SpecError,
)
from qcqec.gf import Field, field_make

__all__ = [
    "BudgetExceeded",
    "PreconditionError",
    "QcqecError",
    "SpecError",
    "Field",
    "field_make",
]

__version__ = "0.1.0"
