"""Exception types shared across the package, and the integer check that
input files share.

The CLI maps these onto process exit codes, so library code should raise the
most specific class that applies rather than bare ValueError/RuntimeError.
"""

from __future__ import annotations


class QcqecError(Exception):
    """Base class for everything raised deliberately by this package."""


class SpecError(QcqecError):
    """Bad user-supplied input: unsupported field size, malformed compact
    notation, out-of-range digits, broken spec files."""


class PreconditionError(QcqecError):
    """A mathematical precondition failed (e.g. g does not divide x^n - 1).

    ``code`` is a short machine-readable slug that ends up in CLI error
    reports; ``message`` is the human-readable half.
    """

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


class BudgetExceeded(QcqecError):
    """The search's generator walk (`explorer._generators`) would make more
    generators than its cap; ``required`` says how many.  A code past the
    message budget is skipped (`pipeline.Evaluation.skipped`), not raised.
    """

    def __init__(self, required: int, budget: int):
        super().__init__(
            f"divisor-enumeration needs {required} steps but the budget is {budget}"
        )
        self.required = required
        self.budget = budget


class InvariantError(QcqecError):
    """A computed result broke a property that holds by construction, such
    as an enumerator's total: a fault in the program, not in its input."""


def require_int(what: str, value, least: int | None = None) -> None:
    """A SpecError naming what, unless value is an int (a bool is not) and
    at least `least`."""
    if (isinstance(value, bool) or not isinstance(value, int)
            or least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise SpecError(f"{what} must be an integer{bound}, got {value!r}")
