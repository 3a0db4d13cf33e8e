"""One code through build -> extend -> enumerate -> MacWilliams -> quantum
parameters, the chain that `verify`, `table` and `search` render.

An `Evaluation` runs each stage the first time a result that needs it is
read, so a caller pays only for what it reads: a table row past the
message budget is built but never enumerated, a stabilizer row never tests
the entanglement certificate, and the eaqecc search enumerates only codes
that pass it.  What the stages know of g alone (h, dual_g, the H1 test,
the idempotent, the block dual of <g>, the orbit levels, the scan plans
and the side-1 checks of each extension vector) comes from the code's
`qcc.Generator`, made by one division of x^n - 1 by g.

Every evaluation scans under its generator's `wdist.ScanPlan` for its
column count (`qcc.Generator.scan_plan`); what the scans under one plan
share is set out in the `wdist` module docstring.  The evaluations that
`extended` makes of one base code share its built code, so of those
scanned one after another by as many columns, each after the first scans
only its extension units, the words x1 + C, times Q - 1.  `extended`
checks only the vectors and scalars it is given.

Stages are called through their modules (`qcc.build`, `wdist.macwilliams`,
...), looked up at call time, so a wrapper put on a module attribute sees
every call.
"""

from dataclasses import dataclass, fields
from functools import cached_property

from . import polyring, qcc, quantum, wdist
from .errors import PreconditionError, SpecError
from .gf import Field

# the one enumeration gate: a code of more than this many messages is not
# enumerated.  2^29 keeps dimension 14 over GF(4), 9 over GF(9) and 4 over
# GF(81), each a desk-scale run, and leaves out the next one up
DEFAULT_BUDGET = 2 ** 29


@dataclass(frozen=True, eq=False)
class Evaluation:
    """The code generated by (g, f g), extended by zero, one or two vectors
    xs with column scalars alphas (default 1), and what it yields.

    A code of more than budget messages is not enumerated: enum, dual, both
    distances and qecc read None, and eaqecc has unknown distances.
    """

    field: Field
    n: int
    f: tuple
    g: tuple
    xs: tuple = ()
    alphas: tuple = ()
    budget: int = DEFAULT_BUDGET
    workers: int = 1

    def __post_init__(self):
        """The one check of the input: n and g, which every stage divides
        by, and the range of the digits, which the stages take as given (a
        negative one would index the field's tables from the end)."""
        polyring.check_length(self.n)
        if not any(self.g):
            raise PreconditionError("g-not-divisor", "g must be nonzero")
        self._check_digits(("f", self.f), ("g", self.g))

    def _check_digits(self, *named):
        """The digits of the named (name, digits) pairs, then of the alphas
        and the vectors, against the field."""
        Q = self.field.Q
        vectors = [("alpha", self.alphas)] + [(f"x{i}", x) for i, x in enumerate(self.xs, 1)]
        for name, digits in [*named, *vectors]:
            if digits and (min(digits) < 0 or max(digits) >= Q):
                bad = min(digits) if min(digits) < 0 else max(digits)
                raise SpecError(f"{name} digit {bad} out of range for GF({Q})")

    def extended(self, xs, alphas=()) -> "Evaluation":
        """The same base code under the extension vectors xs, built once for
        all of them.  The base inputs were checked with the base: only xs
        and alphas are."""
        other = object.__new__(Evaluation)
        # the fields, then the base's code where cached_property keeps it
        other.__dict__.update({name: self.__dict__[name] for name in _BASE_INPUTS},
                              xs=tuple(xs), alphas=tuple(alphas), code=self.code)
        other._check_digits()
        return other

    @property
    def length(self) -> int:
        return 2 * self.n + len(self.xs)

    @property
    def dimension(self) -> int:
        """Dimension of the enumerated code, read off g without a build."""
        return self.n - polyring.deg(self.g) + len(self.xs)

    @property
    def estimate(self) -> str:
        return f"{self.field.Q}^{self.dimension} messages x {self.length} symbols"

    @property
    def skipped(self) -> bool:
        """Whether the enumeration is left out: its messages are past the budget."""
        return self.field.Q ** self.dimension > self.budget

    @cached_property
    def code(self) -> qcc.QcCode:
        """The base code.  Its build divides x^n - 1 by g, the one division
        every later stage reads (`qcc.Generator`), and raises g-not-divisor:
        read before the budget gate, a g that cannot be built is that error
        at every budget."""
        return qcc.build(self.field, self.n, self.f, self.g)

    @cached_property
    def ext(self) -> qcc.ExtendedCode | None:
        extend = {1: qcc.extend_one, 2: qcc.extend_two}.get(len(self.xs))
        return extend(self.code, *self.xs, *self.alphas) if extend else None

    @cached_property
    def enum(self) -> wdist.WeightEnumerator | None:
        if self.skipped:
            return None
        return wdist.enumerate_code((self.ext or self.code).G, workers=self.workers,
                                    plan=self.code.gen.scan_plan(len(self.xs)))

    @cached_property
    def dual(self) -> wdist.WeightEnumerator | None:
        return self.enum and wdist.macwilliams(self.enum, self.field.Q)

    @property
    def distance(self) -> int | None:
        return self.enum and self.enum.distance()

    @property
    def dual_distance(self) -> int | None:
        return self.dual and self.dual.distance()

    @cached_property
    def qecc(self) -> quantum.QeccParams | None:
        """Stabilizer parameters, for a zero Gram matrix that the extension
        rule keeps (the extension is made first, so its errors surface)."""
        if (self.ext and self.ext.rule != qcc.RULE_ORTHOGONAL
                or not self.code.orthogonal_gram or self.enum is None):
            return None
        return quantum.qecc_from_self_orthogonal(self.field.q, self.enum, self.dual)

    @cached_property
    def certificate(self) -> qcc.EntanglementCertificate | None:
        """The base code's entanglement certificate, tested when f is coprime."""
        return qcc.entanglement_certificate(self.code) if self.code.f_coprime else None

    @cached_property
    def eaqecc(self) -> quantum.MaximalPair | quantum.EaqeccParams | None:
        """What a satisfied certificate gives: the maximal pair of a base
        code, or the maximal code of a rank-preserving extension."""
        cert = self.certificate
        if not (cert and cert.satisfied):
            return None
        if self.ext is None:
            return quantum.maximal_pair(self.code, self.distance, self.dual_distance, cert)
        if self.ext.rule == qcc.RULE_GRAM_RANK:
            return quantum.extended_maximal_eaqecc(self.ext, self.dual_distance, cert)
        return None


# what `Evaluation.extended` copies from the base evaluation
_BASE_INPUTS = tuple(f.name for f in fields(Evaluation) if f.name not in ("xs", "alphas"))
