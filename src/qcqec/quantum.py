"""Quantum code parameters derived from classical codes over GF(q^2).

A Hermitian self-orthogonal [n,k] code yields a stabilizer code
[[n, n-2k, d]]_q whose distance is the minimum weight of the Hermitian dual
outside the code itself (falling back to the dual distance when the two
enumerators coincide).  Any [n,k] code yields an entanglement-assisted code
[[n, 2k-n+c, d; c]]_q with c the rank of H H^dag; the quasi-cyclic codes
with a satisfied entanglement certificate give a pair of maximal-entanglement
codes at once, and their rank-preserving extensions give two more.
"""

from dataclasses import dataclass
from math import comb

from . import qcc, wdist
from .errors import InvariantError, PreconditionError, SpecError


@dataclass(frozen=True)
class QeccParams:
    q: int
    n: int
    k: int
    d: int | None
    pure: bool | None = None

    def __post_init__(self):
        if not 0 <= self.k <= self.n:
            raise SpecError(f"invalid stabilizer dimensions [[{self.n},{self.k}]]")
        if self.d is not None and not 1 <= self.d <= self.n:
            raise SpecError(f"invalid distance {self.d} for length {self.n}")

    def __str__(self):
        d = "?" if self.d is None else self.d
        return f"[[{self.n},{self.k},{d}]]_{self.q}"


@dataclass(frozen=True)
class EaqeccParams:
    q: int
    n: int
    k: int
    d: int | None
    c: int

    def __post_init__(self):
        if not 0 <= self.k <= self.n or not 0 <= self.c <= self.n or self.k + self.c > self.n:
            raise SpecError(f"invalid assisted dimensions [[{self.n},{self.k};{self.c}]]")
        if self.d is not None and not 1 <= self.d <= self.n:
            raise SpecError(f"invalid distance {self.d} for length {self.n}")

    @property
    def maximal(self) -> bool:
        return self.c == self.n - self.k

    def __str__(self):
        d = "?" if self.d is None else self.d
        return f"[[{self.n},{self.k},{d};{self.c}]]_{self.q}"


def qecc_from_self_orthogonal(q: int, enum: wdist.WeightEnumerator, dual_enum: wdist.WeightEnumerator) -> QeccParams:
    """Stabilizer code of a Hermitian self-orthogonal [n,k]_{q^2} code.

    The caller vouches for self-orthogonality; enum is the code's weight
    enumerator and dual_enum its Hermitian dual's.
    """
    d_dual = dual_enum.distance()
    d = wdist.impure_distance(enum, dual_enum)
    if d is None:
        d = d_dual
    pure = None if d is None else d == d_dual
    return QeccParams(q, enum.n, enum.n - 2 * enum.k, d, pure)


def lengthen(params: QeccParams) -> QeccParams:
    """Propagation rule [[n,k,d]] -> [[n+1,k,d]]; purity is not preserved."""
    return QeccParams(params.q, params.n + 1, params.k, params.d, None)


@dataclass(frozen=True)
class GvVerdict:
    """Existence threshold comparison for [[n,k,d]]_q stabilizer codes.

    The bound applies when n > k >= 2, n = k (mod 2) and d >= 2; it then
    guarantees existence when lhs > rhs.  A constructed code whose parameters
    fail that inequality sits beyond what the bound promises.
    """

    q: int
    n: int
    k: int
    d: int
    applicable: bool
    lhs: int | None
    rhs: int | None

    @property
    def guaranteed(self) -> bool | None:
        return None if not self.applicable else self.lhs > self.rhs

    @property
    def exceeds(self) -> bool | None:
        return None if not self.applicable else self.lhs <= self.rhs


def gv_verdict(q: int, n: int, k: int, d: int) -> GvVerdict:
    if q < 2:
        raise SpecError(f"q must be at least 2, got {q}")
    applicable = n > k >= 2 and (n - k) % 2 == 0 and d >= 2
    if not applicable:
        return GvVerdict(q, n, k, d, False, None, None)
    lhs, rem = divmod(q ** (n - k + 2) - 1, q * q - 1)
    if rem:
        raise InvariantError(f"q^2 - 1 does not divide q^{n - k + 2} - 1")
    rhs = sum((q * q - 1) ** (i - 1) * comb(n, i) for i in range(1, d))
    return GvVerdict(q, n, k, d, True, lhs, rhs)


def entanglement_count(code: qcc.QcCode) -> int:
    """c = rank(H H^dag) for the code's full-rank parity-check matrix H.

    The Hermitian hulls of a code and of its dual coincide, so
    rank(H H^dag) = (2n - k) - (k - rank(G G^dag)); the Gram rank is read
    off the ring (`QcCode.gram_rank`).
    """
    return code.gram_rank + code.length - 2 * code.k


@dataclass(frozen=True)
class MaximalPair:
    primal: EaqeccParams
    dual: EaqeccParams


def maximal_pair(code: qcc.QcCode, d_primal: int | None, d_dual: int | None,
                 cert: qcc.EntanglementCertificate) -> MaximalPair:
    """The two maximal-entanglement codes of a certificate-satisfying base.

    d_primal is the code's minimum distance, d_dual its Hermitian dual's,
    cert the code's entanglement certificate.
    """
    if not cert.satisfied:
        raise PreconditionError("certificate-failed", "entanglement certificate conditions not met")
    q, n2, k = code.field.q, code.length, code.k
    primal = EaqeccParams(q, n2, k, d_primal, n2 - k)
    dual = EaqeccParams(q, n2, n2 - k, d_dual, k)
    if not (primal.maximal and dual.maximal):
        raise InvariantError(f"pair {primal} / {dual} is not maximal")
    c = entanglement_count(code)
    if c != n2 - k:
        raise InvariantError(f"entanglement count {c} != n - k = {n2 - k}")
    return MaximalPair(primal, dual)


def extended_maximal_eaqecc(ext: qcc.ExtendedCode, d_dual: int | None,
                            cert: qcc.EntanglementCertificate) -> EaqeccParams:
    """Maximal-entanglement code of a rank-preserving column extension.

    d_dual is the Hermitian dual distance of the extended code; cert is the
    base code's entanglement certificate, which must be satisfied.
    """
    if ext.rule != qcc.RULE_GRAM_RANK:
        raise PreconditionError("wrong-rule", "needs a rank-preserving extension")
    if not cert.satisfied:
        raise PreconditionError("certificate-failed", "entanglement certificate conditions not met")
    q = ext.base.field.q
    params = EaqeccParams(q, ext.length, ext.length - ext.dim, d_dual, ext.dim)
    if not params.maximal:
        raise InvariantError(f"{params} is not maximal")
    return params
