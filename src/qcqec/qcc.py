"""One-generator quasi-cyclic codes of index 2 and their column extensions.

A code instance has length 2n over GF(q^2).  Generator row i is the pair
(x^i g, x^i f g) reduced mod x^n - 1, so the left block is a circulant slice
of g and the right block a circulant slice of f*g.  The parity-check matrix
stacks a circulant of the conjugate-reciprocal complement of g on top of
(circulant of -conj_rev(f) | I_n).

Extensions append one or two columns plus matching rows built from vectors in
the Hermitian duals of the two block codes.  Two preservation rules exist:
the unit-alpha rule keeps Hermitian self-orthogonality, the general rule
keeps the Gram matrix at full rank (used for entanglement-assisted codes).

Everything that depends on g alone (G1, H1, the conjugate-reciprocal dual
generator, the left-block parity check, the divisibility test and the H1
projector of the entanglement certificate) is kept for the last
(field, n, g) seen, since a search builds the codes of all its f for one g
in a row; one entry keeps the memory a table run holds on to small.
Callers only ever see copies of the cached matrices.
"""

from dataclasses import dataclass
from functools import lru_cache

from . import famat, polyring
from .errors import BudgetExceeded, PreconditionError
from .gf import Field

RULE_ORTHOGONAL = "preserve-orthogonality"
RULE_GRAM_RANK = "preserve-gram-rank"

# exhaustive dual scans stop above ~4.3e7 candidates
_SCAN_CAPS = {4: 4 ** 12, 9: 9 ** 8, 81: 81 ** 4}


@dataclass(frozen=True, eq=False)
class QcCode:
    field: Field
    n: int
    f: tuple
    g: tuple
    k: int
    G1: famat.Mat
    G2: famat.Mat
    H1: famat.Mat
    H2: famat.Mat
    G: famat.Mat
    H: famat.Mat
    dual_g: tuple
    f_coprime: bool
    orthogonal_gram: bool
    orthogonal_divisibility: bool

    @property
    def length(self) -> int:
        return 2 * self.n

    def gram(self) -> famat.Mat:
        return famat.gram_hermitian(self.G)


@dataclass(frozen=True, eq=False)
class ExtendedCode:
    base: QcCode
    xs: tuple
    alphas: tuple
    G: famat.Mat
    rule: str
    gram_rank: int
    self_products: tuple

    @property
    def columns_added(self) -> int:
        return len(self.xs)

    @property
    def length(self) -> int:
        return self.base.length + self.columns_added

    @property
    def dim(self) -> int:
        return self.base.k + self.columns_added


def hermitian_self_product(field: Field, vec) -> int:
    """<v,v>_h = sum of v_i^(q+1); lands in the subfield GF(q)."""
    acc = 0
    for d in vec:
        acc = field.add(acc, field.norm_q(d))
    return acc


def double_shift(vec) -> tuple:
    """Simultaneous cyclic right shift of both halves of a length-2n vector."""
    n = len(vec) // 2
    return polyring.cyclic_shift(vec[:n], 1) + polyring.cyclic_shift(vec[n:], 1)


@dataclass(frozen=True, eq=False)
class _GeneratorBlocks:
    """The part of a code that depends on g alone; G1 and H1 are never
    handed out, only copies of them."""

    k: int
    G1: famat.Mat
    H1: famat.Mat
    dual_g: tuple
    orthogonal_divisibility: bool


@lru_cache(maxsize=1)
def _generator_blocks(field: Field, n: int, g: tuple) -> _GeneratorBlocks:
    if not polyring.divides(field, g, polyring.x_pow_n_minus_1(field, n)):
        raise PreconditionError("g-not-divisor", f"g does not divide x^{n}-1")
    k = n - polyring.deg(g)
    G1 = famat.mat_from_poly(field, n, g, k)
    dual_g = polyring.dual_gen(field, n, g)
    H1 = famat.mat_from_poly(field, n, dual_g, n - k)
    # left half of the block identity G H^dag = (G1 H1^dag | G1 H2^dag + G2)
    if not G1.mul(H1.dagger()).is_zero():
        raise AssertionError("parity check violated on left block")
    return _GeneratorBlocks(k, G1, H1, dual_g, polyring.divides(field, dual_g, g))


@lru_cache(maxsize=1)
def _h1_projector(field: Field, n: int, g: tuple) -> famat.Mat | None:
    """H1^dag (H1 H1^dag)^-1 H1, or None when H1 H1^dag is singular."""
    H1 = _generator_blocks(field, n, g).H1
    H1d = H1.dagger()
    try:
        h1_gram_inv = famat.inverse(H1.mul(H1d))
    except famat.SingularMatrixError:
        return None
    return H1d.mul(h1_gram_inv).mul(H1)


def build(field: Field, n: int, f, g) -> QcCode:
    """Construct the code generated by (g, f*g) with all derived matrices.

    g must divide x^n - 1.  f is reduced mod x^n - 1 and may be zero (the
    right block degenerates; flagged via f_coprime=False).
    """
    f = tuple(field.check_digit(d) for d in f)
    g = polyring.trim(tuple(field.check_digit(d) for d in g))
    if len(f) > n:
        f = polyring.ring_from_plain(field, n, f)
    blocks = _generator_blocks(field, n, g)
    k = blocks.k

    fg = polyring.ring_mul(field, n, f, g)
    G1 = blocks.G1.copy()
    G2 = famat.mat_from_poly(field, n, fg, k)
    G = famat.hstack(G1, G2)

    neg_conj_rev_f = polyring.poly_neg(
        field, polyring.frob_poly(field, polyring.bar(polyring.ring_from_plain(field, n, f)))
    )
    H1 = blocks.H1.copy()
    H2 = famat.mat_from_poly(field, n, neg_conj_rev_f, n)
    H = famat.vstack(
        famat.hstack(H1, famat.Mat.zeros(field, n - k, n)),
        famat.hstack(H2, famat.Mat.identity(field, n)),
    )
    # the left half of the block identity is checked once per g
    if not G1.mul(H2.dagger()).add(G2).is_zero():
        raise AssertionError("parity check violated on right block")

    gram = famat.gram_hermitian(G)
    code = QcCode(
        field=field,
        n=n,
        f=polyring.ring_from_plain(field, n, f),
        g=g,
        k=k,
        G1=G1,
        G2=G2,
        H1=H1,
        H2=H2,
        G=G,
        H=H,
        dual_g=blocks.dual_g,
        f_coprime=polyring.poly_gcd(field, f, polyring.x_pow_n_minus_1(field, n)) == (1,),
        orthogonal_gram=gram.is_zero(),
        orthogonal_divisibility=blocks.orthogonal_divisibility,
    )
    # divisibility is a sufficient condition, never weaker than the Gram test
    if code.orthogonal_divisibility and not code.orthogonal_gram:
        raise AssertionError("dual_g divides g, yet G G^dag is nonzero")
    return code


def block_code_generator(code: QcCode, side: int) -> tuple:
    """Generator polynomial of the cyclic code spanned by G1 (side 1) or G2."""
    if side not in (1, 2):
        raise ValueError("side must be 1 or 2")
    gen = code.g if side == 1 else polyring.ring_mul(code.field, code.n, code.f, code.g)
    xn1 = polyring.x_pow_n_minus_1(code.field, code.n)
    return polyring.monic(code.field, polyring.poly_gcd(code.field, gen, xn1))


def block_dual_basis(code: QcCode, side: int) -> famat.Mat:
    """Circulant basis of the Hermitian dual of the side's block code."""
    cyc = block_code_generator(code, side)
    dual = polyring.dual_gen(code.field, code.n, cyc)
    return famat.mat_from_poly(code.field, code.n, dual, polyring.deg(cyc))


def find_extension_vector(code: QcCode, side: int, alpha: int | None = None, scan_cap: int | None = None) -> tuple:
    """First dual codeword (lexicographic message order) usable as an extension row.

    alpha=None selects the self-orthogonality rule <x,x> = p-1; a nonzero
    alpha selects the rank rule <x,x> != (p-1) * alpha^(q+1).
    """
    field = code.field
    basis = block_dual_basis(code, side)
    dim = basis.nrows
    cap = scan_cap if scan_cap is not None else _SCAN_CAPS[field.Q]
    if field.Q ** dim > cap:
        raise BudgetExceeded(field.Q ** dim, cap, what="extension-vector-scan")

    if alpha is None:
        target = field.from_int(field.p - 1)
        want_equal = True
    else:
        alpha = field.check_digit(alpha)
        if alpha == 0:
            raise PreconditionError("alpha-zero", "extension column scalar must be nonzero")
        target = field.mul(field.from_int(field.p - 1), field.norm_q(alpha))
        want_equal = False

    rows = [basis.row(i) for i in range(dim)]
    add, mul = field.add_table, field.mul_table
    stack = [(0, [0] * code.n)]  # depth-first in message-digit order = lexicographic
    while stack:
        depth, acc = stack.pop()
        if depth == dim:
            prod = hermitian_self_product(field, acc)
            if (prod == target) == want_equal and any(acc):
                return tuple(acc)
            continue
        row = rows[depth]
        for digit in reversed(field.digits):
            if digit == 0:
                stack.append((depth + 1, acc))
            else:
                m = mul[digit]
                stack.append((depth + 1, [add[a][m[r]] for a, r in zip(acc, row)]))
    raise PreconditionError(
        "no-qualifying-vector",
        f"no dual codeword on side {side} satisfies the extension rule",
    )


def extend_one(code: QcCode, x1, alpha1: int = 1) -> ExtendedCode:
    return _extend(code, (x1,), (alpha1,))


def extend_two(code: QcCode, x1, x2, alpha1: int = 1, alpha2: int = 1) -> ExtendedCode:
    return _extend(code, (x1, x2), (alpha1, alpha2))


def _extend(code: QcCode, xs, alphas) -> ExtendedCode:
    field, n, k = code.field, code.n, code.k
    cols = len(xs)
    xs = tuple(tuple(field.check_digit(d) for d in x) for x in xs)
    alphas = tuple(field.check_digit(a) for a in alphas)
    for x in xs:
        if len(x) != n:
            raise PreconditionError("bad-extension-length", f"extension vectors must have length {n}")
    for a in alphas:
        if a == 0:
            raise PreconditionError("alpha-zero", "extension column scalar must be nonzero")

    for i, x in enumerate(xs):
        block = code.G1 if i == 0 else code.G2
        if not famat.Mat(field, [list(x)]).mul(block.dagger()).is_zero():
            raise PreconditionError("not-in-dual", f"x{i + 1} is not in the block code's Hermitian dual")

    products = tuple(hermitian_self_product(field, x) for x in xs)
    p_minus_1 = field.from_int(field.p - 1)
    unit_rule = all(a == 1 for a in alphas) and all(pr == p_minus_1 for pr in products)
    if unit_rule:
        rule = RULE_ORTHOGONAL
        if not code.orthogonal_gram:
            raise PreconditionError("base-not-self-orthogonal", "self-orthogonality rule needs GG^dag = 0")
    else:
        rule = RULE_GRAM_RANK
        if field.q == 2:
            raise PreconditionError("wrong-field-size", "the rank-preserving rule needs q > 2")
        for a, pr in zip(alphas, products):
            if pr == field.mul(p_minus_1, field.norm_q(a)):
                raise PreconditionError("wrong-self-product", "<x,x> equals (p-1)*alpha^(q+1)")

    pad = famat.Mat.zeros(field, k, cols)
    rows = [famat.hstack(code.G, pad)]
    zero_n = (0,) * n
    if cols == 1:
        rows.append(famat.Mat(field, [list(xs[0] + zero_n + (alphas[0],))]))
    else:
        rows.append(famat.Mat(field, [list(xs[0] + zero_n + (alphas[0], 0))]))
        rows.append(famat.Mat(field, [list(zero_n + xs[1] + (0, alphas[1]))]))
    G = rows[0]
    for r in rows[1:]:
        G = famat.vstack(G, r)

    gram = famat.gram_hermitian(G)
    gram_rank = famat.rank(gram)
    if rule == RULE_ORTHOGONAL:
        if not gram.is_zero():
            raise AssertionError("extension broke self-orthogonality")
    elif gram_rank != k + cols:
        raise PreconditionError(
            "base-gram-rank-deficient",
            f"extended Gram rank {gram_rank} != {k + cols}; base code has a nonzero Hermitian hull",
        )
    return ExtendedCode(
        base=code,
        xs=xs,
        alphas=alphas,
        G=G,
        rule=rule,
        gram_rank=gram_rank,
        self_products=products,
    )


@dataclass(frozen=True, eq=False)
class EntanglementCertificate:
    """Conditions under which the code/dual pair gives maximal-entanglement codes.

    p_matrix is H1^dag (H1 H1^dag)^-1 H1 - (H2^dag H2)^-1; the certificate
    holds when H1 H1^dag is nonsingular and 1 is not an eigenvalue of P
    (tested division-free as rank(P - I) = n).
    """

    h1_gram_nonsingular: bool
    one_not_eigenvalue: bool
    p_matrix: famat.Mat | None
    char_poly_p: tuple | None

    @property
    def satisfied(self) -> bool:
        return self.h1_gram_nonsingular and self.one_not_eigenvalue


def entanglement_certificate(code: QcCode) -> EntanglementCertificate:
    if not code.f_coprime:
        raise PreconditionError("f-not-coprime", "certificate needs gcd(f, x^n - 1) = 1")
    field, n = code.field, code.n
    projector = _h1_projector(field, n, code.g)
    if projector is None:
        return EntanglementCertificate(False, False, None, None)
    # gcd(f, x^n - 1) = 1 makes the circulant of f, hence H2, invertible
    h2_gram_inv = famat.inverse(code.H2.dagger().mul(code.H2))
    p = projector.sub(h2_gram_inv)
    one_not_eig = famat.rank(p.sub(famat.Mat.identity(field, n))) == n
    return EntanglementCertificate(True, one_not_eig, p, famat.char_poly(p))
