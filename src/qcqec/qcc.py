"""One-generator quasi-cyclic codes of index 2 and their column extensions.

A code instance has length 2n over GF(q^2).  Generator row i < k is the
pair (x^i g, x^i f g) reduced mod x^n - 1, so the left block is a circulant
slice of g and the right block a circulant slice of f*g.  The rows are
independent by construction: g divides x^n - 1, so g(0) != 0 and the lowest
nonzero entry of x^i g sits in column i.  The parity-check matrix
stacks a circulant of the conjugate-reciprocal complement of g on top of
(circulant of -conj_rev(f) | I_n).

Extensions append one or two columns plus matching rows (x_i | alpha_i),
x_i in the Hermitian dual of block code i.  Each column adds `column_gram`
to the Gram matrix (last item below): zero, with alpha_i = 1, keeps
Hermitian self-orthogonality; nonzero keeps a full rank (used for
entanglement-assisted codes).

All these matrices are made of circulant blocks, so every test on a code is
a computation in the ring GF(q^2)[x]/(x^n - 1).  Write circ(a) for the
matrix whose rows are x^i a and ā for conj(a)(x^-1) (`polyring.conj_rev`);
then circ(a) circ(b) = circ(ab), circ(a)^dag = circ(ā), and the Hermitian
product <x^i a, x^j b> is the coefficient of x^(j-i) in a b̄.  So:

* G G^dag is the top-left k x k block of circ(T), T = g ḡ (1 + f f̄).  T lies
  in <g>, where any k consecutive coordinates are an information set, so
  the Gram matrix is zero iff T = 0, and its rank is that of circ(T),
  n - deg gcd(T, x^n - 1).
* The block identity G H^dag = 0 reads g conj_rev(dual_g) = 0 on the left
  and g conj_rev(h2) + f g = 0 on the right, where h2 = -f̄ is H2's first
  row; conj_rev is an involution, so conj_rev(h2) = -f.
* H1 is made of the circulant rows of d = dual_g, so H1 H1^dag is
  nonsingular iff the cyclic code <d> meets its Hermitian dual only in
  zero.  By the Hermitian form of the condition of Yang and Massey (1994),
  that holds iff d is conjugate self-reciprocal, monic(conj(x^deg d
  d(1/x))) = monic(d), and coprime to h = (x^n - 1)/d.  Then
  H1^dag (H1 H1^dag)^-1 H1 = circ(e), with e = d (d^-1 mod h) the
  idempotent of <d> (e = 0 mod d, e = 1 mod h), and since
  H2^dag H2 = circ(f f̄), the certificate's P is circ(e - u), u = (f f̄)^-1.
  Modulo the factors of h, e - u - 1 = -u; modulo those of d it is
  -u (1 + f f̄).  So 1 is not an eigenvalue of P iff gcd(1 + f f̄, d) = 1.
* x lies in the Hermitian dual of the left (right) block code iff x ḡ = 0
  (x (f g)‾ = 0), and the Gram matrix of an extension is block diagonal:
  G G^dag, then column_gram = <x_i, x_i> + alpha_i^(q+1) for each added
  column.
* The block dual is {m d : deg m < r} (`block_dual`), and an extension
  takes its first word, in the lexicographic order of the messages m on
  the rows x^i d, that the rule accepts.  That word is read off c = d d̄:
  <x^a d, x^(a+t) d> = c_t and c_(-t) = conj(c_t).  c lies in <d>, of
  dimension r, so c = 0 if c_t = 0 for all t < r: the dual is isotropic.
  Else let t0 be the least t < r with c_t != 0.  The first Q^j messages
  are the words on the last j rows, isotropic for j <= t0.  The norm maps
  GF(q^2)^* onto GF(q)^* and a nonzero trace form is onto GF(q).  So for
  the orthogonality rule (<x,x> = -1) no word qualifies if c = 0, and else
  the first is x^(r-1-t0) d + s x^(r-1) d (s x^(r-1) d if t0 = 0), s the
  least digit that qualifies.  For the rank rule (<x,x> != -alpha^(q+1),
  q > 2) it is x^(r-1) d, or 2 x^(r-1) d when that fails: N(2) != 1.

G of a code (built in one pass from its rows), G of an extension and the
characteristic polynomial of P (read off the factors of x^n - 1, with no
matrix) are built when first read; every later read returns the same object.

The orbit plan of `wdist.enumerate_code` (its module docstring has the
algebra) depends on g alone and is kept per (field, n, g, columns added).
Levels are chosen greedily: among the irreducible factors m of h not yet
taken, the one whose N fibers plus the projective scan of the rest cost
least by `wdist.unit_seconds`, while that beats scanning the rest
projectively now.  |H1| = lcm(ord_m(x), Q - 1), and the representatives
are the first N powers of the first primitive element of GF(Q)[x]/(m).
The plan's rows are x^i M (g | f g) for i < deg m_j, M the product of the
factors taken before level j, then x^i M (g | f g) for the rest, a basis
since a message of degree < k is uniquely a + b m_j with deg a < deg m_j;
the extension rows lead.  A length n divisible by p takes no plan (h is
then not squarefree), and neither does a code scanned in one step, which
builds nothing.

What depends on g alone (k, the conjugate-reciprocal dual generator, g ḡ,
the divisibility test and whether H1 H1^dag is nonsingular) is kept for
the last (field, n, g) seen, since a search builds the codes of all its f
for one g in a row; one entry keeps the memory a table run holds on to
small.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

from . import famat, polyring, wdist
from .errors import PreconditionError
from .gf import Field

RULE_ORTHOGONAL = "preserve-orthogonality"
RULE_GRAM_RANK = "preserve-gram-rank"


@dataclass(frozen=True, eq=False)
class QcCode:
    """The code generated by (g, f g); f, f g, f f̄ and gram_poly (T above)
    are length-n ring vectors, g and dual_g plain polynomials."""

    field: Field
    n: int
    f: tuple
    g: tuple
    k: int
    fg: tuple
    f_f_bar: tuple
    gram_poly: tuple
    dual_g: tuple
    orthogonal_gram: bool
    orthogonal_divisibility: bool
    h1_gram_nonsingular: bool

    @property
    def length(self) -> int:
        return 2 * self.n

    @cached_property
    def f_coprime(self) -> bool:
        """gcd(f, x^n - 1) = 1, i.e. f is a unit of the ring."""
        return polyring.is_unit(self.field, self.n, self.f)

    @cached_property
    def gram_rank(self) -> int:
        """rank(G G^dag) = n - deg gcd(T, x^n - 1)."""
        if self.orthogonal_gram:
            return 0
        xn1 = polyring.x_pow_n_minus_1(self.field, self.n)
        return self.n - polyring.deg(polyring.poly_gcd(self.field, self.gram_poly, xn1))

    @cached_property
    def G(self) -> famat.Mat:
        """The k rows x^i (g | f g), in one pass."""
        g = self.g + (0,) * (self.n - len(self.g))
        rows = [polyring.cyclic_shift(g, i) + polyring.cyclic_shift(self.fg, i) for i in range(self.k)]
        return famat.Mat(self.field, rows, 2 * self.n)

    @property
    def orbit_plan(self) -> wdist.OrbitPlan | None:
        """How `wdist.enumerate_code` splits the scan of G (module docstring)."""
        return _orbit_plan(self.field, self.n, self.g, 0)


@dataclass(frozen=True, eq=False)
class ExtendedCode:
    base: QcCode
    xs: tuple
    alphas: tuple
    rule: str
    gram_rank: int

    @property
    def columns_added(self) -> int:
        return len(self.xs)

    @property
    def length(self) -> int:
        return self.base.length + self.columns_added

    @property
    def dim(self) -> int:
        return self.base.k + self.columns_added

    @cached_property
    def G(self) -> famat.Mat:
        """(G | 0), then per vector x_i one row with x_i on block i and
        alpha_i in added column i."""
        n, cols = self.base.n, self.columns_added
        rows = [r + [0] * cols for r in self.base.G.rows]
        for i, (x, alpha) in enumerate(zip(self.xs, self.alphas)):
            row = [0] * (2 * n + cols)
            row[i * n:(i + 1) * n] = x
            row[2 * n + i] = alpha
            rows.append(row)
        return famat.Mat(self.base.field, rows)

    @property
    def orbit_plan(self) -> wdist.OrbitPlan | None:
        """The base code's plan behind the extension rows (module docstring)."""
        base = self.base
        return _orbit_plan(base.field, base.n, base.g, self.columns_added)


def hermitian_self_product(field: Field, vec) -> int:
    """<v,v>_h = sum of v_i^(q+1); lands in the subfield GF(q)."""
    acc = 0
    for d in vec:
        acc = field.add(acc, field.norm_q(d))
    return acc


@dataclass(frozen=True, eq=False)
class _GeneratorBlocks:
    """The part of a code that depends on g alone."""

    k: int
    dual_g: tuple
    g_g_bar: tuple
    orthogonal_divisibility: bool
    h1_gram_nonsingular: bool


@lru_cache(maxsize=1)
def _generator_blocks(field: Field, n: int, g: tuple) -> _GeneratorBlocks:
    if not polyring.divides(field, g, polyring.x_pow_n_minus_1(field, n)):
        raise PreconditionError("g-not-divisor", f"g does not divide x^{n}-1")
    dual_g = polyring.dual_gen(field, n, g)
    # left half of the block identity G H^dag = 0
    if any(polyring.ring_mul(field, n, g, polyring.conj_rev(field, n, dual_g))):
        raise AssertionError("parity check violated on left block")
    g_g_bar = polyring.ring_mul(field, n, g, polyring.conj_rev(field, n, g))
    # <dual_g> meets its Hermitian dual only in zero (module docstring)
    lcd = (polyring.monic(field, polyring.frob_poly(field, polyring.reciprocal(dual_g)))
           == polyring.monic(field, dual_g)
           and polyring.poly_gcd(field, dual_g, polyring.quotient_exact_checked(field, n, dual_g)) == (1,))
    return _GeneratorBlocks(n - polyring.deg(g), dual_g, g_g_bar,
                            polyring.divides(field, dual_g, g), lcd)


@lru_cache(maxsize=8)
def _orbit_levels(field: Field, n: int, g: tuple) -> tuple:
    """The levels of the orbit scan of the codes of g, as (m, |H1|, reps),
    chosen greedily by the scan's cost model (module docstring)."""
    if n % field.p == 0:
        return ()
    Q = field.Q
    k = n - polyring.deg(g)
    inner = wdist.table_rows(field, k, 2 * n)

    def cost(d, mult, rows):  # N fibers, then the rest scanned projectively
        return ((Q ** d - 1) // mult * wdist.unit_seconds(field, 2 * n, inner, rows - d)
                + wdist.projective_seconds(field, 2 * n, inner, rows - d))

    # the first choice depends on (d, |H1|) alone, which the Q-cyclotomic
    # coset of s gives for the factor with the roots alpha^s: d = |coset|
    # and ord(x) = n / gcd(n, s); when no coset passes, nothing is factored
    shapes = {(len(c), math.lcm(n // math.gcd(n, c[0]), Q - 1)) for c in polyring.cyclotomic_cosets(Q, n)}
    projective = wdist.projective_seconds(field, 2 * n, inner, k)
    if all(d > k or cost(d, mult, k) >= projective for d, mult in shapes):
        return ()
    h = polyring.quotient_exact_checked(field, n, g)
    factors = [(m, polyring.deg(m), math.lcm(polyring.x_order(field, m, n), Q - 1))
               for m in polyring.factor_xn_minus_1(field, n) if polyring.divides(field, m, h)]
    levels, rows = [], k
    while True:
        best, choice = wdist.projective_seconds(field, 2 * n, inner, rows), None
        for m, d, mult in factors:
            if cost(d, mult, rows) < best:
                best, choice = cost(d, mult, rows), (m, d, mult)
        if choice is None:
            return tuple(levels)
        factors.remove(choice)
        m, d, mult = choice
        # the cosets of H1 = <x, GF(Q)*> in GF(Q^d)* are gamma^j H1, j < N
        reps, r = [], (field.one,)
        gamma = polyring.primitive_element(field, m) if Q ** d - 1 > mult else None
        for j in range((Q ** d - 1) // mult):
            if j:
                r = polyring.poly_mod(field, polyring.poly_mul(field, r, gamma), m)
            reps.append(r + (0,) * (d - len(r)))
        levels.append((m, mult, tuple(reps)))
        rows -= d


@lru_cache(maxsize=8)
def _orbit_plan(field: Field, n: int, g: tuple, cols: int) -> wdist.OrbitPlan | None:
    """The orbit plan of the codes of g extended by cols columns, or None
    when they are scanned in one step or it takes no level.  Its basis is
    written in the messages of G: the rows x^i of the base code, then the
    extension rows."""
    k = n - polyring.deg(g)
    if wdist.table_rows(field, k + cols, 2 * n + cols) == k + cols:
        return None
    levels = _orbit_levels(field, n, g)
    if not levels:
        return None
    basis, prefix = [], (field.one,)
    for m, _, _ in levels:
        basis += [(0,) * i + prefix for i in range(polyring.deg(m))]
        prefix = polyring.poly_mul(field, prefix, m)
    basis += [(0,) * i + prefix for i in range(k + 1 - len(prefix))]
    basis = [row + (0,) * (k + cols - len(row)) for row in basis]
    lead = [(0,) * (k + i) + (1,) + (0,) * (cols - 1 - i) for i in range(cols)]
    return wdist.OrbitPlan(tuple(lead + basis), cols,
                           tuple((mult, reps) for _, mult, reps in levels))


def build(field: Field, n: int, f, g) -> QcCode:
    """The code generated by (g, f*g), tested in the ring; its matrices are
    built when first read.

    g must divide x^n - 1.  f is reduced mod x^n - 1 and may be zero (the
    right block degenerates; flagged via f_coprime=False).  Digits are
    not checked here but where they come in: a spec's parser, the search's
    draws and `pipeline.Evaluation`.
    """
    g = polyring.trim(g)
    blocks = _generator_blocks(field, n, g)
    f = polyring.ring_from_plain(field, n, f)
    fg = polyring.ring_mul(field, n, f, g)
    # right half of the block identity; H2's first row is -f̄, whose
    # conj_rev is -f
    if polyring.poly_add(field, polyring.ring_mul(field, n, g, polyring.poly_neg(field, f)), fg):
        raise AssertionError("parity check violated on right block")
    f_bar = polyring.conj_rev(field, n, f)
    f_f_bar = polyring.ring_mul(field, n, f, f_bar)
    gram_poly = polyring.ring_mul(field, n, blocks.g_g_bar, polyring.poly_add(field, (field.one,), f_f_bar))
    code = QcCode(
        field=field,
        n=n,
        f=f,
        g=g,
        k=blocks.k,
        fg=fg,
        f_f_bar=f_f_bar,
        gram_poly=gram_poly,
        dual_g=blocks.dual_g,
        orthogonal_gram=not any(gram_poly),
        orthogonal_divisibility=blocks.orthogonal_divisibility,
        h1_gram_nonsingular=blocks.h1_gram_nonsingular,
    )
    # divisibility is a sufficient condition, never weaker than the Gram test
    if code.orthogonal_divisibility and not code.orthogonal_gram:
        raise AssertionError("dual_g divides g, yet G G^dag is nonzero")
    return code


def block_dual(code: QcCode, side: int) -> tuple[tuple, int]:
    """(d, r) for the Hermitian dual of the cyclic code spanned by the left
    (side 1) or right (side 2) block of G: with r = deg gcd(g or f g,
    x^n - 1), the dual is {m d : deg m < r}, and d is a ring vector."""
    if side not in (1, 2):
        raise ValueError("side must be 1 or 2")
    field, n = code.field, code.n
    cyc = polyring.poly_gcd(field, code.g if side == 1 else code.fg,
                            polyring.x_pow_n_minus_1(field, n))
    return polyring.ring_from_plain(field, n, polyring.dual_gen(field, n, cyc)), polyring.deg(cyc)


def column_gram(field: Field, x, alpha: int) -> int:
    """<x,x> + alpha^(q+1), the Gram entry of the column that the row
    (x | alpha) adds.  Zero keeps a zero Gram matrix zero (with alpha = 1,
    the orthogonality rule); nonzero adds one to its rank."""
    return field.add(hermitian_self_product(field, x), field.norm_q(alpha))


def find_extension_vector(code: QcCode, side: int, alpha: int | None = None) -> tuple:
    """First word of the side's block dual, in lexicographic message order,
    usable as an extension row.

    alpha=None selects the orthogonality rule column_gram(x, 1) = 0; a
    nonzero alpha selects the rank rule column_gram(x, alpha) != 0, which
    q = 2 never allows (`_extend`), so it is refused at once.  The word is
    read off d d̄ (module docstring) with at most Q - 1 column_gram tests.
    """
    field, n = code.field, code.n
    orthogonal = alpha is None
    alpha = 1 if orthogonal else field.check_digit(alpha)
    if alpha == 0:
        raise PreconditionError("alpha-zero", "extension column scalar must be nonzero")
    if field.q == 2 and not orthogonal:
        raise PreconditionError("wrong-field-size", "the rank-preserving rule needs q > 2")

    d, r = block_dual(code, side)
    base, scalars = (0,) * n, range(1, field.Q)
    if orthogonal:
        c = polyring.ring_mul(field, n, d, polyring.conj_rev(field, n, d))
        t0 = next((t for t in range(r) if c[t]), None)
        if t0 is None:  # c = 0: the dual is isotropic
            scalars = ()
        elif t0:
            base = polyring.cyclic_shift(d, r - 1 - t0)
    top = polyring.cyclic_shift(d, r - 1)
    add, mul = field.add_table, field.mul_table
    for s in scalars:
        x = tuple(add[b][mul[s][t]] for b, t in zip(base, top))
        if any(x) and (column_gram(field, x, alpha) == 0) == orthogonal:
            return x
    raise PreconditionError("no-qualifying-vector",
                            f"no dual codeword on side {side} satisfies the extension rule")


def extend_one(code: QcCode, x1, alpha1: int = 1) -> ExtendedCode:
    return _extend(code, (x1,), (alpha1,))


def extend_two(code: QcCode, x1, x2, alpha1: int = 1, alpha2: int = 1) -> ExtendedCode:
    return _extend(code, (x1, x2), (alpha1, alpha2))


def _extend(code: QcCode, xs, alphas) -> ExtendedCode:
    """The extension of code by the columns xs with scalars alphas; digits
    are taken as given, as in `build`."""
    field, n, k = code.field, code.n, code.k
    cols = len(xs)
    xs = tuple(tuple(x) for x in xs)
    for x in xs:
        if len(x) != n:
            raise PreconditionError("bad-extension-length", f"extension vectors must have length {n}")
    for a in alphas:
        if a == 0:
            raise PreconditionError("alpha-zero", "extension column scalar must be nonzero")

    for i, x in enumerate(xs):
        gen_bar = polyring.conj_rev(field, n, code.g if i == 0 else code.fg)
        if any(polyring.ring_mul(field, n, x, gen_bar)):
            raise PreconditionError("not-in-dual", f"x{i + 1} is not in the block code's Hermitian dual")

    grams = tuple(column_gram(field, x, a) for x, a in zip(xs, alphas))
    if all(a == 1 for a in alphas) and not any(grams):
        rule = RULE_ORTHOGONAL
        if not code.orthogonal_gram:
            raise PreconditionError("base-not-self-orthogonal", "self-orthogonality rule needs GG^dag = 0")
    else:
        rule = RULE_GRAM_RANK
        if field.q == 2:
            raise PreconditionError("wrong-field-size", "the rank-preserving rule needs q > 2")
        if not all(grams):
            raise PreconditionError("wrong-self-product", "<x,x> equals (p-1)*alpha^(q+1)")

    # the extended Gram matrix is block diagonal: G G^dag, then one
    # column_gram entry per added column
    gram_rank = code.gram_rank + sum(gr != 0 for gr in grams)
    if rule == RULE_GRAM_RANK and gram_rank != k + cols:
        raise PreconditionError(
            "base-gram-rank-deficient",
            f"extended Gram rank {gram_rank} != {k + cols}; base code has a nonzero Hermitian hull",
        )
    return ExtendedCode(
        base=code,
        xs=xs,
        alphas=alphas,
        rule=rule,
        gram_rank=gram_rank,
    )


@dataclass(frozen=True, eq=False)
class EntanglementCertificate:
    """Conditions under which the code/dual pair gives maximal-entanglement codes.

    The certificate holds when H1 H1^dag is nonsingular and 1 is not an
    eigenvalue of P = H1^dag (H1 H1^dag)^-1 H1 - (H2^dag H2)^-1.  Both are
    read off the divisors (module docstring): the first once per g, the
    second as gcd(1 + f f̄, dual_g) = 1.  P is the circulant of
    p_row = e - (f f̄)^-1, e = d (d^-1 mod h) the idempotent of <d>,
    d = dual_g, and char_poly_p = det(lambda I - P) is
    `polyring.circulant_char_poly` of p_row.  Both are computed when first
    read, and are None when H1 H1^dag is singular.
    """

    code: QcCode
    h1_gram_nonsingular: bool
    one_not_eigenvalue: bool

    @property
    def satisfied(self) -> bool:
        return self.h1_gram_nonsingular and self.one_not_eigenvalue

    @cached_property
    def p_row(self) -> tuple | None:
        if not self.h1_gram_nonsingular:
            return None
        field, n, d = self.code.field, self.code.n, self.code.dual_g
        # circ(e) = H1^dag (H1 H1^dag)^-1 H1 and, as gcd(f, x^n - 1) = 1
        # makes f f̄ a unit, circ(u) = (H2^dag H2)^-1
        e = polyring.ring_mul(field, n, d, polyring.ring_inv(
            field, n, d, polyring.quotient_exact_checked(field, n, d)))
        u = polyring.ring_inv(field, n, self.code.f_f_bar)
        sub = field.sub_table
        return tuple(sub[a][b] for a, b in zip(e, u))

    @cached_property
    def char_poly_p(self) -> tuple | None:
        if self.p_row is None:
            return None
        return polyring.circulant_char_poly(self.code.field, self.p_row)


def entanglement_certificate(code: QcCode) -> EntanglementCertificate:
    if not code.f_coprime:
        raise PreconditionError("f-not-coprime", "certificate needs gcd(f, x^n - 1) = 1")
    field = code.field
    one_plus_f_f_bar = polyring.poly_add(field, (field.one,), code.f_f_bar)
    return EntanglementCertificate(
        code, code.h1_gram_nonsingular,
        code.h1_gram_nonsingular and polyring.poly_gcd(field, one_plus_f_f_bar, code.dual_g) == (1,))
