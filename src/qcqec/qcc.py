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
  d(1/x))) = monic(d), and coprime to d' = (x^n - 1)/d.  Then
  H1^dag (H1 H1^dag)^-1 H1 = circ(e), with e = d (d^-1 mod d') the
  idempotent of <d> (e = 0 mod d, e = 1 mod d'), and since
  H2^dag H2 = circ(f f̄), the certificate's P is circ(e - u), u = (f f̄)^-1.
  Modulo the factors of d', e - u - 1 = -u; modulo those of d it is
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

G of a code (its k rows x^i (g | f g), made once), G of an extension (the
one layout of its rows: those rows padded, then one row per column) and
the characteristic polynomial of P (read off the factors of x^n - 1, with
no matrix) are built when first read; every later read returns the same
object.

What depends on g alone is one `Generator`, made by `generator(field, n,
g)` from the one division h = (x^n - 1)/g, which raises g-not-divisor.
No fact divides again: reciprocal(g) reciprocal(h) = 1 - x^n, so
(x^n - 1)/dual_g = -frob(reciprocal(g)), and (x^n - 1)/monic(g) =
lead(g) h, so conj(lead g) dual_g generates the block dual of <g>.  The
last generator is kept: a search builds all f of one g in a row, and a
code holds its own.  The generator also keeps what the extensions of its
codes read of g alone: per vector x of side 1, whether x ḡ = 0 and <x,x>
(`Generator.column`), which the x1 pool of a search would otherwise pay
for once per f; side 2 reads f g and is checked per code.  What f adds
over the generator, f f̄, T and the certificate's verdict
gcd(1 + f f̄, dual_g) = 1, is `hermitian_forms`: `build` and the
certificate read it off the code, and the search reads it before it
decides to build at all; the last forms are kept, so a candidate that is
built pays for them once.

The orbit plan of `wdist.enumerate_code` (its module docstring has the
algebra) is read off the generator's levels, which are chosen greedily:
among the irreducible factors m of h not yet taken, the one whose N
fibers plus the projective scan of the rest cost least by
`wdist.unit_seconds`, while that beats scanning the rest projectively
now.  |H1| = lcm(ord_m(x), Q - 1), and the representatives are the first
N powers of the first primitive element of GF(Q)[x]/(m).  The plan's
basis turns the base rows of G into x^i M (g | f g) for i < deg m_j, M
the product of the factors taken before level j, then x^i M (g | f g) for
the rest, a basis since a message of degree < k is uniquely a + b m_j
with deg a < deg m_j; the extension rows are scanned as they stand.  A
length n divisible by p takes no level (h is then not squarefree), and
neither does a code scanned in one step, which builds nothing; its plan
has no basis.  `scan_plan` makes the plan, a `wdist.ScanPlan`, once per
column count, and the scans of every code of g by that many columns share
it (`wdist`).
"""

import math
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property, lru_cache

from . import famat, polyring, wdist
from .errors import InvariantError, PreconditionError
from .gf import Field

RULE_ORTHOGONAL = "preserve-orthogonality"
RULE_GRAM_RANK = "preserve-gram-rank"


@dataclass(frozen=True, eq=False)
class Generator:
    """What the codes of one g share (module docstring); g, h and dual_g
    are plain polynomials, g_g_bar a ring vector.  It keeps what it has
    worked out for the codes of g: each side-1 column and each scan plan."""

    field: Field
    n: int
    g: tuple
    k: int
    h: tuple
    dual_g: tuple
    g_g_bar: tuple
    orthogonal_divisibility: bool
    _columns: dict = dataclass_field(default_factory=dict, init=False, repr=False)
    _plans: dict = dataclass_field(default_factory=dict, init=False, repr=False)

    @property
    def dual_cofactor(self) -> tuple:
        """(x^n - 1)/dual_g = -frob(reciprocal(g)), with no division."""
        return polyring.poly_neg(self.field, polyring.frob_poly(self.field, polyring.reciprocal(self.g)))

    @cached_property
    def h1_gram_nonsingular(self) -> bool:
        """<dual_g> meets its Hermitian dual only in zero; frob(reciprocal(dual_g)) is h."""
        field, d = self.field, self.dual_g
        return (polyring.monic(field, self.h) == polyring.monic(field, d)
                and polyring.poly_gcd(field, d, self.dual_cofactor) == (1,))

    @cached_property
    def idempotent(self) -> tuple | None:
        """e = d (d^-1 mod (x^n - 1)/d), d = dual_g, the ring vector with
        circ(e) = H1^dag (H1 H1^dag)^-1 H1; None when H1 H1^dag is singular."""
        if not self.h1_gram_nonsingular:
            return None
        field, n, d = self.field, self.n, self.dual_g
        return polyring.ring_mul(field, n, d, polyring.ring_inv(field, n, d, self.dual_cofactor))

    def column(self, x: tuple) -> tuple[bool, int]:
        """(x ḡ = 0, <x, x>) for a ring vector x: whether x lies in the
        Hermitian dual of <g>, and the self product that the Gram entry of
        its column adds alpha^(q+1) to.  Both read g alone, so they are
        worked out once per x: a search's pool vectors serve every f of g."""
        if x not in self._columns:
            field, n = self.field, self.n
            in_dual = not any(polyring.ring_mul(field, n, x, polyring.conj_rev(field, n, self.g)))
            self._columns[x] = in_dual, hermitian_self_product(field, x)
        return self._columns[x]

    @cached_property
    def block_dual(self) -> tuple[tuple, int]:
        """`block_dual` of <g>, generated by conj(lead g) dual_g."""
        d = polyring.poly_scale(self.field, self.field.conj_table[self.g[-1]], self.dual_g)
        return polyring.ring_from_plain(self.field, self.n, d), polyring.deg(self.g)

    @cached_property
    def orbit_levels(self) -> tuple:
        """The levels of the orbit scan of the codes of g, as (m, |H1|, reps),
        chosen greedily by the scan's cost model (module docstring)."""
        field, n, k = self.field, self.n, self.k
        if n % field.p == 0:
            return ()
        Q = field.Q
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
        factors = [(m, polyring.deg(m), math.lcm(polyring.x_order(field, m, n), Q - 1))
                   for m in polyring.factor_xn_minus_1(field, n) if polyring.divides(field, m, self.h)]
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

    def scan_plan(self, cols: int) -> wdist.ScanPlan:
        """The scan plan of the codes of g extended by cols columns (module
        docstring), made once per cols and shared by every scan of a code
        of g by cols columns."""
        if cols not in self._plans:
            field, k = self.field, self.k
            one_step = wdist.table_rows(field, k + cols, 2 * self.n + cols) == k + cols
            levels = () if one_step else self.orbit_levels
            basis = None
            if levels:
                basis, prefix = [], (field.one,)
                for m, _, _ in levels:
                    basis += [(0,) * i + prefix for i in range(polyring.deg(m))]
                    prefix = polyring.poly_mul(field, prefix, m)
                basis += [(0,) * i + prefix for i in range(k + 1 - len(prefix))]
                basis = tuple(row + (0,) * (k - len(row)) for row in basis)
            self._plans[cols] = wdist.ScanPlan(field, k + cols, 2 * self.n + cols, basis,
                                               tuple((mult, reps) for _, mult, reps in levels), cols)
        return self._plans[cols]


@lru_cache(maxsize=1)
def generator(field: Field, n: int, g: tuple) -> Generator:
    """The generator of the trimmed g, by the one division, h = (x^n - 1)/g."""
    if not g:
        raise PreconditionError("g-not-divisor", "g must be nonzero")
    h = polyring.quotient_exact_checked(field, n, g)
    dual_g = polyring.frob_poly(field, polyring.reciprocal(h))
    # left half of the block identity G H^dag = 0
    if any(polyring.ring_mul(field, n, g, polyring.conj_rev(field, n, dual_g))):
        raise InvariantError("parity check violated on left block")
    g_g_bar = polyring.ring_mul(field, n, g, polyring.conj_rev(field, n, g))
    return Generator(field, n, g, n - polyring.deg(g), h, dual_g, g_g_bar, polyring.divides(field, dual_g, g))


@dataclass(frozen=True, eq=False)
class HermitianForms:
    """What f adds to the Hermitian forms of the codes of its generator: f f̄
    and gram_poly (T above), ring vectors, and the certificate's verdict on
    gcd(1 + f f̄, dual_g), all with no code built."""

    gen: Generator
    f_f_bar: tuple
    gram_poly: tuple

    @property
    def orthogonal_gram(self) -> bool:
        return not any(self.gram_poly)

    @cached_property
    def one_not_eigenvalue(self) -> bool:
        """1 is not an eigenvalue of P, for a unit f: gcd(1 + f f̄, dual_g) = 1,
        read only when H1 H1^dag is nonsingular, so it is the certificate's
        whole verdict."""
        gen, field = self.gen, self.gen.field
        return (gen.h1_gram_nonsingular and polyring.poly_gcd(
            field, polyring.poly_add(field, (field.one,), self.f_f_bar), gen.dual_g) == (1,))


@lru_cache(maxsize=1)
def hermitian_forms(gen: Generator, f: tuple) -> HermitianForms:
    """The forms of the ring vector f over gen.  The last are kept: the
    search reads them before it builds, and `build` reads them again."""
    field, n = gen.field, gen.n
    f_f_bar = polyring.ring_mul(field, n, f, polyring.conj_rev(field, n, f))
    forms = HermitianForms(gen, f_f_bar, polyring.ring_mul(
        field, n, gen.g_g_bar, polyring.poly_add(field, (field.one,), f_f_bar)))
    # divisibility is a sufficient condition, never weaker than the Gram test
    if gen.orthogonal_divisibility and not forms.orthogonal_gram:
        raise InvariantError("dual_g divides g, yet G G^dag is nonzero")
    return forms


@dataclass(frozen=True, eq=False)
class QcCode:
    """The code generated by (g, f g); f and f g are length-n ring vectors,
    g a plain polynomial."""

    field: Field
    n: int
    f: tuple
    g: tuple
    k: int
    gen: Generator
    fg: tuple
    forms: HermitianForms

    @property
    def length(self) -> int:
        return 2 * self.n

    @cached_property
    def rows(self) -> tuple:
        """The k rows x^i (g | f g), made once: the rows of G, and the base
        rows of the G of every extension of this code."""
        g = self.g + (0,) * (self.n - len(self.g))
        return tuple(polyring.cyclic_shift(g, i) + polyring.cyclic_shift(self.fg, i)
                     for i in range(self.k))

    @property
    def orthogonal_gram(self) -> bool:
        return self.forms.orthogonal_gram

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
        return self.n - polyring.deg(polyring.poly_gcd(self.field, self.forms.gram_poly, xn1))

    @cached_property
    def G(self) -> famat.Mat:
        """The k rows x^i (g | f g), in one pass."""
        return famat.Mat(self.field, self.rows, 2 * self.n)


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
        rows = [row + (0,) * cols for row in self.base.rows]
        for i, (x, alpha) in enumerate(zip(self.xs, self.alphas)):
            row = [0] * (2 * n + cols)
            row[i * n:(i + 1) * n] = x
            row[2 * n + i] = alpha
            rows.append(row)
        return famat.Mat(self.base.field, rows)


def hermitian_self_product(field: Field, vec) -> int:
    """<v,v>_h = sum of v_i^(q+1); lands in the subfield GF(q)."""
    acc = 0
    for d in vec:
        acc = field.add(acc, field.norm_q(d))
    return acc


def build(field: Field, n: int, f, g) -> QcCode:
    """The code generated by (g, f*g), tested in the ring; its matrices are
    built when first read.

    g must divide x^n - 1.  f is reduced mod x^n - 1 and may be zero (the
    right block degenerates; flagged via f_coprime=False).  Digits are
    not checked here but where they come in: a spec's parser, the search's
    draws and `pipeline.Evaluation`.
    """
    g = polyring.trim(g)
    gen = generator(field, n, g)
    f = polyring.ring_from_plain(field, n, f)
    fg = polyring.ring_mul(field, n, f, g)
    # right half of the block identity; H2's first row is -f̄, whose
    # conj_rev is -f
    if polyring.poly_add(field, polyring.ring_mul(field, n, g, polyring.poly_neg(field, f)), fg):
        raise InvariantError("parity check violated on right block")
    return QcCode(field, n, f, g, gen.k, gen, fg, hermitian_forms(gen, f))


def block_dual(code: QcCode, side: int) -> tuple[tuple, int]:
    """(d, r) for the Hermitian dual of the cyclic code spanned by the left
    (side 1) or right (side 2) block of G: with r = deg gcd(g or f g,
    x^n - 1), the dual is {m d : deg m < r}, and d is a ring vector."""
    if side not in (1, 2):
        raise ValueError("side must be 1 or 2")
    if side == 1:
        return code.gen.block_dual
    field, n = code.field, code.n
    cyc = polyring.poly_gcd(field, code.fg, polyring.x_pow_n_minus_1(field, n))
    return generator(field, n, cyc).block_dual


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

    # (x ḡ = 0 or x (f g)‾ = 0, <x, x>) per column: side 1 reads g alone,
    # which the generator keeps per x; side 2 reads f g
    columns = [code.gen.column(xs[0])]
    for x in xs[1:]:
        in_dual = not any(polyring.ring_mul(field, n, x, polyring.conj_rev(field, n, code.fg)))
        columns.append((in_dual, hermitian_self_product(field, x)))
    for i, (in_dual, _) in enumerate(columns):
        if not in_dual:
            raise PreconditionError("not-in-dual", f"x{i + 1} is not in the block code's Hermitian dual")

    # column_gram of each column, from its self product
    grams = tuple(field.add(self_product, field.norm_q(a)) for (_, self_product), a in zip(columns, alphas))
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
    p_row = e - (f f̄)^-1, e the generator's idempotent of <dual_g>, and
    char_poly_p = det(lambda I - P) is `polyring.circulant_char_poly` of
    p_row.  Both are computed when first read, and are None when
    H1 H1^dag is singular.
    """

    code: QcCode
    h1_gram_nonsingular: bool
    one_not_eigenvalue: bool

    @property
    def satisfied(self) -> bool:
        return self.h1_gram_nonsingular and self.one_not_eigenvalue

    @cached_property
    def p_row(self) -> tuple | None:
        e = self.code.gen.idempotent  # circ(e) = H1^dag (H1 H1^dag)^-1 H1
        if e is None:
            return None
        # as gcd(f, x^n - 1) = 1 makes f f̄ a unit, circ(u) = (H2^dag H2)^-1
        field = self.code.field
        u = polyring.ring_inv(field, self.code.n, self.code.forms.f_f_bar)
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
    return EntanglementCertificate(code, code.gen.h1_gram_nonsingular, code.forms.one_not_eigenvalue)
