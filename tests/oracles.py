"""Test-only helpers: the matrix arithmetic that only tests use (circulants,
products, sums, daggers, stacking, elimination, rank, inverses, and the
characteristic polynomial by a Hessenberg reduction, the reference for
`polyring.circulant_char_poly`), and the matrix routes that the library replaced by computations in the ring
GF(q^2)[x]/(x^n - 1) or, for the full-rank check of a generator matrix,
by the weight-0 count of its enumeration; and the
enumeration by message products and the Krawtchouk columns, which the
bit-sliced scan and MacWilliams by Horner's rule are checked against.

The tests hold `qcc` and `quantum` against these: every matrix below is
built from f, g and the extension vectors directly, never read off a
`QcCode`, and every derived quantity is an elimination over such a matrix.
pytest puts tests/ on sys.path, so test modules import this as `oracles`.
"""

import itertools
from math import comb

from qcqec import famat, polyring, qcc, quantum, wdist
from qcqec.errors import PreconditionError


class SingularMatrixError(ArithmeticError):
    """inverse() was asked of a singular matrix."""


# --- matrix arithmetic ---------------------------------------------------------


def zeros(field, nrows, ncols) -> famat.Mat:
    return famat.Mat(field, [[0] * ncols for _ in range(nrows)], ncols)


def identity(field, n) -> famat.Mat:
    return famat.Mat(field, [[int(i == j) for j in range(n)] for i in range(n)], n)


def circulant(field, vec, nrows: int) -> famat.Mat:
    """nrows x len(vec) matrix whose i-th row is x^i * a(x): ascending
    coefficients of a, cyclically shifted right i places."""
    vec = tuple(vec)
    return famat.Mat(field, [polyring.cyclic_shift(vec, i) for i in range(nrows)], len(vec))


def char_poly(m: famat.Mat) -> tuple[int, ...]:
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


def mat_from_poly(field, n: int, coeffs, nrows: int) -> famat.Mat:
    """Circulant of a plain polynomial padded to length n."""
    coeffs = polyring.trim(coeffs)
    if len(coeffs) > n:
        raise ValueError("polynomial does not fit in the ring")
    return circulant(field, coeffs + (0,) * (n - len(coeffs)), nrows)


def is_zero(m: famat.Mat) -> bool:
    return not any(map(any, m.rows))


def mul(a: famat.Mat, b: famat.Mat) -> famat.Mat:
    if a.ncols != b.nrows:
        raise ValueError("dimension mismatch")
    add, mul_t = a.field.add_table, a.field.mul_table
    out = []
    for arow in a.rows:
        acc = [0] * b.ncols
        for x, brow in zip(arow, b.rows):
            if x:
                m = mul_t[x]
                acc = [add[s][m[t]] for s, t in zip(acc, brow)]
        out.append(acc)
    return famat.Mat(a.field, out, b.ncols)


def _entrywise(table, a: famat.Mat, b: famat.Mat) -> famat.Mat:
    if (a.nrows, a.ncols) != (b.nrows, b.ncols):
        raise ValueError("dimension mismatch")
    return famat.Mat(a.field, [[table[x][y] for x, y in zip(r1, r2)]
                               for r1, r2 in zip(a.rows, b.rows)], a.ncols)


def add(a: famat.Mat, b: famat.Mat) -> famat.Mat:
    return _entrywise(a.field.add_table, a, b)


def sub(a: famat.Mat, b: famat.Mat) -> famat.Mat:
    return _entrywise(a.field.sub_table, a, b)


def transpose(m: famat.Mat) -> famat.Mat:
    # a matrix with no rows transposes to ncols empty rows
    rows = [list(c) for c in zip(*m.rows)] if m.nrows else [[] for _ in range(m.ncols)]
    return famat.Mat(m.field, rows, m.nrows)


def conj(m: famat.Mat) -> famat.Mat:
    c = m.field.conj_table
    return famat.Mat(m.field, [[c[x] for x in r] for r in m.rows], m.ncols)


def dagger(m: famat.Mat) -> famat.Mat:
    """Conjugate transpose with respect to the Hermitian form."""
    return conj(transpose(m))


def hstack(a: famat.Mat, b: famat.Mat) -> famat.Mat:
    if a.nrows != b.nrows:
        raise ValueError("row count mismatch")
    return famat.Mat(a.field, [ra + rb for ra, rb in zip(a.rows, b.rows)], a.ncols + b.ncols)


def vstack(a: famat.Mat, b: famat.Mat) -> famat.Mat:
    if a.ncols != b.ncols:
        raise ValueError("column count mismatch")
    return famat.Mat(a.field, a.rows + b.rows, a.ncols)


def _forward_eliminate(field, rows, ncols):
    """In-place reduced row echelon form; returns the list of pivot columns.

    Rows from the current pivot row down are zero left of the pivot
    column, so only the columns from there on are updated.
    """
    add, mul, neg, inv = field.add_table, field.mul_table, field.neg_table, field.inv
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        iv = inv(rows[r][c])
        if iv != 1:
            m = mul[iv]
            rows[r] = [m[x] for x in rows[r]]
        tail = rows[r][c:]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                m = mul[neg[row[c]]]
                row[c:] = [add[x][m[y]] for x, y in zip(row[c:], tail)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def rank(m: famat.Mat) -> int:
    if m.nrows == 0:
        return 0
    rows = [list(r) for r in m.rows]
    return len(_forward_eliminate(m.field, rows, m.ncols))


def inverse(m: famat.Mat) -> famat.Mat:
    if m.nrows != m.ncols:
        raise ValueError("inverse of a non-square matrix")
    n = m.nrows
    aug = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(m.rows)]
    pivots = _forward_eliminate(m.field, aug, n)
    if len(pivots) != n:
        raise SingularMatrixError(f"matrix of rank {len(pivots)} < {n}")
    return famat.Mat(m.field, [r[n:] for r in aug], n)


# --- test-only helpers ---------------------------------------------------------


def orthogonal_to_rows(vec, m: famat.Mat) -> bool:
    """<vec, u>_h = 0 for every row u of m."""
    return is_zero(mul(famat.Mat(m.field, [list(vec)]), dagger(m)))


def row_space_contains(m: famat.Mat, vec) -> bool:
    """Exact membership of vec in the row space of m."""
    stacked = famat.Mat(m.field, m.rows + [list(vec)], m.ncols)
    return rank(stacked) == rank(m)


def in_subfield_q(field, a: int) -> bool:
    return field.conj(a) == a


def poly_eval(field, a, x: int) -> int:
    acc = 0
    for c in reversed(polyring.trim(a)):
        acc = field.add(field.mul(acc, x), c)
    return acc


def quotient_exact(field, a, b) -> tuple:
    """a / b, raising if the division is not exact."""
    q, r = polyring.poly_divmod(field, a, b)
    if r:
        raise PreconditionError("not-a-divisor", "inexact polynomial division")
    return q


def sample_fs_reference(field, n, rng, max_deg, count) -> list:
    """count f by the plain rejection loop: the digits below the degree cap
    by rng.randrange(Q) one at a time, f kept iff gcd(f, x^n - 1) = 1; the
    reference for the search's bulk sampler."""
    top = n if max_deg is None else min(max_deg + 1, n)
    xn1 = polyring.x_pow_n_minus_1(field, n)
    out = []
    while len(out) < count:
        f = tuple(rng.randrange(field.Q) for _ in range(top)) + (0,) * (n - top)
        if polyring.poly_gcd(field, f, xn1) == (1,):
            out.append(f)
    return out


def enumerate_code_naive(g: famat.Mat) -> wdist.WeightEnumerator:
    """Reference enumeration by plain message products; exponential and slow,
    the oracle the bit-sliced scan of `wdist` is checked against."""
    field = g.field
    k, n = g.nrows, g.ncols
    counts = [0] * (n + 1)
    for msg in itertools.product(field.digits, repeat=k):
        cw = [0] * n
        for c, row in zip(msg, g.rows):
            if c:
                cw = [field.add(x, field.mul(c, y)) for x, y in zip(cw, row)]
        counts[sum(1 for x in cw if x)] += 1
    return wdist.WeightEnumerator(n, k, tuple(counts))


def krawtchouk_columns(Q: int, n: int):
    """Yield for i = 0..n the column K_0(i)..K_n(i), the coefficients of
    (1 + (Q-1)y)^(n-i) (1 - y)^i; column i+1 is column i times
    (1 - y) / (1 + (Q-1)y), a division that is exact."""
    col = [comb(n, j) * (Q - 1) ** j for j in range(n + 1)]
    yield col
    for _ in range(n):
        nxt = [col[0]]
        for j in range(1, n + 1):
            nxt.append(col[j] - col[j - 1] - (Q - 1) * nxt[j - 1])
        col = nxt
        yield col


def krawtchouk_sums(counts, Q: int) -> list:
    """sum_i A_i K_j(i) for every j, the MacWilliams sums before division
    by Q^k, column by column."""
    sums = [0] * len(counts)
    for col, a in zip(krawtchouk_columns(Q, len(counts) - 1), counts):
        sums = [acc + a * c for acc, c in zip(sums, col)]
    return sums


def double_shift(vec) -> tuple:
    """Simultaneous cyclic right shift of both halves of a length-2n vector."""
    n = len(vec) // 2
    return polyring.cyclic_shift(vec[:n], 1) + polyring.cyclic_shift(vec[n:], 1)


def first_extension_vector(code, side, alpha=None):
    """qcc.find_extension_vector by one product per message: the messages
    m in itertools.product order, the words m d of the block dual, with d
    the dual generator of gcd(g or f g, x^n - 1), and the rule written out
    on the self product: <x,x> = -1 for alpha None, else
    <x,x> != -alpha^(q+1).  None when no word qualifies."""
    field, n = code.field, code.n
    cyc = polyring.poly_gcd(field, code.g if side == 1 else code.fg,
                            polyring.x_pow_n_minus_1(field, n))
    d = dual_gen(field, n, cyc)
    minus_one = field.neg(field.one)
    for msg in itertools.product(field.digits, repeat=polyring.deg(cyc)):
        x = polyring.ring_mul(field, n, msg, d)
        if not any(x):
            continue
        product = qcc.hermitian_self_product(field, x)
        if alpha is None:
            if product == minus_one:
                return x
        elif product != field.mul(minus_one, field.norm_q(alpha)):
            return x
    return None


def eaqecc_from_qc(code, d) -> quantum.EaqeccParams:
    """Entanglement-assisted code of the quasi-cyclic code itself."""
    c = quantum.entanglement_count(code)
    return quantum.EaqeccParams(code.field.q, code.length, 2 * code.k - code.length + c, d, c)


def dual_gen(field, n, g) -> tuple:
    """The generator of the Hermitian dual of the cyclic code <g> by the
    division route: frob(reciprocal((x^n - 1)/g)), as assembled (constant
    term 1 for monic g).  `qcc.generator` reads it off its one division."""
    g = polyring.trim(g)
    if not g:
        raise PreconditionError("g-not-divisor", "g must be nonzero")
    return polyring.frob_poly(field, polyring.reciprocal(polyring.quotient_exact_checked(field, n, g)))


def proper_divisors(field, n) -> list:
    """Every monic divisor of x^n - 1 of degree strictly between 0 and n.

    With n = n' p^e, x^n - 1 = (x^n' - 1)^(p^e), so each irreducible
    factor of x^n' - 1 divides with a multiplicity from 0 to p^e."""
    core = n
    while core % field.p == 0:
        core //= field.p
    gs = [(1,)]
    for fac in polyring.factor_xn_minus_1(field, core):
        powers = [(1,)]
        for _ in range(n // core):
            powers.append(polyring.poly_mul(field, powers[-1], fac))
        gs = [polyring.poly_mul(field, g, p) for p in powers for g in gs]
    return [g for g in gs if 0 < polyring.deg(g) < n]


# --- matrix routes -------------------------------------------------------------


def gram_hermitian(g: famat.Mat) -> famat.Mat:
    """G G^dagger, the Gram matrix of the Hermitian inner product."""
    return mul(g, dagger(g))


def rref(m: famat.Mat) -> tuple:
    rows = [list(r) for r in m.rows]
    pivots = _forward_eliminate(m.field, rows, m.ncols)
    return famat.Mat(m.field, rows, m.ncols), pivots


def nullspace(m: famat.Mat) -> famat.Mat:
    """Basis of the right kernel {v : M v^T = 0}, one vector per row."""
    red, pivots = rref(m)
    free = [c for c in range(m.ncols) if c not in pivots]
    neg = m.field.neg_table
    basis = []
    for fc in free:
        v = [0] * m.ncols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = neg[red.rows[r][fc]]
        basis.append(v)
    return famat.Mat(m.field, basis, m.ncols)


def hermitian_dual_basis(g: famat.Mat) -> famat.Mat:
    """Rows spanning {v : <u, v>_h = 0 for all rows u}, i.e. the kernel of
    the conjugated generator."""
    return nullspace(conj(g))


def hull_dim(g: famat.Mat) -> int:
    """Dimension of Hull_h = C n C^perp_h for the row space C of g.

    Computed as k - rank(G G^dagger) and, independently, as a direct
    subspace intersection; a disagreement raises instead of returning
    either answer.
    """
    k = rank(g)
    if k != g.nrows:
        raise ValueError("hull_dim expects a full-row-rank generator matrix")
    via_gram = k - rank(gram_hermitian(g))
    dual = hermitian_dual_basis(g)
    stacked = famat.Mat(g.field, g.rows + dual.rows, g.ncols)
    via_intersection = k + dual.nrows - rank(stacked)
    if via_gram != via_intersection:
        raise AssertionError(
            f"hull dimension cross-check failed: {via_gram} != {via_intersection}")
    return via_gram


def generator_blocks(field, n, f, g) -> tuple:
    """G1 and G2: the first k rows of circ(g) and of circ(f g)."""
    k = n - polyring.deg(g)
    fg = polyring.ring_mul(field, n, f, g)
    return mat_from_poly(field, n, g, k), mat_from_poly(field, n, fg, k)


def parity_check(field, n, dual_g, f) -> tuple:
    """H1, H2 and H = (H1 0 / H2 I): the n - deg(dual_g) circulant rows of
    dual_g (none for g = 1, whose dual_g is x^n - 1 up to a scalar), and
    the circulant of -conj(f)(x^-1)."""
    r = n - polyring.deg(dual_g)
    H1 = mat_from_poly(field, n, dual_g, r) if r else famat.Mat(field, [], n)
    f = polyring.ring_from_plain(field, n, f)
    conj_rev_f = polyring.frob_poly(field, polyring.bar(f))
    H2 = circulant(field, polyring.poly_neg(field, conj_rev_f), n)
    H = vstack(hstack(H1, zeros(field, r, n)), hstack(H2, identity(field, n)))
    return H1, H2, H


def reference_code(field, n, f, g) -> dict:
    """The matrices and flags of the code generated by (g, f g), and what
    the certificate and the entanglement count are by elimination.

    "P" is None when f is not coprime to x^n - 1 (no certificate) or when
    H1 H1^dag is singular.
    """
    k = n - polyring.deg(g)
    f = polyring.ring_from_plain(field, n, f)
    dual_g = dual_gen(field, n, g)
    G1, G2 = generator_blocks(field, n, f, g)
    H1, H2, H = parity_check(field, n, dual_g, f)
    G = hstack(G1, G2)
    if not is_zero(mul(G, dagger(H))):
        raise AssertionError("reference H is not a parity check of G")
    gram = gram_hermitian(G)
    try:
        h1_gram_inv = inverse(gram_hermitian(H1))
    except SingularMatrixError:
        h1_gram_inv = None
    ref = {
        "k": k, "G1": G1, "G2": G2, "G": G, "H1": H1, "H2": H2, "H": H,
        "dual_g": dual_g,
        "f_coprime": polyring.poly_gcd(field, f, polyring.x_pow_n_minus_1(field, n)) == (1,),
        "orthogonal_divisibility": polyring.divides(field, dual_g, g),
        "orthogonal_gram": is_zero(gram),
        "h1_gram_nonsingular": h1_gram_inv is not None,
        "gram_rank": rank(gram),
        "entanglement_count": rank(gram_hermitian(H)),
        "P": None,
    }
    if ref["f_coprime"] and h1_gram_inv is not None:
        h2_gram_inv = inverse(mul(dagger(H2), H2))
        ref["P"] = sub(mul(mul(dagger(H1), h1_gram_inv), H1), h2_gram_inv)
    return ref


def certificate_booleans(p: famat.Mat | None) -> tuple:
    """(H1 H1^dag nonsingular, 1 is not an eigenvalue of P) for a P from
    reference_code of a code with f coprime."""
    if p is None:
        return False, False
    return True, rank(sub(p, identity(p.field, p.nrows))) == p.nrows


def extended_generator(G: famat.Mat, xs, alphas) -> famat.Mat:
    """(G | 0) stacked over one row per extension vector: x1 on the left
    block, x2 on the right, alpha_i in added column i."""
    field, n, cols = G.field, G.ncols // 2, len(xs)
    out = hstack(G, zeros(field, G.nrows, cols))
    zero_n = (0,) * n
    for i, (x, alpha) in enumerate(zip(xs, alphas)):
        tail = tuple(alpha if j == i else 0 for j in range(cols))
        row = tuple(x) + zero_n if i == 0 else zero_n + tuple(x)
        out = vstack(out, famat.Mat(field, [list(row + tail)]))
    return out


def check_code(field, n, f, g):
    """build, the entanglement count and the certificate against the matrix
    routes; returns the code and its certificate (None for f not coprime)."""
    code = qcc.build(field, n, f, g)
    ref = reference_code(field, n, f, g)
    for owner, name in [(code, "k"), (code, "G"), (code.gen, "dual_g"), (code, "f_coprime"),
                        (code.gen, "orthogonal_divisibility"), (code, "orthogonal_gram"),
                        (code.gen, "h1_gram_nonsingular"), (code, "gram_rank")]:
        if getattr(owner, name) != ref[name]:
            raise AssertionError(f"{name} differs from the matrix route")
    if quantum.entanglement_count(code) != ref["entanglement_count"]:
        raise AssertionError("entanglement count differs from rank(H H^dag)")
    if not code.f_coprime:
        return code, None
    cert = qcc.entanglement_certificate(code)
    p = ref["P"]
    if (cert.h1_gram_nonsingular, cert.one_not_eigenvalue) != certificate_booleans(p):
        raise AssertionError("certificate booleans differ from the matrix route")
    if (None if cert.p_row is None else circulant(field, cert.p_row, n)) != p:
        raise AssertionError("P differs from the matrix route")
    if cert.char_poly_p != (None if p is None else char_poly(p)):
        raise AssertionError("char(P) differs from the matrix route")
    return code, cert


def check_extension(code, xs, alphas):
    """An extension against the matrix route: the same generator matrix,
    and a Gram rank equal to the rank of its Gram matrix.  A refused
    extension must be refused for a reason the matrices confirm.  Returns
    the extension, or the PreconditionError's code."""
    field, n = code.field, code.n
    blocks = generator_blocks(field, n, code.f, code.g)
    members = [orthogonal_to_rows(x, block) for block, x in zip(blocks, xs)]
    G = extended_generator(hstack(*blocks), xs, alphas)
    gram_rank = rank(gram_hermitian(G))
    extend = qcc.extend_one if len(xs) == 1 else qcc.extend_two
    try:
        ext = extend(code, *xs, *alphas)
    except PreconditionError as exc:
        if exc.code == "not-in-dual" and all(members):
            raise AssertionError("a dual vector was refused") from exc
        if exc.code == "base-gram-rank-deficient" and gram_rank == code.k + len(xs):
            raise AssertionError("a full-rank extension was refused") from exc
        return exc.code
    if not all(members):
        raise AssertionError("a vector outside the dual was accepted")
    if ext.G != G:
        raise AssertionError("extended G differs from the matrix route")
    if ext.gram_rank != gram_rank:
        raise AssertionError("extended Gram rank differs from the matrix route")
    return ext
