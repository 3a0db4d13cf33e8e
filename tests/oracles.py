"""Test-only helpers, and the matrix routes that the library replaced by
computations in the ring GF(q^2)[x]/(x^n - 1).

The tests hold `qcc` and `quantum` against these: every matrix below is
built from f, g and the extension vectors directly, never read off a
`QcCode`, and every derived quantity is an elimination over such a matrix.
pytest puts tests/ on sys.path, so test modules import this as `oracles`.
"""

from qcqec import famat, polyring, qcc, quantum
from qcqec.errors import PreconditionError, SingularMatrixError


def row_space_contains(m: famat.Mat, vec) -> bool:
    """Exact membership of vec in the row space of m."""
    stacked = famat.Mat(m.field, m.rows + [list(vec)], m.ncols)
    return famat.rank(stacked) == famat.rank(m)


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


def double_shift(vec) -> tuple:
    """Simultaneous cyclic right shift of both halves of a length-2n vector."""
    n = len(vec) // 2
    return polyring.cyclic_shift(vec[:n], 1) + polyring.cyclic_shift(vec[n:], 1)


def eaqecc_from_qc(code, d) -> quantum.EaqeccParams:
    """Entanglement-assisted code of the quasi-cyclic code itself."""
    c = quantum.entanglement_count(code)
    return quantum.EaqeccParams(code.field.q, code.length, 2 * code.k - code.length + c, d, c)


def proper_divisors(field, n) -> list:
    """Every divisor of x^n - 1 of degree strictly between 0 and n."""
    gs = [(1,)]
    for fac in polyring.factor_xn_minus_1(field, n):
        gs += [polyring.poly_mul(field, g, fac) for g in gs]
    return [g for g in gs if 0 < polyring.deg(g) < n]


# --- matrix routes -------------------------------------------------------------


def gram_hermitian(g: famat.Mat) -> famat.Mat:
    """G G^dagger, the Gram matrix of the Hermitian inner product."""
    return g.mul(g.dagger())


def rref(m: famat.Mat) -> tuple:
    rows = [list(r) for r in m.rows]
    pivots = famat._forward_eliminate(m.field, rows, m.ncols)
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
    return nullspace(g.conj())


def hull_dim(g: famat.Mat) -> int:
    """Dimension of Hull_h = C n C^perp_h for the row space C of g.

    Computed as k - rank(G G^dagger) and, independently, as a direct
    subspace intersection; a disagreement raises instead of returning
    either answer.
    """
    k = famat.rank(g)
    if k != g.nrows:
        raise ValueError("hull_dim expects a full-row-rank generator matrix")
    via_gram = k - famat.rank(gram_hermitian(g))
    dual = hermitian_dual_basis(g)
    stacked = famat.Mat(g.field, g.rows + dual.rows, g.ncols)
    via_intersection = k + dual.nrows - famat.rank(stacked)
    if via_gram != via_intersection:
        raise AssertionError(
            f"hull dimension cross-check failed: {via_gram} != {via_intersection}")
    return via_gram


def generator_blocks(field, n, f, g) -> tuple:
    """G1 and G2: the first k rows of circ(g) and of circ(f g)."""
    k = n - polyring.deg(g)
    fg = polyring.ring_mul(field, n, f, g)
    return famat.mat_from_poly(field, n, g, k), famat.mat_from_poly(field, n, fg, k)


def reference_code(field, n, f, g) -> dict:
    """The matrices and flags of the code generated by (g, f g), and what
    the certificate and the entanglement count are by elimination.

    "P" is None when f is not coprime to x^n - 1 (no certificate) or when
    H1 H1^dag is singular.
    """
    k = n - polyring.deg(g)
    f = polyring.ring_from_plain(field, n, f)
    dual_g = polyring.dual_gen(field, n, g)
    G1, G2 = generator_blocks(field, n, f, g)
    H1 = famat.mat_from_poly(field, n, dual_g, n - k)
    conj_rev_f = polyring.frob_poly(field, polyring.bar(f))
    H2 = famat.circulant(field, polyring.poly_neg(field, conj_rev_f), n)
    G = famat.hstack(G1, G2)
    H = famat.vstack(famat.hstack(H1, famat.Mat.zeros(field, n - k, n)),
                     famat.hstack(H2, famat.Mat.identity(field, n)))
    if not G.mul(H.dagger()).is_zero():
        raise AssertionError("reference H is not a parity check of G")
    gram = gram_hermitian(G)
    ref = {
        "k": k, "G1": G1, "G2": G2, "H1": H1, "H2": H2, "G": G, "H": H,
        "dual_g": dual_g,
        "f_coprime": polyring.poly_gcd(field, f, polyring.x_pow_n_minus_1(field, n)) == (1,),
        "orthogonal_divisibility": polyring.divides(field, dual_g, g),
        "orthogonal_gram": gram.is_zero(),
        "gram_rank": famat.rank(gram),
        "entanglement_count": famat.rank(gram_hermitian(H)),
        "P": None,
    }
    if ref["f_coprime"]:
        try:
            h1_gram_inv = famat.inverse(H1.mul(H1.dagger()))
        except SingularMatrixError:
            return ref
        h2_gram_inv = famat.inverse(H2.dagger().mul(H2))
        ref["P"] = H1.dagger().mul(h1_gram_inv).mul(H1).sub(h2_gram_inv)
    return ref


def certificate_booleans(p: famat.Mat | None) -> tuple:
    """(H1 H1^dag nonsingular, 1 is not an eigenvalue of P) for a P from
    reference_code of a code with f coprime."""
    if p is None:
        return False, False
    return True, famat.rank(p.sub(famat.Mat.identity(p.field, p.nrows))) == p.nrows


def extended_generator(G: famat.Mat, xs, alphas) -> famat.Mat:
    """(G | 0) stacked over one row per extension vector: x1 on the left
    block, x2 on the right, alpha_i in added column i."""
    field, n, cols = G.field, G.ncols // 2, len(xs)
    out = famat.hstack(G, famat.Mat.zeros(field, G.nrows, cols))
    zero_n = (0,) * n
    for i, (x, alpha) in enumerate(zip(xs, alphas)):
        tail = tuple(alpha if j == i else 0 for j in range(cols))
        row = tuple(x) + zero_n if i == 0 else zero_n + tuple(x)
        out = famat.vstack(out, famat.Mat(field, [list(row + tail)]))
    return out


def check_code(field, n, f, g):
    """build, the entanglement count and the certificate against the matrix
    routes; returns the code and its certificate (None for f not coprime)."""
    code = qcc.build(field, n, f, g)
    ref = reference_code(field, n, f, g)
    for name in ("k", "G1", "G2", "H1", "H2", "G", "H", "dual_g", "f_coprime",
                 "orthogonal_divisibility", "orthogonal_gram", "gram_rank"):
        if getattr(code, name) != ref[name]:
            raise AssertionError(f"{name} differs from the matrix route")
    if quantum.entanglement_count(code) != ref["entanglement_count"]:
        raise AssertionError("entanglement count differs from rank(H H^dag)")
    if not code.f_coprime:
        return code, None
    cert = qcc.entanglement_certificate(code)
    p = ref["P"]
    if (cert.h1_gram_nonsingular, cert.one_not_eigenvalue) != certificate_booleans(p):
        raise AssertionError("certificate booleans differ from the matrix route")
    if cert.p_matrix != p:
        raise AssertionError("P differs from the matrix route")
    if cert.char_poly_p != (None if p is None else famat.char_poly(p)):
        raise AssertionError("char(P) differs from the matrix route")
    return code, cert


def check_extension(code, xs, alphas):
    """An extension against the matrix route: the same generator matrix,
    and a Gram rank equal to the rank of its Gram matrix.  A refused
    extension must be refused for a reason the matrices confirm.  Returns
    the extension, or the PreconditionError's code."""
    field, n = code.field, code.n
    blocks = generator_blocks(field, n, code.f, code.g)
    members = [famat.Mat(field, [list(x)]).mul(block.dagger()).is_zero()
               for block, x in zip(blocks, xs)]
    G = extended_generator(famat.hstack(*blocks), xs, alphas)
    gram_rank = famat.rank(gram_hermitian(G))
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
