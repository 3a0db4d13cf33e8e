"""The ring forms of `qcc` and `quantum` against the matrix routes they replaced.

`build` tests the Gram matrix and the parity check in GF(q^2)[x]/(x^n - 1),
the certificate finds P and its eigenvalue 1 there, and the entanglement
count and the Gram rank of an extension are read off a gcd degree and the
self products.  Each is held here against the elimination over the
matrices it stands for (tests/oracles.py): over every generator of the
q = 2, n = 7 and n = 15 search configurations, the code of every collected
table row, and samples over GF(9) and GF(81).  The first two also check,
by elimination, that G and the extended G have full row rank: the
library builds them on the claim that their rows are independent by
construction.  The two routes to "1 is not an eigenvalue of P", the gcd
and char(P) at 1, are held against each other too.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
from qcqec import explorer, famat, polyring, qcc, refdata
from qcqec.errors import PreconditionError
from qcqec.gf import field_make

GF4 = field_make(2)
GF9 = field_make(3)
GF81 = field_make(9)

# the generators the benchmark's search configurations walk
SEARCH_CONFIGS = {
    "qecc-n7": (7, "qecc"),
    "qecc-n15": (15, "qecc"),
    "eaqecc-n15": (15, "eaqecc"),
}


def search_generators(field, n, mode):
    return [g for g in explorer._generators(field, n, mode == "qecc")
            if 0 < polyring.deg(g) < n]


@pytest.mark.parametrize("name", sorted(SEARCH_CONFIGS))
def test_search_generators(name):
    n, mode = SEARCH_CONFIGS[name]
    gs = search_generators(GF4, n, mode)
    assert len(gs) >= 2
    satisfied = extended = 0
    for gi, g in enumerate(gs):
        # one stream per generator, as in the search: the sampler reads ahead
        f, = explorer._sample_fs(GF4, n, random.Random(n * 1000 + gi), None, 1)
        code, cert = oracles.check_code(GF4, n, f, g)
        assert oracles.rank(code.G) == code.k  # what the enumeration relies on
        satisfied += cert.satisfied
        if mode == "eaqecc":
            continue
        assert code.orthogonal_gram
        probe, _ = oracles.check_code(GF4, n, (0,) * n, g)  # the per-g probe
        try:
            x1 = qcc.find_extension_vector(probe, 1)
        except PreconditionError:
            continue
        ext = oracles.check_extension(code, (x1,), (1,))
        assert ext.rule == qcc.RULE_ORTHOGONAL and ext.gram_rank == 0
        assert oracles.rank(ext.G) == ext.dim
        extended += 1
    assert satisfied if mode == "eaqecc" else extended


@pytest.mark.parametrize("family", sorted(refdata.TABLES))
def test_table_rows(family):
    # rows with a recorded discrepancy may list a g that does not divide
    # x^n - 1 or an x1 outside the block dual; the rest must extend cleanly
    # or pass the certificate
    checked = 0
    for row in refdata.TABLES[family]:
        f, g, x1 = row.polys()
        try:
            code, cert = oracles.check_code(row.field(), row.n, f, g)
        except PreconditionError as exc:
            assert row.note and exc.code == "g-not-divisor"
            continue
        checked += 1
        assert oracles.rank(code.G) == code.k
        if x1 is None:
            assert cert.satisfied or row.note
        else:
            got = oracles.check_extension(code, (x1,), (1,))
            assert row.note or got.rule == qcc.RULE_ORTHOGONAL
            assert isinstance(got, str) or oracles.rank(got.G) == got.dim
    assert checked


# lengths and the values the H1 H1^dag flag takes over their divisors.  Over
# GF(4) every 4-cyclotomic coset mod 9 is fixed by s -> -2s, so every
# divisor of x^9 - 1 is conjugate self-reciprocal; the other lengths have
# generators of both kinds.  At n = 6 and 10 over GF(4) and n = 6 over
# GF(9), p divides n and x^n - 1 has repeated factors, so a conjugate
# self-reciprocal dual_g can still share a factor with (x^n - 1)/dual_g.
LCD_LENGTHS = [(GF4, 9, {True}), (GF4, 17, {True, False}), (GF4, 21, {True, False}),
               (GF9, 8, {True, False}), (GF9, 13, {True, False}),
               (GF4, 6, {True, False}), (GF4, 10, {True, False}), (GF9, 6, {True, False})]


@pytest.mark.parametrize("field,n,flags", LCD_LENGTHS,
                         ids=[f"Q{f.Q}-n{n}" for f, n, _ in LCD_LENGTHS])
def test_certificate_by_divisors(field, n, flags):
    rng = random.Random(field.Q * 100 + n)
    gs = oracles.proper_divisors(field, n)
    seen = set()
    for g in rng.sample(gs, min(32, len(gs))):
        f = [rng.randrange(field.Q) for _ in range(n)]
        while not polyring.is_unit(field, n, f):
            f = [rng.randrange(field.Q) for _ in range(n)]
        _, cert = oracles.check_code(field, n, f, g)
        seen.add(cert.h1_gram_nonsingular)
    assert seen == flags


def test_certificate_of_the_full_space():
    # g = 1: H1 has no rows, so H1 H1^dag is the empty matrix, nonsingular,
    # and the idempotent e of <dual_g> = <x^n - 1> is 0: P = circ(e - u)
    # with u = (f f̄)^-1
    f = polyring.parse_compact(GF4, "032321", 7)
    code, cert = oracles.check_code(GF4, 7, f, (1,))
    assert code.k == 7
    assert cert.h1_gram_nonsingular
    assert cert.p_row == polyring.poly_neg(GF4, polyring.ring_inv(GF4, 7, code.forms.f_f_bar))


SPECS = Path(__file__).resolve().parent.parent / "specs"


def char_poly_route_agrees(cert) -> bool:
    # 1 is not an eigenvalue of P iff det(1 I - P), char(P) at 1, is nonzero
    return cert.one_not_eigenvalue == (oracles.poly_eval(cert.code.field, cert.char_poly_p, 1) != 0)


def test_one_not_eigenvalue_by_gcd_and_by_char_poly_on_the_specs():
    # one_not_eigenvalue is gcd(1 + f f̄, dual_g) = 1, char_poly_p is read off
    # the factors of x^n - 1; the specs checked are the three whose reports
    # print char(P)
    checked = []
    for path in sorted(SPECS.glob("*.json")):
        spec = json.loads(path.read_text())
        field, n = field_make(spec["q"]), spec["n"]
        code = qcc.build(field, n, polyring.parse_compact(field, spec["f"], n),
                         polyring.trim(polyring.parse_compact(field, spec["g"])))
        cert = qcc.entanglement_certificate(code) if code.f_coprime else None
        if cert and cert.h1_gram_nonsingular:
            assert char_poly_route_agrees(cert), path.name
            checked.append(path.stem)
    assert checked == ["q2-n11-base", "q2-n7-base", "q9-n10-extend-two"]


# a grid of lengths, p | n included, with the verdicts of "1 is not an
# eigenvalue of P" seen over up to 8 generators with H1 H1^dag nonsingular,
# 3 unit f each.  Over GF(4), a root b of x^3 - 1 has b^-1 = b^2 = conj(b),
# so f̄(b) = conj(f(b)) and 1 + f f̄ vanishes at b (f(b) f̄(b) is a norm,
# 1); at n = 6 every such dual_g has a root of x^3 - 1.
ROUTE_LENGTHS = [(GF4, 6, {False})] + [(GF4, n, {True, False}) for n in (7, 9, 10, 15, 17, 21)] \
    + [(GF9, n, {True, False}) for n in (6, 8, 10, 13)]


@pytest.mark.parametrize("field,n,verdicts", ROUTE_LENGTHS,
                         ids=[f"Q{f.Q}-n{n}" for f, n, _ in ROUTE_LENGTHS])
def test_one_not_eigenvalue_by_gcd_and_by_char_poly(field, n, verdicts):
    rng = random.Random(field.Q * 1000 + n)
    one = (field.one,) + (0,) * (n - 1)
    gs = [g for g in oracles.proper_divisors(field, n)
          if qcc.build(field, n, one, g).gen.h1_gram_nonsingular]
    seen = set()
    for g in rng.sample(gs, min(8, len(gs))):
        for _ in range(3):
            f = [rng.randrange(field.Q) for _ in range(n)]
            while not polyring.is_unit(field, n, f):
                f = [rng.randrange(field.Q) for _ in range(n)]
            cert = qcc.entanglement_certificate(qcc.build(field, n, f, g))
            assert char_poly_route_agrees(cert), (g, f)
            seen.add(cert.one_not_eigenvalue)
    assert seen == verdicts


# the search decides the certificate, and the Gram flag of its skip
# record, from qcc.hermitian_forms over the generator before any build;
# held against the built code's certificate and against the matrices,
# g monic or not, p | n included (GF(4) n = 6 and 10, GF(9) and GF(81) n = 6)
EARLY_LENGTHS = [(GF4, 6), (GF4, 7), (GF4, 10), (GF4, 15), (GF9, 6), (GF9, 8),
                 (GF81, 5), (GF81, 6)]


@pytest.mark.parametrize("field,n", EARLY_LENGTHS, ids=[f"Q{f.Q}-n{n}" for f, n in EARLY_LENGTHS])
def test_certificate_before_the_build_matches_the_built_code(field, n):
    rng = random.Random(field.Q * 10 + n)
    one = (field.one,) + (0,) * (n - 1)
    lcd = {True: [], False: []}
    for g in oracles.proper_divisors(field, n):
        lcd[qcc.build(field, n, one, g).gen.h1_gram_nonsingular].append(g)
    seen = set()
    for g in rng.sample(lcd[True], min(16, len(lcd[True]))) + rng.sample(lcd[False], min(4, len(lcd[False]))):
        g = polyring.poly_scale(field, rng.randrange(1, field.Q), g)
        for _ in range(3):
            f = tuple(rng.randrange(field.Q) for _ in range(n))
            while not polyring.is_unit(field, n, f):
                f = tuple(rng.randrange(field.Q) for _ in range(n))
            forms = qcc.hermitian_forms(qcc.generator(field, n, g), f)
            qcc.hermitian_forms.cache_clear()  # the build makes its own
            code = qcc.build(field, n, f, g)
            cert = qcc.entanglement_certificate(code)
            ref = oracles.reference_code(field, n, f, g)
            assert forms.orthogonal_gram == code.orthogonal_gram == ref["orthogonal_gram"]
            assert (forms.one_not_eigenvalue == cert.satisfied
                    == oracles.certificate_booleans(ref["P"])[1]), (g, f)
            seen.add((forms.orthogonal_gram, forms.one_not_eigenvalue))
    assert {verdict for _, verdict in seen} == {True, False} or (field, n) == (GF4, 6)


def dual_vector(code, side, rng):
    d, r = qcc.block_dual(code, side)
    basis = oracles.mat_from_poly(code.field, code.n, d, r)
    msg = [rng.randrange(code.field.Q) for _ in range(r)]
    return tuple(oracles.mul(famat.Mat(code.field, [msg]), basis).rows[0])


@pytest.mark.parametrize("field,n", [(GF9, 10), (GF9, 11), (GF81, 8), (GF81, 10)])
def test_samples(field, n):
    rng = random.Random(field.Q * n)
    gs = oracles.proper_divisors(field, n)
    outcomes = {}
    satisfied = 0
    for g in rng.sample(gs, min(8, len(gs))):
        for i in range(3):
            f = [rng.randrange(field.Q) for _ in range(n)]
            if i == 2:
                f = [1] + [0] * (n - 1)  # f = 1: a zero Gram iff g's is
            code, cert = oracles.check_code(field, n, f, g)
            satisfied += bool(cert and cert.satisfied)
            alphas = [rng.randrange(1, field.Q) for _ in range(2)]
            x1, x2 = dual_vector(code, 1, rng), dual_vector(code, 2, rng)
            stray = tuple(rng.randrange(field.Q) for _ in range(n))
            for xs, al in (((x1,), alphas[:1]), ((x1, x2), alphas),
                           ((x1,), (1,)), ((stray,), alphas[:1]), ((x1, stray), alphas)):
                got = oracles.check_extension(code, xs, al)
                key = got if isinstance(got, str) else got.rule
                outcomes[key] = outcomes.get(key, 0) + 1
    assert satisfied
    assert outcomes.get(qcc.RULE_GRAM_RANK) and outcomes.get("not-in-dual"), outcomes


# qcc.generator divides x^n - 1 once, by g, and reads the rest off h and
# g: (x^n - 1)/dual_g = -frob(reciprocal(g)) and (x^n - 1)/monic(g) =
# lead(g) h.  Each fact is held against the division route it replaced.
@pytest.mark.parametrize("field,n", [(GF4, 7), (GF4, 12), (GF4, 15), (GF9, 6), (GF9, 10),
                                     (GF81, 6), (GF81, 8)])
def test_generator_facts_match_the_division_routes(field, n):
    rng = random.Random(field.Q + n)
    xn1 = polyring.x_pow_n_minus_1(field, n)
    gs = oracles.proper_divisors(field, n)
    gs = rng.sample(gs, min(40, len(gs))) + [(1,), xn1]
    lcd = set()
    for g in gs:
        g = polyring.poly_scale(field, rng.randrange(1, field.Q), g)  # monic or not
        gen = qcc.generator(field, n, g)
        assert gen.h == polyring.quotient_exact_checked(field, n, g)
        d = oracles.dual_gen(field, n, g)
        assert gen.dual_g == d
        cofactor = polyring.quotient_exact_checked(field, n, d)
        assert gen.dual_cofactor == cofactor
        nonsingular = (polyring.monic(field, polyring.frob_poly(field, polyring.reciprocal(d)))
                       == polyring.monic(field, d)
                       and polyring.poly_gcd(field, d, cofactor) == (1,))
        assert gen.h1_gram_nonsingular == nonsingular
        lcd.add(nonsingular)
        assert gen.idempotent == (polyring.ring_mul(field, n, d, polyring.ring_inv(field, n, d, cofactor))
                                  if nonsingular else None)
        cyc = polyring.poly_gcd(field, g, xn1)
        left = polyring.ring_from_plain(field, n, oracles.dual_gen(field, n, cyc)), polyring.deg(cyc)
        assert gen.block_dual == left
        assert qcc.block_dual(qcc.build(field, n, (1,), g), 2) == left  # f = 1: <f g> = <g>
    assert lcd == {True, False}


def test_right_parity_check_is_caught_under_optimize():
    # python -O strips assert statements; the ring identity behind the
    # right-block parity check must still run and raise when it breaks
    program = """
from qcqec import polyring, qcc
from qcqec.errors import InvariantError
from qcqec.gf import field_make

assert False, "assert statements are live"
polyring.poly_neg = lambda field, a: tuple(a)
try:
    qcc.build(field_make(3), 10, (1, 5, 2, 1), (5, 3, 1, 0, 5, 7, 1))
except InvariantError as exc:
    print("caught:", exc)
"""
    src_dir = str(Path(qcc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src_dir)
    done = subprocess.run([sys.executable, "-O", "-c", program], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "caught: parity check violated on right block\n"
