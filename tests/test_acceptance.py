"""Acceptance gate: one test per release criterion.

Criteria 1-4 walk the four desk-scale reference constructions end to end
and pin every collected number (weight enumerators bit-exact, matrices
entry-for-entry).  Criterion 5 re-derives the desk-scale subset of every
collected parameter table.  Criterion 6 runs the randomized property
suites at full size.  Criterion 7 checks that the deliberately-gated
enumerations stay gated by default and that their parameter bookkeeping
still holds, and runs the GF(81) [22,5] enumeration the CLI gates; the
4^17-message [[103,69,7]]_2 reproduction and the 4^20-message assisted
n = 41 row run only under --runlong.  It also holds the message budget to
the per-field thresholds it replaced.

Collected rows whose listed inputs provably cannot produce a listed value
are asserted in their recorded-discrepancy form (see the notes in refdata
and the repository's reproduction guide); nothing here is patched green.
"""

import random
import time
from pathlib import Path

import pytest

import oracles
from qcqec import cli, explorer, famat, pipeline, polyring, qcc, quantum, refdata, wdist
from qcqec.gf import field_make

GF4 = field_make(2)
GF9 = field_make(3)
GF81 = field_make(9)

SPECS = Path(__file__).resolve().parent.parent / "specs"

# Weight enumerators of the reference constructions, as collected.
EXT15_WEIGHTS = {0: 1, 16: 3, 18: 630, 20: 2520, 22: 3900, 24: 5400,
                 26: 3150, 28: 780}
EXT10_WEIGHTS = {
    0: 1, 10: 16, 12: 8, 13: 80, 14: 624, 15: 3376, 16: 11192,
    17: 32856, 18: 71520, 19: 118336, 20: 142128, 21: 112664, 22: 38640,
}
BASE11_WEIGHTS = {0: 1, 13: 66, 14: 66, 15: 198, 16: 264, 17: 99,
                  18: 132, 19: 132, 20: 33, 21: 33}
DUAL11_WEIGHTS = {
    0: 1, 4: 627, 5: 6567, 6: 52437, 7: 364056, 8: 2050290, 9: 9562740,
    10: 37269804, 11: 122099016, 12: 335494302, 13: 774526170,
    14: 1493685534, 15: 2389566696, 16: 3136710621, 17: 3321093204,
    18: 2767437420, 19: 1748036664, 20: 786523551, 21: 224745015,
    22: 30644469,
}

# Collected parity-check blocks of the n=7 base construction, entry for entry.
H1_COLLECTED = [[1, 1, 1, 1, 1, 1, 1]]
H2_COLLECTED = [
    [0, 0, 1, 3, 2, 3, 2],
    [2, 0, 0, 1, 3, 2, 3],
    [3, 2, 0, 0, 1, 3, 2],
    [2, 3, 2, 0, 0, 1, 3],
    [3, 2, 3, 2, 0, 0, 1],
    [1, 3, 2, 3, 2, 0, 0],
    [0, 1, 3, 2, 3, 2, 0],
]

# Desk-scale rows of the collected tables, keyed (family, n, dimension).
DESK_ROWS = {
    ("stabilizer-gf4", 7, 4), ("stabilizer-gf4", 17, 9),
    ("stabilizer-gf4", 23, 12), ("stabilizer-gf4", 31, 11),
    ("stabilizer-gf4", 55, 13), ("stabilizer-gf4", 63, 13),
    ("stabilizer-gf9", 11, 6), ("stabilizer-gf9", 41, 5),
    ("assisted-primal", 15, 8), ("assisted-primal", 17, 8),
    ("assisted-dual", 17, 26), ("assisted-dual", 19, 29),
}

# Rows whose listed auxiliary vector provably does not witness the listed
# extended distance (one anomalous scalar orbit each; dual and quantum
# parameters unaffected).  The recomputed distances below are frozen from
# two independent enumeration routes.
RECORDED_EXTENDED_D = {
    ("stabilizer-gf4", 17): 12,
    ("stabilizer-gf4", 23): 14,
    ("stabilizer-gf4", 55): 42,
    ("stabilizer-gf9", 41): 41,
}


def dense(n, sparse):
    return tuple(sparse.get(w, 0) for w in range(n + 1))


def rand_full_rank(rng, field, k, n):
    while True:
        m = famat.Mat(
            field, [[rng.randrange(field.Q) for _ in range(n)] for _ in range(k)]
        )
        if oracles.rank(m) == k:
            return m


def built(name):
    rc = refdata.find_reference(name)
    code = qcc.build(field_make(rc.q), rc.n, rc.f, rc.g)
    if rc.mode == "extend-one":
        return code, qcc.extend_one(code, rc.x1, rc.alpha1)
    if rc.mode == "extend-two":
        return code, qcc.extend_two(code, rc.x1, rc.x2, rc.alpha1, rc.alpha2)
    return code, None


def test_acceptance_1_one_column_extension_stabilizer():
    t0 = time.perf_counter()
    _, ext = built("q2-n15-extend-one")
    assert (ext.length, ext.dim) == (31, 7)

    enum = wdist.enumerate_code(ext.G)
    assert enum.counts == dense(31, EXT15_WEIGHTS)
    assert enum.distance() == 16

    dual = wdist.macwilliams(enum, 4)
    assert dual.distance() == 5

    params = quantum.qecc_from_self_orthogonal(2, enum, dual)
    assert str(params) == "[[31,17,5]]_2"
    assert str(quantum.lengthen(params)) == "[[32,17,5]]_2"
    assert time.perf_counter() - t0 < 1.0


def test_acceptance_2_two_column_extension_gv():
    t0 = time.perf_counter()
    _, ext = built("q3-n10-extend-two")
    assert (ext.length, ext.dim) == (22, 6)

    enum = wdist.enumerate_code(ext.G)
    assert enum.counts == dense(22, EXT10_WEIGHTS)
    assert enum.distance() == 10

    dual = wdist.macwilliams(enum, 9)
    assert sum(dual.counts) == 9 ** 16
    assert dual.distance() == 5

    params = quantum.qecc_from_self_orthogonal(3, enum, dual)
    assert str(params) == "[[22,10,5]]_3"

    verdict = quantum.gv_verdict(3, 22, 10, 5)
    assert verdict.applicable and verdict.exceeds and not verdict.guaranteed
    assert (verdict.lhs, verdict.rhs) == (597871, 3845710)
    assert time.perf_counter() - t0 < 30.0


def test_acceptance_3_base_code_entanglement_certificate():
    t0 = time.perf_counter()
    code, _ = built("q2-n7-base")
    H1, H2, H = oracles.parity_check(GF4, code.n, code.gen.dual_g, code.f)
    assert H1 == famat.Mat(GF4, H1_COLLECTED)
    assert H2 == famat.Mat(GF4, H2_COLLECTED)

    enum = wdist.enumerate_code(code.G)
    assert (code.length, code.k, enum.distance()) == (14, 6, 7)

    assert oracles.rank(oracles.gram_hermitian(H)) == 8
    assert quantum.entanglement_count(code) == 8

    cert = qcc.entanglement_certificate(code)
    assert cert.satisfied
    assert cert.char_poly_p == (0, 1, 0, 0, 1, 0, 0, 1)  # x^7 + x^4 + x

    dual = wdist.macwilliams(enum, 4)
    pair = quantum.maximal_pair(code, enum.distance(), dual.distance(), cert)
    assert str(pair.primal) == "[[14,6,7;8]]_2"
    assert pair.primal.maximal
    assert time.perf_counter() - t0 < 1.0


def test_acceptance_4_dual_enumerator_assisted_dual_side():
    t0 = time.perf_counter()
    code, _ = built("q2-n11-base")

    enum = wdist.enumerate_code(code.G)
    assert enum.counts == dense(22, BASE11_WEIGHTS)
    assert enum.distance() == 13

    dual = wdist.macwilliams(enum, 4)
    assert dual.counts == dense(22, DUAL11_WEIGHTS)
    assert dual.distance() == 4

    cert = qcc.entanglement_certificate(code)
    pair = quantum.maximal_pair(code, enum.distance(), dual.distance(), cert)
    assert str(pair.dual) == "[[22,17,4;5]]_2"
    assert pair.dual.maximal
    assert time.perf_counter() - t0 < 1.0


def check_stabilizer_row(row):
    fld = row.field()
    f, g, x1 = row.polys()
    code = qcc.build(fld, row.n, f, g)
    ext = qcc.extend_one(code, x1)
    enum = wdist.enumerate_code(ext.G)
    dual = wdist.macwilliams(enum, fld.Q)

    assert (ext.length, ext.dim) == row.code[:2]
    frozen = RECORDED_EXTENDED_D.get((row.family, row.n))
    if frozen is None:
        assert enum.distance() == row.code[2]
    else:
        assert row.note
        assert enum.distance() == frozen != row.code[2]

    assert (ext.length, ext.length - ext.dim, dual.distance()) == row.dual
    params = quantum.qecc_from_self_orthogonal(fld.q, enum, dual)
    assert (params.n, params.k, params.d) == row.qecc


def check_assisted_row(row):
    fld = row.field()
    f, g, _ = row.polys()
    code = qcc.build(fld, row.n, f, g)
    cert = qcc.entanglement_certificate(code)
    assert cert.satisfied

    enum = wdist.enumerate_code(code.G)
    dual = wdist.macwilliams(enum, fld.Q)
    pair = quantum.maximal_pair(code, enum.distance(), dual.distance(), cert)
    side = pair.primal if row.family == "assisted-primal" else pair.dual
    assert (side.n, side.k, side.d, side.c) == row.eaqecc
    assert side.maximal


def test_acceptance_5_collected_table_desk_rows():
    checked = set()
    for family, rows in refdata.TABLES.items():
        for row in rows:
            key = (family, row.n, (row.code or row.eaqecc)[1])
            if key not in DESK_ROWS:
                continue
            assert not row.evaluation().skipped
            t0 = time.perf_counter()
            if family.startswith("stabilizer"):
                check_stabilizer_row(row)
            else:
                check_assisted_row(row)
            assert time.perf_counter() - t0 < 300.0
            checked.add(key)
    assert checked == DESK_ROWS


def test_acceptance_6_property_suites():
    # MacWilliams involution and exact-division checksum, 200 random codes
    rng = random.Random(2026)
    for i in range(200):
        fld = GF4 if i % 2 else GF9
        k = rng.randrange(1, 5)
        n = rng.randrange(k, 10)
        gmat = rand_full_rank(rng, fld, k, n)
        enum = wdist.enumerate_code(gmat)
        dual = wdist.macwilliams(enum, fld.Q)
        assert dual.counts[0] == 1 and min(dual.counts) >= 0
        assert sum(dual.counts) == fld.Q ** (n - k)
        assert wdist.macwilliams(dual, fld.Q) == enum

    # hull dimension: Gram-rank formula against the direct intersection,
    # 100 random codes
    for i in range(100):
        fld = GF4 if i % 2 else GF9
        k = rng.randrange(1, 5)
        n = rng.randrange(k, 9)
        gmat = rand_full_rank(rng, fld, k, n)
        formula = k - oracles.rank(oracles.gram_hermitian(gmat))
        dual_basis = oracles.hermitian_dual_basis(gmat)
        direct = n - oracles.rank(oracles.vstack(gmat, dual_basis))
        assert formula == direct == oracles.hull_dim(gmat)

    # reversed-conjugate divisibility forces GG^dag = 0 for every f:
    # all qualifying generators, n <= 31, both base fields
    built_codes = []
    for fld in (GF4, GF9):
        for n in range(2, 32):
            if n % fld.p == 0:
                continue
            for g in explorer._generators(fld, n, True):
                if polyring.deg(g) == n:
                    continue  # zero code
                f = tuple(rng.randrange(fld.Q) for _ in range(n))
                code = qcc.build(fld, n, f, g)
                assert code.gen.orthogonal_divisibility
                assert code.orthogonal_gram
                built_codes.append(code)

    # double-shift closure on every code built above plus the references
    for rc in refdata.REFERENCE_CODES:
        built_codes.append(qcc.build(field_make(rc.q), rc.n, rc.f, rc.g))
    assert len(built_codes) > 100
    for code in built_codes:
        for i in range(code.k):
            shifted = oracles.double_shift(code.G.row(i))
            assert oracles.row_space_contains(code.G, shifted)

    # blocked enumeration against the naive oracle for every k <= 6
    for k in range(1, 7):
        for fld in (GF4, GF9):
            if fld is GF9 and k == 6:
                n = 7  # keep the 9^6-message oracle affordable
            else:
                n = k + 1 + rng.randrange(3)
            gmat = rand_full_rank(rng, fld, k, n)
            assert wdist.enumerate_code(gmat) == oracles.enumerate_code_naive(gmat)

    # Frobenius and conjugation identities, exhaustive for every field
    for q in (2, 3, 9):
        fld = field_make(q)
        for a in fld.digits:
            assert fld.conj(fld.conj(a)) == a
            assert fld.conj(a) == fld.pow_(a, q)
            assert fld.pow_(a, fld.Q) == a
            assert oracles.in_subfield_q(fld, fld.norm_q(a))
            for b in fld.digits:
                assert fld.conj(fld.add(a, b)) == fld.add(fld.conj(a), fld.conj(b))
                assert fld.conj(fld.mul(a, b)) == fld.mul(fld.conj(a), fld.conj(b))


def test_acceptance_7_long_run_gating_and_bookkeeping():
    # GF(4), dimension 17: 4^17 messages, past the default budget
    code, ext = built("q2-n51-extend-one")
    assert (ext.length, ext.dim) == (103, 17)
    assert code.orthogonal_gram and ext.rule == qcc.RULE_ORTHOGONAL
    assert 4 ** ext.dim > pipeline.DEFAULT_BUDGET
    assert ext.length - 2 * ext.dim == 69  # stabilizer net dimension

    report = cli.run_spec(cli.load_spec(str(SPECS / "q2-n51-extend-one.json")),
                          pipeline.DEFAULT_BUDGET, 1)
    assert report["enumeration"]["skipped"] == "long-run"
    assert report["enumeration"]["estimate"] == "4^17 messages x 103 symbols"
    assert report["dimension"] == 17
    assert report["qecc"] is None

    # GF(81), dimension 5: 81^5 messages; certificate and entanglement
    # bookkeeping are desk-scale and still checked
    code, ext = built("q9-n10-extend-two")
    assert (ext.length, ext.dim) == (22, 5)
    assert ext.rule == qcc.RULE_GRAM_RANK
    assert qcc.entanglement_certificate(code).satisfied
    assert 81 ** ext.dim > pipeline.DEFAULT_BUDGET

    report = cli.run_spec(cli.load_spec(str(SPECS / "q9-n10-extend-two.json")),
                          pipeline.DEFAULT_BUDGET, 1)
    assert report["enumeration"]["skipped"] == "long-run"
    assert report["certificate"]["satisfied"] is True
    assert report["eaqecc"] == {"extended": "[[22,17,?;5]]_9"}

    # the collected tables keep their oversize rows flagged and skipped
    for rows in refdata.TABLES.values():
        for row in rows:
            key = (row.family, row.n, (row.code or row.eaqecc)[1])
            if key in DESK_ROWS:
                assert not row.evaluation().skipped
    assert next(r for r in refdata.TABLES["stabilizer-gf4"]
                if r.n == 29).evaluation().skipped
    assert next(r for r in refdata.TABLES["stabilizer-gf9"]
                if r.n == 23).evaluation().skipped


# the gate the message budget replaced: enumerations of at least this
# dimension were skipped unless asked for, per q
OLD_DIM_GATE = {2: 15, 3: 10, 9: 5}


def test_acceptance_7_budget_decides_as_the_old_gates():
    for q, threshold in OLD_DIM_GATE.items():
        field, n = field_make(q), 24
        for dim in range(25):
            g = (0,) * (n - dim) + (field.one,)  # of degree n - dim
            ev = pipeline.Evaluation(field, n, (0,) * n, g)
            assert ev.dimension == dim
            assert ev.skipped == (dim >= threshold), (q, dim)
    rows = [row for rows in refdata.TABLES.values() for row in rows]
    assert len(rows) == 27
    for row in rows:
        ev = row.evaluation()
        assert ev.skipped == (ev.dimension >= OLD_DIM_GATE[row.q]), row


@pytest.mark.longrun
def test_acceptance_7_long_run_reproductions():
    # [[103,69,7]]: 4^17 messages, past the default budget
    _, ext = built("q2-n51-extend-one")
    enum = wdist.enumerate_code(ext.G)
    assert enum.distance() == 38
    dual = wdist.macwilliams(enum, 4)
    assert dual.distance() == 7
    params = quantum.qecc_from_self_orthogonal(2, enum, dual)
    assert str(params) == "[[103,69,7]]_2"


@pytest.mark.longrun
def test_acceptance_7_assisted_n41():
    # [[82,20,33;62]]_2: 4^20 messages at length 82, past the default
    # budget; the orbit scan takes one level, 8525 fibers of 4^10 words,
    # on two workers
    row = next(r for r in refdata.TABLES["assisted-primal"] if r.n == 41)
    ev = row.evaluation(budget=4 ** 20, workers=2)
    assert [len(reps) for _, reps in ev.code.gen.scan_plan(0).levels] == [8525]
    assert ev.distance == 33
    side = ev.eaqecc.primal
    assert (side.n, side.k, side.d, side.c) == row.eaqecc == (82, 20, 33, 62)
    assert side.maximal


def test_acceptance_7_gf81_extended_distance():
    # 81^5 messages: past the default budget, so the CLI skips it unless
    # given a budget this large; the scan itself is not gated
    code, ext = built("q9-n10-extend-two")
    enum = wdist.enumerate_code(ext.G)
    assert sum(enum.counts) == 81 ** 5
    assert enum.distance() == 11
    assert refdata.find_reference("q9-n10-extend-two").expect["code"] == (22, 5, 11)
    dual = wdist.macwilliams(enum, 81)
    assert dual.distance() == 5
    params = quantum.extended_maximal_eaqecc(ext, dual.distance(),
                                             qcc.entanglement_certificate(code))
    assert str(params) == "[[22,17,5;5]]_9"
    assert params.maximal
