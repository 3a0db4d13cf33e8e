"""Consistency checks over the collected reference rows.

These run the cheap structural validations on every row: compact strings
parse, generators divide x^n - 1, degrees match the stated dimensions, and
the construction preconditions of each family hold.  Distance claims are
checked elsewhere (desk-scale rows in the acceptance suite).
"""

from pathlib import Path

import pytest

import oracles
from qcqec import cli, pipeline, polyring, qcc, refdata
from qcqec.errors import PreconditionError
from qcqec.gf import field_make

ALL_ROWS = [row for rows in refdata.TABLES.values() for row in rows]

# Rows whose collected values fail a structural check.  Each entry names the
# check that fails; the tests below assert the failure is still present so a
# silent data edit cannot go unnoticed.
BAD_DIVISOR = {("stabilizer-gf9", 65)}
BAD_AUX_VECTOR = {("stabilizer-gf9", 35)}
BAD_DIMENSION = {("stabilizer-gf9", 65), ("assisted-primal", 21)}


@pytest.mark.parametrize("row", ALL_ROWS, ids=lambda r: f"{r.family}-n{r.n}-k{(r.code or r.eaqecc)[1]}")
def test_row_parses_and_divides(row):
    fld = row.field()
    f, g, x1 = row.polys()
    assert len(f) == row.n
    divides = polyring.divides(fld, g, polyring.x_pow_n_minus_1(fld, row.n))
    if (row.family, row.n) in BAD_DIVISOR:
        assert row.note and not divides
    else:
        assert divides
    if x1 is not None:
        assert len(x1) == row.n


@pytest.mark.parametrize("row", [r for rows in ("stabilizer-gf4", "stabilizer-gf9") for r in refdata.TABLES[rows]],
                         ids=lambda r: f"q{r.q}-n{r.n}-k{r.code[1]}")
def test_stabilizer_row_shapes(row):
    _, g, x1 = row.polys()
    deg = polyring.deg(g)
    n2 = 2 * row.n + 1
    assert row.code[0] == row.dual[0] == row.qecc[0] == n2
    expected_k = row.n - deg + 1
    if (row.family, row.n) in BAD_DIMENSION:
        assert row.note and row.code[1] != expected_k
    else:
        assert row.code[1] == expected_k
    stated_k = row.code[1]
    assert row.dual[1] == n2 - stated_k
    assert row.qecc[1] == n2 - 2 * stated_k
    assert row.qecc[2] == row.dual[2]
    if (row.family, row.n) in BAD_DIVISOR:
        return  # dual generator undefined, nothing further to check

    # the unit-alpha extension applies: g self-orthogonal, x1 in the dual
    # of the left block with self-product p - 1
    fld = row.field()
    assert polyring.divides(fld, oracles.dual_gen(fld, row.n, g), g)
    k = row.n - deg
    g1 = oracles.mat_from_poly(fld, row.n, g, k)
    in_dual = oracles.orthogonal_to_rows(x1, g1)
    product = qcc.hermitian_self_product(fld, x1)
    if (row.family, row.n) in BAD_AUX_VECTOR:
        assert row.note and not in_dual and product != fld.neg(fld.one)
    else:
        assert in_dual
        assert product == fld.neg(fld.one)


@pytest.mark.parametrize("row", [r for rows in ("assisted-primal", "assisted-dual") for r in refdata.TABLES[rows]],
                         ids=lambda r: f"{r.family}-n{r.n}")
def test_assisted_row_certificate(row):
    fld = row.field()
    f, g, _ = row.polys()
    code = qcc.build(fld, row.n, f, g)
    assert code.f_coprime
    cert = qcc.entanglement_certificate(code)
    assert cert.satisfied

    deg = polyring.deg(g)
    n2, k, c = row.eaqecc[0], row.eaqecc[1], row.eaqecc[3]
    assert n2 == 2 * row.n
    assert k + c == n2  # maximal entanglement
    if row.family == "assisted-primal":
        want_k, want_c = row.n - deg, row.n + deg
    else:
        want_k, want_c = row.n + deg, row.n - deg
    if (row.family, row.n) in BAD_DIMENSION:
        assert row.note and (k, c) != (want_k, want_c)
    else:
        assert (k, c) == (want_k, want_c)


@pytest.mark.parametrize("budget", [pipeline.DEFAULT_BUDGET, 9 ** 14])
def test_bad_divisor_rows_raise_before_the_budget_gate(budget):
    for row in ALL_ROWS:
        if (row.family, row.n) in BAD_DIVISOR:
            with pytest.raises(PreconditionError, match="g-not-divisor"):
                row.evaluation(budget=budget).code


def test_long_run_flags():
    long_rows = {(r.family, r.n, (r.code or r.eaqecc)[1]) for rows in refdata.TABLES.values()
                 for r in rows if r.evaluation().skipped}
    assert long_rows == {
        ("stabilizer-gf4", 29, 15),
        ("stabilizer-gf4", 31, 16),
        ("stabilizer-gf4", 37, 19),
        ("stabilizer-gf4", 39, 19),
        ("stabilizer-gf4", 63, 16),
        ("stabilizer-gf9", 23, 12),
        ("stabilizer-gf9", 65, 12),
        ("assisted-primal", 41, 20),
    }


def test_reference_codes_consistent():
    assert len(refdata.REFERENCE_CODES) == 6
    for rc in refdata.REFERENCE_CODES:
        fld = field_make(rc.q)
        assert rc.mode in refdata.MODES
        code = qcc.build(fld, rc.n, rc.f, rc.g)
        if rc.mode == "extend-one":
            ext = qcc.extend_one(code, rc.x1, rc.alpha1)
        elif rc.mode == "extend-two":
            ext = qcc.extend_two(code, rc.x1, rc.x2, rc.alpha1, rc.alpha2)
        else:
            ext = None
        want = rc.expect.get("code")
        if want and ext is not None:
            assert (ext.length, ext.dim) == want[:2]
        elif want:
            assert (code.length, code.k) == want[:2]
        if rc.expect.get("certificate"):
            assert qcc.entanglement_certificate(code).satisfied


SPECS = Path(__file__).resolve().parent.parent / "specs"


@pytest.mark.parametrize("rc", refdata.REFERENCE_CODES, ids=lambda rc: rc.name)
def test_spec_files_hold_the_reference_inputs(rc):
    # specs/<name>.json and REFERENCE_CODES are two copies of the same
    # constructions: the spec file, as the CLI reads it, has the RefCode's
    # inputs
    spec = cli.load_spec(str(SPECS / f"{rc.name}.json"))
    ev = cli._spec_evaluation(spec, None, 1)
    cols = refdata.MODES.index(rc.mode)
    assert spec["mode"] == rc.mode
    assert (ev.field, ev.n) == (field_make(rc.q), rc.n)
    assert ev.f == rc.f + (0,) * (rc.n - len(rc.f)) and ev.g == rc.g
    assert ev.xs == (rc.x1, rc.x2)[:cols]
    assert ev.alphas == (rc.alpha1, rc.alpha2)[:cols]


def test_find_reference():
    rc = refdata.find_reference("q2-n7-base")
    assert rc.n == 7 and rc.mode == "base"
    with pytest.raises(KeyError):
        refdata.find_reference("missing")
