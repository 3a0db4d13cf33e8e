"""End-to-end checks of the command-line front end.

Each test drives ``cli.main`` with an argv list and inspects stdout, the
optional JSON report, and the exit code.  Values asserted here are the same
frozen ones the library tests pin; the point is that the CLI plumbing
(spec parsing, report rendering, error mapping) preserves them.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import oracles
from qcqec import cli, explorer, pipeline, polyring, qcc, refdata, wdist

SPECS = Path(__file__).resolve().parent.parent / "specs"


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write_spec(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_verify_base_certificate(capsys):
    rc, out, _ = run(capsys, "verify", f"{SPECS}/q2-n7-base.json")
    assert rc == 0
    assert "classical code: [14,6,7]_4" in out
    assert "char poly of P: x^7+x^4+x" in out
    assert "certificate: satisfied=True" in out
    assert "primal=[[14,6,7;8]]_2" in out
    assert "dual=[[14,8,5;6]]_2" in out


def test_verify_extended_stabilizer(capsys):
    rc, out, _ = run(capsys, "verify", f"{SPECS}/q2-n15-extend-one.json")
    assert rc == 0
    assert "classical code: [31,7,16]_4" in out
    assert "extension rule: preserve-orthogonality" in out
    assert "dual distance: 5" in out
    assert "qecc: [[31,17,5]]_2 pure=True lengthened=[[32,17,5]]_2" in out


def test_verify_json_report(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    rc, _, _ = run(capsys, "verify", f"{SPECS}/q2-n11-base.json",
                   "--json", str(report_path))
    assert rc == 0
    doc = json.loads(report_path.read_text())
    assert doc["schema"] == 1
    assert doc["classical"] == "[22,5,13]_4"
    assert doc["dual_distance"] == 4
    assert doc["eaqecc"] == {"primal": "[[22,5,13;17]]_2",
                             "dual": "[[22,17,4;5]]_2"}
    assert doc["enumeration"]["enumerator"]["13"] == "66"


def test_verify_full_space_generator(capsys, tmp_path):
    # g = 1 generates the whole space (k = n).  H1 has no rows, so H1 H1^dag
    # is the empty matrix, which is nonsingular, the idempotent of <dual_g>
    # is 0 and P = -(f f̄)^-1 (tests/test_ring_forms.py holds P against the
    # matrices); 1 + f f̄ vanishes at x = 1 in characteristic 2
    doc = json.loads((SPECS / "q2-n7-base.json").read_text())
    spec = write_spec(tmp_path, "g1.json", dict(doc, g="1"))
    report_path = tmp_path / "report.json"
    rc, _, _ = run(capsys, "verify", spec, "--json", str(report_path))
    assert rc == 0
    doc = json.loads(report_path.read_text())
    assert doc["classical"] == "[14,7,5]_4"
    assert doc["certificate"] == {"h1_gram_nonsingular": True, "one_not_eigenvalue": False,
                                  "satisfied": False, "char_poly": "x^7+x^6+x^4+x^3+x+1"}


def test_verify_deterministic_apart_from_timing(capsys, tmp_path):
    docs = []
    for i in range(2):
        path = tmp_path / f"r{i}.json"
        run(capsys, "verify", f"{SPECS}/q3-n10-extend-two.json",
            "--json", str(path))
        doc = json.loads(path.read_text())
        doc.pop("timing")
        docs.append(doc)
    assert docs[0] == docs[1]


def test_verify_long_run_skips_by_default(capsys, tmp_path):
    report_path = tmp_path / "long.json"
    rc, out, _ = run(capsys, "verify", f"{SPECS}/q2-n51-extend-one.json",
                     "--json", str(report_path))
    assert rc == 0
    assert "enumeration: skipped (long-run), 4^17 messages x 103 symbols" in out
    doc = json.loads(report_path.read_text())
    assert doc["dimension"] == 17
    assert doc["enumeration"]["skipped"] == "long-run"
    assert doc["qecc"] is None


def test_verify_budget_exceeded(capsys, tmp_path):
    # a code of more messages than the budget is skipped, not an error; the
    # bookkeeping that needs no enumeration is still reported
    report_path = tmp_path / "small.json"
    rc, out, _ = run(capsys, "verify", f"{SPECS}/q2-n7-base.json",
                     "--budget", str(4 ** 6 - 1), "--json", str(report_path))
    assert rc == 0
    assert "enumeration: skipped (long-run), 4^6 messages x 14 symbols" in out
    assert "eaqecc: primal=[[14,6,?;8]]_2 dual=[[14,8,?;6]]_2" in out
    doc = json.loads(report_path.read_text())
    assert doc["enumeration"] == {"messages": 4 ** 6, "skipped": "long-run",
                                  "estimate": "4^6 messages x 14 symbols"}
    assert doc["distance"] is None and doc["dual_distance"] is None


def test_spec_error_exit_codes(capsys, tmp_path):
    rc, _, err = run(capsys, "verify", str(tmp_path / "missing.json"))
    assert rc == 2 and json.loads(err)["error"]["type"] == "spec"

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, _, _ = run(capsys, "verify", str(bad))
    assert rc == 2

    rc, _, _ = run(capsys, "verify",
                   write_spec(tmp_path, "incomplete.json", {"q": 2, "n": 7}))
    assert rc == 2

    rc, _, _ = run(capsys, "verify",
                   write_spec(tmp_path, "no-x1.json",
                              {"q": 2, "n": 7, "f": "1", "g": "1^2",
                               "mode": "extend-one"}))
    assert rc == 2


# a self-orthogonal [14,3]_4 base and a vector of its left block dual
N7_SO = {"q": 2, "n": 7, "f": "12", "g": "101^3"}
N7_X1 = "(13)^23^21"


@pytest.mark.parametrize("vectors, message", [
    ({"mode": "base", "x1": N7_X1}, "base needs no x1 or x2"),
    ({"mode": "extend-one"}, "extend-one needs x1 and no x2"),
    ({"mode": "extend-one", "x1": N7_X1, "x2": N7_X1}, "extend-one needs x1 and no x2"),
    ({"mode": "extend-two", "x1": N7_X1}, "extend-two needs x1 and x2"),
    ({"x2": N7_X1}, "x2 needs x1"),
    ({"mode": "extend-two", "x2": N7_X1}, "x2 needs x1"),
])
def test_mode_must_match_the_vectors(capsys, tmp_path, vectors, message):
    # a mode that disagrees with the vectors given used to drop them
    spec = write_spec(tmp_path, "spec.json", {**N7_SO, **vectors})
    report_path = tmp_path / "err.json"
    rc, _, err = run(capsys, "verify", spec, "--json", str(report_path))
    assert rc == 2
    assert json.loads(err)["error"] == {"type": "spec", "message": message}
    assert json.loads(report_path.read_text())["error"]["message"] == message


def test_mode_follows_the_vectors(capsys, tmp_path):
    spec = write_spec(tmp_path, "spec.json", {**N7_SO, "x1": N7_X1})
    report_path = tmp_path / "report.json"
    rc, _, _ = run(capsys, "verify", spec, "--json", str(report_path))
    assert rc == 0
    doc = json.loads(report_path.read_text())
    assert (doc["spec"]["mode"], doc["spec"]["x1"], doc["spec"]["x2"]) == (
        "extend-one", "1313^31", None)
    assert doc["classical"] == "[15,4,8]_4"


# every word of the block dual of <x^3 + x + 1> at n = 7 over GF(4) has
# <x,x> = 0, so the orthogonality rule has no vector to take; g = 1 spans
# the whole space, whose dual is {0}
@pytest.mark.parametrize("g", ["1101", "1"])
def test_extend_without_a_qualifying_vector(capsys, tmp_path, g):
    spec = write_spec(tmp_path, "n7.json", {"q": 2, "n": 7, "f": "1", "g": g})
    rc, _, err = run(capsys, "extend", spec)
    assert rc == 4
    assert json.loads(err)["error"]["code"] == "no-qualifying-vector"


# a degree-15 divisor of x^31 - 1 over GF(4) whose block dual (4^15
# words) is isotropic: d d̄ = 0 shows it without a walk over the words
def test_extend_isotropic_dual_without_a_walk(capsys, tmp_path):
    spec = write_spec(tmp_path, "n31.json",
                      {"q": 2, "n": 31, "f": "1", "g": "1^30^31^20^410^21"})
    rc, _, err = run(capsys, "extend", spec)
    assert rc == 4
    assert json.loads(err)["error"]["code"] == "no-qualifying-vector"


def test_extend_rank_rule_needs_q_above_2(capsys):
    rc, _, err = run(capsys, "extend", f"{SPECS}/q2-n15-extend-one.json", "--alpha", "1")
    assert rc == 4
    assert json.loads(err)["error"]["code"] == "wrong-field-size"


# each block dual of the GF(81) spec has 81^7 words; the rank rule takes
# x^6 d on each side.  Two columns make 81^5 messages, past the
# default budget, so the distance is left open
@pytest.mark.parametrize("columns, params", [
    ("1", "[[21,17,4;4]]_9"), ("2", "[[22,17,?;5]]_9"),
])
def test_extend_rank_rule_over_gf81(capsys, columns, params):
    rc, out, _ = run(capsys, "extend", f"{SPECS}/q9-n10-extend-two.json",
                     "--columns", columns, "--alpha", "2")
    assert rc == 0
    assert "extension rule: preserve-gram-rank" in out
    assert f"eaqecc: extended={params}" in out


def test_extend_orthogonality_rule_over_gf81(capsys):
    rc, _, err = run(capsys, "extend", f"{SPECS}/q9-n10-extend-two.json")
    assert rc == 4
    assert json.loads(err)["error"]["code"] == "base-not-self-orthogonal"


@pytest.mark.parametrize("command", ["verify", "extend"])
def test_length_below_one_is_bad_input(capsys, tmp_path, command):
    spec = write_spec(tmp_path, "n0.json", {"q": 2, "n": 0, "f": [], "g": "1"})
    rc, _, err = run(capsys, command, spec)
    assert rc == 2
    assert json.loads(err)["error"] == {"type": "spec", "message": "n must be positive, got 0"}


@pytest.mark.parametrize("doc", [{"q": 2, "n": -3, "f": [], "g": "1"},
                                 {"q": 2, "n": 0, "f": "1", "g": "1"}])
@pytest.mark.parametrize("command", ["verify", "extend"])
def test_length_is_checked_before_the_vectors(capsys, tmp_path, command, doc):
    # f is parsed against n, so a bad n must be reported as such first
    rc, _, err = run(capsys, command, write_spec(tmp_path, "n.json", doc))
    assert rc == 2
    assert json.loads(err)["error"] == {"type": "spec",
                                        "message": f"n must be positive, got {doc['n']}"}


LARGE_N = [10 ** 11, 10 ** 6, polyring.MAX_N + 1]


def assert_length_refused(rc, err, n, seconds):
    # exit 2 with the JSON error, in under a second: nothing was padded,
    # factored or mapped for n
    assert rc == 2 and seconds < 1.0
    assert json.loads(err)["error"] == {
        "type": "spec", "message": f"n must be at most {polyring.MAX_N}, got {n}"}


@pytest.mark.parametrize("n", LARGE_N)
@pytest.mark.parametrize("command", ["verify", "extend"])
def test_a_spec_past_the_largest_length_is_bad_input(capsys, tmp_path, command, n):
    spec = write_spec(tmp_path, "large.json", {"q": 2, "n": n, "f": "1", "g": "11"})
    t0 = time.perf_counter()
    rc, _, err = run(capsys, command, spec)
    assert_length_refused(rc, err, n, time.perf_counter() - t0)


@pytest.mark.parametrize("n", LARGE_N)
def test_a_search_config_past_the_largest_length_is_bad_input(capsys, tmp_path, n):
    cfg = write_spec(tmp_path, "large.json", {"q": 2, "n": n, "max_f_samples": 1})
    t0 = time.perf_counter()
    rc, _, err = run(capsys, "search", "--config", cfg)
    assert_length_refused(rc, err, n, time.perf_counter() - t0)


@pytest.mark.parametrize("n", LARGE_N)
def test_factor_past_the_largest_length_is_bad_input(capsys, n):
    t0 = time.perf_counter()
    rc, _, err = run(capsys, "factor", "--q", "2", "--n", str(n))
    assert_length_refused(rc, err, n, time.perf_counter() - t0)


def test_the_largest_length_is_taken(capsys):
    assert polyring.check_length(polyring.MAX_N) == polyring.MAX_N
    # the largest odd n, as GF(4) needs: x^n - 1 is factored
    rc, out, _ = run(capsys, "factor", "--q", "2", "--n", str(polyring.MAX_N - 1))
    assert rc == 0 and out.startswith(f"x^{polyring.MAX_N - 1} - 1 over GF(4)")
    rc, _, err = run(capsys, "factor", "--q", "2", "--n", "0")
    assert rc == 2 and json.loads(err)["error"]["message"] == "n must be positive, got 0"


@pytest.mark.parametrize("g", ["0", "", [0, 0]])
@pytest.mark.parametrize("command", ["verify", "extend"])
def test_zero_g_is_not_a_divisor(capsys, tmp_path, command, g):
    spec = write_spec(tmp_path, "g0.json", {"q": 2, "n": 7, "f": "1", "g": g})
    rc, _, err = run(capsys, command, spec)
    assert rc == 4
    assert json.loads(err)["error"]["code"] == "g-not-divisor"


def test_precondition_error_reaches_json(capsys, tmp_path):
    # x + x^2 has 0 as a root, so it cannot divide x^7 - 1
    spec = write_spec(tmp_path, "nondiv.json",
                      {"q": 2, "n": 7, "f": "1", "g": "01^2"})
    report_path = tmp_path / "err.json"
    rc, _, err = run(capsys, "verify", spec, "--json", str(report_path))
    assert rc == 4
    assert json.loads(err)["error"]["code"] == "g-not-divisor"
    assert json.loads(report_path.read_text())["error"]["code"] == "g-not-divisor"


def test_extend_unit_rule(capsys, tmp_path):
    spec = write_spec(tmp_path, "base15.json",
                      {"q": 2, "n": 15, "f": "12^3", "g": "12^20310131"})
    rc, out, _ = run(capsys, "extend", spec)
    assert rc == 0
    assert "extension rule: preserve-orthogonality" in out
    # the lexicographically first qualifying vector is a weak one: the good
    # extension needs a searched vector, which is the explorer's job
    assert "classical code: [31,7,8]_4" in out
    assert "qecc: [[31,17,4]]_2" in out


def test_extend_refuses_wrong_bases(capsys, tmp_path):
    # Hermitian hull is nonzero on a self-orthogonal base: no rank rule
    spec = write_spec(tmp_path, "base10.json",
                      {"q": 3, "n": 10, "f": "1521", "g": "5310571"})
    rc, _, err = run(capsys, "extend", spec, "--alpha", "2")
    assert rc == 4
    assert json.loads(err)["error"]["code"] == "base-gram-rank-deficient"

    # and the unit rule needs a self-orthogonal base
    rc, _, err = run(capsys, "extend", f"{SPECS}/q2-n7-base.json")
    assert rc == 4
    assert json.loads(err)["error"]["code"] == "base-not-self-orthogonal"


def test_gv_command(capsys):
    rc, out, _ = run(capsys, "gv", "--q", "2", "--n", "6", "--k", "2", "--d", "2")
    assert rc == 0
    assert out.strip() == "guaranteed by GV (bound satisfied): lhs=21 > rhs=6"

    rc, out, _ = run(capsys, "gv", "--q", "3", "--n", "22", "--k", "10", "--d", "5")
    assert rc == 0
    assert out.strip() == ("not guaranteed by GV (code exceeds bound): "
                           "lhs=597871 <= rhs=3845710")

    rc, out, _ = run(capsys, "gv", "--q", "2", "--n", "7", "--k", "2", "--d", "2")
    assert rc == 0
    assert "not applicable" in out


@pytest.mark.parametrize("q", ["1", "0", "-1"])
def test_gv_rejects_q_below_two(capsys, q):
    rc, _, err = run(capsys, "gv", "--q", q, "--n", "6", "--k", "2", "--d", "2")
    assert rc == 2
    error = json.loads(err)["error"]
    assert error["type"] == "spec" and "q must be at least 2" in error["message"]


def test_flags_a_subcommand_ignores_are_rejected(capsys):
    for argv in (["gv", "--q", "2", "--n", "7", "--k", "1", "--d", "3",
                  "--threads", "2"],
                 ["factor", "--q", "2", "--n", "7", "--seed", "4"],
                 ["search", "--config", "unused.json", "--threads", "2"],
                 ["verify", str(SPECS / "q2-n7-base.json"), "--seed", "1"]):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err


def test_factor_command(capsys, tmp_path):
    report_path = tmp_path / "factors.json"
    rc, out, _ = run(capsys, "factor", "--q", "2", "--n", "7",
                     "--json", str(report_path))
    assert rc == 0
    assert "x^7 - 1 over GF(4): 3 irreducible factors" in out
    doc = json.loads(report_path.read_text())
    assert sorted(f["degree"] for f in doc["factors"]) == [1, 3, 3]


def test_factor_rejects_bad_length(capsys):
    rc, _, err = run(capsys, "factor", "--q", "2", "--n", "14")
    assert rc == 4
    assert json.loads(err)["error"]["code"] == "p-divides-n"


def test_table_assisted_dual(capsys, tmp_path):
    report_path = tmp_path / "t6.json"
    rc, out, _ = run(capsys, "table", "--id", "6", "--json", str(report_path))
    assert rc == 0
    assert "3 rows, 0 failures" in out
    doc = json.loads(report_path.read_text())
    assert [r["status"] for r in doc["rows"]] == ["ok"] * 3
    assert doc["rows"][0]["computed"]["eaqecc"] == [34, 26, 5, 8]


def test_table_recorded_discrepancies_keep_exit_zero(capsys, tmp_path):
    report_path = tmp_path / "t5.json"
    rc, out, _ = run(capsys, "table", "--id", "5", "--json", str(report_path))
    assert rc == 0
    assert "1 recorded discrepancies" in out
    doc = json.loads(report_path.read_text())
    n21 = next(r for r in doc["rows"] if r["n"] == 21)
    assert n21["status"] == "mismatch (recorded discrepancy)"
    assert n21["computed"]["eaqecc"] == [42, 12, 17, 30]
    assert n21["note"]


def test_table_unnoted_mismatch_fails(capsys, monkeypatch):
    row = refdata.TABLES["assisted-dual"][0]
    tampered = dataclasses.replace(row, eaqecc=(34, 26, 6, 8))
    monkeypatch.setitem(refdata.TABLES, "assisted-dual", (tampered,))
    rc, out, _ = run(capsys, "table", "--id", "6")
    assert rc == 1
    assert "1 failures" in out
    assert "eaqecc (34, 26, 5, 8) != collected (34, 26, 6, 8)" in out


def test_table_small_budget_skips_rows(capsys, tmp_path):
    # every row past the budget is skipped with its estimate; none is an error
    report_path = tmp_path / "t6.json"
    rc, out, _ = run(capsys, "table", "--id", "6", "--budget", "65536",
                     "--json", str(report_path))
    assert rc == 0
    assert "n=19  k=29  skipped (long-run): 4^9 messages x 38 symbols" in out
    assert "3 rows, 0 failures" in out
    doc = json.loads(report_path.read_text())
    assert [r["status"] for r in doc["rows"]] == ["ok"] + ["skipped (long-run)"] * 2
    assert [r.get("estimate") for r in doc["rows"]] == [
        None, "4^9 messages x 38 symbols", "4^10 messages x 62 symbols"]


N65 = next(r for r in refdata.TABLES["stabilizer-gf9"] if r.n == 65)


@pytest.mark.parametrize("budget", [None, str(9 ** 14)])
def test_table_row_whose_g_does_not_divide_is_an_error_at_every_budget(
        capsys, monkeypatch, tmp_path, budget):
    # the n = 65 row's g does not divide x^65 - 1, so it cannot be built:
    # an error, not a row skipped for its 9^13 messages
    monkeypatch.setitem(refdata.TABLES, "stabilizer-gf9", (N65,))
    report_path = tmp_path / "t3.json"
    argv = ["table", "--id", "3", "--json", str(report_path)]
    rc, out, _ = run(capsys, *argv, *(["--budget", budget] if budget else []))
    assert rc == 0
    assert "n=65  k=12  error: g-not-divisor (recorded discrepancy)" in out
    doc = json.loads(report_path.read_text())
    assert doc["rows"][0]["status"] == "error: g-not-divisor (recorded discrepancy)"
    assert "estimate" not in doc["rows"][0]
    assert (doc["failures"], doc["recorded_discrepancies"]) == (0, 1)


@pytest.mark.parametrize("budget", [None, str(9 ** 14)])
def test_verify_g_that_does_not_divide_at_every_budget(capsys, tmp_path, budget):
    spec = write_spec(tmp_path, "n65.json", {"q": 3, "n": 65, "f": N65.f, "g": N65.g,
                                             "x1": N65.x1, "mode": "extend-one"})
    rc, _, err = run(capsys, "verify", spec, *(["--budget", budget] if budget else []))
    assert rc == 4
    assert json.loads(err)["error"]["code"] == "g-not-divisor"


@pytest.mark.parametrize("table_id", [1, 5, 6])
def test_table_divides_x_n_minus_1_once_per_generator(capsys, monkeypatch, table_id):
    # every fact of g (h, dual_g, the H1 test, the idempotent, the block
    # dual and the orbit levels) comes from one division by g; none divides
    # by a dual_g
    divisions = []
    divide = polyring.quotient_exact_checked

    def counted(field, n, g):
        divisions.append((field.Q, n, tuple(g)))
        return divide(field, n, g)

    monkeypatch.setattr(polyring, "quotient_exact_checked", counted)
    qcc.generator.cache_clear()
    run(capsys, "table", "--id", str(table_id))
    rows = refdata.TABLES[cli.TABLE_FAMILIES[table_id]]
    assert sorted(divisions) == sorted({(row.q ** 2, row.n, row.polys()[1]) for row in rows})


@pytest.mark.parametrize("key", ["f", "g", "x1"])
def test_a_run_past_n_is_bad_input(capsys, tmp_path, key):
    # the parser refuses the run before it expands it (n + 1 digits for g,
    # which may be x^n - 1), so no MemoryError
    doc = json.loads((SPECS / "q2-n15-extend-one.json").read_text())
    doc[key] = "1^{99999999999}"
    rc, _, err = run(capsys, "verify", write_spec(tmp_path, "long.json", doc))
    assert rc == 2
    error = json.loads(err)["error"]
    assert error["type"] == "spec"
    assert "more than %d digits" % (16 if key == "g" else 15) in error["message"]


@pytest.mark.parametrize("token", ["9" * 5000, "z^" + "9" * 5000, "0" * 5000 + "99"],
                         ids=["digits", "power", "leading-zeros"])
def test_a_long_digit_list_token_is_bad_input(capsys, tmp_path, token):
    # a GF(81) token is refused by its length before int() reads it, which
    # would refuse more than 4300 digits with a ValueError
    doc = {"q": 9, "n": 10, "f": token, "g": "1,1"}
    rc, _, err = run(capsys, "verify", write_spec(tmp_path, "long.json", doc))
    assert rc == 2
    error = json.loads(err)["error"]
    assert error["type"] == "spec" and "out of range for GF(81)" in error["message"]


def test_table_bad_id(capsys):
    rc, _, err = run(capsys, "table", "--id", "7")
    assert rc == 2
    assert json.loads(err)["error"]["type"] == "spec"


def test_search_command(capsys, tmp_path):
    cfg = write_spec(tmp_path, "search.json",
                     {"q": 2, "n": 7, "max_f_samples": 2, "x1_samples": 4,
                      "output_path": str(tmp_path / "records.jsonl")})
    rc, out, _ = run(capsys, "search", "--config", cfg, "--seed", "3")
    assert rc == 0
    assert "frontier: q=2 n=7 k=4 d=8 d_dual=3" in out
    assert "| collected: [15,4,8]_4 -> [[15,7,3]]_2" in out
    assert (tmp_path / "records.jsonl").exists()


def _search_summary(capsys, cfg):
    """The report part of a search's stdout: what follows the count of
    frontier records."""
    rc, out, _ = run(capsys, "search", "--config", cfg)
    assert rc == 0
    lines = out.splitlines()
    count = [i for i, line in enumerate(lines) if line.endswith(" frontier records")]
    assert len(count) == 1
    return "\n".join(lines[count[0] + 1:])


def test_search_summary_is_the_report_of_the_file(capsys, tmp_path):
    # the summary comes from the records the search read and wrote; it must
    # be what reading the finished file gives
    records = tmp_path / "records.jsonl"

    def config(mode):
        return write_spec(tmp_path, mode + ".json",
                          {"q": 2, "n": 7, "mode": mode, "max_f_samples": 3,
                           "x1_samples": 2, "output_path": str(records)})

    qecc, eaqecc = config("qecc"), config("eaqecc")
    fresh = _search_summary(capsys, qecc)
    assert "collected: [15,4,8]_4 -> [[15,7,3]]_2" in fresh
    assert fresh == explorer.report(str(records))
    intact = _search_summary(capsys, qecc)  # nothing left to evaluate
    assert intact == fresh == explorer.report(str(records))

    text = records.read_text()
    start = text.rstrip("\n").rfind("\n") + 1
    records.write_text(text[: start + (len(text) - start) // 2])
    assert _search_summary(capsys, qecc) == explorer.report(str(records)) == fresh
    assert len(records.read_text().splitlines()) == len(text.splitlines())

    # a second config on the same file stops at its first record
    text = records.read_text()
    rc, _, err = run(capsys, "search", "--config", eaqecc)
    assert rc == 2 and records.read_text() == text
    assert "records.jsonl:1: record written under another search config" in (
        json.loads(err)["error"]["message"])
    # records written before records had a config do not stop it
    records.write_text(oracles.without_config(text))
    both = _search_summary(capsys, eaqecc)
    assert "[[14," in both and "[[15,7,3]]_2" in both
    assert both == explorer.report(str(records))


# each field of the fingerprint, and a value other than the default config's
FINGERPRINT_CHANGES = {
    "q": 3, "n": 5, "mode": "eaqecc", "rng_seed": 1, "max_f_degree": 3,
    "x1_samples": 4, "enum_budget": 4096,
}


def test_fingerprint_changes_cover_every_field():
    assert sorted(FINGERPRINT_CHANGES) == sorted(explorer.FINGERPRINT_FIELDS)


@pytest.mark.parametrize("key", sorted(FINGERPRINT_CHANGES))
def test_a_resume_under_another_config_is_bad_input(capsys, tmp_path, key):
    # a records file holds the records of one config: a resume that
    # changes any field of the fingerprint exits 2, names the first line
    # and leaves the file as it was
    records = tmp_path / "records.jsonl"
    doc = {"q": 2, "n": 7, "max_f_samples": 1, "output_path": str(records)}
    assert run(capsys, "search", "--config", write_spec(tmp_path, "a.json", doc))[0] == 0
    text = records.read_text()
    changed = write_spec(tmp_path, "b.json", dict(doc, **{key: FINGERPRINT_CHANGES[key]}))
    rc, out, err = run(capsys, "search", "--config", changed)
    assert rc == 2 and "frontier" not in out
    error = json.loads(err)["error"]
    assert error["type"] == "spec"
    assert error["message"].startswith(
        f"{records}:1: record written under another search config")
    assert records.read_text() == text


def test_a_resume_under_another_seed_flag_is_bad_input(capsys, tmp_path):
    records = tmp_path / "records.jsonl"
    cfg = write_spec(tmp_path, "a.json", {"q": 2, "n": 7, "max_f_samples": 1,
                                          "output_path": str(records)})
    assert run(capsys, "search", "--config", cfg)[0] == 0
    rc, out, _ = run(capsys, "search", "--config", cfg)
    assert rc == 0 and "0 frontier records" in out.splitlines()
    assert run(capsys, "search", "--config", cfg, "--seed", "1")[0] == 2
    assert run(capsys, "search", "--config", cfg, "--budget", "4096")[0] == 2


def test_a_pool_past_the_block_dual_ends(capsys, tmp_path):
    # the block duals at n = 7 have at most 4^4 words: the pool stops once
    # it holds every qualifying one, instead of drawing 200 x1_samples times
    cfg = write_spec(tmp_path, "search.json",
                     {"q": 2, "n": 7, "x1_samples": 1000000, "max_f_samples": 1})
    t0 = time.perf_counter()
    rc, out, _ = run(capsys, "search", "--config", cfg)
    assert rc == 0 and time.perf_counter() - t0 < 5
    assert "1 frontier records" in out.splitlines()


def test_gv_past_the_largest_length_is_bad_input(capsys):
    # the bound's integers grow with n: n is checked before they are formed
    t0 = time.perf_counter()
    rc, _, err = run(capsys, "gv", "--q", "2", "--n", "1000000000", "--k", "10", "--d", "5")
    assert_length_refused(rc, err, 1000000000, time.perf_counter() - t0)


def test_search_rejects_bad_config(capsys, tmp_path):
    cfg = write_spec(tmp_path, "bad.json", {"q": 2, "n": 7, "bogus": 1})
    rc, _, err = run(capsys, "search", "--config", cfg)
    assert rc == 2
    assert "bogus" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("key,value,message", [
    ("x1_samples", -3, "x1_samples must be an integer >= 1"),
    ("x1_samples", 0, "x1_samples must be an integer >= 1"),
    ("max_f_samples", -1, "max_f_samples must be an integer >= 0"),
    ("schema", 7, "unsupported search config schema 7"),
], ids=["x1_samples=-3", "x1_samples=0", "max_f_samples=-1", "schema=7"])
def test_search_rejects_out_of_range_config(capsys, tmp_path, key, value, message):
    cfg = write_spec(tmp_path, "search.json", {"q": 2, "n": 7, "max_f_samples": 1, key: value})
    rc, out, err = run(capsys, "search", "--config", cfg)
    assert rc == 2
    assert "frontier" not in out
    error = json.loads(err)["error"]
    assert error["type"] == "spec"
    assert message in error["message"]


@pytest.mark.parametrize("value", [True, 1.0, "1"], ids=["true", "float", "string"])
@pytest.mark.parametrize("command", ["verify", "search"])
def test_schema_must_be_the_integer_1(capsys, tmp_path, command, value):
    # True == 1 == 1.0 in Python, so a comparison alone would take both
    if command == "verify":
        doc, argv = json.loads((SPECS / "q2-n7-base.json").read_text()), ["verify"]
    else:
        doc, argv = {"q": 2, "n": 7, "max_f_samples": 1, "x1_samples": 1}, ["search", "--config"]
    rc, _, err = run(capsys, *argv, write_spec(tmp_path, "doc.json", dict(doc, schema=value)))
    assert rc == 2
    error = json.loads(err)["error"]
    assert error["type"] == "spec" and "schema" in error["message"]


def test_verify_spec_not_utf8(capsys, tmp_path):
    path = tmp_path / "binary.json"
    path.write_bytes(b'{"q": 2, "n": 7, "f": [1], "g": [1, 1]}\xff')
    rc, _, err = run(capsys, "verify", str(path))
    assert rc == 2
    error = json.loads(err)["error"]
    assert error["type"] == "spec"
    assert "not valid JSON" in error["message"]


def test_search_unreadable_config(capsys, tmp_path):
    undecodable = tmp_path / "latin1.json"
    undecodable.write_bytes(b'{"q": 2, "n": 7, "mode": "\xe9"}')
    for path, message in ((tmp_path / "missing.json", "cannot read search config"),
                          (tmp_path, "cannot read search config"),
                          (undecodable, "not valid JSON")):
        rc, _, err = run(capsys, "search", "--config", str(path))
        assert rc == 2
        error = json.loads(err)["error"]
        assert error["type"] == "spec"
        assert message in error["message"]


@pytest.mark.parametrize("where", ["directory", "missing-parent", "int"])
def test_search_rejects_bad_output_path(capsys, tmp_path, where):
    # an int would be taken by open() for a file descriptor of this process
    output_path, message = {
        "directory": (str(tmp_path), "cannot open records file"),
        "missing-parent": (str(tmp_path / "no" / "r.jsonl"), "cannot open records file"),
        "int": (7, "output_path must be a string"),
    }[where]
    cfg = write_spec(tmp_path, "search.json",
                     {"q": 2, "n": 7, "max_f_samples": 1, "x1_samples": 1,
                      "output_path": output_path})
    rc, out, err = run(capsys, "search", "--config", cfg)
    assert rc == 2
    assert "frontier" not in out
    error = json.loads(err)["error"]
    assert error["type"] == "spec"
    assert message in error["message"]


def test_search_refuses_edited_record(capsys, tmp_path):
    records = tmp_path / "records.jsonl"
    cfg = write_spec(tmp_path, "search.json",
                     {"q": 2, "n": 7, "max_f_samples": 2, "x1_samples": 4,
                      "output_path": str(records)})
    assert run(capsys, "search", "--config", cfg)[0] == 0
    lines = records.read_text().splitlines(keepends=True)
    lines[0] = lines[0].replace('"k":', '"k":1', 1)
    records.write_text("".join(lines))
    rc, _, err = run(capsys, "search", "--config", cfg)
    assert rc == 2
    error = json.loads(err)["error"]
    assert error["type"] == "spec"
    assert "records.jsonl:1: record content does not match its hash" in error["message"]



BASE7 = {"q": 2, "n": 7, "f": "1", "g": "1^2"}


@pytest.mark.parametrize("key, value", [
    ("f", "0323214"), ("g", "114"), ("f", [0, 3, 2, 4]), ("g", [1, 1, -1]),
])
def test_verify_rejects_out_of_range_digits(capsys, tmp_path, key, value):
    # qcc.build takes its digits as given: the spec parser must refuse them
    spec = write_spec(tmp_path, "spec.json", {**BASE7, key: value})
    rc, _, err = run(capsys, "verify", spec)
    assert rc == 2
    error = json.loads(err)["error"]
    assert error["type"] == "spec"
    assert "out of range for GF(4)" in error["message"]


@pytest.mark.parametrize("key, value", [
    ("n", "7"), ("n", 7.0), ("n", True), ("q", "2"), ("q", [2]), ("q", None),
    ("alpha1", "1"), ("alpha2", False), ("enum_budget", "big"),
    ("enum_budget", 2.0 ** 32), ("enum_budget", 0), ("enum_budget", -1),
])
def test_verify_rejects_non_integer_spec_fields(capsys, tmp_path, key, value):
    spec = write_spec(tmp_path, "spec.json", {**BASE7, key: value})
    rc, _, err = run(capsys, "verify", spec)
    assert rc == 2
    error = json.loads(err)["error"]
    assert error["type"] == "spec"
    assert f"spec field {key!r} must be an integer" in error["message"]


@pytest.mark.parametrize("key", ["n", "max_f_samples", "x1_samples", "rng_seed",
                                 "enum_budget", "max_f_degree"])
@pytest.mark.parametrize("value", ["3", 3.0, True])
def test_search_rejects_non_integer_config_fields(capsys, tmp_path, key, value):
    cfg = write_spec(tmp_path, "search.json", {"q": 2, "n": 7, key: value})
    rc, _, err = run(capsys, "search", "--config", cfg)
    assert rc == 2
    error = json.loads(err)["error"]
    assert error["type"] == "spec"
    assert f"{key} must be an integer" in error["message"]


def test_search_rejects_negative_max_f_degree(tmp_path):
    # a degree cap below 0 leaves f no digit to draw, and f = 0 is never a
    # unit; the search once looped on it for ever, hence the child process
    # and its timeout
    cfg = write_spec(tmp_path, "search.json",
                     {"q": 2, "n": 7, "max_f_degree": -1, "max_f_samples": 1})
    program = ("import sys\nfrom qcqec import cli\n"
               f"sys.exit(cli.main(['search', '--config', {cfg!r}]))\n")
    env = dict(os.environ, PYTHONPATH=str(SPECS.parent / "src"))
    done = subprocess.run([sys.executable, "-c", program], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2, done.stderr
    error = json.loads(done.stderr)["error"]
    assert error["type"] == "spec"
    assert "max_f_degree must be >= 0" in error["message"]


@pytest.mark.parametrize("value", ["0", "-1"])
def test_search_rejects_budget_below_one(capsys, tmp_path, value):
    in_file = write_spec(tmp_path, "small.json", {"q": 2, "n": 7, "enum_budget": int(value)})
    plain = write_spec(tmp_path, "plain.json", {"q": 2, "n": 7})
    for argv in (("--config", in_file), ("--config", plain, "--budget", value)):
        rc, _, err = run(capsys, "search", *argv)
        assert rc == 2
        error = json.loads(err)["error"]
        assert error["type"] == "spec"
        assert "must be an integer >= 1, got %s" % value in error["message"]


@pytest.mark.parametrize("flag", ["--budget", "--threads"])
@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("command", ["verify", "extend", "table"])
def test_flags_below_one_are_rejected(capsys, command, flag, value):
    target = ["--id", "6"] if command == "table" else [str(SPECS / "q2-n7-base.json")]
    rc, out, err = run(capsys, command, *target, flag, value)
    assert rc == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error == {"type": "spec", "message": f"{flag} must be an integer >= 1, got {value}"}


def test_verify_budget_precedence(capsys, tmp_path):
    # q2-n7-base enumerates 4^6 messages: a smaller budget skips it
    def skipped(*argv):
        report_path = tmp_path / "report.json"
        assert run(capsys, "verify", *argv, "--json", str(report_path))[0] == 0
        return "skipped" in json.loads(report_path.read_text())["enumeration"]

    in_file = write_spec(tmp_path, "small.json", {**BASE7, "enum_budget": 100})
    assert skipped(in_file)
    assert skipped(in_file, "--budget", "200")
    assert not skipped(in_file, "--budget", str(4 ** 6))
    big_file = write_spec(tmp_path, "big.json", {**BASE7, "enum_budget": 4 ** 6})
    assert not skipped(big_file)
    assert skipped(big_file, "--budget", "300")
    plain = write_spec(tmp_path, "plain.json", BASE7)
    assert skipped(plain, "--budget", "300")
    assert not skipped(plain)


def test_search_budget_precedence(capsys, tmp_path):
    def skips(*argv):
        records = tmp_path / "records.jsonl"
        records.unlink(missing_ok=True)
        cfg = write_spec(tmp_path, "search.json",
                         {"q": 2, "n": 7, "max_f_samples": 1, "x1_samples": 1,
                          "enum_budget": 10, "output_path": str(records)})
        assert run(capsys, "search", "--config", cfg, *argv)[0] == 0
        lines = records.read_text().splitlines()
        return {json.loads(line)["flags"].get("skipped") for line in lines}

    assert skips() == {"enum-budget"}
    # an explicit --budget wins over the file, also when it is the default
    assert skips("--budget", str(pipeline.DEFAULT_BUDGET)) == {None}


# sha256 of each --json report with its "timing" block removed, serialized
# with sorted keys and no spaces.  The digests were taken before verify,
# table and search shared one evaluation pipeline; they pin every byte that
# pipeline renders.  The q9-n10-extend-two digest with a budget of 81^5
# messages was taken when a flag, not the budget, let that code through.  Tables 2 and 4 re-derive the rows of tables 1 and 3.
GOLDEN_REPORTS = (
    (("verify", "q2-n7-base.json"),
     "cc7a6c56449dd8c7ef48d0b3d5531e56dd8d9db8dbe30e732a0246d59388ccd2"),
    (("verify", "q2-n11-base.json"),
     "1f2f7bcaafd8a0ee3328f75f54eece3984864d40f29cdacf7edf6771dd9699f6"),
    (("verify", "q2-n15-extend-one.json"),
     "a06f7a4cae2c6087af3815c92fe6df8f673b1c0df7d4268a1e886d14c7e4da59"),
    (("verify", "q2-n51-extend-one.json"),
     "61eee876aa76c5e8a985b3d8ec7cb3c2982f74af00c8f771a9caba59dd9dfe12"),
    (("verify", "q3-n10-extend-two.json"),
     "73c4030e6a1c14a84baca6715bbb596732eab1e72f69fda8319792ef029612c9"),
    (("verify", "q9-n10-extend-two.json"),
     "249e3d60afffe00685f48223edee9eb53c8dc6df8ec6852db4c5064e6e4117fe"),
    (("verify", "q9-n10-extend-two.json", "--budget", "3486784401"),
     "8fc9c30559c5e9329285886c5104123f2f6480ac7dbf1d5f14ad1d20459b145c"),
    (("table", "--id", "1"),
     "f31c6bbeec8b1aaece42fa3ca009b23dd78cda9d73f3d20e6ab4ef57ad415522"),
    (("table", "--id", "3"),
     "4909e4fb2843397a8fc26c359c9291907cc1861ba2c4ca3562612c71257e8a92"),
    (("table", "--id", "5"),
     "1497a010aec63cfe2c5475658d9542dd375a89b2a03085ddb38709c60e6b749a"),
    (("table", "--id", "6"),
     "6ab15f47eb8862fb3115de48da518e4bac4f2c8fe82be8735f09db7b2346f57b"),
)


@pytest.mark.parametrize("argv, digest", GOLDEN_REPORTS,
                         ids=[" ".join(a) for a, _ in GOLDEN_REPORTS])
def test_reports_match_golden_digest(capsys, tmp_path, argv, digest):
    if argv[0] == "verify":
        argv = ("verify", str(SPECS / argv[1])) + argv[2:]
    report_path = tmp_path / "report.json"
    rc, _, _ = run(capsys, *argv, "--json", str(report_path))
    assert rc == 0
    doc = json.loads(report_path.read_text())
    doc.pop("timing", None)
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


def test_threads_pool_only_the_scans_past_break_even(capsys, monkeypatch, pools_started):
    # table 3 pools its n = 35 row, a [35,9]_9 code estimated at over half a
    # second, and scans its other rows here, each estimated at a few
    # milliseconds at most; so is the [22,6]_9 extension of the GF(9) spec,
    # and so is every scan of table 6
    monkeypatch.setattr(wdist, "_usable_cpus", lambda: 2)
    rc, _, _ = run(capsys, "table", "--id", "3", "--threads", "2")
    assert rc == 0 and pools_started == [2]
    pools_started.clear()
    rc, _, _ = run(capsys, "verify", f"{SPECS}/q3-n10-extend-two.json", "--threads", "2")
    assert rc == 0 and pools_started == []
    rc, _, _ = run(capsys, "table", "--id", "6", "--threads", "2")
    assert rc == 0 and pools_started == []


def test_a_broken_invariant_exits_5_with_a_json_error():
    # a scan that miscounts breaks the enumerator's total: the console
    # reports it as an invariant error, with no traceback
    program = f"""
import sys
from qcqec import cli, wdist

scan = wdist._scan

def corrupt(job):
    counts = scan(job)
    counts[1] += 1
    return counts

wdist._scan = corrupt
sys.exit(cli.main(["verify", {str(SPECS / "q2-n7-base.json")!r}]))
"""
    src_dir = str(Path(wdist.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src_dir)
    done = subprocess.run([sys.executable, "-c", program], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 5 and "Traceback" not in done.stderr
    err = json.loads(done.stderr)["error"]
    assert err["type"] == "invariant" and err["message"].startswith("enumerator total")
