"""End-to-end checks of the command-line front end.

Each test drives ``cli.main`` with an argv list and inspects stdout, the
optional JSON report, and the exit code.  Values asserted here are the same
frozen ones the library tests pin; the point is that the CLI plumbing
(spec parsing, report rendering, error mapping) preserves them.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from qcqec import cli, refdata

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


def test_verify_budget_exceeded(capsys):
    rc, _, err = run(capsys, "verify", f"{SPECS}/q2-n51-extend-one.json",
                     "--allow-long", "--budget", "1000000")
    assert rc == 3
    doc = json.loads(err)
    assert doc["error"]["type"] == "budget"
    assert doc["error"]["required"] == 4 ** 17
    assert doc["error"]["budget"] == 1000000


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


def test_flags_a_subcommand_ignores_are_rejected(capsys):
    for argv in (["gv", "--q", "2", "--n", "7", "--k", "1", "--d", "3",
                  "--threads", "2"],
                 ["factor", "--q", "2", "--n", "7", "--seed", "4"],
                 ["search", "--config", "unused.json", "--allow-long"],
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


def test_search_rejects_bad_config(capsys, tmp_path):
    cfg = write_spec(tmp_path, "bad.json", {"q": 2, "n": 7, "bogus": 1})
    rc, _, err = run(capsys, "search", "--config", cfg)
    assert rc == 2
    assert "bogus" in json.loads(err)["error"]["message"]


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
