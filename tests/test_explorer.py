"""Search harness tests.

The generators of both search modes are checked against naive all-subsets
oracles, and the search stream against the parameters of small collected
rows it should be able to rediscover.  Everything here runs with small
budgets; determinism is exercised by comparing two full runs byte for byte
(minus timestamps).
"""

import functools
import gc
import hashlib
import itertools
import json
import os
import random
import re
import types

import pytest

import oracles
from qcqec import explorer, polyring, qcc, quantum, wdist
from qcqec.errors import BudgetExceeded, PreconditionError, SpecError
from qcqec.gf import field_make

GF4 = field_make(2)
GF9 = field_make(3)
GF81 = field_make(9)


@functools.lru_cache(maxsize=None)  # shared by the oracle tests of both modes
def naive_divisors(field, n):
    factors = polyring.factor_xn_minus_1(field, n)
    out = []
    for mask in range(2 ** len(factors)):
        g = (field.one,)
        for i, fac in enumerate(factors):
            if mask >> i & 1:
                g = polyring.poly_mul(field, g, fac)
        out.append(g)
    return tuple(sorted(out, key=lambda g: (polyring.deg(g), g)))


def naive_qualifying(field, n):
    return [g for g in naive_divisors(field, n)
            if polyring.divides(field, oracles.dual_gen(field, n, g), g)]


# every length p does not divide whose x^n - 1 has at most 12 irreducible
# factors: n <= 35 over GF(4) and GF(9), n <= 20 over GF(81)
WALK_GRID = [(field.q, n) for field, top in ((GF4, 35), (GF9, 35), (GF81, 20))
             for n in range(1, top + 1)
             if n % field.p and len(polyring.cyclotomic_cosets(field.Q, n)) <= 12]


@pytest.mark.parametrize("q,n", WALK_GRID)
def test_qualifying_g_matches_naive_oracle(q, n):
    field = field_make(q)
    got = explorer._generators(field, n, True)
    assert got == naive_qualifying(field, n)
    xn1 = polyring.x_pow_n_minus_1(field, n)
    for g in got:
        assert g[-1] == field.one  # monic
        assert polyring.divides(field, g, xn1)
        assert 2 * polyring.deg(g) >= n
    assert got[-1] == xn1  # the zero code always qualifies


@pytest.mark.parametrize("q,n", WALK_GRID)
def test_all_divisors_match_naive_oracle(q, n):
    # the eaqecc search's generators: every subset product of the factors
    field = field_make(q)
    assert explorer._generators(field, n, False) == list(naive_divisors(field, n))


def test_qualifying_g_beyond_the_oracle():
    # x^51 - 1 over GF(4) has 15 factors: six conjugate-reciprocal pairs,
    # each taken in one of three ways, and three self-conjugate factors
    gs = explorer._generators(GF4, 51, True)
    assert len(gs) == len(set(gs)) == 3 ** 6
    assert gs == sorted(gs, key=lambda g: (polyring.deg(g), g))
    xn1 = polyring.x_pow_n_minus_1(GF4, 51)
    for g in gs:
        assert g[-1] == GF4.one
        assert polyring.divides(GF4, g, xn1)
        assert polyring.divides(GF4, oracles.dual_gen(GF4, 51, g), g)


def test_qualifying_g_contains_known_generators():
    gs15 = explorer._generators(GF4, 15, True)
    assert polyring.trim(polyring.parse_compact(GF4, "1220310131")) in gs15
    gs10 = explorer._generators(GF9, 10, True)
    assert polyring.trim(polyring.parse_compact(GF9, "5310571")) in gs10


def test_divisor_cap(monkeypatch):
    # the cap counts the generators a mode makes: x^7 - 1 over GF(4) has a
    # self-conjugate factor and one conjugate-reciprocal pair, so 3 qecc
    # generators, and 2^3 = 8 divisors
    monkeypatch.setattr(explorer, "DIVISOR_CAP", 4)
    assert len(explorer._generators(GF4, 7, True)) == 3
    with pytest.raises(BudgetExceeded) as info:
        explorer._generators(GF4, 7, False)
    assert info.value.required == 8


def test_divisor_cap_counts_qecc_generators_not_subsets():
    # x^63 - 1 over GF(4) has 23 factors, nine conjugate-reciprocal pairs
    # and five self-conjugate ones: 3^9 qecc generators under the cap, 2^23
    # divisors past it
    assert len(explorer._generators(GF4, 63, True)) == 3 ** 9
    with pytest.raises(BudgetExceeded) as info:
        explorer._generators(GF4, 63, False)
    assert info.value.required == 2 ** 23


def test_qualifying_g_rejects_p_dividing_n():
    with pytest.raises(PreconditionError) as info:
        explorer._generators(GF4, 14, True)
    assert info.value.code == "p-divides-n"


def test_bad_config():
    with pytest.raises(SpecError):
        list(explorer.search(explorer.SearchConfig(q=2, n=7, mode="tables")))
    with pytest.raises(SpecError):
        list(explorer.search(explorer.SearchConfig(q=2, n=7, max_f_samples=-1)))


def test_search_stream_is_empty_without_qualifying_g(tmp_path):
    cfg = explorer.SearchConfig(q=2, n=3, mode="qecc", max_f_samples=4,
                                output_path=str(tmp_path / "r.jsonl"))
    assert list(explorer.search(cfg)) == []
    assert (tmp_path / "r.jsonl").read_text() == ""


def _run(tmp_path, name, **kw):
    cfg = explorer.SearchConfig(output_path=str(tmp_path / name), **kw)
    return cfg, list(explorer.search(cfg))


def test_search_rediscovers_gf4_n7(tmp_path):
    cfg, recs = _run(tmp_path, "n7.jsonl", q=2, n=7, mode="qecc",
                     max_f_samples=10, rng_seed=0)
    assert any(r.k == 4 and r.d == 8 and r.qecc == (15, 7, 3) for r in recs)

    # frontier property: per dimension, the dual distance never drops
    per_k = {}
    for r in recs:
        assert r.d_dual >= per_k.get(r.k, 0)
        per_k[r.k] = r.d_dual

    # resume on the complete file finds nothing new to evaluate
    assert list(explorer.search(cfg)) == []


def test_search_rediscovers_gf9_n11(tmp_path):
    _, recs = _run(tmp_path, "n11.jsonl", q=3, n=11, mode="qecc",
                   max_f_samples=12, rng_seed=0, x1_samples=12)
    assert any(r.k == 6 and r.d == 12 and r.qecc == (23, 11, 5) for r in recs)


def test_search_eaqecc_gf4_n7(tmp_path):
    _, recs = _run(tmp_path, "ea7.jsonl", q=2, n=7, mode="eaqecc",
                   max_f_samples=24, rng_seed=0)
    assert any(r.eaqecc == (14, 6, 7, 8) for r in recs)
    for r in recs:
        assert r.flags["certificate_ok"]
        assert r.eaqecc[1] + r.eaqecc[3] == r.eaqecc[0]  # maximal


def test_search_determinism(tmp_path):
    lines = []
    for name in ("a.jsonl", "b.jsonl"):
        _run(tmp_path, name, q=2, n=7, mode="qecc", max_f_samples=6, rng_seed=3)
        docs = [json.loads(s) for s in
                (tmp_path / name).read_text().splitlines()]
        for doc in docs:
            doc.pop("ts")
        lines.append(docs)
    assert lines[0] == lines[1]


def test_frontier_is_kept_per_field(tmp_path):
    # records of another field in the best records leave the frontier
    # alone; a records file holds the records of one config, so the GF(9)
    # search hands its best records to the GF(4) one
    _, fresh = _run(tmp_path, "fresh.jsonl", q=2, n=7, mode="eaqecc", max_f_samples=4)
    assert len(fresh) == 3 and all(r.flags["frontier"] for r in fresh)
    best = {}
    other = list(explorer.search(explorer.SearchConfig(
        q=3, n=7, mode="eaqecc", max_f_samples=1, output_path=str(tmp_path / "gf9.jsonl")), best))
    # a GF(9) record beats each of those at the same (n, k)
    top = max((r.d_dual, r.d) for r in other if r.k == 6)
    assert all(r.k == 6 and (r.d_dual, r.d) < top for r in fresh)
    mixed = list(explorer.search(explorer.SearchConfig(
        q=2, n=7, mode="eaqecc", max_f_samples=4, output_path=str(tmp_path / "gf4.jsonl")), best))
    assert [r.payload() for r in mixed] == [r.payload() for r in fresh]


def test_resume_after_torn_final_line(tmp_path, capsys):
    kw = dict(q=2, n=7, mode="qecc", max_f_samples=6, rng_seed=3)
    _run(tmp_path, "whole.jsonl", **kw)
    whole = (tmp_path / "whole.jsonl").read_text()
    start = whole.rstrip("\n").rfind("\n") + 1
    torn = tmp_path / "torn.jsonl"
    torn.write_text(whole[: start + (len(whole) - start) // 2])

    _run(tmp_path, "torn.jsonl", **kw)
    assert "torn.jsonl:%d" % whole.count("\n") in capsys.readouterr().err
    docs = []
    for text in (whole, torn.read_text()):
        docs.append([json.loads(line) for line in text.splitlines()])
        for doc in docs[-1]:
            doc.pop("ts")
    assert docs[0] == docs[1]


def test_resume_rejects_bad_line_before_the_last(tmp_path):
    cfg, _ = _run(tmp_path, "r.jsonl", q=2, n=7, mode="qecc", max_f_samples=4)
    path = tmp_path / "r.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    lines[1] = lines[1][: len(lines[1]) // 2] + "\n"
    path.write_text("".join(lines))
    with pytest.raises(SpecError) as info:
        list(explorer.search(cfg))
    assert "r.jsonl:2" in str(info.value)


def test_emitted_records_reverify(tmp_path):
    _, recs = _run(tmp_path, "n7.jsonl", q=2, n=7, mode="qecc",
                   max_f_samples=6, rng_seed=0)
    assert recs
    for rec in recs:
        f = polyring.parse_compact(GF4, rec.f, 7)
        g = polyring.trim(polyring.parse_compact(GF4, rec.g))
        code = qcc.build(GF4, 7, f, g)
        ext = qcc.extend_one(code, polyring.parse_compact(GF4, rec.flags["x1"], 7))
        enum = wdist.enumerate_code(ext.G)
        dual = wdist.macwilliams(enum, 4)
        assert (ext.dim, enum.distance(), dual.distance()) == (rec.k, rec.d, rec.d_dual)
        params = quantum.qecc_from_self_orthogonal(2, enum, dual)
        assert (params.n, params.k, params.d) == rec.qecc
        assert oracles.content_hash(rec.payload()) == rec.hash


def test_report_side_by_side(tmp_path):
    path = tmp_path / "n7.jsonl"
    _run(tmp_path, "n7.jsonl", q=2, n=7, mode="qecc", max_f_samples=10,
         rng_seed=0)
    text = explorer.report(str(path))
    assert "[15,4,8]_4" in text and "[[15,7,3]]_2" in text
    assert "collected: [15,4,8]_4 -> [[15,7,3]]_2" in text

    # duplicated lines collapse deterministically
    doubled = tmp_path / "twice.jsonl"
    doubled.write_text(path.read_text() + path.read_text())
    assert explorer.report(str(doubled)) == text


def test_report_keeps_the_first_best_record(tmp_path):
    # per (q, n, k) the first record in file order with the highest
    # (d_dual, d); the file must hold a tie for that to show
    path = tmp_path / "n7.jsonl"
    _run(tmp_path, "n7.jsonl", q=2, n=7, mode="eaqecc", max_f_samples=6)
    recs = [explorer.record_from_doc(json.loads(line))
            for line in path.read_text().splitlines()]
    first, ties = {}, 0
    for rec in recs:
        if rec.d_dual is None:
            continue
        cur = first.get(rec.k)
        if cur is None or (rec.d_dual, rec.d) > (cur.d_dual, cur.d):
            first[rec.k] = rec
        elif (rec.d_dual, rec.d) == (cur.d_dual, cur.d) and rec.f != cur.f:
            ties += 1
    assert first and ties
    text = explorer.report(str(path))
    for rec in first.values():
        assert "f=%s g=%s" % (rec.f, rec.g) in text


def test_report_empty_and_malformed(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert explorer.report(str(empty)) == ""

    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"q": 2}\n')
    with pytest.raises(SpecError) as info:
        explorer.report(str(bad))
    assert "bad.jsonl:1" in str(info.value)


def test_report_names_a_line_that_is_not_utf8(tmp_path):
    path = tmp_path / "r.jsonl"
    _run(tmp_path, "r.jsonl", q=2, n=7, mode="qecc", max_f_samples=2)
    lines = path.read_bytes().splitlines(keepends=True)
    lines[1] = lines[1].replace(b'"g":"', b'"g":"\xff', 1)
    path.write_bytes(b"".join(lines))
    with pytest.raises(SpecError) as info:
        explorer.report(str(path))
    assert "r.jsonl:2" in str(info.value)


def test_report_leaves_a_torn_line_unread(tmp_path, capsys):
    path = tmp_path / "r.jsonl"
    _run(tmp_path, "r.jsonl", q=2, n=7, mode="qecc", max_f_samples=4)
    text = path.read_text()
    whole = explorer.report(str(path))
    path.write_text(text + text.splitlines(keepends=True)[0][:40])
    assert explorer.report(str(path)) == whole
    assert "no newline" in capsys.readouterr().err
    assert path.read_text().endswith(text.splitlines()[0][:40])  # not cut


def _flip_distance(path):
    """Change the distance of the first record that has one, leaving its
    hash as it was; returns that record's line number."""
    lines = path.read_text().splitlines(keepends=True)
    for lineno, line in enumerate(lines, 1):
        found = re.search(r'"d":(\d)', line)
        if found:
            digit = str((int(found.group(1)) + 1) % 10)
            lines[lineno - 1] = line[:found.start(1)] + digit + line[found.end(1):]
            path.write_text("".join(lines))
            return lineno
    raise AssertionError("no record with a distance")


def test_resume_rejects_edited_record(tmp_path):
    cfg, _ = _run(tmp_path, "r.jsonl", q=2, n=7, mode="qecc", max_f_samples=4)
    lineno = _flip_distance(tmp_path / "r.jsonl")
    with pytest.raises(SpecError) as info:
        list(explorer.search(cfg))
    assert "r.jsonl:%d" % lineno in str(info.value)
    assert "does not match its hash" in str(info.value)


def test_report_rejects_edited_record(tmp_path):
    _run(tmp_path, "r.jsonl", q=2, n=7, mode="qecc", max_f_samples=4)
    path = tmp_path / "r.jsonl"
    explorer.report(str(path))  # intact: accepted
    lineno = _flip_distance(path)
    with pytest.raises(SpecError) as info:
        explorer.report(str(path))
    assert "r.jsonl:%d" % lineno in str(info.value)
    assert "does not match its hash" in str(info.value)


# sha256 of the record file of the default config at q=2, n=7, seed 0, each
# line without its "ts" field; the files were written by the Euclid-based
# sampler and the build without per-generator reuse.  They pin the sampler's
# RNG stream and every byte of every record.
GOLDEN_N7 = {
    "qecc": "6e6facea12e7042d5b6447354cbfc8d4b5c646b710b941f5615f27722cf45b67",
    "eaqecc": "ad5cc7af362d608ad8658c23d0ffbb76f9d9d3532b7b0f07bc1c90b6010eb922",
}


# The same digest for searches of max_f_samples = 2, taken before the
# certificate was decided ahead of the build and before the scans of a
# base code's extensions shared its base part: in eaqecc mode most
# candidates are certificate skips, and in qecc mode every extension of
# (2, 15) and (3, 8) scans through a shared base part.
GOLDEN_SMALL = {
    (2, 15, "qecc"): "1b6062cabca118c07166a874b51ce971e273b4f4772348b746672e5357a97925",
    (2, 15, "eaqecc"): "7df280236b6b04734369a70db5d1b73d962a05cd9e7b96c131958e590558bc35",
    (3, 8, "qecc"): "c0bc06be0c23c12dfb396cb5f02312ca599592e4da4c9c0c536d81227af322ae",
    (3, 8, "eaqecc"): "352b5b77ecbfd40ebd121e6b1e9e46c18703f3d17ec8b3b75c314b7e421024b4",
}


def _records_digest(tmp_path, mode, q=2, n=7, **kw):
    """The digest of the records file of a search at seed 0, each line without
    its ts and its config.  The hash covers the config: each line's hash is
    checked against the oracle, and the digest takes in its place the hash
    of the record without its config, the one it had before records had a
    config, so the digests still pin every other byte."""
    cfg, _ = _run(tmp_path, "golden.jsonl", q=q, n=n, mode=mode, rng_seed=0, **kw)
    digest = hashlib.sha256()
    for line in (tmp_path / "golden.jsonl").read_text().splitlines():
        doc = json.loads(line)
        doc.pop("ts")
        assert doc.pop("config") == cfg.fingerprint
        payload = {key: value for key, value in doc.items() if key != "hash"}
        assert doc["hash"] == oracles.content_hash(dict(payload, config=cfg.fingerprint))
        doc["hash"] = oracles.content_hash(payload)
        digest.update((json.dumps(doc, separators=(",", ":")) + "\n").encode())
    return digest.hexdigest()


# sha256 of the f that _sample_fs draws, in compact form one to a line: 8
# draws from each of the first 4 per-generator streams at the benchmark's
# seeds 0, 1 and 7, for n = 7 and 15 over GF(4) and n = 10 over GF(9).
# Taken while is_unit still reduced f by rows of digits; it pins the
# rejection sampler's accept/reject decisions and so its RNG stream.
GOLDEN_F_DRAWS = "53ab4a33ebe989bbf7df6b3418e7dc3439acd7c6caba8611762ae7f9d46dd175"


def test_sample_f_draws_match_golden_digest():
    digest = hashlib.sha256()
    for field, n in ((GF4, 7), (GF4, 15), (GF9, 10)):
        for seed in (0, 1, 7):
            for gi in range(4):
                rng = random.Random(seed * 0x9E3779B1 + gi)
                for f in explorer._sample_fs(field, n, rng, None, 8):
                    digest.update((polyring.render_compact(field, f) + "\n").encode())
    assert digest.hexdigest() == GOLDEN_F_DRAWS


# The same, for 8 draws from each of the first 4 streams at seeds 0, 1 and
# 7, for n = 10 over GF(81), whose digits take 7 bits, and for n = 15 over
# GF(4) with max_f_degree = 3.  Taken while the sampler still drew each digit
# with rng.randrange(field.Q).
GOLDEN_F_DRAWS_WIDE_AND_CAPPED = (
    "cdd4166dbc8da2349cc9382cb34287bac3f8d3172f8e0a884b67e03da033d1a7")


def test_sample_f_draws_gf81_and_degree_cap_match_golden_digest():
    digest = hashlib.sha256()
    for field, n, max_deg in ((field_make(9), 10, None), (GF4, 15, 3)):
        for seed in (0, 1, 7):
            for gi in range(4):
                rng = random.Random(seed * 0x9E3779B1 + gi)
                for f in explorer._sample_fs(field, n, rng, max_deg, 8):
                    assert max_deg is None or not any(f[max_deg + 1:])
                    digest.update((polyring.render_compact(field, f) + "\n").encode())
    assert digest.hexdigest() == GOLDEN_F_DRAWS_WIDE_AND_CAPPED


# the bulk sampler against the one-digit-at-a-time reference; the long
# lengths take fewer seeds, as the reference's Euclid is slow there
SAMPLER_GRID = ([(GF4, n) for n in (3, 7, 14, 15, 21, 23, 63, 127)]
                + [(GF9, n) for n in (8, 10, 12, 41)]
                + [(GF81, n) for n in (6, 10, 22)])


@pytest.mark.parametrize("field,n", SAMPLER_GRID,
                         ids=[f"Q{f.Q}-n{n}" for f, n in SAMPLER_GRID])
def test_sampler_matches_reference(field, n):
    seeds = range(40 if n <= 23 else 12)
    for max_deg in (None, 0, 3):
        for count in (0, 1, 8):
            for seed in seeds:
                a, b = random.Random(seed), random.Random(seed)
                if seed % 2:
                    # a stream some digits into the generator's, as after
                    # the extension-vector pool
                    assert explorer._draw_digits(a, field.Q, seed) == [
                        b.randrange(field.Q) for _ in range(seed)]
                got = list(explorer._sample_fs(field, n, a, max_deg, count))
                want = oracles.sample_fs_reference(field, n, b, max_deg, count)
                assert got == want, (n, max_deg, count, seed)
                assert all(type(d) is int for f in got for d in f)


@pytest.mark.parametrize("q,n", [(2, 7), (2, 15), (3, 11)])
def test_sampler_after_the_x1_pool_matches_reference(q, n, monkeypatch):
    # qecc mode: each generator's stream first feeds the extension-vector
    # pool, whose draws must stop where randrange's would
    field = field_make(q)

    def by_randrange(rng, Q, count):
        return [rng.randrange(Q) for _ in range(count)]

    gs = [g for g in explorer._generators(field, n, True)
          if 0 < polyring.deg(g) < n]
    assert gs
    for gi, g in enumerate(gs):
        probe = qcc.build(field, n, (0,) * n, g)
        a, b = random.Random(gi), random.Random(gi)
        pool = explorer._x1_pool(field, probe, a, 8)
        with monkeypatch.context() as m:
            m.setattr(explorer, "_draw_digits", by_randrange)
            assert explorer._x1_pool(field, probe, b, 8) == pool
        got = list(explorer._sample_fs(field, n, a, None, 8))
        assert got == oracles.sample_fs_reference(field, n, b, None, 8)


@pytest.mark.parametrize("q,n", [(2, 7), (2, 15), (2, 21), (3, 8), (3, 10), (3, 13)])
def test_x1_pool_lies_in_the_block_dual(q, n):
    field = field_make(q)
    pooled = 0
    for gi, g in enumerate(explorer._generators(field, n, True)):
        if not 0 < polyring.deg(g) < n:
            continue
        probe = qcc.build(field, n, (0,) * n, g)
        pool = explorer._x1_pool(field, probe, random.Random(gi), 8)
        if isinstance(pool, str):
            continue
        left, _ = oracles.generator_blocks(field, n, probe.f, g)
        assert len(set(pool)) == len(pool)
        for x in pool:
            assert any(x) and oracles.orthogonal_to_rows(x, left)
            assert qcc.column_gram(field, x, 1) == 0
        pooled += len(pool)
    assert pooled


@pytest.mark.parametrize("error, reason", [
    (PreconditionError("no-qualifying-vector", "none"), "no-extension-vector"),
])
def test_search_records_the_missing_extension_vector(tmp_path, monkeypatch, error, reason):
    def refuse(code, side, alpha=None):
        raise error

    monkeypatch.setattr(qcc, "find_extension_vector", refuse)
    cfg, recs = _run(tmp_path, "r.jsonl", q=2, n=7, mode="qecc", max_f_samples=3)
    assert recs == []
    records = list(explorer.read_records(cfg.output_path))
    assert len(records) == 3 * len([g for g in explorer._generators(GF4, 7, True)
                                    if 0 < polyring.deg(g) < 7])
    for rec in records:
        assert rec.flags["skipped"] == reason and rec.flags["x1"] is None
        assert rec.d is None and rec.qecc is None


def test_sampler_draws_bounded_batches():
    # a count of 10^12 allocates nothing in proportion: every bulk draw is
    # at most _DRAW_WORDS outputs, and the f keep matching the reference
    # across the batch boundaries
    asked = []

    class Watched(random.Random):
        def getrandbits(self, k):
            asked.append(k)
            return super().getrandbits(k)

    fs = explorer._sample_fs(GF4, 15, Watched(3), None, 10 ** 12)
    got = [next(fs) for _ in range(2000)]
    assert len(asked) >= 3
    assert max(asked) <= 32 * explorer._DRAW_WORDS
    assert got == oracles.sample_fs_reference(GF4, 15, random.Random(3), None, 2000)


def test_sampler_with_batches_shorter_than_a_block(monkeypatch):
    # batches of three digits hold no whole block, and the digits carry
    # over to the next
    monkeypatch.setattr(explorer, "_DRAW_WORDS", 3)
    for field, n in ((GF4, 15), (GF81, 10)):
        got = list(explorer._sample_fs(field, n, random.Random(5), None, 8))
        assert got == oracles.sample_fs_reference(field, n, random.Random(5), None, 8)


@pytest.mark.parametrize("mode", sorted(GOLDEN_N7))
def test_search_records_match_golden_digest(tmp_path, mode):
    assert _records_digest(tmp_path, mode) == GOLDEN_N7[mode]


@pytest.mark.parametrize("q,n,mode", sorted(GOLDEN_SMALL))
def test_search_records_of_two_f_per_generator_match_golden_digest(tmp_path, q, n, mode):
    assert _records_digest(tmp_path, mode, q, n, max_f_samples=2) == GOLDEN_SMALL[q, n, mode]


def test_eaqecc_search_builds_only_what_passes_the_certificate(tmp_path, monkeypatch):
    # a certificate skip is decided from f's forms over its generator, with
    # no code built; every code built passes the certificate
    built = []
    build = qcc.build

    def recorded(field, n, f, g):
        code = build(field, n, f, g)
        built.append(code)
        return code

    monkeypatch.setattr(qcc, "build", recorded)
    _run(tmp_path, "r.jsonl", q=2, n=15, mode="eaqecc", max_f_samples=2, rng_seed=0)
    records = list(explorer.read_records(str(tmp_path / "r.jsonl")))
    passed = [rec for rec in records if rec.flags["certificate_ok"]]
    assert len(records) == 1020 and 0 < len(built) == len(passed) < len(records) // 10
    assert all(qcc.entanglement_certificate(code).satisfied for code in built)


def test_eaqecc_search_never_inverts(tmp_path, monkeypatch):
    # the certificate is read off gcds with the divisors: no candidate pays
    # for a ring inverse (only P, which a search never reads, needs one)
    def refuse(*args, **kwargs):
        raise AssertionError("ring_inv called")

    monkeypatch.setattr(polyring, "ring_inv", refuse)
    assert _records_digest(tmp_path, "eaqecc") == GOLDEN_N7["eaqecc"]


def test_search_leaves_no_cyclic_garbage(monkeypatch):
    # a search's frames, functions and codes are freed by reference
    # counting, not left for a later collection: the divisor walk and the
    # skip reasons of the extension-vector pool hold no reference cycles
    package = os.path.dirname(explorer.__file__)

    def ours(obj):
        if isinstance(obj, qcc.QcCode):
            return True
        if isinstance(obj, types.FrameType):
            return obj.f_code.co_filename.startswith(package)
        if isinstance(obj, types.FunctionType):
            return (obj.__module__ or "").startswith("qcqec")
        return False

    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for mode in ("qecc", "eaqecc"):
            list(explorer.search(explorer.SearchConfig(q=2, n=7, mode=mode)))
        # every generator skipped: the pool finds no extension vector
        def refuse(code, side, alpha=None):
            raise PreconditionError("no-qualifying-vector", "none")

        monkeypatch.setattr(qcc, "find_extension_vector", refuse)
        records = list(explorer.search(explorer.SearchConfig(q=2, n=7, mode="qecc")))
        gc.collect()
        leaked = [obj for obj in gc.garbage if ours(obj)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert not records
    assert not leaked, leaked[:5]


# --- the config fingerprint and resumes --------------------------------------------

# the fingerprint of the default config at q=2, n=7, seed 0, per mode
GOLDEN_FINGERPRINT_N7 = {"qecc": "5bcb76ce32a4ee68", "eaqecc": "3d01f95f9192e329"}


@pytest.mark.parametrize("mode", sorted(GOLDEN_FINGERPRINT_N7))
def test_fingerprint_of_the_default_n7_configs(tmp_path, mode):
    cfg = explorer.SearchConfig(q=2, n=7, mode=mode)
    assert cfg.fingerprint == GOLDEN_FINGERPRINT_N7[mode]
    fields = {name: getattr(cfg, name) for name in explorer.FINGERPRINT_FIELDS}
    assert cfg.fingerprint == oracles.content_hash(fields)[:16]
    # neither the number of f nor the file moves it
    assert explorer.SearchConfig(q=2, n=7, mode=mode, max_f_samples=3,
                                 output_path="r.jsonl").fingerprint == cfg.fingerprint
    _, recs = _run(tmp_path, "r.jsonl", q=2, n=7, mode=mode, max_f_samples=2)
    assert recs and all(rec.config == cfg.fingerprint for rec in recs)
    assert all(rec.config == cfg.fingerprint
               for rec in explorer.read_records(str(tmp_path / "r.jsonl")))


@pytest.fixture
def streams(monkeypatch):
    """The seeds of the per-generator random streams explorer makes."""
    made = []

    class Counted(random.Random):
        def __init__(self, seed):
            made.append(seed)
            super().__init__(seed)

    monkeypatch.setattr(explorer, "random", types.SimpleNamespace(Random=Counted))
    return made


def _walk_seeds(q, n, mode, seed=0):
    gs = [g for g in explorer._generators(field_make(q), n, mode == "qecc")
          if 0 < polyring.deg(g) < n]
    return [seed * 0x9E3779B1 + gi for gi in range(len(gs))]


def _without_ts(text):
    docs = [json.loads(line) for line in text.splitlines()]
    for doc in docs:
        doc.pop("ts")
    return docs


# small configs whose generators each draw max_f_samples distinct f
RESUMED = [dict(q=2, n=15, mode="eaqecc", max_f_samples=2),
           dict(q=2, n=15, mode="qecc", max_f_samples=2, x1_samples=2),
           dict(q=3, n=8, mode="qecc", max_f_samples=3)]


@pytest.mark.parametrize("kw", RESUMED, ids=lambda kw: "%(q)d-%(n)d-%(mode)s" % kw)
def test_an_intact_resume_draws_no_generator(tmp_path, streams, kw):
    cfg, _ = _run(tmp_path, "r.jsonl", **kw)
    walked = _walk_seeds(kw["q"], kw["n"], kw["mode"])
    assert streams == walked
    text = (tmp_path / "r.jsonl").read_text()
    assert len(text.splitlines()) == kw["max_f_samples"] * len(walked)
    streams.clear()
    assert list(explorer.search(cfg)) == [] and streams == []
    assert (tmp_path / "r.jsonl").read_text() == text


@pytest.mark.parametrize("kw", RESUMED, ids=lambda kw: "%(q)d-%(n)d-%(mode)s" % kw)
def test_a_torn_resume_redraws_one_generator(tmp_path, streams, kw):
    _run(tmp_path, "whole.jsonl", **kw)
    whole = (tmp_path / "whole.jsonl").read_text()
    start = whole.rstrip("\n").rfind("\n") + 1
    (tmp_path / "torn.jsonl").write_text(whole[: start + (len(whole) - start) // 2])
    streams.clear()
    _run(tmp_path, "torn.jsonl", **kw)
    assert streams == _walk_seeds(kw["q"], kw["n"], kw["mode"])[-1:]
    assert _without_ts((tmp_path / "torn.jsonl").read_text()) == _without_ts(whole)


@pytest.mark.parametrize("kw", RESUMED, ids=lambda kw: "%(q)d-%(n)d-%(mode)s" % kw)
def test_raising_max_f_samples_continues_every_generator(tmp_path, streams, kw):
    more = dict(kw, max_f_samples=kw["max_f_samples"] + 2)
    _run(tmp_path, "fresh.jsonl", **more)
    _run(tmp_path, "r.jsonl", **kw)
    streams.clear()
    _run(tmp_path, "r.jsonl", **more)
    assert streams == _walk_seeds(kw["q"], kw["n"], kw["mode"])

    def candidates(name):
        # the frontier flag depends on the order the records were made in
        docs = _without_ts((tmp_path / name).read_text())
        for doc in docs:
            doc["flags"].pop("frontier")
            doc.pop("hash")
        return sorted(docs, key=lambda doc: (doc["g"], doc["f"]))

    assert candidates("r.jsonl") == candidates("fresh.jsonl")


def test_a_pre_fingerprint_file_resumes_as_before(tmp_path, streams):
    # records without a config fill the seen set and the best records, but
    # finish no generator: every generator is walked, nothing evaluated
    kw = dict(q=2, n=15, mode="eaqecc", max_f_samples=2)
    cfg, _ = _run(tmp_path, "whole.jsonl", **kw)
    whole = (tmp_path / "whole.jsonl").read_text()
    old = oracles.without_config(whole)
    (tmp_path / "r.jsonl").write_text(old)
    streams.clear()
    assert _run(tmp_path, "r.jsonl", **kw)[1] == []
    assert streams == _walk_seeds(2, 15, "eaqecc")
    assert (tmp_path / "r.jsonl").read_text() == old
    # the first half of it: the rest is evaluated as in a fresh search
    lines = old.splitlines(keepends=True)
    (tmp_path / "half.jsonl").write_text("".join(lines[: len(lines) // 2]))
    _run(tmp_path, "half.jsonl", **kw)
    docs = _without_ts((tmp_path / "half.jsonl").read_text())
    assert all("config" not in doc for doc in docs[: len(lines) // 2])
    assert all(doc.pop("config") == cfg.fingerprint for doc in docs[len(lines) // 2:])
    assert [{k: v for k, v in doc.items() if k != "hash"} for doc in docs] == [
        {k: v for k, v in doc.items() if k not in ("hash", "config")}
        for doc in _without_ts(whole)]


def test_duplicate_lines_finish_no_generator(tmp_path, streams):
    # a generator is finished by max_f_samples distinct f: a file that
    # holds its first f twice still draws it
    kw = dict(q=2, n=15, mode="eaqecc", max_f_samples=2)
    cfg, _ = _run(tmp_path, "whole.jsonl", **kw)
    first = (tmp_path / "whole.jsonl").read_text().splitlines(keepends=True)[0]
    (tmp_path / "r.jsonl").write_text(first * 2)
    streams.clear()
    _run(tmp_path, "r.jsonl", **kw)
    assert streams == _walk_seeds(2, 15, "eaqecc")


# --- the one-pass record text against the json oracle -------------------------------

_ODD_STRINGS = ['"', "\\", "a\"b\\c", "\n\t\x00\x1f", "/", "é", "中文", "\U0001f600",
                " ", "\ud800", "", " ", "0^{12}", "1,2,3"]
_ODD_VALUES = ([None, True, False, 0, 1, -1, 2 ** 64, -(10 ** 30), 10 ** 4000, 1.0, 2.5,
                -0.0, 1e300, float("nan"), float("inf"), [], {}, [1, 2, 3], [1, 2, 3, 4],
                [True, 1, 1], [1, "2", 3], [1.0, 2, 3], {"b": [1, {"c": None}], "a": 1},
                "abc"] + _ODD_STRINGS)
_RECORD_KEYS = ["q", "n", "f", "g", "k", "d", "d_dual", "qecc", "eaqecc", "flags",
                "seed", "config", "hash", "ts"]


def _mutated(rng, doc):
    """doc with one to three seeded mutations of its fields."""
    doc = json.loads(json.dumps(doc))
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(7)
        key = rng.choice(_RECORD_KEYS)
        if kind == 0:
            doc[key] = rng.choice(_ODD_VALUES)
        elif kind == 1 and key in doc:
            del doc[key]
        elif kind == 2:
            doc[rng.choice(_ODD_STRINGS + ["extra"])] = rng.choice(_ODD_VALUES)
        elif kind == 3 and isinstance(doc.get("flags"), dict):
            doc["flags"][rng.choice(_ODD_STRINGS + ["x1", "zz", "skipped"])] = (
                rng.choice(_ODD_VALUES))
        elif kind == 4:
            doc[rng.choice(["f", "g", "config"])] = "".join(
                rng.choice(_ODD_STRINGS) for _ in range(rng.randint(1, 4)))
        elif kind == 5:
            doc[rng.choice(["q", "n", "k", "d", "d_dual", "seed"])] = rng.choice(
                [rng.randrange(-5, 10 ** rng.randint(1, 40)), 10 ** 4000 + 7, True, 3.0])
        else:
            doc[rng.choice(["qecc", "eaqecc"])] = rng.choice(
                [None, [], [rng.randrange(100) for _ in range(rng.randint(0, 5))],
                 "123", {"a": 1}, 5, [[1], 2, 3]])
    return doc


def _line(rng, doc):
    """doc as one records line, in one of several spellings, sometimes hashed
    again by the oracle, sometimes torn by a byte edit."""
    if rng.random() < 0.6 and isinstance(doc, dict):
        doc = dict(doc)
        payload = {k: v for k, v in doc.items() if k not in ("hash", "ts")}
        try:
            doc["hash"] = oracles.content_hash(payload)
        except ValueError:  # an integer past the digit limit
            pass
    keys = list(doc)
    if rng.random() < 0.3:
        rng.shuffle(keys)
        doc = {k: doc[k] for k in keys}
    try:
        text = json.dumps(doc, ensure_ascii=rng.random() < 0.5,
                          separators=rng.choice([(",", ":"), (", ", ": ")]))
    except ValueError:  # an integer past the digit limit
        text = '{"q": %s}' % ("9" * 5000)
    line = text.encode("utf-8", "surrogatepass")
    edit = rng.random()
    if edit < 0.05:
        cut = rng.randrange(len(line))
        line = line[:cut] + line[cut + 1:]
    elif edit < 0.1:
        cut = rng.randrange(len(line))
        line = line[:cut] + rng.choice([b"\xff", b"x", b"1", b"[", b"\\"]) + line[cut:]
    elif edit < 0.12:
        line = b"[" * 5000 + b"]" * 5000
    return line.replace(b"\n", b"") + b"\n"


def _real_docs(tmp_path):
    docs = []
    for kw in (dict(q=2, n=7, mode="qecc", max_f_samples=3),
               dict(q=2, n=7, mode="eaqecc", max_f_samples=3),
               dict(q=3, n=8, mode="eaqecc", max_f_samples=1)):
        name = "%(q)d-%(n)d-%(mode)s.jsonl" % kw
        _run(tmp_path, name, **kw)
        text = (tmp_path / name).read_text()
        docs += [json.loads(line) for line in text.splitlines()]
        docs += [json.loads(line) for line in oracles.without_config(text).splitlines()]
    return docs


def test_read_records_accepts_what_the_json_oracle_accepts(tmp_path):
    docs = _real_docs(tmp_path)
    rng = random.Random(2028)
    path = tmp_path / "case.jsonl"
    counts = {True: 0, False: 0}
    for case in range(10000):
        doc = rng.choice(docs)
        line = _line(rng, _mutated(rng, doc) if case % 10 else doc)
        want = oracles.record_line_ok(line)
        path.write_bytes(line)
        try:
            got = list(explorer.read_records(str(path)))
        except SpecError as exc:
            assert not want, (line, exc)
            assert str(exc).startswith(f"{path}:1: ")
        else:
            assert want and len(got) == 1, line
            doc = json.loads(line)
            doc.pop("ts", None)
            assert dict(got[0].payload(), hash=got[0].hash) == doc
        counts[want] += 1
    assert min(counts.values()) > 1000, counts


def test_written_lines_are_what_the_oracle_accepts(tmp_path):
    # every line a search writes spells its payload in field order, and its
    # hash is the oracle's
    for kw in (dict(q=2, n=7, mode="qecc", max_f_samples=3),
               dict(q=2, n=7, mode="eaqecc", max_f_samples=3)):
        _run(tmp_path, kw["mode"] + ".jsonl", **kw)
        for line in (tmp_path / (kw["mode"] + ".jsonl")).read_bytes().splitlines(keepends=True):
            assert oracles.record_line_ok(line)
            doc = json.loads(line)
            assert list(doc) == _RECORD_KEYS
            assert line.decode() == json.dumps(doc, separators=(",", ":")) + "\n"


# --- the x1 pool past its block dual ------------------------------------------------


@pytest.mark.parametrize("q,n", [(2, 7), (2, 5), (3, 5)])
def test_a_pool_past_the_block_dual_holds_every_qualifying_word(q, n):
    field = field_make(q)
    for gi, g in enumerate(explorer._generators(field, n, True)):
        if not 0 < polyring.deg(g) < n:
            continue
        probe = qcc.build(field, n, (0,) * n, g)
        dual, dim = qcc.block_dual(probe, 1)
        words = {polyring.ring_mul(field, n, msg, dual)
                 for msg in itertools.product(range(field.Q), repeat=dim)}
        qualifying = {x for x in words if any(x) and not qcc.column_gram(field, x, 1)}
        rng = random.Random(gi)
        pool = explorer._x1_pool(field, probe, rng, 10 ** 6)
        assert set(pool) == qualifying and len(pool) == len(qualifying)
        assert explorer._qualifying_words(field, n, dual, dim) == len(qualifying)
