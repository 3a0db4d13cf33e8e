"""The orbit scan: `qcc.Generator.scan_plan` and `wdist.enumerate_code(G, plan=...)`.

A one-generator code is R_h = GF(Q)[x]/(h) as a module, and its words of
nonzero residue r modulo an irreducible factor m of h make the fiber
c(r) + C', whose weights the double shift and the scalars carry onto the
fiber of u r for every u in H1 = <x, GF(Q)*>.  Each plan is checked
against the plain matrix scan of the same G and, where small enough,
against the naive oracle; its cosets and its message count are checked on
their own.  A plan keeps the base part of the last base code scanned under
it; the scans that follow are checked to reuse it exactly when their base
rows are the same, whatever the bases and vectors in between.
"""

import hashlib
import random
from pathlib import Path

import pytest

import oracles
from qcqec import cli, explorer, pipeline, polyring, qcc, refdata, wdist
from qcqec.errors import PreconditionError
from qcqec.gf import field_make

GF4 = field_make(2)
GF9 = field_make(3)

SPECS = Path(__file__).resolve().parent.parent / "specs"


@pytest.fixture
def levels_taken(monkeypatch):
    """No code is scanned in one step, and every level that saves words is
    taken: a key costs nothing."""
    monkeypatch.setattr(wdist, "_ONE_STEP_BYTES", 0)
    monkeypatch.setattr(wdist, "_KEY_S", 0.0)
    qcc.generator.cache_clear()
    yield
    qcc.generator.cache_clear()


def g_leaving(field, n, h_factors):
    """The g whose h = (x^n - 1)/g is the product of the factors of x^n - 1
    at the indices h_factors (sorted as `factor_xn_minus_1` sorts them)."""
    factors = polyring.factor_xn_minus_1(field, n)
    h = (field.one,)
    for i in h_factors:
        h = polyring.poly_mul(field, h, factors[i])
    return polyring.quotient_exact_checked(field, n, h)


def random_code(field, n, h_factors, seed):
    rng = random.Random(seed)
    f = tuple(rng.randrange(field.Q) for _ in range(n))
    return qcc.build(field, n, f, g_leaving(field, n, h_factors))


def with_columns(code, cols, seed):
    """The extension of code by cols random columns.  The scan does not
    depend on the extension rule, so the vectors need not satisfy one."""
    rng = random.Random(seed)
    Q = code.field.Q
    xs = tuple(tuple(rng.randrange(Q) for _ in range(code.n)) for _ in range(cols))
    alphas = tuple(rng.randrange(1, Q) for _ in range(cols))
    return qcc.ExtendedCode(code, xs, alphas, qcc.RULE_GRAM_RANK, 0)


def scan_plan(code):
    """The plan the pipeline scans code under: its generator's, for its
    number of columns."""
    if isinstance(code, qcc.ExtendedCode):
        return code.base.gen.scan_plan(code.columns_added)
    return code.gen.scan_plan(0)


def messages(plan, Q, k):
    """Q^k as the plan splits it: each level's |H1| N fibers of Q^(rows
    after it) words, and the rest's span, times Q^cols for the extension
    rows."""
    rows, total = k - plan.cols, 0
    for mult, reps in plan.levels:
        rows -= len(reps[0])
        total += mult * len(reps) * Q ** rows
    return Q ** plan.cols * (total + Q ** rows)


# (field, n, indices of the factors of x^n - 1 that make h): degrees of h's
# factors in brackets
GRID = [
    (GF4, 5, (1, 2)),        # [2, 2], k = 4
    (GF4, 5, (0, 1, 2)),     # [1, 2, 2], k = 5
    (GF4, 7, (1,)),          # [3], k = 3: the level spans every row
    (GF4, 7, (1, 2)),        # [3, 3], k = 6
    (GF4, 9, (0, 1, 3)),     # [1, 1, 3], k = 5
    (GF4, 15, (3, 4, 5)),    # [2, 2, 2], k = 6
    (GF4, 21, (3, 4)),       # [3, 3], k = 6
    (GF9, 5, (1, 2)),        # [2, 2], k = 4
    (GF9, 16, (0, 8)),       # [1, 2], k = 3
    (GF9, 13, (0, 1)),       # [1, 3], k = 4
]


@pytest.mark.parametrize("field,n,h_factors", GRID)
def test_orbit_scan_matches_matrix_scan_and_oracle(field, n, h_factors, levels_taken):
    code = random_code(field, n, h_factors, n * field.Q)
    plan = scan_plan(code)
    assert plan.levels and plan.cols == 0
    assert messages(plan, field.Q, code.k) == field.Q ** code.k
    enum = wdist.enumerate_code(code.G, plan=plan)
    assert enum == wdist.enumerate_code(code.G) == oracles.enumerate_code_naive(code.G)


@pytest.mark.parametrize("field,n,h_factors,cols", [
    (GF4, 5, (1, 2), 1), (GF4, 21, (3, 4), 1), (GF9, 5, (1,), 1), (GF9, 13, (0, 1), 1),
    (GF9, 16, (8,), 2),
])
def test_orbit_scan_of_extensions(field, n, h_factors, cols, levels_taken):
    ext = with_columns(random_code(field, n, h_factors, n + cols), cols, n)
    plan = scan_plan(ext)
    # the extension rows lead, and every level is the base code's
    assert plan.cols == cols
    assert plan.levels == scan_plan(ext.base).levels
    assert messages(plan, field.Q, ext.dim) == field.Q ** ext.dim
    enum = wdist.enumerate_code(ext.G, plan=plan)
    assert enum == wdist.enumerate_code(ext.G)
    if field.Q ** ext.dim <= 9 ** 4:
        assert enum == oracles.enumerate_code_naive(ext.G)


@pytest.fixture
def scans(monkeypatch):
    """The number of `_scan` calls so far, in a one-item list."""
    calls = [0]
    scan = wdist._scan

    def counted(job):
        calls[0] += 1
        return scan(job)

    monkeypatch.setattr(wdist, "_scan", counted)
    return calls


# (field, n, indices of h's factors, columns, whether the extension is
# scanned in one step, whether it takes an orbit level)
SHARED = [
    (GF4, 7, (1,), 1, True, False),         # [15, 4]_4: one step
    (GF4, 15, (3, 4, 5), 1, False, False),  # [31, 7]_4: past one step, no level
    (GF4, 21, (3, 4), 1, False, True),      # [43, 7]_4 with the levels taken
    (GF9, 13, (0, 1), 1, False, True),      # [27, 5]_9 with the levels taken
    (GF4, 7, (1,), 2, True, False),         # [16, 5]_4: two columns, one step
    (GF9, 16, (0, 8), 2, False, False),     # [34, 5]_9: two columns past one step
]


@pytest.mark.parametrize("field,n,h_factors,cols,one_step,levels", SHARED)
def test_extensions_sharing_a_base_part_match_the_plain_scan(
        field, n, h_factors, cols, one_step, levels, monkeypatch, scans):
    if levels:
        monkeypatch.setattr(wdist, "_ONE_STEP_BYTES", 0)
        monkeypatch.setattr(wdist, "_KEY_S", 0.0)
    qcc.generator.cache_clear()
    code = random_code(field, n, h_factors, n)
    plan = code.gen.scan_plan(cols)
    k = code.k + cols
    assert (wdist.table_rows(field, k, 2 * n + cols) == k) == one_step
    assert bool(plan.levels) == levels and plan.cols == cols
    for seed in range(4):
        ext = with_columns(code, cols, seed)
        before = scans[0]
        enum = wdist.enumerate_code(ext.G, plan=plan)
        # the base part is scanned by the first extension alone
        assert scans[0] - before == (2 if seed == 0 else 1)
        assert enum == wdist.enumerate_code(ext.G), seed
        if field.Q ** k <= 4 ** 5:
            assert enum == oracles.enumerate_code_naive(ext.G)
    qcc.generator.cache_clear()


def test_pipeline_extensions_share_one_base_part_per_column_count(scans):
    # the evaluations that `extended` makes of one base code share one
    # base part per column count, and so does an evaluation given its
    # vectors when the last scan under its plan had its base rows
    qcc.generator.cache_clear()
    spec = refdata.find_reference("q2-n15-extend-one")
    base = pipeline.Evaluation(GF4, spec.n, spec.f, spec.g)
    x2 = qcc.find_extension_vector(base.code, 2)
    xs = [(spec.x1,), (qcc.find_extension_vector(base.code, 1),), (spec.x1, x2)]
    counts = []
    for vectors in xs + xs[:1]:
        ev = base.extended(vectors)
        before = scans[0]
        assert ev.enum == wdist.enumerate_code(ev.ext.G)
        counts.append(scans[0] - before - 1)
    assert counts == [2, 1, 2, 1]
    alone = pipeline.Evaluation(GF4, spec.n, spec.f, spec.g, xs[0])
    before = scans[0]
    assert alone.enum == base.extended(xs[0]).enum
    assert alone.code.gen is base.code.gen and scans[0] - before == 2  # two lead scans


# (field, n, indices of h's factors, columns, whether the levels are taken)
INTERLEAVED = [
    (GF4, 15, (3, 4, 5), 1, False),  # [31, 7]_4: past one step, no level
    (GF4, 21, (3, 4), 1, True),      # [43, 7]_4 with the levels taken
    (GF9, 16, (0, 8), 2, False),     # [34, 5]_9: two columns, no level
    (GF9, 13, (0, 1), 2, True),      # [28, 6]_9: two columns, the levels taken
    (GF4, 7, (1,), 2, False),        # [16, 5]_4: two columns, one step
]


@pytest.mark.parametrize("field,n,h_factors,cols,levels", INTERLEAVED)
def test_interleaved_bases_rebuild_the_base_part_exactly_when_its_rows_change(
        field, n, h_factors, cols, levels, monkeypatch, scans):
    # f1.x1, f2.x1, f1.x2, f2.x2 under one plan, each base part made for
    # the base before it; then f2.x1 again, whose base part is the last
    if levels:
        monkeypatch.setattr(wdist, "_ONE_STEP_BYTES", 0)
        monkeypatch.setattr(wdist, "_KEY_S", 0.0)
    qcc.generator.cache_clear()
    bases = [random_code(field, n, h_factors, seed) for seed in (n, n + 1)]
    assert bases[0].gen is bases[1].gen and bases[0].G != bases[1].G
    plan = bases[0].gen.scan_plan(cols)
    assert bool(plan.levels) == levels and plan.cols == cols
    k = bases[0].k + cols
    rebuilt = []
    for b, seed in [(0, 1), (1, 1), (0, 2), (1, 2), (1, 1)]:
        ext = with_columns(bases[b], cols, seed)
        before = scans[0]
        enum = wdist.enumerate_code(ext.G, plan=plan)
        assert scans[0] - before in (1, 2)
        rebuilt.append(scans[0] - before == 2)  # the base part, then the lead units
        assert enum == wdist.enumerate_code(ext.G), (b, seed)
        if field.Q ** k <= 4 ** 6:
            assert enum == oracles.enumerate_code_naive(ext.G), (b, seed)
    assert rebuilt == [True, True, True, True, False]
    qcc.generator.cache_clear()


@pytest.mark.parametrize("field,n,h_factors,levels", [
    (GF9, 16, (0, 8), False),  # [34, 5]_9: two columns, no level
    (GF9, 13, (0, 1), True),   # [28, 6]_9: two columns, the levels taken
])
def test_the_first_scan_rows_are_the_extension_rows_of_g(
        field, n, h_factors, levels, monkeypatch, pool_always, pools_started):
    # here and on a pool, the scan rows start with G's last cols rows as
    # they stand; the basis combines G's base rows alone, and a plan of no
    # level has none
    if levels:
        monkeypatch.setattr(wdist, "_ONE_STEP_BYTES", 0)
        monkeypatch.setattr(wdist, "_KEY_S", 0.0)
    monkeypatch.setattr(wdist, "_usable_cpus", lambda: 2)
    qcc.generator.cache_clear()
    ext = with_columns(random_code(field, n, h_factors, n), 2, n)
    plan = scan_plan(ext)
    assert bool(plan.levels) == levels and (plan.basis is None) == (not levels)
    assert not levels or len(plan.basis) == ext.base.k
    expected = wdist.enumerate_code(ext.G)
    scanned, multiples = [], wdist.BitPlanes.multiples

    def recorded(self, rows):
        scanned.append([tuple(row) for row in rows])
        return multiples(self, rows)

    monkeypatch.setattr(wdist.BitPlanes, "multiples", recorded)
    rows = [tuple(row) for row in ext.G.rows]
    base, lead = rows[:ext.base.k], rows[ext.base.k:]
    assert wdist.enumerate_code(ext.G, plan=plan) == expected
    assert scanned[1:] == [[row] for row in lead]
    assert (scanned[0] == base) == (not levels)
    here, scanned[:] = scanned[0], []
    assert wdist.enumerate_code(ext.G, plan=plan, workers=2) == expected
    assert pools_started == [2] and scanned == [lead + here]
    qcc.generator.cache_clear()


def test_a_plan_refuses_a_generator_of_another_shape():
    # the one-column plan of a generator cannot scan its base code's G
    code = random_code(GF4, 15, (3, 4, 5), 0)
    with pytest.raises(ValueError, match="a plan for"):
        wdist.enumerate_code(code.G, plan=code.gen.scan_plan(1))


def units_digest(plan):
    """A digest of the plan's table rows and of its work units dealt to
    one, two and three workers."""
    dealt = [plan.inner] + [plan.chunks(workers) for workers in (1, 2, 3)]
    return hashlib.sha256(repr(dealt).encode()).hexdigest()[:16]


def assert_every_message_once(plan):
    """Each deal's units cover the Q^k messages once: a unit (head, mult)
    stands for mult Q^(k - len head) of them."""
    Q, k = plan.field.Q, plan.k
    for workers in (1, 2, 3):
        units = [unit for chunk in plan.chunks(workers) for unit in chunk]
        assert len(plan.chunks(workers)) <= workers
        assert sum(mult * Q ** (k - len(head)) for head, mult in units) == Q ** k


# (field, n, indices of h's factors, columns, digest of the units): the
# levels-taken [42, 6]_4 code of GRID by 0, 1 and 2 columns, and the
# [26, 4]_9 code by one
PINNED = [
    (GF4, 21, (3, 4), 0, "963d6727473961cb"),
    (GF4, 21, (3, 4), 1, "cbe81f53fdab178b"),
    (GF4, 21, (3, 4), 2, "939f0cc9a0bffef7"),
    (GF9, 13, (0, 1), 1, "ffc455a283f302ef"),
]


@pytest.mark.parametrize("field,n,h_factors,cols,digest", PINNED)
def test_work_units_of_orbit_plans_are_pinned(field, n, h_factors, cols, digest, levels_taken):
    # no unit, table size or deal moves
    plan = qcc.generator(field, n, g_leaving(field, n, h_factors)).scan_plan(cols)
    assert plan.levels and plan.cols == cols
    assert units_digest(plan) == digest
    assert_every_message_once(plan)


def test_work_units_of_plain_plans_and_a_table_plan_are_pinned(monkeypatch):
    # the plans of no level for a [9, 7]_4 code and, with the block table
    # capped at three rows so that units are cut by both rules, a [9, 9]_4
    # code; and the one-level plan of the [63, 11]_4 extension of the
    # first GF(4) n = 31 row
    plain = wdist.ScanPlan(GF4, 7, 9)
    assert units_digest(plain) == "25527c1adbf69ee3"
    assert_every_message_once(plain)
    with monkeypatch.context() as m:
        m.setattr(wdist, "_BLOCK_BYTES", 1 << 10)
        cut = wdist.ScanPlan(GF4, 9, 9)
        assert cut.inner == 3 and [len(units) for units in cut.chunks(3)] == [29, 29, 30]
        assert units_digest(cut) == "ca23321ff5459381"
        assert_every_message_once(cut)
    row = next(r for r in refdata.TABLES["stabilizer-gf4"] if r.n == 31)
    plan = scan_plan(row.evaluation().ext)
    assert [len(reps) for _, reps in plan.levels] == [11] and (plan.k, plan.n) == (11, 63)
    assert units_digest(plan) == "0a306c7a293e3a98"
    assert_every_message_once(plan)


# (field, n, index of g among the proper qecc generators, whether the
# levels are taken): k = 3, 4, 6 over GF(4), 2 over GF(9)
POOLED = [
    (GF4, 7, 0, True), (GF4, 15, 8, True), (GF9, 5, 0, True), (GF4, 15, 0, False),
]


@pytest.mark.parametrize("field,n,gi,levels", POOLED)
def test_bases_of_one_generator_extended_by_one_pool(field, n, gi, levels, monkeypatch):
    # the search's flow: the bases of one generator (one per f), each
    # extended by the same pool of x1, and by (x1, x2) with x2 read off its
    # own right block; every enumerator is the plain scan's
    if levels:
        monkeypatch.setattr(wdist, "_ONE_STEP_BYTES", 0)
        monkeypatch.setattr(wdist, "_KEY_S", 0.0)
    qcc.generator.cache_clear()
    g = [g for g in explorer._generators(field, n, True) if 0 < polyring.deg(g) < n][gi]
    rng = random.Random(n)
    pool = explorer._x1_pool(field, qcc.build(field, n, (0,) * n, g), rng, 3)
    assert len(pool) == 3
    gens = set()
    for f in explorer._sample_fs(field, n, rng, None, 3):
        base = pipeline.Evaluation(field, n, f, g)
        gens.add(id(base.code.gen))
        x2 = qcc.find_extension_vector(base.code, 2)
        for xs in [(x1,) for x1 in pool] + [(pool[0], x2), (pool[-1], x2)]:
            ev = base.extended(xs)
            assert ev.enum == wdist.enumerate_code(ev.ext.G), (f, xs)
            if field.Q ** ev.dimension <= 4 ** 6:
                assert ev.enum == oracles.enumerate_code_naive(ev.ext.G), (f, xs)
        gen = base.code.gen
        assert bool(gen.scan_plan(1).levels) == bool(gen.scan_plan(2).levels) == levels
    assert len(gens) == 1
    qcc.generator.cache_clear()


@pytest.mark.parametrize("field,n,j", [(GF4, 6, 2), (GF4, 12, 6), (GF9, 6, 2), (GF9, 3, 1)])
def test_p_dividing_n_takes_the_matrix_scan(field, n, j, levels_taken):
    rng = random.Random(n)
    g = polyring.x_pow_n_minus_1(field, j)  # divides x^n - 1 for j | n
    code = qcc.build(field, n, tuple(rng.randrange(field.Q) for _ in range(n)), g)
    assert not scan_plan(code).levels
    assert not scan_plan(with_columns(code, 1, n)).levels
    assert wdist.enumerate_code(code.G) == oracles.enumerate_code_naive(code.G)


def test_orbit_scan_on_two_workers(monkeypatch, levels_taken, pool_always):
    monkeypatch.setattr(wdist, "_usable_cpus", lambda: 2)
    for code in (random_code(GF4, 21, (3, 4, 5), 1), with_columns(random_code(GF9, 13, (0, 1), 2), 1, 3)):
        plan = scan_plan(code)
        assert plan.levels
        one = wdist.enumerate_code(code.G, plan=plan)
        assert wdist.enumerate_code(code.G, plan=plan, workers=2) == one
        assert one == wdist.enumerate_code(code.G)


def test_table_plan_here_and_on_a_pool_agree(monkeypatch, pool_always):
    # the [63, 11]_4 extension of the first GF(4) n = 31 row, with the plan
    # its own cost rule takes: one level of 11 fibers
    monkeypatch.setattr(wdist, "_usable_cpus", lambda: 2)
    row = next(r for r in refdata.TABLES["stabilizer-gf4"] if r.n == 31)
    code = row.evaluation().ext
    plan = scan_plan(code)
    assert [len(reps) for _, reps in plan.levels] == [11]
    one = wdist.enumerate_code(code.G, plan=plan)
    assert wdist.enumerate_code(code.G, plan=plan, workers=2) == one
    assert one == wdist.enumerate_code(code.G)


def test_cost_rule_can_take_no_level(monkeypatch):
    # x^11 - 1 = (x - 1) q1 q2 over GF(4), deg q = 5 and x of order 11 mod q:
    # |H1| = 33, so the one level there is has 31 fibers of one word each,
    # dearer than the one-step scan of all 4^5 words
    code = random_code(GF4, 11, (1,), 5)
    assert not scan_plan(code).levels
    assert wdist.enumerate_code(code.G) == oracles.enumerate_code_naive(code.G)
    # and past one step: [35, 9]_9, whose h is one factor of degree 8 with
    # |H1| = 136, 316520 fibers of one word each.  The cyclotomic cosets
    # of 17 tell that much, so x^17 - 1 is not factored
    def no_factoring(*args):
        raise AssertionError("x^n - 1 was factored")

    monkeypatch.setattr(polyring, "factor_xn_minus_1", no_factoring)
    qcc.generator.cache_clear()
    ev = next(r for r in refdata.TABLES["stabilizer-gf9"] if r.n == 17).evaluation()
    assert wdist.table_rows(GF9, ev.ext.dim, ev.ext.length) < ev.ext.dim
    assert not scan_plan(ev.ext).levels


@pytest.mark.parametrize("field,n", [(GF4, 7), (GF4, 9), (GF4, 21), (GF9, 5), (GF9, 13)])
def test_level_representatives_are_one_per_coset(field, n, levels_taken):
    """The reps times H1 are disjoint and cover GF(Q^d)*."""
    factors = polyring.factor_xn_minus_1(field, n)
    code = random_code(field, n, range(1, len(factors)), 0)
    plan = scan_plan(code)
    chosen = [m for m, _, _ in code.gen.orbit_levels]
    assert len(chosen) == len(plan.levels)
    for m, (mult, reps) in zip(chosen, plan.levels):
        d = polyring.deg(m)
        assert mult == len({polyring.poly_mod(field, polyring.poly_scale(
            field, s, (0,) * i + (1,)), m) for i in range(n) for s in range(1, field.Q)})
        seen = set()
        for rep in reps:
            assert len(rep) == d
            orbit = {polyring.poly_mod(field, polyring.poly_mul(
                field, polyring.poly_scale(field, s, (0,) * i + (1,)), rep), m)
                for i in range(n) for s in range(1, field.Q)}
            assert len(orbit) == mult and not orbit & seen
            seen |= orbit
        assert len(seen) == field.Q ** d - 1


def test_pipeline_calls_enumerate_code_once_with_the_full_generator(monkeypatch):
    calls = []
    enumerate_code = wdist.enumerate_code

    def recorded(g, *args, **kwargs):
        calls.append((g, kwargs))
        return enumerate_code(g, *args, **kwargs)

    monkeypatch.setattr(wdist, "enumerate_code", recorded)
    row = next(r for r in refdata.TABLES["assisted-primal"] if r.n == 35)
    ev = row.evaluation()
    assert ev.eaqecc is not None
    [(g, kwargs)] = calls
    assert g is ev.code.G and kwargs["plan"] is ev.code.gen.scan_plan(0) and kwargs["plan"].levels

    # a code scanned in one step takes no level, and reads none
    def no_levels(*args):
        raise AssertionError("a plan was built")

    monkeypatch.setattr(qcc.Generator, "orbit_levels", property(no_levels))
    calls.clear()
    ev = refdata.TABLES["stabilizer-gf4"][0].evaluation()
    assert ev.distance is not None
    [(g, kwargs)] = calls
    assert g is ev.ext.G and kwargs["plan"] is ev.code.gen.scan_plan(1) and not kwargs["plan"].levels


def table_and_spec_evaluations():
    for family in ("stabilizer-gf4", "stabilizer-gf9", "assisted-primal", "assisted-dual"):
        for row in refdata.TABLES[family]:
            ev = row.evaluation()
            if not ev.skipped:
                yield f"{family} n={row.n}", ev
    for path in sorted(SPECS.glob("*.json")):
        ev = cli._spec_evaluation(cli.load_spec(str(path)), None, 1)
        if not ev.skipped:
            yield path.name, ev


def test_orbit_scan_matches_matrix_scan_on_tables_and_specs():
    planned = 0
    for name, ev in table_and_spec_evaluations():
        try:
            code = ev.ext or ev.code
        except PreconditionError:  # a listed vector outside the block dual
            continue
        plan = scan_plan(code)
        planned += bool(plan.levels)
        assert wdist.enumerate_code(code.G, plan=plan) == wdist.enumerate_code(code.G), name
    assert planned >= 10
