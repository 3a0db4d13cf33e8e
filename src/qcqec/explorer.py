"""Batch search over (f, g) candidates for one (q, n).

The generator polynomials compatible with Hermitian self-orthogonality are
read off the factors of x^n - 1: the divisors g whose conjugate-reciprocal
complement divides them are those that take a factor from every
conjugate-reciprocal pair and every self-conjugate factor (_generators).
f is rejection-sampled uniformly among ring elements coprime to x^n - 1.
Each generator has its own random stream, which first feeds the
extension-vector pool (qecc mode) and then the f sampler; both draw their
digits in bulk, in the stream of one randrange per digit (_draw_digits),
the sampler unit-tests them in batches, and the f it yields need no
second unit test.  Every evaluated candidate is appended to a JSONL file
so interrupted runs resume without re-enumerating, and a record is
emitted to the caller only when it improves the best (dual distance,
distance) pair seen for its field, length and dimension.

A candidate pays only for what f and x1 change.

* Once per g: the `qcc.Generator` (one division of x^n - 1), its H1
  test, and in qecc mode the extension-vector pool and the
  `wdist.ScanPlan` of the one-column extensions, which makes their work
  units.
* Once per (g, x1), kept on the generator: whether x1 lies in the
  Hermitian dual of <g> and <x1, x1> (`qcc.Generator.column`), and the
  multiples of the scan row (x1 | 0 | 1), which every f's scan reads.
* Once per f: `qcc.hermitian_forms`, f f̄ and T = g ḡ (1 + f f̄), which
  give the record's self_orthogonal flag and, in eaqecc mode, the
  certificate's verdict before anything is built, so a candidate that
  fails it is recorded with no code, matrix or scan.  A code is built
  only for a candidate that passes (eaqecc) or is extended (qecc).  In
  qecc mode its rows are made once for G and every extension's G, and
  its first extension scan makes the base part (the block table of the
  base code and the histogram of its words) that the others share.
* Once per x1: the extension's own checks (the rule, the Gram rank),
  its G, one `wdist.enumerate_code` call, which weighs only its
  extension units, the words x1 + C, against that table, and one
  MacWilliams transform.

A record line carries the inputs in compact notation plus the computed
parameters, so re-running the pipeline on (q, n, f, g) reproduces it
exactly, and the fingerprint of the search config that wrote it
(`SearchConfig.fingerprint`).  The sha256 content hash covers everything
except the timestamp.  A record's values are rendered to JSON text once,
and that rendering gives both its line and the text its hash covers: the
payload as json.dumps(sort_keys=True) writes it (`CodeRecord.sealed_line`).
A record read back is checked against the same text, so one whose fields
are missing, unknown or of the wrong type, or whose content does not match
its hash, is refused.

A resume reads the file once.  Its records fill the set of (f, g) already
evaluated and the best record per (q, n, k); a record written under
another config stops the search.  A generator that holds max_f_samples
records of this config is finished: the walk skips it without making its
random stream, its x1 pool or its f.  Every other generator is walked as
in a fresh search, and the f already recorded are skipped.  Records
without a fingerprint, written before records had one, fill the set and
the best records but never finish a generator.
"""

import hashlib
import itertools
import json
import math
import os
import random
import sys
import time
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from json.encoder import encode_basestring_ascii as _json_str
from typing import NamedTuple

import numpy as np

from . import pipeline, polyring, qcc
from .errors import BudgetExceeded, PreconditionError, SpecError, require_int
from .gf import Field, field_make

SEARCH_MODES = ("qecc", "eaqecc")

# `_generators` gives up when it would make more than this many generators
DIVISOR_CAP = 2 ** 20


@dataclass(frozen=True)
class SearchConfig:
    q: int
    n: int
    mode: str = "qecc"
    max_f_samples: int = 8
    rng_seed: int = 0
    enum_budget: int = pipeline.DEFAULT_BUDGET
    output_path: str | None = None
    # the source tables say nothing about how f was constrained; a degree
    # cap lets callers test hypotheses without touching the sampler
    max_f_degree: int | None = None
    # extension vectors per generator tried in qecc mode; the extended
    # distance swings hard with the choice, so one is rarely enough
    x1_samples: int = 8

    def __post_init__(self):
        for name in ("q", "n", "rng_seed"):
            require_int(name, getattr(self, name))
        polyring.check_length(self.n)
        require_int("max_f_samples", self.max_f_samples, 0)
        require_int("x1_samples", self.x1_samples, 1)
        require_int("enum_budget", self.enum_budget, 1)
        if self.max_f_degree is not None:
            require_int("max_f_degree", self.max_f_degree)
        if self.output_path is not None and not isinstance(self.output_path, str):
            # open() would take an int for a file descriptor of this process
            raise SpecError(f"output_path must be a string, got {self.output_path!r}")
        if self.mode not in SEARCH_MODES:
            raise SpecError(f"mode must be one of {SEARCH_MODES}, got {self.mode!r}")
        if self.max_f_degree is not None and self.max_f_degree < 0:
            # f would have no coefficient to draw, and 0 is never a unit
            raise SpecError("max_f_degree must be >= 0")

    @cached_property
    def fingerprint(self) -> str:
        """16 hex digits of the sha256 of the fields that decide the records
        a search writes (FINGERPRINT_FIELDS), as sorted JSON.  max_f_samples
        is not among them: a resume may draw more f per generator."""
        fields = {name: getattr(self, name) for name in FINGERPRINT_FIELDS}
        return _digest(_HASH_JSON.encode(fields))[:16]


FINGERPRINT_FIELDS = ("q", "n", "mode", "rng_seed", "max_f_degree", "x1_samples",
                      "enum_budget")

# the text a record's hash covers is the payload as this encoder writes it
_HASH_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class CodeRecord(NamedTuple):
    q: int
    n: int
    f: str
    g: str
    k: int
    d: int | None
    d_dual: int | None
    qecc: tuple | None
    eaqecc: tuple | None
    flags: dict
    seed: int = 0
    config: str | None = None  # None: written before records had a fingerprint
    hash: str = ""

    def payload(self) -> dict:
        """Hash-covered content, in the fixed JSONL field order."""
        doc = {
            "q": self.q, "n": self.n, "f": self.f, "g": self.g,
            "k": self.k, "d": self.d, "d_dual": self.d_dual,
            "qecc": list(self.qecc) if self.qecc else None,
            "eaqecc": list(self.eaqecc) if self.eaqecc else None,
            "flags": self.flags, "seed": self.seed,
        }
        if self.config is not None:
            doc["config"] = self.config
        return doc

    def sealed_line(self) -> tuple:
        """(the record with its hash, its JSONL line with a timestamp and
        the newline)."""
        body, text = _texts(self)
        # not _replace: its copy goes through a tuple built by resizing,
        # which CPython then keeps in its free list for 13-tuples, up to
        # 2000 of them (256 KiB) over a search
        rec = CodeRecord(*self[:-1], _digest(text))
        return rec, '%s,"hash":"%s","ts":%d}\n' % (body, rec.hash, time.time())

    @property
    def skipped(self) -> bool:
        return "skipped" in self.flags


def _json(value) -> str:
    """value's JSON text, as _HASH_JSON writes it inside a payload."""
    if type(value) is str:
        return _json_str(value)
    if value is None or type(value) is bool:  # the flags' usual values
        return "null" if value is None else "true" if value else "false"
    return _HASH_JSON.encode(value)


# a record's line up to its config, and the text its hash covers after the
# config: the same fields, in sorted order
_LINE = ('{"q":%d,"n":%d,"f":%s,"g":%s,"k":%d,"d":%s,"d_dual":%s,"qecc":%s,'
         '"eaqecc":%s,"flags":{%s},"seed":%d')
_SORTED = ('"d":%s,"d_dual":%s,"eaqecc":%s,"f":%s,"flags":{%s},"g":%s,"k":%d,'
           '"n":%d,"q":%d,"qecc":%s,"seed":%d}')


def _texts(rec: CodeRecord) -> tuple:
    """rec's line up to its hash, and the text its hash covers: the payload
    in field order, and the same payload with every key sorted, as _HASH_JSON
    writes it.  Each value is rendered once, for both.  Exact for the field
    types record_from_doc admits."""
    q, n, f, g, k, d, d_dual, qecc, eaqecc, flags, seed, config, _ = rec
    flags = [(key, _json_str(key) + ":" + _json(value)) for key, value in flags.items()]
    line_flags = ",".join([text for _, text in flags])
    flags.sort()
    f, g = _json_str(f), _json_str(g)
    d = "null" if d is None else "%d" % d
    d_dual = "null" if d_dual is None else "%d" % d_dual
    qecc = "[%d,%d,%d]" % qecc if qecc else "null"
    eaqecc = "[%d,%d,%d,%d]" % eaqecc if eaqecc else "null"
    line = _LINE % (q, n, f, g, k, d, d_dual, qecc, eaqecc, line_flags, seed)
    text = _SORTED % (d, d_dual, eaqecc, f, ",".join([text for _, text in flags]), g, k, n,
                      q, qecc, seed)
    if config is None:
        return line, "{" + text
    config = _json_str(config)
    return line + ',"config":' + config, '{"config":' + config + "," + text


def record_from_doc(doc) -> CodeRecord:
    """The record a JSONL line holds, once every field it must have is there
    with its type, it has no other, and its content matches its hash."""
    if type(doc) is not dict:
        raise SpecError("a record must be a JSON object")
    try:
        rec = CodeRecord(doc["q"], doc["n"], doc["f"], doc["g"], doc["k"], doc["d"],
                         doc["d_dual"], _as_tuple(doc["qecc"]), _as_tuple(doc["eaqecc"]),
                         doc["flags"], doc["seed"], doc.get("config"), doc["hash"])
    except KeyError as exc:
        raise SpecError(f"record has no field {exc}") from None
    if len(doc) > 12 + ("config" in doc) + ("ts" in doc):
        unknown = sorted(doc.keys() - _RECORD_KEYS)
        raise SpecError(f"unknown record field {unknown[0]!r}")
    for name, value, kinds in zip(CodeRecord._fields, rec, _FIELD_TYPES):
        if type(value) not in kinds:
            if name == "config" and "config" not in doc:
                continue
            raise SpecError(f"bad record field {name!r}: a {type(value).__name__}")
    for name, size in (("qecc", 3), ("eaqecc", 4)):
        params = getattr(rec, name)
        if params is not None and (len(params) != size or any(type(v) is not int for v in params)):
            raise SpecError(f"bad record field {name!r}: not null or {size} integers")
    if _digest(_texts(rec)[1]) != rec.hash:
        raise SpecError(f"record content does not match its hash {rec.hash!r}")
    return rec


def _as_tuple(params):
    return tuple(params) if type(params) is list else params


# what a record's fields may hold, in field order: qecc and eaqecc are read
# from lists; a record without a config was written before records had one
_FIELD_TYPES = ({int}, {int}, {str}, {str}, {int}, {int, type(None)}, {int, type(None)},
                {tuple, type(None)}, {tuple, type(None)}, {dict}, {int}, {str}, {str})
_RECORD_KEYS = frozenset(CodeRecord._fields) | {"ts"}


def _generators(field: Field, n: int, self_orthogonal: bool) -> list:
    """Monic divisors g of x^n - 1, sorted by (degree, coefficients): all of
    them, or with self_orthogonal only those with dual_g | g (`qcc.Generator`).

    An irreducible factor m with the roots β^s, s in a cyclotomic coset,
    has the partner m* = monic(frob(reciprocal(m))) with the roots β^(-qs),
    again a factor.  frob and reciprocal are multiplicative, so dual_g
    is, up to a unit, the product of m* over the factors m that g lacks, and
    as x^n - 1 is squarefree, dual_g | g exactly when g takes m, m* or
    both from every pair m != m*, and every m = m*.  Raises BudgetExceeded,
    before any product is formed, if there would be more than DIVISOR_CAP.
    """
    factors = polyring.factor_xn_minus_1(field, n)
    one = (field.one,)
    if self_orthogonal:
        choices, paired = [], set()
        for m in factors:
            if m in paired:
                continue
            star = polyring.monic(field, polyring.frob_poly(field, polyring.reciprocal(m)))
            paired.add(star)
            choices.append([m] if star == m else [m, star, polyring.poly_mul(field, m, star)])
    else:
        choices = [[one, m] for m in factors]
    count = math.prod(map(len, choices))
    if count > DIVISOR_CAP:
        raise BudgetExceeded(count, DIVISOR_CAP)
    gs = [one]
    for options in choices:
        gs = [g if c == one else polyring.poly_mul(field, g, c) for g in gs for c in options]
    return sorted(gs, key=lambda g: (polyring.deg(g), g))


def _draw_digits(rng: random.Random, Q: int, count: int) -> list:
    """count digits below Q, the ones rng.randrange(Q) would draw, with rng
    left where randrange would leave it.

    CPython 3.10 to 3.14 implement randrange(Q) by drawing k = Q.bit_length()
    bits until the value is below Q.  In CPython (_randommodule.c)
    getrandbits(k), k <= 32, is one 32-bit output shifted right by 32 - k,
    and getrandbits(32 w) is w consecutive outputs, the first one least
    significant.  So draw i is the top byte of output i shifted right by
    8 - k (k <= 7 here), kept iff below Q.  An output gives at most one
    digit, so asking for as many outputs as digits are missing never reads
    past where randrange stops.  The golden f-draw digests of the tests
    check this on each CPython the CI runs.
    """
    out = b""
    while len(out) < count:
        out += _output_digits(rng, Q, count - len(out))
    return list(out)


def _output_digits(rng: random.Random, Q: int, words: int) -> bytes:
    """The digits below Q, in _draw_digits' stream, that the next `words`
    32-bit outputs of rng give: one for each output whose draw is kept."""
    table, reject = _digit_bytes(Q)
    return rng.getrandbits(32 * words).to_bytes(4 * words, "little")[3::4].translate(table, reject)


# an f-sampler batch asks for at most this many outputs
_DRAW_WORDS = 1 << 16


@lru_cache(maxsize=None)
def _digit_bytes(Q: int) -> tuple:
    """The bytes.translate arguments that turn the top bytes of 32-bit
    outputs into the digits of _draw_digits: a byte b stands for the draw
    b >> (8 - k), k = Q.bit_length(), and is deleted when that is >= Q."""
    shift = 8 - Q.bit_length()
    return (bytes(b >> shift for b in range(256)),
            bytes(b for b in range(256) if b >> shift >= Q))


def _sample_fs(field: Field, n: int, rng: random.Random, max_deg: int | None, count: int):
    """Yield count f drawn uniformly among the units mod x^n - 1 of degree
    at most max_deg: the f that count rounds of "draw the digits of f by
    _draw_digits until f is a unit" would give, in the same order.

    The digits are _draw_digits' stream, taken in batches, each from one
    getrandbits call of outputs sized by the unit density and the share
    Q / 2^bit_length(Q) of outputs that give a digit, at most _DRAW_WORDS,
    so nothing grows with count; the blocks of a batch are unit-tested in
    one polyring.units call.  Every digit of an output read is kept, so the
    stream is the same however it is cut.  The last batch reads rng past
    the last f yielded: rng must not be used after this generator, which
    holds because each generator's rng ends with its f loop.
    """
    top = n if max_deg is None else min(max_deg + 1, n)
    # outputs a yielded f costs: 1 / density blocks of top digits, each
    # digit 2^bit_length(Q) / Q outputs
    cost = top / polyring.unit_density(field, n) * 2 ** field.Q.bit_length() / field.Q
    pad = (0,) * (n - top)
    digits = b""
    while count > 0:
        digits += _output_digits(rng, field.Q, min(_DRAW_WORDS, int(1.25 * count * cost) + 8))
        blocks = len(digits) // top
        ok = polyring.units(field, n, np.frombuffer(digits, np.uint8, blocks * top)
                            .reshape(blocks, top))
        for b in np.flatnonzero(ok)[:count].tolist():
            count -= 1
            yield tuple(digits[b * top : (b + 1) * top]) + pad
        digits = digits[blocks * top :]


def _x1_pool(field: Field, code: qcc.QcCode, rng: random.Random, want: int):
    """Qualifying one-column extension vectors for code's generator.

    Membership and the orthogonality rule, qcc.column_gram(x, 1) = 0, only
    involve g, so the pool is shared by every f sampled for that generator.
    The lexicographically first vector is always included; the rest are
    rejection-sampled from the block dual.  Returns the skip reason
    "no-extension-vector" instead when the block dual has none.

    The draws stop at want vectors or 200 want draws, or once the pool holds
    every qualifying word of the block dual: after as many draws as it has
    words, they are counted once (_qualifying_words).  Only a pool that holds
    them all stops early, so the stream the f sampler reads next is the same
    for every pool that ends short of that.
    """
    try:
        first = qcc.find_extension_vector(code, 1)
    except PreconditionError:
        return "no-extension-vector"
    pool, have = [first], {first}
    dual, dim = qcc.block_dual(code, 1)
    tries, words, qualifying = 0, field.Q ** dim, None
    while len(pool) < want and tries < 200 * want and len(pool) != qualifying:
        if tries == words:
            qualifying = _qualifying_words(field, code.n, dual, dim)
            words = None
            continue
        tries += 1
        msg = _draw_digits(rng, field.Q, dim)
        if not any(msg):
            continue
        x = polyring.ring_mul(field, code.n, msg, dual)
        if qcc.column_gram(field, x, 1) or x in have:
            continue
        have.add(x)
        pool.append(x)
    return pool


def _qualifying_words(field: Field, n: int, dual, dim: int) -> int:
    """The number of nonzero words m dual, deg m < dim, of the block dual
    with column_gram(x, 1) = 0: every vector _x1_pool can hold."""
    return sum(1 for msg in itertools.product(range(field.Q), repeat=dim)
               if any(msg) and not qcc.column_gram(
                   field, polyring.ring_mul(field, n, msg, dual), 1))


def _evaluate(field: Field, config: SearchConfig, f, g, fc, gc, x1s) -> CodeRecord:
    """Measure one candidate, given f and g and their compact forms; skips
    come back as flagged records.  An eaqecc candidate is built only once it
    passes the certificate, which its forms decide."""
    gen = qcc.generator(field, config.n, g)  # one division for all f of g
    forms = qcc.hermitian_forms(gen, f)  # f was drawn a unit: a ring vector
    flags = {"mode": config.mode, "self_orthogonal": forms.orthogonal_gram,
             "certificate_ok": None, "x1": None, "frontier": False}

    def skip(reason):
        return CodeRecord(config.q, config.n, fc, gc, gen.k, None, None,
                          None, None, {**flags, "skipped": reason},
                          config.rng_seed, config.fingerprint)

    if config.mode == "eaqecc" and not forms.one_not_eigenvalue:
        flags["certificate_ok"] = False
        return skip("certificate")
    if isinstance(x1s, str):
        return skip(x1s)
    base = pipeline.Evaluation(field, config.n, f, g, budget=config.enum_budget)
    if config.mode == "qecc":
        extended = [base.extended((x1,)) for x1 in x1s]
        if extended[0].skipped:
            return skip("enum-budget")  # same dimension for every x1
        flags["certificate_ok"] = forms.one_not_eigenvalue
        # the first of the best (d_dual, d) wins
        best = max(extended, key=lambda ev: (ev.dual_distance, ev.distance))
        params = best.qecc
        flags["x1"] = polyring.render_compact(field, best.xs[0])
        return CodeRecord(config.q, config.n, fc, gc, best.dimension, best.distance,
                          best.dual_distance, (params.n, params.k, params.d), None,
                          flags, config.rng_seed, config.fingerprint)

    flags["certificate_ok"] = forms.one_not_eigenvalue
    if base.skipped:
        return skip("enum-budget")
    d = base.distance
    if d is None:
        return skip("zero-code")
    p = base.eaqecc.primal
    return CodeRecord(config.q, config.n, fc, gc, gen.k, d, base.dual_distance,
                      None, (p.n, p.k, p.d, p.c), flags, config.rng_seed,
                      config.fingerprint)


def _open_records(path, mode):
    try:
        return open(path, mode)
    except OSError as exc:
        raise SpecError(f"cannot open records file {path}: {exc.strerror or exc}") from exc


def read_records(path, resume=False, config=None):
    """Yield the records of a records file in file order, one line at a
    time, each checked against its hash; with a config fingerprint, a
    record written under another config is an error naming its line.

    Every record is written together with its newline, so a final line
    without one is what an interrupted write left behind.  It is not read,
    and a warning on stderr says so.  With resume it is also cut off the
    file once the records before it are read, so that the next record starts
    on a line of its own and the search evaluates that candidate again; a
    missing file then reads as empty.  A line that does not parse anywhere
    else is an error naming it.
    """
    if resume and not os.path.exists(path):
        return
    torn = None
    with _open_records(path, "rb") as fh:
        complete = 0  # bytes up to the end of the last complete line
        for lineno, line in enumerate(fh, 1):
            if not line.endswith(b"\n"):
                torn = lineno
                break
            complete += len(line)
            if not line.strip():
                continue
            try:
                rec = record_from_doc(json.loads(line))
            except (ValueError, RecursionError, SpecError) as exc:
                # ValueError: not JSON, not UTF-8, or an integer past
                # Python's digit limit
                raise SpecError(f"{path}:{lineno}: {exc}") from exc
            if config is not None and rec.config not in (None, config):
                raise SpecError(
                    f"{path}:{lineno}: record written under another search config "
                    f"(fingerprint {rec.config}, this search {config}); resume with "
                    f"the config that wrote it, or write to another output_path")
            yield rec
    if torn is not None:
        action = "cutting it off and resuming" if resume else "not reading it"
        print(f"warning: {path}:{torn}: final line has no newline (interrupted "
              f"write); {action}", file=sys.stderr)
        if resume:
            with open(path, "r+b") as fh:
                fh.truncate(complete)


def _beats(best: dict, rec: CodeRecord) -> bool:
    """Whether rec beats the record best holds for its (q, n, k): records
    without a dual distance never do, and neither does an equal (d_dual, d)."""
    if rec.skipped or rec.d_dual is None:
        return False
    cur = best.get((rec.q, rec.n, rec.k))
    return cur is None or (rec.d_dual, rec.d) > (cur.d_dual, cur.d)


def keep_best(best: dict, rec: CodeRecord) -> None:
    """Hold rec in best if it beats the record held for its (q, n, k), so
    that among equal (d_dual, d) the first one stays."""
    if _beats(best, rec):
        best[(rec.q, rec.n, rec.k)] = rec


def search(config: SearchConfig, best: dict | None = None):
    """Evaluate candidates in deterministic order, yielding frontier records.

    Every candidate (including skips) is appended to config.output_path, so
    a rerun against the same file picks up where the last one stopped.
    Yielded records, flagged "frontier", are exactly those that beat the
    best record read back or evaluated so far for their (q, n, k), so no
    yield is ever dominated by an earlier one.  A `best` dict passed in is
    filled by keep_best with the records read back, then with those
    evaluated: with a records file, that is what report reads from it at the
    end.
    """
    field = field_make(config.q)
    # entanglement-assisted codes need no self-orthogonality, only the
    # check-rank certificate, so every proper divisor is a candidate
    gs = [g for g in _generators(field, config.n, config.mode == "qecc")
          if 0 < polyring.deg(g) < config.n]  # deg n: zero code
    if best is None:
        best = {}

    seen, finished, sink = set(), set(), None
    if config.output_path:
        recorded = Counter()  # distinct f per g, in records of this config
        for rec in read_records(config.output_path, resume=True, config=config.fingerprint):
            if (rec.f, rec.g) not in seen:
                seen.add((rec.f, rec.g))
                recorded[rec.g] += rec.config is not None
            keep_best(best, rec)
        finished = {gc for gc, count in recorded.items() if count >= config.max_f_samples}
        sink = _open_records(config.output_path, "ab")
    try:
        for gi, g in enumerate(gs):
            gc = polyring.render_compact(field, g)
            if gc in finished:
                continue  # its first max_f_samples f are all recorded
            rng = random.Random(config.rng_seed * 0x9E3779B1 + gi)
            # the f of this generator evaluated so far: no other generator
            # makes a record of this g, so seen holds only the file's
            x1s, drawn = None, set()
            if config.mode == "qecc":
                # qualifying extension vectors depend only on the left
                # block, i.e. only on g, so resolve the pool once per g
                probe = qcc.build(field, config.n, (0,) * config.n, g)
                x1s = _x1_pool(field, probe, rng, config.x1_samples)
            for f in _sample_fs(field, config.n, rng, config.max_f_degree,
                                config.max_f_samples):
                fc = polyring.render_compact(field, f)
                if (fc, gc) in seen or fc in drawn:
                    continue
                drawn.add(fc)
                rec = _evaluate(field, config, f, g, fc, gc, x1s)
                # decided before sealing: the hash covers the flags
                if _beats(best, rec):
                    rec = rec._replace(flags={**rec.flags, "frontier": True})
                rec, line = rec.sealed_line()
                if sink:
                    sink.write(line.encode())
                    sink.flush()
                keep_best(best, rec)
                if rec.flags.get("frontier"):
                    yield rec
    finally:
        if sink:
            sink.close()


def _fmt_classical(q: int, n: int, k: int, d) -> str:
    return f"[{n},{k},{d if d is not None else '?'}]_{q * q}"


def _reference_lookup(q: int, n: int, k: int):
    from . import refdata

    for rows in refdata.TABLES.values():
        for row in rows:
            if row.q != q or row.n != n:
                continue
            if row.code and row.code[1] == k:
                return row
            if row.eaqecc and row.eaqecc[1] == k:
                return row
    return None


def report(records_path) -> str:
    """Best record per (n, k) with the matching collected row, if any."""
    best = {}
    for rec in read_records(records_path):
        keep_best(best, rec)
    return render_report(best)


def render_report(best: dict) -> str:
    """The report of keep_best's records, one line per (q, n, k)."""
    lines = []
    for (q, n, k), rec in sorted(best.items()):
        if rec.qecc:
            derived = "[[%d,%d,%d]]_%d" % (rec.qecc[0], rec.qecc[1], rec.qecc[2], q)
            N = rec.qecc[0]
        else:
            derived = "[[%d,%d,%d;%d]]_%d" % (rec.eaqecc + (q,))
            N = rec.eaqecc[0]
        summary = "q=%d n=%-3d %s / %s  d_dual=%d  f=%s g=%s" % (
            q, n, _fmt_classical(q, N, rec.k, rec.d), derived, rec.d_dual,
            rec.f, rec.g)
        row = _reference_lookup(q, n, k)
        if row is not None:
            if row.code:
                ref = "%s -> [[%d,%d,%d]]_%d" % (
                    _fmt_classical(q, *row.code), row.qecc[0], row.qecc[1],
                    row.qecc[2], q)
            else:
                ref = "[[%d,%d,%d;%d]]_%d" % (row.eaqecc + (q,))
            summary += "  | collected: " + ref
        lines.append(summary)
    return "\n".join(lines)
