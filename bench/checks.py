"""Output checks that do not trust the code under test.

Two kinds:

* properties every weight enumerator must have, with the dual distribution
  computed here by an integer MacWilliams transform written apart from
  `wdist.macwilliams` (Horner expansion of W(1 + (Q-1)y, 1 - y) instead of
  Krawtchouk sums);
* comparisons with the values collected in `qcqec.refdata` and with record
  hashes recomputed by `hashlib`.

Every check returns a list of failure messages; an empty list is a pass.
"""

import hashlib
import json

from qcqec import qcc, refdata


def dual_distribution(counts, Q, k):
    """B_0..B_n of the dual of a [n, k]_Q code with weight distribution counts,
    or None when Q^k does not divide some coefficient."""
    n = len(counts) - 1
    acc = [counts[0]]  # after step i: sum_{w <= i} A_w u^(i-w) v^w
    vpow = [1]  # v^i, v = 1 - y
    for i in range(1, n + 1):
        # acc *= u, u = 1 + (Q - 1) y
        acc = [a + (Q - 1) * b for a, b in zip(acc + [0], [0] + acc)]
        vpow = [a - b for a, b in zip(vpow + [0], [0] + vpow)]
        if counts[i]:
            acc = [a + counts[i] * b for a, b in zip(acc, vpow)]
    scale = Q ** k
    out = []
    for c in acc:
        b, r = divmod(c, scale)
        if r:
            return None
        out.append(b)
    return out


def enumerator_properties(label, Q, k, counts, orthogonal):
    """Properties of the weight distribution of any linear [n, k]_Q code."""
    n = len(counts) - 1
    bad = []
    if sum(counts) != Q ** k:
        bad.append("%s: total %d != Q^k = %d" % (label, sum(counts), Q ** k))
    if counts[0] != 1:
        bad.append("%s: A_0 = %d" % (label, counts[0]))
    odd = [w for w in range(1, n + 1) if counts[w] % (Q - 1)]
    if odd:
        bad.append("%s: A_w not divisible by Q-1 at w = %s" % (label, odd[:5]))
    dual = dual_distribution(counts, Q, k)
    if dual is None:
        bad.append("%s: MacWilliams transform is not integral" % label)
    else:
        if dual[0] != 1 or min(dual) < 0:
            bad.append("%s: dual distribution has B_0 = %d, min %d"
                       % (label, dual[0], min(dual)))
        if orthogonal and any(a > b for a, b in zip(counts, dual)):
            bad.append("%s: self-orthogonal code with A_w > B_w" % label)
    d = next((w for w in range(1, n + 1) if counts[w]), None)
    if d is not None and d > n - k + 1:
        bad.append("%s: d = %d beyond the Singleton bound %d" % (label, d, n - k + 1))
    return bad


def dual_distance(counts, Q, k):
    dual = dual_distribution(counts, Q, k)
    return next((w for w in range(1, len(dual)) if dual[w]), None) if dual else None


class EnumeratorLog:
    """What one operation enumerated, kept until its checks run.

    `keep` holds on to every enumerated matrix and its enumerator for the
    property checks (traced rounds); otherwise only totals are counted.
    """

    def __init__(self, keep):
        self.keep = keep
        self.reset()

    def reset(self):
        self.codewords = 0
        self.pairs = []
        self._orthogonal = {}  # id(G) -> G, only for self-orthogonal codes

    def built(self, code):
        if self.keep and code.orthogonal_gram:
            self._orthogonal[id(code.G)] = code.G

    def extended(self, ext):
        if self.keep and ext.rule == qcc.RULE_ORTHOGONAL:
            self._orthogonal[id(ext.G)] = ext.G

    def counted(self, g):
        self.codewords += g.field.Q ** g.nrows

    def enumerated(self, g, enum):
        self.counted(g)
        if self.keep:
            self.pairs.append((g, enum))

    def check(self, label):
        bad = []
        for i, (g, enum) in enumerate(self.pairs):
            orthogonal = self._orthogonal.get(id(g)) is g
            bad += enumerator_properties(
                "%s enumeration %d [%d,%d]_%d" % (label, i, g.ncols, g.nrows, g.field.Q),
                g.field.Q, g.nrows, list(enum.counts), orthogonal)
        return bad


# --- reference values --------------------------------------------------------


def check_verify(label, report, expect):
    """A verify report against collected expectations (refdata RefCode keys)
    and against the independent transform of its own enumerator."""
    bad = []
    Q = report["spec"]["q"] ** 2
    q = report["spec"]["q"]
    n, k = report["length"], report["dimension"]
    en = report["enumeration"]
    if "enumerator" not in en:
        return ["%s: enumeration was skipped" % label]
    counts = [0] * (n + 1)
    for w, c in en["enumerator"].items():
        counts[int(w)] = int(c)
    orthogonal = report["qecc"] is not None
    bad += enumerator_properties(label, Q, k, counts, orthogonal)
    if report["dual_distance"] != dual_distance(counts, Q, k):
        bad.append("%s: dual distance %s, transform gives %s"
                   % (label, report["dual_distance"], dual_distance(counts, Q, k)))

    def want(key, got, value):
        if got != value:
            bad.append("%s: %s is %s, collected %s" % (label, key, got, value))

    for key, value in expect.items():
        if key == "code":
            want(key, (n, k, report["distance"] if value[2] is not None else None), value)
        elif key == "dual":
            want(key, (n, n - k, report["dual_distance"]), value)
        elif key in ("qecc", "qecc_lengthened"):
            field = "params" if key == "qecc" else "lengthened"
            want(key, (report["qecc"] or {}).get(field), "[[%d,%d,%d]]_%d" % (value + (q,)))
        elif key == "certificate":
            want(key, (report["certificate"] or {}).get("satisfied"), value)
        elif key.startswith("eaqecc_"):
            side = key[len("eaqecc_"):]
            want(key, (report["eaqecc"] or {}).get(side), "[[%d,%d,%d;%d]]_%d" % (value + (q,)))
        elif key == "gv_exceeds":
            want(key, (report["gv"] or {}).get("verdict") == "exceeds", value)
        elif key == "shape":
            want(key, (n, k), value)
        else:
            bad.append("%s: no check for expectation %r" % (label, key))
    return bad


TRIPLE_KEYS = {"stabilizer": ("code", "dual", "qecc"), "assisted": ("eaqecc",)}


def check_table(label, doc, family):
    """Rows against the collected table; returns (failures, row counts)."""
    bad = []
    rows = refdata.TABLES[family]
    counts = {"evaluated": 0, "skipped_long_run": 0, "recorded_discrepancy": 0}
    if len(doc["rows"]) != len(rows):
        return ["%s: %d rows, collected %d" % (label, len(doc["rows"]), len(rows))], counts
    if doc["failures"]:
        bad.append("%s: %d unexplained mismatches" % (label, doc["failures"]))
    for row, entry in zip(rows, doc["rows"]):
        where = "%s n=%d" % (label, row.n)
        if entry["n"] != row.n:
            bad.append("%s: row order differs from the collected table" % where)
            continue
        status = entry["status"]
        if status.startswith("skipped"):
            counts["skipped_long_run"] += 1
            continue
        counts["evaluated"] += 1
        if status.endswith("(recorded discrepancy)"):
            counts["recorded_discrepancy"] += 1
        computed = entry.get("computed")
        keys = TRIPLE_KEYS[family.split("-")[0]]
        if row.note:
            # only the GF(4) rows keep matching parts worth pinning
            if family != "stabilizer-gf4":
                continue
            keys = ("dual", "qecc")
        for key in keys:
            got = tuple(computed[key]) if computed else None
            if got != tuple(getattr(row, key)):
                bad.append("%s: %s computed %s, collected %s"
                           % (where, key, got, tuple(getattr(row, key))))
    return bad, counts


def record_hash_ok(doc):
    payload = {key: doc[key] for key in doc if key not in ("hash", "ts")}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest() == doc["hash"]


def check_records(label, path, first_new_line):
    """Hash of every record in the file; stats of the records appended by
    this operation (from line index first_new_line on)."""
    bad = []
    stats = {"candidates": 0, "enumerated": 0, "frontier": 0, "skipped": {}}
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    for i, line in enumerate(lines):
        doc = json.loads(line)
        if not record_hash_ok(doc):
            bad.append("%s: record %d hash does not match its content" % (label, i + 1))
        if i < first_new_line:
            continue
        stats["candidates"] += 1
        reason = doc["flags"].get("skipped")
        if reason:
            stats["skipped"][reason] = stats["skipped"].get(reason, 0) + 1
        else:
            stats["enumerated"] += 1
        stats["frontier"] += bool(doc["flags"].get("frontier"))
    return bad, stats


def check_frontier(label, doc, key, value):
    """Some emitted frontier record carries the collected parameters."""
    if any(rec.get(key) == list(value) for rec in doc["emitted"]):
        return []
    return ["%s: frontier never reaches collected %s %s" % (label, key, value)]
