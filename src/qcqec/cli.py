"""Command-line front end.

Subcommands: verify (run a spec file through the full pipeline), extend
(find qualifying extension vectors for a base spec), gv / factor (small
calculators), search (batch exploration), table (re-derive the collected
parameter rows and diff).

Reports are deterministic apart from the timing block.  A code of more
messages than the budget is reported as skipped, not enumerated.  Exit
codes: 0 on success, 1 when a table diff finds mismatches, 2 on bad input,
3 when a search's walk over the divisors of x^n - 1 overruns its cap, 4
when a mathematical precondition fails, 5 when a computed result breaks
an invariant (a fault in the program); 2 to 5 carry a machine-readable
error object.
"""

import argparse
import json
import sys
import time

from . import explorer, pipeline, polyring, qcc, quantum, refdata
from .errors import BudgetExceeded, InvariantError, PreconditionError, SpecError, require_int
from .gf import field_make

SCHEMA = 1

TABLE_FAMILIES = {
    1: "stabilizer-gf4", 2: "stabilizer-gf4",
    3: "stabilizer-gf9", 4: "stabilizer-gf9",
    5: "assisted-primal", 6: "assisted-dual",
}


def _poly_str(field, coeffs) -> str:
    """Render a coefficient tuple like x^7+x^4+x, digits as powers of a."""
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if not c:
            continue
        if i == 0:
            xpart = ""
        elif i == 1:
            xpart = "x"
        else:
            xpart = f"x^{i}"
        if c == field.one and xpart:
            terms.append(xpart)
        else:
            cpart = "1" if c == field.one else ("a" if c == 2 else f"a^{c - 1}")
            terms.append(cpart + "*" + xpart if xpart else cpart)
    return "+".join(terms) if terms else "0"


def _parse_poly(field, value, n: int | None, what: str):
    if isinstance(value, str):
        return polyring.parse_compact(field, value, n)
    if isinstance(value, list):
        vec = tuple(field.check_digit(d) for d in value)
        if n is not None:
            if len(vec) > n:
                raise SpecError(f"{what} has {len(vec)} digits, more than {n}")
            vec = vec + (0,) * (n - len(vec))
        return vec
    raise SpecError(f"{what} must be a compact string or a digit list")


def _load_object(path: str, what: str) -> dict:
    """The JSON object in a file; a SpecError for anything else."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SpecError(f"cannot read {what}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SpecError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SpecError(f"{what} must be a JSON object")
    return doc


def load_spec(path: str) -> dict:
    doc = _load_object(path, "spec")
    schema = doc.get("schema", SCHEMA)
    require_int("spec schema", schema)  # True == 1 == 1.0 in Python
    if schema != SCHEMA:
        raise SpecError(f"unsupported spec schema {schema!r}")
    for key in ("q", "n", "f", "g"):
        if key not in doc:
            raise SpecError(f"spec is missing {key!r}")
    for key in ("q", "n", "alpha1", "alpha2", "enum_budget"):
        if key in doc:
            require_int(f"spec field {key!r}", doc[key], 1 if key == "enum_budget" else None)
    # n first: the vectors are parsed against it
    polyring.check_length(doc["n"])
    # the vectors given set the column count; a stated mode must agree
    x1, x2 = bool(doc.get("x1")), bool(doc.get("x2"))
    if x2 and not x1:
        raise SpecError("x2 needs x1")
    mode = doc.get("mode")
    if mode is None:
        mode = refdata.MODES[x1 + x2]
    if mode not in refdata.MODES:
        raise SpecError(f"mode must be one of {refdata.MODES}, got {mode!r}")
    if mode != refdata.MODES[x1 + x2]:
        vectors = ("no x1 or x2", "x1 and no x2", "x1 and x2")[refdata.MODES.index(mode)]
        raise SpecError(f"{mode} needs {vectors}")
    doc = dict(doc)
    doc["mode"] = mode
    return doc


def _budget(flag: int | None, file_value: int | None = None) -> int:
    """An explicit --budget wins, then the file's enum_budget, then the default."""
    return next((b for b in (flag, file_value) if b is not None), pipeline.DEFAULT_BUDGET)


def _spec_evaluation(spec: dict, budget: int | None, workers: int) -> pipeline.Evaluation:
    field = field_make(spec["q"])
    n = spec["n"]
    columns = refdata.MODES.index(spec["mode"])
    return pipeline.Evaluation(
        field, n, _parse_poly(field, spec["f"], n, "f"),
        polyring.trim(_parse_poly(field, spec["g"], n + 1, "g")),  # g may be x^n - 1
        tuple(_parse_poly(field, spec[key], n, key) for key in ("x1", "x2")[:columns]),
        tuple(spec.get(key, 1) for key in ("alpha1", "alpha2")[:columns]),
        budget=_budget(budget, spec.get("enum_budget")), workers=workers)


def run_spec(spec: dict, budget: int | None, workers: int) -> dict:
    """Full pipeline for one spec; returns the report document."""
    t0 = time.perf_counter()
    return _verify_report(spec, _spec_evaluation(spec, budget, workers), t0)


def _verify_report(spec: dict, ev: pipeline.Evaluation, t0: float) -> dict:
    code, ext, field = ev.code, ev.ext, ev.field
    xs = [polyring.render_compact(field, x) for x in ev.xs] + [None, None]
    report = {
        "schema": SCHEMA,
        "spec": {
            "q": spec["q"], "n": spec["n"],
            "f": polyring.render_compact(field, ev.f),
            "g": polyring.render_compact(field, ev.g),
            "x1": xs[0], "x2": xs[1],
            "alpha1": spec.get("alpha1", 1), "alpha2": spec.get("alpha2", 1),
            "mode": spec["mode"],
            "enum_budget": spec.get("enum_budget"),
        },
        "length": ev.length,
        "dimension": ev.dimension,
        "self_orthogonal": {
            "gram": code.orthogonal_gram,
            "divisibility": code.gen.orthogonal_divisibility,
        },
        "extension_rule": ext.rule if ext else None,
        "f_coprime": code.f_coprime,
        "enumeration": {"messages": field.Q ** ev.dimension},
    }
    if ev.skipped:
        report["enumeration"].update(skipped="long-run", estimate=ev.estimate)
    else:
        report["enumeration"]["enumerator"] = ev.enum.to_json_map()
    report["classical"] = "[%d,%d,%s]_%d" % (ev.length, ev.dimension,
                                             ev.distance or "?", field.Q)
    report["distance"] = ev.distance
    report["dual_distance"] = ev.dual_distance

    report["qecc"] = report["gv"] = None
    if params := ev.qecc:
        report["qecc"] = {
            "params": str(params),
            "pure": params.pure,
            "lengthened": str(quantum.lengthen(params)),
        }
        if params.d is not None:
            report["gv"] = _gv_doc(quantum.gv_verdict(field.q, params.n, params.k, params.d))

    report["certificate"] = report["eaqecc"] = None
    if cert := ev.certificate:
        report["certificate"] = {
            "h1_gram_nonsingular": cert.h1_gram_nonsingular,
            "one_not_eigenvalue": cert.one_not_eigenvalue,
            "satisfied": cert.satisfied,
            "char_poly": _poly_str(field, cert.char_poly_p) if cert.char_poly_p else None,
        }
    if derived := ev.eaqecc:
        report["eaqecc"] = ({"extended": str(derived)} if ext else
                            {"primal": str(derived.primal), "dual": str(derived.dual)})

    report["timing"] = {"seconds": round(time.perf_counter() - t0, 3)}
    return report


def _gv_doc(v: quantum.GvVerdict) -> dict:
    if not v.applicable:
        verdict = "not-applicable"
    elif v.guaranteed:
        verdict = "guaranteed"
    else:
        verdict = "exceeds"
    return {
        "applicable": v.applicable,
        "lhs": str(v.lhs) if v.lhs is not None else None,
        "rhs": str(v.rhs) if v.rhs is not None else None,
        "verdict": verdict,
    }


def _render_report(report: dict) -> str:
    lines = []
    spec = report["spec"]
    lines.append("spec: q=%d n=%d mode=%s" % (spec["q"], spec["n"], spec["mode"]))
    lines.append("  f=%s g=%s" % (spec["f"], spec["g"]))
    if spec["x1"]:
        lines.append("  x1=%s alpha1=%s" % (spec["x1"], spec["alpha1"]))
    if spec["x2"]:
        lines.append("  x2=%s alpha2=%s" % (spec["x2"], spec["alpha2"]))
    so = report["self_orthogonal"]
    lines.append("self-orthogonal: gram=%s divisibility=%s" %
                 (so["gram"], so["divisibility"]))
    if report["extension_rule"]:
        lines.append("extension rule: %s" % report["extension_rule"])
    lines.append("f coprime to x^n-1: %s" % report["f_coprime"])
    lines.append("classical code: %s" % report["classical"])
    en = report["enumeration"]
    if "skipped" in en:
        lines.append("enumeration: skipped (long-run), %s" % en["estimate"])
    else:
        pairs = " ".join("%s:%s" % kv for kv in en["enumerator"].items())
        lines.append("enumerator: %s" % pairs)
        lines.append("dual distance: %s" % report["dual_distance"])
    if report["qecc"]:
        q = report["qecc"]
        lines.append("qecc: %s pure=%s lengthened=%s" %
                     (q["params"], q["pure"], q["lengthened"]))
    if report["gv"]:
        g = report["gv"]
        if g["verdict"] == "guaranteed":
            lines.append("gv: guaranteed by GV (bound satisfied), lhs=%s rhs=%s"
                         % (g["lhs"], g["rhs"]))
        elif g["verdict"] == "exceeds":
            lines.append("gv: not guaranteed by GV (code exceeds bound), "
                         "lhs=%s rhs=%s" % (g["lhs"], g["rhs"]))
        else:
            lines.append("gv: not applicable")
    if report["certificate"]:
        c = report["certificate"]
        lines.append("certificate: satisfied=%s h1-gram-nonsingular=%s "
                     "one-not-eigenvalue=%s" %
                     (c["satisfied"], c["h1_gram_nonsingular"],
                      c["one_not_eigenvalue"]))
        if c["char_poly"]:
            lines.append("char poly of P: %s" % c["char_poly"])
    if report["eaqecc"]:
        parts = " ".join("%s=%s" % kv for kv in report["eaqecc"].items())
        lines.append("eaqecc: %s" % parts)
    lines.append("timing: %ss" % report["timing"]["seconds"])
    return "\n".join(lines)


def _emit(doc: dict, text: str, json_path: str | None, out=None) -> None:
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    print(text, file=out)


def cmd_verify(args) -> int:
    spec = load_spec(args.spec)
    report = run_spec(spec, args.budget, args.threads)
    _emit(report, _render_report(report), args.json)
    return 0


def cmd_extend(args) -> int:
    t0 = time.perf_counter()
    spec = load_spec(args.spec)
    base = _spec_evaluation(dict(spec, mode="base"), args.budget, args.threads)
    xs = tuple(qcc.find_extension_vector(base.code, side, args.alpha)
               for side in range(1, args.columns + 1))
    alpha = 1 if args.alpha is None else args.alpha
    spec.update({f"alpha{i}": alpha for i in range(1, len(xs) + 1)},
                mode=refdata.MODES[len(xs)])
    report = _verify_report(spec, base.extended(xs, (alpha,) * len(xs)), t0)
    _emit(report, _render_report(report), args.json)
    return 0


def cmd_gv(args) -> int:
    polyring.check_length(args.n)  # the bound's integers grow with n
    v = quantum.gv_verdict(args.q, args.n, args.k, args.d)
    doc = {"schema": SCHEMA, "q": args.q, "n": args.n, "k": args.k,
           "d": args.d, "gv": _gv_doc(v)}
    g = doc["gv"]
    if g["verdict"] == "guaranteed":
        text = "guaranteed by GV (bound satisfied): lhs=%s > rhs=%s" % (
            g["lhs"], g["rhs"])
    elif g["verdict"] == "exceeds":
        text = "not guaranteed by GV (code exceeds bound): lhs=%s <= rhs=%s" % (
            g["lhs"], g["rhs"])
    else:
        text = "GV bound not applicable to [[%d,%d,%d]]_%d" % (
            args.n, args.k, args.d, args.q)
    _emit(doc, text, args.json)
    return 0


def cmd_factor(args) -> int:
    field = field_make(args.q)
    factors = polyring.factor_xn_minus_1(field, polyring.check_length(args.n))
    doc = {"schema": SCHEMA, "q": args.q, "n": args.n,
           "factors": [{"degree": polyring.deg(fac),
                        "coeffs": polyring.render_compact(field, fac)}
                       for fac in factors]}
    lines = ["x^%d - 1 over GF(%d): %d irreducible factors" %
             (args.n, field.Q, len(factors))]
    for fac in doc["factors"]:
        lines.append("  deg %d: %s" % (fac["degree"], fac["coeffs"]))
    _emit(doc, "\n".join(lines), args.json)
    return 0


def cmd_search(args) -> int:
    raw = _load_object(args.config, "search config")
    schema = raw.pop("schema", SCHEMA)
    require_int("search config schema", schema)
    if schema != SCHEMA:
        raise SpecError(f"unsupported search config schema {schema!r}")
    if args.seed is not None:
        raw["rng_seed"] = args.seed
    raw["enum_budget"] = _budget(args.budget, raw.get("enum_budget"))
    try:
        config = explorer.SearchConfig(**raw)
    except TypeError as exc:
        raise SpecError(f"bad search config: {exc}") from exc
    emitted, best = [], {}
    for rec in explorer.search(config, best):
        emitted.append(rec)
        print("frontier: q=%d n=%d k=%d d=%s d_dual=%s f=%s g=%s" %
              (rec.q, rec.n, rec.k, rec.d, rec.d_dual, rec.f, rec.g))
    doc = {"schema": SCHEMA,
           "emitted": [dict(r.payload(), hash=r.hash) for r in emitted]}
    summary = "%d frontier records" % len(emitted)
    if config.output_path:
        summary += "\n" + explorer.render_report(best)
    _emit(doc, summary, args.json)
    return 0


def _check_table_row(row: refdata.TableRow, ev: pipeline.Evaluation) -> dict:
    """The row's computed parameters beside its collected ones."""
    if row.family.startswith("stabilizer"):
        params = ev.qecc
        if params is None:
            raise PreconditionError("not-self-orthogonal",
                                    "the extended code is not Hermitian self-orthogonal")
        computed = {
            "code": (ev.length, ev.dimension, ev.distance),
            "dual": (ev.length, ev.length - ev.dimension, ev.dual_distance),
            "qecc": (params.n, params.k, params.d),
        }
        collected = {"code": row.code, "dual": row.dual, "qecc": row.qecc}
    else:
        pair = ev.eaqecc
        if pair is None:
            raise PreconditionError("certificate-failed",
                                    "entanglement certificate conditions not met")
        side = pair.primal if row.family == "assisted-primal" else pair.dual
        computed = {"eaqecc": (side.n, side.k, side.d, side.c)}
        collected = {"eaqecc": row.eaqecc}
    ok = all(tuple(computed[key]) == tuple(collected[key]) for key in collected)
    return {"computed": computed, "collected": collected, "ok": ok}


def cmd_table(args) -> int:
    family = TABLE_FAMILIES.get(args.id)
    if family is None:
        raise SpecError(f"table id must be 1..6, got {args.id}")
    rows_out = []
    failures = 0
    recorded = 0
    for row in refdata.TABLES[family]:
        k = (row.code or row.eaqecc)[1]
        entry = {"n": row.n, "k": k, "note": row.note or None}
        ev = row.evaluation(budget=_budget(args.budget), workers=args.threads)
        try:
            ev.code  # g | x^n - 1 first: a g that cannot be built is an error at every budget
            result = None if ev.skipped else _check_table_row(row, ev)
        except PreconditionError as exc:
            entry.update(status="error: %s" % exc.code, detail=str(exc))
        else:
            if result is None:
                entry.update(status="skipped (long-run)", estimate=ev.estimate)
            else:
                entry.update(result, status="ok" if result["ok"] else "mismatch")
        bad = entry["status"].startswith(("error", "mismatch"))
        # a documented data defect is expected behaviour, not a failure
        if bad and row.note:
            entry["status"] += " (recorded discrepancy)"
            recorded += 1
        elif bad:
            failures += 1
        rows_out.append(entry)

    doc = {"schema": SCHEMA, "table": args.id, "family": family,
           "rows": rows_out, "failures": failures,
           "recorded_discrepancies": recorded}
    lines = []
    for entry in rows_out:
        line = "n=%-3d k=%-3d %s" % (entry["n"], entry["k"], entry["status"])
        if "estimate" in entry:
            line += ": " + entry["estimate"]
        if entry["status"].startswith(("ok", "mismatch")):
            comp = entry["computed"]
            shown = comp.get("qecc") or comp.get("eaqecc")
            line += "  computed " + str(tuple(shown))
            if entry["status"].startswith("mismatch"):
                diffs = ["%s %s != collected %s" % (key, tuple(comp[key]), tuple(val))
                         for key, val in entry["collected"].items()
                         if tuple(comp[key]) != tuple(val)]
                line += "; " + "; ".join(diffs)
        lines.append(line)
    summary = "%d rows, %d failures" % (len(rows_out), failures)
    if recorded:
        summary += ", %d recorded discrepancies" % recorded
    lines.append(summary)
    _emit(doc, "\n".join(lines), args.json)
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="qcqec",
        description="Quasi-cyclic codes over GF(q^2) and derived quantum codes",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, *flags):
        """--json, plus those of the shared flags the subcommand reads."""
        p.add_argument("--json", metavar="PATH", help="also write a JSON report")
        if "threads" in flags:
            p.add_argument("--threads", type=int, default=1, metavar="N")
        if "budget" in flags:
            p.add_argument("--budget", type=int, default=None, metavar="N",
                           help="codes of more messages are skipped; wins over "
                           "the file's enum_budget (default 2^29)")
        if "seed" in flags:
            p.add_argument("--seed", type=int, default=None, metavar="N")

    enumerates = ("threads", "budget")

    p = sub.add_parser("verify", help="run a spec file through the pipeline")
    p.add_argument("spec")
    common(p, *enumerates)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("extend", help="find extension vectors for a base spec")
    p.add_argument("spec")
    p.add_argument("--columns", type=int, choices=(1, 2), default=1)
    p.add_argument("--alpha", type=int, default=None,
                   help="extension digit; omit for the unit rule")
    common(p, *enumerates)
    p.set_defaults(fn=cmd_extend)

    p = sub.add_parser("gv", help="quantum Gilbert-Varshamov verdict")
    for name in ("--q", "--n", "--k", "--d"):
        p.add_argument(name, type=int, required=True)
    common(p)
    p.set_defaults(fn=cmd_gv)

    p = sub.add_parser("factor", help="factor x^n - 1 over GF(q^2)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(fn=cmd_factor)

    p = sub.add_parser("search", help="run the batch (f, g) search")
    p.add_argument("--config", required=True, metavar="PATH")
    common(p, "budget", "seed")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("table", help="re-derive one collected parameter table")
    p.add_argument("--id", type=int, required=True, help="table number, 1..6")
    common(p, *enumerates)
    p.set_defaults(fn=cmd_table)
    return top


def _error_doc(kind: str, exc: Exception) -> dict:
    err = {"type": kind, "message": str(exc)}
    if isinstance(exc, PreconditionError):
        err["code"] = exc.code
    if isinstance(exc, BudgetExceeded):
        err["required"] = exc.required
        err["budget"] = exc.budget
    return {"schema": SCHEMA, "error": err}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for flag in ("budget", "threads"):
            if getattr(args, flag, None) is not None:
                require_int("--" + flag, getattr(args, flag), 1)
        return args.fn(args)
    except SpecError as exc:
        doc, code = _error_doc("spec", exc), 2
    except BudgetExceeded as exc:
        doc, code = _error_doc("budget", exc), 3
    except PreconditionError as exc:
        doc, code = _error_doc("precondition", exc), 4
    except InvariantError as exc:
        doc, code = _error_doc("invariant", exc), 5
    _emit(doc, json.dumps(doc), getattr(args, "json", None), sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
