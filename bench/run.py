"""qcqec benchmark: run one workload for a while and print its metrics.

    python3 bench/run.py --workload gf4-tables --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout (the directory that holds
src/qcqec); nothing needs installing.  The workloads (see README.md):

    gf4-tables     verify three GF(4) specs, then table --id 1, 5, 6
    char3-sharded  table --id 3, verify the GF(9) and a GF(81) spec, 2 workers
    search         three fresh searches, then two resumes of the last one
    smoke          tiny inputs for smoke.py; not a benchmark workload

Each round of a workload runs in a fresh process (bench/workload.py).
Rounds repeat, closed loop, while another one fits in --seconds; the first
always runs.  Set-up is timed on every round process and on extra
set-up-only processes, and reported as the median.

--trace 0 reports the end-to-end metrics.  --trace 1 runs one untraced
round, then one round with spans around every layer, and reports the
per-layer metrics plus the tracing overhead (traced minus untraced wall).

The machine is printed first; the last line of stdout is one JSON object
with correct, attempted, failed and metrics.  Exit status is 0 when every
round ran to its end, whatever the checks found; 2 on bad usage or when
there is no source tree to run; 1 when a round crashed or overran.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("gf4-tables", "char3-sharded", "search")
SETUP_PROBES = 9  # set-up-only processes per run, besides the rounds
DEADLINE_S = 170  # the whole run, rounds and probes, ends within this
WORKDIR = ".bench_work"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "codes_per_s": "1/s",
    "codewords_per_s": "1/s",
    "peak_rss_mb": "MB",
}


# every per-layer metric of a traced round, with its unit; README.md says
# which end-to-end metric each one should move
PER_LAYER = {
    "gf.field_make_s": "s",
    "polyring.factor_s": "s",
    "polyring.gcd_calls": "count",
    "polyring.gcd_s": "s",
    "famat.calls": "count",
    "famat.self_s": "s",
    "qcc.build_calls": "count",
    "qcc.build_s": "s",
    "qcc.certificate_calls": "count",
    "qcc.certificate_s": "s",
    "qcc.certificate_satisfied": "count",
    "qcc.extend_calls": "count",
    "qcc.extend_s": "s",
    "qcc.extension_scan_s": "s",
    "wdist.enumerate_calls": "count",
    "wdist.codewords": "count",
    "wdist.enumerate_s": "s",
    "wdist.codewords_per_s.gf4": "1/s",
    "wdist.codewords_per_s.gf9": "1/s",
    "wdist.codewords_per_s.gf81": "1/s",
    "wdist.symbols_per_s": "1/s",
    "wdist.small_call_ms_p50": "ms",
    "wdist.macwilliams_calls": "count",
    "wdist.macwilliams_s": "s",
    "quantum.calls": "count",
    "quantum.s": "s",
    "explorer.candidates": "count",
    "explorer.enumerated": "count",
    "explorer.skipped.certificate": "count",
    "explorer.skipped.extension-scan-budget": "count",
    "explorer.skipped.enum-budget": "count",
    "explorer.frontier": "count",
    "explorer.resume_s": "s",
    "explorer.self_s": "s",
    "cli.self_s": "s",
    "cli.rows_evaluated": "count",
    "cli.rows_skipped_long_run": "count",
    "cli.rows_recorded_discrepancy": "count",
    "trace.overhead_s": "s",
}


def machine(root):
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "platform": platform.platform(),
    }


class RunError(Exception):
    pass


class Runner:
    """Starts workload processes, one at a time, against a shared deadline."""

    def __init__(self, root, workdir, deadline):
        self.root, self.workdir, self.deadline = root, workdir, deadline
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.setup_s, self.field_make_s = [], []
        self.count = 0

    def start(self, extra):
        """Run bench/workload.py to completion; returns its stdout lines
        after READY, having recorded its set-up time."""
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "workload.py")] + extra,
            cwd=self.root, env=self.env, stdout=subprocess.PIPE, text=True,
            start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise RunError("workload process overran the %d s deadline" % DEADLINE_S)
        finally:
            if proc.poll() is None:  # interrupted: take the workers down too
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        lines = out.splitlines()
        if proc.returncode != 0 or not lines or not lines[0].startswith("READY "):
            raise RunError("workload process exited %s" % proc.returncode)
        _, ready, field_make_s = lines[0].split()
        self.setup_s.append(float(ready) - t0)
        self.field_make_s.append(float(field_make_s))
        return lines[1:]

    def probe(self):
        self.start(["--setup-only"])

    def round(self, workload, seed, traced):
        self.count += 1
        workdir = os.path.join(self.workdir, "round%d" % self.count)
        extra = ["--workload", workload, "--seed", str(seed), "--workdir", workdir]
        lines = self.start(extra + (["--trace"] if traced else []))
        result = json.loads(lines[-1])
        result["wall_s"] = sum(op["seconds"] for op in result["ops"])
        result["codes"] = sum(op["codes"] for op in result["ops"])
        result["codewords"] = sum(op["codewords"] for op in result["ops"])
        return result


def print_round(label, r):
    print("%s: wall %.3f s, %d codes, %d codewords, peak %.1f MB"
          % (label, r["wall_s"], r["codes"], r["codewords"], r["peak_rss_mb"]))
    for op in r["ops"]:
        status = "ok" if op["rc"] == 0 else "FAILED rc=%s %s" % (op["rc"], " ".join(op.get("error", [])))
        print("  %-44s %8.3f s  codes %-5d codewords %-11d %s"
              % (op["op"], op["seconds"], op["codes"], op["codewords"], status))
    for msg in r["failures"]:
        print("  CHECK FAILED: " + msg)


def measure(args, runner):
    start = time.monotonic()
    for _ in range(SETUP_PROBES):
        runner.probe()
    rounds = []
    while True:
        r = runner.round(args.workload, args.seed, traced=False)
        rounds.append(r)
        print_round("round %d" % len(rounds), r)
        if args.trace or time.monotonic() - start + r["wall_s"] > args.seconds:
            break
    traced = None
    if args.trace:
        traced = runner.round(args.workload, args.seed, traced=True)
        print_round("traced round", traced)
    every = rounds + ([traced] if traced else [])

    metrics = {}
    if args.trace:
        layers = dict(traced["layers"])
        layers["gf.field_make_s"] = statistics.median(runner.field_make_s)
        layers["trace.overhead_s"] = traced["wall_s"] - rounds[0]["wall_s"]
        if set(layers) != set(PER_LAYER):
            raise RunError("per-layer metrics differ from PER_LAYER: %s"
                           % sorted(set(layers) ^ set(PER_LAYER)))
        for name, unit in PER_LAYER.items():
            metrics[name] = {"value": layers[name], "unit": unit}
    else:
        values = {
            "setup_s": statistics.median(runner.setup_s),
            "wall_s": statistics.median(r["wall_s"] for r in rounds),
            "codes_per_s": statistics.median(r["codes"] / r["wall_s"] for r in rounds),
            "codewords_per_s": statistics.median(r["codewords"] / r["wall_s"] for r in rounds),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds),
        }
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": values[name], "unit": unit}
    print("set-up: median %.4f s over %d processes" % (statistics.median(runner.setup_s),
                                                      len(runner.setup_s)))
    for name, m in metrics.items():
        print("%-40s %16.6g %s" % (name, m["value"], m["unit"]))
    return {
        "correct": not any(r["failures"] for r in every),
        "attempted": sum(len(r["ops"]) for r in every),
        "failed": sum(op["rc"] != 0 for r in every for op in r["ops"]),
        "metrics": metrics,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("smoke",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qcqec", "cli.py")):
        print("run.py: no qcqec source tree at %s/src; run from the root of a "
              "checkout" % root, file=sys.stderr)
        return 2
    print("machine: " + json.dumps(machine(root)))
    print("workload: %s seed %d seconds %d trace %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    workdir = os.path.join(root, WORKDIR, "run-%d" % os.getpid())
    runner = Runner(root, workdir, time.monotonic() + DEADLINE_S)
    try:
        result = measure(args, runner)
    except RunError as exc:
        print("run.py: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, WORKDIR))
        except OSError:  # another run's files are still there
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
