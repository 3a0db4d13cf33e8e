"""Smoke check of the benchmark on tiny inputs; asserts nothing about speed.

    python3 bench/smoke.py

Run from the root of a checkout.  It checks that

* the independent MacWilliams transform of checks.py agrees with
  wdist.macwilliams on a small code, and that the enumerator checks reject
  a distribution that no linear code has;
* run.py on the `smoke` workload (verify specs/q2-n7-base.json and a q=2,
  n=7 qecc search) prints, with --trace 0, every end-to-end metric of
  BENCHMARK.json and, with --trace 1, every per-layer metric, each with its
  unit, and that every output check passes;
* run.py exits non-zero, printing no result, in a directory that holds
  only BENCHMARK.json and bench/.

Exits 0 when all hold; raises AssertionError at the first that does not.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()


def check_transform():
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import checks
    from qcqec import cli, polyring, qcc, wdist
    from qcqec.gf import field_make

    spec = cli.load_spec(os.path.join(ROOT, "specs", "q2-n7-base.json"))
    field = field_make(spec["q"])
    f = polyring.parse_compact(field, spec["f"], spec["n"])
    g = polyring.trim(polyring.parse_compact(field, spec["g"]))
    code = qcc.build(field, spec["n"], f, g)
    enum = wdist.enumerate_code(code.G)
    ours = checks.dual_distribution(list(enum.counts), field.Q, enum.k)
    assert ours == list(wdist.macwilliams(enum, field.Q).counts), "transforms disagree"
    assert not checks.enumerator_properties("exact", field.Q, enum.k, list(enum.counts), False)

    broken = list(enum.counts)
    broken[-1] -= 3
    broken[-2] += 3  # same total, same divisibility, not a code
    assert checks.enumerator_properties("broken", field.Q, enum.k, broken, False), \
        "a distribution with no code behind it passed"


def run(cwd, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", "smoke",
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def check_run(bench, trace):
    proc = run(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1, result
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}, \
        sorted(set(result["metrics"]) ^ {m["name"] for m in wanted})
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], (int, float)), (m["name"], got)
    for line in proc.stdout.splitlines():
        if line.startswith("machine: "):
            info = json.loads(line[len("machine: "):])
            assert {"nproc", "python", "numpy", "git_sha"} <= set(info), info
            break
    else:
        raise AssertionError("run.py printed no machine line")


def check_without_source():
    bare = os.path.join(ROOT, ".bench_work", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = run(bare, 0)
        assert proc.returncode != 0, "run.py succeeded without a source tree"
        assert not proc.stdout.strip().endswith("}"), "run.py printed a result"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(bare))
        except OSError:  # another run's files are still there
            pass


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    check_transform()
    for trace in (0, 1):
        check_run(bench, trace)
    check_without_source()
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
