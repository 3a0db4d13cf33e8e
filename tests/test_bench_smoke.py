"""The benchmark's own smoke check, run from the root of the checkout.

bench/spans.py wraps library functions by name (polyring.poly_gcd,
qcc.build, qcc.entanglement_certificate and the rest) for its traced runs,
and bench/workload.py drives the CLI, so a rename or a changed report in
src/ can break the benchmark without failing any other test.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke():
    done = subprocess.run([sys.executable, "bench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.strip().endswith("smoke: ok")
