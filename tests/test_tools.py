"""Smoke test: the kernel micro-benchmark under tools/ runs on this tree."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_jacobi_times_every_case():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_jacobi.py"), "--src", str(ROOT),
         "--repeat", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    header, *rows = done.stdout.splitlines()
    assert str(ROOT / "src" / "hjts" / "linalg.py") in header
    labels = [row[:28].strip() for row in rows]
    assert labels == (
        [f"eigh n={n}" for n in (2, 3, 4, 6, 8)] + [f"svd n={n}" for n in (2, 3, 4, 6, 8)]
        + [f"hermitian_power (16,{n},{n})" for n in (2, 3, 4)]
        + ["hermitian_power (16,16)", "hermitian_power (27,27)"])
    assert all(float(row[28:]) > 0.0 for row in rows)
