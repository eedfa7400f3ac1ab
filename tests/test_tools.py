"""Smoke tests: the kernel micro-benchmark and the kernel digest under tools/ run
on this tree."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

LABELS = (
    [f"eigh n={n}" for n in (1, 2, 3, 4, 6, 8)] + [f"svd n={n}" for n in (1, 2, 3, 4, 6, 8)]
    + [f"hermitian_power ({k},{n},{n})" for k in (1, 2, 16) for n in (2, 3, 4)]
    + ["hermitian_power (16,16)", "hermitian_power (27,27)"]
    + [f"det n={n}" for n in (3, 6, 8, 12)] + [f"det (4,{n},{n})" for n in (3, 6, 8, 12)]
    + [f"solve n={n}" for n in (3, 6, 8, 12)] + ["det upper n=8", "det lower n=8"]
    + [f"takagi n={n}" for n in (2, 3, 4, 6)] + ["takagi rank-1 n=4"]
    + [f"cholesky_logdet (16,{n},{n})" for n in (2, 3, 4)])


def _bench(*args: str) -> list[str]:
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_jacobi.py"), "--src", str(ROOT),
         "--repeat", "1", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert str(ROOT / "src" / "hjts" / "linalg.py") in lines[0]
    return [line for line in lines if not line.startswith("#")]


def _check_rows(rows: list[str], columns: int) -> None:
    assert [row[:28].strip() for row in rows] == LABELS
    for row in rows:
        values = [float(x) for x in row[28:].split()]
        assert len(values) == columns and all(v > 0.0 for v in values)


def test_bench_jacobi_times_every_case():
    _check_rows(_bench(), 1)


def test_bench_jacobi_interleaves_two_trees():
    # this tree against itself: each row has both times and their ratio
    _check_rows(_bench("--against", str(ROOT)), 3)


def test_kernel_digest_prints_one_stable_sha256():
    outputs = []
    for _ in range(2):
        done = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "kernel_digest.py"), "--src", str(ROOT),
             "--trials", "20"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert re.fullmatch(r"[0-9a-f]{64}\n", outputs[0])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("tool", ["bench_jacobi.py", "kernel_digest.py"])
def test_tools_refuse_a_tree_without_linalg_in_one_line(tool):
    # the src directory instead of the tree root
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / tool), "--src", str(ROOT / "src")],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.splitlines() == [
        f"error: {ROOT / 'src' / 'src' / 'hjts' / 'linalg.py'} does not exist "
        "(give a source tree's root)"]
