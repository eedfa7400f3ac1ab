"""Micro-benchmark of the Jacobi kernels in ``hjts.linalg``.

Prints the best-of-N time per call, in microseconds, of

* ``eigh`` (Hermitian positive definite input) and ``svd`` (general complex
  input) at n in {2, 3, 4, 6, 8};
* ``hermitian_power`` on a (16, n, n) stack at n in {2, 3, 4};
* 2-D ``hermitian_power`` at n = 16 and 27.

The inputs are seeded, so two source trees time the same matrices.  Each
timing repeats the call until it lasts at least MIN_TIME seconds, and the
best of ``--repeat`` timings is printed.  ``--src`` picks the tree whose
``src`` directory is imported, so a parent and a change can be compared on
one machine, alternating runs::

    python tools/bench_jacobi.py --src . --repeat 7
    python tools/bench_jacobi.py --src ../parent --repeat 7
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time
from pathlib import Path

import numpy as np

SIZES = (2, 3, 4, 6, 8)
STACK_SIZES = (2, 3, 4)
STACK_SLICES = 16
LARGE_SIZES = (16, 27)
MIN_TIME = 0.02


def _hpd(rng: np.random.Generator, n: int) -> np.ndarray:
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return b @ b.conj().T / n + 0.1 * np.eye(n)


def cases(linalg) -> list[tuple[str, object]]:
    """(label, zero-argument call) for every timed case."""
    rng = np.random.default_rng(0)
    out = []
    for n in SIZES:
        h = _hpd(rng, n)
        out.append((f"eigh n={n}", lambda h=h: linalg.eigh(h)))
    for n in SIZES:
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        out.append((f"svd n={n}", lambda a=a: linalg.svd(a)))
    for n in STACK_SIZES:
        stack = np.array([_hpd(rng, n) for _ in range(STACK_SLICES)])
        out.append((f"hermitian_power ({STACK_SLICES},{n},{n})",
                    lambda s=stack: linalg.hermitian_power(s, -0.5)))
    for n in LARGE_SIZES:
        h = _hpd(rng, n)
        out.append((f"hermitian_power ({n},{n})", lambda h=h: linalg.hermitian_power(h, -0.5)))
    return out


def best_time(call, repeat: int) -> float:
    """Best over ``repeat`` timings of the seconds per call."""
    start = time.perf_counter()
    call()  # warm-up, and the estimate of the calls per timing
    number = max(1, int(MIN_TIME / max(time.perf_counter() - start, 1e-9)))
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(number):
            call()
        best = min(best, (time.perf_counter() - start) / number)
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1]),
                        help="source tree to time (its src/ is imported); default: this one")
    parser.add_argument("--repeat", type=int, default=7, help="timings per case (best is shown)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    sys.path.insert(0, str(Path(args.src).resolve() / "src"))
    linalg = importlib.import_module("hjts.linalg")
    print(f"# {linalg.__file__}, best of {args.repeat}, us per call")
    for label, call in cases(linalg):
        print(f"{label:<28} {best_time(call, args.repeat) * 1e6:12.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
