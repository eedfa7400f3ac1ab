"""Micro-benchmark of the dense kernels in ``hjts.linalg``.

Prints the best-of-N time per call, in microseconds, of

* ``eigh`` (Hermitian positive definite input) and ``svd`` (general complex
  input) at n in {1, 2, 3, 4, 6, 8};
* ``hermitian_power`` on (1, n, n) and (2, n, n) stacks, the shapes of the
  row maps' calls on one or two points, and on a (16, n, n) stack, at n in
  {2, 3, 4};
* 2-D ``hermitian_power`` at n = 16 and 27;
* ``det`` and ``solve`` (general complex input, one right-hand side) at n in
  {3, 6, 8, 12}, and ``det`` on a (4, n, n) stack at the same n.  On a tree
  whose ``det`` takes no stack, that case times four 2-D calls, the work the
  stack replaces;
* ``det`` of an upper- and of a lower-triangular matrix at n = 8;
* ``takagi`` (full-rank complex symmetric input) at n in {2, 3, 4, 6}, and on
  rank-one input at n = 4, where the null columns come from completion;
* ``cholesky_logdet`` on a (16, n, n) stack at n in {2, 3, 4}.

The inputs are seeded, so two source trees time the same matrices.  Each
timing repeats the call until it lasts at least MIN_TIME seconds.  ``--src``
picks the tree whose ``src/hjts/linalg.py`` is loaded::

    python tools/bench_jacobi.py --src . --repeat 7

``--against DIR`` loads a second tree's ``linalg`` into the same process and
times the two trees case by case, alternating which goes first, so a drift in
the host's speed hits both alike.  It prints each tree's best time and the
median over rounds of the per-round ratio src/against::

    python tools/bench_jacobi.py --src . --against ../parent --repeat 21
"""

from __future__ import annotations

import argparse
import importlib
import statistics
import sys
import time
import types
from pathlib import Path

import numpy as np

SIZES = (1, 2, 3, 4, 6, 8)
STACK_SIZES = (2, 3, 4)
SMALL_STACK_SLICES = (1, 2)
STACK_SLICES = 16
LARGE_SIZES = (16, 27)
LU_SIZES = (3, 6, 8, 12)
DET_SLICES = 4
TRI_SIZE = 8
TAKAGI_SIZES = (2, 3, 4, 6)
TAKAGI_RANK_ONE_SIZE = 4
MIN_TIME = 0.02


def load_linalg(tree: str, package: str):
    """``hjts.linalg`` of the source tree ``tree``, imported as ``package.linalg``,
    so two trees can sit in one process.  Only the modules it imports load.
    A tree without ``src/hjts/linalg.py`` exits with code 2 and one line."""
    source = Path(tree).resolve() / "src" / "hjts"
    if not (source / "linalg.py").is_file():
        print(f"error: {source / 'linalg.py'} does not exist (give a source tree's root)",
              file=sys.stderr)
        raise SystemExit(2)
    pkg = types.ModuleType(package)
    pkg.__path__ = [str(source)]
    sys.modules[package] = pkg
    return importlib.import_module(f"{package}.linalg")


def _hpd(rng: np.random.Generator, n: int) -> np.ndarray:
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return b @ b.conj().T / n + 0.1 * np.eye(n)


def _general(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _det_of_stack(linalg, stack: np.ndarray):
    try:
        linalg.det(stack)
    except linalg.ContractError:  # a tree whose det takes 2-D input only
        return lambda: [linalg.det(a) for a in stack]
    return lambda: linalg.det(stack)


def cases(linalg) -> list[tuple[str, object]]:
    """(label, zero-argument call) for every timed case."""
    rng = np.random.default_rng(0)
    out = []
    for n in SIZES:
        h = _hpd(rng, n)
        out.append((f"eigh n={n}", lambda h=h: linalg.eigh(h)))
    for n in SIZES:
        a = _general(rng, n, n)
        out.append((f"svd n={n}", lambda a=a: linalg.svd(a)))
    for slices in (*SMALL_STACK_SLICES, STACK_SLICES):
        for n in STACK_SIZES:
            stack = np.array([_hpd(rng, n) for _ in range(slices)])
            out.append((f"hermitian_power ({slices},{n},{n})",
                        lambda s=stack: linalg.hermitian_power(s, -0.5)))
    for n in LARGE_SIZES:
        h = _hpd(rng, n)
        out.append((f"hermitian_power ({n},{n})", lambda h=h: linalg.hermitian_power(h, -0.5)))
    for n in LU_SIZES:
        a = _general(rng, n, n)
        out.append((f"det n={n}", lambda a=a: linalg.det(a)))
    for n in LU_SIZES:
        out.append((f"det ({DET_SLICES},{n},{n})",
                    _det_of_stack(linalg, _general(rng, DET_SLICES, n, n))))
    for n in LU_SIZES:
        a, b = _general(rng, n, n), _general(rng, n)
        out.append((f"solve n={n}", lambda a=a, b=b: linalg.solve(a, b)))
    a = _general(rng, TRI_SIZE, TRI_SIZE)
    for side, tri in (("upper", np.triu(a)), ("lower", np.tril(a))):
        out.append((f"det {side} n={TRI_SIZE}", lambda t=tri: linalg.det(t)))
    for n in TAKAGI_SIZES:
        a = _general(rng, n, n)
        out.append((f"takagi n={n}", lambda s=a + a.T: linalg.takagi(s)))
    v = _general(rng, TAKAGI_RANK_ONE_SIZE)
    out.append((f"takagi rank-1 n={TAKAGI_RANK_ONE_SIZE}",
                lambda s=np.outer(v, v): linalg.takagi(s)))
    for n in STACK_SIZES:
        stack = np.array([_hpd(rng, n) for _ in range(STACK_SLICES)])
        out.append((f"cholesky_logdet ({STACK_SLICES},{n},{n})",
                    lambda s=stack: linalg.cholesky_logdet(s)))
    return out


def calls_per_timing(call) -> int:
    """Calls that make one timing last about MIN_TIME (one call is run)."""
    start = time.perf_counter()
    call()
    return max(1, int(MIN_TIME / max(time.perf_counter() - start, 1e-9)))


def timing(call, number: int) -> float:
    """Seconds per call over ``number`` calls."""
    start = time.perf_counter()
    for _ in range(number):
        call()
    return (time.perf_counter() - start) / number


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1]),
                        help="source tree to time (its src/ is loaded); default: this one")
    parser.add_argument("--against", metavar="DIR",
                        help="second source tree, timed in this process and interleaved "
                             "case by case with --src")
    parser.add_argument("--repeat", type=int, default=7,
                        help="timings per case, or interleaved rounds with --against")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    linalg = load_linalg(args.src, "_bench_src")
    if args.against is None:
        print(f"# {linalg.__file__}, best of {args.repeat}, us per call")
        for label, call in cases(linalg):
            number = calls_per_timing(call)
            best = min(timing(call, number) for _ in range(args.repeat))
            print(f"{label:<28} {best * 1e6:12.1f}")
        return 0
    other = load_linalg(args.against, "_bench_against")
    print(f"# src {linalg.__file__}, against {other.__file__}")
    print(f"# {args.repeat} interleaved rounds: best us per call of src and against, "
          f"median of src/against")
    for (label, call), (_, call_other) in zip(cases(linalg), cases(other)):
        number = calls_per_timing(call)
        calls_per_timing(call_other)  # warm-up
        mine, theirs = [], []
        for round_ in range(args.repeat):
            pair = ((call, mine), (call_other, theirs))
            for fn, times in pair if round_ % 2 == 0 else pair[::-1]:
                times.append(timing(fn, number))
        ratio = statistics.median(a / b for a, b in zip(mine, theirs))
        print(f"{label:<28} {min(mine) * 1e6:12.1f} {min(theirs) * 1e6:12.1f} {ratio:8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
