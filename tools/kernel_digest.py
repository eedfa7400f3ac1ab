"""One sha256 over the outputs of every kernel in ``hjts.linalg``.

Two source trees whose kernels return the same bytes print the same digest,
so a refactor that should not move a result can be checked in one line::

    python tools/kernel_digest.py --src .
    python tools/kernel_digest.py --src ../parent

Each seeded trial draws an n x n matrix (n = 1 ... 9) and derives the input
classes from it: general complex, real, upper- and lower-triangular,
diagonal, a zero column, rank one, and triangular with exact zeros and -0.0
entries, the diagonal included.  The digest covers

* ``det`` of every class, 2-D and as one stack;
* ``solve`` on every class with a vector and with a two-column right-hand side;
* ``eigh``, ``cholesky_logdet`` and ``hermitian_power`` (t = -1/2 and 1/4) of
  a Hermitian positive definite matrix, 2-D and on stacks;
* ``svd`` of the general matrix and of its first n - 1 columns, and
  ``takagi`` of its symmetric part.

A call that raises one of the library's errors contributes its class name.
Every output is hashed with its shape as complex128, with -0.0 folded into
+0.0: the sign of an exactly zero result is not part of a kernel's contract.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

from bench_jacobi import load_linalg

MAX_N = 9


def _fold(x) -> bytes:
    """The shape and complex128 bytes of ``x``, with -0.0 read as +0.0."""
    a = np.array(x, dtype=np.complex128)
    a.real[a.real == 0.0] = 0.0
    a.imag[a.imag == 0.0] = 0.0
    return repr(a.shape).encode() + a.tobytes()


def _sparse(rng: np.random.Generator, tri: np.ndarray) -> np.ndarray:
    """``tri`` with about a third of its entries set to 0.0 or -0.0."""
    out = tri.copy()
    hit = rng.random(tri.shape) < 0.35
    out[hit] = np.where(rng.random(tri.shape) < 0.5, 0.0, -0.0)[hit]
    return out


def _classes(rng: np.random.Generator, n: int) -> list[np.ndarray]:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    zero_column = a.copy()
    zero_column[:, n // 2] = 0.0
    rank_one = np.outer(a[:, 0], a[0]).astype(np.complex128)
    return [a, a.real.astype(np.complex128), np.triu(a), np.tril(a), np.diag(np.diag(a)),
            zero_column, rank_one, _sparse(rng, np.triu(a)), _sparse(rng, np.tril(a))]


def _hpd(rng: np.random.Generator, n: int) -> np.ndarray:
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return b @ b.conj().T / n + 0.1 * np.eye(n)


def _calls(linalg, trial: int):
    """(zero-argument call) for every kernel output of one seeded trial."""
    rng = np.random.default_rng(trial)
    n = 1 + trial % MAX_N
    classes = _classes(rng, n)
    b = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    for a in classes:
        yield lambda a=a: linalg.det(a)
        yield lambda a=a: linalg.solve(a, b[:, 0])
        yield lambda a=a: linalg.solve(a, b)
    yield lambda: linalg.det(np.array(classes))
    hpd = np.array([_hpd(rng, n) for _ in range(3)])
    yield lambda: linalg.eigh(hpd[0])
    yield lambda: linalg.cholesky_logdet(hpd[0])
    yield lambda: linalg.cholesky_logdet(hpd.reshape(3, 1, n, n))
    for t in (-0.5, 0.25):
        yield lambda t=t: linalg.hermitian_power(hpd[0], t)
        yield lambda t=t: linalg.hermitian_power(hpd, t)
    yield lambda: linalg.svd(classes[0])
    yield lambda: linalg.svd(classes[0][:, :max(1, n - 1)])
    yield lambda: linalg.takagi(classes[0] + classes[0].T)


def digest(linalg, trials: int) -> str:
    library_error = sys.modules[f"{linalg.__package__}.errors"].HjtsError
    sha = hashlib.sha256()
    for trial in range(trials):
        for call in _calls(linalg, trial):
            try:
                out = call()
            except library_error as exc:  # the error class is part of the contract
                sha.update(type(exc).__name__.encode())
                continue
            for part in out if isinstance(out, tuple) else (out,):
                sha.update(_fold(part))
    return sha.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1]),
                        help="source tree whose src/hjts/linalg.py is hashed; default: this one")
    parser.add_argument("--trials", type=int, default=400, help="seeded trials (default 400)")
    args = parser.parse_args(argv)
    if args.trials < 1:
        parser.error("--trials must be at least 1")
    print(digest(load_linalg(args.src, "_digest_src"), args.trials))
    return 0


if __name__ == "__main__":
    sys.exit(main())
