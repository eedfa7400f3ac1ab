"""Seeded verification harness: sampling, suites, and machine-readable reports.

A run is described by a :class:`SuiteConfig` (kinds, seed, sample counts,
tolerances) and executed by :func:`run_suite`, which draws reproducible
interior points for every (kind, suite) cell, evaluates the checks, and
aggregates worst-case errors into a :class:`VerificationReport`.  The sampling
generator is Philox (4x64 counter-based), with an independent stream per
sample seeded through ``SeedSequence(seed, spawn_key=(kind_index,
suite_index, sample_index))``, so reports are byte-identical across runs and
platforms apart from the wall-time field.

Suites, and what each sample costs:

* ``jordan``        one Jordan-identity residual per random quintuple
* ``spectral``      decomposition residuals, det B = N^g, genus table
* ``duality``       route spreads and both round trips (domain + ambient)
* ``equivariance``  psi vs a random isotropy
* ``hereditary``    psi vs the canonical embedding (skipped for spin factors)
* ``symplectic``    both pullback identities over random tangent pairs
* ``volume``        skew-determinant comparison of the pulled-back forms
* ``lemma_a1``      logarithmic derivatives of N and N*
* ``lemma_a2``      trace-derivative identity, worst over (p, k) in {0,1,2}^2
* ``beta_exact``    beta = d(gamma), both mirrors

Internal failures abort the run: internal-consistency failures (route
disagreements beyond 1e-7, non-integer genus) and kernel failures (any
HjtsError other than ContractError and DomainError, such as ConvergenceError
or SingularityError).  The report is still written, with the failure and,
when the sample tagged one, the offending point serialized under
``consistency_failure``; the CLI maps the condition to exit code 2.
"""
from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from . import kinds as _k
from .errors import ConsistencyError, ContractError, DomainError, HjtsError
from .jts import Element, d_operator, genus, jordan_residual, triple_product
from .jts import bergman_operator, embedding_target
from .linalg import det, eigh, frobenius
from .spectral import generic_norms, spectral_decompose, spectral_values
from .duality import (
    check_equivariance,
    check_hereditary,
    psi,
    psi_inverse,
    psi_inverse_route_spread,
    psi_route_spread,
)
from .geometry import (
    DEFAULT_FD_STEP,
    _BETA_LAMBDA_MAX,
    _FD_MARGIN,
    _fd_step,
    check_beta_exactness,
    check_lemma_a1,
    check_lemma_a2,
    check_symplectic_duality,
    check_volume_duality,
)

__all__ = [
    "SUITE_NAMES",
    "DEFAULT_KINDS",
    "SuiteConfig",
    "SuiteResult",
    "VerificationReport",
    "sample_domain",
    "random_isotropy",
    "run_suite",
]

REPORT_SCHEMA = "hjts-report/1"
RNG_NAME = "philox4x64"

SUITE_NAMES = (
    "jordan",
    "spectral",
    "duality",
    "equivariance",
    "hereditary",
    "symplectic",
    "volume",
    "lemma_a1",
    "lemma_a2",
    "beta_exact",
)

#: Suites that take finite differences with step ``fd_step``.
_FD_SUITES = ("symplectic", "volume", "lemma_a1", "lemma_a2", "beta_exact")

#: Suites that difference the Kähler potentials (kahler_matrix's boundary
#: margin of ``_FD_MARGIN`` steps applies to them).
_HESSIAN_SUITES = ("symplectic", "volume")

#: Kinds exercised by ``verify --all``: every classical family, a non-square
#: type I, and one reducible product.
DEFAULT_KINDS = (
    _k.TypeI(1, 1),
    _k.TypeI(2, 2),
    _k.TypeI(1, 3),
    _k.TypeII(4),
    _k.TypeIII(3),
    _k.TypeIV(4),
    _k.Product((_k.TypeI(1, 1), _k.TypeIV(3))),
)


def _check_seed(seed: int) -> None:
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 2 ** 64:
        raise ContractError(f"seed must be a 64-bit unsigned integer, got {seed!r}")


def _check_boundary_cap(cap: float) -> None:
    if not 0.0 < cap < 1.0:  # also rejects nan
        raise ContractError(f"boundary_cap must lie strictly between 0 and 1, got {cap!r}")


@dataclass(frozen=True)
class SuiteConfig:
    """Everything a verification run depends on (echoed into the report)."""

    kinds: tuple = DEFAULT_KINDS
    seed: int = 0
    points: int = 100
    tangent_pairs: int = 8
    tol_exact: float = 1e-9
    tol_fd: float = 1e-5
    fd_step: float = DEFAULT_FD_STEP
    boundary_cap: float = 0.95
    suites: tuple = SUITE_NAMES

    def __post_init__(self) -> None:
        object.__setattr__(self, "kinds", tuple(self.kinds))
        object.__setattr__(self, "suites", tuple(self.suites))
        _check_seed(self.seed)
        for kind in self.kinds:
            if not isinstance(kind, _k.JTSKind):
                raise ContractError(f"kinds must hold kind objects (kinds.parse_kind), got {kind!r}")
        for name in ("points", "tangent_pairs"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ContractError(f"{name} must be a positive integer, got {value!r}")
        for name in ("tol_exact", "tol_fd", "fd_step"):
            value = getattr(self, name)
            real = isinstance(value, (int, float)) and not isinstance(value, bool)
            if not (real and 0.0 < value < math.inf):  # also rejects nan
                raise ContractError(f"{name} must be positive and finite, got {value!r}")
        _check_boundary_cap(self.boundary_cap)
        unknown = [s for s in self.suites if s not in SUITE_NAMES]
        if unknown:
            raise ContractError(
                f"unknown suites {unknown}; valid names: {', '.join(SUITE_NAMES)}"
            )
        if any(s in _FD_SUITES for s in self.suites):
            self._check_fd_step()

    def _check_fd_step(self) -> None:
        """Reject a config a finite-difference suite would refuse mid-run.

        ``geometry._fd_step`` checks the step range.  A sample z has lambda_1 <=
        cap and |z| <= sqrt(rank) * lambda_1, so its step is at most the one
        below.  The hyperbolic Hessian (symplectic, volume) needs lambda_1 below
        1 - _FD_MARGIN * step, and beta_exact needs lambda_1 < _BETA_LAMBDA_MAX.
        """
        h, cap = self.fd_step, self.boundary_cap
        rank_max = max((_k.rank(kind) for kind in self.kinds), default=1)
        reach = cap + _FD_MARGIN * _fd_step(math.sqrt(rank_max) * cap, h)
        if any(s in _HESSIAN_SUITES for s in self.suites) and not reach < 1.0:
            raise ContractError(
                f"fd_step {h!r} is too large for boundary_cap {cap!r}: points drawn up to the "
                f"cap come within {_FD_MARGIN:g} steps of the boundary (cap + {_FD_MARGIN:g} "
                f"* fd_step * max(1, sqrt({rank_max}) * cap) = {reach:.6g} >= 1)")
        if "beta_exact" in self.suites and not cap < _BETA_LAMBDA_MAX:
            raise ContractError(f"boundary_cap {cap!r} is too large for beta_exact, which "
                                f"needs largest spectral value < {_BETA_LAMBDA_MAX}")

    def to_dict(self) -> dict:
        return {
            "kinds": [_k.format_kind(kind) for kind in self.kinds],
            "seed": self.seed,
            "points": self.points,
            "tangent_pairs": self.tangent_pairs,
            "tol_exact": self.tol_exact,
            "tol_fd": self.tol_fd,
            "fd_step": self.fd_step,
            "boundary_cap": self.boundary_cap,
            "suites": list(self.suites),
        }


@dataclass(frozen=True)
class SuiteResult:
    """Aggregated outcome of one (kind, suite) cell."""

    kind: str
    suite: str
    samples: int
    max_error: float
    tolerance: float
    passed: bool
    status: str = "ok"

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "suite": self.suite,
            "samples": self.samples,
            # a consistency abort records +inf, which JSON cannot carry
            "max_error": self.max_error if math.isfinite(self.max_error) else None,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "status": self.status,
        }


@dataclass(frozen=True)
class VerificationReport:
    """Deterministic run record; serialize with :meth:`to_json`."""

    config: SuiteConfig
    results: tuple
    wall_time_s: float
    consistency_failure: dict | None = None

    @property
    def all_pass(self) -> bool:
        return self.consistency_failure is None and all(r.passed for r in self.results)

    def to_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "rng": RNG_NAME,
            "seed": self.config.seed,
            "config": self.config.to_dict(),
            "results": [r.to_dict() for r in self.results],
            "all_pass": self.all_pass,
            "consistency_failure": self.consistency_failure,
            "wall_time_s": self.wall_time_s,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


# --------------------------------------------------------------------------
# Sampling

def _cell_rng(seed: int, kind_index: int, suite_index: int,
              sample_index: int) -> np.random.Generator:
    key = (kind_index, suite_index, sample_index)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


def sample_domain(kind: _k.JTSKind, rng: np.random.Generator,
                  boundary_cap: float = SuiteConfig.boundary_cap) -> Element:
    """Draw an interior point with largest spectral value <= boundary_cap.

    Entries are independent complex Gaussians, rescaled so that lambda_1 is
    uniform in (0, boundary_cap); an (essentially impossible) zero draw is
    redrawn.  Raises ContractError unless 0 < boundary_cap < 1.
    """
    _check_boundary_cap(boundary_cap)
    n = _k.ambient_dim(kind)
    while True:
        coords = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
        lam1 = spectral_values(Element(kind, coords))[0]
        if lam1 > 1e-12:
            break
    radius = rng.uniform(0.0, boundary_cap)
    return Element(kind, coords * (radius / lam1))


def _gaussian_element(kind: _k.JTSKind, rng: np.random.Generator,
                      scale: float = 1.0) -> Element:
    n = _k.ambient_dim(kind)
    coords = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
    return Element(kind, scale * coords)


def _unit_direction(kind: _k.JTSKind, rng: np.random.Generator) -> Element:
    e = _gaussian_element(kind, rng)
    return Element(kind, e.coords / e.norm())


def _random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """A random n x n unitary: the eigenbasis of a random Hermitian matrix."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return eigh(a + a.conj().T).vectors


def random_isotropy(kind: _k.JTSKind, rng: np.random.Generator):
    """Random parameters for ``isotropy_action``, shaped per kind."""
    if isinstance(kind, _k.TypeI):
        return (_random_unitary(kind.p, rng), _random_unitary(kind.q, rng))
    if isinstance(kind, (_k.TypeII, _k.TypeIII)):
        return _random_unitary(kind.n, rng)
    if isinstance(kind, _k.TypeIV):
        a = rng.standard_normal((kind.n, kind.n))
        orth = eigh((a + a.T).astype(np.complex128)).vectors.real
        return (rng.uniform(0.0, 2.0 * np.pi), orth.astype(np.complex128))
    return [random_isotropy(f, rng) for f in kind.factors]


def _hereditary_target(kind: _k.JTSKind) -> _k.TypeI | None:
    """Canonical strictly-larger type I envelope; None when unsupported."""
    if isinstance(kind, _k.TypeI):
        return _k.TypeI(kind.p + 1, kind.q + 1)
    if isinstance(kind, (_k.TypeII, _k.TypeIII)):
        return _k.TypeI(kind.n, kind.n)
    if isinstance(kind, _k.Product):
        if any(isinstance(f, _k.TypeIV) for f in kind.factors):
            return None
        return embedding_target(kind)
    return None  # spin factors embed in no matrix kind here


# --------------------------------------------------------------------------
# Per-suite sample evaluations (each returns one scalar error)

def _flag(element: Element, fn: Callable[[], float]) -> float:
    """Tag an internal error with the element that provoked it."""
    try:
        return fn()
    except HjtsError as err:
        err.offending = element
        raise


def _eval_jordan(kind, config, rng, sample_index) -> float:
    five = [_gaussian_element(kind, rng) for _ in range(5)]
    return jordan_residual(*five)


_EXPECTED_GENUS = {
    _k.TypeI: lambda k: k.p + k.q,
    _k.TypeII: lambda k: 2 * (k.n - 1),
    _k.TypeIII: lambda k: k.n + 1,
    _k.TypeIV: lambda k: k.n,
}


@lru_cache(maxsize=None)
def _checked_genus(factor: _k.JTSKind) -> tuple[int, bool]:
    """The tr D genus of a simple kind and whether the table agrees, once per
    kind; a ConsistencyError is not cached, so every call raises it again."""
    g = genus(factor)
    return g, g == _EXPECTED_GENUS[type(factor)](factor)


def _eval_spectral(kind, config, rng, sample_index) -> float:
    z = sample_domain(kind, rng, config.boundary_cap)
    dec = spectral_decompose(z)
    scale = max(1.0, z.norm())
    worst = frobenius(dec.reconstruct().coords - z.coords) / scale
    for c in dec.frame:
        worst = max(worst, frobenius(triple_product(c, c, c).coords - 2.0 * c.coords))
    for i in range(len(dec.frame)):
        for j in range(i + 1, len(dec.frame)):
            worst = max(worst, frobenius(d_operator(dec.frame[i], dec.frame[j]).matrix))
    for factor, coords in zip(_k.simple_factors(kind), _k.split_coords(kind, z.coords)):
        zf = Element(factor, coords)
        g, matches = _flag(z, lambda f=factor: _checked_genus(f))  # off-integer raises
        if not matches:
            worst = max(worst, 1.0)
        # det B(z, -sign z) = N^g for sign = -1 and N*^g for sign = +1
        for sign, norm in zip((-1.0, 1.0), generic_norms(zf)):
            det_b = det(bergman_operator(zf, Element(factor, -sign * zf.coords)).matrix).real
            ref = norm ** g
            worst = max(worst, abs(det_b - ref) / max(1.0, abs(ref)))
    return worst


def _eval_duality(kind, config, rng, sample_index) -> float:
    z = sample_domain(kind, rng, config.boundary_cap)
    worst = _flag(z, lambda: psi_route_spread(z))
    back = psi_inverse(psi(z))
    worst = max(worst, frobenius(back.coords - z.coords) / max(1.0, z.norm()))
    u = _gaussian_element(kind, rng, scale=2.0)
    worst = max(worst, _flag(u, lambda: psi_inverse_route_spread(u)))
    forth = psi(psi_inverse(u))
    return max(worst, frobenius(forth.coords - u.coords) / max(1.0, u.norm()))


def _eval_equivariance(kind, config, rng, sample_index) -> float:
    z = sample_domain(kind, rng, config.boundary_cap)
    return check_equivariance(random_isotropy(kind, rng), z)


def _eval_hereditary(kind, config, rng, sample_index) -> float:
    target = _hereditary_target(kind)
    z = sample_domain(kind, rng, config.boundary_cap)
    return check_hereditary(kind, target, z)


def _eval_symplectic(kind, config, rng, sample_index) -> float:
    z = sample_domain(kind, rng, config.boundary_cap)
    err1, err2 = check_symplectic_duality(
        z, tangent_pairs=config.tangent_pairs, h=config.fd_step, rng=rng
    )
    return max(err1, err2)


def _eval_volume(kind, config, rng, sample_index) -> float:
    z = sample_domain(kind, rng, config.boundary_cap)
    return check_volume_duality(z, h=config.fd_step)


def _eval_lemma_a1(kind, config, rng, sample_index) -> float:
    z = sample_domain(kind, rng, config.boundary_cap)
    return check_lemma_a1(z, _unit_direction(kind, rng), h=config.fd_step)


def _eval_lemma_a2(kind, config, rng, sample_index) -> float:
    z = sample_domain(kind, rng, config.boundary_cap)
    return check_lemma_a2(z, _unit_direction(kind, rng), h=config.fd_step)


def _eval_beta_exact(kind, config, rng, sample_index) -> float:
    z = sample_domain(kind, rng, config.boundary_cap)
    return check_beta_exactness(z, _unit_direction(kind, rng), h=config.fd_step)


_SUITE_EVALS: dict[str, Callable] = {
    "jordan": _eval_jordan,
    "spectral": _eval_spectral,
    "duality": _eval_duality,
    "equivariance": _eval_equivariance,
    "hereditary": _eval_hereditary,
    "symplectic": _eval_symplectic,
    "volume": _eval_volume,
    "lemma_a1": _eval_lemma_a1,
    "lemma_a2": _eval_lemma_a2,
    "beta_exact": _eval_beta_exact,
}


def _suite_tolerance(suite: str, config: SuiteConfig) -> float:
    if suite == "jordan":
        return 1e-10
    if suite == "spectral":
        return 1e-8
    if suite in ("duality", "equivariance", "hereditary"):
        return config.tol_exact
    if suite == "volume":
        return 10.0 * config.tol_fd  # determinants square up the fd noise
    return config.tol_fd  # symplectic, lemma_a1, lemma_a2, beta_exact


def run_suite(config: SuiteConfig) -> VerificationReport:
    """Execute the configured suites and aggregate a deterministic report.

    Sample inputs are drawn per (kind, suite, sample) from independent Philox
    streams, so evaluation order cannot change any reported number.  The
    first internal failure -- a ConsistencyError, or any other HjtsError
    except ContractError and DomainError -- aborts the run and is serialized,
    offending point included when the sample tagged one, under
    ``consistency_failure``; its cell gets status "consistency-error" or
    "internal-error".
    """
    started = time.perf_counter()

    cells: list[tuple] = []
    for kind_index, kind in enumerate(config.kinds):
        for suite in config.suites:
            if suite == "hereditary" and _hereditary_target(kind) is None:
                cells.append((kind_index, kind, suite, 0))  # no matrix envelope
            else:
                cells.append((kind_index, kind, suite, config.points))

    results = []
    failure: dict | None = None
    try:
        for kind_index, kind, suite, samples in cells:
            errors = []
            for sample_index in range(samples):
                rng = _cell_rng(config.seed, kind_index,
                                SUITE_NAMES.index(suite), sample_index)
                errors.append(_SUITE_EVALS[suite](kind, config, rng, sample_index))
            max_error = max(errors, default=0.0)
            tolerance = _suite_tolerance(suite, config)
            results.append(SuiteResult(
                kind=_k.format_kind(kind),
                suite=suite,
                samples=samples,
                max_error=float(max_error),
                tolerance=tolerance,
                passed=bool(max_error <= tolerance),
                status="ok" if samples else "skipped",
            ))
    except (ContractError, DomainError):
        raise
    except HjtsError as cause:
        offending = getattr(cause, "offending", None)
        consistency = isinstance(cause, ConsistencyError)
        failure = {
            "kind": _k.format_kind(kind),
            "suite": suite,
            "sample_index": sample_index,
            "message": str(cause) if consistency
                       else f"{type(cause).__name__}: {cause}",
            "point": None if offending is None else
                     [[float(c.real), float(c.imag)] for c in offending.coords],
        }
        results.append(SuiteResult(
            kind=_k.format_kind(kind),
            suite=suite,
            samples=sample_index + 1,
            max_error=float("inf"),
            tolerance=_suite_tolerance(suite, config),
            passed=False,
            status="consistency-error" if consistency else "internal-error",
        ))

    results.sort(key=lambda r: (r.kind, r.suite))
    return VerificationReport(
        config=config,
        results=tuple(results),
        wall_time_s=time.perf_counter() - started,
        consistency_failure=failure,
    )
