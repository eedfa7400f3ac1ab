"""Seeded verification harness: sampling, suites, and machine-readable reports.

A run is described by a :class:`SuiteConfig` (kinds, suites, seed, sample count,
boundary cap) and executed by :func:`run_suite`, which draws reproducible
interior points for every (kind, suite) cell, evaluates the checks, and
aggregates worst-case errors into a :class:`VerificationReport`.  The sampling
generator is Philox (4x64 counter-based), with an independent stream per
sample seeded through ``SeedSequence(seed, spawn_key=(kind_index,
suite_index, sample_index))``, so reports are byte-identical across runs and
platforms apart from the wall-time field.

Each suite's facts -- its sample evaluation and its tolerance -- are one row of
``_SUITES``; every check runs at its default step and tangent count.

Internal failures abort the run: internal-consistency failures (route
disagreements beyond 1e-7, non-integer genus) and kernel failures (any
HjtsError other than ContractError and DomainError, such as ConvergenceError
or SingularityError).  The report is still written, with the failure and,
when the sample tagged one, the offending point serialized under
``consistency_failure``; the CLI maps the condition to exit code 2.
"""
from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from . import kinds as _k
from .errors import ConsistencyError, ContractError, DomainError, HjtsError, as_int, as_real
from .jts import Element, d_operator, genus, jordan_residual, triple_product
from .jts import bergman_operator, embedding_target
from .linalg import det, eigh, frobenius, worst_of
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
    _BETA_LAMBDA_MAX,
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

REPORT_SCHEMA = "hjts-report/2"
RNG_NAME = "philox4x64"

_DEFAULT_CAP = 0.95  # SuiteConfig.boundary_cap and sample_domain's default
_CAP_WORDS = "boundary_cap must lie strictly between 0 and 1, got {!r}"  # config and sampler

# --------------------------------------------------------------------------
# Sampling

def _philox(seed: int, *key: int) -> np.random.Generator:
    """The Philox stream of ``SeedSequence(seed, spawn_key=key)``; the empty
    key is ``SeedSequence(seed)``'s own stream."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


def _encode(coords: np.ndarray) -> list:
    """A point's coordinates as JSON-ready [re, im] pairs."""
    return [[float(c.real), float(c.imag)] for c in coords]


def _gaussian_element(kind: _k.JTSKind, rng: np.random.Generator,
                      scale: float = 1.0) -> Element:
    n = _k.ambient_dim(kind)
    coords = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
    return Element(kind, scale * coords)


def sample_domain(kind: _k.JTSKind, rng: np.random.Generator,
                  boundary_cap: float = _DEFAULT_CAP) -> Element:
    """Draw an interior point with largest spectral value <= boundary_cap.

    Entries are independent complex Gaussians, rescaled so that lambda_1 is
    uniform in (0, boundary_cap); an (essentially impossible) zero draw is
    redrawn.  Raises ContractError unless 0 < boundary_cap < 1.
    """
    boundary_cap = as_real(boundary_cap, _CAP_WORDS, 0.0, 1.0, exclusive=True)
    while True:
        draw = _gaussian_element(kind, rng)
        lam1 = spectral_values(draw)[0]
        if lam1 > 1e-12:
            break
    radius = rng.uniform(0.0, boundary_cap)
    return Element(kind, draw.coords * (radius / lam1))


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
    """The type I kind the hereditary suite embeds `kind` into: its
    ``embedding_target``, one size larger when that is `kind` itself; None
    where ``jts`` has no matrix embedding (a spin factor, or a product that
    holds one)."""
    try:
        target = embedding_target(kind)
    except ContractError:
        return None
    return _k.TypeI(target.p + 1, target.q + 1) if target == kind else target


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
    residuals = [frobenius(dec.reconstruct().coords - z.coords) / max(1.0, z.norm())]
    residuals += [frobenius(triple_product(c, c, c).coords - 2.0 * c.coords) for c in dec.frame]
    residuals += [frobenius(d_operator(ci, cj).matrix)
                  for i, ci in enumerate(dec.frame) for cj in dec.frame[i + 1:]]
    for factor, coords in zip(_k.simple_factors(kind), _k.split_coords(kind, z.coords)):
        zf = Element(factor, coords)
        g, matches = _flag(z, lambda f=factor: _checked_genus(f))  # off-integer raises
        residuals.append(0.0 if matches else 1.0)  # a genus off the table fails the cell
        # det B(z, -sign z) = N^g for sign = -1 and N*^g for sign = +1
        for sign, norm in zip((-1.0, 1.0), generic_norms(zf)):
            det_b = det(bergman_operator(zf, Element(factor, -sign * zf.coords)).matrix).real
            ref = norm ** g
            residuals.append(abs(det_b - ref) / max(1.0, abs(ref)))
    return worst_of(residuals)


def _eval_duality(kind, config, rng, sample_index) -> float:
    z = sample_domain(kind, rng, config.boundary_cap)
    residuals = [_flag(z, lambda: psi_route_spread(z)),
                 frobenius(psi_inverse(psi(z)).coords - z.coords) / max(1.0, z.norm())]
    u = _gaussian_element(kind, rng, scale=2.0)
    residuals += [_flag(u, lambda: psi_inverse_route_spread(u)),
                  frobenius(psi(psi_inverse(u)).coords - u.coords) / max(1.0, u.norm())]
    return worst_of(residuals)


def _eval_equivariance(kind, config, rng, sample_index) -> float:
    z = sample_domain(kind, rng, config.boundary_cap)
    return check_equivariance(random_isotropy(kind, rng), z)


def _eval_hereditary(kind, config, rng, sample_index) -> float:
    target = _hereditary_target(kind)
    z = sample_domain(kind, rng, config.boundary_cap)
    return check_hereditary(kind, target, z)


def _eval_symplectic(kind, config, rng, sample_index) -> float:
    z = sample_domain(kind, rng, config.boundary_cap)
    return worst_of(check_symplectic_duality(z, rng=rng))


def _eval_volume(kind, config, rng, sample_index) -> float:
    z = sample_domain(kind, rng, config.boundary_cap)
    return check_volume_duality(z)


def _directional(check: Callable) -> Callable:
    """The sample of a derivative lemma: z, then a unit direction, then ``check``."""
    def evaluate(kind, config, rng, sample_index) -> float:
        z = sample_domain(kind, rng, config.boundary_cap)
        return check(z, _unit_direction(kind, rng))
    return evaluate


class _Suite(NamedTuple):
    """One suite's facts: its sample evaluation and its tolerance."""

    evaluate: Callable          # (kind, config, rng, sample_index) -> scalar error
    tolerance: float            # the cell's tolerance


_EXACT, _FD = 1e-9, 1e-5  # closed-form identities; finite differences and the pullbacks

#: Every suite, one row each, in spawn-key order (a suite's index is its suite_index).
_SUITES = {
    "jordan": _Suite(_eval_jordan, 1e-10),  # Jordan identity, random quintuples
    "spectral": _Suite(_eval_spectral, 1e-8),  # frame residuals, det B = N^g, genus
    "duality": _Suite(_eval_duality, _EXACT),  # route spreads, both round trips
    "equivariance": _Suite(_eval_equivariance, _EXACT),  # psi vs a random isotropy
    "hereditary": _Suite(_eval_hereditary, _EXACT),  # psi vs the canonical embedding
    "symplectic": _Suite(_eval_symplectic, _FD),  # both pullbacks, through psi's exact differential
    # pulled-back skew determinants, exact too; the cell keeps 10x _FD, which the
    # report prints and perfbench's residual ratio divides by
    "volume": _Suite(_eval_volume, 10.0 * _FD),
    "lemma_a1": _Suite(_directional(check_lemma_a1), _FD),  # log-derivatives of N, N*
    "lemma_a2": _Suite(_directional(check_lemma_a2), _FD),  # trace derivatives, p, k <= 2
    "beta_exact": _Suite(_directional(check_beta_exactness), _FD),  # beta = d(gamma)
}

SUITE_NAMES = tuple(_SUITES)

#: The per-sample seam: ``run_suite`` looks each sample's evaluation up here.
_SUITE_EVALS: dict[str, Callable] = {name: row.evaluate for name, row in _SUITES.items()}


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


@dataclass(frozen=True)
class SuiteConfig:
    """Everything a verification run depends on (echoed into the report)."""

    kinds: tuple = DEFAULT_KINDS
    seed: int = 0
    points: int = 100
    boundary_cap: float = _DEFAULT_CAP
    suites: tuple = SUITE_NAMES

    def __post_init__(self) -> None:
        object.__setattr__(self, "kinds", tuple(self.kinds))
        object.__setattr__(self, "suites", tuple(self.suites))
        object.__setattr__(self, "seed", as_int(
            self.seed, "seed must be a 64-bit unsigned integer, got {!r}", 0, 2 ** 64 - 1))
        for kind in self.kinds:
            if not isinstance(kind, _k.JTSKind):
                raise ContractError(f"kinds must hold kind objects (kinds.parse_kind), got {kind!r}")
        object.__setattr__(self, "points", as_int(
            self.points, "points must be a positive integer, got {!r}", 1))
        object.__setattr__(self, "boundary_cap",
                           as_real(self.boundary_cap, _CAP_WORDS, 0.0, 1.0, exclusive=True))
        unknown = [s for s in self.suites if s not in SUITE_NAMES]
        if unknown:
            raise ContractError(
                f"unknown suites {unknown}; valid names: {', '.join(SUITE_NAMES)}"
            )
        # a repeat would run its cells twice under one (kind, suite) label
        for name, labels in (("kinds", [_k.format_kind(k) for k in self.kinds]),
                             ("suites", self.suites)):
            repeated = sorted({label for label in labels if labels.count(label) > 1})
            if repeated:
                raise ContractError(f"{name} repeat {', '.join(repeated)}; give each once")
        # refuse here what beta_exact would refuse mid-run: a cap at its limit
        if "beta_exact" in self.suites and not self.boundary_cap < _BETA_LAMBDA_MAX:
            raise ContractError(f"boundary_cap {self.boundary_cap!r} is too large for "
                                f"beta_exact, which needs largest spectral value "
                                f"< {_BETA_LAMBDA_MAX}")

    def to_dict(self) -> dict:
        doc = {field.name: getattr(self, field.name) for field in fields(self)}
        doc.update(kinds=[_k.format_kind(kind) for kind in self.kinds], suites=list(self.suites))
        return doc


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
            # +inf (a consistency abort) and NaN (a NaN residual) fail the cell;
            # JSON cannot carry either, so both are written as null
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
    results = []
    failure: dict | None = None
    for (kind_index, kind), suite in itertools.product(enumerate(config.kinds), config.suites):
        status, samples = "ok", config.points
        if suite == "hereditary" and _hereditary_target(kind) is None:
            status, samples = "skipped", 0  # no matrix envelope
        errors = []
        try:
            for sample_index in range(samples):
                rng = _philox(config.seed, kind_index, SUITE_NAMES.index(suite), sample_index)
                errors.append(_SUITE_EVALS[suite](kind, config, rng, sample_index))
            max_error = worst_of(errors)
        except (ContractError, DomainError):
            raise
        except HjtsError as cause:
            offending = getattr(cause, "offending", None)
            consistency = isinstance(cause, ConsistencyError)
            status = "consistency-error" if consistency else "internal-error"
            samples, max_error = sample_index + 1, math.inf
            failure = {
                "kind": _k.format_kind(kind),
                "suite": suite,
                "sample_index": sample_index,
                "message": str(cause) if consistency
                           else f"{type(cause).__name__}: {cause}",
                "point": None if offending is None else _encode(offending.coords),
            }
        tolerance = _SUITES[suite].tolerance
        results.append(SuiteResult(_k.format_kind(kind), suite, samples, max_error, tolerance,
                                   max_error <= tolerance, status))
        if failure is not None:
            break

    results.sort(key=lambda r: (r.kind, r.suite))
    return VerificationReport(
        config=config,
        results=tuple(results),
        wall_time_s=time.perf_counter() - started,
        consistency_failure=failure,
    )
