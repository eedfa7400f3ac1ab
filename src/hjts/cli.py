"""Command-line front end: ``verify``, ``psi``, and ``sample``.

Exit codes: 0 every suite passed; 1 at least one suite exceeded its
tolerance; 2 an internal defect: a consistency check tripped (route
disagreement, non-integer genus) or a kernel failed (ConvergenceError,
SingularityError) -- ``verify`` still writes its report, with the failure
under ``consistency_failure`` -- or an unexpected exception escaped, whose
traceback goes to stderr; 3 the command line or configuration failed to
parse.

``verify`` writes the JSON report to ``--out`` (UTF-8) or stdout and a short
human summary to stderr, so piping the report stays clean.  ``--out`` is
opened before any sample runs, so a path that cannot be written exits 3.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import sys
import traceback

import numpy as np

from . import kinds as _k
from .errors import ConsistencyError, ContractError, DomainError, HjtsError, as_int, as_real
from .harness import (
    DEFAULT_KINDS,
    RNG_NAME,
    SUITE_NAMES,
    SuiteConfig,
    VerificationReport,
    _encode,
    _philox,
    run_suite,
    sample_domain,
)
from .jts import Element
from .linalg import frobenius
from .duality import psi, psi_inverse

__all__ = ["main", "build_parser"]

EXIT_PASS = 0
EXIT_TOLERANCE = 1
EXIT_CONSISTENCY = 2
EXIT_CONFIG = 3

#: The ``SuiteConfig`` fields that ``verify`` exposes as ``--name-with-dashes``
#: options, each taking its type and default from the field; every field but
#: ``kinds`` and ``suites``, which ``--all``/``--kind`` and ``--suites`` set.
_RUN_FIELDS = tuple(field.name for field in dataclasses.fields(SuiteConfig)
                    if field.name not in ("kinds", "suites"))


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2; the contract reserves 3 for that."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hjts", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command", parser_class=_Parser)

    verify = sub.add_parser("verify",
                            help="run verification suites and emit a JSON report")
    target = verify.add_mutually_exclusive_group()
    target.add_argument("--all", action="store_true",
                        help="use the default kind set (one per family plus a product)")
    target.add_argument("--kind", action="append", metavar="KIND",
                        help="kind to verify, e.g. I:2,2 (repeatable)")
    verify.add_argument("--suites", metavar="NAMES",
                        help=f"comma-separated subset of: {','.join(SUITE_NAMES)}")
    for name in _RUN_FIELDS:
        default = getattr(SuiteConfig, name)
        verify.add_argument("--" + name.replace("_", "-"), type=type(default), default=default)
    verify.add_argument("--out", metavar="FILE",
                        help="write the report here instead of stdout")

    psi_cmd = sub.add_parser("psi",
                             help="map a point through the duality and back")
    psi_cmd.add_argument("--kind", required=True, metavar="KIND")
    psi_cmd.add_argument("--point", required=True, metavar="JSON",
                         help='coordinates as JSON, entries a number or [re, im]')

    sample = sub.add_parser("sample", help="draw reproducible interior points")
    sample.add_argument("--kind", required=True, metavar="KIND")
    sample.add_argument("--count", type=int, default=5)
    sample.add_argument("--seed", type=type(SuiteConfig.seed), default=SuiteConfig.seed)
    sample.add_argument("--boundary-cap", type=float, default=SuiteConfig.boundary_cap)

    return parser


@functools.lru_cache(maxsize=1)
def _shared_parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built on first use and kept for the process;
    ``build_parser`` still returns a fresh one to any other caller."""
    return build_parser()


def _parse_point(kind: _k.JTSKind, text: str) -> Element:
    try:
        raw = json.loads(text)
    except ValueError as err:
        raise ContractError(f"--point is not valid JSON: {err}") from None
    if not isinstance(raw, list):
        raise ContractError("--point must be a JSON array of coordinates")
    words = "--point entry {!r} is not a finite real number; entries are numbers or [re, im] pairs"
    coords = []
    for entry in raw:
        pair = entry if isinstance(entry, list) and len(entry) == 2 else (entry, 0.0)
        coords.append(complex(*(as_real(x, words, exclusive=True) for x in pair)))
    expected = _k.ambient_dim(kind)
    if len(coords) != expected:
        raise ContractError(
            f"{_k.format_kind(kind)} needs {expected} coordinates, got {len(coords)}"
        )
    return Element(kind, np.asarray(coords, dtype=np.complex128))


def _summarize(report: VerificationReport, stream) -> None:
    for r in report.results:
        if r.status == "skipped":
            line = f"{r.kind:>18s}  {r.suite:<12s}  skipped (no embedding target)"
        else:
            verdict = "ok" if r.passed else "FAIL"
            line = (f"{r.kind:>18s}  {r.suite:<12s}  max {r.max_error:9.3e}"
                    f"  tol {r.tolerance:7.1e}  {verdict}")
        print(line, file=stream)
    if report.consistency_failure:
        f = report.consistency_failure
        status = {(r.kind, r.suite): r.status for r in report.results}[(f["kind"], f["suite"])]
        print(f"{status.replace('-', ' ')} in {f['kind']}/{f['suite']} "
              f"sample {f['sample_index']}: {f['message']}", file=stream)
    failed = sum(1 for r in report.results if not r.passed)
    print(f"{len(report.results)} suite cells, {failed} failed, "
          f"{report.wall_time_s:.2f}s", file=stream)


def _cmd_verify(args) -> int:
    if args.kind:
        kinds = tuple(_k.parse_kind(text) for text in args.kind)
    else:
        kinds = DEFAULT_KINDS  # --all, or no target given
    suites = SUITE_NAMES if args.suites is None else tuple(
        name.strip() for name in args.suites.split(",") if name.strip()
    )
    config = SuiteConfig(kinds=kinds, suites=suites,
                         **{name: getattr(args, name) for name in _RUN_FIELDS})
    try:  # a path that cannot be written is refused before any sample runs
        out = (open(args.out, "w", encoding="utf-8") if args.out
               else contextlib.nullcontext(sys.stdout))
    except OSError as err:
        raise ContractError(f"cannot write --out {args.out}: {err.strerror}") from None
    with out as stream:
        report = run_suite(config)
        stream.write(report.to_json())
    _summarize(report, sys.stderr)
    if report.consistency_failure is not None:
        return EXIT_CONSISTENCY
    return EXIT_PASS if report.all_pass else EXIT_TOLERANCE


def _cmd_psi(args) -> int:
    kind = _k.parse_kind(args.kind)
    z = _parse_point(kind, args.point)
    image = psi(z)
    back = psi_inverse(image)
    gap = frobenius(back.coords - z.coords)
    doc = {
        "kind": _k.format_kind(kind),
        "point": _encode(z.coords),
        "psi": _encode(image.coords),
        "psi_inverse_psi": _encode(back.coords),
        "round_trip_error": gap,
    }
    json.dump(doc, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return EXIT_PASS


def _cmd_sample(args) -> int:
    kind = _k.parse_kind(args.kind)
    as_int(args.count, "--count must be positive, got {!r}", 1)
    as_int(args.seed, "--seed must be a 64-bit unsigned integer, got {!r}", 0, 2 ** 64 - 1)
    rng = _philox(args.seed)
    points = [sample_domain(kind, rng, args.boundary_cap) for _ in range(args.count)]
    doc = {
        "kind": _k.format_kind(kind),
        "rng": RNG_NAME,
        "seed": args.seed,
        "boundary_cap": args.boundary_cap,
        "points": [_encode(p.coords) for p in points],
    }
    json.dump(doc, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return EXIT_PASS


def main(argv=None) -> int:
    parser = _shared_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help(sys.stderr)
        return EXIT_CONFIG
    handler = {"verify": _cmd_verify, "psi": _cmd_psi, "sample": _cmd_sample}[args.command]
    try:
        return handler(args)
    except ConsistencyError as err:
        print(f"hjts: consistency error: {err}", file=sys.stderr)
        return EXIT_CONSISTENCY
    except (ContractError, DomainError) as err:
        print(f"hjts: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except HjtsError as err:
        print(f"hjts: internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_CONSISTENCY
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return EXIT_CONSISTENCY
