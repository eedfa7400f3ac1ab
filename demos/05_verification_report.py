"""Seeded verification runs and the JSON report, end to end.

Run:  python demos/05_verification_report.py
Equivalent CLI:  hjts verify --kind I:2,2 --kind IV:3 \
                     --suites jordan,duality,symplectic --points 10 --seed 42
"""
import json
import re

from hjts import SuiteConfig, TypeI, TypeIV, run_suite

config = SuiteConfig(
    kinds=(TypeI(2, 2), TypeIV(3)),
    seed=42,
    points=10,
    suites=("jordan", "duality", "symplectic"),
)

print("=== running three suites over two kinds ===")
report = run_suite(config)
for r in report.results:
    print(f"  {r.kind:>8s}  {r.suite:<10s}  max {r.max_error:.3e}  "
          f"tol {r.tolerance:.0e}  {'ok' if r.passed else 'FAIL'}")
print(f"  all_pass = {report.all_pass}   ({report.wall_time_s:.2f}s)")

print()
print("=== the report is plain JSON, schema hjts-report/2 ===")
doc = json.loads(report.to_json())
print(json.dumps({k: doc[k] for k in ("schema", "rng", "seed", "all_pass")}, indent=2))

print()
print("=== determinism: same config, same bytes (minus wall time) ===")
again = run_suite(config)
scrub = lambda s: re.sub(r'"wall_time_s": \S+', "-", s)
print("  byte-identical:", scrub(report.to_json()) == scrub(again.to_json()))
