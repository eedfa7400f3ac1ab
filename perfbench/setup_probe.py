"""Set-up cost of `hjts verify` in a fresh process.

Times ``import hjts`` plus one ``verify`` run of one sample per (kind, suite)
cell, which is what every ``hjts verify`` pays before its steady state.
``run.py`` starts this script with the sources on ``PYTHONPATH`` and the verify
arguments on the command line; it prints one JSON line.
"""
import contextlib
import io
import json
import sys
import time


def main(argv: list[str]) -> int:
    start = time.perf_counter()
    import hjts.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = hjts.cli.main(argv)
    seconds = time.perf_counter() - start
    report = json.loads(out.getvalue())
    print(json.dumps({
        "seconds": seconds,
        "exit": code,
        "all_pass": report["all_pass"],
        "samples": sum(r["samples"] for r in report["results"]),
        "module": hjts.cli.__file__,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
