"""The README's code runs: every fenced ``python`` block executes against the
source tree, and the one-minute example prints what its comments promise."""

import contextlib
import io
import re
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                    re.MULTILINE | re.DOTALL)


@pytest.fixture(autouse=True)
def _src_on_path(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_block_runs(index):
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(BLOCKS[index], f"README.md block {index}", "exec"), {})


def test_one_minute_example():
    (block,) = [b for b in BLOCKS if "spectral_decompose" in b]
    namespace: dict = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md one-minute example", "exec"), namespace)
    assert out.getvalue().strip() == "[0.6 0.3]"
    assert np.max(np.abs(namespace["back"].coords - namespace["z"].coords)) < 1e-12
