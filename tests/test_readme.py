"""The README's Python quick start runs as written and prints what it says."""

import contextlib
import io
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    """The first ```python block after the "Quick start (Python)" heading."""
    text = README.read_text(encoding="utf-8")
    after = text[text.index("## Quick start (Python)"):]
    start = after.index("```python\n") + len("```python\n")
    return after[start:after.index("```", start)]


def test_readme_quick_start_prints_what_it_says():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(_quick_start(), {})
    series, counts, length_and_lead, phi = out.getvalue().splitlines()
    assert series == "-1/6*X^-3 + 1/2*X^-1 + -1/2*X + 1/6*X^3"
    assert eval(counts, {"Fraction": Fraction}) == [0, 0, 0, 8, 0, 80, 0]
    assert length_and_lead == "3 8"
    assert phi == "1 + 3*X + 3*X^2 + X^3"
