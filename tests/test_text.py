"""Number text: the CSV and SVG numbers come from one kernel, in the bytes of ``%``."""

import ast
import inspect
import math
import re
from collections import Counter

import numpy as np
import pytest

from qledger import _text, measures, svg


def _around(x: float, n: int) -> list[float]:
    """x and its n nearest floats on either side."""
    out, lo, hi = [x], x, x
    for _ in range(n):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [float(lo), float(hi)]
    return out


def _text_cases() -> tuple[np.ndarray, np.ndarray]:
    """Random bit patterns over every binade, decimal-looking values and
    values halfway between two of 12 digits, then apart: powers of ten and
    the notation switch points with their neighbours, ties, and the
    extremes, each sign."""
    rng = np.random.default_rng(2029)
    bits = rng.integers(0, 2**64, 10**5, dtype=np.uint64).view(np.float64)
    decimal = rng.integers(-10**7, 10**7, 20000) / 10.0 ** rng.integers(0, 10, 20000)
    thousandths = rng.integers(0, 10**6, 10000) / 1000.0  # x.xx5 rounds onto a half at %.2f
    halfway = (rng.integers(10**11, 10**12, 10000) * 10 + 5) / 10.0 ** rng.integers(0, 16, 10000)  # at %.12g
    special = [
        *(y for k in range(-5, 14) for y in _around(float(f"1e{k}"), 1)),
        *_around(1e-4, 3), *_around(9.99999999999995e-5, 3), *_around(999999999999.5, 3),
        100000000000.5, 0.125, 0.375, 2.5, 72.315, 1.005, 0.0, 5e-324,
        1.7976931348623157e308, math.inf, math.nan,
    ]
    return np.concatenate([bits, decimal, thousandths, halfway]), np.array(special + [-v for v in special])


def _percent_text(block: np.ndarray, spec: str, end: str) -> str:
    return end.join(",".join(spec % v for v in row) for row in block.tolist())


@pytest.mark.parametrize("skew", [0.0, -math.inf, math.inf], ids=["log10", "log10-ulp", "log10+ulp"])
@pytest.mark.parametrize("spec, end", [("%.12g", "\n"), ("%.2f", " ")], ids=["csv", "svg"])
def test_decimal_text_has_the_bytes_of_percent(monkeypatch, spec, end, skew):
    """Blocks of 1024 and 1025 rows, and the special values in blocks of one
    row and one value, with log10 as numpy has it and one ulp off either way
    (its last bits may differ between SIMD levels; a tenth of the random
    values then): the text is ``%``'s, byte for byte, no float warning is
    raised, and ``%`` itself writes only exponent notation, %f beyond 1e11
    and non-finite values."""
    x, special = _text_cases()
    if skew:
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda a: np.nextafter(log10(a), skew))
        x = x[::10]
    blocks = [x[i : i + n * cols].reshape(-1, cols) for n, cols in ((1024, 10), (1025, 2))
              for i in range(0, x.size, n * cols)]
    blocks += [special.reshape(-1, 2), *special.reshape(-1, 1, 2), *special.reshape(-1, 1, 1)]
    for block in blocks:
        text = _percent_text(block, spec, end)
        assert _text._decimal_text(block, spec, end) == text, block
        v = block.ravel()
        words = text.replace(end, ",").split(",")
        fixed = [w[-1].isdigit() and "e" not in w for w in words] if spec == "%.12g" else np.abs(v) < 1e11
        assert np.array_equal(_text._rounded(v, spec == "%.12g")[3], fixed), block


def _number_formats(module) -> Counter:
    """Counts of (top-level function or class, format) over a module: each
    string with a ``%`` conversion of a float, each ``format``, ``__mod__``
    or ``mod`` named, and each f-string format spec; docstrings aside."""
    tree = ast.parse(inspect.getsource(module))
    docs = {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and ast.get_docstring(node)}
    found = Counter()
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docs:
                if not re.search(r"%[-+ #0]*\d*(\.\d+)?[eEfFgG]", node.value):
                    continue
                spec = repr(node.value)
            elif isinstance(node, ast.Attribute) and node.attr in ("format", "__mod__", "mod"):
                spec = ast.unparse(node)
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "format":
                spec = ast.unparse(node)
            elif isinstance(node, ast.FormattedValue) and node.format_spec:
                spec = ast.unparse(node.format_spec)
            else:
                continue
            found[getattr(top, "name", "<module>"), spec] += 1
    return found


def test_measures_and_svg_take_their_number_text_from_one_kernel():
    """No series value is formatted outside ``_text._decimal_text``: what is
    left are the spec each caller passes it, the SVG tick labels, the .2f
    tick and label positions, the .0f text coordinates, and the numbers in
    a Trajectory's repr and in measure_series's error."""
    assert _number_formats(measures) == {
        ("_csv_blocks", "'%.12g'"): 1, ("Trajectory", "f'g'"): 2, ("measure_series", "f'g'"): 2,
    }
    assert _number_formats(svg) == {
        ("line_plot", "'%.2f'"): 1,
        ("line_plot", "format(tick, '.6g')"): 2, ("line_plot", "f'.2f'"): 3, ("line_plot", "f'.0f'"): 3,
    }
