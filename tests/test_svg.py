"""Plot emitter: self-contained SVG, escaping, input validation."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from qledger import svg
from qledger.qcore import STACK_BLOCK, ValidationError
from qledger.svg import line_plot

NS = "{http://www.w3.org/2000/svg}"


def test_line_plot_structure(tmp_path):
    path = tmp_path / "p.svg"
    x = np.linspace(0.0, 10.0, 50)
    line_plot(path, x, [("one", np.sin(x)), ("two", np.cos(x))],
              title="demo", xlabel="t", ylabel="y")
    root = ET.parse(path).getroot()
    assert root.tag == NS + "svg"
    assert len(root.findall(f".//{NS}polyline")) == 2
    texts = [t.text for t in root.findall(f".//{NS}text")]
    assert "demo" in texts and "one" in texts and "two" in texts


def test_line_plot_is_self_contained(tmp_path):
    path = tmp_path / "p.svg"
    x = np.linspace(0.0, 1.0, 20)
    line_plot(path, x, [("y", x * x)])
    text = path.read_text()
    assert "http" not in text.replace("http://www.w3.org/2000/svg", "")
    assert "href" not in text
    assert text.startswith("<?xml")


def test_line_plot_escapes_labels(tmp_path):
    path = tmp_path / "p.svg"
    x = np.linspace(0.0, 1.0, 5)
    line_plot(path, x, [("a<b&c", x)], title="x > y")
    root = ET.parse(path).getroot()  # parse succeeds despite the raw metacharacters
    texts = [t.text for t in root.findall(f".//{NS}text")]
    assert "a<b&c" in texts
    assert "x > y" in texts


def test_line_plot_escapes_to_pinned_bytes(tmp_path):
    """``&`` first, then ``>`` and ``<``; quotes are written as they are."""
    path = tmp_path / "p.svg"
    x = np.linspace(0.0, 1.0, 5)
    line_plot(path, x, [('a<b&c>"q"', x)], title="x > y & <z>")
    text = path.read_text()
    assert '>a&lt;b&amp;c&gt;"q"</text>' in text
    assert ">x &gt; y &amp; &lt;z&gt;</text>" in text


def test_line_plot_flat_and_single_point_ranges(tmp_path):
    # degenerate y ranges must still produce usable axes
    x = np.linspace(0.0, 1.0, 10)
    line_plot(tmp_path / "flat.svg", x, [("const", np.full(10, 2.5))])
    ET.parse(tmp_path / "flat.svg")


def test_line_plot_rejects_bad_input(tmp_path):
    x = np.linspace(0.0, 1.0, 10)
    with pytest.raises(ValidationError):
        line_plot(tmp_path / "n.svg", x, [("y", np.full(10, np.nan))])
    with pytest.raises(ValidationError):
        line_plot(tmp_path / "m.svg", x, [("y", np.zeros(7))])
    with pytest.raises(ValidationError):
        line_plot(tmp_path / "e.svg", x, [])


def test_line_plot_deterministic_bytes(tmp_path):
    x = np.linspace(0.0, 2.0, 30)
    curves = [("sin", np.sin(x))]
    line_plot(tmp_path / "a.svg", x, curves, title="t")
    line_plot(tmp_path / "b.svg", x, curves, title="t")
    assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()


@pytest.mark.parametrize("axis", ["x", "y"])
@pytest.mark.parametrize("values", [[-1e308, 1e308], [5e-324, 1e-323]], ids=["overflow", "subnormal"])
def test_line_plot_rejects_an_unplottable_range(tmp_path, axis, values):
    """Finite data whose padded span overflows or is subnormal cannot be
    scaled or ticked: the axis is named, and no file is written."""
    v = np.array(values)
    x, y = (v, np.zeros(2)) if axis == "x" else (np.arange(2.0), v)
    path = tmp_path / "r.svg"
    with pytest.raises(ValidationError, match=f"^line_plot: the {axis} axis spans .* not a finite normal float$"):
        line_plot(path, x, [("y", y)])
    assert not path.exists()


@pytest.mark.parametrize("points", [2, STACK_BLOCK, STACK_BLOCK + 1, 2 * STACK_BLOCK + 5])
def test_polyline_points_across_blocks(tmp_path, points):
    """The points written a block at a time are one list with one space
    between any two, in grid order across the block edges."""
    x = np.linspace(0.0, 3.0, points)
    path = tmp_path / "b.svg"
    line_plot(path, x, [("a", np.sin(x)), ("b", np.cos(x))])
    lines = [p.get("points") for p in ET.parse(path).getroot().iter(NS + "polyline")]
    px = svg._MARGIN_L + x / 3.0 * (svg._WIDTH - svg._MARGIN_L - svg._MARGIN_R)
    assert len(lines) == 2
    for text in lines:
        pairs = text.split(" ")
        assert len(pairs) == points and all(p.count(",") == 1 for p in pairs)
        assert [p.split(",")[0] for p in pairs] == ["%.2f" % v for v in px.tolist()]


def test_line_plot_peak_memory(tmp_path):
    """line_plot holds one block of points, not the polyline text: at 20001
    points its traced peak stays within 1.5 MiB."""
    import tracemalloc

    x = np.linspace(0.0, 20.0, 20001)
    curves = [("a", np.sin(x))]
    path = tmp_path / "big.svg"
    line_plot(path, x, curves)  # warm-up
    tracemalloc.start()
    try:
        line_plot(path, x, curves)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2**20
