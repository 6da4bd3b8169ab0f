import re
import subprocess
import sys

import numpy as np
import pytest

from metasim import svgplot
from metasim.svgplot import _ML, _MR, _W, line_chart


def test_basic_document_structure():
    svg = line_chart([0.0, 1.0, 2.0], [1.0, 3.0, 2.0], "demo", y_label="M")
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert "<polyline" in svg
    assert "demo" in svg
    assert "M" in svg


def test_deterministic_bytes():
    t = np.linspace(0.0, 5.0, 200)
    y = np.sin(t) + 2.0
    assert line_chart(t, y, "x") == line_chart(t, y, "x")


def test_log_scale_handles_nonpositive_values():
    svg = line_chart([0.0, 1.0, 2.0, 3.0], [0.0, 1e-6, 1.0, 10.0], "log", log_y=True)
    assert "<polyline" in svg


def test_constant_series_renders():
    # 0.5 either side of 1e16 rounds back to 1e16, so the pad scales with |y|
    for level in (2.0, 1e16):
        svg = line_chart([0.0, 1.0], [level, level], "flat")
        assert "<polyline" in svg


def test_empty_or_mismatched_rejected():
    with pytest.raises(ValueError):
        line_chart([], [], "empty")
    with pytest.raises(ValueError):
        line_chart([0.0, 1.0], [1.0], "bad")


def test_ticks_of_a_range_about_one_ulp_wide_are_bounded():
    # a stride below half an ulp of the start never moved a running sum,
    # which then grew the tick list until memory ran out; the child runs
    # the module on its own, without NumPy, under an address-space cap
    child = f"""
import importlib.util, resource
cap = 256 << 20
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
spec = importlib.util.spec_from_file_location("svgplot", {svgplot.__file__!r})
svgplot = importlib.util.module_from_spec(spec)
spec.loader.exec_module(svgplot)
print(len(svgplot._ticks(1.0, 1.0 + 2.0**-52)), len(svgplot._ticks(1e16, 1e16 + 2.0)))
svgplot.line_chart([0, 1, 2], [1.0, 1.0 + 2.0**-52, 1.0], "t")
"""
    proc = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    counts = [int(n) for n in proc.stdout.split()]
    assert len(counts) == 2 and 1 <= min(counts) and max(counts) <= 6, counts


@pytest.mark.parametrize(
    "y", [[0.0, 2e-323, 0.0], [0.0, 1.79e308], [1.5e308, 1.5e308], [-1e308, 1e308]]
)
def test_extreme_ranges_render(y):
    # subnormal and overflowing ranges leave one tick, not an exception
    assert "<polyline" in line_chart(range(len(y)), y, "edge")


@pytest.mark.parametrize(
    "x,y",
    [
        ([0.0, 1.0], [1.5e308, 1.5e308]),  # the flat pad passed the float maximum
        ([0.0, 1.0], [-1.7e308, 1.7e308]),  # the span did
        ([0.0, 1.7e308], [1.0, 2.0]),  # the plot width times the span did
    ],
)
def test_finite_input_gives_finite_coordinates_and_labels(x, y):
    svg = line_chart(x, y, "t")
    assert re.search(r"\b(nan|inf)\b", svg) is None, svg
    (points,) = re.findall(r'points="([^"]*)"', svg)
    coords = [float(v) for pair in points.split() for v in pair.split(",")]
    assert len(coords) == 4 and all(0 <= v <= 800 for v in coords), coords


@pytest.mark.parametrize("t", [0.0, 1e17, -3e300, 1.7e308])
def test_a_flat_time_axis_is_centred_like_a_flat_y(t):
    # at |x| >= 2**53, x + 1 == x: a flat axis widens relative to |x|
    svg = line_chart([t, t], [1.0, 2.0], "t")
    assert re.search(r"\b(nan|inf)\b", svg) is None, svg
    (points,) = re.findall(r'points="([^"]*)"', svg)
    xs = [float(pair.split(",")[0]) for pair in points.split()]
    assert xs == [(_ML + _W - _MR) / 2] * 2
