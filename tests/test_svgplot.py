import numpy as np

from modesub.svgplot import Curve, Marker, render


def test_render_basic_structure():
    x = np.linspace(0.0, 1.0, 20)
    svg = render([Curve(x, np.sin(x), "a"), Curve(x, np.cos(x), "b")],
                 x_label="kR/pi", y_label="lambda")
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert svg.count("<polyline") >= 2
    assert ">a</text>" in svg and ">b</text>" in svg
    assert "kR/pi" in svg and "lambda" in svg


def test_render_splits_at_gaps():
    x = np.linspace(0.0, 1.0, 11)
    y = np.sin(x)
    y[5] = np.nan
    svg = render([Curve(x, y, "gap")])
    assert "nan" not in svg
    # the curve breaks into two polylines around the hole
    assert svg.count("<polyline") >= 2


def test_render_clips_out_of_window():
    x = np.linspace(0.0, 1.0, 50)
    y = np.tan(6.0 * (x - 0.5))
    svg = render([Curve(x, y, "steep")], y_clip=(-5.0, 5.0))
    for token in svg.split():
        if token.replace("-", "").replace(".", "").isdigit():
            continue
    assert "<polyline" in svg


def test_markers_rendered():
    x = np.linspace(0.0, 1.0, 5)
    svg = render([Curve(x, x, "c")],
                 markers=[Marker(0.5, 0.5, "X marks", kind="crossing"),
                          Marker(0.25, 0.25, "near miss", kind="avoidance")])
    assert "X marks" in svg and "near miss" in svg
    assert "stroke-dasharray" in svg

