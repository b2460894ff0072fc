"""Deterministic SVG rendering."""
import re

import numpy as np
import pytest

from kqrk.svgplot import PALETTE, THIN_TO, Series, _Axis, chart, write_svg


def _line_series(n=50, seed=0):
    rng = np.random.default_rng(seed)
    y = np.exp(-0.1 * np.arange(n)) * (1 + 0.01 * rng.standard_normal(n))
    return Series(label="decay", x=np.arange(n), y=y)


class TestChart:
    def test_byte_deterministic(self):
        s = _line_series()
        assert chart([s], title="t", xlabel="x", ylabel="y") == chart(
            [s], title="t", xlabel="x", ylabel="y"
        )

    def test_two_decimal_coordinates(self):
        text = chart([_line_series()])
        for points in re.findall(r'points="([^"]+)"', text):
            for token in points.split():
                px, py = token.split(",")
                assert re.fullmatch(r"-?\d+\.\d\d", px)
                assert re.fullmatch(r"-?\d+\.\d\d", py)

    def test_no_ids_or_scripts(self):
        text = chart([_line_series()], title="clean")
        assert " id=" not in text
        assert "<script" not in text
        assert "url(" not in text
        # the only URL is the SVG namespace itself
        assert text.count("http") == text.count("http://www.w3.org/2000/svg")

    def test_thinning_caps_polyline_points(self):
        n = 25000
        s = Series(label="big", x=np.arange(n), y=np.linspace(1.0, 2.0, n))
        text = chart([s])
        points = re.search(r'points="([^"]+)"', text).group(1)
        assert len(points.split()) <= 2000

    def test_small_series_not_thinned(self):
        s = _line_series(n=30)
        text = chart([s])
        points = re.search(r'points="([^"]+)"', text).group(1)
        assert len(points.split()) == 30

    def test_log_axis_decade_labels(self):
        y = np.array([1e-8, 1e-4, 1e0, 1e2])
        s = Series(label="span", x=np.arange(4), y=y)
        text = chart([s], ylog=True)
        assert "1e-8" in text and "1e2" in text

    def test_ylog_clamps_nonpositive(self):
        y = np.array([1.0, 0.0, -5.0, 1e-3])
        s = Series(label="z", x=np.arange(4), y=y)
        text = chart([s], ylog=True)  # must not raise on log10
        assert "<polyline" in text

    def test_ylog_clamp_floor_is_normal(self):
        # One decade under a subnormal minimum underflows to 0, whose log10
        # fails; the clamp stops at the smallest normal float instead.
        s = Series(label="a", x=np.arange(3.0), y=np.array([5e-324, 1.0, -1.0]))
        text = chart([s])
        assert "<polyline" in text

    def test_marker_series_draws_circles(self):
        s = Series(label="pts", x=np.arange(5) + 1.0, y=np.ones(5), marker="dot")
        text = chart([s], xlog=True, ylog=True)
        assert text.count("<circle") >= 5
        assert "<polyline" not in text

    def test_title_escaped(self):
        s = _line_series(n=5)
        text = chart([s], title="a < b & c > d")
        assert "a &lt; b &amp; c &gt; d" in text
        assert "a < b" not in text

    def test_palette_cycles(self):
        series = [
            Series(label=f"s{i}", x=np.arange(3), y=np.ones(3) * (i + 1))
            for i in range(3)
        ]
        text = chart(series)
        for i in range(3):
            assert PALETTE[i] in text

    def test_legend_contains_labels(self):
        text = chart([_line_series()])
        assert ">decay</text>" in text

    def test_empty_series_list(self):
        text = chart([], title="empty")
        assert text.startswith("<svg ")
        assert text.rstrip().endswith("</svg>")

    @pytest.mark.parametrize("y", [[1, 10, np.inf, 100, 5.0], [np.inf] * 5])
    def test_infinite_values_on_a_log_axis(self, y):
        # +inf is dropped from the plot, so it must not set the axis range
        s = Series("a", np.arange(1.0, 6.0), np.array(y))
        text = chart([s], ylog=True)
        assert text.rstrip().endswith("</svg>")
        finite = Series("a", np.arange(1.0, 6.0), np.where(np.isinf(y), np.nan, y))
        assert text == chart([finite], ylog=True)


def _per_point(axis, values):
    """Reference for ``_Axis.positions``: map one point at a time."""
    return np.array([axis(float(v)) for v in values])


def _rough_series(rng, n, marker=None):
    # Values over many decades, with zeros, negatives and -inf (clamped to
    # the floor on a log y axis), NaNs and, on a log x axis, non-positive
    # x (both dropped).
    x = np.arange(n) - 3.0
    y = 10.0 ** rng.uniform(-14, 3, n) * rng.choice([1.0, 1.0, 1.0, 0.0, -1.0], n)
    x[rng.choice(n, n // 50 + 1)] = np.nan
    y[rng.choice(n, n // 50 + 1)] = np.nan
    y[rng.choice(n, n // 50 + 1)] = -np.inf
    return Series(label=f"n{n}", x=x, y=y, marker=marker)


class TestBulkPositions:
    @pytest.mark.parametrize("log", [False, True])
    def test_positions_match_per_point(self, log):
        rng = np.random.default_rng(5)
        values = 10.0 ** rng.uniform(-12, 4, 3000) if log else rng.uniform(-50.0, 1e4, 3000)
        axis = _Axis(values.min(), values.max(), 494.0, 34.0, log)
        assert axis.positions(values).tobytes() == _per_point(axis, values).tobytes()

    @pytest.mark.parametrize("xlog", [False, True])
    @pytest.mark.parametrize("ylog", [False, True])
    def test_chart_matches_per_point_formatting(self, monkeypatch, xlog, ylog):
        rng = np.random.default_rng(2 * xlog + ylog)
        series = [
            _rough_series(rng, 3 * THIN_TO + 7),
            _rough_series(rng, 400),
            _rough_series(rng, 60, marker="dot"),
        ]
        bulk = chart(series, xlog=xlog, ylog=ylog)
        assert bulk.count("<polyline") == 2 and "<circle" in bulk
        monkeypatch.setattr(_Axis, "positions", _per_point)
        assert chart(series, xlog=xlog, ylog=ylog) == bulk


class TestWriteSvg:
    def test_writes_exact_bytes(self, tmp_path):
        text = chart([_line_series()], title="file")
        path = tmp_path / "plot.svg"
        write_svg(path, text)
        assert path.read_bytes() == text.encode("utf-8")
        assert path.read_bytes().endswith(b"</svg>\n")
