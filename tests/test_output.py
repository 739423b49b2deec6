import numpy as np
import pytest

import sismob.output as output
from sismob.output import (
    PALETTE,
    line_plot_svg,
    nice_ticks,
    parse_trajectory_csv,
    trajectory_csv,
)


class TestCsv:
    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(2)
        times = np.cumsum(rng.uniform(0.01, 1.0, 40))
        p = rng.uniform(0.0, 1.0, (40, 3))
        x = rng.dirichlet(np.ones(3), 40)
        t2, p2, x2 = parse_trajectory_csv(trajectory_csv(times, p, x))
        assert np.array_equal(times, t2)
        assert np.array_equal(p, p2)
        assert np.array_equal(x, x2)

    def test_round_trip_extreme_magnitudes(self):
        times = np.array([0.0, 1.0])
        p = np.array([[1e-308, 0.1], [1.0 - 1e-16, 2.0 ** -52]])
        x = np.array([[0.5, 0.5], [1e-17, 1.0 - 1e-17]])
        t2, p2, x2 = parse_trajectory_csv(trajectory_csv(times, p, x))
        assert np.array_equal(p, p2)
        assert np.array_equal(x, x2)

    def test_header_layout(self):
        text = trajectory_csv([0.0], [[0.1, 0.2]], [[0.4, 0.6]])
        assert text.splitlines()[0] == "t,p_1,p_2,x_1,x_2"
        assert text.endswith("\n")

    def test_rejects_misaligned_shapes(self):
        with pytest.raises(ValueError):
            trajectory_csv([0.0, 1.0], [[0.1]], [[0.4]])
        with pytest.raises(ValueError):
            trajectory_csv([0.0], [[0.1, 0.2]], [[0.4]])

    def test_parse_rejects_foreign_header(self):
        with pytest.raises(ValueError):
            parse_trajectory_csv("time,a,b\n0,1,2\n")

    def test_nan_survives_round_trip(self):
        p = np.array([[np.nan, 0.5]])
        _, p2, _ = parse_trajectory_csv(trajectory_csv([0.0], p, [[0.5, 0.5]]))
        assert np.isnan(p2[0, 0]) and p2[0, 1] == 0.5


class TestNiceTicks:
    def test_unit_interval(self):
        ticks = nice_ticks(0.0, 1.0)
        assert ticks[0] == 0.0
        assert ticks[-1] == pytest.approx(1.0)
        assert len(ticks) >= 4

    def test_steps_are_round_numbers(self):
        for lo, hi in [(0.0, 0.37), (-3.0, 11.0), (0.0, 6000.0), (0.1, 0.1001)]:
            ticks = nice_ticks(lo, hi)
            steps = np.diff(ticks)
            assert np.allclose(steps, steps[0])
            lead = steps[0] / 10.0 ** np.floor(np.log10(steps[0]))
            assert min(abs(lead - m) for m in (1.0, 2.0, 2.5, 5.0, 10.0)) < 1e-9

    def test_degenerate_range(self):
        ticks = nice_ticks(2.0, 2.0)
        assert len(ticks) >= 2

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            nice_ticks(0.0, np.inf)

    def test_range_below_float_spacing_terminates(self):
        # the x series of a symmetric chain whose stationary entries differ
        # in the last bit spans less than the float spacing near it
        lo = 1.0 / 3.0
        ticks = nice_ticks(lo, np.nextafter(lo, 1.0))
        assert 1 <= len(ticks) <= 10


class TestSvg:
    def test_basic_structure(self):
        times = np.linspace(0.0, 10.0, 30)
        series = np.column_stack([np.sin(times), np.cos(times)])
        svg = line_plot_svg(times, series, title="waves", ylabel="amplitude")
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert 'viewBox="0 0 800 500"' in svg
        assert svg.count("<polyline") == 2
        assert "waves" in svg and "amplitude" in svg

    def test_nan_splits_line_into_segments(self):
        times = np.arange(9.0)
        col = np.sin(times)
        col[4] = np.nan
        svg = line_plot_svg(times, col[:, None])
        assert svg.count("<polyline") == 2

    def test_isolated_point_renders_as_circle(self):
        times = np.arange(5.0)
        col = np.array([np.nan, 1.0, np.nan, 2.0, 3.0])
        svg = line_plot_svg(times, col[:, None])
        assert svg.count("<circle") == 1
        assert svg.count("<polyline") == 1

    def test_many_columns_cycle_the_palette(self):
        times = np.linspace(0.0, 1.0, 5)
        series = np.tile(times[:, None], (1, 12)) * np.arange(1, 13)
        svg = line_plot_svg(times, series)
        assert svg.count("<polyline") == 12
        # columns 1 and 11 share the first colour, 2 and 12 the second
        assert [svg.count(c) for c in PALETTE[:3]] == [2, 2, 1]

    def test_flat_series_still_renders(self):
        times = np.linspace(0.0, 1.0, 5)
        svg = line_plot_svg(times, np.zeros((5, 1)))
        assert svg.count("<polyline") == 1


def reference_trajectory_csv(times, p, x) -> str:
    """trajectory_csv as it was written one value at a time, kept as the
    reference the whole-array writer must match byte for byte."""
    times = np.asarray(times, dtype=float)
    p = np.atleast_2d(np.asarray(p, dtype=float))
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n = p.shape[1]
    header = ("t," + ",".join(f"p_{k}" for k in range(1, n + 1)) + ","
              + ",".join(f"x_{k}" for k in range(1, n + 1)))
    lines = [header]
    for row in range(len(times)):
        vals = [times[row], *p[row], *x[row]]
        lines.append(",".join("%.17g" % v for v in vals))
    return "\n".join(lines) + "\n"


def reference_line_plot_svg(times, series, title: str = "", ylabel: str = "") -> str:
    """line_plot_svg as it was written one point at a time, kept as the
    reference the whole-array writer must match byte for byte."""
    W, H = output.WIDTH, output.HEIGHT
    ML, MR, MT, MB = output.MARGIN_L, output.MARGIN_R, output.MARGIN_T, output.MARGIN_B
    times = np.asarray(times, dtype=float)
    series = np.atleast_2d(np.asarray(series, dtype=float))
    if series.shape[0] != len(times):
        series = series.T
    finite = series[np.isfinite(series)]
    x_lo, x_hi = float(times.min()), float(times.max())
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    y_lo, y_hi = float(finite.min()), float(finite.max())
    if y_hi <= y_lo:
        pad = max(abs(y_lo), 1e-6)
        y_lo, y_hi = y_lo - 0.05 * pad, y_hi + 0.05 * pad
    else:
        pad = 0.05 * (y_hi - y_lo)
        y_lo, y_hi = y_lo - pad, y_hi + pad
    plot_w = W - ML - MR
    plot_h = H - MT - MB

    def sx(t):
        return ML + (t - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v):
        return MT + (y_hi - v) / (y_hi - y_lo) * plot_h

    label = output._tick_label
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {W} {H}">',
             f'<rect width="{W}" height="{H}" fill="white"/>']
    if title:
        parts.append(f'<text x="{W / 2:.1f}" y="24" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="16">{title}</text>')
    for t in nice_ticks(x_lo, x_hi):
        px = sx(t)
        parts.append(f'<line x1="{px:.2f}" y1="{MT}" x2="{px:.2f}" '
                     f'y2="{H - MB}" stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{px:.2f}" y="{H - MB + 18}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="12">{label(t)}</text>')
    for v in nice_ticks(y_lo, y_hi):
        py = sy(v)
        parts.append(f'<line x1="{ML}" y1="{py:.2f}" x2="{W - MR}" '
                     f'y2="{py:.2f}" stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{ML - 8}" y="{py + 4:.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="12">{label(v)}</text>')
    parts.append(f'<rect x="{ML}" y="{MT}" width="{plot_w}" height="{plot_h}" '
                 'fill="none" stroke="#333333" stroke-width="1"/>')
    if ylabel:
        cy = MT + plot_h / 2
        parts.append(f'<text x="16" y="{cy:.1f}" text-anchor="middle" font-family="sans-serif" '
                     f'font-size="13" transform="rotate(-90 16 {cy:.1f})">{ylabel}</text>')
    parts.append(f'<text x="{ML + plot_w / 2:.1f}" y="{H - 14}" text-anchor="middle" '
                 'font-family="sans-serif" font-size="13">t</text>')
    for col in range(series.shape[1]):
        color = PALETTE[col % len(PALETTE)]
        segment = []
        segments = []
        for row in range(len(times)):
            v = series[row, col]
            if np.isfinite(v):
                segment.append(f"{sx(times[row]):.2f},{sy(v):.2f}")
            elif segment:
                segments.append(segment)
                segment = []
        if segment:
            segments.append(segment)
        for seg in segments:
            if len(seg) == 1:
                cx, cy = seg[0].split(",")
                parts.append(f'<circle cx="{cx}" cy="{cy}" r="2" fill="{color}"/>')
            else:
                parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.3" '
                             f'points="{" ".join(seg)}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def writer_cases():
    """(times, p, x) with NaN gaps, one-point segments, -0.0, infinities,
    constant series, one sample, n = 1000, and x rows that repeat, are
    == without being the same bytes, or are all NaN."""
    rng = np.random.default_rng(53)
    gaps = rng.uniform(-1.0, 1.0, (30, 5))
    gaps[3, 0] = np.nan                     # a gap inside a line
    gaps[5:7, 1] = np.nan
    gaps[[0, 2], 2] = np.nan                # a lone point at row 1
    gaps[:, 3] = -0.0
    gaps[10, 4] = np.inf
    gaps[29, 0] = np.nan                    # a lone point at the end
    gaps[28, 0] = 0.5
    gaps[27, 0] = np.nan
    tiny = np.array([[5e-324, -1e-300, 1e300]])
    # the repeated-row cases draw from their own stream, so the cases
    # above keep their values
    rep = np.random.default_rng(54)
    # x rows that repeat, as integrate records them once x stops moving
    fixed = rep.dirichlet(np.ones(1000))
    late = rep.dirichlet(np.ones(1000), 13)
    late[5:] = fixed
    # rows that are == but not the same bytes
    signed = np.array([[0.5, -0.0, 0.5], [0.5, 0.0, 0.5], [0.5, -0.0, 0.5], [0.5, 0.0, 0.5]])
    blank = rep.random((6, 3))
    blank[[1, 2, 4]] = np.nan
    # the first column is finite only at rows 1 and 3, each between gaps
    lone = rep.random((5, 2))
    lone[[0, 2, 4], 0] = np.nan
    return {
        "gaps": (np.arange(30.0) * 0.1, gaps, np.abs(gaps)),
        "constant": (np.linspace(0.0, 2.0, 7), np.full((7, 3), 0.25), np.full((7, 3), -0.0)),
        "one_sample": (np.array([0.0]), tiny, tiny),
        "negative_times": (np.linspace(-3.0, -1.0, 4), rng.random((4, 2)), rng.random((4, 2))),
        "n1000": (np.linspace(0.0, 3.0, 13), rng.random((13, 1000)),
                  rng.dirichlet(np.ones(1000), 13)),
        "x_fixed_from_row_0": (np.linspace(0.0, 3.0, 13), rep.random((13, 1000)),
                               np.tile(fixed, (13, 1))),
        "x_fixed_from_row_5": (np.linspace(0.0, 3.0, 13), rep.random((13, 1000)), late),
        "signed_zero_rows": (np.arange(4.0), signed[:, ::-1].copy(), signed),
        "repeated_nan_rows": (np.arange(6.0), blank, blank[:, ::-1].copy()),
        "only_lone_points": (np.arange(5.0), lone, lone[:, ::-1].copy()),
    }


@pytest.mark.parametrize("case", list(writer_cases()))
def test_writers_match_the_per_value_reference(case):
    times, p, x = writer_cases()[case]
    assert trajectory_csv(times, p, x) == reference_trajectory_csv(times, p, x)
    for series in (p, x):
        assert (line_plot_svg(times, series, title="a & b", ylabel="p_i(t)")
                == reference_line_plot_svg(times, series, title="a & b", ylabel="p_i(t)"))
        assert line_plot_svg(times, series) == reference_line_plot_svg(times, series)
