import numpy as np
import pytest

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
