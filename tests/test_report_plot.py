"""ASCII plotting helpers."""

import pytest

from repro.report_plot import PlotError, line_plot, scatter_plot


class TestLinePlot:
    def test_markers_and_legend(self):
        text = line_plot(
            {"a": [(1, 1), (2, 2)], "b": [(1, 2), (2, 1)]},
            width=20, height=8,
        )
        assert "o" in text and "x" in text
        assert "legend: o=a  x=b" in text

    def test_axis_labels_present(self):
        text = line_plot(
            {"s": [(0, 0), (10, 5)]}, width=20, height=8,
            x_label="size", y_label="eps",
        )
        assert "eps vs size" in text
        assert "0" in text and "10" in text

    def test_log_x_axis(self):
        text = line_plot(
            {"s": [(8, 1), (1024, 2)]}, width=20, height=8, logx=True
        )
        assert "[log x]" in text
        assert "1024" in text

    def test_log_rejects_nonpositive(self):
        with pytest.raises(PlotError):
            line_plot({"s": [(0, 1)]}, logx=True)

    def test_extremes_land_on_borders(self):
        text = line_plot({"s": [(0, 0), (1, 1)]}, width=20, height=8)
        rows = [line for line in text.splitlines() if "|" in line]
        assert rows[0].rstrip().endswith("o|")  # max y, max x: top right
        assert rows[-1].lstrip().startswith("0 |o")  # min at bottom left

    def test_empty_inputs_rejected(self):
        with pytest.raises(PlotError):
            line_plot({})
        with pytest.raises(PlotError):
            line_plot({"s": []})

    def test_tiny_canvas_rejected(self):
        with pytest.raises(PlotError):
            line_plot({"s": [(0, 0)]}, width=5, height=2)

    def test_constant_series_does_not_crash(self):
        text = line_plot({"s": [(1, 3), (2, 3), (3, 3)]}, width=20,
                         height=8)
        assert "o" in text


class TestScatter:
    def test_wrapper_uses_one_series(self):
        text = scatter_plot([(1, 2), (3, 4)], name="pts", width=20,
                            height=8)
        assert "legend: o=pts" in text

