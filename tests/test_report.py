"""Performance records, composition rules, and report trees."""

import pytest

from repro.report import Performance, ReportNode, format_table


def perf(area=1.0, energy=2.0, leak=0.5, latency=3.0):
    return Performance(
        area=area, dynamic_energy=energy, leakage_power=leak, latency=latency
    )


class TestPerformance:
    @pytest.mark.parametrize(
        "field", ["area", "dynamic_energy", "leakage_power", "latency"]
    )
    def test_negative_values_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must be non-negative"):
            Performance(**{field: -1e-9})

    def test_serial_adds_everything(self):
        combined = perf().serial(perf(area=2, energy=3, leak=1, latency=4))
        assert combined.area == 3
        assert combined.dynamic_energy == 5
        assert combined.leakage_power == 1.5
        assert combined.latency == 7

    def test_parallel_takes_max_latency(self):
        combined = perf(latency=3).parallel(perf(latency=10))
        assert combined.latency == 10
        assert combined.area == 2.0

    def test_replicate_scales_resources_not_latency(self):
        r = perf().replicate(4)
        assert r.area == 4
        assert r.dynamic_energy == 8
        assert r.leakage_power == 2.0
        assert r.latency == 3

    def test_replicate_zero_is_empty(self):
        r = perf().replicate(0)
        assert (r.area, r.dynamic_energy, r.latency) == (0, 0, 0)

    def test_replicate_negative_raises(self):
        with pytest.raises(ValueError):
            perf().replicate(-1)

    def test_repeat_scales_time_not_area(self):
        r = perf().repeat(5)
        assert r.area == 1
        assert r.leakage_power == 0.5
        assert r.dynamic_energy == 10
        assert r.latency == 15

    def test_total_energy_includes_leakage(self):
        p = perf()
        assert p.total_energy() == pytest.approx(2.0 + 0.5 * 3.0)
        assert p.total_energy(duration=10) == pytest.approx(2.0 + 5.0)

    def test_average_power(self):
        p = perf()
        assert p.average_power == pytest.approx(p.total_energy() / p.latency)

    def test_average_power_zero_latency_is_leakage(self):
        p = Performance(leakage_power=0.7)
        assert p.average_power == 0.7

    def test_str_is_readable(self):
        text = str(perf())
        assert "area=" in text and "latency=" in text


class TestReportNode:
    def test_tree_building_and_find(self):
        root = ReportNode("root", perf())
        child = root.add(ReportNode("bank[0]", perf()))
        child.add(ReportNode("unit[0]", perf()))
        assert root.find("unit[0]") is not None
        assert root.find("nope") is None

    def test_render_indents_and_limits_depth(self):
        root = ReportNode("root", perf(), notes="2 banks")
        root.add(ReportNode("child", perf())).add(
            ReportNode("grandchild", perf())
        )
        full = root.render()
        assert "grandchild" in full
        assert "[2 banks]" in full
        shallow = root.render(max_depth=1)
        assert "child" in shallow
        assert "grandchild" not in shallow


class TestFormatTable:
    def test_aligned_output(self):
        text = format_table(["a", "metric"], [["1", "x"], ["22", "yy"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_row_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]])
