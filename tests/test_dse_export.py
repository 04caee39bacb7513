"""DSE result serialisation."""

import json

import pytest

from repro.config import SimConfig
from repro.dse.explorer import explore
from repro.dse.export import points_to_rows, to_csv, to_json
from repro.dse.space import DesignSpace
from repro.errors import ExplorationError
from repro.nn.networks import mlp


@pytest.fixture(scope="module")
def points():
    base = SimConfig(cmos_tech=45, weight_bits=4)
    space = DesignSpace(
        crossbar_sizes=(64, 128),
        parallelism_degrees=(1, 64),
        interconnect_nodes=(45,),
    )
    return explore(base, mlp([256, 128]), space)


class TestRows:
    def test_row_per_point_with_all_fields(self, points):
        rows = points_to_rows(points)
        assert len(rows) == len(points)
        assert {"crossbar_size", "area", "worst_error_rate"} <= set(rows[0])


class TestCsv:
    def test_csv_round_trips_via_text(self, points, tmp_path):
        path = to_csv(points, tmp_path / "dse.csv")
        lines = path.read_text().splitlines()
        assert len(lines) == len(points) + 1  # header
        assert "crossbar_size" in lines[0]

    def test_empty_export_rejected(self, tmp_path):
        with pytest.raises(ExplorationError):
            to_csv([], tmp_path / "empty.csv")


class TestJson:
    def test_json_holds_the_rows(self, points, tmp_path):
        path = to_json(points, tmp_path / "dse.json")
        assert json.loads(path.read_text()) == points_to_rows(points)
