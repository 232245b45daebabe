"""CSV/JSON emission: round trips, precision agreement, sweep layout."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hgspdc import reference
from hgspdc.channel import OpticalConfig, TurbulenceSpec
from hgspdc.engine import DEFAULT_ORDERING, build_matrix, probability_matrix
from hgspdc.serialization import (
    CSV_SIGNIFICANT_DIGITS,
    format_matrix_table,
    matrix_params,
    matrix_to_csv,
    matrix_to_json,
    parse_matrix_csv,
    parse_matrix_json,
    sweep_to_csv,
    sweep_to_json,
)


@pytest.fixture(scope="module")
def matrix(ref_cfg, turb_consts):
    turb = TurbulenceSpec.from_rytov(reference.REFERENCE_RYTOV).resolve(ref_cfg)
    return probability_matrix(DEFAULT_ORDERING, turb_consts, turbulence=turb)


class TestMatrixJson:
    def test_round_trip_bit_exact(self, matrix):
        doc = parse_matrix_json(matrix_to_json(matrix))
        for i in range(matrix.size):
            for j in range(matrix.size):
                assert doc["matrix"][i][j] == matrix.values[i][j]

    def test_structure(self, matrix):
        doc = json.loads(matrix_to_json(matrix))
        assert set(doc) == {"params", "ordering", "matrix", "normalization"}
        assert doc["ordering"][0] == "00"
        assert doc["normalization"]["mode"] == "calibrated"
        assert doc["normalization"]["reference_pair"] == "(00,00)"
        assert doc["normalization"]["reference_value"] == 0.31307
        assert doc["params"]["w_variant"] == "propagated"

    def test_params_fields(self, matrix):
        params = matrix_params(matrix)
        for key in ("wavelength_m", "distance_m", "pump_waist_m", "rytov",
                    "gamma", "w_variant", "normalization"):
            assert key in params

    @given(st.floats(min_value=1e-7, max_value=1e-5),
           st.floats(min_value=100.0, max_value=1e5),
           st.floats(min_value=1e-3, max_value=1.0))
    def test_geometry_round_trips(self, wavelength, distance, pump_waist):
        # the geometry a matrix reports is the one it was built from,
        # not a value rebuilt from W0
        cfg = OpticalConfig(wavelength, distance, pump_waist)
        m = build_matrix(cfg, TurbulenceSpec.vacuum(), DEFAULT_ORDERING[:1])
        assert m.consts.cfg == cfg
        params = matrix_params(m)
        assert (params["wavelength_m"], params["distance_m"],
                params["pump_waist_m"]) == (wavelength, distance, pump_waist)


class TestMatrixCsv:
    def test_headers_and_labels(self, matrix):
        text = matrix_to_csv(matrix)
        headers = [ln for ln in text.splitlines() if ln.startswith("#")]
        keys = {ln[1:].split("=")[0].strip() for ln in headers}
        assert {"wavelength_m", "distance_m", "pump_waist_m", "rytov", "gamma",
                "w_variant", "normalization"} <= keys
        doc = parse_matrix_csv(text)
        assert doc["ordering"] == list("00 01 10 02 11 20 03 12 21 30".split())

    def test_agrees_with_json_to_declared_precision(self, matrix):
        csv_doc = parse_matrix_csv(matrix_to_csv(matrix))
        json_doc = parse_matrix_json(matrix_to_json(matrix))
        for i in range(matrix.size):
            for j in range(matrix.size):
                a = csv_doc["matrix"][i][j]
                b = json_doc["matrix"][i][j]
                if b == 0.0:
                    assert a == 0.0
                else:
                    assert abs(a - b) <= 10.0 ** (1 - CSV_SIGNIFICANT_DIGITS) * abs(b)

    def test_cell_layout(self, matrix):
        rows = [ln for ln in matrix_to_csv(matrix).splitlines()
                if not ln.startswith("#")]
        assert rows[0].split(",")[0] == "signal\\idler"
        assert len(rows) == 11
        assert all(len(r.split(",")) == 11 for r in rows)


class TestTable:
    def test_five_decimals_default(self, matrix):
        table = format_matrix_table(matrix)
        assert f"{matrix.values[0][0]:.5f}" in table


class TestSweep:
    @given(st.lists(st.floats(min_value=0, max_value=0.2), min_size=1, max_size=6,
                    unique=True).map(sorted))
    def test_csv_layout(self, grid):
        series = {"P(00,00)": [1.0 + g for g in grid],
                  "P(00,01)": [2.0 * g for g in grid]}
        text = sweep_to_csv(grid, series)
        lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
        assert lines[0] == 'rytov,"P(00,00)","P(00,01)"'
        assert len(lines) == 1 + len(grid)
        first = lines[1].split(",")
        assert float(first[0]) == pytest.approx(grid[0], rel=1e-11)

    def test_json_matches_csv_values(self):
        grid = [0.0, 0.01]
        series = {"P(00,00)": [0.31307, 0.26821]}
        doc = json.loads(sweep_to_json(grid, series))
        text = sweep_to_csv(grid, series)
        rows = [ln.split(",") for ln in text.splitlines()[1:]]
        for i, row in enumerate(rows):
            assert float(row[1]) == pytest.approx(doc["series"]["P(00,00)"][i],
                                                  rel=1e-11)
