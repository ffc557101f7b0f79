import math

import numpy as np
import pytest

from e2credit.errors import InputFormatError
from e2credit.snapshots import (
    _CHUNK_ROWS,
    SNAPSHOT_COLUMNS,
    build_records,
    read_snapshots,
    write_csv,
    write_snapshot_csv,
    write_spread_csv,
)
from e2credit.structural import ModelParams

from conftest import base_row

PARAMS = ModelParams()
KEY = ("ACME", "2016-02-05")


def write_rows(path, rows):
    write_snapshot_csv(rows, path)
    return path


class TestReadSnapshots:
    def test_round_trip(self, tmp_path):
        path = write_rows(tmp_path / "snap.csv", [base_row()])
        snaps = read_snapshots(path)
        assert len(snaps) == 1
        assert snaps[0].firm_id == "ACME"
        assert snaps[0].get("stock_price") == 10.0
        assert snaps[0].get("impl_vol_3m") is None
        assert snaps[0].get("is_banking") is False

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        cols = [c for c in SNAPSHOT_COLUMNS if c != "ig_cdx_bps"]
        path.write_text(",".join(cols) + "\n", encoding="utf-8")
        with pytest.raises(InputFormatError, match="ig_cdx_bps"):
            read_snapshots(path)

    def test_bad_number_reports_line(self, tmp_path):
        path = write_rows(
            tmp_path / "bad.csv", [base_row(), base_row(firm_id="B", stock_price="oops")]
        )
        with pytest.raises(InputFormatError, match=r"bad.csv:3.*stock_price"):
            read_snapshots(path)

    @pytest.mark.parametrize("column", ["ig_cdx_bps", "cds_5y_bps"])
    def test_negative_observed_spread_reports_line(self, tmp_path, column):
        path = write_rows(
            tmp_path / "bad.csv", [base_row(), base_row(firm_id="B", **{column: -1.0})]
        )
        with pytest.raises(InputFormatError, match=rf"bad.csv:3: column {column}: must be >= 0"):
            read_snapshots(path)

    @pytest.mark.parametrize("column", ["ig_cdx_bps", "cds_5y_bps"])
    def test_observed_spread_above_model_ceiling_reports_line(self, tmp_path, column):
        # The tree kernel squares the labels: 1e154 bps would overflow.
        ok = write_rows(tmp_path / "ok.csv", [base_row(**{column: 1e6})])
        assert read_snapshots(ok)[0].get(column) == 1e6
        path = write_rows(
            tmp_path / "bad.csv", [base_row(), base_row(firm_id="B", **{column: 1e154})]
        )
        with pytest.raises(
            InputFormatError, match=rf"bad.csv:3: column {column}: must be <= 1e\+06, got '1e\+154'"
        ):
            read_snapshots(path)

    @pytest.mark.parametrize("column", ["sp_rating", "moody_rating"])
    def test_unknown_rating_label_reports_line(self, tmp_path, column):
        path = write_rows(
            tmp_path / "bad.csv", [base_row(), base_row(firm_id="B", **{column: "ZZZ"})]
        )
        with pytest.raises(
            InputFormatError, match=rf"bad.csv:3: column {column}: unknown rating label 'ZZZ'"
        ):
            read_snapshots(path)

    def test_rating_labels_any_case_accepted(self, tmp_path):
        path = write_rows(tmp_path / "ok.csv", [base_row(sp_rating="bbb-", moody_rating="caa1")])
        assert read_snapshots(path)[0].get("sp_rating") == "bbb-"

    def test_bad_date(self, tmp_path):
        # Python 3.11's date.fromisoformat takes the last two; 3.10's does not.
        for text in ("05/02/2016", "20160205", "2016-W05-5"):
            path = write_rows(tmp_path / "bad.csv", [base_row(date=text)])
            with pytest.raises(InputFormatError, match=rf"bad.csv:2: bad ISO date '{text}'"):
                read_snapshots(path)

    def test_duplicate_key(self, tmp_path):
        path = write_rows(tmp_path / "dup.csv", [base_row(), base_row()])
        with pytest.raises(InputFormatError, match="duplicate"):
            read_snapshots(path)

    def test_extra_columns_ignored(self, tmp_path):
        # An augmented spreads.csv can be fed back in: unknown columns pass.
        path = write_rows(tmp_path / "base.csv", [base_row()])
        lines = path.read_text(encoding="utf-8").splitlines()
        extra = tmp_path / "extra.csv"
        extra.write_text(
            lines[0] + ",custom\n" + lines[1] + ",hello\n", encoding="utf-8"
        )
        snaps = read_snapshots(extra)
        assert snaps[0].firm_id == "ACME"
        assert snaps[0].get("stock_price") == 10.0


class TestComputeSpreadRow:
    def test_composed_example(self, tmp_path):
        # Debt-per-share example feeds the spread: D = (1000-100)/50 = 18.
        path = write_rows(tmp_path / "snap.csv", [base_row()])
        spread = build_records(read_snapshots(path), PARAMS)[1][KEY]
        assert spread.ok
        assert spread.debt_per_share == 18.0
        assert spread.selected_vol == 0.3
        mad = 0.5 * 18 / (10 + 0.5 * 18)
        expected = 0.7 * (4.0 / 9.0) * mad * 0.09 * 1e4
        assert spread.e2c_bps == pytest.approx(expected, rel=1e-12)
        assert spread.creditgrades_bps > 0.0

    def test_zero_debt_zero_spread(self, tmp_path):
        row = base_row(long_term_debt=0.0, minority_interest=0.0)
        snaps = read_snapshots(write_rows(tmp_path / "s.csv", [row]))
        spread = build_records(snaps, PARAMS)[1][KEY]
        assert spread.ok
        assert spread.debt_per_share == 0.0
        assert spread.e2c_bps == 0.0
        assert spread.creditgrades_bps == 0.0

    def test_missing_field_reason(self, tmp_path):
        row = base_row(stock_price=None)
        snaps = read_snapshots(write_rows(tmp_path / "s.csv", [row]))
        spread = build_records(snaps, PARAMS)[1][KEY]
        assert not spread.ok
        assert "stock_price" in spread.reason

    def test_no_vol_quotes_reason(self, tmp_path):
        row = base_row(hist_vol_30=None, hist_vol_60=None, hist_vol_120=None)
        snaps = read_snapshots(write_rows(tmp_path / "s.csv", [row]))
        spread = build_records(snaps, PARAMS)[1][KEY]
        assert spread.reason == "no volatility quotes"

    # One row per failure kind, and rows with two faults: the reason is the
    # first bad value in column order (amounts, then price, cap and fx, then
    # the vol quotes).
    @pytest.mark.parametrize(
        "overrides, reason",
        [
            ({"is_banking": None}, "missing is_banking"),
            ({"market_cap": None}, "missing market_cap"),
            ({"lease_obligations": None}, "missing lease_obligations"),
            (
                {"hist_vol_30": None, "hist_vol_60": None, "hist_vol_120": None},
                "no volatility quotes",
            ),
            (
                {"other_st_liabilities": -5.0},
                "other_st_liabilities must be a finite amount >= 0, got -5.0",
            ),
            (
                {"minority_interest": -1.0},
                "minority_interest must be a finite amount >= 0, got -1.0",
            ),
            ({"stock_price": 0.0}, "stock_price must be finite and > 0, got 0.0"),
            ({"market_cap": -3.0}, "market_cap must be finite and > 0, got -3.0"),
            ({"fx_rate": 0.0}, "fx_report_to_quote must be finite and > 0, got 0.0"),
            (
                {"hist_vol_60": -0.2},
                "volatility quote must be a finite amount >= 0, got -0.2",
            ),
            (
                {"preferred_equity": -2.0, "stock_price": -1.0},
                "preferred_equity must be a finite amount >= 0, got -2.0",
            ),
            (
                {"hist_vol_30": -0.1, "fx_rate": -1.0},
                "fx_report_to_quote must be finite and > 0, got -1.0",
            ),
        ],
    )
    def test_reason_text(self, tmp_path, overrides, reason):
        snaps = read_snapshots(write_rows(tmp_path / "s.csv", [base_row(**overrides)]))
        spread = build_records(snaps, PARAMS)[1][KEY]
        assert spread.reason == reason
        assert spread.e2c_bps is None and spread.creditgrades_bps is None

    def test_overflowing_e2c_reason(self, tmp_path):
        row = base_row(hist_vol_30=1e200, hist_vol_60=1e200)
        snaps = read_snapshots(write_rows(tmp_path / "s.csv", [row]))
        records, spreads = build_records(snaps, PARAMS)
        assert spreads[("ACME", "2016-02-05")].reason == "e2c_bps must be finite, got inf"
        assert records[0].e2c_bps is None

    def test_banking_needs_only_ltd(self, tmp_path):
        row = base_row(
            is_banking=True,
            short_term_debt=None,
            other_lt_liabilities=None,
            other_st_liabilities=None,
            lease_obligations=None,
        )
        snaps = read_snapshots(write_rows(tmp_path / "s.csv", [row]))
        assert build_records(snaps, PARAMS)[1][KEY].ok


class TestBuildRecords:
    def test_records_carry_spreads_and_fields(self, tmp_path):
        rows = [base_row(), base_row(firm_id="B", stock_price=None)]
        snaps = read_snapshots(write_rows(tmp_path / "s.csv", rows))
        records, spreads = build_records(snaps, PARAMS)
        assert len(records) == 2
        assert records[0].e2c_bps is not None
        assert records.complete[0]
        assert records[1].e2c_bps is None
        assert not records.complete[1]
        assert spreads[("B", "2016-02-05")].reason != ""

    def test_spread_csv_written(self, tmp_path):
        rows = [base_row(), base_row(firm_id="B", stock_price=None)]
        snaps = read_snapshots(write_rows(tmp_path / "s.csv", rows))
        _, spreads = build_records(snaps, PARAMS)
        out = tmp_path / "aug.csv"
        write_spread_csv(spreads, out)
        lines = out.read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",")
        assert header[-5:] == [
            "e2c_bps", "creditgrades_bps", "debt_per_share", "selected_vol", "reason",
        ]
        good = dict(zip(header, lines[1].split(",")))
        assert float(good["e2c_bps"]) > 0
        assert good["reason"] == ""
        bad = dict(zip(header, lines[2].split(",")))
        assert bad["e2c_bps"] == ""
        assert "stock_price" in bad["reason"]


class TestWriteCsv:
    """The one cell rule of every CSV the package writes."""

    def test_cells_byte_for_byte(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, {
            "stock_price": np.array([math.nan, -0.0, 1e16, 5e-324, 0.1, 1.0]),
            "is_banking": np.array([1.0, 0.0, math.nan, 1.0, 0.0, 1.0]),
            "sector": ("a", "", "b c", "d,e", 'q"', "f"),
            "market_cap": [None, True, False, np.float64(0.1), 7, "oops"],
        })
        assert path.read_bytes() == (
            b"stock_price,is_banking,sector,market_cap\n"
            b",1,a,\n"
            b"-0.0,0,,1\n"
            b"1e+16,,b c,0\n"
            b'5e-324,1,"d,e",0.1\n'
            b'0.1,0,"q""",7\n'
            b"1.0,1,f,oops\n"
        )

    def test_snapshot_rows_missing_keys_and_text(self, tmp_path):
        path = tmp_path / "s.csv"
        write_snapshot_csv([{"firm_id": "F", "date": "2016-02-05", "stock_price": "oops",
                             "is_banking": True, "market_cap": np.float64(1e16),
                             "fx_rate": 2}], path)
        cells = {"firm_id": "F", "date": "2016-02-05", "stock_price": "oops",
                 "is_banking": "1", "market_cap": "1e+16", "fx_rate": "2"}
        assert path.read_text().splitlines() == [
            ",".join(SNAPSHOT_COLUMNS), ",".join(cells.get(c, "") for c in SNAPSHOT_COLUMNS)]

    def test_rows_past_one_chunk_complete_and_in_order(self, tmp_path):
        n = 2 * _CHUNK_ROWS + 3
        path = tmp_path / "long.csv"
        write_csv(path, {"i": range(n), "v": np.arange(n) / 4.0})
        assert path.read_text().splitlines() == ["i,v"] + [f"{i},{i / 4.0!r}" for i in range(n)]
