"""The columnar reader, pricing and encoder against the row-wise oracles in
conftest.py, on a panel with every kind of gap and fault the `gappy`
benchmark panel has, plus CSV layout edge cases and extreme amounts."""
import csv
import dataclasses
import hashlib
import io
import itertools

import numpy as np
import pytest

from e2credit import snapshots
from e2credit.cli import main
from e2credit.dataset import FeatureEncoder, drop_incomplete, rating_label
from e2credit.errors import InputFormatError
from e2credit.fundamentals import QUOTE_COLUMNS
from e2credit.snapshots import (
    SNAPSHOT_COLUMNS, build_records, read_snapshots, write_snapshot_csv)
from e2credit.structural import ModelParams
from e2credit.synth import generate_snapshots

from conftest import (
    _oracle_merged_code, oracle_build_records, oracle_encode, oracle_read_snapshots)

PARAMS = ModelParams()
REQUIRED = ("stock_price", "market_cap", "fx_rate", "long_term_debt",
            "minority_interest", "preferred_equity")
EXTRA = ("short_term_debt", "other_lt_liabilities", "other_st_liabilities",
         "lease_obligations")
AMOUNTS = ("long_term_debt",) + EXTRA + ("minority_interest", "preferred_equity")


def _alter(row, kind, rng):
    """One fault or gap of the kinds the gappy panel draws."""
    if kind == "blank_is_banking":
        row["is_banking"] = None
    elif kind == "blank_required":
        row[rng.choice(REQUIRED + (() if row["is_banking"] else EXTRA))] = None
    elif kind == "blank_all_quotes":
        row.update(dict.fromkeys(QUOTE_COLUMNS))
    elif kind == "negative_amount":
        col = rng.choice(AMOUNTS)
        row[col] = -(abs(row[col] or 0.0) + 1.0)
    elif kind == "negative_price":
        row["stock_price"] = -row["stock_price"]
    elif kind in ("negative_quote", "blank_some_quotes"):
        cols = list(rng.permutation(QUOTE_COLUMNS))
        if kind == "negative_quote":
            row[cols[0]] = -(row[cols[0]] or 0.3)
        else:
            row.update(dict.fromkeys(cols[: rng.integers(1, len(cols))]))
    elif kind == "blank_bank_extras":
        row.update(dict.fromkeys(EXTRA))
    elif kind == "blank_ratings":
        row["sp_rating"] = row["moody_rating"] = None
    elif kind == "blank_sp_rating":
        row["sp_rating"] = None
    elif kind == "blank_label":
        row["cds_5y_bps"] = None


KINDS = ("blank_is_banking", "blank_required", "blank_all_quotes", "negative_amount",
         "negative_price", "negative_quote", "blank_some_quotes", "blank_bank_extras",
         "blank_ratings", "blank_sp_rating", "blank_label")

NO_QUOTES = dict.fromkeys(QUOTE_COLUMNS)
HUGE = 1.7976931348623157e308
# Extreme rows: overflowing sums and medians, subnormal amounts, signed zeros.
EXTREMES = [
    {"long_term_debt": HUGE, "short_term_debt": HUGE, "is_banking": False},
    {"minority_interest": 1e308, "fx_rate": 1.5},
    {"stock_price": 1e-320},
    {"market_cap": 1e-320, "preferred_equity": 1e308},
    {"long_term_debt": 1e-320, "minority_interest": 0.0},
    {**NO_QUOTES, "hist_vol_30": 1e308, "hist_vol_60": 1.5e308},
    {**NO_QUOTES, "impl_vol_3m": 1e200},
    {**NO_QUOTES, "hist_vol_30": 0.0, "hist_vol_60": -0.0, "hist_vol_120": 0.0},
    {**NO_QUOTES, "hist_vol_30": -0.0, "hist_vol_60": 0.0},
    {"long_term_debt": -0.0, "is_banking": True},
    {"fx_rate": 1e-320, "long_term_debt": 1e308},
]
# One fault per check, in the order that gives a row its reason.
FAULTS = [
    {"is_banking": None},
    *({c: None} for c in REQUIRED),
    *({"is_banking": False, c: None} for c in EXTRA),
    NO_QUOTES,
    *({c: -1.0} for c in AMOUNTS),
    {"stock_price": 0.0},
    {"market_cap": -3.0},
    {"fx_rate": 0.0},
    {"is_banking": False, "long_term_debt": HUGE, "short_term_debt": HUGE},
    # With the next fault's two quotes, four: their median overflows.
    {"hist_vol_120": -0.2, "hist_vol_200": 1.6e308},
    {**NO_QUOTES, "hist_vol_30": 1e308, "hist_vol_60": 1.5e308},
    {"is_banking": True, "long_term_debt": 1e308, "fx_rate": 10.0},
    {**NO_QUOTES, "impl_vol_3m": 1e200},
]
# Each two checks next to each other, failed together: the earlier one names
# the reason.
FAULT_PAIRS = [{**later, **earlier} for earlier, later in zip(FAULTS, FAULTS[1:])]


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


def panel_text(seed=4):
    """The panel's CSV text: one or two faults or gaps on most rows, the
    extreme rows, mixed-case ratings, a repeated header column (read from its
    last occurrence), an extra column with quoted newlines, short and long
    rows, and runs of blank lines."""
    rng = np.random.default_rng(seed)
    rows, _ = generate_snapshots(n_firms=14, n_dates=12, seed=seed, missing_rate=0.05)
    for i, row in enumerate(rows):
        for kind in rng.choice(KINDS, size=1 + (i % 3 == 0), replace=False):
            if i % 4:
                _alter(row, kind, rng)
        if i % 5 == 1 and row["sp_rating"]:
            row["sp_rating"] = row["sp_rating"].lower()
        if i % 7 == 2 and row["moody_rating"]:
            row["moody_rating"] = row["moody_rating"].swapcase()
    for row, extreme in zip(rows[4::4], EXTREMES + FAULT_PAIRS):  # unaltered rows
        row.update(extreme)
    header = ["market_cap", *SNAPSHOT_COLUMNS, "note"]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for i, row in enumerate(rows):
        cells = ["not a number", *(_cell(row[c]) for c in SNAPSHOT_COLUMNS),
                 "two\nlines" if i % 9 == 4 else "note"]
        if i % 11 == 6:
            cells = cells[: -1 - i % 3]  # no note, then no labels either
        elif i % 11 == 8:
            cells += ["x", "y"]
        writer.writerow(cells)
        if i % 10 == 3:
            out.write("\n" * (1 + i % 2))
    return out.getvalue()


@pytest.fixture(scope="module")
def panel(tmp_path_factory):
    path = tmp_path_factory.mktemp("panel") / "panel.csv"
    path.write_text(panel_text(), encoding="utf-8")
    return path


def _repr_spread(row):
    return repr((row.debt_per_share, row.selected_vol, row.e2c_bps, row.creditgrades_bps,
                 row.reason))


def test_panel_covers_every_outcome(panel):
    _, spreads = oracle_build_records(oracle_read_snapshots(panel), PARAMS)
    reasons = {s[4].split(" must")[0].split(" got")[0] for s in spreads.values()}
    assert {"", "missing is_banking", "no volatility quotes", "fin_debt", "stock_price",
            "volatility quote", "equity_vol", "debt_per_share", "e2c_bps"} <= reasons
    assert any(r.startswith("missing ") and r != "missing is_banking" for r in reasons)
    assert "two\nlines" in panel.read_text(encoding="utf-8")


def test_snapshots_equal_oracle(panel):
    oracle = oracle_read_snapshots(panel)
    snaps = read_snapshots(panel)
    assert len(snaps) == len(oracle)
    assert [(s.firm_id, s.date) for s in snaps] == [(s.firm_id, s.date) for s in oracle]
    assert [repr(s.values) for s in snaps] == [repr(s.values) for s in oracle]


def test_spreads_and_records_equal_oracle(panel):
    records_o, spreads_o = oracle_build_records(oracle_read_snapshots(panel), PARAMS)
    records, spreads = build_records(read_snapshots(panel), PARAMS)
    assert list(spreads) == list(spreads_o)
    for key, expected in spreads_o.items():
        assert _repr_spread(spreads[key]) == repr(expected), key
    assert [repr(dataclasses.astuple(r)) for r in records] == [repr(r) for r in records_o]
    codes = [_oracle_merged_code(r[6], r[7]) for r in records_o]
    assert [r.merged_rating() for r in records] == [
        None if code is None else rating_label(code) for code in codes]


def test_matrix_equals_oracle(panel):
    records_o, _ = oracle_build_records(oracle_read_snapshots(panel), PARAMS)
    X, y, firms, dates, names = oracle_encode(records_o)
    records, _ = build_records(read_snapshots(panel), PARAMS)
    complete = drop_incomplete(records)
    matrix = FeatureEncoder.fit(complete).transform(complete)
    assert matrix.column_names() == tuple(names)
    assert matrix.X.tobytes() == X.tobytes()
    assert matrix.y.tobytes() == y.tobytes()
    assert list(matrix.firm_ids) == firms and list(matrix.dates) == dates


def test_spread_csv_bytes_pinned(panel, tmp_path):
    # Any change to a priced value, a reason or a cell's text shows here.
    assert main(["spread", str(panel), "--out-dir", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "spreads.csv").read_bytes()).hexdigest()
    assert digest == "b3c5969e5b4b162f736c59ff11cd6408c468cf0e5ed545d85d335bd9f45269c4"


# (data row, column, text): bad cells placed after the blank lines and the
# quoted newlines, alone and two at a time.
BAD_CELLS = [
    [(30, "stock_price", "oops")],
    [(30, "stock_price", " 1e309 ")],
    [(30, "hist_vol_60", "nan")],
    [(31, "date", "2016-13-01")],
    [(32, "date", "20160205")],
    [(33, "date", "2016-W05-5")],
    [(31, "firm_id", "  ")],
    [(44, "firm_id", "F0000"), (44, "date", "2016-02-05")],
    [(52, "is_banking", "Maybe")],
    [(52, "sp_rating", "ZZZ")],
    [(52, "moody_rating", " aa++ ")],
    [(60, "cds_5y_bps", "-1")],
    [(60, "ig_cdx_bps", "1e7")],
    [(60, "ig_cdx_bps", "\x1c5")],
    [(70, "lease_obligations", "x"), (70, "market_cap", "y")],
    [(90, "country", "ZZ"), (80, "hist_vol_30", "inf")],
    [(100, "cds_5y_bps", "2e6"), (99, "fx_rate", "-")],
]


@pytest.mark.parametrize("cells", BAD_CELLS, ids=lambda c: "+".join(f"{r}.{k}" for r, k, _ in c))
def test_bad_cells_read_as_the_oracle_reads_them(tmp_path, cells):
    lines = list(csv.reader(io.StringIO(panel_text())))
    header = lines[0]
    data = [i for i, row in enumerate(lines) if row and i > 0]
    for row, col, text in cells:
        cells_of = lines[data[row]]
        position = len(header) - 1 - header[::-1].index(col)
        cells_of += [""] * (position + 1 - len(cells_of))
        cells_of[position] = text
    path = tmp_path / "bad.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for row in lines:
            writer.writerow(row)
    assert _outcome(read_snapshots, path) == _outcome(oracle_read_snapshots, path)


def _outcome(read, path) -> str:
    """The error message of a read, or the repr of what it read."""
    try:
        return repr([(s.firm_id, s.date, s.values) for s in read(path)])
    except InputFormatError as exc:
        return str(exc)


# The reader splits chunks of plain lines at commas and hands the rest of the
# file to csv.reader at the first chunk that is not plain. Each case below
# puts what forces the hand-off in the second chunk, after the first
# _CHUNK_ROWS lines, and compares the read with the oracle's: every value in
# bits, or the error text with its line number.
HANDOFF_ROW = 700
SECOND_CHUNK = 1 + snapshots._CHUNK_ROWS  # index of its first line; the header is 0


@pytest.fixture(scope="module")
def plain_lines(tmp_path_factory):
    """The lines of a quote-free synth CSV of 1,200 rows, in three chunks."""
    path = tmp_path_factory.mktemp("plain") / "snapshots.csv"
    rows, _ = generate_snapshots(n_firms=30, n_dates=40, seed=5, missing_rate=0.05)
    write_snapshot_csv(rows, path)
    with open(path, newline="", encoding="utf-8") as fh:
        return list(fh)


def _edit(lines, row, edit):
    """The lines with a data row's line passed through edit."""
    lines = list(lines)
    lines[row + 1] = edit(lines[row + 1])
    return lines


def _set(lines, row, col, text):
    """The lines with one cell of a data row replaced; the row must be plain."""
    header = lines[0].rstrip("\n").split(",")

    def edit(line):
        cells = line.rstrip("\n").split(",")
        cells[header.index(col)] = text
        return ",".join(cells) + "\n"

    return _edit(lines, row, edit)


TRIGGERS = {
    # A quoted cell with a comma, a doubled quote and a line break in it.
    "quoted": lambda lines, row: _set(lines, row, "sector", '"Energy, ""Oil""\nand Gas"'),
    "lone_cr": lambda lines, row: _edit(lines, row, lambda line: line[:-1] + "\r"),
    # No ig_cdx_bps and cds_5y_bps cells, then two cells too many.
    "short": lambda lines, row: _edit(lines, row, lambda line: line.rsplit(",", 2)[0] + "\n"),
    "long": lambda lines, row: _edit(lines, row, lambda line: line[:-1] + ",x,y\n"),
    "blank": lambda lines, row: lines[: row + 1] + ["\n", "\r\n"] + lines[row + 1:],
    "nul": lambda lines, row: _set(lines, row, "sector", "Ener\0gy"),
    # Longer than the field size limit, though each cell is shorter.
    "long_line": lambda lines, row: _set(lines, row, "country",
                                         "x" * (csv.field_size_limit() - 10)),
    "over_limit": lambda lines, row: _set(lines, row, "sector",
                                          "x" * (csv.field_size_limit() + 1)),
}


def _write(path, lines):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.writelines(lines)
    return path


def _spy_reader(monkeypatch):
    """Patch csv.reader to record the first line each call is given."""
    firsts, real = [], csv.reader

    def reader(lines, *args, **kwargs):
        lines = iter(lines)
        first = next(lines)
        firsts.append(first)
        return real(itertools.chain([first], lines), *args, **kwargs)

    monkeypatch.setattr(csv, "reader", reader)
    return firsts


@pytest.mark.parametrize("bad_row", [None, 100, HANDOFF_ROW - 50, HANDOFF_ROW + 50],
                         ids=["clean", "bad-in-plain-chunk", "bad-before-trigger",
                              "bad-after-trigger"])
@pytest.mark.parametrize("trigger", TRIGGERS)
def test_handoff_reads_as_the_oracle(plain_lines, tmp_path, monkeypatch, trigger, bad_row):
    lines = plain_lines
    if bad_row is not None:
        lines = _set(lines, bad_row, "stock_price", "oops")
    path = _write(tmp_path / "handoff.csv", TRIGGERS[trigger](lines, HANDOFF_ROW))
    if trigger == "over_limit" and bad_row in (None, HANDOFF_ROW + 50):
        # The oracle lets the csv module's error escape; the reader names
        # the line of the over-long cell.
        with pytest.raises(csv.Error, match="field larger than field limit"):
            oracle_read_snapshots(path)
        expected = (f"{path}:{HANDOFF_ROW + 2}: field larger than field limit "
                    f"({csv.field_size_limit()})")
    else:
        expected = _outcome(oracle_read_snapshots, path)
    if bad_row is not None and trigger != "over_limit":
        assert "stock_price: not a number: 'oops'" in expected
    firsts = _spy_reader(monkeypatch)
    assert _outcome(read_snapshots, path) == expected
    if bad_row == 100:
        assert firsts == []  # raised in the first chunk, before any hand-off
    else:
        assert firsts == [plain_lines[SECOND_CHUNK]]


@pytest.mark.parametrize("first, again", [(100, 300), (100, 800), (750, 800)],
                         ids=["both-plain", "across", "both-after"])
def test_duplicate_key_across_the_handoff(plain_lines, tmp_path, first, again):
    header = plain_lines[0].rstrip("\n").split(",")
    key = plain_lines[first + 1].split(",")
    lines = plain_lines
    for col in ("firm_id", "date"):
        lines = _set(lines, again, col, key[header.index(col)])
    path = _write(tmp_path / "dup.csv", TRIGGERS["quoted"](lines, HANDOFF_ROW))
    expected = _outcome(oracle_read_snapshots, path)
    assert "duplicate (firm_id, date) pair" in expected
    assert _outcome(read_snapshots, path) == expected


def _bad_byte(lines, row):
    """The lines as bytes, with one that is not UTF-8 starting a data row."""
    return ("".join(lines[: row + 1]).encode("utf-8") + b"\xff"
            + "".join(lines[row + 1:]).encode("utf-8"))


@pytest.mark.parametrize("quoted", [None, 1080], ids=["plain", "quoted-before-bad-cell"])
@pytest.mark.parametrize("bad_row", [100, 1090])
def test_bad_cell_before_a_non_utf8_byte(plain_lines, tmp_path, bad_row, quoted):
    # The byte sits 100 rows (about 30 kB) after the bad cell, so the lines
    # up to that cell decode first; the last chunk is a partial one.
    base = plain_lines if quoted is None else TRIGGERS["quoted"](plain_lines, quoted)
    path = tmp_path / "bad_byte.csv"
    path.write_bytes(_bad_byte(_set(base, bad_row, "stock_price", "oops"), 1190))
    expected = _outcome(oracle_read_snapshots, path)
    assert "stock_price: not a number: 'oops'" in expected
    assert _outcome(read_snapshots, path) == expected
    path.write_bytes(_bad_byte(base, 1190))
    with pytest.raises(InputFormatError, match="not UTF-8 text"):
        read_snapshots(path)


@pytest.mark.parametrize("every", [1, 2], ids=["crlf", "mixed"])
@pytest.mark.parametrize("change", [None, "bad", "quoted"])
def test_crlf_reads_as_the_oracle(plain_lines, tmp_path, monkeypatch, every, change):
    lines = plain_lines
    if change == "bad":
        lines = _set(lines, 800, "stock_price", "oops")
    elif change == "quoted":
        lines = TRIGGERS["quoted"](lines, HANDOFF_ROW)
    lines = [line[:-1] + "\r\n" if i % every == 0 else line for i, line in enumerate(lines)]
    path = _write(tmp_path / "crlf.csv", lines)
    expected = _outcome(oracle_read_snapshots, path)
    firsts = _spy_reader(monkeypatch)
    assert _outcome(read_snapshots, path) == expected
    assert len(firsts) == (change == "quoted")


@pytest.mark.parametrize("bad", [False, True])
def test_last_line_without_line_end(plain_lines, tmp_path, monkeypatch, bad):
    lines = _set(plain_lines, 1199, "stock_price", "oops") if bad else plain_lines
    path = _write(tmp_path / "no_end.csv", lines[:-1] + [lines[-1].removesuffix("\n")])
    expected = _outcome(oracle_read_snapshots, path)
    firsts = _spy_reader(monkeypatch)
    assert _outcome(read_snapshots, path) == expected
    assert firsts == [plain_lines[2 * snapshots._CHUNK_ROWS + 1]]


def test_quoted_header_hands_over_at_once(plain_lines, tmp_path, monkeypatch):
    lines = _set(plain_lines, 800, "stock_price", "oops")
    lines[0] = lines[0].replace("firm_id", '"firm_id"')
    path = _write(tmp_path / "quoted_header.csv", lines)
    expected = _outcome(oracle_read_snapshots, path)
    firsts = _spy_reader(monkeypatch)
    assert _outcome(read_snapshots, path) == expected
    assert firsts == [lines[0]]


def test_quote_free_file_never_reaches_csv_reader(plain_lines, tmp_path, monkeypatch):
    # Without the split path the gain would vanish silently: a synth file
    # has no quote, so csv.reader must never see it, in LF or CRLF.
    def refuse(*args, **kwargs):
        raise AssertionError("csv.reader called on a quote-free file")

    lf = _write(tmp_path / "lf.csv", plain_lines)
    crlf = _write(tmp_path / "crlf.csv", [line[:-1] + "\r\n" for line in plain_lines])
    monkeypatch.setattr(snapshots.csv, "reader", refuse)
    assert len(read_snapshots(lf)) == len(read_snapshots(crlf)) == len(plain_lines) - 1


@pytest.mark.parametrize("quoted_header", [False, True])
def test_byte_order_mark_skipped(plain_lines, tmp_path, quoted_header):
    # Excel's "CSV UTF-8" export starts the file with one. With the header's
    # first name quoted, the whole file goes through csv.reader.
    lines = list(plain_lines)
    if quoted_header:
        lines[0] = lines[0].replace("firm_id", '"firm_id"')
    raw = "".join(lines).encode("utf-8")
    for name, data in (("without", raw), ("with", b"\xef\xbb\xbf" + raw)):
        (tmp_path / f"{name}.csv").write_bytes(data)
        assert main(["spread", str(tmp_path / f"{name}.csv"),
                     "--out-dir", str(tmp_path / name)]) == 0
    assert ((tmp_path / "with" / "spreads.csv").read_bytes()
            == (tmp_path / "without" / "spreads.csv").read_bytes())
