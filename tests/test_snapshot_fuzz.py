"""Property test: one overwritten cell of a snapshot CSV never crashes a
command. `spread` and `train` must end with a documented exit code (0, 2
or 3) and no traceback, and an input error must name the file and line.
Both must end as the row-wise oracle in conftest.py says: with its first
error message, or with its spread reasons."""
import contextlib
import csv
import io
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from e2credit.cli import main
from e2credit.errors import InputFormatError
from e2credit.snapshots import SNAPSHOT_COLUMNS
from e2credit.structural import ModelParams

from conftest import oracle_build_records, oracle_read_snapshots

N_FIRMS, N_DATES = 8, 6

_SIGNS = st.sampled_from(["", "-", "+"])
CELL_TEXT = st.one_of(
    st.sampled_from(["", " ", "-", "+", "-0", "+0.0", ".", "e5", "1e", "0x10"]),
    st.builds(lambda sign, x: sign + repr(x), _SIGNS, st.floats(1e-320, 1e308)),
    st.sampled_from(["nan", "-nan", "NaN", "inf", "-inf", "Infinity", "1e309"]),
    st.sampled_from(["AAA", "bbb-", "Baa2", "Caa", "D", "ZZZ", "AA++", "Aaa1"]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
)


@pytest.fixture(scope="module")
def panel(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz")
    code = main(["synth", "--firms", str(N_FIRMS), "--dates", str(N_DATES),
                 "--seed", "1", "--out-dir", str(out)])
    assert code == 0
    with open(out / "snapshots.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return out, rows


def run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=150, deadline=None)
@given(
    row=st.integers(1, N_FIRMS * N_DATES),
    column=st.sampled_from(SNAPSHOT_COLUMNS),
    text=CELL_TEXT,
)
def test_one_overwritten_cell_ends_in_a_documented_exit(panel, row, column, text):
    out, rows = panel
    edited = [list(r) for r in rows]
    edited[row][rows[0].index(column)] = text
    path = out / "cell.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(edited)
    try:
        _, spreads = oracle_build_records(oracle_read_snapshots(path), ModelParams())
        expected = 0, None
    except InputFormatError as exc:
        expected = 2, f"input error: {exc}"
    for argv in (
        ["spread", str(path), "--out-dir", str(out / "spread")],
        # Few features per split, so the 8-firm panel reaches the fit.
        ["train", str(path), "--trees", "2", "--max-depth", "3",
         "--features-per-split", "3", "--out-dir", str(out / "train")],
    ):
        code, err = run(argv)
        assert code in (0, 2, 3), (argv[0], code, err)
        assert "Traceback" not in err
        if code == 2:
            assert re.search(re.escape(str(path)) + r":\d+: ", err), err
        # One cell leaves every other row complete, so train reaches the fit.
        assert code == expected[0], (argv[0], err)
        if code == 2:
            assert err.splitlines()[0] == expected[1]
    if expected[0] == 0:
        with open(out / "spread" / "spreads.csv", newline="", encoding="utf-8") as fh:
            reasons = [row["reason"] for row in csv.DictReader(fh)]
        assert reasons == [spread[4] for spread in spreads.values()]
