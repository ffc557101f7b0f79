"""Property tests: a snapshot CSV never crashes a command.

One overwritten cell: `spread` and `train` must end with a documented exit
code (0, 2 or 3) and no traceback, and an input error must name the file
and line. Both must end as the row-wise oracle in conftest.py says: with
its first error message, or with its spread reasons.

A panel of any small shape, with whole columns made alike: all four
commands must end with exit 0, 2, 3 or 4 and no traceback, and a run that
exits 0 must give the same bytes when run again."""
import contextlib
import csv
import io
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
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


# Whole-column edits: each gives its columns one value in every row.
COLUMN_EDITS = {
    "one_sector": {"sector": "energy"},
    "one_country": {"country": "US"},
    "unrated": {"sp_rating": "", "moody_rating": ""},
    "equal_labels": {"cds_5y_bps": "100.0"},
}


def _outputs(out_dir: Path) -> dict:
    return {f.name: f.read_bytes() for f in sorted(out_dir.iterdir()) if f.name != "manifest.txt"}


@settings(max_examples=120, deadline=None)
@given(
    firms=st.integers(1, 8),
    dates=st.integers(1, 8),
    missing_rate=st.sampled_from([0.0, 0.1, 0.3]),
    synth_seed=st.integers(0, 20),
    seed=st.integers(0, 3),
    trees=st.integers(1, 3),
    features_per_split=st.integers(1, 6),
    max_depth=st.integers(1, 4),
    firm_frac=st.sampled_from([0.0, 0.2, 0.5]),
    date_frac=st.sampled_from([0.0, 0.2, 0.5]),
    workers=st.sampled_from([1, 2]),
    edits=st.sets(st.sampled_from(sorted(COLUMN_EDITS))),
)
# A panel whose forest never splits: importance once ended in a traceback.
@example(firms=2, dates=5, missing_rate=0.3, synth_seed=2, seed=0, trees=3,
         features_per_split=1, max_depth=15, firm_frac=0.2, date_frac=0.2, workers=1,
         edits=set())
def test_panel_shape_ends_in_a_documented_exit(firms, dates, missing_rate, synth_seed, seed,
                                               trees, features_per_split, max_depth,
                                               firm_frac, date_frac, workers, edits):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        assert main(["synth", "--firms", str(firms), "--dates", str(dates),
                     "--missing-rate", str(missing_rate), "--seed", str(synth_seed),
                     "--out-dir", str(tmp / "synth")]) == 0
        with open(tmp / "synth" / "snapshots.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            for name in edits:
                row.update(COLUMN_EDITS[name])
        path = tmp / "panel.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, SNAPSHOT_COLUMNS, lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        trained = tmp / "a" / "train"
        forest, config = str(trained / "forest.e2cf"), str(trained / "run_config.txt")
        commands = {
            "spread": ["spread", str(path)],
            "train": ["train", str(path), "--seed", str(seed), "--trees", str(trees),
                      "--features-per-split", str(features_per_split),
                      "--max-depth", str(max_depth), "--firm-frac", str(firm_frac),
                      "--date-frac", str(date_frac), "--workers", str(workers)],
            # Both read the forest and the config of the first training run.
            "evaluate": ["evaluate", forest, str(path), "--config", config],
            "importance": ["importance", forest, str(path), "--config", config],
        }
        for name, argv in commands.items():
            if name in ("evaluate", "importance") and not Path(forest).exists():
                break
            code, err = run([*argv, "--out-dir", str(tmp / "a" / name)])
            assert code in (0, 2, 3, 4), (name, code, err)
            assert "Traceback" not in err, (name, err)
            if code == 0:
                assert run([*argv, "--out-dir", str(tmp / "b" / name)])[0] == 0, name
                assert _outputs(tmp / "a" / name) == _outputs(tmp / "b" / name), name
