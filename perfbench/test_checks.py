"""The benchmark's checks accept the program's real outputs and reject each
output with one value perturbed.

    python3 -m pytest perfbench/test_checks.py
"""
from __future__ import annotations

import copy
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from e2credit.cli import main as cli_main  # noqa: E402


def _cli(*argv) -> None:
    assert cli_main([str(a) for a in argv]) == 0


@pytest.fixture(scope="module")
def panel(tmp_path_factory):
    """A small complete panel through all four commands."""
    d = tmp_path_factory.mktemp("panel")
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(workloads.SIZES, "seeds", (20, 15))
        inputs = workloads.make_inputs("seeds", 3, d)
    _cli("spread", inputs.csv, "--out-dir", d / "spread")
    _cli("train", inputs.csv, "--seed", 3, "--out-dir", d / "train")
    forest = d / "train" / "forest.e2cf"
    _cli("evaluate", forest, inputs.csv, "--out-dir", d / "evaluate")
    _cli("importance", forest, inputs.csv, "--seed", 3, "--out-dir", d / "importance")
    return {
        "inputs": inputs,
        "spreads": checks.read_rows(d / "spread" / "spreads.csv"),
        "train": checks.read_key_values(d / "train" / "train_metrics.csv"),
        "removed": checks.read_split_manifest(d / "train" / "split_manifest.csv"),
        "timeseries": checks.read_rows(d / "evaluate" / "timeseries.csv"),
        "overall": checks.read_rows(d / "evaluate" / "overall_metrics.csv"),
        "importance": checks.read_rows(d / "importance" / "importance.csv"),
    }


@pytest.fixture(scope="module")
def gappy(tmp_path_factory):
    """A small gappy panel through the spread command."""
    d = tmp_path_factory.mktemp("gappy")
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(workloads.SIZES, "gappy", (40, 30))
        inputs = workloads.make_inputs("gappy", 5, d)
    _cli("spread", inputs.csv, "--out-dir", d / "spread")
    return {"inputs": inputs, "spreads": checks.read_rows(d / "spread" / "spreads.csv")}


def _panel_checks(o) -> list:
    inputs = o["inputs"]
    return checks.spread_checks(o["spreads"], inputs.expected_reason) + [
        ("split_counts", checks.check_split, o["train"], o["removed"], inputs.complete_keys),
        ("grid_counts", checks.check_grid, o["train"], inputs.n_firms, inputs.n_dates),
        ("overall_r2", checks.check_overall_r2, o["overall"], o["timeseries"]),
        ("reloaded_r2", checks.check_reloaded_r2, o["train"], o["timeseries"], o["removed"]),
        ("mdi", checks.check_mdi, o["importance"]),
        # As the seeds loop counts it: a one-seed win share.
        ("e2c_first", checks.check_win_share, int(checks.e2c_first(o["importance"])), 1),
    ]


def _gappy_checks(o) -> list:
    return checks.spread_checks(o["spreads"], o["inputs"].expected_reason)


def test_real_outputs_pass(panel, gappy):
    assert checks.run_checks(_panel_checks(panel)) == []
    assert checks.run_checks(_gappy_checks(gappy)) == []
    reasons = {r["reason"].split(",")[0] for r in gappy["spreads"]} - {""}
    assert len(reasons) >= 6  # every failure path of the alterations shows


def _scale(rows, column, factor, index=0):
    rows[index][column] = repr(float(rows[index][column]) * factor)


def _first_failing(rows):
    return next(i for i, r in enumerate(rows) if r["reason"])


def _refill_quote(o):
    """Give a priced row with blanked quotes one more, above the others: the
    median of the present quotes moves."""
    row = next(r for r in o["spreads"]
               if not r["reason"] and "" in (r[c] for c in workloads.QUOTE_COLUMNS))
    blank = next(c for c in workloads.QUOTE_COLUMNS if row[c] == "")
    row[blank] = "9.0"


def _set_reason(o, reason):
    o["spreads"][_first_failing(o["spreads"])]["reason"] = reason


def _shift(mapping, key, delta):
    mapping[key] = repr(float(mapping[key]) + delta)


# (check name, which fixture, perturbation of one output value)
PERTURBATIONS = [
    ("e2c_formula", "panel", lambda o: _scale(o["spreads"], "e2c_bps", 1 + 1e-9)),
    ("vol_median", "panel", lambda o: _scale(o["spreads"], "selected_vol", 1 + 1e-12)),
    ("vol_median", "gappy", _refill_quote),
    ("creditgrades_formula", "panel",
     lambda o: _scale(o["spreads"], "creditgrades_bps", 1 + 1e-6)),
    ("debt_floor", "panel", lambda o: o["spreads"][0].update(
        debt_per_share=repr(0.099 * float(o["spreads"][0]["stock_price"])))),
    ("failure_reasons", "gappy", lambda o: _set_reason(o, "")),
    ("failure_reasons", "gappy", lambda o: _set_reason(o, "missing fx_rate")),
    ("failure_reasons", "gappy", lambda o: o["spreads"].pop()),
    ("split_counts", "panel", lambda o: _shift(o["train"], "n_in_sample", 1)),
    ("split_counts", "panel", lambda o: o["removed"][0].pop()),
    ("grid_counts", "panel", lambda o: _shift(o["train"], "realized_oos_fraction", 1e-9)),
    ("overall_r2", "panel", lambda o: _shift(o["overall"][2], "r2", 1e-7)),
    ("overall_r2", "panel", lambda o: _scale(o["timeseries"], "forest_bps", 1.001)),
    ("reloaded_r2", "panel", lambda o: _shift(o["train"], "out_of_sample_r2", 1e-7)),
    ("mdi", "panel", lambda o: _shift(o["importance"][3], "mdi", 1e-9)),
    ("e2c_first", "panel", lambda o: o["importance"][0].update(permutation_vi="0.0")),
]


@pytest.mark.parametrize("name,fixture,perturb", PERTURBATIONS,
                         ids=[f"{n}-{i}" for i, (n, _, _) in enumerate(PERTURBATIONS)])
def test_one_perturbed_value_is_rejected(name, fixture, perturb, request):
    outputs = copy.deepcopy(request.getfixturevalue(fixture))
    perturb(outputs)
    todo = (_panel_checks if fixture == "panel" else _gappy_checks)(outputs)
    failed = [f.split(":")[0] for f in checks.run_checks(todo)]
    assert name in failed


def test_win_share():
    checks.check_win_share(19, 20)
    with pytest.raises(checks.CheckFailed):
        checks.check_win_share(18, 20)
