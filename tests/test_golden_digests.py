"""Golden digests: the SHA-256 of every output of synth -> spread -> train ->
evaluate -> importance on one small panel with blanked ratings.

A change that means to alter an output updates that file's digest here and
says which file changed and why; a refactor that keeps every output leaves
this table alone. The digests depend on the numpy and Python versions, as
the other pinned digests do (numpy 2.4.6, Python 3.11).
"""
import hashlib

from e2credit.cli import main

GOLDEN = {
    "synth/snapshots.csv":
        "b5c7baf13c50d0871cfba9a3a04a517b13b9584b157ee4531cd3c2dbe8587ae3",
    "synth/synth_meta.csv":
        "bffd681b28fd1364fcf2ee1e63c43242dda294ea6eac845f396fde4b788cc102",
    "spread/spreads.csv":
        "54a8216aa0b70dd3f4608723da4bc0ba19111260fb6a0071c23c79984cca0847",
    "train/forest.e2cf":
        "9fa4c8b2afd9572955e3100f176e014f6d1f2584a4c777a25a2eeedc4067e5e1",
    "train/run_config.txt":
        "ee51c4615f4cec1fbb8ddbdc0d89b2c74616400f9ed006858b677803257c4bdc",
    "train/split_manifest.csv":
        "46cad7cb4b063faa426b97d69973dbc4a5c5b23426cc89020aa529091d954206",
    "train/train_metrics.csv":
        "b4fb1d7ab4c552c22c179b45fe75592725d5a86584c1f7e485ff4070d08a2b82",
    "evaluate/by_rating.csv":
        "b62469490da6f499b1b065d5abb87f8194ecd90e3d5a707f1ba9f8aca75a9a1d",
    "evaluate/by_sector.csv":
        "bfc37b7352f4ac42e71c998eb882f1436971c62ed660f65357561a81e06afe74",
    "evaluate/overall_metrics.csv":
        "09be85cdcc48c59d834a403b8a47c16565488e40a29a07d3de93aa0735bc960c",
    "evaluate/timeseries.csv":
        "feb3e1f1356c0c37cb2da604cdcfd38309ac56765c8628c072daad621567e664",
    "importance/importance.csv":
        "c6ce314dc1c3f0b1bc4b54fdd1ba1bc7bfcbbf0703567a1f090965dc3654ba5e",
    "importance/importance_mdi_ranked.csv":
        "afbcb0ee78cb2816d88e87d5f1bee21019607977e6f9958aaf69747caffec0e4",
    "importance/importance_vi_ranked.csv":
        "6aa1c536e56a14d23e5a023b06e49d2d3248e63bc9c05d981eeb0abf277f2129",
}


def test_every_output_matches_its_golden_digest(tmp_path):
    csv = str(tmp_path / "synth" / "snapshots.csv")
    forest = str(tmp_path / "train" / "forest.e2cf")
    for argv in (
        ["synth", "--firms", "40", "--dates", "25", "--missing-rate", "0.2", "--seed", "4"],
        ["spread", csv],
        ["train", csv, "--seed", "4", "--trees", "8", "--max-depth", "8", "--workers", "1"],
        ["evaluate", forest, csv],
        ["importance", forest, csv, "--seed", "4"],
    ):
        assert main([*argv, "--out-dir", str(tmp_path / argv[0])]) == 0
    digests = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.glob("*/*")) if path.name != "manifest.txt"
    }
    assert digests == GOLDEN
