import numpy as np
import pytest

from e2credit.dataset import (
    FeatureEncoder,
    FeatureMatrix,
    RawRecord,
    drop_incomplete,
    encode_features,
    merge_ratings,
    moody_label,
    rating_bucket,
    rating_code,
    rating_label,
    split_in_out,
)

from conftest import records_table


def record(firm, date, **kwargs):
    base = dict(
        e2c_bps=50.0,
        cds5y_bps=80.0,
        ig_cdx_bps=70.0,
        market_cap=1000.0,
        sp_rating="BBB",
        moody_rating="Baa2",
        sector="industrial",
        country="US",
    )
    base.update(kwargs)
    return RawRecord(firm_id=firm, date=date, **base)


class TestRatings:
    def test_merge_examples(self):
        assert merge_ratings("BBB", "Baa2") == "BBB"
        assert merge_ratings("A", None) == "A"
        assert merge_ratings(None, "A2") == "A"
        assert merge_ratings("BBB", "Ba2") == "BB"
        assert merge_ratings(None, None) is None

    def test_order_preserved(self):
        codes = [rating_code(g) for g in ("A", "BBB", "BB", "B")]
        assert codes == sorted(codes, reverse=True)

    def test_scale_round_trip(self):
        for code in range(17):
            assert rating_code(rating_label(code)) == code
            assert rating_code(moody_label(code)) == code

    def test_sub_ccc_collapse(self):
        for label in ("CCC+", "CC", "C", "D", "Caa3", "Ca"):
            assert rating_code(label) == 0

    def test_buckets(self):
        assert rating_bucket(rating_code("A-")) == "A"
        assert rating_bucket(rating_code("AAA")) == "A"
        assert rating_bucket(rating_code("BBB+")) == "BBB"
        assert rating_bucket(rating_code("BB-")) == "BB"
        assert rating_bucket(rating_code("B-")) == "B"
        assert rating_bucket(rating_code("CCC")) == "below-B"

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            rating_code("ZZZ")


class TestDropIncomplete:
    def test_counts(self):
        records = [record(f"F{i}", "2016-01-01") for i in range(8)]
        records += [
            record("F8", "2016-01-01", sp_rating=None, moody_rating=None),
            record("F9", "2016-01-01", sp_rating=None, moody_rating=None),
        ]
        kept = drop_incomplete(records_table(records))
        assert len(kept) == 8
        assert [r.firm_id for r in kept] == [f"F{i}" for i in range(8)]

    def test_identity_when_complete(self):
        records = [record("A", "2016-01-01"), record("B", "2016-01-01")]
        assert list(drop_incomplete(records_table(records))) == records

    def test_all_incomplete(self):
        records = [record("A", "2016-01-01", e2c_bps=None)]
        assert list(drop_incomplete(records_table(records))) == []

    def test_each_required_field(self):
        rows = [record("A", "d", **{missing: None})
                for missing in ("e2c_bps", "cds5y_bps", "ig_cdx_bps", "market_cap")]
        rows += [record("A", "d", sector=None), record("A", "d", country=None),
                 record("A", "d", moody_rating=None)]
        assert records_table(rows).complete.tolist() == [False] * 6 + [True]


class TestEncode:
    def test_rarest_category_dropped(self):
        records = []
        i = 0
        for country, count in (("US", 5), ("EU", 3), ("JP", 1)):
            for _ in range(count):
                records.append(record(f"F{i}", "2016-01-01", country=country))
                i += 1
        matrix = encode_features(records_table(records))
        names = matrix.column_names()
        assert "country_US" in names and "country_EU" in names
        assert "country_JP" not in names

    def test_single_category_group_vanishes(self):
        records = [record(f"F{i}", "2016-01-01") for i in range(4)]
        matrix = encode_features(records_table(records))
        assert not any(n.startswith("sector_") for n in matrix.column_names())

    def test_tie_drops_lexicographically_smallest(self):
        records = [
            record("F0", "d", country="US"),
            record("F1", "d", country="AU"),
        ]
        names = encode_features(records_table(records)).column_names()
        assert "country_US" in names and "country_AU" not in names

    def test_dummy_rows_and_group_sums(self):
        records = []
        i = 0
        for country in ("US", "US", "EU", "JP", "JP", "JP"):
            records.append(record(f"F{i}", "d", country=country))
            i += 1
        matrix = encode_features(records_table(records))
        dummy_cols = [
            j for j, c in enumerate(matrix.columns) if c.kind == "dummy"
        ]
        sums = matrix.X[:, dummy_cols].sum(axis=1)
        assert set(sums.tolist()) <= {0.0, 1.0}

    def test_ordinal_codes_and_numeric_passthrough(self):
        records = [
            record("F0", "d", sp_rating="A", moody_rating=None, e2c_bps=12.5),
            record("F1", "d", sp_rating="B", moody_rating=None, e2c_bps=90.0),
        ]
        matrix = encode_features(records_table(records))
        names = matrix.column_names()
        rating_col = names.index("rating")
        assert matrix.X[0, rating_col] > matrix.X[1, rating_col]
        assert matrix.X[0, names.index("e2c_bps")] == 12.5
        assert tuple(matrix.y) == (80.0, 80.0)

    def test_deterministic_bytes(self):
        records = [record(f"F{i}", "d", country=c) for i, c in enumerate("ABCABD")]
        m1 = encode_features(records_table(records))
        m2 = encode_features(records_table(records))
        assert m1.X.tobytes() == m2.X.tobytes()
        assert m1.y.tobytes() == m2.y.tobytes()
        assert m1.columns == m2.columns

    def test_unseen_category_warns_and_zeroes(self):
        train = [record(f"F{i}", "d", country=c) for i, c in enumerate(("US", "US", "EU"))]
        encoder = FeatureEncoder.fit(records_table(train))
        test_rec = record("G0", "d", country="JP")
        with pytest.warns(UserWarning, match="unseen country"):
            matrix = encoder.transform(records_table([test_rec]))
        dummy_cols = [j for j, c in enumerate(matrix.columns) if c.name.startswith("country_")]
        assert matrix.X[0, dummy_cols].sum() == 0.0

    def test_incomplete_rejected(self):
        with pytest.raises(ValueError, match="incomplete"):
            encode_features(records_table([record("F0", "d", e2c_bps=None)]))

    def test_matrix_read_only(self):
        matrix = encode_features(records_table([record("F0", "d"), record("F1", "d")]))
        with pytest.raises(ValueError):
            matrix.X[0, 0] = 1.0


def grid_matrix(n_firms, n_dates, drop=()):
    records = []
    for i in range(n_firms):
        for t in range(n_dates):
            if (i, t) in drop:
                continue
            records.append(
                record(
                    f"F{i:02d}",
                    f"2016-01-{t + 1:02d}",
                    country="US" if i % 2 else "EU",
                    e2c_bps=float(10 + i + t),
                    cds5y_bps=float(20 + i * t),
                )
            )
    return encode_features(records_table(records))


class TestSplit:
    def test_complete_grid_36_percent(self):
        matrix = grid_matrix(10, 10)
        split = split_in_out(matrix, 0.2, 0.2, seed=0)
        assert split.in_sample.n_rows == 64
        assert split.out_of_sample.n_rows == 36
        assert split.oos_fraction == pytest.approx(0.36)

    def test_zero_fractions(self):
        matrix = grid_matrix(5, 4)
        split = split_in_out(matrix, 0.0, 0.0, seed=0)
        assert split.out_of_sample.n_rows == 0
        assert split.in_sample.n_rows == matrix.n_rows

    def test_same_seed_same_partition(self):
        matrix = grid_matrix(8, 6)
        a = split_in_out(matrix, 0.25, 0.25, seed=42)
        b = split_in_out(matrix, 0.25, 0.25, seed=42)
        assert a.removed_firms == b.removed_firms
        assert a.removed_dates == b.removed_dates
        assert a.in_sample.X.tobytes() == b.in_sample.X.tobytes()

    def test_partition_invariants_many_seeds(self):
        matrix = grid_matrix(6, 5, drop={(0, 0), (3, 2), (5, 4)})
        for seed in range(100):
            split = split_in_out(matrix, 0.3, 0.3, seed=seed)
            total = split.in_sample.n_rows + split.out_of_sample.n_rows
            assert total == matrix.n_rows
            in_keys = set(zip(split.in_sample.firm_ids, split.in_sample.dates))
            out_keys = set(zip(split.out_of_sample.firm_ids, split.out_of_sample.dates))
            assert not in_keys & out_keys

    def test_no_leakage(self):
        matrix = grid_matrix(9, 7)
        split = split_in_out(matrix, 0.2, 0.3, seed=5)
        removed_f = set(split.removed_firms)
        removed_d = set(split.removed_dates)
        for firm, date in zip(split.out_of_sample.firm_ids, split.out_of_sample.dates):
            assert firm in removed_f or date in removed_d
        for firm, date in zip(split.in_sample.firm_ids, split.in_sample.dates):
            assert firm not in removed_f and date not in removed_d

    def test_bad_fractions(self):
        matrix = grid_matrix(3, 3)
        with pytest.raises(ValueError):
            split_in_out(matrix, 1.0, 0.2, seed=0)
        with pytest.raises(ValueError):
            split_in_out(matrix, 0.2, -0.1, seed=0)

    def test_round_half_up(self):
        matrix = grid_matrix(10, 4)
        split = split_in_out(matrix, 0.25, 0.0, seed=1)
        # 0.25 * 10 = 2.5 rounds half-up to 3 firms removed
        assert len(split.removed_firms) == 3


class TestFromArrays:
    def test_wraps_and_freezes(self):
        X = np.zeros((3, 2))
        y = np.arange(3.0)
        matrix = FeatureMatrix.from_arrays(X, y)
        assert matrix.n_rows == 3 and matrix.n_features == 2
        assert matrix.column_names() == ("x0", "x1")
