import numpy as np
import pytest

from proxybench.dataset import (
    Dataset,
    SynthSpec,
    class_filter,
    load_csv,
    split,
    subset_by_ids,
    synth_generate,
)


def _toy(n_per_class=5, classes=3, dim=2):
    labels = np.repeat(np.arange(classes), n_per_class)
    features = np.repeat(labels[:, None].astype(float), dim, axis=1)
    return Dataset(features, labels, np.arange(len(labels)), class_count=classes, feature_dim=dim, id="toy")


class TestDatasetConstruction:
    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError, match="unique"):
            Dataset([np.zeros(2), np.ones(2)], [0, 1], [0, 0], class_count=2, feature_dim=2)

    def test_rejects_label_out_of_range(self):
        with pytest.raises(ValueError, match="label"):
            Dataset([np.zeros(2)], [5], [0], class_count=2, feature_dim=2)

    def test_rejects_wrong_feature_dim(self):
        with pytest.raises(ValueError, match="feature length"):
            Dataset([np.zeros(3)], [0], [0], class_count=2, feature_dim=2)

    def test_rejects_non_finite_features(self):
        with pytest.raises(ValueError, match="non-finite"):
            Dataset([np.array([1.0, np.inf])], [0], [0], class_count=2, feature_dim=2)

    def test_arrays_are_contiguous_copies(self):
        feats = np.arange(12, dtype=float).reshape(3, 4)[:, ::2]  # a strided view
        d = Dataset(feats, [0, 1, 0], [5, 6, 7], class_count=2, feature_dim=2)
        assert d.features.flags.c_contiguous and d.features.dtype == np.float64
        assert d.labels.dtype == np.int64 and d.ids.dtype == np.int64
        feats[0, 0] = 99.0
        assert d.features[0, 0] == 0.0

    def test_error_names_the_offending_example(self):
        feats = np.zeros((4, 2))
        feats[2, 1] = np.nan
        with pytest.raises(ValueError, match="example 12: non-finite"):
            Dataset(feats, [0, 0, 0, 0], [10, 11, 12, 13], class_count=1, feature_dim=2)
        with pytest.raises(ValueError, match="example 11: label 3 outside"):
            Dataset(np.zeros((4, 2)), [0, 3, 0, 0], [10, 11, 12, 13], class_count=2, feature_dim=2)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="shapes"):
            Dataset(np.zeros((3, 2)), [0, 1], [0, 1, 2], class_count=2, feature_dim=2)

    def test_arrays_are_read_only_and_aligned(self):
        d = _toy()
        assert d.features.shape == (15, 2)
        assert list(d.labels[:5]) == [0] * 5
        assert list(d.ids) == list(range(15))
        with pytest.raises(ValueError):
            d.features[0, 0] = 9.0


class TestLoadCsv:
    def test_round_trip_without_header(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0,1.5,-2.25\n1,0.1,0.2\n2,3.0,4.0\n")
        d = load_csv(p)
        assert len(d) == 3
        assert d.class_count == 3
        assert d.feature_dim == 2
        assert d.id == "d"
        assert d.features[0, 1] == -2.25

    def test_header_row_is_skipped(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("label,f0,f1\n0,1.0,2.0\n1,3.0,4.0\n")
        d = load_csv(p)
        assert len(d) == 2
        assert d.labels[1] == 1

    def test_full_float_precision_round_trips(self, tmp_path):
        vals = [0.1 + 0.2, 1 / 3, 1e-17, 12345.6789e11]
        p = tmp_path / "d.csv"
        p.write_text("\n".join(f"0,{v!r}" for v in vals) + "\n1,0.0\n")
        d = load_csv(p)
        for row, v in zip(d.features[:4], vals):
            assert row[0] == v  # bitwise

    def test_ragged_row_error_names_the_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0,1.0,2.0\n1,3.0\n")
        with pytest.raises(ValueError, match="row 2"):
            load_csv(p)

    def test_non_integer_label_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0,1.0\nx,2.0\n")
        with pytest.raises(ValueError, match="non-integer label"):
            load_csv(p)

    def test_negative_label_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("-1,1.0\n")
        with pytest.raises(ValueError, match="negative label"):
            load_csv(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv")

    def test_non_finite_feature_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0,inf\n")
        with pytest.raises(ValueError, match="non-finite"):
            load_csv(p)

    CELLS = [
        repr(0.1 + 0.2), repr(1 / 3), repr(-2.0 / 7.0), repr(1e-17), repr(12345.6789e11),
        "5e-324", "2.2250738585072014e-308", "1e-310",  # smallest subnormal, smallest normal, a subnormal
        "-0.0", "0.0", "1E5", "+2.5e-3", "-7.5E+02", ".5", "5.",
        "  1.25", "-3.5  ", " \t4.75\t ",  # space-padded
    ]

    def test_features_have_the_bits_of_float(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("".join(f"{i % 2},{c},{c}\n" for i, c in enumerate(self.CELLS)))
        d = load_csv(p)
        want = np.array([float(c) for c in self.CELLS])
        assert np.array_equal(d.features[:, 0].view(np.int64), want.view(np.int64))
        assert np.array_equal(d.features[:, 1].view(np.int64), want.view(np.int64))
        assert np.signbit(d.features[8, 0])  # -0.0 keeps its sign

    def test_float_label_is_not_an_integer_label(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0,1.0\n1.0,2.0\n")
        with pytest.raises(ValueError, match="row 2: non-integer label '1.0'"):
            load_csv(p)

    def test_non_numeric_feature_error_names_the_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("label,f0,f1\n0,1.0,2.0\n\n1,3.0,x\n")
        with pytest.raises(ValueError, match="row 2: non-numeric feature"):
            load_csv(p)

    def test_blank_lines_and_crlf_are_skipped(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_bytes(b"label,f0\r\n\r\n0,1.5\r\n , \r\n1,-2.5\r\n")
        d = load_csv(p)
        assert list(d.labels) == [0, 1]
        assert list(d.features[:, 0]) == [1.5, -2.5]
        assert list(d.ids) == [0, 1]


class TestSynthGenerate:
    SPEC = SynthSpec(
        class_count=4,
        feature_dim=6,
        examples_per_class=25,
        class_separation=3.0,
        noise_scale_lo=0.1,
        noise_scale_hi=1.0,
        seed=9,
    )

    def test_counts_and_ids(self):
        d = synth_generate(self.SPEC)
        assert len(d) == 100
        assert d.class_count == 4
        assert list(d.ids) == list(range(100))

    def test_deterministic_bitwise(self):
        a = synth_generate(self.SPEC)
        b = synth_generate(self.SPEC)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_seed_changes_data(self):
        import dataclasses

        other = dataclasses.replace(self.SPEC, seed=10)
        assert not np.array_equal(synth_generate(self.SPEC).features, synth_generate(other).features)

    def test_flip_count_is_floor_of_fraction(self):
        import dataclasses

        flipped = synth_generate(dataclasses.replace(self.SPEC, label_flip_fraction=0.13))
        clean = synth_generate(self.SPEC)
        n_flipped = int(np.sum(flipped.labels != clean.labels))
        assert n_flipped == 13  # floor(0.13 * 100)
        # a flip never lands on the original label
        assert np.array_equal(flipped.features, clean.features)

    def test_zero_noise_puts_class_on_its_mean(self):
        import dataclasses

        spec = dataclasses.replace(self.SPEC, noise_scale_lo=0.0, noise_scale_hi=0.0)
        d = synth_generate(spec)
        for c in range(4):
            rows = d.features[d.labels == c]
            assert np.allclose(rows, rows[0])
            assert np.linalg.norm(rows[0]) == pytest.approx(3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            SynthSpec(1, 6, 25, 3.0, 0.1, 1.0)
        with pytest.raises(ValueError):
            SynthSpec(4, 6, 25, 3.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            SynthSpec(4, 6, 25, 3.0, 0.1, 1.0, label_flip_fraction=1.0)


class TestSplit:
    def test_stratified_counts(self):
        d = _toy(n_per_class=20, classes=3)
        train, val = split(d, 0.25, seed=0)
        assert len(val) == 15  # 5 per class
        for c in range(3):
            assert int(np.sum(val.labels == c)) == 5
        assert len(train) == 45

    def test_partition_of_ids(self):
        d = _toy(n_per_class=20)
        train, val = split(d, 0.25, seed=1)
        assert train.id_set() | val.id_set() == d.id_set()
        assert train.id_set() & val.id_set() == set()

    def test_deterministic_and_seed_sensitive(self):
        d = _toy(n_per_class=40)
        t1, v1 = split(d, 0.25, seed=3)
        t2, v2 = split(d, 0.25, seed=3)
        t3, v3 = split(d, 0.25, seed=4)
        assert v1.id_set() == v2.id_set()
        assert v1.id_set() != v3.id_set()

    def test_preserves_dataset_id_and_class_count(self):
        d = _toy()
        train, val = split(d, 0.2, seed=0)
        assert train.id == d.id == val.id
        assert train.class_count == d.class_count

    def test_rejects_degenerate_fractions(self):
        d = _toy(n_per_class=4)
        with pytest.raises(ValueError):
            split(d, 0.0, seed=0)
        with pytest.raises(ValueError):
            split(d, 1.0, seed=0)
        # 0.1 of 4 rounds to 0 validation examples for every class
        with pytest.raises(ValueError):
            split(d, 0.1, seed=0)


class TestClassFilter:
    def test_keeps_only_requested_classes(self):
        d = _toy()
        f = class_filter(d, {0, 2})
        assert set(int(l) for l in f.labels) == {0, 2}
        assert f.class_count == d.class_count  # label space unchanged
        assert len(f) == 10

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError, match="unknown class"):
            class_filter(_toy(), {7})

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            class_filter(_toy(), set())


class TestSubsetByIds:
    def test_order_is_canonical(self):
        d = _toy()
        a = subset_by_ids(d, [7, 3, 11])
        b = subset_by_ids(d, [11, 7, 3])
        assert list(a.ids) == [3, 7, 11]
        assert np.array_equal(a.features, b.features)

    def test_missing_id_rejected(self):
        with pytest.raises(ValueError, match="not present"):
            subset_by_ids(_toy(), [999])

    def test_any_order_and_repeats_give_the_same_subset(self):
        d = _toy(n_per_class=20)
        wanted = [50, 3, 17, 41, 8, 29]
        a = subset_by_ids(d, wanted)
        rng = np.random.default_rng(0)
        for _ in range(5):
            b = subset_by_ids(d, list(rng.permutation(wanted)) + wanted[:2])
            assert np.array_equal(a.ids, b.ids)
            assert np.array_equal(a.labels, b.labels)
            assert np.array_equal(a.features, b.features)
        assert list(a.ids) == sorted(wanted)  # the source order

    def test_missing_ids_are_listed_sorted(self):
        with pytest.raises(ValueError, match=r"not present in dataset 'toy': \[20, 999\]"):
            subset_by_ids(_toy(), [3, 999, 20, 4, 999])
