import dataclasses
import json
import re

import numpy as np
import pytest

from proxybench._exact import exact_ceil, exact_floor
from proxybench.dataset import Dataset, subset_by_ids
from proxybench.difficulty import DifficultyTable
from proxybench.proxy import ProxyManifest, ProxySpec, build_proxy, load_manifest, save_manifest


def _balanced(classes=10, per_class=100, dim=3, id="bal"):
    n = classes * per_class
    features = np.repeat(np.arange(n, dtype=float)[:, None], dim, axis=1)
    labels = np.repeat(np.arange(classes), per_class)
    return Dataset(features, labels, np.arange(n), class_count=classes, id=id)


def _table_for(d: Dataset):
    # difficulty descending by id, no ties: id 0 is hardest
    return DifficultyTable(ids=d.ids, losses=len(d) - d.ids, dataset_id=d.id, scoring_config_id="c",
                           dataset_sha256=d.source_sha256)


def _same_manifest(a, b) -> bool:
    return (
        (a.proxy_id, a.spec, a.epochs) == (b.proxy_id, b.spec, b.epochs)
        and np.array_equal(a.train_ids, b.train_ids)
        and np.array_equal(a.val_ids, b.val_ids)
    )


TRAIN = _balanced(classes=10, per_class=100)  # 1000 examples
VAL = _balanced(classes=10, per_class=50, id="bal")  # 500 examples


def test_exact_bounds_take_a_fraction_that_is_not_a_float():
    # a float goes through its shortest decimal; an int or Fraction is exact as it is
    assert exact_ceil(1, 7) == 7 and exact_floor(1, 7) == 7
    assert exact_ceil(0.3, 10) == 3 and exact_floor(0.3, 10) == 3


class TestProxySpec:
    @pytest.mark.parametrize("fields, message", [
        ({"kind": "random_all", "fraction": 0.0}, "fraction must be in (0, 1], got 0.0"),
        ({"kind": "random_all", "fraction": 1.5}, "fraction must be in (0, 1], got 1.5"),
        ({"kind": "quantile", "lo": 0.5, "hi": 0.5}, "need 0 <= lo < hi <= 1, got lo=0.5, hi=0.5"),
        ({"kind": "quantile", "lo": 0.5}, "quantile requires lo and hi"),
        ({"kind": "quantile", "hi": 0.5}, "quantile requires lo and hi"),
        ({"kind": "fewer_epochs", "epochs": 0}, "fewer_epochs requires a positive epoch count"),
        ({"kind": "half_classes", "class_set": ()}, "class_set must be non-empty when given"),
        ({"kind": "random_all", "fraction": 0.5, "seed": -1}, "seed must be >= 0"),
    ], ids=["fraction_zero", "fraction_above_one", "empty_quantile", "quantile_without_hi", "quantile_without_lo",
            "zero_epochs", "empty_class_set", "negative_seed"])
    def test_field_validation(self, fields, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ProxySpec(**fields)

    def test_irrelevant_fields_rejected(self):
        with pytest.raises(ValueError, match="does not take"):
            ProxySpec(kind="full", fraction=0.5)
        with pytest.raises(ValueError, match="does not take"):
            ProxySpec(kind="quantile", lo=0.1, hi=0.9, epochs=3)

    def test_ids_are_descriptive(self):
        assert ProxySpec(kind="full").proxy_id() == "full"
        assert ProxySpec(kind="quantile", lo=0.9, hi=1.0).proxy_id() == "hard-0.9-1.0"
        assert ProxySpec(kind="quantile", lo=0.0, hi=0.5).proxy_id() == "hard-0.0-0.5"
        assert ProxySpec(kind="fewer_epochs", epochs=1).proxy_id() == "ep1"
        assert ProxySpec(kind="random_all", fraction=0.1, seed=3).proxy_id() == "random-0.1-s3"
        assert ProxySpec(kind="half_classes", class_set=(0, 1, 2)).proxy_id() == "half-0+1+2-f1.0"


class TestBuildProxy:
    def test_full_keeps_everything(self):
        m = build_proxy(TRAIN, VAL, ProxySpec(kind="full"), target_epochs=20)
        assert len(m.train_ids) == 1000
        assert len(m.val_ids) == 500
        assert m.epochs == 20

    def test_random_all_counts(self):
        m = build_proxy(TRAIN, VAL, ProxySpec(kind="random_all", fraction=0.1, seed=1), target_epochs=20)
        assert len(m.train_ids) == 100  # ceil(0.1 * 1000)
        assert len(m.val_ids) == 500  # validation untouched
        assert m.epochs == 20
        assert set(m.train_ids.tolist()) <= set(TRAIN.ids.tolist())

    def test_ids_are_sorted_read_only_int64_arrays(self):
        m = build_proxy(TRAIN, VAL, ProxySpec(kind="random_all", fraction=0.3, seed=4))
        for ids in (m.train_ids, m.val_ids):
            assert ids.dtype == np.int64
            assert (np.diff(ids) > 0).all()
            assert not ids.flags.writeable

    def test_sampling_every_id_keeps_them_all(self):
        shuffled = Dataset(TRAIN.features[::-1], TRAIN.labels[::-1], TRAIN.ids[::-1], class_count=10, id="bal")
        m = build_proxy(shuffled, VAL, ProxySpec(kind="random_all", fraction=1.0, seed=3))
        assert np.array_equal(m.train_ids, np.arange(1000))

    def test_random_all_is_seeded(self):
        a = build_proxy(TRAIN, VAL, ProxySpec(kind="random_all", fraction=0.2, seed=1))
        b = build_proxy(TRAIN, VAL, ProxySpec(kind="random_all", fraction=0.2, seed=1))
        c = build_proxy(TRAIN, VAL, ProxySpec(kind="random_all", fraction=0.2, seed=2))
        assert np.array_equal(a.train_ids, b.train_ids)
        assert not np.array_equal(a.train_ids, c.train_ids)

    def test_half_classes_balanced_counts(self):
        m = build_proxy(TRAIN, VAL, ProxySpec(kind="half_classes", class_set=tuple(range(5))), target_epochs=20)
        assert len(m.train_ids) == 500
        assert len(m.val_ids) == 250
        labels = set(TRAIN.labels[np.isin(TRAIN.ids, m.train_ids)].tolist())
        assert labels <= set(range(5))

    def test_half_classes_with_fraction_samples_within_the_classes(self):
        m = build_proxy(TRAIN, VAL, ProxySpec(kind="half_classes", class_set=tuple(range(5)), fraction=0.5, seed=3))
        assert len(m.train_ids) == 250  # ceil(0.5 * 500)
        assert len(m.val_ids) == 250  # val filtered but never sampled
        labels = set(TRAIN.labels[np.isin(TRAIN.ids, m.train_ids)].tolist())
        assert labels <= set(range(5))

    def test_half_classes_keeps_only_requested_classes(self):
        m = build_proxy(TRAIN, VAL, ProxySpec(kind="half_classes", class_set=(0, 2)))
        assert set(TRAIN.labels[np.isin(TRAIN.ids, m.train_ids)].tolist()) == {0, 2}
        assert set(VAL.labels[np.isin(VAL.ids, m.val_ids)].tolist()) == {0, 2}
        assert (len(m.train_ids), len(m.val_ids)) == (200, 100)

    @pytest.mark.parametrize("make, message", [
        (lambda: ProxyManifest("p", ProxySpec(kind="full"), np.array([], dtype=np.int64), VAL.ids, 1),
         "proxy 'p' resolved to 0 training examples"),
        (lambda: ProxyManifest("p", ProxySpec(kind="full"), TRAIN.ids, np.array([], dtype=np.int64), 1),
         "proxy 'p' resolved to 0 validation examples"),
        (lambda: build_proxy(TRAIN, subset_by_ids(VAL, VAL.ids[VAL.labels != 3]),
                             ProxySpec(kind="half_classes", class_set=(3,))),
         "class set (3,) leaves an empty split"),
    ], ids=["manifest_without_train", "manifest_without_val", "half_classes_without_val"])
    def test_empty_split_is_refused(self, make, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()

    def test_half_classes_unknown_class_rejected(self):
        with pytest.raises(ValueError, match=r"unknown class ids \[10, 12\] for class_count 10"):
            build_proxy(TRAIN, VAL, ProxySpec(kind="half_classes", class_set=(12, 0, 10)))

    def test_half_classes_auto_pick(self):
        m = build_proxy(TRAIN, VAL, ProxySpec(kind="half_classes", seed=7))
        labels = set(TRAIN.labels[np.isin(TRAIN.ids, m.train_ids)].tolist())
        assert len(labels) == 5  # ceil(10 / 2)
        again = build_proxy(TRAIN, VAL, ProxySpec(kind="half_classes", seed=7))
        assert np.array_equal(m.train_ids, again.train_ids)

    def test_quantile_uses_the_table(self):
        table = _table_for(TRAIN)
        m = build_proxy(TRAIN, VAL, ProxySpec(kind="quantile", lo=0.9, hi=1.0), table=table)
        # easiest 10% = highest ids under this table
        assert m.train_ids.tolist() == list(range(900, 1000))
        assert (len(m.train_ids), m.epochs) == (100, 20)

    def test_quantile_needs_a_table_of_exactly_the_training_ids(self):
        table = _table_for(TRAIN)
        cut = DifficultyTable(ids=table.ids[:400], losses=table.losses[:400], dataset_id=TRAIN.id,
                              scoring_config_id="c")
        with pytest.raises(ValueError, match="600 unscored, 0 not in the training set"):
            build_proxy(TRAIN, VAL, ProxySpec(kind="quantile", lo=0.9, hi=1.0), table=cut)
        extra = DifficultyTable(ids=np.append(table.ids, 5000), losses=np.append(table.losses, 0.0),
                                dataset_id=TRAIN.id, scoring_config_id="c")
        with pytest.raises(ValueError, match="0 unscored, 1 not in the training set"):
            build_proxy(TRAIN, VAL, ProxySpec(kind="quantile", lo=0.9, hi=1.0), table=extra)

    @pytest.mark.parametrize("spec", [ProxySpec(kind="quantile", lo=0.9, hi=1.0), ProxySpec(kind="full")])
    def test_table_must_have_scored_the_bytes_of_the_training_set(self, spec):
        loaded = Dataset(TRAIN.features, TRAIN.labels, TRAIN.ids, class_count=10, id="bal",
                         source_sha256="a" * 64)
        other = dataclasses.replace(_table_for(TRAIN), dataset_sha256="b" * 64)
        with pytest.raises(ValueError, match=f"sha256 {'b' * 64}, not {'a' * 64}"):
            build_proxy(loaded, VAL, spec, table=other)
        with pytest.raises(ValueError, match="records no dataset digest; re-run score"):
            build_proxy(loaded, VAL, spec, table=_table_for(TRAIN))
        mine = dataclasses.replace(_table_for(TRAIN), dataset_sha256="a" * 64)
        assert len(build_proxy(loaded, VAL, spec, table=mine).train_ids) > 0

    def test_quantile_without_table_rejected(self):
        with pytest.raises(ValueError, match="difficulty table"):
            build_proxy(TRAIN, VAL, ProxySpec(kind="quantile", lo=0.9, hi=1.0))

    def test_fewer_epochs(self):
        m = build_proxy(TRAIN, VAL, ProxySpec(kind="fewer_epochs", epochs=1), target_epochs=20)
        assert len(m.train_ids) == 1000
        assert m.epochs == 1

    def test_fewer_epochs_must_reduce(self):
        with pytest.raises(ValueError, match="below target"):
            build_proxy(TRAIN, VAL, ProxySpec(kind="fewer_epochs", epochs=20), target_epochs=20)

    def test_tiny_quantile_on_tiny_table_rejected(self):
        small = _balanced(classes=2, per_class=2)
        table = _table_for(small)
        with pytest.raises(ValueError, match="0 examples"):
            build_proxy(small, VAL, ProxySpec(kind="quantile", lo=0.0, hi=0.1), table=table)


class TestManifestPersistence:
    def test_json_round_trip(self, tmp_path):
        table = _table_for(TRAIN)
        for spec in [
            ProxySpec(kind="full"),
            ProxySpec(kind="random_all", fraction=0.3, seed=2),
            ProxySpec(kind="half_classes", class_set=(1, 3, 5), fraction=0.7, seed=4),
            ProxySpec(kind="quantile", lo=0.25, hi=1.0),
            ProxySpec(kind="fewer_epochs", epochs=5),
        ]:
            m = build_proxy(TRAIN, VAL, spec, table=table, target_epochs=20)
            p = tmp_path / f"{m.proxy_id}.json"
            save_manifest(m, p)
            assert _same_manifest(load_manifest(p), m)

    def test_params_are_the_set_fields_of_the_kind(self, tmp_path):
        table = _table_for(TRAIN)
        for spec, params in [
            (ProxySpec(kind="full"), {}),
            (ProxySpec(kind="random_all", fraction=0.3, seed=2), {"fraction": 0.3}),
            (ProxySpec(kind="half_classes", class_set=[5, 1, 3, 1]), {"class_set": [1, 3, 5]}),
            (ProxySpec(kind="quantile", lo=0.25, hi=1.0), {"lo": 0.25, "hi": 1.0}),
            (ProxySpec(kind="fewer_epochs", epochs=5), {"epochs": 5}),
        ]:
            p = tmp_path / "m.json"
            save_manifest(build_proxy(TRAIN, VAL, spec, table=table, target_epochs=20), p)
            payload = json.loads(p.read_text())
            assert list(payload["params"].items()) == list(params.items())
            assert (payload["kind"], payload["seed"]) == (spec.kind, spec.seed)

    def test_relative_cost_is_not_stored_and_an_old_one_is_ignored(self, tmp_path):
        m = build_proxy(TRAIN, VAL, ProxySpec(kind="fewer_epochs", epochs=1), target_epochs=20)
        p = tmp_path / "ep1.json"
        save_manifest(m, p)
        payload = json.loads(p.read_text())
        assert "relative_cost" not in payload
        # manifests written by earlier versions carry the cost against --target-epochs
        p.write_text(json.dumps({**payload, "relative_cost": 0.05}))
        assert _same_manifest(load_manifest(p), m)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_manifest(tmp_path / "none.json")

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("train_ids", [1.5, 2], "train_ids[0] must be an integer, got 1.5"),
            ("train_ids", [True, 2], "train_ids[0] must be an integer, got True"),
            ("val_ids", ["1", 2], "val_ids[0] must be an integer, got '1'"),
            ("val_ids", 3, "val_ids must be a list, got 3"),
            ("train_ids", [2**63, 2], "train_ids holds an example id outside the int64 range"),
            ("train_ids", [1, 2, 1], "train_ids lists an example id more than once"),
            ("epochs", 0, "epochs must be a positive integer, got 0"),
            ("epochs", 2.0, "epochs must be an integer, got 2.0"),
            ("epochs", True, "epochs must be an integer, got True"),
            ("seed", 1.5, "seed must be an integer, got 1.5"),
            ("seed", True, "seed must be an integer, got True"),
            ("proxy_id", 5, "proxy_id must be a string, got 5"),
            ("params", {"fraction": True}, "fraction must be a finite number, got True"),
            ("params", {"fraction": "0.5"}, "fraction must be a finite number, got '0.5'"),
            ("params", {"class_set": [0, 1.0]}, "class_set[1] must be an integer, got 1.0"),
        ],
    )
    def test_bad_field_is_named_with_the_file(self, tmp_path, field, value, message):
        p = tmp_path / "m.json"
        save_manifest(build_proxy(TRAIN, VAL, ProxySpec(kind="full")), p)
        p.write_text(json.dumps({**json.loads(p.read_text()), field: value}))
        with pytest.raises(ValueError, match=f"{re.escape(str(p))}: {re.escape(message)}"):
            load_manifest(p)

    @pytest.mark.parametrize("spec, change, message", [
        (ProxySpec(kind="random_all", fraction=0.3), {"proxy_id": "full"},
         "proxy_id 'full' is not 'random-0.3-s0', the id of its spec"),
        (ProxySpec(kind="fewer_epochs", epochs=3), {"epochs": 1},
         "epochs 1 is not 3, the budget of its fewer_epochs spec"),
    ], ids=["proxy_id", "epochs"])
    def test_manifest_that_disagrees_with_its_spec_is_refused(self, tmp_path, spec, change, message):
        p = tmp_path / "m.json"
        save_manifest(build_proxy(TRAIN, VAL, spec, target_epochs=20), p)
        assert load_manifest(p).proxy_id == spec.proxy_id()
        p.write_text(json.dumps({**json.loads(p.read_text()), **change}))
        with pytest.raises(ValueError) as info:
            load_manifest(p)
        assert str(info.value) == f"{p}: {message}"

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"proxy_id": "x"}', "missing key 'epochs'"),
            ('{"proxy_id": "x", "epochs": 2', "Expecting ',' delimiter"),
            ('{"proxy_id": "x", "kind": "full", "params": {"bogus": 1}, "seed": 0, "epochs": 2}', "unexpected keyword"),
            ('{"proxy_id": "x", "kind": "nope", "params": {}, "seed": 0, "epochs": 2}', "kind must be one of"),
            ('[1, 2]', "expected a JSON object, got list"),
        ],
    )
    def test_malformed_manifest_is_named_once(self, tmp_path, text, message):
        p = tmp_path / "m.json"
        p.write_text(text)
        with pytest.raises((ValueError, TypeError)) as info:
            load_manifest(p)
        assert str(info.value).startswith(f"{p}: ") and message in str(info.value)
        assert str(info.value).count(str(p)) == 1

    def test_ids_load_sorted(self, tmp_path):
        p = tmp_path / "m.json"
        save_manifest(build_proxy(TRAIN, VAL, ProxySpec(kind="full")), p)
        p.write_text(json.dumps({**json.loads(p.read_text()), "train_ids": [7, 3, 5]}))
        assert load_manifest(p).train_ids.tolist() == [3, 5, 7]
