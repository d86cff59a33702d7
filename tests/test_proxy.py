import json

import numpy as np
import pytest

from proxybench.dataset import Dataset
from proxybench.difficulty import DifficultyTable
from proxybench.proxy import ProxySpec, build_proxy, load_manifest, save_manifest


def _balanced(classes=10, per_class=100, dim=3, id="bal"):
    n = classes * per_class
    features = np.repeat(np.arange(n, dtype=float)[:, None], dim, axis=1)
    labels = np.repeat(np.arange(classes), per_class)
    return Dataset(features, labels, np.arange(n), class_count=classes, feature_dim=dim, id=id)


def _table_for(d: Dataset):
    # difficulty descending by id, no ties: id 0 is hardest
    entries = tuple((int(i), float(len(d) - i)) for i in d.ids)
    return DifficultyTable(entries=entries, dataset_id=d.id, scoring_config_id="c")


TRAIN = _balanced(classes=10, per_class=100)  # 1000 examples
VAL = _balanced(classes=10, per_class=50, id="bal")  # 500 examples


class TestProxySpec:
    def test_field_validation(self):
        with pytest.raises(ValueError):
            ProxySpec(kind="random_all", fraction=0.0)
        with pytest.raises(ValueError):
            ProxySpec(kind="random_all", fraction=1.5)
        with pytest.raises(ValueError):
            ProxySpec(kind="quantile", lo=0.5, hi=0.5)
        with pytest.raises(ValueError):
            ProxySpec(kind="fewer_epochs", epochs=0)
        with pytest.raises(ValueError):
            ProxySpec(kind="half_classes", class_set=())

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
        assert set(m.train_ids) <= set(TRAIN.ids.tolist())

    def test_random_all_is_seeded(self):
        a = build_proxy(TRAIN, VAL, ProxySpec(kind="random_all", fraction=0.2, seed=1))
        b = build_proxy(TRAIN, VAL, ProxySpec(kind="random_all", fraction=0.2, seed=1))
        c = build_proxy(TRAIN, VAL, ProxySpec(kind="random_all", fraction=0.2, seed=2))
        assert a.train_ids == b.train_ids
        assert a.train_ids != c.train_ids

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

    def test_half_classes_auto_pick(self):
        m = build_proxy(TRAIN, VAL, ProxySpec(kind="half_classes", seed=7))
        labels = set(TRAIN.labels[np.isin(TRAIN.ids, m.train_ids)].tolist())
        assert len(labels) == 5  # ceil(10 / 2)
        again = build_proxy(TRAIN, VAL, ProxySpec(kind="half_classes", seed=7))
        assert m.train_ids == again.train_ids

    def test_quantile_uses_the_table(self):
        table = _table_for(TRAIN)
        m = build_proxy(TRAIN, VAL, ProxySpec(kind="quantile", lo=0.9, hi=1.0), table=table)
        # easiest 10% = highest ids under this table
        assert set(m.train_ids) == set(range(900, 1000))
        assert (len(m.train_ids), m.epochs) == (100, 20)

    def test_quantile_needs_a_table_of_exactly_the_training_ids(self):
        table = _table_for(TRAIN)
        cut = DifficultyTable(entries=table.entries[:400], dataset_id=TRAIN.id, scoring_config_id="c")
        with pytest.raises(ValueError, match="600 unscored, 0 not in the training set"):
            build_proxy(TRAIN, VAL, ProxySpec(kind="quantile", lo=0.9, hi=1.0), table=cut)
        extra = DifficultyTable(entries=table.entries + ((5000, 0.0),), dataset_id=TRAIN.id, scoring_config_id="c")
        with pytest.raises(ValueError, match="0 unscored, 1 not in the training set"):
            build_proxy(TRAIN, VAL, ProxySpec(kind="quantile", lo=0.9, hi=1.0), table=extra)

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
            loaded = load_manifest(p)
            assert loaded == m

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
        assert load_manifest(p) == m

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_manifest(tmp_path / "none.json")
