import json

import numpy as np
import pytest

from proxybench.dataset import SynthSpec, split, synth_generate
from proxybench.orchestrator import (
    GridSpec,
    ResultStore,
    generate_grid,
    grid_from_json,
    run_matrix,
    run_seed,
    store_load,
)
from proxybench.proxy import ProxySpec, build_proxy
from proxybench.trainer import HyperparamConfig, RunRecord, config_id


def _record(ds="d", proxy="full", cfg="c0", best=0.5):
    return RunRecord(
        dataset_id=ds,
        proxy_id=proxy,
        config_id=cfg,
        seed=1,
        epoch_val_acc=[0.1, best],
        best_val_acc=best,
        cost_units=10.0,
        wall_ms=3,
    )


def _tiny_split():
    spec = SynthSpec(
        class_count=3,
        feature_dim=4,
        examples_per_class=20,
        class_separation=4.0,
        noise_scale_lo=0.2,
        noise_scale_hi=0.4,
        label_flip_fraction=0.0,
        seed=5,
    )
    return split(synth_generate(spec), val_fraction=0.2, seed=0)


FAST = HyperparamConfig(epochs=2, stem_width_1=8, stem_width_2=8, batch_size=16)


class TestGridGeneration:
    def test_one_at_a_time_count(self):
        spec = GridSpec(
            defaults=FAST,
            variations={"learning_rate": [0.01, 0.001], "optimizer": ["sgd"]},
        )
        grid = generate_grid(spec)
        assert len(grid) == 4
        assert grid[0] == FAST
        # every non-default config differs from the default in exactly one field
        for cfg in grid[1:]:
            diffs = [
                f
                for f in ("learning_rate", "optimizer")
                if getattr(cfg, f) != getattr(FAST, f)
            ]
            assert len(diffs) == 1

    def test_no_variations_gives_default_only(self):
        assert generate_grid(GridSpec(defaults=FAST, variations={})) == [FAST]

    def test_typical_search_shape(self):
        spec = GridSpec(
            defaults=HyperparamConfig(),
            variations={
                "depth": ["small", "large"],
                "learning_rate": [0.0003, 0.001, 0.01, 0.03],
                "stem_width_1": [16, 64],
                "stem_width_2": [16, 64],
                "augment_prob": [0.0, 1.0],
                "optimizer": ["sgd", "rmsprop"],
                "label_smoothing": [False],
            },
        )
        grid = generate_grid(spec)
        assert len(grid) == 16
        assert len({config_id(c) for c in grid}) == 16

    def test_variation_equal_to_default_rejected(self):
        with pytest.raises(ValueError, match="equals the default"):
            GridSpec(defaults=FAST, variations={"optimizer": ["adam"]})

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown config field"):
            GridSpec(defaults=FAST, variations={"momentum": [0.9]})

    def test_seed_not_searchable(self):
        with pytest.raises(ValueError, match="seed"):
            GridSpec(defaults=FAST, variations={"seed": [1, 2]})

    def test_duplicate_values_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            GridSpec(defaults=FAST, variations={"learning_rate": [0.01, 0.01]})

    def test_grid_from_json(self, tmp_path):
        payload = {
            "defaults": {"epochs": 2, "stem_width_1": 8, "stem_width_2": 8, "batch_size": 16},
            "variations": {"learning_rate": [0.01], "depth": ["small", "large"]},
        }
        p = tmp_path / "grid.json"
        p.write_text(json.dumps(payload))
        spec = grid_from_json(p)
        assert spec.defaults == FAST
        assert len(generate_grid(spec)) == 4

    def test_grid_file_missing(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            grid_from_json(tmp_path / "none.json")


class TestResultStore:
    def test_jsonl_round_trip_bitwise(self, tmp_path):
        path = tmp_path / "results.jsonl"
        store = ResultStore(path=path)
        store.append(_record(cfg="c0", best=0.123456789012345))
        store.append(_record(cfg="c1", best=1 / 3))
        loaded = store_load(path)
        assert len(loaded) == 2
        assert loaded.get(("d", "full", "c1")).best_val_acc == 1 / 3
        assert loaded.records() == store.records()

    def test_duplicate_key_rejected(self):
        store = ResultStore()
        store.append(_record())
        with pytest.raises(ValueError, match="duplicate result key"):
            store.append(_record())

    def test_missing_file_is_empty_store(self, tmp_path):
        store = store_load(tmp_path / "none.jsonl")
        assert len(store) == 0

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "results.jsonl"
        path.write_text(json.dumps(_record().to_dict()) + "\n\n")
        assert len(store_load(path)) == 1

    def test_malformed_line_names_its_number(self, tmp_path):
        path = tmp_path / "results.jsonl"
        good = json.dumps(_record().to_dict())
        path.write_text(good + "\n{not json}\n")
        with pytest.raises(ValueError, match="line 2"):
            store_load(path)

    def test_torn_last_line_is_dropped_and_cut(self, tmp_path, capsys):
        path = tmp_path / "results.jsonl"
        good = json.dumps(_record(cfg="c0").to_dict()) + "\n"
        torn = json.dumps(_record(cfg="c1").to_dict())[:40]
        path.write_text(good + torn)
        store = store_load(path)
        assert list(store.keys()) == [("d", "full", "c0")]
        assert "line cut off mid-write" in capsys.readouterr().err
        assert path.read_text() == good  # the fragment is gone before any append
        store.append(_record(cfg="c2"))
        assert [k[2] for k in store_load(path).keys()] == ["c0", "c2"]

    def test_unterminated_whole_record_is_kept_and_terminated(self, tmp_path, capsys):
        path = tmp_path / "results.jsonl"
        good = json.dumps(_record(cfg="c0").to_dict())
        path.write_text(good)
        store = store_load(path)
        assert len(store) == 1
        assert capsys.readouterr().err == ""
        assert path.read_text() == good + "\n"
        store.append(_record(cfg="c1"))
        assert len(store_load(path)) == 2

    def test_malformed_line_mid_file_raises_despite_torn_tail(self, tmp_path):
        path = tmp_path / "results.jsonl"
        good = json.dumps(_record(cfg="c0").to_dict())
        path.write_text(good + "\n{not json}\n" + good[:30])
        before = path.read_bytes()
        with pytest.raises(ValueError, match="line 2: malformed"):
            store_load(path)
        assert path.read_bytes() == before  # nothing is cut when loading fails

    def test_loaded_store_still_appends_to_file(self, tmp_path):
        path = tmp_path / "results.jsonl"
        ResultStore(path=path).append(_record(cfg="c0"))
        store = store_load(path)
        store.append(_record(cfg="c1"))
        assert len(store_load(path)) == 2


class TestRunSeed:
    def test_deterministic_and_key_sensitive(self):
        s = run_seed("d", "full", "abc", 0)
        assert s == run_seed("d", "full", "abc", 0)
        assert 0 <= s < 2**32
        others = {
            run_seed("d2", "full", "abc", 0),
            run_seed("d", "hard-0.9-1.0", "abc", 0),
            run_seed("d", "full", "abd", 0),
            run_seed("d", "full", "abc", 1),
        }
        assert s not in others
        assert len(others) == 4


class TestRunMatrix:
    def test_full_matrix_shape(self):
        train, val = _tiny_split()
        proxies = [
            build_proxy(train, val, ProxySpec.full(), target_epochs=2),
            build_proxy(train, val, ProxySpec.random_all(0.5, seed=0), target_epochs=2),
        ]
        grid = generate_grid(GridSpec(defaults=FAST, variations={"learning_rate": [0.01], "optimizer": ["sgd"]}))
        store = run_matrix(train, val, proxies, grid)
        assert len(store) == len(proxies) * len(grid)
        cfg_ids = {config_id(c) for c in grid}
        for (ds, proxy, cfg), rec in zip(store.keys(), store.records()):
            assert ds == train.id
            assert cfg in cfg_ids
            assert rec.cost_units > 0
            assert len(rec.epoch_val_acc) == 2

    def test_parallel_matches_serial(self):
        train, val = _tiny_split()
        proxies = [
            build_proxy(train, val, ProxySpec.full(), target_epochs=2),
            build_proxy(train, val, ProxySpec.fewer_epochs(1), target_epochs=2),
        ]
        grid = generate_grid(GridSpec(defaults=FAST, variations={"learning_rate": [0.01, 0.001]}))
        serial = run_matrix(train, val, proxies, grid, parallelism=1)
        parallel = run_matrix(train, val, proxies, grid, parallelism=8)
        assert list(serial.keys()) == list(parallel.keys())
        for a, b in zip(serial.records(), parallel.records()):
            assert a.epoch_val_acc == b.epoch_val_acc
            assert a.best_val_acc == b.best_val_acc
            assert a.seed == b.seed

    def test_resume_skips_existing_cells(self, tmp_path):
        train, val = _tiny_split()
        proxies = [build_proxy(train, val, ProxySpec.full(), target_epochs=2)]
        grid = generate_grid(GridSpec(defaults=FAST, variations={"learning_rate": [0.01, 0.001]}))
        path = tmp_path / "results.jsonl"

        full = run_matrix(train, val, proxies, grid, store=ResultStore(path=path))
        # keep only the first line, then resume
        lines = path.read_text().splitlines()
        path.write_text(lines[0] + "\n")
        resumed = run_matrix(train, val, proxies, grid, store=store_load(path))
        assert list(resumed.keys()) == list(full.keys())
        for a, b in zip(resumed.records(), full.records()):
            assert a.best_val_acc == b.best_val_acc

    def test_resume_under_another_seed_is_refused(self, tmp_path):
        train, val = _tiny_split()
        proxies = [build_proxy(train, val, ProxySpec.full(), target_epochs=2)]
        grid = generate_grid(GridSpec(defaults=FAST, variations={"learning_rate": [0.01]}))
        path = tmp_path / "results.jsonl"
        run_matrix(train, val, proxies, grid, store=ResultStore(path=path))
        path.write_text(path.read_text().splitlines()[0] + "\n")
        before = path.read_bytes()
        stored = store_load(path).records()[0]
        with pytest.raises(ValueError, match=f"used seed {stored.seed}.*global seed 5 gives seed"):
            run_matrix(train, val, proxies, grid, global_seed=5, store=store_load(path))
        assert path.read_bytes() == before
        # the same seed still resumes
        resumed = run_matrix(train, val, proxies, grid, store=store_load(path))
        assert len(resumed) == 2

    def test_one_subset_per_manifest(self, monkeypatch):
        import proxybench.orchestrator as orchestrator

        calls = []
        real = orchestrator.subset_by_ids

        def counting(d, ids):
            calls.append(len(ids))
            return real(d, ids)

        monkeypatch.setattr(orchestrator, "subset_by_ids", counting)
        train, val = _tiny_split()
        proxies = [
            build_proxy(train, val, ProxySpec.full(), target_epochs=2),
            build_proxy(train, val, ProxySpec.random_all(0.5, seed=0), target_epochs=2),
        ]
        grid = generate_grid(GridSpec(defaults=FAST, variations={"learning_rate": [0.01, 0.001]}))
        store = run_matrix(train, val, proxies, grid)
        assert len(store) == 6
        assert calls == [len(train), len(val), len(proxies[1].train_ids), len(val)]
        # a resume that has every cell of a manifest takes no subset of it
        calls.clear()
        run_matrix(train, val, proxies, grid, store=store)
        assert calls == []

    def test_reduced_epochs_keep_grid_config_identity(self):
        train, val = _tiny_split()
        proxies = [
            build_proxy(train, val, ProxySpec.full(), target_epochs=2),
            build_proxy(train, val, ProxySpec.fewer_epochs(1), target_epochs=2),
        ]
        grid = [FAST]
        store = run_matrix(train, val, proxies, grid)
        cid = config_id(FAST)
        full_rec = store.get((train.id, "full", cid))
        ep_rec = store.get((train.id, "ep1", cid))
        assert full_rec is not None and ep_rec is not None
        assert len(full_rec.epoch_val_acc) == 2
        assert len(ep_rec.epoch_val_acc) == 1  # manifest budget applied
        assert ep_rec.config_id == cid  # but identity is the grid config's

    def test_divergent_run_lands_in_store_as_aborted(self):
        from proxybench.dataset import Dataset

        train, val = _tiny_split()
        # Feature scale 1e60 with an absurd learning rate overflows the
        # output layer to inf on the very first update, for any seed.
        blown = Dataset(
            train.features * 1e60,
            train.labels,
            train.ids,
            class_count=train.class_count,
            feature_dim=train.feature_dim,
            id=train.id,
        )
        proxies = [build_proxy(blown, val, ProxySpec.full(), target_epochs=2)]
        grid = [HyperparamConfig(epochs=2, stem_width_1=8, stem_width_2=8, optimizer="sgd", learning_rate=1e260)]
        store = run_matrix(blown, val, proxies, grid)
        (rec,) = store.records()
        assert rec.status == "aborted"
        assert len(rec.epoch_val_acc) == 2

    def test_empty_grid_rejected(self):
        train, val = _tiny_split()
        with pytest.raises(ValueError, match="empty grid"):
            run_matrix(train, val, [], [])
