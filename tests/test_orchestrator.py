import json
import re
import threading
import time
from dataclasses import asdict, replace

import numpy as np
import pytest

from proxybench.dataset import SynthSpec, split, subset_by_ids, synth_generate
from proxybench.orchestrator import (
    GridSpec,
    ResultStore,
    cell_cost,
    generate_grid,
    grid_from_json,
    plan_runs,
    run_matrix,
    run_seed,
    store_load,
)
from proxybench.proxy import ProxySpec, build_proxy
from proxybench.trainer import HyperparamConfig, RunRecord, config_id, stack_key, train_model


def _record(ds="d", proxy="full", cfg="c0", best=0.5):
    return RunRecord(
        dataset_id=ds,
        proxy_id=proxy,
        config_id=cfg,
        seed=1,
        epoch_val_acc=[0.1, best],
        best_val_acc=best,
        cost_units=10.0,
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

    def test_epochs_not_searchable(self):
        # each proxy manifest sets the epochs; a variation would retrain them under a new config id
        with pytest.raises(ValueError, match="epochs is not a searchable field"):
            GridSpec(defaults=FAST, variations={"epochs": [1]})

    @pytest.mark.parametrize("values", ["sgd", 0.01, {"sgd": 1}, None])
    def test_variation_that_is_not_a_list_rejected(self, values):
        with pytest.raises(ValueError, match=re.escape(f"variation optimizer must be a list, got {values!r}")):
            GridSpec(defaults=FAST, variations={"optimizer": values})

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

    @pytest.mark.parametrize(
        "text, error, message",
        [
            ('{"defaults": {"epochs": 2}\n', ValueError, "Expecting ',' delimiter: line 2 column 1 (char 27)"),
            ('{"defaults": {"momentum": 0.9}}', TypeError, "unexpected keyword argument 'momentum'"),
            ('{"defaults": {"epochs": 0}}', ValueError, "epochs must be >= 1"),
            ('{"variations": {"learning_rate": []}}', ValueError, "empty variation list for 'learning_rate'"),
            ('[1]', ValueError, "expected a JSON object, got list"),
            ('{"defaults": {"batch_size": 16.5}}', ValueError, "batch_size must be an integer, got 16.5"),
            ('{"defaults": {"seed": 1.5}}', ValueError, "seed must be an integer, got 1.5"),
            ('{"variations": {"stem_width_1": [8.5]}}', ValueError, "stem_width_1 must be an integer, got 8.5"),
        ],
    )
    def test_malformed_grid_file_is_named(self, tmp_path, text, error, message):
        p = tmp_path / "grid.json"
        p.write_text(text)
        with pytest.raises(error) as info:
            grid_from_json(p)
        assert str(info.value).startswith(f"{p}: ") and str(info.value).endswith(message)

    def test_nan_stem_width_grid_is_refused_at_load(self, tmp_path):
        # nan != nan would let the variation pass as a new value with the default's config_id
        p = tmp_path / "grid.json"
        p.write_text('{"defaults": {"stem_width_1": NaN}, "variations": {"stem_width_1": [NaN]}}')
        with pytest.raises(ValueError) as info:
            grid_from_json(p)
        assert str(info.value) == f"{p}: stem_width_1 must be an integer, got nan"


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

    def test_duplicate_key_rejected(self, tmp_path):
        store = ResultStore(tmp_path / "results.jsonl")
        store.append(_record())
        with pytest.raises(ValueError, match="duplicate result key"):
            store.append(_record())

    def test_missing_file_is_empty_store(self, tmp_path):
        store = store_load(tmp_path / "none.jsonl")
        assert len(store) == 0

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "results.jsonl"
        path.write_text(json.dumps(asdict(_record())) + "\n\n")
        assert len(store_load(path)) == 1

    def test_malformed_line_names_its_number(self, tmp_path):
        path = tmp_path / "results.jsonl"
        good = json.dumps(asdict(_record()))
        path.write_text(good + "\n{not json}\n")
        with pytest.raises(ValueError, match="line 2"):
            store_load(path)

    def test_line_that_is_not_utf8_names_its_number(self, tmp_path):
        path = tmp_path / "results.jsonl"
        good = json.dumps(asdict(_record(cfg="c0"))).encode()
        path.write_bytes(good + b"\n" + good.replace(b"c0", b"c\xff") + b"\n" + good[:30])
        before = path.read_bytes()
        with pytest.raises(ValueError, match="line 2: malformed record"):
            store_load(path)
        assert path.read_bytes() == before

    def test_torn_last_line_is_dropped_and_cut(self, tmp_path, capsys):
        path = tmp_path / "results.jsonl"
        good = json.dumps(asdict(_record(cfg="c0"))) + "\n"
        torn = json.dumps(asdict(_record(cfg="c1")))[:40]
        path.write_text(good + torn)
        store = store_load(path)
        assert list(store.keys()) == [("d", "full", "c0")]
        assert "line cut off mid-write" in capsys.readouterr().err
        assert path.read_text() == good + torn  # loading is read-only
        store.append(_record(cfg="c2"))
        assert path.read_text() == good + json.dumps(asdict(_record(cfg="c2"))) + "\n"  # the first append cuts it
        assert [k[2] for k in store_load(path).keys()] == ["c0", "c2"]
        assert capsys.readouterr().err == ""

    def test_unterminated_whole_record_is_kept_and_terminated(self, tmp_path, capsys):
        path = tmp_path / "results.jsonl"
        good = json.dumps(asdict(_record(cfg="c0")))
        path.write_text(good)
        store = store_load(path)
        assert len(store) == 1
        assert capsys.readouterr().err == ""
        assert path.read_text() == good  # loading is read-only
        store.append(_record(cfg="c1"))
        assert path.read_text() == good + "\n" + json.dumps(asdict(_record(cfg="c1"))) + "\n"
        assert len(store_load(path)) == 2

    def test_malformed_line_mid_file_raises_despite_torn_tail(self, tmp_path):
        path = tmp_path / "results.jsonl"
        good = json.dumps(asdict(_record(cfg="c0")))
        path.write_text(good + "\n{not json}\n" + good[:30])
        before = path.read_bytes()
        with pytest.raises(ValueError, match="line 2: malformed"):
            store_load(path)
        assert path.read_bytes() == before  # nothing is cut when loading fails

    @pytest.mark.parametrize("newline", ["\n", ""], ids=["complete-line", "unterminated-tail"])
    def test_duplicated_record_names_the_file_and_its_line(self, tmp_path, newline):
        path = tmp_path / "results.jsonl"
        good = json.dumps(asdict(_record(cfg="c0")))
        path.write_text(good + "\n" + json.dumps(asdict(_record(cfg="c1"))) + "\n\n" + good + newline)
        with pytest.raises(ValueError) as info:
            store_load(path)
        assert str(info.value) == f"{path}: line 4: duplicate result key ('d', 'full', 'c0')"

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


def _grid_large_plan(train, val):
    """Manifests and grid shaped like the benchmark's grid-large: full, a subset, ep3 and another subset,
    and a grid of five default-shape configs, one of another batch size and one deeper."""
    proxies = [
        build_proxy(train, val, ProxySpec(kind="full"), target_epochs=4),
        build_proxy(train, val, ProxySpec(kind="random_all", fraction=0.5, seed=1), target_epochs=4),
        build_proxy(train, val, ProxySpec(kind="fewer_epochs", epochs=3), target_epochs=4),
        build_proxy(train, val, ProxySpec(kind="random_all", fraction=0.25, seed=0), target_epochs=4),
    ]
    grid = generate_grid(GridSpec(defaults=replace(FAST, epochs=4), variations={
        "learning_rate": [0.001, 0.01], "optimizer": ["sgd", "rmsprop"], "batch_size": [32], "depth": ["large"],
    }))
    return proxies, grid


class TestPlanRuns:
    def test_manifests_with_equal_ids_share_stacks_in_cell_order(self, tmp_path):
        train, val = _tiny_split()
        proxies = [
            build_proxy(train, val, ProxySpec(kind="full"), target_epochs=2),
            build_proxy(train, val, ProxySpec(kind="random_all", fraction=0.5, seed=0), target_epochs=2),
            build_proxy(train, val, ProxySpec(kind="fewer_epochs", epochs=1), target_epochs=2),
            build_proxy(train, val, ProxySpec(kind="random_all", fraction=1.0, seed=0), target_epochs=2),  # every id
            build_proxy(train, val, ProxySpec(kind="half_classes", class_set=(0, 1)), target_epochs=2),
        ]
        grid = generate_grid(GridSpec(defaults=FAST, variations={"learning_rate": [0.01, 0.001], "depth": ["large"]}))
        units = [cells for _, _, cells in plan_runs(train, val, proxies, grid, ResultStore(tmp_path / "r.jsonl"), 0)]
        ids = {m.proxy_id: i for i, m in enumerate(proxies)}
        rank = {config_id(c): i for i, c in enumerate(grid)}
        assert [[(m.proxy_id, cfg.epochs) for m, cfg, _ in cells] for cells in units] == [
            [("full", 2)] * 3 + [("ep1", 1)] * 3 + [("random-1.0-s0", 2)] * 3,
            [("full", 2), ("ep1", 1), ("random-1.0-s0", 2)],
            [("random-0.5-s0", 2)] * 3,
            [("random-0.5-s0", 2)],
            [("half-0+1-f1.0", 2)] * 3,
            [("half-0+1-f1.0", 2)],
        ]
        for cells in units:
            assert len({stack_key(cfg) for _, cfg, _ in cells}) == 1
            order = [(ids[m.proxy_id], rank[cfg_id]) for m, _, cfg_id in cells]
            assert order == sorted(order)
        assert sum(len(cells) for cells in units) == len(proxies) * len(grid)

    def test_grid_large_shape_gives_each_of_two_workers_a_lone_cell(self, tmp_path):
        train, val = _tiny_split()
        proxies, grid = _grid_large_plan(train, val)
        units = [cells for _, _, cells in plan_runs(train, val, proxies, grid, ResultStore(tmp_path / "r.jsonl"), 0)]
        assert [len(cells) for cells in units] == [10, 2, 2, 5, 1, 1, 5, 1, 1]
        assert {u % 2 for u, cells in enumerate(units) if len(cells) == 1} == {0, 1}


    def test_units_carry_the_subsets_of_their_group(self, tmp_path):
        train, val = _tiny_split()
        proxies, grid = _grid_large_plan(train, val)
        units = plan_runs(train, val, proxies, grid, ResultStore(tmp_path / "r.jsonl"), 0)
        for sub_train, sub_val, cells in units:
            m = cells[0][0]
            assert np.array_equal(sub_train.ids, m.train_ids) and np.array_equal(sub_val.ids, m.val_ids)
            assert sub_train.id == train.id
        # one pair of subsets per group: full and ep3 share theirs
        assert len({(id(t), id(v)) for t, v, _ in units}) == 3

    def test_manifest_built_on_another_split_is_named(self, tmp_path):
        train, val = _tiny_split()
        other_train, other_val = split(synth_generate(SynthSpec(
            class_count=3, feature_dim=4, examples_per_class=20, class_separation=4.0, noise_scale_lo=0.2,
            noise_scale_hi=0.4, label_flip_fraction=0.0, seed=5)), val_fraction=0.2, seed=1)
        proxies = [build_proxy(train, val, ProxySpec(kind="full"), target_epochs=2),
                   build_proxy(other_train, other_val, ProxySpec(kind="random_all", fraction=0.5), target_epochs=2),
                   # faulty too, for another target budget: the first faulty manifest in manifest order is named
                   build_proxy(train, val, ProxySpec(kind="fewer_epochs", epochs=2), target_epochs=3)]
        with pytest.raises(ValueError, match=re.escape(
                "proxy manifest 'random-0.5-s0' was built on another split (another --global-seed or "
                "--val-fraction): ids not present in dataset")):
            plan_runs(train, val, proxies, [FAST], ResultStore(tmp_path / "r.jsonl"), 0)

    def test_units_come_in_the_cell_order_of_their_first_pending_cell(self, tmp_path):
        train, val = _tiny_split()
        full = build_proxy(train, val, ProxySpec(kind="full"), target_epochs=2)
        proxies = [full, build_proxy(train, val, ProxySpec(kind="random_all", fraction=0.5, seed=0), target_epochs=2),
                   build_proxy(train, val, ProxySpec(kind="fewer_epochs", epochs=1), target_epochs=2)]
        grid = generate_grid(GridSpec(defaults=FAST, variations={"learning_rate": [0.01]}))
        store = run_matrix(train, val, [full], grid, store=ResultStore(tmp_path / "r.jsonl"))
        units = [cells for _, _, cells in plan_runs(train, val, proxies, grid, store, 0)]
        # ep1 shares full's ids, but its cells come after random-0.5-s0's
        assert [[m.proxy_id for m, _, _ in cells] for cells in units] == [["random-0.5-s0"] * 2, ["ep1"] * 2]

    def test_two_manifests_with_one_proxy_id_are_refused_before_any_unit_runs(self, monkeypatch, tmp_path):
        import proxybench.orchestrator as orchestrator

        monkeypatch.setattr(orchestrator, "_run_unit", lambda *unit: pytest.fail("a unit ran"))
        train, val = _tiny_split()
        m = build_proxy(train, val, ProxySpec(kind="full"), target_epochs=2)
        grid = generate_grid(GridSpec(defaults=FAST, variations={"learning_rate": [0.01]}))
        with pytest.raises(ValueError, match="duplicate proxy id 'full'"):
            run_matrix(train, val, [m, m], grid, store=ResultStore(tmp_path / "r.jsonl"))
        assert list(tmp_path.iterdir()) == []


class TestRunMatrix:
    def test_full_matrix_shape(self, tmp_path):
        train, val = _tiny_split()
        proxies = [
            build_proxy(train, val, ProxySpec(kind="full"), target_epochs=2),
            build_proxy(train, val, ProxySpec(kind="random_all", fraction=0.5, seed=0), target_epochs=2),
        ]
        grid = generate_grid(GridSpec(defaults=FAST, variations={"learning_rate": [0.01], "optimizer": ["sgd"]}))
        store = run_matrix(train, val, proxies, grid, store=ResultStore(tmp_path / "results.jsonl"))
        assert len(store) == len(proxies) * len(grid)
        cfg_ids = {config_id(c) for c in grid}
        for (ds, proxy, cfg), rec in zip(store.keys(), store.records()):
            assert ds == train.id
            assert cfg in cfg_ids
            assert rec.cost_units > 0
            assert len(rec.epoch_val_acc) == 2

    def test_parallel_matches_serial(self, tmp_path):
        train, val = _tiny_split()
        proxies = [
            build_proxy(train, val, ProxySpec(kind="full"), target_epochs=2),
            build_proxy(train, val, ProxySpec(kind="fewer_epochs", epochs=1), target_epochs=2),
        ]
        grid = generate_grid(GridSpec(defaults=FAST, variations={"learning_rate": [0.01, 0.001]}))
        serial = run_matrix(train, val, proxies, grid, parallelism=1, store=ResultStore(tmp_path / "serial.jsonl"))
        parallel = run_matrix(train, val, proxies, grid, parallelism=8, store=ResultStore(tmp_path / "parallel.jsonl"))
        assert list(serial.keys()) == list(parallel.keys())
        for a, b in zip(serial.records(), parallel.records()):
            assert a.epoch_val_acc == b.epoch_val_acc
            assert a.best_val_acc == b.best_val_acc
            assert a.seed == b.seed

    def test_resume_skips_existing_cells(self, tmp_path):
        train, val = _tiny_split()
        proxies = [build_proxy(train, val, ProxySpec(kind="full"), target_epochs=2)]
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
        proxies = [build_proxy(train, val, ProxySpec(kind="full"), target_epochs=2)]
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

    def test_one_subset_per_manifest(self, monkeypatch, tmp_path):
        import proxybench.orchestrator as orchestrator

        calls = []
        real = orchestrator.subset_by_ids

        def counting(d, ids):
            calls.append(len(ids))
            return real(d, ids)

        monkeypatch.setattr(orchestrator, "subset_by_ids", counting)
        train, val = _tiny_split()
        proxies = [
            build_proxy(train, val, ProxySpec(kind="full"), target_epochs=2),
            build_proxy(train, val, ProxySpec(kind="random_all", fraction=0.5, seed=0), target_epochs=2),
        ]
        grid = generate_grid(GridSpec(defaults=FAST, variations={"learning_rate": [0.01, 0.001]}))
        store = run_matrix(train, val, proxies, grid, store=ResultStore(tmp_path / "results.jsonl"))
        assert len(store) == 6
        assert calls == [len(train), len(val), len(proxies[1].train_ids), len(val)]
        # a resume that has every cell still resolves each manifest against the split
        calls.clear()
        run_matrix(train, val, proxies, grid, store=store)
        assert calls == [len(train), len(val), len(proxies[1].train_ids), len(val)]

    def test_reduced_epochs_keep_grid_config_identity(self, tmp_path):
        train, val = _tiny_split()
        proxies = [
            build_proxy(train, val, ProxySpec(kind="full"), target_epochs=2),
            build_proxy(train, val, ProxySpec(kind="fewer_epochs", epochs=1), target_epochs=2),
        ]
        grid = [FAST]
        store = run_matrix(train, val, proxies, grid, store=ResultStore(tmp_path / "results.jsonl"))
        cid = config_id(FAST)
        full_rec = store.get((train.id, "full", cid))
        ep_rec = store.get((train.id, "ep1", cid))
        assert full_rec is not None and ep_rec is not None
        assert len(full_rec.epoch_val_acc) == 2
        assert len(ep_rec.epoch_val_acc) == 1  # manifest budget applied
        assert ep_rec.config_id == cid  # but identity is the grid config's

    def test_divergent_run_lands_in_store_as_aborted(self, tmp_path):
        from proxybench.dataset import Dataset

        train, val = _tiny_split()
        # Feature scale 1e60 with an absurd learning rate overflows the
        # output layer to inf on the very first update, for any seed.
        blown = Dataset(
            train.features * 1e60,
            train.labels,
            train.ids,
            class_count=train.class_count,
            id=train.id,
        )
        proxies = [build_proxy(blown, val, ProxySpec(kind="full"), target_epochs=2)]
        grid = [HyperparamConfig(epochs=2, stem_width_1=8, stem_width_2=8, optimizer="sgd", learning_rate=1e260)]
        store = run_matrix(blown, val, proxies, grid, store=ResultStore(tmp_path / "results.jsonl"))
        (rec,) = store.records()
        assert rec.status == "aborted"
        assert len(rec.epoch_val_acc) == 2

    def test_record_holds_its_cell_and_its_run(self, tmp_path):
        train, val = _tiny_split()
        proxies = [
            build_proxy(train, val, ProxySpec(kind="full"), target_epochs=3),
            build_proxy(train, val, ProxySpec(kind="fewer_epochs", epochs=2), target_epochs=3),
            build_proxy(train, val, ProxySpec(kind="random_all", fraction=0.5, seed=0), target_epochs=3),
        ]
        grid = generate_grid(GridSpec(defaults=replace(FAST, epochs=3), variations={"learning_rate": [0.01]}))
        store = run_matrix(train, val, proxies, grid, global_seed=4, store=ResultStore(tmp_path / "results.jsonl"))
        for m in proxies:
            sub_train, sub_val = subset_by_ids(train, m.train_ids), subset_by_ids(val, m.val_ids)
            for cfg in grid:
                key = (train.id, m.proxy_id, config_id(cfg))
                rec = store.get(key)
                (run,) = train_model(sub_train, sub_val, [replace(cfg, seed=run_seed(*key, 4), epochs=m.epochs)])
                assert (rec.dataset_id, rec.proxy_id, rec.config_id, rec.seed) == (*key, run.config.seed)
                assert (rec.epoch_val_acc, rec.status) == (run.epoch_val_acc, run.status)
                assert rec.best_val_acc == max(run.epoch_val_acc)
                assert rec.cost_units == cell_cost(m) == len(m.train_ids) * m.epochs
        assert {rec.cost_units for rec in store.records()} == {48.0 * 3, 48.0 * 2, 24.0 * 3}  # 48 training rows, half of them for random_all

    def test_stacked_cells_append_in_cell_order_with_solo_records(self, tmp_path):
        import proxybench.orchestrator as orchestrator

        train, val = _tiny_split()
        proxies = [
            build_proxy(train, val, ProxySpec(kind="full"), target_epochs=2),
            build_proxy(train, val, ProxySpec(kind="fewer_epochs", epochs=1), target_epochs=2),
        ]
        # stackable and lone configs interleaved in grid order
        grid = generate_grid(GridSpec(defaults=FAST, variations={
            "batch_size": [8], "learning_rate": [0.01], "depth": ["small"], "optimizer": ["sgd", "rmsprop"],
        }))
        store = run_matrix(train, val, proxies, grid, parallelism=2, store=ResultStore(tmp_path / "results.jsonl"))
        assert list(store.keys()) == [(train.id, m.proxy_id, config_id(c)) for m in proxies for c in grid]
        for m in proxies:
            sub_train, sub_val = subset_by_ids(train, m.train_ids), subset_by_ids(val, m.val_ids)
            for cfg in grid:
                rec = store.get((train.id, m.proxy_id, config_id(cfg)))
                run_cfg = replace(cfg, seed=rec.seed, epochs=m.epochs)
                assert [rec] == orchestrator._run_unit(sub_train, sub_val, [(m, run_cfg, config_id(cfg))])

    def test_stacks_never_exceed_the_cap(self, monkeypatch, tmp_path):
        import proxybench.orchestrator as orchestrator

        sizes = []
        real = orchestrator.train_model

        def recording(train, val, configs):
            sizes.append(len(configs))
            return real(train, val, configs)

        monkeypatch.setattr(orchestrator, "train_model", recording)
        train, val = _tiny_split()
        proxies = [
            build_proxy(train, val, ProxySpec(kind="full"), target_epochs=2),
            build_proxy(train, val, ProxySpec(kind="fewer_epochs", epochs=1), target_epochs=2),
        ]
        rates = [0.0005, 0.001, 0.002, 0.005, 0.007, 0.02, 0.03, 0.05, 0.1, 0.2, 0.3]
        grid = generate_grid(GridSpec(defaults=FAST, variations={"learning_rate": rates, "depth": ["large"]}))
        store = run_matrix(train, val, proxies, grid, store=ResultStore(tmp_path / "results.jsonl"))
        assert len(store) == 26
        # 12 compatible cells per manifest, 24 over both, then the two depth cells
        assert orchestrator._STACK_CAP == 10
        assert sizes == [10, 10, 4, 2]

    def test_unit_u_runs_on_worker_u_mod_n(self, monkeypatch, tmp_path):
        import proxybench.orchestrator as orchestrator

        ran = []  # (thread, first cell's proxy and config id) per unit, as each starts
        real = orchestrator._run_unit

        def recording(sub_train, sub_val, cells):
            ran.append((threading.get_ident(), (cells[0][0].proxy_id, cells[0][2])))
            return real(sub_train, sub_val, cells)

        monkeypatch.setattr(orchestrator, "_run_unit", recording)
        trained = []  # (thread, first config, first run's status) per train_model call
        real_model = orchestrator.train_model

        def recording_model(sub_train, sub_val, configs):
            runs = real_model(sub_train, sub_val, configs)
            trained.append((threading.get_ident(), configs[0], runs[0].status))
            return runs

        monkeypatch.setattr(orchestrator, "train_model", recording_model)
        train, val = _tiny_split()
        proxies, grid = _grid_large_plan(train, val)
        units = [cells for _, _, cells in plan_runs(train, val, proxies, grid, ResultStore(tmp_path / "plan.jsonl"), 0)]
        store = run_matrix(train, val, proxies, grid, parallelism=2, store=ResultStore(tmp_path / "r.jsonl"))
        assert len(store) == 28
        first = {(cells[0][0].proxy_id, cells[0][2]): u for u, cells in enumerate(units)}
        workers = {}
        for thread, cell in ran:
            workers.setdefault(thread, []).append(first[cell])
        assert sorted(workers.values()) == [[0, 2, 4, 6, 8], [1, 3, 5, 7]]
        # Every unit enters train_model once, on its worker, and the first run it returns has a status:
        # a tracer follows the grid's runs, threads and aborts through these calls.
        assert len(trained) == len(units)
        assert {(thread, cfg) for thread, cfg, _ in trained} == {
            (thread, units[u][0][1]) for thread, us in workers.items() for u in us}
        assert len({thread for thread, _, _ in trained}) == 2
        assert {status for _, _, status in trained} <= {"ok", "aborted"}

    @staticmethod
    def _fake_units(monkeypatch, units, release, failing=None, error=None, held=()):
        """Replaces _run_unit. Unit `failing` sets release and raises error; a unit in held waits for
        release, and a moment more for the failure to reach run_matrix; any other unit returns at once.
        Each returns a record per cell. Returns the list of units in the order they started."""
        import proxybench.orchestrator as orchestrator

        first = {(cells[0][0].proxy_id, cells[0][2]): u for u, cells in enumerate(units)}
        started = []

        def fake(sub_train, sub_val, cells):
            u = first[(cells[0][0].proxy_id, cells[0][2])]
            started.append(u)
            if u == failing:
                release.set()
                raise error
            if u in held:
                assert release.wait(timeout=10)
                time.sleep(0.05)
            return [RunRecord(sub_train.id, m.proxy_id, key, cfg.seed, [0.5], 0.5, 1.0) for m, cfg, key in cells]

        monkeypatch.setattr(orchestrator, "_run_unit", fake)
        return started

    @staticmethod
    def _plan(tmp_path):
        """The grid-large-shaped plan: units of 10, 2, 2, 5, 1, 1, 5, 1 and 1 cells."""
        train, val = _tiny_split()
        proxies, grid = _grid_large_plan(train, val)
        units = [cells for _, _, cells in plan_runs(train, val, proxies, grid, ResultStore(tmp_path / "plan.jsonl"), 0)]
        return train, val, proxies, grid, units

    def test_a_failed_unit_starts_no_later_unit(self, monkeypatch, tmp_path):
        train, val, proxies, grid, units = self._plan(tmp_path)
        started = self._fake_units(monkeypatch, units, threading.Event(), failing=1, error=RuntimeError("unit 1"))
        store = ResultStore(tmp_path / "r.jsonl")
        with pytest.raises(RuntimeError, match="unit 1"):
            run_matrix(train, val, proxies, grid, parallelism=1, store=store)
        assert started == [0, 1]
        # unit 0 holds the first five cells in cell order: full's default-shape configs
        assert [key for _, _, key in store.keys()] == [config_id(c) for c in grid[:5]]

    def test_a_failed_unit_stops_each_worker_after_its_running_unit(self, monkeypatch, tmp_path):
        # Unit 3 fails on worker 1 while worker 0 still runs unit 0. Worker 0 then skips unit 2, which
        # the main thread reaches before unit 3; the error raised is still unit 3's.
        train, val, proxies, grid, units = self._plan(tmp_path)
        started = self._fake_units(monkeypatch, units, threading.Event(), failing=3, error=RuntimeError("unit 3"),
                                   held={0})
        store = ResultStore(tmp_path / "r.jsonl")
        with pytest.raises(RuntimeError, match="unit 3"):
            run_matrix(train, val, proxies, grid, parallelism=2, store=store)
        assert sorted(started) == [0, 1, 3]
        assert [key for _, _, key in store.keys()] == [config_id(c) for c in grid[:6]]  # full's cells in units 0, 1

    def test_keyboard_interrupt_in_a_unit_takes_the_same_path(self, monkeypatch, tmp_path):
        train, val, proxies, grid, units = self._plan(tmp_path)
        started = self._fake_units(monkeypatch, units, threading.Event(), failing=0, error=KeyboardInterrupt())
        with pytest.raises(KeyboardInterrupt):
            run_matrix(train, val, proxies, grid, parallelism=1, store=ResultStore(tmp_path / "r.jsonl"))
        assert started == [0]

    def test_keyboard_interrupt_in_the_main_thread_stops_the_units_not_started(self, monkeypatch, tmp_path):
        # Ctrl-C lands while the first record is appended; units 1 and 2 may have started, and are held till then.
        train, val, proxies, grid, units = self._plan(tmp_path)
        interrupted = threading.Event()
        started = self._fake_units(monkeypatch, units, interrupted, held=set(range(1, len(units))))
        store = ResultStore(tmp_path / "r.jsonl")

        def append(record):
            interrupted.set()
            raise KeyboardInterrupt

        monkeypatch.setattr(store, "append", append)
        with pytest.raises(KeyboardInterrupt):
            run_matrix(train, val, proxies, grid, parallelism=2, store=store)
        assert 0 in started and set(started) <= {0, 1, 2}

    def test_empty_grid_rejected(self, tmp_path):
        train, val = _tiny_split()
        with pytest.raises(ValueError, match="empty grid"):
            run_matrix(train, val, [], [], store=ResultStore(tmp_path / "results.jsonl"))

    def test_grid_configs_of_unequal_epochs_rejected(self, tmp_path):
        train, val = _tiny_split()
        proxies = [build_proxy(train, val, ProxySpec(kind="full"), target_epochs=2)]
        with pytest.raises(ValueError, match=r"different epoch counts \[1, 2\]"):
            run_matrix(train, val, proxies, [FAST, replace(FAST, epochs=1, learning_rate=0.01)],
                       store=ResultStore(tmp_path / "results.jsonl"))

    @pytest.mark.parametrize("spec, target", [
        (ProxySpec(kind="random_all", fraction=0.5), 20),  # would train 20 epochs against the full run's 2
        (ProxySpec(kind="full"), 1),
        (ProxySpec(kind="fewer_epochs", epochs=2), 3),  # not fewer than the grid's 2
    ])
    def test_manifest_for_another_target_budget_rejected(self, tmp_path, spec, target):
        train, val = _tiny_split()
        proxies = [
            build_proxy(train, val, ProxySpec(kind="full"), target_epochs=2),
            build_proxy(train, val, spec, target_epochs=target),
        ]
        path = tmp_path / "results.jsonl"
        with pytest.raises(ValueError, match=f"'{proxies[1].proxy_id}'.*--target-epochs 2"):
            run_matrix(train, val, proxies, [FAST], store=ResultStore(path=path))
        assert not path.exists()  # refused before any cell ran
