"""Difficulty scoring and quantile slicing, checked against a brute-force
sort oracle that recomputes everything from first principles."""

import json
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from proxybench.dataset import Dataset, SynthSpec, split, synth_generate
from proxybench.difficulty import DifficultyTable, load_table, quantile_slice, save_table, score_examples
from proxybench.trainer import HyperparamConfig, ModelParams, init_params, train_model


def _table(losses, ids=None):
    ids = ids if ids is not None else range(len(losses))
    entries = sorted(zip(ids, losses), key=lambda e: (-e[1], e[0]))
    return DifficultyTable(ids=[i for i, _ in entries], losses=[l for _, l in entries],
                           dataset_id="d", scoring_config_id="c")


def _oracle_slice(ids, losses, lo, hi):
    """Independent reimplementation: explicit sort, exact rational bounds."""
    ranked = sorted(zip(ids, losses), key=lambda e: (-e[1], e[0]))
    n = len(ranked)
    r_lo = math.floor(Fraction(str(lo)) * n)
    r_hi = math.floor(Fraction(str(hi)) * n)
    return [ex_id for ex_id, _ in ranked[r_lo:r_hi]]


class TestScoreExamples:
    def test_zero_weight_model_scores_ln_k_everywhere(self):
        d = synth_generate(
            SynthSpec(class_count=5, feature_dim=4, examples_per_class=10,
                      class_separation=2.0, noise_scale_lo=0.1, noise_scale_hi=0.5, seed=0)
        )
        params = init_params(HyperparamConfig(stem_width_1=8, stem_width_2=8), 4, 5)
        for w in params.weights:
            w[:] = 0.0
        table = score_examples(params, d)
        assert np.allclose(table.losses, math.log(5), rtol=0, atol=1e-12)
        assert np.array_equal(table.ids, np.sort(d.ids))  # all tied, so ranked by ascending id
        assert table.dataset_id == d.id

    def test_scoring_is_deterministic(self):
        d = synth_generate(
            SynthSpec(class_count=3, feature_dim=4, examples_per_class=15,
                      class_separation=3.0, noise_scale_lo=0.1, noise_scale_hi=1.0, seed=2)
        )
        params = init_params(HyperparamConfig(stem_width_1=8, stem_width_2=8, seed=4), 4, 3)
        a, b = score_examples(params, d), score_examples(params, d)
        assert np.array_equal(a.ids, b.ids)
        assert a.losses.tobytes() == b.losses.tobytes()

    def test_ranking_matches_a_sort_of_id_loss_pairs(self):
        # every example appears twice under two shuffled ids, so every loss is tied
        base = synth_generate(SynthSpec(class_count=3, feature_dim=4, examples_per_class=20, class_separation=1.0,
                                        noise_scale_lo=0.3, noise_scale_hi=1.5, seed=6))
        ids = np.random.default_rng(1).permutation(2 * len(base)) * 7
        d = Dataset(np.concatenate([base.features] * 2), np.concatenate([base.labels] * 2), ids,
                    class_count=3)
        params = init_params(HyperparamConfig(stem_width_1=8, stem_width_2=8, seed=2), 4, 3)
        table = score_examples(params, d)
        loss_of = dict(zip(table.ids.tolist(), table.losses.tolist()))
        ranked = sorted(loss_of.items(), key=lambda e: (-e[1], e[0]))
        assert sorted(loss_of) == sorted(ids.tolist())
        assert table.ids.tolist() == [i for i, _ in ranked]

    def test_feature_dim_mismatch_rejected(self):
        d = synth_generate(
            SynthSpec(class_count=3, feature_dim=4, examples_per_class=5,
                      class_separation=3.0, noise_scale_lo=0.1, noise_scale_hi=1.0, seed=2)
        )
        params = init_params(HyperparamConfig(stem_width_1=8, stem_width_2=8), 9, 3)
        with pytest.raises(ValueError, match="feature dim"):
            score_examples(params, d)

    def test_stack_of_two_models_is_refused(self):
        d = synth_generate(SynthSpec(class_count=3, feature_dim=4, examples_per_class=5, class_separation=3.0,
                                     noise_scale_lo=0.1, noise_scale_hi=1.0, seed=2))
        one = init_params(HyperparamConfig(stem_width_1=8, stem_width_2=8), 4, 3)
        two = ModelParams(one.sizes, np.concatenate([one.flat, one.flat]))
        with pytest.raises(ValueError, match=r"^score_examples takes a stack of one model, got k=2$"):
            score_examples(two, d)

    def test_empty_set_is_refused(self):
        d = Dataset(np.zeros((0, 4)), [], [], class_count=3)
        params = init_params(HyperparamConfig(stem_width_1=8, stem_width_2=8), 4, 3)
        with pytest.raises(ValueError, match="^cannot score an empty dataset$"):
            score_examples(params, d)

    def test_mislabeled_examples_rank_hardest(self):
        # zero noise makes classes perfectly separable, so after training the
        # only high-loss examples are the deliberately flipped labels
        base = dict(class_count=4, feature_dim=8, examples_per_class=60,
                    class_separation=6.0, noise_scale_lo=0.0, noise_scale_hi=0.0, seed=5)
        clean = synth_generate(SynthSpec(**base))
        noisy = synth_generate(SynthSpec(**base, label_flip_fraction=0.1))
        flipped = set(clean.ids[clean.labels != noisy.labels].tolist())
        assert len(flipped) == 24

        train, val = split(noisy, 0.1, seed=0)
        cfg = HyperparamConfig(epochs=10, stem_width_1=16, stem_width_2=16)
        table = score_examples(train_model(train, val, [cfg])[0].params, train)
        flipped_in_train = flipped & set(train.ids.tolist())
        hardest = set(table.ids[: len(flipped_in_train)].tolist())
        assert hardest == flipped_in_train


    def test_peak_memory_is_below_all_layer_outputs(self):
        # a whole-set forward pass holds a layer's output and the one below it, never all of them
        d = synth_generate(SynthSpec(class_count=4, feature_dim=8, examples_per_class=1_250, class_separation=3.0,
                                     noise_scale_lo=0.3, noise_scale_hi=0.6))
        params = init_params(HyperparamConfig(depth="large", stem_width_1=64, stem_width_2=64), 8, 4)
        all_outputs = len(d) * sum(params.sizes[1:]) * 8
        tracemalloc.start()
        try:
            score_examples(params, d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < all_outputs, f"peak {peak} bytes, all layer outputs {all_outputs}"


class TestTableInvariants:
    def test_rejects_unsorted_entries(self):
        with pytest.raises(ValueError, match="rank order"):
            DifficultyTable(ids=(0, 1), losses=(1.0, 2.0), dataset_id="d", scoring_config_id="c")
        with pytest.raises(ValueError, match="rank order"):  # a tie must list the lower id first
            DifficultyTable(ids=(1, 0), losses=(1.0, 1.0), dataset_id="d", scoring_config_id="c")

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError, match="duplicate"):
            DifficultyTable(ids=(0, 0), losses=(2.0, 1.0), dataset_id="d", scoring_config_id="c")
        with pytest.raises(ValueError, match="duplicate"):
            DifficultyTable(ids=(0, 0), losses=(1.0, 1.0), dataset_id="d", scoring_config_id="c")

    def test_rejects_misaligned_ids_and_losses(self):
        with pytest.raises(ValueError, match="aligned"):
            DifficultyTable(ids=(0, 1), losses=(1.0,), dataset_id="d", scoring_config_id="c")

    def test_arrays_are_read_only_copies(self):
        losses = np.array([2.0, 1.0])
        table = DifficultyTable(ids=[0, 1], losses=losses, dataset_id="d", scoring_config_id="c")
        losses[0] = 0.0
        assert table.losses.tolist() == [2.0, 1.0]
        with pytest.raises(ValueError, match="read-only"):
            table.ids[0] = 5

    @pytest.mark.parametrize("ids, message", [
        ([1.5, 2.7], "ids[0] must be an integer, got 1.5"),
        (np.array([1.0, 2.0]), "ids must hold integers, got an array of float64"),
        ((True, False), "ids[0] must be an integer, got True"),
    ], ids=["floats", "float_array", "bools"])
    def test_float_or_bool_ids_are_refused_not_truncated(self, ids, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            DifficultyTable(ids=ids, losses=[2.0, 1.0], dataset_id="d", scoring_config_id="c")

    def test_rejects_non_finite_or_negative_losses(self):
        with pytest.raises(ValueError):
            _table([1.0, float("inf")])
        with pytest.raises(ValueError):
            _table([1.0, -0.5])


class TestQuantileSlice:
    def test_easiest_ten_percent_of_ten(self):
        table = _table(losses=[10, 9, 8, 7, 6, 5, 4, 3, 2, 1])
        assert quantile_slice(table, 0.9, 1.0).tolist() == [9]  # the id of loss 1

    def test_full_range_returns_everything(self):
        table = _table(losses=[3.0, 1.0, 2.0])
        assert set(quantile_slice(table, 0.0, 1.0).tolist()) == {0, 1, 2}

    def test_halves_partition_the_ids(self):
        table = _table(losses=list(np.random.default_rng(0).random(17)))
        a = set(quantile_slice(table, 0.0, 0.5).tolist())
        b = set(quantile_slice(table, 0.5, 1.0).tolist())
        assert a & b == set()
        assert a | b == set(range(17))

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(42)
        for trial in range(50):
            n = int(rng.integers(1, 400))
            # integer losses force plenty of ties
            losses = [float(v) for v in rng.integers(0, max(2, n // 3), size=n)]
            ids = [int(i) for i in rng.permutation(n)]
            table = _table(losses, ids)
            lo, hi = sorted(float(v) for v in rng.integers(0, 101, size=2) / 100.0)
            if lo == hi:
                continue
            assert quantile_slice(table, lo, hi).tolist() == _oracle_slice(ids, losses, lo, hi)

    def test_cardinality_is_exact(self):
        # floor must use the decimal value of the bound, not its binary float
        table = _table(losses=list(range(10)))
        assert len(quantile_slice(table, 0.0, 0.3)) == 3
        assert len(quantile_slice(table, 0.3, 0.7)) == 4
        assert len(quantile_slice(table, 0.7, 1.0)) == 3

    def test_scaling_losses_leaves_slices_unchanged(self):
        losses = list(np.random.default_rng(1).random(40))
        a = _table(losses)
        b = _table([l * 73.5 for l in losses])
        for lo, hi in [(0.0, 0.25), (0.1, 0.9), (0.5, 1.0)]:
            assert np.array_equal(quantile_slice(a, lo, hi), quantile_slice(b, lo, hi))

    def test_ties_break_by_ascending_id(self):
        table = _table(losses=[1.0, 1.0, 1.0, 1.0], ids=[30, 10, 20, 40])
        assert quantile_slice(table, 0.0, 0.5).tolist() == [10, 20]

    def test_bad_bounds_rejected(self):
        table = _table(losses=[1.0, 2.0])
        for lo, hi in [(0.5, 0.5), (0.7, 0.2), (-0.1, 0.5), (0.5, 1.1)]:
            with pytest.raises(ValueError):
                quantile_slice(table, lo, hi)

    def test_empty_table_rejected(self):
        empty = DifficultyTable(ids=(), losses=(), dataset_id="d", scoring_config_id="c")
        with pytest.raises(ValueError, match="empty"):
            quantile_slice(empty, 0.0, 1.0)


def _saved(tmp_path, table, edit=lambda text: text):
    """table saved as tmp_path/scores.json, its text then edited."""
    p = tmp_path / "scores.json"
    save_table(table, p)
    p.write_text(edit(p.read_text()))
    return p


def _set(key, i, value):
    """An edit of a saved table's text: item i of the list at key set to value."""
    def edit(text):
        payload = json.loads(text)
        payload[key][i] = value
        return json.dumps(payload)
    return edit


class TestPersistence:
    def test_round_trip_is_exact(self, tmp_path):
        table = DifficultyTable(ids=[3, 1, 0, 2], losses=[2.0, 1 / 3, 0.1 + 0.2, 1e-15], dataset_id="d",
                                scoring_config_id="c", dataset_sha256="ab" * 32)
        p = tmp_path / "scores.json"
        save_table(table, p)
        loaded = load_table(p)
        assert np.array_equal(loaded.ids, table.ids)
        assert loaded.losses.tobytes() == table.losses.tobytes()  # bitwise float equality
        assert (loaded.dataset_id, loaded.scoring_config_id, loaded.dataset_sha256) == ("d", "c", "ab" * 32)
        payload = json.loads(p.read_text())
        assert list(payload) == ["ids", "losses", "dataset_id", "scoring_config_id", "dataset_sha256"]
        assert p.read_text() == json.dumps(payload, indent=2) + "\n"
        assert [q.name for q in tmp_path.iterdir()] == ["scores.json"]  # one file, no sidecar

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_table(tmp_path / "none.json")

    def test_row_without_two_fields_is_named_with_the_file(self, tmp_path):
        def drop_last_loss(text):
            payload = json.loads(text)
            return json.dumps({**payload, "losses": payload["losses"][:-1]})

        p = _saved(tmp_path, _table([1.0, 2.0, 3.0]), drop_last_loss)
        with pytest.raises(ValueError) as info:
            load_table(p)
        assert str(info.value) == f"{p}: need aligned (n,) ids and losses, got shapes (3,), (2,)"

    # the JSON parser names the line of a syntax error, the type check a value's key and index
    @pytest.mark.parametrize("edit, message", [
        (lambda text: "example_id,loss\r\n2,3.0\r\n", "Expecting value: line 1 column 1 (char 0)"),
        (_set("ids", 2, 1.5), "ids[2] must be an integer, got 1.5"),
        (_set("losses", 2, "x"), "losses[2] must be a finite number, got 'x'"),
    ], ids=["header", "id", "loss"])
    def test_bad_header_or_value_is_named_with_the_file_and_line(self, tmp_path, edit, message):
        p = _saved(tmp_path, _table([1.0, 2.0, 3.0]), edit)
        with pytest.raises(ValueError) as info:
            load_table(p)
        assert str(info.value) == f"{p}: {message}"

    @pytest.mark.parametrize("rows, message", [
        (lambda rows: [rows[1], rows[0], *rows[2:]], "entries not in rank order (loss desc, id asc)"),
        (lambda rows: [rows[0], rows[0], *rows[2:]], "duplicate example ids in difficulty table"),
        (lambda rows: [*rows[:-1], (2, -1.0)], "difficulty losses must be finite and non-negative"),
        (lambda rows: [(2**63, rows[0][1]), *rows[1:]], "ids holds an example id outside the int64 range"),
    ])
    def test_bad_rows_are_named_with_the_file(self, tmp_path, rows, message):
        def edit(text):
            payload = json.loads(text)
            ids, losses = zip(*rows(list(zip(payload["ids"], payload["losses"]))))
            return json.dumps({**payload, "ids": ids, "losses": losses})

        p = _saved(tmp_path, _table([3.0, 2.0, 1.0]), edit)
        with pytest.raises(ValueError) as info:
            load_table(p)
        assert str(info.value) == f"{p}: {message}"

    @pytest.mark.parametrize("text, message", [
        ('{"ids": [], "losses": [], "scoring_config_id": "c", "dataset_sha256": null}', "missing key 'dataset_id'"),
        ('["d", "c"]', "expected a JSON object, got list"),
        ('{"ids": [], "losses": [], "dataset_id": 5, "scoring_config_id": "c", "dataset_sha256": null}',
         "dataset_id must be a string, got 5"),
    ], ids=["missing_key", "not_an_object", "field_type"])
    def test_malformed_table_is_named(self, tmp_path, text, message):
        p = _saved(tmp_path, _table([1.0, 2.0]), lambda _: text)
        with pytest.raises(ValueError) as info:
            load_table(p)
        assert str(info.value) == f"{p}: {message}"

    def test_table_cut_off_mid_write_is_refused(self, tmp_path):
        p = _saved(tmp_path, _table([1.0, 2.0, 3.0]))
        whole = p.read_text()
        for end in range(len(whole.rstrip())):
            p.write_text(whole[:end])
            with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: "):
                load_table(p)
