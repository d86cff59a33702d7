"""Difficulty scoring and quantile slicing, checked against a brute-force
sort oracle that recomputes everything from first principles."""

import math
from fractions import Fraction

import numpy as np
import pytest

from proxybench.dataset import SynthSpec, split, synth_generate
from proxybench.difficulty import DifficultyTable, load_table, quantile_slice, save_table, score_examples
from proxybench.trainer import HyperparamConfig, init_params, train_model


def _table(losses, ids=None):
    ids = ids if ids is not None else range(len(losses))
    entries = sorted(zip(ids, losses), key=lambda e: (-e[1], e[0]))
    return DifficultyTable(entries=tuple(entries), dataset_id="d", scoring_config_id="c")


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
        assert all(loss == pytest.approx(math.log(5), abs=1e-12) for _, loss in table.entries)
        assert table.dataset_id == d.id

    def test_scoring_is_deterministic(self):
        d = synth_generate(
            SynthSpec(class_count=3, feature_dim=4, examples_per_class=15,
                      class_separation=3.0, noise_scale_lo=0.1, noise_scale_hi=1.0, seed=2)
        )
        params = init_params(HyperparamConfig(stem_width_1=8, stem_width_2=8, seed=4), 4, 3)
        assert score_examples(params, d).entries == score_examples(params, d).entries

    def test_feature_dim_mismatch_rejected(self):
        d = synth_generate(
            SynthSpec(class_count=3, feature_dim=4, examples_per_class=5,
                      class_separation=3.0, noise_scale_lo=0.1, noise_scale_hi=1.0, seed=2)
        )
        params = init_params(HyperparamConfig(stem_width_1=8, stem_width_2=8), 9, 3)
        with pytest.raises(ValueError, match="feature dim"):
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
        _, params = train_model(train, val, cfg)
        table = score_examples(params, train)
        flipped_in_train = flipped & train.id_set()
        hardest = {ex_id for ex_id, _ in table.entries[: len(flipped_in_train)]}
        assert hardest == flipped_in_train


class TestTableInvariants:
    def test_rejects_unsorted_entries(self):
        with pytest.raises(ValueError, match="rank order"):
            DifficultyTable(entries=((0, 1.0), (1, 2.0)), dataset_id="d", scoring_config_id="c")

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError, match="duplicate"):
            DifficultyTable(entries=((0, 2.0), (0, 1.0)), dataset_id="d", scoring_config_id="c")

    def test_rejects_non_finite_or_negative_losses(self):
        with pytest.raises(ValueError):
            _table([1.0, float("inf")])
        with pytest.raises(ValueError):
            _table([1.0, -0.5])


class TestQuantileSlice:
    def test_easiest_ten_percent_of_ten(self):
        table = _table(losses=[10, 9, 8, 7, 6, 5, 4, 3, 2, 1])
        assert quantile_slice(table, 0.9, 1.0) == [9]  # the id of loss 1

    def test_full_range_returns_everything(self):
        table = _table(losses=[3.0, 1.0, 2.0])
        assert set(quantile_slice(table, 0.0, 1.0)) == {0, 1, 2}

    def test_halves_partition_the_ids(self):
        table = _table(losses=list(np.random.default_rng(0).random(17)))
        a = quantile_slice(table, 0.0, 0.5)
        b = quantile_slice(table, 0.5, 1.0)
        assert set(a) & set(b) == set()
        assert set(a) | set(b) == set(range(17))

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
            assert quantile_slice(table, lo, hi) == _oracle_slice(ids, losses, lo, hi)

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
            assert quantile_slice(a, lo, hi) == quantile_slice(b, lo, hi)

    def test_ties_break_by_ascending_id(self):
        table = _table(losses=[1.0, 1.0, 1.0, 1.0], ids=[30, 10, 20, 40])
        assert quantile_slice(table, 0.0, 0.5) == [10, 20]

    def test_bad_bounds_rejected(self):
        table = _table(losses=[1.0, 2.0])
        for lo, hi in [(0.5, 0.5), (0.7, 0.2), (-0.1, 0.5), (0.5, 1.1)]:
            with pytest.raises(ValueError):
                quantile_slice(table, lo, hi)

    def test_empty_table_rejected(self):
        empty = DifficultyTable(entries=(), dataset_id="d", scoring_config_id="c")
        with pytest.raises(ValueError, match="empty"):
            quantile_slice(empty, 0.0, 1.0)


class TestPersistence:
    def test_csv_round_trip_is_exact(self, tmp_path):
        losses = [1 / 3, 0.1 + 0.2, 2.0, 1e-15]
        table = _table(losses)
        p = tmp_path / "scores.csv"
        save_table(table, p)
        loaded = load_table(p)
        assert loaded.entries == table.entries  # bitwise float equality
        assert loaded.dataset_id == "d"
        assert loaded.scoring_config_id == "c"

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_table(tmp_path / "none.csv")

    def test_missing_sidecar_is_named(self, tmp_path):
        p = tmp_path / "scores.csv"
        save_table(_table([1.0, 2.0]), p)
        p.with_suffix(".json").unlink()
        with pytest.raises(FileNotFoundError, match=r"sidecar not found: .*scores\.json"):
            load_table(p)
