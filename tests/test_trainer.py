"""Trainer tests. The load-bearing ones are the finite-difference oracle for
backprop and the determinism contracts train_model promises to the runner."""

import hashlib
import math

import numpy as np
import pytest

from proxybench.dataset import Dataset, SynthSpec, split, synth_generate
from proxybench.trainer import (
    DEPTH_EXTRA_LAYERS,
    GradientExplosion,
    HyperparamConfig,
    ModelParams,
    _gather_rows,
    config_id,
    evaluate_accuracy,
    forward_backward,
    gradient_check,
    init_opt_state,
    init_params,
    one_cycle_lr,
    optimizer_step,
    stack_key,
    train_model,
    train_stack,
)


def _small_data(seed=0, classes=3, dim=5, per_class=20, noise=0.6):
    spec = SynthSpec(
        class_count=classes,
        feature_dim=dim,
        examples_per_class=per_class,
        class_separation=3.0,
        noise_scale_lo=0.1,
        noise_scale_hi=noise,
        seed=seed,
    )
    return synth_generate(spec)


def _tiny_config(**kw):
    base = dict(stem_width_1=8, stem_width_2=8, epochs=2, batch_size=16)
    base.update(kw)
    return HyperparamConfig(**base)


class TestConfig:
    def test_defaults(self):
        cfg = HyperparamConfig()
        assert cfg.depth == "default"
        assert cfg.learning_rate == 0.003
        assert cfg.stem_width_1 == 32 and cfg.stem_width_2 == 32
        assert cfg.augment_prob == 0.5
        assert cfg.optimizer == "adam"
        assert cfg.label_smoothing is True

    def test_validation(self):
        with pytest.raises(ValueError):
            HyperparamConfig(depth="huge")
        with pytest.raises(ValueError):
            HyperparamConfig(learning_rate=-1.0)
        with pytest.raises(ValueError):
            HyperparamConfig(augment_prob=1.5)
        with pytest.raises(ValueError):
            HyperparamConfig(optimizer="lbfgs")
        with pytest.raises(ValueError):
            HyperparamConfig(epochs=0)

    def test_dict_round_trip(self):
        cfg = HyperparamConfig(depth="large", optimizer="sgd", seed=7)
        assert HyperparamConfig.from_dict(cfg.to_dict()) == cfg

    def test_config_id_ignores_seed_only(self):
        a = HyperparamConfig(seed=0)
        b = HyperparamConfig(seed=123)
        c = HyperparamConfig(learning_rate=0.004)
        assert config_id(a) == config_id(b)
        assert config_id(a) != config_id(c)
        assert len(config_id(a)) == 12


class TestSmoothedCrossEntropy:
    """The label-smoothed loss on one-row batches, where the mean is the row's loss."""

    @staticmethod
    def _one_row(logits, label, smoothing):
        # One identity layer with zero bias passes its input through as the
        # logits, so the bias gradient of a one-row batch is dloss/dlogits.
        k = len(logits)
        params = ModelParams([k, k])
        params.weights[0][:] = np.eye(k)
        loss, grads = forward_backward(params, np.array([logits], dtype=float), np.array([label]), smoothing)
        return loss, grads.biases[0].copy()

    def test_uniform_logits_give_ln_k(self):
        for smoothing in (False, True):
            loss, _ = self._one_row(np.zeros(10), 4, smoothing)
            assert loss == pytest.approx(math.log(10), abs=1e-12)

    def test_confident_correct_prediction_drives_loss_to_zero(self):
        logits = np.zeros(5)
        logits[2] = 200.0
        loss, _ = self._one_row(logits, 2, False)
        assert loss < 1e-12

    def test_smoothed_target_mass(self):
        # gradient = softmax - target, so target = softmax - gradient
        logits = np.array([0.3, -1.2, 2.0, 0.0])
        loss, grad = self._one_row(logits, 1, True)
        sm = np.exp(logits - logits.max())
        sm /= sm.sum()
        target = sm - grad
        assert target[1] == pytest.approx(0.9, abs=1e-12)
        assert np.allclose(np.delete(target, 1), 0.1 / 3)
        assert target.sum() == pytest.approx(1.0, abs=1e-12)

    def test_one_hot_target_without_smoothing(self):
        logits = np.array([0.5, 1.5, -0.5])
        _, grad = self._one_row(logits, 0, False)
        sm = np.exp(logits - logits.max())
        sm /= sm.sum()
        target = sm - grad
        assert target[0] == pytest.approx(1.0, abs=1e-12)
        assert abs(target[1]) < 1e-12 and abs(target[2]) < 1e-12


class TestForwardBackward:
    def test_zero_weight_network_is_uniform(self):
        d = _small_data()
        params = init_params(_tiny_config(), d.feature_dim, d.class_count)
        for w in params.weights:
            w[:] = 0.0
        loss, _ = forward_backward(params, d.features[:8], d.labels[:8], False)
        assert loss == pytest.approx(math.log(d.class_count), abs=1e-12)

    def test_duplicating_the_batch_changes_nothing(self):
        d = _small_data()
        params = init_params(_tiny_config(), d.feature_dim, d.class_count)
        x, y = d.features[:6], d.labels[:6]
        loss1, g1 = forward_backward(params, x, y, True)
        loss2, g2 = forward_backward(params, np.concatenate([x, x]), np.concatenate([y, y]), True)
        assert loss1 == pytest.approx(loss2, rel=1e-12)
        for a, b in zip(g1.weights, g2.weights):
            assert np.allclose(a, b, atol=1e-14)

    def test_matches_finite_differences(self):
        # spot check; the broad randomized sweep lives in the acceptance suite
        d = _small_data(seed=3)
        report = gradient_check(_tiny_config(depth="large"), d, n_coords=60, seed=1)
        assert report.passed, f"max relative error {report.max_rel_err}"

    def test_shape_mismatch_rejected(self):
        d = _small_data()
        params = init_params(_tiny_config(), d.feature_dim, d.class_count)
        with pytest.raises(ValueError):
            forward_backward(params, d.features[:4, :3], d.labels[:4], False)
        with pytest.raises(ValueError):
            forward_backward(params, d.features[:4], d.labels[:5], False)

    def test_given_buffer_is_overwritten_and_returned(self):
        d = _small_data()
        params = init_params(_tiny_config(), d.feature_dim, d.class_count)
        loss, fresh = forward_backward(params, d.features[:8], d.labels[:8], True)
        buf = ModelParams(params.sizes, np.full_like(params.flat, np.nan))
        loss_buf, out = forward_backward(params, d.features[:8], d.labels[:8], True, buf)
        assert out is buf
        assert loss_buf == loss
        assert np.array_equal(buf.flat, fresh.flat)

    def test_default_allocates_a_new_buffer_per_call(self):
        # gradient_check keeps the first call's gradients while calling again
        d = _small_data()
        params = init_params(_tiny_config(), d.feature_dim, d.class_count)
        _, g1 = forward_backward(params, d.features[:8], d.labels[:8], True)
        kept = g1.flat.copy()
        _, g2 = forward_backward(params, d.features[8:16], d.labels[8:16], True)
        assert g2.flat is not g1.flat
        assert np.array_equal(g1.flat, kept)


class TestGradientCheckHarness:
    def test_corrupted_gradient_fails(self):
        def corrupted(params, x, y, smoothing):
            loss, grads = forward_backward(params, x, y, smoothing)
            grads.weights[0] += 1e-2  # in place: the view writes through to grads.flat
            return loss, grads

        d = _small_data()
        report = gradient_check(_tiny_config(), d, n_coords=80, grad_fn=corrupted)
        assert not report.passed

    def test_zero_input_batch_passes_with_zero_first_layer_grads(self):
        d = _small_data()
        zero = Dataset(
            np.zeros((10, d.feature_dim)),
            d.labels[:10],
            d.ids[:10],
            d.class_count,
            d.feature_dim,
        )
        params = init_params(_tiny_config(), d.feature_dim, d.class_count)
        _, grads = forward_backward(params, zero.features, zero.labels, False)
        assert np.all(grads.weights[0] == 0.0)
        assert gradient_check(_tiny_config(), zero, n_coords=50).passed

    def test_refuses_oversized_networks(self):
        d = _small_data()
        with pytest.raises(ValueError, match="too large"):
            gradient_check(HyperparamConfig(stem_width_1=200, stem_width_2=200), d)


class TestFlatLayout:
    def test_layers_are_views_into_flat(self):
        params = init_params(_tiny_config(depth="large"), 5, 3)
        assert params.n_params() == params.flat.size
        assert params.n_params() == sum(w.size for w in params.weights) + sum(b.size for b in params.biases)
        for a in params.weights + params.biases:
            assert np.shares_memory(a, params.flat)
        # weights first, then biases, each in layer order
        expected = np.concatenate([w.ravel() for w in params.weights] + list(params.biases))
        assert np.array_equal(params.flat, expected)

    def test_gradients_share_the_layout(self):
        d = _small_data()
        params = init_params(_tiny_config(), d.feature_dim, d.class_count)
        _, grads = forward_backward(params, d.features[:8], d.labels[:8], True)
        assert grads.flat.shape == params.flat.shape
        assert grads.sizes == params.sizes
        for g, p in zip(grads.weights + grads.biases, params.weights + params.biases):
            assert g.shape == p.shape
            assert np.shares_memory(g, grads.flat)
        assert not np.shares_memory(grads.flat, params.flat)

    def test_wrong_flat_size_rejected(self):
        with pytest.raises(ValueError, match="flat must have shape"):
            ModelParams([2, 3], np.zeros(5))


class TestOptimizers:
    def _scalar(self, value=1.0):
        # one 1 -> 1 layer: flat is [weight, bias]
        return ModelParams([1, 1], np.array([value, 0.0]))

    def test_sgd_definition(self):
        p = self._scalar(1.0)
        g = self._scalar(0.5)
        optimizer_step(init_opt_state("sgd", p), p, g, lr=0.1)
        assert p.weights[0][0, 0] == pytest.approx(0.95, abs=1e-15)

    def test_adam_first_step(self):
        p = self._scalar(0.0)
        g = self._scalar(1.0)
        optimizer_step(init_opt_state("adam", p), p, g, lr=0.001)
        # bias correction makes m_hat = g and v_hat = g^2 on step one
        assert p.weights[0][0, 0] == pytest.approx(-0.001 / (1 + 1e-8), abs=1e-15)

    def test_rmsprop_first_step(self):
        p = self._scalar(0.0)
        g = self._scalar(2.0)
        optimizer_step(init_opt_state("rmsprop", p), p, g, lr=0.1)
        # v = 0.01*g^2, update = lr*g/(sqrt(v)+eps)
        expected = -0.1 * 2.0 / (math.sqrt(0.01 * 4.0) + 1e-8)
        assert p.weights[0][0, 0] == pytest.approx(expected, rel=1e-12)

    def test_zero_gradient_is_a_fixed_point(self):
        for name in ("sgd", "adam", "rmsprop"):
            p = self._scalar(0.7)
            g = self._scalar(0.0)
            optimizer_step(init_opt_state(name, p), p, g, lr=0.5)
            assert p.weights[0][0, 0] == 0.7

    def test_non_finite_gradient_raises(self):
        p = self._scalar(1.0)
        g = self._scalar(np.inf)
        with pytest.raises(GradientExplosion):
            optimizer_step(init_opt_state("sgd", p), p, g, lr=0.1)


class TestOneCycle:
    def test_boundary_values(self):
        for total in (8, 40, 201, 1000):
            assert one_cycle_lr(0, total, 1.0) == pytest.approx(1.0 / 25)
            peak = round(0.25 * total)
            assert one_cycle_lr(peak, total, 1.0) == pytest.approx(1.0)
            assert one_cycle_lr(total - 1, total, 1.0) == pytest.approx(1e-4)

    def test_rises_then_falls(self):
        total = 100
        lrs = [one_cycle_lr(s, total, 0.01) for s in range(total)]
        peak = round(0.25 * total)
        assert all(a < b for a, b in zip(lrs[:peak], lrs[1 : peak + 1]))
        assert all(a > b for a, b in zip(lrs[peak:-1], lrs[peak + 1 :]))

    def test_scales_linearly_with_lr_max(self):
        assert one_cycle_lr(17, 80, 0.02) == pytest.approx(2 * one_cycle_lr(17, 80, 0.01))

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            one_cycle_lr(0, 0, 0.1)
        with pytest.raises(ValueError):
            one_cycle_lr(5, 5, 0.1)
        with pytest.raises(ValueError):
            one_cycle_lr(-1, 5, 0.1)


class TestAugment:
    """_gather_rows copies a batch's rows and reverses the flipped ones."""

    def test_prob_zero_is_identity(self):
        x = np.arange(12.0).reshape(4, 3)
        rows = np.array([3, 0, 2])
        for flip in (None, np.zeros(3, dtype=bool)):
            assert np.array_equal(_gather_rows(x, rows, flip, np.empty((3, 3))), x[rows])

    def test_prob_one_reverses(self):
        x = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        out = np.empty((2, 3))
        assert _gather_rows(x, np.array([0, 1]), np.ones(2, dtype=bool), out) is out
        assert np.array_equal(out, [[3.0, 2.0, 1.0], [6.0, 5.0, 4.0]])
        assert np.array_equal(x, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])  # input untouched

    def test_applied_twice_is_identity(self):
        x = np.arange(12.0).reshape(3, 4)
        rows, flip = np.arange(3), np.ones(3, dtype=bool)
        once = _gather_rows(x, rows, flip, np.empty((3, 4)))
        assert np.array_equal(_gather_rows(once, rows, flip, np.empty((3, 4))), x)

    def test_intermediate_prob_produces_both_outcomes(self):
        x = np.tile([1.0, 2.0], (50, 1))
        flip = np.random.default_rng(2).random(50) < 0.5
        out = _gather_rows(x, np.arange(50), flip, np.empty((50, 2)))
        assert {tuple(row) for row in out} == {(1.0, 2.0), (2.0, 1.0)}

    def test_one_draw_per_epoch_equals_one_draw_per_batch(self):
        # train_model draws an epoch's flips at once; they must be the numbers
        # one draw per batch gives, which the pinned runs were recorded with.
        per_batch = np.random.default_rng([5, 13, 0])
        drawn = [per_batch.random(size) for size in (32, 32, 32, 7)]
        assert np.array_equal(np.concatenate(drawn), np.random.default_rng([5, 13, 0]).random(103))


class TestTrainModel:
    def test_record_shape_contract(self):
        d = _small_data()
        train, val = split(d, 0.2, seed=0)
        cfg = _tiny_config(epochs=3)
        rec, params = train_model(train, val, cfg)
        assert len(rec.epoch_val_acc) == 3
        assert rec.best_val_acc == max(rec.epoch_val_acc)
        assert rec.cost_units == len(train) * 3
        assert rec.status == "ok"
        assert rec.dataset_id == d.id
        assert params.all_finite()

    def test_one_gradient_buffer_per_run(self, monkeypatch):
        import proxybench.trainer as trainer

        buffers = []

        def recording(params, x, y, smoothing, grads=None):
            buffers.append(grads)
            return forward_backward(params, x, y, smoothing, grads)

        monkeypatch.setattr(trainer, "forward_backward", recording)
        d = _small_data()
        train, val = split(d, 0.2, seed=0)
        train_model(train, val, _tiny_config(epochs=2, batch_size=8))
        assert len(buffers) == 2 * 6  # 2 epochs of ceil(48 / 8) steps
        assert buffers[0] is not None and all(b is buffers[0] for b in buffers)

    def test_bitwise_determinism(self):
        d = _small_data(seed=1)
        train, val = split(d, 0.2, seed=0)
        cfg = _tiny_config(epochs=2, augment_prob=0.5)
        r1, _ = train_model(train, val, cfg)
        r2, _ = train_model(train, val, cfg)
        assert r1.epoch_val_acc == r2.epoch_val_acc
        assert r1.best_val_acc == r2.best_val_acc

    def test_zero_learning_rate_is_a_no_op(self):
        d = _small_data()
        train, val = split(d, 0.2, seed=0)
        cfg = _tiny_config(learning_rate=0.0, epochs=2)
        rec, _ = train_model(train, val, cfg)
        untrained = evaluate_accuracy(init_params(cfg, d.feature_dim, d.class_count), val)
        assert rec.epoch_val_acc == [untrained, untrained]

    def test_full_batch_training_ignores_shuffle_seed(self):
        d = _small_data(seed=2)
        train, val = split(d, 0.2, seed=0)
        cfg = _tiny_config(batch_size=len(train), augment_prob=0.0, epochs=3)
        r1, _ = train_model(train, val, cfg, shuffle_seed=111)
        r2, _ = train_model(train, val, cfg, shuffle_seed=999)
        assert r1.epoch_val_acc == r2.epoch_val_acc

    def test_minibatch_training_uses_shuffle_seed(self):
        d = _small_data(seed=2)
        train, val = split(d, 0.2, seed=0)
        cfg = _tiny_config(batch_size=8, augment_prob=0.0, epochs=2, learning_rate=0.05)
        _, p1 = train_model(train, val, cfg, shuffle_seed=111)
        _, p2 = train_model(train, val, cfg, shuffle_seed=999)
        assert any(not np.array_equal(a, b) for a, b in zip(p1.weights, p2.weights))

    def test_gradient_explosion_is_recorded_not_raised(self):
        d = _small_data()
        big = Dataset(
            d.features * 1e60,
            d.labels,
            d.ids,
            d.class_count,
            d.feature_dim,
        )
        train, val = split(big, 0.2, seed=0)
        cfg = _tiny_config(optimizer="sgd", learning_rate=1e30, epochs=3, batch_size=8)
        rec, _ = train_model(train, val, cfg)
        assert rec.status == "aborted"
        assert len(rec.epoch_val_acc) == 3
        assert len(set(rec.epoch_val_acc[-2:])) == 1  # padded with the last value
        assert rec.cost_units == len(train) * 3  # nominal budget kept

    # Recorded accuracies (lr, per-epoch). Elementwise float ops do not depend
    # on memory layout, so a change to how parameters are stored must keep
    # these bit for bit; any drift means an update or gradient changed its
    # arithmetic.
    PINNED = {
        "sgd": (0.05, [0.0, 0.26666666666666666, 0.6, 0.6666666666666666]),
        "adam": (0.01, [0.0, 0.1, 0.4666666666666667, 0.4666666666666667]),
        "rmsprop": (0.01, [0.1, 0.9333333333333333, 0.9666666666666667, 1.0]),
    }

    @pytest.mark.parametrize("optimizer", sorted(PINNED))
    def test_accuracies_match_recorded_values(self, optimizer):
        train, val = split(_small_data(seed=4, per_class=40), 0.25, seed=0)
        lr, expected = self.PINNED[optimizer]
        cfg = _tiny_config(
            optimizer=optimizer, learning_rate=lr, epochs=4, augment_prob=0.5, label_smoothing=True, seed=3
        )
        rec, _ = train_model(train, val, cfg)
        assert rec.status == "ok"
        assert rec.epoch_val_acc == expected
        assert rec.best_val_acc == max(expected)

    def test_depth_knob_changes_parameter_count(self):
        counts = {}
        for depth, extra in DEPTH_EXTRA_LAYERS.items():
            params = init_params(_tiny_config(depth=depth), 5, 3)
            counts[depth] = params.n_params()
            assert len(params.weights) == 3 + extra
        assert counts["small"] < counts["default"] < counts["large"]

    def test_rejects_empty_or_mismatched_data(self):
        d = _small_data()
        train, val = split(d, 0.2, seed=0)
        other = _small_data(dim=7)
        with pytest.raises(ValueError):
            train_model(train, other, _tiny_config())


def _sha(a: np.ndarray) -> str:
    return hashlib.sha256(a.tobytes()).hexdigest()


class TestPinnedRuns:
    """Per-epoch accuracies and a sha256 of the trained parameters, recorded
    with a trainer that gathered, flipped and allocated batch by batch. A
    change to how the trainer schedules its arithmetic must keep every bit;
    any drift means an operation or its order changed.

    "small" has 36 training rows, so the default batch of 8 leaves a
    partial last batch of 4; "blocks" has 1125, more than one gather block.
    """

    CASES = {
        "partial_last_batch": ("small", dict(batch_size=10), [0.75, 1.0, 1.0],
                               "ab940844b2562d291cfffdd259bca7ebd999b10007cc70e18bc69b0c2353090c"),
        "batch_covers_train": ("small", dict(batch_size=64), [0.3333333333333333, 0.4166666666666667, 0.4166666666666667],
                               "6c26eb094e470dcf12895f8d0a7f9d982bdd3cb48c34edc33f149105a008d73a"),
        "batch_equals_train": ("small", dict(batch_size=36), [0.3333333333333333, 0.4166666666666667, 0.4166666666666667],
                               "6c26eb094e470dcf12895f8d0a7f9d982bdd3cb48c34edc33f149105a008d73a"),
        "no_augment": ("small", dict(augment_prob=0.0), [0.75, 1.0, 1.0],
                       "da730938cd7895d142da07db7eecfceddf6c9ffe06adf4ba9598a1faa3e7568b"),
        "always_augment": ("small", dict(augment_prob=1.0), [0.75, 1.0, 1.0],
                           "666bbd7377d2e8c91c080bdfe4345d5d6bce585a0ca46217ba33553a61a66f49"),
        "one_hot_targets": ("small", dict(label_smoothing=False), [0.75, 1.0, 1.0],
                            "cf276819cfa81675613e4fb9084297aa30671b456dd42ef50fd1a45433f3c5fa"),
        "depth_large": ("small", dict(depth="large"), [0.6666666666666666, 1.0, 1.0],
                        "949f66bba96042c601919b1bf7e58f0647da495e69f20856a0e74e3459123711"),
        "sgd": ("small", dict(optimizer="sgd", learning_rate=0.1), [0.8333333333333334, 1.0, 1.0],
                "83ab5412fd791ce573098d38ee0692bf0939bd4b7ddcf1d5f0d4a13480bce456"),
        "adam": ("small", dict(optimizer="adam"), [0.75, 1.0, 1.0],
                 "0916d7e25e4ab246a1945184af84c380f8fc480d6e2deab030f89d060303a346"),
        "rmsprop": ("small", dict(optimizer="rmsprop"), [1.0, 1.0, 1.0],
                    "c55035d450a5e1401134c238e64bf65307ca5c74756d3844d806492e9723d83b"),
        "many_small_batches": ("blocks", dict(batch_size=7, epochs=2), [1.0, 1.0],
                               "9b55ead8af5882c65e9e822fda29dedca42822f25421d8011c01abcc9799df01"),
        "few_large_batches": ("blocks", dict(batch_size=300, epochs=2), [0.304, 0.32266666666666666],
                              "5b344996c7b2c81b21185d8993896bc590fdd88357cb7619e09b53e4c35cd7db"),
    }

    @staticmethod
    def _data(name):
        if name == "small":
            return split(_small_data(seed=5, per_class=16), 0.25, seed=0)
        return split(_small_data(seed=6, per_class=500), 0.25, seed=0)

    @staticmethod
    def _config(**kw):
        return _tiny_config(**{"epochs": 3, "seed": 7, "learning_rate": 0.02, "batch_size": 8, **kw})

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_run_matches_recorded_bits(self, case):
        data, overrides, expected, digest = self.CASES[case]
        train, val = self._data(data)
        rec, params = train_model(train, val, self._config(**overrides))
        assert rec.status == "ok"
        assert rec.epoch_val_acc == expected
        assert _sha(params.flat) == digest

    def test_run_aborted_mid_epoch_matches_recorded_bits(self, monkeypatch):
        import proxybench.trainer as trainer

        calls = []

        def failing_eighth(state, params, grads, lr):
            calls.append(lr)
            if len(calls) == 8:  # the third of five steps in epoch 1
                raise GradientExplosion("injected")
            return optimizer_step(state, params, grads, lr)

        monkeypatch.setattr(trainer, "optimizer_step", failing_eighth)
        train, val = self._data("small")
        rec, params = train_model(train, val, self._config())
        assert rec.status == "aborted"
        assert len(calls) == 8
        assert rec.epoch_val_acc == [0.75, 0.75, 0.75]  # epoch 0's, padded
        assert _sha(params.flat) == "fb8932a76dcc9a1d3470a056dee8c5e5948b6c9806ffde01c76c5348af1b8a6b"

    def test_diverging_run_matches_recorded_bits(self):
        d = _small_data()
        big = Dataset(d.features * 1e60, d.labels, d.ids, d.class_count, d.feature_dim)
        train, val = split(big, 0.2, seed=0)
        rec, params = train_model(train, val, _tiny_config(optimizer="sgd", learning_rate=1e30, epochs=3, batch_size=8))
        assert rec.status == "aborted"
        assert rec.epoch_val_acc == [1 / 3] * 3
        assert _sha(params.flat) == "802ee8ac6e9619cfea52b2510ada25224ad9b296de8031888786add1b256bcbb"

    # (rows, loss.hex(), sha256 of the gradient) for a fresh depth-"large"
    # model on the first rows of the "small" training set, recorded with
    # buffers allocated on every call.
    GRADIENTS = [
        (8, "0x1.38c2a0bcfabdep+0", "f8e8ff2508b07fe9ea57f90b6cf38879b06dcd7e5c192944b0677d85441b0ead"),
        (5, "0x1.15041a0be8ad3p+0", "beff6c4fa5c1ab1c139dc7136bb1c573a135ca05595863aaa4c0dc25e5829fb9"),
    ]

    def test_reused_buffers_give_the_bits_of_a_fresh_call(self):
        train, _ = self._data("small")
        params = init_params(_tiny_config(depth="large"), train.feature_dim, train.class_count)
        reused = ModelParams(params.sizes)
        for rows, loss_hex, digest in self.GRADIENTS * 2:  # full, partial, then both again
            x, y = train.features[:rows], train.labels[:rows]
            fresh_loss, fresh = forward_backward(params, x, y, True)
            loss, grads = forward_backward(params, x, y, True, reused)
            assert grads is reused
            assert loss.hex() == fresh_loss.hex() == loss_hex
            assert _sha(grads.flat) == _sha(fresh.flat) == digest
        assert sorted(reused.scratch) == [5, 8]  # one set of buffers per batch size


class TestCallContract:
    """train_model reaches the layer functions through the module globals,
    where a tracer or a test can wrap them: forward_backward and
    optimizer_step once per step, evaluate_accuracy once per epoch."""

    @staticmethod
    def _count_calls(monkeypatch):
        import proxybench.trainer as trainer

        counts = {}
        for name in ("forward_backward", "optimizer_step", "evaluate_accuracy"):
            def counting(*args, _name=name, _fn=getattr(trainer, name)):
                counts[_name] = counts.get(_name, 0) + 1
                return _fn(*args)

            monkeypatch.setattr(trainer, name, counting)
        return counts

    @pytest.mark.parametrize("batch_size, steps_per_epoch", [(8, 6), (48, 1), (100, 1), (5, 10)])
    def test_once_per_step_and_once_per_epoch(self, monkeypatch, batch_size, steps_per_epoch):
        counts = self._count_calls(monkeypatch)
        train, val = split(_small_data(), 0.2, seed=0)  # 48 training rows
        rec, _ = train_model(train, val, _tiny_config(epochs=3, batch_size=batch_size))
        assert rec.status == "ok"
        steps = 3 * steps_per_epoch
        assert counts == {"forward_backward": steps, "optimizer_step": steps, "evaluate_accuracy": 3}

    def test_many_blocks_per_epoch(self, monkeypatch):
        counts = self._count_calls(monkeypatch)
        train, val = split(_small_data(per_class=500), 0.2, seed=0)  # 1200 rows: two blocks of batches
        train_model(train, val, _tiny_config(epochs=1, batch_size=100))
        assert counts == {"forward_backward": 12, "optimizer_step": 12, "evaluate_accuracy": 1}


class TestStacks:
    """A stack trains each model to the bits of its own train_model run."""

    @staticmethod
    def _assert_solo_bits(train, val, configs, stacked):
        assert len(stacked) == len(configs)
        for cfg, (rec, params) in zip(configs, stacked):
            solo, solo_params = train_model(train, val, cfg)
            assert (rec.status, rec.epoch_val_acc, rec.best_val_acc) == (solo.status, solo.epoch_val_acc, solo.best_val_acc)
            assert (rec.config_id, rec.seed, rec.cost_units) == (solo.config_id, solo.seed, solo.cost_units)
            assert _sha(params.flat) == _sha(solo_params.flat)

    def test_mixed_stack_matches_solo_runs(self):
        train, val = TestPinnedRuns._data("small")  # 36 rows: a partial last batch of 4
        configs = [
            _tiny_config(epochs=3, optimizer="sgd", learning_rate=0.1, augment_prob=1.0, seed=1),
            _tiny_config(epochs=3, optimizer="adam", learning_rate=0.02, augment_prob=0.0, label_smoothing=False, seed=2),
            _tiny_config(epochs=3, optimizer="rmsprop", learning_rate=0.005, seed=3),
            _tiny_config(epochs=3, optimizer="adam", learning_rate=0.005, augment_prob=1.0, seed=4),
            _tiny_config(epochs=3, optimizer="sgd", learning_rate=0.02, label_smoothing=False, seed=5),
        ]
        self._assert_solo_bits(train, val, configs, train_stack(train, val, configs))

    def test_diverging_member_freezes_alone(self, monkeypatch):
        import proxybench.trainer as trainer

        sgd_steps = []

        def counting(state, params, grads, lr):
            if state.kind == "sgd":
                sgd_steps.append(len(lr))
            return optimizer_step(state, params, grads, lr)

        monkeypatch.setattr(trainer, "optimizer_step", counting)
        train, val = TestPinnedRuns._data("blocks")
        configs = [
            _tiny_config(epochs=2, batch_size=7, optimizer="adam", learning_rate=0.01, seed=1),
            _tiny_config(epochs=2, batch_size=7, optimizer="sgd", learning_rate=1e30, seed=2),
            _tiny_config(epochs=2, batch_size=7, optimizer="rmsprop", learning_rate=0.01, seed=3),
        ]
        stacked = train_stack(train, val, configs)
        in_stack = list(sgd_steps)
        sgd_steps.clear()
        self._assert_solo_bits(train, val, configs, stacked)
        assert stacked[1][0].status == "aborted"
        assert 1 < len(in_stack) < 161  # it froze during epoch 0, after some steps
        assert in_stack == sgd_steps == [1] * len(in_stack)  # and at the step its solo run did

    def test_member_whose_gradient_alone_fails_freezes_alone(self, monkeypatch):
        import proxybench.trainer as trainer

        def poison(row, at):  # make one entry of a row's gradient inf at the at-th step
            steps = []

            def fb(params, x, y, smoothing, grads):
                loss, grads = forward_backward(params, x, y, smoothing, grads)
                steps.append(None)
                if len(steps) == at:
                    grads.flat[row, 0] = np.inf
                return loss, grads

            monkeypatch.setattr(trainer, "forward_backward", fb)

        train, val = TestPinnedRuns._data("small")
        configs = [_tiny_config(epochs=3, optimizer=opt, seed=seed) for opt, seed in [("sgd", 1), ("sgd", 2), ("adam", 3)]]
        poison(row=1, at=7)  # rows are in optimizer order: adam, then the two sgd models
        stacked = train_stack(train, val, configs)
        poison(row=0, at=7)
        solo, solo_params = train_model(train, val, configs[0])
        assert solo.status == "aborted"
        assert (stacked[0][0].status, stacked[0][0].epoch_val_acc, _sha(stacked[0][1].flat)) == (
            solo.status, solo.epoch_val_acc, _sha(solo_params.flat))
        monkeypatch.setattr(trainer, "forward_backward", forward_backward)
        self._assert_solo_bits(train, val, configs[1:], stacked[1:])

    def test_partial_batches_over_several_blocks(self):
        train, val = TestPinnedRuns._data("blocks")  # 1125 rows: four gather blocks for three models, a last batch of 5
        assert len(train) % 7 and len(train) > 1024
        configs = [
            _tiny_config(epochs=2, batch_size=7, learning_rate=lr, augment_prob=p, seed=seed)
            for lr, p, seed in [(0.01, 0.5, 1), (0.003, 1.0, 2), (0.03, 0.0, 3)]
        ]
        self._assert_solo_bits(train, val, configs, train_stack(train, val, configs))

    def test_incompatible_configs_are_refused(self):
        train, val = split(_small_data(), 0.2, seed=0)
        a, b = _tiny_config(), _tiny_config(batch_size=8)
        assert stack_key(a) != stack_key(b)
        with pytest.raises(ValueError, match="share layer sizes"):
            train_stack(train, val, [a, b])


class TestInit:
    def test_seeded_and_fan_in_scaled(self):
        cfg = _tiny_config(seed=5)
        a = init_params(cfg, 40, 3)
        b = init_params(cfg, 40, 3)
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
        # empirical std of the first layer should sit near sqrt(2/fan_in)
        assert a.weights[0].std() == pytest.approx(math.sqrt(2 / 40), rel=0.25)
        assert all(np.all(bias == 0.0) for bias in a.biases)

    def test_different_seeds_differ(self):
        a = init_params(_tiny_config(seed=1), 10, 3)
        b = init_params(_tiny_config(seed=2), 10, 3)
        assert not np.array_equal(a.weights[0], b.weights[0])
