import math

import numpy as np
import pytest

from proxybench.metrics import (
    GoodConfigRule,
    PairedAccuracies,
    QualityReport,
    build_quality_reports,
    consistency_correlation,
    cost_adjusted_quality,
    epoch_correlation,
    lasso_cv,
    pair_accuracies,
    r2_no_intercept,
    reports_from_csv,
    reports_to_csv,
    select_good_configs,
    spearman,
    zscore,
)
from proxybench.trainer import RunRecord
from test_acceptance import _REFERENCE_STRATEGIES


def _rec(epoch_accs, best=None, dataset="d", proxy="full", cfg="c0", cost=100.0):
    return RunRecord(
        dataset_id=dataset,
        proxy_id=proxy,
        config_id=cfg,
        seed=0,
        epoch_val_acc=list(epoch_accs),
        best_val_acc=max(epoch_accs) if best is None else best,
        cost_units=cost,
        wall_ms=1,
    )


def _paired(proxy_acc, target_acc=None, ids=None):
    n = len(proxy_acc)
    return PairedAccuracies(
        dataset_id="d",
        proxy_id="p",
        config_ids=tuple(ids) if ids else tuple(f"c{i}" for i in range(n)),
        proxy_acc=tuple(proxy_acc),
        target_acc=tuple(target_acc if target_acc is not None else proxy_acc),
    )


def _rank_oracle(x):
    # counting definition: rank = (#strictly smaller) + (#equal + 1) / 2
    x = list(x)
    return [sum(v < xi for v in x) + (sum(v == xi for v in x) + 1) / 2.0 for xi in x]


class TestZscore:
    def test_pinned(self):
        z = zscore([1.0, 2.0, 3.0])
        s = math.sqrt(1.5)
        assert np.allclose(z, [-s, 0.0, s], atol=1e-14)

    def test_idempotent(self):
        z = zscore([3.0, 1.0, 4.0, 1.0, 5.0])
        assert np.allclose(zscore(z), z, atol=1e-12)
        assert abs(z.mean()) < 1e-14
        assert abs(z.std() - 1.0) < 1e-14

    def test_constant_rejected(self):
        with pytest.raises(ValueError, match="degenerate accuracies"):
            zscore([0.5, 0.5, 0.5])

    def test_short_rejected(self):
        with pytest.raises(ValueError):
            zscore([1.0])


class TestR2NoIntercept:
    def test_identity(self):
        z = zscore([0.1, 0.5, 0.9])
        beta, r2 = r2_no_intercept(z, z)
        assert abs(beta - 1.0) < 1e-12
        assert abs(r2 - 1.0) < 1e-12

    def test_pinned_quarter(self):
        beta, r2 = r2_no_intercept(zscore([1.0, 2.0, 3.0]), zscore([1.0, 3.0, 2.0]))
        assert abs(beta - 0.5) < 1e-12
        assert abs(r2 - 0.25) < 1e-12

    def test_orthogonal_gives_zero(self):
        x = np.array([-1.0, 0.0, 1.0]) * math.sqrt(1.5)
        y = np.array([1.0, -2.0, 1.0])
        y = y / y.std()
        assert abs(float(x @ y)) < 1e-12
        beta, r2 = r2_no_intercept(x, y)
        assert abs(beta) < 1e-12
        assert abs(r2) < 1e-12

    def test_equals_squared_pearson_on_zscored_data(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(3, 40))
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            if x.std() == 0 or y.std() == 0:
                continue
            _, r2 = r2_no_intercept(zscore(x), zscore(y))
            p = np.corrcoef(x, y)[0, 1]
            assert abs(r2 - p * p) < 1e-10

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            r2_no_intercept([1.0, 2.0, 3.0], [1.0, 2.0])


class TestSpearman:
    def test_reversed_is_minus_one(self):
        assert abs(spearman([1, 2, 3, 4], [4, 3, 2, 1]) + 1.0) < 1e-12

    def test_pinned_point_eight(self):
        assert abs(spearman([1, 2, 3, 4], [1, 3, 2, 4]) - 0.8) < 1e-12

    def test_ties_match_counting_rank_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(3, 25))
            x = rng.integers(0, 5, size=n).astype(float)  # heavy ties
            y = rng.integers(0, 5, size=n).astype(float)
            rx, ry = _rank_oracle(x), _rank_oracle(y)
            if np.std(rx) == 0 or np.std(ry) == 0:
                continue
            expected = float(np.corrcoef(rx, ry)[0, 1])
            assert abs(spearman(x, y) - expected) < 1e-12

    def test_monotone_transform_invariance(self):
        x = [0.3, 0.9, 0.1, 0.5, 0.7]
        y = [0.2, 0.8, 0.4, 0.6, 0.1]
        base = spearman(x, y)
        assert abs(spearman(np.exp(x), y) - base) < 1e-12
        assert abs(spearman(x, [v**3 for v in y]) - base) < 1e-12

    def test_constant_input_rejected(self):
        with pytest.raises(ValueError, match="constant input"):
            spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


class TestSelectGoodConfigs:
    def test_top_half_of_four(self):
        paired = _paired([0.92, 0.93, 0.84, 0.86])
        assert select_good_configs(paired, GoodConfigRule.top_fraction(0.5)) == [0, 1]

    def test_min_accuracy_same_pick(self):
        paired = _paired([0.92, 0.93, 0.84, 0.86])
        assert select_good_configs(paired, GoodConfigRule.min_accuracy(0.9)) == [0, 1]

    def test_top_everything(self):
        paired = _paired([0.3, 0.1, 0.2])
        assert select_good_configs(paired, GoodConfigRule.top_fraction(1.0)) == [0, 1, 2]

    def test_tie_broken_by_config_id(self):
        paired = _paired([0.9, 0.9, 0.9, 0.1], ids=("cb", "ca", "cc", "cd"))
        assert select_good_configs(paired, GoodConfigRule.top_fraction(0.5)) == [0, 1]

    def test_too_few_good(self):
        paired = _paired([0.9, 0.1, 0.1, 0.1])
        with pytest.raises(ValueError, match="too few good configs"):
            select_good_configs(paired, GoodConfigRule.min_accuracy(0.5))

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            GoodConfigRule.top_fraction(0.0)
        with pytest.raises(ValueError):
            GoodConfigRule("median", 0.5)

    def test_top_fraction_then_spearman_equals_plain_spearman(self):
        proxy = [0.4, 0.9, 0.3, 0.7, 0.5]
        target = [0.5, 0.8, 0.2, 0.9, 0.4]
        paired = _paired(proxy, target)
        good = select_good_configs(paired, GoodConfigRule.top_fraction(1.0))
        sub = spearman([proxy[i] for i in good], [target[i] for i in good])
        assert abs(sub - spearman(proxy, target)) < 1e-12


# (relative cost, r2) of the 6 strategies of the acceptance-6 pipeline at input seed 0
ACCEPT6_SEED0_POINTS = [
    (0.05, 0.2535107744349052),
    (1.0, 1.0),
    (0.4, 0.9375067713182411),
    (0.5, 0.928336051792507),
    (0.1, 0.530978353492834),
    (0.1, 0.4477830807097062),
]
REFERENCE_POINTS = [(cost, r2) for _, cost, r2, _ in _REFERENCE_STRATEGIES]


class TestLassoCV:
    def test_zero_penalty_matches_least_squares(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(30, 3))
        y = x @ np.array([1.5, -2.0, 0.7]) + 0.3 + rng.normal(scale=0.1, size=30)
        fit = lasso_cv(x, y, lambda_grid=[0.0])
        design = np.column_stack([np.ones(30), x])
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        assert abs(fit.intercept - coef[0]) < 1e-6
        assert np.allclose(fit.coef, coef[1:], atol=1e-6)

    def test_constant_target(self):
        x = np.arange(12.0).reshape(6, 2)
        fit = lasso_cv(x, np.full(6, 2.5))
        assert np.allclose(fit.coef, 0.0)
        assert abs(fit.intercept - 2.5) < 1e-12

    def test_single_feature_soft_threshold(self):
        x = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        y = 2.0 * x
        lam = 0.3
        fit = lasso_cv(x[:, None], y, lambda_grid=[lam])
        assert abs(fit.coef[0] - (2.0 - lam / x.std())) < 1e-8

    def test_tied_cv_error_prefers_larger_lambda(self):
        x = np.arange(10.0).reshape(10, 1)
        fit = lasso_cv(x, np.zeros(10), lambda_grid=[0.1, 0.2])
        assert fit.lam == 0.2

    def test_recovers_sparse_signal(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(200, 3))
        y = 3.0 * x[:, 1] + rng.normal(scale=0.05, size=200)
        fit = lasso_cv(x, y)
        assert abs(fit.coef[1] - 3.0) < 0.05
        assert np.all(np.abs(np.delete(fit.coef, 1)) < 0.05)

    def test_more_than_three_columns_rejected(self):
        x = np.random.default_rng(0).normal(size=(10, 4))
        with pytest.raises(ValueError, match="at most 3 feature columns"):
            lasso_cv(x, np.arange(10.0))

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            lasso_cv(np.array([[1.0]]), np.array([1.0]))

    @pytest.mark.parametrize("shape", [(6,), (1, 6), (6, 1, 1)])
    def test_features_must_be_n_by_p(self, shape):
        x = np.arange(6.0).reshape(shape)
        with pytest.raises(ValueError):
            lasso_cv(x, np.arange(6.0))

    @staticmethod
    def _kkt_gaps(x, y, lam):
        """Stationarity gaps of lasso_cv's fit at one lambda, on its standardized problem.

        Active coordinates: |x_j'r/n - lam sign(b_j)|; inactive ones: how far
        |x_j'r/n| exceeds lam (0 when it does not).
        """
        fit = lasso_cv(x, y, lambda_grid=[lam])
        std = x.std(axis=0)
        xs = (x - x.mean(axis=0)) / std
        b = fit.coef * std
        grad = xs.T @ (y - y.mean() - xs @ b) / len(y)
        active = b != 0.0
        return np.where(active, np.abs(grad - lam * np.sign(b)), np.maximum(np.abs(grad) - lam, 0.0))

    def test_fold_fit_satisfies_kkt(self):
        # accept6 seed 0, degree 3, CV fold 0 (rows 1-5), 42nd grid lambda:
        # coordinate descent stopped at max_iter here with a gap of 1.9e-5
        cost = np.array([c for c, _ in ACCEPT6_SEED0_POINTS[1:]])
        quality = np.array([q for _, q in ACCEPT6_SEED0_POINTS[1:]])
        x = np.column_stack([cost, cost**2, cost**3])
        assert np.max(self._kkt_gaps(x, quality, 0.00010861330903787541)) <= 1e-12

    def test_random_fits_satisfy_kkt(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n, p = int(rng.integers(5, 30)), int(rng.integers(1, 4))
            # correlated columns, like the cost polynomial's
            x = rng.normal(size=(n, p)) @ (np.eye(p) + rng.uniform(0.0, 2.0, size=(p, p)))
            y = x @ rng.normal(size=p) + rng.normal(scale=0.5, size=n)
            xs = (x - x.mean(axis=0)) / x.std(axis=0)
            lam_max = float(np.max(np.abs(xs.T @ (y - y.mean())))) / n
            lam = lam_max * float(rng.uniform(1e-4, 1.0))
            assert np.max(self._kkt_gaps(x, y, lam)) <= 1e-12


class TestCostAdjustedQuality:
    def test_exact_linear_fit_gives_zero_residuals(self):
        costs = [0.05, 0.1, 0.3, 0.5, 0.8, 1.0]
        points = [(c, 0.5 + 0.4 * c) for c in costs]
        resid = cost_adjusted_quality(points)
        assert np.allclose(resid, 0.0, atol=1e-8)

    def test_degree_one_matches_least_squares(self):
        points = [(0.1, 0.4), (0.2, 0.5), (0.4, 0.55), (0.6, 0.8), (0.8, 0.75), (1.0, 0.95)]
        resid = cost_adjusted_quality(points, degree=1)
        c = np.array([p[0] for p in points])
        q = np.array([p[1] for p in points])
        design = np.column_stack([np.ones(len(c)), c])
        coef, *_ = np.linalg.lstsq(design, q, rcond=None)
        assert np.allclose(resid, q - design @ coef, atol=1e-10)

    def test_residuals_sum_to_zero(self):
        rng = np.random.default_rng(5)
        points = [(float(c), float(q)) for c, q in zip(rng.uniform(0.01, 1, 9), rng.uniform(0, 1, 9))]
        assert abs(sum(cost_adjusted_quality(points))) < 1e-8

    def test_order_preserved(self):
        points = [(0.1, 0.2), (1.0, 1.0), (0.5, 0.9), (0.3, 0.4), (0.7, 0.6)]
        resid = cost_adjusted_quality(points)
        rolled = cost_adjusted_quality(points[::-1])
        assert np.allclose(resid, rolled[::-1], atol=1e-8)

    def test_too_few_strategies(self):
        with pytest.raises(ValueError, match="too few strategies"):
            cost_adjusted_quality([(0.1, 0.2), (0.5, 0.6), (0.9, 0.8), (1.0, 1.0)])

    def test_bad_degree(self):
        points = [(0.1, 0.2), (0.3, 0.4), (0.5, 0.6), (0.7, 0.8), (1.0, 1.0)]
        with pytest.raises(ValueError, match="degree"):
            cost_adjusted_quality(points, degree=4)


class TestCostModelSelection:
    """The degree and the lambdas Lasso-CV picks on two fixed point sets.

    The lambdas were recorded with the earlier coordinate-descent solver;
    the exact solver picks the same grid values.
    """

    @pytest.mark.parametrize(
        "points, lams",
        [
            (REFERENCE_POINTS, (2.1845988080844983e-05, 0.003495049451954984, 0.000533490627963004)),
            (ACCEPT6_SEED0_POINTS, (0.113839035746599, 0.0038628109458693043, 0.006788931279170688)),
        ],
    )
    def test_selection_is_pinned(self, points, lams):
        assert cost_adjusted_quality(points) == cost_adjusted_quality(points, degree=3)
        cost = np.array([c for c, _ in points])
        quality = np.array([q for _, q in points])
        for d, lam in zip((1, 2, 3), lams):
            cols = np.column_stack([cost**k for k in range(1, d + 1)])
            assert lasso_cv(cols, quality).lam == lam

    @pytest.mark.parametrize(
        "points",
        [
            [(0.3, q) for q in (0.2, 0.5, 0.4, 0.9, 0.7)],  # every cost equal
            [(c, q) for c, q in zip((0.1, 0.9, 0.1, 0.9, 0.1, 0.9), (0.2, 0.8, 0.3, 0.7, 0.25, 0.9))],  # two costs
            [(c, 0.6) for c in (0.05, 0.1, 0.4, 0.5, 1.0)],  # constant quality
        ],
    )
    def test_degenerate_inputs_give_finite_residuals(self, points):
        assert np.all(np.isfinite(cost_adjusted_quality(points)))


def _report(strategy, r2, cost=0.5):
    return QualityReport(
        strategy=strategy, dataset="d", r2=r2, spearman_good=0.5,
        cost_adjusted=0.0, relative_cost=cost, n_configs=10,
    )


class TestConsistencyCorrelation:
    def test_identical_reports(self):
        a = [_report("s1", 0.2), _report("s2", 0.5), _report("s3", 0.9)]
        assert abs(consistency_correlation(a, a, "r2") - 1.0) < 1e-12

    def test_negated_metric(self):
        a = [_report("s1", 0.2), _report("s2", 0.5), _report("s3", 0.9)]
        b = [_report("s1", -0.2), _report("s2", -0.5), _report("s3", -0.9)]
        assert abs(consistency_correlation(a, b, "r2") + 1.0) < 1e-12

    def test_matches_direct_pearson(self):
        va = [0.1, 0.7, 0.4, 0.9]
        vb = [0.3, 0.6, 0.5, 0.8]
        a = [_report(f"s{i}", v) for i, v in enumerate(va)]
        b = [_report(f"s{i}", v) for i, v in enumerate(vb)]
        got = consistency_correlation(a, b, "r2")
        assert abs(got - float(np.corrcoef(va, vb)[0, 1])) < 1e-12

    def test_too_few_shared(self):
        a = [_report("s1", 0.2), _report("s2", 0.5)]
        b = [_report("s2", 0.5), _report("s3", 0.9)]
        with pytest.raises(ValueError, match="shared strategies"):
            consistency_correlation(a, b, "r2")

    def test_unknown_metric(self):
        a = [_report("s1", 0.2)] * 3
        with pytest.raises(ValueError, match="unknown metric"):
            consistency_correlation(a, a, "accuracy")


class TestEpochCorrelation:
    def test_first_epoch_predicts_final_exactly(self):
        recs = [_rec([0.1 * k, 0.5], best=0.1 * k) for k in range(1, 6)]
        out = epoch_correlation(recs)
        assert abs(out[0] - 1.0) < 1e-12
        assert math.isnan(out[1])  # constant second epoch

    def test_independent_epoch_is_uncorrelated(self):
        rng = np.random.default_rng(19)
        recs = [_rec([float(rng.uniform()), float(b)], best=float(b)) for b in rng.uniform(size=2000)]
        out = epoch_correlation(recs)
        assert abs(out[0]) < 0.2
        assert abs(out[1] - 1.0) < 1e-12

    def test_unequal_epoch_counts(self):
        with pytest.raises(ValueError, match="unequal epoch counts"):
            epoch_correlation([_rec([0.1, 0.2]), _rec([0.1, 0.2]), _rec([0.1])])

    def test_too_few_records(self):
        with pytest.raises(ValueError):
            epoch_correlation([_rec([0.1]), _rec([0.2])])


class TestPairAccuracies:
    def test_alignment_by_config_id(self):
        records = [
            _rec([0.5], best=0.5, proxy="p", cfg="c2", cost=10),
            _rec([0.6], best=0.6, proxy="p", cfg="c1", cost=10),
            _rec([0.8], best=0.8, proxy="full", cfg="c1", cost=100),
            _rec([0.9], best=0.9, proxy="full", cfg="c2", cost=100),
        ]
        paired = pair_accuracies(records, "d", "p")
        assert paired.config_ids == ("c1", "c2")
        assert paired.proxy_acc == (0.6, 0.5)
        assert paired.target_acc == (0.8, 0.9)

    def test_no_overlap(self):
        records = [
            _rec([0.5], proxy="p", cfg="c1"),
            _rec([0.8], proxy="full", cfg="c2"),
        ]
        with pytest.raises(ValueError, match="no shared configs"):
            pair_accuracies(records, "d", "p")


def _matrix_records(proxies, n_cfg=6, seed=0):
    """Synthetic result set: target acc per config plus noisy proxy views."""
    rng = np.random.default_rng(seed)
    target = rng.uniform(0.3, 0.9, size=n_cfg)
    records = []
    for cfg in range(n_cfg):
        records.append(_rec([target[cfg]], best=float(target[cfg]), proxy="full", cfg=f"c{cfg}", cost=100.0))
    for pid, cost, noise in proxies:
        for cfg in range(n_cfg):
            acc = float(np.clip(target[cfg] + rng.normal(scale=noise), 0.0, 1.0))
            records.append(_rec([acc], best=acc, proxy=pid, cfg=f"c{cfg}", cost=cost))
    return records


class TestBuildQualityReports:
    def test_target_row_has_unit_r2(self):
        records = _matrix_records([("p1", 10.0, 0.01), ("p2", 20.0, 0.05)])
        rows = build_quality_reports(records)
        by_strategy = {r.strategy: r for r in rows}
        assert abs(by_strategy["full"].r2 - 1.0) < 1e-12
        assert by_strategy["full"].relative_cost == 1.0
        assert by_strategy["p1"].relative_cost == 0.1

    def test_cost_adjusted_needs_five_strategies(self):
        records = _matrix_records([("p1", 10.0, 0.01), ("p2", 20.0, 0.05), ("p3", 30.0, 0.02)])
        rows = build_quality_reports(records)
        assert len(rows) == 4
        assert all(math.isnan(r.cost_adjusted) for r in rows)

        records = _matrix_records(
            [("p1", 10.0, 0.01), ("p2", 20.0, 0.05), ("p3", 30.0, 0.02), ("p4", 50.0, 0.1)]
        )
        rows = build_quality_reports(records)
        assert len(rows) == 5
        assert all(not math.isnan(r.cost_adjusted) for r in rows)
        assert abs(sum(r.cost_adjusted for r in rows)) < 1e-8

    def test_missing_target_rejected(self):
        records = [_rec([0.5], proxy="p", cfg=f"c{i}") for i in range(4)]
        with pytest.raises(ValueError, match="no 'full' runs"):
            build_quality_reports(records)

    def test_csv_round_trip(self, tmp_path):
        records = _matrix_records(
            [("p1", 10.0, 0.01), ("p2", 20.0, 0.05), ("p3", 30.0, 0.02), ("p4", 50.0, 0.1)]
        )
        rows = build_quality_reports(records)
        path = tmp_path / "quality.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            reports_to_csv(rows, fh)
        loaded = reports_from_csv(path)
        assert len(loaded) == len(rows)
        for a, b in zip(loaded, rows):
            assert a.strategy == b.strategy and a.dataset == b.dataset
            assert a.r2 == b.r2 and a.relative_cost == b.relative_cost
            assert a.n_configs == b.n_configs
            assert a.cost_adjusted == b.cost_adjusted or (
                math.isnan(a.cost_adjusted) and math.isnan(b.cost_adjusted)
            )

    def test_csv_header_validated(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="not a quality report"):
            reports_from_csv(path)
