import math
from dataclasses import astuple, replace

import numpy as np
import pytest

from proxybench._atomic import write_csv
from proxybench.metrics import (
    REPORT_COLUMNS,
    GoodConfigRule,
    PairedAccuracies,
    QualityReport,
    build_quality_reports,
    consistency_correlation,
    cost_adjusted_quality,
    epoch_correlation,
    _average_ranks,
    _lasso_path,
    lasso_cv,
    pair_accuracies,
    r2_no_intercept,
    reports_from_csv,
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
    )


def _paired(proxy_acc, target_acc=None, ids=None):
    n = len(proxy_acc)
    return PairedAccuracies(
        dataset_id="d",
        proxy_id="p",
        config_ids=tuple(ids) if ids else tuple(f"c{i}" for i in range(n)),
        proxy_acc=tuple(proxy_acc),
        target_acc=tuple(target_acc if target_acc is not None else proxy_acc),
        relative_cost=1.0,
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

    def test_ranks_are_exactly_the_counting_ranks(self):
        rng = np.random.default_rng(11)
        for n in range(1, 40):
            x = rng.integers(0, 6, size=n) / 7.0  # heavy ties
            assert _average_ranks(x).tolist() == _rank_oracle(x)

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
        assert select_good_configs(paired, GoodConfigRule("top_fraction", 0.5)) == [0, 1]

    def test_min_accuracy_same_pick(self):
        paired = _paired([0.92, 0.93, 0.84, 0.86])
        assert select_good_configs(paired, GoodConfigRule("min_accuracy", 0.9)) == [0, 1]

    def test_top_everything(self):
        paired = _paired([0.3, 0.1, 0.2])
        assert select_good_configs(paired, GoodConfigRule("top_fraction", 1.0)) == [0, 1, 2]

    def test_tie_broken_by_config_id(self):
        paired = _paired([0.9, 0.9, 0.9, 0.1], ids=("cb", "ca", "cc", "cd"))
        assert select_good_configs(paired, GoodConfigRule("top_fraction", 0.5)) == [0, 1]

    def test_too_few_good(self):
        paired = _paired([0.9, 0.1, 0.1, 0.1])
        with pytest.raises(ValueError, match="too few good configs"):
            select_good_configs(paired, GoodConfigRule("min_accuracy", 0.5))

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            GoodConfigRule("top_fraction", 0.0)
        with pytest.raises(ValueError):
            GoodConfigRule("median", 0.5)

    def test_top_fraction_then_spearman_equals_plain_spearman(self):
        proxy = [0.4, 0.9, 0.3, 0.7, 0.5]
        target = [0.5, 0.8, 0.2, 0.9, 0.4]
        paired = _paired(proxy, target)
        good = select_good_configs(paired, GoodConfigRule("top_fraction", 1.0))
        sub = spearman([proxy[i] for i in good], [target[i] for i in good])
        assert abs(sub - spearman(proxy, target)) < 1e-12


_LIBRARY_REFUSALS = {  # case -> (a call that must raise ValueError, a pattern of its message)
    "misaligned-pairs": (lambda: PairedAccuracies("d", "p", ("c0", "c1"), (0.5,), (0.5, 0.6), 1.0), "must align"),
    "accuracy-above-one": (lambda: _paired([0.5, 1.5]), r"accuracy 1.5 outside \[0, 1\]"),
    "min-accuracy-above-one": (lambda: GoodConfigRule("min_accuracy", 1.5), r"threshold in \[0, 1\], got 1.5"),
    "min-accuracy-below-zero": (lambda: GoodConfigRule("min_accuracy", -0.1), r"threshold in \[0, 1\], got -0.1"),
    "r2-two-points": (lambda: r2_no_intercept([1.0, -1.0], [1.0, -1.0]), "need at least 3 points"),
    "r2-constant-proxy": (lambda: r2_no_intercept([0.0, 0.0, 0.0], [1.0, 0.0, -1.0]), "zero variance"),
    "r2-constant-target": (lambda: r2_no_intercept([1.0, 0.0, -1.0], [0.0, 0.0, 0.0]), "zero variance"),
    "spearman-length-mismatch": (lambda: spearman([1.0, 2.0, 3.0], [1.0, 2.0]), "length mismatch: 3 vs 2"),
    "spearman-one-point": (lambda: spearman([1.0], [1.0]), "need at least 2 points"),
    "no-configs-to-select": (lambda: select_good_configs(_paired([])), "no paired configs"),
    "lasso-target-count": (lambda: lasso_cv(np.arange(4.0).reshape(4, 1), np.arange(3.0)), "3 targets for 4 rows"),
}


@pytest.mark.parametrize("call, message", _LIBRARY_REFUSALS.values(), ids=_LIBRARY_REFUSALS.keys())
def test_library_refusal(call, message):
    with pytest.raises(ValueError, match=message):
        call()


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


def _standardized(x, y):
    """lasso_cv's standardized problem: z-scored columns and a centered target."""
    return (x - x.mean(axis=0)) / x.std(axis=0), y - y.mean()


def _lambda_grid(x, y) -> np.ndarray:
    """lasso_cv's 50 penalty weights for (x, y), largest first."""
    xs, yc = _standardized(x, y)
    lam_max = float(np.max(np.abs(xs.T @ yc))) / len(yc)
    return np.geomspace(1e-4 * lam_max, lam_max, num=50)[::-1]


def _fit_at(x, y, lam):
    """(coef, intercept) on the original scale of the exact Lasso fit at one lambda."""
    xs, yc = _standardized(x, y)
    coef = _lasso_path(xs, yc, [lam])[0] / x.std(axis=0)
    return coef, y.mean() - float(coef @ x.mean(axis=0))


class TestLassoCV:
    def test_zero_penalty_matches_least_squares(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(30, 3))
        y = x @ np.array([1.5, -2.0, 0.7]) + 0.3 + rng.normal(scale=0.1, size=30)
        coef, intercept = _fit_at(x, y, 0.0)
        design = np.column_stack([np.ones(30), x])
        lstsq, *_ = np.linalg.lstsq(design, y, rcond=None)
        assert abs(intercept - lstsq[0]) < 1e-6
        assert np.allclose(coef, lstsq[1:], atol=1e-6)

    def test_constant_target(self):
        x = np.arange(12.0).reshape(6, 2)
        fit = lasso_cv(x, np.full(6, 2.5))
        assert np.allclose(fit.coef, 0.0)
        assert abs(fit.intercept - 2.5) < 1e-12
        assert fit.lam == 0.0

    def test_single_feature_soft_threshold(self):
        x = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        y = 2.0 * x
        lam = 0.3
        coef, _ = _fit_at(x[:, None], y, lam)
        assert abs(coef[0] - (2.0 - lam / x.std())) < 1e-8

    def test_tied_cv_error_prefers_larger_lambda(self):
        # two rows, so two folds, each training on one row: its column is
        # constant and standardizes to zero, so all 50 lambdas fit b = 0 and tie
        x, y = np.array([[0.0], [1.0]]), np.array([0.0, 1.0])
        lams = _lambda_grid(x, y)
        assert lams[0] == 0.5 and lams[-1] < lams[0]
        assert lasso_cv(x, y).lam == lams[0]

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
    def _kkt_gaps(x, y, lams):
        """Stationarity gaps of the exact fits along lams, on lasso_cv's standardized problem.

        Active coordinates: |x_j'r/n - lam sign(b_j)|; inactive ones: how far
        |x_j'r/n| exceeds lam (0 when it does not). One row per lambda.
        """
        xs, yc = _standardized(x, y)
        b = _lasso_path(xs, yc, lams)
        grad = (yc - b @ xs.T) @ xs / len(y)
        lam = np.asarray(lams)[:, None]
        return np.where(b != 0.0, np.abs(grad - lam * np.sign(b)), np.maximum(np.abs(grad) - lam, 0.0))

    def test_fold_fit_satisfies_kkt(self):
        # accept6 seed 0, degree 3, CV fold 0 (rows 1-5) along the grid of all 6 rows:
        # at its 42nd lambda coordinate descent stopped at max_iter with a gap of 1.9e-5
        cost = np.array([c for c, _ in ACCEPT6_SEED0_POINTS])
        quality = np.array([q for _, q in ACCEPT6_SEED0_POINTS])
        x = np.column_stack([cost, cost**2, cost**3])
        lams = _lambda_grid(x, quality)
        assert 0.00010861330903787541 in lams
        assert np.max(self._kkt_gaps(x[1:], quality[1:], lams)) <= 1e-12

    def test_random_fits_satisfy_kkt(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n, p = int(rng.integers(5, 30)), int(rng.integers(1, 4))
            # correlated columns, like the cost polynomial's
            x = rng.normal(size=(n, p)) @ (np.eye(p) + rng.uniform(0.0, 2.0, size=(p, p)))
            y = x @ rng.normal(size=p) + rng.normal(scale=0.5, size=n)
            assert np.max(self._kkt_gaps(x, y, _lambda_grid(x, y))) <= 1e-12


class TestCostAdjustedQuality:
    def test_exact_linear_fit_gives_zero_residuals(self):
        costs = [0.05, 0.1, 0.3, 0.5, 0.8, 1.0]
        points = [(c, 0.5 + 0.4 * c) for c in costs]
        resid = cost_adjusted_quality(points)
        assert np.allclose(resid, 0.0, atol=1e-8)

    def test_degree_one_matches_least_squares(self):
        points = [(0.1, 0.4), (0.2, 0.5), (0.4, 0.55), (0.6, 0.8), (0.8, 0.75), (1.0, 0.95)]
        c = np.array([p[0] for p in points])
        q = np.array([p[1] for p in points])
        # Lasso-CV keeps cost and zeroes cost², so the refit has degree one
        assert lasso_cv(c[:, None], q).coef[0] != 0.0
        assert lasso_cv(np.column_stack([c, c**2]), q).coef[1] == 0.0
        resid = cost_adjusted_quality(points)
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


def _refit_residuals(points, degree) -> list:
    """cost_adjusted_quality's least-squares refit with the first `degree` cost terms kept."""
    cost = np.array([float(c) for c, _ in points])
    quality = np.array([float(q) for _, q in points])
    if degree == 0:
        return [float(q - quality.mean()) for q in quality]
    design = np.column_stack([np.ones(len(points))] + [cost**p for p in range(1, degree + 1)])
    coef, *_ = np.linalg.lstsq(design, quality, rcond=None)
    return [float(q - f) for q, f in zip(quality, design @ coef)]


# (points, degree kept, lambda Lasso-CV picks at degrees 1-3) of 20 seeded
# point sets: the full run's (1.0, 1.0) and 4-7 strategies with costs in
# [0.02, 0.9] and r2 in [0.05, 0.98], recorded with the per-lambda solver
SEEDED_SELECTIONS = [
    ([(1.0, 1.0), (0.54, 0.69), (0.27, 0.227), (0.06, 0.963), (0.88, 0.315), (0.54, 0.635), (0.72, 0.59), (0.82, 0.608)],
     0, (0.0002204734433684012, 0.03319838678708157, 0.05100281991720298)),
    ([(1.0, 1.0), (0.34, 0.858), (0.71, 0.389), (0.54, 0.955), (0.28, 0.259), (0.83, 0.799)],
     0, (0.12460769813565203, 0.12460769813565203, 0.12598161166725944)),
    ([(1.0, 1.0), (0.54, 0.879), (0.74, 0.575), (0.28, 0.974), (0.62, 0.276), (0.43, 0.152)],
     0, (0.06499247518399931, 0.10173564844873406, 0.1256417418040842)),
    ([(1.0, 1.0), (0.22, 0.665), (0.18, 0.702), (0.78, 0.458), (0.77, 0.498), (0.11, 0.738), (0.27, 0.458)],
     0, (0.0292370363120556, 5.60546395480991e-06, 0.0007150236978059067)),
    ([(1.0, 1.0), (0.63, 0.434), (0.21, 0.65), (0.13, 0.817), (0.35, 0.112), (0.68, 0.551), (0.67, 0.753)],
     0, (0.0858796202014879, 0.011140690894732854, 0.018892277630481312)),
    ([(1.0, 1.0), (0.89, 0.872), (0.11, 0.553), (0.47, 0.619), (0.37, 0.315), (0.2, 0.567)],
     3, (1.8499408242985282e-05, 0.0038388432477141684, 0.009996632966084953)),
    ([(1.0, 1.0), (0.06, 0.228), (0.13, 0.349), (0.43, 0.101), (0.87, 0.641), (0.14, 0.114), (0.31, 0.957)],
     3, (2.259655348644965e-05, 0.009261365645647597, 0.011274614294124529)),
    ([(1.0, 1.0), (0.44, 0.121), (0.46, 0.437), (0.67, 0.97), (0.45, 0.206)],
     2, (0.1823329255128147, 0.0005373445585637929, 0.1823329255128147)),
    ([(1.0, 1.0), (0.58, 0.121), (0.12, 0.493), (0.33, 0.881), (0.23, 0.46)],
     0, (0.12138701161803808, 0.14972530353286537, 0.1706675734310868)),
    ([(1.0, 1.0), (0.76, 0.519), (0.68, 0.555), (0.31, 0.979), (0.55, 0.965), (0.19, 0.534), (0.15, 0.669)],
     0, (0.0451992869030204, 0.04953009624585413, 0.05862531173090286)),
    ([(1.0, 1.0), (0.47, 0.703), (0.65, 0.141), (0.46, 0.464), (0.23, 0.538), (0.79, 0.296), (0.08, 0.11)],
     0, (0.1421607923575824, 0.1523574735708136, 0.00027941568294769377)),
    ([(1.0, 1.0), (0.17, 0.792), (0.47, 0.951), (0.6, 0.28), (0.7, 0.234), (0.12, 0.365)],
     0, (0.0603503142885789, 0.08818342735891367, 0.0004909602761440561)),
    ([(1.0, 1.0), (0.76, 0.512), (0.72, 0.819), (0.04, 0.294), (0.09, 0.341)],
     3, (2.4535678861553592e-05, 0.007052175932115892, 0.007052175932115892)),
    ([(1.0, 1.0), (0.15, 0.512), (0.15, 0.209), (0.56, 0.092), (0.42, 0.71), (0.9, 0.504)],
     0, (0.1544005027899029, 0.1731009344061948, 0.0008022269493030339)),
    ([(1.0, 1.0), (0.15, 0.65), (0.4, 0.454), (0.64, 0.527), (0.56, 0.88)],
     0, (0.1270414117326128, 0.14322049504967138, 0.1480586564774777)),
    ([(1.0, 1.0), (0.55, 0.431), (0.5, 0.252), (0.74, 0.452), (0.02, 0.19), (0.12, 0.218), (0.57, 0.476)],
     3, (0.04101848340175279, 0.0010526827904009121, 0.0012845822827565697)),
    ([(1.0, 1.0), (0.79, 0.606), (0.86, 0.329), (0.86, 0.559), (0.47, 0.341)],
     3, (0.13696044508462454, 0.12196902069691878, 0.10732306895327669)),
    ([(1.0, 1.0), (0.16, 0.331), (0.55, 0.699), (0.34, 0.414), (0.47, 0.219)],
     2, (2.4133124938019417e-05, 0.025992649191858338, 0.06652943124447878)),
    ([(1.0, 1.0), (0.85, 0.676), (0.26, 0.913), (0.21, 0.457), (0.49, 0.865), (0.05, 0.118)],
     1, (2.016378002970734e-05, 0.03077835612351444, 0.00040803216527123036)),
    ([(1.0, 1.0), (0.66, 0.574), (0.74, 0.066), (0.15, 0.571), (0.69, 0.959), (0.04, 0.176)],
     3, (1.7341538747938506e-05, 0.013131976909951937, 0.02392257160391447)),
]


class TestCostModelSelection:
    """The degree and the lambdas Lasso-CV picks on fixed point sets.

    The first two sets' lambdas were recorded with the earlier
    coordinate-descent solver, the other 20 with an exact solver that solved
    each lambda on its own; the path solver picks the same grid values.
    """

    @pytest.mark.parametrize(
        "points, degree, lams",
        [
            pytest.param(*case, id=f"points{i}-lams{i}")
            for i, case in enumerate([
                (REFERENCE_POINTS, 3, (2.1845988080844983e-05, 0.003495049451954984, 0.000533490627963004)),
                (ACCEPT6_SEED0_POINTS, 3, (0.113839035746599, 0.0038628109458693043, 0.006788931279170688)),
                *SEEDED_SELECTIONS,
            ])
        ],
    )
    def test_selection_is_pinned(self, points, degree, lams):
        assert cost_adjusted_quality(points) == _refit_residuals(points, degree)
        cost = np.array([c for c, _ in points])
        quality = np.array([q for _, q in points])
        for d, lam in zip((1, 2, 3), lams):
            cols = np.column_stack([cost**k for k in range(1, d + 1)])
            fit = lasso_cv(cols, quality)
            assert fit.lam == lam
            if d <= degree + 1:  # the terms kept, then the one zeroed out
                assert (fit.coef[-1] != 0.0) == (d <= degree)

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
        full, paired = pair_accuracies(records)
        assert (full.proxy_id, paired.proxy_id) == ("full", "p")
        assert paired.config_ids == ("c1", "c2")
        assert paired.proxy_acc == (0.6, 0.5)
        assert paired.target_acc == (0.8, 0.9)
        assert paired.relative_cost == 0.1

    def test_no_overlap(self):
        records = [
            _rec([0.5], proxy="p", cfg="c1"),
            _rec([0.8], proxy="full", cfg="c2"),
        ]
        with pytest.raises(ValueError, match="no shared configs"):
            pair_accuracies(records)


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

    @pytest.mark.parametrize("rule", [GoodConfigRule("min_accuracy", 0.99), GoodConfigRule("top_fraction", 0.05)])
    def test_a_rule_that_keeps_under_two_configs_gives_nan_spearman(self, rule):
        rows = build_quality_reports(_matrix_records([("p1", 10.0, 0.01), ("p2", 20.0, 0.05)], n_cfg=11), rule)
        assert len(rows) == 3
        assert all(math.isnan(r.spearman_good) and math.isfinite(r.r2) for r in rows)

    def test_a_strategy_with_equal_accuracies_gets_nan_and_no_cost_model_point(self):
        proxies = [("p1", 10.0, 0.01), ("p2", 20.0, 0.05), ("p3", 30.0, 0.02), ("p4", 50.0, 0.1)]
        records = _matrix_records(proxies)
        flat = [_rec([0.5], proxy="flat", cfg=f"c{cfg}", cost=40.0) for cfg in range(6)]
        rows = build_quality_reports(records + flat)
        by_strategy = {r.strategy: r for r in rows}
        flat_row = by_strategy.pop("flat")
        assert math.isnan(flat_row.r2) and math.isnan(flat_row.spearman_good) and math.isnan(flat_row.cost_adjusted)
        assert flat_row.relative_cost == 0.4 and flat_row.n_configs == 6
        assert list(by_strategy.values()) == build_quality_reports(records)  # the other rows keep every bit

        rows = build_quality_reports(_matrix_records(proxies[:3]) + flat)  # 4 finite rows: no cost model
        assert all(math.isnan(r.cost_adjusted) for r in rows)

    def test_a_strategy_with_under_three_paired_configs_gets_no_row(self):
        records = _matrix_records([("p1", 10.0, 0.01), ("p2", 20.0, 0.05)])
        few = [_rec([0.5 + 0.1 * cfg], proxy="few", cfg=f"c{cfg}", cost=10.0) for cfg in range(2)]
        rows = build_quality_reports(records + few)
        assert [(r.strategy, r.r2) for r in rows] == [(r.strategy, r.r2) for r in build_quality_reports(records)]

    def test_two_datasets_are_each_scored_on_their_own_records(self):
        # the same config and proxy ids on both; e's costs are on another scale, in other ratios to its full run
        d = _matrix_records([("p1", 10.0, 0.01), ("p2", 20.0, 0.05), ("p3", 30.0, 0.02), ("p4", 50.0, 0.1)], seed=1)
        e = [replace(r, dataset_id="e", cost_units=7.0 * r.cost_units) for r in _matrix_records(
            [("p1", 40.0, 0.02), ("p2", 70.0, 0.01), ("p3", 15.0, 0.08), ("p4", 90.0, 0.03)], seed=2)]
        rows = build_quality_reports([r for pair in zip(e, d) for r in pair])  # interleaved, e first
        assert [r.dataset for r in rows] == ["d"] * 5 + ["e"] * 5
        for ds, own in (("d", d), ("e", e)):
            alone = [astuple(r) for r in build_quality_reports(own)]
            assert all(math.isfinite(v) for row in alone for v in row[2:])
            assert [astuple(r) for r in rows if r.dataset == ds] == alone

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
        write_csv(path, REPORT_COLUMNS, map(astuple, rows))
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
        with pytest.raises(ValueError, match=f"{path}: line 1: expected the header strategy,dataset,r2,"):
            reports_from_csv(path)
