"""Proxy-quality metrics and supporting statistics.

Three headline numbers per (dataset, strategy): r² of a no-intercept fit on
z-scored accuracies, Spearman correlation restricted to the well-performing
configurations, and a cost-adjusted quality that reports how far a
strategy's quality sits above or below what its relative cost predicts.
Everything here is pure numpy, population statistics throughout.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._exact import exact_ceil
from .proxy import FULL_PROXY_ID

__all__ = [
    "PairedAccuracies",
    "QualityReport",
    "GoodConfigRule",
    "LassoFit",
    "zscore",
    "r2_no_intercept",
    "spearman",
    "select_good_configs",
    "lasso_cv",
    "cost_adjusted_quality",
    "consistency_correlation",
    "epoch_correlation",
    "pair_accuracies",
    "build_quality_reports",
    "reports_to_csv",
    "reports_from_csv",
]

REPORT_COLUMNS = ("strategy", "dataset", "r2", "spearman_good", "cost_adjusted", "relative_cost", "n_configs")


@dataclass(frozen=True)
class PairedAccuracies:
    """Best-val accuracies aligned config-by-config: proxy vs target run."""

    dataset_id: str
    proxy_id: str
    config_ids: tuple
    proxy_acc: tuple
    target_acc: tuple

    def __post_init__(self):
        if not (len(self.config_ids) == len(self.proxy_acc) == len(self.target_acc)):
            raise ValueError("paired accuracy lists must align")
        for v in list(self.proxy_acc) + list(self.target_acc):
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"accuracy {v} outside [0, 1]")

    def __len__(self) -> int:
        return len(self.config_ids)


@dataclass(frozen=True)
class QualityReport:
    """One row of the strategy-quality table."""

    strategy: str
    dataset: str
    r2: float
    spearman_good: float
    cost_adjusted: float
    relative_cost: float
    n_configs: int


@dataclass(frozen=True)
class GoodConfigRule:
    """Which configs count as 'good' for the Spearman metric.

    top_fraction(f): the ceil(f*n) configs with highest proxy accuracy.
    min_accuracy(t): configs whose proxy accuracy is at least t.
    """

    kind: str
    value: float

    def __post_init__(self):
        if self.kind == "top_fraction":
            if not (0.0 < self.value <= 1.0):
                raise ValueError(f"top_fraction needs f in (0, 1], got {self.value}")
        elif self.kind == "min_accuracy":
            if not (0.0 <= self.value <= 1.0):
                raise ValueError(f"min_accuracy needs a threshold in [0, 1], got {self.value}")
        else:
            raise ValueError(f"unknown rule kind {self.kind!r}")

    @classmethod
    def top_fraction(cls, f: float) -> "GoodConfigRule":
        return cls("top_fraction", f)

    @classmethod
    def min_accuracy(cls, threshold: float) -> "GoodConfigRule":
        return cls("min_accuracy", threshold)


DEFAULT_GOOD_RULE = GoodConfigRule.top_fraction(0.5)


def zscore(values) -> np.ndarray:
    """Center and scale to mean 0, population standard deviation 1."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or len(v) < 2:
        raise ValueError("zscore needs at least 2 values")
    std = v.std()
    if std == 0.0:
        raise ValueError("degenerate accuracies: zero variance")
    return (v - v.mean()) / std


def r2_no_intercept(proxy, target) -> tuple:
    """Slope and r² of the through-origin fit target = beta * proxy.

    Callers are expected to z-score both lists first; on z-scored inputs the
    returned r² equals the squared Pearson correlation.
    """
    x = np.asarray(proxy, dtype=np.float64)
    y = np.asarray(target, dtype=np.float64)
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 3:
        raise ValueError("need at least 3 points")
    sxx = float(x @ x)
    if sxx == 0.0:
        raise ValueError("degenerate accuracies: zero variance")
    beta = float(x @ y) / sxx
    syy = float(y @ y)
    if syy == 0.0:
        raise ValueError("degenerate accuracies: zero variance")
    resid = y - beta * x
    r2 = 1.0 - float(resid @ resid) / syy
    return beta, r2


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    xc = x - x.mean()
    yc = y - y.mean()
    denom = math.sqrt(float(xc @ xc) * float(yc @ yc))
    if denom == 0.0:
        raise ValueError("constant input: correlation undefined")
    return float(xc @ yc) / denom


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of their rank range."""
    x = np.asarray(x, dtype=np.float64)
    order = np.argsort(x, kind="mergesort")
    ranks = np.empty(len(x), dtype=np.float64)
    i = 0
    n = len(x)
    xs = x[order]
    while i < n:
        j = i
        while j + 1 < n and xs[j + 1] == xs[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman(x, y) -> float:
    """Pearson correlation of average-ranked values."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise ValueError("need at least 2 points")
    return _pearson(_average_ranks(x), _average_ranks(y))


def select_good_configs(paired: PairedAccuracies, rule: GoodConfigRule = DEFAULT_GOOD_RULE) -> list:
    """Indices of the well-performing configs, judged by PROXY accuracy.

    top_fraction keeps the ceil(f*n) highest (ties broken by config id);
    min_accuracy keeps everything at or above the threshold. Raises if
    fewer than 2 survive, since a correlation needs at least a pair.
    """
    n = len(paired)
    if n == 0:
        raise ValueError("no paired configs")
    if rule.kind == "top_fraction":
        k = exact_ceil(rule.value, n)
        order = sorted(range(n), key=lambda i: (-paired.proxy_acc[i], paired.config_ids[i]))
        chosen = sorted(order[:k])
    else:
        chosen = [i for i in range(n) if paired.proxy_acc[i] >= rule.value]
    if len(chosen) < 2:
        raise ValueError(f"too few good configs: {len(chosen)}")
    return chosen


@dataclass(frozen=True)
class LassoFit:
    coef: np.ndarray  # on the original feature scale
    intercept: float
    lam: float


def _lasso_exact(xs: np.ndarray, yc: np.ndarray, lam: float) -> np.ndarray:
    """Minimize (1/2n)||yc - xs b||^2 + lam ||b||_1 exactly: try all 3^p sign patterns.

    On its support A with signs s_A, some minimizer solves G_AA b_A = c_A - lam s_A
    (G = xs'xs/n, c = xs'yc/n). Solutions with other signs are skipped; the lowest
    objective wins, b = 0 first, so inactive entries are exactly 0.0.
    """
    n, p = xs.shape
    gram, corr = xs.T @ xs / n, xs.T @ yc / n
    best, best_obj = np.zeros(p), 0.5 * float(yc @ yc) / n
    for s in map(np.array, itertools.product((-1.0, 0.0, 1.0), repeat=p)):
        active = s != 0.0
        try:
            b_active = np.linalg.solve(gram[np.ix_(active, active)], corr[active] - lam * s[active])
        except np.linalg.LinAlgError:
            continue
        if not np.array_equal(np.sign(b_active), s[active]):
            continue
        b = np.zeros(p)
        b[active] = b_active
        resid = yc - xs @ b
        obj = 0.5 * float(resid @ resid) / n + lam * float(np.abs(b_active).sum())
        if obj < best_obj:
            best, best_obj = b, obj
    return best


def _standardize(x: np.ndarray):
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    safe = np.where(std == 0.0, 1.0, std)
    return (x - mean) / safe, mean, std, safe


def lasso_cv(features, y, lambda_grid=None) -> LassoFit:
    """Lasso on (n, p <= 3) features, the penalty weight chosen by k-fold cross-validation.

    Features are standardized internally and the intercept is never
    penalized; returned coefficients are on the original scale. The default
    grid is 50 log-spaced values from 1e-4*lam_max up to lam_max (the
    smallest penalty that zeroes every coefficient); folds are min(5, n)
    contiguous unshuffled blocks; ties prefer the larger lambda.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"features must be an (n, p) array, got shape {x.shape}")
    if x.shape[1] > 3:  # the exact solver costs 3^p solves per fit
        raise ValueError(f"at most 3 feature columns, got {x.shape[1]}")
    y = np.asarray(y, dtype=np.float64)
    n = x.shape[0]
    if n < 2:
        raise ValueError("need at least 2 rows")
    if len(y) != n:
        raise ValueError(f"{len(y)} targets for {n} rows")
    folds = min(5, n)

    xs, x_mean, x_std, x_safe = _standardize(x)
    y_mean = float(y.mean())
    yc = y - y_mean

    if lambda_grid is None:
        lam_max = float(np.max(np.abs(xs.T @ yc))) / n
        if lam_max == 0.0:  # constant target: any penalty gives all-zero coefs
            lambda_grid = [0.0]
        else:
            lambda_grid = np.geomspace(1e-4 * lam_max, lam_max, num=50)
    lambda_grid = sorted(set(float(l) for l in lambda_grid), reverse=True)

    if len(lambda_grid) == 1:
        best_lam = lambda_grid[0]
    else:
        bounds = [round(i * n / folds) for i in range(folds + 1)]
        cv_err = np.zeros(len(lambda_grid))
        for k in range(folds):
            test = np.arange(bounds[k], bounds[k + 1])
            train = np.concatenate([np.arange(0, bounds[k]), np.arange(bounds[k + 1], n)])
            xtr, m, _, s = _standardize(x[train])
            ytr_mean = float(y[train].mean())
            ytr = y[train] - ytr_mean
            xte = (x[test] - m) / s
            for li, lam in enumerate(lambda_grid):
                beta = _lasso_exact(xtr, ytr, lam)
                pred = xte @ beta + ytr_mean
                cv_err[li] += float(np.mean((y[test] - pred) ** 2))
        # grid is descending, so argmin lands on the largest tied lambda
        best_lam = lambda_grid[int(np.argmin(cv_err / folds))]

    beta_std = _lasso_exact(xs, yc, best_lam)
    coef = np.where(x_std == 0.0, 0.0, beta_std / x_safe)
    intercept = y_mean - float(coef @ x_mean)
    return LassoFit(coef=coef, intercept=intercept, lam=best_lam)


def cost_adjusted_quality(points, degree: int | None = None) -> list:
    """Residual quality of each strategy after removing what cost explains.

    points: (relative_cost, quality) pairs, one per strategy. Polynomial
    terms cost, cost², cost³ are added one at a time; a term that Lasso-CV
    zeroes out stops the growth. The kept terms are then refit by ordinary
    least squares with an intercept, and each strategy's residual
    quality - fit(cost) is returned in input order. Positive means better
    than its cost predicts.

    degree forces the polynomial degree (0 = intercept only), skipping the
    Lasso selection.
    """
    pts = [(float(c), float(q)) for c, q in points]
    if len(pts) < 5:
        raise ValueError(f"too few strategies: {len(pts)} < 5")
    cost = np.array([c for c, _ in pts])
    quality = np.array([q for _, q in pts])

    if degree is None:
        degree = 0
        for d in range(1, 4):
            cols = np.column_stack([cost**p for p in range(1, d + 1)])
            fit = lasso_cv(cols, quality)
            if fit.coef[d - 1] == 0.0:
                break
            degree = d
    elif not (0 <= degree <= 3):
        raise ValueError(f"degree must be in [0, 3], got {degree}")

    if degree == 0:
        fitted = np.full(len(pts), quality.mean())
    else:
        design = np.column_stack([np.ones(len(pts))] + [cost**p for p in range(1, degree + 1)])
        coef, *_ = np.linalg.lstsq(design, quality, rcond=None)
        fitted = design @ coef
    return [float(q - f) for q, f in zip(quality, fitted)]


def consistency_correlation(reports_a, reports_b, metric: str) -> float:
    """Pearson correlation of one metric across strategies shared by two
    independent report sets (different datasets, different config splits)."""
    if metric not in ("r2", "spearman_good", "cost_adjusted", "relative_cost"):
        raise ValueError(f"unknown metric {metric!r}")
    by_a = {r.strategy: getattr(r, metric) for r in reports_a}
    by_b = {r.strategy: getattr(r, metric) for r in reports_b}
    shared = sorted(set(by_a) & set(by_b))
    if len(shared) < 3:
        raise ValueError(f"only {len(shared)} shared strategies, need at least 3")
    return _pearson(
        np.array([by_a[s] for s in shared]), np.array([by_b[s] for s in shared])
    )


def epoch_correlation(records) -> list:
    """Per-epoch Pearson between accuracy-so-far and final best accuracy.

    Element e answers: how well does the standing after epoch e predict the
    final outcome across these runs? Epochs where every run has the same
    accuracy are reported as nan rather than failing the whole series.
    """
    records = list(records)
    if len(records) < 3:
        raise ValueError("need at least 3 records")
    lengths = {len(r.epoch_val_acc) for r in records}
    if len(lengths) != 1:
        raise ValueError(f"records have unequal epoch counts: {sorted(lengths)}")
    accs = np.array([r.epoch_val_acc for r in records])
    best = np.array([r.best_val_acc for r in records])
    out = []
    for e in range(accs.shape[1]):
        try:
            out.append(_pearson(accs[:, e], best))
        except ValueError:
            out.append(float("nan"))
    return out


def pair_accuracies(records, dataset_id: str, proxy_id: str) -> PairedAccuracies:
    """Align proxy-run and full-run accuracies by config id."""
    proxy_by_cfg = {}
    target_by_cfg = {}
    for r in records:
        if r.dataset_id != dataset_id:
            continue
        if r.proxy_id == proxy_id:
            proxy_by_cfg[r.config_id] = r.best_val_acc
        if r.proxy_id == FULL_PROXY_ID:
            target_by_cfg[r.config_id] = r.best_val_acc
    shared = sorted(set(proxy_by_cfg) & set(target_by_cfg))
    if not shared:
        raise ValueError(
            f"no shared configs between {proxy_id!r} and {FULL_PROXY_ID!r} on {dataset_id!r}"
        )
    return PairedAccuracies(
        dataset_id=dataset_id,
        proxy_id=proxy_id,
        config_ids=tuple(shared),
        proxy_acc=tuple(proxy_by_cfg[c] for c in shared),
        target_acc=tuple(target_by_cfg[c] for c in shared),
    )


def _strategy_cost(records, dataset_id: str, proxy_id: str) -> float:
    proxy_costs = [r.cost_units for r in records if r.dataset_id == dataset_id and r.proxy_id == proxy_id]
    target_costs = [r.cost_units for r in records if r.dataset_id == dataset_id and r.proxy_id == FULL_PROXY_ID]
    return (sum(proxy_costs) / len(proxy_costs)) / (sum(target_costs) / len(target_costs))


def build_quality_reports(records, good_rule: GoodConfigRule = DEFAULT_GOOD_RULE) -> list:
    """QualityReport rows for every (dataset, strategy) in a result set.

    Every strategy is scored against the full run, which is itself
    included as a row (r2 = 1 by construction), anchoring the
    quality-vs-cost picture. Cost-adjusted values need at least 5 strategies on a dataset;
    with fewer, that column is nan. Rows with under 3 paired configs are
    skipped entirely.
    """
    records = list(records)
    datasets = sorted({r.dataset_id for r in records})
    rows = []
    for ds in datasets:
        proxies = sorted({r.proxy_id for r in records if r.dataset_id == ds})
        if FULL_PROXY_ID not in proxies:
            raise ValueError(f"dataset {ds!r} has no {FULL_PROXY_ID!r} runs to compare against")
        ds_rows = []
        for proxy_id in proxies:
            paired = pair_accuracies(records, ds, proxy_id)
            if len(paired) < 3:
                continue
            _, r2 = r2_no_intercept(zscore(paired.proxy_acc), zscore(paired.target_acc))
            good = select_good_configs(paired, good_rule)
            try:
                sp = spearman(
                    [paired.proxy_acc[i] for i in good],
                    [paired.target_acc[i] for i in good],
                )
            except ValueError:
                sp = float("nan")
            ds_rows.append(
                QualityReport(
                    strategy=proxy_id,
                    dataset=ds,
                    r2=r2,
                    spearman_good=sp,
                    cost_adjusted=float("nan"),
                    relative_cost=_strategy_cost(records, ds, proxy_id),
                    n_configs=len(paired),
                )
            )
        if len(ds_rows) >= 5:
            resid = cost_adjusted_quality([(r.relative_cost, r.r2) for r in ds_rows])
            ds_rows = [
                QualityReport(
                    strategy=r.strategy,
                    dataset=r.dataset,
                    r2=r.r2,
                    spearman_good=r.spearman_good,
                    cost_adjusted=res,
                    relative_cost=r.relative_cost,
                    n_configs=r.n_configs,
                )
                for r, res in zip(ds_rows, resid)
            ]
        rows.extend(ds_rows)
    return rows


def reports_to_csv(reports, fh) -> None:
    w = csv.writer(fh)
    w.writerow(REPORT_COLUMNS)
    for r in reports:
        w.writerow(
            [r.strategy, r.dataset, repr(r.r2), repr(r.spearman_good), repr(r.cost_adjusted), repr(r.relative_cost), r.n_configs]
        )


def reports_from_csv(path: str | Path) -> list:
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or tuple(rows[0]) != REPORT_COLUMNS:
        raise ValueError(f"{path}: not a quality report CSV")
    out = []
    for row in rows[1:]:
        if not row:
            continue
        out.append(
            QualityReport(
                strategy=row[0],
                dataset=row[1],
                r2=float(row[2]),
                spearman_good=float(row[3]),
                cost_adjusted=float(row[4]),
                relative_cost=float(row[5]),
                n_configs=int(row[6]),
            )
        )
    return out
