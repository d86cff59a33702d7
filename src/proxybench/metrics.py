"""Proxy-quality metrics and supporting statistics.

Every number starts from pair_accuracies, one pass over the records that pairs
each (dataset, strategy) config by config with its dataset's full run and costs
it. Three headline numbers per (dataset, strategy): r² of a no-intercept fit on
z-scored accuracies, Spearman correlation restricted to the well-performing
configurations, and a cost-adjusted quality that reports how far a
strategy's quality sits above or below what its relative cost predicts.
Everything here is pure numpy, population statistics throughout.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from ._atomic import read_csv
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
    "reports_from_csv",
]

@dataclass(frozen=True)
class PairedAccuracies:
    """Best-val accuracies aligned config-by-config: proxy vs target run."""

    dataset_id: str
    proxy_id: str
    config_ids: tuple
    proxy_acc: tuple
    target_acc: tuple
    relative_cost: float  # mean cost_units of the proxy's runs over the target's

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


REPORT_COLUMNS = tuple(f.name for f in fields(QualityReport))
_REPORT_READERS = tuple(get_type_hints(QualityReport).values())  # what reads each column, in field order


@dataclass(frozen=True)
class GoodConfigRule:
    """Which configs count as 'good' for the Spearman metric.

    GoodConfigRule("top_fraction", f): the ceil(f*n) configs with highest
    proxy accuracy. GoodConfigRule("min_accuracy", t): configs whose proxy
    accuracy is at least t.
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


DEFAULT_GOOD_RULE = GoodConfigRule("top_fraction", 0.5)


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
    """1-based ranks; tied values share the mean of their rank range: (lo + hi + 1) / 2, an exact
    half-integer, for a value with lo values below it and hi at or below it."""
    x = np.asarray(x, dtype=np.float64)
    xs = np.sort(x)
    return (np.searchsorted(xs, x, side="left") + np.searchsorted(xs, x, side="right") + 1) / 2.0


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


def _lasso_path(xs: np.ndarray, yc: np.ndarray, lams) -> np.ndarray:
    """Minimize (1/2n)||yc - xs b||^2 + lam ||b||_1 exactly at each lam: try all 3^p sign patterns.

    On its support A with signs s_A, some minimizer solves G_AA b_A = c_A - lam s_A
    (G = xs'xs/n, c = xs'yc/n), so b_A = G_AA^-1 c_A - lam G_AA^-1 s_A: one solve per
    pattern gives every lam. Solutions with other signs are skipped; the lowest
    objective wins, b = 0 first, so inactive entries are exactly 0.0. Returns (len(lams), p).
    """
    n, p = xs.shape
    lams = np.asarray(lams, dtype=np.float64)
    gram, corr = xs.T @ xs / n, xs.T @ yc / n
    best = np.zeros((len(lams), p))
    best_obj = np.full(len(lams), 0.5 * np.sum(yc * yc) / n)  # summed like each pattern's, so b = 0 ties itself
    for s in map(np.array, itertools.product((-1.0, 0.0, 1.0), repeat=p)):
        active = s != 0.0
        rhs = np.column_stack([corr[active], s[active]])
        try:
            base, slope = np.linalg.solve(gram[np.ix_(active, active)], rhs).T
        except np.linalg.LinAlgError:
            continue
        b = np.zeros((len(lams), p))
        b[:, active] = base - lams[:, None] * slope
        resid = yc - b @ xs.T
        obj = 0.5 * np.sum(resid * resid, axis=1) / n + lams * np.abs(b).sum(axis=1)
        wins = np.all(np.sign(b[:, active]) == s[active], axis=1) & (obj < best_obj)
        best[wins], best_obj[wins] = b[wins], obj[wins]
    return best


def _standardize(x: np.ndarray):
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    safe = np.where(std == 0.0, 1.0, std)
    return (x - mean) / safe, mean, std, safe


def lasso_cv(features, y) -> LassoFit:
    """Lasso on (n, p <= 3) features, the penalty weight chosen by k-fold cross-validation.

    Features are standardized internally and the intercept is never
    penalized; returned coefficients are on the original scale. The grid is
    50 log-spaced values from 1e-4*lam_max up to lam_max (the smallest
    penalty that zeroes every coefficient); a constant target gets lam = 0.
    Folds are min(5, n) contiguous unshuffled blocks, each solved along the
    whole grid at once (3^p solves per fold); ties prefer the larger lambda.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"features must be an (n, p) array, got shape {x.shape}")
    if x.shape[1] > 3:  # the exact solver costs 3^p solves per fold
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

    lam_max = float(np.max(np.abs(xs.T @ yc))) / n
    if lam_max == 0.0:  # constant target: any penalty gives all-zero coefs
        best_lam = 0.0
    else:
        lams = np.geomspace(1e-4 * lam_max, lam_max, num=50)[::-1]
        bounds = [round(i * n / folds) for i in range(folds + 1)]
        cv_err = np.zeros(len(lams))
        for k in range(folds):
            test = np.arange(bounds[k], bounds[k + 1])
            train = np.concatenate([np.arange(0, bounds[k]), np.arange(bounds[k + 1], n)])
            xtr, m, _, s = _standardize(x[train])
            ytr_mean = float(y[train].mean())
            pred = _lasso_path(xtr, y[train] - ytr_mean, lams) @ ((x[test] - m) / s).T + ytr_mean
            cv_err += np.mean((y[test] - pred) ** 2, axis=1)
        # grid is descending, so argmin lands on the largest tied lambda
        best_lam = float(lams[int(np.argmin(cv_err / folds))])

    beta_std = _lasso_path(xs, yc, [best_lam])[0]
    coef = np.where(x_std == 0.0, 0.0, beta_std / x_safe)
    intercept = y_mean - float(coef @ x_mean)
    return LassoFit(coef=coef, intercept=intercept, lam=best_lam)


def cost_adjusted_quality(points) -> list:
    """Residual quality of each strategy after removing what cost explains.

    points: (relative_cost, quality) pairs, one per strategy. Polynomial
    terms cost, cost², cost³ are added one at a time; a term that Lasso-CV
    zeroes out stops the growth. The kept terms are then refit by ordinary
    least squares with an intercept, and each strategy's residual
    quality - fit(cost) is returned in input order. Positive means better
    than its cost predicts. With no term kept, the fit is the mean quality.
    """
    pts = [(float(c), float(q)) for c, q in points]
    if len(pts) < 5:
        raise ValueError(f"too few strategies: {len(pts)} < 5")
    cost = np.array([c for c, _ in pts])
    quality = np.array([q for _, q in pts])

    degree = 0
    for d in range(1, 4):
        cols = np.column_stack([cost**p for p in range(1, d + 1)])
        fit = lasso_cv(cols, quality)
        if fit.coef[d - 1] == 0.0:
            break
        degree = d

    if degree == 0:
        fitted = np.full(len(pts), quality.mean())
    else:
        design = np.column_stack([np.ones(len(pts))] + [cost**p for p in range(1, degree + 1)])
        coef, *_ = np.linalg.lstsq(design, quality, rcond=None)
        fitted = design @ coef
    return [float(q - f) for q, f in zip(quality, fitted)]


CONSISTENCY_METRICS = ("r2", "spearman_good", "cost_adjusted", "relative_cost")  # QualityReport fields


def consistency_correlation(reports_a, reports_b, metric: str) -> float:
    """Pearson correlation of one metric across strategies shared by two
    independent report sets (different datasets, different config splits)."""
    if metric not in CONSISTENCY_METRICS:
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


def pair_accuracies(records) -> list:
    """The PairedAccuracies of every (dataset, strategy) in records, full included, sorted by dataset, then
    proxy id, from one pass over records. Raises ValueError if a dataset has no full runs, or if a strategy
    shares no config with its dataset's full run."""
    groups: dict = {}  # (dataset, proxy id) -> ({config id: best-val accuracy}, [cost_units in record order])
    for r in records:
        acc, costs = groups.setdefault((r.dataset_id, r.proxy_id), ({}, []))
        acc[r.config_id] = r.best_val_acc
        costs.append(r.cost_units)
    paired = []
    for ds, proxy_id in sorted(groups):
        if (ds, FULL_PROXY_ID) not in groups:
            raise ValueError(f"dataset {ds!r} has no {FULL_PROXY_ID!r} runs to compare against")
        (proxy_acc, proxy_costs), (target_acc, target_costs) = groups[ds, proxy_id], groups[ds, FULL_PROXY_ID]
        shared = sorted(set(proxy_acc) & set(target_acc))
        if not shared:
            raise ValueError(f"no shared configs between {proxy_id!r} and {FULL_PROXY_ID!r} on {ds!r}")
        paired.append(PairedAccuracies(
            dataset_id=ds,
            proxy_id=proxy_id,
            config_ids=tuple(shared),
            proxy_acc=tuple(proxy_acc[c] for c in shared),
            target_acc=tuple(target_acc[c] for c in shared),
            relative_cost=(sum(proxy_costs) / len(proxy_costs)) / (sum(target_costs) / len(target_costs)),
        ))
    return paired


def build_quality_reports(records, good_rule: GoodConfigRule = DEFAULT_GOOD_RULE) -> list:
    """QualityReport rows for every (dataset, strategy) of pair_accuracies(records), whose refusals it raises.

    Every strategy is scored against the full run, which is itself
    included as a row (r2 = 1 by construction), anchoring the
    quality-vs-cost picture. Rows with under 3 paired configs are skipped
    entirely. An undefined metric is nan: r2 and spearman_good when the strategy's or the
    full run's accuracies are equal across configs; spearman_good when good_rule keeps under 2
    configs; cost_adjusted where r2 is nan, or where a dataset has under 5 finite r2 values.
    """
    rows = []
    for ds, pairs in itertools.groupby(pair_accuracies(records), key=lambda p: p.dataset_id):
        ds_rows = []
        for paired in pairs:
            if len(paired) < 3:
                continue
            try:
                _, r2 = r2_no_intercept(zscore(paired.proxy_acc), zscore(paired.target_acc))
            except ValueError:  # zero variance: the constant side then also makes spearman_good nan
                r2 = float("nan")
            try:
                good = select_good_configs(paired, good_rule)
                sp = spearman(
                    [paired.proxy_acc[i] for i in good],
                    [paired.target_acc[i] for i in good],
                )
            except ValueError:
                sp = float("nan")
            ds_rows.append(
                QualityReport(
                    strategy=paired.proxy_id,
                    dataset=ds,
                    r2=r2,
                    spearman_good=sp,
                    cost_adjusted=float("nan"),
                    relative_cost=paired.relative_cost,
                    n_configs=len(paired),
                )
            )
        scored = [i for i, r in enumerate(ds_rows) if not math.isnan(r.r2)]
        if len(scored) >= 5:
            resid = cost_adjusted_quality([(ds_rows[i].relative_cost, ds_rows[i].r2) for i in scored])
            for i, res in zip(scored, resid):
                ds_rows[i] = replace(ds_rows[i], cost_adjusted=res)
        rows.extend(ds_rows)
    return rows


def reports_from_csv(path: str | Path) -> list:
    """The QualityReport rows of a quality report CSV as analyze writes it, read and checked by read_csv."""
    return [QualityReport(*row) for row in read_csv(path, REPORT_COLUMNS, _REPORT_READERS)]
