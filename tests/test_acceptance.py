"""End-to-end acceptance checks, one test per criterion.

Each test prints a single [PASS]/[FAIL] line on the live terminal (bypassing
capture) so the verdicts are visible in plain pytest output. Criterion 7 is
exploratory: its line reports a direction on noisy synthetic data and the
test never fails on it.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from proxybench.cli import main as cli_main
from proxybench.dataset import SynthSpec, split, synth_generate
from proxybench.difficulty import DifficultyTable, quantile_slice, score_examples
from proxybench.metrics import (
    GoodConfigRule,
    PairedAccuracies,
    _lasso_path,
    cost_adjusted_quality,
    pair_accuracies,
    r2_no_intercept,
    select_good_configs,
    spearman,
    zscore,
)
from proxybench.orchestrator import GridSpec, ResultStore, generate_grid, run_matrix, store_load
from proxybench.proxy import ProxySpec, build_proxy
from proxybench.trainer import HyperparamConfig, train_model
from gradcheck import gradient_check


def _verdict(capsys, number: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        # leading break: verbose pytest leaves the cursor after the test id
        print(f"\n[{'PASS' if ok else 'FAIL'}] acceptance {number}: {detail}")


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("PROXYBENCH_SEED", raising=False)


def test_1_gradients_match_finite_differences(capsys):
    rng = np.random.default_rng(101)
    spec = SynthSpec(
        class_count=4, feature_dim=6, examples_per_class=8, class_separation=2.0,
        noise_scale_lo=0.5, noise_scale_hi=1.0, label_flip_fraction=0.0, seed=1,
    )
    d = synth_generate(spec)

    t0 = time.perf_counter()
    worst = 0.0
    checked = 0
    for i in range(10):
        cfg = HyperparamConfig(
            depth=str(rng.choice(["small", "default", "large"])),
            stem_width_1=int(rng.choice([8, 16, 24])),
            stem_width_2=int(rng.choice([8, 16, 24])),
            label_smoothing=bool(rng.integers(0, 2)),
            seed=int(rng.integers(0, 1_000_000)),
        )
        rep = gradient_check(cfg, d, tolerance=1e-4, n_coords=100, seed=i)
        assert rep.n_coords - rep.n_skipped > 50  # the check must mostly run
        worst = max(worst, rep.max_rel_err)
        checked += 1
        if not rep.passed:
            break
    elapsed = time.perf_counter() - t0

    ok = checked == 10 and worst <= 1e-4 and elapsed < 60.0
    _verdict(
        capsys, 1,
        ok,
        f"analytic vs central-difference gradients, 100 coords x 10 configs: "
        f"max rel err {worst:.2e} (tol 1e-4), {elapsed:.1f}s",
    )
    assert ok


def test_2_statistics_match_independent_oracles(capsys):
    rng = np.random.default_rng(202)

    # through-origin r2 on z-scored data == squared Pearson
    worst_r2 = 0.0
    for _ in range(1000):
        n = int(rng.integers(3, 50))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        _, r2 = r2_no_intercept(zscore(x), zscore(y))
        worst_r2 = max(worst_r2, abs(r2 - float(np.corrcoef(x, y)[0, 1]) ** 2))
    ok_r2 = worst_r2 < 1e-10

    # rank correlation == brute-force counting-rank Pearson, ties included
    def counting_ranks(v):
        return np.array([np.sum(v < s) + (np.sum(v == s) + 1) / 2.0 for s in v])

    worst_sp = 0.0
    for trial in range(1000):
        n = int(rng.integers(3, 30))
        while True:
            if trial % 2:
                x = rng.integers(0, 6, size=n).astype(float)
                y = rng.integers(0, 6, size=n).astype(float)
            else:
                x = rng.normal(size=n)
                y = rng.normal(size=n)
            rx, ry = counting_ranks(x), counting_ranks(y)
            if rx.std() > 0 and ry.std() > 0:
                break
        oracle = float(np.corrcoef(rx, ry)[0, 1])
        worst_sp = max(worst_sp, abs(spearman(x, y) - oracle))
        if trial % 2 == 0 and len(set(x)) == n and len(set(y)) == n:
            d2 = float(np.sum((counting_ranks(x) - counting_ranks(y)) ** 2))
            closed_form = 1.0 - 6.0 * d2 / (n * (n * n - 1.0))
            worst_sp = max(worst_sp, abs(spearman(x, y) - closed_form))
    ok_sp = worst_sp < 1e-12

    # unpenalized lasso == closed-form least squares
    worst_ls = 0.0
    for _ in range(100):
        n = int(rng.integers(30, 60))
        p = int(rng.integers(1, 4))
        x = rng.normal(size=(n, p))
        y = x @ rng.normal(size=p) + rng.normal() + 0.1 * rng.normal(size=n)
        # lasso_cv's standardized problem, mapped back to the original scale
        beta = _lasso_path((x - x.mean(axis=0)) / x.std(axis=0), y - y.mean(), [0.0])[0] / x.std(axis=0)
        intercept = y.mean() - float(beta @ x.mean(axis=0))
        design = np.column_stack([np.ones(n), x])
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        worst_ls = max(worst_ls, abs(intercept - coef[0]), float(np.max(np.abs(beta - coef[1:]))))
    ok_ls = worst_ls < 1e-6

    ok = ok_r2 and ok_sp and ok_ls
    _verdict(
        capsys, 2,
        ok,
        f"stat oracles: |r2 - pearson^2| {worst_r2:.1e} (1e-10), "
        f"rank-corr vs counting oracle {worst_sp:.1e} (1e-12), "
        f"lambda=0 lasso vs least squares {worst_ls:.1e} (1e-6)",
    )
    assert ok


def _oracle_slice(entries, lo, hi):
    """Independent reimplementation: sort, then rational rank bounds."""
    ranked = sorted(entries, key=lambda e: (-e[1], e[0]))
    n = len(ranked)
    start = math.floor(Fraction(str(lo)) * n)
    stop = math.floor(Fraction(str(hi)) * n)
    return [i for i, _ in ranked[start:stop]]


def _table_of(entries):
    """The table of (id, loss) pairs already in rank order."""
    return DifficultyTable(ids=[i for i, _ in entries], losses=[l for _, l in entries],
                           dataset_id="d", scoring_config_id="c")


def test_3_quantile_slices_match_brute_force_oracle(capsys):
    rng = np.random.default_rng(303)
    failures = []
    sizes = [10_000] + [int(rng.integers(1, 10_000)) for _ in range(24)]
    for trial, n in enumerate(sizes):
        ids = rng.permutation(n * 3)[:n]
        if trial % 2:
            losses = rng.integers(0, max(2, n // 20), size=n).astype(float)  # ties
        else:
            losses = rng.uniform(0.0, 9.0, size=n)
        entries = tuple(
            sorted(((int(i), float(l)) for i, l in zip(ids, losses)), key=lambda e: (-e[1], e[0]))
        )
        table = _table_of(entries)

        cuts = sorted({round(float(rng.uniform(0, 1)), 3) for _ in range(3)} | {0.0, 1.0})
        if len(cuts) < 3:
            continue
        lo, mid, hi = cuts[0], cuts[len(cuts) // 2], cuts[-1]

        got = list(quantile_slice(table, lo, hi))
        if got != _oracle_slice(entries, lo, hi):
            failures.append((n, lo, hi, "oracle mismatch"))
        # partition: an interior cut splits the slice without loss or overlap
        if list(quantile_slice(table, lo, mid)) + list(quantile_slice(table, mid, hi)) != got:
            failures.append((n, lo, hi, "partition broken"))
        # cardinality from decimal rank bounds
        expected_len = math.floor(Fraction(str(hi)) * n) - math.floor(Fraction(str(lo)) * n)
        if len(got) != expected_len:
            failures.append((n, lo, hi, "cardinality off"))
        # positive rescaling of losses must not move any boundary
        scaled = tuple((i, l * 73.5) for i, l in entries)
        stable = _table_of(scaled)
        if list(quantile_slice(stable, lo, hi)) != got:
            failures.append((n, lo, hi, "scale variance"))

    ok = not failures
    _verdict(
        capsys, 3,
        ok,
        f"difficulty slicing vs sort oracle on {len(sizes)} random tables (n up to 10,000): "
        + ("all partition/cardinality/scale properties hold" if ok else f"failed {failures[:3]}"),
    )
    assert ok, failures


# Fixed external reference measurements for 24 dataset-reduction strategies:
# (strategy, relative cost, quality r2, residual assigned by a prior cost model).
_REFERENCE_STRATEGIES = [
    ("full", 1.0, 1.0, 0.0),
    ("hard-0.25-1.0", 0.7859, 0.99, 0.0556),
    ("half-1.0", 0.515, 0.96, 0.0659),
    ("half-other-1.0", 0.5546, 0.89, -0.0142),
    ("half-0.7", 0.3876, 0.91, 0.0739),
    ("hard-0.05-0.5", 0.5257, 0.79, -0.1071),
    ("hard-0.5-1.0", 0.5568, 0.96, 0.0553),
    ("hard-0.9-1.0", 0.1284, 0.81, 0.2922),
    ("random-0.7", 0.728, 0.96, 0.0325),
    ("hard-0.75-1.0", 0.2998, 0.82, 0.0556),
    ("half-0.1", 0.045, 0.31, -0.0231),
    ("random-0.5", 0.5268, 0.87, -0.0274),
    ("hard-0.0-0.75", 0.8137, 0.93, -0.0088),
    ("hard-0.0-0.5", 0.5568, 0.79, -0.1147),
    ("half-0.5", 0.2698, 0.79, 0.0577),
    ("ep10", 0.5139, 0.87, -0.0238),
    ("ep1", 0.0514, 0.2, -0.1489),
    ("half-0.25", 0.1307, 0.55, 0.0279),
    ("random-0.1", 0.1007, 0.41, -0.0516),
    ("random-0.25", 0.2794, 0.65, -0.0931),
    ("ep5", 0.257, 0.64, -0.0773),
    ("hard-0.0-0.25", 0.2998, 0.54, -0.2244),
    ("hard-0.0-0.1", 0.1713, 0.36, -0.2349),
    ("distilled", 0.0257, 0.032, -0.2515),
]


def test_4_cost_adjustment_reproduces_reference_residual_ranking(capsys):
    points = [(cost, r2) for _, cost, r2, _ in _REFERENCE_STRATEGIES]
    reference = [res for _, _, _, res in _REFERENCE_STRATEGIES]
    residuals = cost_adjusted_quality(points)

    agreement = spearman(residuals, reference)
    easiest_tenth = residuals[[s for s, *_ in _REFERENCE_STRATEGIES].index("hard-0.9-1.0")]

    ok = agreement >= 0.8 and easiest_tenth > 0.0
    _verdict(
        capsys, 4,
        ok,
        f"cost-adjusted residuals vs 24 reference strategies: rank agreement "
        f"{agreement:.4f} (need >= 0.8), easiest-10% residual {easiest_tenth:+.4f} (need > 0)",
    )
    assert ok


def test_5_good_config_selection_keeps_the_top_pair(capsys):
    paired = PairedAccuracies(
        dataset_id="d",
        proxy_id="p",
        config_ids=("c0", "c1", "c2", "c3"),
        proxy_acc=(0.92, 0.93, 0.84, 0.86),
        target_acc=(0.95, 0.99, 0.85, 0.88),
        relative_cost=1.0,
    )
    top = select_good_configs(paired, GoodConfigRule("top_fraction", 0.5))
    floor = select_good_configs(paired, GoodConfigRule("min_accuracy", 0.9))
    corr = spearman([paired.proxy_acc[i] for i in top], [paired.target_acc[i] for i in top])

    ok = top == [0, 1] and floor == [0, 1] and abs(corr - 1.0) < 1e-12
    _verdict(
        capsys, 5,
        ok,
        f"top-half of (.92,.93,.84,.86) selects ({paired.proxy_acc[top[0]]},{paired.proxy_acc[top[1]]}); "
        f"rank corr of the kept pair {corr:g}",
    )
    assert ok


_E2E_SPEC = {
    "class_count": 10,
    "feature_dim": 12,
    "examples_per_class": 100,
    "class_separation": 4.0,
    "noise_scale_lo": 0.5,
    "noise_scale_hi": 1.0,
    "label_flip_fraction": 0.0,
    "seed": 17,
}

_E2E_GRID = {
    "defaults": {},
    "variations": {
        "learning_rate": [0.001, 0.007, 0.01],
        "depth": ["small", "large"],
        "stem_width_1": [16],
        "stem_width_2": [16],
        "augment_prob": [0.0],
        "optimizer": ["sgd", "rmsprop"],
    },
}


def _e2e_pipeline(root):
    """gen-data .. analyze via the CLI; returns (results path, quality path)."""
    data = root / "synth10.csv"
    scores = root / "difficulty.json"
    proxies = root / "proxies"
    results = root / "results.jsonl"
    quality = root / "quality.csv"
    proxies.mkdir(parents=True)
    (root / "spec.json").write_text(json.dumps(_E2E_SPEC))
    (root / "grid.json").write_text(json.dumps(_E2E_GRID))

    assert cli_main(["gen-data", "--spec", str(root / "spec.json"), "--out", str(data)]) == 0
    assert cli_main(["score", "--data", str(data), "--out", str(scores)]) == 0
    for name, flags in [
        ("random", ["--kind", "random_all", "--fraction", "0.1"]),
        ("easiest", ["--kind", "quantile", "--lo", "0.9", "--hi", "1.0", "--scores", str(scores)]),
        ("hardhalf", ["--kind", "quantile", "--lo", "0.0", "--hi", "0.5", "--scores", str(scores)]),
        ("half", ["--kind", "half_classes", "--classes", "0,1,2,3,4", "--fraction", "0.8"]),
        ("ep1", ["--kind", "fewer_epochs", "--epochs", "1"]),
    ]:
        assert cli_main(["make-proxy", "--data", str(data), "--out", str(proxies / f"{name}.json"), *flags]) == 0
    assert cli_main(["run-grid", "--data", str(data), "--grid", str(root / "grid.json"), "--proxies", str(proxies), "--out", str(results)]) == 0
    assert cli_main(["analyze", "--results", str(results), "--out", str(quality)]) == 0
    return results, quality


def test_6_pipeline_is_deterministic_with_exact_cost_accounting(capsys, tmp_path):
    t0 = time.perf_counter()
    results_a, quality_a = _e2e_pipeline(tmp_path / "a")
    results_b, quality_b = _e2e_pipeline(tmp_path / "b")
    elapsed = time.perf_counter() - t0

    store_a = store_load(results_a)
    store_b = store_load(results_b)
    n_cells = len(store_a)
    bitwise = len(store_b) == n_cells and all(
        store_b.get(k) is not None
        and store_b.get(k).best_val_acc == r.best_val_acc
        and store_b.get(k).epoch_val_acc == r.epoch_val_acc
        for k, r in zip(store_a.keys(), store_a.records())
    )
    same_bytes = (
        results_a.read_bytes() == results_b.read_bytes() and quality_a.read_bytes() == quality_b.read_bytes()
    )

    from proxybench.metrics import reports_from_csv

    costs = {r.strategy: r.relative_cost for r in reports_from_csv(quality_a)}
    expected = {
        "full": 1.0,
        "random-0.1-s0": 0.10,
        "hard-0.9-1.0": 0.10,
        "hard-0.0-0.5": 0.50,
        "half-0+1+2+3+4-f0.8-s0": 0.40,
        "ep1": 0.05,
    }
    costs_exact = costs == expected

    ok = bitwise and same_bytes and costs_exact and elapsed < 600.0 and n_cells == 66
    _verdict(
        capsys, 6,
        ok,
        f"two CLI pipelines (1000 examples, 6 proxies x 11 configs) in {elapsed:.1f}s: "
        f"best_val_acc bitwise identical: {bitwise}; results.jsonl and quality.csv "
        f"byte-identical: {same_bytes}; relative costs "
        f"{[costs.get(k) for k in expected]} == {list(expected.values())}: {costs_exact}",
    )
    assert ok, (bitwise, same_bytes, costs, elapsed, n_cells)


def test_7_easier_half_tracks_the_target_better_exploratory(capsys, tmp_path):
    spec_base = dict(
        class_count=6, feature_dim=10, examples_per_class=60, class_separation=5.0,
        noise_scale_lo=0.5, noise_scale_hi=1.0, label_flip_fraction=0.08,
    )
    grid = generate_grid(
        GridSpec(
            defaults=HyperparamConfig(epochs=10, stem_width_1=16, stem_width_2=16),
            variations={
                "learning_rate": [0.001, 0.01, 0.03],
                "depth": ["small", "large"],
                "optimizer": ["sgd"],
                "augment_prob": [0.0],
            },
        )
    )

    outcomes = []
    for seed in range(5):
        d = synth_generate(SynthSpec(seed=seed, **spec_base))
        train, val = split(d, val_fraction=0.15, seed=seed)
        (run,) = train_model(train, val, [HyperparamConfig(epochs=10, stem_width_1=16, stem_width_2=16, seed=seed)])
        table = score_examples(run.params, train)
        manifests = [
            build_proxy(train, val, ProxySpec(kind="full"), target_epochs=10),
            build_proxy(train, val, ProxySpec(kind="quantile", lo=0.5, hi=1.0), table=table, target_epochs=10),
            build_proxy(train, val, ProxySpec(kind="quantile", lo=0.0, hi=0.5), table=table, target_epochs=10),
        ]
        store = run_matrix(train, val, manifests, grid, global_seed=seed, store=ResultStore(tmp_path / f"seed{seed}.jsonl"))
        r2 = {}
        pairs = {p.proxy_id: p for p in pair_accuracies(store.records())}
        for proxy_id in ("hard-0.5-1.0", "hard-0.0-0.5"):
            paired = pairs[proxy_id]
            try:
                _, r2[proxy_id] = r2_no_intercept(zscore(paired.proxy_acc), zscore(paired.target_acc))
            except ValueError:
                r2[proxy_id] = float("nan")
        outcomes.append((r2["hard-0.5-1.0"], r2["hard-0.0-0.5"]))

    wins = sum(1 for easy, hard in outcomes if easy >= hard or math.isnan(hard))
    majority = wins > len(outcomes) / 2
    pairs = ", ".join(f"{e:.2f}/{h:.2f}" for e, h in outcomes)
    _verdict(
        capsys, 7,
        majority,
        f"(exploratory, non-blocking) easier-half r2 >= harder-half r2 in {wins}/{len(outcomes)} "
        f"seeds on mislabeled data (easy/hard: {pairs})",
    )
    # Reported for inspection only: noisy small-scale direction, never a failure.
