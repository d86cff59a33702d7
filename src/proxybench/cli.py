"""Command-line pipeline: generate data, score difficulty, build proxies,
run the grid, analyze quality, and emit plot-ready CSVs.

Exit codes: 0 success, 1 usage error, 2 runtime failure. The environment
variable PROXYBENCH_SEED overrides the --global-seed flag everywhere, so a
whole pipeline can be re-seeded without touching its invocations. Commands
write single-file outputs atomically (temp file + rename), so a failed
invocation never leaves a truncated output; the one deliberate exception is
run-grid's results file, which must keep completed lines to be resumable.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from pathlib import Path

from ._atomic import write_atomic
from .dataset import Dataset, SynthSpec, load_csv, split, synth_generate
from .difficulty import load_table, save_table, score_examples
from .metrics import (
    GoodConfigRule,
    build_quality_reports,
    epoch_correlation,
    consistency_correlation,
    pair_accuracies,
    reports_from_csv,
    reports_to_csv,
    zscore,
)
from .orchestrator import grid_from_json, generate_grid, run_matrix, store_load
from .proxy import FULL_PROXY_ID, ProxySpec, build_proxy, load_manifest, save_manifest
from .trainer import HyperparamConfig, config_id, train_model

__all__ = ["main", "UsageError"]


class UsageError(Exception):
    """Bad flags or flag combinations; reported on stderr with exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); route to our codes
        raise UsageError(message)


def _global_seed(args) -> int:
    env = os.environ.get("PROXYBENCH_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"PROXYBENCH_SEED must be an integer, got {env!r}") from None
    return args.global_seed


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--global-seed", type=int, default=0, help="seed for splits, training, and run hashing (PROXYBENCH_SEED overrides)")
    p.add_argument("--val-fraction", type=float, default=0.1, help="validation fraction of the stratified split")


def _load_split(args):
    d = load_csv(args.data)
    train, val = split(d, args.val_fraction, _global_seed(args))
    return d, train, val


def _dataset_csv_text(d: Dataset) -> str:
    return "".join(
        f"{label},{','.join(map(repr, row))}\n"
        for label, row in zip(d.labels.tolist(), d.features.tolist())
    )


def _cmd_gen_data(args) -> int:
    spec_payload = json.loads(Path(args.spec).read_text(encoding="utf-8"))
    try:
        spec = SynthSpec(**spec_payload)
    except TypeError as e:
        raise UsageError(f"bad synth spec: {e}") from None
    d = synth_generate(spec)
    write_atomic(args.out, _dataset_csv_text(d))
    print(f"wrote {len(d)} examples ({d.class_count} classes, dim {d.feature_dim}) to {args.out}")
    return 0


def _cmd_score(args) -> int:
    _, train, val = _load_split(args)
    cfg = HyperparamConfig(seed=_global_seed(args))
    _, params = train_model(train, val, cfg)
    table = score_examples(params, train, scoring_config_id=config_id(cfg))
    save_table(table, args.out)
    print(f"scored {len(table)} examples with the default config; wrote {args.out}")
    return 0


def _parse_classes(text: str) -> tuple:
    try:
        return tuple(int(c) for c in text.split(",") if c.strip() != "")
    except ValueError:
        raise UsageError(f"--classes must be comma-separated integers, got {text!r}") from None


def _cmd_make_proxy(args) -> int:
    classes = None if args.classes is None else _parse_classes(args.classes)
    try:
        spec = ProxySpec(kind=args.kind, fraction=args.fraction, class_set=classes, lo=args.lo, hi=args.hi,
                         epochs=args.epochs, seed=args.seed)
    except ValueError as e:
        raise UsageError(str(e)) from None
    if spec.kind == "quantile" and not args.scores:
        raise UsageError("quantile proxies require --scores")
    d, train, val = _load_split(args)
    table = None
    if args.scores:
        table = load_table(args.scores)
        if table.dataset_id != d.id:
            raise ValueError(
                f"difficulty table is for dataset {table.dataset_id!r}, not {d.id!r}"
            )
    manifest = build_proxy(train, val, spec, table=table, target_epochs=args.target_epochs)
    save_manifest(manifest, args.out)
    print(
        f"proxy {manifest.proxy_id}: {len(manifest.train_ids)} train ids, "
        f"{len(manifest.val_ids)} val ids, {manifest.epochs} epochs, "
        f"relative cost {manifest.relative_cost:g}"
    )
    return 0


def _load_manifests(proxy_dir: Path):
    if not proxy_dir.is_dir():
        raise FileNotFoundError(f"proxy directory not found: {proxy_dir}")
    manifests = [load_manifest(p) for p in sorted(proxy_dir.glob("*.json"))]
    seen = set()
    for m in manifests:
        if m.proxy_id in seen:
            raise ValueError(f"duplicate proxy id {m.proxy_id!r} in {proxy_dir}")
        seen.add(m.proxy_id)
    return manifests, seen


def _cmd_run_grid(args) -> int:
    d, train, val = _load_split(args)
    grid_spec = grid_from_json(args.grid)
    grid = generate_grid(grid_spec)
    manifests, proxy_ids = _load_manifests(Path(args.proxies))
    if FULL_PROXY_ID not in proxy_ids:
        # The target task always runs; proxies are judged against it.
        manifests.insert(
            0,
            build_proxy(train, val, ProxySpec.full(), target_epochs=grid_spec.defaults.epochs),
        )

    if args.dry_run:
        total_cost = 0.0
        n_cells = 0
        for m in manifests:
            for cfg in grid:
                print(f"{d.id} {m.proxy_id} {config_id(cfg)} epochs={m.epochs} train={len(m.train_ids)}")
                total_cost += len(m.train_ids) * m.epochs
                n_cells += 1
        print(f"{n_cells} runs, {total_cost:g} example-epochs total")
        return 0

    store = store_load(args.out)
    already = len(store)
    run_matrix(
        train,
        val,
        manifests,
        grid,
        parallelism=args.parallel,
        global_seed=_global_seed(args),
        store=store,
    )
    print(f"{len(store)} records in {args.out} ({already} pre-existing, {len(store) - already} new)")
    return 0


def _parse_good_rule(text: str) -> GoodConfigRule:
    try:
        kind, _, value = text.partition(":")
        if kind == "top":
            return GoodConfigRule.top_fraction(float(value))
        if kind == "min":
            return GoodConfigRule.min_accuracy(float(value))
    except ValueError:
        pass
    raise UsageError(f"--good-rule must look like top:0.5 or min:0.9, got {text!r}")


def _epoch_corr_csv(records) -> str:
    buf = io.StringIO()
    buf.write("dataset,epoch,pearson\n")
    for ds in sorted({r.dataset_id for r in records}):
        full = [r for r in records if r.dataset_id == ds and r.proxy_id == FULL_PROXY_ID]
        if len(full) < 3:
            continue
        for e, corr in enumerate(epoch_correlation(full)):
            buf.write(f"{ds},{e},{corr!r}\n")
    return buf.getvalue()


def _cmd_analyze(args) -> int:
    rule = _parse_good_rule(args.good_rule)
    store = store_load(args.results)
    records = store.records()
    if not records:
        raise ValueError(f"no records in {args.results}")
    reports = build_quality_reports(records, good_rule=rule)
    out = Path(args.out)
    buf = io.StringIO()
    reports_to_csv(reports, buf)
    write_atomic(out, buf.getvalue())
    print(f"{len(reports)} strategy rows -> {out}")

    if args.epoch_corr:
        ec_path = out.with_name(out.stem + "-epochs.csv")
        write_atomic(ec_path, _epoch_corr_csv(records))
        print(f"epoch correlations -> {ec_path}")

    if args.consistency:
        spec = args.consistency
        metric = "r2"
        if ":" in spec:
            spec, metric = spec.rsplit(":", 1)
        names = [s for s in spec.split(",") if s]
        if len(names) != 2:
            raise UsageError(f"--consistency must look like dsA,dsB[:metric], got {args.consistency!r}")
        a = [r for r in reports if r.dataset == names[0]]
        b = [r for r in reports if r.dataset == names[1]]
        value = consistency_correlation(a, b, metric)
        print(f"consistency {metric} {names[0]} vs {names[1]}: {value:.6f}")
    return 0


def _cmd_report(args) -> int:
    reports = reports_from_csv(args.report)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    buf = io.StringIO()
    buf.write("strategy,dataset,relative_cost,r2,cost_adjusted\n")
    for r in reports:
        buf.write(f"{r.strategy},{r.dataset},{r.relative_cost!r},{r.r2!r},{r.cost_adjusted!r}\n")
    write_atomic(out_dir / "quality_vs_cost.csv", buf.getvalue())
    written = ["quality_vs_cost.csv"]

    if args.results:
        records = store_load(args.results).records()
        buf = io.StringIO()
        buf.write("dataset,strategy,config_id,proxy_acc_z,target_acc_z\n")
        for r in reports:
            if r.strategy == FULL_PROXY_ID:
                continue
            paired = pair_accuracies(records, r.dataset, r.strategy)
            pz = zscore(paired.proxy_acc)
            tz = zscore(paired.target_acc)
            for cfg, p, t in zip(paired.config_ids, pz, tz):
                buf.write(f"{r.dataset},{r.strategy},{cfg},{p!r},{t!r}\n")
        write_atomic(out_dir / "proxy_target_scatter.csv", buf.getvalue())
        write_atomic(out_dir / "epoch_correlation.csv", _epoch_corr_csv(records))
        written += ["proxy_target_scatter.csv", "epoch_correlation.csv"]

    print(f"wrote {', '.join(written)} to {out_dir}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="proxybench", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset CSV from a spec JSON")
    p.add_argument("--spec", required=True, help="JSON file with SynthSpec fields")
    p.add_argument("--out", required=True, help="output dataset CSV")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("score", help="train the default config and score example difficulty")
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--out", required=True, help="output difficulty CSV (json sidecar written alongside)")
    _add_common(p)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("make-proxy", help="resolve a proxy spec into a manifest JSON")
    p.add_argument("--data", required=True)
    p.add_argument("--scores", help="difficulty CSV (required for quantile proxies)")
    p.add_argument("--kind", required=True, choices=["full", "random_all", "half_classes", "quantile", "fewer_epochs"])
    p.add_argument("--lo", type=float)
    p.add_argument("--hi", type=float)
    p.add_argument("--fraction", type=float)
    p.add_argument("--classes", help="comma-separated class ids for half_classes")
    p.add_argument("--epochs", type=int, help="epoch budget for fewer_epochs")
    p.add_argument("--seed", type=int, default=0, help="sampling seed for the proxy itself")
    p.add_argument("--target-epochs", type=int, default=20, help="full-run epoch budget used for cost accounting")
    p.add_argument("--out", required=True, help="output manifest JSON")
    _add_common(p)
    p.set_defaults(func=_cmd_make_proxy)

    p = sub.add_parser("run-grid", help="run the (proxy x config) matrix; resumable")
    p.add_argument("--data", required=True)
    p.add_argument("--grid", required=True, help='JSON file: {"defaults": {...}, "variations": {...}}')
    p.add_argument("--proxies", required=True, help="directory of proxy manifest JSONs")
    p.add_argument("--out", required=True, help="results JSONL (appended; completed runs are kept)")
    p.add_argument("--parallel", type=int, default=1)
    p.add_argument("--dry-run", action="store_true", help="print the run matrix and estimated cost, train nothing")
    _add_common(p)
    p.set_defaults(func=_cmd_run_grid)

    p = sub.add_parser("analyze", help="compute per-strategy quality metrics from results")
    p.add_argument("--results", required=True, help="results JSONL from run-grid")
    p.add_argument("--out", required=True, help="output quality report CSV")
    p.add_argument("--good-rule", default="top:0.5", help="good-config rule: top:F or min:T")
    p.add_argument("--epoch-corr", action="store_true", help="also write per-epoch correlation CSV")
    p.add_argument("--consistency", help="dsA,dsB[:metric] - correlation of a metric across two datasets")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("report", help="emit plot-ready CSVs from a quality report")
    p.add_argument("--report", required=True, help="quality report CSV from analyze")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--results", help="results JSONL; enables scatter and epoch-correlation CSVs")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:  # argparse --help
        code = e.code if e.code is not None else 0
        return int(code)
    except Exception as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
