"""Command-line pipeline: generate data, score difficulty, build proxies,
run the grid, analyze quality, and emit plot-ready CSVs.

Exit codes: 0 success, 1 usage error, 2 runtime failure, 130 interrupted
(Ctrl-C: one line on stderr, no traceback), 141 stdout closed by its reader
(as after SIGPIPE: nothing on stderr). The environment variable
PROXYBENCH_SEED overrides the --global-seed flag everywhere, so a
whole pipeline can be re-seeded without touching its invocations; either
must be a non-negative integer, checked before any input is read. Commands
write single-file outputs atomically (temp file + rename), so a failed
invocation never leaves a truncated output; the one deliberate exception is
run-grid's results file, which must keep completed lines to be resumable.
A failing analyze or report writes no output: analyze computes its
--consistency value, and report builds every table, before the first write.
The --out of every command but report is refused before any input is read
if it exists and is not a regular file (a FIFO, a directory), if it lies
under a regular file, if its directory does not exist, or if it is one of
the command's own input files; report makes its --out directory and the
parents it lacks, and refuses a table path that is one of its inputs. A
results file that is not a regular file is refused, never read. An error in a JSON input (spec, grid,
manifest, difficulty table) starts with the file's path, and each must hold
a JSON object. Their values, and each results line's, pass one type check
(_atomic.check_value: an int field takes only an int, a float field a finite
number but no bool, a bool or str field exactly its type) or exit 2 naming
the file and the field. run-grid reads its grid and manifests before its
--data, so a bad one is refused before the data load.
main parses every argv with one parser, built once per process.
A run-grid holds a lock on ``<results>.lock`` while it reads and appends the
results file; a second run-grid on the same file exits 2. Only run-grid cuts
a torn last line; analyze and report read past it and leave the file as is.
run-grid --dry-run prints the pending units of the plan run-grid would train
(plan_runs), and the cells already stored, or exits 2 with the run's refusal,
a resume under another seed or split and a manifest built on another split
included; it takes no lock and writes nothing.
Every command that loads --data caches the parse, best-effort, in a
``<data>.csv.npz`` sidecar keyed by the CSV's sha256 (see load_csv), and
gen-data writes that sidecar for the CSV it writes. score writes its
difficulty table as one JSON file, which records that digest, and make-proxy
(build_proxy) refuses a table whose digest is not the one of its --data.
Every command runs on one OpenBLAS thread (see _blas) and gives the caller's
thread count back when it returns.
"""

from __future__ import annotations

import argparse
import fcntl
import functools
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import astuple
from pathlib import Path

from ._atomic import check_target, read_json, write_csv
from ._blas import one_blas_thread
from .dataset import SynthSpec, load_csv, save_csv, split, synth_generate
from .difficulty import load_table, save_table, score_examples
from .metrics import (
    CONSISTENCY_METRICS,
    REPORT_COLUMNS,
    GoodConfigRule,
    build_quality_reports,
    epoch_correlation,
    consistency_correlation,
    pair_accuracies,
    reports_from_csv,
    zscore,
)
from .orchestrator import cell_cost, grid_from_json, generate_grid, plan_runs, run_matrix, store_load
from .proxy import FULL_PROXY_ID, KIND_FIELDS, ProxySpec, build_proxy, load_manifest, save_manifest
from .trainer import HyperparamConfig, config_id, train_model

__all__ = ["main", "UsageError"]


class UsageError(Exception):
    """Bad flags or flag combinations; reported on stderr with exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); route to our codes
        raise UsageError(message)


def _flag_type(what: str, ok=lambda value: True):
    """Decorator: convert(text) as an argparse type, refused as "must be <what>" on a ValueError or a false ok(value)."""
    def wrap(convert):
        def parse(text: str):
            try:
                value = convert(text)
                if ok(value):
                    return value
            except ValueError:
                pass
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return parse
    return wrap


_positive_int = _flag_type("a positive integer", lambda v: v >= 1)(int)
_seed_int = _flag_type("a non-negative integer", lambda v: v >= 0)(int)
_open_fraction = _flag_type("in (0, 1)", lambda v: 0 < v < 1)(float)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--global-seed", type=_seed_int, default=0, help="seed for splits, training, and run hashing (PROXYBENCH_SEED overrides)")
    p.add_argument("--val-fraction", type=_open_fraction, default=0.1, help="validation fraction of the stratified split, in (0, 1)")


def _check_not_an_input(out, inputs: dict) -> None:
    """Refuse an output path that is the file of one of inputs, {flag: path or None}: writing it would replace
    that input. run-grid's --proxies is a directory, which check_target already refuses as an output."""
    for flag, given in inputs.items():
        if given is not None and os.path.exists(out) and os.path.exists(given) and os.path.samefile(out, given):
            raise ValueError(f"{out} is the {flag} input; refusing to replace it")


def _check_out(path: str, inputs: dict) -> None:
    """check_target(path), and refuse a path whose directory does not exist (only report makes directories) or
    that is one of inputs (_check_not_an_input)."""
    check_target(path)
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise ValueError(f"{path}: its directory does not exist")
    _check_not_an_input(path, inputs)


def _load_split(args):
    """(train, val); the parsed dataset itself is not kept past the split."""
    return split(load_csv(args.data), args.val_fraction, args.global_seed)


def _cmd_gen_data(args) -> int:
    _check_out(args.out, {"--spec": args.spec})
    try:
        spec = read_json(args.spec, lambda payload: SynthSpec(**payload))
    except TypeError as e:  # a field SynthSpec does not take, or one it lacks
        raise UsageError(str(e)) from None
    d = synth_generate(spec)
    save_csv(d, args.out)
    print(f"wrote {len(d)} examples ({d.class_count} classes, dim {d.feature_dim}) to {args.out}")
    return 0


def _cmd_score(args) -> int:
    _check_out(args.out, {"--data": args.data})
    train, val = _load_split(args)
    cfg = HyperparamConfig(seed=args.global_seed)
    params = train_model(train, val, [cfg])[0].params
    table = score_examples(params, train, scoring_config_id=config_id(cfg))
    save_table(table, args.out)
    print(f"scored {len(table)} examples with the default config; wrote {args.out}")
    return 0


# ProxySpec field -> the make-proxy flag that sets it
_PROXY_FLAGS = {"fraction": "--fraction", "class_set": "--classes", "lo": "--lo", "hi": "--hi", "epochs": "--epochs"}


@_flag_type("comma-separated integers")
def _class_ids(text: str) -> tuple:
    return tuple(int(c) for c in text.split(",") if c.strip() != "")


def _cmd_make_proxy(args) -> int:
    fields = {"fraction": args.fraction, "class_set": args.classes, "lo": args.lo, "hi": args.hi, "epochs": args.epochs}
    for name, flag in _PROXY_FLAGS.items():
        if fields[name] is not None and name not in KIND_FIELDS[args.kind]:
            raise UsageError(f"{args.kind} proxy does not take {flag}")
    try:
        spec = ProxySpec(kind=args.kind, seed=args.seed, **fields)
    except ValueError as e:
        raise UsageError(str(e)) from None
    if spec.kind == "quantile" and not args.scores:
        raise UsageError("quantile proxies require --scores")
    _check_out(args.out, {"--data": args.data, "--scores": args.scores})
    train, val = _load_split(args)
    table = load_table(args.scores) if args.scores else None
    manifest = build_proxy(train, val, spec, table=table, target_epochs=args.target_epochs)
    save_manifest(manifest, args.out)
    print(
        f"proxy {manifest.proxy_id}: {len(manifest.train_ids)} train ids, "
        f"{len(manifest.val_ids)} val ids, {manifest.epochs} epochs"
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


@contextmanager
def _results_lock(results: str):
    """Hold an exclusive lock on <results>.lock, or fail at once if another process holds it.

    The lock is taken on a file of its own, so a refused run leaves no
    results file. The file is never deleted: deleting it would race with a
    writer about to lock it. The lock ends with the process that holds it.
    """
    lock = Path(results).with_name(Path(results).name + ".lock")
    with open(lock, "ab") as fh:
        try:
            fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise RuntimeError(f"{results} is being written by another run-grid (it holds {lock})") from None
        yield


def _cmd_run_grid(args) -> int:
    _check_out(args.out, {"--data": args.data, "--grid": args.grid})
    grid_spec = grid_from_json(args.grid)
    grid = generate_grid(grid_spec)
    manifests, proxy_ids = _load_manifests(Path(args.proxies))
    train, val = _load_split(args)
    if FULL_PROXY_ID not in proxy_ids:
        # The target task always runs; proxies are judged against it.
        manifests.insert(
            0,
            build_proxy(train, val, ProxySpec(kind="full"), target_epochs=grid_spec.defaults.epochs),
        )

    if args.dry_run:
        units = plan_runs(train, val, manifests, grid, store_load(args.out), args.global_seed)
        for sub_train, _, cells in units:
            print(f"train={len(sub_train)} cells={','.join(f'{m.proxy_id}:{m.epochs}:{c}' for m, _, c in cells)}")
        pending = sum(len(cells) for _, _, cells in units)
        cost = sum(cell_cost(m) for _, _, cells in units for m, _, _ in cells)
        print(f"{len(manifests) * len(grid) - pending} cells stored, {pending} pending runs in {len(units)} units, "
              f"{cost:.0f} pending example-epochs")
        return 0

    with _results_lock(args.out):
        store = store_load(args.out)
        already = len(store)
        run_matrix(train, val, manifests, grid, parallelism=args.parallel, global_seed=args.global_seed, store=store)
    print(f"{len(store)} records in {args.out} ({already} pre-existing, {len(store) - already} new)")
    return 0


_GOOD_RULE_KINDS = {"top": "top_fraction", "min": "min_accuracy"}  # --good-rule prefix -> rule kind


@_flag_type("top:F or min:T")
def _good_rule(text: str) -> GoodConfigRule:
    kind, _, value = text.partition(":")
    return GoodConfigRule(_GOOD_RULE_KINDS.get(kind), float(value))  # GoodConfigRule refuses a kind of None


def _epoch_corr_rows(records):
    """(dataset, epoch, epoch_correlation's value) for each dataset with at least 3 full runs."""
    for ds in sorted({r.dataset_id for r in records}):
        full = [r for r in records if r.dataset_id == ds and r.proxy_id == FULL_PROXY_ID]
        if len(full) >= 3:
            yield from ((ds, e, corr) for e, corr in enumerate(epoch_correlation(full)))


def _scatter_rows(reports, records):
    """(dataset, strategy, config id, z-scored proxy and full-run accuracies) for each proxy's configs;
    none for a strategy whose r2 is nan (its accuracies, or the full run's, equal across configs). records are
    paired as analyze pairs them (pair_accuracies), with its refusals."""
    pairs = {(p.dataset_id, p.proxy_id): p for p in pair_accuracies(records)}
    for r in reports:
        if r.strategy != FULL_PROXY_ID and not math.isnan(r.r2):
            paired = pairs.get((r.dataset, r.strategy))
            if paired is None:
                raise ValueError(f"no shared configs between {r.strategy!r} and {FULL_PROXY_ID!r} on {r.dataset!r}")
            for row in zip(paired.config_ids, zscore(paired.proxy_acc), zscore(paired.target_acc)):
                yield (r.dataset, r.strategy, *row)


@_flag_type(f"dsA,dsB[:metric], metric one of {', '.join(CONSISTENCY_METRICS)}")
def _consistency(text: str) -> tuple:
    """(dataset a, dataset b, metric) from dsA,dsB[:metric]; the metric defaults to r2."""
    spec, metric = text, "r2"
    if ":" in text:
        spec, metric = text.rsplit(":", 1)
    names = [s for s in spec.split(",") if s]
    if len(names) != 2 or metric not in CONSISTENCY_METRICS:
        raise ValueError(text)
    return names[0], names[1], metric


def _cmd_analyze(args) -> int:
    _check_out(args.out, {"--results": args.results})
    store = store_load(args.results)
    records = store.records()
    if not records:
        raise ValueError(f"no records in {args.results}")
    reports = build_quality_reports(records, good_rule=args.good_rule)
    for r in reports:
        if math.isnan(r.r2):
            print(f"warning: {r.dataset}: {r.strategy}: its accuracies or the full run's are equal across configs, "
                  "so its r2, spearman_good and cost_adjusted are nan", file=sys.stderr)
    said = [f"{len(reports)} strategy rows -> {args.out}"]
    if args.consistency:  # computed before the write, so a refused one leaves no report
        name_a, name_b, metric = args.consistency
        a = [r for r in reports if r.dataset == name_a]
        b = [r for r in reports if r.dataset == name_b]
        value = consistency_correlation(a, b, metric)
        said.append(f"consistency {metric} {name_a} vs {name_b}: {value:.6f}")
    write_csv(args.out, REPORT_COLUMNS, map(astuple, reports))
    print("\n".join(said))
    return 0


def _cmd_report(args) -> int:
    out_dir = Path(args.out)
    if out_dir.exists() and not out_dir.is_dir():
        raise ValueError(f"{out_dir} exists and is not a directory")
    names = ("quality_vs_cost.csv", "proxy_target_scatter.csv", "epoch_correlation.csv")[: 3 if args.results else 1]
    for name in names:
        check_target(out_dir / name)
        _check_not_an_input(out_dir / name, {"--report": args.report, "--results": args.results})
    reports = reports_from_csv(args.report)
    records = store_load(args.results).records() if args.results else None
    # (header, rows) of each name, every table built before any is written: a failing report writes nothing
    tables = [(("strategy", "dataset", "relative_cost", "r2", "cost_adjusted"),
               [(r.strategy, r.dataset, r.relative_cost, r.r2, r.cost_adjusted) for r in reports])]
    if records is not None:
        tables.append((("dataset", "strategy", "config_id", "proxy_acc_z", "target_acc_z"),
                       list(_scatter_rows(reports, records))))
        tables.append((("dataset", "epoch", "pearson"), list(_epoch_corr_rows(records))))
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, (header, rows) in zip(names, tables):
        write_csv(out_dir / name, header, rows)
    print(f"wrote {', '.join(names)} to {out_dir}")
    return 0


def _gen_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--spec", required=True, help="JSON file with SynthSpec fields")
    p.add_argument("--out", required=True, help="output dataset CSV")


def _score_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--out", required=True, help="output difficulty table JSON")
    _add_common(p)


def _make_proxy_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True)
    p.add_argument("--scores", help="difficulty table JSON from score (required for quantile proxies)")
    p.add_argument("--kind", required=True, choices=list(KIND_FIELDS))
    p.add_argument("--lo", type=float)
    p.add_argument("--hi", type=float)
    p.add_argument("--fraction", type=float)
    p.add_argument("--classes", type=_class_ids, help="comma-separated class ids for half_classes")
    p.add_argument("--epochs", type=int, help="epoch budget for fewer_epochs")
    p.add_argument("--seed", type=int, default=0, help="sampling seed for the proxy itself")
    p.add_argument("--target-epochs", type=_positive_int, default=20, help="the grid's epoch budget, which every kind but fewer_epochs trains for")
    p.add_argument("--out", required=True, help="output manifest JSON")
    _add_common(p)


def _run_grid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True)
    p.add_argument("--grid", required=True, help='JSON file: {"defaults": {...}, "variations": {...}}')
    p.add_argument("--proxies", required=True, help="directory of proxy manifest JSONs")
    p.add_argument("--out", required=True, help="results JSONL (appended; completed runs are kept)")
    p.add_argument("--parallel", type=_positive_int, default=1)
    p.add_argument("--dry-run", action="store_true", help="print the pending runs and their cost, train nothing")
    _add_common(p)


def _analyze_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--results", required=True, help="results JSONL from run-grid")
    p.add_argument("--out", required=True, help="output quality report CSV")
    p.add_argument("--good-rule", type=_good_rule, default="top:0.5", help="good-config rule: top:F or min:T")
    p.add_argument("--consistency", type=_consistency, help="dsA,dsB[:metric] - correlation of a metric across two datasets")


def _report_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--report", required=True, help="quality report CSV from analyze")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--results", help="results JSONL; enables scatter and epoch-correlation CSVs")


# command -> (its help line, its handler, the function that adds its flags), in --help order
_COMMANDS = {
    "gen-data": ("generate a synthetic dataset CSV from a spec JSON", _cmd_gen_data, _gen_data_flags),
    "score": ("train the default config and score example difficulty", _cmd_score, _score_flags),
    "make-proxy": ("resolve a proxy spec into a manifest JSON", _cmd_make_proxy, _make_proxy_flags),
    "run-grid": ("run the (proxy x config) matrix; resumable", _cmd_run_grid, _run_grid_flags),
    "analyze": ("compute per-strategy quality metrics from results", _cmd_analyze, _analyze_flags),
    "report": ("emit plot-ready CSVs from a quality report", _cmd_report, _report_flags),
}


@functools.cache
def _build_parser() -> _Parser:
    """The proxybench parser, every command's subparser in it; built once per process."""
    parser = _Parser(prog="proxybench", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (help_text, handler, add_flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        add_flags(p)
        p.set_defaults(func=handler)
    return parser


def _stdout_to_devnull() -> None:
    """Point stdout's descriptor at /dev/null, so that the interpreter's exit flush of what is left cannot fail."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError):  # not backed by a descriptor
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    with one_blas_thread():
        try:
            try:
                args = _build_parser().parse_args(argv)
            except SystemExit as e:  # argparse --help
                code = 0 if e.code is None else int(e.code)
            else:
                env = os.environ.get("PROXYBENCH_SEED")
                if env is not None and "global_seed" in vars(args):  # it overrides --global-seed
                    try:
                        args.global_seed = _seed_int(env)
                    except argparse.ArgumentTypeError as e:
                        raise UsageError(f"PROXYBENCH_SEED {e}") from None
                code = args.func(args)
            sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
            return code
        except UsageError as e:
            print(f"usage error: {e}", file=sys.stderr)
            return 1
        except BrokenPipeError:  # stdout's reader is gone (`| head`): exit quietly, as SIGPIPE would
            _stdout_to_devnull()
            return 141
        except Exception as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        except KeyboardInterrupt:  # run-grid's results file keeps the cell-order prefix it had
            print("interrupted", file=sys.stderr)
            return 130


if __name__ == "__main__":
    sys.exit(main())
