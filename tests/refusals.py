"""Every refusal of the proxybench CLI, as one table.

A row is a command line, the edit that turns the known-good workspace
(build_workspace) into its bad input, and what the command must do: its exit
code and a fragment of its stderr. check() runs one row through any runner:
test_cli.py runs the table through cli.main in-process, test_installed.py
through the installed console script. A new refusal is one new row.

Each row is named after the test_cli.py test it runs as, "[Class::]function"
with an optional "[param id]"; rows that came from earlier tests keep those
tests' names. Every word of a command line, and the stderr fragment, is
formatted with the workspace's paths ({spec}, {data}, {scores}, {proxies},
{grid}, {results}, {quality}), {data_sha256}, and {tmp}: the row's own empty
directory, where every edit writes.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

SPEC = {
    "class_count": 3,
    "feature_dim": 4,
    "examples_per_class": 30,
    "class_separation": 3.0,
    "noise_scale_lo": 0.3,
    "noise_scale_hi": 0.6,
    "label_flip_fraction": 0.0,
    "seed": 9,
}

GRID = {
    "defaults": {"epochs": 3, "stem_width_1": 8, "stem_width_2": 8, "batch_size": 16},
    "variations": {"learning_rate": [0.01, 0.001], "optimizer": ["sgd"]},
}

# the make-proxy kinds of the workspace, each written to <first flag value>.json
PROXY_FLAGS = [
    ["--kind", "random_all", "--fraction", "0.5"],
    ["--kind", "quantile", "--lo", "0.5", "--hi", "1.0", "--scores", "{scores}"],
    ["--kind", "fewer_epochs", "--epochs", "1"],
    ["--kind", "half_classes", "--classes", "0,1"],
]
# the random_all proxy built on other splits, each written to <name>.json beside the proxies directory
OTHER_SPLITS = {"seed1": ["--global-seed", "1"], "val0.2": ["--val-fraction", "0.2"]}


def build_workspace(root: Path, run: Callable) -> dict:
    """The known-good inputs: gen-data, score, four proxies, run-grid and analyze under root, and the
    random_all proxy as built on each split of OTHER_SPLITS.

    Each stage runs through run(argv), which returns the exit code. The
    grid trains 3 epochs, so every manifest is built for that budget.
    """
    ws = {name: root / file for name, file in [
        ("spec", "spec.json"), ("grid", "grid.json"), ("data", "toy.csv"), ("scores", "difficulty.json"),
        ("proxies", "proxies"), ("results", "results.jsonl"), ("quality", "quality.csv")]}
    ws["spec"].write_text(json.dumps(SPEC))
    ws["grid"].write_text(json.dumps(GRID))
    ws["proxies"].mkdir()
    stages = [
        ["gen-data", "--spec", ws["spec"], "--out", ws["data"]],
        ["score", "--data", ws["data"], "--out", ws["scores"]],
        *[["make-proxy", "--data", ws["data"], "--out", ws["proxies"] / f"{flags[1]}.json", "--target-epochs", "3",
           *[str(ws["scores"]) if f == "{scores}" else f for f in flags]] for flags in PROXY_FLAGS],
        ["run-grid", "--data", ws["data"], "--grid", ws["grid"], "--proxies", ws["proxies"], "--out", ws["results"]],
        ["analyze", "--results", ws["results"], "--out", ws["quality"]],
        *[["make-proxy", "--data", ws["data"], "--out", root / f"{name}.json", "--target-epochs", "3",
           *PROXY_FLAGS[0], *flags] for name, flags in OTHER_SPLITS.items()],
    ]
    for argv in stages:
        argv = [str(a) for a in argv]
        assert run(argv) == 0, argv
    ws["root"] = root
    ws["data_sha256"] = hashlib.sha256(ws["data"].read_bytes()).hexdigest()
    return ws


@dataclass(frozen=True)
class Refusal:
    name: str
    argv: str  # split on spaces, then each word formatted
    edit: Callable | None  # edit(paths) makes the bad input under paths["tmp"]; may return a handle to close after
    code: int
    err: str  # a fragment of stderr's one line; "" means stderr stays empty
    leaves: tuple = ()  # what the refused command may leave in {tmp}, relative to it
    not_called: tuple = ()  # cli module functions the refusal comes before (checked in-process)
    env: dict = field(default_factory=dict)
    also_dry_run: bool = False  # run-grid --dry-run first: the same refusal, leaving nothing
    closed_stdout: bool = False  # stdout's reader is gone


_PREFIX = {1: "usage error: ", 2: "error: "}


def _snapshot(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else p.stat().st_mode for p in root.rglob("*")}


def check(row: Refusal, ws: dict, tmp: Path, run: Callable) -> None:
    """Run row through run(argv, env, closed_stdout) -> (code, stdout, stderr) and check what it did.

    The command must exit with row.code, print nothing to stdout, and print
    one stderr line, "usage error: " (1) or "error: " (2) at its head, that
    contains row.err. Afterwards {tmp} holds what the edit left there, byte
    for byte, and nothing else but row.leaves: a refusal writes no output and
    takes no results lock unless its row says so.
    """
    paths = {**ws, "tmp": tmp}
    held = row.edit(paths) if row.edit else None
    try:
        before = _snapshot(tmp)
        argv = [word.format_map(paths) for word in row.argv.split()]
        expected = row.err.format_map(paths)
        for words, leaves in ([(argv + ["--dry-run"], ())] if row.also_dry_run else []) + [(argv, row.leaves)]:
            code, out, err = run(words, row.env, row.closed_stdout)
            assert code == row.code, (words, err)
            assert out == "", words
            if expected:
                assert expected in err and err.count("\n") == 1 and err.startswith(_PREFIX[code]), (words, err)
            else:
                assert err == "", (words, err)
            after = _snapshot(tmp)
            for leaf in leaves:
                after.pop(leaf.format_map(paths), None)
            assert after == before, words
    finally:
        if held is not None:
            held.close()


# ---- edits: each returns edit(paths), which writes under paths["tmp"]

def _write(name: str, text: str):
    def edit(p):
        path = p["tmp"] / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return edit


def _copy(source: str, name: str, transform=lambda b: b):
    def edit(p):
        (p["tmp"] / name).write_bytes(transform(p[source].read_bytes()))
    return edit


def _fifo(name: str):
    return lambda p: os.mkfifo(p["tmp"] / name)


def _directory(name: str):
    return lambda p: (p["tmp"] / name).mkdir()


def _results_line(change: dict):
    """results.jsonl with change applied to its second line, as {tmp}/r.jsonl."""
    def transform(data: bytes) -> bytes:
        lines = data.decode().splitlines(keepends=True)
        lines[1] = json.dumps({**json.loads(lines[1]), **change}) + "\n"
        return "".join(lines).encode()
    return _copy("results", "r.jsonl", transform)


def _quality_row(edit_row):
    """quality.csv with its fourth line's cells edited, as {tmp}/bad.csv."""
    def transform(data: bytes) -> bytes:
        lines = data.decode().splitlines()
        lines[3] = ",".join(edit_row(lines[3].split(",")))
        return ("\n".join(lines) + "\n").encode()
    return _copy("quality", "bad.csv", transform)


def _table(name: str, change):
    """score's table with change(its JSON object) in its place, as {tmp}/<name>."""
    def edit(p):
        (p["tmp"] / name).write_text(json.dumps(change(json.loads(p["scores"].read_text()))))
    return edit


def _manifest(change: dict, base: str | None = None, name: str = "x.json"):
    """{tmp}/proxies/<name>: the workspace's manifest base (or a minimal one) with change applied."""
    def edit(p):
        payload = json.loads((p["proxies"] / base).read_text()) if base else _MANIFEST
        (p["tmp"] / "proxies").mkdir()
        (p["tmp"] / "proxies" / name).write_text(json.dumps({**payload, **change}))
    return edit


def _duplicate_manifest(p):
    """{tmp}/proxies holding the workspace's random_all manifest twice, under two names."""
    (p["tmp"] / "proxies").mkdir()
    for name in ("a.json", "b.json"):
        (p["tmp"] / "proxies" / name).write_bytes((p["proxies"] / "random_all.json").read_bytes())


def _other_split_manifest(name: str):
    """{tmp}/proxies holding the random_all manifest built on the split OTHER_SPLITS[name]."""
    def edit(p):
        (p["tmp"] / "proxies").mkdir()
        (p["tmp"] / "proxies" / "random_all.json").write_bytes((p["root"] / f"{name}.json").read_bytes())
    return edit


def _stored_with_other_split_manifest(name: str):
    """The finished results.jsonl as {tmp}/r.jsonl, beside _other_split_manifest(name)'s {tmp}/proxies."""
    copy, swap = _copy("results", "r.jsonl"), _other_split_manifest(name)

    def edit(p):
        copy(p)
        swap(p)
    return edit


def _plus_dataset_without_full_runs(data: bytes) -> bytes:
    """results.jsonl plus its random_all lines again under the dataset id 'other', which then has no full runs."""
    lines = [json.loads(line) for line in data.splitlines()]
    return data + b"".join(json.dumps({**r, "dataset_id": "other"}).encode() + b"\n"
                           for r in lines if r["proxy_id"] == "random-0.5-s0")


def _without_proxy(proxy_id: str):
    """results.jsonl without the lines of proxy_id, as {tmp}/r.jsonl."""
    return _copy("results", "r.jsonl", lambda data: b"".join(
        line for line in data.splitlines(keepends=True) if json.loads(line)["proxy_id"] != proxy_id))


def _held_results_lock(p):
    """The first 12 results lines as {tmp}/r.jsonl, and its lock held as another run-grid mid-run would."""
    (p["tmp"] / "r.jsonl").write_bytes(b"".join(p["results"].read_bytes().splitlines(keepends=True)[:12]))
    held = open(p["tmp"] / "r.jsonl.lock", "ab")
    fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
    return held


def _swap_first_entries(table: dict) -> dict:
    return {**table, **{key: [table[key][1], table[key][0], *table[key][2:]] for key in ("ids", "losses")}}


def _param_id(*values) -> str:
    """The id pytest gives a parametrized case of these values."""
    return "-".join(str(v).encode("unicode_escape").decode("ascii") for v in values)


_MANIFEST = {"proxy_id": "x", "kind": "full", "params": {}, "seed": 0, "epochs": 3, "train_ids": [0], "val_ids": [0]}
_RUN_GRID = "run-grid --data {data} --grid {grid} --proxies {proxies} --out {tmp}/r.jsonl"
_NO_WORK = ("synth_generate", "load_csv", "train_model", "build_proxy", "store_load")
_BAD_OUT = {
    "gen-data": "gen-data --spec {spec} --out {tmp}/out",
    "score": "score --data {data} --out {tmp}/out",
    "make-proxy": "make-proxy --data {data} --kind random_all --fraction 0.5 --out {tmp}/out",
    "analyze": "analyze --results {results} --out {tmp}/out",
    "run-grid": "run-grid --data {data} --grid {grid} --proxies {proxies} --out {tmp}/out",
    "run-grid --dry-run": "run-grid --data {data} --grid {grid} --proxies {proxies} --out {tmp}/out --dry-run",
}
_BAD_TARGET = {  # what is at {tmp}/out -> (the edit that puts it there, the --out given, the error)
    "fifo": (_fifo("out"), "{tmp}/out", "{tmp}/out exists and is not a regular file; refusing to replace it"),
    "directory": (_directory("out"), "{tmp}/out", "{tmp}/out exists and is not a regular file; refusing to replace it"),
    "file_as_parent": (_write("out", ""), "{tmp}/out/x", "{tmp}/out/x: a parent of it is not a directory"),
}
_OUT_IS_INPUT = {  # command -> (the edit that copies its input into {tmp}, its argv, the flag of that input)
    "gen-data": (_copy("spec", "spec.json"), "gen-data --spec {tmp}/spec.json --out {tmp}/spec.json", "--spec"),
    "score": (_copy("data", "toy.csv"), "score --data {tmp}/toy.csv --out {tmp}/toy.csv", "--data"),
    "make-proxy": (_copy("data", "toy.csv"), "make-proxy --data {tmp}/toy.csv --kind random_all --fraction 0.5 "
                   "--out {tmp}/toy.csv", "--data"),
    "run-grid": (_copy("grid", "grid.json"), "run-grid --data {data} --grid {tmp}/grid.json --proxies {proxies} "
                 "--out {tmp}/grid.json", "--grid"),
    "analyze": (_copy("results", "r.jsonl"), "analyze --results {tmp}/r.jsonl --out {tmp}/r.jsonl", "--results"),
}
_JSON_INPUT = {  # JSON input -> (where the row writes it, the command that reads it)
    "spec": ("spec.json", "gen-data --spec {tmp}/spec.json --out {tmp}/toy.csv"),
    "grid": ("grid.json", "run-grid --data {data} --grid {tmp}/grid.json --proxies {proxies} --out {tmp}/r.jsonl"),
    "manifest": ("proxies/x.json", "run-grid --data {data} --grid {grid} --proxies {tmp}/proxies --out {tmp}/r.jsonl"),
}
_VAL_FRACTION = {
    "score": "score --data {tmp}/absent.csv --out {tmp}/out",
    "make-proxy": "make-proxy --data {tmp}/absent.csv --out {tmp}/out --kind random_all --fraction 0.5",
    "run-grid": "run-grid --data {tmp}/absent.csv --out {tmp}/out --grid {tmp}/g.json --proxies {tmp}",
    "run-grid --dry-run": "run-grid --data {tmp}/absent.csv --out {tmp}/out --grid {tmp}/g.json --proxies {tmp} --dry-run",
}
_RESULT_CHANGES = [  # (change to a results line, what is wrong with it)
    ({"epoch_val_acc": []}, "epoch_val_acc must not be empty"),
    ({"epoch_val_acc": [0.5, 7.0, 0.5]}, "epoch_val_acc[1] must lie in [0, 1], got 7.0"),
    ({"best_val_acc": 5.0}, "best_val_acc must lie in [0, 1], got 5.0"),
    ({"cost_units": -3.0}, "cost_units must be positive, got -3.0"),
    ({"cost_units": 0.0}, "cost_units must be positive, got 0.0"),
    ({"seed": -5}, "seed must be >= 0, got -5"),
]
_QUALITY_ROWS = {  # name -> (edit of a quality.csv row's cells, what is wrong with it)
    "short_row": (lambda row: row[:3], "3 columns, expected 7 (strategy,dataset,r2,spearman_good,"
                  "cost_adjusted,relative_cost,n_configs)"),
    "extra_column": (lambda row: row + ["1"], "8 columns, expected 7 (strategy,dataset,r2,spearman_good,"
                     "cost_adjusted,relative_cost,n_configs)"),
    "float_column": (lambda row: row[:2] + ["x"] + row[3:], "r2 must be a number, got 'x'"),
    "count_column": (lambda row: row[:6] + ["7.5"], "n_configs must be an integer, got '7.5'"),
}


def _json_input(name: str, text: str, code: int, message: str, head: str = "") -> Refusal:
    """A JSON input whose error is "<path>: <head><message>"."""
    where, argv = _JSON_INPUT[name]
    return Refusal(f"TestJsonInputErrors::test_error_starts_with_the_path[{_param_id(name, text, code, message)}]",
                   argv, _write(where, text), code, f"{_PREFIX[code]}{{tmp}}/{where}: {head}{message}\n")


REFUSALS = [
    # gen-data and JSON inputs
    Refusal("TestGenData::test_bad_spec_is_usage_error", "gen-data --spec {tmp}/spec.json --out {tmp}/toy.csv",
            _write("spec.json", json.dumps({**SPEC, "bogus_field": 1})), 1,
            "usage error: {tmp}/spec.json: SynthSpec.__init__() got an unexpected keyword argument 'bogus_field'\n"),
    Refusal("TestGenData::test_unwritable_output_leaves_nothing", "gen-data --spec {spec} --out {tmp}/no_such_dir/toy.csv",
            None, 2, "error: {tmp}/no_such_dir/toy.csv: its directory does not exist\n",
            not_called=("synth_generate",)),
    _json_input("spec", '{"class_count": 3', 2, "Expecting ',' delimiter: line 1 column 18 (char 17)"),
    _json_input("spec", json.dumps({**SPEC, "bogus": 1}), 1, "unexpected keyword argument 'bogus'",
                "SynthSpec.__init__() got an "),
    _json_input("spec", json.dumps({**SPEC, "class_count": 1}), 2, "class_count must be >= 2"),
    _json_input("spec", "[1]", 2, "expected a JSON object, got list"),
    _json_input("grid", '{"defaults": {"epochs": 2}\n', 2, "Expecting ',' delimiter: line 2 column 1 (char 27)"),
    _json_input("grid", "[1]", 2, "expected a JSON object, got list"),
    _json_input("grid", json.dumps({"defaults": {"batch_size": 16.5}}), 2, "batch_size must be an integer, got 16.5"),
    _json_input("manifest", '{"proxy_id": "x"}', 2, "missing key 'epochs'"),
    _json_input("manifest", json.dumps({**_MANIFEST, "val_ids": "all"}), 2, "val_ids must be a list, got 'all'"),
    _json_input("spec", json.dumps({**SPEC, "class_count": 2.5}), 2, "class_count must be an integer, got 2.5"),
    _json_input("spec", json.dumps({**SPEC, "class_separation": float("nan")}), 2,
                "class_separation must be a finite number, got nan"),
    _json_input("spec", json.dumps({**SPEC, "noise_scale_hi": float("inf")}), 2,
                "noise_scale_hi must be a finite number, got inf"),
    _json_input("grid", json.dumps({"defaults": {"learning_rate": True}}), 2,
                "learning_rate must be a finite number, got True"),
    _json_input("grid", json.dumps({"variations": {"augment_prob": ["x"]}}), 2,
                "augment_prob must be a finite number, got 'x'"),
    _json_input("grid", json.dumps({"defaults": {"label_smoothing": 1}}), 2, "label_smoothing must be a boolean, got 1"),
    _json_input("manifest", json.dumps({**_MANIFEST, "proxy_id": 5}), 2, "proxy_id must be a string, got 5"),
    Refusal("TestJsonInputErrors::test_variation_that_is_not_a_list_is_refused_as_written",
            "run-grid --data {data} --grid {tmp}/g2.json --proxies {proxies} --out {tmp}/r.jsonl --dry-run",
            _write("g2.json", json.dumps({"variations": {"optimizer": "sgd"}})), 2,
            "error: {tmp}/g2.json: variation optimizer must be a list, got 'sgd'\n"),
    *[Refusal(f"test_run_grid_refuses_a_bad_grid_or_manifest_before_loading_data[{bad}-dry_run{dry}]",
              argv + " --dry-run" * dry, _write(where, text), 2, f"error: {{tmp}}/{where}: {message}\n",
              not_called=("load_csv",))
      for bad, where, text, argv, message in [
          ("grid", "grid.json", '{"defaults": {"batch_size": 16.5}}', _JSON_INPUT["grid"][1],
           "batch_size must be an integer, got 16.5"),
          ("manifest", "proxies/x.json", "[1, 2]", _JSON_INPUT["manifest"][1], "expected a JSON object, got list")]
      for dry in (0, 1)],
    *[Refusal(f"TestFieldTypes::test_manifest_in_a_dry_run[change{i}-{message}]",
              "run-grid --data {data} --grid {grid} --proxies {tmp}/proxies --out {tmp}/r.jsonl --dry-run",
              _manifest(change), 2, f"error: {{tmp}}/proxies/x.json: {message}\n", not_called=("load_csv",))
      for i, (change, message) in enumerate([
          ({"seed": 1.5}, "seed must be an integer, got 1.5"),
          ({"seed": True}, "seed must be an integer, got True"),
          ({"kind": "random_all", "params": {"fraction": True}}, "fraction must be a finite number, got True"),
          ({"kind": "random_all", "params": {"fraction": "0.5"}}, "fraction must be a finite number, got '0.5'"),
          ({"proxy_id": 5}, "proxy_id must be a string, got 5")])],

    # flags and the environment, refused before any input is read
    *[Refusal(f"TestScore::test_negative_seed_is_a_usage_error_before_any_input_is_read"
              f"[{_param_id(env, f'flags{i}', message, command)}]",
              argv + flags, None, 1, f"usage error: {message}\n", not_called=("load_csv", "grid_from_json"),
              env={} if env is None else {"PROXYBENCH_SEED": env})
      for i, (env, flags, message) in enumerate([
          ("-1", "", "PROXYBENCH_SEED must be a non-negative integer, got '-1'"),
          (None, " --global-seed -3", "argument --global-seed: must be a non-negative integer, got '-3'")])
      for command, argv in [("score", "score --data {data} --out {tmp}/out"),
                            ("run-grid", "run-grid --data {data} --grid {grid} --proxies {proxies} --out {tmp}/out")]],
    Refusal("TestScore::test_non_integer_env_seed", "score --data {data} --out {tmp}/x.csv", None, 1,
            "usage error: PROXYBENCH_SEED must be a non-negative integer, got 'abc'\n", env={"PROXYBENCH_SEED": "abc"}),
    *[Refusal(f"TestExitCodes::test_val_fraction_outside_the_open_unit_interval[{command}-{value}]",
              f"{argv} --val-fraction {value}", None, 1,
              f"usage error: argument --val-fraction: must be in (0, 1), got '{value}'\n")
      for command, argv in _VAL_FRACTION.items() for value in ("0", "1", "1.5", "nan")],
    *[Refusal(f"TestRunGrid::test_parallel_must_be_positive[dry_run{dry}]",
              "run-grid --data {tmp}/absent.csv --grid {grid} --proxies {proxies} --out {tmp}/r.jsonl --parallel 0"
              + " --dry-run" * dry, None, 1, "usage error: argument --parallel: must be a positive integer, got '0'\n")
      for dry in (0, 1)],
    *[Refusal(f"TestMakeProxy::test_target_epochs_must_be_positive[{value}]",
              f"make-proxy --data {{tmp}}/absent.csv --kind random_all --fraction 0.5 --target-epochs {value} "
              "--out {tmp}/m.json", None, 1,
              f"usage error: argument --target-epochs: must be a positive integer, got '{value}'\n")
      for value in ("0", "-2")],
    Refusal("TestExitCodes::test_unknown_command", "defragment", None, 1,
            "usage error: argument command: invalid choice: 'defragment'"),
    Refusal("TestExitCodes::test_missing_required_flag", "score", None, 1,
            "usage error: the following arguments are required: --data, --out\n"),
    Refusal("TestAnalyze::test_bad_good_rule",
            "analyze --results {results} --out {tmp}/q.csv --good-rule best:9", None, 1,
            "usage error: argument --good-rule: must be top:F or min:T, got 'best:9'\n"),
    *[Refusal(name, f"analyze --results {{results}} --out {{tmp}}/q.csv --consistency {spec}", None, 1,
              f"usage error: argument --consistency: must be dsA,dsB[:metric], metric one of "
              f"r2, spearman_good, cost_adjusted, relative_cost, got '{spec}'\n")
      for name, spec in [("TestConsistency::test_malformed_consistency_spec", "only_one"),
                         ("test_refusal[consistency-metric]", "dsa,dsb:bogus")]],

    # make-proxy: its flags, and the difficulty table it reads
    Refusal("TestMakeProxy::test_quantile_without_scores_is_usage_error",
            "make-proxy --data {data} --kind quantile --lo 0.5 --hi 1.0 --out {tmp}/m.json", None, 1,
            "usage error: quantile proxies require --scores\n"),
    Refusal("test_refusal[proxy-spec-without-its-fraction]",
            "make-proxy --data {data} --kind random_all --out {tmp}/m.json", None, 1,
            "usage error: random_all requires a fraction\n", not_called=_NO_WORK),
    Refusal("TestMakeProxy::test_unknown_class_is_refused",
            "make-proxy --data {data} --kind half_classes --classes 0,99 --out {tmp}/m.json", None, 2,
            "error: unknown class ids [99] for class_count 3\n"),
    Refusal("TestMakeProxy::test_bad_classes_flag",
            "make-proxy --data {data} --kind half_classes --classes 0,x --out {tmp}/m.json", None, 1,
            "usage error: argument --classes: must be comma-separated integers, got '0,x'\n"),
    Refusal("TestMakeProxy::test_flag_the_kind_does_not_take_is_usage_error",
            "make-proxy --data {data} --kind full --fraction 0.5 --out {tmp}/m.json", None, 1,
            "usage error: full proxy does not take --fraction\n"),
    *[Refusal(f"TestMakeProxy::test_rejected_flag_is_named_as_typed[{kind}-flags{i}-{named}]",
              f"make-proxy --data {{data}} --kind {kind} {flags} --out {{tmp}}/m.json", None, 1,
              f"usage error: {kind} proxy does not take {named}\n")
      for i, (kind, flags, named) in enumerate([
          ("random_all", "--fraction 0.5 --classes 0,1", "--classes"),
          ("full", "--epochs 3", "--epochs"),
          ("fewer_epochs", "--epochs 1 --fraction 0.5", "--fraction"),
          ("random_all", "--fraction 0.5 --lo 0.1", "--lo"),
          ("half_classes", "--hi 0.9", "--hi")])],
    Refusal("TestMakeProxy::test_table_from_another_dataset_with_the_same_stem_is_refused",
            "make-proxy --data {tmp}/toy.csv --kind quantile --lo 0.5 --hi 1.0 --scores {scores} --out {tmp}/m.json",
            _copy("data", "toy.csv", lambda b: b"1" + b[1:]), 2,  # the first example relabelled
            "error: difficulty table is for dataset sha256 {data_sha256}, "
            "not db6b63e4071539d04cdc0b81a94554372ef0f570b7853d8c362db59b1075f9cf of the training set\n",
            leaves=("toy.csv.npz",)),
    Refusal("TestMakeProxy::test_table_from_another_dataset_is_refused_for_every_kind",
            "make-proxy --data {data} --kind random_all --fraction 0.5 --scores {tmp}/other.json --out {tmp}/m.json",
            _table("other.json", lambda t: {**t, "dataset_sha256": "0" * 64}), 2,
            f"error: difficulty table is for dataset sha256 {'0' * 64}, not {{data_sha256}} of the training set\n"),
    Refusal("TestMakeProxy::test_table_without_a_digest_is_refused",
            "make-proxy --data {data} --kind quantile --lo 0.5 --hi 1.0 --scores {tmp}/old.json --out {tmp}/m.json",
            _table("old.json", lambda t: {**t, "dataset_sha256": None}), 2,
            "error: difficulty table records no dataset digest; re-run score\n"),
    Refusal("TestMakeProxy::test_truncated_table_is_refused",  # a table cut off mid-write does not parse
            "make-proxy --data {data} --kind quantile --lo 0.9 --hi 1.0 --scores {tmp}/cut.json --out {tmp}/m.json",
            _copy("scores", "cut.json", lambda b: b[: len(b) // 2]), 2, "error: {tmp}/cut.json: Expecting "),
    Refusal("TestMakeProxy::test_table_cut_inside_its_last_value_is_refused",
            "make-proxy --data {data} --kind quantile --lo 0.0 --hi 1.0 --scores {tmp}/cut.json --out {tmp}/m.json",
            _copy("scores", "cut.json", lambda b: b[:-8]), 2, "error: {tmp}/cut.json: Unterminated string starting at"),
    Refusal("test_refusal[table-in-the-csv-form-of-earlier-versions]",
            "make-proxy --data {data} --kind quantile --lo 0.0 --hi 1.0 --scores {tmp}/old.csv --out {tmp}/m.json",
            _write("old.csv", "example_id,loss\r\n3,2.5\r\n"), 2,
            "error: {tmp}/old.csv: Expecting value: line 1 column 1 (char 0)\n"),
    Refusal("TestMakeProxy::test_table_out_of_rank_order_is_named",
            "make-proxy --data {data} --kind quantile --lo 0.0 --hi 1.0 --scores {tmp}/swapped.json --target-epochs 3 "
            "--out {tmp}/m.json",
            _table("swapped.json", _swap_first_entries), 2,
            "error: {tmp}/swapped.json: entries not in rank order (loss desc, id asc)\n"),
    Refusal("test_refusal[table-id-outside-int64]",
            "make-proxy --data {data} --kind quantile --lo 0.5 --hi 1.0 --scores {tmp}/big.json --out {tmp}/m.json",
            _table("big.json", lambda t: {**t, "ids": [99999999999999999999, *t["ids"][1:]]}), 2,
            "error: {tmp}/big.json: ids holds an example id outside the int64 range\n"),
    Refusal("TestFieldTypes::test_table_field",
            "make-proxy --data {data} --kind quantile --lo 0.5 --hi 1.0 --scores {tmp}/scores.json --target-epochs 3 "
            "--out {tmp}/m.json",
            _table("scores.json", lambda t: {**t, "dataset_id": 5}), 2,
            "error: {tmp}/scores.json: dataset_id must be a string, got 5\n"),

    # paths that are not files, lie under one, or lie in no directory: refused before any work, lock or read
    *[Refusal(f"TestPathsThatAreNotFiles::test_bad_out_is_refused_before_the_work[{command}-{kind}]",
              argv.replace("{tmp}/out", out), edit, 2, f"error: {message}\n", not_called=_NO_WORK)
      for command, argv in _BAD_OUT.items() for kind, (edit, out, message) in _BAD_TARGET.items()],
    *[Refusal(f"TestPathsThatAreNotFiles::test_out_in_a_missing_directory_is_refused_before_the_work[{command}]",
              argv.replace("{tmp}/out", "{tmp}/nope/out"), None, 2,
              "error: {tmp}/nope/out: its directory does not exist\n", not_called=_NO_WORK)
      for command, argv in _BAD_OUT.items() if command != "gen-data"],  # gen-data's is TestGenData's row
    *[Refusal(f"TestPathsThatAreNotFiles::test_out_that_is_an_input_is_refused_before_the_work[{command}]",
              argv, edit, 2, f"error: {argv.split()[-1]} is the {flag} input; refusing to replace it\n",
              not_called=_NO_WORK)
      for command, (edit, argv, flag) in _OUT_IS_INPUT.items()],
    Refusal("TestPathsThatAreNotFiles::test_out_that_is_an_input_is_refused_before_the_work[report]",
            "report --report {tmp}/quality_vs_cost.csv --out {tmp}", _copy("quality", "quality_vs_cost.csv"), 2,
            "error: {tmp}/quality_vs_cost.csv is the --report input; refusing to replace it\n",
            not_called=("reports_from_csv", "store_load")),
    Refusal("test_refusal[report-out-under-a-file]", "report --report {quality} --results {results} --out {tmp}/p/plots",
            _write("p", ""), 2, "error: {tmp}/p/plots/quality_vs_cost.csv: a parent of it is not a directory\n"),
    # inputs that do not exist: refused for its --out before it reads either
    Refusal("test_refusal[report-out-under-a-file-before-its-inputs]",
            "report --report {tmp}/missing.csv --results {tmp}/missing.jsonl --out {tmp}/p/plots", _write("p", ""), 2,
            "error: {tmp}/p/plots/quality_vs_cost.csv: a parent of it is not a directory\n",
            not_called=("reports_from_csv", "store_load")),
    *[Refusal(f"TestPathsThatAreNotFiles::test_results_fifo_is_refused_not_read[{command}]", argv, _fifo("r.jsonl"),
              2, "error: {tmp}/r.jsonl exists and is not a regular file")
      for command, argv in [
          ("run-grid", _RUN_GRID), ("run-grid --dry-run", _RUN_GRID + " --dry-run"),
          ("analyze", "analyze --results {tmp}/r.jsonl --out {tmp}/q.csv"),
          ("report", "report --report {quality} --out {tmp}/plots --results {tmp}/r.jsonl")]],
    Refusal("TestExitCodes::test_missing_data_file", "score --data {tmp}/nope.csv --out {tmp}/s.csv", None, 2,
            "error: dataset file not found: {tmp}/nope.csv\n"),
    Refusal("TestRunGrid::test_missing_proxy_dir",
            "run-grid --data {data} --grid {grid} --proxies {tmp}/nope --out {tmp}/r.jsonl", None, 2,
            "error: proxy directory not found: {tmp}/nope\n"),

    # run-grid: the grid, the manifests and the results file it resumes
    Refusal("TestRunGrid::test_manifest_ids_that_are_not_integers_are_refused",
            "run-grid --data {data} --grid {grid} --proxies {tmp}/proxies --out {tmp}/r.jsonl",
            _manifest({"train_ids": [1.5]}, base="random_all.json", name="random_all.json"), 2,
            "error: {tmp}/proxies/random_all.json: train_ids[0] must be an integer, got 1.5\n"),
    *[Refusal(f"test_refusal[manifest-{what}-not-its-spec]", _RUN_GRID.replace("{proxies}", "{tmp}/proxies"),
              _manifest(change, base=name, name=name), 2, f"error: {{tmp}}/proxies/{name}: {message}\n",
              not_called=("load_csv",), also_dry_run=True)
      for what, change, name, message in [
          ("proxy-id", {"proxy_id": "full"}, "random_all.json", "proxy_id 'full' is not 'random-0.5-s0', the id of its spec"),
          ("epochs", {"epochs": 2}, "fewer_epochs.json", "epochs 2 is not 1, the budget of its fewer_epochs spec")]],
    Refusal("TestRunGrid::test_epochs_variation_is_refused",
            "run-grid --data {data} --grid {tmp}/grid.json --proxies {proxies} --out {tmp}/r.jsonl",
            _write("grid.json", json.dumps({**GRID, "variations": {**GRID["variations"], "epochs": [1]}})), 2,
            "error: {tmp}/grid.json: epochs is not a searchable field\n"),
    Refusal("TestRunGrid::test_manifest_for_another_epoch_budget_is_refused",  # built for make-proxy's default 20
            "run-grid --data {data} --grid {grid} --proxies {tmp}/proxies --out {tmp}/r.jsonl",
            _manifest({"epochs": 20}, base="random_all.json", name="random.json"), 2,
            "error: proxy manifest 'random-0.5-s0' trains 20 epochs, not the grid's 3; rebuild it with make-proxy "
            "--target-epochs 3\n", leaves=("r.jsonl.lock",), also_dry_run=True),
    Refusal("test_refusal[duplicate-proxy-id]",
            "run-grid --data {data} --grid {grid} --proxies {tmp}/proxies --out {tmp}/r.jsonl",
            _duplicate_manifest, 2, "error: duplicate proxy id 'random-0.5-s0' in {tmp}/proxies\n",
            not_called=_NO_WORK, also_dry_run=True),
    Refusal("TestRunGrid::test_second_writer_of_one_results_file_is_refused", _RUN_GRID, _held_results_lock, 2,
            "error: {tmp}/r.jsonl is being written by another run-grid (it holds {tmp}/r.jsonl.lock)\n"),
    *[Refusal(name, "run-grid --data {data} --grid {grid} --proxies {proxies} --out {tmp}/seed0.jsonl",
              _copy("results", "seed0.jsonl"), 2,
              f"error: stored run ('toy', 'full', 'd05a44faafb2') used seed 3910890168, but global seed {seed} "
              f"gives seed {gives}; refusing to resume\n",
              leaves=("seed0.jsonl.lock",), env={"PROXYBENCH_SEED": seed}, also_dry_run=True)
      for name, seed, gives in [
          ("TestRunGrid::test_dry_run_under_another_seed_is_refused_like_the_run", "7", "2514855663"),
          ("TestRunGrid::test_resume_under_another_seed_is_refused", "5", "2048187746")]],
    Refusal("test_refusal[resume-under-another-split]", _RUN_GRID + " --val-fraction 0.2",
            _copy("results", "r.jsonl"), 2,
            "error: stored run ('toy', 'full', 'd05a44faafb2') cost 243.0 units, but this split trains "
            "72 examples x 3 epochs = 216.0; refusing to resume\n", leaves=("r.jsonl.lock",), also_dry_run=True),
    *[Refusal(f"test_refusal[manifest-from-another-{what}]", _RUN_GRID.replace("{proxies}", "{tmp}/proxies"),
              _other_split_manifest(name), 2,
              "error: proxy manifest 'random-0.5-s0' was built on another split (another --global-seed or "
              f"--val-fraction): ids not present in dataset 'toy': {missing}\n",
              leaves=("r.jsonl.lock",), also_dry_run=True)
      for what, name, missing in [("global-seed", "seed1", "[18, 37, 72, 74]"),
                                  ("val-fraction", "val0.2", "[0, 8, 29, 42, 45]")]],
    Refusal("test_refusal[stored-manifest-from-another-global-seed]", _RUN_GRID.replace("{proxies}", "{tmp}/proxies"),
            _stored_with_other_split_manifest("seed1"), 2,
            "error: proxy manifest 'random-0.5-s0' was built on another split (another --global-seed or "
            "--val-fraction): ids not present in dataset 'toy': [18, 37, 72, 74]\n",
            leaves=("r.jsonl.lock",), also_dry_run=True),
    Refusal("test_refusal[closed-stdout]", _RUN_GRID + " --dry-run", None, 141, "", closed_stdout=True),

    # analyze and report: the results lines and quality rows they read
    Refusal("TestAnalyze::test_empty_results_file_is_runtime_error",
            "analyze --results {tmp}/none.jsonl --out {tmp}/q.csv", None, 2, "error: no records in {tmp}/none.jsonl\n"),
    *[Refusal(f"TestFieldTypes::test_results_line[change{i}-{message}]",
              "analyze --results {tmp}/r.jsonl --out {tmp}/q.csv", _results_line(change), 2,
              f"error: {{tmp}}/r.jsonl: line 2: malformed record ({message})\n")
      for i, (change, message) in enumerate([
          ({"best_val_acc": "x"}, "best_val_acc must be a finite number, got 'x'"),
          ({"epoch_val_acc": ["x"]}, "epoch_val_acc[0] must be a finite number, got 'x'")])],
    *[Refusal(f"TestResultRanges::test_refused_where_the_file_is_read[{command}-change{i}-{message}]", argv,
              _results_line(change), 2, f"error: {{tmp}}/r.jsonl: line 2: malformed record ({message})\n")
      for command, argv in [("analyze", "analyze --results {tmp}/r.jsonl --out {tmp}/q.csv"),
                            ("report", "report --report {quality} --results {tmp}/r.jsonl --out {tmp}/plots")]
      for i, (change, message) in enumerate(_RESULT_CHANGES)],
    *[Refusal(f"TestAnalyze::test_duplicated_record_is_refused_with_its_line[{where}]",
              "analyze --results {tmp}/r.jsonl --out {tmp}/q.csv",
              _copy("results", "r.jsonl", lambda data, end=end: data + data.splitlines(keepends=True)[0][:end]), 2,
              "error: {tmp}/r.jsonl: line 21: duplicate result key ('toy', 'full', 'd05a44faafb2')\n")
      for where, end in [("complete-line", None), ("unterminated-tail", -1)]],
    # a failing analyze or report writes nothing: its value or tables are computed before any output
    Refusal("test_refusal[consistency-with-too-few-shared-strategies]",
            "analyze --results {results} --out {tmp}/q.csv --consistency toy,other", None, 2,
            "error: only 0 shared strategies, need at least 3\n"),
    Refusal("test_refusal[report-strategy-missing-from-results]",
            "report --report {quality} --out {tmp}/plots --results {tmp}/r.jsonl", _without_proxy("random-0.5-s0"), 2,
            "error: no shared configs between 'random-0.5-s0' and 'full' on 'toy'\n"),
    *[Refusal(f"test_refusal[{command}-dataset-without-full-runs]", argv,
              _copy("results", "r.jsonl", _plus_dataset_without_full_runs), 2,
              "error: dataset 'other' has no 'full' runs to compare against\n")
      for command, argv in [("analyze", "analyze --results {tmp}/r.jsonl --out {tmp}/q.csv"),
                            ("report", "report --report {quality} --results {tmp}/r.jsonl --out {tmp}/plots")]],
    Refusal("test_refusal[report-out-is-a-file]", "report --report {quality} --results {results} --out {tmp}/plots",
            _write("plots", ""), 2, "error: {tmp}/plots exists and is not a directory\n",
            not_called=("reports_from_csv", "store_load")),
    *[Refusal(f"TestReport::test_malformed_row_is_refused_with_its_path_and_line[{case}]",
              "report --report {tmp}/bad.csv --out {tmp}/plots", _quality_row(edit), 2,
              f"error: {{tmp}}/bad.csv: line 4: {message}\n")
      for case, (edit, message) in sorted(_QUALITY_ROWS.items())],
]
