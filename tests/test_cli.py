import argparse
import hashlib
import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from proxybench import dataset as dataset_module
from proxybench.cli import _build_parser, main
from proxybench.dataset import SynthSpec, load_csv, synth_generate
from proxybench.metrics import reports_from_csv
from proxybench.orchestrator import store_load
from proxybench.trainer import RunRecord

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


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("PROXYBENCH_SEED", raising=False)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full pass: gen-data, score, proxies, run-grid, analyze."""
    # module scope sets up before the function-scoped env guard
    os.environ.pop("PROXYBENCH_SEED", None)
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "toy.csv"
    scores = root / "difficulty.csv"
    proxies = root / "proxies"
    results = root / "results.jsonl"
    quality = root / "quality.csv"
    proxies.mkdir()

    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    grid_path = root / "grid.json"
    grid_path.write_text(json.dumps(GRID))

    assert main(["gen-data", "--spec", str(spec_path), "--out", str(data)]) == 0
    assert main(["score", "--data", str(data), "--out", str(scores)]) == 0
    for flags in [
        ["--kind", "random_all", "--fraction", "0.5"],
        ["--kind", "quantile", "--lo", "0.5", "--hi", "1.0", "--scores", str(scores)],
        ["--kind", "fewer_epochs", "--epochs", "1", "--target-epochs", "3"],
        ["--kind", "half_classes", "--classes", "0,1"],
    ]:
        name = flags[1] + ".json"
        assert main(["make-proxy", "--data", str(data), "--out", str(proxies / name), *flags]) == 0
    assert (
        main(["run-grid", "--data", str(data), "--grid", str(grid_path), "--proxies", str(proxies), "--out", str(results)])
        == 0
    )
    assert main(["analyze", "--results", str(results), "--out", str(quality)]) == 0
    return {
        "root": root,
        "data": data,
        "scores": scores,
        "proxies": proxies,
        "results": results,
        "quality": quality,
        "grid": grid_path,
        "spec": spec_path,
    }


class TestGenData:
    def test_output_matches_library_generation(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SPEC))
        out = tmp_path / "toy.csv"
        assert main(["gen-data", "--spec", str(spec_path), "--out", str(out)]) == 0
        loaded = load_csv(out)
        direct = synth_generate(SynthSpec(**SPEC))
        assert loaded.class_count == direct.class_count
        assert np.array_equal(loaded.features, direct.features)
        assert np.array_equal(loaded.labels, direct.labels)

    def test_output_bytes_are_pinned(self, tmp_path):
        spec = {"class_count": 3, "feature_dim": 4, "examples_per_class": 7, "class_separation": 2.5,
                "noise_scale_lo": 0.1, "noise_scale_hi": 1.2, "label_flip_fraction": 0.2, "seed": 11}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "small.csv"
        assert main(["gen-data", "--spec", str(spec_path), "--out", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "8312ad8c547b027a44866d686757df14dcf28f363f758c861e3ef376c36352fb"

    def test_bad_spec_is_usage_error(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({**SPEC, "bogus_field": 1}))
        out = tmp_path / "toy.csv"
        assert main(["gen-data", "--spec", str(spec_path), "--out", str(out)]) == 1
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_output_leaves_nothing(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SPEC))
        out = tmp_path / "no_such_dir" / "toy.csv"
        assert main(["gen-data", "--spec", str(spec_path), "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.parent.exists()


class TestScore:
    def test_writes_table_and_sidecar(self, pipeline):
        assert pipeline["scores"].exists()
        sidecar = pipeline["scores"].with_suffix(".json")
        assert sidecar.exists()
        meta = json.loads(sidecar.read_text())
        assert meta["dataset_id"] == "toy"

    def test_sidecar_records_the_data_digest(self, pipeline):
        meta = json.loads(pipeline["scores"].with_suffix(".json").read_text())
        assert meta["dataset_sha256"] == hashlib.sha256(pipeline["data"].read_bytes()).hexdigest()

    def test_global_seed_env_overrides_flag(self, pipeline, tmp_path, monkeypatch, capsys):
        data = pipeline["data"]
        a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        monkeypatch.setenv("PROXYBENCH_SEED", "7")
        assert main(["score", "--data", str(data), "--out", str(a), "--global-seed", "0"]) == 0
        monkeypatch.delenv("PROXYBENCH_SEED")
        assert main(["score", "--data", str(data), "--out", str(b), "--global-seed", "7"]) == 0
        assert main(["score", "--data", str(data), "--out", str(c), "--global-seed", "0"]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_non_integer_env_seed(self, pipeline, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PROXYBENCH_SEED", "abc")
        out = tmp_path / "x.csv"
        code = main(["score", "--data", str(pipeline["data"]), "--out", str(out)])
        assert code == 1
        assert "PROXYBENCH_SEED" in capsys.readouterr().err


class TestMakeProxy:
    def test_quantile_without_scores_is_usage_error(self, pipeline, tmp_path, capsys):
        code = main(
            ["make-proxy", "--data", str(pipeline["data"]), "--kind", "quantile", "--lo", "0.5", "--hi", "1.0", "--out", str(tmp_path / "m.json")]
        )
        assert code == 1
        assert "--scores" in capsys.readouterr().err

    def test_table_dataset_mismatch(self, pipeline, tmp_path, capsys):
        other = tmp_path / "other.csv"
        other.write_bytes(pipeline["data"].read_bytes())
        code = main(
            ["make-proxy", "--data", str(other), "--kind", "quantile", "--lo", "0.5", "--hi", "1.0",
             "--scores", str(pipeline["scores"]), "--out", str(tmp_path / "m.json")]
        )
        assert code == 2
        assert "is for dataset" in capsys.readouterr().err

    def test_bad_classes_flag(self, pipeline, tmp_path, capsys):
        code = main(
            ["make-proxy", "--data", str(pipeline["data"]), "--kind", "half_classes", "--classes", "0,x", "--out", str(tmp_path / "m.json")]
        )
        assert code == 1
        assert "comma-separated" in capsys.readouterr().err

    def test_flag_the_kind_does_not_take_is_usage_error(self, pipeline, tmp_path, capsys):
        out = tmp_path / "m.json"
        code = main(["make-proxy", "--data", str(pipeline["data"]), "--kind", "full", "--fraction", "0.5", "--out", str(out)])
        assert code == 1
        assert "full proxy does not take --fraction" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind, flags, named", [
        ("random_all", ["--fraction", "0.5", "--classes", "0,1"], "--classes"),
        ("full", ["--epochs", "3"], "--epochs"),
        ("fewer_epochs", ["--epochs", "1", "--fraction", "0.5"], "--fraction"),
        ("random_all", ["--fraction", "0.5", "--lo", "0.1"], "--lo"),
        ("half_classes", ["--hi", "0.9"], "--hi"),
    ])
    def test_rejected_flag_is_named_as_typed(self, pipeline, tmp_path, capsys, kind, flags, named):
        out = tmp_path / "m.json"
        code = main(["make-proxy", "--data", str(pipeline["data"]), "--kind", kind, *flags, "--out", str(out)])
        assert code == 1
        assert f"{kind} proxy does not take {named}\n" in capsys.readouterr().err
        assert not out.exists()

    def test_table_from_another_dataset_with_the_same_stem_is_refused(self, tmp_path, capsys):
        for name, seed in (("a", 17), ("b", 99)):
            (tmp_path / name).mkdir()
            spec = tmp_path / name / "spec.json"
            spec.write_text(json.dumps({**SPEC, "seed": seed}))
            assert main(["gen-data", "--spec", str(spec), "--out", str(tmp_path / name / "data.csv")]) == 0
        a, b = tmp_path / "a" / "data.csv", tmp_path / "b" / "data.csv"
        scores = tmp_path / "a" / "diff.csv"
        assert main(["score", "--data", str(a), "--out", str(scores)]) == 0
        capsys.readouterr()
        out = tmp_path / "m.json"
        code = main(["make-proxy", "--data", str(b), "--kind", "quantile", "--lo", "0.5", "--hi", "1.0",
                     "--scores", str(scores), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert hashlib.sha256(a.read_bytes()).hexdigest() in err
        assert hashlib.sha256(b.read_bytes()).hexdigest() in err
        assert not out.exists()

    def test_table_without_a_digest_is_refused(self, pipeline, tmp_path, capsys):
        scores = tmp_path / "old.csv"
        shutil.copy(pipeline["scores"], scores)
        meta = json.loads(pipeline["scores"].with_suffix(".json").read_text())
        del meta["dataset_sha256"]
        scores.with_suffix(".json").write_text(json.dumps(meta))
        out = tmp_path / "m.json"
        code = main(["make-proxy", "--data", str(pipeline["data"]), "--kind", "quantile", "--lo", "0.5",
                     "--hi", "1.0", "--scores", str(scores), "--out", str(out)])
        assert code == 2
        assert "records no dataset digest; re-run score" in capsys.readouterr().err
        assert not out.exists()

    def test_truncated_table_is_refused(self, pipeline, tmp_path, capsys):
        # a table cut off mid-write must not pass for the whole training set
        scores = tmp_path / "cut.csv"
        lines = pipeline["scores"].read_text().splitlines(keepends=True)
        scores.write_text("".join(lines[: len(lines) // 2]))
        shutil.copy(pipeline["scores"].with_suffix(".json"), scores.with_suffix(".json"))
        out = tmp_path / "m.json"
        code = main(
            ["make-proxy", "--data", str(pipeline["data"]), "--kind", "quantile", "--lo", "0.9", "--hi", "1.0",
             "--scores", str(scores), "--out", str(out)]
        )
        assert code == 2
        assert "must score exactly the training ids" in capsys.readouterr().err
        assert not out.exists()


def _fill_disk(monkeypatch):
    """From here on, every Path.write_text writes half its text, then fails."""
    real = Path.write_text

    def half_then_fail(self, text, *args, **kwargs):
        real(self, text[: len(text) // 2], *args, **kwargs)
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_text", half_then_fail)


class TestFailedWrites:
    """A write that fails part-way leaves the previous output whole and no temp file."""

    def test_score_keeps_previous_table_and_sidecar(self, pipeline, tmp_path, capsys, monkeypatch):
        out = tmp_path / "scores.csv"
        out.write_text("previous table\n")
        out.with_suffix(".json").write_text("previous sidecar\n")
        _fill_disk(monkeypatch)
        assert main(["score", "--data", str(pipeline["data"]), "--out", str(out)]) == 2
        assert "disk full" in capsys.readouterr().err
        assert {p.name: p.read_text() for p in tmp_path.iterdir()} == {
            "scores.csv": "previous table\n",
            "scores.json": "previous sidecar\n",
        }

    def test_make_proxy_keeps_previous_manifest(self, pipeline, tmp_path, capsys, monkeypatch):
        out = tmp_path / "m.json"
        out.write_text("previous manifest\n")
        _fill_disk(monkeypatch)
        code = main(["make-proxy", "--data", str(pipeline["data"]), "--kind", "random_all", "--fraction", "0.5", "--out", str(out)])
        assert code == 2
        assert "disk full" in capsys.readouterr().err
        assert {p.name: p.read_text() for p in tmp_path.iterdir()} == {"m.json": "previous manifest\n"}


class TestDataSidecar:
    """Commands that load --data cache the parse in <data>.csv.npz, best-effort."""

    def test_later_stages_read_the_sidecar(self, pipeline, tmp_path, monkeypatch, capsys):
        assert pipeline["data"].with_name("toy.csv.npz").exists()

        def refuse(fh, path):
            raise AssertionError("parsed the CSV instead of reading its sidecar")

        monkeypatch.setattr(dataset_module, "_parse_csv", refuse)
        out = tmp_path / "m.json"
        code = main(["make-proxy", "--data", str(pipeline["data"]), "--kind", "quantile", "--lo", "0.5",
                     "--hi", "1.0", "--scores", str(pipeline["scores"]), "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        assert out.exists()

    def test_read_only_data_directory(self, pipeline, tmp_path, monkeypatch, capsys):
        data_dir = tmp_path / "ro"
        data_dir.mkdir()
        data = data_dir / "toy.csv"
        shutil.copy(pipeline["data"], data)
        data_dir.chmod(0o555)

        def refuse(self, data):  # root ignores mode bits
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(Path, "write_bytes", refuse)
        try:
            out = tmp_path / "scores.csv"
            assert main(["score", "--data", str(data), "--out", str(out)]) == 0
            assert out.read_bytes() == pipeline["scores"].read_bytes()
            assert sorted(p.name for p in data_dir.iterdir()) == ["toy.csv"]
        finally:
            data_dir.chmod(0o755)
        capsys.readouterr()


class TestRunGrid:
    def test_dry_run_prints_matrix_and_writes_nothing(self, pipeline, tmp_path, capsys):
        out = tmp_path / "results.jsonl"
        code = main(
            ["run-grid", "--data", str(pipeline["data"]), "--grid", str(pipeline["grid"]),
             "--proxies", str(pipeline["proxies"]), "--out", str(out), "--dry-run"]
        )
        assert code == 0
        assert not out.exists()
        lines = capsys.readouterr().out.strip().splitlines()
        # 5 proxies (4 manifests + synthesized full) x 4 configs, plus a total line
        assert len(lines) == 21
        assert "20 runs" in lines[-1]

    def test_results_cover_full_matrix(self, pipeline):
        store = store_load(pipeline["results"])
        assert len(store) == 20
        proxy_ids = {k[1] for k in store.keys()}
        assert proxy_ids == {"full", "random-0.5-s0", "hard-0.5-1.0", "ep1", "half-0+1-f1.0"}
        for rec in store.records():
            assert isinstance(rec, RunRecord)
            assert rec.status == "ok"

    def test_rerun_adds_nothing(self, pipeline, capsys):
        code = main(
            ["run-grid", "--data", str(pipeline["data"]), "--grid", str(pipeline["grid"]),
             "--proxies", str(pipeline["proxies"]), "--out", str(pipeline["results"])]
        )
        assert code == 0
        assert "(20 pre-existing, 0 new)" in capsys.readouterr().out
        assert len(store_load(pipeline["results"])) == 20

    def test_parallel_rerun_is_identical(self, pipeline, tmp_path, capsys):
        out = tmp_path / "par.jsonl"
        code = main(
            ["run-grid", "--data", str(pipeline["data"]), "--grid", str(pipeline["grid"]),
             "--proxies", str(pipeline["proxies"]), "--out", str(out), "--parallel", "4"]
        )
        assert code == 0
        capsys.readouterr()
        a = {k: r.best_val_acc for k, r in zip(store_load(pipeline["results"]).keys(), store_load(pipeline["results"]).records())}
        b = {k: r.best_val_acc for k, r in zip(store_load(out).keys(), store_load(out).records())}
        assert a == b

    def test_torn_last_line_resumes(self, pipeline, tmp_path, capsys):
        # a run killed mid-append leaves 12 whole records and half of the 13th
        lines = pipeline["results"].read_text().splitlines(keepends=True)
        out = tmp_path / "torn.jsonl"
        out.write_text("".join(lines[:12]) + lines[12][: len(lines[12]) // 2])
        code = main(
            ["run-grid", "--data", str(pipeline["data"]), "--grid", str(pipeline["grid"]),
             "--proxies", str(pipeline["proxies"]), "--out", str(out)]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "(12 pre-existing, 8 new)" in captured.out
        assert "unterminated last line" in captured.err
        full, resumed = store_load(pipeline["results"]), store_load(out)
        assert capsys.readouterr().err == ""  # the repaired file loads cleanly
        assert {k: full.get(k).epoch_val_acc for k in full.keys()} == {
            k: resumed.get(k).epoch_val_acc for k in resumed.keys()
        }

    def test_resume_under_another_seed_is_refused(self, pipeline, tmp_path, capsys, monkeypatch):
        out = tmp_path / "seed0.jsonl"
        out.write_bytes(pipeline["results"].read_bytes())
        monkeypatch.setenv("PROXYBENCH_SEED", "5")
        code = main(
            ["run-grid", "--data", str(pipeline["data"]), "--grid", str(pipeline["grid"]),
             "--proxies", str(pipeline["proxies"]), "--out", str(out)]
        )
        assert code == 2
        err = capsys.readouterr().err
        first = store_load(pipeline["results"]).records()[0]
        assert "refusing to resume" in err
        assert f"'{first.proxy_id}', '{first.config_id}'" in err
        assert f"used seed {first.seed}, but global seed 5 gives seed" in err
        assert out.read_bytes() == pipeline["results"].read_bytes()

    def test_missing_proxy_dir(self, pipeline, tmp_path, capsys):
        code = main(
            ["run-grid", "--data", str(pipeline["data"]), "--grid", str(pipeline["grid"]),
             "--proxies", str(tmp_path / "nope"), "--out", str(tmp_path / "r.jsonl")]
        )
        assert code == 2
        assert "proxy directory" in capsys.readouterr().err


class TestAnalyze:
    def test_report_has_one_row_per_strategy(self, pipeline):
        reports = reports_from_csv(pipeline["quality"])
        assert len(reports) == 5
        by_strategy = {r.strategy: r for r in reports}
        assert abs(by_strategy["full"].r2 - 1.0) < 1e-12
        assert by_strategy["full"].relative_cost == 1.0
        assert by_strategy["ep1"].relative_cost == pytest.approx(1 / 3)
        assert all(r.n_configs == 4 for r in reports)
        # 5 strategies is enough for the cost-adjusted column
        assert all(np.isfinite(r.cost_adjusted) for r in reports)

    def test_idempotent(self, pipeline, tmp_path, capsys):
        out = tmp_path / "quality2.csv"
        assert main(["analyze", "--results", str(pipeline["results"]), "--out", str(out)]) == 0
        capsys.readouterr()
        assert out.read_bytes() == pipeline["quality"].read_bytes()

    def test_epoch_corr_output(self, pipeline, tmp_path, capsys):
        out = tmp_path / "q.csv"
        assert main(["analyze", "--results", str(pipeline["results"]), "--out", str(out), "--epoch-corr"]) == 0
        capsys.readouterr()
        ec = tmp_path / "q-epochs.csv"
        assert ec.exists()
        lines = ec.read_text().strip().splitlines()
        assert lines[0] == "dataset,epoch,pearson"
        assert len(lines) == 4  # 3 full-proxy epochs

    def test_bad_good_rule(self, pipeline, tmp_path, capsys):
        code = main(["analyze", "--results", str(pipeline["results"]), "--out", str(tmp_path / "q.csv"), "--good-rule", "best:9"])
        assert code == 1
        assert "good-rule" in capsys.readouterr().err

    def test_min_accuracy_rule_runs(self, pipeline, tmp_path, capsys):
        out = tmp_path / "qmin.csv"
        assert main(["analyze", "--results", str(pipeline["results"]), "--out", str(out), "--good-rule", "min:0.0"]) == 0
        capsys.readouterr()
        assert len(reports_from_csv(out)) == 5

    def test_failed_write_keeps_previous_report(self, pipeline, tmp_path, capsys, monkeypatch):
        out = tmp_path / "q.csv"
        out.write_text("previous report\n")

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        assert main(["analyze", "--results", str(pipeline["results"]), "--out", str(out)]) == 2
        assert "disk full" in capsys.readouterr().err
        assert out.read_text() == "previous report\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["q.csv"]

    def test_empty_results_file_is_runtime_error(self, tmp_path, capsys):
        missing = tmp_path / "none.jsonl"
        code = main(["analyze", "--results", str(missing), "--out", str(tmp_path / "q.csv")])
        assert code == 2
        assert "no records" in capsys.readouterr().err


def _synthetic_records(datasets=("dsa", "dsb"), n_cfg=6, seed=3):
    rng = np.random.default_rng(seed)
    records = []
    for ds in datasets:
        target = rng.uniform(0.3, 0.9, size=n_cfg)
        for pid, cost, noise in [("full", 100.0, 0.0), ("p1", 10.0, 0.02), ("p2", 30.0, 0.05), ("p3", 60.0, 0.01)]:
            for cfg in range(n_cfg):
                acc = float(np.clip(target[cfg] + rng.normal(scale=noise), 0.0, 1.0))
                records.append(
                    RunRecord(
                        dataset_id=ds,
                        proxy_id=pid,
                        config_id=f"c{cfg}",
                        seed=0,
                        epoch_val_acc=[acc / 2, acc],
                        best_val_acc=acc,
                        cost_units=cost,
                        wall_ms=1,
                    )
                )
    return records


class TestConsistency:
    def test_cross_dataset_consistency(self, tmp_path, capsys):
        results = tmp_path / "r.jsonl"
        with open(results, "w") as fh:
            for rec in _synthetic_records():
                fh.write(json.dumps(rec.to_dict()) + "\n")
        out = tmp_path / "q.csv"
        code = main(["analyze", "--results", str(results), "--out", str(out), "--consistency", "dsa,dsb:r2"])
        assert code == 0
        printed = capsys.readouterr().out
        assert "consistency r2 dsa vs dsb:" in printed

    def test_malformed_consistency_spec(self, tmp_path, capsys):
        results = tmp_path / "r.jsonl"
        with open(results, "w") as fh:
            for rec in _synthetic_records(datasets=("dsa",)):
                fh.write(json.dumps(rec.to_dict()) + "\n")
        code = main(["analyze", "--results", str(results), "--out", str(tmp_path / "q.csv"), "--consistency", "only_one"])
        assert code == 1
        assert "--consistency" in capsys.readouterr().err


class TestReport:
    def test_without_results_writes_one_csv(self, pipeline, tmp_path, capsys):
        out = tmp_path / "plots"
        assert main(["report", "--report", str(pipeline["quality"]), "--out", str(out)]) == 0
        capsys.readouterr()
        assert sorted(p.name for p in out.iterdir()) == ["quality_vs_cost.csv"]
        lines = (out / "quality_vs_cost.csv").read_text().strip().splitlines()
        assert lines[0] == "strategy,dataset,relative_cost,r2,cost_adjusted"
        assert len(lines) == 6

    def test_with_results_writes_three_csvs(self, pipeline, tmp_path, capsys):
        out = tmp_path / "plots"
        code = main(["report", "--report", str(pipeline["quality"]), "--out", str(out), "--results", str(pipeline["results"])])
        assert code == 0
        capsys.readouterr()
        assert sorted(p.name for p in out.iterdir()) == [
            "epoch_correlation.csv",
            "proxy_target_scatter.csv",
            "quality_vs_cost.csv",
        ]
        scatter = (out / "proxy_target_scatter.csv").read_text().strip().splitlines()
        assert scatter[0] == "dataset,strategy,config_id,proxy_acc_z,target_acc_z"
        assert len(scatter) == 1 + 4 * 4  # 4 non-target strategies x 4 configs


class TestFlagSets:
    def test_each_subcommand_takes_exactly_these_options(self):
        parser = _build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        common = {"--global-seed", "--val-fraction"}
        flags = {
            name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
            for name, p in sub.choices.items()
        }
        assert flags == {
            "gen-data": {"--spec", "--out"},
            "score": {"--data", "--out"} | common,
            "make-proxy": {"--data", "--scores", "--kind", "--lo", "--hi", "--fraction", "--classes", "--epochs",
                           "--seed", "--target-epochs", "--out"} | common,
            "run-grid": {"--data", "--grid", "--proxies", "--out", "--parallel", "--dry-run"} | common,
            "analyze": {"--results", "--out", "--good-rule", "--epoch-corr", "--consistency"},
            "report": {"--report", "--out", "--results"},
        }


class TestExitCodes:
    def test_unknown_command(self, capsys):
        assert main(["defragment"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        assert main(["score"]) == 1
        capsys.readouterr()

    def test_missing_data_file(self, tmp_path, capsys):
        code = main(["score", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "s.csv")])
        assert code == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "proxybench" in capsys.readouterr().out
