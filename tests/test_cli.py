import _ctypes
import argparse
import csv
import fcntl
import hashlib
import io
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tracemalloc
from dataclasses import asdict, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import proxybench
from proxybench import _atomic, _blas
from proxybench import cli as cli_module
from proxybench import orchestrator
from proxybench import dataset as dataset_module
from proxybench.cli import _build_parser, main
from proxybench.dataset import SynthSpec, load_csv, synth_generate
from proxybench.metrics import GoodConfigRule, reports_from_csv
from proxybench.orchestrator import store_load
from proxybench.proxy import load_manifest
from proxybench.trainer import RunRecord

import refusals
from refusals import GRID, SPEC, build_workspace


def _dry_run_units(out: str):
    """(train size, cells) of each unit a dry run printed, each cell (proxy id, epochs, config id); and its last line."""
    *lines, total = out.splitlines()
    units = []
    for line in lines:
        train, cells = line.split(" ")
        cells = [cell.split(":") for cell in cells.removeprefix("cells=").split(",")]
        units.append((int(train.removeprefix("train=")), tuple((p, int(e), c) for p, e, c in cells)))
    return units, total


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("PROXYBENCH_SEED", raising=False)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """The known-good workspace of refusals.build_workspace, built through main."""
    # module scope sets up before the function-scoped env guard
    os.environ.pop("PROXYBENCH_SEED", None)
    return build_workspace(tmp_path_factory.mktemp("pipeline"), main)


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

    def _gen_data(self, tmp_path, spec, out):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        assert main(["gen-data", "--spec", str(spec_path), "--out", str(out)]) == 0

    def test_next_load_reads_the_cache(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "toy.csv"
        self._gen_data(tmp_path, SPEC, out)
        capsys.readouterr()
        monkeypatch.setattr(dataset_module, "_parse_csv", lambda fh, path: pytest.fail("parsed the CSV"))
        assert main(["score", "--data", str(out), "--out", str(tmp_path / "scores.json")]) == 0, capsys.readouterr().err

    def test_cache_is_bitwise_a_fresh_parse(self, tmp_path, capsys):
        out = tmp_path / "toy.csv"
        self._gen_data(tmp_path, {**SPEC, "label_flip_fraction": 0.2}, out)
        capsys.readouterr()
        cached = load_csv(out)
        out.with_name("toy.csv.npz").unlink()
        parsed = load_csv(out)
        assert cached.features.dtype == parsed.features.dtype and cached.features.shape == parsed.features.shape
        assert cached.features.tobytes() == parsed.features.tobytes()
        assert cached.labels.dtype == parsed.labels.dtype and cached.labels.tobytes() == parsed.labels.tobytes()
        assert (cached.class_count, cached.source_sha256) == (parsed.class_count, parsed.source_sha256)

    def test_cache_of_an_earlier_csv_is_replaced(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "toy.csv"
        self._gen_data(tmp_path, SPEC, out)
        load_csv(out)  # a cache of the first CSV's bytes, whichever command wrote it
        self._gen_data(tmp_path, {**SPEC, "seed": 10}, out)
        capsys.readouterr()
        monkeypatch.setattr(dataset_module, "_parse_csv", lambda fh, path: pytest.fail("parsed the CSV"))
        loaded = load_csv(out)
        direct = synth_generate(SynthSpec(**{**SPEC, "seed": 10}))
        assert loaded.features.tobytes() == direct.features.tobytes()
        assert loaded.source_sha256 == hashlib.sha256(out.read_bytes()).hexdigest()

    def test_memory_beyond_the_dataset_is_at_most_twice_its_features(self, tmp_path, capsys):
        # the CSV text and the cache are streamed to disk, not built in memory
        spec = {**SPEC, "class_count": 4, "feature_dim": 32, "examples_per_class": 2_500}
        features_bytes = 10_000 * 32 * 8
        tracemalloc.start()
        try:
            self._gen_data(tmp_path, spec, tmp_path / "big.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert peak <= 3 * features_bytes, f"peak {peak / features_bytes:.2f}x the feature array"

    def test_failed_cache_write_is_skipped(self, tmp_path, monkeypatch, capsys):
        real_open = open

        def no_room_for_the_cache(file, mode):
            if Path(file).name.startswith("toy.csv.npz."):
                raise OSError(28, "No space left on device", str(file))
            return real_open(file, mode)

        monkeypatch.setattr(_atomic, "open", no_room_for_the_cache, raising=False)
        out = tmp_path / "toy.csv"
        self._gen_data(tmp_path, SPEC, out)
        capsys.readouterr()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json", "toy.csv"]
        assert load_csv(out).features.tobytes() == synth_generate(SynthSpec(**SPEC)).features.tobytes()


class TestScore:
    def test_writes_one_json_file_that_make_proxy_reads(self, pipeline, tmp_path, capsys):
        table = tmp_path / "t.json"
        assert main(["score", "--data", str(pipeline["data"]), "--out", str(table)]) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["t.json"]
        assert table.read_bytes() == pipeline["scores"].read_bytes()
        payload = json.loads(table.read_text())
        assert list(payload) == ["ids", "losses", "dataset_id", "scoring_config_id", "dataset_sha256"]
        assert payload["dataset_id"] == "toy"
        code = main(["make-proxy", "--data", str(pipeline["data"]), "--kind", "quantile", "--lo", "0.5", "--hi", "1.0",
                     "--scores", str(table), "--out", str(tmp_path / "m.json")])
        assert code == 0, capsys.readouterr().err

    def test_table_records_the_data_digest(self, pipeline):
        payload = json.loads(pipeline["scores"].read_text())
        assert payload["dataset_sha256"] == hashlib.sha256(pipeline["data"].read_bytes()).hexdigest()

    def test_global_seed_env_overrides_flag(self, pipeline, tmp_path, monkeypatch, capsys):
        data = pipeline["data"]
        a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
        monkeypatch.setenv("PROXYBENCH_SEED", "7")
        assert main(["score", "--data", str(data), "--out", str(a), "--global-seed", "0"]) == 0
        monkeypatch.delenv("PROXYBENCH_SEED")
        assert main(["score", "--data", str(data), "--out", str(b), "--global-seed", "7"]) == 0
        assert main(["score", "--data", str(data), "--out", str(c), "--global-seed", "0"]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()


class TestPinnedSetUp:
    """sha256s of score's table and of one manifest per make-proxy
    kind on a fixed tiny spec: a change to how ids are ranked, sampled or
    written must keep every byte."""

    SPEC = {"class_count": 4, "feature_dim": 3, "examples_per_class": 12, "class_separation": 2.0,
            "noise_scale_lo": 0.2, "noise_scale_hi": 1.0, "label_flip_fraction": 0.1, "seed": 13}
    KINDS = {
        "full": ["--kind", "full"],
        "random": ["--kind", "random_all", "--fraction", "0.4", "--seed", "3"],
        "random-all": ["--kind", "random_all", "--fraction", "1.0"],
        "half": ["--kind", "half_classes", "--classes", "0,2", "--fraction", "0.6", "--seed", "5"],
        "half-pick": ["--kind", "half_classes", "--seed", "7"],
        "quantile": ["--kind", "quantile", "--lo", "0.25", "--hi", "0.75"],
        "ep": ["--kind", "fewer_epochs", "--epochs", "2"],
    }
    DIGESTS = {
        "d.csv": "d4177ec5208b785f12fde341ca8fbd8693f88062d2b55f9379f8f6b62376bee7",
        "s.json": "6be1b51727caedf921b9fa11ce7e6ddda7ab41c654fe5e4d6aa5060c6cab622c",
        "full.json": "207b0ef6c2c052190312369502d119f68350b4fc9cb341d54292ea92f744db82",
        "random.json": "f20e9ad88bc7537949afbc5449673a139b2dde8b923b0eb20cabe9ced0c78eec",
        "random-all.json": "4312d21d0a4518f5728726ec643ad912079863e282fce1581af355c475695a5f",
        "half.json": "9bcc5c85446e5cc7691206ef4a5df41db3a3341a62cdcb7da9b28430dd0ceaae",
        "half-pick.json": "de90113aa46a88e50a76cbcb18d11926b6ea26eeca63f4169aca8db6dfbc02fd",
        "quantile.json": "2b12dff54eac8774f8fa809c70ebc55d4f230c55a92ae27618d35c334c5b87b6",
        "ep.json": "991252e90495c62a69ad633b2c1a9802137914addcdc93f3adaa5ae8da2c2723",
    }

    def test_table_and_manifest_bytes_are_pinned(self, tmp_path, capsys):
        (tmp_path / "spec.json").write_text(json.dumps(self.SPEC))
        data, scores = str(tmp_path / "d.csv"), str(tmp_path / "s.json")
        assert main(["gen-data", "--spec", str(tmp_path / "spec.json"), "--out", data]) == 0
        assert main(["score", "--data", data, "--out", scores]) == 0
        for name, flags in self.KINDS.items():
            argv = ["make-proxy", "--data", data, "--scores", scores, "--target-epochs", "5",
                    "--out", str(tmp_path / f"{name}.json"), *flags]
            assert main(argv) == 0, capsys.readouterr().err
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in self.DIGESTS}
        assert digests == self.DIGESTS


class TestMakeProxy:
    def test_renamed_copy_of_the_scored_data_is_accepted(self, pipeline, tmp_path, capsys):
        # the table's sha256 names the bytes it scored; the file name is only a label
        other = tmp_path / "other.csv"
        other.write_bytes(pipeline["data"].read_bytes())
        for data, out in ((pipeline["data"], tmp_path / "a.json"), (other, tmp_path / "b.json")):
            code = main(["make-proxy", "--data", str(data), "--kind", "quantile", "--lo", "0.5", "--hi", "1.0",
                         "--scores", str(pipeline["scores"]), "--out", str(out)])
            assert code == 0, capsys.readouterr().err
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


class _HalfThenFail:
    """A file whose every write writes half its bytes, then fails."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        self._fh.write(data[: len(data) // 2])
        raise OSError("disk full")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def _fill_disk(monkeypatch):
    """From here on, every atomic write writes half of each chunk, then fails."""
    real_open = open
    monkeypatch.setattr(_atomic, "open", lambda file, mode: _HalfThenFail(real_open(file, mode)), raising=False)


class TestFailedWrites:
    """A write that fails part-way leaves the previous output whole and no temp file."""

    def test_score_keeps_previous_table(self, pipeline, tmp_path, capsys, monkeypatch):
        out = tmp_path / "scores.json"
        out.write_text("previous table\n")
        _fill_disk(monkeypatch)
        assert main(["score", "--data", str(pipeline["data"]), "--out", str(out)]) == 2
        assert "disk full" in capsys.readouterr().err
        assert {p.name: p.read_text() for p in tmp_path.iterdir()} == {"scores.json": "previous table\n"}

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

        real_open = open

        def refuse(file, mode):  # root ignores mode bits
            if Path(file).parent == data_dir:
                raise PermissionError(13, "Permission denied", str(file))
            return real_open(file, mode)

        monkeypatch.setattr(_atomic, "open", refuse, raising=False)
        try:
            out = tmp_path / "scores.json"
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
        assert list(tmp_path.iterdir()) == []  # neither the results file nor its lock
        units, total = _dry_run_units(capsys.readouterr().out)
        # the synthesized full, then the 4 manifests by file name; all 4 configs share one stack_key, and
        # ep1 trains on full's examples, so the two share one stack of 8
        assert [[proxy for proxy, _, _ in cells] for _, cells in units] == [
            ["full"] * 4 + ["ep1"] * 4, ["half-0+1-f1.0"] * 4, ["hard-0.5-1.0"] * 4, ["random-0.5-s0"] * 4]
        assert [cfg for _, _, cfg in units[0][1][:4]] == [cfg for _, _, cfg in units[0][1][4:]]
        manifests = {m.proxy_id: m for m in map(load_manifest, pipeline["proxies"].glob("*.json"))}
        manifests["full"] = replace(manifests["ep1"], epochs=3)  # the synthesized full: ep1's examples, the grid's epochs
        for train, cells in units:
            for proxy, epochs, _ in cells:
                assert (epochs, train) == (manifests[proxy].epochs, len(manifests[proxy].train_ids))
        cost = sum(train * epochs for train, cells in units for _, epochs, _ in cells)
        assert total == f"0 cells stored, 20 pending runs in 4 units, {cost} pending example-epochs"

    def test_dry_run_plans_what_run_grid_trains(self, pipeline, tmp_path, capsys, monkeypatch):
        # batch_size 32 comes before the learning rates in cell order, but trains apart from them
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({**GRID, "variations": {"batch_size": [32], "learning_rate": [0.01, 0.001]}}))
        trained = []
        run_unit = orchestrator._run_unit

        def recording(sub_train, sub_val, cells):
            trained.append((len(sub_train), tuple((m.proxy_id, cfg.epochs, key) for m, cfg, key in cells)))
            return run_unit(sub_train, sub_val, cells)

        monkeypatch.setattr(orchestrator, "_run_unit", recording)
        proxies = tmp_path / "proxies"
        proxies.mkdir()
        out = tmp_path / "r.jsonl"
        argv = ["run-grid", "--data", str(pipeline["data"]), "--grid", str(grid), "--proxies", str(proxies), "--out", str(out)]
        # a fresh file, where ep1 stacks with full, then a resume
        for added, stored, pending, sizes in (("fewer_epochs.json", 0, 8, [6, 2]), ("quantile.json", 8, 4, [3, 1])):
            shutil.copy(pipeline["proxies"] / added, proxies / added)
            assert main(argv + ["--dry-run"]) == 0
            units, total = _dry_run_units(capsys.readouterr().out)
            assert not trained
            assert total.startswith(f"{stored} cells stored, {pending} pending runs in {len(units)} units, ")
            assert main(argv) == 0
            assert f"({stored} pre-existing, {pending} new)" in capsys.readouterr().out
            assert trained == units
            assert [len(cells) for _, cells in units] == sizes
            trained.clear()

    def test_dry_run_after_a_complete_run_has_nothing_pending(self, pipeline, capsys):
        before = pipeline["results"].read_bytes()
        code = main(
            ["run-grid", "--data", str(pipeline["data"]), "--grid", str(pipeline["grid"]),
             "--proxies", str(pipeline["proxies"]), "--out", str(pipeline["results"]), "--dry-run"]
        )
        assert code == 0
        assert capsys.readouterr().out == "20 cells stored, 0 pending runs in 0 units, 0 pending example-epochs\n"
        assert pipeline["results"].read_bytes() == before

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

    def test_unterminated_last_record_is_terminated(self, pipeline, tmp_path, capsys):
        # a run killed between a record and its newline leaves 12 whole records, the last one unterminated
        lines = pipeline["results"].read_text().splitlines(keepends=True)
        out = tmp_path / "unterminated.jsonl"
        out.write_text("".join(lines[:12]).rstrip("\n"))
        code = main(
            ["run-grid", "--data", str(pipeline["data"]), "--grid", str(pipeline["grid"]),
             "--proxies", str(pipeline["proxies"]), "--out", str(out)]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "(12 pre-existing, 8 new)" in captured.out
        assert captured.err == ""
        assert out.read_text().startswith("".join(lines[:12]))
        assert len(store_load(out)) == 20

    def test_results_with_wall_ms_load_analyze_and_resume(self, pipeline, tmp_path, capsys):
        # earlier versions wrote each run's wall time as "wall_ms" before "status"
        def with_wall_ms(line):
            record = json.loads(line)
            status = record.pop("status")
            return json.dumps({**record, "wall_ms": 17, "status": status}) + "\n"

        lines = pipeline["results"].read_text().splitlines()
        old = tmp_path / "old.jsonl"
        old.write_text("".join(map(with_wall_ms, lines)))
        quality = tmp_path / "quality.csv"
        assert main(["analyze", "--results", str(old), "--out", str(quality)]) == 0
        assert quality.read_bytes() == pipeline["quality"].read_bytes()

        old.write_text("".join(map(with_wall_ms, lines[:12])))
        code = main(["run-grid", "--data", str(pipeline["data"]), "--grid", str(pipeline["grid"]),
                     "--proxies", str(pipeline["proxies"]), "--out", str(old)])
        assert code == 0
        assert "(12 pre-existing, 8 new)" in capsys.readouterr().out
        resumed = old.read_text().splitlines()
        assert resumed[12:] == lines[12:]  # appended as this version writes them: no wall_ms
        assert store_load(old).records() == store_load(pipeline["results"]).records()


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

    def test_torn_results_file_is_left_as_it_is(self, pipeline, tmp_path, capsys):
        # only run-grid, holding the results lock, cuts a torn tail; readers drop it in memory
        lines = pipeline["results"].read_text().splitlines(keepends=True)
        torn = tmp_path / "torn.jsonl"
        torn.write_text("".join(lines[:12]) + lines[12][: len(lines[12]) // 2])
        before = torn.read_bytes()
        assert main(["analyze", "--results", str(torn), "--out", str(tmp_path / "q.csv")]) == 0
        assert main(["report", "--report", str(tmp_path / "q.csv"), "--out", str(tmp_path / "plots"),
                     "--results", str(torn)]) == 0
        assert capsys.readouterr().err.count("unterminated last line") == 2
        assert torn.read_bytes() == before


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
                    )
                )
    return records


class TestConsistency:
    def test_cross_dataset_consistency(self, tmp_path, capsys):
        results = tmp_path / "r.jsonl"
        with open(results, "w") as fh:
            for rec in _synthetic_records():
                fh.write(json.dumps(asdict(rec)) + "\n")
        out = tmp_path / "q.csv"
        code = main(["analyze", "--results", str(results), "--out", str(out), "--consistency", "dsa,dsb:r2"])
        assert code == 0
        printed = capsys.readouterr().out
        assert "consistency r2 dsa vs dsb:" in printed


def _plot_rows(path, text_columns: int) -> list:
    """The rows of a plot CSV, header first, after checking that each has one field per column
    and that float() reads every cell after its first text_columns."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        assert len(row) == len(rows[0]), row
        for cell in row[text_columns:]:
            float(cell)  # raises unless the cell is a number (nan is one)
    return rows


def _analyze_and_report(tmp_path, records, capsys) -> str:
    """analyze and report on records as a results file, into tmp_path; analyze's stderr."""
    results = tmp_path / "r.jsonl"
    results.write_text("".join(json.dumps(asdict(r)) + "\n" for r in records))
    assert main(["analyze", "--results", str(results), "--out", str(tmp_path / "q.csv")]) == 0
    err = capsys.readouterr().err
    assert main(["report", "--report", str(tmp_path / "q.csv"), "--out", str(tmp_path / "plots"),
                 "--results", str(results)]) == 0
    capsys.readouterr()
    return err


class TestReport:
    def test_without_results_writes_one_csv(self, pipeline, tmp_path, capsys):
        out = tmp_path / "plots"
        assert main(["report", "--report", str(pipeline["quality"]), "--out", str(out)]) == 0
        capsys.readouterr()
        assert sorted(p.name for p in out.iterdir()) == ["quality_vs_cost.csv"]
        rows = _plot_rows(out / "quality_vs_cost.csv", 2)
        assert rows[0] == ["strategy", "dataset", "relative_cost", "r2", "cost_adjusted"]
        assert len(rows) == 6

    def test_out_is_made_with_its_missing_parents(self, pipeline, tmp_path, capsys):
        out = tmp_path / "a" / "b" / "plots"
        assert main(["report", "--report", str(pipeline["quality"]), "--out", str(out)]) == 0
        capsys.readouterr()
        assert sorted(p.name for p in out.iterdir()) == ["quality_vs_cost.csv"]

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
        scatter = _plot_rows(out / "proxy_target_scatter.csv", 3)
        assert scatter[0] == ["dataset", "strategy", "config_id", "proxy_acc_z", "target_acc_z"]
        assert len(scatter) == 1 + 4 * 4  # 4 non-target strategies x 4 configs
        epochs = _plot_rows(out / "epoch_correlation.csv", 1)
        assert epochs[0] == ["dataset", "epoch", "pearson"]
        assert len(epochs) == 1 + 3  # one row per epoch of the full runs
        assert len(_plot_rows(out / "quality_vs_cost.csv", 2)) == 1 + 5

    def test_a_proxy_id_with_a_comma_is_one_field(self, tmp_path, capsys):
        records = [replace(r, proxy_id="p,1") if r.proxy_id == "p1" else r for r in _synthetic_records(("dsa",))]
        _analyze_and_report(tmp_path, records, capsys)
        quality = _plot_rows(tmp_path / "plots" / "quality_vs_cost.csv", 2)
        assert [row[0] for row in quality[1:]] == ["full", "p,1", "p2", "p3"]
        scatter = _plot_rows(tmp_path / "plots" / "proxy_target_scatter.csv", 3)
        assert [row[1] for row in scatter[1:]] == ["p,1"] * 6 + ["p2"] * 6 + ["p3"] * 6

    def test_a_strategy_with_equal_accuracies_is_named_and_has_no_scatter_rows(self, tmp_path, capsys):
        flat = [RunRecord(dataset_id="dsa", proxy_id="flat", config_id=f"c{cfg}", seed=0, epoch_val_acc=[0.5, 0.5],
                          best_val_acc=0.5, cost_units=40.0) for cfg in range(6)]
        err = _analyze_and_report(tmp_path, _synthetic_records(("dsa",)) + flat, capsys)
        assert err == ("warning: dsa: flat: its accuracies or the full run's are equal across configs, "
                       "so its r2, spearman_good and cost_adjusted are nan\n")
        (row,) = [r for r in reports_from_csv(tmp_path / "q.csv") if r.strategy == "flat"]
        assert math.isnan(row.r2) and math.isnan(row.spearman_good) and math.isnan(row.cost_adjusted)
        scatter = _plot_rows(tmp_path / "plots" / "proxy_target_scatter.csv", 3)
        assert {row[1] for row in scatter[1:]} == {"p1", "p2", "p3"}

    def test_nan_is_a_number(self, pipeline, tmp_path, capsys):
        # analyze writes nan as cost_adjusted when a dataset has under 5 strategies
        lines = pipeline["quality"].read_text().splitlines()
        row = lines[1].split(",")
        lines[1] = ",".join(row[:4] + ["nan"] + row[5:])
        nan = tmp_path / "nan.csv"
        nan.write_text("\n".join(lines) + "\n")
        assert math.isnan(reports_from_csv(nan)[0].cost_adjusted)
        assert main(["report", "--report", str(nan), "--out", str(tmp_path / "plots")]) == 0
        capsys.readouterr()


def _subcommand_flags() -> dict:
    """Subcommand name -> the options its parser accepts, less --help."""
    (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }


class TestFlagSets:
    def test_each_subcommand_takes_exactly_these_options(self):
        common = {"--global-seed", "--val-fraction"}
        assert _subcommand_flags() == {
            "gen-data": {"--spec", "--out"},
            "score": {"--data", "--out"} | common,
            "make-proxy": {"--data", "--scores", "--kind", "--lo", "--hi", "--fraction", "--classes", "--epochs",
                           "--seed", "--target-epochs", "--out"} | common,
            "run-grid": {"--data", "--grid", "--proxies", "--out", "--parallel", "--dry-run"} | common,
            "analyze": {"--results", "--out", "--good-rule", "--consistency"},
            "report": {"--report", "--out", "--results"},
        }

    def test_readme_commands_use_only_accepted_flags(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        lines = [line.strip() for line in readme.replace("\\\n", " ").splitlines()]  # join continued lines
        commands = [line.split() for line in lines if line.startswith("proxybench ")]
        assert len(commands) >= 9  # gen-data, score, four make-proxy, run-grid, analyze, report
        accepted = _subcommand_flags()
        for words in commands:
            assert words[1] in accepted, words
            used = {w.split("=")[0] for w in words if w.startswith("--")}
            assert used <= accepted[words[1]], (words[1], used - accepted[words[1]])


class TestOneParser:
    def test_two_commands_in_one_process_parse_through_one_parser(self, pipeline, tmp_path, monkeypatch, capsys):
        parsed, rules, build = [], [], cli_module.build_quality_reports

        def parse_args(self, args=None, namespace=None):
            parsed.append(self)
            return argparse.ArgumentParser.parse_args(self, args, namespace)

        def build_quality_reports(records, good_rule):
            rules.append(good_rule)
            return build(records, good_rule=good_rule)

        monkeypatch.setattr(cli_module._Parser, "parse_args", parse_args)
        monkeypatch.setattr(cli_module, "build_quality_reports", build_quality_reports)
        argv = ["analyze", "--results", str(pipeline["results"]), "--out", str(tmp_path / "q.csv")]
        assert main(argv + ["--good-rule", "min:0.5"]) == 0
        assert main(argv) == 0  # its own default, not the first run's rule
        capsys.readouterr()
        assert rules == [GoodConfigRule("min_accuracy", 0.5), GoodConfigRule("top_fraction", 0.5)]
        assert len(parsed) == 2 and all(p is _build_parser() for p in parsed)


@pytest.fixture
def blas_at_two():
    """The getter of numpy's OpenBLAS thread count, with the count set to 2 for the test."""
    blas = _blas.openblas_threads()
    if blas is None:
        pytest.skip("no OpenBLAS thread setter in this numpy")
    setter, getter = blas
    before = getter()
    setter(2)
    yield getter
    setter(before)


class TestBlasThreads:
    def test_command_runs_on_one_blas_thread(self, blas_at_two, tmp_path, monkeypatch, capsys):
        seen = []

        def generate(spec):
            seen.append(blas_at_two())
            return synth_generate(spec)

        monkeypatch.setattr(cli_module, "synth_generate", generate)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SPEC))
        assert main(["gen-data", "--spec", str(spec_path), "--out", str(tmp_path / "toy.csv")]) == 0
        capsys.readouterr()
        assert seen == [1]

    @pytest.mark.parametrize("code", [0, 1, 2])
    def test_caller_count_is_back_after_the_command(self, blas_at_two, tmp_path, capsys, code):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SPEC))
        argv = {
            0: ["gen-data", "--spec", str(spec_path), "--out", str(tmp_path / "toy.csv")],
            1: ["score", "--data", str(tmp_path / "toy.csv"), "--out", str(tmp_path / "s.json"), "--val-fraction", "2"],
            2: ["score", "--data", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "s.json")],
        }[code]
        assert main(argv) == code
        capsys.readouterr()
        assert blas_at_two() == 2

    def test_without_an_openblas_setter_nothing_is_changed(self, tmp_path, monkeypatch):
        real = _blas.openblas_threads()
        before = real[1]() if real else None
        # a numpy with no numpy.libs beside it, then one whose OpenBLAS-named files are no library
        # and a library without the thread symbols: none gives a setter
        monkeypatch.setattr(_blas, "np", SimpleNamespace(__file__=str(tmp_path / "numpy" / "__init__.py")))
        assert _blas.openblas_threads.__wrapped__() is None
        (tmp_path / "numpy.libs").mkdir()
        (tmp_path / "numpy.libs" / "libaopenblas.so").write_bytes(b"not a shared object")
        (tmp_path / "numpy.libs" / "libbopenblas.so").symlink_to(_ctypes.__file__)
        assert _blas.openblas_threads.__wrapped__() is None
        monkeypatch.setattr(_blas, "openblas_threads", lambda: None)
        with _blas.one_blas_thread():
            inside = real[1]() if real else None
        assert inside == before

    def test_import_leaves_the_count_alone(self):
        if _blas.openblas_threads() is None:
            pytest.skip("no OpenBLAS thread setter in this numpy")
        # _blas is loaded from its file, outside the package, so that the
        # count is set before proxybench is first imported
        probe = (
            "import importlib.util, sys\n"
            "spec = importlib.util.spec_from_file_location('probe', sys.argv[1])\n"
            "probe = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(probe)\n"
            "setter, getter = probe.openblas_threads()\n"
            "setter(2)\n"
            "assert 'proxybench' not in sys.modules\n"
            "import proxybench, proxybench.cli\n"
            "print(getter())\n"
        )
        src = Path(proxybench.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", probe, _blas.__file__], env=env, capture_output=True, text=True,
                             timeout=60, check=True)
        assert out.stdout.strip() == "2"


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "proxybench" in capsys.readouterr().out

    @staticmethod
    def _main_interrupted(argv) -> int:
        try:
            return main(argv)
        except KeyboardInterrupt:
            pytest.fail("KeyboardInterrupt escaped main")

    def test_interrupt_exits_130_with_one_line(self, pipeline, tmp_path, capsys, monkeypatch):
        def interrupt(path):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_module, "store_load", interrupt)
        argv = ["analyze", "--results", str(pipeline["results"]), "--out", str(tmp_path / "q.csv")]
        assert self._main_interrupted(argv) == 130
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "interrupted\n")
        assert not (tmp_path / "q.csv").exists()

    def test_interrupted_run_grid_leaves_a_loadable_prefix(self, pipeline, tmp_path, capsys, monkeypatch):
        units = []

        def second_unit_interrupts(*task):
            units.append(None)
            if len(units) == 2:
                raise KeyboardInterrupt
            return run_unit(*task)

        run_unit = orchestrator._run_unit
        monkeypatch.setattr(orchestrator, "_run_unit", second_unit_interrupts)
        out = tmp_path / "results.jsonl"
        argv = ["run-grid", "--data", str(pipeline["data"]), "--grid", str(pipeline["grid"]),
                "--proxies", str(pipeline["proxies"]), "--out", str(out)]
        assert self._main_interrupted(argv) == 130
        assert capsys.readouterr().err == "interrupted\n"
        stored = store_load(out)
        assert len(stored) == 8  # the first unit: full and ep1 share a stack
        assert pipeline["results"].read_bytes().startswith(out.read_bytes())
        with open(tmp_path / "results.jsonl.lock", "ab") as fh:  # released
            fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)


class _ClosedStdout(io.StringIO):
    """A stdout whose reader is gone."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def _main_or_timeout(argv, seconds=30):
    """main(argv), with a TimeoutError raised into it if it blocks (on a FIFO it opened, say)."""
    def blocked(signum, frame):
        raise TimeoutError(f"blocked for {seconds} s")

    previous = signal.signal(signal.SIGALRM, blocked)
    signal.alarm(seconds)
    try:
        return main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _check_in_process(row, pipeline, tmp_path, monkeypatch, capsys):
    """refusals.check(row) through main, with row.not_called's functions recording any call."""
    def run(argv, env, closed_stdout):
        called = []
        for name in row.not_called:
            monkeypatch.setattr(cli_module, name, lambda *a, _name=name, **k: called.append(_name))
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        with monkeypatch.context() as m:
            if closed_stdout:
                m.setattr(sys, "stdout", _ClosedStdout())
            code = _main_or_timeout(argv)
        out, err = capsys.readouterr()
        assert called == [], argv
        return code, out, err

    refusals.check(row, pipeline, tmp_path, run)


def _refusal_test(rows):
    """A test of rows: one row named without a [param id] runs alone, others are parametrized by their ids."""
    if len(rows) == 1 and "[" not in rows[0].name:
        def test(pipeline, tmp_path, monkeypatch, capsys):
            _check_in_process(rows[0], pipeline, tmp_path, monkeypatch, capsys)
        return test

    @pytest.mark.parametrize("row", rows, ids=[row.name[row.name.index("[") + 1 : -1] for row in rows])
    def test(row, pipeline, tmp_path, monkeypatch, capsys):
        _check_in_process(row, pipeline, tmp_path, monkeypatch, capsys)
    return test


# Each group of refusals.REFUSALS runs as the test its rows are named after.
_GROUPS: dict = {}
for _row in refusals.REFUSALS:
    _GROUPS.setdefault(_row.name.partition("[")[0], []).append(_row)
for _name, _rows in _GROUPS.items():
    _class, _, _function = _name.rpartition("::")
    if not _class:
        globals()[_function] = _refusal_test(_rows)
        continue
    if _class not in globals():
        globals()[_class] = type(_class, (), {})
    setattr(globals()[_class], _function, staticmethod(_refusal_test(_rows)))
