import argparse
import fcntl
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import proxybench
from proxybench import _atomic, _blas
from proxybench import cli as cli_module
from proxybench import orchestrator
from proxybench import dataset as dataset_module
from proxybench.cli import _build_parser, main
from proxybench.dataset import SynthSpec, load_csv, synth_generate
from proxybench.metrics import reports_from_csv
from proxybench.orchestrator import store_load
from proxybench.proxy import load_manifest
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
        ["--kind", "fewer_epochs", "--epochs", "1"],
        ["--kind", "half_classes", "--classes", "0,1"],
    ]:
        name = flags[1] + ".json"
        # the grid trains 3 epochs, so every manifest is built for that budget
        argv = ["make-proxy", "--data", str(data), "--out", str(proxies / name), "--target-epochs", "3", *flags]
        assert main(argv) == 0
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

    def _gen_data(self, tmp_path, spec, out):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        assert main(["gen-data", "--spec", str(spec_path), "--out", str(out)]) == 0

    def test_next_load_reads_the_cache(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "toy.csv"
        self._gen_data(tmp_path, SPEC, out)
        capsys.readouterr()
        monkeypatch.setattr(dataset_module, "_parse_csv", lambda fh, path: pytest.fail("parsed the CSV"))
        assert main(["score", "--data", str(out), "--out", str(tmp_path / "scores.csv")]) == 0, capsys.readouterr().err

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

    @pytest.mark.parametrize("command", ["score", "run-grid"])
    @pytest.mark.parametrize("env, flags, message", [
        ("-1", [], "PROXYBENCH_SEED must be a non-negative integer, got '-1'"),
        (None, ["--global-seed", "-3"], "argument --global-seed: must be a non-negative integer, got '-3'"),
    ])
    def test_negative_seed_is_a_usage_error_before_any_input_is_read(self, pipeline, tmp_path, monkeypatch, capsys,
                                                                     command, env, flags, message):
        monkeypatch.setattr(cli_module, "load_csv", lambda path: pytest.fail("read --data"))
        monkeypatch.setattr(cli_module, "grid_from_json", lambda path: pytest.fail("read --grid"))
        if env is not None:
            monkeypatch.setenv("PROXYBENCH_SEED", env)
        inputs = {"score": [], "run-grid": ["--grid", pipeline["grid"], "--proxies", pipeline["proxies"]]}[command]
        argv = [command, "--data", pipeline["data"], *inputs, "--out", tmp_path / "out", *flags]
        assert main([str(a) for a in argv]) == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_non_integer_env_seed(self, pipeline, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PROXYBENCH_SEED", "abc")
        out = tmp_path / "x.csv"
        code = main(["score", "--data", str(pipeline["data"]), "--out", str(out)])
        assert code == 1
        assert "PROXYBENCH_SEED" in capsys.readouterr().err


class TestPinnedSetUp:
    """sha256s of score's table and sidecar and of one manifest per make-proxy
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
        "s.csv": "aee3087a537c6ad6172ee9278391a92506d1b82d35ecf682a4c2660cf743eeeb",
        "s.json": "900996b629b0c840d025627e46a08205a774e7f6ccb12156af26fe6ac998e5b6",
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
        data, scores = str(tmp_path / "d.csv"), str(tmp_path / "s.csv")
        assert main(["gen-data", "--spec", str(tmp_path / "spec.json"), "--out", data]) == 0
        assert main(["score", "--data", data, "--out", scores]) == 0
        for name, flags in self.KINDS.items():
            argv = ["make-proxy", "--data", data, "--scores", scores, "--target-epochs", "5",
                    "--out", str(tmp_path / f"{name}.json"), *flags]
            assert main(argv) == 0, capsys.readouterr().err
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in self.DIGESTS}
        assert digests == self.DIGESTS


class TestMakeProxy:
    def test_quantile_without_scores_is_usage_error(self, pipeline, tmp_path, capsys):
        code = main(
            ["make-proxy", "--data", str(pipeline["data"]), "--kind", "quantile", "--lo", "0.5", "--hi", "1.0", "--out", str(tmp_path / "m.json")]
        )
        assert code == 1
        assert "--scores" in capsys.readouterr().err

    def test_renamed_copy_of_the_scored_data_is_accepted(self, pipeline, tmp_path, capsys):
        # the table's sha256 names the bytes it scored; the file name is only a label
        other = tmp_path / "other.csv"
        other.write_bytes(pipeline["data"].read_bytes())
        for data, out in ((pipeline["data"], tmp_path / "a.json"), (other, tmp_path / "b.json")):
            code = main(["make-proxy", "--data", str(data), "--kind", "quantile", "--lo", "0.5", "--hi", "1.0",
                         "--scores", str(pipeline["scores"]), "--out", str(out)])
            assert code == 0, capsys.readouterr().err
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_unknown_class_is_refused(self, pipeline, tmp_path, capsys):
        out = tmp_path / "m.json"
        code = main(["make-proxy", "--data", str(pipeline["data"]), "--kind", "half_classes", "--classes", "0,99",
                     "--out", str(out)])
        assert code == 2
        assert "unknown class ids [99] for class_count 3\n" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_target_epochs_must_be_positive(self, tmp_path, capsys, value):
        # refused while parsing flags: the --data file is never opened
        out = tmp_path / "m.json"
        code = main(["make-proxy", "--data", str(tmp_path / "absent.csv"), "--kind", "random_all", "--fraction", "0.5",
                     "--target-epochs", value, "--out", str(out)])
        assert code == 1
        assert f"--target-epochs: must be a positive integer, got '{value}'" in capsys.readouterr().err
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

    def test_table_from_another_dataset_is_refused_for_every_kind(self, pipeline, tmp_path, capsys):
        scores = tmp_path / "other.csv"
        shutil.copy(pipeline["scores"], scores)
        meta = json.loads(pipeline["scores"].with_suffix(".json").read_text())
        scores.with_suffix(".json").write_text(json.dumps({**meta, "dataset_sha256": "0" * 64}))
        out = tmp_path / "m.json"
        code = main(["make-proxy", "--data", str(pipeline["data"]), "--kind", "random_all", "--fraction", "0.5",
                     "--scores", str(scores), "--out", str(out)])
        assert code == 2
        assert f"dataset sha256 {'0' * 64}, not {meta['dataset_sha256']}" in capsys.readouterr().err
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

    def test_table_cut_inside_its_last_value_is_refused(self, pipeline, tmp_path, capsys):
        # every id is still there and the shortened last loss still ranks last: only the missing newline shows the cut
        scores = tmp_path / "cut.csv"
        scores.write_bytes(pipeline["scores"].read_bytes()[:-8])
        shutil.copy(pipeline["scores"].with_suffix(".json"), scores.with_suffix(".json"))
        out = tmp_path / "m.json"
        code = main(
            ["make-proxy", "--data", str(pipeline["data"]), "--kind", "quantile", "--lo", "0.0", "--hi", "1.0",
             "--scores", str(scores), "--out", str(out)]
        )
        assert code == 2
        assert f"{scores}: does not end with a newline, so it was cut off mid-write" in capsys.readouterr().err
        assert not out.exists()

    def test_table_out_of_rank_order_is_named(self, pipeline, tmp_path, capsys):
        scores = tmp_path / "swapped.csv"
        header, first, second, *rest = pipeline["scores"].read_bytes().split(b"\r\n")
        scores.write_bytes(b"\r\n".join([header, second, first, *rest]))
        shutil.copy(pipeline["scores"].with_suffix(".json"), scores.with_suffix(".json"))
        out = tmp_path / "m.json"
        code = main(
            ["make-proxy", "--data", str(pipeline["data"]), "--kind", "quantile", "--lo", "0.0", "--hi", "1.0",
             "--scores", str(scores), "--target-epochs", "3", "--out", str(out)]
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: {scores}: entries not in rank order (loss desc, id asc)\n"
        assert not out.exists()


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


def _cli_process(argv, timeout=20):
    """The CLI in a child process, killed after timeout seconds: a command that blocks fails the test, not hangs it."""
    src = Path(proxybench.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "proxybench.cli", *map(str, argv)], env=env, capture_output=True,
                          text=True, timeout=timeout)


class TestPathsThatAreNotFiles:
    """A FIFO or directory given as a results file or an output is refused before any work."""

    @pytest.mark.parametrize("command", ["run-grid", "run-grid --dry-run", "analyze", "report"])
    def test_results_fifo_is_refused_not_read(self, pipeline, tmp_path, command):
        fifo = tmp_path / "r.jsonl"
        os.mkfifo(fifo)
        grid_args = ["--data", pipeline["data"], "--grid", pipeline["grid"], "--proxies", pipeline["proxies"], "--out", fifo]
        argv = {
            "run-grid": ["run-grid", *grid_args],
            "run-grid --dry-run": ["run-grid", *grid_args, "--dry-run"],
            "analyze": ["analyze", "--results", fifo, "--out", tmp_path / "q.csv"],
            "report": ["report", "--report", pipeline["quality"], "--out", tmp_path / "plots", "--results", fifo],
        }[command]
        out = _cli_process(argv)
        assert out.returncode == 2
        assert f"{fifo} exists and is not a regular file" in out.stderr

    @pytest.mark.parametrize("kind", ["fifo", "directory"])
    @pytest.mark.parametrize(
        "command", ["gen-data", "score", "score sidecar", "make-proxy", "analyze", "run-grid", "run-grid --dry-run"]
    )
    def test_bad_out_is_refused_before_the_work(self, pipeline, tmp_path, capsys, monkeypatch, command, kind):
        bad = tmp_path / ("scores.json" if command == "score sidecar" else "out")
        os.mkfifo(bad) if kind == "fifo" else bad.mkdir()
        argv = {
            "gen-data": ["gen-data", "--spec", pipeline["spec"], "--out", bad],
            "score": ["score", "--data", pipeline["data"], "--out", bad],
            "score sidecar": ["score", "--data", pipeline["data"], "--out", tmp_path / "scores.csv"],
            "make-proxy": ["make-proxy", "--data", pipeline["data"], "--kind", "random_all", "--fraction", "0.5",
                           "--out", bad],
            "analyze": ["analyze", "--results", pipeline["results"], "--out", bad],
            "run-grid": ["run-grid", "--data", pipeline["data"], "--grid", pipeline["grid"],
                         "--proxies", pipeline["proxies"], "--out", bad],
        }
        argv = argv["run-grid"] + ["--dry-run"] if command == "run-grid --dry-run" else argv[command]
        called = []
        for name in ("synth_generate", "load_csv", "train_model", "build_proxy", "store_load"):
            monkeypatch.setattr(cli_module, name, lambda *a, _name=name, **k: called.append(_name))
        assert main([str(a) for a in argv]) == 2
        assert f"{bad} exists and is not a regular file" in capsys.readouterr().err
        assert called == []
        assert not list(tmp_path.glob("*.lock"))  # run-grid took no results lock


_MANIFEST = {"proxy_id": "x", "kind": "full", "params": {}, "seed": 0, "epochs": 3, "train_ids": [0], "val_ids": [0]}


class TestJsonInputErrors:
    """A malformed JSON input is reported once, as "<path>: <what is wrong>"."""

    @pytest.mark.parametrize("name, text, code, message", [
        ("spec", '{"class_count": 3', 2, "Expecting ',' delimiter: line 1 column 18 (char 17)"),
        ("spec", json.dumps({**SPEC, "bogus": 1}), 1, "unexpected keyword argument 'bogus'"),
        ("spec", json.dumps({**SPEC, "class_count": 1}), 2, "class_count must be >= 2"),
        ("spec", "[1]", 2, "expected a JSON object, got list"),
        ("grid", '{"defaults": {"epochs": 2}\n', 2, "Expecting ',' delimiter: line 2 column 1 (char 27)"),
        ("grid", "[1]", 2, "expected a JSON object, got list"),
        ("grid", json.dumps({"defaults": {"batch_size": 16.5}}), 2, "batch_size must be an integer, got 16.5"),
        ("manifest", '{"proxy_id": "x"}', 2, "missing key 'epochs'"),
        ("manifest", json.dumps({"proxy_id": "x", "kind": "full", "params": {}, "seed": 0, "epochs": 3,
                                 "train_ids": [0], "val_ids": "all"}), 2, "val_ids must be a list, got 'all'"),
        ("spec", json.dumps({**SPEC, "class_count": 2.5}), 2, "class_count must be an integer, got 2.5"),
        ("spec", json.dumps({**SPEC, "class_separation": math.nan}), 2, "class_separation must be a finite number, got nan"),
        ("spec", json.dumps({**SPEC, "noise_scale_hi": math.inf}), 2, "noise_scale_hi must be a finite number, got inf"),
        ("grid", json.dumps({"defaults": {"learning_rate": True}}), 2, "learning_rate must be a finite number, got True"),
        ("grid", json.dumps({"variations": {"augment_prob": ["x"]}}), 2, "augment_prob must be a finite number, got 'x'"),
        ("grid", json.dumps({"defaults": {"label_smoothing": 1}}), 2, "label_smoothing must be a boolean, got 1"),
        ("manifest", json.dumps({**_MANIFEST, "proxy_id": 5}), 2, "proxy_id must be a string, got 5"),
    ])
    def test_error_starts_with_the_path(self, pipeline, tmp_path, capsys, name, text, code, message):
        proxies = tmp_path / "proxies"
        proxies.mkdir()
        path = {"spec": tmp_path / "spec.json", "grid": tmp_path / "grid.json", "manifest": proxies / "x.json"}[name]
        path.write_text(text)
        if name == "spec":
            argv = ["gen-data", "--spec", path, "--out", tmp_path / "toy.csv"]
        else:
            argv = ["run-grid", "--data", pipeline["data"], "--grid", pipeline["grid"] if name == "manifest" else path,
                    "--proxies", proxies, "--out", tmp_path / "r.jsonl"]
        assert main([str(a) for a in argv]) == code
        err = capsys.readouterr().err
        assert err.startswith(f"{'usage error' if code == 1 else 'error'}: {path}: ") and err.endswith(f"{message}\n")
        assert err.count(str(path)) == 1

    def test_variation_that_is_not_a_list_is_refused_as_written(self, pipeline, tmp_path, capsys):
        grid = tmp_path / "g2.json"
        grid.write_text(json.dumps({"variations": {"optimizer": "sgd"}}))
        argv = ["run-grid", "--data", pipeline["data"], "--grid", grid, "--proxies", pipeline["proxies"],
                "--out", tmp_path / "r.jsonl", "--dry-run"]
        assert main([str(a) for a in argv]) == 2
        assert capsys.readouterr().err == f"error: {grid}: variation optimizer must be a list, got 'sgd'\n"


@pytest.mark.parametrize("dry_run", [[], ["--dry-run"]])
@pytest.mark.parametrize("bad", ["grid", "manifest"])
def test_run_grid_refuses_a_bad_grid_or_manifest_before_loading_data(pipeline, tmp_path, capsys, monkeypatch,
                                                                       bad, dry_run):
    loads = []
    monkeypatch.setattr(cli_module, "load_csv", lambda path: loads.append(path))
    proxies = tmp_path / "proxies"
    proxies.mkdir()
    grid = pipeline["grid"]
    if bad == "grid":
        grid = tmp_path / "grid.json"
        grid.write_text('{"defaults": {"batch_size": 16.5}}')
        bad_path = grid
    else:
        bad_path = proxies / "x.json"
        bad_path.write_text("[1, 2]")
    argv = ["run-grid", "--data", pipeline["data"], "--grid", grid, "--proxies", proxies,
            "--out", tmp_path / "r.jsonl", *dry_run]
    assert main([str(a) for a in argv]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad_path}: ")
    assert loads == []


class TestFieldTypes:
    """A field of the wrong type exits 2 with a message that starts with the file's path (and, for
    a results line, its number) and names the field; TestJsonInputErrors holds the spec and grid cases."""

    @staticmethod
    def _refused(argv, path, message, capsys):
        assert main([str(a) for a in argv]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("change, message", [
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"kind": "random_all", "params": {"fraction": True}}, "fraction must be a finite number, got True"),
        ({"kind": "random_all", "params": {"fraction": "0.5"}}, "fraction must be a finite number, got '0.5'"),
        ({"proxy_id": 5}, "proxy_id must be a string, got 5"),
    ])
    def test_manifest_in_a_dry_run(self, pipeline, tmp_path, capsys, monkeypatch, change, message):
        monkeypatch.setattr(cli_module, "load_csv", lambda path: pytest.fail("read --data"))
        proxies = tmp_path / "proxies"
        proxies.mkdir()
        manifest = proxies / "x.json"
        manifest.write_text(json.dumps({**_MANIFEST, **change}))
        self._refused(["run-grid", "--data", pipeline["data"], "--grid", pipeline["grid"], "--proxies", proxies,
                       "--out", tmp_path / "r.jsonl", "--dry-run"], manifest, message, capsys)
        assert not list(tmp_path.glob("*.lock"))

    @pytest.mark.parametrize("change, message", [
        ({"best_val_acc": "x"}, "best_val_acc must be a finite number, got 'x'"),
        ({"epoch_val_acc": ["x"]}, "epoch_val_acc[0] must be a finite number, got 'x'"),
    ])
    def test_results_line(self, pipeline, tmp_path, capsys, change, message):
        lines = pipeline["results"].read_text().splitlines(keepends=True)
        lines[1] = json.dumps({**json.loads(lines[1]), **change}) + "\n"
        path = tmp_path / "r.jsonl"
        path.write_text("".join(lines))
        self._refused(["analyze", "--results", path, "--out", tmp_path / "q.csv"], path,
                      f"line 2: malformed record ({message})", capsys)

    def test_table_sidecar(self, pipeline, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        shutil.copy(pipeline["scores"], scores)
        sidecar = scores.with_suffix(".json")
        sidecar.write_text(json.dumps({**json.loads(pipeline["scores"].with_suffix(".json").read_text()),
                                       "dataset_id": 5}))
        self._refused(["make-proxy", "--data", pipeline["data"], "--kind", "quantile", "--lo", "0.5", "--hi", "1.0",
                       "--scores", scores, "--target-epochs", "3", "--out", tmp_path / "m.json"],
                      sidecar, "dataset_id must be a string, got 5", capsys)


class TestResultRanges:
    """A results line whose values are of the right type but out of range exits 2, naming the file and line."""

    @pytest.mark.parametrize("change, message", [
        ({"epoch_val_acc": []}, "epoch_val_acc must not be empty"),
        ({"epoch_val_acc": [0.5, 7.0, 0.5]}, "epoch_val_acc[1] must lie in [0, 1], got 7.0"),
        ({"best_val_acc": 5.0}, "best_val_acc must lie in [0, 1], got 5.0"),
        ({"cost_units": -3.0}, "cost_units must be positive, got -3.0"),
        ({"cost_units": 0.0}, "cost_units must be positive, got 0.0"),
        ({"seed": -5}, "seed must be >= 0, got -5"),
    ])
    @pytest.mark.parametrize("command", ["analyze", "report"])
    def test_refused_where_the_file_is_read(self, pipeline, tmp_path, capsys, change, message, command):
        lines = pipeline["results"].read_text().splitlines(keepends=True)
        lines[1] = json.dumps({**json.loads(lines[1]), **change}) + "\n"
        path = tmp_path / "r.jsonl"
        path.write_text("".join(lines))
        argv = {
            "analyze": ["analyze", "--results", path, "--out", tmp_path / "q.csv"],
            "report": ["report", "--report", pipeline["quality"], "--results", path, "--out", tmp_path / "plots"],
        }[command]
        assert main([str(a) for a in argv]) == 2
        assert capsys.readouterr().err == f"error: {path}: line 2: malformed record ({message})\n"


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

        def recording(fn, one):
            def train(sub_train, sub_val, configs, **keys):
                if one:
                    cells = [(keys["proxy_id"], configs.epochs, keys["config_key"])]
                else:
                    cells = zip(keys["proxy_ids"], [c.epochs for c in configs], keys["config_keys"])
                trained.append((len(sub_train), tuple(cells)))
                return fn(sub_train, sub_val, configs, **keys)
            return train

        monkeypatch.setattr(orchestrator, "train_model", recording(orchestrator.train_model, True))
        monkeypatch.setattr(orchestrator, "train_stack", recording(orchestrator.train_stack, False))
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

    def test_dry_run_under_another_seed_is_refused_like_the_run(self, pipeline, tmp_path, capsys, monkeypatch):
        out = tmp_path / "seed0.jsonl"
        out.write_bytes(pipeline["results"].read_bytes())
        monkeypatch.setenv("PROXYBENCH_SEED", "7")
        argv = ["run-grid", "--data", str(pipeline["data"]), "--grid", str(pipeline["grid"]),
                "--proxies", str(pipeline["proxies"]), "--out", str(out)]
        assert main(argv + ["--dry-run"]) == 2
        dry = capsys.readouterr()
        assert [p.name for p in tmp_path.iterdir()] == ["seed0.jsonl"]  # no lock taken
        assert main(argv) == 2
        real = capsys.readouterr()
        assert "refusing to resume" in dry.err
        assert (dry.out, dry.err) == (real.out, real.err)
        assert out.read_bytes() == pipeline["results"].read_bytes()

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

    def test_second_writer_of_one_results_file_is_refused(self, pipeline, tmp_path, capsys):
        out = tmp_path / "r.jsonl"
        first_12 = b"".join(pipeline["results"].read_bytes().splitlines(keepends=True)[:12])
        out.write_bytes(first_12)
        argv = ["run-grid", "--data", str(pipeline["data"]), "--grid", str(pipeline["grid"]),
                "--proxies", str(pipeline["proxies"]), "--out", str(out)]
        with open(tmp_path / "r.jsonl.lock", "ab") as held:  # another run-grid, mid-run
            fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
            assert main(argv) == 2
            assert f"{out} is being written by another run-grid" in capsys.readouterr().err
            assert out.read_bytes() == first_12
        assert main(argv) == 0
        assert "(12 pre-existing, 8 new)" in capsys.readouterr().out
        full, resumed = store_load(pipeline["results"]), store_load(out)
        assert {k: full.get(k).epoch_val_acc for k in full.keys()} == {
            k: resumed.get(k).epoch_val_acc for k in resumed.keys()
        }

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

    def test_manifest_ids_that_are_not_integers_are_refused(self, pipeline, tmp_path, capsys):
        proxies = tmp_path / "proxies"
        proxies.mkdir()
        payload = json.loads((pipeline["proxies"] / "random_all.json").read_text())
        manifest = proxies / "random_all.json"
        manifest.write_text(json.dumps({**payload, "train_ids": [1.5] + payload["train_ids"][1:]}))
        out = tmp_path / "r.jsonl"
        code = main(["run-grid", "--data", str(pipeline["data"]), "--grid", str(pipeline["grid"]),
                     "--proxies", str(proxies), "--out", str(out)])
        assert code == 2
        assert f"{manifest}: train_ids[0] must be an integer, got 1.5" in capsys.readouterr().err
        assert not out.exists()

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

    def test_epochs_variation_is_refused(self, pipeline, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({**GRID, "variations": {**GRID["variations"], "epochs": [1]}}))
        out = tmp_path / "r.jsonl"
        code = main(["run-grid", "--data", str(pipeline["data"]), "--grid", str(grid),
                     "--proxies", str(pipeline["proxies"]), "--out", str(out)])
        assert code == 2
        assert "epochs is not a searchable field" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_for_another_epoch_budget_is_refused(self, pipeline, tmp_path, capsys):
        # built for the default 20 epochs; the grid trains 3
        proxies = tmp_path / "proxies"
        proxies.mkdir()
        assert main(["make-proxy", "--data", str(pipeline["data"]), "--kind", "random_all", "--fraction", "0.5",
                     "--out", str(proxies / "random.json")]) == 0
        capsys.readouterr()
        out = tmp_path / "r.jsonl"
        for dry_run in (["--dry-run"], []):
            code = main(["run-grid", "--data", str(pipeline["data"]), "--grid", str(pipeline["grid"]),
                         "--proxies", str(proxies), "--out", str(out), *dry_run])
            assert code == 2, dry_run
            err = capsys.readouterr().err
            assert "'random-0.5-s0' trains 20 epochs, not the grid's 3" in err
            assert "--target-epochs 3" in err
            assert not out.exists()

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

    @pytest.mark.parametrize("dry_run", [[], ["--dry-run"]])
    def test_parallel_must_be_positive(self, pipeline, tmp_path, capsys, dry_run):
        # refused while parsing flags, with or without --dry-run: the --data file is never opened
        out = tmp_path / "r.jsonl"
        code = main(["run-grid", "--data", str(tmp_path / "absent.csv"), "--grid", str(pipeline["grid"]),
                     "--proxies", str(pipeline["proxies"]), "--out", str(out), "--parallel", "0", *dry_run])
        assert code == 1
        assert "--parallel: must be a positive integer, got '0'" in capsys.readouterr().err
        assert not out.exists()

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

    def test_malformed_consistency_spec(self, tmp_path, capsys):
        results = tmp_path / "r.jsonl"
        with open(results, "w") as fh:
            for rec in _synthetic_records(datasets=("dsa",)):
                fh.write(json.dumps(asdict(rec)) + "\n")
        out = tmp_path / "q.csv"
        for spec in ("only_one", "dsa,dsb:bogus"):
            code = main(["analyze", "--results", str(results), "--out", str(out), "--consistency", spec])
            assert code == 1, spec
            assert "--consistency" in capsys.readouterr().err
            assert not out.exists()  # refused before the report is written


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
        epochs = (out / "epoch_correlation.csv").read_text().strip().splitlines()
        assert epochs[0] == "dataset,epoch,pearson"
        assert len(epochs) == 1 + 3  # one row per epoch of the full runs

    # One edit of quality.csv each: (how, the error after "<path>: line N: ").
    MALFORMED = {
        "short_row": (lambda row: row[:3], "3 columns, expected 7 (strategy,dataset,r2,spearman_good,"
                      "cost_adjusted,relative_cost,n_configs)"),
        "extra_column": (lambda row: row + ["1"], "8 columns, expected 7"),
        "float_column": (lambda row: row[:2] + ["x"] + row[3:], "r2 must be a number, got 'x'"),
        "count_column": (lambda row: row[:6] + ["7.5"], "n_configs must be an integer, got '7.5'"),
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_row_is_refused_with_its_path_and_line(self, pipeline, tmp_path, capsys, case):
        edit, message = self.MALFORMED[case]
        lines = pipeline["quality"].read_text().splitlines()
        lines[3] = ",".join(edit(lines[3].split(",")))
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["report", "--report", str(bad), "--out", str(tmp_path / "plots")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: line 4: {message}")
        assert not (tmp_path / "plots").exists()

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


def _subparsers(parser) -> dict:
    """Subcommand name -> its subparser, in the order --help lists them."""
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


class TestParserPerCommand:
    @pytest.mark.parametrize("command", list(_subparsers(_build_parser())))
    def test_subparser_built_alone_matches_the_full_parser(self, command):
        alone, full = _subparsers(_build_parser(command))[command], _subparsers(_build_parser())[command]

        def flags(p):
            return [(a.option_strings, a.dest, a.default, a.required, a.choices, a.type, a.help) for a in p._actions]

        assert flags(alone) == flags(full)
        assert alone.format_help() == full.format_help()
        assert alone.get_default("func") is full.get_default("func")

    def test_one_command_builds_one_subparser(self):
        assert list(_subparsers(_build_parser("analyze"))) == ["analyze"]

    @pytest.mark.parametrize("argv, command", [
        (["analyze", "--help"], "analyze"), (["run-grid", "--help"], "run-grid"),
        (["--help"], None), (["bogus"], None), ([], None),
    ])
    def test_main_builds_the_parser_of_the_command_it_runs(self, monkeypatch, capsys, argv, command):
        built = []

        def build(name=None):
            built.append(name)
            return _build_parser(name)

        monkeypatch.setattr(cli_module, "_build_parser", build)
        main(argv)
        capsys.readouterr()
        assert built == [command]


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
            1: ["score", "--data", str(tmp_path / "toy.csv"), "--out", str(tmp_path / "s.csv"), "--val-fraction", "2"],
            2: ["score", "--data", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "s.csv")],
        }[code]
        assert main(argv) == code
        capsys.readouterr()
        assert blas_at_two() == 2

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

    @pytest.mark.parametrize("value", ["0", "1", "1.5", "nan"])
    @pytest.mark.parametrize("command", ["score", "make-proxy", "run-grid", "run-grid --dry-run"])
    def test_val_fraction_outside_the_open_unit_interval(self, tmp_path, capsys, command, value):
        # refused while parsing flags: the --data file is never opened
        out = tmp_path / "out"
        extra = {
            "score": [],
            "make-proxy": ["--kind", "random_all", "--fraction", "0.5"],
            "run-grid": ["--grid", str(tmp_path / "g.json"), "--proxies", str(tmp_path)],
            "run-grid --dry-run": ["--grid", str(tmp_path / "g.json"), "--proxies", str(tmp_path), "--dry-run"],
        }[command]
        argv = [command.split()[0], "--data", str(tmp_path / "absent.csv"), "--out", str(out), *extra,
                "--val-fraction", value]
        assert main(argv) == 1
        assert f"--val-fraction: must be in (0, 1), got '{value}'" in capsys.readouterr().err
        assert not out.exists()

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
