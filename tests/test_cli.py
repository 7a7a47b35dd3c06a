import csv
import hashlib
import json
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from preictal import bansim, cli, dataset, evaluation
from preictal.cli import main
from preictal.combiner import quantize4
from preictal.config import WindowingConfig
from preictal.nn.model import load_model, model_forward

TINY_CONFIG = {
    "seed": 0,
    "patients": 1,
    "folds": 5,
    "data": {
        "duration_s": 9260.0,
        "n_seizures": 1,
        "sample_rate_hz": 64,
        "eeg_channels": 2,
        "noise_sigma": 0.2,
    },
    "windowing": {"window_seconds": 5.0, "stride_seconds": 40.0},
    "model": {"hidden": [8, 6]},
    "training": {"max_epochs": 2, "patience": 1, "batch_size": 32},
    "combiner": {"learning_rate": 1.0, "max_epochs": 20},
    "sim": {"window_period_s": 5.0, "duration_s": 600.0},
}

VARIANTS = ("eeg", "ecg", "combined")
TREND_KEYS = ("pre_45_60", "pre_30_45", "pre_15_30", "pre_0_15")


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def config_path(work):
    path = work / "tiny.json"
    path.write_text(json.dumps(TINY_CONFIG))
    return path


@pytest.fixture(scope="module")
def dataset_dir(work, config_path):
    out = work / "data"
    assert main(["gen-data", "--config", str(config_path),
                 "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def train_dir(work, config_path, dataset_dir):
    out = work / "trained"
    assert main(["train", "--config", str(config_path),
                 "--data", str(dataset_dir), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def cv_dir(work, config_path, dataset_dir):
    out = work / "cv"
    assert main(["cross-validate", "--config", str(config_path),
                 "--data", str(dataset_dir), "--out", str(out)]) == 0
    return out


# ---------------------------------------------------------------------------
# gen-data


class TestGenData:
    def test_writes_index_recordings_and_config_echo(self, dataset_dir):
        index = json.loads((dataset_dir / "dataset.json").read_text())
        assert index["seed"] == 0
        assert [p["id"] for p in index["patients"]] == ["p00"]
        for name in ("p00_eeg.json", "p00_eeg.f64", "p00_ecg.json",
                     "p00_ecg.f64", "config.json"):
            assert (dataset_dir / name).exists(), name
        echo = json.loads((dataset_dir / "config.json").read_text())
        assert echo["data"]["noise_sigma"] == 0.2
        assert echo["windowing"]["stride_seconds"] == 40.0

    def test_rerun_is_byte_identical(self, work, config_path, dataset_dir):
        again = work / "data_again"
        assert main(["gen-data", "--config", str(config_path),
                     "--out", str(again)]) == 0
        for name in ("p00_eeg.f64", "p00_ecg.f64", "dataset.json",
                     "config.json"):
            assert (again / name).read_bytes() == \
                   (dataset_dir / name).read_bytes(), name

    def test_seed_flag_overrides_config(self, work, config_path, dataset_dir):
        out = work / "data_seed9"
        assert main(["gen-data", "--config", str(config_path),
                     "--seed", "9", "--out", str(out)]) == 0
        echo = json.loads((out / "config.json").read_text())
        assert echo["seed"] == 9
        assert (out / "p00_eeg.f64").read_bytes() != \
               (dataset_dir / "p00_eeg.f64").read_bytes()

    def test_unknown_config_key_fails_cleanly(self, work, capsys):
        bad = work / "bad.json"
        bad.write_text(json.dumps({"not_a_key": 1}))
        assert main(["gen-data", "--config", str(bad),
                     "--out", str(work / "never")]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "not_a_key" in err

    def test_combiner_takes_only_its_two_settings(self, work, capsys,
                                                  dataset_dir):
        bad = work / "bad_combiner.json"
        bad.write_text(json.dumps({"combiner": {"batch_size": 32}}))
        assert main(["gen-data", "--config", str(bad),
                     "--out", str(work / "never3")]) == 1
        err = capsys.readouterr().err
        assert "unknown config key 'batch_size'" in err
        echo = json.loads((dataset_dir / "config.json").read_text())
        assert echo["combiner"] == {"learning_rate": 1.0, "max_epochs": 20}

    def test_training_takes_no_seed(self, work, capsys, dataset_dir):
        # Each fold's models and shuffles are seeded from the experiment seed.
        bad = work / "bad_training.json"
        bad.write_text(json.dumps({"training": {"seed": 123}}))
        assert main(["gen-data", "--config", str(bad),
                     "--out", str(work / "never7")]) == 1
        assert "unknown config key 'seed'" in capsys.readouterr().err
        echo = json.loads((dataset_dir / "config.json").read_text())
        assert "seed" not in echo["training"]

    def test_malformed_json_fails_cleanly(self, work, capsys):
        bad = work / "broken.json"
        bad.write_text("{nope")
        assert main(["gen-data", "--config", str(bad),
                     "--out", str(work / "never2")]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_missing_config_file_fails_cleanly(self, work, capsys):
        assert main(["gen-data", "--config", str(work / "ghost.json"),
                     "--out", str(work / "never3")]) == 1
        assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# train


class TestTrain:
    def test_writes_weights_reports_and_holdout(self, train_dir):
        for name in ("eeg_model.bin", "ecg_model.bin", "combiner.json",
                     "eeg_train.csv", "ecg_train.csv", "holdout.json",
                     "config.json"):
            assert (train_dir / name).exists(), name
        holdout = json.loads((train_dir / "holdout.json").read_text())
        assert holdout["patient"] == "p00"
        assert holdout["window_seconds"] == 5.0
        assert holdout["stride_seconds"] == 40.0
        ids = holdout["window_ids"]
        assert ids and len(ids) == len(set(ids))

    def test_saved_models_load_and_predict(self, train_dir):
        from preictal.combiner import load_combiner
        from preictal.nn.model import load_model
        eeg = load_model(train_dir / "eeg_model.bin")
        ecg = load_model(train_dir / "ecg_model.bin")
        assert eeg.in_channels == 2 and ecg.in_channels == 1
        assert eeg.window_samples == ecg.window_samples == 320
        load_combiner(train_dir / "combiner.json")

    def test_one_window_rows_quantize_as_the_batched_ones(self, dataset_dir,
                                                          train_dir):
        # A sensor node forwards one window at a time; the offline readout
        # that `simulate` replays and checks equivalence against forwards
        # batches.  Their float64 rows may differ in the last bits, as they
        # did for almost every desk window, but the quantized rows the wire
        # carries must not.
        (_, _, *windowings), = cli._read_patients(dataset_dir, WindowingConfig())
        for name, windows in zip(("eeg", "ecg"), windowings):
            model = load_model(train_dir / f"{name}_model.bin")
            xs = windows.data
            batched = quantize4(model_forward(model, xs))
            alone = np.stack([quantize4(model_forward(model, x)) for x in xs])
            assert len(xs) > 500
            np.testing.assert_array_equal(alone, batched, err_msg=name)

    def test_train_report_has_epoch_rows(self, train_dir):
        lines = (train_dir / "eeg_train.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,val_accuracy"
        assert 2 <= len(lines) <= 1 + TINY_CONFIG["training"]["max_epochs"]

    def test_missing_dataset_fails_cleanly(self, work, config_path, capsys):
        assert main(["train", "--config", str(config_path),
                     "--data", str(work / "nowhere"),
                     "--out", str(work / "never4")]) == 1
        assert "gen-data" in capsys.readouterr().err

    def test_unknown_patient_fails_cleanly(self, work, config_path,
                                           dataset_dir, capsys):
        assert main(["train", "--config", str(config_path),
                     "--data", str(dataset_dir), "--patient", "p99",
                     "--out", str(work / "never5")]) == 1
        assert "p99" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        pytest.param(None, id="truncated"),
        pytest.param("{}", id="no-patients"),
        pytest.param('{"patients": [{"id": "p00", "ecg": "p00_ecg.json"}]}',
                     id="no-eeg"),
        pytest.param('{"patients": [{"id": "p00", "eeg": "p00_eeg.json"}]}',
                     id="no-ecg"),
    ])
    def test_malformed_dataset_index_is_named(self, tmp_path, config_path,
                                              dataset_dir, capsys, text):
        index = tmp_path / "dataset.json"
        if text is None:  # cut mid-key, as an interrupted write leaves it
            text = (dataset_dir / "dataset.json").read_text()[:16]
        index.write_text(text)
        assert main(["train", "--config", str(config_path),
                     "--data", str(tmp_path), "--out", str(tmp_path / "out")]) == 1
        assert str(index) in capsys.readouterr().err

    @pytest.mark.parametrize("patient", [
        pytest.param([], id="first-patient"),
        pytest.param(["--patient", "p00"], id="named-patient"),
    ])
    def test_dataset_without_patients_is_named(self, tmp_path, config_path,
                                               capsys, patient):
        index = tmp_path / "dataset.json"
        index.write_text('{"seed": 0, "patients": []}')
        assert main(["train", "--config", str(config_path), "--data", str(tmp_path),
                     *patient, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert str(index) in err and "lists no patients" in err

    @pytest.mark.parametrize("sensor", ["eeg", "ecg"])
    @pytest.mark.parametrize("command", ["train", "cross-validate", "simulate"])
    def test_missing_manifest_names_the_index(self, tmp_path, dataset_dir, config_path,
                                              train_dir, capsys, command, sensor):
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        index = json.loads((data / "dataset.json").read_text())
        index["patients"][0][sensor] = f"missing_{sensor}.json"
        (data / "dataset.json").write_text(json.dumps(index))
        models = ["--models", str(train_dir)] if command == "simulate" else []
        assert main([command, "--config", str(config_path), "--data", str(data),
                     *models, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert str(data / "dataset.json") in err
        assert str(data / f"missing_{sensor}.json") in err

    @pytest.mark.parametrize("command", ["train", "cross-validate", "simulate"])
    def test_cross_patient_pair_is_refused(self, tmp_path, train_dir, capsys,
                                           command):
        config = tmp_path / "two.json"
        config.write_text(json.dumps({**TINY_CONFIG, "patients": 2}))
        data = tmp_path / "data"
        assert main(["gen-data", "--config", str(config), "--out", str(data)]) == 0
        index = json.loads((data / "dataset.json").read_text())
        index["patients"][0]["ecg"] = "p01_ecg.json"
        (data / "dataset.json").write_text(json.dumps(index))
        models = ["--models", str(train_dir)] if command == "simulate" else []
        assert main([command, "--config", str(config), "--data", str(data),
                     *models, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert str(data / "dataset.json") in err and str(data / "p01_ecg.json") in err
        assert "records patient 'p01'" in err

    @pytest.mark.parametrize("command", ["train", "cross-validate", "simulate"])
    def test_timelines_that_differ_name_both_manifests(self, tmp_path, dataset_dir,
                                                       config_path, train_dir, capsys,
                                                       command):
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        manifest = json.loads((data / "p00_ecg.json").read_text())
        manifest["annotations"][0]["onset_time"] += 5.0
        (data / "p00_ecg.json").write_text(json.dumps(manifest))
        models = ["--models", str(train_dir)] if command == "simulate" else []
        assert main([command, "--config", str(config_path), "--data", str(data),
                     *models, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert str(data / "p00_eeg.json") in err and str(data / "p00_ecg.json") in err
        assert "their annotations differ" in err

    @pytest.mark.parametrize("command", ["train", "cross-validate", "simulate"])
    def test_swapped_sensors_name_the_index_and_the_manifest(
            self, tmp_path, dataset_dir, config_path, train_dir, capsys, command):
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        index = json.loads((data / "dataset.json").read_text())
        entry = index["patients"][0]
        entry["eeg"], entry["ecg"] = entry["ecg"], entry["eeg"]
        (data / "dataset.json").write_text(json.dumps(index))
        models = ["--models", str(train_dir)] if command == "simulate" else []
        out = tmp_path / "out"
        assert main([command, "--config", str(config_path), "--data", str(data),
                     *models, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert str(data / "dataset.json") in err and str(data / "p00_ecg.json") in err
        assert "EEG recording" in err and "records ECG" in err
        assert not any(out.glob("*.bin")) and not (out / "trace.jsonl").exists()

    @pytest.mark.parametrize("sensor", ["eeg", "ecg"])
    @pytest.mark.parametrize("command", ["train", "cross-validate", "simulate"])
    def test_manifest_of_another_patient_names_it_and_the_index(
            self, tmp_path, dataset_dir, config_path, train_dir, capsys, command, sensor):
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        manifest = json.loads((data / f"p00_{sensor}.json").read_text())
        manifest["patient_id"] = "px"
        (data / f"p00_{sensor}.json").write_text(json.dumps(manifest))
        models = ["--models", str(train_dir)] if command == "simulate" else []
        assert main([command, "--config", str(config_path), "--data", str(data),
                     *models, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert str(data / "dataset.json") in err
        assert str(data / f"p00_{sensor}.json") in err and "'px'" in err


class TestDatasetIds:
    @pytest.fixture(scope="class")
    def two_data(self, work):
        config = work / "two_ids.json"
        config.write_text(json.dumps({**TINY_CONFIG, "patients": 2}))
        data = work / "two_ids_data"
        assert main(["gen-data", "--config", str(config), "--out", str(data)]) == 0
        return config, data

    @pytest.mark.parametrize("ids", [
        pytest.param(("p01", "p00"), id="swapped"),
        pytest.param(("p00", "p00"), id="repeated"),
    ])
    @pytest.mark.parametrize("command", ["train", "cross-validate", "simulate"])
    def test_index_ids_must_match_the_recordings(self, tmp_path, two_data, train_dir,
                                                 capsys, ids, command):
        config, clean = two_data
        data = tmp_path / "data"
        shutil.copytree(clean, data)
        index = json.loads((data / "dataset.json").read_text())
        for entry, pid in zip(index["patients"], ids):
            entry["id"] = pid
        (data / "dataset.json").write_text(json.dumps(index))
        # train asks for the first entry's id, simulate for the held-out p00.
        extra = {"train": ["--patient", ids[0]], "cross-validate": [],
                 "simulate": ["--models", str(train_dir)]}[command]
        out = tmp_path / "out"
        assert main([command, "--config", str(config), "--data", str(data),
                     *extra, "--out", str(out)]) == 1
        assert str(data / "dataset.json") in capsys.readouterr().err
        assert not (out / "holdout.json").exists()
        assert not (out / "report.json").exists()
        assert not (out / "trace.jsonl").exists()


    @pytest.mark.parametrize("command", ["train", "cross-validate"])
    def test_non_string_id_is_named(self, tmp_path, two_data, capsys, command):
        config, clean = two_data
        data = tmp_path / "data"
        shutil.copytree(clean, data)
        index = json.loads((data / "dataset.json").read_text())
        for entry in index["patients"]:
            entry["id"] = 7
        (data / "dataset.json").write_text(json.dumps(index))
        extra = ["--patient", "p00"] if command == "train" else []
        assert main([command, "--config", str(config), "--data", str(data),
                     *extra, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert str(data / "dataset.json") in err
        assert "patient id 7 is not a string" in err


class TestTrainIsFoldZero:
    @pytest.fixture(scope="class")
    def two_patients(self, work):
        """A two-patient dataset and its cross-validation."""
        config = work / "two_clean.json"
        config.write_text(json.dumps({**TINY_CONFIG, "patients": 2}))
        data, cv = work / "two_clean_data", work / "two_clean_cv"
        for argv in (["gen-data", "--out", data],
                     ["cross-validate", "--data", data, "--out", cv]):
            assert main([*map(str, argv), "--config", str(config)]) == 0
        return config, data, cv

    @pytest.mark.parametrize("patient", ["p00", "p01"])
    def test_train_writes_cross_validation_fold_zero(self, work, two_patients,
                                                     patient):
        config, data, cv = two_patients
        out = work / f"two_clean_{patient}"
        assert main(["train", "--config", str(config), "--data", str(data),
                     "--patient", patient, "--out", str(out)]) == 0
        assert len(cli.MODEL_FILES) == 6
        for name in cli.MODEL_FILES.values():
            assert (out / name).read_bytes() == \
                (cv / "models" / f"{patient}_fold0" / name).read_bytes(), name

    def test_never_holds_a_whole_recording(self, work, two_patients, monkeypatch):
        # gen-data writes each samples file a block at a time, and train cuts
        # windows from it a block at a time, through one block buffer per
        # file; neither builds a `Recording`.
        config, data, _ = two_patients
        made, buffers = [], {}

        def reading(manifest, block_samples=dataset.BLOCK_SAMPLES):
            assert block_samples <= dataset.BLOCK_SAMPLES
            for c, first, block in read_blocks(manifest, block_samples):
                assert 0 < block.size <= block_samples and block.ndim == 1
                buffers.setdefault(manifest.path.name, set()).add(block.ctypes.data)
                yield c, first, block

        read_blocks = dataset.Manifest.read_blocks
        monkeypatch.setattr(dataset.Recording, "__post_init__", made.append)
        monkeypatch.setattr(dataset.Manifest, "read_blocks", reading)
        regen = work / "two_clean_regen"
        assert main(["gen-data", "--config", str(config), "--out", str(regen)]) == 0
        for name in ("p00_eeg.f64", "p01_ecg.f64"):
            assert (regen / name).read_bytes() == (data / name).read_bytes()
        assert main(["train", "--config", str(config), "--data", str(data),
                     "--out", str(work / "two_clean_freed")]) == 0
        assert made == []
        assert sorted(buffers) == ["p00_ecg.json", "p00_eeg.json"]
        assert all(len(addresses) == 1 for addresses in buffers.values())

    def test_cross_validate_frees_each_patient_before_training(self, work, two_patients,
                                                               monkeypatch):
        # The dataset reader holds no patient's windows past its folds.
        config, data, _ = two_patients
        refs, alive = [], []

        def cut(*args):
            windows = cut_windows(*args)
            refs.append(weakref.ref(windows))
            return windows

        def fold(*args):
            alive.append([r() is not None for r in refs])
            return run_patient_fold(*args)

        cut_windows, run_patient_fold = cli.cut_windows, evaluation.run_patient_fold
        monkeypatch.setattr(cli, "cut_windows", cut)
        monkeypatch.setattr(evaluation, "run_patient_fold", fold)
        assert main(["cross-validate", "--config", str(config), "--data", str(data),
                     "--out", str(work / "two_clean_cv_freed")]) == 0
        assert len(refs) == 4
        assert alive == [[True, True]] * 5 + [[False, False, True, True]] * 5


# ---------------------------------------------------------------------------
# cross-validate


class TestCrossValidate:
    def test_report_json_structure(self, cv_dir):
        payload = json.loads((cv_dir / "report.json").read_text())
        assert set(payload) == {"patients", "aggregate"}
        folds = payload["patients"]["p00"]["folds"]
        assert set(folds) == {"0", "1", "2", "3", "4"}
        for fold in folds.values():
            assert set(fold) == set(VARIANTS)
            for variant in fold.values():
                counts = variant["confusion"]
                assert len(counts) == 5 and all(len(r) == 5 for r in counts)
                assert set(variant["trend"]) == set(TREND_KEYS)
                assert {"tp", "fp", "tn", "fn"} <= set(variant["binary"])
        for name in VARIANTS:
            agg = payload["aggregate"][name]
            assert len(agg["confusion_normalized"]) == 5
            assert set(agg["trend"]) == set(TREND_KEYS)
            assert agg["binary"]["n"] == 1   # one patient

    def test_csv_shapes(self, cv_dir):
        folds, variants = 5, 3
        conf = (cv_dir / "confusion.csv").read_text().strip().splitlines()
        assert conf[0] == "patient,fold,variant,row,col,count"
        assert len(conf) == 1 + folds * variants * 25
        metrics = (cv_dir / "metrics.csv").read_text().strip().splitlines()
        assert metrics[0] == "patient,fold,variant,sensitivity,specificity,accuracy"
        assert len(metrics) == 1 + folds * variants
        trend = (cv_dir / "trend.csv").read_text().strip().splitlines()
        assert trend[0] == "variant,bin,accuracy"
        assert len(trend) == 1 + variants * 4

    def test_csv_and_json_confusions_agree(self, cv_dir):
        payload = json.loads((cv_dir / "report.json").read_text())
        totals = {}
        with open(cv_dir / "confusion.csv") as fh:
            for row in csv.DictReader(fh):
                key = (row["patient"], row["fold"], row["variant"])
                totals[key] = totals.get(key, 0) + int(row["count"])
        for (pid, fold, variant), total in totals.items():
            counts = payload["patients"][pid]["folds"][fold][variant]["confusion"]
            assert total == sum(sum(r) for r in counts)

    def test_fold_test_sets_partition_windows(self, cv_dir):
        payload = json.loads((cv_dir / "report.json").read_text())
        folds = payload["patients"]["p00"]["folds"]
        sizes = [sum(sum(r) for r in folds[f]["eeg"]["confusion"])
                 for f in sorted(folds)]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) > 0

    def test_per_fold_weights_written(self, cv_dir):
        models = cv_dir / "models"
        assert sorted(p.name for p in models.iterdir()) == \
            [f"p00_fold{fold}" for fold in range(5)]
        payload = json.loads((cv_dir / "report.json").read_text())
        for fold in range(5):
            fold_dir = models / f"p00_fold{fold}"
            assert sorted(p.name for p in fold_dir.iterdir()) == sorted(
                ["eeg_model.bin", "ecg_model.bin", "combiner.json",
                 "eeg_train.csv", "ecg_train.csv", "holdout.json"])
            holdout = json.loads((fold_dir / "holdout.json").read_text())
            assert holdout["patient"] == "p00"
            assert (holdout["window_seconds"], holdout["stride_seconds"]) == (5.0, 40.0)
            counts = payload["patients"]["p00"]["folds"][str(fold)]["eeg"]["confusion"]
            assert len(holdout["window_ids"]) == sum(map(sum, counts))
            # Every fold trains the one architecture per sensor.
            for name, pool in (("eeg", 4), ("ecg", 2)):
                model = load_model(fold_dir / cli.MODEL_FILES[name])
                assert model.pool_sizes == (pool,) * 4, name
                assert (model.bn_epsilon, model.bn_momentum) == (1e-5, 0.1), name


# ---------------------------------------------------------------------------
# simulate


def _relist(text: str, pick) -> str:
    """A holdout.json text with its window ids replaced by `pick` of them."""
    doc = json.loads(text)
    return json.dumps({**doc, "window_ids": pick(doc["window_ids"])})


class TestSimulate:
    def test_simulates_heldout_windows(self, work, config_path, dataset_dir,
                                       train_dir, capsys):
        out = work / "sim"
        assert main(["simulate", "--config", str(config_path),
                     "--data", str(dataset_dir), "--models", str(train_dir),
                     "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "equivalence=True" in stdout

        summary = json.loads((out / "latency.json").read_text())
        holdout = json.loads((train_dir / "holdout.json").read_text())
        assert summary["n_windows"] == len(holdout["window_ids"])
        assert summary["equivalence"] is True
        assert summary["n_fused"] == summary["n_windows"]   # lossless default
        assert summary["n_dropped"] == 0
        assert abs(summary["mean_latency_s"] - (2 * 0.020 + 128e-6)) < 1e-9
        assert set(summary) == {
            "n_windows", "n_fused", "n_dropped", "drop_rate", "mean_latency_s",
            "max_latency_s", "stimulation_count", "equivalence"}

        lines = (out / "trace.jsonl").read_text().strip().splitlines()
        produced = [json.loads(l) for l in lines
                    if json.loads(l)["event_type"] == "window_produced"]
        assert len(produced) == summary["n_windows"]
        # The trace points back at the dataset's window grid.
        dataset_ids = {e["detail"]["dataset_index"] for e in produced}
        assert dataset_ids == set(holdout["window_ids"])

    def test_simulating_a_fold_matches_its_report_entry(self, work, config_path,
                                                        dataset_dir, cv_dir):
        out = work / "sim_fold3"
        assert main(["simulate", "--config", str(config_path),
                     "--data", str(dataset_dir),
                     "--models", str(cv_dir / "models" / "p00_fold3"),
                     "--out", str(out)]) == 0
        fold = json.loads((cv_dir / "report.json").read_text())[
            "patients"]["p00"]["folds"]["3"]["combined"]["confusion"]
        summary = json.loads((out / "latency.json").read_text())
        assert summary["n_windows"] == sum(map(sum, fold))
        assert summary["n_fused"] == summary["n_windows"]   # lossless default
        tally = [[0] * 5 for _ in range(5)]
        for line in (out / "trace.jsonl").read_text().splitlines():
            event = json.loads(line)
            if event["event_type"] == "fusion_decision":
                tally[event["detail"]["label"]][event["detail"]["decision"]] += 1
        assert tally == fold

    def test_all_windows_flag_widens_the_replay(self, work, config_path,
                                                dataset_dir, train_dir):
        out = work / "sim_all"
        assert main(["simulate", "--config", str(config_path),
                     "--data", str(dataset_dir), "--models", str(train_dir),
                     "--all-windows", "--out", str(out)]) == 0
        summary = json.loads((out / "latency.json").read_text())
        holdout = json.loads((train_dir / "holdout.json").read_text())
        assert summary["n_windows"] > len(holdout["window_ids"])

    def test_forwards_each_simulated_window_once_per_sensor(
            self, tmp_path, dataset_dir, train_dir, monkeypatch):
        # 50 s hold ten 5 s window periods, fewer than the patient's windows.
        config = tmp_path / "short.json"
        config.write_text(json.dumps({**TINY_CONFIG, "sim": {
            "window_period_s": 5.0, "duration_s": 50.0}}))
        forwarded = []

        def counting(forward):
            def wrapper(model, x):
                forwarded.append(1 if x.ndim == 2 else len(x))
                return forward(model, x)
            return wrapper

        for module in (evaluation, bansim):
            monkeypatch.setattr(module, "model_forward",
                                counting(module.model_forward))
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(config),
                     "--data", str(dataset_dir), "--models", str(train_dir),
                     "--all-windows", "--out", str(out)]) == 0
        summary = json.loads((out / "latency.json").read_text())
        assert (summary["n_windows"], summary["equivalence"]) == (10, True)
        assert sum(forwarded) == 2 * 10

    def test_equivalence_is_null_when_no_window_is_fused(
            self, tmp_path, dataset_dir, train_dir, capsys):
        # Frames that leave their node a whole window period late reach the
        # gateway after every deadline, so there is no decision to compare.
        config = tmp_path / "late.json"
        config.write_text(json.dumps({**TINY_CONFIG, "sim": {
            "processing_delay_s": 5.0}}))
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(config),
                     "--data", str(dataset_dir), "--models", str(train_dir),
                     "--all-windows", "--out", str(out)]) == 0
        assert "equivalence=None" in capsys.readouterr().out
        summary = json.loads((out / "latency.json").read_text())
        assert summary["n_fused"] == 0
        assert summary["n_dropped"] == summary["n_windows"] > 0
        assert summary["equivalence"] is None
        assert summary["mean_latency_s"] is None

    def test_a_decision_off_the_offline_class_breaks_equivalence(
            self, tmp_path, config_path, dataset_dir, train_dir, monkeypatch, capsys):
        def flipped(*args):
            preds = evaluation.predictions(*args)
            combined = preds["combined"].copy()
            combined[0] = (combined[0] + 1) % 5
            return {**preds, "combined": combined}

        monkeypatch.setattr(cli, "predictions", flipped)
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(config_path),
                     "--data", str(dataset_dir), "--models", str(train_dir),
                     "--out", str(out)]) == 0
        assert "equivalence=False" in capsys.readouterr().out
        summary = json.loads((out / "latency.json").read_text())
        assert summary["equivalence"] is False
        assert summary["n_fused"] == summary["n_windows"]  # window 0 was fused

    @pytest.mark.parametrize("patient, message", [
        pytest.param(7, "patient id 7 is not a string", id="integer"),
        pytest.param("p09", "lists patient 'p09' not in dataset (known: p00)",
                     id="unknown"),
    ])
    def test_bad_held_out_patient_names_the_holdout(self, tmp_path, config_path,
                                                    dataset_dir, train_dir, capsys,
                                                    patient, message):
        models = tmp_path / "models"
        shutil.copytree(train_dir, models)
        holdout = models / "holdout.json"
        doc = json.loads(holdout.read_text())
        holdout.write_text(json.dumps({**doc, "patient": patient}))
        assert main(["simulate", "--config", str(config_path),
                     "--data", str(dataset_dir), "--models", str(models),
                     "--out", str(tmp_path / "sim")]) == 1
        err = capsys.readouterr().err
        assert str(holdout) in err and message in err
        assert not (tmp_path / "sim" / "trace.jsonl").exists()

    @pytest.mark.parametrize("kept, missing", [
        pytest.param((), "eeg_model.bin", id="empty"),
        pytest.param(("eeg_model.bin", "ecg_model.bin", "combiner.json",
                      "eeg_train.csv", "ecg_train.csv"), "holdout.json",
                     id="no-holdout"),
    ])
    def test_missing_weights_fail_cleanly(self, tmp_path, config_path, dataset_dir,
                                          train_dir, capsys, kept, missing):
        models = tmp_path / "models"
        models.mkdir()
        for name in kept:
            shutil.copy(train_dir / name, models / name)
        assert main(["simulate", "--config", str(config_path),
                     "--data", str(dataset_dir), "--models", str(models),
                     "--out", str(tmp_path / "sim")]) == 1
        err = capsys.readouterr().err
        assert str(models / missing) in err
        assert "a fold directory from train or cross-validate" in err
        assert not (tmp_path / "sim" / "trace.jsonl").exists()

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda text: text[:20], id="truncated"),
        pytest.param(lambda text: '{"patient": "p00"}', id="no-window-ids"),
        pytest.param(lambda text: '{"patient": "p00", "window_ids": [1]}',
                     id="no-windowing"),
        pytest.param(lambda text: _relist(text, lambda ids: []), id="empty-ids"),
        # A real held-out window three times over: only the repeat is wrong.
        pytest.param(lambda text: _relist(text, lambda ids: ids[:1] * 3),
                     id="repeated-id"),
        # Ids that equal or print like a window of the grid, but are not
        # JSON integers.
        pytest.param(lambda text: _relist(text, lambda ids: [True]), id="bool-id"),
        pytest.param(lambda text: _relist(text, lambda ids: [float(i) for i in ids]),
                     id="float-id"),
        pytest.param(lambda text: _relist(text, lambda ids: [str(ids[0])]),
                     id="string-id"),
    ])
    def test_malformed_holdout_is_named(self, tmp_path, config_path,
                                        dataset_dir, train_dir, capsys, edit):
        models = tmp_path / "models"
        shutil.copytree(train_dir, models)
        holdout = models / "holdout.json"
        holdout.write_text(edit((train_dir / "holdout.json").read_text()))
        assert main(["simulate", "--config", str(config_path),
                     "--data", str(dataset_dir), "--models", str(models),
                     "--out", str(tmp_path / "sim")]) == 1
        assert str(holdout) in capsys.readouterr().err

    @pytest.mark.parametrize("value", [True, "0.5"])
    def test_weight_that_is_not_a_number_is_refused(self, tmp_path, config_path,
                                                    dataset_dir, train_dir, capsys,
                                                    value):
        models = tmp_path / "models"
        shutil.copytree(train_dir, models)
        combiner = json.loads((models / "combiner.json").read_text())
        combiner["W"][0][0] = value
        (models / "combiner.json").write_text(json.dumps(combiner))
        assert main(["simulate", "--config", str(config_path),
                     "--data", str(dataset_dir), "--models", str(models),
                     "--out", str(tmp_path / "sim")]) == 1
        assert str(models / "combiner.json") in capsys.readouterr().err
        assert not (tmp_path / "sim" / "trace.jsonl").exists()

    def test_replay_at_another_stride_is_refused(self, tmp_path, dataset_dir,
                                                 train_dir, capsys):
        # Trained at stride 40 s.  At stride 20 s, held-out id 106 would
        # name the data of stride-40 window 53, which the models were
        # trained or validated on.
        config = tmp_path / "stride20.json"
        config.write_text(json.dumps({**TINY_CONFIG, "windowing": {
            "window_seconds": 5.0, "stride_seconds": 20.0}}))
        assert main(["simulate", "--config", str(config),
                     "--data", str(dataset_dir), "--models", str(train_dir),
                     "--out", str(tmp_path / "sim")]) == 1
        err = capsys.readouterr().err
        assert str(train_dir / "holdout.json") in err
        assert "stride_seconds=40.0" in err and "stride_seconds=20.0" in err

    def test_held_id_off_the_grid_is_refused(self, tmp_path, config_path,
                                             dataset_dir, train_dir, capsys):
        models = tmp_path / "models"
        shutil.copytree(train_dir, models)
        holdout = json.loads((models / "holdout.json").read_text())
        holdout["window_ids"].append(10 ** 6)
        (models / "holdout.json").write_text(json.dumps(holdout))
        assert main(["simulate", "--config", str(config_path),
                     "--data", str(dataset_dir), "--models", str(models),
                     "--out", str(tmp_path / "sim")]) == 1
        err = capsys.readouterr().err
        assert str(models / "holdout.json") in err and "1000000" in err


class TestLoadsOnlyThePatientUsed:
    @pytest.fixture(scope="class")
    def broken_p01(self, work):
        """A two-patient dataset whose p01 EEG samples are cut short."""
        config = work / "two.json"
        config.write_text(json.dumps({**TINY_CONFIG, "patients": 2}))
        data = work / "two_data"
        assert main(["gen-data", "--config", str(config), "--out", str(data)]) == 0
        samples = data / "p01_eeg.f64"
        samples.write_bytes(samples.read_bytes()[:-8])
        return config, data

    def test_train_reads_only_its_patient(self, work, broken_p01):
        config, data = broken_p01
        assert main(["train", "--config", str(config), "--data", str(data),
                     "--patient", "p00", "--out", str(work / "two_models")]) == 0

    def test_simulate_reads_only_its_patient(self, work, broken_p01, train_dir):
        config, data = broken_p01
        assert main(["simulate", "--config", str(config), "--data", str(data),
                     "--models", str(train_dir), "--out", str(work / "two_sim")]) == 0

    def test_cross_validate_names_the_broken_file(self, work, broken_p01, capsys):
        config, data = broken_p01
        assert main(["cross-validate", "--config", str(config), "--data", str(data),
                     "--out", str(work / "never_two_cv")]) == 1
        err = capsys.readouterr().err
        assert "p01_eeg.f64" in err and "not a recording manifest" not in err


# ---------------------------------------------------------------------------
# report


class TestReport:
    def test_prints_and_writes_summary(self, work, cv_dir, capsys):
        out = work / "summary"
        assert main(["report", "--report-dir", str(cv_dir),
                     "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        for name in VARIANTS:
            assert f"{name}:" in stdout
        assert "trend" in stdout
        text = (out / "summary.txt").read_text()
        assert "combined:" in text

    def test_print_only_without_out(self, cv_dir, capsys):
        assert main(["report", "--report-dir", str(cv_dir)]) == 0
        assert "eeg:" in capsys.readouterr().out

    def test_missing_report_fails_cleanly(self, work, capsys):
        assert main(["report", "--report-dir", str(work / "novelty")]) == 1
        assert "report.json" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        pytest.param(None, id="truncated"),
        pytest.param('{"aggregate": {}}', id="no-variants"),
    ])
    def test_malformed_report_is_named(self, tmp_path, cv_dir, capsys, text):
        report = tmp_path / "report.json"
        if text is None:
            text = (cv_dir / "report.json").read_text()[:30]
        report.write_text(text)
        assert main(["report", "--report-dir", str(tmp_path)]) == 1
        assert str(report) in capsys.readouterr().err

    def test_takes_no_config_or_seed(self, cv_dir):
        with pytest.raises(SystemExit) as exc:
            main(["report", "--report-dir", str(cv_dir),
                  "--config", "/no/such/file.json", "--seed", "99"])
        assert exc.value.code == 2


# ---------------------------------------------------------------------------
# parser


class TestParser:
    def test_missing_subcommand_exits_with_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_with_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen-data"])   # --out is required
        assert exc.value.code == 2

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


# ---------------------------------------------------------------------------
# whole pipeline


def _run_pipeline(root, config_path):
    """gen-data, cross-validate and simulate --all-windows of fold 0 under
    `root`; returns {relative path: sha256} of every file written."""
    data, cv = root / "data", root / "cv"
    for argv in (["gen-data", "--out", data],
                 ["cross-validate", "--data", data, "--out", cv],
                 ["simulate", "--data", data, "--models", cv / "models" / "p00_fold0",
                  "--all-windows", "--out", root / "sim"]):
        assert main([*map(str, argv), "--config", str(config_path)]) == 0
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestRerun:
    def test_every_artifact_is_byte_identical(self, tmp_path, config_path):
        first = _run_pipeline(tmp_path / "a", config_path)
        second = _run_pipeline(tmp_path / "b", config_path)
        for name in ("data/p00_eeg.f64", "cv/models/p00_fold0/eeg_model.bin",
                     "cv/models/p00_fold0/ecg_model.bin",
                     "cv/models/p00_fold0/combiner.json",
                     "cv/models/p00_fold0/eeg_train.csv",
                     "cv/models/p00_fold0/holdout.json",
                     "cv/report.json", "cv/confusion.csv",
                     "cv/models/p00_fold4/ecg_model.bin",
                     "cv/models/p00_fold4/combiner.json",
                     "cv/models/p00_fold4/holdout.json",
                     "sim/trace.jsonl", "sim/latency.json"):
            assert name in first, name
        assert first == second


class TestArtifactDigest:
    def test_two_runs_hash_identically(self, tmp_path, config_path):
        script = Path(__file__).resolve().parent.parent / "scripts" / "artifact_digest.py"
        for ws in ("a", "b"):
            run = subprocess.run([sys.executable, str(script), "--config",
                                  str(config_path), "--workspace", str(tmp_path / ws)],
                                 capture_output=True, text=True)
            assert run.returncode == 0, run.stderr
        first = (tmp_path / "a.sha256").read_text().splitlines()
        assert len(first) == 44
        assert first == (tmp_path / "b.sha256").read_text().splitlines()
