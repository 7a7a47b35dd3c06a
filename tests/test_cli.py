import csv
import hashlib
import json
import shutil

import pytest

from preictal.cli import main

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
        for fold in range(5):
            stem = f"p00_fold{fold}"
            for suffix in ("_eeg.bin", "_ecg.bin", "_combiner.json",
                           "_eeg_train.csv", "_ecg_train.csv"):
                assert (models / f"{stem}{suffix}").exists(), stem + suffix


# ---------------------------------------------------------------------------
# simulate


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
        assert summary["processing_within_budget"] is True

        lines = (out / "trace.jsonl").read_text().strip().splitlines()
        produced = [json.loads(l) for l in lines
                    if json.loads(l)["event_type"] == "window_produced"]
        assert len(produced) == summary["n_windows"]
        # The trace points back at the dataset's window grid.
        dataset_ids = {e["detail"]["dataset_index"] for e in produced}
        assert dataset_ids == set(holdout["window_ids"])

    def test_all_windows_flag_widens_the_replay(self, work, config_path,
                                                dataset_dir, train_dir):
        out = work / "sim_all"
        assert main(["simulate", "--config", str(config_path),
                     "--data", str(dataset_dir), "--models", str(train_dir),
                     "--all-windows", "--out", str(out)]) == 0
        summary = json.loads((out / "latency.json").read_text())
        holdout = json.loads((train_dir / "holdout.json").read_text())
        assert summary["n_windows"] > len(holdout["window_ids"])

    def test_missing_weights_fail_cleanly(self, work, config_path,
                                          dataset_dir, capsys):
        empty = work / "no_models"
        empty.mkdir()
        assert main(["simulate", "--config", str(config_path),
                     "--data", str(dataset_dir), "--models", str(empty),
                     "--out", str(work / "never6")]) == 1
        err = capsys.readouterr().err
        assert "eeg_model.bin" in err and "train" in err

    @pytest.mark.parametrize("text", [
        pytest.param(None, id="truncated"),
        pytest.param('{"patient": "p00"}', id="no-window-ids"),
    ])
    def test_malformed_holdout_is_named(self, tmp_path, config_path,
                                        dataset_dir, train_dir, capsys, text):
        models = tmp_path / "models"
        shutil.copytree(train_dir, models)
        holdout = models / "holdout.json"
        if text is None:
            text = (train_dir / "holdout.json").read_text()[:20]
        holdout.write_text(text)
        assert main(["simulate", "--config", str(config_path),
                     "--data", str(dataset_dir), "--models", str(models),
                     "--out", str(tmp_path / "sim")]) == 1
        assert str(holdout) in capsys.readouterr().err


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
    """gen-data, train, cross-validate and simulate --all-windows under
    `root`; returns {relative path: sha256} of every file written."""
    data, models = root / "data", root / "models"
    for argv in (["gen-data", "--out", data],
                 ["train", "--data", data, "--out", models],
                 ["cross-validate", "--data", data, "--out", root / "cv"],
                 ["simulate", "--data", data, "--models", models,
                  "--all-windows", "--out", root / "sim"]):
        assert main([*map(str, argv), "--config", str(config_path)]) == 0
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestRerun:
    def test_every_artifact_is_byte_identical(self, tmp_path, config_path):
        first = _run_pipeline(tmp_path / "a", config_path)
        second = _run_pipeline(tmp_path / "b", config_path)
        for name in ("data/p00_eeg.f64", "models/eeg_model.bin",
                     "models/ecg_model.bin", "models/combiner.json",
                     "models/eeg_train.csv", "models/holdout.json",
                     "cv/report.json", "cv/confusion.csv",
                     "cv/models/p00_fold4_ecg.bin",
                     "cv/models/p00_fold4_combiner.json",
                     "sim/trace.jsonl", "sim/latency.json"):
            assert name in first, name
        assert first == second
