import re

import pytest

from preictal.config import ExperimentConfig, WindowingConfig, from_dict, load_config
from preictal.dataset import SynthConfig


class TestPartialSections:
    def test_partial_section_keeps_desk_defaults(self):
        cfg = from_dict({"data": {"noise_sigma": 0.8}})
        desk = ExperimentConfig().data
        assert cfg.data == SynthConfig(
            duration_s=desk.duration_s, n_seizures=desk.n_seizures,
            sample_rate_hz=desk.sample_rate_hz, eeg_channels=desk.eeg_channels,
            seizure_duration_s=desk.seizure_duration_s, noise_sigma=0.8)
        assert (cfg.data.n_seizures, cfg.data.sample_rate_hz,
                cfg.data.eeg_channels) == (4, 64, 4)

    def test_readme_example_keeps_desk_defaults(self):
        # The example config of the README.
        cfg = from_dict({
            "seed": 7,
            "patients": 4,
            "data": {"noise_sigma": 0.8, "duration_s": 41240.0},
            "training": {"max_epochs": 30, "patience": 5},
            "combiner": {"learning_rate": 1.0, "max_epochs": 500},
            "sim": {"link": {"loss_probability": 0.2}, "retry_limit": 3},
        })
        assert (cfg.data.n_seizures, cfg.data.sample_rate_hz,
                cfg.data.eeg_channels) == (4, 64, 4)
        assert cfg.sim.link.loss_probability == 0.2
        assert cfg.sim.link.seed == ExperimentConfig().sim.link.seed

    def test_accepted_stand_ins(self):
        cfg = from_dict({"data": {"duration_s": 41240},
                         "model": {"hidden": [8, 6]}})
        assert cfg.data.duration_s == 41240.0
        assert cfg.model.hidden == (8, 6)


class TestTypeMismatch:
    @pytest.mark.parametrize("payload, key", [
        pytest.param({"data": {"sample_rate_hz": 64.5}}, "sample_rate_hz",
                     id="float-for-int"),
        pytest.param({"seed": 7.5}, "seed", id="float-seed"),
        pytest.param({"patients": True}, "patients", id="bool-for-int"),
        pytest.param({"folds": "5"}, "folds", id="string-for-int"),
        pytest.param({"training": {"batch_size": "32"}}, "batch_size",
                     id="string-batch-size"),
        pytest.param({"model": {"hidden": 5}}, "hidden", id="int-for-tuple"),
        pytest.param({"sim": {"processing_delay_s": False}},
                     "processing_delay_s", id="bool-for-float"),
        pytest.param({"model": {"hidden": [8, "x"]}}, "hidden",
                     id="string-in-tuple"),
        pytest.param({"model": {"hidden": [8, 6.5]}}, "hidden",
                     id="float-in-int-tuple"),
        # Settings that are constants of the module that reads them, or that
        # moved to another section, are unknown keys.
        pytest.param({"model": {"focal_gamma": 2.0}}, "focal_gamma",
                     id="model-focal-gamma"),
        pytest.param({"model": {"pool_size": 4}}, "pool_size", id="pool-size"),
        pytest.param({"model": {"ecg_pool_size": 2}}, "ecg_pool_size",
                     id="ecg-pool-size"),
        pytest.param({"training": {"beta1": 0.9}}, "beta1", id="beta1"),
        pytest.param({"training": {"beta2": 0.999}}, "beta2", id="beta2"),
        pytest.param({"training": {"adam_epsilon": 1e-8}}, "adam_epsilon",
                     id="adam-epsilon"),
        pytest.param({"sim": {"link": {"bitrate_bps": 1e6}}}, "bitrate_bps",
                     id="bitrate"),
        pytest.param({"sim": {"link": {"propagation_delay_s": 0.0}}},
                     "propagation_delay_s", id="propagation-delay"),
        pytest.param({"sim": {"stimulation_policy": "any_preictal"}},
                     "stimulation_policy", id="stimulation-policy"),
    ])
    def test_rejected_with_its_key(self, payload, key):
        with pytest.raises(ValueError, match=f"config key {key!r}"):
            from_dict(payload)

    def test_section_must_be_an_object(self):
        with pytest.raises(ValueError, match="SynthConfig section"):
            from_dict({"data": 5})


class TestOutOfRange:
    @pytest.mark.parametrize("payload", [
        pytest.param({"seed": -3}, id="experiment-seed"),
        pytest.param({"sim": {"link": {"seed": -1}}}, id="link-seed"),
    ])
    def test_negative_seed_rejected_at_load(self, payload):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            from_dict(payload)

    @pytest.mark.parametrize("value", [0, -60.0])
    def test_non_positive_seizure_duration_names_its_key(self, value):
        with pytest.raises(ValueError, match="seizure_duration_s must be positive"):
            from_dict({"data": {"seizure_duration_s": value}})

    def test_simulation_shorter_than_one_window_period_rejected(self):
        with pytest.raises(ValueError,
                           match="duration_s is shorter than one window period"):
            from_dict({"sim": {"duration_s": 4.0}})


class TestNonFinite:
    # Written with the JSON literals Python's json module reads as floats.
    @pytest.mark.parametrize("text, key", [
        pytest.param('{"data": {"noise_sigma": NaN}}', "noise_sigma", id="data"),
        pytest.param('{"data": {"duration_s": Infinity}}', "duration_s",
                     id="data-inf"),
        pytest.param('{"windowing": {"stride_seconds": NaN}}', "stride_seconds",
                     id="windowing"),
        pytest.param('{"model": {"kernel_len": Infinity}}', "kernel_len",
                     id="model"),
        pytest.param('{"training": {"focal_gamma": Infinity}}', "focal_gamma",
                     id="training-gamma"),
        pytest.param('{"training": {"learning_rate": NaN}}', "learning_rate",
                     id="training"),
        pytest.param('{"combiner": {"learning_rate": Infinity}}', "learning_rate",
                     id="combiner"),
        pytest.param('{"sim": {"processing_delay_s": NaN}}', "processing_delay_s",
                     id="sim"),
        pytest.param('{"sim": {"link": {"loss_probability": Infinity}}}',
                     "loss_probability", id="sim-link"),
        pytest.param('{"sim": {"link": {"loss_probability": NaN}}}',
                     "loss_probability", id="sim-link-nan"),
    ])
    def test_rejected_at_load_with_its_key(self, tmp_path, text, key):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(str(path))
                           + f".*config key {key!r}.* got (nan|inf)"):
            load_config(path)


class TestOverlappingWindows:
    def test_config_file_with_a_short_stride_is_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"windowing": {"stride_seconds": 2.5}}')
        with pytest.raises(ValueError, match=re.escape(str(path))
                           + ".*window_seconds <= stride_seconds, got 5.0 and 2.5"):
            load_config(path)

    def test_stride_shorter_than_the_window_is_rejected(self):
        with pytest.raises(ValueError, match="stride_seconds"):
            WindowingConfig(5.0, 2.5)
        assert WindowingConfig(5.0, 5.0).stride_seconds == 5.0


class TestConfigFile:
    @pytest.mark.parametrize("text", [
        pytest.param('{"seed": ', id="invalid-json"),
        pytest.param('{"nope": 1}', id="unknown-key"),
        pytest.param('{"folds": "5"}', id="wrong-type"),
        pytest.param('[1, 2]', id="not-an-object"),
    ])
    def test_errors_name_the_file(self, tmp_path, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_config(path)
