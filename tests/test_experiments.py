"""Tests for the experiment harness: presets, runner, reporting."""

import numpy as np
import pytest
from dataclasses import replace

from repro.datasets import FiveGCConfig, FiveGIPCConfig
from repro.experiments import (
    MODEL_NAMES,
    PRESETS,
    SharedArtifacts,
    format_ablation,
    format_multitarget,
    format_runtime,
    format_table1,
    format_variant_counts,
    get_preset,
    make_benchmark,
    measure_runtime,
    model_factories,
    run_ablation,
    run_multitarget,
    run_table1,
    selection_variance,
    summarize_improvement,
    variant_counts,
)
from repro.experiments.presets import ExperimentPreset, ModelParams
from repro.utils.errors import ValidationError


@pytest.fixture(scope="module")
def micro_preset():
    """A very small preset so harness tests run in seconds."""
    return ExperimentPreset(
        name="micro",
        fivegc=FiveGCConfig(n_source=320, n_target=300, feature_scale=0.12),
        fivegipc=FiveGIPCConfig(sample_scale=0.05, feature_scale=0.5),
        models=ModelParams(
            tnet_epochs=8, mlp_epochs=10, rf_estimators=5, rf_max_depth=6,
            xgb_estimators=3, xgb_max_depth=2, xgb_max_features=0.4,
        ),
        gan_epochs=20,
        gan_noise_dim=4,
        gan_hidden=32,
        repeats=1,
        shots=(1, 5),
        baseline_epochs=8,
        episodes=20,
    )


class TestPresets:
    def test_known_presets(self):
        assert set(PRESETS) == {"smoke", "fast", "paper"}

    def test_get_preset_default_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_PRESET", raising=False)
        assert get_preset().name == "smoke"
        monkeypatch.setenv("REPRO_PRESET", "fast")
        assert get_preset().name == "fast"

    def test_unknown_preset(self):
        with pytest.raises(ValidationError):
            get_preset("turbo")

    def test_paper_preset_scales(self):
        paper = get_preset("paper")
        assert paper.fivegc.n_source == 3645
        assert paper.gan_epochs == 500
        assert paper.repeats == 20

    def test_model_factories_fresh_instances(self):
        factories = model_factories(get_preset("smoke"))
        assert set(factories) == set(MODEL_NAMES)
        assert factories["MLP"]() is not factories["MLP"]()


class TestMakeBenchmark:
    def test_both_datasets(self, micro_preset):
        b1 = make_benchmark("5gc", micro_preset)
        b2 = make_benchmark("5gipc", micro_preset)
        assert b1.metadata["dataset"] == "5gc"
        assert b2.metadata["dataset"] == "5gipc"

    def test_unknown_dataset(self, micro_preset):
        with pytest.raises(ValidationError):
            make_benchmark("mnist", micro_preset)


class TestSharedArtifacts:
    def test_split_cached(self, micro_preset):
        bench = make_benchmark("5gc", micro_preset)
        shared = SharedArtifacts(bench, micro_preset)
        a = shared.split(1, 0)
        b = shared.split(1, 0)
        assert a is b

    def test_full_model_cached(self, micro_preset):
        bench = make_benchmark("5gc", micro_preset)
        shared = SharedArtifacts(bench, micro_preset)
        assert shared.full_model("MLP") is shared.full_model("MLP")

    def test_separation_shared_between_fs_and_fsgan(self, micro_preset):
        bench = make_benchmark("5gc", micro_preset)
        shared = SharedArtifacts(bench, micro_preset)
        sep = shared.separation(1, 0)
        shared.fsgan_predict("MLP", 1, 0)
        assert shared.separation(1, 0) is sep

    def test_parallel_prebuild_reproduces_serial_artifacts(self, micro_preset):
        bench = make_benchmark("5gc", micro_preset)
        serial = SharedArtifacts(bench, micro_preset)
        pooled = SharedArtifacts(bench, micro_preset, n_jobs=2)
        pooled.prebuild(strategies=("gan",))
        for shots in micro_preset.shots:
            a, b = serial.separation(shots, 0), pooled.separation(shots, 0)
            np.testing.assert_array_equal(a.variant_indices_, b.variant_indices_)
            assert np.array_equal(a.result_.p_values, b.result_.p_values)
            assert a.result_.parent_sets == b.result_.parent_sets
            X_inv, _ = a.split(serial.Xs)
            rec_a = serial.reconstructor(shots, 0, "gan")
            rec_b = pooled.reconstructor(shots, 0, "gan")
            assert np.array_equal(rec_a.reconstruct(X_inv), rec_b.reconstruct(X_inv))


class TestRunTable1:
    def test_subset_grid(self, micro_preset):
        results = run_table1(
            "5gc",
            preset=micro_preset,
            methods=("srconly", "fs", "fs+gan", "taronly"),
            models=("MLP",),
        )
        keys = {(c.method, c.model, c.shots) for c in results}
        assert ("fs", "MLP", 1) in keys
        assert len(results) == 4 * len(micro_preset.shots)
        for cell in results:
            assert len(cell.scores) == micro_preset.repeats
            assert 0.0 <= cell.f1_mean <= 1.0

    def test_model_specific_methods_single_column(self, micro_preset):
        results = run_table1(
            "5gc", preset=micro_preset, methods=("fine-tune",), models=("MLP", "RF")
        )
        assert all(c.model == "-" for c in results)

    def test_fs_beats_srconly(self, micro_preset):
        results = run_table1(
            "5gc", preset=micro_preset, methods=("srconly", "fs"), models=("MLP",)
        )
        fs = np.mean([c.f1_mean for c in results if c.method == "fs"])
        src = np.mean([c.f1_mean for c in results if c.method == "srconly"])
        assert fs > src

    def test_format_table1_renders(self, micro_preset):
        results = run_table1(
            "5gc", preset=micro_preset, methods=("srconly", "fs"), models=("MLP",)
        )
        text = format_table1(results, dataset="5GC")
        assert "FS (ours)" in text and "SrcOnly" in text

    def test_summarize_improvement(self, micro_preset):
        results = run_table1(
            "5gc", preset=micro_preset,
            methods=("srconly", "fs", "fs+gan", "s&t"), models=("MLP",),
        )
        summary = summarize_improvement(results)
        assert summary["best_other"] == "s&t"
        assert np.isfinite(summary["fsgan_gain"])


class TestAblation:
    def test_all_strategies(self, micro_preset):
        results = run_ablation(
            "5gc", preset=micro_preset, model="MLP",
            strategies=("gan", "autoencoder"),
        )
        methods = {c.method for c in results}
        assert methods == {"FS+GAN", "FS+VanillaAE"}
        text = format_ablation(results, dataset="5GC")
        assert "FS+GAN" in text


class TestMultitarget:
    def test_grid_and_overlap(self, micro_preset):
        preset = replace(micro_preset, shots=(5,))
        result = run_multitarget(preset=preset, model="MLP")
        assert set(result["scores"]) == {
            (a, t, 5) for a in (1, 2) for t in (1, 2)
        }
        assert 0.0 <= result["overlap"] <= 1.0
        text = format_multitarget(result)
        assert "FS+GAN_1" in text and "FS+GAN_2" in text


class TestSensitivity:
    def test_variant_counts_monotone_ish(self, micro_preset):
        result = variant_counts("5gc", preset=micro_preset)
        counts = [row["n_variant_mean"] for row in result["rows"]]
        assert counts[0] <= counts[-1] + 1  # grows (allowing test noise)
        assert "shots" in format_variant_counts(result)

    def test_selection_variance_fields(self, micro_preset):
        result = selection_variance(
            "5gc", preset=micro_preset, model="MLP", shots=1, n_selections=2
        )
        assert result["fs"]["std"] >= 0.0
        assert result["fs+gan"]["range"] >= 0.0


class TestRuntime:
    def test_measurements_positive(self, micro_preset):
        result = measure_runtime("5gc", preset=micro_preset, shots=5,
                                 n_inference_samples=8)
        assert result["fs_seconds"] > 0
        assert result["gan_train_seconds"] > 0
        assert result["inference_seconds_per_sample"] > 0
        # the paper's ordering: training steps dwarf per-sample inference
        assert result["gan_train_seconds"] > result["inference_seconds_per_sample"]
        assert "Running time" in format_runtime(result)
