"""Compiled inference plans and the serve runtime.

The load-bearing contract: at float64 and at float32 (the default
reconstruction dtype) a compiled plan's ``predict_proba`` is bit-identical
to the live pipeline's — in this process, across successive batches (the
RNG streams advance in lockstep), and across a save → fresh-interpreter →
compile → score cycle.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import FSGANPipeline, ReconstructionConfig
from repro.core.artifacts import save_artifact
from repro.ml import MLPClassifier
from repro.serve import InferencePlan, read_input, run_serve, write_output
from repro.serve.runtime import load_plan
from repro.utils.errors import ArtifactError, ValidationError

SRC = str(Path(__file__).resolve().parents[1] / "src")


def fast_mlp():
    return MLPClassifier(hidden_sizes=(16,), epochs=8, random_state=0)


def _fit(tiny_5gc, strategy="gan", dtype="float32"):
    X_few, _, X_test, _ = tiny_5gc.few_shot_split(5, random_state=0)
    pipe = FSGANPipeline(
        fast_mlp,
        reconstruction_config=ReconstructionConfig(
            strategy=strategy, epochs=2, noise_dim=2, hidden_size=8,
            dtype=dtype),
        random_state=0,
    ).fit(tiny_5gc.X_source, tiny_5gc.y_source, X_few)
    return pipe, X_test


class TestPlanParity:
    @pytest.mark.parametrize("strategy,n_draws", [
        ("gan", 1), ("gan", 3), ("nocond", 2), ("vae", 2),
        ("autoencoder", 1),
    ])
    def test_bit_identical_to_pipeline(self, tiny_5gc, strategy, n_draws):
        pipe, X_test = _fit(tiny_5gc, strategy)
        plan = pipe.compile(n_draws=n_draws)
        # first batch, then a second one: the cloned RNG stays in lockstep
        for lo, hi in ((0, 32), (32, 48)):
            np.testing.assert_array_equal(
                plan.predict_proba(X_test[lo:hi]),
                pipe.predict_proba(X_test[lo:hi], n_draws=n_draws))

    def test_transform_matches_pipeline(self, tiny_5gc):
        pipe, X_test = _fit(tiny_5gc)
        plan = pipe.compile()
        np.testing.assert_array_equal(
            plan.transform(X_test[:16]).copy(),
            pipe.transform(X_test[:16]))

    def test_compile_does_not_perturb_pipeline_stream(self, tiny_5gc):
        pipe, X_test = _fit(tiny_5gc)
        before = pipe.predict_proba(X_test[:8])
        pipe.compile()  # compiling must not consume pipeline noise
        pipe2, _ = _fit(tiny_5gc)
        pipe2.predict_proba(X_test[:8])
        np.testing.assert_array_equal(
            pipe.predict_proba(X_test[:8]), pipe2.predict_proba(X_test[:8]))
        assert before.shape == (8, before.shape[1])

    def test_predict_returns_class_labels(self, tiny_5gc):
        pipe, X_test = _fit(tiny_5gc)
        plan = pipe.compile()
        labels = plan.predict(X_test[:10])
        assert set(np.unique(labels)) <= set(pipe.model_.classes_)

    def test_batch_size_change_reallocates_safely(self, tiny_5gc):
        pipe, X_test = _fit(tiny_5gc)
        plan = pipe.compile()
        for n in (7, 31, 7):
            np.testing.assert_array_equal(
                plan.predict_proba(X_test[:n]),
                pipe.predict_proba(X_test[:n]))


#: segment sizes coalesced into one execution of each padded row count
_COALESCED = {16: [5, 11], 32: [7, 9, 16], 256: [100, 1, 155]}


@pytest.fixture(scope="module")
def bound_pipelines(tiny_5gc):
    """Tiny fitted pipelines per (strategy, dtype); "identity" finds no
    variant feature (alpha far below any p-value), so it reconstructs
    nothing."""
    from repro.core.config import FSConfig

    X_few, _, X_test, _ = tiny_5gc.few_shot_split(5, random_state=0)
    assert X_test.shape[0] >= 256
    fitted = {}
    for strategy in ("gan", "vae", "autoencoder", "identity"):
        for dtype in ("float32", "float64"):
            fitted[strategy, dtype] = FSGANPipeline(
                fast_mlp,
                fs_config=FSConfig(alpha=1e-300) if strategy == "identity"
                else None,
                reconstruction_config=ReconstructionConfig(
                    strategy="gan" if strategy == "identity" else strategy,
                    epochs=2, noise_dim=3, hidden_size=8, dtype=dtype),
                random_state=0,
            ).fit(tiny_5gc.X_source, tiny_5gc.y_source, X_few)
    assert fitted["identity", "float32"].n_variant_ == 0
    return fitted, X_test


def _buffers(plan):
    return {key: (id(buf), buf.nbytes) for key, buf in plan._ws._bufs.items()}


class TestBoundChain:
    """The chain bound once per padded row count and replayed."""

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("n_draws", [1, 3])
    @pytest.mark.parametrize("strategy",
                             ["gan", "vae", "autoencoder", "identity"])
    def test_replay_equals_pipeline_bitwise(self, bound_pipelines, strategy,
                                            n_draws, dtype):
        import copy

        fitted, X_test = bound_pipelines
        pipe = copy.deepcopy(fitted[strategy, dtype])
        plan = pipe.compile(n_draws=n_draws)
        coalesced = pipe.compile(n_draws=n_draws)
        alone = pipe.compile(n_draws=n_draws)
        before_refit = pipe.compile(n_draws=n_draws)
        control = pipe.compile(n_draws=n_draws)
        for rows, sizes in _COALESCED.items():
            X = X_test[:rows]
            # twice per row count: the second batch replays the bound chain
            for replay in (False, True):
                got = plan.execute([X], capacity=256)[0]
                np.testing.assert_array_equal(
                    got, pipe.predict_proba(X, n_draws=n_draws))
                if not replay:
                    chain, buffers = plan._chains[rows], _buffers(plan)
            assert plan._chains[rows] is chain
            assert _buffers(plan) == buffers  # nothing grew or moved

            cuts = np.cumsum([0] + sizes)
            segments = [X[a:b] for a, b in zip(cuts[:-1], cuts[1:])]
            together = coalesced.execute(segments, capacity=256)
            for got, seg in zip(together, segments):
                np.testing.assert_array_equal(
                    got, alone.execute([seg], capacity=256)[0])

        # smaller row counts reuse prefix views of the largest buffers, and
        # no chain keeps a buffer the workspace has outgrown alive
        grown, largest = _buffers(plan), plan._chains[256]
        for rows in _COALESCED:
            plan.execute([X_test[:rows]], capacity=256)
            for a, b in ((plan._chains[rows].X, largest.X),
                         (plan._chains[rows].merged, largest.merged)):
                assert np.shares_memory(a, b)
        assert _buffers(plan) == grown

        # two plans at the same stream position: one scores before the
        # refit, the other after it
        X = X_test[:32]
        expected = control.execute([X], capacity=256)[0]
        if strategy != "identity":
            pipe.refit_reconstruction()
        np.testing.assert_array_equal(
            before_refit.execute([X], capacity=256)[0], expected)


class TestPlanValidation:
    def test_unfitted_pipeline_rejected(self):
        from repro.utils.errors import NotFittedError

        with pytest.raises(NotFittedError):
            InferencePlan(FSGANPipeline(fast_mlp))

    def test_bad_n_draws(self, tiny_5gc):
        pipe, _ = _fit(tiny_5gc)
        with pytest.raises(ValidationError, match="n_draws"):
            pipe.compile(n_draws=0)

    def test_wrong_feature_count(self, tiny_5gc):
        pipe, X_test = _fit(tiny_5gc)
        plan = pipe.compile()
        with pytest.raises(ValidationError, match="features"):
            plan.predict_proba(X_test[:4, :5])

    def test_spans_emitted(self, tiny_5gc, tmp_path):
        from repro.obs import RunRecorder

        pipe, X_test = _fit(tiny_5gc)
        plan = pipe.compile()
        with RunRecorder(tmp_path / "run") as rec:
            plan.predict_proba(X_test[:4])
        assert rec.tracer.find("serve.batch") is not None
        assert rec.tracer.find("serve.reconstruct") is not None


class TestServeRuntime:
    def test_read_input_formats(self, tmp_path, rng):
        X = rng.normal(size=(6, 4))
        np.save(tmp_path / "x.npy", X)
        np.savez(tmp_path / "x.npz", X=X)
        np.savetxt(tmp_path / "x.csv", X, delimiter=",")
        np.testing.assert_array_equal(read_input(tmp_path / "x.npy"), X)
        np.testing.assert_array_equal(read_input(tmp_path / "x.npz"), X)
        np.testing.assert_allclose(read_input(tmp_path / "x.csv"), X,
                                   rtol=1e-15)

    def test_read_input_csv_skips_header_row(self, tmp_path, rng):
        X = rng.normal(size=(5, 3))
        path = tmp_path / "headed.csv"
        body = "\n".join(",".join(f"{v:.17g}" for v in row) for row in X)
        path.write_text("alpha,beta,gamma\n" + body + "\n")
        np.testing.assert_allclose(read_input(path), X, rtol=1e-15)

    def test_read_input_csv_non_numeric_cell_is_artifact_error(self, tmp_path):
        path = tmp_path / "bad_cell.csv"
        path.write_text("1.0,2.0\n3.0,oops\n")
        with pytest.raises(ArtifactError, match="non-numeric cell"):
            read_input(path)

    def test_read_input_errors(self, tmp_path):
        with pytest.raises(ArtifactError, match="no input file"):
            read_input(tmp_path / "missing.npy")
        np.savez(tmp_path / "bad.npz", Y=np.zeros((2, 2)))
        with pytest.raises(ArtifactError, match="'X'"):
            read_input(tmp_path / "bad.npz")
        np.save(tmp_path / "one_d.npy", np.zeros(5))
        with pytest.raises(ArtifactError, match="2-D"):
            read_input(tmp_path / "one_d.npy")
        (tmp_path / "x.parquet").write_bytes(b"xx")
        with pytest.raises(ArtifactError, match="unsupported input format"):
            read_input(tmp_path / "x.parquet")

    def test_write_output_json_and_npz(self, tmp_path):
        proba = np.array([[0.25, 0.75], [0.5, 0.5]])
        labels = np.array([1, 0])
        out = write_output(tmp_path / "scores.json", proba=proba,
                           labels=labels)
        payload = json.loads(out.read_text())
        assert payload["labels"] == [1, 0]
        out = write_output(tmp_path / "scores.npz", proba=proba,
                           labels=labels)
        data = np.load(out)
        np.testing.assert_array_equal(data["proba"], proba)

    def test_load_plan_rejects_non_pipeline_artifact(self, tiny_5gc,
                                                     tmp_path):
        from repro.ml import MinMaxScaler

        scaler = MinMaxScaler().fit(tiny_5gc.X_source)
        save_artifact(scaler, tmp_path / "scaler.npz")
        with pytest.raises(ArtifactError, match="fsgan_pipeline"):
            load_plan(tmp_path / "scaler.npz")

    def test_run_serve_summary_and_parity(self, tiny_5gc, tmp_path):
        pipe, X_test = _fit(tiny_5gc)
        save_artifact(pipe, tmp_path / "pipe.npz")
        expected = pipe.predict_proba(X_test[:12])
        np.save(tmp_path / "batch.npy", X_test[:12])
        summary = run_serve(
            tmp_path / "pipe.npz", tmp_path / "batch.npy",
            output_path=tmp_path / "scores.npz",
        )
        assert summary["kind"] == "fsgan_pipeline"
        assert summary["n_samples"] == 12
        assert summary["schema_version"] == 2
        got = np.load(tmp_path / "scores.npz")["proba"]
        np.testing.assert_array_equal(got, expected)

    def test_run_serve_reports_stage_percentiles(self, tiny_5gc, tmp_path):
        pipe, X_test = _fit(tiny_5gc)
        save_artifact(pipe, tmp_path / "pipe.npz")
        np.save(tmp_path / "batch.npy", X_test[:16])
        summary = run_serve(
            tmp_path / "pipe.npz", tmp_path / "batch.npy", repeat=3
        )
        assert summary["repeat"] == 3
        # every pipeline stage observed once per pass
        assert set(summary["stages"]) == {
            "scale", "split", "generate", "merge", "predict"
        }
        for stage in summary["stages"].values():
            assert stage["count"] == 3
            assert 0.0 <= stage["p50"] <= stage["p90"] <= stage["p99"]
        assert summary["latency"]["count"] == 3

    def test_run_serve_with_exporters_and_drift(self, tiny_5gc, tmp_path):
        pipe, X_test = _fit(tiny_5gc)
        save_artifact(pipe, tmp_path / "pipe.npz")
        # a strongly shifted batch so drift scores are unambiguous
        batch = X_test[:200].copy()
        batch[:, :] += 5.0
        np.save(tmp_path / "batch.npy", batch)
        snapshot_path = tmp_path / "metrics.jsonl"

        summary = run_serve(
            tmp_path / "pipe.npz", tmp_path / "batch.npy",
            repeat=2, track_drift=True, prom_port=0,
            snapshot_path=snapshot_path,
        )
        assert summary["prometheus"].startswith("http://127.0.0.1:")
        assert "drift" in summary
        assert summary["drift"]["psi_max"] > 0.25
        assert summary["drift"]["alarmed"]

        from repro.obs.exporters import SnapshotWriter

        snaps = SnapshotWriter.read(snapshot_path)
        assert snaps, "snapshot writer produced no snapshots"
        final = snaps[-1]["metrics"]
        assert final["serve.latency"]["count"] == 2
        assert final["serve.psi_max"]["value"] > 0.25


_CHILD = """
import sys
import numpy as np
from repro.serve import load_plan

plan, loaded = load_plan(sys.argv[1])
X = np.load(sys.argv[2], allow_pickle=False)
np.save(sys.argv[3], plan.predict_proba(X))
"""


class TestCrossProcessBitIdentity:
    @staticmethod
    def _score_in_fresh_process(pipe, X, tmp_path):
        save_artifact(pipe, tmp_path / "pipe.npz",
                      provenance={"dataset": "5gc", "seed": 0})
        # expected AFTER save: both sides consume from the saved RNG state
        expected = pipe.predict_proba(X)
        np.save(tmp_path / "batch.npy", X)
        subprocess.run(
            [sys.executable, "-c", _CHILD, str(tmp_path / "pipe.npz"),
             str(tmp_path / "batch.npy"), str(tmp_path / "got.npy")],
            check=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=600,
        )
        return np.load(tmp_path / "got.npy"), expected

    def test_fresh_process_compiled_plan_matches(self, tiny_5gc, tmp_path):
        """The PR's acceptance criterion: train here, save, reload in a
        fresh interpreter with no training config, compile, score — and get
        float64 bit-identical probabilities."""
        pipe, X_test = _fit(tiny_5gc, dtype="float64")
        got, expected = self._score_in_fresh_process(pipe, X_test[:24], tmp_path)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, expected)

    def test_float32_plan_matches_in_process_and_after_reload(
            self, tiny_5gc, tmp_path):
        """float32 reconstruction, the default: the compiled plan equals the
        pipeline bitwise in this process and after a save → fresh
        interpreter → compile → score cycle."""
        pipe, X_test = _fit(tiny_5gc)
        assert pipe.reconstructor_.model_.dtype == "float32"
        plan = pipe.compile()
        for lo, hi in ((0, 32), (32, 48)):
            np.testing.assert_array_equal(
                plan.predict_proba(X_test[lo:hi]),
                pipe.predict_proba(X_test[lo:hi]))
        got, expected = self._score_in_fresh_process(pipe, X_test[:24], tmp_path)
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)
