"""Versioned artifact store: round trips, integrity, malformed bundles.

Includes the cross-process contract: every registered baseline and ml model
is saved in this process and reloaded in a **fresh interpreter** with no
training configuration, and must reproduce its predictions exactly.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import FSGANPipeline, ReconstructionConfig
from repro.core.artifacts import (
    ARTIFACT_SCHEMA_VERSION,
    ArtifactStore,
    load_artifact,
    save_artifact,
)
from repro.ml import MLPClassifier
from repro.utils.errors import ArtifactError

SRC = str(Path(__file__).resolve().parents[1] / "src")


def fast_mlp():
    return MLPClassifier(hidden_sizes=(16,), epochs=8, random_state=0)


@pytest.fixture(scope="module")
def fitted_pipeline(tiny_5gc):
    X_few, _, X_test, _ = tiny_5gc.few_shot_split(5, random_state=0)
    pipe = FSGANPipeline(
        fast_mlp,
        reconstruction_config=ReconstructionConfig(
            epochs=2, noise_dim=2, hidden_size=8),
        random_state=0,
    ).fit(tiny_5gc.X_source, tiny_5gc.y_source, X_few)
    return pipe, X_test[:16]


class TestSaveLoad:
    def test_pipeline_roundtrip_bit_identical(self, fitted_pipeline, tmp_path):
        pipe, X = fitted_pipeline
        path = save_artifact(
            pipe, tmp_path / "pipe.npz",
            provenance={"dataset": "5gc", "seed": 0},
        )
        expected = pipe.predict_proba(X)
        loaded = load_artifact(path)
        assert loaded.kind == "fsgan_pipeline"
        assert loaded.provenance == {"dataset": "5gc", "seed": 0}
        assert loaded.manifest["schema_version"] == ARTIFACT_SCHEMA_VERSION
        assert loaded.manifest["plan"]["stages"][0]["stage"] == "scale"
        np.testing.assert_array_equal(
            loaded.estimator.predict_proba(X), expected)

    def test_sidecar_manifest_written(self, fitted_pipeline, tmp_path):
        pipe, _ = fitted_pipeline
        path = save_artifact(pipe, tmp_path / "pipe.npz")
        sidecar = json.loads(
            (tmp_path / "pipe.npz.manifest.json").read_text())
        assert sidecar["kind"] == "fsgan_pipeline"
        assert sidecar["content_hash"]

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ArtifactError, match="no artifact file"):
            load_artifact(tmp_path / "nope.npz")

    def test_non_artifact_npz_raises(self, tmp_path):
        np.savez(tmp_path / "junk.npz", x=np.zeros(3))
        with pytest.raises(ArtifactError, match="not a repro artifact"):
            load_artifact(tmp_path / "junk.npz")

    def test_corrupted_payload_fails_hash_check(self, fitted_pipeline,
                                                tmp_path):
        pipe, _ = fitted_pipeline
        path = save_artifact(pipe, tmp_path / "pipe.npz")
        data = dict(np.load(path, allow_pickle=False))
        victim = next(k for k in data
                      if data[k].dtype == np.float64 and data[k].size)
        data[victim] = data[victim] + 1e-3
        np.savez_compressed(path, **data)
        with pytest.raises(ArtifactError, match="content hash mismatch"):
            load_artifact(path)

    def test_future_schema_version_rejected(self, fitted_pipeline, tmp_path):
        from repro.core.estimator import decode_json, encode_json

        pipe, _ = fitted_pipeline
        path = save_artifact(pipe, tmp_path / "pipe.npz")
        data = dict(np.load(path, allow_pickle=False))
        manifest = decode_json(data["__manifest__"])
        manifest["schema_version"] = ARTIFACT_SCHEMA_VERSION + 1
        data["__manifest__"] = encode_json(manifest)
        np.savez_compressed(path, **data)
        with pytest.raises(ArtifactError, match="schema version"):
            load_artifact(path)

    def test_v1_layout_rejected(self, tmp_path):
        """The retired flat v1 layout (``meta_json`` + raw arrays)."""
        meta = json.dumps({"format_version": 1}).encode()
        np.savez_compressed(
            tmp_path / "v1.npz",
            meta_json=np.frombuffer(meta, dtype=np.uint8),
            scaler_min=np.zeros(3), scaler_max=np.ones(3),
        )
        with pytest.raises(ArtifactError, match="not a repro artifact"):
            load_artifact(tmp_path / "v1.npz")

    def test_malformed_bundle_raises_artifact_error(
            self, fitted_pipeline, malformation, tmp_path):
        corrupt, message = malformation
        pipe, _ = fitted_pipeline
        path = save_artifact(pipe, tmp_path / "pipe.npz")
        data = dict(np.load(path, allow_pickle=False))
        corrupt(data)
        np.savez_compressed(path, **data)
        with pytest.raises(ArtifactError, match=message) as err:
            load_artifact(path)
        assert str(path) in str(err.value)


class TestArtifactStore:
    def test_save_load_list(self, fitted_pipeline, tmp_path):
        pipe, X = fitted_pipeline
        store = ArtifactStore(tmp_path / "store")
        store.save("separator", pipe.separator_, provenance={"seed": 0})
        store.save("pipeline", pipe)
        expected = pipe.predict_proba(X)

        listing = store.list()
        assert set(listing) == {"separator", "pipeline"}
        assert listing["separator"]["kind"] == "feature_separator"
        assert listing["separator"]["provenance"] == {"seed": 0}
        assert listing["pipeline"]["kind"] == "fsgan_pipeline"
        np.testing.assert_array_equal(
            store.load("separator").estimator.variant_indices_,
            pipe.separator_.variant_indices_)
        np.testing.assert_array_equal(
            store.load("pipeline").estimator.predict_proba(X), expected)

    def test_empty_store_lists_nothing(self, tmp_path):
        assert ArtifactStore(tmp_path / "absent").list() == {}


def _score(est, X):
    """Same dispatch as the child interpreter below."""
    if hasattr(est, "predict_proba"):
        return est.predict_proba(X)
    if hasattr(est, "transform"):
        return est.transform(X)
    return est.predict(X)


_CHILD = """
import sys
import numpy as np
from repro.core.artifacts import ArtifactStore

store = ArtifactStore(sys.argv[1])
batch = np.load(sys.argv[2], allow_pickle=False)
out = {}
for name in store.list():
    est = store.load(name).estimator
    X = batch[name]
    if hasattr(est, "predict_proba"):
        out[name] = est.predict_proba(X)
    elif hasattr(est, "transform"):
        out[name] = est.transform(X)
    else:
        out[name] = est.predict(X)
np.savez(sys.argv[3], **out)
"""


class TestFreshProcessRoundTrip:
    """Satellite contract: every registered baseline and ml model survives
    a save → fresh-interpreter load → predict cycle with exact equality."""

    @pytest.fixture(scope="class")
    def saved_estimators(self, tiny_5gc, blob_data, tmp_path_factory):
        from repro.baselines import ALL_METHODS, build_method
        from repro.ml import (
            DecisionTreeClassifier,
            FastICA,
            GaussianMixture,
            GradientBoostingClassifier,
            MinMaxScaler,
            RandomForestClassifier,
            StandardScaler,
        )

        root = tmp_path_factory.mktemp("bundles")
        store = ArtifactStore(root / "store")
        X_few, y_few, X_test, _ = tiny_5gc.few_shot_split(5, random_state=0)
        Xb_train, yb_train, Xb_test, _ = blob_data

        kwargs = {
            "fine-tune": dict(hidden_sizes=(16,), epochs=5,
                              fine_tune_epochs=5),
            "dann": dict(hidden_size=16, embed_dim=8, epochs=4),
            "scl": dict(hidden_size=16, embed_dim=8, epochs=4),
            "matchnet": dict(hidden_size=16, embed_dim=8, episodes=15),
            "protonet": dict(hidden_size=16, embed_dim=8, episodes=15),
            "cmt": dict(n_augment_per_class=5),
            "fs+gan": dict(reconstruction_config=ReconstructionConfig(
                epochs=2, noise_dim=2, hidden_size=8)),
        }
        batches, expected = {}, {}
        for name in ALL_METHODS:
            method = build_method(name, fast_mlp, random_state=0,
                                  **kwargs.get(name, {}))
            method.fit(tiny_5gc.X_source, tiny_5gc.y_source, X_few, y_few)
            key = name.replace("+", "_").replace("&", "_")
            store.save(key, method)
            batches[key] = X_test[:8]
            expected[key] = _score(method, X_test[:8])

        ml_models = {
            "ml_tree": DecisionTreeClassifier(max_depth=4, random_state=0),
            "ml_rf": RandomForestClassifier(n_estimators=4, max_depth=3,
                                            random_state=0),
            "ml_gbm": GradientBoostingClassifier(n_estimators=3, max_depth=2,
                                                 random_state=0),
            "ml_mlp": fast_mlp(),
            "ml_gmm": GaussianMixture(2, random_state=0),
            "ml_ica": FastICA(2, random_state=0),
            "ml_minmax": MinMaxScaler(),
            "ml_standard": StandardScaler(),
        }
        for key, est in ml_models.items():
            if key in ("ml_gmm", "ml_ica", "ml_minmax", "ml_standard"):
                est.fit(Xb_train)
            else:
                est.fit(Xb_train, yb_train)
            store.save(key, est)
            batches[key] = Xb_test[:8]
            expected[key] = _score(est, Xb_test[:8])

        np.savez(root / "batches.npz", **batches)
        return store, root, expected

    def test_all_estimators_identical_in_fresh_process(self,
                                                       saved_estimators):
        store, root, expected = saved_estimators
        env = dict(os.environ, PYTHONPATH=SRC)
        got_path = root / "got.npz"
        subprocess.run(
            [sys.executable, "-c", _CHILD, str(store.root),
             str(root / "batches.npz"), str(got_path)],
            check=True, env=env, timeout=600,
        )
        got = np.load(got_path, allow_pickle=False)
        assert set(got.files) == set(expected)
        for key in expected:
            np.testing.assert_array_equal(got[key], expected[key], err_msg=key)
