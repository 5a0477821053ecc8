"""Shared fixtures: tiny-but-structured datasets, cached per session."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import (
    FiveGCConfig,
    FiveGIPCConfig,
    make_5gc,
    make_5gipc,
)


def _drop_state_array(data):
    """A hash-consistent payload that lacks one state array."""
    from repro.core.artifacts import _content_hash
    from repro.core.estimator import decode_json, encode_json

    manifest = decode_json(data.pop("__manifest__"))
    del data["scaler_.data_min_"]
    manifest["content_hash"] = _content_hash(data)
    data["__manifest__"] = encode_json(manifest)


def _undecodable_manifest(data):
    data["__manifest__"] = np.frombuffer(b"\xff\xfe{", dtype=np.uint8)


def _list_manifest(data):
    from repro.core.estimator import encode_json

    data["__manifest__"] = encode_json(["schema", 2])


@pytest.fixture(params=[
    (_undecodable_manifest, "undecodable manifest"),
    (_list_manifest, "not an object"),
    (_drop_state_array, "cannot restore"),
], ids=["undecodable", "list", "missing-state"])
def malformation(request):
    """``(corrupt, message)``: ``corrupt`` edits a pipeline bundle's arrays
    in place into a malformed bundle; ``message`` is part of the
    ArtifactError that loading it must raise."""
    return request.param


@pytest.fixture()
def rng():
    """Fresh deterministic generator per test (no cross-test coupling)."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def tiny_5gc():
    """A small 5GC benchmark shared (read-only) across tests."""
    return make_5gc(
        FiveGCConfig(n_source=480, n_target=360, feature_scale=0.15),
        random_state=0,
    )


@pytest.fixture(scope="session")
def tiny_5gipc():
    """A small 5GIPC benchmark shared (read-only) across tests."""
    return make_5gipc(
        FiveGIPCConfig(sample_scale=0.08, feature_scale=0.6), random_state=0
    )


@pytest.fixture(scope="session")
def tenant_root(tmp_path_factory, tiny_5gc):
    """Three tiny fitted tenant artifacts + the test matrix to score.

    Session-scoped because fitting pipelines dominates the serve-daemon
    tests' cost; treat the directory as read-only (copy bundles into a
    test-local tmp_path before mutating them).
    """
    from repro.core import FSGANPipeline, ReconstructionConfig
    from repro.core.artifacts import save_artifact
    from repro.ml import MLPClassifier

    root = tmp_path_factory.mktemp("tenants")
    X_few, _, X_test, _ = tiny_5gc.few_shot_split(5, random_state=0)
    names = []
    for i in range(3):
        pipe = FSGANPipeline(
            lambda: MLPClassifier(hidden_sizes=(16,), epochs=8, random_state=i),
            reconstruction_config=ReconstructionConfig(
                strategy="gan", epochs=2, noise_dim=2, hidden_size=8),
            random_state=i,
        ).fit(tiny_5gc.X_source, tiny_5gc.y_source, X_few)
        name = f"tenant-{i:02d}"
        save_artifact(pipe, str(root / f"{name}.npz"))
        names.append(name)
    return root, names, X_test


@pytest.fixture(scope="session")
def blob_data():
    """Well-separated 4-class Gaussian blobs: (X_train, y_train, X_test, y_test)."""
    gen = np.random.default_rng(7)
    centers = np.array(
        [[2.0, 0.0, 1.0, -1.0], [-2.0, 1.0, -1.0, 0.0],
         [0.0, -2.0, 2.0, 1.0], [1.0, 2.0, -2.0, -2.0]]
    )
    X_train, y_train, X_test, y_test = [], [], [], []
    for c, center in enumerate(centers):
        X_train.append(center + 0.4 * gen.standard_normal((40, 4)))
        y_train.extend([c] * 40)
        X_test.append(center + 0.4 * gen.standard_normal((15, 4)))
        y_test.extend([c] * 15)
    return (
        np.vstack(X_train),
        np.array(y_train),
        np.vstack(X_test),
        np.array(y_test),
    )


@pytest.fixture(scope="session")
def binary_blob_data(blob_data):
    """Two-class variant of the blob data."""
    X_train, y_train, X_test, y_test = blob_data
    return X_train, (y_train >= 2).astype(int), X_test, (y_test >= 2).astype(int)
