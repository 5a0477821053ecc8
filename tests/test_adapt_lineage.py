"""Artifact lineage: publish/promote/rollback pointer semantics."""

import numpy as np
import pytest

from repro.adapt.lineage import LINEAGE_SCHEMA, ArtifactLineage
from repro.core.artifacts import load_artifact
from repro.ml import MLPClassifier
from repro.utils.errors import ArtifactError


@pytest.fixture(scope="module")
def models(blob_data):
    """Two cheap fitted models with distinct weights (distinct hashes)."""
    X_train, y_train, X_test, _ = blob_data
    fitted = [
        MLPClassifier(hidden_sizes=(8,), epochs=6, random_state=s).fit(
            X_train, y_train
        )
        for s in (0, 1)
    ]
    return fitted[0], fitted[1], X_test[:8]


@pytest.fixture()
def lineage(tmp_path):
    return ArtifactLineage(tmp_path / "store")


class TestPublish:
    def test_generation_zero_seeds_active_pointer(self, lineage, models):
        model, _, X = models
        version = lineage.publish("t", model, parent=None, state="active")
        assert version.generation == 0
        assert version.parent_hash is None
        assert version.lifecycle_state == "active"
        assert lineage.active("t").content_hash == version.content_hash
        # the pointer resolves to the immutable bundle's bytes
        loaded = load_artifact(lineage.pointer_path("t"))
        np.testing.assert_array_equal(
            loaded.estimator.predict_proba(X), model.predict_proba(X)
        )

    def test_candidate_chains_onto_active(self, lineage, models):
        inc, cand, _ = models
        gen0 = lineage.publish("t", inc, parent=None, state="active")
        gen1 = lineage.publish("t", cand)
        assert gen1.generation == 1
        assert gen1.parent_hash == gen0.content_hash
        assert gen1.lifecycle_state == "candidate"
        # publishing a candidate must not move the pointer
        assert lineage.active("t").content_hash == gen0.content_hash

    def test_manifest_carries_lineage_block(self, lineage, models):
        inc, cand, _ = models
        gen0 = lineage.publish("t", inc, parent=None, state="active")
        gen1 = lineage.publish("t", cand)
        manifest = load_artifact(lineage.version_path(gen1)).manifest
        assert manifest["lineage"] == {
            "parent_hash": gen0.content_hash,
            "generation": 1,
            "lifecycle_state": "candidate",
        }

    def test_same_content_dedupes(self, lineage, models):
        model, _, _ = models
        lineage.publish("t", model, parent=None, state="active")
        lineage.publish("t", model, parent=None, state="active")
        assert len(lineage.history("t")) == 1

    def test_invalid_tenant_rejected(self, lineage, models):
        model, _, _ = models
        for bad in ("", "../escape", ".hidden", "a/b"):
            with pytest.raises(ArtifactError, match="invalid tenant"):
                lineage.publish(bad, model)

    def test_unknown_state_rejected(self, lineage, models):
        model, _, _ = models
        with pytest.raises(ArtifactError, match="lifecycle_state"):
            lineage.publish("t", model, state="deployed")


class TestPromoteRollback:
    def _seed(self, lineage, models):
        inc, cand, _ = models
        gen0 = lineage.publish("t", inc, parent=None, state="active")
        gen1 = lineage.publish("t", cand)
        return gen0, gen1

    def test_promote_flips_pointer_and_retires_incumbent(self, lineage, models):
        gen0, gen1 = self._seed(lineage, models)
        promoted = lineage.promote("t")
        assert promoted.content_hash == gen1.content_hash
        assert lineage.active("t").content_hash == gen1.content_hash
        assert lineage.previous("t").content_hash == gen0.content_hash
        states = {v.generation: v.lifecycle_state for v in lineage.history("t")}
        assert states == {0: "retired", 1: "active"}

    def test_promote_active_is_idempotent(self, lineage, models):
        gen0, _ = self._seed(lineage, models)
        again = lineage.promote("t", gen0.content_hash)
        assert again.content_hash == gen0.content_hash
        assert lineage.active("t").content_hash == gen0.content_hash
        assert lineage.previous("t") is None

    def test_promote_without_candidate_raises(self, lineage, models):
        model, _, _ = models
        lineage.publish("t", model, parent=None, state="active")
        with pytest.raises(ArtifactError, match="no candidate"):
            lineage.promote("t")

    def test_rollback_restores_identical_bytes(self, lineage, models):
        self._seed(lineage, models)
        before = lineage.pointer_path("t").read_bytes()
        lineage.promote("t")
        assert lineage.pointer_path("t").read_bytes() != before
        restored = lineage.rollback("t")
        assert restored.generation == 0
        # pure pointer flip: the rollback serves the *identical bytes* the
        # pre-promotion plan was compiled from
        assert lineage.pointer_path("t").read_bytes() == before

    def test_rollback_ping_pong(self, lineage, models):
        gen0, gen1 = self._seed(lineage, models)
        lineage.promote("t")
        lineage.rollback("t")
        assert lineage.active("t").content_hash == gen0.content_hash
        # a second rollback rolls *forward* again
        lineage.rollback("t")
        assert lineage.active("t").content_hash == gen1.content_hash
        assert lineage.previous("t").content_hash == gen0.content_hash

    def test_rollback_without_previous_raises(self, lineage, models):
        model, _, _ = models
        lineage.publish("t", model, parent=None, state="active")
        with pytest.raises(ArtifactError, match="no previous"):
            lineage.rollback("t")


class TestIndexAndIntrospection:
    def test_mark_moves_lifecycle_state(self, lineage, models):
        inc, cand, _ = models
        lineage.publish("t", inc, parent=None, state="active")
        gen1 = lineage.publish("t", cand)
        shadowed = lineage.mark("t", gen1.content_hash, "shadow")
        assert shadowed.lifecycle_state == "shadow"
        assert lineage.history("t")[-1].lifecycle_state == "shadow"
        with pytest.raises(ArtifactError, match="lifecycle_state"):
            lineage.mark("t", gen1.content_hash, "bogus")

    def test_tenants_enumerates_indices(self, lineage, models):
        model, _, _ = models
        assert lineage.tenants() == []
        lineage.publish("b-tenant", model, parent=None, state="active")
        lineage.publish("a-tenant", model, parent=None, state="active")
        assert lineage.tenants() == ["a-tenant", "b-tenant"]

    def test_load_by_hash_and_default(self, lineage, models):
        inc, cand, X = models
        lineage.publish("t", inc, parent=None, state="active")
        gen1 = lineage.publish("t", cand)
        np.testing.assert_array_equal(
            lineage.load("t").estimator.predict_proba(X),
            inc.predict_proba(X),
        )
        np.testing.assert_array_equal(
            lineage.load("t", gen1.content_hash).estimator.predict_proba(X),
            cand.predict_proba(X),
        )
        with pytest.raises(ArtifactError, match="no lineage version"):
            lineage.load("t", "deadbeef")

    def test_unknown_schema_rejected(self, lineage, models):
        model, _, _ = models
        lineage.publish("t", model, parent=None, state="active")
        path = lineage.index_path("t")
        path.write_text(path.read_text().replace(LINEAGE_SCHEMA, "bogus/v9"))
        with pytest.raises(ArtifactError, match="unknown lineage schema"):
            lineage.active("t")

    @pytest.mark.parametrize("text, match", [
        ("{not json", "corrupt lineage index"),
        ("[1, 2]", "not an object"),
    ], ids=["bad-json", "list"])
    def test_corrupt_index_raises_artifact_error(self, lineage, models,
                                                 text, match):
        model, _, _ = models
        lineage.publish("t", model, parent=None, state="active")
        lineage.index_path("t").write_text(text)
        with pytest.raises(ArtifactError, match=match):
            lineage.active("t")
        with pytest.raises(ArtifactError, match=match):
            lineage.history("t")
