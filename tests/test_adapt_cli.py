"""CLI surfaces of the adaptation lifecycle: rediscover --json, repro adapt."""

import json

import numpy as np
import pytest

from repro.adapt.lineage import ArtifactLineage
from repro.cli import main
from repro.core.artifacts import save_artifact
from repro.core.config import FSConfig
from repro.core.feature_separation import FeatureSeparator
from repro.datasets.wide import make_wide_pair
from repro.ml import MLPClassifier


@pytest.fixture(scope="module")
def rediscover_setup(tmp_path_factory):
    """A separator artifact with warm state + source/target matrices on disk."""
    root = tmp_path_factory.mktemp("rediscover")
    src, tgt_same = make_wide_pair(
        16, n_source=240, n_target=96, drift=0.0, random_state=3
    )
    _, tgt_drifted = make_wide_pair(
        16, n_source=8, n_target=96, drift=1.2, random_state=4
    )
    sep = FeatureSeparator(FSConfig()).fit(src, tgt_same)
    artifact = root / "sep.npz"
    save_artifact(sep, artifact)
    np.save(root / "src.npy", src)
    np.save(root / "tgt_same.npy", tgt_same)
    np.save(root / "tgt_drifted.npy", tgt_drifted)
    return root, artifact


class TestRediscoverJson:
    def test_unchanged_variant_set_exits_zero(self, rediscover_setup, capsys):
        root, artifact = rediscover_setup
        code = main([
            "rediscover", "--artifact", str(artifact),
            "--source", str(root / "src.npy"),
            "--target", str(root / "tgt_same.npy"), "--json",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["changed"] is False
        assert doc["added"] == [] and doc["removed"] == []
        assert doc["warm_cache"]["warmed"] is True
        assert doc["mode"] == doc["warm_cache"]["mode"] == "exact"

    def test_changed_variant_set_exits_three(self, rediscover_setup, capsys):
        root, artifact = rediscover_setup
        # diff's 0/1 idiom, one up: 3 gates a full refit in scripts
        code = main([
            "rediscover", "--artifact", str(artifact),
            "--source", str(root / "src.npy"),
            "--target", str(root / "tgt_drifted.npy"), "--json",
        ])
        assert code == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["changed"] is True
        assert doc["added"]  # the drifted parents became variant
        assert doc["n_variant"] == len(doc["added"]) + len(doc["kept"])
        assert set(doc["warm_cache"]) >= {"warm_hits", "warm_misses", "mode"}

    def test_changed_source_reports_cold(self, rediscover_setup, capsys):
        root, artifact = rediscover_setup
        np.save(root / "src_moved.npy", np.load(root / "src.npy") + 0.01)
        code = main([
            "rediscover", "--artifact", str(artifact),
            "--source", str(root / "src_moved.npy"),
            "--target", str(root / "tgt_same.npy"), "--json",
        ])
        assert code in (0, 3)
        doc = json.loads(capsys.readouterr().out)
        # the warm state's source guard rejected it: what ran was cold
        assert doc["mode"] == doc["warm_cache"]["mode"] == "cold"

    def test_human_report_still_default(self, rediscover_setup, capsys):
        root, artifact = rediscover_setup
        code = main([
            "rediscover", "--artifact", str(artifact),
            "--source", str(root / "src.npy"),
            "--target", str(root / "tgt_same.npy"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "re-discovery" in out
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)


@pytest.fixture()
def adapt_root(tmp_path, blob_data):
    """A lineage root: gen 0 active + gen 1 candidate for one tenant."""
    X_train, y_train, _, _ = blob_data
    lineage = ArtifactLineage(tmp_path / "store")
    for seed, kwargs in ((0, dict(parent=None, state="active")), (1, {})):
        model = MLPClassifier(
            hidden_sizes=(8,), epochs=6, random_state=seed
        ).fit(X_train, y_train)
        lineage.publish("nf-east", model, **kwargs)
    return lineage


class TestAdaptSubcommands:
    def test_status_lists_generations_with_markers(self, adapt_root, capsys):
        code = main(["adapt", "status", "--root", str(adapt_root.root)])
        assert code == 0
        out = capsys.readouterr().out
        assert "nf-east:" in out
        assert "* gen 0  active" in out
        assert "gen 1  candidate" in out

    def test_status_empty_root_exits_one(self, tmp_path, capsys):
        code = main(["adapt", "status", "--root", str(tmp_path / "empty")])
        assert code == 1
        assert "no lineage-managed tenants" in capsys.readouterr().out

    def test_promote_then_rollback_round_trip(self, adapt_root, capsys):
        root = str(adapt_root.root)
        code = main(["adapt", "promote", "--root", root,
                     "--tenant", "nf-east"])
        assert code == 0
        assert "promoted nf-east to gen 1" in capsys.readouterr().out
        assert adapt_root.active("nf-east").generation == 1

        code = main(["adapt", "status", "--root", root])
        assert code == 0
        out = capsys.readouterr().out
        assert "* gen 1  active" in out
        assert "rollback would restore gen 0" in out

        code = main(["adapt", "rollback", "--root", root,
                     "--tenant", "nf-east"])
        assert code == 0
        assert "rolled nf-east back to gen 0" in capsys.readouterr().out
        assert adapt_root.active("nf-east").generation == 0

    def test_promote_without_candidate_reports_error(self, tmp_path, blob_data,
                                                     capsys):
        X_train, y_train, _, _ = blob_data
        lineage = ArtifactLineage(tmp_path / "store")
        model = MLPClassifier(
            hidden_sizes=(8,), epochs=6, random_state=0
        ).fit(X_train, y_train)
        lineage.publish("solo", model, parent=None, state="active")
        code = main(["adapt", "promote", "--root", str(lineage.root),
                     "--tenant", "solo"])
        assert code == 1
        assert "no candidate" in capsys.readouterr().err

    def test_rollback_without_previous_reports_error(self, adapt_root, capsys):
        code = main(["adapt", "rollback", "--root", str(adapt_root.root),
                     "--tenant", "nf-east"])
        assert code == 1
        assert "no previous" in capsys.readouterr().err
